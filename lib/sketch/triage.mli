(** The sketch triage front end of a fleet: which paths deserve full
    inference.

    One value holds, for every path, the loss-fraction EWMA
    ({!Estimators.Ewma}), the delay-quantile tracker
    ({!Estimators.Quantile}) and the promotion gate ({!Gate}), plus
    the count-min sketch over losses ({!Count_min}) shared by all
    paths and the epoch of each path's last gate evaluation.  The
    EWMA's smoothing factor is 0.15 and the tracked quantile 0.75.  All of it
    is flat columns indexed by path: there is no per-path heap record.

    {!push} folds one batch: one pass over the observations (losses
    counted, quantile updated per symbol), one hashed add to the
    count-min sketch, one EWMA update and — at the path's first push of
    an epoch — one gate evaluation against the masked loss signal and
    the quantile's elevation.  A quiet path's push allocates nothing.

    Single-writer: the fleet drives it from one domain, in a fixed push
    order (the shared sketch makes gate decisions depend on that
    order). *)

type t

val create : Gate.config -> paths:int -> symbols:int -> t
(** Triage for paths [0 .. paths-1] whose delay symbols lie in
    [\[0, symbols)]: every path Quiet, every estimator fresh.  Raises
    [Invalid_argument] unless [paths >= 1] and [symbols >= 2]. *)

val push :
  t -> path:int -> epoch:int -> settled:bool -> int option array -> Gate.decision
(** Fold a non-empty batch of path [path]'s observations ([None] is a
    loss) pushed during [epoch].  The first push of a path in an epoch
    also coasts its EWMA over epochs it missed and evaluates its gate;
    [settled] says the path's full inference currently concludes
    [No_dominant] (used for demotion).  Returns the gate's decision
    ([Stay] on later pushes of the same epoch).  Symbols are not
    range-checked here: they are clamped into the tracked range.
    Raises [Invalid_argument] on an empty batch or an out-of-range
    path. *)

val cause : t -> Gate.cause option
(** Which signal(s) crossed their threshold at the most recent gate
    evaluation — the cause of a [Promote] that {!push} just
    returned. *)

val age : t -> unit
(** Halve the shared count-min sketch; once per epoch. *)

val promoted : t -> int -> bool
val streak : t -> int -> int

val loss_ewma : t -> int -> float
(** The path's loss-fraction EWMA (unmasked). *)

val quantile : t -> int -> float
(** The path's delay-quantile estimate. *)

val drift : t -> int -> float
(** The quantile's elevation in [\[0, 1\]]: the drift signal. *)

val loss_estimate : t -> int -> int
(** Count-min estimate of the path's decayed loss count (only ever an
    overestimate). *)
