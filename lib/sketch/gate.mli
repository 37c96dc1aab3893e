(** Promotion/demotion state machine with hysteresis — the per-path
    policy core of the sketch-gated triage front end.  The state of
    every path lives in two flat columns (promoted flag, streak)
    indexed by path; {!evaluate} reads a path's signals from an
    all-float {!Estimators.signals} record, so an epoch's evaluation
    boxes no float.

    A path is {e Quiet} (tracked only by the O(1) sketch estimators) or
    {e Promoted} (running full incremental EM and SDCL/WDCL re-tests).
    Each epoch the owner feeds the machine three booleans distilled
    from the path's sketches and model:

    - [suspect]: a promotion signal crossed its threshold ({!suspect}
      over the loss EWMA and delay-quantile elevation);
    - [calm]: every signal sits below [demote_margin] times its
      threshold — the hysteresis band that stops border-line paths
      from flapping;
    - [settled]: the full inference has a current no-dominant verdict.

    Promotion fires after [promote_after] consecutive suspect epochs.
    Demotion is deliberately more conservative: it needs [calm] AND
    [settled] for [demote_after] consecutive epochs, so delay-reactive
    cross-traffic that periodically suppresses its own congestion
    signal keeps its full-inference slot.  Any miss resets the streak. *)

type config = {
  loss_threshold : float;  (** promote when the loss EWMA reaches this *)
  drift_threshold : float;
      (** promote when the delay-quantile elevation reaches this *)
  promote_after : int;  (** consecutive suspect epochs before promotion *)
  demote_after : int;  (** consecutive calm+settled epochs before demotion *)
  demote_margin : float;
      (** hysteresis: calm means below [margin * threshold], in [\[0, 1\]] *)
}

val config :
  ?loss_threshold:float ->
  ?drift_threshold:float ->
  ?promote_after:int ->
  ?demote_after:int ->
  ?demote_margin:float ->
  unit ->
  config
(** Defaults: [loss_threshold = 0.2], [drift_threshold = 0.75],
    [promote_after = 2], [demote_after = 4], [demote_margin = 0.8].
    Raises [Invalid_argument] on out-of-range values. *)

val suspect : config -> loss:float -> drift:float -> bool
(** Either signal at or above its promotion threshold. *)

type cause = Loss | Drift | Both
(** Which signal(s) crossed: the forensic refinement of {!suspect}. *)

val cause_name : cause -> string
(** Static display name: ["loss-ewma"], ["drift"],
    ["loss-ewma+drift"].  Never allocates. *)

val suspect_cause : config -> loss:float -> drift:float -> cause option
(** [Some c] exactly when {!suspect} holds, refined by which
    threshold(s) were crossed. *)

val calm : config -> loss:float -> drift:float -> bool
(** Both signals strictly below their margin-shrunk thresholds. *)

type t
(** The gate state of a fleet of paths: one promoted flag and one
    streak per path, stored as two columns and addressed by path
    index. *)

val create : int -> t
(** [create n]: [n] fresh Quiet gates, indices [0 .. n-1]. *)

val promoted : t -> int -> bool

val streak : t -> int -> int
(** Consecutive qualifying epochs toward the path's next transition. *)

type decision = Stay | Promote | Demote

val step :
  config -> t -> int -> suspect:bool -> calm:bool -> settled:bool -> decision
(** Advance path [i] one epoch.  [Promote] and [Demote] are returned
    exactly on the epoch the state flips; the caller owns the side
    effects (moving the path on or off full inference). *)

val evaluate : config -> t -> int -> Estimators.signals -> settled:bool -> decision
(** [step] with [suspect] and [calm] computed from the path's two
    signals.  Allocates nothing. *)
