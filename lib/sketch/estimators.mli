(** Streaming per-path estimators for the triage front end, with
    quantized lookup tables replacing their nonlinear ops (the AHAB
    data-plane idiom: precompute the nonlinearity over a quantized
    domain, index it in O(1) per update).

    {b Storage.}  An {!Ewma.t} or {!Quantile.t} is a set of [n]
    independent trackers, one per monitored path, stored as flat
    columns ([Float.Array] for values, [int]/[bool] arrays for counts,
    levels and flags) and addressed by path index; a {!Quantile.t}'s
    gain table is shared by all of its slots.  Updates write floats
    into flat columns, so they never box, and the per-batch fold
    ({!Quantile.absorb}) and the gate's readout ({!read_signals}) pass
    no float across a module boundary: a quiet path's push allocates
    nothing.

    Everything here is single-writer state, updated from the driver
    domain at push time, and fully deterministic: the same update
    sequence reproduces the same estimate bitwise. *)

(** Precomputed powers [factor^k]: coasting an estimator (or a demoted
    path's decayed sufficient statistics) over [k] skipped epochs is
    one table load and one multiply instead of a [**]. *)
module Decay_table : sig
  type t

  val make : ?max_pow:int -> factor:float -> unit -> t
  (** Table of [factor^0 .. factor^max_pow] (default 64), accumulated
      by successive multiplication — the same products [k] single
      decays produce.  Raises [Invalid_argument] unless
      [factor] is in [\[0, 1\]] and [max_pow >= 1]. *)

  val pow : t -> int -> float
  (** [pow t k] is [factor^k], clamped at [max_pow] (past it the
      coasted signal is indistinguishable from zero).  Raises
      [Invalid_argument] on a negative [k]. *)

  val factor : t -> float
  val max_pow : t -> int
end

(** Exponentially weighted moving averages, e.g. of each path's
    per-batch loss fraction. *)
module Ewma : sig
  type t

  val make : alpha:float -> int -> t
  (** [make ~alpha n]: [n] averages with smoothing factor [alpha] in
      (0, 1]; each slot's first {!update} primes its value directly.
      Raises [Invalid_argument] out of range. *)

  val update : t -> int -> float -> unit
  (** [update t i x]: [value <- (1 - alpha) * value + alpha * x] for
      slot [i] — written in that form so an [x = 0] update is bitwise
      [value * (1 - alpha)], matching {!Decay_table}'s per-step
      factor. *)

  val update_ratio : t -> int -> int -> int -> unit
  (** [update_ratio t i num den] is
      [update t i (float_of_int num /. float_of_int den)] without a
      boxed argument. *)

  val coast : t -> Decay_table.t -> int -> int -> unit
  (** [coast t table i k] applies [k] missed zero-updates to slot [i]
      in one multiply through the table: equal to [k] explicit
      [update t i 0.] calls up to multiplication order (the table
      accumulates left-to-right).  A no-op before the slot's first
      update.  Raises [Invalid_argument] on negative [k]. *)

  val value : t -> int -> float
  (** [0.] before the slot's first update. *)

  val primed : t -> int -> bool
end

(** Robbins-Monro p-quantile trackers over integer symbols: per slot,
    one float of state, one comparison and one table-quantized gain
    per observation.

    [q <- q + step_n * (p - 1{y <= q})] converges to the p-quantile of
    a stationary input; the gain [step_n] follows the 1/n schedule
    quantized to powers of two of the count (a [levels]-entry lookup
    table shared by every slot).  Each slot caches its current gain
    level and bumps it when its count crosses the next power of two,
    so an update runs no loop.  Monotone by construction: an
    observation above the estimate can only raise it, one below can
    only lower it. *)
module Quantile : sig
  type t

  val make :
    ?levels:int -> ?step0:float -> p:float -> lo:float -> hi:float -> int -> t
  (** [make ~p ~lo ~hi n]: [n] trackers of the [p]-quantile (in
      (0, 1)) of inputs clamped to [\[lo, hi\]].  [step0] (default
      [(hi - lo) / 4]) is the warm-up gain, halved at every count
      doubling past 16 observations down through [levels] (default 16)
      table entries.  Raises [Invalid_argument] on out-of-range
      parameters (including [lo] or [hi] NaN). *)

  val update : t -> int -> int -> unit
  (** [update t i y]: fold symbol [y] into slot [i]. *)

  val absorb : t -> int -> int option array -> int
  (** [absorb t i batch]: {!update} slot [i] with every [Some y] of
      [batch], in order, and return the number of [None]s (losses).
      One pass; allocates nothing. *)

  val value : t -> int -> float
  (** Slot [i]'s estimate, clamped to [\[lo, hi\]]; [lo] before the
      first update. *)

  val elevation : t -> int -> float
  (** [(value - lo) / (hi - lo)]: the estimate's normalized height
      above the range floor, in [\[0, 1\]] — the fleet gate's
      delay-quantile-drift signal (how far the path's delay quantile
      has climbed above its propagation floor). *)

  val count : t -> int -> int
end

(** The gate's two inputs for one path, as an all-float record: its
    fields are stored unboxed, so the readout crosses into {!Gate}
    without allocating. *)
type signals = { mutable loss : float; mutable drift : float }

val signals : unit -> signals
(** A zeroed record, reused across readouts. *)

val read_signals : Ewma.t -> Quantile.t -> int -> signals -> unit
(** [read_signals ewma quantile i s] stores slot [i]'s
    {!Ewma.value} in [s.loss] and its {!Quantile.elevation} in
    [s.drift]. *)
