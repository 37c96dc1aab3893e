(** Probe traces: the sequence of per-probe outcomes (end–end delay or
    loss) that the identification pipeline consumes, optionally paired
    with virtual-probe ground truth for validation. *)

type observation = Lost | Delay of float  (** end–end delay, seconds *)

type truth = {
  virtual_queuing_delay : float;
      (** the paper's [Y]: end–end queuing delay of the virtual probe,
          with the loss-mark hop contributing [Q_k] *)
  hop_queuing : float array;
  loss_hop : int option;  (** hop index of the loss mark *)
}

type record = { send_time : float; obs : observation; truth : truth option }

type t = {
  records : record array;
  interval : float;  (** probe spacing, seconds *)
  base_delay : float;  (** queuing-free end–end delay (propagation + tx) *)
  hop_count : int;
}

val create :
  records:record array -> interval:float -> base_delay:float -> hop_count:int -> t
(** Raises [Invalid_argument] unless [interval] is finite and positive
    and [base_delay], every send time and every observed delay are
    finite: one NaN delay would make {!min_delay} and {!max_delay} NaN
    and silently collapse every discretized symbol.  The ground-truth
    fields are not checked. *)

val length : t -> int
val losses : t -> int
val loss_rate : t -> float
val duration : t -> float

val observations : t -> observation array

val observed_delays : t -> float array
(** Delays of the probes that were not lost, in order. *)

val min_delay : t -> float
(** Smallest observed end–end delay (the paper's [R_min], used to
    approximate the propagation delay when it is unknown).  Requires at
    least one surviving probe. *)

val max_delay : t -> float

val truth_virtual_delays : t -> float array
(** Ground-truth virtual {e queuing} delays of the probes carrying a
    loss mark — the population whose CDF is the paper's [F].  Empty if
    the trace carries no ground truth. *)

val truth_loss_share : t -> int -> float
(** [truth_loss_share t hop] = fraction of loss marks at path hop
    [hop]; 0 when there are no losses. *)

val sub : t -> pos:int -> len:int -> t
(** Contiguous sub-trace (records [pos .. pos+len-1]). *)

val random_segment : Stats.Rng.t -> t -> duration:float -> t
(** Uniformly positioned contiguous segment covering [duration]
    seconds of probing (Section VI-A4's evaluation protocol). *)

val save : t -> string -> unit
(** Write the trace to a text file (one record per line; ground truth
    retained when present). *)

val load : string -> t
(** Inverse of {!save}.  Raises [Failure] on a missing or malformed
    header or record (an empty file included) and [Invalid_argument]
    as {!create} does. *)
