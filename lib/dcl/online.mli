(** Sliding-window identification: continuous monitoring of a path's
    congestion structure.

    The paper identifies a DCL from one offline probing window; a
    network operator, however, wants to watch the structure evolve —
    e.g. to notice when a second link becomes congested and the path
    stops having a dominant congested link.  This module re-runs the
    identification pipeline over a window sliding along the trace and
    reports the sequence of conclusions. *)

type sample = {
  at : float;  (** send time of the window's last probe *)
  conclusion : Identify.conclusion option;
      (** [None] when the window was not identifiable (no loss or no
          delay spread) *)
  f_at_two_d_star : float;  (** WDCL statistic; [nan] when unidentifiable *)
  loss_rate : float;
}

val scan :
  ?params:Identify.params ->
  ?domains:int ->
  ?on_change:
    (at:float ->
    was:Identify.conclusion option ->
    now:Identify.conclusion option ->
    unit) ->
  rng:Stats.Rng.t ->
  window:float ->
  stride:float ->
  Probe.Trace.t ->
  sample list
(** [scan ~rng ~window ~stride trace] evaluates the identification on
    [\[t, t + window\]] for [t = 0, stride, 2*stride, ...] (times
    relative to the trace start) and returns one sample per window, in
    order.  Requires [0 < stride] and [0 < window <= duration].

    Window positions are walked in integer record indices (the stride
    is rounded once to a whole number of probe intervals, minimum one
    record), so the scan emits exactly
    [(length - per_window) / stride_records + 1] samples with no
    float-accumulation drift.  Quotients such as [window /. interval]
    that are within one part in 10^9 of an integer are snapped to that
    integer before rounding, so decimal-fraction parameters (window
    1.0 s, interval 0.1 s) give exactly the 10-record window they name
    rather than an 11-record one from binary-float excess.

    {b Coverage contract.}  Every record index in
    [\[0, (count - 1) * stride_records + per_window)] is read by at
    least one window; trailing records beyond that bound (fewer than
    [stride_records] of them whenever at least one window fits, but
    possibly the whole trace when [window > duration] of the trace)
    are analyzed by {e no} window.  The scan publishes that tail size
    through the [dcl_online_tail_records] gauge (last scan) and the
    [dcl_online_tail_records_total] counter (cumulative) so deployments
    can alarm on a stride/window mismatch; it never pads or emits a
    partial window, since a shorter window would silently change the
    statistical power of the tests run inside it.

    Each window's identification draws from
    its own RNG pre-split from [rng], so with [domains > 1] the windows
    are evaluated on that many concurrent domains of the persistent
    pool ({!Stats.Pool}) and the samples are identical to the serial
    run.

    {b Warm workspaces.}  Every window's EM fits run on the evaluating
    domain's persistent workspace ([Em.domain_ws], kept in
    [Domain.DLS] and warm across pool jobs), so consecutive windows on
    a domain reuse grown buffers instead of re-allocating them.  The
    reuse is layout-only — a warm workspace holds no carried state, so
    the fitted models are bit-identical to fresh-workspace fits
    (asserted in [test/test_em.ml], "warm workspace = fresh across
    windows").

    [on_change] is called once per conclusion transition — each
    consecutive window pair whose conclusions differ — with the
    timestamp of the later window and the two conclusions.  The calls
    happen after all windows are evaluated, in chronological order, on
    the calling domain, regardless of [domains] and of whether
    observability collection is enabled (the
    [dcl_online_conclusion_transitions_total] counter, by contrast,
    only counts while enabled). *)

val changes : sample list -> (float * Identify.conclusion option) list
(** Collapse a scan to its change points: the first sample and every
    sample whose conclusion differs from its predecessor's. *)
