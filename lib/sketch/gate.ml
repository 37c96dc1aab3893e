(* Promotion/demotion state machine with hysteresis: the per-path
   policy core of the sketch-gated triage front end.

   A path is either Quiet (tracked only by sketches) or Promoted
   (running full incremental EM + SDCL/WDCL re-tests).  Crossing a
   promotion threshold must persist for [promote_after] consecutive
   epochs before the path is promoted; demotion is deliberately more
   conservative — the signals must sit below a margin-shrunk threshold
   AND the EM side must have settled on a no-dominant verdict, for
   [demote_after] consecutive epochs — so delay-reactive cross-traffic
   that suppresses its own signal (the hard cases in "Common Problems
   in Delay-Based Congestion Control Algorithms") is not dropped from
   full inference the moment it backs off. *)

type config = {
  loss_threshold : float;
  drift_threshold : float;
  promote_after : int;
  demote_after : int;
  demote_margin : float;
}

let config ?(loss_threshold = 0.2) ?(drift_threshold = 0.75) ?(promote_after = 2)
    ?(demote_after = 4) ?(demote_margin = 0.8) () =
  if Stats.Float_cmp.lt loss_threshold 0. then
    invalid_arg "Sketch.Gate.config: loss_threshold must be non-negative";
  if Stats.Float_cmp.lt drift_threshold 0. then
    invalid_arg "Sketch.Gate.config: drift_threshold must be non-negative";
  if promote_after < 1 then
    invalid_arg "Sketch.Gate.config: promote_after must be positive";
  if demote_after < 1 then
    invalid_arg "Sketch.Gate.config: demote_after must be positive";
  if Stats.Float_cmp.lt demote_margin 0. || Stats.Float_cmp.gt demote_margin 1.
  then invalid_arg "Sketch.Gate.config: demote_margin must be in [0, 1]";
  { loss_threshold; drift_threshold; promote_after; demote_after; demote_margin }

(* Direct float comparisons (exactly [Stats.Float_cmp.geq]/[lt] at zero
   slack), inlined so evaluating the gate boxes no float. *)
let[@inline] loss_high cfg loss = loss >= cfg.loss_threshold
let[@inline] drift_high cfg drift = drift >= cfg.drift_threshold
let[@inline] suspect cfg ~loss ~drift = loss_high cfg loss || drift_high cfg drift

type cause = Loss | Drift | Both

(* Static strings so forensic consumers (trace events, timelines) can
   store the cause without allocating per emission. *)
let cause_name = function
  | Loss -> "loss-ewma"
  | Drift -> "drift"
  | Both -> "loss-ewma+drift"

let suspect_cause cfg ~loss ~drift =
  match (loss_high cfg loss, drift_high cfg drift) with
  | true, true -> Some Both
  | true, false -> Some Loss
  | false, true -> Some Drift
  | false, false -> None

let[@inline] calm cfg ~loss ~drift =
  loss < cfg.demote_margin *. cfg.loss_threshold
  && drift < cfg.demote_margin *. cfg.drift_threshold

(* One promoted flag and one streak per path, as two columns. *)
type t = { promoted : bool array; streak : int array }

let create n = { promoted = Array.make n false; streak = Array.make n 0 }
let promoted t i = t.promoted.(i)
let streak t i = t.streak.(i)

type decision = Stay | Promote | Demote

let step cfg t i ~suspect ~calm ~settled =
  if t.promoted.(i) then
    if calm && settled then begin
      t.streak.(i) <- t.streak.(i) + 1;
      if t.streak.(i) >= cfg.demote_after then begin
        t.promoted.(i) <- false;
        t.streak.(i) <- 0;
        Demote
      end
      else Stay
    end
    else begin
      t.streak.(i) <- 0;
      Stay
    end
  else if suspect then begin
    t.streak.(i) <- t.streak.(i) + 1;
    if t.streak.(i) >= cfg.promote_after then begin
      t.promoted.(i) <- true;
      t.streak.(i) <- 0;
      Promote
    end
    else Stay
  end
  else begin
    t.streak.(i) <- 0;
    Stay
  end

let evaluate cfg t i (s : Estimators.signals) ~settled =
  let loss = s.loss and drift = s.drift in
  step cfg t i ~suspect:(suspect cfg ~loss ~drift) ~calm:(calm cfg ~loss ~drift)
    ~settled
