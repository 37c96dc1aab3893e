(* Streaming per-path estimators for the triage front end: a loss-rate
   EWMA, a Robbins-Monro delay-quantile tracker, and the quantized
   lookup tables that replace their nonlinear ops with O(1) indexing —
   the data-plane trick AHAB uses for rate estimation (precompute the
   nonlinear function over a quantized domain, look it up per update).

   Two nonlinear ops are table-quantized here:

   - [Decay_table]: [factor^k] for coasting an estimator (or a demoted
     path's sufficient statistics) over k skipped epochs, instead of a
     [**] per path per epoch;
   - [Quantile]'s step schedule: the Robbins-Monro 1/n gain, quantized
     to powers of two of the observation count, so an update costs one
     table load instead of a division.

   Storage is by column: an [Ewma.t] or [Quantile.t] holds one slot per
   path in flat [Float.Array]/[int array] columns, and every operation
   takes the path's index.  Floats therefore never sit in a boxed
   mutable field, and nothing here passes a computed float across a
   module boundary on the per-push path (the gate reads its two
   signals through the flat [signals] record). *)

module Decay_table = struct
  type t = { factor : float; pows : float array }

  let make ?(max_pow = 64) ~factor () =
    if Stats.Float_cmp.lt factor 0. || Stats.Float_cmp.gt factor 1. then
      invalid_arg "Sketch.Estimators.Decay_table.make: factor must be in [0, 1]";
    if max_pow < 1 then
      invalid_arg "Sketch.Estimators.Decay_table.make: max_pow must be positive";
    let pows = Array.make (max_pow + 1) 1. in
    for k = 1 to max_pow do
      pows.(k) <- pows.(k - 1) *. factor
    done;
    { factor; pows }

  let factor t = t.factor
  let max_pow t = Array.length t.pows - 1

  let[@inline] pow t k =
    if k < 0 then invalid_arg "Sketch.Estimators.Decay_table.pow: negative power";
    t.pows.(min k (Array.length t.pows - 1))
end

module Ewma = struct
  (* Written as [(1 - alpha) * v + alpha * x] (not [v + alpha * (x - v)])
     so that an x = 0 update is bitwise [v * (1 - alpha)] — the same
     per-step factor Decay_table accumulates, which is what makes
     coasting k epochs agree with k explicit zero updates up to
     multiplication order. *)
  type t = {
    alpha : float;
    one_minus : float;
    value : Float.Array.t;
    primed : bool array;
  }

  let make ~alpha n =
    if Stats.Float_cmp.leq alpha 0. || Stats.Float_cmp.gt alpha 1. then
      invalid_arg "Sketch.Estimators.Ewma.make: alpha must be in (0, 1]";
    {
      alpha;
      one_minus = 1. -. alpha;
      value = Float.Array.make n 0.;
      primed = Array.make n false;
    }

  let[@inline] update t i x =
    if t.primed.(i) then
      Float.Array.set t.value i
        ((t.one_minus *. Float.Array.get t.value i) +. (t.alpha *. x))
    else begin
      Float.Array.set t.value i x;
      t.primed.(i) <- true
    end

  let update_ratio t i num den =
    update t i (float_of_int num /. float_of_int den)

  let coast t table i k =
    if k < 0 then invalid_arg "Sketch.Estimators.Ewma.coast: negative epochs";
    if k > 0 && t.primed.(i) then
      Float.Array.set t.value i (Float.Array.get t.value i *. Decay_table.pow table k)

  let[@inline] value t i = Float.Array.get t.value i
  let primed t i = t.primed.(i)
end

module Quantile = struct
  (* All-float, so its fields are stored unboxed: a branch choosing
     between [lo] and a computed float then boxes neither. *)
  type range = { p : float; lo : float; hi : float }

  type t = {
    r : range;
    gains : float array; (* Robbins-Monro gains by level, shared by every slot *)
    q : Float.Array.t;
    count : int array;
    level : int array; (* cached gain level of [count] *)
  }

  let make ?(levels = 16) ?step0 ~p ~lo ~hi n =
    if Stats.Float_cmp.leq p 0. || Stats.Float_cmp.geq p 1. then
      invalid_arg "Sketch.Estimators.Quantile.make: p must be in (0, 1)";
    if not (lo < hi) then
      invalid_arg "Sketch.Estimators.Quantile.make: lo must be below hi";
    if levels < 1 then
      invalid_arg "Sketch.Estimators.Quantile.make: levels must be positive";
    let step0 = match step0 with Some s -> s | None -> (hi -. lo) /. 4. in
    if Stats.Float_cmp.leq step0 0. then
      invalid_arg "Sketch.Estimators.Quantile.make: step0 must be positive";
    {
      r = { p; lo; hi };
      gains = Array.init levels (fun k -> step0 /. float_of_int (1 lsl k));
      q = Float.Array.make n lo;
      count = Array.make n 0;
      level = Array.make n 0;
    }

  (* [Float.max lo (Float.min hi x)] for the values reachable here
     (never NaN, never -0.), without the stdlib call's boxing. *)
  let[@inline] clamp r x = if x < r.lo then r.lo else if x > r.hi then r.hi else x

  (* The gain level is [min (bits (count lsr 4)) (levels - 1)]: halve
     the step every doubling of the count past a 16-observation
     warm-up.  [count] grows by one per update, so the cached level
     rises by at most one, exactly when [count lsr 4] gains a bit. *)
  let[@inline] update t i y =
    let n = t.count.(i) + 1 in
    t.count.(i) <- n;
    let y = float_of_int y and r = t.r in
    if n = 1 then Float.Array.set t.q i (clamp r y)
    else begin
      let level = t.level.(i) in
      let level =
        if level < Array.length t.gains - 1 && (n lsr 4) lsr level > 0 then begin
          t.level.(i) <- level + 1;
          level + 1
        end
        else level
      in
      let q = Float.Array.get t.q i in
      let dir = if y > q then r.p else r.p -. 1. in
      Float.Array.set t.q i (clamp r (q +. (Array.unsafe_get t.gains level *. dir)))
    end

  let absorb t i batch =
    let losses = ref 0 in
    for k = 0 to Array.length batch - 1 do
      match Array.unsafe_get batch k with
      | None -> incr losses
      | Some y -> update t i y
    done;
    !losses

  let value t i = Float.Array.get t.q i
  let count t i = t.count.(i)
  let[@inline] elevation t i =
    (Float.Array.get t.q i -. t.r.lo) /. (t.r.hi -. t.r.lo)
end

type signals = { mutable loss : float; mutable drift : float }

let signals () = { loss = 0.; drift = 0. }

let read_signals ewma quantile i s =
  s.loss <- Ewma.value ewma i;
  s.drift <- Quantile.elevation quantile i
