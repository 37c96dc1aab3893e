(* Tests for the sketch triage layer: count-min overestimation (the
   bound the gate's loss masking relies on) and lazy aging, decay-table/
   EWMA coasting identities, Robbins-Monro quantile-tracker monotonicity
   and convergence, the promotion/demotion hysteresis machine, and the
   column-based triage against a record-per-path reference. *)

let check_float = Alcotest.(check (float 1e-12))

(* --- record-based reference ---------------------------------------------- *)

(* Record-per-path estimators, an eagerly halved count-min sketch and a
   record gate, written the straightforward way: the reference the
   column-based triage must match bitwise in every value, estimate and
   decision. *)
module Ref = struct
  module Count_min = struct
    type t = {
      rows : int;
      width : int;
      mask : int;
      counts : int array;
      seeds : int64 array;
    }

    let rec next_pow2 n k = if k >= n then k else next_pow2 n (k * 2)

    let mix z =
      let z =
        Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L
      in
      let z =
        Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL
      in
      Int64.logxor z (Int64.shift_right_logical z 31)

    let create ?(rows = 4) ~width ~seed () =
      let width = next_pow2 width 1 in
      let rng = Stats.Rng.create seed in
      {
        rows;
        width;
        mask = width - 1;
        counts = Array.make (rows * width) 0;
        seeds = Array.init rows (fun _ -> Stats.Rng.bits64 rng);
      }

    let slot t row key =
      Int64.to_int (mix (Int64.add (Int64.of_int key) t.seeds.(row))) land t.mask

    let add t key n =
      for r = 0 to t.rows - 1 do
        let i = (r * t.width) + slot t r key in
        t.counts.(i) <- t.counts.(i) + n
      done

    let query t key =
      let best = ref max_int in
      for r = 0 to t.rows - 1 do
        let c = t.counts.((r * t.width) + slot t r key) in
        if c < !best then best := c
      done;
      !best

    let halve t =
      for i = 0 to Array.length t.counts - 1 do
        t.counts.(i) <- t.counts.(i) asr 1
      done
  end

  module Ewma = struct
    type t = {
      alpha : float;
      one_minus : float;
      mutable value : float;
      mutable primed : bool;
    }

    let make ~alpha = { alpha; one_minus = 1. -. alpha; value = 0.; primed = false }

    let update t x =
      if t.primed then t.value <- (t.one_minus *. t.value) +. (t.alpha *. x)
      else begin
        t.value <- x;
        t.primed <- true
      end

    let coast t table k =
      if k > 0 && t.primed then
        t.value <- t.value *. Sketch.Estimators.Decay_table.pow table k
  end

  module Quantile = struct
    type t = {
      p : float;
      lo : float;
      hi : float;
      steps : float array;
      mutable q : float;
      mutable count : int;
    }

    let make ?(levels = 16) ~p ~lo ~hi () =
      let step0 = (hi -. lo) /. 4. in
      {
        p;
        lo;
        hi;
        steps = Array.init levels (fun k -> step0 /. float_of_int (1 lsl k));
        q = lo;
        count = 0;
      }

    let level t =
      let n = t.count lsr 4 in
      let k = ref 0 in
      while n lsr !k > 0 do
        incr k
      done;
      min !k (Array.length t.steps - 1)

    let update t y =
      t.count <- t.count + 1;
      if t.count = 1 then t.q <- Float.max t.lo (Float.min t.hi y)
      else begin
        let step = t.steps.(level t) in
        let dir = if Stats.Float_cmp.gt y t.q then t.p else t.p -. 1. in
        t.q <- Float.max t.lo (Float.min t.hi (t.q +. (step *. dir)))
      end

    let elevation t = (t.q -. t.lo) /. (t.hi -. t.lo)
  end

  module Gate = struct
    open Sketch.Gate

    type t = { mutable promoted : bool; mutable streak : int }

    let suspect_cause cfg ~loss ~drift =
      let l = Stats.Float_cmp.geq loss cfg.loss_threshold in
      let d = Stats.Float_cmp.geq drift cfg.drift_threshold in
      match (l, d) with
      | true, true -> Some Both
      | true, false -> Some Loss
      | false, true -> Some Drift
      | false, false -> None

    let calm cfg ~loss ~drift =
      Stats.Float_cmp.lt loss (cfg.demote_margin *. cfg.loss_threshold)
      && Stats.Float_cmp.lt drift (cfg.demote_margin *. cfg.drift_threshold)

    let step cfg t ~suspect ~calm ~settled =
      if t.promoted then
        if calm && settled then begin
          t.streak <- t.streak + 1;
          if t.streak >= cfg.demote_after then begin
            t.promoted <- false;
            t.streak <- 0;
            Demote
          end
          else Stay
        end
        else begin
          t.streak <- 0;
          Stay
        end
      else if suspect then begin
        t.streak <- t.streak + 1;
        if t.streak >= cfg.promote_after then begin
          t.promoted <- true;
          t.streak <- 0;
          Promote
        end
        else Stay
      end
      else begin
        t.streak <- 0;
        Stay
      end
  end

  (* The sketch half of the fleet's gated push, as it was. *)
  type triage = {
    cfg : Sketch.Gate.config;
    cms : Count_min.t;
    loss : Ewma.t array;
    quant : Quantile.t array;
    gates : Gate.t array;
    last_eval : int array;
    decay : Sketch.Estimators.Decay_table.t;
  }

  let create cfg ~paths ~m =
    {
      cfg;
      cms = Count_min.create ~width:(4 * paths) ~seed:0x5ce7c4 ();
      loss = Array.init paths (fun _ -> Ewma.make ~alpha:0.15);
      quant =
        Array.init paths (fun _ ->
            Quantile.make ~p:0.75 ~lo:0. ~hi:(float_of_int (m - 1)) ());
      gates = Array.init paths (fun _ -> { Gate.promoted = false; streak = 0 });
      last_eval = Array.make paths (-1);
      decay = Sketch.Estimators.Decay_table.make ~factor:(1. -. 0.15) ();
    }

  let push g ~path:pidx ~epoch ~settled batch =
    let len = Array.length batch in
    let losses = ref 0 in
    let quant = g.quant.(pidx) in
    for i = 0 to len - 1 do
      match batch.(i) with
      | None -> incr losses
      | Some y -> Quantile.update quant (float_of_int y)
    done;
    if !losses > 0 then Count_min.add g.cms pidx !losses;
    let ewma = g.loss.(pidx) in
    let missed = epoch - g.last_eval.(pidx) - 1 in
    if g.last_eval.(pidx) >= 0 && missed > 0 then Ewma.coast ewma g.decay missed;
    Ewma.update ewma (float_of_int !losses /. float_of_int len);
    if g.last_eval.(pidx) < epoch then begin
      g.last_eval.(pidx) <- epoch;
      let loss = if Count_min.query g.cms pidx = 0 then 0. else ewma.Ewma.value in
      let drift = Quantile.elevation quant in
      let cause = Gate.suspect_cause g.cfg ~loss ~drift in
      let decision =
        Gate.step g.cfg g.gates.(pidx) ~suspect:(cause <> None)
          ~calm:(Gate.calm g.cfg ~loss ~drift) ~settled
      in
      (decision, cause)
    end
    else (Sketch.Gate.Stay, None)
end

(* --- count-min sketch --------------------------------------------------- *)

(* The guarantee everything downstream leans on: for every key,
   query >= true count — with halving applied to the truth as floor
   division at the same points, since floor((a+b)/2) >= floor(a/2) +
   floor(b/2) preserves the bound.  A zero estimate therefore proves a
   loss-free window. *)
let prop_cms_overestimates_only =
  QCheck.Test.make ~name:"count-min only ever overestimates" ~count:100
    QCheck.(pair small_int (small_list (pair (int_bound 63) (int_bound 9))))
    (fun (seed, ops) ->
      let cms = Sketch.Count_min.create ~width:16 ~seed () in
      let truth = Array.make 64 0 in
      List.iteri
        (fun i (key, n) ->
          Sketch.Count_min.add cms key n;
          truth.(key) <- truth.(key) + n;
          (* Interleave halvings so the decayed bound is exercised. *)
          if i mod 5 = 4 then begin
            Sketch.Count_min.halve cms;
            Array.iteri (fun k v -> truth.(k) <- v / 2) truth
          end)
        ops;
      Array.for_all
        (fun k -> Sketch.Count_min.query cms k >= truth.(k))
        (Array.init 64 (fun k -> k)))

(* Lazy aging is eager floor-halving, bitwise: random adds (some through
   [add_query]) separated by runs of halvings, some longer than
   Sys.int_size so the shift clamp is exercised, with every key queried
   after every run.  256 cells: [halve]'s rotating restamp reaches a
   given cell only every 256 halvings, so long gaps stay long. *)
let prop_cms_lazy_matches_eager =
  QCheck.Test.make ~name:"lazy halving = eager halving" ~count:200
    QCheck.(
      pair small_int
        (small_list (triple (int_bound 15) (int_bound 1000) (int_bound 70))))
    (fun (seed, ops) ->
      let cms = Sketch.Count_min.create ~width:64 ~seed () in
      let eager = Ref.Count_min.create ~width:64 ~seed () in
      List.for_all
        (fun (key, n, halvings) ->
          let est =
            if n mod 2 = 0 then Sketch.Count_min.add_query cms key n
            else begin
              Sketch.Count_min.add cms key n;
              Sketch.Count_min.query cms key
            end
          in
          Ref.Count_min.add eager key n;
          let agree k = Sketch.Count_min.query cms k = Ref.Count_min.query eager k in
          let ok = est = Ref.Count_min.query eager key in
          for _ = 1 to halvings do
            Sketch.Count_min.halve cms;
            Ref.Count_min.halve eager
          done;
          ok && List.for_all agree (List.init 16 Fun.id))
        ops)

let test_cms_exact_when_sparse () =
  (* With far more cells than keys the estimate is almost surely exact;
     this pins the plumbing (row indexing, min over rows). *)
  let cms = Sketch.Count_min.create ~width:1024 ~seed:42 () in
  Sketch.Count_min.add cms 7 3;
  Sketch.Count_min.add cms 7 2;
  Sketch.Count_min.add cms 900 1;
  Alcotest.(check int) "key 7" 5 (Sketch.Count_min.query cms 7);
  Alcotest.(check int) "key 900" 1 (Sketch.Count_min.query cms 900);
  Alcotest.(check int) "untouched key" 0 (Sketch.Count_min.query cms 3);
  Sketch.Count_min.halve cms;
  Alcotest.(check int) "halved (floor)" 2 (Sketch.Count_min.query cms 7);
  Sketch.Count_min.clear cms;
  Alcotest.(check int) "cleared" 0 (Sketch.Count_min.query cms 7)

let test_cms_deterministic () =
  let run () =
    let cms = Sketch.Count_min.create ~width:32 ~seed:0xBEEF () in
    for k = 0 to 99 do
      Sketch.Count_min.add cms k (k mod 7)
    done;
    Array.init 100 (fun k -> Sketch.Count_min.query cms k)
  in
  Alcotest.(check (array int)) "equal seeds replay bitwise" (run ()) (run ())

let test_cms_validation () =
  Alcotest.check_raises "width zero"
    (Invalid_argument "Sketch.Count_min.create: width must be positive")
    (fun () -> ignore (Sketch.Count_min.create ~width:0 ~seed:1 ()));
  Alcotest.check_raises "rows zero"
    (Invalid_argument "Sketch.Count_min.create: rows must be positive")
    (fun () -> ignore (Sketch.Count_min.create ~rows:0 ~width:8 ~seed:1 ()));
  let cms = Sketch.Count_min.create ~width:5 ~seed:1 () in
  Alcotest.(check int) "width rounds up to a power of two" 8
    (Sketch.Count_min.width cms);
  Alcotest.check_raises "negative add"
    (Invalid_argument "Sketch.Count_min.add: count must be non-negative")
    (fun () -> Sketch.Count_min.add cms 0 (-1));
  Alcotest.check_raises "negative add_query"
    (Invalid_argument "Sketch.Count_min.add_query: count must be non-negative")
    (fun () -> ignore (Sketch.Count_min.add_query cms 0 (-1) : int))

(* --- decay table -------------------------------------------------------- *)

let test_decay_table_matches_iterated_product () =
  let t = Sketch.Estimators.Decay_table.make ~factor:0.9 () in
  let acc = ref 1. in
  for k = 0 to 64 do
    (* Bitwise, not approximate: the table is built by the same
       left-to-right multiplication a per-epoch decay loop performs. *)
    Alcotest.(check (float 0.))
      (Printf.sprintf "0.9^%d" k)
      !acc
      (Sketch.Estimators.Decay_table.pow t k);
    acc := !acc *. 0.9
  done;
  check_float "clamps past max_pow"
    (Sketch.Estimators.Decay_table.pow t 64)
    (Sketch.Estimators.Decay_table.pow t 1000)

let test_decay_table_validation () =
  Alcotest.check_raises "factor above one"
    (Invalid_argument "Sketch.Estimators.Decay_table.make: factor must be in [0, 1]")
    (fun () ->
      ignore (Sketch.Estimators.Decay_table.make ~factor:1.5 ()));
  let t = Sketch.Estimators.Decay_table.make ~factor:0.5 () in
  Alcotest.check_raises "negative power"
    (Invalid_argument "Sketch.Estimators.Decay_table.pow: negative power")
    (fun () -> ignore (Sketch.Estimators.Decay_table.pow t (-1) : float))

(* --- loss EWMA ---------------------------------------------------------- *)

(* Coasting k epochs through the table is the same as k explicit
   zero-updates, up to float multiplication order. *)
let prop_ewma_coast_equals_zero_updates =
  QCheck.Test.make ~name:"ewma coast = k zero-updates" ~count:200
    QCheck.(pair (float_range 0.01 1.) (int_range 0 64))
    (fun (x0, k) ->
      let alpha = 0.15 in
      let table = Sketch.Estimators.Decay_table.make ~factor:(1. -. alpha) () in
      (* Slot 0 coasts, slot 1 takes explicit zero-updates. *)
      let e = Sketch.Estimators.Ewma.make ~alpha 2 in
      Sketch.Estimators.Ewma.update e 0 x0;
      Sketch.Estimators.Ewma.update e 1 x0;
      Sketch.Estimators.Ewma.coast e table 0 k;
      for _ = 1 to k do
        Sketch.Estimators.Ewma.update e 1 0.
      done;
      Stats.Float_cmp.approx_eq ~eps:1e-12
        (Sketch.Estimators.Ewma.value e 0)
        (Sketch.Estimators.Ewma.value e 1))

let test_ewma_priming_and_convergence () =
  let e = Sketch.Estimators.Ewma.make ~alpha:0.2 2 in
  Alcotest.(check bool) "unprimed" false (Sketch.Estimators.Ewma.primed e 0);
  check_float "zero before the first update" 0. (Sketch.Estimators.Ewma.value e 0);
  Sketch.Estimators.Ewma.update e 0 0.7;
  check_float "first update primes directly" 0.7 (Sketch.Estimators.Ewma.value e 0);
  for _ = 1 to 200 do
    Sketch.Estimators.Ewma.update e 0 0.3
  done;
  Alcotest.(check (float 1e-6)) "converges to the constant input" 0.3
    (Sketch.Estimators.Ewma.value e 0);
  (* Coasting an unprimed slot stays a no-op, and slots are independent. *)
  let table = Sketch.Estimators.Decay_table.make ~factor:0.8 () in
  Sketch.Estimators.Ewma.coast e table 1 5;
  Alcotest.(check bool) "coast does not prime" false
    (Sketch.Estimators.Ewma.primed e 1);
  check_float "other slot untouched" 0. (Sketch.Estimators.Ewma.value e 1);
  (* The ratio form is the float division it stands for. *)
  Sketch.Estimators.Ewma.update_ratio e 1 3 16;
  check_float "update_ratio primes with num / den" (3. /. 16.)
    (Sketch.Estimators.Ewma.value e 1)

let test_ewma_validation () =
  Alcotest.check_raises "alpha zero"
    (Invalid_argument "Sketch.Estimators.Ewma.make: alpha must be in (0, 1]")
    (fun () -> ignore (Sketch.Estimators.Ewma.make ~alpha:0. 1))

(* --- quantile tracker --------------------------------------------------- *)

(* Monotone by construction: an observation above the estimate can only
   raise it, one at or below can only lower it (and never outside
   [lo, hi]). *)
let prop_quantile_update_monotone =
  QCheck.Test.make ~name:"quantile update moves toward the observation"
    ~count:300
    QCheck.(pair (small_list (int_range 0 4)) (int_range 0 4))
    (fun (warm, y) ->
      let q = Sketch.Estimators.Quantile.make ~p:0.75 ~lo:0. ~hi:4. 1 in
      List.iter (Sketch.Estimators.Quantile.update q 0) warm;
      let before = Sketch.Estimators.Quantile.value q 0 in
      Sketch.Estimators.Quantile.update q 0 y;
      let after = Sketch.Estimators.Quantile.value q 0 in
      let ok_dir =
        if Sketch.Estimators.Quantile.count q 0 = 1 then true
          (* first observation primes the estimate directly *)
        else if Stats.Float_cmp.gt (float_of_int y) before then
          Stats.Float_cmp.geq after before
        else Stats.Float_cmp.leq after before
      in
      ok_dir
      && Stats.Float_cmp.geq after 0.
      && Stats.Float_cmp.leq after 4.
      && Stats.Float_cmp.geq (Sketch.Estimators.Quantile.elevation q 0) 0.
      && Stats.Float_cmp.leq (Sketch.Estimators.Quantile.elevation q 0) 1.)

let test_quantile_converges () =
  (* Uniform draws over the symbols 0..4: P(y <= 2) = 0.6 and
     P(y <= 3) = 0.8, so the p75 is 3; the tracker should land nearby
     with the 1/n-quantized gains. *)
  let q = Sketch.Estimators.Quantile.make ~p:0.75 ~lo:0. ~hi:4. 1 in
  let rng = Stats.Rng.create 1234 in
  for _ = 1 to 5000 do
    Sketch.Estimators.Quantile.update q 0 (Stats.Rng.int rng 5)
  done;
  Alcotest.(check (float 0.35)) "p75 of uniform {0..4}" 3.
    (Sketch.Estimators.Quantile.value q 0);
  Alcotest.(check (float 0.1)) "elevation = value / range" 0.75
    (Sketch.Estimators.Quantile.elevation q 0)

let test_quantile_concentrated_input () =
  (* All mass at one symbol: the estimate hovers at the symbol within
     the tracker's steady-state oscillation (ties step downward by
     step * (1 - p), ~0.008 at this count), and elevation reads the
     symbol's height — the drift signal the gate thresholds. *)
  let q = Sketch.Estimators.Quantile.make ~p:0.75 ~lo:0. ~hi:4. 1 in
  for _ = 1 to 500 do
    Sketch.Estimators.Quantile.update q 0 4
  done;
  Alcotest.(check (float 0.02)) "pins to the constant input" 4.
    (Sketch.Estimators.Quantile.value q 0);
  Alcotest.(check (float 0.02)) "full elevation" 1.
    (Sketch.Estimators.Quantile.elevation q 0)

let test_quantile_clamps () =
  let q = Sketch.Estimators.Quantile.make ~p:0.5 ~lo:0. ~hi:4. 1 in
  Sketch.Estimators.Quantile.update q 0 100;
  Alcotest.(check bool) "primed value clamped" true
    (Stats.Float_cmp.leq (Sketch.Estimators.Quantile.value q 0) 4.);
  for _ = 1 to 50 do
    Sketch.Estimators.Quantile.update q 0 (-100)
  done;
  Alcotest.(check bool) "driven value clamped at lo" true
    (Stats.Float_cmp.geq (Sketch.Estimators.Quantile.value q 0) 0.)

let test_quantile_validation () =
  Alcotest.check_raises "p at the boundary"
    (Invalid_argument "Sketch.Estimators.Quantile.make: p must be in (0, 1)")
    (fun () ->
      ignore (Sketch.Estimators.Quantile.make ~p:1. ~lo:0. ~hi:1. 1));
  Alcotest.check_raises "empty range"
    (Invalid_argument "Sketch.Estimators.Quantile.make: lo must be below hi")
    (fun () ->
      ignore (Sketch.Estimators.Quantile.make ~p:0.5 ~lo:1. ~hi:1. 1));
  Alcotest.check_raises "NaN bound"
    (Invalid_argument "Sketch.Estimators.Quantile.make: lo must be below hi")
    (fun () ->
      ignore (Sketch.Estimators.Quantile.make ~p:0.5 ~lo:Float.nan ~hi:1. 1))

(* --- gate hysteresis ---------------------------------------------------- *)

(* Every case drives slot 1 of a three-path gate, so a column mix-up
   shows as a wrong decision or a disturbed neighbour. *)
let step cfg g ~suspect ~calm ~settled =
  Sketch.Gate.step cfg g 1 ~suspect ~calm ~settled

let gate () = Sketch.Gate.create 3
let promoted g = Sketch.Gate.promoted g 1

let check_neighbours g =
  for i = 0 to 2 do
    if i <> 1 then begin
      Alcotest.(check bool) "neighbour quiet" false (Sketch.Gate.promoted g i);
      Alcotest.(check int) "neighbour streak" 0 (Sketch.Gate.streak g i)
    end
  done

let test_gate_promotes_after_exactly_h () =
  let cfg = Sketch.Gate.config ~promote_after:3 () in
  let g = gate () in
  Alcotest.(check bool) "starts quiet" false (promoted g);
  Alcotest.(check bool) "epoch 1 stays" true
    (step cfg g ~suspect:true ~calm:false ~settled:false = Sketch.Gate.Stay);
  Alcotest.(check bool) "epoch 2 stays" true
    (step cfg g ~suspect:true ~calm:false ~settled:false = Sketch.Gate.Stay);
  Alcotest.(check bool) "epoch 3 promotes" true
    (step cfg g ~suspect:true ~calm:false ~settled:false = Sketch.Gate.Promote);
  Alcotest.(check bool) "now promoted" true (promoted g);
  check_neighbours g

let test_gate_suspect_gap_resets_streak () =
  let cfg = Sketch.Gate.config ~promote_after:2 () in
  let g = gate () in
  ignore (step cfg g ~suspect:true ~calm:false ~settled:false);
  ignore (step cfg g ~suspect:false ~calm:true ~settled:false);
  Alcotest.(check int) "gap cleared the streak" 0 (Sketch.Gate.streak g 1);
  Alcotest.(check bool) "needs the full run again" true
    (step cfg g ~suspect:true ~calm:false ~settled:false = Sketch.Gate.Stay);
  Alcotest.(check bool) "second consecutive promotes" true
    (step cfg g ~suspect:true ~calm:false ~settled:false = Sketch.Gate.Promote)

let test_gate_demotion_needs_calm_and_settled () =
  let cfg = Sketch.Gate.config ~promote_after:1 ~demote_after:2 () in
  let g = gate () in
  ignore (step cfg g ~suspect:true ~calm:false ~settled:false);
  Alcotest.(check bool) "promoted" true (promoted g);
  (* Calm without a settled no-dominant verdict never demotes. *)
  for _ = 1 to 5 do
    Alcotest.(check bool) "calm alone stays" true
      (step cfg g ~suspect:false ~calm:true ~settled:false = Sketch.Gate.Stay)
  done;
  (* Calm and settled, but interrupted: the streak starts over. *)
  ignore (step cfg g ~suspect:false ~calm:true ~settled:true);
  ignore (step cfg g ~suspect:true ~calm:false ~settled:true);
  Alcotest.(check bool) "interruption resets" true
    (step cfg g ~suspect:false ~calm:true ~settled:true = Sketch.Gate.Stay);
  Alcotest.(check bool) "second consecutive demotes" true
    (step cfg g ~suspect:false ~calm:true ~settled:true = Sketch.Gate.Demote);
  Alcotest.(check bool) "back to quiet" false (promoted g);
  check_neighbours g

let test_gate_signal_thresholds () =
  let cfg =
    Sketch.Gate.config ~loss_threshold:0.2 ~drift_threshold:0.75
      ~demote_margin:0.8 ()
  in
  Alcotest.(check bool) "loss at threshold is suspect" true
    (Sketch.Gate.suspect cfg ~loss:0.2 ~drift:0.);
  Alcotest.(check bool) "drift at threshold is suspect" true
    (Sketch.Gate.suspect cfg ~loss:0. ~drift:0.75);
  Alcotest.(check bool) "both below is not suspect" false
    (Sketch.Gate.suspect cfg ~loss:0.19 ~drift:0.74);
  Alcotest.(check bool) "inside the margin band is not calm" false
    (Sketch.Gate.calm cfg ~loss:0.17 ~drift:0.);
  Alcotest.(check bool) "below both margins is calm" true
    (Sketch.Gate.calm cfg ~loss:0.15 ~drift:0.5)

let test_gate_config_validation () =
  Alcotest.check_raises "promote_after zero"
    (Invalid_argument "Sketch.Gate.config: promote_after must be positive")
    (fun () -> ignore (Sketch.Gate.config ~promote_after:0 ()));
  Alcotest.check_raises "margin above one"
    (Invalid_argument "Sketch.Gate.config: demote_margin must be in [0, 1]")
    (fun () -> ignore (Sketch.Gate.config ~demote_margin:1.5 ()))

(* --- triage against the reference -------------------------------------- *)

let bits = Int64.bits_of_float

(* Random gated traffic: per epoch every path is pushed zero to three
   times (so some coast over missed epochs), batches mix symbols and
   losses at a per-path loss rate, and one dormant path loses probes
   early, then stays silent for more than Sys.int_size halvings before
   its last push. *)
let prop_triage_matches_reference =
  QCheck.Test.make ~name:"triage = record-based reference, bitwise" ~count:60
    QCheck.(
      quad small_int (int_range 3 8) (int_range 71 96)
        (triple (int_range 1 3) (int_range 1 3) (float_range 0.02 0.4)))
    (fun (seed, m, epochs, (promote_after, demote_after, loss_threshold)) ->
      let paths = 7 and dormant = 6 in
      let cfg =
        Sketch.Gate.config ~loss_threshold ~drift_threshold:0.6 ~promote_after
          ~demote_after ()
      in
      let tri = Sketch.Triage.create cfg ~paths ~symbols:m in
      let r = Ref.create cfg ~paths ~m in
      let rng = Stats.Rng.create seed in
      let loss_rate = Array.init paths (fun _ -> 0.5 *. Stats.Rng.float rng) in
      let batch p =
        Array.init
          (1 + Stats.Rng.int rng 24)
          (fun _ ->
            if Stats.Float_cmp.lt (Stats.Rng.float rng) loss_rate.(p) then None
            else Some (Stats.Rng.int rng m))
      in
      let ok = ref true in
      let same_float x y = Int64.equal (bits x) (bits y) in
      for epoch = 0 to epochs - 1 do
        for p = 0 to paths - 1 do
          let pushes =
            if p = dormant then if epoch < 3 || epoch = epochs - 1 then 1 else 0
            else Stats.Rng.int rng 4
          in
          for _ = 1 to pushes do
            let b = batch p in
            let settled = Stats.Rng.bool rng in
            let d = Sketch.Triage.push tri ~path:p ~epoch ~settled b in
            let d_ref, cause_ref = Ref.push r ~path:p ~epoch ~settled b in
            if d <> d_ref then ok := false;
            if d = Sketch.Gate.Promote && Sketch.Triage.cause tri <> cause_ref then
              ok := false
          done
        done;
        Sketch.Triage.age tri;
        Ref.Count_min.halve r.Ref.cms;
        for p = 0 to paths - 1 do
          if
            not
              (same_float (Sketch.Triage.loss_ewma tri p) r.Ref.loss.(p).Ref.Ewma.value
              && same_float (Sketch.Triage.quantile tri p) r.Ref.quant.(p).Ref.Quantile.q
              && same_float (Sketch.Triage.drift tri p)
                   (Ref.Quantile.elevation r.Ref.quant.(p))
              && Sketch.Triage.loss_estimate tri p = Ref.Count_min.query r.Ref.cms p
              && Sketch.Triage.promoted tri p = r.Ref.gates.(p).Ref.Gate.promoted
              && Sketch.Triage.streak tri p = r.Ref.gates.(p).Ref.Gate.streak)
          then ok := false
        done
      done;
      !ok)

let () =
  Alcotest.run "sketch"
    [
      ( "count-min",
        [
          QCheck_alcotest.to_alcotest prop_cms_overestimates_only;
          QCheck_alcotest.to_alcotest prop_cms_lazy_matches_eager;
          Alcotest.test_case "exact when sparse" `Quick test_cms_exact_when_sparse;
          Alcotest.test_case "deterministic" `Quick test_cms_deterministic;
          Alcotest.test_case "validation" `Quick test_cms_validation;
        ] );
      ( "decay-table",
        [
          Alcotest.test_case "iterated product" `Quick
            test_decay_table_matches_iterated_product;
          Alcotest.test_case "validation" `Quick test_decay_table_validation;
        ] );
      ( "ewma",
        [
          QCheck_alcotest.to_alcotest prop_ewma_coast_equals_zero_updates;
          Alcotest.test_case "priming and convergence" `Quick
            test_ewma_priming_and_convergence;
          Alcotest.test_case "validation" `Quick test_ewma_validation;
        ] );
      ( "quantile",
        [
          QCheck_alcotest.to_alcotest prop_quantile_update_monotone;
          Alcotest.test_case "converges on uniform input" `Quick
            test_quantile_converges;
          Alcotest.test_case "concentrated input" `Quick
            test_quantile_concentrated_input;
          Alcotest.test_case "clamps" `Quick test_quantile_clamps;
          Alcotest.test_case "validation" `Quick test_quantile_validation;
        ] );
      ( "triage",
        [ QCheck_alcotest.to_alcotest prop_triage_matches_reference ] );
      ( "gate",
        [
          Alcotest.test_case "promotes after exactly H" `Quick
            test_gate_promotes_after_exactly_h;
          Alcotest.test_case "gap resets streak" `Quick
            test_gate_suspect_gap_resets_streak;
          Alcotest.test_case "demotion needs calm+settled" `Quick
            test_gate_demotion_needs_calm_and_settled;
          Alcotest.test_case "signal thresholds" `Quick test_gate_signal_thresholds;
          Alcotest.test_case "config validation" `Quick test_gate_config_validation;
        ] );
    ]
