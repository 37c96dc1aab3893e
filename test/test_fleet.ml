(* Tests for the fleet layer: incremental-EM equivalence with the batch
   sweep, the in-place M-step, steady-state allocation, decay
   semantics, carry factorization, pooled epoch determinism, transition
   emission, the per-domain workspace cache, and the diagnosis
   timeline. *)

(* Oversubscribe the pool so the multi-domain determinism tests spawn
   real workers even on a single-core CI machine. *)
let () = Stats.Pool.set_capacity 8

let check_float = Alcotest.(check (float 1e-12))
let check_same_floats name a b = Alcotest.(check (array (float 0.))) name a b

let mmhd_obs ~seed ~n ~m ~len =
  let rng = Stats.Rng.create seed in
  let truth = Mmhd.init_random rng ~n ~m ~loss_fraction:0.08 in
  let obs, _ = Mmhd.simulate rng truth ~len in
  obs.(0) <- Some 0;
  obs.(1) <- None;
  obs

let informed ~seed ~n ~m obs =
  Mmhd.to_em (Mmhd.init_informed (Stats.Rng.create seed) ~n ~m obs)

(* --- incremental EM vs the batch sweep --------------------------------- *)

(* One appended batch at lambda = 1 must reproduce the batch EM step:
   same log-likelihood as the full forward pass, and an M-step equal to
   em_step parameter-for-parameter.  The property quantifies over model
   shape, batch length and seed. *)
let prop_single_append_matches_em_step =
  QCheck.Test.make ~name:"lambda=1 single append = batch em_step" ~count:60
    QCheck.(triple (int_range 1 3) (int_range 2 5) (int_range 30 300))
    (fun (n, m, len) ->
      let obs = mmhd_obs ~seed:(n + (7 * m) + len) ~n ~m ~len in
      let model = informed ~seed:5 ~n ~m obs in
      let ws = Em.workspace () in
      let stats = Em.Incremental.create ~s:(n * m) ~m in
      let ll = Em.Incremental.append ~ws stats model obs in
      let incr_model = Em.Incremental.m_step stats model in
      let batch_model = Em.em_step ~ws ~update_b:false model obs in
      let ll_batch = Em.log_likelihood ~ws model obs in
      let eq = Stats.Float_cmp.approx_eq ~eps:1e-9 in
      let arrays_eq a b =
        Array.length a = Array.length b && Array.for_all2 eq a b
      in
      eq ll ll_batch
      && arrays_eq incr_model.Em.pi batch_model.Em.pi
      && arrays_eq incr_model.Em.a batch_model.Em.a
      && arrays_eq incr_model.Em.c batch_model.Em.c)

let test_single_append_bitwise () =
  (* On one concrete case the equality is exact, not just within
     tolerance: em_step is one batch through the same accumulators and
     the same M-step. *)
  let n = 2 and m = 4 in
  let obs = mmhd_obs ~seed:3 ~n ~m ~len:400 in
  let model = informed ~seed:9 ~n ~m obs in
  let ws = Em.workspace () in
  let stats = Em.Incremental.create ~s:(n * m) ~m in
  let ll = Em.Incremental.append ~ws stats model obs in
  let incr_model = Em.Incremental.m_step stats model in
  let batch_model = Em.em_step ~ws ~update_b:false model obs in
  check_float "log-likelihood" (Em.log_likelihood ~ws model obs) ll;
  check_same_floats "pi" batch_model.Em.pi incr_model.Em.pi;
  check_same_floats "a" batch_model.Em.a incr_model.Em.a;
  check_same_floats "c" batch_model.Em.c incr_model.Em.c;
  Alcotest.(check (array (float 0.)))
    "b is shared, not copied" model.Em.b incr_model.Em.b

let test_append_weight_and_counts () =
  let n = 2 and m = 3 in
  let obs = mmhd_obs ~seed:21 ~n ~m ~len:120 in
  let model = informed ~seed:2 ~n ~m obs in
  let ws = Em.workspace () in
  let stats = Em.Incremental.create ~s:(n * m) ~m in
  ignore (Em.Incremental.append ~ws stats model obs : float);
  check_float "weight = batch length" 120. (Em.Incremental.weight stats);
  Alcotest.(check int) "one batch" 1 (Em.Incremental.batches stats);
  (* Posterior observation + loss mass accounts for every probe: each
     time step contributes one unit of posterior mass. *)
  let total =
    Array.fold_left ( +. ) 0. (Em.Incremental.count_obs stats)
    +. Array.fold_left ( +. ) 0. (Em.Incremental.count_loss stats)
  in
  Alcotest.(check (float 1e-6)) "posterior mass = T" 120. total

(* --- in-place M-step ------------------------------------------------- *)

let bits a = Array.map Int64.bits_of_float a

(* A free-emission model (the HMM shape, so [update_b] has a row to
   re-estimate) whose state [dead] is unreachable: its column of [a]
   and its [pi] entry are zero, so its [gamma_sum] row stays exactly
   zero and the M-step must fall back to the old [a] and [b] rows. *)
let random_model rng ~s ~m ~dead =
  let row n = Array.init n (fun _ -> 0.05 +. Stats.Rng.float rng) in
  let normalize a off n =
    let sum = ref 0. in
    for k = 0 to n - 1 do
      sum := !sum +. a.(off + k)
    done;
    for k = 0 to n - 1 do
      a.(off + k) <- a.(off + k) /. !sum
    done
  in
  let pi = row s in
  pi.(dead) <- 0.;
  normalize pi 0 s;
  let a = Array.concat (List.init s (fun _ -> row s)) in
  for src = 0 to s - 1 do
    a.((src * s) + dead) <- 0.;
    normalize a (src * s) s
  done;
  let b = Array.concat (List.init s (fun _ -> row m)) in
  for st = 0 to s - 1 do
    normalize b (st * m) m
  done;
  let c = Array.init m (fun _ -> 0.02 +. (0.3 *. Stats.Rng.float rng)) in
  { Em.s; m; pi; a; b; c }

let random_batch rng ~m ~len =
  Array.init len (fun _ ->
      if Stats.Rng.float rng < 0.1 then None else Some (Stats.Rng.int rng m))

let model_bits (t : Em.model) = (bits t.Em.pi, bits t.Em.a, bits t.Em.b, bits t.Em.c)

(* The M-step as it was written before it learned to work in place:
   every block freshly allocated, fallbacks copied from the old model.
   [em_step] runs through [m_step] too, so this is the one independent
   reference for the M-step arithmetic, including the [update_b] and
   zero-row paths. *)
let reference_m_step ~update_b stats (t : Em.model) =
  let s = t.Em.s and m = t.Em.m in
  let xi = Em.Incremental.xi stats and gamma_sum = Em.Incremental.gamma_sum stats in
  let count_obs = Em.Incremental.count_obs stats in
  let count_loss = Em.Incremental.count_loss stats in
  let floor_normalize row off n =
    let sum = ref 0. in
    for k = 0 to n - 1 do
      let v = if row.(off + k) < 1e-12 then 1e-12 else row.(off + k) in
      row.(off + k) <- v;
      sum := !sum +. v
    done;
    let inv = 1. /. !sum in
    for k = 0 to n - 1 do
      row.(off + k) <- row.(off + k) *. inv
    done
  in
  let pi0 = Em.Incremental.pi0 stats in
  let pi_sum = Array.fold_left ( +. ) 0. pi0 in
  let pi =
    if pi_sum > 0. then Array.map (fun p -> p /. pi_sum) pi0 else Array.copy t.Em.pi
  in
  let a = Array.make (s * s) 0. in
  for st = 0 to s - 1 do
    let off = st * s in
    if gamma_sum.(st) <= 0. then Array.blit t.Em.a off a off s
    else begin
      let inv = 1. /. gamma_sum.(st) in
      for k = 0 to s - 1 do
        a.(off + k) <- xi.(off + k) *. inv
      done;
      floor_normalize a off s
    end
  done;
  let b =
    if not update_b then t.Em.b
    else begin
      let b = Array.make (s * m) 0. in
      for st = 0 to s - 1 do
        let off = st * m in
        let sum = ref 0. in
        for j = 0 to m - 1 do
          let v = count_obs.(off + j) +. count_loss.(off + j) in
          b.(off + j) <- v;
          sum := !sum +. v
        done;
        if !sum <= 0. then Array.blit t.Em.b off b off m else floor_normalize b off m
      done;
      b
    end
  in
  let c =
    Array.init m (fun j ->
        let lost = ref 0. and seen = ref 0. in
        for st = 0 to s - 1 do
          let l = count_loss.((st * m) + j) in
          lost := !lost +. l;
          seen := !seen +. count_obs.((st * m) + j) +. l
        done;
        if !seen <= 0. then t.Em.c.(j)
        else Float.max 1e-9 (Float.min (1. -. 1e-9) (!lost /. !seen)))
  in
  { t with Em.pi; a; b; c }

(* After any decay/append history, [m_step_in_place] on a copy must
   land on the same bits as [m_step] and as the reference, and
   [m_step] must leave its input alone. *)
let prop_m_step_in_place_matches =
  QCheck.Test.make ~name:"m_step_in_place = m_step = reference, bitwise" ~count:200
    QCheck.(quad small_nat (int_range 2 6) (int_range 2 5) (pair (int_range 1 5) bool))
    (fun (seed, s, m, (rounds, update_b)) ->
      let rng = Stats.Rng.create (seed + (31 * s) + (7 * m)) in
      let model = random_model rng ~s ~m ~dead:(Stats.Rng.int rng s) in
      let ws = Em.workspace () in
      let stats = Em.Incremental.create ~s ~m in
      for _ = 1 to rounds do
        Em.Incremental.decay stats ~lambda:(Stats.Rng.float rng);
        ignore
          (Em.Incremental.append ~ws stats model
             (random_batch rng ~m ~len:(1 + Stats.Rng.int rng 40))
            : float)
      done;
      let zero_row = Array.exists (fun g -> g = 0.) (Em.Incremental.gamma_sum stats) in
      let before = model_bits model in
      let fresh = Em.Incremental.m_step ~update_b stats model in
      let input_untouched = model_bits model = before in
      let reference = reference_m_step ~update_b stats model in
      let copy =
        {
          model with
          Em.pi = Array.copy model.Em.pi;
          a = Array.copy model.Em.a;
          b = Array.copy model.Em.b;
          c = Array.copy model.Em.c;
        }
      in
      Em.Incremental.m_step_in_place ~update_b stats copy;
      zero_row && input_untouched
      && model_bits copy = model_bits fresh
      && model_bits copy = model_bits reference)

let test_m_step_dimension_mismatch () =
  let model = random_model (Stats.Rng.create 1) ~s:3 ~m:2 ~dead:0 in
  Alcotest.check_raises "dimension mismatch"
    (Invalid_argument
       "Em.Incremental.m_step: model dimensions do not match the statistics")
    (fun () ->
      Em.Incremental.m_step_in_place (Em.Incremental.create ~s:4 ~m:2) model)

(* --- steady-state allocation ------------------------------------------- *)

(* [Gc.minor_words] reads this domain's allocation counter as an
   immediate, so it can bracket one small call.  These cases run before
   any test spawns the pool. *)
let minor_words () = int_of_float (Gc.minor_words ())

let test_update_round_allocation () =
  let n = 2 and m = 5 in
  let s = n * m in
  let rng = Stats.Rng.create 17 in
  let batches = Array.init 8 (fun _ -> random_batch rng ~m ~len:16) in
  let model = informed ~seed:4 ~n ~m batches.(0) in
  let ws = Em.workspace () in
  let stats = Em.Incremental.create ~s ~m in
  let round batch =
    Em.Incremental.decay stats ~lambda:0.9;
    ignore (Em.Incremental.append ~ws stats model batch : float);
    Em.Incremental.m_step_in_place stats model
  in
  for i = 0 to 3 do
    round batches.(i)
  done;
  let worst = ref 0 in
  for i = 4 to 7 do
    let w0 = minor_words () in
    round batches.(i);
    worst := max !worst (minor_words () - w0)
  done;
  if !worst > 32 then
    Alcotest.failf "decay + append + m_step_in_place allocated %d words (> 32)"
      !worst

(* Steady-state bytes per [Path_state.update] over a seeded 256-path
   fleet, epochs 1 to 11: epoch 0 holds the informed initializations,
   the workspace growth and the timelines' first records, which a
   long-running path pays once.  What is left, about 1.1 KB, is mostly
   the re-test's short-lived values; an update that built a fresh model
   every epoch would cost ~3 KB. *)
let test_path_update_allocation () =
  let paths = 256 and epochs = 12 in
  let rng = Stats.Rng.create 0xA110C in
  let src = Fleet.Source.synthetic ~rng ~paths () in
  let config = Fleet.Path_state.config ~scheme:(Fleet.Source.scheme src) () in
  let states =
    Array.init paths (fun _ -> Fleet.Path_state.create config ~rng:(Stats.Rng.split rng))
  in
  let ws =
    Fleet.Workspace_cache.get ~s:(Fleet.Path_state.states config)
      ~m:config.Fleet.Path_state.m
  in
  let batches =
    Array.init epochs (fun _ ->
        Array.init paths (fun path -> Fleet.Source.pull src ~path ~len:16))
  in
  let epoch e =
    Array.iteri
      (fun p st ->
        ignore (Fleet.Path_state.update ~ws ~epoch:e st batches.(e).(p) : bool))
      states
  in
  epoch 0;
  let w0 = minor_words () in
  for e = 1 to epochs - 1 do
    epoch e
  done;
  let bytes =
    float_of_int ((minor_words () - w0) * (Sys.word_size / 8))
    /. float_of_int (paths * (epochs - 1))
  in
  if bytes > 2048. then
    Alcotest.failf "steady-state update allocates %.1f B (> 2048 B)" bytes

let test_timeline_record_allocation () =
  let tl = Fleet.Timeline.create ~capacity:4 in
  let update =
    Fleet.Timeline.Update
      {
        epoch = 3;
        verdict = Some Dcl.Identify.Weakly_dominant;
        log_likelihood = -4.5;
        weight = 12.;
        bound = Some 0.25;
      }
  in
  let gate =
    Fleet.Timeline.Gate { epoch = 4; promoted = true; cause = "loss"; streak = 2 }
  in
  let reset = Fleet.Timeline.Reset { epoch = 5 } in
  (* The first update allocates the columns, the first gate the cause
     column. *)
  Fleet.Timeline.record tl update;
  Fleet.Timeline.record tl gate;
  let w0 = minor_words () in
  for _ = 1 to 10 do
    Fleet.Timeline.record tl update;
    Fleet.Timeline.record tl gate;
    Fleet.Timeline.record tl reset
  done;
  Alcotest.(check int) "words allocated by 30 records" 0 (minor_words () - w0)

(* --- decay ------------------------------------------------------------- *)

let test_decay_scales_everything () =
  let n = 2 and m = 3 in
  let obs = mmhd_obs ~seed:31 ~n ~m ~len:150 in
  let model = informed ~seed:4 ~n ~m obs in
  let ws = Em.workspace () in
  let stats = Em.Incremental.create ~s:(n * m) ~m in
  ignore (Em.Incremental.append ~ws stats model obs : float);
  let xi0 = Em.Incremental.xi stats in
  let w0 = Em.Incremental.weight stats in
  Em.Incremental.decay stats ~lambda:0.5 ;
  check_float "weight halves" (w0 /. 2.) (Em.Incremental.weight stats);
  Array.iteri
    (fun i x -> check_float (Printf.sprintf "xi.(%d) halves" i) (xi0.(i) /. 2.) x)
    (Em.Incremental.xi stats)

let test_decay_identity_at_one () =
  let n = 1 and m = 3 in
  let obs = mmhd_obs ~seed:41 ~n ~m ~len:90 in
  let model = informed ~seed:6 ~n ~m obs in
  let ws = Em.workspace () in
  let stats = Em.Incremental.create ~s:(n * m) ~m in
  ignore (Em.Incremental.append ~ws stats model obs : float);
  let xi0 = Em.Incremental.xi stats in
  let co0 = Em.Incremental.count_obs stats in
  Em.Incremental.decay stats ~lambda:1.;
  check_same_floats "xi unchanged bitwise" xi0 (Em.Incremental.xi stats);
  check_same_floats "count_obs unchanged bitwise" co0 (Em.Incremental.count_obs stats)

let test_decay_validation () =
  let stats = Em.Incremental.create ~s:4 ~m:2 in
  Alcotest.check_raises "lambda > 1"
    (Invalid_argument "Em.Incremental.decay: lambda must be in [0, 1]")
    (fun () -> Em.Incremental.decay stats ~lambda:1.5)

(* --- carry: the forward likelihood factorizes across batches ----------- *)

let test_carry_loglik_additivity () =
  let n = 2 and m = 4 in
  let obs = mmhd_obs ~seed:51 ~n ~m ~len:300 in
  let model = informed ~seed:8 ~n ~m obs in
  let ws = Em.workspace () in
  let ll_full = Em.log_likelihood ~ws model obs in
  let stats = Em.Incremental.create ~s:(n * m) ~m in
  let ll1 =
    Em.Incremental.append ~ws stats model (Array.sub obs 0 150)
  in
  let ll2 =
    Em.Incremental.append ~ws stats model (Array.sub obs 150 150)
  in
  (* Propagating the filtered end distribution one transition step into
     the next batch's starting distribution makes the product of batch
     likelihoods the full-sequence likelihood, up to summation order. *)
  Alcotest.(check (float 1e-8)) "sum of batch logLs = full logL" ll_full (ll1 +. ll2)

let test_reset () =
  let n = 1 and m = 2 in
  let obs = mmhd_obs ~seed:71 ~n ~m ~len:60 in
  let model = informed ~seed:3 ~n ~m obs in
  let ws = Em.workspace () in
  let stats = Em.Incremental.create ~s:(n * m) ~m in
  ignore (Em.Incremental.append ~ws stats model obs : float);
  Em.Incremental.reset stats;
  check_float "weight zero" 0. (Em.Incremental.weight stats);
  Alcotest.(check int) "batches zero" 0 (Em.Incremental.batches stats);
  Alcotest.check_raises "m_step on empty stats"
    (Invalid_argument "Em.Incremental.m_step: no appended batch") (fun () ->
      ignore (Em.Incremental.m_step stats model))

(* --- fleet: pooled epoch determinism ----------------------------------- *)

let conclusion_tag = function
  | None -> "u"
  | Some Dcl.Identify.Strongly_dominant -> "s"
  | Some Dcl.Identify.Weakly_dominant -> "w"
  | Some Dcl.Identify.No_dominant -> "n"

let run_fleet ?gate ~domains ~paths ~epochs ~epoch_len ~seed () =
  let log = Buffer.create 128 in
  let rng = Stats.Rng.create seed in
  let src = Fleet.Source.synthetic ~rng ~paths () in
  let config = Fleet.Path_state.config ~scheme:(Fleet.Source.scheme src) () in
  let on_transition (tr : Fleet.Scheduler.transition) =
    Printf.bprintf log "%d:%d:%s>%s;" tr.Fleet.Scheduler.epoch
      tr.Fleet.Scheduler.path
      (conclusion_tag tr.Fleet.Scheduler.was)
      (conclusion_tag tr.Fleet.Scheduler.now)
  in
  let sched =
    Fleet.Scheduler.create ~domains ~on_transition ?gate ~rng ~paths config
  in
  for _ = 1 to epochs do
    for p = 0 to paths - 1 do
      Fleet.Scheduler.push sched ~path:p
        (Fleet.Source.pull src ~path:p ~len:epoch_len)
    done;
    ignore (Fleet.Scheduler.tick sched : int)
  done;
  (sched, Fleet.Scheduler.fingerprint sched, Buffer.contents log)

let test_pool_determinism () =
  let paths = 48 and epochs = 4 and epoch_len = 24 and seed = 1234 in
  let _, fp1, log1 = run_fleet ~domains:1 ~paths ~epochs ~epoch_len ~seed () in
  Alcotest.(check bool) "serial run emits transitions" true (String.length log1 > 0);
  List.iter
    (fun domains ->
      let _, fp, log = run_fleet ~domains ~paths ~epochs ~epoch_len ~seed () in
      Alcotest.(check string)
        (Printf.sprintf "fingerprint at %d domains" domains)
        fp1 fp;
      Alcotest.(check string)
        (Printf.sprintf "transition log at %d domains" domains)
        log1 log)
    [ 2; 4; 8 ]

let test_gated_pool_determinism () =
  (* The gated fingerprint also folds the sketch/gate state, so this
     checks the whole triage front end is driver-side and pure. *)
  let gate () = Sketch.Gate.config ~loss_threshold:0.05 ~promote_after:1 () in
  let paths = 48 and epochs = 4 and epoch_len = 24 and seed = 1234 in
  let sched, fp1, log1 =
    run_fleet ~gate:(gate ()) ~domains:1 ~paths ~epochs ~epoch_len ~seed ()
  in
  Alcotest.(check bool) "gated fleet promotes some paths" true
    (Fleet.Scheduler.promoted_count sched > 0);
  Alcotest.(check bool) "and keeps some quiet" true
    (Fleet.Scheduler.promoted_count sched < paths);
  List.iter
    (fun domains ->
      let _, fp, log =
        run_fleet ~gate:(gate ()) ~domains ~paths ~epochs ~epoch_len ~seed ()
      in
      Alcotest.(check string)
        (Printf.sprintf "gated fingerprint at %d domains" domains)
        fp1 fp;
      Alcotest.(check string)
        (Printf.sprintf "gated transition log at %d domains" domains)
        log1 log)
    [ 2; 4; 8 ]

(* The flight recorder only ever reads the clock: a seeded gated fleet
   run with tracing off and on is bit-identical, and the traced run's
   Chrome export is valid JSON with events from every instrumented
   seam.  256 paths under a low-threshold gate keep more than one pool
   chunk (64 paths) promoted, so the 2-domain tick fans out and the
   pool.* spans come from real workers. *)
let test_trace_on_off_identical () =
  let arm () =
    let gate = Sketch.Gate.config ~loss_threshold:0.08 ~promote_after:1 () in
    let _, fp, log =
      run_fleet ~gate ~domains:2 ~paths:256 ~epochs:3 ~epoch_len:32 ~seed:0xF1EE7 ()
    in
    (fp, log)
  in
  Obs.Trace.set_enabled false;
  let fp_off, log_off = arm () in
  Obs.Trace.set_capacity 16384;
  Obs.Trace.clear ();
  Obs.Trace.set_enabled true;
  let fp_on, log_on =
    Fun.protect ~finally:(fun () -> Obs.Trace.set_enabled false) arm
  in
  Alcotest.(check string) "fingerprint" fp_off fp_on;
  Alcotest.(check string) "transition log" log_off log_on;
  let names =
    List.map (fun (e : Obs.Trace.event) -> e.Obs.Trace.ev_name) (Obs.Trace.events ())
  in
  List.iter
    (fun prefix ->
      Alcotest.(check bool)
        (Printf.sprintf "%s* events recorded" prefix)
        true
        (List.exists (String.starts_with ~prefix) names))
    [ "em."; "pool."; "fleet.epoch"; "gate." ];
  Alcotest.(check bool) "Chrome export is valid JSON" true
    (Json_check.valid (Obs.Trace.chrome_json ()))

let test_fleet_reruns_identically () =
  (* Same seed, same everything: the whole fleet is a pure function of
     its inputs even across separate constructions. *)
  let run () =
    run_fleet ~domains:1 ~paths:16 ~epochs:3 ~epoch_len:32 ~seed:77 ()
  in
  let _, fp1, log1 = run () and _, fp2, log2 = run () in
  Alcotest.(check string) "fingerprint" fp1 fp2;
  Alcotest.(check string) "log" log1 log2

(* A batch holding a symbol outside the scheme's [0, m) is rejected at
   [push], on the caller's domain, before the sketch or any path state
   sees it: the fleet continues exactly as if it had never been
   pushed. *)
let test_push_rejects_out_of_range () =
  let paths = 8 and epochs = 2 and epoch_len = 16 and seed = 555 in
  List.iter
    (fun gate ->
      let run () =
        run_fleet ?gate:(Option.map (fun f -> f ()) gate) ~domains:1 ~paths
          ~epochs ~epoch_len ~seed ()
      in
      let sched, fp, _ = run () and twin, _, _ = run () in
      let m = (Fleet.Path_state.model (Fleet.Scheduler.path sched 0) |> Option.get).Em.m in
      List.iter
        (fun bad ->
          Alcotest.check_raises
            (Printf.sprintf "push rejects Some %d" bad)
            (Invalid_argument
               "Fleet.Scheduler.push: observation symbol outside [0, m)")
            (fun () ->
              Fleet.Scheduler.push sched ~path:0 [| Some 0; Some bad; None |]))
        [ m; m + 1; -1 ];
      Alcotest.(check string) "fingerprint unchanged" fp
        (Fleet.Scheduler.fingerprint sched);
      ignore (Fleet.Scheduler.tick sched : int);
      ignore (Fleet.Scheduler.tick twin : int);
      Alcotest.(check string) "next tick as if never pushed"
        (Fleet.Scheduler.fingerprint twin)
        (Fleet.Scheduler.fingerprint sched))
    [ None; Some (fun () -> Sketch.Gate.config ~loss_threshold:0.05 ~promote_after:1 ()) ]

(* --- fleet: transition emission ---------------------------------------- *)

let test_transitions_consistent () =
  let paths = 32 and epochs = 6 in
  let transitions = ref [] in
  let rng = Stats.Rng.create 99 in
  let src = Fleet.Source.synthetic ~rng ~paths () in
  let config = Fleet.Path_state.config ~scheme:(Fleet.Source.scheme src) () in
  let sched =
    Fleet.Scheduler.create
      ~on_transition:(fun tr -> transitions := tr :: !transitions)
      ~rng ~paths config
  in
  for _ = 1 to epochs do
    for p = 0 to paths - 1 do
      Fleet.Scheduler.push sched ~path:p (Fleet.Source.pull src ~path:p ~len:48)
    done;
    ignore (Fleet.Scheduler.tick sched : int)
  done;
  let transitions = List.rev !transitions in
  Alcotest.(check bool) "some transitions" true (transitions <> []);
  (* Each transition is a real change; within an epoch they arrive in
     ascending path order; per path, consecutive transitions chain. *)
  let last_state = Hashtbl.create 16 and last_key = ref (-1, -1) in
  List.iter
    (fun (tr : Fleet.Scheduler.transition) ->
      Alcotest.(check bool) "was <> now" true (tr.was <> tr.now);
      let key = (tr.epoch, tr.path) in
      Alcotest.(check bool) "ascending (epoch, path) order" true (key > !last_key);
      last_key := key;
      let prev =
        Option.value ~default:None (Hashtbl.find_opt last_state tr.path)
      in
      Alcotest.(check bool) "chains from previous state" true (tr.was = prev);
      Hashtbl.replace last_state tr.path tr.now)
    transitions;
  (* Final scheduler state agrees with the last emitted transition. *)
  Hashtbl.iter
    (fun path state ->
      Alcotest.(check string)
        (Printf.sprintf "path %d final state" path)
        (conclusion_tag state)
        (conclusion_tag (Fleet.Scheduler.conclusion sched path)))
    last_state

(* --- path state edge cases --------------------------------------------- *)

let scheme5 = Dcl.Discretize.of_range ~m:5 ~lo:0.02 ~hi:0.07

let test_path_state_gates () =
  let config = Fleet.Path_state.config ~scheme:scheme5 () in
  let p = Fleet.Path_state.create config ~rng:(Stats.Rng.create 1) in
  let ws = Em.workspace () in
  Alcotest.(check bool) "empty batch is a no-op" false
    (Fleet.Path_state.update ~ws p [||]);
  Alcotest.(check bool) "all-loss first batch is dropped" false
    (Fleet.Path_state.update ~ws p (Array.make 8 None));
  Alcotest.(check bool) "still no model" true (Fleet.Path_state.model p = None);
  let batch = Array.init 64 (fun i -> if i mod 9 = 0 then None else Some (i mod 5)) in
  ignore (Fleet.Path_state.update ~ws p batch : bool);
  Alcotest.(check bool) "model after first mixed batch" true
    (Fleet.Path_state.model p <> None);
  Alcotest.(check int) "observations counted" 64 (Fleet.Path_state.observations p)

let test_config_validation () =
  Alcotest.check_raises "lambda out of range"
    (Invalid_argument "Fleet.Path_state.config: lambda must be in [0, 1]")
    (fun () ->
      ignore (Fleet.Path_state.config ~lambda:1.2 ~scheme:scheme5 ()));
  Alcotest.check_raises "n non-positive"
    (Invalid_argument "Fleet.Path_state.config: n must be positive") (fun () ->
      ignore (Fleet.Path_state.config ~n:0 ~scheme:scheme5 ()))

let test_path_state_coast () =
  let config = Fleet.Path_state.config ~scheme:scheme5 () in
  let p = Fleet.Path_state.create config ~rng:(Stats.Rng.create 2) in
  (* Coasting an empty path is a no-op, not an error. *)
  Fleet.Path_state.coast p ~factor:0.5;
  check_float "still empty" 0. (Fleet.Path_state.weight p);
  let ws = Em.workspace () in
  let batch = Array.init 64 (fun i -> if i mod 9 = 0 then None else Some (i mod 5)) in
  ignore (Fleet.Path_state.update ~ws p batch : bool);
  let w0 = Fleet.Path_state.weight p in
  Fleet.Path_state.coast p ~factor:0.5;
  check_float "weight ages by the factor" (w0 /. 2.) (Fleet.Path_state.weight p);
  Alcotest.check_raises "factor out of range"
    (Invalid_argument "Fleet.Path_state.coast: factor must be in [0, 1]")
    (fun () -> Fleet.Path_state.coast p ~factor:1.5)

(* A direct [update] with a symbol outside [0, m) raises before the path
   changes at all: statistics, model bits, weight, counters and
   timeline are as they were. *)
let test_path_state_rejects_out_of_range () =
  let config = Fleet.Path_state.config ~scheme:scheme5 () in
  let p = Fleet.Path_state.create config ~rng:(Stats.Rng.create 4) in
  let ws = Em.workspace () in
  let batch = Array.init 64 (fun i -> if i mod 9 = 0 then None else Some (i mod 5)) in
  for epoch = 1 to 3 do
    ignore (Fleet.Path_state.update ~ws ~epoch p batch : bool)
  done;
  let snapshot () =
    let st = Fleet.Path_state.stats p in
    let model = Option.get (Fleet.Path_state.model p) in
    let bits a = Array.to_list (Array.map Int64.bits_of_float a) in
    ( List.concat_map bits
        [
          Em.Incremental.xi st;
          Em.Incremental.gamma_sum st;
          Em.Incremental.count_obs st;
          Em.Incremental.count_loss st;
          Em.Incremental.pi0 st;
          Em.Incremental.filtered_end st;
          model.Em.pi;
          model.Em.a;
          model.Em.b;
          model.Em.c;
          [| Fleet.Path_state.weight p; Em.Incremental.log_likelihood st |];
        ],
      [
        Fleet.Path_state.epochs p;
        Fleet.Path_state.observations p;
        Em.Incremental.batches st;
      ],
      Fleet.Timeline.to_json (Fleet.Path_state.timeline p) )
  in
  let before = snapshot () in
  List.iter
    (fun bad ->
      Alcotest.check_raises
        (Printf.sprintf "update rejects Some %d" bad)
        (Invalid_argument
           "Fleet.Path_state.update: observation symbol outside [0, m)")
        (fun () ->
          ignore
            (Fleet.Path_state.update ~ws ~epoch:4 p [| Some 0; Some bad; None |]
              : bool)))
    [ 5; 6; -1 ];
  let bits, counters, timeline = snapshot () in
  let bits0, counters0, timeline0 = before in
  Alcotest.(check (list int64)) "statistics, model and weight bits" bits0 bits;
  Alcotest.(check (list int)) "epochs, observations, batches" counters0 counters;
  Alcotest.(check string) "timeline" timeline0 timeline

(* --- sketch gating ------------------------------------------------------ *)

(* Hand-built epochs so the gate's inputs are exact.  A hot batch loses
   a third of its probes and concentrates delays at the top symbol
   (loss EWMA ~0.33 >= 0.2 and drift ~1 >= 0.75: suspect on both
   signals); a cold batch is loss-free at the bottom symbols (loss 0,
   drift <= 0.25: calm under the 0.8 margin). *)
let hot_batch len = Array.init len (fun i -> if i mod 3 = 0 then None else Some 4)
let cold_batch len = Array.init len (fun i -> Some (i mod 2))

let gated_sched ?(gate = Sketch.Gate.config ()) ~paths () =
  let config = Fleet.Path_state.config ~scheme:scheme5 () in
  Fleet.Scheduler.create ~gate ~rng:(Stats.Rng.create 3) ~paths config

(* A quiet path's gated push — the one pass over the batch, the
   count-min add and query, the EWMA update and, at the epoch's first
   push, the gate evaluation — allocates nothing once the fleet is
   warm.  The batches lose one probe in sixteen at the bottom symbols:
   suspect on neither signal.  A promoted path's push does the same
   work and queues its batch for the tick: one list cell, within a
   64 B bound.  Runs in the "allocation" group, before any test spawns
   the pool. *)
let test_gated_quiet_push_allocation () =
  let paths = 4 in
  let worst_push_words sched batch =
    let epoch ~measure =
      let worst = ref 0 in
      for p = 0 to paths - 1 do
        (* The first push of the epoch evaluates the gate; the second
           only folds. *)
        for _ = 1 to 2 do
          let w0 = minor_words () in
          Fleet.Scheduler.push sched ~path:p batch;
          if measure then worst := max !worst (minor_words () - w0)
        done
      done;
      ignore (Fleet.Scheduler.tick sched : int);
      !worst
    in
    for _ = 1 to 4 do
      ignore (epoch ~measure:false : int)
    done;
    let worst = ref 0 in
    for _ = 1 to 4 do
      worst := max !worst (epoch ~measure:true)
    done;
    !worst
  in
  let quiet = gated_sched ~paths () in
  let words =
    worst_push_words quiet
      (Array.init 16 (fun i -> if i = 5 then None else Some (i mod 2)))
  in
  Alcotest.(check int) "no path promoted" 0 (Fleet.Scheduler.promoted_count quiet);
  Alcotest.(check int) "words per quiet push" 0 words;
  let promoted =
    gated_sched ~gate:(Sketch.Gate.config ~promote_after:1 ()) ~paths ()
  in
  let words = worst_push_words promoted (hot_batch 16) in
  Alcotest.(check int) "every path promoted" paths
    (Fleet.Scheduler.promoted_count promoted);
  if words * (Sys.word_size / 8) > 64 then
    Alcotest.failf "a promoted push allocates %d words (> 64 B)" words

let test_gate_promotes_congested_within_h () =
  let h = 2 in
  let sched = gated_sched ~gate:(Sketch.Gate.config ~promote_after:h ()) ~paths:2 () in
  for e = 1 to h do
    Fleet.Scheduler.push sched ~path:0 (hot_batch 24);
    Fleet.Scheduler.push sched ~path:1 (cold_batch 24);
    ignore (Fleet.Scheduler.tick sched : int);
    let v p = Option.get (Fleet.Scheduler.gate_view sched p) in
    Alcotest.(check bool)
      (Printf.sprintf "hot path promoted iff epoch %d = H" e)
      (e = h) (v 0).Fleet.Scheduler.promoted_path;
    Alcotest.(check bool) "cold path stays quiet" false
      (v 1).Fleet.Scheduler.promoted_path
  done;
  Alcotest.(check int) "promoted count" 1 (Fleet.Scheduler.promoted_count sched);
  let gs = Option.get (Fleet.Scheduler.gate_stats sched) in
  Alcotest.(check int) "one promotion" 1 gs.Fleet.Scheduler.promotions;
  (* The gate steps before the queue/drop decision, so the hot path's
     promotion-epoch batch is already queued for EM; only its earlier
     H-1 batches were absorbed sketch-only, plus everything from the
     forever-quiet cold path. *)
  Alcotest.(check int) "skipped observations" ((h - 1 + h) * 24)
    gs.Fleet.Scheduler.sketch_only_observations;
  (* From the promotion epoch on, the hot path runs full inference and
     the cold path still does not. *)
  for _ = 1 to 6 do
    Fleet.Scheduler.push sched ~path:0 (hot_batch 24);
    Fleet.Scheduler.push sched ~path:1 (cold_batch 24);
    ignore (Fleet.Scheduler.tick sched : int)
  done;
  Alcotest.(check bool) "promoted path accumulates EM state" true
    (Fleet.Path_state.epochs (Fleet.Scheduler.path sched 0) > 0);
  Alcotest.(check int) "quiet path never entered EM" 0
    (Fleet.Path_state.epochs (Fleet.Scheduler.path sched 1));
  Alcotest.(check bool) "quiet path has no conclusion" true
    (Fleet.Scheduler.conclusion sched 1 = None)

let test_gate_loss_signal_masked_by_cms () =
  (* A loss-free path's loss signal must read exactly zero through the
     count-min mask, whatever the EWMA holds. *)
  let sched = gated_sched ~paths:1 () in
  Fleet.Scheduler.push sched ~path:0 (cold_batch 32);
  ignore (Fleet.Scheduler.tick sched : int);
  let v = Option.get (Fleet.Scheduler.gate_view sched 0) in
  Alcotest.(check int) "no losses estimated" 0 v.Fleet.Scheduler.loss_estimate;
  check_float "loss ewma zero" 0. v.Fleet.Scheduler.loss_ewma

let test_gate_demotes_settled_quiet_path () =
  (* Promote on a lossy no-DCL-shaped stream, let the EM settle on
     no-dominant, then go cold: the gate must demote after the
     configured streak while keeping the path's statistics and verdict
     warm.  The loss mass must split ~2:1 between the bottom and top
     symbols: the majority share at the bottom pins d-star to the
     first symbol, and F at 2 d-star ~ 2/3 then rejects both the SDCL
     (0.995) and WDCL (0.935) thresholds.  An even 50/50 split would
     backfire: the VQD median lands mid-alphabet and 2 d-star walks
     off the end of the m=5 scheme, where F saturates to 1 and
     trivially accepts. *)
  let mixed_batch len =
    Array.init len (fun i ->
        match i mod 16 with
        | 2 | 5 | 11 -> None (* two losses amid the 0s, one amid the 4s *)
        | k when k < 8 -> Some 0
        | _ -> Some 4)
  in
  let sched =
    gated_sched
      ~gate:(Sketch.Gate.config ~promote_after:1 ~demote_after:3 ())
      ~paths:1 ()
  in
  let demoted = ref None in
  for e = 1 to 30 do
    Fleet.Scheduler.push sched ~path:0
      (if e <= 6 then mixed_batch 48 else cold_batch 48);
    ignore (Fleet.Scheduler.tick sched : int);
    let v = Option.get (Fleet.Scheduler.gate_view sched 0) in
    if !demoted = None && not v.Fleet.Scheduler.promoted_path then demoted := Some e
  done;
  Alcotest.(check bool) "eventually demoted" true (!demoted <> None);
  Alcotest.(check int) "promoted count back to zero" 0
    (Fleet.Scheduler.promoted_count sched);
  let gs = Option.get (Fleet.Scheduler.gate_stats sched) in
  Alcotest.(check int) "one demotion" 1 gs.Fleet.Scheduler.demotions;
  (* Demotion keeps the decayed statistics and the verdict visible. *)
  let p = Fleet.Scheduler.path sched 0 in
  Alcotest.(check bool) "statistics kept warm" true
    (Stats.Float_cmp.gt (Fleet.Path_state.weight p) 0.);
  Alcotest.(check bool) "no-dominant verdict kept" true
    (Fleet.Scheduler.conclusion sched 0 = Some Dcl.Identify.No_dominant)

(* Gating on a mixed, mostly quiet fleet (2000 paths, one congested
   template in ten, 6 epochs of 24 observations): the same stream
   through an ungated and a gated fleet.  The gated tick's EM sweeps
   must see at most a tenth of the observations, and its dominant-path
   recall must stay within one path of the ungated fleet's.  The
   wall-clock twin (gated tick >= 7x) is gated_tick in bench/gates.ml;
   it builds the same stream and arms, and the two must stay in sync
   (size, seeds, gate config) so both floors measure one stream. *)
let test_gate_cuts_em_work_at_recall () =
  let paths = 2000 and epochs = 6 and epoch_len = 24 in
  let src =
    Fleet.Source.synthetic ~templates:10 ~congested_fraction:0.1
      ~rng:(Stats.Rng.create 13) ~paths ()
  in
  let batches =
    Array.init paths (fun p ->
        Array.init epochs (fun _ -> Fleet.Source.pull src ~path:p ~len:epoch_len))
  in
  let config = Fleet.Path_state.config ~scheme:(Fleet.Source.scheme src) () in
  let arm gate =
    let sched =
      Fleet.Scheduler.create ?gate ~rng:(Stats.Rng.create 42) ~paths config
    in
    for e = 0 to epochs - 1 do
      for p = 0 to paths - 1 do
        Fleet.Scheduler.push sched ~path:p batches.(p).(e)
      done;
      ignore (Fleet.Scheduler.tick sched : int)
    done;
    let recalled = ref 0 in
    for p = 0 to paths - 1 do
      match (Fleet.Source.ground_truth src p, Fleet.Scheduler.conclusion sched p) with
      | Some true, Some (Dcl.Identify.Strongly_dominant | Dcl.Identify.Weakly_dominant)
        ->
          incr recalled
      | _ -> ()
    done;
    (sched, !recalled)
  in
  let dominant =
    List.length
      (List.filter
         (fun p -> Fleet.Source.ground_truth src p = Some true)
         (List.init paths Fun.id))
  in
  let _, recall_ungated = arm None in
  let gated, recall_gated = arm (Some (Sketch.Gate.config ())) in
  let gs = Option.get (Fleet.Scheduler.gate_stats gated) in
  let total = paths * epochs * epoch_len in
  let em_obs = total - gs.Fleet.Scheduler.sketch_only_observations in
  Alcotest.(check bool) "the fleet has dominant paths" true (dominant > 0);
  if 10 * em_obs > total then
    Alcotest.failf "gated EM work %.2fx below the 10x floor"
      (float_of_int total /. float_of_int em_obs);
  if abs (recall_ungated - recall_gated) > 1 then
    Alcotest.failf "gated recall %d/%d vs ungated %d/%d" recall_gated dominant
      recall_ungated dominant

(* --- workspace cache --------------------------------------------------- *)

let test_workspace_cache () =
  let a = Fleet.Workspace_cache.get ~s:10 ~m:5 in
  let b = Fleet.Workspace_cache.get ~s:10 ~m:5 in
  Alcotest.(check bool) "same shape shares the workspace" true (a == b);
  let c = Fleet.Workspace_cache.get ~s:8 ~m:4 in
  Alcotest.(check bool) "different shape gets its own" true (not (a == c));
  Alcotest.(check bool) "cache counts both shapes" true
    (Fleet.Workspace_cache.cached () >= 2)

(* --- diagnosis timeline ------------------------------------------------ *)

let test_timeline_wraparound () =
  let tl = Fleet.Timeline.create ~capacity:3 in
  Alcotest.(check int) "capacity as requested" 3 (Fleet.Timeline.capacity tl);
  for e = 1 to 7 do
    Fleet.Timeline.record tl
      (Fleet.Timeline.Update
         {
           epoch = e;
           verdict = None;
           log_likelihood = -1.5;
           weight = float_of_int e;
           bound = None;
         })
  done;
  Alcotest.(check int) "total counts past capacity" 7 (Fleet.Timeline.total tl);
  Alcotest.(check int) "length capped at capacity" 3 (Fleet.Timeline.length tl);
  let epochs =
    List.map
      (function
        | Fleet.Timeline.Update u -> u.epoch
        | Fleet.Timeline.Gate g -> g.epoch
        | Fleet.Timeline.Reset r -> r.epoch)
      (Fleet.Timeline.entries tl)
  in
  Alcotest.(check (list int)) "newest window, oldest-first" [ 5; 6; 7 ] epochs

let test_timeline_entry_kinds_and_json () =
  let tl = Fleet.Timeline.create ~capacity:8 in
  Fleet.Timeline.record tl
    (Fleet.Timeline.Update
       {
         epoch = 1;
         verdict = Some Dcl.Identify.Strongly_dominant;
         log_likelihood = -2.25;
         weight = 32.;
         bound = Some 0.75;
       });
  Fleet.Timeline.record tl
    (Fleet.Timeline.Gate
       { epoch = 2; promoted = true; cause = "loss-ewma"; streak = 3 });
  Fleet.Timeline.record tl (Fleet.Timeline.Reset { epoch = 3 });
  Fleet.Timeline.record tl
    (Fleet.Timeline.Update
       {
         epoch = 4;
         verdict = None;
         log_likelihood = Float.neg_infinity;
         weight = 0.;
         bound = None;
       });
  Alcotest.(check int) "all entries retained" 4 (Fleet.Timeline.length tl);
  let js = Fleet.Timeline.to_json tl in
  let contains sub =
    let n = String.length js and m = String.length sub in
    let found = ref false in
    let i = ref 0 in
    while (not !found) && !i + m <= n do
      if String.sub js !i m = sub then found := true else incr i
    done;
    !found
  in
  Alcotest.(check bool) "verdict named" true (contains "strongly-dominant");
  Alcotest.(check bool) "gate cause present" true (contains "loss-ewma");
  Alcotest.(check bool) "reset entry present" true (contains "reset");
  (* Non-finite floats must not leak into the JSON (they are not valid
     JSON number literals) — the exporter nulls them. *)
  Alcotest.(check bool) "no bare infinity token" false (contains "inf");
  Alcotest.(check bool) "non-finite exported as null" true (contains "null")

(* A cause is any string the caller records; quotes, backslashes and
   control bytes must come out escaped, or /paths/:id serves invalid
   JSON. *)
let test_timeline_json_escapes_cause () =
  let tl = Fleet.Timeline.create ~capacity:4 in
  let cause = "say \"hi\" \\ tab\tnl\nbell\007" in
  Fleet.Timeline.record tl
    (Fleet.Timeline.Gate { epoch = 1; promoted = true; cause; streak = 1 });
  let js = Fleet.Timeline.to_json tl in
  if not (Json_check.valid js) then Alcotest.failf "invalid JSON: %s" js;
  match Fleet.Timeline.entries tl with
  | [ Fleet.Timeline.Gate g ] ->
      Alcotest.(check string) "cause read back verbatim" cause g.cause
  | _ -> Alcotest.fail "expected one Gate entry"

(* The flat store records bound presence in the kind byte, not as a
   NaN sentinel: [Some nan] and [None] both read back as recorded. *)
let test_timeline_bound_round_trip () =
  let tl = Fleet.Timeline.create ~capacity:2 in
  let update bound =
    Fleet.Timeline.Update
      { epoch = 1; verdict = None; log_likelihood = Float.nan; weight = 1.; bound }
  in
  Fleet.Timeline.record tl (update (Some Float.nan));
  Fleet.Timeline.record tl (update None);
  match Fleet.Timeline.entries tl with
  | [ Fleet.Timeline.Update u1; Fleet.Timeline.Update u2 ] ->
      Alcotest.(check bool) "Some nan survives" true
        (match u1.bound with Some b -> Float.is_nan b | None -> false);
      Alcotest.(check bool) "None survives" true (u2.bound = None);
      Alcotest.(check bool) "nan log-likelihood survives" true
        (Float.is_nan u1.log_likelihood)
  | _ -> Alcotest.fail "expected two Update entries"

let test_timeline_capacity_zero () =
  let tl = Fleet.Timeline.create ~capacity:0 in
  Fleet.Timeline.record tl (Fleet.Timeline.Reset { epoch = 1 });
  Alcotest.(check int) "record is a no-op" 0 (Fleet.Timeline.total tl);
  Alcotest.(check int) "no entries" 0 (List.length (Fleet.Timeline.entries tl));
  Alcotest.check_raises "negative capacity rejected"
    (Invalid_argument "Fleet.Timeline.create: capacity must be non-negative")
    (fun () -> ignore (Fleet.Timeline.create ~capacity:(-1)))

(* Path_state threads every update, gate flip, and reset through its
   timeline: drive one path with the scheduler's own machinery and
   check the history lines up with the observable state. *)
let test_path_state_records_timeline () =
  let cfg =
    Fleet.Path_state.config ~timeline_capacity:16
      ~scheme:(Dcl.Discretize.of_range ~m:5 ~lo:0.02 ~hi:0.07)
      ()
  in
  let p = Fleet.Path_state.create cfg ~rng:(Stats.Rng.create 11) in
  let ws = Em.workspace () in
  let batch =
    Array.init 64 (fun i -> if i mod 9 = 0 then None else Some (i mod 5))
  in
  ignore (Fleet.Path_state.update ~ws p batch : bool);
  ignore (Fleet.Path_state.update ~ws ~epoch:9 p batch : bool);
  let tl = Fleet.Path_state.timeline p in
  Alcotest.(check int) "one entry per update" 2 (Fleet.Timeline.total tl);
  match Fleet.Timeline.entries tl with
  | [ Fleet.Timeline.Update u1; Fleet.Timeline.Update u2 ] ->
      Alcotest.(check int) "default epoch stamp is the epoch counter" 1
        u1.epoch;
      Alcotest.(check int) "explicit epoch stamp wins" 9 u2.epoch;
      Alcotest.(check bool) "recorded weight is positive" true
        (u2.weight > 0.);
      Alcotest.(check (float 0.)) "last log-likelihood is the recorded one"
        u2.log_likelihood
        (Fleet.Path_state.last_log_likelihood p)
  | _ -> Alcotest.fail "expected exactly two Update entries"

(* --- source ------------------------------------------------------------ *)

let test_synthetic_source_deterministic () =
  let mk () = Fleet.Source.synthetic ~rng:(Stats.Rng.create 5) ~paths:4 () in
  let s1 = mk () and s2 = mk () in
  let b1 = Fleet.Source.pull s1 ~path:2 ~len:50 in
  let b2 = Fleet.Source.pull s2 ~path:2 ~len:50 in
  Alcotest.(check bool) "seeded pulls replay bitwise" true (b1 = b2);
  Alcotest.(check bool) "ground truth available" true
    (Fleet.Source.ground_truth s1 0 <> None)

(* The congested-template split is one integer rounding decision, for
   every fraction in [0, 1] — the boundary the old per-index float
   comparison could misround. *)
let prop_congested_templates_rounds =
  QCheck.Test.make ~name:"congested count = round(fraction * templates)"
    ~count:500
    QCheck.(pair (int_range 1 64) (float_range 0. 1.))
    (fun (templates, fraction) ->
      let c = Fleet.Source.congested_templates ~templates ~fraction in
      c = int_of_float (Float.round (fraction *. float_of_int templates))
      && c >= 0 && c <= templates)

let test_congested_templates_boundaries () =
  Alcotest.(check int) "zero fraction" 0
    (Fleet.Source.congested_templates ~templates:8 ~fraction:0.);
  Alcotest.(check int) "full fraction" 8
    (Fleet.Source.congested_templates ~templates:8 ~fraction:1.);
  (* A representable exact half rounds away from zero, and the count
     is computed once — not re-derived per template index. *)
  Alcotest.(check int) "half rounds up" 1
    (Fleet.Source.congested_templates ~templates:8 ~fraction:0.0625);
  Alcotest.(check int) "one in ten" 1
    (Fleet.Source.congested_templates ~templates:10 ~fraction:0.1)

let () =
  Alcotest.run "fleet"
    [
      ( "incremental-em",
        [
          QCheck_alcotest.to_alcotest prop_single_append_matches_em_step;
          Alcotest.test_case "single append bitwise" `Quick test_single_append_bitwise;
          Alcotest.test_case "weight and counts" `Quick test_append_weight_and_counts;
        ] );
      ( "m-step-in-place",
        [
          QCheck_alcotest.to_alcotest prop_m_step_in_place_matches;
          Alcotest.test_case "dimension mismatch" `Quick
            test_m_step_dimension_mismatch;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "update round <= 32 words" `Quick
            test_update_round_allocation;
          Alcotest.test_case "path update <= 2048 B" `Quick
            test_path_update_allocation;
          Alcotest.test_case "gated quiet push allocates nothing" `Quick
            test_gated_quiet_push_allocation;
          Alcotest.test_case "timeline record allocates nothing" `Quick
            test_timeline_record_allocation;
        ] );
      ( "decay",
        [
          Alcotest.test_case "scales statistics" `Quick test_decay_scales_everything;
          Alcotest.test_case "identity at 1" `Quick test_decay_identity_at_one;
          Alcotest.test_case "validation" `Quick test_decay_validation;
        ] );
      ( "carry",
        [
          Alcotest.test_case "logL additivity" `Quick test_carry_loglik_additivity;
          Alcotest.test_case "reset" `Quick test_reset;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "serial = pooled at 2/4/8" `Quick test_pool_determinism;
          Alcotest.test_case "gated serial = pooled at 2/4/8" `Quick
            test_gated_pool_determinism;
          Alcotest.test_case "trace on = trace off" `Quick
            test_trace_on_off_identical;
          Alcotest.test_case "rerun identical" `Quick test_fleet_reruns_identically;
          Alcotest.test_case "push rejects out-of-range symbols" `Quick
            test_push_rejects_out_of_range;
        ] );
      ( "transitions",
        [ Alcotest.test_case "consistent stream" `Quick test_transitions_consistent ] );
      ( "path-state",
        [
          Alcotest.test_case "gates" `Quick test_path_state_gates;
          Alcotest.test_case "config validation" `Quick test_config_validation;
          Alcotest.test_case "coast" `Quick test_path_state_coast;
          Alcotest.test_case "update rejects out-of-range symbols" `Quick
            test_path_state_rejects_out_of_range;
        ] );
      ( "gating",
        [
          Alcotest.test_case "promotes congested within H" `Quick
            test_gate_promotes_congested_within_h;
          Alcotest.test_case "loss signal masked by count-min" `Quick
            test_gate_loss_signal_masked_by_cms;
          Alcotest.test_case "demotes settled quiet path" `Quick
            test_gate_demotes_settled_quiet_path;
          Alcotest.test_case "EM work >= 10x at recall within one path" `Quick
            test_gate_cuts_em_work_at_recall;
        ] );
      ( "workspace-cache",
        [ Alcotest.test_case "keyed by shape" `Quick test_workspace_cache ] );
      ( "timeline",
        [
          Alcotest.test_case "ring wraparound" `Quick test_timeline_wraparound;
          Alcotest.test_case "entry kinds and json" `Quick
            test_timeline_entry_kinds_and_json;
          Alcotest.test_case "json escapes cause" `Quick
            test_timeline_json_escapes_cause;
          Alcotest.test_case "bound round trip" `Quick
            test_timeline_bound_round_trip;
          Alcotest.test_case "capacity zero" `Quick test_timeline_capacity_zero;
          Alcotest.test_case "path-state records history" `Quick
            test_path_state_records_timeline;
        ] );
      ( "source",
        [
          Alcotest.test_case "deterministic" `Quick
            test_synthetic_source_deterministic;
          QCheck_alcotest.to_alcotest prop_congested_templates_rounds;
          Alcotest.test_case "congested-count boundaries" `Quick
            test_congested_templates_boundaries;
        ] );
    ]
