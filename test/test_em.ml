(* Tests for the shared EM kernel: allocation-free disabled
   instrumentation, parallel-restart determinism, degenerate-restart
   skipping, workspace reuse across windows and differently-sized
   models, and rejection of out-of-range symbols. *)

let check_float = Alcotest.(check (float 1e-12))

let mmhd_obs ~seed ~len =
  let rng = Stats.Rng.create seed in
  let truth = Mmhd.init_random rng ~n:2 ~m:4 ~loss_fraction:0.08 in
  let obs, _ = Mmhd.simulate rng truth ~len in
  obs.(0) <- Some 0;
  obs.(1) <- None;
  obs

let hmm_obs ~seed ~len =
  let rng = Stats.Rng.create seed in
  let truth = Hmm.init_random rng ~n:2 ~m:4 ~loss_fraction:0.08 in
  let obs, _ = Hmm.simulate rng truth ~len in
  obs.(0) <- Some 0;
  obs.(1) <- None;
  obs

(* --- parallel restarts pick the identical winner ----------------------- *)

let check_same_floats name a b =
  Alcotest.(check (array (float 0.))) name a b

let check_same_matrix name a b =
  Array.iteri (fun i row -> check_same_floats (Printf.sprintf "%s row %d" name i) row b.(i)) a

(* Four restarts raced on 2 and 4 domains, for n = 2 and n = 4 hidden
   levels per delay symbol. *)
let test_mmhd_parallel_determinism () =
  let obs = mmhd_obs ~seed:11 ~len:1500 in
  List.iter
    (fun n ->
      let fit domains =
        Mmhd.fit ~max_iter:25 ~restarts:4 ~domains ~rng:(Stats.Rng.create 5) ~n ~m:4 obs
      in
      let serial, s_stats = fit 1 in
      List.iter
        (fun domains ->
          let parallel, p_stats = fit domains in
          let name what = Printf.sprintf "%s (n=%d, %d domains)" what n domains in
          check_same_floats (name "pi") serial.Mmhd.pi parallel.Mmhd.pi;
          check_same_matrix (name "a") serial.Mmhd.a parallel.Mmhd.a;
          check_same_floats (name "c") serial.Mmhd.c parallel.Mmhd.c;
          check_float (name "log-likelihood") s_stats.Mmhd.log_likelihood
            p_stats.Mmhd.log_likelihood;
          Alcotest.(check int) (name "iterations") s_stats.Mmhd.iterations
            p_stats.Mmhd.iterations)
        [ 2; 4 ])
    [ 2; 4 ]

let test_hmm_parallel_determinism () =
  let obs = hmm_obs ~seed:13 ~len:1500 in
  let fit domains =
    Hmm.fit ~max_iter:25 ~restarts:4 ~domains ~rng:(Stats.Rng.create 5) ~n:2 ~m:4 obs
  in
  let serial, s_stats = fit 1 in
  let parallel, p_stats = fit 4 in
  check_same_floats "pi" serial.Hmm.pi parallel.Hmm.pi;
  check_same_matrix "a" serial.Hmm.a parallel.Hmm.a;
  check_same_matrix "b" serial.Hmm.b parallel.Hmm.b;
  check_same_floats "c" serial.Hmm.c parallel.Hmm.c;
  check_float "log-likelihood" s_stats.Hmm.log_likelihood p_stats.Hmm.log_likelihood

let test_more_domains_than_restarts () =
  (* domains beyond the restart count must not change the result. *)
  let obs = mmhd_obs ~seed:17 ~len:800 in
  let fit domains =
    fst (Mmhd.fit ~max_iter:10 ~restarts:2 ~domains ~rng:(Stats.Rng.create 3) ~n:2 ~m:4 obs)
  in
  check_same_floats "pi" (fit 1).Mmhd.pi (fit 8).Mmhd.pi

(* --- instrumentation off costs nothing ---------------------------------- *)

(* Bytes one call allocates on this domain.  A minor collection inside
   the bracket inflates the delta (promoted words are counted on both
   sides), so empty the minor heap first and keep the smallest of three
   calls: a collection-free call reports the true allocation.  The
   cases using it run before any test spawns the pool. *)
let alloc_bytes f =
  let best = ref infinity in
  for _ = 1 to 3 do
    Gc.minor ();
    let a0 = Gc.allocated_bytes () in
    f ();
    best := Float.min !best (Gc.allocated_bytes () -. a0)
  done;
  !best

let obs_fit_obs =
  let rng = Stats.Rng.create 0x0B5 in
  let truth = Mmhd.init_random rng ~n:2 ~m:5 ~loss_fraction:0.05 in
  let obs, _ = Mmhd.simulate rng truth ~len:2000 in
  obs.(0) <- None;
  obs.(1) <- Some 0;
  obs

(* Every instrumentation call is compiled into the EM kernel; with
   metrics and tracing off each is one flag check, so a fit allocates
   less than one byte per observation-iteration, before and after a
   traced fit has run and recorded its events. *)
let test_disabled_fit_allocation () =
  let restarts = 4 in
  let fit () =
    Mmhd.fit ~eps:1e-4 ~max_iter:5 ~restarts ~domains:1 ~rng:(Stats.Rng.create 42)
      ~n:2 ~m:5 obs_fit_obs
  in
  let iterations = (snd (fit ())).Mmhd.iterations in
  let obs_iters = float_of_int (Array.length obs_fit_obs * iterations * restarts) in
  let per_obs_iter () = alloc_bytes (fun () -> ignore (fit ())) /. obs_iters in
  Obs.set_enabled false;
  Obs.Trace.set_enabled false;
  let before = per_obs_iter () in
  Obs.Trace.set_capacity 8192;
  Obs.Trace.set_enabled true;
  Obs.Trace.clear ();
  ignore (fit ());
  let events = Obs.Trace.emitted () in
  Obs.Trace.set_enabled false;
  ignore (fit ());
  let after = per_obs_iter () in
  Alcotest.(check bool) "traced fit records events" true (events > 0);
  if before >= 1. || after >= 1. then
    Alcotest.failf
      "disabled fit allocates %.3f B per observation-iteration (%.3f B after the \
       traced fit)"
      before after

(* Sliding-window fits, the Online.scan pattern: a workspace holds
   scaled sweep state but no statistics, so reusing one warm workspace
   for every window fits exactly what a fresh workspace per window
   does. *)
let test_warm_workspace_windows () =
  let window = 500 and stride = 250 and n = 2 and m = 5 in
  let windows = ((Array.length obs_fit_obs - window) / stride) + 1 in
  let fit_windows ~fresh =
    let warm = Em.workspace () in
    List.init windows (fun w ->
        let win = Array.sub obs_fit_obs (w * stride) window in
        let t0 =
          Mmhd.to_em (Mmhd.init_informed (Stats.Rng.create (1000 + w)) ~n ~m win)
        in
        let ws = if fresh then Em.workspace () else warm in
        let model, _ = Em.fit_from ~ws ~eps:1e-3 ~max_iter:5 ~update_b:false t0 win in
        List.map (Array.map Int64.bits_of_float) [ model.Em.pi; model.Em.a; model.Em.c ])
  in
  Alcotest.(check bool) "warm = fresh, bitwise" true
    (fit_windows ~fresh:false = fit_windows ~fresh:true)

(* --- degenerate restarts are skipped, not fatal ------------------------ *)

(* A model whose emission rows assign zero probability to symbol 0 has
   zero likelihood on any sequence containing symbol 0. *)
let degenerate_model : Em.model =
  {
    Em.s = 2;
    m = 2;
    pi = [| 0.5; 0.5 |];
    a = [| 0.5; 0.5; 0.5; 0.5 |];
    b = [| 0.; 1.; 0.; 1. |];
    c = [| 0.1; 0.1 |];
  }

let sane_model : Em.model =
  {
    Em.s = 2;
    m = 2;
    pi = [| 0.6; 0.4 |];
    a = [| 0.7; 0.3; 0.2; 0.8 |];
    b = [| 0.8; 0.2; 0.3; 0.7 |];
    c = [| 0.1; 0.2 |];
  }

let em_obs = [| Some 0; Some 1; None; Some 0; Some 1; Some 1; Some 0; None; Some 1 |]

let test_degenerate_restart_skipped () =
  let init k = if k = 0 then degenerate_model else sane_model in
  let model, stats =
    Em.fit_restarts ~max_iter:20 ~restarts:2 ~update_b:true ~init em_obs
  in
  (* The surviving restart's fit is returned, not an exception, and the
     discarded restart is accounted for. *)
  Alcotest.(check bool) "finite log-likelihood" true
    (Float.is_finite stats.Em.log_likelihood);
  Alcotest.(check int) "state count preserved" 2 model.Em.s;
  Alcotest.(check int) "one restart skipped" 1 stats.Em.skipped_restarts

let test_healthy_fit_skips_nothing () =
  let _, stats =
    Em.fit_restarts ~max_iter:20 ~restarts:3 ~update_b:true
      ~init:(fun _ -> sane_model)
      em_obs
  in
  Alcotest.(check int) "no skipped restarts" 0 stats.Em.skipped_restarts;
  let ws = Em.workspace () in
  let _, from_stats = Em.fit_from ~ws ~max_iter:20 ~update_b:true sane_model em_obs in
  Alcotest.(check int) "fit_from never skips" 0 from_stats.Em.skipped_restarts

let test_pp_fit_stats () =
  let s =
    { Em.iterations = 42; log_likelihood = -12.5; converged = true; skipped_restarts = 1 }
  in
  Alcotest.(check string) "render"
    "42 iterations (converged), logL=-12.500, 1 degenerate restart skipped"
    (Format.asprintf "%a" Em.pp_fit_stats s);
  let s' = { s with Em.converged = false; skipped_restarts = 0 } in
  Alcotest.(check string) "render max-iter"
    "42 iterations (max-iter), logL=-12.500, 0 degenerate restarts skipped"
    (Format.asprintf "%a" Em.pp_fit_stats s')

let test_all_degenerate_fails () =
  Alcotest.check_raises "all restarts degenerate"
    (Failure "Em.fit_restarts: every restart hit a zero-likelihood degeneracy")
    (fun () ->
      ignore
        (Em.fit_restarts ~max_iter:20 ~restarts:3 ~update_b:true
           ~init:(fun _ -> degenerate_model)
           em_obs))

let test_zero_likelihood_carries_time () =
  (* The exception reports the first impossible observation's index. *)
  let ws = Em.workspace () in
  match Em.log_likelihood ~ws degenerate_model [| Some 1; Some 1; Some 0 |] with
  | _ -> Alcotest.fail "expected Zero_likelihood"
  | exception Em.Zero_likelihood t -> Alcotest.(check int) "failing time" 2 t

let test_em_floors_keep_fit_alive () =
  (* Starting EM from a model already carrying hard zeros in re-estimated
     blocks must not abort: the M-step floors keep later iterations
     strictly positive wherever the data demands it. *)
  let nearly_degenerate : Em.model =
    (* Identity transitions: hard zeros off-diagonal, both states
       occupied, so both rows get re-estimated and floored. *)
    {
      Em.s = 2;
      m = 2;
      pi = [| 0.5; 0.5 |];
      a = [| 1.; 0.; 0.; 1. |];
      b = [| 0.5; 0.5; 0.5; 0.5 |];
      c = [| 0.1; 0.1 |];
    }
  in
  let ws = Em.workspace () in
  let fitted, stats = Em.fit_from ~ws ~max_iter:30 ~update_b:true nearly_degenerate em_obs in
  Alcotest.(check bool) "finite" true (Float.is_finite stats.Em.log_likelihood);
  (* Transition rows were floored away from exact zero. *)
  Array.iter
    (fun p -> Alcotest.(check bool) "transition > 0" true (p > 0.))
    fitted.Em.a

(* --- workspace reuse across sizes -------------------------------------- *)

let test_workspace_reuse_across_sizes () =
  (* Run a big model, then a smaller one, in the same workspace; the
     small model's results must match a fresh workspace bit-for-bit
     (stale buffer contents never leak through the active-set masks). *)
  let big_obs = mmhd_obs ~seed:23 ~len:400 in
  let small_obs = [| Some 0; None; Some 1; Some 1; Some 0; None; Some 1 |] in
  let shared = Em.workspace () in
  let big = Mmhd.init_informed (Stats.Rng.create 9) ~n:3 ~m:4 big_obs in
  let big_em : Em.model =
    let s = 12 in
    {
      Em.s;
      m = 4;
      pi = Array.copy big.Mmhd.pi;
      a = Array.init (s * s) (fun k -> big.Mmhd.a.(k / s).(k mod s));
      b = Array.init (s * 4) (fun k -> if k mod 4 = k / 4 mod 4 then 1. else 0.);
      c = Array.copy big.Mmhd.c;
    }
  in
  ignore (Em.em_step ~ws:shared ~update_b:false big_em big_obs);
  let fresh = Em.workspace () in
  let ll_shared = Em.log_likelihood ~ws:shared sane_model small_obs in
  let ll_fresh = Em.log_likelihood ~ws:fresh sane_model small_obs in
  check_float "log-likelihood identical" ll_fresh ll_shared;
  let step_shared = Em.em_step ~ws:shared ~update_b:true sane_model small_obs in
  let step_fresh = Em.em_step ~ws:fresh ~update_b:true sane_model small_obs in
  check_same_floats "pi" step_fresh.Em.pi step_shared.Em.pi;
  check_same_floats "a" step_fresh.Em.a step_shared.Em.a;
  check_same_floats "b" step_fresh.Em.b step_shared.Em.b;
  check_same_floats "c" step_fresh.Em.c step_shared.Em.c

(* --- observation symbols outside [0, m) -------------------------------- *)

let five_symbol_model : Em.model =
  {
    Em.s = 2;
    m = 5;
    pi = [| 0.6; 0.4 |];
    a = [| 0.7; 0.3; 0.2; 0.8 |];
    b = [| 0.3; 0.3; 0.2; 0.1; 0.1; 0.1; 0.1; 0.2; 0.3; 0.3 |];
    c = [| 0.05; 0.05; 0.1; 0.2; 0.3 |];
  }

let stats_bits st =
  let bits a = Array.map Int64.bits_of_float a in
  ( [
      bits (Em.Incremental.xi st);
      bits (Em.Incremental.gamma_sum st);
      bits (Em.Incremental.count_obs st);
      bits (Em.Incremental.count_loss st);
      bits (Em.Incremental.pi0 st);
      bits (Em.Incremental.filtered_end st);
    ],
    ( Int64.bits_of_float (Em.Incremental.weight st),
      Int64.bits_of_float (Em.Incremental.log_likelihood st),
      Em.Incremental.batches st ) )

(* A symbol outside [0, m) is neither a delay nor a loss: every entry
   point rejects it before touching any accumulator, instead of reading
   it as a loss (m) or past the end of the class tables (> m). *)
let test_out_of_range_symbols () =
  let model = five_symbol_model and ws = Em.workspace () in
  let good = [| Some 0; None; Some 4; Some 2; None; Some 1 |] in
  let expected = Invalid_argument "Em: observation symbol outside [0, m)" in
  List.iter
    (fun bad ->
      let obs = [| Some 0; None; Some bad; Some 1 |] in
      let name what = Printf.sprintf "%s rejects Some %d" what bad in
      Alcotest.check_raises (name "log_likelihood") expected (fun () ->
          ignore (Em.log_likelihood ~ws model obs : float));
      Alcotest.check_raises (name "em_step") expected (fun () ->
          ignore (Em.em_step ~ws ~update_b:true model obs : Em.model));
      let stats = Em.Incremental.create ~s:2 ~m:5 in
      ignore (Em.Incremental.append ~ws stats model good : float);
      let before = stats_bits stats in
      Alcotest.check_raises (name "append") expected (fun () ->
          ignore (Em.Incremental.append ~ws stats model obs : float));
      Alcotest.(check bool) (name "statistics untouched by append") true
        (stats_bits stats = before))
    [ 5; 6; -1 ]

let test_restarts_validation () =
  Alcotest.check_raises "restarts must be positive"
    (Invalid_argument "Em.fit_restarts: restarts must be positive")
    (fun () ->
      ignore
        (Em.fit_restarts ~restarts:0 ~update_b:true ~init:(fun _ -> sane_model) em_obs))

let () =
  Alcotest.run "em"
    [
      ( "instrumentation",
        [
          Alcotest.test_case "disabled fit allocation-free around a traced fit"
            `Quick test_disabled_fit_allocation;
          Alcotest.test_case "warm workspace = fresh across windows" `Quick
            test_warm_workspace_windows;
        ] );
      ( "parallel determinism",
        [
          Alcotest.test_case "mmhd serial = 4 domains" `Quick
            test_mmhd_parallel_determinism;
          Alcotest.test_case "hmm serial = 4 domains" `Quick
            test_hmm_parallel_determinism;
          Alcotest.test_case "more domains than restarts" `Quick
            test_more_domains_than_restarts;
        ] );
      ( "degeneracy",
        [
          Alcotest.test_case "degenerate restart skipped" `Quick
            test_degenerate_restart_skipped;
          Alcotest.test_case "healthy fit skips nothing" `Quick
            test_healthy_fit_skips_nothing;
          Alcotest.test_case "pp_fit_stats" `Quick test_pp_fit_stats;
          Alcotest.test_case "all degenerate fails" `Quick test_all_degenerate_fails;
          Alcotest.test_case "zero likelihood carries time" `Quick
            test_zero_likelihood_carries_time;
          Alcotest.test_case "floors keep fit alive" `Quick
            test_em_floors_keep_fit_alive;
        ] );
      ( "workspace",
        [
          Alcotest.test_case "reuse across sizes" `Quick
            test_workspace_reuse_across_sizes;
          Alcotest.test_case "restart validation" `Quick test_restarts_validation;
          Alcotest.test_case "out-of-range symbols" `Quick
            test_out_of_range_symbols;
        ] );
    ]
