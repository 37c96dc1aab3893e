(* Wall-clock gates: the contracts only a clock can check, at CI size.
   No flags and no output file; one line per gate on stdout, and exit 1
   when any gate is breached.

     dune build @bench-gates

   The deterministic contracts (serial = pooled, traced = untraced,
   allocation bounds, gated EM work and recall) are asserted by
   test/test_em.ml and test/test_fleet.ml under dune runtest; the
   wall-clock numbers with provenance come from perfbench/. *)

let time_of f =
  let t0 = Obs.Span.now_ns () in
  let r = f () in
  (r, float_of_int (Obs.Span.now_ns () - t0) *. 1e-9)

let breached = ref false

let report name ~ok fmt =
  Printf.ksprintf
    (fun detail ->
      if not ok then breached := true;
      Printf.printf "%-5s %s: %s\n%!" (if ok then "ok" else "FATAL") name detail)
    fmt

let median a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a.(Array.length a / 2)

(* Time every leg once per round, rotating which goes first, over an
   untimed warm round 0 and [rounds] timed ones; returns the timed
   rounds' seconds, [times.(round).(leg)].  A gate reads the median of
   per-round ratios, so a slow phase of the machine spoils a round, not
   a leg. *)
let interleaved ~rounds legs =
  let k = Array.length legs in
  let times = Array.make_matrix (rounds + 1) k 0. in
  for round = 0 to rounds do
    for j = 0 to k - 1 do
      let i = (round + j) mod k in
      times.(round).(i) <- legs.(i) ()
    done
  done;
  Array.sub times 1 rounds

(* --- instrumentation overhead ---------------------------------------

   One serial MMHD fit (T = 2000, n = 2, m = 5, 4 restarts, 5
   iterations) with collection disabled, with metrics enabled, and with
   the flight recorder enabled, [interleaved]: each round yields one
   enabled/disabled and one traced/disabled ratio. *)

let obs_rounds = 15

let obs_overhead () =
  let n = 2 and m = 5 in
  let rng = Stats.Rng.create 0x0B5 in
  let truth = Mmhd.init_random rng ~n ~m ~loss_fraction:0.05 in
  let obs, _ = Mmhd.simulate rng truth ~len:2000 in
  obs.(0) <- None;
  obs.(1) <- Some 0;
  let fit () =
    ignore
      (Mmhd.fit ~eps:1e-4 ~max_iter:5 ~restarts:4 ~domains:1
         ~rng:(Stats.Rng.create 42) ~n ~m obs)
  in
  Obs.Trace.set_capacity 8192;
  let leg metrics trace () =
    Obs.set_enabled metrics;
    Obs.Trace.set_enabled trace;
    snd (time_of fit)
  in
  (* (metrics, trace): disabled, enabled, traced. *)
  let legs = [| leg false false; leg true false; leg false true |] in
  let times = interleaved ~rounds:obs_rounds legs in
  Obs.set_enabled false;
  Obs.Trace.set_enabled false;
  List.iter
    (fun (name, k) ->
      let overhead = median (Array.map (fun t -> (t.(k) /. t.(0)) -. 1.) times) in
      report name ~ok:(overhead < 0.05)
        "%+.2f%% (median of %d rounds, bound 5%%)" (100. *. overhead) obs_rounds)
    [ ("metrics-enabled overhead", 1); ("tracing-enabled overhead", 2) ]

(* --- sketch-gated tick ----------------------------------------------

   One pre-generated, mostly quiet stream (2000 paths, one congested
   template in ten, 6 epochs of 24 observations) through an ungated and
   a gated fleet, [interleaved], each run after a full major
   collection; the median ungated/gated ratio must be at least 7x.  The
   deterministic counterpart, EM work >= 10x at equal recall, is
   test_gate_cuts_em_work_at_recall in test/test_fleet.ml; it builds
   the same stream and arms, and the two must stay in sync (size,
   seeds, gate config) so both floors measure one stream. *)

let tick_rounds = 7

let gated_tick () =
  let paths = 2000 and epochs = 6 and epoch_len = 24 in
  let rng = Stats.Rng.create 13 in
  let src =
    Fleet.Source.synthetic ~templates:10 ~congested_fraction:0.1 ~rng ~paths ()
  in
  let batches =
    Array.init paths (fun p ->
        Array.init epochs (fun _ -> Fleet.Source.pull src ~path:p ~len:epoch_len))
  in
  let config = Fleet.Path_state.config ~scheme:(Fleet.Source.scheme src) () in
  let tick_seconds gate () =
    Gc.full_major ();
    let sched =
      Fleet.Scheduler.create ?gate ~rng:(Stats.Rng.create 42) ~paths config
    in
    let total = ref 0. in
    for e = 0 to epochs - 1 do
      for p = 0 to paths - 1 do
        Fleet.Scheduler.push sched ~path:p batches.(p).(e)
      done;
      total := !total +. snd (time_of (fun () -> Fleet.Scheduler.tick sched))
    done;
    !total
  in
  let times =
    interleaved ~rounds:tick_rounds
      [| tick_seconds None; tick_seconds (Some (Sketch.Gate.config ())) |]
  in
  let ratio = median (Array.map (fun t -> t.(0) /. t.(1)) times) in
  let ms k = 1e3 *. median (Array.map (fun t -> t.(k)) times) in
  report "gated tick speedup" ~ok:(ratio >= 7.)
    "%.2fx (median of %d rounds; %.1f ms ungated, %.1f ms gated; floor 7x)"
    ratio tick_rounds (ms 0) (ms 1)

(* --- incremental update vs per-epoch refit --------------------------

   The same stream (12 paths, 5 epochs of 32 observations) through the
   streaming scheduler, one online-EM iteration and re-test per epoch,
   and through the classical alternative: refit the MMHD from an
   informed start on the whole history every epoch, skipping the
   re-test, which only flatters the refit.  A full major collection
   first, so the gated tick's garbage is not swept inside the short
   incremental leg. *)

let incremental_vs_refit () =
  let paths = 12 and epochs = 5 and epoch_len = 32 and n = 2 and m = 5 in
  let src = Fleet.Source.synthetic ~m ~rng:(Stats.Rng.create 0xBA7C4) ~paths () in
  let batches =
    Array.init paths (fun p ->
        Array.init epochs (fun _ -> Fleet.Source.pull src ~path:p ~len:epoch_len))
  in
  let config = Fleet.Path_state.config ~n ~scheme:(Fleet.Source.scheme src) () in
  let sched = Fleet.Scheduler.create ~rng:(Stats.Rng.create 42) ~paths config in
  Gc.full_major ();
  let (), incremental =
    time_of (fun () ->
        for e = 0 to epochs - 1 do
          for p = 0 to paths - 1 do
            Fleet.Scheduler.push sched ~path:p batches.(p).(e)
          done;
          ignore (Fleet.Scheduler.tick sched : int)
        done)
  in
  let histories = Array.make paths [||] in
  let rng = Stats.Rng.create 42 in
  let (), refit =
    time_of (fun () ->
        for e = 0 to epochs - 1 do
          for p = 0 to paths - 1 do
            histories.(p) <- Array.append histories.(p) batches.(p).(e);
            if Array.exists Option.is_some histories.(p) then begin
              let t0 = Mmhd.init_informed rng ~n ~m histories.(p) in
              ignore (Mmhd.fit_from ~eps:1e-3 ~max_iter:10 t0 histories.(p))
            end
          done
        done)
  in
  let speedup = refit /. incremental in
  report "incremental vs refit" ~ok:(speedup >= 5.) "%.2fx (floor 5x)" speedup

let () =
  obs_overhead ();
  gated_tick ();
  incremental_vs_refit ();
  if !breached then exit 1
