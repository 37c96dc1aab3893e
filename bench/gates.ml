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

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a.(Array.length a / 2)

(* --- instrumentation overhead ---------------------------------------

   One serial MMHD fit (T = 2000, n = 2, m = 5, 4 restarts, 5
   iterations) with collection disabled, with metrics enabled, and with
   the flight recorder enabled.  Each round times the three back to
   back, rotating which goes first, and yields one enabled/disabled and
   one traced/disabled ratio; the gate reads the median ratio over the
   rounds.  A slow phase of the machine then spoils a round, not a
   leg.  Round 0 warms every mode untimed. *)

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
  (* (metrics, trace) per leg: disabled, enabled, traced. *)
  let legs = [| (false, false); (true, false); (false, true) |] in
  let secs = Array.make 3 0. in
  let enabled = ref [] and traced = ref [] in
  for round = 0 to obs_rounds do
    for k = 0 to 2 do
      let i = (round + k) mod 3 in
      let metrics, trace = legs.(i) in
      Obs.set_enabled metrics;
      Obs.Trace.set_enabled trace;
      secs.(i) <- snd (time_of fit)
    done;
    if round > 0 then begin
      enabled := (secs.(1) /. secs.(0)) -. 1. :: !enabled;
      traced := (secs.(2) /. secs.(0)) -. 1. :: !traced
    end
  done;
  Obs.set_enabled false;
  Obs.Trace.set_enabled false;
  List.iter
    (fun (name, ratios) ->
      let overhead = median ratios in
      report name ~ok:(overhead < 0.05)
        "%+.2f%% (median of %d rounds, bound 5%%)" (100. *. overhead) obs_rounds)
    [
      ("metrics-enabled overhead", !enabled);
      ("tracing-enabled overhead", !traced);
    ]

(* --- sketch-gated tick ----------------------------------------------

   One pre-generated, mostly quiet stream (2000 paths, one congested
   template in ten, 6 epochs of 24 observations) through an ungated and
   a gated fleet; the gate must cut the tick's wall time at least 7x.
   Each arm keeps the fastest of three runs, each after a full major
   collection.  The deterministic counterpart, EM work >= 10x at equal
   recall, is test_gate_cuts_em_work_at_recall in test/test_fleet.ml; it
   builds the same stream and arms, and the two must stay in sync (size,
   seeds, gate config) so both floors measure one stream. *)

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
  let tick_seconds gate =
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
  let best gate =
    List.fold_left Float.min infinity (List.init 3 (fun _ -> tick_seconds gate))
  in
  let ungated = best None in
  let gated = best (Some (Sketch.Gate.config ())) in
  let ratio = ungated /. gated in
  report "gated tick speedup" ~ok:(ratio >= 7.)
    "%.2fx (%.1f ms ungated, %.1f ms gated, floor 7x)" ratio (1e3 *. ungated)
    (1e3 *. gated)

(* --- incremental update vs per-epoch refit --------------------------

   The same stream (12 paths, 5 epochs of 32 observations) through the
   streaming scheduler, one online-EM iteration and re-test per epoch,
   and through the classical alternative: refit the MMHD from an
   informed start on the whole history every epoch, skipping the
   re-test, which only flatters the refit. *)

let incremental_vs_refit () =
  let paths = 12 and epochs = 5 and epoch_len = 32 and n = 2 and m = 5 in
  let src = Fleet.Source.synthetic ~m ~rng:(Stats.Rng.create 0xBA7C4) ~paths () in
  let batches =
    Array.init paths (fun p ->
        Array.init epochs (fun _ -> Fleet.Source.pull src ~path:p ~len:epoch_len))
  in
  let config = Fleet.Path_state.config ~n ~scheme:(Fleet.Source.scheme src) () in
  let sched = Fleet.Scheduler.create ~rng:(Stats.Rng.create 42) ~paths config in
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
