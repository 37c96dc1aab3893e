(* Golden pins for the serial EM numerics.  The other determinism tests
   compare two runs of the same build (serial against pooled, traced
   against untraced); these compare against values recorded once, so a
   refactor of the sweep that changes any bit of a fit winner or of a
   fleet's state fails here even when it changes every run alike.

   Apart from the Viterbi log-probabilities, only quantities computed
   without libm are pinned — model parameters, conclusions, statistic
   weights and distributions, never a log-likelihood — so those pins do
   not depend on the platform's [log]/[exp]. *)

let mix h bits = Int64.add (Int64.mul h 1000003L) bits

let hash_floats arrays =
  let h =
    List.fold_left
      (Array.fold_left (fun h x -> mix h (Int64.bits_of_float x)))
      0L arrays
  in
  Printf.sprintf "%016Lx" h

let mmhd_obs ~seed ~len =
  let rng = Stats.Rng.create seed in
  let truth = Mmhd.init_random rng ~n:2 ~m:4 ~loss_fraction:0.08 in
  let obs, _ = Mmhd.simulate rng truth ~len in
  obs.(0) <- Some 0;
  obs.(1) <- None;
  obs

let test_mmhd_fit_from_winner () =
  let obs = mmhd_obs ~seed:11 ~len:1500 in
  let t0 = Mmhd.init_informed (Stats.Rng.create 7) ~n:2 ~m:4 obs in
  let fit, stats = Mmhd.fit_from t0 obs in
  Alcotest.(check int) "iterations" 153 stats.Mmhd.iterations;
  Alcotest.(check string) "pi/a/c bits" "1a36a9061ba3093a"
    (hash_floats ((fit.Mmhd.pi :: Array.to_list fit.Mmhd.a) @ [ fit.Mmhd.c ]))

(* The HMM re-estimates its emission matrix, so this pin also covers the
   per-symbol observation counts the MMHD leaves unused. *)
let test_hmm_fit_from_winner () =
  let rng = Stats.Rng.create 13 in
  let truth = Hmm.init_random rng ~n:2 ~m:4 ~loss_fraction:0.08 in
  let obs, _ = Hmm.simulate rng truth ~len:1500 in
  let t0 = Hmm.init_informed (Stats.Rng.create 7) ~n:2 ~m:4 obs in
  let fit, stats = Hmm.fit_from t0 obs in
  Alcotest.(check int) "iterations" 27 stats.Hmm.iterations;
  Alcotest.(check string) "pi/a/b/c bits" "46f503a8c80d2d97"
    (hash_floats
       ((fit.Hmm.pi :: Array.to_list fit.Hmm.a)
       @ Array.to_list fit.Hmm.b @ [ fit.Hmm.c ]))

let hash_ints a =
  Printf.sprintf "%016Lx"
    (Array.fold_left (fun h x -> mix h (Int64.of_int x)) 0L a)

let float_bits x = Printf.sprintf "%016Lx" (Int64.bits_of_float x)

(* Viterbi decodes of seeded sequences with losses, under the models
   that generated them.  The log-probability is a sum of libm [log]s,
   so unlike the other pins it assumes a correctly rounded [log]. *)
let test_hmm_viterbi () =
  let rng = Stats.Rng.create 17 in
  let truth = Hmm.init_random rng ~n:3 ~m:4 ~loss_fraction:0.08 in
  let obs, _ = Hmm.simulate rng truth ~len:600 in
  obs.(1) <- None;
  let path, logp = Hmm.viterbi truth obs in
  Alcotest.(check string) "path" "624203e6bb8df32d" (hash_ints path);
  Alcotest.(check string) "log-probability bits" "c09322a5981e57f4" (float_bits logp)

let test_mmhd_viterbi () =
  let rng = Stats.Rng.create 19 in
  let truth = Mmhd.init_random rng ~n:2 ~m:4 ~loss_fraction:0.08 in
  let obs, _ = Mmhd.simulate rng truth ~len:600 in
  obs.(1) <- None;
  let path, logp = Mmhd.viterbi truth obs in
  Alcotest.(check string) "path" "4d20425321dfa6f1" (hash_ints path);
  Alcotest.(check string) "log-probability bits" "c09277089e860379" (float_bits logp)

(* Two raced informed restarts: the winner's bits, its iteration count
   and the skipped-restart count. *)
let test_mmhd_fit_restarts () =
  let obs = mmhd_obs ~seed:29 ~len:1200 in
  let fit, stats = Mmhd.fit ~restarts:2 ~rng:(Stats.Rng.create 31) ~n:2 ~m:4 obs in
  Alcotest.(check (pair int int)) "iterations, skipped" (191, 0)
    (stats.Mmhd.iterations, stats.Mmhd.skipped_restarts);
  Alcotest.(check string) "pi/a/c bits" "588cd7bde350aa85"
    (hash_floats ((fit.Mmhd.pi :: Array.to_list fit.Mmhd.a) @ [ fit.Mmhd.c ]))

let test_hmm_fit_restarts () =
  let rng = Stats.Rng.create 37 in
  let truth = Hmm.init_random rng ~n:2 ~m:4 ~loss_fraction:0.08 in
  let obs, _ = Hmm.simulate rng truth ~len:1200 in
  let fit, stats = Hmm.fit ~restarts:2 ~rng:(Stats.Rng.create 41) ~n:2 ~m:4 obs in
  Alcotest.(check (pair int int)) "iterations, skipped" (98, 0)
    (stats.Hmm.iterations, stats.Hmm.skipped_restarts);
  Alcotest.(check string) "pi/a/b/c bits" "d92147ea077f8f52"
    (hash_floats
       ((fit.Hmm.pi :: Array.to_list fit.Hmm.a)
       @ Array.to_list fit.Hmm.b @ [ fit.Hmm.c ]))

(* The whole offline pipeline on a short simulated preset trace:
   discretize, fit, Eq. (5), SDCL/WDCL and the bound. *)
let test_identify_run () =
  let cfg = Scenarios.Presets.weakly_dcl ~duration:40. () in
  let trace = (Scenarios.Paper_topology.run cfg).Scenarios.Paper_topology.trace in
  let r = Dcl.Identify.run ~rng:(Stats.Rng.create 43) trace in
  Alcotest.(check string) "conclusion" "strongly dominant congested link"
    (Dcl.Identify.conclusion_to_string r.Dcl.Identify.conclusion);
  Alcotest.(check (option string)) "bound bits" (Some "3fd38b4e807dce48")
    (Option.map float_bits r.Dcl.Identify.bound);
  Alcotest.(check string) "vqd bits" "5696b2d0df1c3995"
    (hash_floats [ r.Dcl.Identify.vqd.Dcl.Vqd.pmf ])

let test_fleet_fingerprint () =
  let paths = 32 and epochs = 6 and epoch_len = 24 in
  let rng = Stats.Rng.create 2024 in
  let src = Fleet.Source.synthetic ~rng ~paths () in
  let config = Fleet.Path_state.config ~scheme:(Fleet.Source.scheme src) () in
  let sched = Fleet.Scheduler.create ~domains:1 ~rng ~paths config in
  for _ = 1 to epochs do
    for p = 0 to paths - 1 do
      Fleet.Scheduler.push sched ~path:p
        (Fleet.Source.pull src ~path:p ~len:epoch_len)
    done;
    ignore (Fleet.Scheduler.tick sched : int)
  done;
  Alcotest.(check string) "ungated fingerprint" "4d6dd58211ae52b9"
    (Fleet.Scheduler.fingerprint sched)

(* The gated fleet runs the sketch triage, the Gate timeline entries
   and the catch-up decay of re-promoted paths ([Path_state.coast]),
   none of which the ungated pin reaches.  A low loss threshold and
   short streaks make paths promote, settle, demote and re-promote
   inside a few epochs. *)
let test_gated_fleet_fingerprint () =
  let paths = 48 and epochs = 14 and epoch_len = 24 in
  let rng = Stats.Rng.create 2025 in
  let src =
    Fleet.Source.synthetic ~templates:6 ~congested_fraction:0.34 ~rng ~paths ()
  in
  let config = Fleet.Path_state.config ~scheme:(Fleet.Source.scheme src) () in
  let gate =
    Sketch.Gate.config ~loss_threshold:0.1 ~promote_after:1 ~demote_after:1 ()
  in
  let sched = Fleet.Scheduler.create ~domains:1 ~gate ~rng ~paths config in
  for _ = 1 to epochs do
    for p = 0 to paths - 1 do
      Fleet.Scheduler.push sched ~path:p
        (Fleet.Source.pull src ~path:p ~len:epoch_len)
    done;
    ignore (Fleet.Scheduler.tick sched : int)
  done;
  let gs = Option.get (Fleet.Scheduler.gate_stats sched) in
  Alcotest.(check (pair int int)) "promotions, demotions" (29, 5)
    (gs.Fleet.Scheduler.promotions, gs.Fleet.Scheduler.demotions);
  Alcotest.(check string) "gated fingerprint" "358d2ea22c5704b3"
    (Fleet.Scheduler.fingerprint sched)

(* The default gate over a longer, mostly quiet run.  80 epochs of 16
   observations take every quiet path's delay-quantile gain through
   several levels and the shared count-min sketch through 80 halvings;
   one push in eleven is skipped, so estimators coast over missed
   epochs and re-promoted paths catch up on their decay. *)
let test_default_gated_fleet_fingerprint () =
  let paths = 256 and epochs = 80 and epoch_len = 16 in
  let rng = Stats.Rng.create 4242 in
  let src =
    Fleet.Source.synthetic ~templates:10 ~congested_fraction:0.1 ~rng ~paths ()
  in
  let config = Fleet.Path_state.config ~scheme:(Fleet.Source.scheme src) () in
  let sched =
    Fleet.Scheduler.create ~domains:1 ~gate:(Sketch.Gate.config ()) ~rng ~paths
      config
  in
  for e = 1 to epochs do
    for p = 0 to paths - 1 do
      let batch = Fleet.Source.pull src ~path:p ~len:epoch_len in
      if ((7 * p) + e) mod 11 <> 0 then Fleet.Scheduler.push sched ~path:p batch
    done;
    ignore (Fleet.Scheduler.tick sched : int)
  done;
  let gs = Option.get (Fleet.Scheduler.gate_stats sched) in
  Alcotest.(check (triple int int int)) "promotions, demotions, promoted" (27, 3, 24)
    ( gs.Fleet.Scheduler.promotions,
      gs.Fleet.Scheduler.demotions,
      gs.Fleet.Scheduler.promoted );
  Alcotest.(check string) "default gated fingerprint" "b8edb23b5b08f3a3"
    (Fleet.Scheduler.fingerprint sched)

(* A fixed mixed history through a 7-slot ring: three entries are
   overwritten, and the seven retained ones hold every entry kind (both
   gate directions), every verdict, an absent and a zero bound, and
   non-finite log-likelihoods. *)
let test_timeline_json () =
  let tl = Fleet.Timeline.create ~capacity:7 in
  let update epoch verdict log_likelihood weight bound =
    Fleet.Timeline.record tl
      (Fleet.Timeline.Update { epoch; verdict; log_likelihood; weight; bound })
  in
  let gate epoch promoted cause streak =
    Fleet.Timeline.record tl
      (Fleet.Timeline.Gate { epoch; promoted; cause; streak })
  in
  update 0 (Some Dcl.Identify.Strongly_dominant) (-1.) 8. (Some 0.5);
  gate 1 true "loss" 2;
  Fleet.Timeline.record tl (Fleet.Timeline.Reset { epoch = 2 });
  update 3 None (-3.5) 16. None;
  gate 4 true "drift" 1;
  update 5 (Some Dcl.Identify.Weakly_dominant) (-12.25) 30.5 (Some 0.125);
  update 6 (Some Dcl.Identify.Strongly_dominant) Float.nan 41.75 (Some 0.);
  Fleet.Timeline.record tl (Fleet.Timeline.Reset { epoch = 7 });
  update 8 (Some Dcl.Identify.No_dominant) Float.neg_infinity 0. None;
  gate 9 false "calm" 3;
  let expected =
    String.concat ""
      [
        {|{"total":10,"capacity":7,"entries":[|};
        {|{"kind":"update","epoch":3,"verdict":"untested","log_likelihood":-3.5,"weight":16,"bound":null},|};
        {|{"kind":"gate","epoch":4,"promoted":true,"cause":"drift","streak":1},|};
        {|{"kind":"update","epoch":5,"verdict":"weakly-dominant","log_likelihood":-12.25,"weight":30.5,"bound":0.125},|};
        {|{"kind":"update","epoch":6,"verdict":"strongly-dominant","log_likelihood":null,"weight":41.75,"bound":0},|};
        {|{"kind":"reset","epoch":7},|};
        {|{"kind":"update","epoch":8,"verdict":"no-dominant","log_likelihood":null,"weight":0,"bound":null},|};
        {|{"kind":"gate","epoch":9,"promoted":false,"cause":"calm","streak":3}]}|};
      ]
  in
  Alcotest.(check string) "timeline json" expected (Fleet.Timeline.to_json tl)

let () =
  Alcotest.run "golden"
    [
      ( "serial numerics",
        [
          Alcotest.test_case "mmhd fit_from winner" `Quick
            test_mmhd_fit_from_winner;
          Alcotest.test_case "hmm fit_from winner" `Quick
            test_hmm_fit_from_winner;
          Alcotest.test_case "hmm viterbi" `Quick test_hmm_viterbi;
          Alcotest.test_case "mmhd viterbi" `Quick test_mmhd_viterbi;
          Alcotest.test_case "mmhd fit winner" `Quick test_mmhd_fit_restarts;
          Alcotest.test_case "hmm fit winner" `Quick test_hmm_fit_restarts;
          Alcotest.test_case "identify run" `Quick test_identify_run;
          Alcotest.test_case "fleet fingerprint" `Quick test_fleet_fingerprint;
          Alcotest.test_case "gated fleet fingerprint" `Quick
            test_gated_fleet_fingerprint;
          Alcotest.test_case "default gated fleet fingerprint" `Quick
            test_default_gated_fleet_fingerprint;
        ] );
      ( "fleet output",
        [ Alcotest.test_case "timeline json" `Quick test_timeline_json ] );
    ]
