(* Golden pins for the serial EM numerics.  The other determinism tests
   compare two runs of the same build (serial against pooled, traced
   against untraced); these compare against values recorded once, so a
   refactor of the sweep that changes any bit of a fit winner or of a
   fleet's state fails here even when it changes every run alike.

   Only quantities computed without libm are pinned — model parameters,
   conclusions and statistic weights, never a log-likelihood — so the
   pins do not depend on the platform's [log]/[exp]. *)

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

let () =
  Alcotest.run "golden"
    [
      ( "serial numerics",
        [
          Alcotest.test_case "mmhd fit_from winner" `Quick
            test_mmhd_fit_from_winner;
          Alcotest.test_case "hmm fit_from winner" `Quick
            test_hmm_fit_from_winner;
          Alcotest.test_case "fleet fingerprint" `Quick test_fleet_fingerprint;
        ] );
    ]
