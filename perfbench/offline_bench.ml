(* The offline workload: the paper's Fig. 9 protocol.  The generator
   simulates the paper topology once per regime and saves each probe
   trace; the timed side loads the traces and runs [Dcl.Identify.run]
   (default parameters: MMHD n=2, m=5, 2 restarts, one domain) on
   seeded 60 s random segments, one after another, round-robin over
   the regimes. *)

open Measure

let trace_duration = 600.
let segment_duration = 60.
let setup_reps = 7

(* Counters are summed over a fixed prefix of the segment stream, so
   they do not depend on how many segments the window reached. *)
let counter_segments = 60
let racing_segments = 6
let params = Dcl.Identify.default_params

(* The three regimes at the presets' own simulation seed: like the
   paper's three ns runs, the traces are a fixed corpus, and the
   workload seed draws the segments.  Regenerating the traces per seed
   would make each seed's cost depend on how hard its traces are for
   EM, a spread wider than any bound worth setting. *)
let regimes =
  let open Scenarios.Presets in
  [|
    ("strongly", strongly_dcl ~duration:trace_duration ~bw3:(List.hd strongly_dcl_sweep) ());
    ("weakly", weakly_dcl ~duration:trace_duration ());
    ("no-dcl", no_dcl ~duration:trace_duration ());
  |]

let trace_path dir name = Filename.concat dir (name ^ ".trace")

(* The generator: run in its own process before the measured one, so
   the simulator's memory does not reach the measured peak RSS. *)
let generate ~dir =
  Array.iter
    (fun (name, config) ->
      let o = Scenarios.Paper_topology.run config in
      Probe.Trace.save o.Scenarios.Paper_topology.trace (trace_path dir name))
    regimes

(* Segment [i] of a seed's stream: regime [i mod 3], placed by one RNG
   drawn in order, so a fresh stream regenerates identical segments. *)
let segment_stream ~seed traces =
  let rng = Stats.Rng.create seed in
  let next = ref 0 in
  fun () ->
    let i = !next in
    incr next;
    (i, Probe.Trace.random_segment rng traces.(i mod 3) ~duration:segment_duration)

let identify_rng ~seed i = Stats.Rng.create ((seed lsl 20) lxor i)

let dcl = function
  | Dcl.Identify.Strongly_dominant | Dcl.Identify.Weakly_dominant -> true
  | Dcl.Identify.No_dominant -> false

let truth_dcl seg =
  match Dcl.Truth.classify seg ~hop_count:seg.Probe.Trace.hop_count with
  | Dcl.Truth.Strong | Dcl.Truth.Weak _ -> true
  | Dcl.Truth.No_dominant -> false

(* What one identification produced; [verdict = None] when it raised
   (an unidentifiable segment, or every EM restart degenerate). *)
type outcome = {
  verdict : Dcl.Identify.conclusion option;
  iterations : int;
  converged : bool;
  skipped : int;
  ms : float;
  alloc : float;
  truth : bool;
}

let identify ~seed (i, seg) =
  let rng = identify_rng ~seed i in
  let a0 = alloc_bytes () in
  let t0 = now () in
  let r =
    match Dcl.Identify.run ~params ~rng seg with
    | r -> Some r
    | exception (Invalid_argument _ | Failure _) -> None
  in
  let t1 = now () in
  let alloc = alloc_bytes () -. a0 in
  let get f default = Option.fold ~none:default ~some:f r in
  {
    verdict = get (fun r -> Some r.Dcl.Identify.conclusion) None;
    iterations = get (fun r -> r.Dcl.Identify.em_iterations) 0;
    converged = get (fun r -> r.Dcl.Identify.em_converged) false;
    skipped = get (fun r -> r.Dcl.Identify.em_skipped_restarts) 0;
    ms = ms_of_ns (t1 - t0);
    alloc;
    truth = truth_dcl seg;
  }

type stages = {
  discretize : Layer.t;
  fit : Layer.t;
  pmf : Layer.t;
  conclude : Layer.t;
  replay_ns : Samples.t;  (* whole replayed pipeline, per segment *)
}

(* [Identify.run] stage by stage through the public APIs — discretize,
   MMHD fit with the same RNG, Eq. (5) pmf, tests — returning the
   verdict and the winning fit's iteration count. *)
let replay_segment st spans ~seed (i, seg) =
  let rng = identify_rng ~seed i in
  let s0 = now () in
  let parent =
    Option.fold ~none:(-1)
      ~some:(fun s -> Spans.open_ s ~name:"offline.replay.segment" ~parent:(-1) s0)
      spans
  in
  let stage layer name f =
    let a0 = alloc_bytes () in
    let t0 = now () in
    let r = f () in
    let t1 = now () in
    Layer.add layer ~ns:(t1 - t0) ~bytes:(alloc_bytes () -. a0);
    Option.iter (fun s -> ignore (Spans.record s ~name ~parent t0 t1 : int)) spans;
    r
  in
  let result =
    if not (Dcl.Identify.identifiable seg) then None
    else
      let scheme, symbols =
        stage st.discretize "dcl.discretize" (fun () ->
            let scheme =
              Dcl.Discretize.of_trace ~m:params.m ~prop_delay:params.prop_delay seg
            in
            (scheme, Dcl.Discretize.symbolize scheme (Probe.Trace.observations seg)))
      in
      match
        stage st.fit "mmhd.fit" (fun () ->
            Mmhd.fit ~eps:params.em_eps ~max_iter:params.em_max_iter
              ~restarts:params.restarts ~domains:params.domains ~rng ~n:params.n
              ~m:params.m symbols)
      with
      | exception Failure _ -> None
      | model, fit ->
          let pmf =
            stage st.pmf "mmhd.virtual_delay_pmf" (fun () ->
                Mmhd.virtual_delay_pmf model symbols)
          in
          let v =
            stage st.conclude "dcl.identify.conclude" (fun () ->
                Dcl.Identify.conclude ~params (Dcl.Vqd.of_pmf scheme pmf))
          in
          Some (v.Dcl.Identify.conclusion, fit.Mmhd.iterations)
  in
  let s1 = now () in
  Option.iter (fun s -> Spans.close s parent s1) spans;
  Samples.add st.replay_ns (float_of_int (s1 - s0));
  result

(* Mmhd.fit racing its restarts on two domains against one, on the same
   segments and RNGs: the time ratio, one domain over two. *)
let racing_speedup ~seed traces =
  let next = segment_stream ~seed traces in
  let t = [| 0; 0 |] in
  for _ = 1 to racing_segments do
    let i, seg = next () in
    if Dcl.Identify.identifiable seg then begin
      let scheme = Dcl.Discretize.of_trace ~m:params.m ~prop_delay:params.prop_delay seg in
      let symbols = Dcl.Discretize.symbolize scheme (Probe.Trace.observations seg) in
      Array.iteri
        (fun k domains ->
          let rng = identify_rng ~seed i in
          let t0 = now () in
          (match
             Mmhd.fit ~eps:params.em_eps ~max_iter:params.em_max_iter
               ~restarts:params.restarts ~domains ~rng ~n:params.n ~m:params.m symbols
           with
          | (_ : Mmhd.t * Mmhd.fit_stats) -> ()
          | exception Failure _ -> ());
          t.(k) <- t.(k) + (now () - t0))
        [| 1; 2 |]
    end
  done;
  float_of_int t.(0) /. float_of_int (max 1 t.(1))

let load_all ~dir spans =
  Array.map
    (fun (name, _) ->
      let t0 = now () in
      let tr = Probe.Trace.load (trace_path dir name) in
      Option.iter
        (fun s -> ignore (Spans.record s ~name:"probe.trace.load" ~parent:(-1) t0 (now ()) : int))
        spans;
      tr)
    regimes

let run ~seed ~seconds ~dir ~spans =
  (* Set-up: Probe.Trace.load of the three traces, [setup_reps] times. *)
  let setup = Array.make setup_reps 0. in
  let traces = ref [||] in
  for k = 0 to setup_reps - 1 do
    traces := [||];
    Gc.full_major ();
    let t0 = now () in
    traces := load_all ~dir spans;
    setup.(k) <- float_of_int (now () - t0) *. 1e-9
  done;
  let traces = !traces in
  let setup_s = median setup in
  (* A first Identify.run sets up state later calls find in place; it
     runs on a segment of another stream, so the counters of the first
     measured segments repeat. *)
  ignore (identify ~seed:(seed + 1) (segment_stream ~seed:(seed + 1) traces ()) : outcome);
  (* The window: closed loop over the seed's segments.  Each segment is
     identified (timed) and then replayed stage by stage (untimed): the
     replay must reach Identify.run's verdict with the same winning
     iteration count.  Interleaving the two spreads the timed calls over
     twice the wall time, so one burst of outside load weighs less; the
     window ends once [seconds] of Identify.run time are measured. *)
  let st =
    {
      discretize = Layer.create ();
      fit = Layer.create ();
      pmf = Layer.create ();
      conclude = Layer.create ();
      replay_ns = Samples.create ();
    }
  in
  let next = segment_stream ~seed traces in
  let outcomes = ref [] and measured_ms = ref 0. and replay_ok = ref true in
  (* The heap creeps up with every segment, so the peak RSS is read
     after a fixed amount of work (the counters' prefix), not after
     however many segments the machine's speed allowed. *)
  let peak_rss = ref Float.nan in
  while !measured_ms < float_of_int seconds *. 1e3 do
    let seg = next () in
    let o = identify ~seed seg in
    measured_ms := !measured_ms +. o.ms;
    Option.iter
      (fun s ->
        let t1 = now () in
        ignore
          (Spans.record s ~name:"dcl.identify.run" ~parent:(-1)
             (t1 - int_of_float (o.ms *. 1e6))
             t1
            : int))
      spans;
    let expected = Option.map (fun v -> (v, o.iterations)) o.verdict in
    if replay_segment st spans ~seed seg <> expected then begin
      Printf.eprintf "perfbench: replay of segment %d disagrees with Identify.run\n%!"
        (fst seg);
      replay_ok := false
    end;
    outcomes := o :: !outcomes;
    if fst seg + 1 = counter_segments then peak_rss := peak_rss_mb ()
  done;
  if Float.is_nan !peak_rss then peak_rss := peak_rss_mb ();
  let peak_rss = !peak_rss in
  let outcomes = Array.of_list (List.rev !outcomes) in
  let n = Array.length outcomes in
  (* The counters repeat: a second Identify.run of the first segments
     allocates the same and takes the same iterations. *)
  let next = segment_stream ~seed traces in
  let repeat_ok = ref true in
  for i = 0 to min 2 n - 1 do
    let o = identify ~seed (next ()) in
    let first = outcomes.(i) in
    if
      o.verdict <> first.verdict || o.iterations <> first.iterations
      || Int64.of_float o.alloc <> Int64.of_float first.alloc
    then repeat_ok := false
  done;
  let racing = if Option.is_some spans then racing_speedup ~seed traces else 0. in
  let ms = Samples.create () in
  Array.iter (fun o -> Samples.add ms o.ms) outcomes;
  let p50 = Samples.quantile ms 0.5 and p90 = Samples.quantile ms 0.9 in
  let failed = Array.fold_left (fun k o -> if o.verdict = None then k + 1 else k) 0 outcomes in
  let correct =
    Array.fold_left
      (fun k o ->
        match o.verdict with Some v when dcl v = o.truth -> k + 1 | Some _ | None -> k)
      0 outcomes
  in
  let per_second = float_of_int n /. (Samples.sum ms *. 1e-3) in
  let prefix = Array.sub outcomes 0 (min n counter_segments) in
  let sum f = Array.fold_left (fun acc o -> acc + f o) 0 prefix in
  let iterations = sum (fun o -> o.iterations) in
  let alloc_per_segment =
    Array.fold_left (fun acc o -> acc +. o.alloc) 0. prefix
    /. float_of_int (max 1 (Array.length prefix))
  in
  let load_ms = setup_s *. 1e3 /. float_of_int (Array.length regimes) in
  let layers =
    [
      metric "probe.trace.load.ms" "ms" load_ms;
      metric "dcl.discretize.ms" "ms" (Layer.ns_per_call st.discretize *. 1e-6);
      metric "mmhd.fit.ms" "ms" (Layer.ns_per_call st.fit *. 1e-6);
      metric "mmhd.fit.alloc_bytes" "B" (Layer.bytes_per_call st.fit);
      metric "em.fit.iterations" "count" (float_of_int iterations);
      metric "em.fit.converged_share" "ratio"
        (share (sum (fun o -> if o.converged then 1 else 0)) (Array.length prefix));
      metric "em.fit.skipped_restarts" "count" (float_of_int (sum (fun o -> o.skipped)));
      metric "mmhd.virtual_delay_pmf.ms" "ms" (Layer.ns_per_call st.pmf *. 1e-6);
      metric "dcl.identify.conclude.us" "us" (Layer.ns_per_call st.conclude *. 1e-3);
      metric "offline.alloc_bytes_per_segment" "B" alloc_per_segment;
      metric "stats.pool.racing_speedup" "ratio" racing;
      metric "bench.trace.overhead_share" "ratio"
        ((Samples.sum st.replay_ns *. 1e-6 /. Samples.sum ms) -. 1.);
    ]
  in
  {
    checks =
      [
        ("offline.replay_verdicts_match", !replay_ok);
        ("offline.counters_repeat", !repeat_ok);
      ];
    attempted = n;
    failed;
    e2e =
      [
        metric "throughput_per_s" "1/s" per_second;
        metric "latency_ms_p50" "ms" p50;
        metric "setup_s" "s" setup_s;
        metric "peak_rss_mb" "MiB" peak_rss;
        metric "verdict_agreement" "ratio" (share correct n);
      ];
    layers;
    table =
      [
        metric "identify_ms_p50" "ms" p50;
        metric "identify_ms_p90" "ms" p90;
        metric "identifications_per_s" "1/s" per_second;
        metric "verdict_correct_share" "ratio" (share correct n);
        metric "setup_s" "s" setup_s;
        metric "failed_share" "ratio" (share failed n);
        metric "peak_rss_mb" "MiB" peak_rss;
      ];
    counters =
      [
        metric "em_winning_iterations" "count" (float_of_int iterations);
        metric "alloc_bytes_per_segment" "B" alloc_per_segment;
      ];
    samples = [ ("segments", n); ("counter_segments", Array.length prefix) ];
    units_per_run =
      Printf.sprintf "%d segments of %.0f s; counters over the first %d" n
        segment_duration (Array.length prefix);
  }
