(* The two fleet workloads: streaming identification of many paths
   through [Fleet.Scheduler], driven as a closed loop — the driver pulls
   one epoch of batches from the synthetic source (the generator,
   outside the timed window), pushes them, ticks, and only then pulls
   the next epoch, as dcl-fleetd does.

   Besides the timed window, every run performs the correctness checks
   (pooled-vs-serial determinism, counter repeatability, replay
   verdicts) and, when traced, times each layer's public calls from
   here: the program itself is not instrumented. *)

open Measure

type spec = {
  paths : int;
  templates : int;
  congested_fraction : float;
  gate : Sketch.Gate.config option;
  domains : int;
}

let epoch_len = 16

(* Every path runs online EM every epoch; the sketch layer is bypassed. *)
let dense =
  { paths = 4000; templates = 8; congested_fraction = 0.3; gate = None; domains = 2 }

(* A mostly quiet fleet: one congested template in ten, so driver-side
   sketch triage in [push] takes a large share of the window and EM
   runs only on promoted paths. *)
let gated =
  {
    paths = 20_000;
    templates = 10;
    congested_fraction = 0.1;
    gate = Some (Sketch.Gate.config ());
    domains = 1;
  }

let setup_reps = 9

(* The scheduler's RNG stream is independent of the source's. *)
let sched_seed seed = seed lxor 0x5EED_F1EE7

let source spec ~seed =
  Fleet.Source.synthetic ~templates:spec.templates
    ~congested_fraction:spec.congested_fraction ~rng:(Stats.Rng.create seed)
    ~paths:spec.paths ()

let scheduler spec ~seed ~domains ?on_transition cfg =
  Fleet.Scheduler.create ~domains ?on_transition ?gate:spec.gate
    ~rng:(Stats.Rng.create (sched_seed seed)) ~paths:spec.paths cfg

let pull_all spec src =
  Array.init spec.paths (fun path -> Fleet.Source.pull src ~path ~len:epoch_len)

let push_all sched batches =
  Array.iteri (fun path b -> Fleet.Scheduler.push sched ~path b) batches

let dominant = function
  | Some (Dcl.Identify.Strongly_dominant | Dcl.Identify.Weakly_dominant) -> true
  | Some Dcl.Identify.No_dominant | None -> false

let conclusion_tag = function
  | None -> "u"
  | Some Dcl.Identify.Strongly_dominant -> "s"
  | Some Dcl.Identify.Weakly_dominant -> "w"
  | Some Dcl.Identify.No_dominant -> "n"

(* Words allocated on the minor heap as an immediate int: reading it
   allocates nothing, so it can bracket a single small call.  Fleet
   allocation is counted here rather than with [Gc.allocated_bytes]:
   the major-heap side of that figure absorbs promotions lazily, so it
   does not repeat exactly between identical runs.  No fleet call
   allocates blocks large enough to bypass the minor heap. *)
let minor_words () = int_of_float (Gc.minor_words ())
let word_bytes = float_of_int (Sys.word_size / 8)

(* ---- set-up: Scheduler.create plus epoch 0 ---------------------------- *)

type fleet = { src : Fleet.Source.t; sched : Fleet.Scheduler.t; transitions : int ref }

(* Epoch 0 holds every path's informed initialization (ungated), the
   pool spawn on first use and the workspaces' growth.  Set-up runs
   [setup_reps] times on identical inputs; the last fleet is kept. *)
let setup spec ~seed =
  let once () =
    let transitions = ref 0 in
    let src = source spec ~seed in
    let cfg = Fleet.Path_state.config ~scheme:(Fleet.Source.scheme src) () in
    let first = pull_all spec src in
    let t0 = now () in
    let sched =
      scheduler spec ~seed ~domains:spec.domains
        ~on_transition:(fun _ -> incr transitions)
        cfg
    in
    push_all sched first;
    ignore (Fleet.Scheduler.tick sched : int);
    let dt = now () - t0 in
    ({ src; sched; transitions }, dt)
  in
  let times = Array.make setup_reps 0. in
  let rec go i =
    let f, dt = once () in
    times.(i) <- float_of_int dt *. 1e-9;
    if i + 1 = setup_reps then f
    else begin
      Gc.full_major ();
      go (i + 1)
    end
  in
  let f = go 0 in
  (f, median times)

(* ---- the timed window ----------------------------------------------- *)

type window = {
  latency_ms : Samples.t;  (* per epoch: end of generation to tick return *)
  rate : Samples.t;  (* per epoch: paths over push + tick time, per second *)
  mutable epochs : int;
  mutable busy_ns : int;  (* push + tick *)
  pull : Layer.t;  (* time per traced epoch *)
  push : Layer.t;
  tick : Layer.t;
  pending_wait_ms : Samples.t;
  mutable traced_busy_ns : int;
  mutable traced_epochs : int;
  mutable traced_updated : int;
}

(* When tracing, odd epochs time every push and record spans, even
   epochs run exactly as untraced; the two halves give the tracing
   overhead. *)
let run_window spec f ~seconds ~spans =
  let w =
    {
      latency_ms = Samples.create ();
      rate = Samples.create ();
      epochs = 0;
      busy_ns = 0;
      pull = Layer.create ();
      push = Layer.create ();
      tick = Layer.create ();
      pending_wait_ms = Samples.create ();
      traced_busy_ns = 0;
      traced_epochs = 0;
      traced_updated = 0;
    }
  in
  let paths = spec.paths in
  let deadline = now () + (seconds * 1_000_000_000) in
  while now () < deadline do
    let g0 = now () in
    let batches = pull_all spec f.src in
    let g1 = now () in
    let traced = Option.is_some spans && w.epochs land 1 = 1 in
    let t0 = now () in
    let t1 =
      if not traced then begin
        push_all f.sched batches;
        ignore (Fleet.Scheduler.tick f.sched : int);
        now ()
      end
      else begin
        let push_ns = ref 0 and mid_end = ref 0 in
        for path = 0 to paths - 1 do
          let p0 = now () in
          Fleet.Scheduler.push f.sched ~path batches.(path);
          let p1 = now () in
          push_ns := !push_ns + (p1 - p0);
          if path = paths / 2 then mid_end := p1
        done;
        let k0 = now () in
        let n = Fleet.Scheduler.tick f.sched in
        let t1 = now () in
        Layer.add w.pull ~ns:(g1 - g0) ~bytes:0.;
        Layer.add w.push ~ns:!push_ns ~bytes:0.;
        Layer.add w.tick ~ns:(t1 - k0) ~bytes:0.;
        (* Push order is ascending, so the middle path's wait is the
           epoch's median wait from push to the consuming tick. *)
        Samples.add w.pending_wait_ms (ms_of_ns (k0 - !mid_end));
        w.traced_busy_ns <- w.traced_busy_ns + (t1 - t0);
        w.traced_epochs <- w.traced_epochs + 1;
        w.traced_updated <- w.traced_updated + n;
        (match spans with
        | None -> ()
        | Some s ->
            let e = Spans.record s ~name:"fleet.epoch" ~parent:(-1) g0 t1 in
            ignore (Spans.record s ~name:"fleet.source.pull" ~parent:e g0 g1 : int);
            ignore (Spans.record s ~name:"fleet.scheduler.push" ~parent:e t0 k0 : int);
            ignore (Spans.record s ~name:"fleet.scheduler.tick" ~parent:e k0 t1 : int));
        t1
      end
    in
    Samples.add w.latency_ms (ms_of_ns (t1 - t0));
    Samples.add w.rate (float_of_int paths /. (float_of_int (t1 - t0) *. 1e-9));
    w.busy_ns <- w.busy_ns + (t1 - t0);
    w.epochs <- w.epochs + 1
  done;
  w

(* ---- the serial phase: counters, replay and determinism --------------- *)

(* Everything that counts allocation runs here, before anything spawns
   the domain pool: once worker domains exist, the OCaml 5.1 runtime's
   per-domain allocation counters stop repeating exactly. *)

let check_epochs = 16
let replay_max = 2000
let span_paths = 64

(* The stages [Path_state.update] runs, called one by one through the
   public Em/Mmhd/Dcl APIs: informed init on the first batch with a
   delay, decay, forward-backward append, M-step, and the SDCL/WDCL
   re-test on the VQD read off the decayed loss counts. *)
type replay = {
  rng : Stats.Rng.t;
  stats : Em.Incremental.stats;
  mutable model : Em.model option;
  mutable conclusion : Dcl.Identify.conclusion option;
}

type stages = {
  init : Layer.t;
  decay : Layer.t;
  append : Layer.t;
  m_step : Layer.t;
  retest : Layer.t;
  update : Layer.t;  (* Path_state.update itself, on the same batches *)
  mutable appended_obs : int;
}

let stop layer spans ~name ~parent t0 w0 =
  let t1 = now () in
  let w1 = minor_words () in
  Layer.add layer ~ns:(t1 - t0) ~bytes:(float_of_int (w1 - w0) *. word_bytes);
  match spans with
  | None -> ()
  | Some s -> ignore (Spans.record s ~name ~parent t0 t1 : int)

let retest (cfg : Fleet.Path_state.config) r =
  if Stats.Float_cmp.geq (Em.Incremental.weight r.stats) cfg.min_weight then begin
    let mass = Em.Incremental.loss_mass r.stats in
    let total = Array.fold_left ( +. ) 0. mass in
    if Stats.Float_cmp.geq total cfg.min_loss_mass then
      r.conclusion <-
        Some
          (Dcl.Identify.conclude ~params:cfg.params (Dcl.Vqd.of_pmf cfg.scheme mass))
            .Dcl.Identify.conclusion
  end

let replay_step (cfg : Fleet.Path_state.config) ~ws st spans ~parent r batch =
  if Option.is_none r.model && Array.exists Option.is_some batch then begin
    let t0 = now () and w0 = minor_words () in
    r.model <- Some (Mmhd.to_em (Mmhd.init_informed r.rng ~n:cfg.n ~m:cfg.m batch));
    stop st.init spans ~name:"mmhd.init_informed" ~parent t0 w0
  end;
  match r.model with
  | None -> ()
  | Some model -> (
      let t0 = now () and w0 = minor_words () in
      Em.Incremental.decay r.stats ~lambda:cfg.lambda;
      stop st.decay spans ~name:"em.incremental.decay" ~parent t0 w0;
      let t0 = now () and w0 = minor_words () in
      match Em.Incremental.append ~ws r.stats model batch with
      | (_ : float) ->
          stop st.append spans ~name:"em.incremental.append" ~parent t0 w0;
          st.appended_obs <- st.appended_obs + Array.length batch;
          let t0 = now () and w0 = minor_words () in
          r.model <- Some (Em.Incremental.m_step r.stats model);
          stop st.m_step spans ~name:"em.incremental.m_step" ~parent t0 w0;
          let t0 = now () and w0 = minor_words () in
          retest cfg r;
          stop st.retest spans ~name:"dcl.retest" ~parent t0 w0
      | exception Em.Zero_likelihood _ ->
          Em.Incremental.reset r.stats;
          r.model <- None;
          r.conclusion <- None)

type serial = {
  deterministic : bool;  (* 2-domain fingerprint and log = 1-domain *)
  counters_repeat : bool;  (* two 1-domain fleets count the same work *)
  verdicts_match : bool;  (* replay = Path_state = Scheduler *)
  obs_swept : int;  (* EM observations swept by one 1-domain fleet *)
  alloc : int;  (* minor-heap words allocated by its push + tick *)
  push_alloc : int;  (* minor-heap words allocated by its pushes *)
  serial_tick_ns : int;  (* its ticks after epoch 0 ... *)
  serial_tick_updates : int;  (* ... and the updates they ran *)
  pool_efficiency : float;
  stages : stages;
  replayed : int;
}

(* Two 1-domain fleets on one seed count their work (it must repeat
   exactly) while a sample of paths is replayed beside them, batch for
   batch; then a 2-domain fleet on the same seed must reproduce the
   1-domain fingerprint and transition log. *)
let serial_phase spec ~seed ~spans =
  let src = source spec ~seed in
  let cfg = Fleet.Path_state.config ~scheme:(Fleet.Source.scheme src) () in
  let s = Fleet.Path_state.states cfg and m = cfg.Fleet.Path_state.m in
  let ws = Fleet.Workspace_cache.get ~s ~m in
  (* A throwaway one-path fleet first: the calling domain's first tick
     sets up state (its workspace among it) that both counted fleets
     must find already there. *)
  (let warm = Fleet.Scheduler.create ~rng:(Stats.Rng.create seed) ~paths:1 cfg in
   let warm_src = source spec ~seed in
   for _ = 1 to 8 do
     Fleet.Scheduler.push warm ~path:0 (Fleet.Source.pull warm_src ~path:0 ~len:epoch_len);
     ignore (Fleet.Scheduler.tick warm : int)
   done);
  let make domains =
    let log = Buffer.create 4096 in
    let on_transition (tr : Fleet.Scheduler.transition) =
      Printf.bprintf log "%d:%d:%s>%s;" tr.epoch tr.path (conclusion_tag tr.was)
        (conclusion_tag tr.now)
    in
    (scheduler spec ~seed ~domains ~on_transition cfg, log)
  in
  let counted = [| make 1; make 1 |] in
  let alloc = [| 0; 0 |] and push_alloc = ref 0 and tick_ns = ref 0 in
  let steady_ns = ref 0 and steady_updates = ref 0 in
  let sample =
    let r = min spec.paths replay_max in
    Array.init r (fun i -> i * spec.paths / r)
  in
  let rngs =
    let root = Stats.Rng.create (sched_seed seed) in
    Array.init spec.paths (fun _ -> Stats.Rng.split root)
  in
  let shadows =
    Array.map (fun p -> Fleet.Path_state.create cfg ~rng:(Stats.Rng.copy rngs.(p))) sample
  in
  let replays =
    Array.map
      (fun p ->
        {
          rng = Stats.Rng.copy rngs.(p);
          stats = Em.Incremental.create ~s ~m;
          model = None;
          conclusion = None;
        })
      sample
  in
  let st =
    {
      init = Layer.create ();
      decay = Layer.create ();
      append = Layer.create ();
      m_step = Layer.create ();
      retest = Layer.create ();
      update = Layer.create ();
      appended_obs = 0;
    }
  in
  for epoch = 0 to check_epochs - 1 do
    let batches = pull_all spec src in
    Array.iteri
      (fun k (sched, _) ->
        let copy = Array.map Array.copy batches in
        let w0 = minor_words () in
        push_all sched copy;
        let w1 = minor_words () in
        let t0 = now () in
        let n = Fleet.Scheduler.tick sched in
        let dt = now () - t0 in
        alloc.(k) <- alloc.(k) + (minor_words () - w0);
        if k = 0 then begin
          push_alloc := !push_alloc + (w1 - w0);
          tick_ns := !tick_ns + dt;
          if epoch > 0 then begin
            steady_ns := !steady_ns + dt;
            steady_updates := !steady_updates + n
          end
        end)
      counted;
    Array.iteri
      (fun i p ->
        let spans = if i < span_paths then spans else None in
        let batch = batches.(p) in
        let t0 = now () in
        let parent =
          Option.fold ~none:(-1)
            ~some:(fun s -> Spans.open_ s ~name:"fleet.replay.update" ~parent:(-1) t0)
            spans
        in
        let w0 = minor_words () in
        ignore (Fleet.Path_state.update ~ws ~epoch shadows.(i) batch : bool);
        stop st.update spans ~name:"fleet.path_state.update" ~parent t0 w0;
        replay_step cfg ~ws st spans ~parent replays.(i) batch;
        Option.iter (fun s -> Spans.close s parent (now ())) spans)
      sample
  done;
  (* The pooled fleet spawns the domain pool: nothing is counted after. *)
  let pooled = make 2 in
  let pooled_src = source spec ~seed in
  let pooled_ns = ref 0 in
  for _ = 1 to check_epochs do
    push_all (fst pooled) (pull_all spec pooled_src);
    let t0 = now () in
    ignore (Fleet.Scheduler.tick (fst pooled) : int);
    pooled_ns := !pooled_ns + (now () - t0)
  done;
  let swept (sched, _) =
    let pushed = spec.paths * check_epochs * epoch_len in
    match Fleet.Scheduler.gate_stats sched with
    | None -> pushed
    | Some g -> pushed - g.Fleet.Scheduler.sketch_only_observations
  in
  let fingerprint (sched, log) = (Fleet.Scheduler.fingerprint sched, Buffer.contents log) in
  let serial = fst counted.(0) in
  let verdicts_match = ref true in
  Array.iteri
    (fun i p ->
      let r = replays.(i).conclusion in
      (* Ungated, the scheduler feeds every batch unchanged; gated, it
         feeds only promoted epochs, so the shadow is the reference. *)
      let program =
        if Option.is_some spec.gate then Fleet.Path_state.conclusion shadows.(i)
        else Fleet.Scheduler.conclusion serial p
      in
      if r <> Fleet.Path_state.conclusion shadows.(i) || r <> program then begin
        Printf.eprintf "perfbench: replay of path %d ends %s, program ends %s\n%!" p
          (conclusion_tag r) (conclusion_tag program);
        verdicts_match := false
      end)
    sample;
  {
    deterministic =
      fingerprint counted.(0) = fingerprint pooled
      && fingerprint counted.(0) = fingerprint counted.(1);
    counters_repeat = alloc.(0) = alloc.(1) && swept counted.(0) = swept counted.(1);
    verdicts_match = !verdicts_match;
    obs_swept = swept counted.(0);
    alloc = alloc.(0);
    push_alloc = !push_alloc;
    serial_tick_ns = !steady_ns;
    serial_tick_updates = !steady_updates;
    pool_efficiency = float_of_int !tick_ns /. (2. *. float_of_int (max 1 !pooled_ns));
    stages = st;
    replayed = Array.length sample * check_epochs;
  }

(* ---- the workload ------------------------------------------------------ *)

(* The serial phase runs in its own process, before the measured one:
   it holds several fleets at once, which must not reach the measured
   peak RSS, and it must finish before any domain pool exists. *)
let prepare spec ~seed ~spans =
  let chk = serial_phase spec ~seed ~spans in
  let st = chk.stages in
  let per_update x = share x (spec.paths * check_epochs) in
  let bytes_per_update words = per_update words *. word_bytes in
  let layer name l =
    [
      metric (name ^ ".ns") "ns" (Layer.ns_per_call l);
      metric (name ^ ".alloc_bytes") "B" (Layer.bytes_per_call l);
    ]
  in
  (* Init is left out of both sides of the coverage: it runs on a
     path's first batch, which the steady ticks exclude. *)
  let stage_ns =
    List.fold_left (fun acc l -> acc + l.Layer.ns) 0 [ st.decay; st.append; st.m_step; st.retest ]
  in
  let coverage =
    share stage_ns st.append.Layer.calls /. share chk.serial_tick_ns chk.serial_tick_updates
  in
  {
    empty_result with
    checks =
      [
        ("fleet.pooled_equals_serial", chk.deterministic);
        ("fleet.counters_repeat", chk.counters_repeat);
        ("fleet.replay_verdicts_match", chk.verdicts_match);
      ];
    layers =
      (metric "fleet.scheduler.push.alloc_bytes_per_batch" "B" (bytes_per_update chk.push_alloc)
       :: layer "fleet.path_state.update" st.update)
      @ layer "mmhd.init_informed" st.init
      @ layer "em.incremental.decay" st.decay
      @ layer "em.incremental.append" st.append
      @ [
          metric "em.incremental.append.ns_per_obs" "ns"
            (share st.append.Layer.ns st.appended_obs);
        ]
      @ layer "em.incremental.m_step" st.m_step
      @ layer "dcl.retest" st.retest
      @ [
          metric "fleet.replay.coverage" "ratio" coverage;
          metric "fleet.em.observations_per_update" "count" (per_update chk.obs_swept);
          metric "fleet.alloc_bytes_per_update" "B" (bytes_per_update chk.alloc);
          metric "stats.pool.efficiency" "ratio" chk.pool_efficiency;
        ];
    counters =
      [
        metric "em_observations_swept" "count" (float_of_int chk.obs_swept);
        metric "alloc_bytes_per_update" "B" (bytes_per_update chk.alloc);
      ];
    samples = [ ("replayed_updates", chk.replayed) ];
  }

let run spec ~seed ~seconds ~spans =
  let f, setup_s = setup spec ~seed in
  let w = run_window spec f ~seconds ~spans in
  let peak_rss = peak_rss_mb () in
  let paths = spec.paths in
  let count pred =
    let n = ref 0 in
    for p = 0 to paths - 1 do
      if pred p then incr n
    done;
    !n
  in
  let truth p = Fleet.Source.ground_truth f.src p = Some true in
  let concluded p = dominant (Fleet.Scheduler.conclusion f.sched p) in
  let truly = count truth in
  let recall = share (count (fun p -> truth p && concluded p)) truly in
  let false_alarm = share (count (fun p -> (not (truth p)) && concluded p)) (paths - truly) in
  let agreement = share (count (fun p -> Bool.equal (truth p) (concluded p))) paths in
  let resets = ref 0 in
  for p = 0 to paths - 1 do
    resets := !resets + Fleet.Path_state.resets (Fleet.Scheduler.path f.sched p)
  done;
  let attempted = paths * (w.epochs + 1) in
  (* The median epoch's rate: a burst of interference from outside the
     process moves a few epochs, not the median. *)
  let updates_per_s = Samples.quantile w.rate 0.5 in
  let p50 = Samples.quantile w.latency_ms 0.5 and p90 = Samples.quantile w.latency_ms 0.9 in
  let gate = Fleet.Scheduler.gate_stats f.sched in
  let sketch g = Option.fold ~none:0 ~some:g gate in
  let pushed_obs = attempted * epoch_len in
  let absorbed = sketch (fun g -> g.Fleet.Scheduler.sketch_only_observations) in
  let promotions = sketch (fun g -> g.Fleet.Scheduler.promotions) in
  let per_batch l = Layer.ns_per_call l /. float_of_int paths in
  let mean_busy busy epochs = float_of_int busy /. float_of_int (max 1 epochs) in
  {
    checks = [];
    attempted;
    failed = !resets;
    e2e =
      [
        metric "throughput_per_s" "1/s" updates_per_s;
        metric "latency_ms_p50" "ms" p50;
        metric "setup_s" "s" setup_s;
        metric "peak_rss_mb" "MiB" peak_rss;
        metric "verdict_agreement" "ratio" agreement;
      ];
    layers =
      [
        metric "fleet.source.pull.ns_per_batch" "ns" (per_batch w.pull);
        metric "fleet.scheduler.push.ns_per_batch" "ns" (per_batch w.push);
        metric "fleet.scheduler.pending_wait_ms" "ms" (Samples.quantile w.pending_wait_ms 0.5);
        metric "fleet.scheduler.tick.ns_per_update" "ns" (share w.tick.Layer.ns w.traced_updated);
        metric "fleet.scheduler.transitions" "count" (float_of_int !(f.transitions));
        metric "fleet.path_state.resets" "count" (float_of_int !resets);
        metric "sketch.absorbed_share" "ratio" (share absorbed pushed_obs);
        metric "sketch.promotions" "count" (float_of_int promotions);
        metric "sketch.demotions" "count"
          (float_of_int (sketch (fun g -> g.Fleet.Scheduler.demotions)));
        metric "sketch.promoted_paths" "count"
          (float_of_int (sketch (fun g -> g.Fleet.Scheduler.promoted)));
        metric "sketch.promotion_yield" "ratio"
          (if Option.is_none gate then 0. else share (count concluded) promotions);
        metric "bench.trace.overhead_share" "ratio"
          (mean_busy w.traced_busy_ns w.traced_epochs
           /. mean_busy (w.busy_ns - w.traced_busy_ns) (w.epochs - w.traced_epochs)
          -. 1.);
      ];
    table =
      [
        metric "updates_per_s" "1/s" updates_per_s;
        metric "verdict_latency_ms_p50" "ms" p50;
        metric "verdict_latency_ms_p90" "ms" p90;
        metric "dominant_recall" "ratio" recall;
        metric "false_alarm_share" "ratio" false_alarm;
        metric "setup_s" "s" setup_s;
        metric "failed_share" "ratio" (share !resets attempted);
        metric "peak_rss_mb" "MiB" peak_rss;
      ];
    counters =
      [ metric "window_em_observations_swept" "count" (float_of_int (pushed_obs - absorbed)) ];
    samples = [ ("epochs", w.epochs) ];
    units_per_run =
      Printf.sprintf "%d path-epochs (%d epochs x %d paths); counters over %d epochs"
        (paths * w.epochs) w.epochs paths check_epochs;
  }
