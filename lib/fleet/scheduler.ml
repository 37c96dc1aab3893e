(* Epoch scheduler: batch every active path's pending observations and
   fan the per-path updates (online-EM iteration + re-test) across the
   persistent Stats.Pool, one item per path.

   Optionally gated by a sketch triage front end (Sketch.Triage): quiet
   paths are tracked only by O(1) streaming estimators — a loss EWMA, a
   Robbins-Monro delay-quantile tracker and a count-min sketch over the
   loss stream, all flat per-path columns — and only paths the gate
   promotes hold pending batches and run full inference.  All sketch
   state is updated at push time on the driver's domain, in the
   caller's push order, so the pooled tick still touches nothing
   shared.

   Determinism contract (DESIGN.md §11-12): each item touches only its
   own path's state and the evaluating domain's cached workspace; every
   path draws from its own RNG pre-split at creation; and conclusion
   transitions are collected into per-item slots and emitted after the
   pool drains, in ascending path index.  The pooled tick is therefore
   bit-identical to the serial one — scheduling chooses which domain
   runs a path, never what the path computes or the order observers
   see results.  Gating adds one caller obligation: because the shared
   count-min sketch folds every push, gate decisions are a function of
   the epoch's push order, so drivers must push paths in a fixed
   (ascending) order for cross-run reproducibility. *)

let h_epoch =
  Obs.Histogram.make ~help:"Wall time of one fleet epoch tick"
    "dcl_fleet_epoch_seconds"

let m_ticks = Obs.Counter.make ~help:"Fleet epoch ticks run" "dcl_fleet_ticks_total"

let m_updates =
  Obs.Counter.make ~help:"Per-path epoch updates performed"
    "dcl_fleet_path_updates_total"

let m_observations =
  Obs.Counter.make ~help:"Observations consumed by fleet epoch updates"
    "dcl_fleet_observations_total"

let m_transitions =
  Obs.Counter.make ~help:"Per-path conclusion transitions emitted"
    "dcl_fleet_transitions_total"

let m_promotions =
  Obs.Counter.make ~help:"Paths promoted from sketch-only tracking to full inference"
    "dcl_fleet_promotions_total"

let m_demotions =
  Obs.Counter.make ~help:"Paths demoted from full inference back to sketch-only tracking"
    "dcl_fleet_demotions_total"

let m_sketch_only_observations =
  Obs.Counter.make
    ~help:"Observations absorbed by the sketch front end without full inference"
    "dcl_fleet_sketch_only_observations_total"

let g_paths = Obs.Gauge.make ~help:"Paths monitored by the fleet" "dcl_fleet_paths"

let g_active =
  Obs.Gauge.make ~help:"Paths with pending observations at the last tick"
    "dcl_fleet_active_paths"

let g_promoted =
  Obs.Gauge.make ~help:"Paths currently promoted to full inference"
    "dcl_fleet_promoted_paths"

type transition = {
  path : int;
  epoch : int;
  was : Dcl.Identify.conclusion option;
  now : Dcl.Identify.conclusion option;
}

type gate_stats = {
  promoted : int;
  promotions : int;
  demotions : int;
  sketch_only_observations : int;
}

(* Gate runtime: the sketch triage (every path's estimators and gate
   as columns, plus the shared count-min sketch) and the fleet-side
   bookkeeping of promotions.  Sized by the full path count; the EM
   side — pending batches, pool items, workspaces — is sized by the
   *promoted* count. *)
type gating = {
  g_triage : Sketch.Triage.t;
  g_last_em : int array; (* epoch of the path's last full-inference update *)
  g_stat_decay : Sketch.Estimators.Decay_table.t; (* lambda^k *)
  mutable g_promoted : int;
  mutable g_promotions : int;
  mutable g_demotions : int;
  mutable g_skipped_obs : int;
}

type t = {
  config : Path_state.config;
  domains : int;
  on_transition : (transition -> unit) option;
  paths : Path_state.t array;
  pending : Em.observation array list array; (* newest batch first *)
  active : int array; (* scratch: indices updated this tick *)
  slots : transition option array; (* scratch: per-item transition *)
  gating : gating option;
  mutable epoch : int;
}

(* Fixed small chunk: epoch items are cheap and unevenly costed (paths
   without losses re-test trivially; fresh paths run the informed
   initializer), so a small chunk bounds the straggler tail.  Chunking
   never affects results. *)
let pool_chunk = 64

let make_gating config ~paths g_config =
  {
    g_triage = Sketch.Triage.create g_config ~paths ~symbols:config.Path_state.m;
    g_last_em = Array.make paths 0;
    g_stat_decay =
      Sketch.Estimators.Decay_table.make ~factor:config.Path_state.lambda ();
    g_promoted = 0;
    g_promotions = 0;
    g_demotions = 0;
    g_skipped_obs = 0;
  }

let create ?(domains = 1) ?on_transition ?gate ~rng ~paths config =
  if paths <= 0 then invalid_arg "Fleet.Scheduler.create: paths must be positive";
  if domains <= 0 then
    invalid_arg "Fleet.Scheduler.create: domains must be positive";
  Obs.Gauge.set g_paths (float_of_int paths);
  {
    config;
    domains;
    on_transition;
    paths =
      Array.init paths (fun _ -> Path_state.create config ~rng:(Stats.Rng.split rng));
    pending = Array.make paths [];
    active = Array.make paths 0;
    slots = Array.make paths None;
    gating = Option.map (make_gating config ~paths) gate;
    epoch = 0;
  }

let path_count t = Array.length t.paths
let epoch t = t.epoch
let gated t = t.gating <> None

let path t i =
  if i < 0 || i >= Array.length t.paths then
    invalid_arg "Fleet.Scheduler.path: index out of range";
  t.paths.(i)

let conclusion t i = Path_state.conclusion (path t i)

let promoted_count t =
  match t.gating with None -> Array.length t.paths | Some g -> g.g_promoted

let gate_stats t =
  Option.map
    (fun g ->
      {
        promoted = g.g_promoted;
        promotions = g.g_promotions;
        demotions = g.g_demotions;
        sketch_only_observations = g.g_skipped_obs;
      })
    t.gating

type gate_view = {
  promoted_path : bool;
  loss_ewma : float;
  drift : float;
  loss_estimate : int;
}

let gate_view t i =
  ignore (path t i : Path_state.t);
  Option.map
    (fun g ->
      {
        promoted_path = Sketch.Triage.promoted g.g_triage i;
        loss_ewma = Sketch.Triage.loss_ewma g.g_triage i;
        drift = Sketch.Triage.drift g.g_triage i;
        loss_estimate = Sketch.Triage.loss_estimate g.g_triage i;
      })
    t.gating

(* The sketch pass over one pushed batch ([Sketch.Triage.push]: the
   path's estimators, the shared count-min sketch and, once per epoch,
   its gate), then the fleet side of a gate transition.  Promotion ages
   the path's dormant EM statistics by lambda^skipped through the
   quantized table so re-promotion is warm but correct; demotion leaves
   the path's model and conclusion in place (the verdict stays visible,
   the statistics merely stop updating until the gate re-promotes). *)
let gated_push t g ~path:pidx batch =
  let len = Array.length batch in
  let p = t.paths.(pidx) in
  let settled =
    match Path_state.conclusion p with
    | Some Dcl.Identify.No_dominant -> true
    | Some (Dcl.Identify.Strongly_dominant | Dcl.Identify.Weakly_dominant)
    | None ->
        false
  in
  let tr = g.g_triage in
  let streak_before = Sketch.Triage.streak tr pidx in
  (match Sketch.Triage.push tr ~path:pidx ~epoch:t.epoch ~settled batch with
  | Sketch.Gate.Stay -> ()
  | Sketch.Gate.Promote ->
      g.g_promoted <- g.g_promoted + 1;
      g.g_promotions <- g.g_promotions + 1;
      Obs.Counter.incr m_promotions;
      let why =
        match Sketch.Triage.cause tr with
        | Some c -> Sketch.Gate.cause_name c
        | None -> "suspect"
      in
      Timeline.record (Path_state.timeline p)
        (Timeline.Gate
           {
             epoch = t.epoch;
             promoted = true;
             cause = why;
             streak = streak_before + 1;
           });
      Obs.Trace.instant_d "gate.promote" why pidx;
      let skipped = t.epoch - g.g_last_em.(pidx) - 1 in
      if skipped > 0 then
        Path_state.coast p
          ~factor:(Sketch.Estimators.Decay_table.pow g.g_stat_decay skipped)
  | Sketch.Gate.Demote ->
      g.g_promoted <- g.g_promoted - 1;
      g.g_demotions <- g.g_demotions + 1;
      Obs.Counter.incr m_demotions;
      Timeline.record (Path_state.timeline p)
        (Timeline.Gate
           {
             epoch = t.epoch;
             promoted = false;
             cause = "calm";
             streak = streak_before + 1;
           });
      Obs.Trace.instant_d "gate.demote" "calm" pidx);
  if Sketch.Triage.promoted tr pidx then
    t.pending.(pidx) <- batch :: t.pending.(pidx)
  else begin
    g.g_skipped_obs <- g.g_skipped_obs + len;
    if Obs.enabled () then Obs.Counter.add m_sketch_only_observations len
  end

let push t ~path batch =
  if path < 0 || path >= Array.length t.paths then
    invalid_arg "Fleet.Scheduler.push: path index out of range";
  (* Rejected here, on the caller's domain, before the sketch folds the
     batch or a pooled update decays the path's statistics. *)
  if not (Path_state.valid_batch t.config batch) then
    invalid_arg "Fleet.Scheduler.push: observation symbol outside [0, m)";
  if Array.length batch > 0 then
    match t.gating with
    | None -> t.pending.(path) <- batch :: t.pending.(path)
    | Some g -> gated_push t g ~path batch

(* Concatenate a path's pending batches in arrival order.  The common
   one-batch-per-epoch case reuses the pushed array. *)
let drain_pending t pidx =
  match t.pending.(pidx) with
  | [] -> [||]
  | [ b ] ->
      t.pending.(pidx) <- [];
      b
  | newest_first ->
      t.pending.(pidx) <- [];
      Array.concat (List.rev newest_first)

let tick t =
  let s = Path_state.states t.config and m = t.config.Path_state.m in
  let n_active = ref 0 in
  for pidx = 0 to Array.length t.paths - 1 do
    match t.pending.(pidx) with
    | [] -> ()
    | _ :: _ ->
        t.active.(!n_active) <- pidx;
        incr n_active
  done;
  let n = !n_active in
  let t0 = Obs.Span.start () in
  Obs.Trace.span_begin "fleet.epoch" t.epoch;
  if n > 0 then begin
    (* Size the pool fan-out by the work actually promoted this epoch:
       waking eight domains for a handful of promoted paths costs more
       in queue traffic than it saves.  Participant count never affects
       results (determinism contract). *)
    let participants = min t.domains (1 + ((n - 1) / pool_chunk)) in
    Stats.Pool.run ~chunk:pool_chunk ~participants n (fun i ->
        let pidx = t.active.(i) in
        let p = t.paths.(pidx) in
        let batch = drain_pending t pidx in
        let was = Path_state.conclusion p in
        let changed =
          Path_state.update ~ws:(Workspace_cache.get ~s ~m) ~epoch:t.epoch p batch
        in
        if Obs.enabled () then Obs.Counter.add m_observations (Array.length batch);
        t.slots.(i) <-
          (if changed then
             Some { path = pidx; epoch = t.epoch; was; now = Path_state.conclusion p }
           else None))
  end;
  (match t.gating with
  | None -> ()
  | Some g ->
      (* Age the shared loss sketch once per epoch, mirroring the
         per-path EWMA decay, and record who ran full inference (for
         warm re-promotion's catch-up aging). *)
      Sketch.Triage.age g.g_triage;
      for i = 0 to n - 1 do
        g.g_last_em.(t.active.(i)) <- t.epoch
      done;
      Obs.Gauge.set g_promoted (float_of_int g.g_promoted));
  t.epoch <- t.epoch + 1;
  (* Ascending-path-index emission, after the pool drains: the
     operator-facing event order is a pure function of the inputs. *)
  for i = 0 to n - 1 do
    (match t.slots.(i) with
    | None -> ()
    | Some tr -> (
        Obs.Counter.incr m_transitions;
        Obs.Trace.instant_d "fleet.transition" (Timeline.verdict_name tr.now) tr.path;
        match t.on_transition with Some f -> f tr | None -> ()));
    t.slots.(i) <- None
  done;
  Obs.Trace.span_end "fleet.epoch";
  Obs.Span.stop h_epoch t0;
  if Obs.enabled () then begin
    Obs.Counter.incr m_ticks;
    Obs.Counter.add m_updates n;
    Obs.Gauge.set g_active (float_of_int n);
    Obs.Runtime.sample ()
  end;
  n

let fingerprint t =
  (* Order-sensitive fold over every path's model parameters and
     conclusion: any bitwise divergence between two fleets (e.g. a
     pooled vs a serial run) changes the fingerprint. *)
  let h = ref 0L in
  let mix bits = h := Int64.add (Int64.mul !h 1000003L) bits in
  let mixf x = mix (Int64.bits_of_float x) in
  let mixi i = mix (Int64.of_int i) in
  Array.iter
    (fun p ->
      (match Path_state.model p with
      | None -> mixi 0
      | Some (model : Em.model) ->
          mixi 1;
          Array.iter mixf model.Em.pi;
          Array.iter mixf model.Em.a;
          Array.iter mixf model.Em.c);
      mixi
        (match Path_state.conclusion p with
        | None -> 0
        | Some Dcl.Identify.Strongly_dominant -> 1
        | Some Dcl.Identify.Weakly_dominant -> 2
        | Some Dcl.Identify.No_dominant -> 3);
      mixf (Path_state.weight p))
    t.paths;
  (* When gated, the sketch layer is part of the observable state:
     divergent gate decisions must change the fingerprint even if the
     surviving models happen to agree. *)
  (match t.gating with
  | None -> ()
  | Some g ->
      for i = 0 to Array.length t.paths - 1 do
        let tr = g.g_triage in
        mixi (if Sketch.Triage.promoted tr i then 1 else 0);
        mixi (Sketch.Triage.streak tr i);
        mixf (Sketch.Triage.loss_ewma tr i);
        mixf (Sketch.Triage.quantile tr i);
        mixi (Sketch.Triage.loss_estimate tr i)
      done;
      mixi g.g_promoted;
      mixi g.g_promotions;
      mixi g.g_demotions;
      mixi g.g_skipped_obs);
  Printf.sprintf "%016Lx" !h
