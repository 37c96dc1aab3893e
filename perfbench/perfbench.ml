(* perfbench: the repository benchmark's measuring program.  run.py
   builds it and calls it; see README.md for the workloads and metrics.

     perfbench prepare --workload W --seed N --trace 0|1 --dir D
     perfbench run --workload W --seed N --seconds S --trace 0|1 --dir D [--commit C]

   [prepare] runs in its own process first: for the offline workload it
   is the generator (simulate and save the traces); for the fleet
   workloads it is the serial phase (allocation counters, replay and
   determinism checks), whose findings it leaves in D for [run].
   [run] prints a provenance line, the workload's named metrics with
   their units, the deterministic counters and the correctness checks,
   writes the full result (and, traced, the span file) under D, and
   prints the result object as its last line.  It exits 1 when a
   correctness check fails. *)

open Measure

let workloads = [ "fleet-dense"; "fleet-gated"; "offline-segments" ]

(* A seed to re-check claims on, never used while tuning a change. *)
let held_out_seed = 914_237

let end_to_end =
  [
    ("throughput_per_s", "1/s");
    ("latency_ms_p50", "ms");
    ("setup_s", "s");
    ("peak_rss_mb", "MiB");
    ("verdict_agreement", "ratio");
  ]

(* Every per-layer metric, on every workload.  A layer the workload
   bypasses did no work and reports 0. *)
let per_layer =
  [
    ("fleet.source.pull.ns_per_batch", "ns");
    ("fleet.scheduler.push.ns_per_batch", "ns");
    ("fleet.scheduler.push.alloc_bytes_per_batch", "B");
    ("fleet.scheduler.pending_wait_ms", "ms");
    ("fleet.scheduler.tick.ns_per_update", "ns");
    ("fleet.scheduler.transitions", "count");
    ("fleet.path_state.resets", "count");
    ("fleet.path_state.update.ns", "ns");
    ("fleet.path_state.update.alloc_bytes", "B");
    ("mmhd.init_informed.ns", "ns");
    ("mmhd.init_informed.alloc_bytes", "B");
    ("em.incremental.decay.ns", "ns");
    ("em.incremental.decay.alloc_bytes", "B");
    ("em.incremental.append.ns", "ns");
    ("em.incremental.append.alloc_bytes", "B");
    ("em.incremental.append.ns_per_obs", "ns");
    ("em.incremental.m_step.ns", "ns");
    ("em.incremental.m_step.alloc_bytes", "B");
    ("dcl.retest.ns", "ns");
    ("dcl.retest.alloc_bytes", "B");
    ("fleet.replay.coverage", "ratio");
    ("fleet.em.observations_per_update", "count");
    ("fleet.alloc_bytes_per_update", "B");
    ("stats.pool.efficiency", "ratio");
    ("sketch.absorbed_share", "ratio");
    ("sketch.promotions", "count");
    ("sketch.demotions", "count");
    ("sketch.promoted_paths", "count");
    ("sketch.promotion_yield", "ratio");
    ("probe.trace.load.ms", "ms");
    ("dcl.discretize.ms", "ms");
    ("mmhd.fit.ms", "ms");
    ("mmhd.fit.alloc_bytes", "B");
    ("em.fit.iterations", "count");
    ("em.fit.converged_share", "ratio");
    ("em.fit.skipped_restarts", "count");
    ("mmhd.virtual_delay_pmf.ms", "ms");
    ("dcl.identify.conclude.us", "us");
    ("offline.alloc_bytes_per_segment", "B");
    ("stats.pool.racing_speedup", "ratio");
    ("bench.trace.overhead_share", "ratio");
  ]

(* The twelve end-to-end metrics by their workload-specific names; the
   result line carries them under the shared names of [end_to_end]. *)
let named =
  [
    ("updates_per_s", "1/s");
    ("verdict_latency_ms_p50", "ms");
    ("verdict_latency_ms_p90", "ms");
    ("dominant_recall", "ratio");
    ("false_alarm_share", "ratio");
    ("identify_ms_p50", "ms");
    ("identify_ms_p90", "ms");
    ("identifications_per_s", "1/s");
    ("verdict_correct_share", "ratio");
    ("setup_s", "s");
    ("failed_share", "ratio");
    ("peak_rss_mb", "MiB");
  ]

let json_string s = "\"" ^ String.escaped s ^ "\""
let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let json_metrics ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string m.name)
             (json_float m.value) (json_string m.unit))
         ms)
  ^ "}"

(* The result line's metrics: exactly the canonical list, in order. *)
let select canonical ~default (ms : metric list) =
  List.iter
    (fun m ->
      if not (List.mem_assoc m.name canonical) then
        failwith ("perfbench: metric outside the canonical list: " ^ m.name))
    ms;
  List.map
    (fun (name, unit) ->
      match List.find_opt (fun m -> String.equal m.name name) ms with
      | Some m -> { m with unit }
      | None -> (
          match default with
          | Some v -> metric name unit v
          | None -> failwith ("perfbench: workload did not report " ^ name)))
    canonical

let provenance ~workload ~seed ~seconds ~trace ~commit (r : result) =
  Printf.sprintf
    "{\"commit\": %s, \"nproc\": %d, \"ocaml\": %s, \"workload\": %s, \"seed\": %d, \
     \"held_out_seed\": %d, \"seconds\": %d, \"trace\": %b, \"units_per_run\": %s, \
     \"percentile_samples\": {%s}}"
    (json_string commit) (Stats.Pool.size ()) (json_string Sys.ocaml_version)
    (json_string workload) seed held_out_seed seconds trace
    (json_string r.units_per_run)
    (String.concat ", "
       (List.map (fun (k, n) -> Printf.sprintf "%s: %d" (json_string k) n) r.samples))

let stem ~workload ~seed ~trace =
  Printf.sprintf "%s-seed%d-trace%d" workload seed (Bool.to_int trace)

let fleet_spec = function
  | "fleet-dense" -> Some Fleet_bench.dense
  | "fleet-gated" -> Some Fleet_bench.gated
  | _ -> None

let write_spans ~dir name spans =
  Option.iter
    (fun s ->
      let path = Filename.concat dir name in
      Spans.write s path;
      Printf.printf "spans   %s (%d spans, %d dropped)\n" path s.Spans.len s.Spans.dropped)
    spans

let new_spans trace = if trace then Some (Spans.create ~capacity:200_000) else None

let prepare ~workload ~seed ~trace ~dir =
  match fleet_spec workload with
  | None -> Offline_bench.generate ~dir
  | Some spec ->
      let spans = new_spans trace in
      let stem = stem ~workload ~seed ~trace in
      save_partial (Filename.concat dir (stem ^ ".prepared")) (Fleet_bench.prepare spec ~seed ~spans);
      write_spans ~dir (stem ^ ".prepare.spans.json") spans

let run ~workload ~seed ~seconds ~trace ~dir ~commit =
  let spans = new_spans trace in
  let stem = stem ~workload ~seed ~trace in
  let r =
    match fleet_spec workload with
    | Some spec ->
        let prepared = load_partial (Filename.concat dir (stem ^ ".prepared")) in
        merge prepared (Fleet_bench.run spec ~seed ~seconds ~spans)
    | None -> Offline_bench.run ~seed ~seconds ~dir ~spans
  in
  let metrics =
    if trace then select per_layer ~default:(Some 0.) r.layers
    else select end_to_end ~default:None r.e2e
  in
  let finite = List.for_all (fun m -> Float.is_finite m.value) metrics in
  let checks = r.checks @ [ ("metrics_finite", finite) ] in
  let correct = List.for_all snd checks in
  let prov = provenance ~workload ~seed ~seconds ~trace ~commit r in
  let show m = Printf.sprintf "%-44s %16.6g %s" m.name m.value m.unit in
  Printf.printf "provenance %s\n" prov;
  List.iter
    (fun (name, unit) ->
      match List.find_opt (fun m -> String.equal m.name name) r.table with
      | Some m -> print_endline ("metric  " ^ show m)
      | None -> Printf.printf "metric  %-44s %16s %s\n" name "n/a" unit)
    named;
  List.iter (fun m -> print_endline ("counter " ^ show m)) r.counters;
  if trace then List.iter (fun m -> print_endline ("layer   " ^ show m)) metrics;
  List.iter (fun (name, ok) -> Printf.printf "check   %-44s %s\n" name (if ok then "ok" else "FAILED")) checks;
  write_spans ~dir (stem ^ ".spans.json") spans;
  let line =
    Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}"
      correct r.attempted r.failed (json_metrics metrics)
  in
  Out_channel.with_open_text (Filename.concat dir (stem ^ ".json")) (fun oc ->
      Printf.fprintf oc
        "{\"provenance\": %s,\n \"table\": %s,\n \"counters\": %s,\n \"layers\": %s,\n \
         \"checks\": {%s},\n \"result\": %s}\n"
        prov (json_metrics r.table) (json_metrics r.counters) (json_metrics r.layers)
        (String.concat ", "
           (List.map (fun (k, ok) -> Printf.sprintf "%s: %b" (json_string k) ok) checks))
        line);
  print_endline line;
  if not correct then exit 1

let () =
  let mode = ref "" and workload = ref "" and seed = ref (-1) and seconds = ref 0 in
  let trace = ref 0 and dir = ref "" and commit = ref "unknown" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, "N workload seed (non-negative)");
      ("--seconds", Arg.Set_int seconds, "S length of the timed window");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or traced per-layer run");
      ("--dir", Arg.Set_string dir, "DIR where traces, results and spans go");
      ("--commit", Arg.Set_string commit, "SHA commit recorded in the provenance");
    ]
  in
  let usage = "perfbench (prepare|run) --workload W --seed N --dir D [...]" in
  Arg.parse spec (fun m -> mode := m) usage;
  let bad msg =
    prerr_endline ("perfbench: " ^ msg);
    Arg.usage spec usage;
    exit 2
  in
  if not (List.mem !workload workloads) then bad "unknown --workload";
  if !seed < 0 then bad "--seed must be non-negative";
  if !dir = "" then bad "--dir is required";
  if !trace <> 0 && !trace <> 1 then bad "--trace must be 0 or 1";
  let trace = !trace = 1 in
  match !mode with
  | "prepare" -> prepare ~workload:!workload ~seed:!seed ~trace ~dir:!dir
  | "run" ->
      if !seconds <= 0 then bad "--seconds must be positive";
      run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace ~dir:!dir ~commit:!commit
  | _ -> bad "expected prepare or run"
