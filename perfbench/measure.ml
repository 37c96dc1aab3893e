(* Clock, allocation, memory, sample and span helpers shared by the
   workloads, plus the result record every workload fills in.  Every
   clock read goes through [Obs.Span.now_ns] (monotonic, allocation
   free); nothing here reads the wall-clock date. *)

let now = Obs.Span.now_ns
let ms_of_ns ns = float_of_int ns *. 1e-6

(* Bytes allocated on the calling domain since it started, minor and
   major heaps together.  The runtime books promoted words against the
   major heap lazily, so the figure only repeats exactly once the minor
   heap is emptied; this does that first, and so must be called outside
   timed regions.  Bigarray buffers are malloc'd and not counted;
   [peak_rss_mb] covers them. *)
let alloc_bytes () =
  Gc.minor ();
  Gc.allocated_bytes ()

(* The resident-set high-water mark (VmHWM), in MiB.  Gc counters miss
   the out-of-heap Bigarray EM workspaces, the resident set does not. *)
let peak_rss_mb () =
  let parse line =
    Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
  in
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec find () =
        match In_channel.input_line ic with
        | None -> failwith "perfbench: no VmHWM in /proc/self/status"
        | Some l when String.starts_with ~prefix:"VmHWM:" l -> parse l
        | Some _ -> find ()
      in
      find ())

(* Growable buffer of float samples. *)
module Samples = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 256 0.; len = 0 }

  let add t x =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) 0. in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let to_array t = Array.sub t.data 0 t.len
  let sum t = Array.fold_left ( +. ) 0. (to_array t)

  (* Linear-interpolation quantile; [nan] when empty, which the result
     validation turns into a failed check. *)
  let quantile t q = if t.len = 0 then Float.nan else Stats.Summary.quantile (to_array t) q
end

let median xs = Stats.Summary.median xs

(* Spans recorded in memory during a traced run and written out once at
   the end as Chrome trace-event JSON (loadable in Perfetto).  Each span
   names the layer call it timed and the span that caused it.  The
   recorder is bounded; spans past [capacity] are counted, not kept. *)
module Spans = struct
  type t = {
    capacity : int;
    names : string array;
    parents : int array;
    starts : int array;
    stops : int array;
    mutable len : int;
    mutable dropped : int;
  }

  let create ~capacity =
    {
      capacity;
      names = Array.make capacity "";
      parents = Array.make capacity (-1);
      starts = Array.make capacity 0;
      stops = Array.make capacity 0;
      len = 0;
      dropped = 0;
    }

  (* Returns the span's id, or [-1] when the recorder is full. *)
  let record t ~name ~parent t0 t1 =
    if t.len = t.capacity then begin
      t.dropped <- t.dropped + 1;
      -1
    end
    else begin
      let id = t.len in
      t.names.(id) <- name;
      t.parents.(id) <- parent;
      t.starts.(id) <- t0;
      t.stops.(id) <- t1;
      t.len <- id + 1;
      id
    end

  (* A span whose end is not known yet (it encloses spans recorded
     before it ends); [close] sets the end. *)
  let open_ t ~name ~parent t0 = record t ~name ~parent t0 t0
  let close t id t1 = if id >= 0 then t.stops.(id) <- t1

  let write t path =
    let origin = if t.len = 0 then 0 else t.starts.(0) in
    Out_channel.with_open_text path (fun oc ->
        output_string oc "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
        for i = 0 to t.len - 1 do
          Printf.fprintf oc
            "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \
             \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %d, \"parent\": %d}}\n"
            (if i = 0 then "" else ",")
            t.names.(i)
            (float_of_int (t.starts.(i) - origin) *. 1e-3)
            (float_of_int (t.stops.(i) - t.starts.(i)) *. 1e-3)
            i t.parents.(i)
        done;
        Printf.fprintf oc "], \"otherData\": {\"spans\": %d, \"dropped\": %d}}\n"
          t.len t.dropped)
end

(* Per-layer accumulator: calls, nanoseconds and bytes spent in one
   layer's public function. *)
module Layer = struct
  type t = { mutable calls : int; mutable ns : int; mutable bytes : float }

  let create () = { calls = 0; ns = 0; bytes = 0. }

  let add t ~ns ~bytes =
    t.calls <- t.calls + 1;
    t.ns <- t.ns + ns;
    t.bytes <- t.bytes +. bytes

  let per_call x t = if t.calls = 0 then 0. else x /. float_of_int t.calls
  let ns_per_call t = per_call (float_of_int t.ns) t
  let bytes_per_call t = per_call t.bytes t
end

(* A metric as the result line reports it. *)
type metric = { name : string; value : float; unit : string }

let metric name unit value = { name; value; unit }

(* One workload run's outcome.  [e2e] and [layers] are the metrics the
   result line carries (untraced and traced runs respectively);
   [table] is the human-readable report of the workload's named
   end-to-end metrics, [counters] the deterministic work counters, and
   [samples] the sample count behind each percentile. *)
type result = {
  checks : (string * bool) list;
  attempted : int;
  failed : int;
  e2e : metric list;
  layers : metric list;
  table : metric list;
  counters : metric list;
  samples : (string * int) list;
  units_per_run : string;
}

let share num den = if den = 0 then 0. else float_of_int num /. float_of_int den

let empty_result =
  {
    checks = [];
    attempted = 0;
    failed = 0;
    e2e = [];
    layers = [];
    table = [];
    counters = [];
    samples = [];
    units_per_run = "";
  }

(* A prepare phase hands its checks, layers, counters and samples to
   the run phase through a text file (floats in exact hex notation). *)
let save_partial path r =
  Out_channel.with_open_text path (fun oc ->
      List.iter (fun (n, ok) -> Printf.fprintf oc "check %s %b\n" n ok) r.checks;
      let metrics kind = List.iter (fun m -> Printf.fprintf oc "%s %s %h %s\n" kind m.name m.value m.unit) in
      metrics "layer" r.layers;
      metrics "counter" r.counters;
      List.iter (fun (n, k) -> Printf.fprintf oc "sample %s %d\n" n k) r.samples)

let load_partial path =
  let add r line =
    match String.split_on_char ' ' line with
    | [ "check"; n; ok ] -> { r with checks = r.checks @ [ (n, bool_of_string ok) ] }
    | [ "layer"; n; v; u ] -> { r with layers = r.layers @ [ metric n u (float_of_string v) ] }
    | [ "counter"; n; v; u ] ->
        { r with counters = r.counters @ [ metric n u (float_of_string v) ] }
    | [ "sample"; n; k ] -> { r with samples = r.samples @ [ (n, int_of_string k) ] }
    | _ -> failwith ("perfbench: bad line in " ^ path ^ ": " ^ line)
  in
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")
  |> List.fold_left add empty_result

let merge prepared r =
  {
    r with
    checks = prepared.checks @ r.checks;
    layers = prepared.layers @ r.layers;
    counters = prepared.counters @ r.counters;
    samples = prepared.samples @ r.samples;
  }
