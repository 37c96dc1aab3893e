(* Bounded per-path diagnosis history: the forensic record behind
   /paths/:id and the input tomography fusion will consume.

   A fixed-capacity overwrite-oldest ring of entries, stored as flat
   columns (see [t] below) and owned by whichever domain currently owns
   the path (updates append from the worker processing the path's
   chunk, gate events append from the driver between pool jobs — the
   phases never overlap, so no synchronization is needed).  Capacity 0
   disables recording entirely. *)

type entry =
  | Update of {
      epoch : int;
      verdict : Dcl.Identify.conclusion option;
      log_likelihood : float;
      weight : float;
      bound : float option;
    }
  | Gate of { epoch : int; promoted : bool; cause : string; streak : int }
  | Reset of { epoch : int }

(* Flat column storage: one slot per retained entry in each column,
   written in place by [record] and turned back into [entry] variants
   only when read.  A path's steady-state update therefore leaves no
   long-lived boxed entry behind.  The columns are allocated by the
   first [record] (the cause column by the first gate entry), so a
   path that never records (a quiet gated path) pays only for this
   header. *)
type t = {
  capacity : int;
  mutable total : int;
  mutable kind : Bytes.t; (* kind_* code; also whether a bound is present *)
  mutable epoch : int array;
  mutable aux : int array; (* verdict code (updates), streak (gates) *)
  mutable log_likelihood : Float.Array.t;
  mutable weight : Float.Array.t;
  mutable bound : Float.Array.t;
  mutable cause : string array; (* gate slots only; allocated by the first gate *)
}

let kind_reset = '\000'
let kind_update = '\001'
let kind_update_bound = '\002'
let kind_demote = '\003'
let kind_promote = '\004'

(* Constant options compile to static data: decoding a verdict
   allocates nothing. *)
let verdict_of_code = function
  | 1 -> Some Dcl.Identify.Strongly_dominant
  | 2 -> Some Dcl.Identify.Weakly_dominant
  | 3 -> Some Dcl.Identify.No_dominant
  | _ -> None

let verdict_code = function
  | None -> 0
  | Some Dcl.Identify.Strongly_dominant -> 1
  | Some Dcl.Identify.Weakly_dominant -> 2
  | Some Dcl.Identify.No_dominant -> 3

let no_floats = Float.Array.create 0

let create ~capacity =
  if capacity < 0 then
    invalid_arg "Fleet.Timeline.create: capacity must be non-negative";
  {
    capacity;
    total = 0;
    kind = Bytes.empty;
    epoch = [||];
    aux = [||];
    log_likelihood = no_floats;
    weight = no_floats;
    bound = no_floats;
    cause = [||];
  }

let capacity t = t.capacity
let total t = t.total
let length t = min t.total t.capacity

(* The cause column is left out: only gated paths ever record a gate
   entry, so it is allocated by the first one. *)
let allocate_columns t =
  let n = t.capacity in
  t.kind <- Bytes.make n kind_reset;
  t.epoch <- Array.make n 0;
  t.aux <- Array.make n 0;
  t.log_likelihood <- Float.Array.make n 0.;
  t.weight <- Float.Array.make n 0.;
  t.bound <- Float.Array.make n 0.

(* Claim the slot the next entry overwrites; [-1] when recording is
   disabled. *)
let next_slot t =
  let n = t.capacity in
  if n = 0 then -1
  else begin
    if t.total = 0 then allocate_columns t;
    let i = t.total mod n in
    t.total <- t.total + 1;
    i
  end

let record_update t ~epoch ~verdict ~log_likelihood ~weight ~bound =
  let i = next_slot t in
  if i >= 0 then begin
    t.epoch.(i) <- epoch;
    t.aux.(i) <- verdict_code verdict;
    Float.Array.set t.log_likelihood i log_likelihood;
    Float.Array.set t.weight i weight;
    match bound with
    | None -> Bytes.set t.kind i kind_update
    | Some b ->
        Float.Array.set t.bound i b;
        Bytes.set t.kind i kind_update_bound
  end

let record t = function
  | Update { epoch; verdict; log_likelihood; weight; bound } ->
      record_update t ~epoch ~verdict ~log_likelihood ~weight ~bound
  | Gate { epoch; promoted; cause; streak } ->
      let i = next_slot t in
      if i >= 0 then begin
        if Array.length t.cause = 0 then t.cause <- Array.make t.capacity "";
        t.epoch.(i) <- epoch;
        t.aux.(i) <- streak;
        t.cause.(i) <- cause;
        Bytes.set t.kind i (if promoted then kind_promote else kind_demote)
      end
  | Reset { epoch } ->
      let i = next_slot t in
      if i >= 0 then begin
        t.epoch.(i) <- epoch;
        Bytes.set t.kind i kind_reset
      end

let entry_at t i =
  let epoch = t.epoch.(i) in
  let k = Bytes.get t.kind i in
  if k = kind_update || k = kind_update_bound then
    Update
      {
        epoch;
        verdict = verdict_of_code t.aux.(i);
        log_likelihood = Float.Array.get t.log_likelihood i;
        weight = Float.Array.get t.weight i;
        bound =
          (if k = kind_update_bound then Some (Float.Array.get t.bound i)
           else None);
      }
  else if k = kind_reset then Reset { epoch }
  else
    Gate
      { epoch; promoted = k = kind_promote; cause = t.cause.(i); streak = t.aux.(i) }

let entries t =
  let n = t.capacity in
  let acc = ref [] in
  for i = t.total - 1 downto t.total - length t do
    acc := entry_at t (i mod n) :: !acc
  done;
  !acc

let verdict_name = function
  | None -> "untested"
  | Some Dcl.Identify.Strongly_dominant -> "strongly-dominant"
  | Some Dcl.Identify.Weakly_dominant -> "weakly-dominant"
  | Some Dcl.Identify.No_dominant -> "no-dominant"

(* %.6g is plenty for forensic display and keeps the JSON small; NaN
   and infinities (last_log_likelihood before the first batch) are not
   representable in JSON and go out as null. *)
let json_float x =
  if Float.is_finite x then Printf.sprintf "%.6g" x else "null"

let entry_to_json = function
  | Update { epoch; verdict; log_likelihood; weight; bound } ->
      Printf.sprintf
        "{\"kind\":\"update\",\"epoch\":%d,\"verdict\":\"%s\",\"log_likelihood\":%s,\"weight\":%s,\"bound\":%s}"
        epoch (verdict_name verdict)
        (json_float log_likelihood)
        (json_float weight)
        (match bound with Some b -> json_float b | None -> "null")
  | Gate { epoch; promoted; cause; streak } ->
      Printf.sprintf
        "{\"kind\":\"gate\",\"epoch\":%d,\"promoted\":%b,\"cause\":%s,\"streak\":%d}"
        epoch promoted (Obs.json_string cause) streak
  | Reset { epoch } -> Printf.sprintf "{\"kind\":\"reset\",\"epoch\":%d}" epoch

let to_json t =
  Printf.sprintf "{\"total\":%d,\"capacity\":%d,\"entries\":[%s]}" t.total
    t.capacity
    (String.concat "," (List.map entry_to_json (entries t)))
