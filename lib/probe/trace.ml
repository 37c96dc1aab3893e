type observation = Lost | Delay of float

type truth = {
  virtual_queuing_delay : float;
  hop_queuing : float array;
  loss_hop : int option;
}

type record = { send_time : float; obs : observation; truth : truth option }

type t = {
  records : record array;
  interval : float;
  base_delay : float;
  hop_count : int;
}

let create ~records ~interval ~base_delay ~hop_count =
  if not (Float.is_finite interval) then invalid_arg "Trace.create: non-finite interval";
  if interval <= 0. then invalid_arg "Trace.create: interval <= 0";
  if not (Float.is_finite base_delay) then invalid_arg "Trace.create: non-finite base delay";
  Array.iter
    (fun r ->
      if not (Float.is_finite r.send_time) then invalid_arg "Trace.create: non-finite send time";
      match r.obs with
      | Delay d when not (Float.is_finite d) -> invalid_arg "Trace.create: non-finite delay"
      | Delay _ | Lost -> ())
    records;
  { records; interval; base_delay; hop_count }

let length t = Array.length t.records

let losses t =
  Array.fold_left
    (fun acc r -> match r.obs with Lost -> acc + 1 | Delay _ -> acc)
    0 t.records

let loss_rate t =
  let n = length t in
  if n = 0 then 0. else float_of_int (losses t) /. float_of_int n

let duration t = float_of_int (length t) *. t.interval
let observations t = Array.map (fun r -> r.obs) t.records

let observed_delays t =
  let out = ref [] in
  Array.iter
    (fun r -> match r.obs with Delay d -> out := d :: !out | Lost -> ())
    t.records;
  Array.of_list (List.rev !out)

let min_delay t =
  let ds = observed_delays t in
  if Array.length ds = 0 then invalid_arg "Trace.min_delay: no surviving probe";
  Array.fold_left Float.min ds.(0) ds

let max_delay t =
  let ds = observed_delays t in
  if Array.length ds = 0 then invalid_arg "Trace.max_delay: no surviving probe";
  Array.fold_left Float.max ds.(0) ds

let truth_virtual_delays t =
  let out = ref [] in
  Array.iter
    (fun r ->
      match r.truth with
      | Some { loss_hop = Some _; virtual_queuing_delay; _ } ->
          out := virtual_queuing_delay :: !out
      | Some { loss_hop = None; _ } | None -> ())
    t.records;
  Array.of_list (List.rev !out)

let truth_loss_share t hop =
  let total = ref 0 and at_hop = ref 0 in
  Array.iter
    (fun r ->
      match r.truth with
      | Some { loss_hop = Some h; _ } ->
          incr total;
          if h = hop then incr at_hop
      | Some { loss_hop = None; _ } | None -> ())
    t.records;
  if !total = 0 then 0. else float_of_int !at_hop /. float_of_int !total

let sub t ~pos ~len =
  if pos < 0 || len < 0 || pos + len > length t then invalid_arg "Trace.sub: out of bounds";
  { t with records = Array.sub t.records pos len }

let random_segment rng t ~duration =
  let want = int_of_float (ceil (duration /. t.interval)) in
  let n = length t in
  if want > n then invalid_arg "Trace.random_segment: duration exceeds trace";
  let pos = if want = n then 0 else Stats.Rng.int rng (n - want + 1) in
  sub t ~pos ~len:want

(* --- text serialization ---------------------------------------------

   Header line:   dcltrace 1 <interval> <base_delay> <hop_count>
   Record lines:  <send_time> (L | <delay>) [T <vqd> <loss_hop|-> <hop_q...>]  *)

let save t file =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "dcltrace 1 %.9f %.9f %d\n" t.interval t.base_delay t.hop_count;
      Array.iter
        (fun r ->
          Printf.fprintf oc "%.6f" r.send_time;
          (match r.obs with
          | Lost -> output_string oc " L"
          | Delay d -> Printf.fprintf oc " %.9f" d);
          (match r.truth with
          | None -> ()
          | Some tr ->
              Printf.fprintf oc " T %.9f %s" tr.virtual_queuing_delay
                (match tr.loss_hop with None -> "-" | Some h -> string_of_int h);
              Array.iter (fun q -> Printf.fprintf oc " %.9f" q) tr.hop_queuing);
          output_char oc '\n')
        t.records)

let load file =
  let ic = open_in file in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let bad_header () = failwith "Trace.load: bad header" in
      let header = try input_line ic with End_of_file -> bad_header () in
      let interval, base_delay, hop_count =
        match String.split_on_char ' ' header with
        | [ "dcltrace"; "1"; i; b; h ] -> (
            try (float_of_string i, float_of_string b, int_of_string h)
            with Failure _ -> bad_header ())
        | _ -> bad_header ()
      in
      let parse_record line =
        match String.split_on_char ' ' line with
        | send :: obs :: rest ->
            let send_time = float_of_string send in
            let obs = if obs = "L" then Lost else Delay (float_of_string obs) in
            let truth =
              match rest with
              | "T" :: vqd :: hop :: qs ->
                  Some
                    {
                      virtual_queuing_delay = float_of_string vqd;
                      loss_hop = (if hop = "-" then None else Some (int_of_string hop));
                      hop_queuing = Array.of_list (List.map float_of_string qs);
                    }
              | [] -> None
              | _ -> raise Exit
            in
            { send_time; obs; truth }
        | _ -> raise Exit
      in
      let records = ref [] in
      (try
         while true do
           let line = input_line ic in
           if String.length line > 0 then
             match parse_record line with
             | r -> records := r :: !records
             | exception (Failure _ | Exit) -> failwith "Trace.load: bad record"
         done
       with End_of_file -> ());
      create ~records:(Array.of_list (List.rev !records)) ~interval ~base_delay ~hop_count)
