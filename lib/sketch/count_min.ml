(* Count-min sketch over integer keys (Cormode & Muthukrishnan):
   [rows] hash rows of [width] counters; an update adds to one counter
   per row, a query takes the minimum over the rows.  Collisions only
   ever inflate a cell, so the estimate never falls below the true
   count — the overestimation-only guarantee the fleet gate leans on
   (a zero estimate proves a loss-free window, so masking the loss
   signal with it can never hide a path that really lost probes).

   Counters are plain ints: the sketch is updated from the driver
   domain at push time, never from pool workers, so it needs no atomic
   story.

   Aging is lazy.  [halve] only bumps the sketch's age; each cell
   carries the age it was last brought up to date at (its stamp), and
   whoever touches it next shifts the count right by the halvings it
   missed.  For counts >= 0, [(v asr 1) asr 1 = v asr 2], so a cell
   read k halvings late holds exactly what k eager floor-halvings
   would have left — bit-identical to halving the whole table every
   epoch, without the O(rows * width) pass.  Because
   [floor ((a + b) / 2) >= floor (a / 2) + floor (b / 2)], a halved
   cell still dominates the sum of its keys' individually halved
   counts, preserving the overestimation bound against the equally
   decayed true counts.

   Count and stamp share one int ([count lsl stamp_bits lor stamp]), so
   a row still costs one memory touch.  Stamps are stored modulo
   [2^stamp_bits]; [halve] also refreshes a few cells in rotation, so
   every cell is restamped well within that window and the missed-
   halving count never wraps. *)

let stamp_bits = 30
let stamp_mask = (1 lsl stamp_bits) - 1

(* The packed cell stays non-negative: counts saturate here, beyond
   any decayed window the fleet produces (4.29e9 events in one cell). *)
let max_count = (1 lsl (Sys.int_size - 1 - stamp_bits)) - 1

(* Shifting by [Sys.int_size] or more is unspecified; a count below
   [2^32] is already 0 after [Sys.int_size - 1] halvings. *)
let max_shift = Sys.int_size - 1

type t = {
  rows : int;
  width : int; (* power of two *)
  mask : int;
  cells : int array; (* rows * width, row-major, count and stamp packed *)
  seeds : int64 array; (* per-row hash seed *)
  mutable age : int; (* halvings since creation *)
  refresh : int; (* cells restamped per halving *)
  mutable cursor : int; (* next cell to restamp *)
}

let rec next_pow2 n k = if k >= n then k else next_pow2 n (k * 2)

let create ?(rows = 4) ~width ~seed () =
  if rows <= 0 then invalid_arg "Sketch.Count_min.create: rows must be positive";
  if width <= 0 then invalid_arg "Sketch.Count_min.create: width must be positive";
  let width = next_pow2 width 1 in
  let rng = Stats.Rng.create seed in
  let cells = rows * width in
  {
    rows;
    width;
    mask = width - 1;
    cells = Array.make cells 0;
    seeds = Array.init rows (fun _ -> Stats.Rng.bits64 rng);
    age = 0;
    (* A full rotation takes at most [2^(stamp_bits - 1)] halvings. *)
    refresh = 1 + (cells lsr (stamp_bits - 1));
    cursor = 0;
  }

let rows t = t.rows
let width t = t.width

(* Row [row]'s cell for [key]: the SplitMix64 finalizer (the same
   generator family as Stats.Rng, so row hashes are pairwise
   independent for all practical purposes) over key + row seed.
   Inlined so the mixing stays on unboxed int64 locals. *)
let[@inline] cell t row key =
  let z = Int64.add (Int64.of_int key) (Array.unsafe_get t.seeds row) in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL
  in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  (row * t.width) + (Int64.to_int z land t.mask)

(* A packed cell's count as of the sketch's current age. *)
let[@inline] current t packed =
  let missed = (t.age - packed) land stamp_mask in
  (packed asr stamp_bits) asr (if missed > max_shift then max_shift else missed)

let[@inline] pack t count = (count lsl stamp_bits) lor (t.age land stamp_mask)

(* Add [n >= 0] to every row's cell for [key], hashing each row once,
   and return the minimum of the updated cells.  Shared by [add]
   (result ignored) and [add_query]. *)
let[@inline] touch t key n =
  let best = ref max_int in
  for r = 0 to t.rows - 1 do
    let i = cell t r key in
    let v = current t (Array.unsafe_get t.cells i) in
    let v = if n >= max_count - v then max_count else v + n in
    Array.unsafe_set t.cells i (pack t v);
    if v < !best then best := v
  done;
  !best

let add t key n =
  if n < 0 then invalid_arg "Sketch.Count_min.add: count must be non-negative";
  ignore (touch t key n : int)

let add_query t key n =
  if n < 0 then invalid_arg "Sketch.Count_min.add_query: count must be non-negative";
  touch t key n

let query t key =
  let best = ref max_int in
  for r = 0 to t.rows - 1 do
    let v = current t (Array.unsafe_get t.cells (cell t r key)) in
    if v < !best then best := v
  done;
  !best

let halve t =
  t.age <- t.age + 1;
  let n = Array.length t.cells in
  for _ = 1 to t.refresh do
    let i = t.cursor in
    Array.unsafe_set t.cells i (pack t (current t (Array.unsafe_get t.cells i)));
    t.cursor <- (if i + 1 = n then 0 else i + 1)
  done

let clear t = Array.fill t.cells 0 (Array.length t.cells) 0
