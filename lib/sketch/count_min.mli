(** Count-min sketch over integer keys — sublinear-memory frequency
    estimation for the fleet's probe-loss stream.

    [rows] hash rows of [width] counters (width rounded up to a power
    of two); {!add} increments one counter per row, {!query} takes the
    minimum.  Collisions only inflate cells, so for any key

    {v true count <= query <= true count + noise v}

    — the classic overestimation-only guarantee.  The fleet gate uses
    the lower side: a zero estimate {e proves} the key saw no events in
    the (decayed) window, so gating a promotion signal on
    [query > 0] can never suppress a path that really lost probes.

    {b Storage and aging.}  Each cell packs its count with the age
    (number of {!halve}s) it was last brought up to date at, in one
    [int], so touching a row is one memory access.  {!halve} is O(1):
    it bumps the sketch's age, and a cell's count is shifted right by
    the halvings it missed the next time an update or query reads it.
    Since [(v asr 1) asr 1 = v asr 2] for [v >= 0], every estimate is
    bit-identical to floor-halving the whole table eagerly.  Counts
    saturate at [2^32 - 1] events per cell.

    The sketch is single-writer by design: the fleet updates it from
    the driver domain at push time, in ascending path order, which
    keeps gated fleets bit-reproducible.  It must not be written from
    pool workers. *)

type t

val create : ?rows:int -> width:int -> seed:int -> unit -> t
(** [rows] (default 4) independent hash rows of [width] counters
    (rounded up to a power of two).  [seed] derives the per-row hash
    seeds deterministically — equal seeds give equal sketches.  Raises
    [Invalid_argument] on non-positive dimensions. *)

val add : t -> int -> int -> unit
(** [add t key n] adds [n >= 0] events for [key].  Raises
    [Invalid_argument] on a negative count. *)

val add_query : t -> int -> int -> int
(** [add_query t key n] is [add t key n; query t key], hashing each of
    the key's rows once and touching each cell once.  [n = 0] is a
    plain query.  Allocates nothing.  Raises [Invalid_argument] on a
    negative count. *)

val query : t -> int -> int
(** Upper bound on the number of events added for [key] since creation
    (scaled down by any intervening {!halve}s); never below the equally
    decayed true count.  Allocates nothing. *)

val halve : t -> unit
(** Age every counter by floor division by two, lazily: O(1), with the
    shift applied to each cell when it is next touched.  Called once
    per epoch this turns the totals into an exponentially decayed
    window while preserving the overestimation bound against the
    equally halved true counts
    ([floor ((a+b)/2) >= floor (a/2) + floor (b/2)]). *)

val clear : t -> unit
(** Zero every counter. *)

val rows : t -> int

val width : t -> int
(** The effective width after rounding up to a power of two. *)
