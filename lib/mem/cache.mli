(** Timing-only set-associative cache model with true-LRU replacement.

    The machine keeps data in {!Memory}; this cache only tracks which lines
    would be resident, so that hit/miss timing (Table 1 / §4.4 of the paper)
    can be charged. A direct-mapped cache is [assoc = 1]. *)

type t

val create :
  size_bytes:int -> line_bytes:int -> assoc:int -> miss_penalty:int -> t
(** [create ~size_bytes ~line_bytes ~assoc ~miss_penalty] builds a cache.
    [size_bytes] must be a multiple of [line_bytes * assoc]. *)

val perfect : unit -> t
(** A cache that always hits with zero penalty (the paper's "perfect
    cache" experimental setting). *)

val access : t -> int -> int
(** [access c addr] touches the line containing [addr] and returns the
    penalty in cycles: [0] on a hit, [miss_penalty] on a miss (the line is
    then filled, evicting the LRU way). *)

val probe : t -> int -> bool
(** Non-allocating lookup: would [addr] hit right now? *)

val hits : t -> int
val misses : t -> int

val describe : t -> string
(** e.g. ["32KB 4-way, 32B lines, 8-cycle miss"]. *)
