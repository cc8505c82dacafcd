(** Generic set-associative store of scheduled blocks, keyed by the ISA
    address of the first instruction of each block.

    This is the organisational skeleton shared by the paper's VLIW Cache
    (§3.4) and the DIF cache (§3.12): a cache whose "line" payload is a whole
    block of long instructions (['a]). Replacement is true LRU within a
    set. *)

type 'a t

val create : n_sets:int -> assoc:int -> 'a t
(** [n_sets] must be a power of two. *)

val find : 'a t -> int -> 'a option
(** Probe with an ISA address; touches LRU state on a hit. *)

val probe : 'a t -> int -> bool
(** Hit test without touching LRU state. *)

val insert : 'a t -> int -> 'a -> 'a option
(** [insert t addr block] installs [block] under key [addr], evicting the
    LRU entry of the set if full; the evicted payload is returned. Inserting
    an existing key replaces its payload. *)

val invalidate : 'a t -> int -> bool
(** Remove the entry for this address; [true] if it was present. *)

val set_on_drop : 'a t -> (int -> 'a -> unit) -> unit
(** Register the single drop observer, called with (key, payload) whenever
    a resident payload leaves the cache — same-key replacement by
    {!insert}, LRU eviction, {!invalidate} or {!invalidate_all}. Owners of
    state derived from cached payloads (the machine's code-word index)
    release it here. The callback must not mutate the cache. *)

val invalidate_all : 'a t -> unit
val hits : 'a t -> int
val misses : 'a t -> int
val insertions : 'a t -> int
val evictions : 'a t -> int
val iter : (int -> 'a -> unit) -> 'a t -> unit
val entry_count : 'a t -> int
