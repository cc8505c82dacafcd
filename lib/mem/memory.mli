(** Sparse, paged, byte-addressable main memory.

    Addresses are 32-bit (stored in native [int]); contents are big-endian,
    matching the SPARC heritage of the SRISC ISA. Pages are 4 KiB byte
    buffers held in a two-level directory indexed by [addr lsr 12]: the top
    level maps 1 MiB regions to leaves of 256 pages, and a leaf exists only
    once its region was written or watched, so a fresh memory costs about a
    hundred words. A one-entry lookaside over the last page touched makes
    page resolution on the hot path an integer compare and two loads; only
    a miss walks the directory. Page buffers are [Bytes.t] so that
    whole-page comparison (the co-simulation sync's hot operation) is a C
    [memcmp]. Accesses
    must be naturally aligned — misaligned accesses raise {!Misaligned},
    which the machine layers turn into the [Mem_address_not_aligned]
    trap. *)

type t

exception Misaligned of int
(** Raised with the offending address on a misaligned access. *)

val create : unit -> t
(** A fresh, all-zero memory. Pages and their directory leaves are
    allocated on first write (or {!watch}); the top level starts small
    (16 MiB of address space, the whole conventional layout) and grows on
    demand. *)

val copy : t -> t
(** Deep copy (used by the golden-model co-simulation). Hooks, watch bits
    and the dirty journal are not carried over: the copy starts with no
    write or reset hooks, and the source's {e reset} hooks are fired at the
    fork point so that derived caches registered on the source (e.g. the
    pre-decoded instruction store) flush and rebuild rather than risk
    serving entries that a consumer wrongly associates with the copy. *)

val read : t -> addr:int -> size:int -> signed:bool -> int
(** [read m ~addr ~size ~signed] reads [size] bytes (1, 2 or 4) at [addr].
    The result is sign- or zero-extended to a signed 32-bit value stored in
    a native [int]. Raises {!Misaligned} if [addr] is not a multiple of
    [size]. *)

val write : t -> addr:int -> size:int -> int -> unit
(** [write m ~addr ~size v] stores the low [size] bytes of [v] at [addr].
    Raises {!Misaligned} if [addr] is not a multiple of [size]. *)

val read_u8 : t -> int -> int
(** Unsigned byte read. *)

val read_u16 : t -> int -> int
(** Unsigned 16-bit read of an aligned halfword. *)

val read_u32 : t -> int -> int
(** Unsigned 32-bit read of an aligned word (instruction fetch). *)

val read_i32 : t -> int -> int
(** Sign-extended 32-bit read of an aligned word (architectural values are
    kept sign-extended in native [int]s). *)

val write_u8 : t -> int -> int -> unit
(** Byte write (low 8 bits of the value). *)

val write_u16 : t -> int -> int -> unit
(** 16-bit write of an aligned halfword (low 16 bits of the value). *)

val write_u32 : t -> int -> int -> unit
(** 32-bit write of an aligned word. *)

val load_bytes : t -> addr:int -> string -> unit
(** Bulk-copy a string image into memory starting at [addr]. *)

val clear : t -> unit
(** Zero the memory in place, keeping the page buffers and any registered
    hooks and watch bits — for scratch memories recycled wholesale. Only
    pages written since the previous [clear] are swept (the dirty journal
    tracks them), so the cost is proportional to recent use; consequently
    [clear] must not be mixed with {!dirty_clear} on the same memory. Does
    not fire hooks: callers reset their own derived structures. *)

val add_watched_write_hook : t -> (int -> unit) -> unit
(** Register an observer called with the byte address of every mutation
    made through {!write} (once per write — an aligned access never spans a
    32-bit word) or {!load_bytes} (once per touched word) into a page
    marked with {!watch}. Stores into unwatched pages skip hook dispatch
    entirely — this is the common-path contract that keeps ordinary data
    stores hook-free while SMC invalidation still sees every store into a
    page hosting pre-decoded code or installed blocks. Hooks must not write
    to the memory themselves. {!copy} does not carry hooks over —
    consumers of the copy re-register. *)

val watch : t -> int -> unit
(** [watch m addr] marks the page containing [addr] so that watched write
    hooks fire for every subsequent store into it. Watching is monotonic
    and per-page; watching an already-watched page is a no-op. *)

val add_reset_hook : t -> (unit -> unit) -> unit
(** Register a cache-flush callback fired when every cache derived from this
    memory must be dropped wholesale — currently on {!copy} (see there). *)

val equal : t -> t -> bool
(** Content equality over all touched pages (zero pages are equal to
    untouched ones); regions neither memory touched are skipped a leaf at
    a time. *)

val first_difference : t -> t -> int option
(** Address of the first differing byte, if any — for test-mode
    diagnostics. *)

val dirty_equal : t -> t -> bool
(** Ranged comparison over only the pages either memory wrote since its
    last {!dirty_clear}. Sound as a substitute for {!equal} when the caller
    established equality at the last {!dirty_clear} point: pages unwritten
    by both sides are unchanged on both sides. The co-simulation sync uses
    this instead of a periodic full sweep. *)

val dirty_clear : t -> unit
(** Reset the dirty-page journal — call after a successful comparison
    against the co-simulation partner (on both memories). *)

