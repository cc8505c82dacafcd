(* Sparse paged memory. 4 KiB pages held in a two-level directory indexed
   by [addr lsr 12] (top level: 1 MiB regions; leaves: their 256 pages),
   with a one-entry lookaside in front; big-endian contents.

   Pages are [Bytes.t], deliberately: page equality is the hot operation of
   the batched co-simulation sync, and [Bytes.equal] is a C [memcmp], an
   order of magnitude faster than comparing a [Bigarray.Array1] (whose
   polymorphic compare walks bytes one at a time in C). Multi-byte
   accessors use the compiler's unaligned 16/32-bit load/store primitives
   plus byte swap, so a 32-bit read is one load, not four. *)

let page_bits = 12
let page_size = 1 lsl page_bits
let page_mask = page_size - 1
let addr_mask = 0xFFFFFFFF

(* The 32-bit address space is 2^20 pages, held in a two-level sparse
   directory: a top-level array of leaves, each leaf covering [leaf_size]
   consecutive pages (1 MiB of address space). A leaf carries, per page,
   the page buffer and one metadata int (dirty stamp and watch bit), and
   is created on the first write or watch in its region; every other
   top-level entry is the shared, never-written [empty_leaf]. The top
   level starts at 16 leaves — the whole conventional [Layout] map
   (16 MiB) — and doubles on demand up to the full space. A fresh memory
   therefore allocates about a hundred words, all in the minor heap, and
   the whole-memory walks ({!copy}, {!equal}, {!first_difference}) skip
   absent regions a megabyte at a time. Leaves are 256 entries so that
   each of their arrays still fits the minor heap (arrays above 256
   words are allocated directly in the major heap). *)
let max_pages = 1 lsl (32 - page_bits)
let leaf_bits = 8
let leaf_size = 1 lsl leaf_bits
let leaf_mask = leaf_size - 1
let max_leaves = max_pages / leaf_size
let initial_leaves = 16

type page = Bytes.t

let make_page () : page = Bytes.make page_size '\000'

(* Shared all-zero page: the entry of every never-written page. Reads
   serve from it; the first write to a page replaces it with a fresh
   buffer ({!page_rw}). It never enters the one-entry lookaside — the
   lookaside is a write-through cache and [zero_page] must never be
   written. *)
let zero_page : page = make_page ()

type leaf = {
  pages : page array;  (** [zero_page] = never written *)
  meta : int array;
      (** per page, [(stamp lsl 1) lor watched]: [stamp = gen] iff the page
          is in the current dirty list; [watched] = write hooks fire for
          stores into it. Pages hosting pre-decoded code or installed
          blocks are watched by their consumers; ordinary data stores skip
          hook dispatch entirely. *)
}

let make_leaf () =
  { pages = Array.make leaf_size zero_page; meta = Array.make leaf_size 0 }

(* Shared leaf of every absent region: all pages [zero_page], no stamp
   (generations start at 1), nothing watched. Never written — {!leaf_rw}
   replaces it before any page or metadata store. *)
let empty_leaf = make_leaf ()

(* Unaligned native-endian 16/32-bit access primitives over [Bytes.t], and
   the byte swaps that turn them big-endian. These compile to single
   load/store instructions; the [int32] results/operands are unboxed by
   the compiler when immediately converted, so the accessors below do not
   allocate (the bench's allocation gate enforces this). *)
external unsafe_get_16 : bytes -> int -> int = "%caml_bytes_get16u"
external unsafe_set_16 : bytes -> int -> int -> unit = "%caml_bytes_set16u"
external unsafe_get_32 : bytes -> int -> int32 = "%caml_bytes_get32u"
external unsafe_set_32 : bytes -> int -> int32 -> unit = "%caml_bytes_set32u"
external swap16 : int -> int = "%bswap16"

external swap32 : int32 -> int32 = "%bswap_int32"

exception Misaligned of int

type t = {
  mutable dir : leaf array;  (** leaf index -> leaf; [empty_leaf] = absent *)
  mutable dirty : int array;  (** page indices written in generation [gen] *)
  mutable dirty_n : int;
  mutable gen : int;
  mutable last_ix : int;
      (** page index of [last_page], or -1; only {e materialised} pages
          enter the lookaside — never the shared [zero_page], which a later
          first write to the same page would silently shadow *)
  mutable last_page : page;
  mutable last_leaf : leaf;
      (** the leaf holding [last_page]: a store resolves its page through
          the lookaside and reads the page's metadata from here, so a hit
          walks no directory *)
  mutable write_hooks : (int -> unit) list;
      (** notified with the byte address of every observed mutation made
          through {!write} / {!load_bytes}; a naturally aligned write never
          spans a 32-bit word, so one callback per write suffices for
          word-granular consumers (the pre-decoded instruction store) *)
  mutable reset_hooks : (unit -> unit) list;
      (** notified when derived caches attached to this memory must drop
          everything — today, when the memory is {!copy}ed *)
}

let make dir =
  {
    dir;
    dirty = Array.make 64 0;
    dirty_n = 0;
    gen = 1;
    last_ix = -1;
    last_page = zero_page;
    last_leaf = empty_leaf;
    write_hooks = [];
    reset_hooks = [];
  }

let create () = make (Array.make initial_leaves empty_leaf)

(* A leaf's pages, copied; watch bits and stamps are not carried over. *)
let copy_leaf l =
  if l == empty_leaf then empty_leaf
  else
    {
      pages =
        Array.map (fun p -> if p == zero_page then zero_page else Bytes.copy p) l.pages;
      meta = Array.make leaf_size 0;
    }

let copy m =
  (* Hooks are observers of the *original* memory; the copy starts clean and
     its own consumers re-register. Because the write hooks are dropped, any
     cache derived from the source (pre-decoded instructions, compiled
     plans) that a caller wrongly re-attaches to the copy could serve stale
     entries without ever being invalidated — so tell every derived cache on
     the source to flush at the fork point. Rebuilding is cheap;
     serving a stale decode is not. The copy's lookaside starts cold: it
     must never alias a page of the source. *)
  List.iter (fun f -> f ()) m.reset_hooks;
  make (Array.map copy_leaf m.dir)

let add_watched_write_hook m f = m.write_hooks <- f :: m.write_hooks
let add_reset_hook m f = m.reset_hooks <- f :: m.reset_hooks

let notify_write m addr =
  match m.write_hooks with
  | [] -> ()
  | [ f ] -> f addr
  | fs -> List.iter (fun f -> f addr) fs

(* The leaf covering leaf index [li], [empty_leaf] when absent. *)
let[@inline] leaf_at m li =
  if li < Array.length m.dir then Array.unsafe_get m.dir li else empty_leaf

(* The page at page index [ix], [zero_page] when never written. *)
let[@inline] page_at m ix =
  Array.unsafe_get (leaf_at m (ix lsr leaf_bits)).pages (ix land leaf_mask)

(* Grow the top level to cover leaf index [li]. *)
let grow m li =
  if li >= max_leaves then invalid_arg "Memory: page index out of range";
  let old = Array.length m.dir in
  let n = ref old in
  while !n <= li do
    n := min max_leaves (!n * 2)
  done;
  let dir = Array.make !n empty_leaf in
  Array.blit m.dir 0 dir 0 old;
  m.dir <- dir

(* The leaf covering leaf index [li], created if absent: the only way to
   a leaf that may be written. *)
let leaf_rw m li =
  if li >= Array.length m.dir then grow m li;
  let l = Array.unsafe_get m.dir li in
  if l != empty_leaf then l
  else begin
    let l = make_leaf () in
    Array.unsafe_set m.dir li l;
    l
  end

let watch m addr =
  let ix = (addr land addr_mask) lsr page_bits in
  let l = leaf_rw m (ix lsr leaf_bits) and s = ix land leaf_mask in
  Array.unsafe_set l.meta s (Array.unsafe_get l.meta s lor 1)

let watched m ix =
  Array.unsafe_get (leaf_at m (ix lsr leaf_bits)).meta (ix land leaf_mask)
  land 1
  <> 0

(* Append page [ix] to the dirty list of the current generation; its
   metadata [meta] (not yet stamped with [gen]) sits at [l.meta.(s)]. *)
let journal m l s meta ix =
  Array.unsafe_set l.meta s ((m.gen lsl 1) lor (meta land 1));
  let n = m.dirty_n in
  if n >= Array.length m.dirty then begin
    let d = Array.make (2 * n) 0 in
    Array.blit m.dirty 0 d 0 n;
    m.dirty <- d
  end;
  Array.unsafe_set m.dirty n ix;
  m.dirty_n <- n + 1

(* Record that page [ix] was written: journal it unless already in this
   generation's list, and dispatch hooks if the page is watched. Reads the
   page's metadata through [last_leaf], so it must follow a {!page_rw} of
   the same page. *)
let[@inline] note_write m ix addr =
  let l = m.last_leaf and s = ix land leaf_mask in
  let meta = Array.unsafe_get l.meta s in
  if meta lsr 1 <> m.gen then journal m l s meta ix;
  if meta land 1 <> 0 then notify_write m addr

(* Page resolution with a one-entry lookaside over materialised pages. A
   naturally aligned access never crosses a page, so every read/write below
   resolves its page exactly once — the common case is an integer compare
   and two loads; only a miss walks the directory. *)

let page_ro m ix =
  if ix = m.last_ix then m.last_page
  else begin
    let l = leaf_at m (ix lsr leaf_bits) in
    let p = Array.unsafe_get l.pages (ix land leaf_mask) in
    if p != zero_page then begin
      m.last_ix <- ix;
      m.last_page <- p;
      m.last_leaf <- l
    end;
    p
  end

let page_rw m ix =
  if ix = m.last_ix then m.last_page
  else begin
    let l = leaf_rw m (ix lsr leaf_bits) and s = ix land leaf_mask in
    let p = Array.unsafe_get l.pages s in
    let p =
      if p != zero_page then p
      else begin
        let p = make_page () in
        Array.unsafe_set l.pages s p;
        p
      end
    in
    m.last_ix <- ix;
    m.last_page <- p;
    m.last_leaf <- l;
    p
  end

let check_aligned addr size =
  if addr land (size - 1) <> 0 then raise (Misaligned addr)

let sext v bits =
  let shift = Sys.int_size - bits in
  (v lsl shift) asr shift

(* ---- unsigned direct accessors (the hot-path surface) ---- *)

let[@inline] get8 (p : page) off = Char.code (Bytes.unsafe_get p off)
let[@inline] set8 (p : page) off v = Bytes.unsafe_set p off (Char.unsafe_chr v)

let[@inline] get16_be p off =
  let v = unsafe_get_16 p off in
  if Sys.big_endian then v else swap16 v

let[@inline] set16_be p off v =
  unsafe_set_16 p off (if Sys.big_endian then v else swap16 v)

(* sign-extended: [Int32.to_int] sign-extends, which is exactly the
   representation architectural 32-bit values use in native ints *)
let[@inline] get32_be p off =
  let v = unsafe_get_32 p off in
  Int32.to_int (if Sys.big_endian then v else swap32 v)

let[@inline] set32_be p off v =
  let v = Int32.of_int v in
  unsafe_set_32 p off (if Sys.big_endian then v else swap32 v)

let read_u8 m addr =
  let addr = addr land addr_mask in
  get8 (page_ro m (addr lsr page_bits)) (addr land page_mask)

let read_u16 m addr =
  check_aligned addr 2;
  let addr = addr land addr_mask in
  get16_be (page_ro m (addr lsr page_bits)) (addr land page_mask)

(** Sign-extended 32-bit read (architectural values are kept
    sign-extended). *)
let read_i32 m addr =
  check_aligned addr 4;
  let addr = addr land addr_mask in
  get32_be (page_ro m (addr lsr page_bits)) (addr land page_mask)

let read_u32 m addr = read_i32 m addr land 0xFFFFFFFF

let write_u8 m addr v =
  let addr = addr land addr_mask in
  let ix = addr lsr page_bits in
  set8 (page_rw m ix) (addr land page_mask) (v land 0xFF);
  note_write m ix addr

let write_u16 m addr v =
  check_aligned addr 2;
  let addr = addr land addr_mask in
  let ix = addr lsr page_bits in
  set16_be (page_rw m ix) (addr land page_mask) (v land 0xFFFF);
  note_write m ix addr

let write_u32 m addr v =
  check_aligned addr 4;
  let addr = addr land addr_mask in
  let ix = addr lsr page_bits in
  set32_be (page_rw m ix) (addr land page_mask) v;
  note_write m ix addr

(* ---- generic sized accessors ---- *)

let read m ~addr ~size ~signed =
  match size with
  | 1 ->
    let v = read_u8 m addr in
    if signed then sext v 8 else v
  | 2 ->
    let v = read_u16 m addr in
    if signed then sext v 16 else v
  | 4 ->
    (* 32-bit values are kept sign-extended, signed or not *)
    read_i32 m addr
  | _ -> invalid_arg "Memory.read: size"

let write m ~addr ~size v =
  match size with
  | 1 -> write_u8 m addr v
  | 2 -> write_u16 m addr v
  | 4 -> write_u32 m addr v
  | _ -> invalid_arg "Memory.write: size"

let load_bytes m ~addr s =
  String.iteri
    (fun i c ->
      let a = (addr + i) land addr_mask in
      let ix = a lsr page_bits in
      let p = page_rw m ix in
      set8 p (a land page_mask) (Char.code c);
      (* journal without hook dispatch; notifications below are
         word-granular *)
      let l = m.last_leaf and s = ix land leaf_mask in
      let meta = Array.unsafe_get l.meta s in
      if meta lsr 1 <> m.gen then journal m l s meta ix)
    s;
  if m.write_hooks <> [] && String.length s > 0 then begin
    (* one notification per touched 32-bit word of a watched page *)
    let first = addr land lnot 3 in
    let last = (addr + String.length s - 1) land lnot 3 in
    let w = ref first in
    while !w <= last do
      if watched m ((!w land addr_mask) lsr page_bits) then notify_write m !w;
      w := !w + 4
    done
  end

(** Zero the memory in place, keeping the page buffers (and any registered
    hooks/watches). Used by scratch memories that are recycled wholesale,
    where reallocating the directory per use would cost more than sweeping
    it. Only pages written since the previous [clear] (the dirty journal)
    are zeroed: every other materialised page was zeroed by an earlier
    [clear] and is untouched since, so the sweep is proportional to recent
    use, not to the memory's lifetime footprint. Callers must therefore
    not mix [clear] with {!dirty_clear} on the same memory. Does not fire
    hooks: callers reset their derived structures themselves. *)
let clear m =
  for i = 0 to m.dirty_n - 1 do
    let ix = Array.unsafe_get m.dirty i in
    let p = page_at m ix in
    if p != zero_page then Bytes.fill p 0 page_size '\000'
  done;
  m.dirty_n <- 0;
  m.gen <- m.gen + 1

(* ---- whole-memory comparison ---- *)

(* [Bytes.equal] is a memcmp; physical equality catches the
   absent-page/absent-page case without touching contents. *)
let pages_equal (a : page) (b : page) = a == b || Bytes.equal a b

(* Leaf [li] of both memories, skipped at once when both are absent. *)
let leaves_equal m1 m2 li =
  let l1 = leaf_at m1 li and l2 = leaf_at m2 li in
  l1 == l2
  ||
  let rec go s =
    s >= leaf_size
    || (pages_equal (Array.unsafe_get l1.pages s) (Array.unsafe_get l2.pages s)
       && go (s + 1))
  in
  go 0

let n_leaves m1 m2 = max (Array.length m1.dir) (Array.length m2.dir)

let equal m1 m2 =
  let n = n_leaves m1 m2 in
  let rec go li = li >= n || (leaves_equal m1 m2 li && go (li + 1)) in
  go 0

let first_difference m1 m2 =
  let diff_in ix =
    let p1 = page_at m1 ix and p2 = page_at m2 ix in
    let rec scan off =
      if off >= page_size then None
      else if get8 p1 off <> get8 p2 off then Some ((ix lsl page_bits) lor off)
      else scan (off + 1)
    in
    if pages_equal p1 p2 then None else scan 0
  in
  let rec in_leaf ix stop =
    if ix >= stop then None
    else match diff_in ix with Some _ as r -> r | None -> in_leaf (ix + 1) stop
  in
  let n = n_leaves m1 m2 in
  let rec go li =
    if li >= n then None
    else if leaf_at m1 li == leaf_at m2 li then go (li + 1)
    else
      match in_leaf (li lsl leaf_bits) ((li + 1) lsl leaf_bits) with
      | Some _ as r -> r
      | None -> go (li + 1)
  in
  go 0

(* ---- generation-stamped dirty-page comparison (batched test-mode sync) ---- *)

let rec dirty_list_equal a b (d : int array) i n =
  i >= n
  ||
  let ix = Array.unsafe_get d i in
  pages_equal (page_at a ix) (page_at b ix) && dirty_list_equal a b d (i + 1) n

(* Page [ix] is in [m]'s current dirty list. *)
let stamped m ix =
  Array.unsafe_get (leaf_at m (ix lsr leaf_bits)).meta (ix land leaf_mask)
  lsr 1
  = m.gen

(* Second pass: [b]'s dirty pages, skipping those already compared because
   they are also in [a]'s current dirty list (both sides usually write the
   same working set, so this skip halves the sweep). *)
let rec dirty_list_equal_skip a b (d : int array) i n =
  i >= n
  ||
  let ix = Array.unsafe_get d i in
  (stamped a ix || pages_equal (page_at a ix) (page_at b ix))
  && dirty_list_equal_skip a b d (i + 1) n

(** Ranged comparison over only the pages either memory wrote since its
    last {!dirty_clear}: sound when the caller established [equal a b] at
    that point — unwritten pages are unchanged on both sides. The
    co-simulation sync uses this instead of a full {!equal} sweep. *)
let dirty_equal a b =
  dirty_list_equal a b a.dirty 0 a.dirty_n
  && dirty_list_equal_skip a b b.dirty 0 b.dirty_n

(** Reset the dirty-page journal — call immediately after a successful
    comparison of this memory against its co-simulation partner. *)
let dirty_clear m =
  m.dirty_n <- 0;
  m.gen <- m.gen + 1
