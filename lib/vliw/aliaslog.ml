(** Address-bucketed memory-aliasing log (§3.10).

    The VLIW Engine logs every load and store executed by the current block
    together with its order field, long-instruction index and cross bit, and
    must detect order violations between any overlapping pair. The original
    implementation kept one list of events and scanned all of it on every
    memory operation — O(block memory ops) per access, quadratic per block,
    and measurably hot on wide geometries (a 384-wide block can log hundreds
    of events).

    This module keeps the same events hashed by 16-byte line address: an
    event covering bytes [addr, addr+size) is filed under every line it
    touches, and a new event is checked only against the events sharing one
    of its lines — any overlapping pair shares at least one byte, hence at
    least one line, so no violation can be missed. Running counters of
    cross-bit loads and stores replace the list re-traversals that used to
    maintain Table 3's load/store list sizes. Each memory operation is
    amortized O(1) for the sparse logs real blocks produce.

    Events are stored packed into single OCaml ints inside growable
    per-bucket int arrays, and buckets are recycled across {!clear}s, so
    the sequential fast path logs a memory operation without allocating:
    the only allocations are the one-time bucket creation the first time a
    line is ever touched and the rare capacity doublings.

    The violation predicate is byte-for-byte the §3.10 order rule of the
    original list implementation; [test/test_aliaslog.ml] keeps the old
    list-scan code as an oracle and property-checks the equivalence. *)

exception Alias_violation

(** Mutation-sanity fault injection (test-only). When set, {!add} files
    store events without checking them against the logged loads and stores
    — the classic lost-aliasing-check bug: a store scheduled below a load
    it should have invalidated commits silently instead of raising
    {!Alias_violation}, and the block's reordered memory state survives.
    The fuzz suite flips this to prove the differential oracle catches a
    seeded scheduler-correctness bug ([test/test_fuzz.ml]); it must never
    be set outside tests. *)
let fault_skip_store_check = ref false

type event = {
  ev_addr : int;
  ev_size : int;
  ev_order : int;  (** load/store program order within the block *)
  ev_li : int;  (** long-instruction index executing the access *)
  ev_is_store : bool;
  ev_cross : bool;  (** cross bit: shares a long instruction with a store *)
}

(* Packed event layout (63-bit OCaml int):
     bits  0..31  addr   (32 bits, full uint32 address space)
     bits 32..34  size   (3 bits; accesses are 1/2/4 bytes)
     bits 35..49  order  (15 bits; bounded by block width * height)
     bits 50..60  li     (11 bits; bounded by block height)
     bit  61      is_store
     bit  62      cross  (the sign bit — extracted with lsr, never asr)
   [pack] range-checks order/li/size so an out-of-range field faults
   loudly instead of aliasing into a neighbour. *)

(** The largest block height the li field encodes (2^11 long
    instructions). *)
let max_height = 0x800

(** The largest block (width x height slots) the order field encodes
    (2^15 program-order positions). *)
let max_slots = 0x8000

let pack ~addr ~size ~order ~li ~is_store ~cross =
  if size < 0 || size > 7 || order < 0 || order >= max_slots || li < 0
     || li >= max_height
  then invalid_arg "Aliaslog: event field out of packing range";
  addr land 0xFFFFFFFF
  lor (size lsl 32)
  lor (order lsl 35)
  lor (li lsl 50)
  lor ((if is_store then 1 else 0) lsl 61)
  lor ((if cross then 1 else 0) lsl 62)

let[@inline] p_addr e = e land 0xFFFFFFFF
let[@inline] p_size e = (e lsr 32) land 0x7
let[@inline] p_order e = (e lsr 35) land 0x7FFF
let[@inline] p_li e = (e lsr 50) land 0x7FF
let[@inline] p_is_store e = (e lsr 61) land 1 = 1

(* 16-byte buckets: accesses are at most 4 bytes, so an event spans at most
   two lines and bucket scans stay short even for dense address use. *)
let line_bits = 4

type bucket = { mutable evs : int array; mutable n : int }

(* The line -> bucket map is an open-addressed table with linear probing
   (parallel [keys]/[slots] arrays, key 0 = empty, stored key = line + 1):
   a lookup is a multiply, a mask and usually one array probe, with none of
   the per-call hashing and bucket-list chasing of a [Hashtbl] — this map
   is consulted up to four times per memory operation executed by the
   engine. Buckets are recycled forever; the table only grows. *)
type t = {
  mutable keys : int array;
  mutable slots : bucket array;
  mutable mask : int;  (** capacity - 1; capacity is a power of two *)
  mutable n_used : int;  (** occupied slots, for the load-factor check *)
  mutable touched : bucket array;
      (** buckets filed into since the last clear *)
  mutable n_touched : int;
  mutable n_events : int;
  mutable cross_loads : int;  (** current cross-bit load count (load list) *)
  mutable cross_stores : int;  (** current cross-bit store count (store list) *)
}

let dummy_bucket = { evs = [||]; n = 0 }
let[@inline] slot_of mask line = (line * 0x61C88647) land mask

(* First slot from [i] whose key is [line + 1] or empty. *)
let rec probe_from keys mask line i =
  let k = Array.unsafe_get keys i in
  if k = 0 || k = line + 1 then i
  else probe_from keys mask line ((i + 1) land mask)

let[@inline] find_slot t line =
  probe_from t.keys t.mask line (slot_of t.mask line)

let create () =
  {
    keys = Array.make 256 0;
    slots = Array.make 256 dummy_bucket;
    mask = 255;
    n_used = 0;
    touched = Array.make 64 dummy_bucket;
    n_touched = 0;
    n_events = 0;
    cross_loads = 0;
    cross_stores = 0;
  }

(* Buckets are emptied but never dropped: resetting only the buckets
   touched since the last clear keeps [clear] proportional to the block's
   own footprint, not to every line the program ever accessed. *)
let clear t =
  for i = 0 to t.n_touched - 1 do
    (Array.unsafe_get t.touched i).n <- 0
  done;
  t.n_touched <- 0;
  t.n_events <- 0;
  t.cross_loads <- 0;
  t.cross_stores <- 0

let length t = t.n_events
let cross_loads t = t.cross_loads
let cross_stores t = t.cross_stores

(* §3.10 order rule, made precise with execution positions: a load reads at
   the start of its long instruction, a store commits at the end of its; an
   (older, by order field) store must have committed strictly before a
   younger load reads, and store/store pairs must commit in order. *)
let violates ~is_store ~order ~li_idx (e : event) =
  e.ev_order <> order
  &&
  if is_store then
    if e.ev_is_store then
      (order < e.ev_order && li_idx >= e.ev_li)
      || (order > e.ev_order && li_idx <= e.ev_li)
    else
      (* store S vs load L: S before L (order) requires commit li < read li *)
      (order < e.ev_order && li_idx >= e.ev_li)
      || (order > e.ev_order && li_idx < e.ev_li)
  else
    e.ev_is_store
    && ((e.ev_order < order && e.ev_li >= li_idx)
       || (e.ev_order > order && e.ev_li < li_idx))

(* The same predicate on a packed event, with the overlap test fused in. *)
let[@inline] packed_violates ~addr ~size ~is_store ~order ~li_idx e =
  let ea = p_addr e in
  addr < ea + p_size e
  && ea < addr + size
  &&
  let eo = p_order e in
  eo <> order
  &&
  let el = p_li e in
  if is_store then
    if p_is_store e then
      (order < eo && li_idx >= el) || (order > eo && li_idx <= el)
    else (order < eo && li_idx >= el) || (order > eo && li_idx < el)
  else
    p_is_store e
    && ((eo < order && el >= li_idx) || (eo > order && el < li_idx))

let rec check_bucket b ~addr ~size ~is_store ~order ~li_idx i =
  if i < b.n then begin
    if
      packed_violates ~addr ~size ~is_store ~order ~li_idx
        (Array.unsafe_get b.evs i)
    then raise Alias_violation;
    check_bucket b ~addr ~size ~is_store ~order ~li_idx (i + 1)
  end

(* Double the table, re-probing every occupied slot into the new arrays. *)
let grow t =
  let keys = t.keys and slots = t.slots in
  let cap = 2 * (t.mask + 1) in
  let mask = cap - 1 in
  let keys' = Array.make cap 0 and slots' = Array.make cap dummy_bucket in
  for i = 0 to Array.length keys - 1 do
    let k = keys.(i) in
    if k <> 0 then begin
      let j = probe_from keys' mask (k - 1) (slot_of mask (k - 1)) in
      keys'.(j) <- k;
      slots'.(j) <- slots.(i)
    end
  done;
  t.keys <- keys';
  t.slots <- slots';
  t.mask <- mask

let file t line packed =
  let i = find_slot t line in
  let b =
    if Array.unsafe_get t.keys i <> 0 then Array.unsafe_get t.slots i
    else begin
      let b = { evs = Array.make 8 0; n = 0 } in
      t.keys.(i) <- line + 1;
      t.slots.(i) <- b;
      t.n_used <- t.n_used + 1;
      (* keep the load factor at most 1/2 *)
      if 2 * t.n_used > t.mask then grow t;
      b
    end
  in
  if b.n = Array.length b.evs then begin
    let evs = Array.make (2 * b.n) 0 in
    Array.blit b.evs 0 evs 0 b.n;
    b.evs <- evs
  end;
  (* first event in this bucket since the clear: remember the bucket *)
  if b.n = 0 then begin
    if t.n_touched = Array.length t.touched then begin
      let touched = Array.make (2 * t.n_touched) dummy_bucket in
      Array.blit t.touched 0 touched 0 t.n_touched;
      t.touched <- touched
    end;
    t.touched.(t.n_touched) <- b;
    t.n_touched <- t.n_touched + 1
  end;
  b.evs.(b.n) <- packed;
  b.n <- b.n + 1

(** Check the event against every overlapping logged event, then log it —
    the allocation-free entry point used by the engine's sequential path.
    @raise Alias_violation on an order violation; the event is not logged
    and the counters are untouched, exactly as the list implementation left
    its log when raising mid-scan. *)
let log t ~addr ~size ~order ~li ~is_store ~cross =
  let lo = addr lsr line_bits in
  let hi = (addr + size - 1) lsr line_bits in
  if not (is_store && !fault_skip_store_check) then
    for line = lo to hi do
      let i = find_slot t line in
      if Array.unsafe_get t.keys i <> 0 then
        check_bucket (Array.unsafe_get t.slots i) ~addr ~size ~is_store ~order
          ~li_idx:li 0
    done;
  let packed = pack ~addr ~size ~order ~li ~is_store ~cross in
  for line = lo to hi do
    file t line packed
  done;
  t.n_events <- t.n_events + 1;
  if cross then
    if is_store then t.cross_stores <- t.cross_stores + 1
    else t.cross_loads <- t.cross_loads + 1

(** Record-taking wrapper around {!log}. *)
let add t (ev : event) =
  log t ~addr:ev.ev_addr ~size:ev.ev_size ~order:ev.ev_order ~li:ev.ev_li
    ~is_store:ev.ev_is_store ~cross:ev.ev_cross
