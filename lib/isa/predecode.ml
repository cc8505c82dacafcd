(** The pre-decoded instruction store.

    {!Encode.fetch} performs a full 32-bit word decode — field extraction,
    subfield validation, constructor allocation — and the Primary Processor
    and the golden test machine both call it on {e every} cycle, almost
    always at an address whose word has not changed since the last visit.
    This module memoizes the decode per code address: the first fetch of an
    address decodes and records the instruction; subsequent fetches return
    the recorded decode without touching memory.

    Correctness under self-modifying code: the store registers a
    {!Dts_mem.Memory.add_watched_write_hook} observer at creation and puts
    every page it caches a decode for under {!Dts_mem.Memory.watch}; any
    memory write overlapping a cached word then invalidates exactly that
    word's entry (an aligned 1/2/4-byte write never spans a word, so the
    word containing the written byte is the only one affected). The next
    fetch of that address re-reads memory and re-decodes. Writes to pages
    that never hosted a decode (ordinary data stores) skip hook dispatch
    entirely — the watched-page test is part of the memory's own write
    path.

    Decoded entries are held in per-page arrays (256 instruction slots per
    1 KiB of code) with a one-page lookaside, so the hot path — refetching
    the instruction the PC pointed at a moment ago — is an integer compare,
    an array load and a tag check. Pages are 256 slots so that each of
    their two arrays stays in the minor heap (arrays above 256 words are
    allocated directly in the major heap): a short program's handful of
    code pages then costs its machine's set-up almost nothing. *)

let page_bits = 10
let page_size = 1 lsl (page_bits - 2) (* instruction slots per page *)
let page_mask = (1 lsl page_bits) - 1

(** One decoded page: the boxed decode and its packed {!Uop} form are
    cached side by side, filled together on the first fetch of a word, so
    the sequential engines ({!fetch_uop}) read a single immediate int and
    {!instr_at} still gets its [Instr.t] without re-decoding. *)
type page = {
  insns : Instr.t option array;
  uops : int array;  (** {!Uop.none} where [insns] holds [None] *)
}

type t = {
  mem : Dts_mem.Memory.t;
  pages : (int, page) Hashtbl.t;  (** page index -> slots *)
  mutable last_idx : int;  (** page index of [last_page]; -1 = none *)
  mutable last_page : page;
  mutable decodes : int;  (** fetches that had to decode *)
  mutable hits : int;  (** fetches served from the store *)
  mutable invalidations : int;  (** entries dropped by overlapping writes *)
}

let no_page : page = { insns = [||]; uops = [||] }

let invalidate t addr =
  let word = addr land lnot 3 in
  match Hashtbl.find_opt t.pages (word lsr page_bits) with
  | None -> ()
  | Some pg ->
    let slot = (word land page_mask) lsr 2 in
    if pg.insns.(slot) <> None then begin
      pg.insns.(slot) <- None;
      pg.uops.(slot) <- Uop.none;
      t.invalidations <- t.invalidations + 1
    end

(** Drop every cached decode (the lookaside included). Fired through the
    memory's reset hook when the memory is {!Dts_mem.Memory.copy}ed: the
    copy severs the write-hook link, so a store that kept serving from its
    pre-fork contents could never be invalidated again. *)
let clear t =
  Hashtbl.reset t.pages;
  t.last_idx <- -1;
  t.last_page <- no_page

let create mem =
  let t =
    {
      mem;
      pages = Hashtbl.create 16;
      last_idx = -1;
      last_page = no_page;
      decodes = 0;
      hits = 0;
      invalidations = 0;
    }
  in
  (* A watched hook, not a whole-memory one: {!decode_slot} marks each page
     it caches a decode for, so SMC invalidation sees every store into a
     code-hosting page while ordinary data stores skip hook dispatch
     entirely. *)
  Dts_mem.Memory.add_watched_write_hook mem (invalidate t);
  Dts_mem.Memory.add_reset_hook mem (fun () -> clear t);
  t

let page_for t idx =
  match Hashtbl.find_opt t.pages idx with
  | Some p -> p
  | None ->
    let p =
      { insns = Array.make page_size None; uops = Array.make page_size Uop.none }
    in
    Hashtbl.replace t.pages idx p;
    p

let page_at t idx =
  if idx = t.last_idx then t.last_page
  else begin
    let p = page_for t idx in
    t.last_idx <- idx;
    t.last_page <- p;
    p
  end

(* decode the word at [addr] and fill both forms of its slot; the page now
   hosts a cached decode, so put it under write watch *)
let decode_slot t pg ~addr ~slot =
  let instr = Encode.fetch t.mem ~addr in
  pg.insns.(slot) <- Some instr;
  pg.uops.(slot) <- Uop.of_instr ~pc:addr instr;
  t.decodes <- t.decodes + 1;
  Dts_mem.Memory.watch t.mem addr

(** Fetch and decode the instruction at [addr] in packed form, reusing a
    previous decode of the same (unmodified) word when one exists: the
    counting fetch of the sequential engines. Returns the micro-op as an
    immediate int; decodes (and caches both forms) on a cold slot.
    Misaligned addresses are never cached — they fall through to
    {!Encode.fetch}, which raises. *)
let fetch_uop t ~addr =
  if addr land 3 <> 0 then
    Uop.of_instr ~pc:addr (Encode.fetch t.mem ~addr)
  else begin
    let pg = page_at t (addr lsr page_bits) in
    let slot = (addr land page_mask) lsr 2 in
    let u = Array.unsafe_get pg.uops slot in
    if u <> Uop.none then begin
      t.hits <- t.hits + 1;
      u
    end
    else begin
      decode_slot t pg ~addr ~slot;
      pg.uops.(slot)
    end
  end

(** The boxed decode of the word at [addr], without counting as a fetch or
    touching the cache: serves the cached slot when warm, decodes straight
    from memory (uncached, uncounted) when cold. Callers pair it with a
    counting {!fetch_uop} of the same address, so one fetch counts once. *)
let instr_at t ~addr =
  if addr land 3 <> 0 then Encode.fetch t.mem ~addr
  else begin
    let pg = page_at t (addr lsr page_bits) in
    let slot = (addr land page_mask) lsr 2 in
    match Array.unsafe_get pg.insns slot with
    | Some instr -> instr
    | None -> Encode.fetch t.mem ~addr
  end

let hits t = t.hits
let decodes t = t.decodes
let invalidations t = t.invalidations
