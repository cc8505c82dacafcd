(** SRISC architectural state.

    The integer register file is the physical SPARC-style windowed file:
    8 globals followed by [nwindows] overlapping windows of 16 registers
    (8 locals + 8 outs each; a window's ins are the next window's outs).
    [save] decrements the current window pointer (cwp). *)

type icc = int
(** Condition codes packed as a 4-bit integer: bit 3 = N, 2 = Z, 1 = V,
    0 = C. *)

type t = {
  mutable pc : int;
  iregs : int array;  (** physical integer registers: [8 + nwindows*16] *)
  fregs : int array;  (** 32 single-precision registers as raw bit patterns *)
  mutable icc : icc;
  mutable cwp : int;
  mutable wdepth : int;  (** windows currently in use (0 after reset) *)
  mutable wspill_sp : int;  (** top of the window spill stack *)
  mem : Dts_mem.Memory.t;
  predecode : Predecode.t;
      (** per-state pre-decoded instruction store over [mem]; fetch through
          it ({!Predecode.fetch_uop}) instead of {!Encode.fetch} on hot paths *)
  nwindows : int;
  mutable instret : int;  (** retired instruction count *)
  mutable halted : bool;
  mutable traps : int;  (** serviced trap count *)
  (* Dirty-register journal: indices written since the last {!dirty_clear}
     (integer register index, or [n_iregs + f] for fp register [f]).
     Test-mode synchronisation compares two states at every block boundary;
     journalling lets it compare only the handful of registers either side
     wrote since the previous successful compare instead of walking the
     whole windowed register file. The journal is conservative: an
     overflow flips [dirty_all] and the next comparison falls back to the
     full scan. The journal starts at 64 entries and doubles on demand up
     to [max_dirty]: a fresh state keeps it in the minor heap, and only a
     state whose syncs are far apart pays for a long one. A state starts
     with [dirty_all] set — journaling off — because standalone engines
     (golden runs, Primary-only benchmarks) never compare and should not
     pay the per-write journal append; the co-simulation turns journaling
     on by calling {!dirty_clear} on both states at the moment it
     establishes their equality. *)
  mutable dirty_idx : int array;
  mutable n_dirty : int;
  mutable dirty_all : bool;
}

let n_visible = 32
let max_dirty = 1024
let n_globals = 8

let create ?(nwindows = 32) ?mem () =
  let mem = match mem with Some m -> m | None -> Dts_mem.Memory.create () in
  {
    pc = Layout.text_base;
    iregs = Array.make (n_globals + (nwindows * 16)) 0;
    fregs = Array.make 32 0;
    icc = 0;
    cwp = 0;
    wdepth = 0;
    wspill_sp = Layout.wspill_base;
    mem;
    predecode = Predecode.create mem;
    nwindows;
    instret = 0;
    halted = false;
    traps = 0;
    dirty_idx = Array.make 64 0;
    n_dirty = 0;
    dirty_all = true;
  }

let n_phys_iregs st = Array.length st.iregs

(** Physical index of visible register [r] (0..31) under window [cwp]. *)
let phys ~nwindows ~cwp r =
  if r < 0 || r >= n_visible then invalid_arg "State.phys";
  if r < n_globals then r
  else
    let base =
      if r < 16 then (cwp * 16) + (r - 8) (* outs *)
      else if r < 24 then (cwp * 16) + 8 + (r - 16) (* locals *)
      else ((cwp + 1) mod nwindows * 16) + (r - 24) (* ins *)
    in
    n_globals + (base mod (nwindows * 16))

let phys_of st ~cwp r = phys ~nwindows:st.nwindows ~cwp r

(** {!phys} without the bounds check, for callers whose [r] comes out of a
    5-bit field and is therefore already in 0..31, and whose [cwp] is an
    architectural window pointer already in [0, nwindows). Under those
    preconditions the only wraparound is the ins region of the last window,
    so the two integer divisions of {!phys} reduce to one compare. *)
let phys_fast ~nwindows ~cwp r =
  if r < n_globals then r
  else if r < 16 then n_globals + (cwp * 16) + (r - 8)
  else if r < 24 then n_globals + (cwp * 16) + 8 + (r - 16)
  else
    let c = cwp + 1 in
    let c = if c >= nwindows then 0 else c in
    n_globals + (c * 16) + (r - 24)

let phys_fast_of st ~cwp r = phys_fast ~nwindows:st.nwindows ~cwp r

let get_reg st ~cwp r =
  if r = 0 then 0 else st.iregs.(phys_of st ~cwp r)

(* A full journal: double it, or past [max_dirty] give up journalling
   until the next {!dirty_clear}. *)
let journal_full st i =
  let n = st.n_dirty in
  if n >= max_dirty then st.dirty_all <- true
  else begin
    let d = Array.make (2 * n) 0 in
    Array.blit st.dirty_idx 0 d 0 n;
    Array.unsafe_set d n i;
    st.dirty_idx <- d;
    st.n_dirty <- n + 1
  end

(* Journal a write of physical index [i] ([n_iregs + f] for an freg).
   Every architectural register write funnels through {!set_phys} /
   {!set_freg}, so the journal is complete; on overflow the state just
   degrades to full-scan comparison. *)
let[@inline] mark_dirty st i =
  if not st.dirty_all then begin
    let n = st.n_dirty in
    if n < Array.length st.dirty_idx then begin
      Array.unsafe_set st.dirty_idx n i;
      st.n_dirty <- n + 1
    end
    else journal_full st i
  end

let get_phys st p = if p = 0 then 0 else st.iregs.(p)

let set_phys st p v =
  if p <> 0 then begin
    st.iregs.(p) <- v;
    mark_dirty st p
  end

let set_freg st f v =
  st.fregs.(f) <- v;
  mark_dirty st (Array.length st.iregs + f)

let set_reg st ~cwp r v = if r <> 0 then set_phys st (phys_of st ~cwp r) v

(* icc accessors *)
let icc_n icc = icc land 8 <> 0
let icc_z icc = icc land 4 <> 0
let icc_v icc = icc land 2 <> 0
let icc_c icc = icc land 1 <> 0

let make_icc ~n ~z ~v ~c =
  (if n then 8 else 0)
  lor (if z then 4 else 0)
  lor (if v then 2 else 0)
  lor if c then 1 else 0

let copy st =
  let mem = Dts_mem.Memory.copy st.mem in
  {
    st with
    iregs = Array.copy st.iregs;
    fregs = Array.copy st.fregs;
    dirty_idx = Array.copy st.dirty_idx;
    mem;
    (* a fresh store hooked to the fresh memory: decodes must not be shared
       with (or invalidated by) the original *)
    predecode = Predecode.create mem;
  }

(* Monomorphic int-array equality: the polymorphic [=] routes every element
   through the generic comparator, which made the per-sync register check
   the hottest function in test mode. *)
let rec int_arrays_equal_from (a : int array) (b : int array) i n =
  i >= n
  || (Array.unsafe_get a i = Array.unsafe_get b i
     && int_arrays_equal_from a b (i + 1) n)

let int_arrays_equal (a : int array) (b : int array) =
  let n = Array.length a in
  Array.length b = n && int_arrays_equal_from a b 0 n

(** [blit_ints src dst] copies all of [src] over [dst] (equal lengths).
    [Array.blit] on an old-heap destination runs the per-element pointer
    write barrier because it cannot know the elements are immediates; this
    monomorphic loop compiles to plain stores, which matters for the
    register-file checkpoints taken at every block entry. *)
let blit_ints (src : int array) (dst : int array) =
  if Array.length src <> Array.length dst then invalid_arg "State.blit_ints";
  for i = 0 to Array.length src - 1 do
    Array.unsafe_set dst i (Array.unsafe_get src i)
  done

(** Register-and-flags equality (the cheap per-block test-mode check). *)
let regs_equal a b =
  a.pc = b.pc && a.icc = b.icc && a.cwp = b.cwp && a.wdepth = b.wdepth
  && a.wspill_sp = b.wspill_sp
  && int_arrays_equal a.iregs b.iregs
  && int_arrays_equal a.fregs b.fregs

(** Full state equality including memory (the expensive periodic check). *)
let equal a b = regs_equal a b && Dts_mem.Memory.equal a.mem b.mem

(* Compare [a] and [b] at the indices journalled in [j] (either state's
   journal; unjournalled indices are unchanged on both sides since the
   last {!dirty_clear}, when the states compared equal). *)
let rec dirty_entries_equal a b (j : int array) i n ni =
  i >= n
  ||
  let idx = Array.unsafe_get j i in
  (if idx < ni then Array.unsafe_get a.iregs idx = Array.unsafe_get b.iregs idx
   else
     Array.unsafe_get a.fregs (idx - ni) = Array.unsafe_get b.fregs (idx - ni))
  && dirty_entries_equal a b j (i + 1) n ni

(** Journalled {!regs_equal}: sound only under the sync discipline — the
    caller established [regs_equal a b] at the last {!dirty_clear} of both
    states and every register write since went through {!set_phys} /
    {!set_freg} / {!set_reg}. Falls back to the full scan when either
    journal overflowed. *)
let dirty_regs_equal a b =
  if a.dirty_all || b.dirty_all then regs_equal a b
  else
    a.pc = b.pc && a.icc = b.icc && a.cwp = b.cwp && a.wdepth = b.wdepth
    && a.wspill_sp = b.wspill_sp
    && let ni = Array.length a.iregs in
       dirty_entries_equal a b a.dirty_idx 0 a.n_dirty ni
       && dirty_entries_equal a b b.dirty_idx 0 b.n_dirty ni

(** Reset the dirty journal — call immediately after a successful
    comparison of this state against its co-simulation partner. *)
let dirty_clear st =
  st.n_dirty <- 0;
  st.dirty_all <- false

let pp_diff fmt (a, b) =
  let open Format in
  if a.pc <> b.pc then fprintf fmt "pc: %#x vs %#x@ " a.pc b.pc;
  if a.icc <> b.icc then fprintf fmt "icc: %d vs %d@ " a.icc b.icc;
  if a.cwp <> b.cwp then fprintf fmt "cwp: %d vs %d@ " a.cwp b.cwp;
  if a.wdepth <> b.wdepth then
    fprintf fmt "wdepth: %d vs %d@ " a.wdepth b.wdepth;
  Array.iteri
    (fun i v ->
      if v <> b.iregs.(i) then fprintf fmt "ireg[%d]: %d vs %d@ " i v b.iregs.(i))
    a.iregs;
  Array.iteri
    (fun i v ->
      if v <> b.fregs.(i) then fprintf fmt "freg[%d]: %#x vs %#x@ " i v b.fregs.(i))
    a.fregs;
  match Dts_mem.Memory.first_difference a.mem b.mem with
  | Some addr -> fprintf fmt "mem[%#x] differs@ " addr
  | None -> ()
