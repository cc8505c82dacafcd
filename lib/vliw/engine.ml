(** The VLIW Engine (§3.5, §3.8–3.11).

    Executes blocks of long instructions fetched from the VLIW Cache, one
    long instruction per cycle. All operations of a long instruction read
    the architectural state as it was at the start of the cycle; writes are
    buffered and applied at the end. Renamed operations write renaming
    registers; copy instructions deliver renaming registers to their
    architectural targets when their branch tag proves valid.

    Conditional and indirect branches are re-evaluated and compared against
    the direction recorded during scheduling; the tag system (§3.8) decides
    which operations of the long instruction commit. Memory aliasing is
    detected with order fields (§3.10), and exceptions use block-granularity
    checkpointing (§3.11).

    Two execution paths share the same per-block state and semantics:

    - the {e plan executor} ({!enter_plan}) runs a block pre-compiled by
      {!Plan} — per-op association lists are already resolved to arrays and
      the per-cycle working set (renaming-register arena, buffered
      write/store vectors, checkpoint shadow, recovery log, data store
      list) lives in preallocated, growable scratch storage reused across
      blocks, so steady-state execution allocates nothing;
    - the {e interpreter} ({!enter_block}) walks the block's scheduling
      structures directly. It is the reference the differential tests
      compare the plan executor against, and the [?compile:false] escape
      hatch of {!Dts_core.Machine.create}. *)

open Dts_sched.Schedtypes


type rr_entry = {
  mutable v : int;
  mutable m_addr : int;  (** memory renaming registers: buffered store *)
  mutable m_size : int;
  mutable exn : Dts_isa.Semantics.trap option;
}

type exn_kind = E_aliasing | E_trap of Dts_isa.Semantics.trap

(** How stores and exception recovery work (§3.11): the paper's implemented
    scheme checkpoints overwritten data, or the alternative it describes but
    did not build — stores buffer in a data store list and drain to memory
    in order when the block commits. *)
type store_scheme = Checkpoint_recovery | Data_store_list

type li_result =
  | R_next
  | R_block_end of { next_addr : int }
  | R_redirect of { target : int }  (** mispredicted branch, actual target *)
  | R_exn of exn_kind

type mem_event = Aliaslog.event = {
  ev_addr : int;
  ev_size : int;
  ev_order : int;
  ev_li : int;
  ev_is_store : bool;
  ev_cross : bool;
}

(** The §3.11 checkpoint scalars. Register-file recovery is handled by the
    undo log ([undo_idx]/[undo_val] on the engine): the writeback loop
    records each overwritten register value, so taking a checkpoint costs
    nothing and recovery replays the (short) log backwards instead of
    restoring a full register-file snapshot. *)
type shadow = {
  mutable sh_icc : int;
  mutable sh_cwp : int;
  mutable sh_wdepth : int;
  mutable sh_wspill_sp : int;
  mutable sh_pc : int;
}

type t = {
  st : Dts_isa.State.t;
  dcache : Dts_mem.Cache.t;
  scheme : store_scheme;
  mutable rr : rr_entry array array;
      (** per {!rr_kind} arena, grown to the high-water [rr_counts] of the
          blocks seen and reset in place at block entry *)
  shadow : shadow;
  mutable shadow_valid : bool;
  (* register undo log: (index, overwritten value) pairs in write order,
     where index is a physical integer register or [n_iregs + f] for fp
     register [f]; replayed newest-first by {!rollback} *)
  mutable undo_idx : int array;
  mutable undo_val : int array;
  mutable undo_n : int;
  (* checkpoint recovery store list (addr, size, old value) as parallel
     growable arrays; undone newest-first on rollback *)
  mutable rec_addr : int array;
  mutable rec_size : int array;
  mutable rec_old : int array;
  mutable n_recovery : int;
  (* buffered store ranges (addr, size, order) as parallel arrays *)
  mutable dsl_addr : int array;
  mutable dsl_size : int array;
  mutable dsl_order : int array;
  mutable dsl_n : int;
  dsl_bytes : (int, int) Hashtbl.t;
      (** byte address -> last byte value buffered in the data store list;
          loads and the commit drain read the buffered data here, and a
          load probes it instead of scanning every buffered range per
          byte *)
  mem_log : Aliaslog.t;  (** per-block aliasing log (§3.10), bucketed *)
  mutable wdelta : int;
      (** window-relative replay: runtime entry cwp minus build-time entry
          cwp (mod nwindows), applied to every baked cwp and physical
          register position *)
  (* ---- plan-execution scratch, reused across cycles and blocks ---- *)
  mutable plan_on : bool;
      (** set while replaying a compiled plan ([plan_v]); clear interprets *)
  mutable plan_v : Plan.variant;
  mutable bufs : Dts_isa.Semantics.outcome_buf array;
      (** phase-1 results, indexed like the current pli's op array *)
  (* buffered register/flag/window writes as unboxed parallel arrays:
     kind ({!wk_phys}…), first payload (position / cwp), second payload
     (value / window depth) — no [write] constructor is boxed per cycle *)
  mutable bw_kind : int array;
  mutable bw_a : int array;
  mutable bw_b : int array;
  mutable bw_n : int;
  mutable bs_addr : int array;  (** buffered stores *)
  mutable bs_size : int array;
  mutable bs_val : int array;
  mutable bs_order : int array;
  mutable bs_n : int;
  (* the substitution view of the op currently in phase 1; plan_ov's
     closures read this field, so one override record serves every op —
     and publishing a whole context is a single (write-barriered) store *)
  mutable cur_subs : Plan.subs;
  mutable plan_ov : Dts_isa.Semantics.read_ov_fast option;
      (** the one override record the plan executor passes to
          {!Dts_isa.Semantics.exec_into_ov}; its closures read the
          [cur_subs] field above *)
  mutable pen : int;
      (** data-cache penalty cycles of the last {!exec_li} *)
  stats : Dts_obs.Stats.t;
      (** the run's counter record, shared with the machine; the engine
          updates its own counters in it *)
  tracer : Dts_obs.Trace.t;
      (** event sink for rollback/aliasing observability; the machine
          stamps its cycle on it each step *)
}

let fresh_rr () = { v = 0; m_addr = 0; m_size = 0; exn = None }
let rr_of t (r : rref) = t.rr.(rr_kind_index r.kind).(r.ridx)

(* First match in [pos_arr] (list order = [List.assoc] order), or -1.
   Top-level recursion: a local [go] would be a fresh closure per call. *)
let rec probe_idx_from pos_arr p i n =
  if i >= n then -1
  else if Array.unsafe_get pos_arr i = p then i
  else probe_idx_from pos_arr p (i + 1) n

let[@inline] probe_idx pos_arr p = probe_idx_from pos_arr p 0 (Array.length pos_arr)

(* buffered-write kinds (see the [bw_*] parallel arrays) *)
let wk_phys = 0
let wk_freg = 1
let wk_icc = 2
let wk_win = 3

(* data-store-list scheme: loads read the list and the data cache
   simultaneously, preferring the last data stored on a hit (§3.11).
   Answers {!Dts_isa.Semantics.no_val} when the list holds no byte of the
   range — the caller falls through to architectural memory. *)
let dsl_read_fast t ~addr ~size ~signed =
  if t.dsl_n = 0 then Dts_isa.Semantics.no_val
  else begin
    let any = ref false in
    for b = addr to addr + size - 1 do
      if Hashtbl.mem t.dsl_bytes b then any := true
    done;
    if not !any then Dts_isa.Semantics.no_val
    else begin
      let v = ref 0 in
      for b = addr to addr + size - 1 do
        let byte =
          if Hashtbl.mem t.dsl_bytes b then Hashtbl.find t.dsl_bytes b
          else Dts_mem.Memory.read_u8 t.st.mem b
        in
        v := (!v lsl 8) lor byte
      done;
      let raw = !v in
      if signed then
        (raw lsl (Sys.int_size - (size * 8))) asr (Sys.int_size - (size * 8))
      else raw
    end
  end

let dsl_read t ~addr ~size ~signed =
  let v = dsl_read_fast t ~addr ~size ~signed in
  if v = Dts_isa.Semantics.no_val then None else Some v

let create ?(scheme = Checkpoint_recovery) ?(tracer = Dts_obs.Trace.null)
    ~stats ~dcache st =
  let t =
    {
      st;
      dcache;
      scheme;
      rr = Array.make 4 [||];
      shadow =
        { sh_icc = 0; sh_cwp = 0; sh_wdepth = 0; sh_wspill_sp = 0; sh_pc = 0 };
      shadow_valid = false;
      undo_idx = Array.make 256 0;
      undo_val = Array.make 256 0;
      undo_n = 0;
      rec_addr = [||];
      rec_size = [||];
      rec_old = [||];
      n_recovery = 0;
      dsl_addr = [||];
      dsl_size = [||];
      dsl_order = [||];
      dsl_n = 0;
      dsl_bytes = Hashtbl.create 64;
      mem_log = Aliaslog.create ();
      wdelta = 0;
      plan_on = false;
      plan_v = { Plan.v_wdelta = 0; v_lis = [||] };
      bufs = [||];
      bw_kind = [||];
      bw_a = [||];
      bw_b = [||];
      bw_n = 0;
      bs_addr = [||];
      bs_size = [||];
      bs_val = [||];
      bs_order = [||];
      bs_n = 0;
      cur_subs = Plan.no_subs;
      plan_ov = None;
      pen = 0;
      tracer;
      stats;
    }
  in
  t.plan_ov <-
    Some
      {
        ovf_phys =
          (fun p ->
            let s = t.cur_subs in
            let j = probe_idx_from s.Plan.sp_pos p 0 (Array.length s.Plan.sp_pos) in
            if j < 0 then Dts_isa.Semantics.no_val
            else (rr_of t s.Plan.sp_rr.(j)).v);
        ovf_freg =
          (fun f ->
            let s = t.cur_subs in
            let j = probe_idx_from s.Plan.sf_pos f 0 (Array.length s.Plan.sf_pos) in
            if j < 0 then Dts_isa.Semantics.no_val
            else (rr_of t s.Plan.sf_rr.(j)).v);
        ovf_icc =
          (fun () ->
            match t.cur_subs.Plan.s_icc with
            | Some rr -> (rr_of t rr).v
            | None -> Dts_isa.Semantics.no_val);
        ovf_mem = (fun ~addr ~size ~signed -> dsl_read_fast t ~addr ~size ~signed);
      };
  t

(* ------------------------------------------------------------------ *)
(* Growable scratch vectors                                             *)
(* ------------------------------------------------------------------ *)

let grown a n = Array.append a (Array.make (max 16 (max n (Array.length a))) 0)

let push_bw t kind a bv =
  if t.bw_n >= Array.length t.bw_kind then begin
    t.bw_kind <- grown t.bw_kind 1;
    t.bw_a <- grown t.bw_a 1;
    t.bw_b <- grown t.bw_b 1
  end;
  t.bw_kind.(t.bw_n) <- kind;
  t.bw_a.(t.bw_n) <- a;
  t.bw_b.(t.bw_n) <- bv;
  t.bw_n <- t.bw_n + 1

(* interpreter-side shim: decompose a boxed {!Dts_isa.Semantics.write} *)
let push_write t (w : Dts_isa.Semantics.write) =
  match w with
  | W_phys (p, v) -> push_bw t wk_phys p v
  | W_freg (f, v) -> push_bw t wk_freg f v
  | W_icc v -> push_bw t wk_icc 0 v
  | W_win (cwp, depth) -> push_bw t wk_win cwp depth

let push_bs t addr size v order =
  if t.bs_n >= Array.length t.bs_addr then begin
    t.bs_addr <- grown t.bs_addr 1;
    t.bs_size <- grown t.bs_size 1;
    t.bs_val <- grown t.bs_val 1;
    t.bs_order <- grown t.bs_order 1
  end;
  t.bs_addr.(t.bs_n) <- addr;
  t.bs_size.(t.bs_n) <- size;
  t.bs_val.(t.bs_n) <- v;
  t.bs_order.(t.bs_n) <- order;
  t.bs_n <- t.bs_n + 1

let push_recovery t addr size old =
  if t.n_recovery >= Array.length t.rec_addr then begin
    t.rec_addr <- grown t.rec_addr 1;
    t.rec_size <- grown t.rec_size 1;
    t.rec_old <- grown t.rec_old 1
  end;
  t.rec_addr.(t.n_recovery) <- addr;
  t.rec_size.(t.n_recovery) <- size;
  t.rec_old.(t.n_recovery) <- old;
  t.n_recovery <- t.n_recovery + 1

let push_dsl t addr size v order =
  if t.dsl_n >= Array.length t.dsl_addr then begin
    t.dsl_addr <- grown t.dsl_addr 1;
    t.dsl_size <- grown t.dsl_size 1;
    t.dsl_order <- grown t.dsl_order 1
  end;
  t.dsl_addr.(t.dsl_n) <- addr;
  t.dsl_size.(t.dsl_n) <- size;
  t.dsl_order.(t.dsl_n) <- order;
  t.dsl_n <- t.dsl_n + 1;
  (* big-endian, as {!Dts_mem.Memory.write} lays the low [size] bytes out *)
  for k = 0 to size - 1 do
    Hashtbl.replace t.dsl_bytes (addr + k)
      ((v lsr (8 * (size - 1 - k))) land 0xFF)
  done

(* the buffered value of a whole range, zero-extended; every byte of it
   must be in the list *)
let dsl_range t addr size =
  let v = ref 0 in
  for b = addr to addr + size - 1 do
    v := (!v lsl 8) lor Hashtbl.find t.dsl_bytes b
  done;
  !v

let clear_dsl t =
  if t.dsl_n > 0 then begin
    Hashtbl.reset t.dsl_bytes;
    t.dsl_n <- 0
  end

(* ------------------------------------------------------------------ *)
(* Block entry                                                          *)
(* ------------------------------------------------------------------ *)

(** Checkpoint (§3.11): record the scalar state in the preallocated shadow,
    reset the register undo log, and reset the per-block structures. The
    renaming-register arena is grown to the block's [rr_counts] high-water
    mark once and reset in place afterwards. Called at the start of every
    block's execution. *)
let reset_for_block t (block : block) =
  let st = t.st in
  let sh = t.shadow in
  t.undo_n <- 0;
  sh.sh_icc <- st.icc;
  sh.sh_cwp <- st.cwp;
  sh.sh_wdepth <- st.wdepth;
  sh.sh_wspill_sp <- st.wspill_sp;
  sh.sh_pc <- st.pc;
  t.shadow_valid <- true;
  t.n_recovery <- 0;
  clear_dsl t;
  Aliaslog.clear t.mem_log;
  t.wdelta <- (st.cwp - block.entry_cwp + st.nwindows) mod st.nwindows;
  for k = 0 to 3 do
    let need = block.rr_counts.(k) in
    let arr = t.rr.(k) in
    if Array.length arr < need then
      t.rr.(k) <-
        Array.init (max need (2 * Array.length arr)) (fun _ -> fresh_rr ())
    else
      for i = 0 to need - 1 do
        let e = Array.unsafe_get arr i in
        e.v <- 0;
        e.m_addr <- 0;
        e.m_size <- 0;
        e.exn <- None
      done
  done

(** Enter [block] in interpreter mode. *)
let enter_block t (block : block) =
  reset_for_block t block;
  t.plan_on <- false

(** Enter the block compiled into [plan], selecting (or lazily building)
    the variant for the current window delta. *)
let enter_plan t (plan : Plan.t) =
  let block = plan.Plan.p_block in
  reset_for_block t block;
  (* wdelta = 0 is the overwhelmingly common entry and allocates nothing;
     shifted variants go through the tupled lookup *)
  (if t.wdelta = 0 then t.plan_v <- plan.Plan.p_base
   else begin
     let v, fresh =
       Plan.variant ~nwindows:t.st.nwindows plan ~wdelta:t.wdelta
     in
     if fresh then t.stats.wdelta_variants <- t.stats.wdelta_variants + 1;
     t.plan_v <- v
   end);
  t.plan_on <- true;
  if Array.length t.bufs < block.max_li_ops then
    t.bufs <-
      Array.init
        (max block.max_li_ops (2 * Array.length t.bufs))
        (fun _ -> Dts_isa.Semantics.make_buf ())

(** Roll back to the checkpoint: restore registers and undo every store of
    the block in reverse order, each with its recorded size (§3.11). *)
let rollback t =
  if Dts_obs.Trace.enabled t.tracer then
    Dts_obs.Trace.emit t.tracer
      (Checkpoint_recovery { undone = t.n_recovery + t.dsl_n });
  if not t.shadow_valid then invalid_arg "Engine.rollback without checkpoint";
  let st = t.st in
  let sh = t.shadow in
  let ni = Array.length st.iregs in
  for i = t.undo_n - 1 downto 0 do
    let idx = Array.unsafe_get t.undo_idx i
    and v = Array.unsafe_get t.undo_val i in
    if idx < ni then Dts_isa.State.set_phys st idx v
    else Dts_isa.State.set_freg st (idx - ni) v
  done;
  t.undo_n <- 0;
  st.icc <- sh.sh_icc;
  st.cwp <- sh.sh_cwp;
  st.wdepth <- sh.sh_wdepth;
  st.wspill_sp <- sh.sh_wspill_sp;
  st.pc <- sh.sh_pc;
  for i = t.n_recovery - 1 downto 0 do
    Dts_mem.Memory.write st.mem ~addr:t.rec_addr.(i) ~size:t.rec_size.(i)
      t.rec_old.(i)
  done;
  t.n_recovery <- 0;
  (* in the data-store-list scheme, memory was never touched: "data
     generated in the block where the exception is detected is annulled" *)
  clear_dsl t;
  Aliaslog.clear t.mem_log;
  t.stats.block_exceptions <- t.stats.block_exceptions + 1

(* window-relative replay: shift a baked window pointer / physical integer
   register position by the block-entry window delta *)
let shift_cwp t cwp = (cwp + t.wdelta) mod t.st.nwindows

let shift_pos t (pos : Dts_isa.Storage.t) : Dts_isa.Storage.t =
  Plan.shift_pos ~nwindows:t.st.nwindows ~wdelta:t.wdelta pos

exception Alias_violation = Aliaslog.Alias_violation
exception Block_trap of Dts_isa.Semantics.trap

(* The §3.10 order rule lives in {!Aliaslog.log}; the engine only tracks
   the Table 3 high-water marks from the log's running list counters. *)
let log_mem t ~addr ~size ~order ~li ~is_store ~cross =
  Aliaslog.log t.mem_log ~addr ~size ~order ~li ~is_store ~cross;
  if cross then
    if is_store then
      t.stats.max_store_list <-
        max t.stats.max_store_list (Aliaslog.cross_stores t.mem_log)
    else
      t.stats.max_load_list <-
        max t.stats.max_load_list (Aliaslog.cross_loads t.mem_log)

let storage_of_write : Dts_isa.Semantics.write -> Dts_isa.Storage.t = function
  | W_phys (p, _) -> Int_reg p
  | W_freg (f, _) -> Fp_reg f
  | W_icc _ -> Flags
  | W_win _ -> Win

(* Record the value about to be overwritten at register-undo index [idx]
   ([n_iregs + f] for an freg), growing the log on demand (rare: its
   high-water mark is the register-write count of the widest block). *)
let push_undo t idx old =
  let n = t.undo_n in
  if n = Array.length t.undo_idx then begin
    let cap = 2 * n in
    let ui = Array.make cap 0 and uv = Array.make cap 0 in
    Array.blit t.undo_idx 0 ui 0 n;
    Array.blit t.undo_val 0 uv 0 n;
    t.undo_idx <- ui;
    t.undo_val <- uv
  end;
  Array.unsafe_set t.undo_idx n idx;
  Array.unsafe_set t.undo_val n old;
  t.undo_n <- n + 1

(* phase 4, shared by both executors: apply buffered register writes in
   push order, then route buffered stores through the active store scheme *)
let apply_buffered t =
  let st = t.st in
  for i = 0 to t.bw_n - 1 do
    let a = Array.unsafe_get t.bw_a i and b = Array.unsafe_get t.bw_b i in
    match Array.unsafe_get t.bw_kind i with
    | 0 (* wk_phys *) ->
      if a <> 0 then begin
        push_undo t a (Array.unsafe_get st.iregs a);
        Dts_isa.State.set_phys st a b
      end
    | 1 (* wk_freg *) ->
      push_undo t (Array.length st.iregs + a) (Array.unsafe_get st.fregs a);
      Dts_isa.State.set_freg st a b
    | 2 (* wk_icc *) -> st.icc <- b
    | _ (* wk_win *) ->
      st.cwp <- a;
      st.wdepth <- b
  done;
  t.bw_n <- 0;
  for i = 0 to t.bs_n - 1 do
    let addr = t.bs_addr.(i) and size = t.bs_size.(i) and v = t.bs_val.(i) in
    match t.scheme with
    | Checkpoint_recovery ->
      (* save the overwritten data in the checkpoint recovery store list,
         then write through (§3.11) *)
      let old = Dts_mem.Memory.read st.mem ~addr ~size ~signed:true in
      push_recovery t addr size old;
      t.stats.max_recovery_list <-
        max t.stats.max_recovery_list t.n_recovery;
      Dts_mem.Memory.write st.mem ~addr ~size v
    | Data_store_list ->
      (* buffer in the data store list; memory is untouched until the
         block commits *)
      push_dsl t addr size v t.bs_order.(i);
      t.stats.max_data_store_list <-
        max t.stats.max_data_store_list t.dsl_n
  done;
  t.bs_n <- 0

let log_load t (s : sop) idx a sz =
  log_mem t ~addr:a ~size:sz ~order:s.order ~li:idx ~is_store:false
    ~cross:s.cross

let log_store t ~order ~cross idx a sz =
  log_mem t ~addr:a ~size:sz ~order ~li:idx ~is_store:true ~cross

(* ------------------------------------------------------------------ *)
(* Plan executor                                                        *)
(* ------------------------------------------------------------------ *)

(* Evaluate one planned op into its outcome buffer. Top-level, not a local
   helper of [exec_li_plan]: without flambda a local function capturing the
   loop state is a closure allocated on every long instruction. *)
let eval_op t st bufs dsl_empty (o : Plan.xop) i =
  if o.Plan.x_ovfree || (dsl_empty && o.Plan.subs == Plan.no_subs) then
    Dts_isa.Semantics.exec_into_ov st None ~cwp:o.Plan.x_cwp
      ~pc:o.Plan.op.addr o.Plan.x_uop (Array.unsafe_get bufs i)
  else begin
    t.cur_subs <- o.Plan.subs;
    Dts_isa.Semantics.exec_into_ov st t.plan_ov ~cwp:o.Plan.x_cwp
      ~pc:o.Plan.op.addr o.Plan.x_uop (Array.unsafe_get bufs i)
  end

let exec_li_plan t (block : block) (v : Plan.variant) idx :
    li_result =
  let st = t.st in
  let pli = v.Plan.v_lis.(idx) in
  let ops = pli.Plan.p_ops in
  let tags = pli.Plan.p_tags in
  let n = Array.length ops in
  let bufs = t.bufs in
  (* Every op of the li reads pre-li state, so execution order within the
     li is free. Phases 1 and 2 exploit that: the conditional-control ops
     (the precomputed [p_cond] indices) execute {e first} and resolve the
     earliest mispredicted branch; the remaining ops then execute only if
     they commit (tag at most the failing branch's) — squashed ops are
     never evaluated at all. Ops with no substituted source also skip the
     override closures entirely: a non-memory op reads architectural state
     only, and a memory read needs the overrides only while the data store
     list holds buffered bytes. *)
  let dsl_empty = t.dsl_n = 0 in
  (* phases 1+2 over the conditional ops: execute and find the first
     (lowest-tag) mispredicted branch; ops with tag greater than its tag
     do not commit *)
  let fail_tag = ref max_int in
  let fail_target = ref 0 in
  let cond = pli.Plan.p_cond in
  for k = 0 to Array.length cond - 1 do
    let i = Array.unsafe_get cond k in
    match Array.unsafe_get ops i with
    | Plan.P_op o ->
      eval_op t st bufs dsl_empty o i;
      let b = bufs.(i) in
      if b.Dts_isa.Semantics.b_next_pc <> o.op.obs_next_pc && tags.(i) < !fail_tag
      then begin
        fail_tag := tags.(i);
        fail_target := b.b_next_pc
      end
    | Plan.P_copy _ -> ()
  done;
  let ft = !fail_tag in
  (* phase 1 over everything else, committing ops only *)
  for i = 0 to n - 1 do
    if Array.unsafe_get tags i <= ft then
      match Array.unsafe_get ops i with
      | Plan.P_op o -> if not o.is_cond then eval_op t st bufs dsl_empty o i
      | Plan.P_copy _ -> ()
  done;
  (* phase 3: gather effects of valid ops. Effects are pushed in the exact
     order {!Dts_isa.Semantics.exec}'s [writes] list applies them (icc
     before the destination register for flag-setting ALU ops, destination
     register before the window movement for save/restore), so the buffered
     sequence is identical to the interpreter's. *)
  t.bw_n <- 0;
  t.bs_n <- 0;
  try
    for i = 0 to n - 1 do
      if tags.(i) <= ft then
        match Array.unsafe_get ops i with
        | Plan.P_op o ->
          let b = bufs.(i) in
          if b.Dts_isa.Semantics.b_trap <> 0 then begin
            (* deferred iff every architectural output is renamed *)
            if o.deferrable then begin
              let tr = Dts_isa.Semantics.trap_of_buf b in
              for k = 0 to Array.length o.red_all - 1 do
                (rr_of t o.red_all.(k)).exn <- Some tr
              done;
              t.stats.deferred_exceptions <- t.stats.deferred_exceptions + 1
            end
            else raise (Block_trap (Dts_isa.Semantics.trap_of_buf b))
          end
          else begin
            t.stats.ops_committed <- t.stats.ops_committed + 1;
            (if b.b_icc >= 0 then
               match o.red_icc with
               | Some rr ->
                 let e = rr_of t rr in
                 e.v <- b.b_icc;
                 e.exn <- None
               | None -> push_bw t wk_icc 0 b.b_icc);
            (if b.b_w0 >= 0 then
               let j = probe_idx o.red_phys_pos b.b_w0 in
               if j >= 0 then begin
                 let e = rr_of t o.red_phys_rr.(j) in
                 e.v <- b.b_w0v;
                 e.exn <- None
               end
               else push_bw t wk_phys b.b_w0 b.b_w0v);
            (if b.b_fw >= 0 then
               let j = probe_idx o.red_freg_pos b.b_fw in
               if j >= 0 then begin
                 let e = rr_of t o.red_freg_rr.(j) in
                 e.v <- b.b_fwv;
                 e.exn <- None
               end
               else push_bw t wk_freg b.b_fw b.b_fwv);
            (if b.b_win then
               if o.red_win then invalid_arg "renamed window write"
               else push_bw t wk_win b.b_cwp b.b_wdepth);
            (if b.b_load_size <> 0 then begin
               t.pen <- t.pen + Dts_mem.Cache.access t.dcache b.b_load_addr;
               log_load t o.op idx b.b_load_addr b.b_load_size
             end);
            if b.b_store_size <> 0 then begin
              (* a renamed store redirects its (single) memory output *)
              match o.red_mem with
              | Some rr ->
                let e = rr_of t rr in
                e.m_addr <- b.b_store_addr;
                e.m_size <- b.b_store_size;
                e.v <- b.b_store_val;
                e.exn <- None
              | None ->
                t.pen <- t.pen + Dts_mem.Cache.access t.dcache b.b_store_addr;
                log_store t ~order:o.op.order ~cross:o.op.cross idx
                  b.b_store_addr b.b_store_size;
                push_bs t b.b_store_addr b.b_store_size b.b_store_val
                  o.op.order
            end
          end
        | Plan.P_copy c ->
          t.stats.copies_committed <- t.stats.copies_committed + 1;
          let moves = c.moves in
          for k = 0 to Array.length moves - 1 do
            let m = Array.unsafe_get moves k in
            let src = rr_of t m.Plan.pm_src in
            match m.Plan.pm_tgt with
            | Plan.PT_ren dst_ref ->
              let dst = rr_of t dst_ref in
              dst.v <- src.v;
              dst.m_addr <- src.m_addr;
              dst.m_size <- src.m_size;
              dst.exn <- src.exn
            | _ -> (
              match src.exn with
              | Some tr -> raise (Block_trap tr)
              | None -> (
                match m.Plan.pm_tgt with
                | Plan.PT_ren _ -> assert false
                | Plan.PT_phys p -> push_bw t wk_phys p src.v
                | Plan.PT_freg f -> push_bw t wk_freg f src.v
                | Plan.PT_flags -> push_bw t wk_icc 0 src.v
                | Plan.PT_mem ->
                  t.pen <- t.pen + Dts_mem.Cache.access t.dcache src.m_addr;
                  log_store t ~order:c.c_order ~cross:true idx src.m_addr
                    src.m_size;
                  push_bs t src.m_addr src.m_size src.v c.c_order))
          done
    done;
    (* phase 4: apply buffered effects (reads already done) *)
    apply_buffered t;
    if ft < max_int then begin
      t.stats.mispredicts <- t.stats.mispredicts + 1;
      R_redirect { target = !fail_target }
    end
    else if idx = block.nba_idx then
      R_block_end { next_addr = block.nba_addr }
    else R_next
  with
  | Alias_violation ->
    t.stats.aliasing_exceptions <- t.stats.aliasing_exceptions + 1;
    if Dts_obs.Trace.enabled t.tracer then
      Dts_obs.Trace.emit t.tracer
        (Aliasing_violation { tag = block.tag_addr; li = idx });
    rollback t;
    R_exn E_aliasing
  | Block_trap tr ->
    rollback t;
    R_exn (E_trap tr)

(* ------------------------------------------------------------------ *)
(* Interpreter                                                          *)
(* ------------------------------------------------------------------ *)

let exec_li_interp t (block : block) idx : li_result =
  let st = t.st in
  let li = block.lis.(idx) in
  (* phase 1: compute outcomes for every op, reading pre-li state *)
  let entries =
    li_fold
      (fun acc _k op tag ->
        match op with
        | Op s ->
          (* forwarded sources read their renaming register (§3.2); the
             positions semantics asks about are window-shifted, so shift the
             baked substitution keys the same way *)
          let subs =
            if t.wdelta = 0 then s.subs
            else List.map (fun (p, rr) -> (shift_pos t p, rr)) s.subs
          in
          let lookup pos =
            match List.assoc_opt pos subs with
            | Some rr -> Some (rr_of t rr).v
            | None -> None
          in
          let ov =
            {
              Dts_isa.Semantics.ov_phys =
                (fun p -> lookup (Dts_isa.Storage.Int_reg p));
              ov_freg = (fun f -> lookup (Dts_isa.Storage.Fp_reg f));
              ov_icc = (fun () -> lookup Dts_isa.Storage.Flags);
              ov_mem = (fun ~addr ~size ~signed -> dsl_read t ~addr ~size ~signed);
            }
          in
          let out =
            Dts_isa.Semantics.exec ~ov st ~cwp:(shift_cwp t s.cwp) ~pc:s.addr
              s.instr
          in
          (op, tag, Some (s, out)) :: acc
        | Copy _ -> (op, tag, None) :: acc)
      [] li
    |> List.rev
  in
  (* phase 2: find the first mispredicted branch; ops with tag greater than
     its tag do not commit *)
  let fail : (int * int) option ref = ref None in
  (* (tag, actual target) *)
  List.iter
    (fun (_, tag, info) ->
      match info with
      | Some (s, out) when Dts_isa.Instr.is_conditional_ctrl s.instr ->
        if out.Dts_isa.Semantics.next_pc <> s.obs_next_pc then (
          match !fail with
          | Some (ft, _) when ft <= tag -> ()
          | _ -> fail := Some (tag, out.next_pc))
      | _ -> ())
    entries;
  let valid tag = match !fail with None -> true | Some (ft, _) -> tag <= ft in
  (* phase 3: gather effects of valid ops *)
  t.bw_n <- 0;
  t.bs_n <- 0;
  try
    List.iter
      (fun (op, tag, info) ->
        if valid tag then
          match (op, info) with
          | Op s, Some (_, out) -> (
            match out.Dts_isa.Semantics.trap with
            | Some tr ->
              (* deferred iff every architectural output is renamed *)
              if
                s.redirect <> []
                && List.for_all
                     (fun w -> List.mem_assoc w s.redirect)
                     s.arch_writes
              then begin
                List.iter
                  (fun (_, rr) -> (rr_of t rr).exn <- Some tr)
                  s.redirect;
                t.stats.deferred_exceptions <- t.stats.deferred_exceptions + 1
              end
              else raise (Block_trap tr)
            | None ->
              t.stats.ops_committed <- t.stats.ops_committed + 1;
              let redirect =
                if t.wdelta = 0 then s.redirect
                else List.map (fun (p, rr) -> (shift_pos t p, rr)) s.redirect
              in
              List.iter
                (fun w ->
                  let pos = storage_of_write w in
                  match List.assoc_opt pos redirect with
                  | Some rr ->
                    let e = rr_of t rr in
                    (match w with
                    | W_phys (_, v) | W_freg (_, v) | W_icc v -> e.v <- v
                    | W_win _ -> invalid_arg "renamed window write");
                    e.exn <- None
                  | None -> push_write t w)
                out.writes;
              (match out.load with
              | Some (a, sz) ->
                t.pen <- t.pen + Dts_mem.Cache.access t.dcache a;
                log_load t s idx a sz
              | None -> ());
              (match out.store with
              | Some (a, sz, v) -> (
                (* a renamed store redirects its (single) memory output *)
                match s.redirect with
                | (Mem _, rr) :: _ ->
                  let e = rr_of t rr in
                  e.m_addr <- a;
                  e.m_size <- sz;
                  e.v <- v;
                  e.exn <- None
                | _ ->
                  t.pen <- t.pen + Dts_mem.Cache.access t.dcache a;
                  log_store t ~order:s.order ~cross:s.cross idx a sz;
                  push_bs t a sz v s.order)
              | None -> ()))
          | Copy c, _ ->
            t.stats.copies_committed <- t.stats.copies_committed + 1;
            List.iter
              (fun (rr, target) ->
                let src = rr_of t rr in
                match target with
                | T_ren dst_ref ->
                  let dst = rr_of t dst_ref in
                  dst.v <- src.v;
                  dst.m_addr <- src.m_addr;
                  dst.m_size <- src.m_size;
                  dst.exn <- src.exn
                | T_arch pos -> (
                  match src.exn with
                  | Some tr -> raise (Block_trap tr)
                  | None -> (
                    match shift_pos t pos with
                    | Int_reg p -> push_bw t wk_phys p src.v
                    | Fp_reg f -> push_bw t wk_freg f src.v
                    | Flags -> push_bw t wk_icc 0 src.v
                    | Win -> invalid_arg "renamed window copy"
                    | Ren _ -> invalid_arg "T_arch to a renaming register"
                    | Mem _ ->
                      t.pen <- t.pen + Dts_mem.Cache.access t.dcache src.m_addr;
                      log_store t ~order:c.c_order ~cross:true idx src.m_addr
                        src.m_size;
                      push_bs t src.m_addr src.m_size src.v c.c_order)))
              c.c_moves
          | Op _, None -> assert false)
      entries;
    (* phase 4: apply buffered effects (reads already done) *)
    apply_buffered t;
    match !fail with
    | Some (_, target) ->
      t.stats.mispredicts <- t.stats.mispredicts + 1;
      R_redirect { target }
    | None ->
      if idx = block.nba_idx then R_block_end { next_addr = block.nba_addr }
      else R_next
  with
  | Alias_violation ->
    t.stats.aliasing_exceptions <- t.stats.aliasing_exceptions + 1;
    if Dts_obs.Trace.enabled t.tracer then
      Dts_obs.Trace.emit t.tracer
        (Aliasing_violation { tag = block.tag_addr; li = idx });
    rollback t;
    R_exn E_aliasing
  | Block_trap tr ->
    rollback t;
    R_exn (E_trap tr)

(** Execute long instruction [idx] of [block]; the data-cache penalty
    cycles incurred are left in [t.pen]. On [R_exn] the rollback has
    already been performed. Dispatches to the plan executor when the block
    was entered through {!enter_plan}, else interprets. Allocation-free for
    [R_next] steps — the machine's hot loop reads [t.pen] instead of a
    result tuple. *)
let exec_li t (block : block) idx : li_result =
  t.stats.lis_executed <- t.stats.lis_executed + 1;
  t.pen <- 0;
  if t.plan_on then exec_li_plan t block t.plan_v idx
  else exec_li_interp t block idx

(** Clean block exit. In the checkpoint scheme the recovery data is simply
    dropped; in the data-store-list scheme the buffered stores drain to
    memory in order (the order fields make in-order memory update possible,
    §3.11), each range written whole. Returns the data-cache penalty cycles
    of the drain. *)
let commit_block t =
  t.shadow_valid <- false;
  t.undo_n <- 0;
  t.n_recovery <- 0;
  Aliaslog.clear t.mem_log;
  if t.dsl_n = 0 then 0
  else begin
    let penalty = ref 0 in
    let idxs = Array.init t.dsl_n (fun i -> i) in
    Array.sort (fun i j -> compare t.dsl_order.(i) t.dsl_order.(j)) idxs;
    Array.iter
      (fun i ->
        let addr = t.dsl_addr.(i) and size = t.dsl_size.(i) in
        penalty := !penalty + Dts_mem.Cache.access t.dcache addr;
        Dts_mem.Memory.write t.st.mem ~addr ~size (dsl_range t addr size))
      idxs;
    clear_dsl t;
    !penalty
  end
