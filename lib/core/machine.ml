(** The DTSVLIW machine: Fetch Unit, engine switching, block chaining and
    test-mode co-simulation (§3.6, §4).

    The machine always runs in the paper's {e test mode}: a golden
    sequential machine executes the same program and the full architectural
    state is compared at every engine switch and block completion. Besides
    validating the simulation, the golden machine provides the precise
    sequential instruction count used as the numerator of the
    instructions-per-cycle metric. *)

open Dts_sched.Schedtypes
module Attr = Dts_obs.Attribution
module Trace = Dts_obs.Trace

exception
  Test_mode_mismatch of { cycle : int; pc : int; detail : string }

type cached = {
  block : block;
  words : int array;
  mutable plan : Dts_vliw.Plan.t option;
}
(** A VLIW Cache line (§3.4): the scheduled block, its code words (the
    block's keys in [code_index]) and, from its first fetch on, the plan
    compiled from it. The plan leaves with the line. *)

type vstate = { mutable block : block; mutable idx : int }
(** named, not inline: [run]'s burst loop passes the record to a helper *)

type mode = M_primary | M_vliw of vstate

(** Pluggable trace scheduler: the DTSVLIW Scheduler Unit by default, or the
    DIF greedy scheduler ({!Dts_dif}) for the Figure 9 baseline. *)
type scheduler_iface = {
  s_tick : unit -> unit;  (** one machine cycle of scheduling work *)
  s_insert : Dts_primary.Primary.retired -> [ `Ok | `Full ];
  s_finish : nba_addr:int -> block option;
}

type t = {
  cfg : Config.t;
  st : Dts_isa.State.t;
  golden : Dts_golden.Golden.t;
  primary : Dts_primary.Primary.t;
  sched : scheduler_iface;
  engine : Dts_vliw.Engine.t;
  vcache : cached Dts_mem.Blockcache.t;
  icache : Dts_mem.Cache.t;
  dcache : Dts_mem.Cache.t;
  compile : bool;
      (** compile cached blocks into execution plans (default); [false]
          interprets the scheduling structures directly — the differential
          test baseline and debugging escape hatch *)
  code_index : (int, int list ref) Hashtbl.t;
      (** code word address -> tags of cached blocks scheduled from it;
          consulted by the memory write hook so self-modifying code
          invalidates stale blocks (and with them their plans) *)
  mutable mode : mode;
  mutable vmode : mode;
      (** the reusable [M_vliw] record entered by every engine switch —
          allocated once, mutated in place per block transition *)
  mutable cycles : int;
  mutable vliw_cycles : int;
  mutable exception_mode : bool;
  pending_blocks : (int * block) Queue.t;  (** (ready cycle, block) *)
  next_li_predictor : (int, int) Hashtbl.t;
      (** block tag -> last observed exit target (when enabled) *)
  mutable halted : bool;
  obs : Dts_obs.Stats.t;
      (** the live counters, shared with [engine]; read through {!stats}
          snapshots *)
  tracer : Trace.t;  (** {!Trace.null} when disabled *)
}

let default_scheduler cfg =
  let u = Dts_sched.Sched_unit.create cfg.Config.sched in
  {
    s_tick = (fun () -> Dts_sched.Sched_unit.tick u);
    s_insert = (fun r -> Dts_sched.Sched_unit.insert u r);
    s_finish = (fun ~nba_addr -> Dts_sched.Sched_unit.finish_block u ~nba_addr);
  }

(* --- code-index bookkeeping --- *)

(* Distinct code word addresses a block was scheduled from, ascending.
   Computed once, when the block is installed, and kept in its VLIW Cache
   line for the drop. *)
let block_words (b : block) =
  let ws = Array.make (Array.fold_left (fun a li -> a + li_count li) 0 b.lis) 0 in
  let n = ref 0 in
  Array.iter
    (fun li ->
      li_iter
        (fun _ op _ ->
          match op with
          | Op s ->
            ws.(!n) <- s.addr land lnot 3;
            incr n
          | Copy _ -> ())
        li)
    b.lis;
  let ws = Array.sub ws 0 !n in
  sort_ints ws;
  let k = ref 0 in
  Array.iter
    (fun w ->
      if !k = 0 || w <> ws.(!k - 1) then begin
        ws.(!k) <- w;
        incr k
      end)
    ws;
  Array.sub ws 0 !k

let register_block_words t (c : cached) =
  let tag = c.block.tag_addr in
  Array.iter
    (fun w ->
      (* the SMC hook below is a watched hook: make sure every page hosting
         an installed block's code words is under write watch (normally
         already true — the words were fetched through the pre-decoded
         store, which watches as it caches) *)
      Dts_mem.Memory.watch t.st.mem w;
      match Hashtbl.find_opt t.code_index w with
      | Some r -> if not (List.mem tag !r) then r := tag :: !r
      | None -> Hashtbl.add t.code_index w (ref [ tag ]))
    c.words

(* Fired by the VLIW Cache whenever a block leaves it (replacement,
   eviction, invalidation): its code words stop mapping to its tag. *)
let on_block_drop t (c : cached) =
  let tag = c.block.tag_addr in
  Array.iter
    (fun w ->
      match Hashtbl.find_opt t.code_index w with
      | None -> ()
      | Some r ->
        r := List.filter (fun x -> x <> tag) !r;
        if !r = [] then Hashtbl.remove t.code_index w)
    c.words

(* Memory write hook: a store overlapping a cached block's code makes the
   block (and its plan) stale — drop it so the next probe misses and the
   Scheduler Unit rebuilds from the new code. Blocks still draining in the
   pending queue are not indexed yet; as before this PR, a store into code
   that is simultaneously being scheduled is caught by test mode. *)
let on_code_write t addr =
  if Hashtbl.length t.code_index > 0 then begin
    match Hashtbl.find_opt t.code_index (addr land lnot 3) with
    | None -> ()
    | Some r ->
      (* invalidation fires on_block_drop, which edits the lists we are
         walking — snapshot first *)
      let tags = !r in
      List.iter
        (fun tag ->
          if Dts_mem.Blockcache.invalidate t.vcache tag then
            t.obs.code_invalidations <- t.obs.code_invalidations + 1)
        tags
  end

let create ?(compile = true) ?scheduler ?(tracer = Trace.null) cfg program =
  let st = Dts_asm.Program.boot ~nwindows:cfg.Config.sched.nwindows program in
  let golden_st = Dts_isa.State.copy st in
  let icache = Config.make_cache cfg.icache in
  let dcache = Config.make_cache cfg.dcache in
  let sched =
    match scheduler with Some f -> f () | None -> default_scheduler cfg
  in
  let obs = Dts_obs.Stats.create () in
  let t =
    {
      cfg;
      st;
      golden = Dts_golden.Golden.of_state golden_st;
      primary =
        Dts_primary.Primary.create ~timing:cfg.primary_timing
          ~latencies:cfg.sched.latencies ~icache ~dcache st;
      sched;
      engine =
        Dts_vliw.Engine.create ~scheme:cfg.store_scheme ~tracer ~stats:obs
          ~dcache st;
      vcache =
        Dts_mem.Blockcache.create ~n_sets:(Config.vliw_cache_sets cfg)
          ~assoc:cfg.vliw_cache.assoc;
      icache;
      dcache;
      compile;
      code_index = Hashtbl.create 16;
      mode = M_primary;
      vmode = M_primary;
      cycles = 0;
      vliw_cycles = 0;
      exception_mode = false;
      pending_blocks = Queue.create ();
      next_li_predictor = Hashtbl.create 16;
      halted = false;
      obs;
      tracer;
    }
  in
  Dts_mem.Blockcache.set_on_drop t.vcache (fun _key c -> on_block_drop t c);
  (* registered after the golden state was copied, so only this machine's
     memory notifies (the golden machine executes unmodified semantics on
     its own copy). A watched hook: {!register_block_words} puts every page
     hosting installed-block code under watch, so ordinary data stores pay
     no hook dispatch at all. *)
  Dts_mem.Memory.add_watched_write_hook st.mem (fun addr -> on_code_write t addr);
  (* the two states (and their memories) are bit-identical right now:
     anchor the register and dirty-page journals here so every subsequent
     sync can compare only what was written since *)
  Dts_isa.State.dirty_clear st;
  Dts_isa.State.dirty_clear golden_st;
  Dts_mem.Memory.dirty_clear st.mem;
  Dts_mem.Memory.dirty_clear golden_st.mem;
  t

(* Cycle attribution: every [t.cycles] increment below is paired with a
   charge to exactly one category, so the categories sum to the total
   cycle count (test-enforced invariant). *)
let charge t cat n = if n <> 0 then Attr.charge t.obs.attribution cat n

let tracing t = Trace.enabled t.tracer
let trace t ev = Trace.emit t.tracer ev

(* ------------------------------------------------------------------ *)
(* Test-mode synchronisation                                            *)
(* ------------------------------------------------------------------ *)

let mismatch t detail =
  raise (Test_mode_mismatch { cycle = t.cycles; pc = t.st.pc; detail })

let state_diff a b =
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  Dts_isa.State.pp_diff fmt (a, b);
  Format.pp_print_flush fmt ();
  Buffer.contents buf

(** Advance the golden machine to the DTSVLIW PC and compare states. The
    same PC can recur (loops), so on a register mismatch the golden machine
    is stepped past the occurrence and the search continues — a false match
    would require bit-identical states, which is indistinguishable anyway.

    The register comparison is the journalled {!State.dirty_regs_equal}:
    both states compared equal at the previous successful sync (or at boot,
    when the golden machine is a copy), and every register write since is
    journalled, so only the written registers need comparing. *)
let rec sync_loop t (gst : Dts_isa.State.t) target fuel =
  (* run to the next occurrence of [target] in one tight loop (the fast
     path steps with a single exception handler for the whole run), then
     apply the machine-side acceptance predicate at the stop point *)
  let fuel = Dts_golden.Golden.advance_to_pc t.golden ~pc:target ~fuel in
  if
    gst.pc = target
    && gst.halted = t.st.halted
    && Dts_isa.State.dirty_regs_equal gst t.st
  then true
  else if gst.halted || fuel <= 0 then false
  else begin
    (* same PC, different registers: a loop brought the golden machine to
       [target] early — step past this occurrence and keep searching *)
    (try Dts_golden.Golden.step t.golden
     with Dts_golden.Golden.Program_halted -> ());
    sync_loop t gst target (fuel - 1)
  end

let sync t =
  let target = t.st.pc in
  let gst = Dts_golden.Golden.state t.golden in
  if not (sync_loop t gst target 40_000_000) then
    mismatch t
      (Printf.sprintf "golden model diverged at pc=%#x:\n%s" target
         (state_diff t.st gst));
  t.obs.syncs <- t.obs.syncs + 1;
  if t.cfg.memcmp_interval > 0 && t.obs.syncs mod t.cfg.memcmp_interval = 0
  then begin
    (* periodic sweep: the whole register file — a safety net under the
       journalled per-sync compare — and the memories. The memory compare
       is batched: both memories were equal at the last sweep (or at boot),
       so only pages either side dirtied since then are compared, page by
       page, and the dirty journals reset on success. *)
    if not (Dts_isa.State.regs_equal gst t.st) then
      mismatch t
        (Printf.sprintf "golden model diverged at pc=%#x:\n%s" target
           (state_diff t.st gst));
    if not (Dts_mem.Memory.dirty_equal t.st.mem gst.mem) then
      mismatch t
        (Printf.sprintf "memory diverged near %s"
           (match Dts_mem.Memory.first_difference t.st.mem gst.mem with
           | Some a -> Printf.sprintf "%#x" a
           | None -> "?"));
    Dts_mem.Memory.dirty_clear t.st.mem;
    Dts_mem.Memory.dirty_clear gst.mem
  end;
  Dts_isa.State.dirty_clear gst;
  Dts_isa.State.dirty_clear t.st

(* ------------------------------------------------------------------ *)
(* Block bookkeeping                                                    *)
(* ------------------------------------------------------------------ *)

(* Drain times are not monotone (a tall block flushed just before a short
   one can be ready later), so filter the whole queue, keeping flush order —
   the stable partition the list implementation performed. The queue is
   almost always empty or a couple of entries deep; what matters is that
   {!flush_current}'s enqueue is O(1) instead of a tail append. *)
let install_ready_blocks t =
  if not (Queue.is_empty t.pending_blocks) then begin
    let waiting = Queue.create () in
    Queue.iter
      (fun ((c, b) as pending) ->
        if c <= t.cycles then begin
          let line = { block = b; words = block_words b; plan = None } in
          (match Dts_mem.Blockcache.insert t.vcache b.tag_addr line with
          | Some evicted when tracing t ->
            trace t (Trace.Block_evict { tag = evicted.block.tag_addr })
          | Some _ | None -> ());
          register_block_words t line;
          if tracing t then trace t (Trace.Block_install { tag = b.tag_addr })
        end
        else Queue.add pending waiting)
      t.pending_blocks;
    Queue.clear t.pending_blocks;
    Queue.transfer waiting t.pending_blocks
  end

(* Table 3's slot-occupancy rows, refined per functional-unit class; copies
   (the scheduler's own instructions) get their own bucket. *)
let slot_class_index : Dts_sched.Schedtypes.slot_op -> int = function
  | Op s -> (
    match s.fu with
    | Dts_isa.Instr.Fu_int -> 0
    | Fu_mem -> 1
    | Fu_fp -> 2
    | Fu_br -> 3)
  | Copy _ -> 4

let note_block_stats t (b : block) =
  let o = t.obs in
  o.blocks_flushed <- o.blocks_flushed + 1;
  o.slots_filled <- o.slots_filled + b.n_slots_filled;
  o.slots_total <- o.slots_total + (Array.length b.lis * t.cfg.sched.width);
  o.block_lis <- o.block_lis + Array.length b.lis;
  Array.iter
    (fun li ->
      li_iter
        (fun _ op _ ->
          let k = slot_class_index op in
          o.slots_by_class.(k) <- o.slots_by_class.(k) + 1)
        li)
    b.lis;
  Array.iteri (fun k v -> o.rr_max.(k) <- max o.rr_max.(k) v) b.rr_counts

(** Freeze the block under construction; it drains to the VLIW Cache at one
    long instruction per cycle (§3.2) and becomes visible when done. *)
let flush_current t ~nba_addr =
  match t.sched.s_finish ~nba_addr with
  | None -> ()
  | Some b ->
    note_block_stats t b;
    if tracing t then
      trace t
        (Trace.Block_flush
           {
             tag = b.tag_addr;
             lis = Array.length b.lis;
             slots = b.n_slots_filled;
           });
    Queue.add (t.cycles + Array.length b.lis, b) t.pending_blocks;
    t.obs.pending_high_water <-
      max t.obs.pending_high_water (Queue.length t.pending_blocks)

let probe t addr =
  install_ready_blocks t;
  Dts_mem.Blockcache.find t.vcache addr

(* ------------------------------------------------------------------ *)
(* Engine transitions                                                   *)
(* ------------------------------------------------------------------ *)

let enter_vliw t (c : cached) =
  let block = c.block in
  t.obs.engine_switches <- t.obs.engine_switches + 1;
  if tracing t then begin
    trace t (Trace.Block_fetch { tag = block.tag_addr });
    trace t (Trace.Engine_switch { to_vliw = true; pc = block.tag_addr })
  end;
  (if t.compile then begin
     let plan =
       match c.plan with
       | Some p ->
         t.obs.plan_hits <- t.obs.plan_hits + 1;
         p
       | None ->
         (* compiled on the line's first fetch *)
         let p = Dts_vliw.Plan.compile ~nwindows:t.st.nwindows block in
         t.obs.plans_compiled <- t.obs.plans_compiled + 1;
         c.plan <- Some p;
         p
     in
     Dts_vliw.Engine.enter_plan t.engine plan
   end
   else Dts_vliw.Engine.enter_block t.engine block);
  (* one [M_vliw] record is allocated on the first switch and then reused:
     block transitions are the steady state of the simulator *)
  match t.vmode with
  | M_vliw v ->
    v.block <- block;
    v.idx <- 0;
    t.mode <- t.vmode
  | M_primary ->
    let m = M_vliw { block; idx = 0 } in
    t.vmode <- m;
    t.mode <- m

(* §5 extension: next-long-instruction prediction. A tiny table remembers
   each block's most recent exit target; when the prediction is right the
   engine has already fetched across the boundary, hiding [penalty]. *)
let predicted_transition t ~tag ~actual ~penalty =
  if not t.cfg.next_li_prediction then penalty
  else begin
    let hit =
      match Hashtbl.find t.next_li_predictor tag with
      | v -> v = actual
      | exception Not_found -> false
    in
    Hashtbl.replace t.next_li_predictor tag actual;
    if hit then begin
      t.obs.nlp_hits <- t.obs.nlp_hits + 1;
      0
    end
    else begin
      t.obs.nlp_misses <- t.obs.nlp_misses + 1;
      penalty
    end
  end

(** [cat] attributes the swap bubble: {!Attr.Switch_to_primary} on a clean
    block exit, {!Attr.Recovery_switch} after a rollback. *)
let to_primary t cat =
  t.cycles <- t.cycles + t.cfg.swap_to_primary;
  charge t cat t.cfg.swap_to_primary;
  if tracing t then
    trace t (Trace.Engine_switch { to_vliw = false; pc = t.st.pc });
  Dts_primary.Primary.reset_hazards t.primary;
  t.mode <- M_primary

(* ------------------------------------------------------------------ *)
(* One simulation step                                                  *)
(* ------------------------------------------------------------------ *)

let step_primary t =
  Trace.stamp t.tracer t.cycles;
  (* the Fetch Unit probes the VLIW Cache with the address of the
     instruction about to execute (§3.6) *)
  match (if t.exception_mode then None else probe t t.st.pc) with
  | Some c ->
    (* flush the block under construction, pointing it at the hit block *)
    flush_current t ~nba_addr:t.st.pc;
    t.cycles <- t.cycles + t.cfg.swap_to_vliw;
    charge t Attr.Switch_to_vliw t.cfg.swap_to_vliw;
    sync t;
    enter_vliw t c
  | None -> (
    match Dts_primary.Primary.step t.primary with
    | exception Dts_primary.Primary.Halted ->
      flush_current t ~nba_addr:t.st.pc;
      t.halted <- true
    | r ->
      t.cycles <- t.cycles + r.cycles;
      charge t Attr.Primary_icache_stall r.icache_stall;
      charge t Attr.Primary_dcache_stall r.dcache_stall;
      charge t Attr.Primary_execute (r.cycles - r.icache_stall - r.dcache_stall);
      if t.exception_mode then begin
        if r.trapped then t.exception_mode <- false
      end
      else if Dts_isa.Instr.is_ignored_by_scheduler r.instr then
        t.sched.s_tick ()
      else if Dts_isa.Instr.is_non_schedulable r.instr || r.trapped then
        flush_current t ~nba_addr:r.addr
      else begin
        (* the Scheduler Unit advances every machine cycle *)
        for _ = 1 to r.cycles do
          t.sched.s_tick ()
        done;
        match t.sched.s_insert r with
        | `Ok -> ()
        | `Full -> (
          (* flush on full, then the instruction starts the next block *)
          t.obs.insert_full <- t.obs.insert_full + 1;
          flush_current t ~nba_addr:r.addr;
          match t.sched.s_insert r with
          | `Ok -> ()
          | `Full -> assert false)
      end)

type machine = t
(** alias: [open Dts_vliw.Engine] below shadows [t] *)

open Dts_vliw.Engine

(* Handling of a long instruction's non-[R_next] outcome; [t.cycles] and
   the execute/stall attribution for the li itself are already charged. *)
let li_outcome (t : machine) (block : block) res =
  match res with
  | R_next -> assert false
  | R_block_end { next_addr } -> (
      t.st.pc <- next_addr;
      let drain = Dts_vliw.Engine.commit_block t.engine in
      t.cycles <- t.cycles + drain;
      t.vliw_cycles <- t.vliw_cycles + drain;
      charge t Attr.Vliw_dcache_stall drain;
      sync t;
      let penalty =
        predicted_transition t ~tag:block.tag_addr ~actual:next_addr
          ~penalty:t.cfg.next_li_penalty
      in
      match probe t next_addr with
      | Some c2 ->
        t.cycles <- t.cycles + penalty;
        t.vliw_cycles <- t.vliw_cycles + penalty;
        charge t Attr.Next_li_penalty penalty;
        enter_vliw t c2
      | None -> to_primary t Attr.Switch_to_primary)
  | R_redirect { target } -> (
      t.st.pc <- target;
      let drain = Dts_vliw.Engine.commit_block t.engine in
      t.cycles <- t.cycles + drain;
      t.vliw_cycles <- t.vliw_cycles + drain;
      charge t Attr.Vliw_dcache_stall drain;
      (* annulled fetch: one-cycle bubble (§3.5), hidden by a correct
         next-block prediction *)
      let penalty =
        predicted_transition t ~tag:block.tag_addr ~actual:target ~penalty:1
      in
      t.cycles <- t.cycles + penalty;
      t.vliw_cycles <- t.vliw_cycles + penalty;
      charge t Attr.Mispredict_redirect penalty;
      sync t;
      match probe t target with
      | Some c2 -> enter_vliw t c2
      | None -> to_primary t Attr.Switch_to_primary)
  | R_exn kind ->
      (* rollback already happened; PC is back at the block start and the
         golden machine is already there, so compare directly *)
      (if not (Dts_isa.State.regs_equal (Dts_golden.Golden.state t.golden) t.st)
       then
         mismatch t
           (Printf.sprintf "state after rollback differs:\n%s"
              (state_diff t.st (Dts_golden.Golden.state t.golden))));
      (match kind with
      | Dts_vliw.Engine.E_aliasing ->
        ignore (Dts_mem.Blockcache.invalidate t.vcache block.tag_addr)
      | E_trap _ -> t.exception_mode <- true);
    to_primary t Attr.Recovery_switch

(* The one loop that executes long instructions: back-to-back until the
   block ends or the sequential instruction count reaches
   [max_instructions], batching the cycle counters and attribution into
   one update per burst. Within a block, [R_next] outcomes touch neither
   the golden machine nor the mode, so only the instruction count needs a
   per-iteration guard. [cyc] cycles of the burst are not yet in
   [t.cycles], so the tracer is stamped with [t.cycles + cyc] before each
   long instruction. *)
let rec vliw_burst (t : machine) (v : vstate) max_instructions cyc stall =
  Trace.stamp t.tracer (t.cycles + cyc);
  let block = v.block in
  let res = Dts_vliw.Engine.exec_li t.engine block v.idx in
  let penalty = t.engine.Dts_vliw.Engine.pen in
  let cyc = cyc + 1 + penalty in
  let stall = stall + penalty in
  match res with
  | R_next ->
    v.idx <- v.idx + 1;
    if t.st.Dts_isa.State.instret < max_instructions then
      vliw_burst t v max_instructions cyc stall
    else burst_charge t cyc stall
  | r ->
    burst_charge t cyc stall;
    li_outcome t block r

and burst_charge (t : machine) cyc stall =
  t.cycles <- t.cycles + cyc;
  t.vliw_cycles <- t.vliw_cycles + cyc;
  charge t Attr.Vliw_execute (cyc - stall);
  charge t Attr.Vliw_dcache_stall stall

(* In [M_vliw], a burst bounded by the current count: exactly one long
   instruction. *)
let step t =
  match t.mode with
  | M_primary -> step_primary t
  | M_vliw v -> vliw_burst t v t.st.instret 0 0

(** Run until the program halts or the golden machine has retired at least
    [max_instructions]. Returns the sequential instruction count. *)
let run ?(max_instructions = max_int) t =
  let g = Dts_golden.Golden.state t.golden in
  while
    (not t.halted)
    && g.instret < max_instructions
    && t.st.instret < max_instructions
  do
    match t.mode with
    | M_primary -> step_primary t
    | M_vliw v -> vliw_burst t v max_instructions 0 0
  done;
  (* drain: finish with a final golden sync and a full memory comparison *)
  if t.halted then begin
    ignore (Dts_golden.Golden.run t.golden);
    t.st.pc <- (Dts_golden.Golden.state t.golden).pc;
    if not (Dts_isa.State.regs_equal (Dts_golden.Golden.state t.golden) t.st)
    then
      mismatch t
        (Printf.sprintf "final state differs:\n%s"
           (state_diff t.st (Dts_golden.Golden.state t.golden)))
  end
  else sync t;
  if not (Dts_mem.Memory.equal t.st.mem (Dts_golden.Golden.state t.golden).mem)
  then mismatch t "final memory differs";
  (Dts_golden.Golden.state t.golden).instret

(** The live counters with those kept elsewhere filled in; the arrays are
    copied, so the snapshot never aliases the live record. *)
let stats t : Dts_obs.Stats.t =
  let o = t.obs in
  {
    o with
    cycles = t.cycles;
    vliw_cycles = t.vliw_cycles;
    instructions = (Dts_golden.Golden.state t.golden).instret;
    attribution = Array.copy o.attribution;
    slots_by_class = Array.copy o.slots_by_class;
    rr_max = Array.copy o.rr_max;
    icache_hits = Dts_mem.Cache.hits t.icache;
    icache_misses = Dts_mem.Cache.misses t.icache;
    dcache_hits = Dts_mem.Cache.hits t.dcache;
    dcache_misses = Dts_mem.Cache.misses t.dcache;
    vcache_hits = Dts_mem.Blockcache.hits t.vcache;
    vcache_misses = Dts_mem.Blockcache.misses t.vcache;
    vcache_insertions = Dts_mem.Blockcache.insertions t.vcache;
    vcache_evictions = Dts_mem.Blockcache.evictions t.vcache;
    trace_emitted = Trace.emitted t.tracer;
    trace_dropped = Trace.dropped t.tracer;
  }

let vliw_cycle_fraction t = Dts_obs.Stats.vliw_cycle_fraction (stats t)
let slot_utilisation t = Dts_obs.Stats.slot_utilisation (stats t)
