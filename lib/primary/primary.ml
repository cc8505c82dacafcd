(** The Primary Processor (§3.1).

    A simple four-stage (fetch, decode, execute, write-back) pipelined SRISC
    processor. It executes instructions sequentially — it is the engine that
    runs code the first time it is seen — and hands each completed
    instruction, together with what was observed while executing it, to the
    Scheduler Unit.

    Timing follows Table 1 of the paper:
    - one instruction completes per cycle in the absence of hazards;
    - there is no branch prediction hardware; {e not-taken} branches cause a
      3-cycle bubble;
    - an instruction that uses the result of the immediately preceding load
      causes a 1-cycle bubble;
    - instruction and data cache misses stall for their miss penalties.

    Execution runs packed {!Dts_isa.Uop} micro-ops through
    {!Dts_isa.Semantics.exec_into}, allocating nothing per instruction;
    only {!step}'s retirement record is boxed. *)

type timing = {
  not_taken_branch_bubble : int;  (** Table 1: 3 *)
  load_use_bubble : int;  (** Table 1: 1 *)
  trap_service_cycles : int;  (** window spill/fill microroutine cost *)
}

let default_timing =
  {
    not_taken_branch_bubble = 3;
    load_use_bubble = 1;
    trap_service_cycles = 20;
  }

(** One completed (retired) instruction with everything the Scheduler Unit
    needs to know about its execution. *)
type retired = {
  instr : Dts_isa.Instr.t;
  addr : int;  (** the instruction's PC *)
  cwp : int;  (** window pointer observed at execution (§3.9) *)
  next_pc : int;
  taken : bool;  (** direction of a control transfer (§3.5, §3.8) *)
  mem : (int * int) option;  (** observed effective address and size *)
  rwsets : Dts_isa.Storage.t list * Dts_isa.Storage.t list;
      (** observed (reads, writes) from {!Dts_isa.Rwsets.of_instr}, computed
          once at retirement with the executing state's window count, the
          observed window pointer and the observed effective address — the
          schedulers consume these instead of decoding the sets again.
          [([], [])] for a memory instruction with no observed access (a
          trapped occurrence; never handed to a scheduler). *)
  trapped : bool;  (** needed trap service — a non-schedulable occurrence *)
  cycles : int;  (** cycles this instruction consumed in the pipeline *)
  icache_stall : int;  (** of [cycles]: instruction-cache miss penalty *)
  dcache_stall : int;  (** of [cycles]: data-cache miss penalty *)
}

type t = {
  st : Dts_isa.State.t;
  icache : Dts_mem.Cache.t;
  dcache : Dts_mem.Cache.t;
  timing : timing;
  latencies : Dts_isa.Instr.latencies;
      (** execute-stage latencies; multicycle instructions occupy the
          execute stage for extra cycles *)
  buf : Dts_isa.Semantics.outcome_buf;  (** outcome scratch *)
  mutable last_load_p : int;
      (** physical integer destination of the previous instruction if it
          was an integer load, or -1 *)
  mutable last_load_f : int;  (** ... fp destination for [fload], or -1 *)
  mutable total_cycles : int;
      (** pipeline cycles consumed by every instruction retired so far *)
  (* scratch observations of the last [step_core], consumed by [step]
     when it builds the retirement record *)
  mutable s_trapped : bool;
  mutable s_cycles : int;
  mutable s_icache_stall : int;
  mutable s_dcache_stall : int;
}

let create ?(timing = default_timing) ~latencies ~icache ~dcache st =
  {
    st;
    icache;
    dcache;
    timing;
    latencies;
    buf = Dts_isa.Semantics.make_buf ();
    last_load_p = -1;
    last_load_f = -1;
    total_cycles = 0;
    s_trapped = false;
    s_cycles = 0;
    s_icache_stall = 0;
    s_dcache_stall = 0;
  }

let total_cycles t = t.total_cycles

exception Halted

(* Halt retires without touching the caches or the cycle budget: the final
   fetch is not replayed architecturally, so accruing its stall cycles
   while dropping the retirement record would make the cycle books and the
   cache stats disagree (the obs sum invariant). *)
let retire_halt t =
  t.st.halted <- true;
  t.st.instret <- t.st.instret + 1;
  raise Halted

(* Does [u] read the destination of the previous instruction's load?
   Decides [Storage.any_overlap (fst rwsets) load_writes] for the only
   positions a load can write (one integer or one fp register): memory,
   flag and window reads can never overlap them. [-1] sentinels make the
   comparisons vacuously false when there is no previous load. *)
let reads_prev_load_dest t u ~cwp =
  let module U = Dts_isa.Uop in
  let st = t.st in
  let lp = t.last_load_p and lf = t.last_load_f in
  let rr r = r <> 0 && Dts_isa.State.phys_fast_of st ~cwp r = lp in
  let op2_hit () = (not (U.is_imm u)) && rr (U.rs2 u) in
  let opc = U.opcode u in
  if opc <= U.u_last_alu then rr (U.rs1 u) || op2_hit ()
  else if opc >= U.u_load && opc <= U.u_last_load then
    rr (U.rs1 u) || op2_hit ()
  else if opc >= U.u_store && opc <= U.u_last_store then
    rr (U.rd u) || rr (U.rs1 u) || op2_hit ()
  else if opc = U.u_jmpl || opc = U.u_save || opc = U.u_restore then
    rr (U.rs1 u) || op2_hit ()
  else if opc >= U.u_fpop && opc <= U.u_last_fpop then
    U.rs1 u = lf || U.rs2 u = lf
  else if opc = U.u_fload then rr (U.rs1 u) || op2_hit ()
  else if opc = U.u_fstore then U.rd u = lf || rr (U.rs1 u) || op2_hit ()
  else false (* sethi, branches, call, trap, nop read no register a load
                can write *)

(* One full step minus the retirement record: executes, accounts cycles
   into the scratch fields and [total_cycles], applies. [step] wraps it to
   build the record; [run] loops it for record-free execution. *)
let step_core t =
  let module U = Dts_isa.Uop in
  let st = t.st in
  if st.halted then raise Halted;
  let pc = st.pc in
  let cwp = st.cwp in
  let u = Dts_isa.Predecode.fetch_uop st.predecode ~addr:pc in
  let opc = U.opcode u in
  if opc = U.u_halt then retire_halt t;
  let icache_stall = Dts_mem.Cache.access t.icache pc in
  (* 1 base cycle + stall + (latency - 1) extra execute cycles *)
  let cycles = ref (icache_stall + U.latency t.latencies u) in
  let b = t.buf in
  Dts_isa.Semantics.exec_into st ~cwp ~pc u b;
  let trapped = b.b_trap <> 0 in
  if trapped then begin
    cycles := !cycles + t.timing.trap_service_cycles;
    Dts_isa.Semantics.service_and_exec_into st ~cwp ~pc u b
  end;
  let observed = b.b_load_size <> 0 || b.b_store_size <> 0 in
  let is_mem =
    (opc >= U.u_load && opc <= U.u_last_store)
    || opc = U.u_fload || opc = U.u_fstore
  in
  (if
     (t.last_load_p >= 0 || t.last_load_f >= 0)
     && (observed || not is_mem)
     && reads_prev_load_dest t u ~cwp
   then cycles := !cycles + t.timing.load_use_bubble);
  let dcache_stall = ref 0 in
  if b.b_load_size <> 0 then
    dcache_stall := !dcache_stall + Dts_mem.Cache.access t.dcache b.b_load_addr;
  if b.b_store_size <> 0 then
    dcache_stall := !dcache_stall + Dts_mem.Cache.access t.dcache b.b_store_addr;
  cycles := !cycles + !dcache_stall;
  if
    opc > U.u_branch && opc <= U.u_last_branch && not b.b_taken
    (* [u_branch] itself is the always-taken cond A *)
  then cycles := !cycles + t.timing.not_taken_branch_bubble;
  (* track the load destination before apply moves the window pointer
     (loads never do, but the order keeps the invariant obvious) *)
  if (not trapped) && b.b_load_size <> 0 then
    if opc = U.u_fload then begin
      t.last_load_p <- -1;
      t.last_load_f <- U.rd u
    end
    else begin
      (* integer load: b_w0 already holds the physical destination *)
      t.last_load_p <- b.b_w0;
      t.last_load_f <- -1
    end
  else begin
    t.last_load_p <- -1;
    t.last_load_f <- -1
  end;
  Dts_isa.Semantics.apply_buf st b;
  t.total_cycles <- t.total_cycles + !cycles;
  t.s_trapped <- trapped;
  t.s_cycles <- !cycles;
  t.s_icache_stall <- icache_stall;
  t.s_dcache_stall <- !dcache_stall

(** Execute one instruction at the current PC and return its retirement
    record. Traps are serviced in place (and flagged). Raises {!Halted} when
    the program stops. *)
let step t : retired =
  let st = t.st in
  if st.halted then raise Halted;
  let pc = st.pc in
  let cwp = st.cwp in
  (* materialise the boxed decode before executing: a store over its own
     word (self-modifying code) invalidates the slot during the step *)
  let instr = Dts_isa.Predecode.instr_at st.predecode ~addr:pc in
  step_core t;
  let b = t.buf in
  let observed_mem =
    if b.b_load_size <> 0 then Some (b.b_load_addr, b.b_load_size)
    else if b.b_store_size <> 0 then Some (b.b_store_addr, b.b_store_size)
    else None
  in
  let rwsets =
    if observed_mem = None && Dts_isa.Instr.is_mem instr then ([], [])
    else
      Dts_isa.Rwsets.of_instr ~nwindows:st.nwindows ~cwp ?mem:observed_mem
        instr
  in
  {
    instr;
    addr = pc;
    cwp;
    next_pc = b.b_next_pc;
    taken = b.b_taken;
    mem = observed_mem;
    rwsets;
    trapped = t.s_trapped;
    cycles = t.s_cycles;
    icache_stall = t.s_icache_stall;
    dcache_stall = t.s_dcache_stall;
  }

(** Run to [Halt] (or for [max_instructions]) without building retirement
    records; returns the number of instructions retired by this call. This
    executes allocation-free — the engine of choice for standalone Primary
    runs (the fuzzer's differential oracle, IPC baselines). Timing is
    accounted identically to {!step} (see {!total_cycles}). *)
let run ?(max_instructions = max_int) t =
  let st = t.st in
  let start = st.instret in
  (try
     while st.instret - start < max_instructions do
       step_core t
     done
   with Halted -> ());
  st.instret - start

(** Invalidate pipeline-local hazard tracking (used when the machine swaps
    engines — the pipeline is refilled, so stale hazards must not apply). *)
let reset_hazards t =
  t.last_load_p <- -1;
  t.last_load_f <- -1
