(** The DTSVLIW machine: Fetch Unit, engine switching, block chaining and
    test-mode co-simulation (§3.6, §4).

    The machine always runs in the paper's {e test mode}: a golden
    sequential machine executes the same program and the complete
    architectural state is compared at every engine switch and block
    completion, so any reported cycle count doubles as a machine-checked
    correctness proof. The golden machine also supplies the sequential
    instruction count that is the numerator of the IPC metric. *)

exception Test_mode_mismatch of { cycle : int; pc : int; detail : string }
(** The dynamically scheduled execution diverged from the sequential
    semantics — always a simulator bug, never expected. *)

type cached = {
  block : Dts_sched.Schedtypes.block;
  words : int array;
      (** the distinct code word addresses [block] was scheduled from,
          ascending: computed once at install, they key the
          self-modifying-code index until the line is dropped *)
  mutable plan : Dts_vliw.Plan.t option;
}
(** A VLIW Cache line (§3.4): the scheduled block, its code words and the
    execution plan
    compiled from it. The plan is compiled on the line's first fetch (when
    the machine compiles; see [~compile] of {!create}) and stays in the
    line, so it leaves the cache with the block: an evicted or invalidated
    block that is scheduled again gets a fresh line and a fresh plan. *)

type vstate = {
  mutable block : Dts_sched.Schedtypes.block;
  mutable idx : int;
}

type mode = M_primary | M_vliw of vstate

(** Pluggable trace scheduler: the DTSVLIW Scheduler Unit by default, or
    the DIF greedy scheduler ({!Dts_dif}) for the Figure 9 baseline. *)
type scheduler_iface = {
  s_tick : unit -> unit;  (** one machine cycle of scheduling work *)
  s_insert : Dts_primary.Primary.retired -> [ `Ok | `Full ];
  s_finish : nba_addr:int -> Dts_sched.Schedtypes.block option;
}

type t = {
  cfg : Config.t;
  st : Dts_isa.State.t;  (** the architectural state (shared by engines) *)
  golden : Dts_golden.Golden.t;  (** the test-mode reference machine *)
  primary : Dts_primary.Primary.t;
  sched : scheduler_iface;
  engine : Dts_vliw.Engine.t;
  vcache : cached Dts_mem.Blockcache.t;  (** VLIW Cache *)
  icache : Dts_mem.Cache.t;
  dcache : Dts_mem.Cache.t;
  compile : bool;
      (** execute VLIW Cache hits through compiled plans (default) or the
          engine's interpreter ([~compile:false]) *)
  code_index : (int, int list ref) Hashtbl.t;
      (** code word -> tags of cached blocks scheduled from it, for
          self-modifying-code invalidation *)
  mutable mode : mode;
  mutable vmode : mode;
      (** the reusable [M_vliw] record entered by every engine switch —
          allocated once, mutated in place per block transition *)
  mutable cycles : int;  (** total machine cycles *)
  mutable vliw_cycles : int;  (** cycles spent in the VLIW Engine *)
  mutable exception_mode : bool;  (** §3.11: scheduling disabled until the
                                      exception repeats in the Primary *)
  pending_blocks : (int * Dts_sched.Schedtypes.block) Queue.t;
      (** blocks draining to the VLIW Cache: (ready cycle, block) *)
  next_li_predictor : (int, int) Hashtbl.t;
      (** §5 extension: block tag -> last observed exit target *)
  mutable halted : bool;
  obs : Dts_obs.Stats.t;
      (** the live counters, which the VLIW Engine also updates; treat as
          internal — read telemetry through {!stats} *)
  tracer : Dts_obs.Trace.t;  (** the event sink given to {!create} *)
}

val create :
  ?compile:bool ->
  ?scheduler:(unit -> scheduler_iface) ->
  ?tracer:Dts_obs.Trace.t ->
  Config.t ->
  Dts_asm.Program.t ->
  t
(** Boot [program] into a fresh machine. [scheduler] overrides the default
    DTSVLIW Scheduler Unit (used by the DIF baseline); [tracer] (default
    {!Dts_obs.Trace.null}, i.e. disabled) receives the structural events of
    the run as JSONL. [compile] (default [true]) executes cached blocks
    through the plans ({!Dts_vliw.Plan}) kept in their {!cached} lines;
    [~compile:false] falls back to the engine's interpreter — the two are
    differentially tested to produce identical statistics, registers and
    memory. *)

val step : t -> unit
(** One simulation step: one Primary instruction or one long instruction.
    A long instruction runs through the same loop as in {!run}, bounded to
    one.
    @raise Test_mode_mismatch on architectural divergence. *)

val run : ?max_instructions:int -> t -> int
(** Run until the program halts or the golden machine has retired
    [max_instructions]; returns the sequential instruction count. Performs
    a final full-state (including memory) comparison. *)

val stats : t -> Dts_obs.Stats.t
(** A copy of every counter the machine and its components (scheduler,
    VLIW Engine, caches, tracer) maintain, including the per-category cycle
    attribution. The copy shares nothing with the machine: mutating it, or
    running the machine on, changes neither. The one read surface for
    telemetry. *)

val vliw_cycle_fraction : t -> float
(** Fraction of cycles spent executing long instructions (Table 3's "VLIW
    Engine Execution Cycles"). Derived from the {!stats} snapshot. *)

val slot_utilisation : t -> float
(** Fraction of long-instruction slots filled in flushed blocks (§4.4
    reports 33% for the paper's machine). Derived from the {!stats}
    snapshot. *)
