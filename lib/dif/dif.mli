(** The DIF machine of Nair & Hopkins [9], the baseline of the paper's
    Figure 9 (§3.12, §4.5).

    DIF replaces the DTSVLIW's FCFS list scheduler with a greedy
    resource-table scheduler, and its copy-based renaming with register
    instances (up to 4 per architectural register) read through a map table
    and committed by per-exit-point exit maps. The blocks it builds execute
    on the same {!Dts_vliw.Engine}, inside the same {!Dts_core.Machine}
    harness, with the same test-mode co-simulation. See the implementation
    header for the modelling choices (all conservative in DIF's favour). *)

type config = {
  width : int;
  height : int;
  nwindows : int;
  instances_per_reg : int;  (** 4 in [9] *)
  exit_map_bytes : int;  (** 19 bytes per exit point in [9] *)
  latencies : Dts_isa.Instr.latencies;
}

val default_config : config
(** Figure 9's 6x6 blocks, 4 instances per register, 19-byte exit maps. *)

type t = {
  cfg : config;
  mutable lis : Dts_sched.Schedtypes.li array;
  mutable n_lis : int;
  mutable max_li : int;
  avail : (Dts_isa.Storage.t, int) Hashtbl.t;
  imap : (Dts_isa.Storage.t, Dts_sched.Schedtypes.rref) Hashtbl.t;
  inst_count : (Dts_isa.Storage.t, int) Hashtbl.t;
  mutable mem_stores : (int * int * int) list;
  mutable last_store_li : int;
  mutable last_load_li : int;
  mutable last_branch_li : int;
  mutable first_addr : int option;
  mutable entry_cwp : int;
  mutable order_ctr : int;
  rr_ctr : int array;
  mutable uid_ctr : int;
  mutable exits : int;
  mutable blocks_built : int;  (** lifetime statistic *)
  mutable total_exits : int;  (** exit points across all blocks *)
  mutable cache_bytes : int;
      (** DIF-accounted bytes of all built blocks: decoded instructions plus
          19 bytes per exit point — the basis of the paper's 463KB-vs-216KB
          comparison *)
}

val create : config -> t

val insert : t -> Dts_primary.Primary.retired -> [ `Ok | `Full ]
(** Greedy placement of one completed instruction. [`Full] when it does not
    fit in the block (height exhausted or register instances exhausted). *)

val finish_block :
  t -> nba_addr:int -> Dts_sched.Schedtypes.block option
(** Emit the fall-through exit map and freeze the block. *)

val machine :
  ?tracer:Dts_obs.Trace.t ->
  machine_cfg:Dts_core.Config.t ->
  Dts_asm.Program.t ->
  Dts_core.Machine.t * t
(** A complete DIF machine (shared Primary Processor, VLIW Engine, block
    cache and test-mode machinery) driven by the greedy scheduler; returns
    the machine and the scheduler for its statistics. The scheduler builds
    blocks of [machine_cfg]'s geometry, window count and latencies, with
    {!default_config}'s register instances and exit-map size. [tracer] is
    forwarded to {!Dts_core.Machine.create}. *)

val fig9_machine_cfg : unit -> Dts_core.Config.t
(** Figure 9's comparison parameters: 6x6 blocks, 4KB instruction and data
    caches with 2-cycle misses, 512x2-block code cache. *)
