(** Run statistics: one record of every counter a run maintains. The
    machine counts into a live record; consumers derive metrics from
    [Machine.stats] snapshots instead of reading machine internals. *)

val slot_class_names : string array
(** ["int"; "mem"; "fp"; "br"; "copy"] — the four functional-unit classes
    plus scheduler-generated copies. *)

val n_slot_classes : int

(** Every counter of one run. [Dts_core.Machine] creates one record and
    counts into it, and hands it to its VLIW Engine, which counts into it
    too. [Machine.stats] returns a copy with the counters kept elsewhere
    filled in: [cycles], [vliw_cycles], [instructions], the cache and the
    trace counters. *)
type t = {
  mutable cycles : int;
  mutable vliw_cycles : int;
  mutable instructions : int;
      (** sequential instructions (golden-machine count) *)
  attribution : int array;  (** indexed by {!Attribution.index} *)
  mutable engine_switches : int;
  mutable blocks_flushed : int;
  mutable block_lis : int;
  mutable slots_filled : int;
  mutable slots_total : int;
  slots_by_class : int array;  (** indexed like {!slot_class_names} *)
  rr_max : int array;
      (** per-kind renaming-register high water: int, fp, flag, mem *)
  mutable nlp_hits : int;
  mutable nlp_misses : int;
  mutable insert_full : int;
      (** scheduling-list-full events (flush-on-full rule) *)
  mutable pending_high_water : int;
      (** max blocks simultaneously draining to the VLIW Cache *)
  mutable syncs : int;  (** test-mode golden synchronisation points *)
  mutable plans_compiled : int;  (** blocks compiled into execution plans *)
  mutable plan_hits : int;  (** VLIW entries served by a cached plan *)
  mutable wdelta_variants : int;  (** shifted window-delta plan variants built *)
  mutable code_invalidations : int;
      (** cached blocks dropped by stores hitting their code words *)
  mutable max_load_list : int;
  mutable max_store_list : int;
  mutable max_recovery_list : int;
  mutable max_data_store_list : int;
  mutable aliasing_exceptions : int;
  mutable deferred_exceptions : int;
  mutable block_exceptions : int;
  mutable mispredicts : int;
  mutable lis_executed : int;
  mutable ops_committed : int;
  mutable copies_committed : int;
  mutable icache_hits : int;
  mutable icache_misses : int;
  mutable dcache_hits : int;
  mutable dcache_misses : int;
  mutable vcache_hits : int;
  mutable vcache_misses : int;
  mutable vcache_insertions : int;
  mutable vcache_evictions : int;
  mutable trace_emitted : int;
  mutable trace_dropped : int;
}

val create : unit -> t
(** A record with every counter at zero. *)

val ipc : t -> float
(** Sequential instructions / machine cycles — the paper's metric. *)

val vliw_cycle_fraction : t -> float
val slot_utilisation : t -> float

val attributed_total : t -> int
(** Sum of all attribution categories; equals [cycles] by invariant. *)

val attributed_vliw : t -> int
(** Sum of the VLIW-side categories; equals [vliw_cycles] by invariant. *)

val invariant_holds : t -> bool

val schema_version : int

val to_json : t -> Json.t
val to_json_string : t -> string
(** The [--stats-json] document (pretty-printed, newline-terminated). *)
