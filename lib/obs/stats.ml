(** Run statistics: a mutable collector the machine updates while it runs,
    and an immutable snapshot record consolidating every counter the
    simulator maintains — machine, scheduler, VLIW engine, caches and
    tracer — in one typed value.

    The snapshot replaces the loose mutable telemetry fields that used to
    live directly on [Machine.t]; consumers take a [Machine.stats] snapshot
    and derive metrics ({!ipc}, {!vliw_cycle_fraction}, {!slot_utilisation})
    from it instead of poking at machine internals. *)

(** Slot-occupancy classes: the four functional-unit classes plus the
    scheduler-generated copy instructions. *)
let slot_class_names = [| "int"; "mem"; "fp"; "br"; "copy" |]

let n_slot_classes = Array.length slot_class_names

(** The machine-side mutable accumulator. Owned and updated by
    [Dts_core.Machine]; read through [Machine.stats] snapshots. *)
type collector = {
  attr : Attribution.t;  (** cycle attribution accumulator *)
  tracer : Trace.t;  (** event tracer ({!Trace.null} when disabled) *)
  mutable nlp_hits : int;
  mutable nlp_misses : int;
  mutable engine_switches : int;
  mutable blocks_flushed : int;
  mutable slots_filled : int;
  mutable slots_total : int;
  mutable block_lis : int;
  mutable insert_full : int;
      (** scheduling-list-full events (the paper's flush-on-full rule) *)
  mutable pending_high_water : int;
      (** max blocks simultaneously draining to the VLIW Cache *)
  mutable plans_compiled : int;
      (** blocks compiled into execution plans at VLIW-mode entry *)
  mutable plan_hits : int;
      (** VLIW-mode entries served by an already-compiled plan *)
  mutable code_invalidations : int;
      (** cached blocks dropped because a store hit their code words *)
  rr_max : int array;
      (** max renaming registers per kind over all blocks (int/fp/flag/mem) *)
  slots_by_class : int array;
      (** filled slots of flushed blocks, indexed like {!slot_class_names} *)
}

let collector ?(tracer = Trace.null) () =
  {
    attr = Attribution.create ();
    tracer;
    nlp_hits = 0;
    nlp_misses = 0;
    engine_switches = 0;
    blocks_flushed = 0;
    slots_filled = 0;
    slots_total = 0;
    block_lis = 0;
    insert_full = 0;
    pending_high_water = 0;
    plans_compiled = 0;
    plan_hits = 0;
    code_invalidations = 0;
    rr_max = Array.make 4 0;
    slots_by_class = Array.make n_slot_classes 0;
  }

(** One immutable snapshot of everything measured in a run. *)
type t = {
  cycles : int;
  vliw_cycles : int;
  instructions : int;  (** sequential instructions (golden-machine count) *)
  attribution : int array;  (** indexed by {!Attribution.index} *)
  (* machine counters *)
  engine_switches : int;
  blocks_flushed : int;
  block_lis : int;
  slots_filled : int;
  slots_total : int;
  slots_by_class : int array;  (** indexed like {!slot_class_names} *)
  rr_max : int array;  (** int, fp, flag, mem *)
  nlp_hits : int;
  nlp_misses : int;
  insert_full : int;
  pending_high_water : int;
  syncs : int;  (** test-mode golden synchronisation points *)
  (* block compilation: plans kept in VLIW Cache lines *)
  plans_compiled : int;
  plan_hits : int;
  wdelta_variants : int;
      (** shifted window-delta variants built for compiled plans *)
  code_invalidations : int;
      (** cached blocks invalidated by stores to their code words *)
  (* VLIW Engine counters *)
  max_load_list : int;
  max_store_list : int;
  max_recovery_list : int;
  max_data_store_list : int;
  aliasing_exceptions : int;
  deferred_exceptions : int;
  block_exceptions : int;
  mispredicts : int;
  lis_executed : int;
  ops_committed : int;
  copies_committed : int;
  (* caches *)
  icache_hits : int;
  icache_misses : int;
  dcache_hits : int;
  dcache_misses : int;
  vcache_hits : int;
  vcache_misses : int;
  vcache_insertions : int;
  vcache_evictions : int;
  (* tracer *)
  trace_emitted : int;
  trace_dropped : int;
}

(* ------------------------------------------------------------------ *)
(* Derived metrics                                                      *)
(* ------------------------------------------------------------------ *)

let ipc s = float_of_int s.instructions /. float_of_int (max 1 s.cycles)

let vliw_cycle_fraction s =
  float_of_int s.vliw_cycles /. float_of_int (max 1 s.cycles)

let slot_utilisation s =
  float_of_int s.slots_filled /. float_of_int (max 1 s.slots_total)

let attributed_total s = Attribution.total s.attribution
let attributed_vliw s = Attribution.vliw_total s.attribution

(** The cycle-attribution invariant: categories sum to the machine's total
    cycle count and the VLIW categories to its VLIW cycle count. *)
let invariant_holds s =
  attributed_total s = s.cycles && attributed_vliw s = s.vliw_cycles

(* ------------------------------------------------------------------ *)
(* JSON snapshot (the [--stats-json] schema)                            *)
(* ------------------------------------------------------------------ *)

(* v2: adds the "plan" section (block compilation) *)
let schema_version = 2

let to_json s : Json.t =
  let i k v = (k, Json.Int v) in
  let f k v = (k, Json.Float v) in
  Obj
    [
      i "schema_version" schema_version;
      i "cycles" s.cycles;
      i "vliw_cycles" s.vliw_cycles;
      i "instructions" s.instructions;
      f "ipc" (ipc s);
      f "vliw_cycle_fraction" (vliw_cycle_fraction s);
      f "slot_utilisation" (slot_utilisation s);
      ( "attribution",
        Obj (List.map (fun (k, v) -> i k v) (Attribution.to_assoc s.attribution))
      );
      ( "machine",
        Obj
          [
            i "engine_switches" s.engine_switches;
            i "blocks_flushed" s.blocks_flushed;
            i "block_lis" s.block_lis;
            i "slots_filled" s.slots_filled;
            i "slots_total" s.slots_total;
            ( "slots_by_class",
              Obj
                (List.mapi
                   (fun k name -> i name s.slots_by_class.(k))
                   (Array.to_list slot_class_names)) );
            ( "rr_max",
              Obj
                [
                  i "int" s.rr_max.(0);
                  i "fp" s.rr_max.(1);
                  i "flag" s.rr_max.(2);
                  i "mem" s.rr_max.(3);
                ] );
            i "nlp_hits" s.nlp_hits;
            i "nlp_misses" s.nlp_misses;
            i "insert_full" s.insert_full;
            i "pending_high_water" s.pending_high_water;
            i "syncs" s.syncs;
          ] );
      ( "plan",
        Obj
          [
            i "plans_compiled" s.plans_compiled;
            i "plan_hits" s.plan_hits;
            i "wdelta_variants" s.wdelta_variants;
            i "code_invalidations" s.code_invalidations;
          ] );
      ( "engine",
        Obj
          [
            i "max_load_list" s.max_load_list;
            i "max_store_list" s.max_store_list;
            i "max_recovery_list" s.max_recovery_list;
            i "max_data_store_list" s.max_data_store_list;
            i "aliasing_exceptions" s.aliasing_exceptions;
            i "deferred_exceptions" s.deferred_exceptions;
            i "block_exceptions" s.block_exceptions;
            i "mispredicts" s.mispredicts;
            i "lis_executed" s.lis_executed;
            i "ops_committed" s.ops_committed;
            i "copies_committed" s.copies_committed;
          ] );
      ( "caches",
        Obj
          [
            i "icache_hits" s.icache_hits;
            i "icache_misses" s.icache_misses;
            i "dcache_hits" s.dcache_hits;
            i "dcache_misses" s.dcache_misses;
            i "vcache_hits" s.vcache_hits;
            i "vcache_misses" s.vcache_misses;
            i "vcache_insertions" s.vcache_insertions;
            i "vcache_evictions" s.vcache_evictions;
          ] );
      ( "trace",
        Obj [ i "emitted" s.trace_emitted; i "dropped" s.trace_dropped ] );
    ]

let to_json_string s = Json.to_string_pretty (to_json s) ^ "\n"
