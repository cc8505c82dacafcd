(** Run statistics: one record of every counter the simulator maintains —
    machine, scheduler, VLIW Engine, caches and tracer.

    The machine and its VLIW Engine count into one live record while they
    run; [Machine.stats] returns a copy of it, with the counters kept
    elsewhere (cycles, the golden instruction count, the caches, the
    tracer) filled in, and consumers derive metrics ({!ipc},
    {!vliw_cycle_fraction}, {!slot_utilisation}) from that copy. Adding a
    counter means adding a field to {!t}, its zero to {!create} and its
    key to {!to_json}. *)

(** Slot-occupancy classes: the four functional-unit classes plus the
    scheduler-generated copy instructions. *)
let slot_class_names = [| "int"; "mem"; "fp"; "br"; "copy" |]

let n_slot_classes = Array.length slot_class_names

type t = {
  mutable cycles : int;
  mutable vliw_cycles : int;
  mutable instructions : int;
      (** sequential instructions (golden-machine count) *)
  attribution : int array;  (** indexed by {!Attribution.index} *)
  (* machine counters *)
  mutable engine_switches : int;
  mutable blocks_flushed : int;
  mutable block_lis : int;
  mutable slots_filled : int;
  mutable slots_total : int;
  slots_by_class : int array;  (** indexed like {!slot_class_names} *)
  rr_max : int array;  (** int, fp, flag, mem *)
  mutable nlp_hits : int;
  mutable nlp_misses : int;
  mutable insert_full : int;
  mutable pending_high_water : int;
  mutable syncs : int;  (** test-mode golden synchronisation points *)
  (* block compilation: plans kept in VLIW Cache lines *)
  mutable plans_compiled : int;
  mutable plan_hits : int;
  mutable wdelta_variants : int;
      (** shifted window-delta variants built for compiled plans *)
  mutable code_invalidations : int;
      (** cached blocks invalidated by stores to their code words *)
  (* VLIW Engine counters *)
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
  (* caches *)
  mutable icache_hits : int;
  mutable icache_misses : int;
  mutable dcache_hits : int;
  mutable dcache_misses : int;
  mutable vcache_hits : int;
  mutable vcache_misses : int;
  mutable vcache_insertions : int;
  mutable vcache_evictions : int;
  (* tracer *)
  mutable trace_emitted : int;
  mutable trace_dropped : int;
}

let create () =
  {
    cycles = 0;
    vliw_cycles = 0;
    instructions = 0;
    attribution = Attribution.create ();
    engine_switches = 0;
    blocks_flushed = 0;
    block_lis = 0;
    slots_filled = 0;
    slots_total = 0;
    slots_by_class = Array.make n_slot_classes 0;
    rr_max = Array.make 4 0;
    nlp_hits = 0;
    nlp_misses = 0;
    insert_full = 0;
    pending_high_water = 0;
    syncs = 0;
    plans_compiled = 0;
    plan_hits = 0;
    wdelta_variants = 0;
    code_invalidations = 0;
    max_load_list = 0;
    max_store_list = 0;
    max_recovery_list = 0;
    max_data_store_list = 0;
    aliasing_exceptions = 0;
    deferred_exceptions = 0;
    block_exceptions = 0;
    mispredicts = 0;
    lis_executed = 0;
    ops_committed = 0;
    copies_committed = 0;
    icache_hits = 0;
    icache_misses = 0;
    dcache_hits = 0;
    dcache_misses = 0;
    vcache_hits = 0;
    vcache_misses = 0;
    vcache_insertions = 0;
    vcache_evictions = 0;
    trace_emitted = 0;
    trace_dropped = 0;
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
