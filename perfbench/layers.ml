(* Outside-in tracing for the benchmark's traced run.

   Spans are recorded here, in the benchmark's own files, around calls into
   each layer's public entry points; nothing inside the simulator is
   instrumented. Work that happens once per call on a hot path (about a
   million [Machine.step] calls per simulation) is not a span: the caller
   aggregates it into per-op totals with {!add}. Spans stay in memory and
   are written as JSONL when the run ends. *)

let now = Unix.gettimeofday

type span = {
  id : int;
  parent : int option;
  name : string;
  op : int option;
  start : float;
  mutable stop : float;
  mutable counts : (string * float) list;
      (** per-op aggregates of work too fine-grained for spans *)
}

type t = {
  workload : string;
  t0 : float;
  mutable spans : span list;  (** most recent first *)
  mutable n_spans : int;
  totals : (string, float ref) Hashtbl.t;  (** raw per-layer totals *)
}

let create ~workload =
  { workload; t0 = now (); spans = []; n_spans = 0; totals = Hashtbl.create 64 }

let add t key v =
  match Hashtbl.find_opt t.totals key with
  | Some r -> r := !r +. v
  | None -> Hashtbl.add t.totals key (ref v)

let total t key =
  match Hashtbl.find_opt t.totals key with Some r -> !r | None -> 0.

(** Run [f] inside a new span, which belongs to its parent's op unless
    given its own. With [~metric], the span's duration is also added to
    that total. The span is closed even when [f] raises. *)
let within t ?parent ?op ?metric name f =
  let s =
    {
      id = t.n_spans;
      parent = Option.map (fun p -> p.id) parent;
      name;
      op = (match op with Some _ -> op | None -> Option.bind parent (fun p -> p.op));
      start = now ();
      stop = nan;
      counts = [];
    }
  in
  t.spans <- s :: t.spans;
  t.n_spans <- t.n_spans + 1;
  let close () =
    s.stop <- now ();
    Option.iter (fun m -> add t m (s.stop -. s.start)) metric
  in
  Fun.protect ~finally:close (fun () -> f s)

let span_json t s =
  let open Dts_obs.Json in
  let opt f = function Some v -> f v | None -> Null in
  Obj
    ([
       ("id", Int s.id);
       ("parent", opt (fun p -> Int p) s.parent);
       ("name", String s.name);
       ("start", Float (s.start -. t.t0));
       ("end", Float (s.stop -. t.t0));
       ("workload", String t.workload);
       ("op", opt (fun o -> Int o) s.op);
     ]
    @
    if s.counts = [] then []
    else [ ("counts", Obj (List.map (fun (k, v) -> (k, Float v)) s.counts)) ])

let write_spans t path =
  let oc = open_out path in
  List.iter
    (fun s -> output_string oc (Dts_obs.Json.to_string (span_json t s) ^ "\n"))
    (List.rev t.spans);
  close_out oc

(* The counters every simulation snapshot carries, summed into the totals
   the per-layer metrics are derived from. *)
let add_stats t (s : Dts_obs.Stats.t) =
  let f key v = add t key (float_of_int v) in
  f "machine.syncs" s.syncs;
  f "machine.engine_switches" s.engine_switches;
  f "sched.blocks" s.blocks_flushed;
  f "sched.insert_full" s.insert_full;
  f "sched.slots_filled" s.slots_filled;
  f "sched.slots_total" s.slots_total;
  f "plan.compiled" s.plans_compiled;
  f "plan.hits" s.plan_hits;
  f "engine.lis" s.lis_executed;
  f "engine.ops_committed" s.ops_committed;
  f "engine.copies_committed" s.copies_committed;
  f "engine.mispredicts" s.mispredicts;
  f "engine.aliasing_exceptions" s.aliasing_exceptions;
  f "vcache.hits" s.vcache_hits;
  f "vcache.misses" s.vcache_misses;
  f "vcache.evictions" s.vcache_evictions

(* The figures of [Experiments.plan "all"] that simulate, in plan order.
   [Suite.figures] checks that their plans concatenate to it. *)
let figures =
  [ "fig5a"; "fig5"; "fig6"; "fig7"; "fig8"; "table3"; "fig9"; "ablation";
    "extensions" ]

let ratio a b = if b > 0. then a /. b else 0.

(** Every per-layer metric, as [(name, value, unit)]: totals divided by the
    number of traced passes, or ratios of totals. A layer the workload does
    not reach, or does not expose to outside timers, reads 0. [gc] is the
    minor and major words allocated per instruction by the untraced passes,
    [overhead] the traced pass wall over the untraced one, minus 1. *)
let metrics t ~passes ~gc:(minor, major) ~overhead =
  let per k = total t k /. float_of_int passes in
  let count k = (k, per k, "count") and secs k = (k, per k, "s") in
  let r k a b = (k, ratio (total t a) (total t b), "ratio") in
  [
    secs "machine.vliw_step_s";
    count "machine.syncs";
    count "machine.engine_switches";
    secs "golden.replay_s";
    count "golden.instructions";
    ( "machine.primary_step_self_s",
      per "machine.primary_step_s" -. per "sched.busy_s",
      "s" );
    count "primary.steps";
    secs "sched.busy_s";
    count "sched.ticks";
    count "sched.inserts";
    count "sched.blocks";
    count "sched.insert_full";
    r "sched.slot_util" "sched.slots_filled" "sched.slots_total";
    count "plan.compiled";
    count "plan.hits";
    ( "plan.hit_ratio",
      ratio (total t "plan.hits") (total t "plan.hits" +. total t "plan.compiled"),
      "ratio" );
    ( "plan.compile_us",
      1e6 *. ratio (total t "plan.offline_s") (total t "plan.offline_blocks"),
      "us" );
    count "engine.lis";
    count "engine.ops_committed";
    count "engine.copies_committed";
    count "engine.mispredicts";
    count "engine.aliasing_exceptions";
    ( "vcache.hit_ratio",
      ratio (total t "vcache.hits") (total t "vcache.hits" +. total t "vcache.misses"),
      "ratio" );
    count "vcache.evictions";
    ("gc.minor_words_per_instr", minor, "words/instr");
    ("gc.major_words_per_instr", major, "words/instr");
    secs "fuzz.gen_s";
    secs "fuzz.golden_s";
  ]
  @ List.map
      (fun (e : Dts_fuzz.Diff.engine) -> secs ("fuzz.engine." ^ e.e_name ^ "_s"))
      (Dts_fuzz.Diff.engines `All)
  @ List.map (fun f -> secs ("experiments." ^ f ^ "_s")) figures
  @ [ ("trace.overhead_frac", overhead, "ratio") ]
