(* Observability layer tests.

   The load-bearing one is the attribution invariant: for every workload,
   on both the ideal and the feasible machine and on the DIF baseline,
   every machine cycle must be charged to exactly one category — the
   categories sum to [cycles] and the VLIW-side categories to
   [vliw_cycles]. A missed or double charge anywhere in the machine's
   cycle accounting fails this for some workload.

   The tracer round-trip test replays a run with a Memory-sink tracer and
   checks that the JSONL stream parses and that event counts agree with
   the counters in the stats snapshot. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let budget = 4_000

let check_invariant label (s : Dts_obs.Stats.t) =
  check_bool (label ^ ": run progressed") true (s.cycles > 0);
  check_int
    (label ^ ": attribution sums to cycles")
    s.cycles
    (Dts_obs.Stats.attributed_total s);
  check_int
    (label ^ ": VLIW attribution sums to vliw_cycles")
    s.vliw_cycles
    (Dts_obs.Stats.attributed_vliw s);
  check_bool (label ^ ": invariant_holds") true (Dts_obs.Stats.invariant_holds s)

let test_attribution_invariant () =
  List.iter
    (fun name ->
      List.iter
        (fun (cfg_label, cfg) ->
          let r = Dts_experiments.Experiments.run_dtsvliw ~budget cfg name in
          check_invariant (name ^ "/" ^ cfg_label) r.stats)
        [
          ("ideal", Dts_core.Config.ideal ());
          ("feasible", Dts_core.Config.feasible ());
        ];
      let r, _ =
        Dts_experiments.Experiments.run_dif ~budget
          (Dts_dif.Dif.fig9_machine_cfg ())
          name
      in
      check_invariant (name ^ "/dif") r.stats)
    Dts_experiments.Experiments.workload_names

(* extension configurations exercise the remaining attribution categories
   (next-li prediction redirects, data-store-list drains) *)
let test_attribution_invariant_extensions () =
  let feasible = Dts_core.Config.feasible () in
  List.iter
    (fun (label, cfg) ->
      let r = Dts_experiments.Experiments.run_dtsvliw ~budget cfg "compress" in
      check_invariant ("compress/" ^ label) r.stats)
    [
      ("predict-next", { feasible with next_li_prediction = true });
      ( "data-store-list",
        { feasible with store_scheme = Dts_vliw.Engine.Data_store_list } );
      ( "no-renaming",
        { feasible with sched = { feasible.sched with renaming = false } } );
    ]

let test_tracer_roundtrip () =
  let buf = Buffer.create 4096 in
  let tracer = Dts_obs.Trace.to_buffer buf in
  let r =
    Dts_experiments.Experiments.run_dtsvliw ~budget ~tracer
      (Dts_core.Config.feasible ()) "compress"
  in
  let s = r.stats in
  let text = Buffer.contents buf in
  check_bool "trace non-empty" true (String.length text > 0);
  check_int "emitted counter matches stats" s.trace_emitted
    (Dts_obs.Trace.emitted tracer);
  check_int "nothing dropped" 0 s.trace_dropped;
  (* every line must parse, cycles must be monotone *)
  let lines =
    String.split_on_char '\n' text |> List.filter (fun l -> l <> "")
  in
  check_int "line count = emitted" s.trace_emitted (List.length lines);
  let last = ref (-1) in
  let to_vliw = ref 0 in
  List.iter
    (fun line ->
      let cycle, name, obj = Dts_obs.Trace.parse_line line in
      check_bool "cycle monotone" true (cycle >= !last);
      last := cycle;
      check_bool "known event name" true
        (List.mem name Dts_obs.Trace.event_names);
      check_bool "record is an object" true
        (match obj with Dts_obs.Json.Obj _ -> true | _ -> false);
      if
        name = "engine_switch"
        && Dts_obs.Json.member "to" obj
           = Some (Dts_obs.Json.String "vliw")
      then incr to_vliw)
    lines;
  (* event counts agree with the stats snapshot counters; engine_switches
     counts VLIW-engine entries (block-to-block chaining enters without an
     intervening return), i.e. the to=vliw switch events *)
  check_int "engine_switch(to=vliw) events" s.engine_switches !to_vliw;
  let counts = Dts_obs.Trace.count_events text in
  let n name = Option.value ~default:0 (Hashtbl.find_opt counts name) in
  check_int "block_flush events" s.blocks_flushed (n "block_flush");
  check_int "block_install events" s.vcache_insertions (n "block_install");
  check_int "block_evict events" s.vcache_evictions (n "block_evict");
  check_int "aliasing_violation events" s.aliasing_exceptions
    (n "aliasing_violation");
  check_int "checkpoint_recovery events" s.block_exceptions
    (n "checkpoint_recovery");
  (* and a traced run must not perturb the simulation *)
  let r' =
    Dts_experiments.Experiments.run_dtsvliw ~budget
      (Dts_core.Config.feasible ()) "compress"
  in
  check_int "tracing does not change cycles" r'.stats.cycles r.stats.cycles

let test_tracer_limit () =
  let buf = Buffer.create 256 in
  let tracer = Dts_obs.Trace.to_buffer ~limit:5 buf in
  let r =
    Dts_experiments.Experiments.run_dtsvliw ~budget ~tracer
      (Dts_core.Config.feasible ()) "compress"
  in
  check_int "emitted capped at limit" 5 r.stats.trace_emitted;
  check_bool "excess events counted as dropped" true (r.stats.trace_dropped > 0);
  let lines =
    Buffer.contents buf |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  check_int "sink holds exactly limit lines" 5 (List.length lines)

let test_stats_json_roundtrip () =
  let r =
    Dts_experiments.Experiments.run_dtsvliw ~budget
      (Dts_core.Config.feasible ()) "compress"
  in
  let doc = Dts_obs.Json.of_string (Dts_obs.Stats.to_json_string r.stats) in
  let get obj key =
    match Dts_obs.Json.member key obj with
    | Some v -> v
    | None -> Alcotest.failf "missing key %s" key
  in
  let as_int label v =
    match Dts_obs.Json.to_int v with
    | Some n -> n
    | None -> Alcotest.failf "%s is not an integer" label
  in
  check_int "schema_version" Dts_obs.Stats.schema_version
    (as_int "schema_version" (get doc "schema_version"));
  check_int "cycles round-trips" r.stats.cycles
    (as_int "cycles" (get doc "cycles"));
  let attribution = get doc "attribution" in
  let attributed =
    List.fold_left
      (fun acc cat ->
        acc
        + as_int
            (Dts_obs.Attribution.name cat)
            (get attribution (Dts_obs.Attribution.name cat)))
      0 Dts_obs.Attribution.all
  in
  check_int "JSON attribution sums to cycles" r.stats.cycles attributed

let test_json_parser () =
  let roundtrip v =
    Alcotest.(check string)
      "print/parse/print fixpoint"
      (Dts_obs.Json.to_string v)
      (Dts_obs.Json.to_string (Dts_obs.Json.of_string (Dts_obs.Json.to_string v)))
  in
  roundtrip
    (Dts_obs.Json.Obj
       [
         ("a", Dts_obs.Json.Int (-3));
         ("b", Dts_obs.Json.List [ Dts_obs.Json.Bool true; Dts_obs.Json.Null ]);
         ("c\"\n", Dts_obs.Json.String "esc\\ape\t\"quoted\"");
         ("d", Dts_obs.Json.Float 0.25);
       ]);
  (match Dts_obs.Json.of_string "{\"x\": [1, 2" with
  | exception Dts_obs.Json.Parse_error _ -> ()
  | _ -> Alcotest.fail "truncated input must not parse")

let test_breakdown_figure () =
  let fig = Dts_experiments.Experiments.run ~budget "breakdown" in
  let out = fig.Dts_experiments.Experiments.render () in
  (* the TOTAL row renders the invariant: always exactly 100.0% *)
  check_bool "has TOTAL row" true
    (let hay = out and needle = "TOTAL (attributed/machine)" in
     let hl = String.length hay and nl = String.length needle in
     let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
     go 0);
  List.iter
    (fun (r : Dts_experiments.Experiments.run) ->
      check_invariant ("breakdown/" ^ r.workload) r.stats)
    fig.Dts_experiments.Experiments.rows

(* [Machine.stats] returns a copy: neither mutating one snapshot nor
   running the machine on may show in another. *)
let compress_machine () =
  Dts_core.Machine.create (Dts_core.Config.feasible ())
    (Dts_workloads.Workloads.program ~scale:1
       (Dts_workloads.Workloads.find "compress"))

let test_snapshot_mutation_isolated () =
  let m = compress_machine () in
  ignore (Dts_core.Machine.run ~max_instructions:budget m);
  let s = Dts_core.Machine.stats m in
  let cycles = s.cycles
  and attribution = Array.copy s.attribution
  and rr_max = Array.copy s.rr_max
  and slots_by_class = Array.copy s.slots_by_class in
  s.cycles <- s.cycles + 1;
  List.iter
    (fun a -> Array.fill a 0 (Array.length a) (-1))
    [ s.attribution; s.rr_max; s.slots_by_class ];
  let s' = Dts_core.Machine.stats m in
  check_int "cycles" cycles s'.cycles;
  check_bool "attribution" true (s'.attribution = attribution);
  check_bool "rr_max" true (s'.rr_max = rr_max);
  check_bool "slots_by_class" true (s'.slots_by_class = slots_by_class)

let test_snapshot_frozen_as_machine_runs () =
  let m = compress_machine () in
  (* stop early, while compress is still building blocks *)
  ignore (Dts_core.Machine.run ~max_instructions:100 m);
  let s = Dts_core.Machine.stats m in
  let cycles = s.cycles
  and syncs = s.syncs
  and ops = s.ops_committed
  and attribution = Array.copy s.attribution
  and slots_by_class = Array.copy s.slots_by_class in
  ignore (Dts_core.Machine.run ~max_instructions:(4 * budget) m);
  let later = Dts_core.Machine.stats m in
  check_bool "the machine ran on" true
    (later.cycles > cycles && later.ops_committed > ops
    && later.attribution <> attribution
    && later.slots_by_class <> slots_by_class);
  check_int "cycles" cycles s.cycles;
  check_int "syncs" syncs s.syncs;
  check_int "ops_committed" ops s.ops_committed;
  check_bool "attribution" true (s.attribution = attribution);
  check_bool "slots_by_class" true (s.slots_by_class = slots_by_class)

let suite =
  [
    Alcotest.test_case "attribution invariant: workloads x {ideal, feasible, dif}"
      `Quick test_attribution_invariant;
    Alcotest.test_case "attribution invariant: extension configs" `Quick
      test_attribution_invariant_extensions;
    Alcotest.test_case "tracer round-trip" `Quick test_tracer_roundtrip;
    Alcotest.test_case "tracer limit and dropped count" `Quick test_tracer_limit;
    Alcotest.test_case "stats JSON round-trip" `Quick test_stats_json_roundtrip;
    Alcotest.test_case "json parser" `Quick test_json_parser;
    Alcotest.test_case "breakdown figure" `Quick test_breakdown_figure;
    Alcotest.test_case "stats snapshot: mutation does not leak" `Quick
      test_snapshot_mutation_isolated;
    Alcotest.test_case "stats snapshot: frozen as the machine runs" `Quick
      test_snapshot_frozen_as_machine_runs;
  ]
