(** The evaluation harness: one entry per table and figure of the paper's
    §4, plus the ablation studies promised in DESIGN.md.

    Every run executes in test mode (golden co-simulation), so a reported
    number is also a proof that the simulated machine computed the same
    architectural states as a sequential SRISC machine. IPC is the paper's
    metric: sequential instructions (test-machine count) / DTSVLIW cycles.

    Entry points return a structured {!figure} — the raw {!run} records and
    the table cells — with the exact text rendering available through
    [figure.render]; consumers (the bench harness, tests, tooling) read
    data instead of parsing strings. *)

module S = Dts_obs.Stats

type run = {
  workload : string;
  ipc : float;
  instructions : int;
  stats : Dts_obs.Stats.t;  (** the full machine snapshot of the run *)
  optgap : Dts_opt.Opt.gap_summary option;
      (** FCFS-vs-optimal schedule comparison over the run's finished
          blocks — only filled by the [optgap] figure's runs *)
}

type figure = {
  name : string;
  rows : run list;  (** every simulation performed, in execution order *)
  tables : (string * string list list) list;
      (** (title, header row :: data rows) for each rendered table *)
  render : unit -> string;
      (** the ready-to-print text output (no re-simulation) *)
}

let budget_default = 150_000

let collect (m : Dts_core.Machine.t) workload instructions =
  let s = Dts_core.Machine.stats m in
  {
    workload;
    ipc = float_of_int instructions /. float_of_int (max 1 s.cycles);
    instructions;
    stats = s;
    optgap = None;
  }

let validate_run_args ~fn ~scale ~budget =
  if scale <= 0 then
    invalid_arg
      (Printf.sprintf
         "Experiments.%s: ?scale must be a positive workload multiplier \
          (got %d)"
         fn scale);
  if budget <= 0 then
    invalid_arg
      (Printf.sprintf
         "Experiments.%s: ?budget must be a positive sequential-instruction \
          count (got %d)"
         fn budget)

(** Run one workload on a DTSVLIW configuration. *)
let run_dtsvliw ?(scale = 1) ?(budget = budget_default) ?tracer cfg name =
  validate_run_args ~fn:"run_dtsvliw" ~scale ~budget;
  let w = Dts_workloads.Workloads.find name in
  let program = Dts_workloads.Workloads.program ~scale w in
  let m = Dts_core.Machine.create ?tracer cfg program in
  let n = Dts_core.Machine.run ~max_instructions:budget m in
  collect m name n

(** Run one workload on the DIF baseline. *)
let run_dif ?(scale = 1) ?(budget = budget_default) ?tracer machine_cfg name =
  validate_run_args ~fn:"run_dif" ~scale ~budget;
  let w = Dts_workloads.Workloads.find name in
  let program = Dts_workloads.Workloads.program ~scale w in
  let m, dif = Dts_dif.Dif.machine ?tracer ~machine_cfg program in
  let n = Dts_core.Machine.run ~max_instructions:budget m in
  (collect m name n, dif)

(* Per-block search budget of the optimality oracle (see {!Dts_opt.Opt}):
   fixed rather than derived from [?budget], so a run's gap summary is a
   deterministic function of its blocks alone. *)
let optgap_node_budget = Dts_opt.Opt.default_node_budget

(** Run one workload with the finished blocks captured, and attach the
    oracle's FCFS-vs-optimal gap summary to the run record. *)
let run_optgap ?(scale = 1) ?(budget = budget_default) cfg name =
  validate_run_args ~fn:"run_optgap" ~scale ~budget;
  let w = Dts_workloads.Workloads.find name in
  let program = Dts_workloads.Workloads.program ~scale w in
  let make, captured = Dts_opt.Opt.capturing_scheduler cfg in
  let m = Dts_core.Machine.create ~scheduler:make cfg program in
  let n = Dts_core.Machine.run ~max_instructions:budget m in
  let summary =
    Dts_opt.Opt.summarize_config ~node_budget:optgap_node_budget cfg
      (List.rev !captured)
  in
  { (collect m name n) with optgap = Some summary }

let workload_names = List.map (fun w -> w.Dts_workloads.Workloads.name) Dts_workloads.Workloads.all

let avg xs = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* ------------------------------------------------------------------ *)
(* Run descriptors                                                      *)
(* ------------------------------------------------------------------ *)

(* Every figure flattens the simulations it needs into a list of these
   descriptors; {!run} evaluates them, fanned out over a pool's domains
   when given one. Results come back in submission order either way, so a
   figure's rendering is bit-identical with and without a pool. *)
type job =
  | J_dtsvliw of Dts_core.Config.t * string
  | J_dif of Dts_core.Config.t * string
  | J_optgap of Dts_core.Config.t * string

type descriptor = job

let eval_descriptor ?scale ?budget = function
  | J_dtsvliw (cfg, name) -> run_dtsvliw ?scale ?budget cfg name
  | J_dif (cfg, name) -> fst (run_dif ?scale ?budget cfg name)
  | J_optgap (cfg, name) -> run_optgap ?scale ?budget cfg name

(* A figure core asks for its simulations through exactly one call to a
   [runner]: {!plan} passes a recording runner and {!assemble} a replaying
   one, which splits descriptor evaluation from figure assembly (the
   benchmark times each descriptor on its own and reassembles the figure
   bit-identically). *)
type runner = job list -> run list

(* Split into consecutive [n]-sized chunks — the inverse of the flattening
   each figure performs before [run_jobs]. *)
let chunk n xs =
  if n <= 0 then invalid_arg "Experiments.chunk";
  let rec go acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: tl ->
      if k = n then go (List.rev cur :: acc) [ x ] 1 tl
      else go acc (x :: cur) (k + 1) tl
  in
  go [] [] 0 xs

(* ------------------------------------------------------------------ *)
(* Figure constructors                                                  *)
(* ------------------------------------------------------------------ *)

(** A figure rendered by {!Dts_report.Report.table}. *)
let table_figure ~name ~title ~headers ?(extra = "") ~runs rows =
  {
    name;
    rows = runs;
    tables = [ (title, headers :: rows) ];
    render =
      (fun () -> Dts_report.Report.table ~title ~headers rows ^ extra);
  }

(** A figure rendered by {!Dts_report.Report.series_table}: labelled series
    over a shared x axis. *)
let series_figure ~name ~title ~x_label ~x_values ~runs lines =
  {
    name;
    rows = runs;
    tables =
      [ (title, (x_label :: x_values) :: List.map (fun (l, ys) -> l :: ys) lines) ];
    render =
      (fun () ->
        Dts_report.Report.series_table ~title ~x_label ~x_values lines);
  }

(* ------------------------------------------------------------------ *)
(* Table 1 and Table 2: fixed parameters and benchmarks                 *)
(* ------------------------------------------------------------------ *)

let table1 () =
  table_figure ~name:"table1" ~title:"Table 1: fixed machine parameters"
    ~headers:[ "parameter"; "value" ] ~runs:[]
    [
      [ "Primary Processor"; "4-stage pipeline (fetch, decode, execute, write back)" ];
      [ "branch prediction"; "none; not-taken branches cost a 3-cycle bubble" ];
      [ "load-use hazard"; "1-cycle bubble" ];
      [ "decoded instruction size"; "6 bytes" ];
      [ "instruction latency"; "1 cycle" ];
      [ "VLIW Engine lists"; "load/store/checkpoint-recovery: unlimited (high-water tracked)" ];
      [ "renaming registers"; "integer/fp/flag/memory: unlimited (high-water tracked)" ];
      [ "Scheduler Unit pipe"; "insert+split / move-up (1 per list element) / save: 1 li per cycle" ];
      [ "register windows"; "32 (spill/fill trap microroutine)" ];
    ]

let table2 () =
  table_figure ~name:"table2"
    ~title:"Table 2: benchmark programs (SPECint95 analogues)"
    ~headers:[ "benchmark"; "mirrors"; "character" ] ~runs:[]
    (List.map
       (fun (w : Dts_workloads.Workloads.t) -> [ w.name; w.mirrors; w.character ])
       Dts_workloads.Workloads.all)

(* ------------------------------------------------------------------ *)
(* Shared shape: one series per configuration over all workloads        *)
(* ------------------------------------------------------------------ *)

(** Run every workload on each labelled configuration and render one IPC
    series per configuration (the shape of Figures 5/6/7, the ablation and
    the extensions tables). *)
let config_sweep ~name ~title ~(runner : runner) labelled_cfgs =
  let jobs =
    List.concat_map
      (fun (_, cfg) -> List.map (fun nm -> J_dtsvliw (cfg, nm)) workload_names)
      labelled_cfgs
  in
  let per_cfg =
    List.map2
      (fun (label, _) runs -> (label, runs))
      labelled_cfgs
      (chunk (List.length workload_names) (runner jobs))
  in
  let lines =
    List.map
      (fun (label, runs) ->
        let ipcs = List.map (fun r -> r.ipc) runs in
        (label, List.map Dts_report.Report.f2 ipcs @ [ Dts_report.Report.f2 (avg ipcs) ]))
      per_cfg
  in
  series_figure ~name ~title ~x_label:"benchmark"
    ~x_values:(workload_names @ [ "average" ])
    ~runs:(List.concat_map snd per_cfg)
    lines

(* ------------------------------------------------------------------ *)
(* Figure 5: block size and geometry (idealised machine)                *)
(* ------------------------------------------------------------------ *)

let fig5_geometries =
  [ (4, 4); (8, 4); (4, 8); (16, 4); (4, 16); (8, 8); (16, 8); (8, 16); (16, 16) ]

(** The first sub-chart of Figure 5 explores extreme geometries: very wide
    single long instructions (96x1, 384x1) against the same block sizes
    folded into 2, 4 and 8 long instructions. *)
let fig5a_geometries =
  [ (96, 1); (384, 1); (96, 2); (384, 2); (96, 4); (384, 4); (96, 8); (384, 8) ]

let geometry_sweep ~name ~title ~geometries ~runner () =
  config_sweep ~name ~title ~runner
    (List.map
       (fun (w, h) ->
         (Printf.sprintf "%dx%d" w h, Dts_core.Config.ideal ~width:w ~height:h ()))
       geometries)

let fig5a ~runner () =
  geometry_sweep ~name:"fig5a"
    ~title:
      "Figure 5a: IPC for very wide blocks (instructions/li x li/block); \
       perfect caches, 3072KB VLIW$"
    ~geometries:fig5a_geometries ~runner ()

let fig5 ~runner () =
  geometry_sweep ~name:"fig5"
    ~title:
      "Figure 5b: IPC vs block geometry (instructions/li x li/block); \
       perfect caches, 3072KB VLIW$, no next-li penalty"
    ~geometries:fig5_geometries ~runner ()

(* ------------------------------------------------------------------ *)
(* Figure 6: VLIW Cache size (8x8 geometry, associativity 4)            *)
(* ------------------------------------------------------------------ *)

let fig6_sizes_kb = [ 48; 96; 192; 384; 768; 1536; 3072 ]

let fig6 ~runner () =
  config_sweep ~name:"fig6"
    ~title:"Figure 6: IPC vs VLIW Cache size (8x8 blocks, 4-way)" ~runner
    (List.map
       (fun kb ->
         ( Printf.sprintf "%dKB" kb,
           { (Dts_core.Config.ideal ()) with vliw_cache = { kb; assoc = 4 } } ))
       fig6_sizes_kb)


(* ------------------------------------------------------------------ *)
(* Figure 7: VLIW Cache associativity (96KB and 384KB, 8x8)             *)
(* ------------------------------------------------------------------ *)

let fig7 ~runner () =
  config_sweep ~name:"fig7"
    ~title:"Figure 7: IPC vs VLIW Cache associativity (8x8 blocks)" ~runner
    (List.concat_map
       (fun kb ->
         List.map
           (fun assoc ->
             ( Printf.sprintf "%dKB/%d-way" kb assoc,
               { (Dts_core.Config.ideal ()) with vliw_cache = { kb; assoc } } ))
           [ 1; 2; 4; 8 ])
       [ 96; 384 ])


(* ------------------------------------------------------------------ *)
(* Figure 8: feasible machine cost breakdown (differential ablation)    *)
(* ------------------------------------------------------------------ *)

(** The stacked bars of Figure 8 are regenerated by a chain of
    configurations, each adding one cost source; the difference between
    consecutive IPCs is that source's cost. *)
let fig8_chain () =
  let feasible = Dts_core.Config.feasible () in
  let ideal_width =
    (* step A: same issue width, homogeneous units, perfect caches *)
    {
      feasible with
      sched = { feasible.sched with slot_classes = None };
      icache = Dts_core.Config.Perfect;
      dcache = Dts_core.Config.Perfect;
      next_li_penalty = 0;
      vliw_cache = { kb = 3072; assoc = 4 };
    }
  in
  let with_fu =
    { ideal_width with sched = feasible.sched; vliw_cache = feasible.vliw_cache }
  in
  let with_icache = { with_fu with icache = feasible.icache } in
  let with_dcache = { with_icache with dcache = feasible.dcache } in
  [
    ("ideal", ideal_width);
    ("+FU mix & 192KB VLIW$", with_fu);
    ("+I-cache", with_icache);
    ("+D-cache", with_dcache);
    ("feasible (+next-li)", feasible);
  ]

let fig8 ~(runner : runner) () =
  let chain = fig8_chain () in
  let jobs =
    List.concat_map
      (fun name -> List.map (fun (_, cfg) -> J_dtsvliw (cfg, name)) chain)
      workload_names
  in
  let per_wl =
    List.map2
      (fun name runs -> (name, runs))
      workload_names
      (chunk (List.length chain) (runner jobs))
  in
  let headers =
    [ "benchmark"; "ILP"; "NextLI cost"; "D$ cost"; "I$ cost"; "FU cost"; "ideal" ]
  in
  let rows =
    List.map
      (fun (name, runs) ->
        match List.map (fun r -> r.ipc) runs with
        | [ a; b; c; d; e ] ->
          [
            name;
            Dts_report.Report.f2 e;
            Dts_report.Report.f2 (d -. e);
            Dts_report.Report.f2 (c -. d);
            Dts_report.Report.f2 (b -. c);
            Dts_report.Report.f2 (a -. b);
            Dts_report.Report.f2 a;
          ]
        | _ -> assert false)
      per_wl
  in
  table_figure ~name:"fig8"
    ~title:
      "Figure 8: feasible machine cost breakdown (stacked: ILP + cost \
       components = ideal IPC)"
    ~headers
    ~runs:(List.concat_map snd per_wl)
    rows


(* ------------------------------------------------------------------ *)
(* Table 3: performance and resources of the feasible machine           *)
(* ------------------------------------------------------------------ *)

let table3 ~(runner : runner) () =
  let feasible = Dts_core.Config.feasible () in
  let runs =
    runner (List.map (fun name -> J_dtsvliw (feasible, name)) workload_names)
  in
  let headers =
    [
      "metric";
    ]
    @ workload_names @ [ "average" ]
  in
  let metric name get fmt =
    (name :: List.map (fun r -> fmt (get r)) runs)
    @ [ fmt (avg (List.map get runs)) ]
  in
  let fi v = string_of_int (int_of_float (Float.round v)) in
  let count name get = metric name (fun r -> float_of_int (get r.stats)) fi in
  let rows =
    [
      metric "Instructions per Cycle" (fun r -> r.ipc) Dts_report.Report.f2;
      count "Integer Renaming Registers" (fun s -> s.S.rr_max.(0));
      count "F.P. Renaming Registers" (fun s -> s.S.rr_max.(1));
      count "Flag Renaming Registers" (fun s -> s.S.rr_max.(2));
      count "Memory Renaming Registers" (fun s -> s.S.rr_max.(3));
      count "Load List Size" (fun s -> s.S.max_load_list);
      count "Store List Size" (fun s -> s.S.max_store_list);
      count "Checkpoint Rec. Store List" (fun s -> s.S.max_recovery_list);
      count "Aliasing Exceptions" (fun s -> s.S.aliasing_exceptions);
      metric "VLIW Engine Execution Cycles"
        (fun r -> S.vliw_cycle_fraction r.stats)
        Dts_report.Report.pct;
      metric "Slot Utilisation"
        (fun r -> S.slot_utilisation r.stats)
        Dts_report.Report.pct;
    ]
  in
  table_figure ~name:"table3"
    ~title:"Table 3: performance and resource consumption of the feasible machine"
    ~headers ~runs rows


(* ------------------------------------------------------------------ *)
(* Figure 9: DTSVLIW vs DIF                                             *)
(* ------------------------------------------------------------------ *)

(** The DTSVLIW side of Figure 9 uses the paper's comparison parameters:
    6x6 blocks, 4 homogeneous + 2 branch units, 4KB I/D caches with 2-cycle
    misses, 216KB VLIW Cache (512x2 blocks). *)
let fig9_dtsvliw_cfg () =
  let base = Dts_dif.Dif.fig9_machine_cfg () in
  let classes =
    [| None; None; None; None; Some Dts_isa.Instr.Fu_br; Some Dts_isa.Instr.Fu_br |]
  in
  { base with sched = { base.sched with slot_classes = Some classes } }

let fig9 ~(runner : runner) () =
  let dts_cfg = fig9_dtsvliw_cfg () in
  let dif_cfg = Dts_dif.Dif.fig9_machine_cfg () in
  let nw = List.length workload_names in
  (* one flat batch: the DTSVLIW side, the DIF side, and the resources run *)
  let jobs =
    List.map (fun name -> J_dtsvliw (dts_cfg, name)) workload_names
    @ List.map (fun name -> J_dif (dif_cfg, name)) workload_names
    @ [ J_dtsvliw (dts_cfg, "compress") ]
  in
  let dts_runs, dif_runs, resources_run =
    match chunk nw (runner jobs) with
    | [ a; b; [ r ] ] -> (a, b, r)
    | _ -> assert false
  in
  let dts = List.map (fun r -> r.ipc) dts_runs in
  let dif = List.map (fun r -> r.ipc) dif_runs in
  let rows =
    List.map2
      (fun name (a, b) ->
        [ name; Dts_report.Report.f2 a; Dts_report.Report.f2 b ])
      workload_names
      (List.combine dts dif)
    @ [
        [
          "average";
          Dts_report.Report.f2 (avg dts);
          Dts_report.Report.f2 (avg dif);
        ];
      ]
  in
  let resources =
    let dts_rr = resources_run.stats.S.rr_max in
    Printf.sprintf
      "Resources: DTSVLIW renaming registers (compress, max/block): %d int, \
       %d fp | DIF register instances: %d int + %d fp (4 per register)\n"
      dts_rr.(0) dts_rr.(1) (24 * 4) (24 * 4)
  in
  table_figure ~name:"fig9"
    ~title:"Figure 9: DTSVLIW vs DIF (6x6 blocks, 4KB I/D caches, 512x2-block code cache)"
    ~headers:[ "benchmark"; "DTSVLIW"; "DIF" ]
    ~extra:resources
    ~runs:(dts_runs @ dif_runs @ [ resources_run ])
    rows


(* ------------------------------------------------------------------ *)
(* Ablations (beyond the paper; design choices called out in DESIGN.md) *)
(* ------------------------------------------------------------------ *)

let ablations =
  [
    ("baseline", fun (c : Dts_core.Config.t) -> c);
    ( "no renaming",
      fun c -> { c with sched = { c.sched with renaming = false } } );
    ( "no re-split on control",
      fun c -> { c with sched = { c.sched with resplit_on_control = false } } );
    ( "no load/store motion",
      fun c -> { c with sched = { c.sched with mem_motion = false } } );
    ( "strict control insert",
      fun c -> { c with sched = { c.sched with strict_control_insert = true } } );
  ]

let ablation ~runner () =
  let base = Dts_core.Config.ideal () in
  config_sweep ~name:"ablation"
    ~title:"Ablation: scheduler design choices (ideal 8x8 machine)" ~runner
    (List.map (fun (label, f) -> (label, f base)) ablations)


(* ------------------------------------------------------------------ *)
(* Extensions: the paper's §5 future work and §3.11 alternative, measured  *)
(* ------------------------------------------------------------------ *)

(** Next-long-instruction prediction (§5), the data-store-list exception
    scheme (§3.11's "has not been used" alternative), and multicycle
    functional units ([14]) — each against the feasible machine. *)
let extensions ~runner () =
  let feasible = Dts_core.Config.feasible () in
  config_sweep ~name:"extensions"
    ~title:
      "Extensions (beyond the paper): next-li prediction (sec. 5), data store \
       list (sec. 3.11), multicycle units ([14])"
    ~runner
    [
      ("feasible baseline", feasible);
      ("+ next-li prediction", { feasible with next_li_prediction = true });
      ( "data-store-list scheme",
        { feasible with store_scheme = Dts_vliw.Engine.Data_store_list } );
      ( "multicycle units (ld2/mul3/div8)",
        {
          feasible with
          sched =
            { feasible.sched with latencies = Dts_isa.Instr.multicycle_latencies };
        } );
    ]


(* ------------------------------------------------------------------ *)
(* Optimality gap: greedy FCFS vs branch-and-bound optimal schedules    *)
(* ------------------------------------------------------------------ *)

let optgap_geometries () =
  [
    ("ideal", Dts_core.Config.ideal ());
    ("feasible", Dts_core.Config.feasible ());
  ]

(** How far from optimal is the paper's greedy FCFS list-scheduler? Every
    workload runs once per geometry with its finished blocks captured;
    each block is re-scheduled by the {!Dts_opt.Opt} branch-and-bound
    oracle and the long-instruction counts are summed. [optimal (lower)]
    and [optimal (upper)] are certified bounds; when every block certifies
    ([certified] = [blocks]) they coincide and the gap is exact. *)
let optgap ~(runner : runner) () =
  let geoms = optgap_geometries () in
  let jobs =
    List.concat_map
      (fun (_, cfg) -> List.map (fun nm -> J_optgap (cfg, nm)) workload_names)
      geoms
  in
  let per_geom =
    List.map2
      (fun (label, _) runs -> (label, runs))
      geoms
      (chunk (List.length workload_names) (runner jobs))
  in
  let rows =
    List.concat_map
      (fun (label, runs) ->
        List.map
          (fun r ->
            let g =
              match r.optgap with Some g -> g | None -> assert false
            in
            let gap =
              float_of_int (g.Dts_opt.Opt.gs_fcfs_lis - g.gs_opt_upper)
              /. float_of_int (max 1 g.gs_fcfs_lis)
            in
            [
              label;
              r.workload;
              string_of_int g.gs_blocks;
              string_of_int g.gs_fcfs_lis;
              string_of_int g.gs_opt_lower;
              string_of_int g.gs_opt_upper;
              Dts_report.Report.pct gap;
              Printf.sprintf "%d/%d" g.gs_certified g.gs_blocks;
              string_of_int g.gs_search_nodes;
            ])
          runs)
      per_geom
  in
  table_figure ~name:"optgap"
    ~title:
      "Optimality gap: greedy FCFS scheduling vs branch-and-bound optimal \
       block schedules (long instructions summed over blocks)"
    ~headers:
      [
        "geometry"; "benchmark"; "blocks"; "fcfs lis"; "optimal (lower)";
        "optimal (upper)"; "gap"; "certified"; "search nodes";
      ]
    ~runs:(List.concat_map snd per_geom)
    rows


(* ------------------------------------------------------------------ *)
(* Cycle breakdown: the observability layer's own table                 *)
(* ------------------------------------------------------------------ *)

(** Where the cycles go: every machine cycle of the feasible machine
    attributed to one category (see {!Dts_obs.Attribution}), per workload,
    as a fraction of total cycles. The [TOTAL] row is the invariant check:
    attributed cycles / machine cycles, always 100.0%. *)
let breakdown ~(runner : runner) () =
  let feasible = Dts_core.Config.feasible () in
  let runs =
    runner (List.map (fun name -> J_dtsvliw (feasible, name)) workload_names)
  in
  let fraction_of r cat =
    float_of_int (Dts_obs.Attribution.sum_of r.stats.S.attribution [ cat ])
    /. float_of_int (max 1 r.stats.cycles)
  in
  let rows =
    List.map
      (fun cat ->
        let fracs = List.map (fun r -> fraction_of r cat) runs in
        (Dts_obs.Attribution.label cat
         :: List.map Dts_report.Report.pct fracs)
        @ [ Dts_report.Report.pct (avg fracs) ])
      Dts_obs.Attribution.all
    @ [
        (let totals =
           List.map
             (fun r ->
               float_of_int (Dts_obs.Attribution.total r.stats.S.attribution)
               /. float_of_int (max 1 r.stats.cycles))
             runs
         in
         ("TOTAL (attributed/machine)"
          :: List.map Dts_report.Report.pct totals)
         @ [ Dts_report.Report.pct (avg totals) ]);
      ]
  in
  table_figure ~name:"breakdown"
    ~title:
      "Cycle breakdown: attribution of every machine cycle (feasible machine)"
    ~headers:([ "category" ] @ workload_names @ [ "average" ])
    ~runs rows


(* ------------------------------------------------------------------ *)
(* Plan, assemble and run: the one way to produce a figure             *)
(* ------------------------------------------------------------------ *)

(* Figures whose cores simulate nothing ignore the runner entirely. *)
let cores : (string * (runner:runner -> unit -> figure)) list =
  [
    ("table1", fun ~runner:_ () -> table1 ());
    ("table2", fun ~runner:_ () -> table2 ());
    ("fig5a", fig5a);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("table3", table3);
    ("fig9", fig9);
    ("ablation", ablation);
    ("extensions", extensions);
    ("breakdown", breakdown);
    ("optgap", optgap);
  ]

(* "all" concatenates these, in this order. *)
let all_components =
  [ "table1"; "table2"; "fig5a"; "fig5"; "fig6"; "fig7"; "fig8"; "table3";
    "fig9"; "ablation"; "extensions" ]

let names = List.map fst cores @ [ "all" ]

let core_of name =
  match List.assoc_opt name cores with
  | Some core -> core
  | None ->
    invalid_arg
      (Printf.sprintf "Experiments: unknown figure %S (expected one of %s)"
         name (String.concat ", " names))

exception Planned of job list

(* A figure core calls its runner exactly once with the full flat
   descriptor list, so a recording runner observes the complete plan. *)
let rec plan name =
  if name = "all" then List.concat_map plan all_components
  else begin
    let core = core_of name in
    match core ~runner:(fun jobs -> raise (Planned jobs)) () with
    | _ -> [] (* the core never consulted the runner: nothing to simulate *)
    | exception Planned jobs -> jobs
  end

let replay_runner ~name runs jobs =
  if List.length jobs <> List.length runs then
    invalid_arg
      (Printf.sprintf
         "Experiments.assemble: figure %s expects %d runs, got %d" name
         (List.length jobs) (List.length runs))
  else runs

(* Take [n] elements off the front. *)
let take_drop n xs =
  let rec go acc k = function
    | rest when k = 0 -> (List.rev acc, rest)
    | [] -> invalid_arg "Experiments.assemble: too few runs"
    | x :: tl -> go (x :: acc) (k - 1) tl
  in
  go [] n xs

let rec assemble name runs =
  if name = "all" then begin
    let figs, rest =
      List.fold_left
        (fun (figs, rest) comp ->
          let mine, rest = take_drop (List.length (plan comp)) rest in
          (assemble comp mine :: figs, rest))
        ([], runs) all_components
    in
    if rest <> [] then invalid_arg "Experiments.assemble: too many runs";
    let figs = List.rev figs in
    let rendered = List.map (fun f -> f.render ()) figs in
    {
      name = "all";
      rows = List.concat_map (fun f -> f.rows) figs;
      tables = List.concat_map (fun f -> f.tables) figs;
      render = (fun () -> String.concat "\n" rendered);
    }
  end
  else (core_of name) ~runner:(replay_runner ~name runs) ()

let run ?pool ?scale ?budget name =
  let jobs = plan name in
  assemble name
    (match pool with
    | None -> List.map (eval_descriptor ?scale ?budget) jobs
    | Some p -> Dts_parallel.Pool.map p (eval_descriptor ?scale ?budget) jobs)
