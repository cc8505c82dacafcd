(* Regenerate the paper's tables and figures.

   Usage:
     experiments all --budget 150000 --scale 1
     experiments fig5
     experiments table3 fig9 --jobs 4

   --jobs fans each figure's simulations out over that many workers; the
   rendered output is bit-identical to a sequential run. Each named
   experiment is produced by Dts_experiments.Experiments.run and its
   render printed.

   --alloc-json FILE additionally records, per experiment, the number of
   instructions simulated and the minor/major heap words allocated while
   regenerating it, as a small JSON document. `stats_check --alloc
   BASELINE FILE` gates those counts against the committed baseline in
   the same format (bin/alloc_baseline.json), so the sequential fast
   path's allocation win cannot silently erode. Allocation accounting is
   per-domain in OCaml, so this is only meaningful sequentially; combining
   it with --jobs > 1 is an error.

   --optgap-json FILE records the optgap figure's per-row oracle numbers
   (blocks, greedy long instructions, certified optimal lower/upper
   bounds, certified block count, search nodes) as JSON, for the
   `stats_check --optgap` gate. Only meaningful when the single requested
   experiment is `optgap`; the printed text is unchanged.

   Both JSON files are opened before any simulation, so an unwritable path
   exits 2 at once; so do unknown experiment names and flag combinations
   that cannot run together. A write that fails later (a full disk) exits
   1 with one line. *)

open Cmdliner
module Experiments = Dts_experiments.Experiments

type alloc_row = {
  a_name : string;
  a_instructions : int;
  a_minor_words : int;
  a_major_words : int;
}

let write_alloc_json ~budget rows oc =
  let row r =
    Printf.sprintf
      "    {\"name\": %S, \"instructions\": %d, \"minor_words\": %d, \
       \"major_words\": %d}"
      r.a_name r.a_instructions r.a_minor_words r.a_major_words
  in
  Printf.fprintf oc
    "{\n\
    \  \"alloc_schema_version\": 1,\n\
    \  \"budget\": %d,\n\
    \  \"figures\": [\n\
     %s\n\
    \  ]\n\
     }\n"
    budget
    (String.concat ",\n" (List.map row rows))

let write_optgap_json ~budget (fig : Experiments.figure) oc =
  let nw = List.length Experiments.workload_names in
  let row i (r : Experiments.run) =
    let gs =
      match r.Experiments.optgap with
      | Some gs -> gs
      | None ->
        prerr_endline "experiments: optgap row without an oracle summary";
        exit 1
    in
    Printf.sprintf
      "    {\"geometry\": %S, \"workload\": %S, \"blocks\": %d, \"fcfs_lis\": \
       %d, \"opt_lower\": %d, \"opt_upper\": %d, \"certified\": %d, \
       \"search_nodes\": %d}"
      (if i < nw then "ideal" else "feasible")
      r.Experiments.workload gs.Dts_opt.Opt.gs_blocks
      gs.Dts_opt.Opt.gs_fcfs_lis gs.Dts_opt.Opt.gs_opt_lower
      gs.Dts_opt.Opt.gs_opt_upper gs.Dts_opt.Opt.gs_certified
      gs.Dts_opt.Opt.gs_search_nodes
  in
  Printf.fprintf oc
    "{\n\
    \  \"optgap_schema_version\": 1,\n\
    \  \"budget\": %d,\n\
    \  \"node_budget\": %d,\n\
    \  \"rows\": [\n\
     %s\n\
    \  ]\n\
     }\n"
    budget Dts_opt.Opt.default_node_budget
    (String.concat ",\n" (List.mapi row fig.Experiments.rows))

let run_experiments names scale budget jobs alloc_json optgap_json =
  Cli.check_positive ~what:"--budget" budget;
  Cli.check_positive ~what:"--scale" scale;
  Cli.check_non_negative ~what:"--jobs" jobs;
  let names = if names = [] then [ "all" ] else names in
  List.iter
    (fun name ->
      if not (List.mem name Experiments.names) then
        Cli.die "unknown experiment %s; available: %s" name
          (String.concat ", " Experiments.names))
    names;
  let jobs = Dts_parallel.Pool.resolve_jobs jobs in
  if alloc_json <> None && jobs > 1 then
    Cli.die
      "experiments: --alloc-json requires sequential execution (drop --jobs)";
  if optgap_json <> None && alloc_json <> None then
    Cli.die "experiments: --optgap-json is incompatible with --alloc-json";
  if optgap_json <> None && names <> [ "optgap" ] then
    Cli.die
      "experiments: --optgap-json applies to exactly one experiment: optgap";
  let alloc_json = Option.map Cli.open_out_or_die alloc_json in
  let optgap_json = Option.map Cli.open_out_or_die optgap_json in
  (* the alloc gate measures per-instruction simulation allocation, so the
     one-time tinyc compilations must not land inside the counted window:
     warm the workload memo first (a later figure in a bench run gets it
     for free, so cold compiles here would read as a regression) *)
  if alloc_json <> None then
    List.iter
      (fun w -> ignore (Dts_workloads.Workloads.program ~scale w))
      Dts_workloads.Workloads.all;
  let alloc_rows =
    Dts_parallel.Pool.with_pool ~jobs (fun pool ->
        List.map
          (fun name ->
            let gc0 = Gc.quick_stat () in
            let fig = Experiments.run ~pool ~scale ~budget name in
            let text = fig.Experiments.render () in
            let gc1 = Gc.quick_stat () in
            Cli.print (text ^ "\n");
            Option.iter
              (fun f -> Cli.write_file f (write_optgap_json ~budget fig))
              optgap_json;
            {
              a_name = name;
              a_instructions =
                List.fold_left
                  (fun n (r : Experiments.run) -> n + r.instructions)
                  0 fig.rows;
              a_minor_words =
                int_of_float (gc1.Gc.minor_words -. gc0.Gc.minor_words);
              a_major_words =
                int_of_float (gc1.Gc.major_words -. gc0.Gc.major_words);
            })
          names)
  in
  Option.iter
    (fun f -> Cli.write_file f (write_alloc_json ~budget alloc_rows))
    alloc_json

let names_arg =
  let doc =
    "Experiments to run: table1, table2, fig5, fig6, fig7, fig8, table3, \
     fig9, ablation, extensions, breakdown (cycle attribution), optgap \
     (greedy-vs-optimal scheduling gap), or all."
  in
  Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT" ~doc)

let jobs_doc =
  "Workers for each figure's simulations (default 1 = sequential; 0 = one \
   per host core). The rendered output is bit-identical for any value."

let alloc_json_arg =
  let doc =
    "Write per-experiment instruction and heap-allocation counts to $(docv) \
     (for the stats_check allocation-regression gate). Sequential only."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "alloc-json" ] ~docv:"FILE" ~doc)

let optgap_json_arg =
  let doc =
    "Write the optgap figure's per-row oracle numbers to $(docv) (for the \
     `stats_check --optgap` gate). Requires the single experiment `optgap`."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "optgap-json" ] ~docv:"FILE" ~doc)

let cmd =
  let doc = "regenerate the DTSVLIW paper's tables and figures" in
  Cmd.v
    (Cli.cmd_info "experiments" ~doc)
    Term.(
      const run_experiments $ names_arg $ Cli.scale_arg
      $ Cli.budget_arg ~default:150_000 ()
      $ Cli.jobs_arg ~doc:jobs_doc ()
      $ alloc_json_arg $ optgap_json_arg)

let () = exit (Cmd.eval cmd)
