(* The DTSVLIW simulator CLI.

   Run a built-in workload or a program file (SRISC assembly or tinyc,
   chosen by extension: .s / .c) on a configurable DTSVLIW machine and
   print the performance statistics. Every run executes in test mode.

   Examples:
     dtsvliw_sim --workload compress
     dtsvliw_sim --workload ijpeg --width 16 --height 16
     dtsvliw_sim -w compress -w go -w ijpeg --jobs 3
     dtsvliw_sim prog.s --feasible
     dtsvliw_sim prog.c --dif

   --workload repeats; several workloads run concurrently over --jobs
   workers, with the reports printed in the order given.

   The CLI is a thin flag -> Dts_job.Job.t adapter: the simulation and the
   report text live in Dts_job.Run. Output files (--trace, --stats-json)
   are opened before the run, so an unwritable path exits 2 at once; a
   malformed program file is reported as FILE:LINE: message and exits 1. *)

open Cmdliner
open Dts_job

let usage_one_source () =
  prerr_endline "specify exactly one of --workload NAME or a program file";
  exit 1

(* Report a malformed program file the way dtsasm and tinycc do. *)
let with_program_errors path f =
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        prerr_endline msg;
        exit Cli.task_failure)
      fmt
  in
  try f () with
  | Dts_asm.Assembler.Error { line; msg } -> fail "%s:%d: %s" path line msg
  | Dts_tinyc.Lexer.Error { line; msg } ->
    fail "%s:%d: lexical error: %s" path line msg
  | Dts_tinyc.Parser.Error { line; msg } ->
    fail "%s:%d: parse error: %s" path line msg
  | Dts_tinyc.Codegen.Error msg -> fail "%s: %s" path msg

let run_single ~job ~optcheck ~trace_file ~trace_limit ~stats_json =
  let trace_oc = Option.map Cli.open_out_or_die trace_file in
  let stats_oc = Option.map Cli.open_out_or_die stats_json in
  let tracer =
    match trace_oc with
    | None -> Dts_obs.Trace.null
    | Some oc -> Dts_obs.Trace.to_channel ~limit:trace_limit oc
  in
  let outcome = Run.run ~tracer ~optcheck job in
  print_string outcome.Run.text;
  (match (stats_oc, outcome.Run.stats_json) with
  | Some oc, Some doc -> output_string oc doc
  | _ -> ());
  Option.iter close_out stats_oc;
  Dts_obs.Trace.close tracer;
  Option.iter close_out trace_oc;
  if outcome.Run.exit_code <> 0 then exit outcome.Run.exit_code

(* Several workloads: simulate concurrently on the pool, print the reports
   sequentially in the order the workloads were given. *)
let run_many ~job_of ~optcheck ~workloads ~jobs ~backend =
  let outcomes =
    Dts_parallel.Pool.with_pool ~backend ~jobs (fun pool ->
        Dts_parallel.Pool.map pool
          (fun name -> Run.run ~optcheck (job_of (Job.Builtin name)))
          workloads)
  in
  List.iteri
    (fun i (name, outcome) ->
      if i > 0 then print_newline ();
      Printf.printf "=== %s ===\n" name;
      print_string outcome.Run.text)
    (List.combine workloads outcomes);
  if List.exists (fun o -> o.Run.exit_code <> 0) outcomes then exit 1

let run workloads file scale budget jobs backend feasible dif no_compile
    no_fastpath width height vcache_kb vcache_assoc no_renaming store_list
    predict_next multicycle show_blocks optcheck trace_file trace_limit
    stats_json =
  Cli.check_positive ~what:"--budget" budget;
  Cli.check_positive ~what:"--scale" scale;
  Cli.check_non_negative ~what:"--jobs" jobs;
  Cli.check_non_negative ~what:"--dump-blocks" show_blocks;
  Cli.check_non_negative ~what:"--trace-limit" trace_limit;
  let backend = Cli.backend_of_flag backend in
  let machine =
    {
      Machine_opts.feasible;
      dif;
      compile = not no_compile;
      fastpath = not no_fastpath;
      width;
      height;
      vcache_kb;
      vcache_assoc;
      renaming = not no_renaming;
      store_list;
      predict_next;
      multicycle;
    }
  in
  let job_of source =
    let job = Job.workload ~budget ~scale ~machine ~dump_blocks:show_blocks source in
    Cli.check (Job.validate job);
    job
  in
  if optcheck && dif then begin
    prerr_endline "--optcheck applies to DTSVLIW machines only (not --dif)";
    exit 1
  end;
  match (workloads, file) with
  | [], None | [ _ ], Some _ -> usage_one_source ()
  | [ w ], None ->
    run_single ~job:(job_of (Job.Builtin w)) ~optcheck ~trace_file ~trace_limit
      ~stats_json
  | [], Some path ->
    with_program_errors path (fun () ->
        run_single ~job:(job_of (Job.File path)) ~optcheck ~trace_file
          ~trace_limit ~stats_json)
  | _ :: _ :: _, Some _ -> usage_one_source ()
  | (_ :: _ :: _ as workloads), None ->
    if trace_file <> None || stats_json <> None then begin
      prerr_endline
        "--trace/--stats-json write one file: combine them with a single \
         --workload only";
      exit 1
    end;
    run_many ~job_of ~optcheck ~workloads
      ~jobs:(Dts_parallel.Pool.resolve_jobs jobs)
      ~backend

let workload_arg =
  let names = String.concat ", " (List.map (fun (w : Dts_workloads.Workloads.t) -> w.name) Dts_workloads.Workloads.all) in
  Arg.(value & opt_all string []
       & info [ "w"; "workload" ]
           ~doc:
             ("Built-in workload (repeatable; several run concurrently over \
               --jobs workers): " ^ names))

let file_arg =
  Arg.(value & pos 0 (some file) None & info [] ~docv:"PROGRAM" ~doc:"Program file (.s assembly or .c tinyc)")

let jobs_doc =
  "Workers when several workloads are given (0 = one per host core). \
   Reports are printed in the order the workloads were named, whatever the \
   value."
let feasible_arg = Arg.(value & flag & info [ "feasible" ] ~doc:"Use the feasible machine of section 4.4")
let dif_arg = Arg.(value & flag & info [ "dif" ] ~doc:"Simulate the DIF baseline instead")
let nocompile_arg = Arg.(value & flag & info [ "no-compile" ] ~doc:"Execute cached blocks through the VLIW engine's interpreter instead of install-time-compiled plans (slower; differentially tested to be bit-identical)")
let nofastpath_arg = Arg.(value & flag & info [ "no-fastpath" ] ~doc:"Run the sequential engines (Primary Processor, golden co-simulation) on the boxed Semantics.exec path instead of the allocation-free packed-op interpreter (slower; differentially tested to be bit-identical)")
let width_arg = Arg.(value & opt (some int) None & info [ "width" ] ~doc:"Instructions per long instruction")
let height_arg = Arg.(value & opt (some int) None & info [ "height" ] ~doc:"Long instructions per block")
let vkb_arg = Arg.(value & opt (some int) None & info [ "vcache-kb" ] ~doc:"VLIW cache size in KB")
let vassoc_arg = Arg.(value & opt (some int) None & info [ "vcache-assoc" ] ~doc:"VLIW cache associativity")
let noren_arg = Arg.(value & flag & info [ "no-renaming" ] ~doc:"Disable instruction splitting")
let storelist_arg = Arg.(value & flag & info [ "store-list" ] ~doc:"Use the data-store-list exception scheme (the paper's 3.11 alternative)")
let predict_arg = Arg.(value & flag & info [ "predict-next" ] ~doc:"Enable next-long-instruction prediction (the paper's section-5 future work)")
let multicycle_arg = Arg.(value & flag & info [ "multicycle" ] ~doc:"Multicycle functional units: ld 2, mul 3, div 8, fp 3")
let blocks_arg = Arg.(value & opt int 0 & info [ "dump-blocks" ] ~doc:"Print up to N scheduled blocks from the VLIW cache after the run")
let optcheck_arg = Arg.(value & flag & info [ "optcheck" ] ~doc:"Check every block the Scheduler Unit finishes against the branch-and-bound optimality oracle: the block must pass the oracle's independent legality invariants and its greedy schedule must never beat the certified optimal lower bound. Appends a summary line; violations exit 1")
let trace_arg = Arg.(value & opt (some string) None & info [ "trace" ] ~doc:"Write the structural event trace (engine switches, block flush/install/evict/fetch, aliasing violations, checkpoint recoveries) as JSONL to $(docv)" ~docv:"FILE")
let trace_limit_arg = Arg.(value & opt int Dts_obs.Trace.default_limit & info [ "trace-limit" ] ~doc:"Stop recording trace events after N lines (the dropped count is reported in the stats)")
let stats_json_arg = Arg.(value & opt (some string) None & info [ "stats-json" ] ~doc:"Write the consolidated run statistics (including the cycle attribution) as JSON to $(docv)" ~docv:"FILE")

let cmd =
  let doc = "execution-driven DTSVLIW simulator (always in test mode)" in
  Cmd.v
    (Cli.cmd_info "dtsvliw_sim" ~doc)
    Term.(
      const run $ workload_arg $ file_arg $ Cli.scale_arg
      $ Cli.budget_arg ()
      $ Cli.jobs_arg ~default:0 ~doc:jobs_doc ()
      $ Cli.backend_arg $ feasible_arg $ dif_arg $ nocompile_arg
      $ nofastpath_arg $ width_arg $ height_arg $ vkb_arg $ vassoc_arg
      $ noren_arg $ storelist_arg $ predict_arg $ multicycle_arg $ blocks_arg
      $ optcheck_arg $ trace_arg $ trace_limit_arg $ stats_json_arg)

let () = exit (Cmd.eval cmd)
