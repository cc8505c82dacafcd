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

   Junk flag values, flag combinations that cannot run together and output
   files (--trace, --stats-json) that cannot be opened exit 2 before the
   run; a malformed program file is reported as FILE:LINE: message and
   exits 1, and so is a write that fails later (a full disk), as one
   `cannot write FILE: reason` line. *)

open Cmdliner
module Config = Dts_core.Config
module Machine = Dts_core.Machine

(* The machine a run simulates: the DIF baseline fixes its own machine
   (the fig9 one), so the DTSVLIW flags only shape [Dtsvliw]. *)
type machine = Dif | Dtsvliw of Config.t

let config_of_flags ~feasible ~width ~height ~vcache_kb ~vcache_assoc
    ~no_renaming ~store_list ~predict_next ~multicycle =
  let base =
    if feasible then Config.feasible () else Config.ideal ?width ?height ()
  in
  {
    base with
    vliw_cache =
      {
        kb = Option.value vcache_kb ~default:base.vliw_cache.kb;
        assoc = Option.value vcache_assoc ~default:base.vliw_cache.assoc;
      };
    sched =
      {
        base.sched with
        renaming = base.sched.renaming && not no_renaming;
        latencies =
          (if multicycle then Dts_isa.Instr.multicycle_latencies
           else base.sched.latencies);
      };
    store_scheme =
      (if store_list then Dts_vliw.Engine.Data_store_list
       else base.store_scheme);
    next_li_prediction = predict_next;
  }

let workload_names =
  List.map
    (fun (w : Dts_workloads.Workloads.t) -> w.name)
    Dts_workloads.Workloads.all

let builtin ~scale name =
  Dts_workloads.Workloads.program ~scale (Dts_workloads.Workloads.find name)

(* Load a program file, reporting a malformed one the way dtsasm and
   tinycc do. *)
let load_file path =
  try
    let src = In_channel.with_open_text path In_channel.input_all in
    if Filename.check_suffix path ".c" then Dts_tinyc.Tinyc.compile src
    else Dts_asm.Assembler.assemble src
  with
  | Dts_asm.Assembler.Error { line; msg } -> Cli.fail "%s:%d: %s" path line msg
  | Dts_tinyc.Lexer.Error { line; msg } ->
    Cli.fail "%s:%d: lexical error: %s" path line msg
  | Dts_tinyc.Parser.Error { line; msg } ->
    Cli.fail "%s:%d: parse error: %s" path line msg
  | Dts_tinyc.Codegen.Error msg -> Cli.fail "%s: %s" path msg
  | Sys_error msg -> Cli.fail "%s" msg

let stats_text buf (m : Machine.t) instructions =
  let pr fmt = Printf.bprintf buf fmt in
  let s = Machine.stats m in
  pr "instructions (sequential): %d\n" instructions;
  pr "cycles:                    %d\n" s.cycles;
  pr "IPC:                       %.3f\n"
    (float_of_int instructions /. float_of_int (max 1 s.cycles));
  pr "VLIW execution cycles:     %.1f%%\n"
    (100. *. Dts_obs.Stats.vliw_cycle_fraction s);
  pr "slot utilisation:          %.1f%%\n"
    (100. *. Dts_obs.Stats.slot_utilisation s);
  pr "blocks built:              %d\n" s.blocks_flushed;
  pr "engine switches:           %d\n" s.engine_switches;
  pr "renaming registers (max):  %d int, %d fp, %d flag, %d mem\n"
    s.rr_max.(0) s.rr_max.(1) s.rr_max.(2) s.rr_max.(3);
  pr "load/store lists (max):    %d / %d\n" s.max_load_list s.max_store_list;
  pr "checkpoint recovery (max): %d\n" s.max_recovery_list;
  pr "branch mispredictions:     %d\n" s.mispredicts;
  pr "aliasing exceptions:       %d\n" s.aliasing_exceptions;
  pr "block exceptions:          %d\n" s.block_exceptions;
  pr "VLIW cache: %d hits, %d misses, %d insertions, %d evictions\n"
    s.vcache_hits s.vcache_misses s.vcache_insertions s.vcache_evictions;
  if m.cfg.next_li_prediction then
    pr "next-li predictor:         %d hits, %d misses\n" s.nlp_hits
      s.nlp_misses;
  if s.max_data_store_list > 0 then
    pr "data store list (max):     %d\n" s.max_data_store_list;
  pr "cycle attribution:\n";
  List.iter
    (fun cat ->
      let n = Dts_obs.Attribution.sum_of s.attribution [ cat ] in
      if n > 0 then
        pr "  %-28s %9d  (%.1f%%)\n"
          (Dts_obs.Attribution.label cat)
          n
          (100. *. float_of_int n /. float_of_int (max 1 s.cycles)))
    Dts_obs.Attribution.all

let dump_blocks_text buf (m : Machine.t) n =
  let blocks = ref [] in
  Dts_mem.Blockcache.iter
    (fun _ (c : Machine.cached) -> blocks := c.block :: !blocks)
    m.vcache;
  let blocks =
    List.sort
      (fun a b -> compare a.Dts_sched.Schedtypes.tag_addr b.tag_addr)
      !blocks
  in
  Printf.bprintf buf
    "\n%d blocks resident in the VLIW Cache (showing up to %d):\n"
    (List.length blocks) n;
  let fmt = Format.formatter_of_buffer buf in
  List.iteri
    (fun i b ->
      if i < n then Format.fprintf fmt "%a" Dts_sched.Schedtypes.pp_block b)
    blocks;
  Format.pp_print_flush fmt ()

(* --optcheck: re-derive each finished block's constraint model through
   the optimality oracle, check the greedy schedule against the oracle's
   independent invariants, and assert its length is never below the
   certified lower bound. Returns whether every block passed. *)
let optcheck_text buf (cfg : Config.t) blocks =
  let g = Dts_opt.Opt.geometry_of_config cfg in
  let lat = cfg.sched.latencies in
  let violations = ref 0 in
  let certified = ref 0 in
  let fcfs = ref 0 and lower = ref 0 in
  List.iter
    (fun (b : Dts_sched.Schedtypes.block) ->
      (match Dts_opt.Opt.check_block g lat b with
      | Ok () -> ()
      | Error e ->
        incr violations;
        Printf.bprintf buf "optcheck: block %#x fails invariants: %s\n"
          b.tag_addr e);
      let s = Dts_opt.Opt.schedule g (Dts_opt.Opt.model_of_block lat b) in
      fcfs := !fcfs + s.s_fcfs;
      lower := !lower + s.s_lower;
      if s.s_exact then incr certified;
      if s.s_fcfs < s.s_lower then begin
        incr violations;
        Printf.bprintf buf
          "optcheck: block %#x scheduled in %d lis, below the certified \
           lower bound %d\n"
          b.tag_addr s.s_fcfs s.s_lower
      end)
    blocks;
  Printf.bprintf buf
    "optimality check:          %d blocks, %d lis >= %d certified lower (%d \
     exact), %d violations\n"
    (List.length blocks) !fcfs !lower !certified !violations;
  !violations = 0

(* One simulation: its report text, the machine it ran, and whether every
   --optcheck block passed. *)
let simulate ~optcheck ~budget ~dump_blocks machine ~tracer program =
  let buf = Buffer.create 2048 in
  let m, ok =
    match machine with
    | Dif ->
      let machine_cfg = Dts_dif.Dif.fig9_machine_cfg () in
      let m, d = Dts_dif.Dif.machine ~tracer ~machine_cfg program in
      let n = Machine.run ~max_instructions:budget m in
      Buffer.add_string buf "[DIF machine]\n";
      stats_text buf m n;
      Printf.bprintf buf "DIF exit points:           %d\n" d.total_exits;
      Printf.bprintf buf "DIF cache bytes built:     %d\n" d.cache_bytes;
      (m, true)
    | Dtsvliw cfg ->
      Printf.bprintf buf "[DTSVLIW: %s]\n" (Config.describe cfg);
      let scheduler, captured =
        if optcheck then begin
          let make, captured = Dts_opt.Opt.capturing_scheduler cfg in
          (Some make, Some captured)
        end
        else (None, None)
      in
      let m = Machine.create ?scheduler ~tracer cfg program in
      let n = Machine.run ~max_instructions:budget m in
      stats_text buf m n;
      let ok =
        match captured with
        | None -> true
        | Some captured -> optcheck_text buf cfg (List.rev !captured)
      in
      (m, ok)
  in
  if dump_blocks > 0 then dump_blocks_text buf m dump_blocks;
  (Buffer.contents buf, m, ok)

let run_single ~simulate ~load ~trace_file ~trace_limit ~stats_json =
  let trace = Option.map Cli.open_out_or_die trace_file in
  let stats = Option.map Cli.open_out_or_die stats_json in
  let program = load () in
  let text, m, ok =
    match trace with
    | None -> simulate ~tracer:Dts_obs.Trace.null program
    | Some f ->
      (* the tracer writes as the machine runs *)
      Cli.write_file f (fun oc ->
          simulate ~tracer:(Dts_obs.Trace.to_channel ~limit:trace_limit oc)
            program)
  in
  Cli.print text;
  Option.iter
    (fun f ->
      Cli.write_file f (fun oc ->
          output_string oc (Dts_obs.Stats.to_json_string (Machine.stats m))))
    stats;
  if not ok then exit Cli.task_failure

(* Several workloads: simulate concurrently on the pool, print the reports
   sequentially in the order the workloads were given. *)
let run_many ~simulate ~scale ~workloads ~jobs =
  let reports =
    Dts_parallel.Pool.with_pool ~jobs (fun pool ->
        Dts_parallel.Pool.map pool
          (fun name ->
            let text, _, ok = simulate (builtin ~scale name) in
            (text, ok))
          workloads)
  in
  List.iteri
    (fun i (name, (text, _)) ->
      Cli.print
        (Printf.sprintf "%s=== %s ===\n%s" (if i > 0 then "\n" else "") name text))
    (List.combine workloads reports);
  if List.exists (fun (_, ok) -> not ok) reports then exit Cli.task_failure

let run workloads file scale budget jobs feasible dif width height vcache_kb
    vcache_assoc no_renaming store_list predict_next multicycle dump_blocks
    optcheck trace_file trace_limit stats_json =
  Cli.check_positive ~what:"--budget" budget;
  Cli.check_positive ~what:"--scale" scale;
  Cli.check_non_negative ~what:"--jobs" jobs;
  Cli.check_non_negative ~what:"--dump-blocks" dump_blocks;
  Cli.check_non_negative ~what:"--trace-limit" trace_limit;
  List.iter
    (fun (what, n) -> Option.iter (Cli.check_positive ~what) n)
    [
      ("--width", width);
      ("--height", height);
      ("--vcache-kb", vcache_kb);
      ("--vcache-assoc", vcache_assoc);
    ];
  List.iter
    (fun w ->
      if not (List.mem w workload_names) then
        Cli.die "unknown workload %S (expected one of %s)" w
          (String.concat ", " workload_names))
    workloads;
  if optcheck && dif then
    Cli.die "--optcheck applies to DTSVLIW machines only (not --dif)";
  (* the DIF baseline and the feasible machine fix what these flags set, so
     accepting them would silently run a machine other than the one asked
     for *)
  let machine_flags =
    List.filter_map
      (fun (flag, set) -> if set then Some flag else None)
      [
        ("--feasible", feasible);
        ("--width", width <> None);
        ("--height", height <> None);
        ("--vcache-kb", vcache_kb <> None);
        ("--vcache-assoc", vcache_assoc <> None);
        ("--no-renaming", no_renaming);
        ("--store-list", store_list);
        ("--predict-next", predict_next);
        ("--multicycle", multicycle);
      ]
  in
  if dif && machine_flags <> [] then
    Cli.die "--dif simulates its own fixed machine: drop %s"
      (String.concat ", " machine_flags);
  if feasible && (width <> None || height <> None) then
    Cli.die "--feasible fixes its own geometry: drop --width/--height";
  let machine =
    if dif then Dif
    else begin
      let cfg =
        config_of_flags ~feasible ~width ~height ~vcache_kb ~vcache_assoc
          ~no_renaming ~store_list ~predict_next ~multicycle
      in
      (* the VLIW Engine's aliasing log packs a slot's long-instruction
         index and program order into fixed-width fields *)
      let { Dts_sched.Sched_unit.width; height; _ } = cfg.sched in
      if height > Dts_vliw.Aliaslog.max_height then
        Cli.die "--height must be at most %d (got %d)"
          Dts_vliw.Aliaslog.max_height height;
      if width * height > Dts_vliw.Aliaslog.max_slots then
        Cli.die "--width x --height must be at most %d slots (got %d x %d)"
          Dts_vliw.Aliaslog.max_slots width height;
      Dtsvliw cfg
    end
  in
  let simulate = simulate ~optcheck ~budget ~dump_blocks machine in
  match (workloads, file) with
  | [ w ], None ->
    run_single ~simulate ~load:(fun () -> builtin ~scale w) ~trace_file
      ~trace_limit ~stats_json
  | [], Some path ->
    run_single ~simulate ~load:(fun () -> load_file path) ~trace_file
      ~trace_limit ~stats_json
  | _ :: _ :: _, None ->
    if trace_file <> None || stats_json <> None then
      Cli.die
        "--trace/--stats-json write one file: combine them with a single \
         --workload only";
    run_many ~simulate:(simulate ~tracer:Dts_obs.Trace.null) ~scale ~workloads
      ~jobs:(Dts_parallel.Pool.resolve_jobs jobs)
  | [], None | _ :: _, Some _ ->
    Cli.die "specify exactly one of --workload NAME or a program file"

let workload_arg =
  Arg.(value & opt_all string []
       & info [ "w"; "workload" ]
           ~doc:
             ("Built-in workload (repeatable; several run concurrently over \
               --jobs workers): " ^ String.concat ", " workload_names))

let file_arg =
  Arg.(value & pos 0 (some file) None & info [] ~docv:"PROGRAM" ~doc:"Program file (.s assembly or .c tinyc)")

let jobs_doc =
  "Workers when several workloads are given (0 = one per host core). \
   Reports are printed in the order the workloads were named, whatever the \
   value."
let feasible_arg = Arg.(value & flag & info [ "feasible" ] ~doc:"Use the feasible machine of section 4.4")
let dif_arg = Arg.(value & flag & info [ "dif" ] ~doc:"Simulate the DIF baseline instead")
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
      $ feasible_arg $ dif_arg $ width_arg $ height_arg $ vkb_arg $ vassoc_arg
      $ noren_arg $ storelist_arg $ predict_arg $ multicycle_arg $ blocks_arg
      $ optcheck_arg $ trace_arg $ trace_limit_arg $ stats_json_arg)

let () = exit (Cmd.eval cmd)
