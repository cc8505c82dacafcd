open Dts_experiments

type outcome = { text : string; stats_json : string option; exit_code : int }

(* ------------------------------------------------------------------ *)
(* Workload jobs: the exact text of [dtsvliw_sim]                       *)
(* ------------------------------------------------------------------ *)

let load_program ~scale = function
  | Job.Builtin name ->
    Dts_workloads.Workloads.program ~scale (Dts_workloads.Workloads.find name)
  | Job.File path ->
    let src = In_channel.with_open_text path In_channel.input_all in
    if Filename.check_suffix path ".c" then Dts_tinyc.Tinyc.compile src
    else Dts_asm.Assembler.assemble src

(* Byte-for-byte the report [dtsvliw_sim] has always printed. *)
let stats_text buf (m : Dts_core.Machine.t) instructions =
  let pr fmt = Printf.bprintf buf fmt in
  let s = Dts_core.Machine.stats m in
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

let dump_blocks_text (m : Dts_core.Machine.t) n =
  let blocks = ref [] in
  Dts_mem.Blockcache.iter (fun _ b -> blocks := b :: !blocks) m.vcache;
  let blocks =
    List.sort
      (fun a b -> compare a.Dts_sched.Schedtypes.tag_addr b.tag_addr)
      !blocks
  in
  let buf = Buffer.create 1024 in
  Printf.bprintf buf
    "\n%d blocks resident in the VLIW Cache (showing up to %d):\n"
    (List.length blocks) n;
  let fmt = Format.formatter_of_buffer buf in
  List.iteri
    (fun i b ->
      if i < n then Format.fprintf fmt "%a" Dts_sched.Schedtypes.pp_block b)
    blocks;
  Format.pp_print_flush fmt ();
  Buffer.contents buf

(* --optcheck: re-derive each finished block's constraint model through
   the optimality oracle, check the greedy schedule against the oracle's
   independent invariants, and assert its length is never below the
   certified lower bound. Returns whether every block passed. *)
let optcheck_text buf (cfg : Dts_core.Config.t) blocks =
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

let run_workload ?tracer ?(optcheck = false) ~budget ~scale ~source
    ~(machine : Machine_opts.t) ~dump_blocks () =
  let program = load_program ~scale source in
  let buf = Buffer.create 2048 in
  let ok = ref true in
  let m =
    if machine.dif then begin
      if optcheck then
        invalid_arg
          "Dts_job.Run: --optcheck applies to DTSVLIW machines only (not \
           --dif)";
      let machine_cfg = Dts_dif.Dif.fig9_machine_cfg () in
      let m, d = Dts_dif.Dif.machine ?tracer ~machine_cfg program in
      let n = Dts_core.Machine.run ~max_instructions:budget m in
      Buffer.add_string buf "[DIF machine]\n";
      stats_text buf m n;
      Printf.bprintf buf "DIF exit points:           %d\n" d.total_exits;
      Printf.bprintf buf "DIF cache bytes built:     %d\n" d.cache_bytes;
      m
    end
    else begin
      let cfg = Machine_opts.to_config machine in
      Printf.bprintf buf "[DTSVLIW: %s]\n" (Dts_core.Config.describe cfg);
      let scheduler, captured =
        if optcheck then begin
          let make, captured = Dts_opt.Opt.capturing_scheduler cfg in
          (Some make, Some captured)
        end
        else (None, None)
      in
      let m =
        Dts_core.Machine.create ~compile:machine.compile
          ~fastpath:machine.fastpath ?scheduler ?tracer cfg program
      in
      let n = Dts_core.Machine.run ~max_instructions:budget m in
      stats_text buf m n;
      (match captured with
      | None -> ()
      | Some captured ->
        if not (optcheck_text buf cfg (List.rev !captured)) then ok := false);
      m
    end
  in
  if dump_blocks > 0 then Buffer.add_string buf (dump_blocks_text m dump_blocks);
  {
    text = Buffer.contents buf;
    stats_json =
      Some (Dts_obs.Stats.to_json_string (Dts_core.Machine.stats m));
    exit_code = (if !ok then 0 else 1);
  }

(* ------------------------------------------------------------------ *)
(* Fuzz jobs: the exact text of [dtsfuzz]                               *)
(* ------------------------------------------------------------------ *)

let geoms_of config =
  match Dts_fuzz.Diff.geoms_of_string config with
  | Some g -> g
  | None -> invalid_arg (Printf.sprintf "Dts_job.Run: unknown config %S" config)

let fuzz_text ~seed ~max_insns ~geoms (summary : Dts_fuzz.Driver.summary) =
  let buf = Buffer.create 256 in
  let pr fmt = Printf.bprintf buf fmt in
  List.iter
    (fun (f : Dts_fuzz.Driver.failure) ->
      pr "FAIL program %d (seed %d): %d divergent engine(s)\n" f.f_index
        f.f_seed (List.length f.f_divs);
      List.iter (fun d -> pr "  %s\n" (Dts_fuzz.Driver.describe_div d)) f.f_divs;
      pr "  shrunk to %d live instructions%s\n" f.f_live
        (match f.f_path with
        | Some p -> Printf.sprintf "; reproducer: %s" p
        | None -> ""))
    summary.s_failures;
  List.iter
    (fun (i, pseed, reason) ->
      pr "SKIP program %d (seed %d): %s\n" i pseed reason)
    summary.s_skips;
  pr
    "fuzz: %d programs (seed %d, max-insns %d, config %s), %d passed, %d \
     skipped, %d divergent, %d instructions compared\n"
    summary.s_count seed max_insns
    (Dts_fuzz.Diff.geoms_to_string geoms)
    summary.s_passed
    (List.length summary.s_skips)
    (List.length summary.s_failures)
    summary.s_instructions;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Evaluation                                                           *)
(* ------------------------------------------------------------------ *)

let pool_map pool f xs =
  match pool with
  | None -> List.map f xs
  | Some pool -> Dts_parallel.Pool.map pool f xs

let run ?pool ?tracer ?optcheck (job : Job.t) =
  match job.kind with
  | Job.Figure { figure } ->
    let gen = List.assoc figure Experiments.by_name in
    let fig = gen ?pool ~scale:job.scale ~budget:job.budget () in
    { text = fig.Experiments.render () ^ "\n"; stats_json = None; exit_code = 0 }
  | Job.Fuzz_batch { seed; count; max_insns; config; shrink; out_dir } ->
    let geoms = geoms_of config in
    let verdicts =
      pool_map pool
        (Dts_fuzz.Driver.item ~geoms ~max_insns ~seed)
        (List.init count Fun.id)
    in
    let summary =
      Dts_fuzz.Driver.summarize ~geoms ~max_insns ~shrink ?out_dir ~count
        verdicts
    in
    {
      text = fuzz_text ~seed ~max_insns ~geoms summary;
      stats_json = None;
      exit_code = (if summary.s_failures = [] then 0 else 1);
    }
  | Job.Workload { source; machine; dump_blocks } ->
    run_workload ?tracer ?optcheck ~budget:job.budget ~scale:job.scale ~source
      ~machine ~dump_blocks ()
