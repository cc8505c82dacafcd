(* Differential fuzzing CLI.

   Generate seeded random SRISC programs and run each on every engine of
   the repository — Golden, Primary-only, DTSVLIW interpreted and compiled
   on the ideal and feasible geometries, and DIF — comparing final
   registers, memory and the sequential instruction count. On a divergence
   the program is greedily shrunk and a self-contained reproducer is
   written to the failure directory.

   Examples:
     dtsfuzz --count 1000 --seed 42
     dtsfuzz --count 64 --config feasible --jobs 4
     dtsfuzz --replay _build/fuzz-failures/seed-123.srisc

   Determinism: the same seed yields the same programs and the same
   verdicts, for any --jobs value. Exit status: 0 all programs agreed,
   1 at least one divergence or a malformed reproducer (reported as
   FILE:LINE: message), 2 junk flag values.

   A campaign is Dts_fuzz.Driver.run_campaign, the same function the test
   suite runs. *)

open Cmdliner

let run_replay ~geoms files =
  let failed = ref false in
  List.iter
    (fun path ->
      match Dts_fuzz.Driver.replay ~geoms path with
      | Dts_fuzz.Diff.Pass { instret } ->
        Cli.print (Printf.sprintf "replay %s: PASS (%d instructions)\n" path instret)
      | Skip reason ->
        Cli.print (Printf.sprintf "replay %s: SKIP (%s)\n" path reason);
        failed := true
      | Fail divs ->
        Cli.print
          (String.concat ""
             (Printf.sprintf "replay %s: FAIL\n" path
             :: List.map
                  (fun d -> Printf.sprintf "  %s\n" (Dts_fuzz.Driver.describe_div d))
                  divs));
        failed := true
      | exception Dts_fuzz.Repro.Parse_error { line; msg } ->
        Cli.fail "%s:%d: %s" path line msg)
    files;
  if !failed then Cli.task_failure else Cli.ok

let summary_text ~seed ~max_insns ~geoms (summary : Dts_fuzz.Driver.summary)
    =
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

let run_campaign ~seed ~count ~max_insns ~geoms ~jobs ~out ~no_shrink =
  let summary =
    Dts_fuzz.Driver.run_campaign ~jobs ~geoms ~max_insns
      ~shrink:(not no_shrink) ~out_dir:out ~seed ~count ()
  in
  Cli.print (summary_text ~seed ~max_insns ~geoms summary);
  if summary.s_failures = [] then Cli.ok else Cli.task_failure

let corpus_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".srisc")
  |> List.sort compare
  |> List.map (Filename.concat dir)

let main seed count max_insns config jobs replay replay_dir out no_shrink =
  Cli.check_positive ~what:"--count" count;
  Cli.check_positive ~what:"--max-insns" max_insns;
  Cli.check_non_negative ~what:"--jobs" jobs;
  let geoms =
    match Dts_fuzz.Diff.geoms_of_string config with
    | Some geoms -> geoms
    | None ->
      Cli.die "unknown --config %s (expected all, ideal or feasible)" config
  in
  let replay =
    replay @ List.concat_map corpus_files (Option.to_list replay_dir)
  in
  if replay <> [] then run_replay ~geoms replay
  else
    run_campaign ~seed ~count ~max_insns ~geoms
      ~jobs:(Dts_parallel.Pool.resolve_jobs jobs)
      ~out ~no_shrink

let seed_t =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Campaign seed.")

let count_t =
  Arg.(
    value & opt int 100
    & info [ "count" ] ~docv:"N" ~doc:"Number of programs to generate.")

let max_insns_t =
  Arg.(
    value
    & opt int Dts_fuzz.Gen.default_max_insns
    & info [ "max-insns" ] ~docv:"N"
        ~doc:"Static instruction budget per generated program.")

let config_t =
  Arg.(
    value & opt string "all"
    & info [ "config" ] ~docv:"GEOM"
        ~doc:"DTSVLIW geometries to exercise: all, ideal or feasible.")

let jobs_doc =
  "Run programs on a pool of N workers (0 = one per core). Output is \
   bit-identical for every value."

let replay_t =
  Arg.(
    value & opt_all file []
    & info [ "replay" ] ~docv:"FILE"
        ~doc:"Replay reproducer file(s) instead of generating programs. \
              Repeatable.")

let replay_dir_t =
  Arg.(
    value
    & opt (some dir) None
    & info [ "replay-dir" ] ~docv:"DIR"
        ~doc:"Replay every .srisc reproducer in DIR (sorted by name).")

let out_t =
  Arg.(
    value
    & opt string "_build/fuzz-failures"
    & info [ "out" ] ~docv:"DIR" ~doc:"Directory for reproducer files.")

let no_shrink_t =
  Arg.(
    value & flag
    & info [ "no-shrink" ] ~doc:"Emit failing programs without minimising.")

let cmd =
  Cmd.v
    (Cli.cmd_info "dtsfuzz" ~doc:"Differential fuzzer for the DTSVLIW engines")
    Term.(
      const main $ seed_t $ count_t $ max_insns_t $ config_t
      $ Cli.jobs_arg ~doc:jobs_doc ()
      $ replay_t $ replay_dir_t $ out_t $ no_shrink_t)

let () = exit (Cmd.eval' cmd)
