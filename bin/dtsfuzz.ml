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
   1 at least one divergence, 2 junk flag values.

   A campaign is a Dts_job.Job fuzz batch evaluated through Dts_job.Run. *)

open Cmdliner
open Dts_job

let run_replay ~geoms files =
  let failed = ref false in
  List.iter
    (fun path ->
      match Dts_fuzz.Driver.replay ~geoms path with
      | Dts_fuzz.Diff.Pass { instret } ->
        Printf.printf "replay %s: PASS (%d instructions)\n" path instret
      | Skip reason ->
        Printf.printf "replay %s: SKIP (%s)\n" path reason;
        failed := true
      | Fail divs ->
        Printf.printf "replay %s: FAIL\n" path;
        List.iter
          (fun d ->
            Printf.printf "  %s\n" (Dts_fuzz.Driver.describe_div d))
          divs;
        failed := true)
    files;
  if !failed then Cli.task_failure else Cli.ok

let run_campaign ~seed ~count ~max_insns ~config ~jobs ~backend ~out
    ~no_shrink =
  let job =
    Job.fuzz_batch ~max_insns ~config ~shrink:(not no_shrink) ~out_dir:out
      ~seed ~count ()
  in
  Cli.check (Job.validate job);
  let outcome =
    Dts_parallel.Pool.with_pool ~backend ~jobs (fun pool ->
        Run.run ~pool job)
  in
  print_string outcome.Run.text;
  outcome.Run.exit_code

let corpus_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".srisc")
  |> List.sort compare
  |> List.map (Filename.concat dir)

let main seed count max_insns config jobs backend replay replay_dir out
    no_shrink =
  Cli.check_positive ~what:"--count" count;
  Cli.check_positive ~what:"--max-insns" max_insns;
  Cli.check_non_negative ~what:"--jobs" jobs;
  let geoms = Cli.geoms_of_config config in
  let backend = Cli.backend_of_flag backend in
  let replay =
    replay @ List.concat_map corpus_files (Option.to_list replay_dir)
  in
  if replay <> [] then run_replay ~geoms replay
  else
    run_campaign ~seed ~count ~max_insns ~config
      ~jobs:(Dts_parallel.Pool.resolve_jobs jobs)
      ~backend ~out ~no_shrink

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
      const main $ Cli.seed_arg $ count_t $ max_insns_t $ Cli.config_arg
      $ Cli.jobs_arg ~doc:jobs_doc ()
      $ Cli.backend_arg $ replay_t $ replay_dir_t $ out_t $ no_shrink_t)

let () = exit (Cmd.eval' cmd)
