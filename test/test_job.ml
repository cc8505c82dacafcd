(* The unified Job API (lib/job): [Job.validate] rejects every job that
   cannot run, before any work starts. *)

open Dts_job

let check_bool = Alcotest.(check bool)

let test_job_validate () =
  let ok job = check_bool "valid" true (Job.validate job = Ok ()) in
  let bad job = check_bool "invalid" true (Result.is_error (Job.validate job)) in
  ok (Job.figure "all");
  ok (Job.fuzz_batch ~seed:1 ~count:16 ());
  ok (Job.workload (Job.Builtin "compress"));
  bad (Job.figure "nope");
  bad (Job.figure ~scale:0 "fig6");
  bad (Job.fuzz_batch ~seed:1 ~count:0 ());
  bad (Job.fuzz_batch ~seed:1 ~count:4 ~config:"fast" ());
  bad (Job.fuzz_batch ~seed:1 ~count:4 ~max_insns:0 ());
  bad (Job.workload (Job.Builtin "specint"));
  bad (Job.workload (Job.File ""));
  bad (Job.workload ~dump_blocks:(-1) (Job.Builtin "compress"));
  bad
    (Job.workload
       ~machine:{ Machine_opts.default with width = Some 0 }
       (Job.Builtin "compress"))

let suite = [ Alcotest.test_case "job validation" `Quick test_job_validate ]
