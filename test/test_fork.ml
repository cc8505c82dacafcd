(* The worker pool's process backend, the repository's only fork path.
   It runs apart from test_main: OCaml refuses to fork once any domain has
   been spawned, and test_main spawns many. *)

let () =
  Alcotest.run "dtsvliw-fork" [ ("parallel", Test_parallel.processes_suite) ]
