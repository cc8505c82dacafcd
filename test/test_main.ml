let () =
  Alcotest.run "dtsvliw"
    [
      ("mem", Test_mem.suite);
      ("memdiff", Test_memdiff.suite);
      ("isa", Test_isa.suite);
      ("asm", Test_asm.suite);
      ("golden", Test_golden.suite);
      ("tinyc", Test_tinyc.suite);
      ("sched", Test_sched.suite);
      ("primary", Test_primary.suite);
      ("vliw", Test_vliw.suite);
      ("plan", Test_plan.suite);
      ("aliaslog", Test_aliaslog.suite);
      ("machine", Test_machine.suite);
      ("dif", Test_dif.suite);
      ("workloads", Test_workloads.suite);
      ("report", Test_report.suite);
      ("experiments", Test_experiments.suite);
      ("obs", Test_obs.suite);
      ("parallel", Test_parallel.suite);
      ("predecode", Test_predecode.suite);
      ("fuzz", Test_fuzz.suite);
      ("opt", Test_opt.suite);
    ]
