(* The branch-and-bound optimality oracle (Dts_opt.Opt):

   - geometry decomposition and the Hall capacity condition;
   - on every block of all eight built-in workloads, both geometries:
     the greedy block passes the oracle's independent legality check, the
     oracle's bounds sandwich the greedy cycle count, the rebuilt optimal
     block passes the same legality check and the Sched_unit structural
     invariants;
   - an exhaustive-enumeration cross-check on small blocks (<= 6 ops)
     that must agree exactly with the branch-and-bound;
   - certified lower <= optimal <= upper under an exhausted node budget;
   - a deterministic block with a known optimality gap, pinning the exact
     optimum;
   - mutation sanity: the test-only [fault_weaken_pruning] flag must be
     caught by the exhaustive cross-check corpus. *)

open Dts_sched.Schedtypes
module Opt = Dts_opt.Opt
module SU = Dts_sched.Sched_unit

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---- geometry ---- *)

let test_geometry_decomposition () =
  let ideal = Opt.geometry_of_config (Dts_core.Config.ideal ()) in
  check_int "ideal: all universal" ideal.Opt.g_width ideal.Opt.g_uni;
  check_int "ideal: no dedicated" 0 (Array.fold_left ( + ) 0 ideal.Opt.g_ded);
  let feas = Opt.geometry_of_config (Dts_core.Config.feasible ()) in
  check_int "feasible: no universal" 0 feas.Opt.g_uni;
  check_int "feasible: dedicated sum = width" feas.Opt.g_width
    (Array.fold_left ( + ) 0 feas.Opt.g_ded);
  (* the Hall condition on the feasible machine: a full mixed cycle fits,
     one class over its dedicated count does not *)
  check_bool "mixed full cycle fits" true
    (Opt.caps_ok feas (Array.copy feas.Opt.g_ded) feas.Opt.g_width);
  let over = Array.copy feas.Opt.g_ded in
  over.(0) <- over.(0) + 1;
  check_bool "class overflow rejected" false
    (Opt.caps_ok feas over (Array.fold_left ( + ) 0 over));
  (* a universal pool absorbs the spill *)
  let uni = Opt.geometry ~width:4 ~slot_classes:None in
  check_bool "universal absorbs any mix" true (Opt.caps_ok uni [| 4; 0; 0; 0 |] 4)

(* ---- every block of every workload, both geometries ---- *)

let capture_blocks ~cfg ~budget name =
  let program =
    Dts_workloads.Workloads.program ~scale:1
      (Dts_workloads.Workloads.find name)
  in
  let make, captured = Opt.capturing_scheduler cfg in
  let m = Dts_core.Machine.create ~scheduler:make cfg program in
  ignore (Dts_core.Machine.run ~max_instructions:budget m);
  List.rev !captured

(* Check one block end to end; returns [(small, agreed)] for the
   exhaustive corpus bookkeeping. *)
let oracle_roundtrip ~what g lat b =
  (match Opt.check_block g lat b with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: greedy block fails legality: %s" what e);
  let m = Opt.model_of_block lat b in
  let s = Opt.schedule g m in
  check_int (what ^ ": fcfs = block lis") (Array.length b.lis) s.Opt.s_fcfs;
  check_bool (what ^ ": lower <= upper") true Opt.(s.s_lower <= s.s_upper);
  check_bool (what ^ ": upper <= fcfs") true Opt.(s.s_upper <= s.s_fcfs);
  check_bool
    (what ^ ": best schedule satisfies the model")
    true
    (Opt.assignment_ok g m s.Opt.s_schedule);
  let b' = Opt.rebuild g b m s.Opt.s_schedule in
  check_int (what ^ ": rebuilt length = upper") s.Opt.s_upper
    (Array.length b'.lis);
  (match Opt.check_block g lat b' with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: rebuilt block fails legality: %s" what e);
  check_bool
    (what ^ ": rebuilt block passes Sched_unit invariants")
    true
    (Test_sched.block_invariants b');
  (* degraded mode: a starved budget must still give a certified sandwich
     of the now-known optimum *)
  let s1 = Opt.schedule ~node_budget:1 g m in
  check_bool (what ^ ": starved lower <= upper") true Opt.(s1.s_lower <= s1.s_upper);
  if s.Opt.s_exact then begin
    check_bool (what ^ ": starved lower <= optimum") true
      Opt.(s1.s_lower <= s.s_upper);
    check_bool (what ^ ": starved upper >= optimum") true
      Opt.(s1.s_upper >= s.s_upper)
  end;
  if Opt.model_nodes m <= 6 then begin
    check_bool (what ^ ": small block certified") true s.Opt.s_exact;
    check_int (what ^ ": exhaustive = branch-and-bound") (Opt.exhaustive g m)
      s.Opt.s_upper;
    true
  end
  else false

let test_workload_blocks () =
  let small = ref 0 and total = ref 0 in
  List.iter
    (fun (gname, cfg) ->
      let g = Opt.geometry_of_config cfg in
      let lat = cfg.Dts_core.Config.sched.SU.latencies in
      List.iter
        (fun (w : Dts_workloads.Workloads.t) ->
          let blocks = capture_blocks ~cfg ~budget:1_200 w.name in
          check_bool (w.name ^ "/" ^ gname ^ ": blocks captured") true
            (blocks <> []);
          List.iteri
            (fun i b ->
              let what = Printf.sprintf "%s/%s block %d" w.name gname i in
              incr total;
              if oracle_roundtrip ~what g lat b then incr small)
            blocks)
        Dts_workloads.Workloads.all)
    [
      ("ideal", Dts_core.Config.ideal ());
      ("feasible", Dts_core.Config.feasible ());
    ];
  check_bool "a non-trivial corpus" true (!total >= 50);
  check_bool "the exhaustive corpus is non-empty" true (!small > 0)

(* ---- a deterministic block with a known gap ---- *)

(* Insert without ticks (no move-up): the greedy tail-insertion leaves an
   independent chain start in the second long instruction, wasting one —
   A; B(A); C; D(C); E(D) at width 2 builds 4 long instructions where
   cycles {A,C} {B,D} {E} = 3 suffice. *)
let known_gap_block () =
  let scfg = Test_sched.cfg ~width:2 ~height:8 () in
  let t = SU.create scfg in
  let alu = Test_sched.alu and alu_rr = Test_sched.alu_rr in
  Test_sched.insert_ok t (Test_sched.ret ~addr:0x1000 (alu 1 1 2));
  Test_sched.insert_ok t (Test_sched.ret ~addr:0x1004 (alu_rr 2 0 3));
  Test_sched.insert_ok t (Test_sched.ret ~addr:0x1008 (alu 5 1 6));
  Test_sched.insert_ok t (Test_sched.ret ~addr:0x100c (alu_rr 6 0 7));
  Test_sched.insert_ok t (Test_sched.ret ~addr:0x1010 (alu_rr 7 0 8));
  let b = Option.get (SU.finish_block t ~nba_addr:0x1014) in
  (Opt.geometry_of_sched scfg, scfg.SU.latencies, b)

let test_known_gap () =
  let g, lat, b = known_gap_block () in
  check_int "greedy built 4 lis" 4 (Array.length b.lis);
  let m = Opt.model_of_block lat b in
  check_int "5 ops, no copies" 5 (Opt.model_nodes m);
  check_int "exhaustive optimum" 3 (Opt.exhaustive g m);
  let s = Opt.schedule g m in
  check_bool "certified" true s.Opt.s_exact;
  check_int "lower" 3 s.Opt.s_lower;
  check_int "upper" 3 s.Opt.s_upper;
  let b' = Opt.rebuild g b m s.Opt.s_schedule in
  check_int "rebuilt to 3 lis" 3 (Array.length b'.lis);
  match Opt.check_block g lat b' with
  | Ok () -> ()
  | Error e -> Alcotest.failf "rebuilt gap block fails legality: %s" e

(* ---- mutation sanity ---- *)

(* Weakened pruning discards the subtree holding the true optimum of the
   known-gap block: the oracle then "certifies" 4 cycles where the
   exhaustive enumeration proves 3 — the cross-check corpus must catch
   exactly this class of unsound oracle. *)
let test_mutation_weakened_pruning_caught () =
  let g, lat, b = known_gap_block () in
  let m = Opt.model_of_block lat b in
  Fun.protect
    ~finally:(fun () -> Opt.fault_weaken_pruning := false)
    (fun () ->
      Opt.fault_weaken_pruning := true;
      let s = Opt.schedule g m in
      let exh = Opt.exhaustive g m in
      check_bool "faulty oracle still claims certainty" true s.Opt.s_exact;
      check_bool "exhaustive cross-check catches the fault" true
        (s.Opt.s_upper > exh));
  (* and the pristine oracle agrees again *)
  let s = Opt.schedule g m in
  check_int "agreement restored" (Opt.exhaustive g m) s.Opt.s_upper

(* ---- random scheduler blocks (property) ---- *)

let prop_oracle_on_random_blocks =
  QCheck2.Test.make ~count:150 ~name:"oracle legal + bounded on random blocks"
    Test_sched.gen_stream (fun stream ->
      let t = Test_sched.run_stream stream (fun _ -> ()) in
      match SU.finish_block t ~nba_addr:0xFFFF with
      | None -> true
      | Some b ->
        let scfg = Test_sched.cfg () in
        let g = Opt.geometry_of_sched scfg in
        let lat = scfg.SU.latencies in
        (match Opt.check_block g lat b with
        | Ok () -> ()
        | Error e -> Alcotest.failf "greedy random block fails legality: %s" e);
        let m = Opt.model_of_block lat b in
        let s = Opt.schedule g m in
        let b' = Opt.rebuild g b m s.Opt.s_schedule in
        Opt.(s.s_lower <= s.s_upper)
        && Opt.(s.s_upper <= s.s_fcfs)
        && Opt.assignment_ok g m s.Opt.s_schedule
        && Opt.check_block g lat b' = Ok ()
        && Test_sched.block_invariants b'
        && (Opt.model_nodes m > 6
           || (s.Opt.s_exact && Opt.exhaustive g m = s.Opt.s_upper)))

(* ---- the oracle backend as the fuzzer runs it (pinned) ---- *)

(* Machine cycles of [Opt.rescheduling_scheduler] machines on the first 32
   programs of fuzz seed 1: every block is re-scheduled by the oracle and
   rebuilt before installation, so a change to the scheduler's blocks, the
   constraint model, the search or the rebuild moves these counts. *)
let opt_machine_cycles cfg =
  let max_insns = Dts_fuzz.Gen.default_max_insns in
  let fuel = Dts_fuzz.Gen.dynamic_bound ~max_insns in
  List.init 32 (fun i ->
      let seed = Dts_fuzz.Sprng.derive 1 i in
      let program = Dts_fuzz.Gen.generate ~max_insns ~seed () in
      let scheduler = Opt.rescheduling_scheduler cfg in
      let m = Dts_core.Machine.create ~compile:false ~scheduler cfg program in
      ignore (Dts_core.Machine.run ~max_instructions:fuel m);
      m.Dts_core.Machine.cycles)

let test_pinned_opt_cycles () =
  List.iter
    (fun (name, cfg, expected) ->
      Alcotest.(check (list int))
        (name ^ ": cycles per program") expected (opt_machine_cycles cfg))
    [
      ( "ideal",
        Dts_core.Config.ideal (),
        [ 313; 673; 333; 514; 323; 523; 207; 335; 439; 1068; 269; 186; 523;
          184; 542; 245; 430; 255; 430; 139; 371; 431; 290; 475; 437; 407;
          307; 185; 239; 298; 354; 315 ] );
      ( "feasible",
        Dts_core.Config.feasible (),
        [ 537; 834; 496; 650; 492; 730; 383; 507; 605; 1284; 500; 338; 731;
          368; 743; 367; 591; 434; 618; 300; 526; 627; 442; 722; 718; 583;
          458; 369; 423; 499; 671; 475 ] );
    ]

let suite =
  [
    Alcotest.test_case "oracle backend cycles, fuzz seed 1 (pinned)" `Quick
      test_pinned_opt_cycles;
    Alcotest.test_case "geometry decomposition" `Quick
      test_geometry_decomposition;
    Alcotest.test_case "all workload blocks, both geometries" `Slow
      test_workload_blocks;
    Alcotest.test_case "known optimality gap" `Quick test_known_gap;
    Alcotest.test_case "mutation: weakened pruning caught" `Quick
      test_mutation_weakened_pruning_caught;
    QCheck_alcotest.to_alcotest prop_oracle_on_random_blocks;
  ]
