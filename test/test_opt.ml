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

(* ---- a latency past the one-byte dominance key ---- *)

(* With l_div = 300 a block spans 300-odd long instructions, and during
   the search scheduled ops reach ages 254, 255 and beyond. This block
   (width 2, no move-up between some inserts; found by a random search) has
   a 303-cycle optimum, which exhaustive enumeration confirms. A key with one byte per op, 254 meaning clamped and
   255 unscheduled, let the memo prune the subtree holding it and certify
   the greedy 304; the reference search keeps that key. *)
let test_long_latency_key () =
  let lat = { Dts_isa.Instr.unit_latencies with l_div = 300 } in
  let scfg =
    { (Test_sched.cfg ~width:2 ~height:1024 ()) with SU.latencies = lat }
  in
  let t = SU.create scfg in
  let div rs1 rs2 rd =
    Dts_isa.Instr.Alu { op = Sdiv; cc = false; rs1; op2 = Reg rs2; rd }
  in
  List.iteri
    (fun i (ticks, instr) ->
      for _ = 1 to ticks do
        SU.tick t
      done;
      Test_sched.insert_ok t (Test_sched.ret ~addr:(0x1000 + (4 * i)) instr))
    [
      (2, div 4 3 1);
      (2, div 4 3 4);
      (0, div 3 2 1);
      (1, div 2 4 2);
      (1, Test_sched.alu_rr 3 4 3);
      (1, Test_sched.alu_rr 1 1 4);
      (0, div 1 4 3);
    ];
  let b = Option.get (SU.finish_block t ~nba_addr:0x2000) in
  let g = Opt.geometry_of_sched scfg in
  check_int "greedy built 304 lis" 304 (Array.length b.lis);
  let m = Opt.model_of_block lat b in
  let s = Opt.schedule g m in
  check_bool "certified" true s.Opt.s_exact;
  check_int "optimum" 303 s.Opt.s_upper;
  check_int "exhaustive optimum" 303 (Opt.exhaustive g m);
  check_bool "schedule satisfies the model" true
    (Opt.assignment_ok g m s.Opt.s_schedule);
  (match Opt.check_block g lat (Opt.rebuild g b m s.Opt.s_schedule) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "rebuilt block fails legality: %s" e);
  let r = Ref_opt.schedule g (Ref_opt.model_of_block lat b) in
  check_bool "the one-byte key certifies the greedy length" true
    (r.Opt.s_exact && r.Opt.s_upper = 304)

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

(* ---- the oracle in the fuzz regime (pinned) ---- *)

let roster_node_budget = 4_000

let fuzz_program ~seed i =
  Dts_fuzz.Gen.generate ~max_insns:Dts_fuzz.Gen.default_max_insns
    ~seed:(Dts_fuzz.Sprng.derive seed i) ()

(* Run [program] on a machine whose Scheduler Unit passes every finished
   block through the oracle as the roster's [Opt.rescheduling_scheduler]
   does (model, search at the roster's node budget, rebuild), handing each
   greedy block and its solution to [f]. *)
let roster_oracle_run cfg program f =
  let g = Opt.geometry_of_config cfg in
  let lat = cfg.Dts_core.Config.sched.SU.latencies in
  let scheduler () =
    let u = SU.create cfg.Dts_core.Config.sched in
    {
      Dts_core.Machine.s_tick = (fun () -> SU.tick u);
      s_insert = (fun r -> SU.insert u r);
      s_finish =
        (fun ~nba_addr ->
          match SU.finish_block u ~nba_addr with
          | None -> None
          | Some b ->
            let m = Opt.model_of_block lat b in
            let s = Opt.schedule ~node_budget:roster_node_budget g m in
            f b s;
            Some (Opt.rebuild g b m s.Opt.s_schedule));
    }
  in
  let m = Dts_core.Machine.create ~compile:false ~scheduler cfg program in
  ignore
    (Dts_core.Machine.run
       ~max_instructions:
         (Dts_fuzz.Gen.dynamic_bound ~max_insns:Dts_fuzz.Gen.default_max_insns)
       m)

(* Totals of the roster's searches over the first 64 programs of fuzz seed
   1: blocks, blocks searched (a node expanded), blocks cut off at the
   node budget, and the sums of s_nodes, s_lower and s_upper. Every block
   of the roster's opt engines goes through this search, so a change to
   the model, the search order, the pruning or the budget moves them. *)
let roster_search_totals cfg =
  let blocks = ref 0 and searched = ref 0 and cut = ref 0 in
  let nodes = ref 0 and lower = ref 0 and upper = ref 0 in
  for i = 0 to 63 do
    roster_oracle_run cfg (fuzz_program ~seed:1 i) (fun _ s ->
        incr blocks;
        if s.Opt.s_nodes > 0 then incr searched;
        if s.Opt.s_nodes > roster_node_budget then incr cut;
        nodes := !nodes + s.Opt.s_nodes;
        lower := !lower + s.Opt.s_lower;
        upper := !upper + s.Opt.s_upper)
  done;
  [ !blocks; !searched; !cut; !nodes; !lower; !upper ]

let test_pinned_roster_search () =
  List.iter
    (fun (name, cfg, expected) ->
      Alcotest.(check (list int))
        (name ^ ": blocks, searched, cut off, nodes, lower, upper")
        expected (roster_search_totals cfg))
    [
      ("ideal", Dts_core.Config.ideal (), [ 682; 145; 31; 219996; 4225; 4235 ]);
      ("feasible", Dts_core.Config.feasible (), [ 713; 194; 60; 323634; 4454; 4512 ]);
    ]

(* ---- the flat model and search against the reference ---- *)

let fuzz_blocks cfg program =
  let make, captured = Opt.capturing_scheduler cfg in
  let m = Dts_core.Machine.create ~compile:false ~scheduler:make cfg program in
  ignore
    (Dts_core.Machine.run
       ~max_instructions:
         (Dts_fuzz.Gen.dynamic_bound ~max_insns:Dts_fuzz.Gen.default_max_insns)
       m);
  List.rev !captured

(* Every constraint (u, v, w) of a model, sorted: from its predecessor
   arrays ([~by_target]), from its successor arrays, and from the
   reference's lists. *)
let csr_edges ~by_target (m : Opt.model) =
  let off, other, w =
    if by_target then Opt.(m.m_pred_off, m.m_pred, m.m_pred_w)
    else Opt.(m.m_succ_off, m.m_succ, m.m_succ_w)
  in
  List.sort compare
    (List.concat
       (List.init (Opt.model_nodes m) (fun x ->
            List.init
              (off.(x + 1) - off.(x))
              (fun k ->
                let j = off.(x) + k in
                if by_target then (other.(j), x, w.(j)) else (x, other.(j), w.(j))))))

let ref_edges (r : Ref_opt.model) =
  List.sort compare
    (List.concat
       (Array.to_list
          (Array.mapi
             (fun v ps -> Array.to_list (Array.map (fun (u, w) -> (u, v, w)) ps))
             r.Ref_opt.m_preds)))

let with_weakened_pruning fault f =
  Fun.protect
    ~finally:(fun () -> Opt.fault_weaken_pruning := false)
    (fun () ->
      Opt.fault_weaken_pruning := fault;
      f ())

(* On every block of a random fuzz program, both geometries: the same
   deduplicated constraints as the reference model, and the same solution
   record, schedule included, as the reference search at node budgets 1,
   50, 4,000 and 20,000, with the pruning fault off and on. *)
let prop_matches_reference =
  QCheck2.Test.make ~count:60 ~name:"flat model and search = reference"
    ~print:string_of_int QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let program = fuzz_program ~seed 0 in
      List.iter
        (fun (gname, cfg) ->
          let g = Opt.geometry_of_config cfg in
          let lat = cfg.Dts_core.Config.sched.SU.latencies in
          List.iteri
            (fun i b ->
              let what = Printf.sprintf "%s block %d" gname i in
              let m = Opt.model_of_block lat b in
              let r = Ref_opt.model_of_block lat b in
              let edges = ref_edges r in
              if csr_edges ~by_target:true m <> edges then
                Alcotest.failf "%s: predecessor edges differ" what;
              if csr_edges ~by_target:false m <> edges then
                Alcotest.failf "%s: successor edges differ" what;
              List.iter
                (fun node_budget ->
                  List.iter
                    (fun fault ->
                      let s, s_ref =
                        with_weakened_pruning fault (fun () ->
                            ( Opt.schedule ~node_budget g m,
                              Ref_opt.schedule ~node_budget g r ))
                      in
                      if s <> s_ref then
                        Alcotest.failf
                          "%s, budget %d, fault %b: nodes %d/%d lower %d/%d \
                           upper %d/%d"
                          what node_budget fault s.Opt.s_nodes
                          s_ref.Opt.s_nodes s.Opt.s_lower s_ref.Opt.s_lower
                          s.Opt.s_upper s_ref.Opt.s_upper)
                    [ false; true ])
                [ 1; 50; 4_000; 20_000 ])
            (fuzz_blocks cfg program))
        [
          ("ideal", Dts_core.Config.ideal ());
          ("feasible", Dts_core.Config.feasible ());
        ];
      true)

(* ---- the oracle's allocation (bounded) ---- *)

(* Minor words the roster's oracle allocates on a fixed corpus, the greedy
   blocks of the first 16 programs of fuzz seed 1 on both geometries: per
   block for the whole pipeline (model, search at the roster's budget,
   rebuild, check), and per search node for the searches alone, over the
   blocks that expand one. Each window starts from a collected heap and
   ends with a minor collection, so counts are deterministic. *)
let oracle_minor_words () =
  let corpus =
    List.concat_map
      (fun cfg ->
        let g = Opt.geometry_of_config cfg in
        let lat = cfg.Dts_core.Config.sched.SU.latencies in
        List.concat
          (List.init 16 (fun i ->
               List.map
                 (fun b -> (g, lat, b))
                 (fuzz_blocks cfg (fuzz_program ~seed:1 i)))))
      [ Dts_core.Config.ideal (); Dts_core.Config.feasible () ]
  in
  let minor_words f =
    Gc.full_major ();
    let minor0, _, _ = Gc.counters () in
    f ();
    Gc.minor ();
    let minor1, _, _ = Gc.counters () in
    minor1 -. minor0
  in
  let pipeline () =
    List.iter
      (fun (g, lat, b) ->
        let m = Opt.model_of_block lat b in
        let s = Opt.schedule ~node_budget:roster_node_budget g m in
        match Opt.check_block g lat (Opt.rebuild g b m s.Opt.s_schedule) with
        | Ok () -> ()
        | Error e -> Alcotest.failf "rebuilt block fails legality: %s" e)
      corpus
  in
  pipeline ();
  let per_block = minor_words pipeline /. float (List.length corpus) in
  let searched =
    List.filter_map
      (fun (g, lat, b) ->
        let m = Opt.model_of_block lat b in
        let s = Opt.schedule ~node_budget:roster_node_budget g m in
        if s.Opt.s_nodes > 0 then Some (g, m, s.Opt.s_nodes) else None)
      corpus
  in
  let nodes = List.fold_left (fun a (_, _, k) -> a + k) 0 searched in
  let words =
    minor_words (fun () ->
        List.iter
          (fun (g, m, _) ->
            ignore
              (Sys.opaque_identity
                 (Opt.schedule ~node_budget:roster_node_budget g m)))
          searched)
  in
  (List.length corpus, per_block, List.length searched, nodes, words /. float nodes)

(* Measured 4,663 words per block and 0.66 per node over 374 blocks (78
   searched, 121,135 nodes); the allocating search this replaced took
   23,049 and 39.2. A search node allocates nothing, so the per-node figure
   is the searched blocks' set-up spread over their nodes. *)
let test_oracle_allocation () =
  let blocks, per_block, searched, nodes, per_node = oracle_minor_words () in
  check_bool "a corpus with searches" true (blocks > 300 && searched > 50);
  check_bool
    (Printf.sprintf "%.0f words per block, bound 5,500" per_block)
    true (per_block <= 5_500.);
  check_bool
    (Printf.sprintf "%.2f words per node (%d nodes), bound 0.8" per_node nodes)
    true (per_node <= 0.8)

let suite =
  [
    Alcotest.test_case "oracle backend cycles, fuzz seed 1 (pinned)" `Quick
      test_pinned_opt_cycles;
    Alcotest.test_case "roster searches, fuzz seed 1 (pinned)" `Quick
      test_pinned_roster_search;
    Alcotest.test_case "oracle words per block and per search node" `Quick
      test_oracle_allocation;
    Alcotest.test_case "geometry decomposition" `Quick
      test_geometry_decomposition;
    Alcotest.test_case "all workload blocks, both geometries" `Slow
      test_workload_blocks;
    Alcotest.test_case "known optimality gap" `Quick test_known_gap;
    Alcotest.test_case "latency 300: exact dominance key" `Quick
      test_long_latency_key;
    Alcotest.test_case "mutation: weakened pruning caught" `Quick
      test_mutation_weakened_pruning_caught;
    QCheck_alcotest.to_alcotest prop_oracle_on_random_blocks;
    QCheck_alcotest.to_alcotest prop_matches_reference;
  ]
