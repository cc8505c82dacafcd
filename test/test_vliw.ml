(* Direct unit tests of the VLIW Engine: hand-built blocks exercising tag
   validation, misprediction, copy commit, deferred exceptions, window
   shifts and the aliasing detector — without the Scheduler Unit in the
   loop. *)

open Dts_sched.Schedtypes

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let uid = ref 0

(* build a scheduled op with read/write sets derived from the instruction *)
let sop ?(cwp = 0) ?(taken = false) ?(next = -1) ?mem ?(order = -1)
    ?(redirect = []) ?(subs = []) ~addr instr =
  incr uid;
  let reads, arch_writes =
    Dts_isa.Rwsets.of_instr ~nwindows:8 ~cwp ?mem instr
  in
  {
    uid = !uid;
    instr;
    addr;
    cwp;
    reads;
    arch_writes;
    obs_taken = taken;
    obs_next_pc = (if next >= 0 then next else addr + 4);
    obs_mem = mem;
    order;
    cross = order >= 0;
    redirect;
    subs;
    fu = Dts_isa.Instr.fu_class instr;
  }

let li_of ops =
  let li = li_create 8 in
  List.iteri (fun k (op, tag) -> li_fill li k (op, tag)) ops;
  li

let block_of ?(tag_addr = 0x1000) ?(entry_cwp = 0) ?(rr = [| 8; 8; 8; 8 |])
    ?(nba = 0x2000) lis =
  {
    tag_addr;
    entry_cwp;
    lis = Array.of_list lis;
    nba_addr = nba;
    nba_idx = List.length lis - 1;
    rr_counts = rr;
    n_slots_filled = 0;
    n_copies = 0;
    max_li_ops = List.fold_left (fun a li -> max a (li_count li)) 0 lis;
  }

let fresh_engine ?(nwindows = 8) () =
  let st = Dts_isa.State.create ~nwindows () in
  let dcache = Dts_mem.Cache.perfect () in
  (st, Dts_vliw.Engine.create ~dcache st)

let alu ?(cc = false) op rs1 op2 rd =
  Dts_isa.Instr.Alu { op; cc; rs1; op2; rd }

let vis st r = Dts_isa.State.get_reg st ~cwp:st.Dts_isa.State.cwp r

(* ---- plain parallel execution ---- *)

let test_parallel_reads_pre_state () =
  let st, e = fresh_engine () in
  Dts_isa.State.set_reg st ~cwp:0 1 10;
  Dts_isa.State.set_reg st ~cwp:0 2 20;
  (* swap r1,r2 in one long instruction: both read pre-state *)
  let li =
    li_of
      [
        (Op (sop ~addr:0x1000 (alu Or 1 (Imm 0) 2)), 0);
        (Op (sop ~addr:0x1004 (alu Or 2 (Imm 0) 1)), 0);
      ]
  in
  (* note: the scheduler would never build this (anti deps), but the engine
     semantics are read-all-then-write-all, which is what renaming relies on *)
  let b = block_of [ li ] in
  Dts_vliw.Engine.enter_block e b;
  (match Dts_vliw.Engine.exec_li e b 0 with
  | R_block_end { next_addr } -> check_int "nba" 0x2000 next_addr
  | _ -> Alcotest.fail "expected block end");
  check_int "r2 got old r1" 10 (vis st 2);
  check_int "r1 got old r2" 20 (vis st 1)

let test_renamed_write_and_copy () =
  let st, e = fresh_engine () in
  Dts_isa.State.set_reg st ~cwp:0 1 5;
  let p2 = Dts_isa.State.phys ~nwindows:8 ~cwp:0 2 in
  let rr = { kind = K_int; ridx = 0 } in
  (* li0: r2' := r1 + 1 (renamed); li1: COPY rr -> r2 *)
  let op =
    sop ~addr:0x1000 (alu Add 1 (Imm 1) 2)
      ~redirect:[ (Dts_isa.Storage.Int_reg p2, rr) ]
  in
  let copy =
    Copy { c_moves = [ (rr, T_arch (Dts_isa.Storage.Int_reg p2)) ]; c_order = -1; c_from = 0 }
  in
  let b = block_of [ li_of [ (Op op, 0) ]; li_of [ (copy, 0) ] ] in
  Dts_vliw.Engine.enter_block e b;
  ignore (Dts_vliw.Engine.exec_li e b 0);
  check_int "arch r2 untouched after renamed write" 0 (vis st 2);
  ignore (Dts_vliw.Engine.exec_li e b 1);
  check_int "copy committed" 6 (vis st 2)

let test_forwarded_source () =
  let st, e = fresh_engine () in
  Dts_isa.State.set_reg st ~cwp:0 1 5;
  let p2 = Dts_isa.State.phys ~nwindows:8 ~cwp:0 2 in
  let rr = { kind = K_int; ridx = 0 } in
  let producer =
    sop ~addr:0x1000 (alu Add 1 (Imm 1) 2)
      ~redirect:[ (Dts_isa.Storage.Int_reg p2, rr) ]
  in
  (* consumer reads r2 through the renaming register *)
  let consumer =
    sop ~addr:0x1004 (alu Add 2 (Imm 100) 3)
      ~subs:[ (Dts_isa.Storage.Int_reg p2, rr) ]
  in
  let b = block_of [ li_of [ (Op producer, 0) ]; li_of [ (Op consumer, 0) ] ] in
  Dts_vliw.Engine.enter_block e b;
  ignore (Dts_vliw.Engine.exec_li e b 0);
  ignore (Dts_vliw.Engine.exec_li e b 1);
  check_int "consumer read the renamed value" 106 (vis st 3)

(* ---- branch tags ---- *)

let branch ?(taken = true) ~addr ~target ~obs () =
  sop ~addr ~taken ~next:obs
    (Dts_isa.Instr.Branch { cond = E; target })

let test_correct_prediction_commits_gated_ops () =
  let st, e = fresh_engine () in
  (* icc: zero set -> be taken *)
  st.icc <- Dts_isa.State.make_icc ~n:false ~z:true ~v:false ~c:false;
  let b =
    block_of
      [
        li_of
          [
            (Op (branch ~addr:0x1000 ~target:0x3000 ~obs:0x3000 ()), 0);
            (Op (sop ~addr:0x3000 (alu Or 0 (Imm 7) 4)), 1);
          ];
      ]
  in
  Dts_vliw.Engine.enter_block e b;
  (match Dts_vliw.Engine.exec_li e b 0 with
  | R_block_end _ -> ()
  | _ -> Alcotest.fail "expected clean block end");
  check_int "gated op committed" 7 (vis st 4)

let test_mispredict_annuls_gated_ops () =
  let st, e = fresh_engine () in
  (* icc: zero clear -> be NOT taken, but recorded as taken *)
  st.icc <- 0;
  let b =
    block_of
      [
        li_of
          [
            (Op (sop ~addr:0x0ffc (alu Or 0 (Imm 1) 5)), 0);
            (Op (branch ~addr:0x1000 ~target:0x3000 ~obs:0x3000 ()), 0);
            (Op (sop ~addr:0x3000 (alu Or 0 (Imm 7) 4)), 1);
          ];
      ]
  in
  Dts_vliw.Engine.enter_block e b;
  (match Dts_vliw.Engine.exec_li e b 0 with
  | R_redirect { target } -> check_int "actual fallthrough" 0x1004 target
  | _ -> Alcotest.fail "expected redirect");
  check_int "pre-branch op committed" 1 (vis st 5);
  check_int "gated op annulled" 0 (vis st 4)

(* ---- deferred exceptions ---- *)

let test_deferred_exception_via_copy () =
  let st, e = fresh_engine () in
  (* speculative misaligned load, fully renamed: executes without trap; the
     copy later raises the block exception *)
  Dts_isa.State.set_reg st ~cwp:0 1 0x1001;
  let p3 = Dts_isa.State.phys ~nwindows:8 ~cwp:0 3 in
  let rr = { kind = K_int; ridx = 0 } in
  let ld =
    sop ~addr:0x1000 ~mem:(0x1001, 4)
      (Dts_isa.Instr.Load { size = Lw; rs1 = 1; op2 = Imm 0; rd = 3 })
      ~redirect:[ (Dts_isa.Storage.Int_reg p3, rr) ]
  in
  let copy =
    Copy { c_moves = [ (rr, T_arch (Dts_isa.Storage.Int_reg p3)) ]; c_order = -1; c_from = 0 }
  in
  let b = block_of [ li_of [ (Op ld, 0) ]; li_of [ (copy, 0) ] ] in
  Dts_vliw.Engine.enter_block e b;
  (match Dts_vliw.Engine.exec_li e b 0 with
  | R_next -> ()
  | _ -> Alcotest.fail "speculative fault must be deferred");
  (match Dts_vliw.Engine.exec_li e b 1 with
  | R_exn (E_trap (Dts_isa.Semantics.Misaligned _)) -> ()
  | _ -> Alcotest.fail "copy must surface the deferred trap");
  check_int "deferrals counted" 1 e.stats.deferred_exceptions

let test_unrenamed_trap_is_immediate () =
  let st, e = fresh_engine () in
  Dts_isa.State.set_reg st ~cwp:0 1 0x1002;
  let ld =
    sop ~addr:0x1000 ~mem:(0x1002, 4)
      (Dts_isa.Instr.Load { size = Lw; rs1 = 1; op2 = Imm 0; rd = 3 })
  in
  let b = block_of [ li_of [ (Op ld, 0) ] ] in
  Dts_vliw.Engine.enter_block e b;
  match Dts_vliw.Engine.exec_li e b 0 with
  | R_exn (E_trap (Dts_isa.Semantics.Misaligned _)) -> ()
  | _ -> Alcotest.fail "unrenamed fault must abort the block"

(* ---- checkpoint rollback ---- *)

let test_rollback_restores_registers_and_memory () =
  let st, e = fresh_engine () in
  Dts_isa.State.set_reg st ~cwp:0 1 0x5000;
  Dts_isa.State.set_reg st ~cwp:0 2 111;
  Dts_mem.Memory.write st.mem ~addr:0x5000 ~size:4 42;
  let store =
    sop ~addr:0x1000 ~mem:(0x5000, 4) ~order:0
      (Dts_isa.Instr.Store { size = Sw; rs = 2; rs1 = 1; op2 = Imm 0 })
  in
  let w = sop ~addr:0x1004 (alu Or 0 (Imm 99) 5) in
  let b = block_of [ li_of [ (Op store, 0); (Op w, 0) ] ] in
  Dts_vliw.Engine.enter_block e b;
  ignore (Dts_vliw.Engine.exec_li e b 0);
  check_int "store applied" 111 (Dts_mem.Memory.read st.mem ~addr:0x5000 ~size:4 ~signed:true);
  check_int "reg applied" 99 (vis st 5);
  Dts_vliw.Engine.rollback e;
  check_int "memory rolled back" 42
    (Dts_mem.Memory.read st.mem ~addr:0x5000 ~size:4 ~signed:true);
  check_int "registers rolled back" 0 (vis st 5)

(* ---- window-relative replay ---- *)

let test_window_shifted_replay () =
  let st, e = fresh_engine () in
  (* block built at cwp 0 writing visible r16 (%l0); replay at cwp 5 must
     write window 5's %l0, not window 0's *)
  let op = sop ~cwp:0 ~addr:0x1000 (alu Or 0 (Imm 77) 16) in
  let b = block_of ~entry_cwp:0 [ li_of [ (Op op, 0) ] ] in
  st.cwp <- 5;
  Dts_isa.State.set_reg st ~cwp:5 14 0;
  Dts_vliw.Engine.enter_block e b;
  ignore (Dts_vliw.Engine.exec_li e b 0);
  check_int "l0 of the current window" 77 (Dts_isa.State.get_reg st ~cwp:5 16);
  check_int "window 0's l0 untouched" 0 (Dts_isa.State.get_reg st ~cwp:0 16)

(* ---- aliasing detection ---- *)

let test_aliasing_store_then_hoisted_load () =
  let st, e = fresh_engine () in
  Dts_isa.State.set_reg st ~cwp:0 1 0x6000;
  (* program order: store (order 0) then load (order 1); scheduled with the
     load in an earlier long instruction — and at execution both touch the
     same address: violation *)
  let ld =
    sop ~addr:0x1004 ~mem:(0x6000, 4) ~order:1
      (Dts_isa.Instr.Load { size = Lw; rs1 = 1; op2 = Imm 0; rd = 3 })
  in
  let store =
    sop ~addr:0x1000 ~mem:(0x6000, 4) ~order:0
      (Dts_isa.Instr.Store { size = Sw; rs = 2; rs1 = 1; op2 = Imm 0 })
  in
  let b = block_of [ li_of [ (Op ld, 0) ]; li_of [ (Op store, 0) ] ] in
  Dts_vliw.Engine.enter_block e b;
  ignore (Dts_vliw.Engine.exec_li e b 0);
  (match Dts_vliw.Engine.exec_li e b 1 with
  | R_exn E_aliasing -> ()
  | _ -> Alcotest.fail "expected aliasing exception");
  check_int "counted" 1 e.stats.aliasing_exceptions

let test_no_aliasing_when_disjoint () =
  let st, e = fresh_engine () in
  Dts_isa.State.set_reg st ~cwp:0 1 0x6000;
  Dts_isa.State.set_reg st ~cwp:0 4 0x7000;
  let ld =
    sop ~addr:0x1004 ~mem:(0x7000, 4) ~order:1
      (Dts_isa.Instr.Load { size = Lw; rs1 = 4; op2 = Imm 0; rd = 3 })
  in
  let store =
    sop ~addr:0x1000 ~mem:(0x6000, 4) ~order:0
      (Dts_isa.Instr.Store { size = Sw; rs = 2; rs1 = 1; op2 = Imm 0 })
  in
  let b = block_of [ li_of [ (Op ld, 0) ]; li_of [ (Op store, 0) ] ] in
  Dts_vliw.Engine.enter_block e b;
  (match Dts_vliw.Engine.exec_li e b 0 with R_next -> () | _ -> Alcotest.fail "next");
  match Dts_vliw.Engine.exec_li e b 1 with
  | R_block_end _ -> ()
  | _ -> Alcotest.fail "no aliasing expected"

let test_in_order_same_address_ok () =
  let st, e = fresh_engine () in
  Dts_isa.State.set_reg st ~cwp:0 1 0x6000;
  (* store (order 0) in li0, load (order 1) in li1: order respected *)
  let store =
    sop ~addr:0x1000 ~mem:(0x6000, 4) ~order:0
      (Dts_isa.Instr.Store { size = Sw; rs = 2; rs1 = 1; op2 = Imm 0 })
  in
  let ld =
    sop ~addr:0x1004 ~mem:(0x6000, 4) ~order:1
      (Dts_isa.Instr.Load { size = Lw; rs1 = 1; op2 = Imm 0; rd = 3 })
  in
  Dts_isa.State.set_reg st ~cwp:0 2 123;
  let b = block_of [ li_of [ (Op store, 0) ]; li_of [ (Op ld, 0) ] ] in
  Dts_vliw.Engine.enter_block e b;
  ignore (Dts_vliw.Engine.exec_li e b 0);
  (match Dts_vliw.Engine.exec_li e b 1 with
  | R_block_end _ -> ()
  | _ -> Alcotest.fail "in-order pair must not trip the detector");
  check_int "load saw the store" 123 (vis st 3)

let suite =
  [
    Alcotest.test_case "parallel reads pre-state" `Quick
      test_parallel_reads_pre_state;
    Alcotest.test_case "renamed write + copy" `Quick test_renamed_write_and_copy;
    Alcotest.test_case "forwarded source" `Quick test_forwarded_source;
    Alcotest.test_case "correct prediction commits gated ops" `Quick
      test_correct_prediction_commits_gated_ops;
    Alcotest.test_case "mispredict annuls gated ops" `Quick
      test_mispredict_annuls_gated_ops;
    Alcotest.test_case "deferred exception via copy" `Quick
      test_deferred_exception_via_copy;
    Alcotest.test_case "unrenamed trap immediate" `Quick
      test_unrenamed_trap_is_immediate;
    Alcotest.test_case "rollback restores state" `Quick
      test_rollback_restores_registers_and_memory;
    Alcotest.test_case "window-shifted replay" `Quick test_window_shifted_replay;
    Alcotest.test_case "aliasing: hoisted load" `Quick
      test_aliasing_store_then_hoisted_load;
    Alcotest.test_case "aliasing: disjoint ok" `Quick test_no_aliasing_when_disjoint;
    Alcotest.test_case "aliasing: in-order ok" `Quick test_in_order_same_address_ok;
  ]
