(* Scheduler Unit tests: insertion, move-up, install, split, tags, order
   fields, block finalisation — plus property tests that cross-check the
   behavioural scheduler against the §3.7 signal equations and check the
   structural invariants of finished blocks. *)

open Dts_sched
open Dts_sched.Schedtypes

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* build a retired record by hand; observations need not be semantically
   deep for scheduler-only tests *)
let ret ?(cwp = 0) ?(taken = false) ?(next = -1) ?mem ~addr instr =
  {
    Dts_primary.Primary.instr;
    addr;
    cwp;
    next_pc = (if next >= 0 then next else addr + 4);
    taken;
    mem;
    rwsets = Dts_isa.Rwsets.of_instr ~nwindows:32 ~cwp ?mem instr;
    trapped = false;
    cycles = 1;
    icache_stall = 0;
    dcache_stall = 0;
  }

let cfg ?(width = 3) ?(height = 4) ?(renaming = true) () =
  { Sched_unit.default_config with width; height; renaming }

let insert_ok t r =
  match Sched_unit.insert t r with
  | `Ok -> ()
  | `Full -> Alcotest.fail "unexpected full list"

(* shorthand instruction builders *)
let alu ?(cc = false) ?(op = Dts_isa.Instr.Add) rs1 op2 rd =
  Dts_isa.Instr.Alu { op; cc; rs1; op2 = Imm op2; rd }

let alu_rr ?(cc = false) ?(op = Dts_isa.Instr.Add) rs1 rs2 rd =
  Dts_isa.Instr.Alu { op; cc; rs1; op2 = Reg rs2; rd }

(* ---- insertion ---- *)

let test_independent_ops_share_li () =
  let t = Sched_unit.create (cfg ()) in
  insert_ok t (ret ~addr:0x1000 (alu 1 1 2));
  insert_ok t (ret ~addr:0x1004 (alu 3 1 4));
  insert_ok t (ret ~addr:0x1008 (alu 5 1 6));
  check_int "one element" 1 (Sched_unit.length t);
  check_int "three ops in li0" 3 (li_count (Sched_unit.element t 0).e_li)

let test_flow_dep_new_element () =
  let t = Sched_unit.create (cfg ()) in
  insert_ok t (ret ~addr:0x1000 (alu 1 1 2));
  insert_ok t (ret ~addr:0x1004 (alu 2 1 3));
  (* reads r2 *)
  check_int "two elements" 2 (Sched_unit.length t)

let test_resource_dep_new_element () =
  let t = Sched_unit.create (cfg ~width:2 ()) in
  insert_ok t (ret ~addr:0x1000 (alu 1 1 2));
  insert_ok t (ret ~addr:0x1004 (alu 3 1 4));
  insert_ok t (ret ~addr:0x1008 (alu 5 1 6));
  (* no free slot in tail li *)
  check_int "spilled to second element" 2 (Sched_unit.length t)

let test_move_up () =
  let t = Sched_unit.create (cfg ()) in
  insert_ok t (ret ~addr:0x1000 (alu 1 1 2));
  insert_ok t (ret ~addr:0x1004 (alu 2 1 3));
  (* dependent: element 1 *)
  insert_ok t (ret ~addr:0x1008 (alu 5 1 6));
  (* independent but lands in tail element; should move up *)
  check_int "two elements" 2 (Sched_unit.length t);
  Sched_unit.tick t;
  (* the independent op moves to element 0 *)
  check_int "li0 has two ops" 2 (li_count (Sched_unit.element t 0).e_li);
  check_int "li1 has one op" 1 (li_count (Sched_unit.element t 1).e_li)

let test_install_on_flow () =
  let t = Sched_unit.create (cfg ()) in
  insert_ok t (ret ~addr:0x1000 (alu 1 1 2));
  insert_ok t (ret ~addr:0x1004 (alu 2 1 3));
  let decisions = ref [] in
  decisions := Sched_unit.tick_decisions t;
  (* the dependent candidate must install, not move *)
  check_bool "installed" true
    (List.exists (fun (_, d) -> d = Sched_unit.D_install) !decisions)

let test_split_on_output_dep () =
  let t = Sched_unit.create (cfg ()) in
  (* op1 writes r2; op2 also writes r2 (different source, no flow) *)
  insert_ok t (ret ~addr:0x1000 (alu 1 1 2));
  insert_ok t (ret ~addr:0x1004 (alu 1 2 2));
  (* output dep on tail element forces second element at insert *)
  check_int "two elements" 2 (Sched_unit.length t);
  let d = Sched_unit.tick_decisions t in
  check_bool "split happened" true
    (List.exists (fun (_, x) -> x = Sched_unit.D_split) d);
  (* element 0's li now holds op1, renamed op2; element... the copy sits in
     the old li *)
  let copies =
    li_fold
      (fun acc _ op _ -> match op with Copy _ -> acc + 1 | Op _ -> acc)
      0
      (Sched_unit.element t 1).e_li
  in
  check_int "copy left behind" 1 copies

let test_split_on_anti_dep () =
  let t = Sched_unit.create (cfg ()) in
  (* op1 writes r2; op2 reads r2 (flow → element 1); op3 writes r2 again:
     anti dependency with op2 *)
  insert_ok t (ret ~addr:0x1000 (alu 1 1 2));
  insert_ok t (ret ~addr:0x1004 (alu_rr 2 0 3));
  insert_ok t (ret ~addr:0x1008 (alu 4 7 2));
  Sched_unit.tick t;
  Sched_unit.tick t;
  (* op3 should have split rather than stalled below op2 *)
  let all_copies =
    List.concat_map
      (fun i ->
        li_fold
          (fun acc _ op _ -> match op with Copy c -> c :: acc | Op _ -> acc)
          []
          (Sched_unit.element t i).e_li)
      (List.init (Sched_unit.length t) Fun.id)
  in
  check_bool "a split copy exists" true (all_copies <> [])

let test_branch_installs_immediately () =
  let t = Sched_unit.create (cfg ()) in
  insert_ok t (ret ~addr:0x1000 (alu 1 1 2));
  insert_ok t
    (ret ~addr:0x1004 ~taken:true ~next:0x2000
       (Dts_isa.Instr.Branch { cond = E; target = 0x2000 }));
  (* branch shares the li but establishes a tag *)
  check_int "single element" 1 (Sched_unit.length t);
  check_int "tag established" 1 (Sched_unit.element t 0).e_li.n_branches;
  (* ops placed after the branch get the new tag *)
  insert_ok t (ret ~addr:0x2000 (alu 3 1 4));
  let tags =
    li_fold (fun acc _ _ tag -> tag :: acc) [] (Sched_unit.element t 0).e_li
  in
  check_bool "gated op present" true (List.mem 1 tags)

let test_order_fields_and_cross_bits () =
  let t = Sched_unit.create (cfg ~width:4 ()) in
  insert_ok t
    (ret ~addr:0x1000 ~mem:(0x100, 4)
       (Dts_isa.Instr.Load { size = Lw; rs1 = 1; op2 = Imm 0; rd = 2 }));
  insert_ok t
    (ret ~addr:0x1004 ~mem:(0x200, 4)
       (Dts_isa.Instr.Store { size = Sw; rs = 3; rs1 = 4; op2 = Imm 0 }));
  let el = Sched_unit.element t 0 in
  let mem_ops =
    li_fold
      (fun acc _ op _ ->
        match op with
        | Op s when Dts_isa.Instr.is_mem s.instr -> s :: acc
        | _ -> acc)
      [] el.e_li
  in
  check_int "two mem ops" 2 (List.length mem_ops);
  let orders = List.sort compare (List.map (fun s -> s.order) mem_ops) in
  check_bool "orders 0,1" true (orders = [ 0; 1 ]);
  (* both share a li with a store -> cross bits set *)
  check_bool "cross bits set" true (List.for_all (fun s -> s.cross) mem_ops)

let test_finish_block () =
  let t = Sched_unit.create (cfg ()) in
  insert_ok t (ret ~cwp:5 ~addr:0x1000 (alu 1 1 2));
  insert_ok t (ret ~cwp:5 ~addr:0x1004 (alu 2 1 3));
  let b = Option.get (Sched_unit.finish_block t ~nba_addr:0x1008) in
  check_int "tag" 0x1000 b.tag_addr;
  check_int "entry cwp" 5 b.entry_cwp;
  check_int "nba addr" 0x1008 b.nba_addr;
  check_int "nba idx" 1 b.nba_idx;
  check_int "slots" 2 b.n_slots_filled;
  check_bool "list empty after" true (Sched_unit.is_empty t);
  check_bool "no block from empty list" true
    (Sched_unit.finish_block t ~nba_addr:0 = None)

let test_full_list_reports_full () =
  let t = Sched_unit.create (cfg ~width:1 ~height:2 ()) in
  insert_ok t (ret ~addr:0x1000 (alu 1 1 2));
  insert_ok t (ret ~addr:0x1004 (alu 3 1 4));
  match Sched_unit.insert t (ret ~addr:0x1008 (alu 5 1 6)) with
  | `Full -> ()
  | `Ok -> Alcotest.fail "expected full"

let test_no_renaming_config () =
  let t = Sched_unit.create (cfg ~renaming:false ()) in
  insert_ok t (ret ~addr:0x1000 (alu 1 1 2));
  insert_ok t (ret ~addr:0x1004 (alu 1 2 2));
  let d = Sched_unit.tick_decisions t in
  check_bool "no split without renaming" true
    (List.for_all (fun (_, x) -> x <> Sched_unit.D_split) d)

(* A conditional branch's read set is consulted through the forwarding
   table at insertion, like any other op's: after a flags producer splits,
   the branch's Flags source is substituted with the renaming register
   ([prep_sop] forwards Flags alongside Int_reg/Fp_reg), recorded in
   [subs], and the branch lands strictly below the renamed producer — not
   merely below the original (now copy-holding) long instruction. *)
let test_branch_flags_forwarded_after_split () =
  let t = Sched_unit.create (cfg ()) in
  (* two flags writers: the WAW forces the second into a new element, and
     the tick splits it — its Flags output is renamed and forwarded *)
  insert_ok t (ret ~addr:0x1000 (alu_rr ~cc:true 1 2 3));
  insert_ok t (ret ~addr:0x1004 (alu_rr ~cc:true 4 5 6));
  check_int "WAW made two elements" 2 (Sched_unit.length t);
  let d = Sched_unit.tick_decisions t in
  check_bool "the second flags writer split" true
    (List.exists (fun (_, x) -> x = Sched_unit.D_split) d);
  insert_ok t
    (ret ~addr:0x1008 ~taken:true ~next:0x2000
       (Dts_isa.Instr.Branch { cond = E; target = 0x2000 }));
  let find pred =
    let found = ref None in
    List.iter
      (fun i ->
        li_iter
          (fun _ op _ ->
            match op with
            | Op s when !found = None && pred s -> found := Some (i, s)
            | _ -> ())
          (Sched_unit.element t i).e_li)
      (List.init (Sched_unit.length t) Fun.id);
    !found
  in
  let renamed_li, renamed =
    Option.get
      (find (fun s ->
           List.exists (fun (w, _) -> w = Dts_isa.Storage.Flags) s.redirect))
  in
  let branch_li, branch =
    Option.get
      (find (fun s -> Dts_isa.Instr.is_conditional_ctrl s.instr))
  in
  (* the branch reads the renaming register the split established *)
  let sub =
    List.assoc_opt Dts_isa.Storage.Flags branch.subs
  in
  check_bool "Flags forwarded into the branch's subs" true (sub <> None);
  check_bool "branch reads the flag renaming register" true
    (match sub with
    | Some rr ->
      List.mem (storage_of_rref rr) branch.reads
      && List.mem_assoc Dts_isa.Storage.Flags renamed.redirect
      && Option.get sub = List.assoc Dts_isa.Storage.Flags renamed.redirect
    | None -> false);
  check_bool
    (Printf.sprintf "branch (li %d) strictly below the renamed producer (li %d)"
       branch_li renamed_li)
    true
    (branch_li > renamed_li)

(* ---- multicycle latencies ([14]) ---- *)

let test_latency_distance_enforced () =
  let t =
    Sched_unit.create
      {
        (cfg ~width:4 ~height:8 ()) with
        latencies = { Dts_isa.Instr.unit_latencies with l_mul = 3 };
      }
  in
  (* mul r1*r1 -> r2 ; consumer of r2 must land >= 3 lis below *)
  insert_ok t
    (ret ~addr:0x1000
       (Dts_isa.Instr.Alu { op = Smul; cc = false; rs1 = 1; op2 = Reg 1; rd = 2 }));
  insert_ok t (ret ~addr:0x1004 (alu_rr 2 0 3));
  (* producer in element 0; consumer must be at index >= 3 *)
  check_int "padded to latency distance" 4 (Sched_unit.length t);
  let consumer_li = Sched_unit.length t - 1 in
  check_bool "distance >= latency" true (consumer_li >= 3)

let test_latency_blocks_move_up () =
  let t =
    Sched_unit.create
      {
        (cfg ~width:4 ~height:8 ()) with
        latencies = { Dts_isa.Instr.unit_latencies with l_mul = 2 };
      }
  in
  insert_ok t
    (ret ~addr:0x1000
       (Dts_isa.Instr.Alu { op = Smul; cc = false; rs1 = 1; op2 = Reg 1; rd = 2 }));
  (* unrelated chain to grow the list *)
  insert_ok t (ret ~addr:0x1004 (alu 4 1 5));
  insert_ok t (ret ~addr:0x1008 (alu_rr 5 0 6));
  (* consumer of the mul result, inserted low; it may climb to distance 2
     below the mul but no further *)
  insert_ok t (ret ~addr:0x100c (alu_rr 2 0 7));
  for _ = 1 to 6 do
    Sched_unit.tick t
  done;
  let b = Option.get (Sched_unit.finish_block t ~nba_addr:0x1010) in
  let li_of_uid target_rd =
    let found = ref (-1) in
    Array.iteri
      (fun i li ->
        li_iter
          (fun _ op _ ->
            match op with
            | Op s -> (
              match s.instr with
              | Dts_isa.Instr.Alu { rd; _ } when rd = target_rd -> found := i
              | _ -> ())
            | Copy _ -> ())
          li)
      b.lis;
    !found
  in
  let mul_li = li_of_uid 2 and use_li = li_of_uid 7 in
  check_bool
    (Printf.sprintf "consumer li %d >= mul li %d + 2" use_li mul_li)
    true
    (use_li >= mul_li + 2)

let test_multicycle_op_does_not_split () =
  let t =
    Sched_unit.create
      {
        (cfg ()) with
        latencies = { Dts_isa.Instr.unit_latencies with l_mul = 2 };
      }
  in
  (* output-dependent pair of muls: the second must install, not split *)
  insert_ok t
    (ret ~addr:0x1000
       (Dts_isa.Instr.Alu { op = Smul; cc = false; rs1 = 1; op2 = Reg 1; rd = 2 }));
  insert_ok t
    (ret ~addr:0x1004
       (Dts_isa.Instr.Alu { op = Smul; cc = false; rs1 = 3; op2 = Reg 3; rd = 2 }));
  let d = Sched_unit.tick_decisions t in
  check_bool "no split for multicycle" true
    (List.for_all (fun (_, x) -> x <> Sched_unit.D_split) d)

(* ---- the paper's Figure 2 example ---- *)

let fig2_program x =
  (* 1: or r0,0,r9 / 2: sethi / 3: or r8,8,r11 / 4: or r0,0,r10
     5: ld [r10+r11],r8 / 6: add r9,r8,r9 / 7: add r10,4,r10
     8: subcc r10,4x-1,r0 / 9: ble loop *)
  [
    ret ~addr:0x1000 (alu 0 0 9);
    ret ~addr:0x1004 (Dts_isa.Instr.Sethi { imm = 56; rd = 8 });
    ret ~addr:0x1008 (alu 8 8 11);
    ret ~addr:0x100c (alu 0 0 10);
    ret ~addr:0x1010 ~mem:(0xE008, 4)
      (Dts_isa.Instr.Load { size = Lw; rs1 = 10; op2 = Reg 11; rd = 8 });
    ret ~addr:0x1014 (alu_rr 9 8 9);
    ret ~addr:0x1018 (alu 10 4 10);
    ret ~addr:0x101c
      (alu_rr ~cc:true ~op:Dts_isa.Instr.Sub 10 0 0 |> fun i ->
       match i with
       | Dts_isa.Instr.Alu a -> Dts_isa.Instr.Alu { a with op2 = Imm ((4 * x) - 1) }
       | _ -> assert false);
    ret ~addr:0x1020 ~taken:true ~next:0x1010
      (Dts_isa.Instr.Branch { cond = LE; target = 0x1010 });
  ]

let test_fig2_schedule () =
  (* 3 instructions wide, 4 long instructions deep, as in the paper. The
     extra tick before instruction 8 mirrors the paper's pipeline timing
     (snapshots at cycles 3, 8, 9, 11): the split of instruction 7 completes
     before the subcc arrives, so the subcc is inserted with its r10 source
     already forwarded to the renaming register. *)
  let t = Sched_unit.create (cfg ~width:3 ~height:4 ()) in
  List.iteri
    (fun k r ->
      Sched_unit.tick t;
      if k = 7 then Sched_unit.tick t;
      insert_ok t r)
    (fig2_program 10);
  (* let remaining candidates settle *)
  for _ = 1 to 4 do
    Sched_unit.tick t
  done;
  let b = Option.get (Sched_unit.finish_block t ~nba_addr:0x1024) in
  (* paper's snapshot: 4 long instructions, instruction 7 split (a COPY is
     present), and the load sits above the add that consumes it *)
  check_int "4 long instructions" 4 (Array.length b.lis);
  let has_copy =
    Array.exists
      (fun li ->
        li_fold
          (fun acc _ op _ -> acc || match op with Copy _ -> true | Op _ -> false)
          false li)
      b.lis
  in
  check_bool "instruction 7 split into add+copy" true has_copy;
  (* the subcc consuming the renamed r10 must carry a forwarded source *)
  let subcc_forwarded =
    Array.exists
      (fun li ->
        li_fold
          (fun acc _ op _ ->
            acc
            ||
            match op with
            | Op s -> (
              match s.instr with
              | Dts_isa.Instr.Alu { cc = true; _ } -> s.subs <> []
              | _ -> false)
            | Copy _ -> false)
          false li)
      b.lis
  in
  check_bool "subcc reads the renaming register" true subcc_forwarded;
  (* the branch must sit strictly below the subcc producing its flags *)
  let li_of pred =
    let found = ref (-1) in
    Array.iteri
      (fun i li ->
        li_iter
          (fun _ op _ -> if !found < 0 && pred op then found := i)
          li)
      b.lis;
    !found
  in
  let subcc_li =
    li_of (function
      | Op s -> (
        match s.instr with Dts_isa.Instr.Alu { cc = true; _ } -> true | _ -> false)
      | Copy _ -> false)
  in
  let ble_li =
    li_of (function
      | Op s -> Dts_isa.Instr.is_conditional_ctrl s.instr
      | Copy _ -> false)
  in
  check_bool
    (Printf.sprintf "ble (li %d) after subcc (li %d)" ble_li subcc_li)
    true
    (subcc_li >= 0 && ble_li > subcc_li)

(* ---- signals cross-validation (property) ---- *)

let gen_stream =
  (* a random stream of simple ops over a small register set, with
     occasional branches and memory ops *)
  let open QCheck2.Gen in
  let reg = int_range 1 6 in
  let instr =
    frequency
      [
        ( 6,
          map3
            (fun rs1 rs2 rd -> alu_rr rs1 rs2 rd)
            reg reg reg );
        (2, map3 (fun rs1 rs2 rd -> alu_rr ~cc:true rs1 rs2 rd) reg reg reg);
        ( 2,
          map2
            (fun rs1 rd ->
              Dts_isa.Instr.Load { size = Lw; rs1; op2 = Imm 0; rd })
            reg reg );
        ( 2,
          map2
            (fun rs rs1 ->
              Dts_isa.Instr.Store { size = Sw; rs; rs1; op2 = Imm 0 })
            reg reg );
        (1, return (Dts_isa.Instr.Branch { cond = E; target = 0x9000 }));
      ]
  in
  list_size (int_range 5 40) (tup2 instr (int_range 0 7))

let run_stream ?(width = 3) ?(height = 4) stream check =
  let t = Sched_unit.create (cfg ~width ~height ()) in
  let addr = ref 0x1000 in
  List.iter
    (fun (instr, memslot) ->
      check t;
      Sched_unit.tick t;
      let mem =
        if Dts_isa.Instr.is_mem instr then Some (0x8000 + (memslot * 4), 4)
        else None
      in
      let r = ret ~addr:!addr ?mem instr in
      addr := !addr + 4;
      match Sched_unit.insert t r with
      | `Ok -> ()
      | `Full ->
        ignore (Sched_unit.finish_block t ~nba_addr:!addr);
        insert_ok t r)
    stream;
  t

let prop_signals_match_behaviour =
  QCheck2.Test.make ~count:400 ~name:"§3.7 signals ≡ behavioural decisions"
    gen_stream (fun stream ->
      let ok = ref true in
      ignore
        (run_stream stream (fun t ->
             let expected = Signals.verdicts t in
             let actual = Sched_unit.tick_decisions t in
             (* tick was consumed by the check; compare decisions *)
             List.iter2
               (fun (i1, v) (i2, d) ->
                 if i1 <> i2 then ok := false
                 else
                   let matches =
                     match (v, d) with
                     | Signals.V_install, Sched_unit.D_install
                     | Signals.V_split, Sched_unit.D_split
                     | Signals.V_move, Sched_unit.D_move ->
                       true
                     (* the signal formulation computes from start-of-cycle
                        state and may conservatively install when a partial
                        split upstream freed the dependency mid-cycle *)
                     | Signals.V_install, (Sched_unit.D_move | D_split) -> true
                     | _ -> false
                   in
                   if not matches then ok := false)
               expected actual));
      !ok)

(* ---- structural invariants of finished blocks (property) ---- *)

let block_invariants (b : block) =
  let ok = ref true in
  let fail _msg = ok := false in
  (* every renaming register is written exactly once *)
  let writes = Hashtbl.create 16 in
  Array.iter
    (fun li ->
      li_iter
        (fun _ op _ ->
          match op with
          | Op s ->
            List.iter
              (fun (_, rr) ->
                if Hashtbl.mem writes rr then fail "rr written twice"
                else Hashtbl.replace writes rr ())
              s.redirect
          | Copy c ->
            List.iter
              (function
                | _, T_ren rr ->
                  if Hashtbl.mem writes rr then fail "rr written twice (copy)"
                  else Hashtbl.replace writes rr ()
                | _, T_arch _ -> ())
              c.c_moves)
        li)
    b.lis;
  (* no op reads a position that an earlier-program-order op writes in the
     same or a later long instruction (flow respected) *)
  let li_of_uid = Hashtbl.create 16 in
  Array.iteri
    (fun i li ->
      li_iter
        (fun _ op _ ->
          match op with
          | Op s -> Hashtbl.replace li_of_uid s.uid i
          | Copy _ -> ())
        li)
    b.lis;
  Array.iteri
    (fun i li ->
      li_iter
        (fun _ op _ ->
          match op with
          | Op s ->
            (* for every read, its producer (latest earlier writer of the
               position among block ops) must sit strictly above *)
            Array.iteri
              (fun j lj ->
                li_iter
                  (fun _ op2 _ ->
                    match op2 with
                    | Op p when p.uid < s.uid ->
                      let wr = slot_arch_writes (Op p) in
                      if
                        Dts_isa.Storage.any_overlap s.reads wr
                        && (not (Dts_isa.Instr.is_mem p.instr))
                        && j >= i
                        (* memory flow handled by aliasing machinery *)
                        && List.exists
                             (fun w ->
                               List.exists (Dts_isa.Storage.overlaps w) s.reads
                               &&
                               (* only if p is the LATEST writer before s *)
                               not
                                 (Array.exists
                                    (fun lk ->
                                      li_fold
                                        (fun acc _ op3 _ ->
                                          acc
                                          ||
                                          match op3 with
                                          | Op q ->
                                            q.uid > p.uid && q.uid < s.uid
                                            && List.exists
                                                 (Dts_isa.Storage.overlaps w)
                                                 (slot_arch_writes (Op q))
                                          | Copy _ -> false)
                                        false lk)
                                    b.lis))
                             wr
                      then fail "flow violated"
                    | _ -> ())
                  lj)
              b.lis
          | Copy _ -> ())
        li)
    b.lis;
  ignore li_of_uid;
  !ok

let prop_block_invariants =
  QCheck2.Test.make ~count:200 ~name:"finished block invariants" gen_stream
    (fun stream ->
      let t = run_stream stream (fun _ -> ()) in
      match Sched_unit.finish_block t ~nba_addr:0xFFFF with
      | None -> true
      | Some b -> block_invariants b)

let prop_mem_orders_monotone =
  QCheck2.Test.make ~count:200 ~name:"load/store order fields monotone"
    gen_stream (fun stream ->
      let t = run_stream stream (fun _ -> ()) in
      match Sched_unit.finish_block t ~nba_addr:0xFFFF with
      | None -> true
      | Some b ->
        let orders = ref [] in
        Array.iter
          (fun li ->
            li_iter
              (fun _ op _ ->
                match op with
                | Op s when Dts_isa.Instr.is_mem s.instr ->
                  orders := (s.uid, s.order) :: !orders
                | _ -> ())
              li)
          b.lis;
        let sorted = List.sort compare !orders in
        let rec mono = function
          | (_, o1) :: ((_, o2) :: _ as rest) -> o1 < o2 && mono rest
          | _ -> true
        in
        mono sorted)

(* ---- the summary-based unit against the list-based reference (property) ---- *)

(* Random machines: homogeneous, the feasible machine's slot classes, or
   random classes with one universal slot; unit or multicycle latencies;
   each scheduling option on or off. *)
let gen_unit_config =
  let open QCheck2.Gen in
  let* shape = int_range 0 2 in
  let* width = int_range 1 6 and* height = int_range 1 8 in
  let* width, slot_classes =
    match shape with
    | 0 -> return (width, None)
    | 1 -> return (10, Some Dts_core.Config.feasible_slot_classes)
    | _ ->
      let+ classes =
        array_size (return (width + 1))
          (oneofl
             Dts_isa.Instr.[ Some Fu_int; Some Fu_mem; Some Fu_fp; Some Fu_br; None ])
      in
      classes.(0) <- None;
      (width + 1, Some classes)
  in
  let* latencies =
    oneofl
      Dts_isa.Instr.
        [
          unit_latencies;
          multicycle_latencies;
          { l_load = 2; l_mul = 1; l_div = 1; l_fp = 1 };
          { l_load = 1; l_mul = 3; l_div = 2; l_fp = 1 };
        ]
  in
  let* renaming = bool and* resplit_on_control = bool and* mem_motion = bool in
  let+ strict_control_insert = bool in
  {
    Sched_unit.default_config with
    width;
    height;
    slot_classes;
    renaming;
    resplit_on_control;
    mem_motion;
    strict_control_insert;
    latencies;
  }

(* One retired instruction, plus the extra cycles (ticks) before it. Memory
   ops touch a 16-byte arena at every width, so sub-word accesses overlap;
   save/restore move the window, so physical registers change. *)
let gen_step =
  let open QCheck2.Gen in
  let reg = int_range 1 20 and freg = int_range 0 5 in
  let mem_size = oneofl Dts_isa.Instr.[ (Lsb, Sb, 1); (Luh, Sh, 2); (Lw, Sw, 4) ] in
  let instr =
    frequency
      [
        (6, map3 (fun a b d -> alu_rr a b d) reg reg reg);
        (2, map3 (fun a b d -> alu_rr ~cc:true a b d) reg reg reg);
        (1, map3 (fun a b d -> alu_rr ~op:Dts_isa.Instr.Smul a b d) reg reg reg);
        (1, map2 (fun imm rd -> Dts_isa.Instr.Sethi { imm; rd }) (int_range 0 99) reg);
        ( 3,
          map3
            (fun (l, _, _) rs1 rd -> Dts_isa.Instr.Load { size = l; rs1; op2 = Imm 0; rd })
            mem_size reg reg );
        ( 3,
          map3
            (fun (_, st, _) rs rs1 -> Dts_isa.Instr.Store { size = st; rs; rs1; op2 = Imm 0 })
            mem_size reg reg );
        (1, map2 (fun rs1 rd -> Dts_isa.Instr.Fload { rs1; op2 = Imm 0; rd }) reg freg);
        (1, map2 (fun rd rs1 -> Dts_isa.Instr.Fstore { rd; rs1; op2 = Imm 0 }) freg reg);
        ( 1,
          map3
            (fun rs1 rs2 rd -> Dts_isa.Instr.Fpop { op = Fadd; rs1; rs2; rd })
            freg freg freg );
        ( 2,
          map
            (fun cond -> Dts_isa.Instr.Branch { cond; target = 0x9000 })
            (oneofl Dts_isa.Instr.[ E; NE; LE; G ]) );
        (1, return (Dts_isa.Instr.Save { rs1 = 14; op2 = Imm (-96); rd = 14 }));
        (1, return (Dts_isa.Instr.Restore { rs1 = 0; op2 = Imm 0; rd = 0 }));
      ]
  in
  triple instr (int_range 0 15) (int_range 0 2)

let retired_stream steps =
  let cwp = ref 0 and addr = ref 0x1000 in
  List.map
    (fun (instr, off, extra) ->
      let mem =
        match instr with
        | Dts_isa.Instr.Load { size; _ } ->
          let n = Dts_isa.Instr.lsize_bytes size in
          Some (0x8000 + (off land lnot (n - 1)), n)
        | Store { size; _ } ->
          let n = Dts_isa.Instr.ssize_bytes size in
          Some (0x8000 + (off land lnot (n - 1)), n)
        | Fload _ | Fstore _ -> Some (0x8000 + (off land lnot 3), 4)
        | _ -> None
      in
      let r = ret ~cwp:!cwp ~addr:!addr ?mem instr in
      addr := !addr + 4;
      (match instr with
      | Dts_isa.Instr.Save _ -> cwp := (!cwp + 31) mod 32
      | Restore _ -> cwp := (!cwp + 1) mod 32
      | _ -> ());
      (r, extra))
    steps

(* What two units must agree on in a finished block: its rendering (ops,
   renamings, COPY moves, tags, geometry), renaming-register counts, COPY
   count, and each op's cross bit, order field and forwarded sources. *)
let block_signature (b : block) =
  ( Format.asprintf "%a" pp_block b,
    Array.to_list b.rr_counts,
    b.n_copies,
    Array.to_list
      (Array.map
         (fun li ->
           li_fold
             (fun acc k op tag ->
               (match op with
               | Op s -> (k, tag, s.uid, s.cross, s.order, s.subs, s.reads)
               | Copy c -> (k, tag, c.c_from, false, c.c_order, [], []))
               :: acc)
             [] li)
         b.lis) )

(* An op's position codes are the codes of its read set and of its
   effective writes. *)
let codes_consistent (b : block) =
  Array.for_all
    (fun li ->
      li_fold
        (fun ok _ op _ ->
          ok
          &&
          match op with
          | Op s ->
            s.rcodes = Dts_isa.Storage.codes s.reads
            && s.wcodes = Dts_isa.Storage.codes (slot_arch_writes op)
          | Copy c ->
            c.c_rcodes = Dts_isa.Storage.codes (slot_arch_reads op)
            && c.c_wcodes = Dts_isa.Storage.codes (slot_arch_writes op))
        true li)
    b.lis

let prop_matches_reference =
  QCheck2.Test.make ~count:500
    ~name:"summary-based unit = list-based reference"
    ~print:(fun (cfg, steps) ->
      Printf.sprintf "%dx%d %s; %s" cfg.Sched_unit.width cfg.height
        (if cfg.slot_classes = None then "homogeneous" else "classes")
        (String.concat "; "
           (List.map
              (fun (i, off, extra) ->
                Printf.sprintf "%s@%d+%d" (Dts_isa.Disasm.to_string i) off extra)
              steps)))
    QCheck2.Gen.(pair gen_unit_config (list_size (int_range 1 60) gen_step))
    (fun (cfg, steps) ->
      let u = Sched_unit.create cfg and r = Ref_sched_unit.create cfg in
      let same_blocks nba_addr =
        match
          (Sched_unit.finish_block u ~nba_addr, Ref_sched_unit.finish_block r ~nba_addr)
        with
        | None, None -> true
        | Some a, Some b ->
          codes_consistent a && block_signature a = block_signature b
        | Some _, None | None, Some _ -> false
      in
      let tick () = Sched_unit.tick_decisions u = Ref_sched_unit.tick r in
      let rec go = function
        | [] -> same_blocks 0xFFFF
        | (ret, extra) :: tl ->
          List.for_all (fun () -> tick ()) (List.init (extra + 1) ignore)
          && (match (Sched_unit.insert u ret, Ref_sched_unit.insert r ret) with
             | `Ok, `Ok -> true
             | `Full, `Full ->
               same_blocks ret.addr
               && Sched_unit.insert u ret = `Ok
               && Ref_sched_unit.insert r ret = `Ok
             | `Ok, `Full | `Full, `Ok -> false)
          && Sched_unit.length u = Ref_sched_unit.length r
          && go tl
      in
      go (retired_stream steps))

(* ---- allocation per cycle (bound) ---- *)

(* Minor-heap words per [tick] and per [insert] over a fixed retired
   stream (the reference property's generator, fixed seed, on the 8x8
   machine). An install allocates nothing, a move nothing unless its
   branch tag changes, and an insert the new op and its candidate, so the
   averages are set mostly by how often ops split: 12.9 words a tick and
   45.1 an insert, where the list-based reference unit takes 183 and 181
   on the same stream. Counts are deterministic, so this fails on a count,
   not a timing. *)
let alloc_per_call () =
  let steps =
    QCheck2.Gen.generate1 ~rand:(Random.State.make [| 7 |])
      (QCheck2.Gen.list_repeat 4000 gen_step)
  in
  let stream = retired_stream steps in
  let u = Sched_unit.create Sched_unit.default_config in
  let tick_w = ref 0. and ticks = ref 0 and ins_w = ref 0. and inserts = ref 0 in
  List.iter
    (fun (r, extra) ->
      for _ = 0 to extra do
        let w0 = Gc.minor_words () in
        Sched_unit.tick u;
        tick_w := !tick_w +. (Gc.minor_words () -. w0);
        incr ticks
      done;
      let w0 = Gc.minor_words () in
      let res = Sched_unit.insert u r in
      ins_w := !ins_w +. (Gc.minor_words () -. w0);
      incr inserts;
      match res with
      | `Ok -> ()
      | `Full ->
        ignore (Sched_unit.finish_block u ~nba_addr:r.addr);
        insert_ok u r)
    stream;
  (!tick_w /. float !ticks, !ins_w /. float !inserts)

let test_alloc_per_call () =
  let per_tick, per_insert = alloc_per_call () in
  check_bool
    (Printf.sprintf "%.2f words per tick, bound 15" per_tick)
    true (per_tick <= 15.);
  check_bool
    (Printf.sprintf "%.2f words per insert, bound 48" per_insert)
    true (per_insert <= 48.)

let suite =
  [
    Alcotest.test_case "independent ops share li" `Quick
      test_independent_ops_share_li;
    Alcotest.test_case "flow dep new element" `Quick test_flow_dep_new_element;
    Alcotest.test_case "resource dep new element" `Quick
      test_resource_dep_new_element;
    Alcotest.test_case "move up" `Quick test_move_up;
    Alcotest.test_case "install on flow" `Quick test_install_on_flow;
    Alcotest.test_case "split on output dep" `Quick test_split_on_output_dep;
    Alcotest.test_case "split on anti dep" `Quick test_split_on_anti_dep;
    Alcotest.test_case "branch installs immediately" `Quick
      test_branch_installs_immediately;
    Alcotest.test_case "order fields and cross bits" `Quick
      test_order_fields_and_cross_bits;
    Alcotest.test_case "finish block" `Quick test_finish_block;
    Alcotest.test_case "full list" `Quick test_full_list_reports_full;
    Alcotest.test_case "no renaming config" `Quick test_no_renaming_config;
    Alcotest.test_case "branch flags forwarded after split" `Quick
      test_branch_flags_forwarded_after_split;
    Alcotest.test_case "latency distance at insert" `Quick
      test_latency_distance_enforced;
    Alcotest.test_case "latency blocks move-up" `Quick
      test_latency_blocks_move_up;
    Alcotest.test_case "multicycle op never splits" `Quick
      test_multicycle_op_does_not_split;
    Alcotest.test_case "figure 2 schedule" `Quick test_fig2_schedule;
    Alcotest.test_case "words per tick and per insert" `Quick
      test_alloc_per_call;
    QCheck_alcotest.to_alcotest prop_signals_match_behaviour;
    QCheck_alcotest.to_alcotest prop_matches_reference;
    QCheck_alcotest.to_alcotest prop_block_invariants;
    QCheck_alcotest.to_alcotest prop_mem_orders_monotone;
  ]
