(* Primary Processor timing-model tests (Table 1): base CPI, not-taken
   branch bubbles, load-use bubbles, cache miss stalls and trap service. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let latencies = Dts_isa.Instr.unit_latencies

let build ?(icache = Dts_mem.Cache.perfect ()) ?(dcache = Dts_mem.Cache.perfect ())
    src =
  let program = Dts_asm.Assembler.assemble src in
  let st = Dts_asm.Program.boot program in
  (Dts_primary.Primary.create ~latencies ~icache ~dcache st, st)

let run_all p =
  let cycles = ref 0 and retired = ref 0 in
  (try
     while true do
       let r = Dts_primary.Primary.step p in
       cycles := !cycles + r.Dts_primary.Primary.cycles;
       incr retired
     done
   with Dts_primary.Primary.Halted -> ());
  (!retired, !cycles)

let test_straight_line_cpi_1 () =
  let p, _ =
    build {|
start:  mov 1, %o0
        mov 2, %o1
        add %o0, %o1, %o2
        xor %o2, 3, %o3
        halt
|}
  in
  let retired, cycles = run_all p in
  check_int "retired" 4 retired;
  check_int "one cycle each" 4 cycles

let test_not_taken_branch_bubble () =
  let p, _ =
    build
      {|
start:  cmp %g0, 1
        be  nowhere        ! not taken: 3-cycle bubble
        mov 1, %o0
        halt
nowhere: halt
|}
  in
  let _, cycles = run_all p in
  (* cmp(1) + be(1+3) + mov(1) = 6 *)
  check_int "bubble charged" 6 cycles

let test_taken_branch_free () =
  let p, _ =
    build {|
start:  cmp %g0, 0
        be  target
        halt
target: mov 1, %o0
        halt
|}
  in
  let _, cycles = run_all p in
  (* cmp(1) + be taken(1) + mov(1) = 3 *)
  check_int "taken branch costs 1" 3 cycles

let test_load_use_bubble () =
  let p, _ =
    build
      {|
        .data
v:      .word 42
        .text
start:  set v, %o0
        ld  [%o0], %o1
        add %o1, 1, %o2    ! uses the loaded value: +1 bubble
        halt
|}
  in
  let _, cycles = run_all p in
  (* set = 2 instrs (2) + ld (1) + add (1+1) = 5 *)
  check_int "load-use bubble" 5 cycles

let test_load_no_use_no_bubble () =
  let p, _ =
    build
      {|
        .data
v:      .word 42
        .text
start:  set v, %o0
        ld  [%o0], %o1
        add %o3, 1, %o2    ! independent of the load
        halt
|}
  in
  let _, cycles = run_all p in
  check_int "no bubble" 4 cycles

let test_icache_miss_penalty () =
  let icache =
    Dts_mem.Cache.create ~size_bytes:64 ~line_bytes:32 ~assoc:1 ~miss_penalty:8
  in
  let p, _ = build ~icache {|
start:  mov 1, %o0
        mov 2, %o1
        halt
|} in
  let _, cycles = run_all p in
  (* both instructions in one 32B line: one cold miss *)
  check_int "one cold miss" (2 + 8) cycles

let test_dcache_miss_penalty () =
  let dcache =
    Dts_mem.Cache.create ~size_bytes:64 ~line_bytes:32 ~assoc:1 ~miss_penalty:8
  in
  let p, _ =
    build ~dcache
      {|
        .data
v:      .word 1
        .text
start:  set v, %o0
        ld  [%o0], %o1      ! cold miss
        ld  [%o0], %o2      ! hit
        halt
|}
  in
  let _, cycles = run_all p in
  (* set(2) + ld(1+8) + ld(1, but load-use? second ld reads %o0, not %o1: no) *)
  check_int "one dcache miss" 12 cycles

let test_trap_service_charged () =
  (* nwindows = 32 at boot; drive saves deep enough to overflow *)
  let src =
    "start:  set 100, %l1\n"
    ^ String.concat ""
        (List.init 31 (fun _ -> "        save %sp, -64, %sp\n"))
    ^ String.concat ""
        (List.init 31 (fun _ -> "        restore\n"))
    ^ "        halt\n"
  in
  let p, st = build src in
  let retired, cycles = run_all p in
  check_bool "trap serviced" true (st.traps > 0);
  check_bool "trap cycles charged" true (cycles > retired)

let test_retired_observations () =
  let p, _ =
    build
      {|
        .data
v:      .word 7
        .text
start:  set v, %o0
        ld  [%o0], %o1
        cmp %o1, 7
        be  out
        halt
out:    halt
|}
  in
  let seen = ref [] in
  (try
     while true do
       seen := Dts_primary.Primary.step p :: !seen
     done
   with Dts_primary.Primary.Halted -> ());
  let seen = List.rev !seen in
  let ld = List.nth seen 2 in
  check_bool "load observed address" true
    (match ld.Dts_primary.Primary.mem with Some (_, 4) -> true | _ -> false);
  let br = List.nth seen 4 in
  check_bool "branch observed taken" true br.Dts_primary.Primary.taken;
  check_bool "branch target recorded" true
    (br.Dts_primary.Primary.next_pc <> br.addr + 4)

(* ---- register-window overflow/underflow: Golden vs Primary ----

   The spill/fill microroutine (§3.1's trap service) runs inside both the
   golden interpreter and the Primary Processor's trap path. Drive both
   engines through nesting deeper than the window file holds and demand
   bit-identical architectural state — registers, spill stack, memory and
   instruction count — and identical fatal behaviour on underflow of an
   empty spill stack. *)

let deep_window_src depth =
  (* straight-line nesting: leave a breadcrumb in %l0, save; then unwind,
     accumulating each frame's breadcrumb through a global *)
  let b = Buffer.create 256 in
  Buffer.add_string b "start:  mov 0, %g2\n";
  for k = 1 to depth do
    Buffer.add_string b (Printf.sprintf "        mov %d, %%l0\n" (100 + k));
    Buffer.add_string b "        save %sp, -96, %sp\n"
  done;
  for _ = 1 to depth do
    Buffer.add_string b "        restore %g0, 0, %g0\n";
    Buffer.add_string b "        add %g2, %l0, %g2\n"
  done;
  Buffer.add_string b "        sethi 0x14, %o0\n";
  (* 0x14 << 10 = 0x5000 *)
  Buffer.add_string b "        st %g2, [%o0+0]\n";
  Buffer.add_string b "        halt\n";
  Buffer.contents b

let boot_pair ~nwindows src =
  let program = Dts_asm.Assembler.assemble src in
  let gst = Dts_asm.Program.boot ~nwindows program in
  let pst = Dts_asm.Program.boot ~nwindows program in
  let g = Dts_golden.Golden.of_state gst in
  let p =
    Dts_primary.Primary.create ~latencies
      ~icache:(Dts_mem.Cache.perfect ())
      ~dcache:(Dts_mem.Cache.perfect ())
      pst
  in
  (g, gst, p, pst)

let test_window_spill_agreement () =
  (* nwindows = 8, overflow trips at resident depth nwindows - 2 = 6;
     nesting to 3 * nwindows forces repeated spill and fill *)
  let nwindows = 8 in
  let depth = 3 * nwindows in
  let g, gst, p, pst = boot_pair ~nwindows (deep_window_src depth) in
  let _ = Dts_golden.Golden.run ~max_instructions:100_000 g in
  check_bool "golden halted" true gst.Dts_isa.State.halted;
  let retired = ref 0 and trapped = ref 0 in
  (try
     while true do
       let r = Dts_primary.Primary.step p in
       incr retired;
       if r.Dts_primary.Primary.trapped then incr trapped
     done
   with Dts_primary.Primary.Halted -> ());
  check_bool "spills actually happened" true (!trapped > 0);
  (* both engines spilled through the same region and agree bit-for-bit *)
  check_bool "registers agree" true (Dts_isa.State.regs_equal gst pst);
  check_bool "memory agrees" true
    (Dts_mem.Memory.equal gst.Dts_isa.State.mem pst.Dts_isa.State.mem);
  check_int "instruction counts agree" gst.Dts_isa.State.instret
    pst.Dts_isa.State.instret;
  (* the accumulated breadcrumbs prove every frame survived its spill *)
  let expect = ref 0 in
  for k = 1 to depth do
    expect := !expect + 100 + k
  done;
  check_int "breadcrumb sum" !expect
    (Dts_mem.Memory.read_u32 gst.Dts_isa.State.mem 0x5000)

let test_window_underflow_fatal_agreement () =
  (* a restore at depth zero underflows; with an empty spill stack that is
     a fatal fault on both engines, at the same instruction *)
  let src = "start:  mov 7, %o1\n        restore %g0, 0, %g0\n        halt\n" in
  let nwindows = 8 in
  let g, gst, p, pst = boot_pair ~nwindows src in
  let golden_fault =
    try
      ignore (Dts_golden.Golden.run ~max_instructions:1000 g);
      None
    with Dts_isa.Semantics.Fatal_fault m -> Some m
  in
  let primary_fault =
    try
      for _ = 1 to 1000 do
        ignore (Dts_primary.Primary.step p)
      done;
      None
    with
    | Dts_isa.Semantics.Fatal_fault m -> Some m
    | Dts_primary.Primary.Halted -> None
  in
  check_bool "golden faults" true (golden_fault <> None);
  check_bool "primary faults" true (primary_fault <> None);
  Alcotest.(check (option string))
    "same diagnostic" golden_fault primary_fault;
  (* both stopped after the same retired prefix *)
  check_int "same instret at fault" gst.Dts_isa.State.instret
    pst.Dts_isa.State.instret

(* Halt accounting (the obs sum invariant): Halt retires — instret
   moves — but its final fetch charges no cycles and does
   not touch the instruction cache. The stall of that fetch can appear in
   no retirement record, so charging either side would make total cycles
   disagree with the sum of per-retirement cycles, or the cache hit/miss
   counters disagree with the retirement stream the scheduler saw. *)
let test_halt_accounting_obs_sum () =
  let src = {|
start:  mov 1, %o0
        add %o0, 2, %o1
        xor %o1, 3, %o2
        halt
|} in
  let icache =
    Dts_mem.Cache.create ~size_bytes:256 ~line_bytes:16 ~assoc:1
      ~miss_penalty:6
  in
  let program = Dts_asm.Assembler.assemble src in
  let st = Dts_asm.Program.boot program in
  let p =
    Dts_primary.Primary.create ~latencies ~icache
      ~dcache:(Dts_mem.Cache.perfect ()) st
  in
  let cycles = ref 0 and retired = ref 0 in
  (try
     while true do
       let r = Dts_primary.Primary.step p in
       cycles := !cycles + r.Dts_primary.Primary.cycles;
       incr retired
     done
   with Dts_primary.Primary.Halted -> ());
  (* the sum of per-retirement cycles is the total — nothing vanished *)
  check_int "cycles = sum of retirement records" !cycles
    (Dts_primary.Primary.total_cycles p);
  (* halt retired architecturally... *)
  check_int "instret counts halt" (!retired + 1) st.Dts_isa.State.instret;
  (* ...but its fetch moved no cache counter: one access per record *)
  check_int "icache accesses = retirement records" !retired
    (Dts_mem.Cache.hits icache + Dts_mem.Cache.misses icache)

(* ---- load-use bubble against the observed read/write sets ---- *)

module Instr = Dts_isa.Instr

(* Every register field of [i], integer and fp alike. *)
let reg_fields (i : Instr.t) =
  let op2 = function Instr.Reg r -> [ r ] | Imm _ -> [] in
  match i with
  | Alu { rs1; op2 = o; rd; _ }
  | Load { rs1; op2 = o; rd; _ }
  | Jmpl { rs1; op2 = o; rd }
  | Save { rs1; op2 = o; rd }
  | Restore { rs1; op2 = o; rd }
  | Fload { rs1; op2 = o; rd }
  | Fstore { rd; rs1; op2 = o } ->
    rd :: rs1 :: op2 o
  | Store { rs; rs1; op2 = o; _ } -> rs :: rs1 :: op2 o
  | Fpop { rs1; rs2; rd; _ } -> [ rs1; rs2; rd ]
  | Sethi { rd; _ } -> [ rd ]
  | Nop | Halt | Trap _ | Branch _ | Call _ -> []

(* Every integer register holds a word-aligned data address, so with
   word-aligned immediates no memory access or jump faults. *)
let align_imm (i : Instr.t) : Instr.t =
  let al = function Instr.Imm n -> Instr.Imm (n land lnot 3) | o -> o in
  match i with
  | Load r -> Load { r with op2 = al r.op2 }
  | Store r -> Store { r with op2 = al r.op2 }
  | Fload r -> Fload { r with op2 = al r.op2 }
  | Fstore r -> Fstore { r with op2 = al r.op2 }
  | Jmpl r -> Jmpl { r with op2 = al r.op2 }
  | i -> i

(* A load, then any instruction; the load's destination comes from the
   consumer's register fields half the time, so the two often meet. *)
let gen_load_then_consumer =
  let open QCheck2.Gen in
  let* consumer = map align_imm Test_isa.gen_exec_instr in
  let fields = reg_fields consumer in
  let gen_rd =
    if fields = [] then Test_isa.gen_reg
    else oneof [ Test_isa.gen_reg; oneofl fields ]
  in
  let gen_load =
    oneof
      [
        map
          (fun (size, rs1, op2, rd) -> Instr.Load { size; rs1; op2; rd })
          (tup4
             (oneofl [ Instr.Lsb; Lub; Lsh; Luh; Lw ])
             Test_isa.gen_reg Test_isa.gen_operand gen_rd);
        map
          (fun (rs1, op2, rd) -> Instr.Fload { rs1; op2; rd })
          (tup3 Test_isa.gen_reg Test_isa.gen_operand gen_rd);
      ]
  in
  let+ load = map align_imm gen_load and+ cwp = int_bound 7 in
  (cwp, load, consumer)

(* The consumer pays [load_use_bubble] exactly when its observed reads
   overlap the load's observed writes: the rule the Primary decides on
   packed micro-ops in [reads_prev_load_dest]. The cost without the bubble
   comes from the same consumer on a copy of the state, stepped by a fresh
   Primary with no load before it. *)
let prop_load_use_bubble =
  let module P = Dts_primary.Primary in
  QCheck2.Test.make ~count:2000
    ~name:"load-use bubble iff the consumer reads the load's destination"
    ~print:(fun (cwp, l, c) ->
      Printf.sprintf "cwp=%d\n%s\n%s" cwp (Instr.show l) (Instr.show c))
    gen_load_then_consumer
    (fun (cwp, load, consumer) ->
      let pc = Test_isa.exec_pc - Instr.bytes in
      let st = Dts_isa.State.create ~nwindows:8 () in
      for i = 1 to Array.length st.iregs - 1 do
        st.iregs.(i) <- Dts_isa.Layout.data_base + (4 * (i land 63))
      done;
      st.cwp <- cwp;
      (* one spilled frame, so a restore's underflow can refill *)
      st.wdepth <- 1;
      st.wspill_sp <- Dts_isa.Layout.wspill_base + 64;
      Dts_mem.Memory.write_u32 st.mem pc (Dts_isa.Encode.encode ~pc load);
      Dts_mem.Memory.write_u32 st.mem Test_isa.exec_pc
        (Dts_isa.Encode.encode ~pc:Test_isa.exec_pc consumer);
      st.pc <- pc;
      let primary st =
        P.create ~latencies ~icache:(Dts_mem.Cache.perfect ())
          ~dcache:(Dts_mem.Cache.perfect ()) st
      in
      let p = primary st in
      let l = P.step p in
      let alone = primary (Dts_isa.State.copy st) in
      let c = P.step p and c_alone = P.step alone in
      let bubble =
        if Dts_isa.Storage.any_overlap (fst c.rwsets) (snd l.rwsets) then
          P.default_timing.load_use_bubble
        else 0
      in
      c.cycles = c_alone.cycles + bubble)

let suite =
  [
    Alcotest.test_case "straight-line CPI 1" `Quick test_straight_line_cpi_1;
    Alcotest.test_case "halt accounting obs sum" `Quick
      test_halt_accounting_obs_sum;
    Alcotest.test_case "not-taken branch bubble" `Quick
      test_not_taken_branch_bubble;
    Alcotest.test_case "taken branch free" `Quick test_taken_branch_free;
    Alcotest.test_case "load-use bubble" `Quick test_load_use_bubble;
    Alcotest.test_case "independent after load" `Quick test_load_no_use_no_bubble;
    Alcotest.test_case "icache miss penalty" `Quick test_icache_miss_penalty;
    Alcotest.test_case "dcache miss penalty" `Quick test_dcache_miss_penalty;
    Alcotest.test_case "trap service charged" `Quick test_trap_service_charged;
    Alcotest.test_case "retired observations" `Quick test_retired_observations;
    Alcotest.test_case "window spill: golden/primary agree" `Quick
      test_window_spill_agreement;
    Alcotest.test_case "window underflow fatal: golden/primary agree" `Quick
      test_window_underflow_fatal_agreement;
    QCheck_alcotest.to_alcotest prop_load_use_bubble;
  ]
