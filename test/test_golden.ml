(* Golden reference machine tests: budgets, halting, and the test-mode
   synchronisation primitive. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let boot src =
  let program = Dts_asm.Assembler.assemble src in
  let st = Dts_asm.Program.boot program in
  (Dts_golden.Golden.of_state st, st)

let counting_loop =
  {|
start:  mov   0, %o0
loop:   add   %o0, 1, %o0
        cmp   %o0, 100
        bl    loop
        halt
|}

let test_run_to_halt () =
  let g, st = boot counting_loop in
  let n = Dts_golden.Golden.run g in
  check_bool "halted" true st.halted;
  check_int "o0" 100 (Dts_isa.State.get_reg st ~cwp:st.cwp 8);
  (* 1 mov + 100*(add,cmp,branch) + halt *)
  check_int "instruction count" (1 + 300 + 1) n

let test_budget_stops_early () =
  let g, st = boot counting_loop in
  let n = Dts_golden.Golden.run ~max_instructions:10 g in
  check_int "retired exactly the budget" 10 n;
  check_bool "not halted" false st.halted;
  (* a second call continues from where it stopped *)
  let n2 = Dts_golden.Golden.run g in
  check_int "total" 302 (n + n2)

let test_step_raises_on_halt () =
  let g, _ = boot "start: halt\n" in
  (try
     Dts_golden.Golden.step g;
     Alcotest.fail "expected Program_halted"
   with Dts_golden.Golden.Program_halted -> ());
  (* stepping a halted machine keeps raising *)
  try
    Dts_golden.Golden.step g;
    Alcotest.fail "expected Program_halted again"
  with Dts_golden.Golden.Program_halted -> ()

(* [advance_to_pc] reached [pc] iff the machine stands there afterwards *)
let reaches ?(fuel = 10_000_000) g (st : Dts_isa.State.t) ~pc =
  ignore (Dts_golden.Golden.advance_to_pc g ~pc ~fuel);
  st.pc = pc

let test_advance_to_pc () =
  let g, st = boot counting_loop in
  let loop_pc = 0x1004 in
  check_bool "reaches the loop head" true (reaches g st ~pc:loop_pc);
  check_int "stopped there" loop_pc st.pc;
  (* reaches it again on the next iteration *)
  Dts_golden.Golden.step g;
  check_bool "reaches it again" true (reaches g st ~pc:loop_pc)

let test_advance_to_pc_fuel () =
  let g, st = boot counting_loop in
  check_int "unreachable pc exhausts fuel" 0
    (Dts_golden.Golden.advance_to_pc g ~pc:0xDEAD00 ~fuel:50);
  check_bool "and is not reached" false (st.pc = 0xDEAD00)

(* Regression: a machine sitting halted *at* the target must answer true
   regardless of whether the halt happened before or during the call —
   the answer depends only on the architectural state. *)
let test_advance_to_pc_halted_at_target () =
  let g, st = boot counting_loop in
  ignore (Dts_golden.Golden.run g);
  check_bool "halted" true st.halted;
  let halt_pc = st.pc in
  (* entered already halted at the target: same answer as halting there
     during the call *)
  check_bool "halted at target answers true" true (reaches g st ~pc:halt_pc);
  check_bool "and repeatably so" true (reaches g st ~pc:halt_pc);
  (* halted away from the target is still a failure to reach it *)
  check_bool "halted away from target answers false" false
    (reaches g st ~pc:0x1000);
  (* a fresh machine reaching the same address during the call agrees: the
     answer for [halt_pc] is true whether the machine is parked there
     halted or just arrived *)
  let g2, st2 = boot counting_loop in
  check_bool "reaches the halt pc during the call" true
    (reaches g2 st2 ~pc:halt_pc);
  check_int "same pc" halt_pc st2.pc

let suite =
  [
    Alcotest.test_case "run to halt" `Quick test_run_to_halt;
    Alcotest.test_case "budget stops early" `Quick test_budget_stops_early;
    Alcotest.test_case "step raises on halt" `Quick test_step_raises_on_halt;
    Alcotest.test_case "advance_to_pc" `Quick test_advance_to_pc;
    Alcotest.test_case "advance_to_pc fuel" `Quick test_advance_to_pc_fuel;
    Alcotest.test_case "advance_to_pc halted at target" `Quick
      test_advance_to_pc_halted_at_target;
  ]
