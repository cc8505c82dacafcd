(* The paper's Figure 2, live: feed the vector-sum kernel's dynamic trace
   into a 3-wide, 4-deep Scheduler Unit and print the scheduling list after
   every cycle — showing insertion, move-up, splitting (the renamed add and
   its COPY) and source forwarding (the subcc consuming the renaming
   register).

   dune exec examples/trace_scheduling_demo.exe *)

open Dts_sched

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

(* Figure 2b: the assembly version of `for (sum=0,i=0; i<x; i++) sum += a[i]` *)
let trace x =
  let open Dts_isa.Instr in
  [
    ("or r0,0,r9      (1)", ret ~addr:0x1000 (Alu { op = Or; cc = false; rs1 = 0; op2 = Imm 0; rd = 9 }));
    ("sethi hi(56),r8 (2)", ret ~addr:0x1004 (Sethi { imm = 56; rd = 8 }));
    ("or r8,8,r11     (3)", ret ~addr:0x1008 (Alu { op = Or; cc = false; rs1 = 8; op2 = Imm 8; rd = 11 }));
    ("or r0,0,r10     (4)", ret ~addr:0x100c (Alu { op = Or; cc = false; rs1 = 0; op2 = Imm 0; rd = 10 }));
    ("ld [r10+r11],r8 (5)", ret ~addr:0x1010 ~mem:(0xE008, 4) (Load { size = Lw; rs1 = 10; op2 = Reg 11; rd = 8 }));
    ("add r9,r8,r9    (6)", ret ~addr:0x1014 (Alu { op = Add; cc = false; rs1 = 9; op2 = Reg 8; rd = 9 }));
    ("add r10,4,r10   (7)", ret ~addr:0x1018 (Alu { op = Add; cc = false; rs1 = 10; op2 = Imm 4; rd = 10 }));
    ( "subcc r10,...   (8)",
      ret ~addr:0x101c
        (Alu { op = Sub; cc = true; rs1 = 10; op2 = Imm ((4 * x) - 1); rd = 0 }) );
    ( "ble loop        (9)",
      ret ~addr:0x1020 ~taken:true ~next:0x1010 (Branch { cond = LE; target = 0x1010 }) );
  ]

let () =
  print_endline
    "Scheduling the Figure 2 trace into a 3-wide x 4-deep scheduling list.";
  print_endline
    "(slh = scheduling list head, slt = tail; * marks a renamed op)\n";
  let t =
    Sched_unit.create
      { Sched_unit.default_config with width = 3; height = 4 }
  in
  let cycle = ref 0 in
  let show () = Format.printf "cycle %d:@.%a@." !cycle Sched_unit.pp t in
  List.iteri
    (fun k (name, r) ->
      incr cycle;
      Sched_unit.tick t;
      (* mirror the paper's pipeline timing: the split of instruction 7
         completes before the subcc arrives *)
      if k = 7 then begin
        incr cycle;
        Sched_unit.tick t
      end;
      Format.printf "--- inserting %s@." name;
      (match Sched_unit.insert t r with
      | `Ok -> ()
      | `Full -> Format.printf "(list full: block flushed)@.");
      show ())
    (trace 10);
  (* let the remaining candidates settle, as in the paper's 11-cycle view *)
  for _ = 1 to 2 do
    incr cycle;
    Sched_unit.tick t;
    show ()
  done;
  match Sched_unit.finish_block t ~nba_addr:0x1024 with
  | Some b ->
    Format.printf "block finished: %d long instructions, %d slots filled@."
      (Array.length b.Schedtypes.lis)
      b.n_slots_filled
  | None -> ()
