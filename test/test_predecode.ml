(* The pre-decoded instruction store: hit/decode accounting of the counting
   [fetch_uop] (its decode read back through [instr_at]), invalidation on
   overlapping writes, and end-to-end self-modifying code on the golden
   machine (a store over an already-executed code address must be fetched as
   the new instruction). *)

open Dts_isa

let check_int = Alcotest.(check int)

let add_imm ~rs1 ~imm ~rd =
  Instr.Alu { op = Instr.Add; cc = false; rs1; op2 = Instr.Imm imm; rd }

let test_fetch_caches () =
  let mem = Dts_mem.Memory.create () in
  let pd = Predecode.create mem in
  let a = 0x1000 in
  Dts_mem.Memory.write_u32 mem a (Encode.encode ~pc:a (add_imm ~rs1:8 ~imm:1 ~rd:8));
  let u1 = Predecode.fetch_uop pd ~addr:a in
  let u2 = Predecode.fetch_uop pd ~addr:a in
  check_int "same micro-op" u1 u2;
  Alcotest.check Alcotest.bool "same decode" true
    (Instr.equal (Predecode.instr_at pd ~addr:a) (add_imm ~rs1:8 ~imm:1 ~rd:8));
  check_int "one decode" 1 (Predecode.decodes pd);
  check_int "one hit" 1 (Predecode.hits pd)

let test_word_write_invalidates () =
  let mem = Dts_mem.Memory.create () in
  let pd = Predecode.create mem in
  let a = 0x1000 in
  Dts_mem.Memory.write_u32 mem a (Encode.encode ~pc:a (add_imm ~rs1:8 ~imm:1 ~rd:8));
  ignore (Predecode.fetch_uop pd ~addr:a);
  (* overwrite through the ordinary store path *)
  Dts_mem.Memory.write mem ~addr:a ~size:4
    (Encode.encode ~pc:a (add_imm ~rs1:8 ~imm:42 ~rd:8));
  check_int "invalidated" 1 (Predecode.invalidations pd);
  ignore (Predecode.fetch_uop pd ~addr:a);
  (match Predecode.instr_at pd ~addr:a with
  | Instr.Alu { op2 = Instr.Imm 42; _ } -> ()
  | i -> Alcotest.failf "stale decode survived: %s" (Disasm.to_string i));
  check_int "re-decoded" 2 (Predecode.decodes pd)

let test_byte_write_invalidates_containing_word () =
  let mem = Dts_mem.Memory.create () in
  let pd = Predecode.create mem in
  let a = 0x2000 in
  Dts_mem.Memory.write_u32 mem a (Encode.encode ~pc:a (add_imm ~rs1:8 ~imm:1 ~rd:8));
  ignore (Predecode.fetch_uop pd ~addr:a);
  (* a one-byte store into the middle of the cached word *)
  Dts_mem.Memory.write mem ~addr:(a + 2) ~size:1 0x7F;
  check_int "byte store invalidates its word" 1 (Predecode.invalidations pd)

let test_unrelated_write_is_free () =
  let mem = Dts_mem.Memory.create () in
  let pd = Predecode.create mem in
  let a = 0x1000 in
  Dts_mem.Memory.write_u32 mem a (Encode.encode ~pc:a (add_imm ~rs1:8 ~imm:1 ~rd:8));
  ignore (Predecode.fetch_uop pd ~addr:a);
  (* data stores elsewhere (even in the same page) invalidate nothing *)
  Dts_mem.Memory.write mem ~addr:0x1abc ~size:4 0xdeadbeef;
  Dts_mem.Memory.write mem ~addr:0x9000 ~size:2 7;
  check_int "no invalidations" 0 (Predecode.invalidations pd);
  ignore (Predecode.fetch_uop pd ~addr:a);
  check_int "still cached" 1 (Predecode.hits pd)

(* End-to-end: a program patches one of its own instructions after having
   executed it once. The first pass executes [add %o0, 1, %o0] (priming the
   decode cache); the store then rewrites that word to [add %o0, 42, %o0];
   the second pass must fetch the new instruction, leaving %o0 = 1 + 42. *)
let test_self_modifying_golden () =
  let patched = Encode.encode ~pc:0 (add_imm ~rs1:8 ~imm:42 ~rd:8) in
  let src =
    Printf.sprintf
      {|
start:  mov   0, %%o5
        set   %d, %%o1
        set   target, %%o2
loop:
target: add   %%o0, 1, %%o0
        cmp   %%o5, 0
        bne   done
        st    %%o1, [%%o2]
        mov   1, %%o5
        ba    loop
done:   halt
|}
      patched
  in
  let program = Dts_asm.Assembler.assemble src in
  (* the ALU encoding is position-independent; double-check against the
     assembled target address *)
  let taddr = Dts_asm.Program.symbol program "target" in
  check_int "encoding is pc-independent" patched
    (Encode.encode ~pc:taddr (add_imm ~rs1:8 ~imm:42 ~rd:8));
  let st = Dts_asm.Program.boot program in
  let g = Dts_golden.Golden.of_state st in
  ignore (Dts_golden.Golden.run g);
  check_int "first pass added 1, second pass added 42" 43
    (State.get_reg st ~cwp:st.cwp 8);
  Alcotest.check Alcotest.bool "the patch invalidated a cached entry" true
    (Predecode.invalidations st.predecode >= 1)

(* Memory.copy must not leak consumers between the original and the copy:
   predecode stores register reset hooks on their memory, and copying a
   memory with a live predecode used to silently drop/alias those hooks.
   The copy gets fresh (empty) hook lists, and the source's caches are
   reset at copy time so neither side can serve stale decodes. *)
let test_memory_copy_resets_source_predecode () =
  let mem = Dts_mem.Memory.create () in
  let pd = Predecode.create mem in
  let a = 0x3000 in
  Dts_mem.Memory.write_u32 mem a (Encode.encode ~pc:a (add_imm ~rs1:8 ~imm:1 ~rd:8));
  ignore (Predecode.fetch_uop pd ~addr:a);
  check_int "primed" 1 (Predecode.decodes pd);
  let snapshot = Dts_mem.Memory.copy mem in
  (* the copy fired the reset hooks: the next fetch re-decodes instead of
     trusting state that the snapshot no longer observes *)
  ignore (Predecode.fetch_uop pd ~addr:a);
  check_int "re-decoded after copy" 2 (Predecode.decodes pd);
  (* and the copy's hook lists are independent: writes into the snapshot
     never touch the original's predecode *)
  Dts_mem.Memory.write snapshot ~addr:a ~size:4
    (Encode.encode ~pc:a (add_imm ~rs1:8 ~imm:9 ~rd:8));
  let inv_before = Predecode.invalidations pd in
  Dts_mem.Memory.write mem ~addr:a ~size:4
    (Encode.encode ~pc:a (add_imm ~rs1:8 ~imm:7 ~rd:8));
  check_int "original still sees its own writes" (inv_before + 1)
    (Predecode.invalidations pd);
  ignore (Predecode.fetch_uop pd ~addr:a);
  (match Predecode.instr_at pd ~addr:a with
  | Instr.Alu { op2 = Instr.Imm 7; _ } -> ()
  | i -> Alcotest.failf "copy's write leaked into the source: %s"
           (Disasm.to_string i))

let test_memory_copy_hooks_do_not_fire_on_copy_writes () =
  let mem = Dts_mem.Memory.create () in
  let pd = Predecode.create mem in
  let a = 0x4000 in
  Dts_mem.Memory.write_u32 mem a (Encode.encode ~pc:a (add_imm ~rs1:8 ~imm:1 ~rd:8));
  ignore (Predecode.fetch_uop pd ~addr:a);
  let snapshot = Dts_mem.Memory.copy mem in
  let inv = Predecode.invalidations pd in
  Dts_mem.Memory.write snapshot ~addr:a ~size:1 0xFF;
  check_int "snapshot writes invalidate nothing in the source" inv
    (Predecode.invalidations pd);
  check_int "snapshot kept the original bytes elsewhere"
    (Dts_mem.Memory.read mem ~addr:(a + 4) ~size:4 ~signed:false)
    (Dts_mem.Memory.read snapshot ~addr:(a + 4) ~size:4 ~signed:false)

let suite =
  [
    Alcotest.test_case "fetch caches decodes" `Quick test_fetch_caches;
    Alcotest.test_case "word write invalidates" `Quick test_word_write_invalidates;
    Alcotest.test_case "byte write invalidates containing word" `Quick
      test_byte_write_invalidates_containing_word;
    Alcotest.test_case "unrelated writes invalidate nothing" `Quick
      test_unrelated_write_is_free;
    Alcotest.test_case "self-modifying code on golden" `Quick
      test_self_modifying_golden;
    Alcotest.test_case "memory copy resets source predecode" `Quick
      test_memory_copy_resets_source_predecode;
    Alcotest.test_case "copy writes never reach source hooks" `Quick
      test_memory_copy_hooks_do_not_fire_on_copy_writes;
  ]
