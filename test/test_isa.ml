(* Tests for the SRISC ISA: semantics, condition codes, register windows,
   encode/decode, and read/write sets. *)

open Dts_isa

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let fresh () = State.create ~nwindows:8 ()

let exec1 st instr =
  let out = Semantics.exec st ~cwp:st.State.cwp ~pc:st.State.pc instr in
  let out =
    match out.trap with
    | None -> out
    | Some t -> Semantics.service_and_exec st ~cwp:st.State.cwp ~pc:st.State.pc instr t
  in
  Semantics.apply st out;
  out

let set_vis st r v = State.set_reg st ~cwp:st.State.cwp r v
let get_vis st r = State.get_reg st ~cwp:st.State.cwp r

(* ---- ALU semantics ---- *)

let test_alu_basic () =
  let st = fresh () in
  set_vis st 1 7;
  ignore (exec1 st (Alu { op = Add; cc = false; rs1 = 1; op2 = Imm 5; rd = 2 }));
  check_int "add" 12 (get_vis st 2);
  ignore (exec1 st (Alu { op = Sub; cc = false; rs1 = 2; op2 = Reg 1; rd = 3 }));
  check_int "sub" 5 (get_vis st 3);
  ignore (exec1 st (Alu { op = Xor; cc = false; rs1 = 2; op2 = Imm 0xF; rd = 4 }));
  check_int "xor" (12 lxor 0xF) (get_vis st 4)

let test_alu_wraparound () =
  let st = fresh () in
  set_vis st 1 0x7FFFFFFF;
  ignore (exec1 st (Alu { op = Add; cc = false; rs1 = 1; op2 = Imm 1; rd = 2 }));
  check_int "signed overflow wraps" (-0x80000000) (get_vis st 2);
  set_vis st 1 (-0x80000000);
  ignore (exec1 st (Alu { op = Sub; cc = false; rs1 = 1; op2 = Imm 1; rd = 2 }));
  check_int "underflow wraps" 0x7FFFFFFF (get_vis st 2)

let test_g0_hardwired () =
  let st = fresh () in
  ignore (exec1 st (Alu { op = Add; cc = false; rs1 = 0; op2 = Imm 99; rd = 0 }));
  check_int "g0 stays zero" 0 (get_vis st 0)

let test_shifts () =
  let st = fresh () in
  set_vis st 1 (-8);
  ignore (exec1 st (Alu { op = Sra; cc = false; rs1 = 1; op2 = Imm 1; rd = 2 }));
  check_int "sra" (-4) (get_vis st 2);
  ignore (exec1 st (Alu { op = Srl; cc = false; rs1 = 1; op2 = Imm 1; rd = 3 }));
  check_int "srl" 0x7FFFFFFC (get_vis st 3);
  set_vis st 1 3;
  ignore (exec1 st (Alu { op = Sll; cc = false; rs1 = 1; op2 = Imm 30; rd = 4 }));
  check_int "sll wraps" (-0x40000000) (get_vis st 4)

let test_div () =
  let st = fresh () in
  set_vis st 1 (-7);
  ignore (exec1 st (Alu { op = Sdiv; cc = false; rs1 = 1; op2 = Imm 2; rd = 2 }));
  check_int "sdiv truncates" (-3) (get_vis st 2);
  ignore (exec1 st (Alu { op = Sdiv; cc = false; rs1 = 1; op2 = Imm 0; rd = 2 }));
  check_int "div by zero yields 0" 0 (get_vis st 2);
  set_vis st 1 (-2);
  (* 0xFFFFFFFE unsigned *)
  ignore (exec1 st (Alu { op = Udiv; cc = false; rs1 = 1; op2 = Imm 2; rd = 2 }));
  check_int "udiv unsigned" 0x7FFFFFFF (get_vis st 2)

(* ---- condition codes & branches ---- *)

let icc_after st op a b =
  set_vis st 1 a;
  set_vis st 2 b;
  ignore (exec1 st (Alu { op; cc = true; rs1 = 1; op2 = Reg 2; rd = 0 }));
  st.State.icc

let test_subcc_flags () =
  let st = fresh () in
  let icc = icc_after st Sub 5 5 in
  check_bool "z" true (State.icc_z icc);
  check_bool "n" false (State.icc_n icc);
  let icc = icc_after st Sub 3 5 in
  check_bool "n set" true (State.icc_n icc);
  check_bool "borrow" true (State.icc_c icc);
  let icc = icc_after st Sub (-0x80000000) 1 in
  check_bool "signed overflow" true (State.icc_v icc)

let test_addcc_carry () =
  let st = fresh () in
  let icc = icc_after st Add (-1) 1 in
  check_bool "carry out" true (State.icc_c icc);
  check_bool "zero" true (State.icc_z icc);
  check_bool "no signed overflow" false (State.icc_v icc)

let test_cond_eval () =
  let t cond icc = Semantics.eval_cond icc cond in
  let icc_eq = State.make_icc ~n:false ~z:true ~v:false ~c:false in
  let icc_lt = State.make_icc ~n:true ~z:false ~v:false ~c:true in
  let icc_gt = State.make_icc ~n:false ~z:false ~v:false ~c:false in
  let icc_lt_ovf = State.make_icc ~n:false ~z:false ~v:true ~c:false in
  check_bool "be on eq" true (t E icc_eq);
  check_bool "bne on eq" false (t NE icc_eq);
  check_bool "bl on lt" true (t L icc_lt);
  check_bool "bl with overflow" true (t L icc_lt_ovf);
  check_bool "bg on gt" true (t G icc_gt);
  check_bool "bge on lt" false (t GE icc_lt);
  check_bool "ble on eq" true (t LE icc_eq);
  check_bool "blu on borrow" true (t LU icc_lt);
  check_bool "bgeu on borrow" false (t GEU icc_lt);
  check_bool "bgu on gt" true (t GU icc_gt);
  check_bool "ba always" true (t A icc_lt)

let test_branch_pc () =
  let st = fresh () in
  st.State.pc <- 0x1000;
  set_vis st 1 1;
  ignore (exec1 st (Alu { op = Sub; cc = true; rs1 = 1; op2 = Imm 1; rd = 0 }));
  st.State.pc <- 0x1004;
  let out = Semantics.exec st ~cwp:0 ~pc:0x1004 (Branch { cond = E; target = 0x2000 }) in
  check_int "taken target" 0x2000 out.next_pc;
  check_bool "taken flag" true out.taken;
  let out = Semantics.exec st ~cwp:0 ~pc:0x1004 (Branch { cond = NE; target = 0x2000 }) in
  check_int "fallthrough" 0x1008 out.next_pc;
  check_bool "not taken" false out.taken

let test_call_jmpl () =
  let st = fresh () in
  st.State.pc <- 0x1000;
  ignore (exec1 st (Call { target = 0x3000 }));
  check_int "link in o7" 0x1000 (get_vis st 15);
  check_int "pc at target" 0x3000 st.State.pc;
  (* ret = jmpl [%o7+4] when no save was done *)
  ignore (exec1 st (Jmpl { rs1 = 15; op2 = Imm 4; rd = 0 }));
  check_int "returned" 0x1004 st.State.pc

(* ---- memory ops ---- *)

let test_load_store () =
  let st = fresh () in
  set_vis st 1 0x5000;
  set_vis st 2 (-123);
  ignore (exec1 st (Store { size = Sw; rs = 2; rs1 = 1; op2 = Imm 8 }));
  ignore (exec1 st (Load { size = Lw; rs1 = 1; op2 = Imm 8; rd = 3 }));
  check_int "word round trip" (-123) (get_vis st 3);
  set_vis st 2 0x1FF;
  ignore (exec1 st (Store { size = Sb; rs = 2; rs1 = 1; op2 = Imm 0 }));
  ignore (exec1 st (Load { size = Lub; rs1 = 1; op2 = Imm 0; rd = 3 }));
  check_int "byte truncated" 0xFF (get_vis st 3);
  ignore (exec1 st (Load { size = Lsb; rs1 = 1; op2 = Imm 0; rd = 3 }));
  check_int "byte sign extended" (-1) (get_vis st 3)

let test_misaligned_trap () =
  let st = fresh () in
  set_vis st 1 0x5001;
  let out =
    Semantics.exec st ~cwp:0 ~pc:st.State.pc
      (Load { size = Lw; rs1 = 1; op2 = Imm 0; rd = 3 })
  in
  Alcotest.(check bool)
    "misaligned traps" true
    (out.trap = Some (Semantics.Misaligned 0x5001))

(* ---- register windows ---- *)

let test_save_restore () =
  let st = fresh () in
  set_vis st 14 0x8000;
  (* %sp = %o6 *)
  set_vis st 8 42;
  (* %o0 *)
  ignore (exec1 st (Save { rs1 = 14; op2 = Imm (-96); rd = 14 }));
  check_int "cwp decremented" 7 st.State.cwp;
  check_int "new sp" (0x8000 - 96) (get_vis st 14);
  check_int "caller o0 is callee i0" 42 (get_vis st 24);
  set_vis st 24 43;
  (* return value in %i0 *)
  ignore (exec1 st (Restore { rs1 = 24; op2 = Imm 0; rd = 8 }));
  check_int "cwp back" 0 st.State.cwp;
  check_int "restore moved i0 to o0" 43 (get_vis st 8)

let test_window_overflow_spill_fill () =
  let st = fresh () in
  (* nwindows = 8; trigger depth is nwindows - 2 = 6 *)
  set_vis st 14 Layout.stack_top;
  let depth = 10 in
  for k = 1 to depth do
    set_vis st 8 (100 + k);
    (* leave a breadcrumb in %o0, visible as callee %i0 *)
    ignore (exec1 st (Save { rs1 = 14; op2 = Imm (-96); rd = 14 }))
  done;
  check_bool "spilled some windows" true
    (st.State.wspill_sp > Layout.wspill_base);
  check_int "depth tracked" depth st.State.wdepth;
  (* unwind and verify each breadcrumb survives the spill/fill round trip *)
  for k = depth downto 1 do
    check_int
      (Printf.sprintf "breadcrumb at depth %d" k)
      (100 + k) (get_vis st 24);
    ignore (exec1 st (Restore { rs1 = 0; op2 = Imm 0; rd = 0 }))
  done;
  check_int "spill stack drained" Layout.wspill_base st.State.wspill_sp;
  check_int "depth zero" 0 st.State.wdepth

let test_locals_survive_deep_recursion () =
  let st = fresh () in
  set_vis st 14 Layout.stack_top;
  let depth = 12 in
  for k = 1 to depth do
    set_vis st 16 (1000 + k);
    (* %l0 of current frame *)
    ignore (exec1 st (Save { rs1 = 14; op2 = Imm (-96); rd = 14 }))
  done;
  for k = depth downto 1 do
    ignore (exec1 st (Restore { rs1 = 0; op2 = Imm 0; rd = 0 }));
    check_int (Printf.sprintf "locals at depth %d" (k - 1)) (1000 + k) (get_vis st 16)
  done

(* ---- float ops ---- *)

let test_fpu () =
  let st = fresh () in
  ignore (exec1 st (Alu { op = Or; cc = false; rs1 = 0; op2 = Imm 3; rd = 1 }));
  set_vis st 1 3;
  (* f1 := float 3; f2 := float 4; f3 := f1 * f2 *)
  st.State.fregs.(1) <- Semantics.float_to_bits 3.0;
  st.State.fregs.(2) <- Semantics.float_to_bits 4.0;
  ignore (exec1 st (Fpop { op = Fmul; rs1 = 1; rs2 = 2; rd = 3 }));
  check_int "3*4" 12 (Semantics.fpu_result Fstoi st.State.fregs.(3) 0);
  ignore (exec1 st (Fpop { op = Fitos; rs1 = 0; rs2 = 0; rd = 4 }));
  ()

(* Fstoi saturation semantics (DESIGN.md §Float-to-int): [int_of_float] on
   NaN, ±inf or out-of-int32-range values is unspecified in OCaml, so the
   conversion pins them — NaN -> 0, overflow clamps to the int32 extremes,
   everything in range truncates toward zero. Both execution paths (boxed
   exec and packed exec_into) share this helper, so the reproducer files
   that exercise float conversions are portable. *)
let test_fstoi_saturation () =
  let conv f = Semantics.fpu_result Fstoi (Semantics.float_to_bits f) 0 in
  check_int "NaN -> 0" 0 (conv Float.nan);
  check_int "+inf clamps to int32 max" 0x7FFFFFFF (conv Float.infinity);
  check_int "-inf clamps to int32 min" (-0x80000000) (conv Float.neg_infinity);
  check_int "above range clamps" 0x7FFFFFFF (conv 1e10);
  check_int "below range clamps" (-0x80000000) (conv (-1e10));
  check_int "2^31 clamps" 0x7FFFFFFF (conv 2147483648.0);
  check_int "truncates toward zero" 100 (conv 100.9);
  check_int "negative truncates toward zero" (-100) (conv (-100.9));
  check_int "zero" 0 (conv 0.0);
  (* -0.0 and subnormals land on 0 through plain truncation *)
  check_int "negative zero" 0 (conv (-0.0))

(* ---- encode/decode ---- *)

let gen_reg = QCheck2.Gen.int_range 0 31

let gen_operand =
  QCheck2.Gen.(
    oneof [ map (fun r -> Instr.Reg r) gen_reg; map (fun i -> Instr.Imm i) (int_range (-2048) 2047) ])

(* Every instruction form except [Halt], with branch and call targets
   around [pc = 0x10000]. *)
let gen_exec_instr =
  let open QCheck2.Gen in
  let pc = 0x10000 in
  let gen_alu =
    oneofl
      [
        Instr.Add; Sub; And; Andn; Or; Orn; Xor; Xnor; Sll; Srl; Sra; Smul;
        Umul; Sdiv; Udiv;
      ]
  in
  let gen_cond =
    oneofl [ Instr.A; E; NE; L; LE; G; GE; LU; LEU; GU; GEU; Neg; Pos ]
  in
  let gen_target = map (fun d -> pc + (d * 4)) (int_range (-100000) 100000) in
  oneof
    [
      return Instr.Nop;
      map (fun n -> Instr.Trap n) (int_range 0 255);
      map
        (fun (op, cc, rs1, op2, rd) -> Instr.Alu { op; cc; rs1; op2; rd })
        (tup5 gen_alu bool gen_reg gen_operand gen_reg);
      map
        (fun (imm, rd) -> Instr.Sethi { imm; rd })
        (tup2 (int_range 0 0x3FFFFF) gen_reg);
      map
        (fun (size, rs1, op2, rd) -> Instr.Load { size; rs1; op2; rd })
        (tup4 (oneofl [ Instr.Lsb; Lub; Lsh; Luh; Lw ]) gen_reg gen_operand gen_reg);
      map
        (fun (size, rs, rs1, op2) -> Instr.Store { size; rs; rs1; op2 })
        (tup4 (oneofl [ Instr.Sb; Sh; Sw ]) gen_reg gen_reg gen_operand);
      map
        (fun (cond, target) -> Instr.Branch { cond; target })
        (tup2 gen_cond gen_target);
      map (fun target -> Instr.Call { target }) gen_target;
      map
        (fun (rs1, op2, rd) -> Instr.Jmpl { rs1; op2; rd })
        (tup3 gen_reg gen_operand gen_reg);
      map
        (fun (rs1, op2, rd) -> Instr.Save { rs1; op2; rd })
        (tup3 gen_reg gen_operand gen_reg);
      map
        (fun (rs1, op2, rd) -> Instr.Restore { rs1; op2; rd })
        (tup3 gen_reg gen_operand gen_reg);
      map
        (fun (op, rs1, rs2, rd) -> Instr.Fpop { op; rs1; rs2; rd })
        (tup4 (oneofl [ Instr.Fadd; Fsub; Fmul; Fdiv; Fitos; Fstoi ]) gen_reg gen_reg gen_reg);
      map
        (fun (rs1, op2, rd) -> Instr.Fload { rs1; op2; rd })
        (tup3 gen_reg gen_operand gen_reg);
      map
        (fun (rd, rs1, op2) -> Instr.Fstore { rd; rs1; op2 })
        (tup3 gen_reg gen_reg gen_operand);
    ]

let gen_instr =
  QCheck2.Gen.(frequency [ (1, return Instr.Halt); (14, gen_exec_instr) ])

let prop_encode_roundtrip =
  QCheck2.Test.make ~count:2000 ~name:"encode/decode round-trip"
    ~print:Instr.show gen_instr (fun i ->
      let pc = 0x10000 in
      Instr.equal (Encode.decode ~pc (Encode.encode ~pc i)) i)

let prop_encode_32bit =
  QCheck2.Test.make ~count:1000 ~name:"encodings fit in 32 bits" gen_instr
    (fun i ->
      let w = Encode.encode ~pc:0x10000 i in
      w >= 0 && w <= 0xFFFFFFFF)

(* The full surface round-trip: encode -> decode -> disassemble ->
   re-assemble must reproduce the instruction, for every instruction form.
   This pins the three surfaces (binary format, disassembly syntax,
   assembler grammar) to one another — a reproducer file written by the
   fuzzer's shrinker relies on exactly this loop. Branch/call targets are
   kept non-negative: the disassembler prints targets with %#x, which is
   only re-parseable for values that are in-range absolute addresses. *)
let gen_instr_printable =
  let open QCheck2.Gen in
  let pc = 0x10000 in
  map
    (fun i ->
      match i with
      | Instr.Branch { cond; target } ->
        Instr.Branch { cond; target = max 0 (min target 0x3FFFFC) }
      | Instr.Call { target } ->
        Instr.Call { target = max 0 (min target 0x3FFFFC) }
      | i -> i)
    gen_instr
  |> fun g ->
  map (fun i -> (pc, i)) g

let prop_disasm_assemble_roundtrip =
  QCheck2.Test.make ~count:2000 ~name:"encode/disasm/assemble round-trip"
    ~print:(fun (_, i) -> Instr.show i)
    gen_instr_printable
    (fun (pc, i) ->
      let decoded = Encode.decode ~pc (Encode.encode ~pc i) in
      let src = Dts_isa.Disasm.to_string decoded ^ "\n" in
      let p = Dts_asm.Assembler.assemble ~text_base:pc src in
      match p.Dts_asm.Program.text with
      | [| (addr, reassembled) |] ->
        addr = pc && Instr.equal reassembled decoded && Instr.equal decoded i
      | _ -> false)

(* ---- exec and exec_into agree, one instruction at a time ---- *)

(* A random architectural state as plain data, so QCheck can print and
   shrink it. Register values mix small integers, the int32 extremes, full
   32-bit patterns and addresses into a randomly filled data window
   (aligned or not), so memory accesses and jumps both succeed and trap.
   The window spill stack holds [spilled] frames and [resident] more
   windows are in use, so saves and restores reach overflow, underflow and
   the empty-stack fault. *)
type rand_state = {
  nwindows : int;
  cwp : int;
  spilled : int;
  resident : int;
  icc : int;
  iregs : int array;
  fregs : int array;
  data : int array;  (** the data window's words, then the spill stack's *)
}

let data_words = 64

let gen_word = QCheck2.Gen.map Semantics.norm32 (QCheck2.Gen.int_bound 0xFFFFFFFF)

let gen_rand_state =
  let open QCheck2.Gen in
  let gen_value =
    frequency
      [
        (2, int_range (-8) 8);
        (1, oneofl [ 0x7FFFFFFF; -0x80000000 ]);
        (1, gen_word);
        (3, map (fun o -> Layout.data_base + o) (int_bound ((4 * data_words) - 1)));
      ]
  in
  let* nwindows = int_range 2 8 in
  let* cwp = int_bound (nwindows - 1) in
  let* spilled = int_bound 2 in
  let* resident = int_bound (nwindows - 1) in
  let* icc = int_bound 15 in
  let* iregs = array_repeat (State.n_globals + (nwindows * 16)) gen_value in
  let* fregs = array_repeat 32 gen_word in
  let+ data = array_repeat (data_words + (16 * spilled)) gen_word in
  { nwindows; cwp; spilled; resident; icc; iregs; fregs; data }

let show_rand_state r =
  let ints a = String.concat " " (Array.to_list (Array.map string_of_int a)) in
  Printf.sprintf
    "nwindows=%d cwp=%d spilled=%d resident=%d icc=%d\niregs=%s\nfregs=%s\ndata=%s"
    r.nwindows r.cwp r.spilled r.resident r.icc (ints r.iregs) (ints r.fregs)
    (ints r.data)

let exec_pc = 0x10000 (* [gen_exec_instr]'s targets are around this pc *)

let state_of r =
  let st = State.create ~nwindows:r.nwindows () in
  Array.blit r.iregs 1 st.iregs 1 (Array.length r.iregs - 1);
  Array.blit r.fregs 0 st.fregs 0 32;
  st.icc <- r.icc;
  st.cwp <- r.cwp;
  st.wdepth <- r.spilled + r.resident;
  st.wspill_sp <- Layout.wspill_base + (64 * r.spilled);
  Array.iteri
    (fun k w ->
      let addr =
        if k < data_words then Layout.data_base + (4 * k)
        else Layout.wspill_base + (4 * (k - data_words))
      in
      Dts_mem.Memory.write st.mem ~addr ~size:4 w)
    r.data;
  st.pc <- exec_pc;
  st

(* What one step observed besides the end state: the next PC, the taken
   flag and the load and store (address, size) — or the fatal fault. *)
type observed = (int * bool * (int * int) option * (int * int) option, string) result

let step_boxed st instr : observed =
  match exec1 st instr with
  | out ->
    Ok (out.next_pc, out.taken, out.load,
        Option.map (fun (a, s, _) -> (a, s)) out.store)
  | exception Semantics.Fatal_fault m -> Error m

let step_packed st instr : observed =
  let cwp = st.State.cwp and pc = st.State.pc in
  let u = Uop.of_instr ~pc instr in
  let b = Semantics.make_buf () in
  match
    Semantics.exec_into st ~cwp ~pc u b;
    if b.b_trap <> Semantics.t_none then
      Semantics.service_and_exec_into st ~cwp ~pc u b
  with
  | () ->
    Semantics.apply_buf st b;
    let access size addr = if size = 0 then None else Some (addr, size) in
    Ok (b.b_next_pc, b.b_taken, access b.b_load_size b.b_load_addr,
        access b.b_store_size b.b_store_addr)
  | exception Semantics.Fatal_fault m -> Error m

(* The sequential engines run only the packed path; the boxed one is the
   VLIW Engine's and this property's reference. Both sides start from
   copies of one random state and must observe and leave the same. *)
let prop_exec_matches_exec_into =
  QCheck2.Test.make ~count:1000 ~name:"exec = exec_into per instruction"
    ~print:(fun (r, i) -> Instr.show i ^ "\n" ^ show_rand_state r)
    QCheck2.Gen.(pair gen_rand_state gen_exec_instr)
    (fun (r, instr) ->
      let a = state_of r in
      let b = State.copy a in
      step_boxed a instr = step_packed b instr
      && State.equal a b && a.traps = b.traps && a.instret = b.instret)

let test_decode_error () =
  Alcotest.check_raises "opcode 15 invalid"
    (Encode.Decode_error { pc = 0; word = 0xF0000000; reason = "opcode" })
    (fun () -> ignore (Encode.decode ~pc:0 0xF0000000))

(* ---- read/write sets ---- *)

let test_rwsets () =
  let nwindows = 8 in
  let reads, writes =
    Rwsets.of_instr ~nwindows ~cwp:0
      (Alu { op = Add; cc = true; rs1 = 9; op2 = Reg 10; rd = 11 })
  in
  let p r = State.phys ~nwindows ~cwp:0 r in
  check_bool "reads rs1" true (List.mem (Storage.Int_reg (p 9)) reads);
  check_bool "reads op2" true (List.mem (Storage.Int_reg (p 10)) reads);
  check_bool "writes rd" true (List.mem (Storage.Int_reg (p 11)) writes);
  check_bool "writes flags" true (List.mem Storage.Flags writes);
  (* g0 never appears *)
  let reads, writes =
    Rwsets.of_instr ~nwindows ~cwp:0
      (Alu { op = Add; cc = false; rs1 = 0; op2 = Imm 1; rd = 0 })
  in
  check_bool "g0 invisible" true (reads = [] && writes = [])

let test_rwsets_mem () =
  let reads, writes =
    Rwsets.of_instr ~nwindows:8 ~cwp:0 ~mem:(0x100, 4)
      (Store { size = Sw; rs = 9; rs1 = 10; op2 = Imm 4 })
  in
  check_bool "store writes mem" true
    (List.mem (Storage.Mem { addr = 0x100; size = 4 }) writes);
  check_bool "store reads data reg" true
    (List.exists (function Storage.Int_reg _ -> true | _ -> false) reads)

let test_rwsets_window_sharing () =
  let nwindows = 8 in
  (* caller %o0 at cwp=0 must be the same storage as callee %i0 at cwp=7 *)
  let caller_o0 = State.phys ~nwindows ~cwp:0 8 in
  let callee_i0 = State.phys ~nwindows ~cwp:7 24 in
  check_int "window overlap" caller_o0 callee_i0;
  (* distinct frames use distinct locals *)
  let l0_a = State.phys ~nwindows ~cwp:0 16 in
  let l0_b = State.phys ~nwindows ~cwp:7 16 in
  check_bool "locals distinct" true (l0_a <> l0_b)

let test_storage_overlap () =
  check_bool "mem ranges overlap" true
    (Storage.overlaps
       (Mem { addr = 0x100; size = 4 })
       (Mem { addr = 0x102; size = 2 }));
  check_bool "mem ranges disjoint" false
    (Storage.overlaps
       (Mem { addr = 0x100; size = 4 })
       (Mem { addr = 0x104; size = 4 }));
  check_bool "reg vs mem" false
    (Storage.overlaps (Int_reg 5) (Mem { addr = 0x100; size = 4 }))

let test_disasm_strings () =
  let d i = Dts_isa.Disasm.to_string i in
  Alcotest.(check string) "add" "add %o1, 5, %o2"
    (d (Alu { op = Add; cc = false; rs1 = 9; op2 = Imm 5; rd = 10 }));
  Alcotest.(check string) "subcc" "subcc %g1, %g2, %g0"
    (d (Alu { op = Sub; cc = true; rs1 = 1; op2 = Reg 2; rd = 0 }));
  Alcotest.(check string) "ld" "ld [%sp+8], %l0"
    (d (Load { size = Lw; rs1 = 14; op2 = Imm 8; rd = 16 }));
  Alcotest.(check string) "st" "st %i0, [%fp+-4]"
    (d (Store { size = Sw; rs = 24; rs1 = 30; op2 = Imm (-4) }));
  Alcotest.(check string) "branch" "ble 0x2000"
    (d (Branch { cond = LE; target = 0x2000 }));
  Alcotest.(check string) "save" "save %sp, -96, %sp"
    (d (Save { rs1 = 14; op2 = Imm (-96); rd = 14 }))

let test_encoding_golden_vectors () =
  (* the binary format is part of the public contract; pin a few words *)
  let enc i = Encode.encode ~pc:0x1000 i in
  Alcotest.(check int) "nop" 0 (enc Nop);
  Alcotest.(check int) "halt" 0xE0000000 (enc Halt);
  Alcotest.(check int) "add g1+1->g2"
    ((1 lsl 28) lor (1 lsl 18) lor (2 lsl 13) lor (1 lsl 12) lor 1)
    (enc (Alu { op = Add; cc = false; rs1 = 1; op2 = Imm 1; rd = 2 }));
  (* branch forward by 4 instructions *)
  Alcotest.(check int) "be +16"
    ((5 lsl 28) lor (1 lsl 24) lor 4)
    (enc (Branch { cond = E; target = 0x1010 }))

let test_latency_model () =
  let lat = Instr.multicycle_latencies in
  Alcotest.(check int) "mul" 3
    (Instr.latency lat (Alu { op = Smul; cc = false; rs1 = 1; op2 = Imm 1; rd = 2 }));
  Alcotest.(check int) "div" 8
    (Instr.latency lat (Alu { op = Sdiv; cc = false; rs1 = 1; op2 = Imm 1; rd = 2 }));
  Alcotest.(check int) "load" 2
    (Instr.latency lat (Load { size = Lw; rs1 = 1; op2 = Imm 0; rd = 2 }));
  Alcotest.(check int) "add" 1
    (Instr.latency lat (Alu { op = Add; cc = false; rs1 = 1; op2 = Imm 1; rd = 2 }));
  Alcotest.(check int) "max" 8 (Instr.max_latency lat)

let test_classification () =
  Alcotest.(check bool) "ba ignored" true
    (Instr.is_ignored_by_scheduler (Branch { cond = A; target = 0 }));
  Alcotest.(check bool) "bne not ignored" false
    (Instr.is_ignored_by_scheduler (Branch { cond = NE; target = 0 }));
  Alcotest.(check bool) "trap non-schedulable" true
    (Instr.is_non_schedulable (Trap 3));
  Alcotest.(check bool) "jmpl is conditional ctrl" true
    (Instr.is_conditional_ctrl (Jmpl { rs1 = 31; op2 = Imm 4; rd = 0 }));
  Alcotest.(check bool) "call is not" false
    (Instr.is_conditional_ctrl (Call { target = 0 }))

let suite =
  [
    Alcotest.test_case "alu basic" `Quick test_alu_basic;
    Alcotest.test_case "alu wraparound" `Quick test_alu_wraparound;
    Alcotest.test_case "g0 hardwired" `Quick test_g0_hardwired;
    Alcotest.test_case "shifts" `Quick test_shifts;
    Alcotest.test_case "division" `Quick test_div;
    Alcotest.test_case "subcc flags" `Quick test_subcc_flags;
    Alcotest.test_case "addcc carry" `Quick test_addcc_carry;
    Alcotest.test_case "cond eval" `Quick test_cond_eval;
    Alcotest.test_case "branch pc" `Quick test_branch_pc;
    Alcotest.test_case "call/jmpl" `Quick test_call_jmpl;
    Alcotest.test_case "load/store" `Quick test_load_store;
    Alcotest.test_case "misaligned trap" `Quick test_misaligned_trap;
    Alcotest.test_case "save/restore" `Quick test_save_restore;
    Alcotest.test_case "window overflow spill/fill" `Quick
      test_window_overflow_spill_fill;
    Alcotest.test_case "locals survive recursion" `Quick
      test_locals_survive_deep_recursion;
    Alcotest.test_case "fpu" `Quick test_fpu;
    Alcotest.test_case "fstoi saturation" `Quick test_fstoi_saturation;
    QCheck_alcotest.to_alcotest prop_encode_roundtrip;
    QCheck_alcotest.to_alcotest prop_encode_32bit;
    QCheck_alcotest.to_alcotest prop_disasm_assemble_roundtrip;
    QCheck_alcotest.to_alcotest prop_exec_matches_exec_into;
    Alcotest.test_case "decode error" `Quick test_decode_error;
    Alcotest.test_case "rwsets" `Quick test_rwsets;
    Alcotest.test_case "rwsets mem" `Quick test_rwsets_mem;
    Alcotest.test_case "window sharing" `Quick test_rwsets_window_sharing;
    Alcotest.test_case "storage overlap" `Quick test_storage_overlap;
    Alcotest.test_case "disasm strings" `Quick test_disasm_strings;
    Alcotest.test_case "encoding golden vectors" `Quick
      test_encoding_golden_vectors;
    Alcotest.test_case "latency model" `Quick test_latency_model;
    Alcotest.test_case "instruction classification" `Quick test_classification;
  ]
