(** Packed, operand-resolved micro-ops for the sequential interpreter.

    A micro-op is a single immediate [int] — one word, never boxed — that
    caches everything {!Semantics.exec_into} needs to execute an
    instruction without touching the [Instr.t] constructor: a flat opcode
    (variant tags and sub-fields collapsed into one dispatch code), the
    register fields, and a pre-resolved 32-bit immediate. Control-transfer
    targets are stored {e relative to the instruction's own address} so the
    packed form fits 32 signed bits even for targets near the top of the
    address space; [Sethi]'s shift is pre-applied at pack time.

    Layout (low to high):
    - bits 0..31: signed 32-bit immediate / displacement payload
    - bits 32..36: rs1
    - bits 37..41: rs2
    - bits 42..46: rd (for stores: the {e data} register)
    - bit 47: operand-2-is-immediate flag
    - bits 48..: opcode *)

let rs1_shift = 32
let rs2_shift = 37
let rd_shift = 42
let imm_flag = 1 lsl 47
let opc_shift = 48

(* Flat opcode space, class-structured: [opc lsr 4] is the instruction
   class and [opc land 15] the per-class operation code, kept in
   {!Encode.alu_code} / [lsize_code] / [ssize_code] / [cond_code] /
   [fpu_code] order. {!Semantics.exec_into} dispatches on the class with a
   dense 7-way match (a jump table), then decodes the low four bits
   arithmetically — no secondary branch chains. The cc variant of an ALU op
   is a class bit: class 0 is alu, class 1 is alu-with-cc, same low-bit op
   code. *)
let u_alu = 0x00 (* 0x00..0x0E: alu without cc *)
let u_alu_cc = 0x10 (* 0x10..0x1E: alu with cc, same low-bit op code *)
let u_last_alu = 0x1E
let u_load = 0x20 (* + lsize_code: Lsb Lub Lsh Luh Lw *)
let u_last_load = 0x24
let u_store = 0x30 (* + ssize_code: Sb Sh Sw *)
let u_last_store = 0x32
let u_branch = 0x40 (* + cond_code; cond A is [u_branch] itself *)
let u_last_branch = 0x4C
let u_fpop = 0x50 (* + fpu_code: Fadd Fsub Fmul Fdiv Fitos Fstoi *)
let u_last_fpop = 0x55

(* Class 6: singleton operations, distinguished by the low four bits. *)
let u_sethi = 0x60
let u_call = 0x61
let u_jmpl = 0x62
let u_save = 0x63
let u_restore = 0x64
let u_fload = 0x65
let u_fstore = 0x66
let u_trap = 0x67
let u_halt = 0x68
let u_nop = 0x69

(** Sentinel for an empty pre-decode slot; no packed op is ever negative. *)
let none = -1

let opcode u = u lsr opc_shift
let rd u = (u lsr rd_shift) land 31
let rs1 u = (u lsr rs1_shift) land 31
let rs2 u = (u lsr rs2_shift) land 31
let is_imm u = u land imm_flag <> 0

(** The immediate payload, sign-extended from 32 bits. *)
let imm u =
  let shift = Sys.int_size - 32 in
  (u lsl shift) asr shift

let norm32 v =
  let shift = Sys.int_size - 32 in
  (v lsl shift) asr shift

let pack ~opc ~rd:d ~rs1:a ~rs2:b ~is_imm:i ~imm:v =
  (opc lsl opc_shift)
  lor (if i then imm_flag else 0)
  lor (d lsl rd_shift)
  lor (b lsl rs2_shift)
  lor (a lsl rs1_shift)
  lor (v land 0xFFFFFFFF)

let pack_op2 ~opc ~rd ~rs1 (op2 : Instr.operand) =
  match op2 with
  | Reg r2 -> pack ~opc ~rd ~rs1 ~rs2:r2 ~is_imm:false ~imm:0
  | Imm v -> pack ~opc ~rd ~rs1 ~rs2:0 ~is_imm:true ~imm:v

(** Pack [instr] sitting at address [pc] (targets become displacements). *)
let of_instr ~pc (instr : Instr.t) =
  match instr with
  | Nop -> pack ~opc:u_nop ~rd:0 ~rs1:0 ~rs2:0 ~is_imm:false ~imm:0
  | Halt -> pack ~opc:u_halt ~rd:0 ~rs1:0 ~rs2:0 ~is_imm:false ~imm:0
  | Trap n -> pack ~opc:u_trap ~rd:0 ~rs1:0 ~rs2:0 ~is_imm:false ~imm:n
  | Alu { op; cc; rs1; op2; rd } ->
    let opc = (if cc then u_alu_cc else u_alu) + Encode.alu_code op in
    pack_op2 ~opc ~rd ~rs1 op2
  | Sethi { imm; rd } ->
    pack ~opc:u_sethi ~rd ~rs1:0 ~rs2:0 ~is_imm:true ~imm:(norm32 (imm lsl 10))
  | Load { size; rs1; op2; rd } ->
    pack_op2 ~opc:(u_load + Encode.lsize_code size) ~rd ~rs1 op2
  | Store { size; rs; rs1; op2 } ->
    pack_op2 ~opc:(u_store + Encode.ssize_code size) ~rd:rs ~rs1 op2
  | Branch { cond; target } ->
    pack
      ~opc:(u_branch + Encode.cond_code cond)
      ~rd:0 ~rs1:0 ~rs2:0 ~is_imm:true ~imm:(target - pc)
  | Call { target } ->
    pack ~opc:u_call ~rd:0 ~rs1:0 ~rs2:0 ~is_imm:true ~imm:(target - pc)
  | Jmpl { rs1; op2; rd } -> pack_op2 ~opc:u_jmpl ~rd ~rs1 op2
  | Save { rs1; op2; rd } -> pack_op2 ~opc:u_save ~rd ~rs1 op2
  | Restore { rs1; op2; rd } -> pack_op2 ~opc:u_restore ~rd ~rs1 op2
  | Fpop { op; rs1; rs2; rd } ->
    pack ~opc:(u_fpop + Encode.fpu_code op) ~rd ~rs1 ~rs2 ~is_imm:false ~imm:0
  | Fload { rs1; op2; rd } -> pack_op2 ~opc:u_fload ~rd ~rs1 op2
  | Fstore { rd; rs1; op2 } -> pack_op2 ~opc:u_fstore ~rd ~rs1 op2

(** Execute-stage latency without materialising the [Instr.t]. Mirrors
    {!Instr.latency}. *)
let latency (lat : Instr.latencies) u =
  let opc = opcode u in
  match opc lsr 4 with
  | 0 | 1 ->
    (* Smul=11 Umul=12 Sdiv=13 Udiv=14 in Encode.alu_code order *)
    let code = opc land 15 in
    if code < 11 then 1 else if code <= 12 then lat.l_mul else lat.l_div
  | 2 -> lat.l_load
  | 5 -> lat.l_fp
  | 6 -> if opc = u_fload then lat.l_load else 1
  | _ -> 1
