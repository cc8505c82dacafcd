(** One-instruction operational semantics of SRISC.

    Every engine in the repository executes instructions through this module:
    the golden test machine, the Primary Processor, and the VLIW Engine. The
    VLIW Engine needs effects {e described} rather than applied (it buffers
    all writes of a long instruction and redirects renamed destinations), so
    {!exec} is split from {!apply}.

    [exec] takes the window pointer explicitly: in VLIW mode an instruction
    executes with the cwp value observed when it was scheduled, which may
    differ from the architectural cwp at the start of its long instruction
    (§3.9 — "the value of the cwp register accompanies the instructions"). *)

exception Fatal_fault of string
(** An unrecoverable program fault (e.g. a misaligned access replayed by the
    Primary Processor, or window underflow with an empty spill stack). *)

type trap =
  | Window_overflow
  | Window_underflow
  | Misaligned of int
  | Software of int
[@@deriving show { with_path = false }, eq]

type write =
  | W_phys of int * int  (** physical integer register := value *)
  | W_freg of int * int
  | W_icc of int
  | W_win of int * int  (** cwp := v1, window depth := v2 *)
[@@deriving show { with_path = false }, eq]

type outcome = {
  writes : write list;
  store : (int * int * int) option;  (** addr, size, value *)
  load : (int * int) option;  (** addr, size *)
  next_pc : int;
  taken : bool;  (** control transfer took its target *)
  trap : trap option;
}

let norm32 v =
  let shift = Sys.int_size - 32 in
  (v lsl shift) asr shift

let u32 v = v land 0xFFFFFFFF

let eval_cond icc cond =
  let n = State.icc_n icc
  and z = State.icc_z icc
  and v = State.icc_v icc
  and c = State.icc_c icc in
  let ( <> ) = Stdlib.( <> ) in
  match (cond : Instr.cond) with
  | A -> true
  | E -> z
  | NE -> not z
  | L -> n <> v
  | LE -> z || n <> v
  | G -> not (z || n <> v)
  | GE -> not (n <> v)
  | LU -> c
  | LEU -> c || z
  | GU -> not (c || z)
  | GEU -> not c
  | Neg -> n
  | Pos -> not n

let alu_result (op : Instr.alu) a b =
  let sh = b land 31 in
  match op with
  | Add -> norm32 (a + b)
  | Sub -> norm32 (a - b)
  | And -> a land b
  | Andn -> a land lnot b
  | Or -> a lor b
  | Orn -> norm32 (a lor lnot b)
  | Xor -> a lxor b
  | Xnor -> norm32 (lnot (a lxor b))
  | Sll -> norm32 (a lsl sh)
  | Srl -> norm32 (u32 a lsr sh)
  | Sra -> norm32 a asr sh
  | Smul | Umul -> norm32 (a * b)
  | Sdiv -> if b = 0 then 0 else norm32 (a / b)
  | Udiv -> if b = 0 then 0 else norm32 (u32 a / u32 b)

(* Int-coded twins of {!alu_result} / {!alu_icc} / {!eval_cond} operating
   directly on the {!Encode.alu_code} / [cond_code] numbering cached in
   packed uops: {!exec_into} dispatches once on the code instead of
   rebuilding the variant and matching it again. Order must match
   {!Encode.alu_code}: Add Sub And Andn Or Orn Xor Xnor Sll Srl Sra Smul
   Umul Sdiv Udiv. *)
let[@inline] alu_result_code code a b =
  match code with
  | 0 -> norm32 (a + b)
  | 1 -> norm32 (a - b)
  | 2 -> a land b
  | 3 -> a land lnot b
  | 4 -> a lor b
  | 5 -> norm32 (a lor lnot b)
  | 6 -> a lxor b
  | 7 -> norm32 (lnot (a lxor b))
  | 8 -> norm32 (a lsl (b land 31))
  | 9 -> norm32 (u32 a lsr (b land 31))
  | 10 -> norm32 a asr (b land 31)
  | 11 | 12 -> norm32 (a * b)
  | 13 -> if b = 0 then 0 else norm32 (a / b)
  | _ -> if b = 0 then 0 else norm32 (u32 a / u32 b)

let[@inline] alu_icc_code code a b r =
  let n = r < 0 and z = r = 0 in
  if code = 0 then
    let c = u32 a + u32 b > 0xFFFFFFFF in
    let v = a >= 0 = (b >= 0) && r >= 0 <> (a >= 0) in
    State.make_icc ~n ~z ~v ~c
  else if code = 1 then
    let c = u32 a < u32 b in
    let v = a >= 0 <> (b >= 0) && r >= 0 <> (a >= 0) in
    State.make_icc ~n ~z ~v ~c
  else State.make_icc ~n ~z ~v:false ~c:false

(* {!Encode.cond_code} order: A E NE L LE G GE LU LEU GU GEU Neg Pos. *)
let[@inline] eval_cond_code icc code =
  let n = State.icc_n icc
  and z = State.icc_z icc
  and v = State.icc_v icc
  and c = State.icc_c icc in
  match code with
  | 0 -> true
  | 1 -> z
  | 2 -> not z
  | 3 -> n <> v
  | 4 -> z || n <> v
  | 5 -> not (z || n <> v)
  | 6 -> n = v
  | 7 -> c
  | 8 -> c || z
  | 9 -> not (c || z)
  | 10 -> not c
  | 11 -> n
  | _ -> not n

let alu_icc (op : Instr.alu) a b r =
  let n = r < 0 and z = r = 0 in
  match op with
  | Add ->
    let c = u32 a + u32 b > 0xFFFFFFFF in
    let v = a >= 0 = (b >= 0) && r >= 0 <> (a >= 0) in
    State.make_icc ~n ~z ~v ~c
  | Sub ->
    let c = u32 a < u32 b in
    let v = a >= 0 <> (b >= 0) && r >= 0 <> (a >= 0) in
    State.make_icc ~n ~z ~v ~c
  | And | Andn | Or | Orn | Xor | Xnor | Sll | Srl | Sra | Smul | Umul | Sdiv
  | Udiv ->
    State.make_icc ~n ~z ~v:false ~c:false

(* float register helpers: registers hold raw IEEE-754 single bit patterns *)
let bits_to_float b = Int32.float_of_bits (Int32.of_int b)
let float_to_bits f = norm32 (Int32.to_int (Int32.bits_of_float f))

let fpu_result (op : Instr.fpu) a b =
  match op with
  | Fadd -> float_to_bits (bits_to_float a +. bits_to_float b)
  | Fsub -> float_to_bits (bits_to_float a -. bits_to_float b)
  | Fmul -> float_to_bits (bits_to_float a *. bits_to_float b)
  | Fdiv -> float_to_bits (bits_to_float a /. bits_to_float b)
  | Fitos -> float_to_bits (float_of_int a)
  | Fstoi ->
    (* Saturating conversion (DESIGN.md §Float-to-int): [int_of_float] on
       NaN, ±inf or values outside the int32 range is unspecified in OCaml,
       so the result is pinned here: NaN -> 0, >= 2^31 -> int32 max,
       <= -(2^31+1) -> int32 min, everything else truncates toward zero. *)
    let f = bits_to_float a in
    if Float.is_nan f then 0
    else if f >= 2147483648.0 then 0x7FFFFFFF
    else if f <= -2147483649.0 then norm32 0x80000000
    else norm32 (int_of_float f)

(* Window spill/fill microroutine (DESIGN.md §2): a frame's 16-register
   window region is spilled when a save would clobber live data, and
   refilled LIFO on the matching underflowing restore. Both the golden
   machine and the DTSVLIW run exactly this routine, so trap behaviour is
   observationally identical. *)

let spilled_frames st = (st.State.wspill_sp - Layout.wspill_base) / 64
let resident_depth st = st.State.wdepth - spilled_frames st

let region_base ~nwindows w = State.n_globals + (w mod nwindows * 16)

let spill_window st w =
  let base = region_base ~nwindows:st.State.nwindows w in
  for k = 0 to 15 do
    Dts_mem.Memory.write st.State.mem
      ~addr:(st.State.wspill_sp + (k * 4))
      ~size:4 st.State.iregs.(base + k)
  done;
  st.State.wspill_sp <- st.State.wspill_sp + 64

let fill_window st w =
  if st.State.wspill_sp <= Layout.wspill_base then
    raise (Fatal_fault "window underflow with empty spill stack");
  st.State.wspill_sp <- st.State.wspill_sp - 64;
  let base = region_base ~nwindows:st.State.nwindows w in
  for k = 0 to 15 do
    State.set_phys st (base + k)
      (Dts_mem.Memory.read st.State.mem
         ~addr:(st.State.wspill_sp + (k * 4))
         ~size:4 ~signed:true)
  done

let no_effect ~pc =
  {
    writes = [];
    store = None;
    load = None;
    next_pc = pc + Instr.bytes;
    taken = false;
    trap = None;
  }

let trap_outcome ~pc t = { (no_effect ~pc) with trap = Some t }

(** Read overrides: how the VLIW Engine forwards renamed sources (§3.2) and
    serves loads from the data store list (§3.11) without the sequential
    engines paying for it. Overrides are keyed directly by physical integer
    register index / fp register index / the flags, so probing one is an
    integer comparison — no [Storage.t] value is boxed per register read.
    [None] from an override means "read the architectural state". *)
type read_ov = {
  ov_phys : int -> int option;  (** physical integer register index *)
  ov_freg : int -> int option;
  ov_icc : unit -> int option;
  ov_mem : addr:int -> size:int -> signed:bool -> int option;
}

(** The identity override (reads architectural state only). Statically
    allocated: the sequential engines' [exec] calls share it, so the
    default costs nothing per instruction. *)
let no_ov =
  {
    ov_phys = (fun _ -> None);
    ov_freg = (fun _ -> None);
    ov_icc = (fun () -> None);
    ov_mem = (fun ~addr:_ ~size:_ ~signed:_ -> None);
  }

(** Describe the effects of executing [instr] at [pc] with window pointer
    [cwp], reading the current state (including memory for loads) but
    mutating nothing. A [Some _] trap means the instruction did not execute;
    {!service_and_exec} runs the microroutine and retries. *)
let exec ?(ov = no_ov) st ~cwp ~pc (instr : Instr.t) =
  let reg r =
    if r = 0 then 0
    else
      let p = State.phys_of st ~cwp r in
      match ov.ov_phys p with Some v -> v | None -> st.State.iregs.(p)
  in
  let freg f =
    match ov.ov_freg f with Some v -> v | None -> st.State.fregs.(f)
  in
  let icc () = match ov.ov_icc () with Some v -> v | None -> st.State.icc in
  let opval (op2 : Instr.operand) =
    match op2 with Reg r -> reg r | Imm i -> i
  in
  let wreg r v = if r = 0 then [] else [ W_phys (State.phys_of st ~cwp r, v) ] in
  match instr with
  | Nop -> no_effect ~pc
  | Halt -> { (no_effect ~pc) with next_pc = pc }
  | Trap n -> trap_outcome ~pc (Software n)
  | Alu { op; cc; rs1; op2; rd } ->
    let a = reg rs1 and b = opval op2 in
    let r = alu_result op a b in
    let writes = wreg rd r in
    let writes = if cc then W_icc (alu_icc op a b r) :: writes else writes in
    { (no_effect ~pc) with writes }
  | Sethi { imm; rd } ->
    { (no_effect ~pc) with writes = wreg rd (norm32 (imm lsl 10)) }
  | Load { size; rs1; op2; rd } ->
    let addr = u32 (reg rs1 + opval op2) in
    let bytes = Instr.lsize_bytes size in
    if addr land (bytes - 1) <> 0 then trap_outcome ~pc (Misaligned addr)
    else
      let signed = match size with Lsb | Lsh | Lw -> true | Lub | Luh -> false in
      let v =
        match ov.ov_mem ~addr ~size:bytes ~signed with
        | Some v -> v
        | None -> Dts_mem.Memory.read st.State.mem ~addr ~size:bytes ~signed
      in
      { (no_effect ~pc) with writes = wreg rd v; load = Some (addr, bytes) }
  | Store { size; rs; rs1; op2 } ->
    let addr = u32 (reg rs1 + opval op2) in
    let bytes = Instr.ssize_bytes size in
    if addr land (bytes - 1) <> 0 then trap_outcome ~pc (Misaligned addr)
    else { (no_effect ~pc) with store = Some (addr, bytes, reg rs) }
  | Fload { rs1; op2; rd } ->
    let addr = u32 (reg rs1 + opval op2) in
    if addr land 3 <> 0 then trap_outcome ~pc (Misaligned addr)
    else
      let v =
        match ov.ov_mem ~addr ~size:4 ~signed:true with
        | Some v -> v
        | None -> Dts_mem.Memory.read st.State.mem ~addr ~size:4 ~signed:true
      in
      { (no_effect ~pc) with writes = [ W_freg (rd, v) ]; load = Some (addr, 4) }
  | Fstore { rd; rs1; op2 } ->
    let addr = u32 (reg rs1 + opval op2) in
    if addr land 3 <> 0 then trap_outcome ~pc (Misaligned addr)
    else { (no_effect ~pc) with store = Some (addr, 4, freg rd) }
  | Fpop { op; rs1; rs2; rd } ->
    let r = fpu_result op (freg rs1) (freg rs2) in
    { (no_effect ~pc) with writes = [ W_freg (rd, r) ] }
  | Branch { cond; target } ->
    let taken = eval_cond (icc ()) cond in
    {
      (no_effect ~pc) with
      next_pc = (if taken then target else pc + Instr.bytes);
      taken;
    }
  | Call { target } ->
    {
      (no_effect ~pc) with
      writes = wreg 15 pc;
      next_pc = target;
      taken = true;
    }
  | Jmpl { rs1; op2; rd } ->
    let target = u32 (reg rs1 + opval op2) in
    if target land 3 <> 0 then trap_outcome ~pc (Misaligned target)
    else { (no_effect ~pc) with writes = wreg rd pc; next_pc = target; taken = true }
  | Save { rs1; op2; rd } ->
    if resident_depth st >= st.State.nwindows - 2 then
      trap_outcome ~pc Window_overflow
    else
      let v = norm32 (reg rs1 + opval op2) in
      let new_cwp = (cwp - 1 + st.State.nwindows) mod st.State.nwindows in
      let writes = [ W_win (new_cwp, st.State.wdepth + 1) ] in
      let writes =
        if rd = 0 then writes
        else W_phys (State.phys ~nwindows:st.State.nwindows ~cwp:new_cwp rd, v) :: writes
      in
      { (no_effect ~pc) with writes }
  | Restore { rs1; op2; rd } ->
    if resident_depth st = 0 then trap_outcome ~pc Window_underflow
    else
      let v = norm32 (reg rs1 + opval op2) in
      let new_cwp = (cwp + 1) mod st.State.nwindows in
      let writes = [ W_win (new_cwp, st.State.wdepth - 1) ] in
      let writes =
        if rd = 0 then writes
        else W_phys (State.phys ~nwindows:st.State.nwindows ~cwp:new_cwp rd, v) :: writes
      in
      { (no_effect ~pc) with writes }

(** Apply the register/flag/window writes of an outcome. *)
let apply_writes st writes =
  List.iter
    (fun w ->
      match w with
      | W_phys (p, v) -> State.set_phys st p v
      | W_freg (f, v) -> State.set_freg st f v
      | W_icc v -> st.State.icc <- v
      | W_win (cwp, depth) ->
        st.State.cwp <- cwp;
        st.State.wdepth <- depth)
    writes

(** Apply a full outcome: writes, the memory store, and the PC. *)
let apply st out =
  apply_writes st out.writes;
  (match out.store with
  | Some (addr, size, v) -> Dts_mem.Memory.write st.State.mem ~addr ~size v
  | None -> ());
  st.State.pc <- out.next_pc;
  st.State.instret <- st.State.instret + 1

(** Service the trap of a previously returned outcome, then re-execute.
    Used by the sequential engines; the VLIW Engine instead turns traps into
    block exceptions (§3.11). Raises {!Fatal_fault} for faults that have no
    microroutine. *)
let service_and_exec st ~cwp ~pc instr trap =
  (match trap with
  | Window_overflow ->
    let new_cwp = (cwp - 1 + st.State.nwindows) mod st.State.nwindows in
    spill_window st new_cwp;
    st.State.traps <- st.State.traps + 1
  | Window_underflow ->
    (* refill the ins-provider region of the frame being returned to:
       the restore enters window cwp+1, whose ins live in region cwp+2 *)
    fill_window st ((cwp + 2) mod st.State.nwindows);
    st.State.traps <- st.State.traps + 1
  | Software _ -> st.State.traps <- st.State.traps + 1
  | Misaligned a ->
    raise (Fatal_fault (Printf.sprintf "misaligned access at %#x (pc=%#x)" a pc)));
  match trap with
  | Software _ -> no_effect ~pc (* software traps are accounted no-ops *)
  | Window_overflow | Window_underflow -> (
    let out = exec st ~cwp ~pc instr in
    match out.trap with
    | None -> out
    | Some t ->
      raise
        (Fatal_fault
           (Printf.sprintf "trap %s persists after service at pc=%#x"
              (show_trap t) pc)))
  | Misaligned _ -> assert false

(** {1 The allocation-free sequential interpreter}

    {!exec} describes effects as an [outcome] record — a [writes] list plus
    two options — which costs ~50 minor words per instruction across the
    closures, the record copies and the boxing. The sequential engines (the
    golden test machine and the Primary Processor) apply every effect
    immediately and never rename anything, so they do not need the
    descriptive form: {!exec_into} executes a packed {!Uop} micro-op into a
    preallocated mutable {!outcome_buf} instead, allocating nothing. Both
    implement the same semantics: {!exec} is the VLIW Engine's interpreter
    and the reference that a QCheck property in [test/test_isa.ml] holds
    {!exec_into} to, one random instruction on one random state at a
    time. *)

(** Mutable per-engine scratch for one instruction's effects: fixed slots
    instead of a [write list], validity encoded in-band ([-1] = no register
    write, [-1] = icc unchanged, size [0] = no memory access) so no option
    is ever boxed. *)
type outcome_buf = {
  mutable b_w0 : int;  (** physical integer register to write, or -1 *)
  mutable b_w0v : int;
  mutable b_fw : int;  (** fp register to write, or -1 *)
  mutable b_fwv : int;
  mutable b_icc : int;  (** new icc, or -1 for unchanged *)
  mutable b_win : bool;  (** window movement (save/restore)? *)
  mutable b_cwp : int;
  mutable b_wdepth : int;
  mutable b_store_size : int;  (** 0 = no store *)
  mutable b_store_addr : int;
  mutable b_store_val : int;
  mutable b_load_size : int;  (** 0 = no load *)
  mutable b_load_addr : int;
  mutable b_next_pc : int;
  mutable b_taken : bool;
  mutable b_trap : int;  (** 0 none / 1 overflow / 2 underflow / 3 software
                             / 4 misaligned *)
  mutable b_trap_arg : int;  (** trap number / offending address *)
}

let t_none = 0
let t_overflow = 1
let t_underflow = 2
let t_software = 3
let t_misaligned = 4

let make_buf () =
  {
    b_w0 = -1;
    b_w0v = 0;
    b_fw = -1;
    b_fwv = 0;
    b_icc = -1;
    b_win = false;
    b_cwp = 0;
    b_wdepth = 0;
    b_store_size = 0;
    b_store_addr = 0;
    b_store_val = 0;
    b_load_size = 0;
    b_load_addr = 0;
    b_next_pc = 0;
    b_taken = false;
    b_trap = t_none;
    b_trap_arg = 0;
  }

let buf_reset ~pc b =
  b.b_w0 <- -1;
  b.b_fw <- -1;
  b.b_icc <- -1;
  b.b_win <- false;
  b.b_store_size <- 0;
  b.b_load_size <- 0;
  b.b_next_pc <- pc + Instr.bytes;
  b.b_taken <- false;
  b.b_trap <- t_none

let buf_trap b t arg =
  b.b_trap <- t;
  b.b_trap_arg <- arg

(** The {!trap} value an [outcome_buf] trap code denotes (diagnostics
    only — the hot path never materialises it). *)
let trap_of_buf b =
  if b.b_trap = t_overflow then Window_overflow
  else if b.b_trap = t_underflow then Window_underflow
  else if b.b_trap = t_software then Software b.b_trap_arg
  else Misaligned b.b_trap_arg

(** "No override" sentinel of {!read_ov_fast}: architectural values are
    32-bit sign-extended, so [min_int] (on a 63-bit int) can never be a
    real register, flag or loaded value. *)
let no_val = min_int

(** Unboxed counterpart of {!read_ov}: overrides answer with the value or
    {!no_val}, never a [Some] box. The VLIW plan executor forwards renamed
    sources and data-store-list bytes through this; the sequential engines
    pass [None] and pay one branch per read. *)
type read_ov_fast = {
  ovf_phys : int -> int;  (** physical integer register index -> value *)
  ovf_freg : int -> int;
  ovf_icc : unit -> int;
  ovf_mem : addr:int -> size:int -> signed:bool -> int;
}

(* Top-level read helpers: local closures over [ov]/[cwp] would be
   heap-allocated on every {!exec_into_ov} call (no flambda), so the reads
   take their environment as explicit arguments instead. *)

let[@inline] read_reg st (ov : read_ov_fast option) ~nwindows ~cwp r =
  if r = 0 then 0
  else
    let p = State.phys_fast ~nwindows ~cwp r in
    match ov with
    | None -> st.State.iregs.(p)
    | Some o ->
      let v = o.ovf_phys p in
      if v = no_val then st.State.iregs.(p) else v

let[@inline] read_freg st (ov : read_ov_fast option) f =
  match ov with
  | None -> st.State.fregs.(f)
  | Some o ->
    let v = o.ovf_freg f in
    if v = no_val then st.State.fregs.(f) else v

let[@inline] read_icc st (ov : read_ov_fast option) =
  match ov with
  | None -> st.State.icc
  | Some o ->
    let v = o.ovf_icc () in
    if v = no_val then st.State.icc else v

let[@inline] read_mem st (ov : read_ov_fast option) ~addr ~size ~signed =
  match ov with
  | None -> Dts_mem.Memory.read st.State.mem ~addr ~size ~signed
  | Some o ->
    let v = o.ovf_mem ~addr ~size ~signed in
    if v = no_val then Dts_mem.Memory.read st.State.mem ~addr ~size ~signed
    else v

(* operand 2: pre-resolved immediate or register *)
let[@inline] read_op2 st ov ~nwindows ~cwp u =
  if Uop.is_imm u then Uop.imm u
  else read_reg st ov ~nwindows ~cwp (Uop.rs2 u)

(** Execute the packed op [u] (the decode of the instruction at [pc]) under
    window pointer [cwp], leaving all effects in [b]. Reads architectural
    state directly, except where [ov] overrides a source — no allocation
    either way. Semantically identical to {!exec} followed by discarding
    the record. *)
let exec_into_ov st (ov : read_ov_fast option) ~cwp ~pc u b =
  buf_reset ~pc b;
  let nwindows = st.State.nwindows in
  let opc = Uop.opcode u in
  (* Dense two-level dispatch on the class-structured opcode space
     ([Uop]): the outer match on [opc lsr 4] and the class-6 inner match on
     [opc land 15] both compile to jump tables — no comparison chains on
     the hot path. *)
  match opc lsr 4 with
  | 0 | 1 ->
    (* alu; class 1 also sets the condition codes *)
    let a = read_reg st ov ~nwindows ~cwp (Uop.rs1 u)
    and b2 = read_op2 st ov ~nwindows ~cwp u in
    let code = opc land 15 in
    let r = alu_result_code code a b2 in
    let rd = Uop.rd u in
    if rd <> 0 then begin
      b.b_w0 <- State.phys_fast ~nwindows ~cwp rd;
      b.b_w0v <- r
    end;
    if opc >= Uop.u_alu_cc then b.b_icc <- alu_icc_code code a b2 r
  | 2 ->
    let addr = u32 (read_reg st ov ~nwindows ~cwp (Uop.rs1 u) + read_op2 st ov ~nwindows ~cwp u) in
    let idx = opc land 15 in
    let bytes = 1 lsl (idx lsr 1) in
    if addr land (bytes - 1) <> 0 then buf_trap b t_misaligned addr
    else begin
      let signed = idx land 1 = 0 in
      let v = read_mem st ov ~addr ~size:bytes ~signed in
      let rd = Uop.rd u in
      if rd <> 0 then begin
        b.b_w0 <- State.phys_fast ~nwindows ~cwp rd;
        b.b_w0v <- v
      end;
      b.b_load_size <- bytes;
      b.b_load_addr <- addr
    end
  | 3 ->
    let addr = u32 (read_reg st ov ~nwindows ~cwp (Uop.rs1 u) + read_op2 st ov ~nwindows ~cwp u) in
    let bytes = 1 lsl (opc land 15) in
    if addr land (bytes - 1) <> 0 then buf_trap b t_misaligned addr
    else begin
      b.b_store_size <- bytes;
      b.b_store_addr <- addr;
      b.b_store_val <- read_reg st ov ~nwindows ~cwp (Uop.rd u)
    end
  | 4 ->
    (* cond A has code 0 = always taken *)
    let code = opc land 15 in
    let taken = code = 0 || eval_cond_code (read_icc st ov) code in
    if taken then b.b_next_pc <- pc + Uop.imm u;
    b.b_taken <- taken
  | 5 ->
    let r =
      fpu_result
        (Encode.fpu_of_code (opc land 15))
        (read_freg st ov (Uop.rs1 u))
        (read_freg st ov (Uop.rs2 u))
    in
    b.b_fw <- Uop.rd u;
    b.b_fwv <- r
  | _ -> (
    match opc land 15 with
    | 0 ->
      (* sethi *)
      let rd = Uop.rd u in
      if rd <> 0 then begin
        b.b_w0 <- State.phys_fast ~nwindows ~cwp rd;
        b.b_w0v <- Uop.imm u
      end
    | 1 ->
      (* call *)
      b.b_w0 <- State.phys_fast ~nwindows ~cwp 15;
      b.b_w0v <- pc;
      b.b_next_pc <- pc + Uop.imm u;
      b.b_taken <- true
    | 2 ->
      (* jmpl *)
      let target = u32 (read_reg st ov ~nwindows ~cwp (Uop.rs1 u) + read_op2 st ov ~nwindows ~cwp u) in
      if target land 3 <> 0 then buf_trap b t_misaligned target
      else begin
        let rd = Uop.rd u in
        if rd <> 0 then begin
          b.b_w0 <- State.phys_fast ~nwindows ~cwp rd;
          b.b_w0v <- pc
        end;
        b.b_next_pc <- target;
        b.b_taken <- true
      end
    | 3 ->
      (* save *)
      if resident_depth st >= nwindows - 2 then buf_trap b t_overflow 0
      else begin
        let v = norm32 (read_reg st ov ~nwindows ~cwp (Uop.rs1 u) + read_op2 st ov ~nwindows ~cwp u) in
        let new_cwp = (cwp - 1 + nwindows) mod nwindows in
        b.b_win <- true;
        b.b_cwp <- new_cwp;
        b.b_wdepth <- st.State.wdepth + 1;
        let rd = Uop.rd u in
        if rd <> 0 then begin
          b.b_w0 <- State.phys_fast ~nwindows ~cwp:new_cwp rd;
          b.b_w0v <- v
        end
      end
    | 4 ->
      (* restore *)
      if resident_depth st = 0 then buf_trap b t_underflow 0
      else begin
        let v = norm32 (read_reg st ov ~nwindows ~cwp (Uop.rs1 u) + read_op2 st ov ~nwindows ~cwp u) in
        let new_cwp = (cwp + 1) mod nwindows in
        b.b_win <- true;
        b.b_cwp <- new_cwp;
        b.b_wdepth <- st.State.wdepth - 1;
        let rd = Uop.rd u in
        if rd <> 0 then begin
          b.b_w0 <- State.phys_fast ~nwindows ~cwp:new_cwp rd;
          b.b_w0v <- v
        end
      end
    | 5 ->
      (* fload *)
      let addr = u32 (read_reg st ov ~nwindows ~cwp (Uop.rs1 u) + read_op2 st ov ~nwindows ~cwp u) in
      if addr land 3 <> 0 then buf_trap b t_misaligned addr
      else begin
        b.b_fw <- Uop.rd u;
        b.b_fwv <- read_mem st ov ~addr ~size:4 ~signed:true;
        b.b_load_size <- 4;
        b.b_load_addr <- addr
      end
    | 6 ->
      (* fstore *)
      let addr = u32 (read_reg st ov ~nwindows ~cwp (Uop.rs1 u) + read_op2 st ov ~nwindows ~cwp u) in
      if addr land 3 <> 0 then buf_trap b t_misaligned addr
      else begin
        b.b_store_size <- 4;
        b.b_store_addr <- addr;
        b.b_store_val <- read_freg st ov (Uop.rd u)
      end
    | 7 -> buf_trap b t_software (Uop.imm u)
    | 8 -> (* halt *) b.b_next_pc <- pc
    | _ -> (* Nop *) ())

(** {!exec_into_ov} with no overrides — the sequential engines' entry. *)
let exec_into st ~cwp ~pc u b = exec_into_ov st None ~cwp ~pc u b

(** Apply a buffered outcome: mirrors {!apply} field for field. *)
let apply_buf st b =
  if b.b_w0 > 0 then State.set_phys st b.b_w0 b.b_w0v;
  if b.b_fw >= 0 then State.set_freg st b.b_fw b.b_fwv;
  if b.b_icc >= 0 then st.State.icc <- b.b_icc;
  if b.b_win then begin
    st.State.cwp <- b.b_cwp;
    st.State.wdepth <- b.b_wdepth
  end;
  if b.b_store_size <> 0 then
    Dts_mem.Memory.write st.State.mem ~addr:b.b_store_addr
      ~size:b.b_store_size b.b_store_val;
  st.State.pc <- b.b_next_pc;
  st.State.instret <- st.State.instret + 1

(** Buffered counterpart of {!service_and_exec}: service the trap flagged in
    [b], then re-execute [u] into [b] (or leave the accounted no-op for a
    software trap). Raises {!Fatal_fault} exactly where the boxed path
    does, with identical messages. *)
let service_and_exec_into st ~cwp ~pc u b =
  let nwindows = st.State.nwindows in
  let trap = b.b_trap in
  if trap = t_overflow then begin
    spill_window st ((cwp - 1 + nwindows) mod nwindows);
    st.State.traps <- st.State.traps + 1
  end
  else if trap = t_underflow then begin
    fill_window st ((cwp + 2) mod nwindows);
    st.State.traps <- st.State.traps + 1
  end
  else if trap = t_software then st.State.traps <- st.State.traps + 1
  else
    raise
      (Fatal_fault
         (Printf.sprintf "misaligned access at %#x (pc=%#x)" b.b_trap_arg pc));
  if trap = t_software then buf_reset ~pc b
  else begin
    exec_into st ~cwp ~pc u b;
    if b.b_trap <> t_none then
      raise
        (Fatal_fault
           (Printf.sprintf "trap %s persists after service at pc=%#x"
              (show_trap (trap_of_buf b)) pc))
  end
