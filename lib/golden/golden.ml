(** The golden reference machine — the paper's "test machine" (§4).

    A purely sequential SRISC interpreter with no timing model. It is used
    to (a) validate the DTSVLIW and DIF machines instruction-by-instruction
    in test mode, and (b) count the number of instructions needed for the
    sequential execution of a program, which is the numerator of the paper's
    instructions-per-cycle metric (a DTSVLIW alone cannot provide it because
    of copy instructions and speculation, §4). *)

exception Program_halted

type t = {
  st : Dts_isa.State.t;
  buf : Dts_isa.Semantics.outcome_buf;
      (** scratch for the allocation-free path; dead on the boxed path *)
  fastpath : bool;
}

let of_state ?(fastpath = true) st =
  { st; buf = Dts_isa.Semantics.make_buf (); fastpath }

let state t = t.st

(* the reference path: boxed outcomes through Semantics.exec — kept as the
   differential oracle for the fast path below *)
let step_ref t =
  let st = t.st in
  let pc = st.pc in
  let instr = Dts_isa.Predecode.fetch st.predecode ~addr:pc in
  if instr = Dts_isa.Instr.Halt then begin
    st.halted <- true;
    st.instret <- st.instret + 1;
    raise Program_halted
  end;
  let out = Dts_isa.Semantics.exec st ~cwp:st.cwp ~pc instr in
  let out =
    match out.trap with
    | None -> out
    | Some trap -> Dts_isa.Semantics.service_and_exec st ~cwp:st.cwp ~pc instr trap
  in
  Dts_isa.Semantics.apply st out

(* the fast path: packed micro-ops executed into the preallocated buffer —
   zero allocation per instruction *)
let step_fast t =
  let st = t.st in
  let pc = st.pc in
  let u = Dts_isa.Predecode.fetch_uop st.predecode ~addr:pc in
  if Dts_isa.Uop.opcode u = Dts_isa.Uop.u_halt then begin
    st.halted <- true;
    st.instret <- st.instret + 1;
    raise Program_halted
  end;
  let b = t.buf in
  Dts_isa.Semantics.exec_into st ~cwp:st.cwp ~pc u b;
  if b.b_trap <> 0 then
    Dts_isa.Semantics.service_and_exec_into st ~cwp:st.cwp ~pc u b;
  Dts_isa.Semantics.apply_buf st b

(** Execute exactly one instruction. Raises {!Program_halted} on [Halt]. *)
let step t =
  if t.st.halted then raise Program_halted;
  if t.fastpath then step_fast t else step_ref t

(** Run until [Halt] or until [max_instructions] more instructions have
    retired; returns the number retired by this call. *)
let run ?max_instructions t =
  let budget = match max_instructions with Some n -> n | None -> max_int in
  let st = t.st in
  let start = st.instret in
  let stop = if budget > max_int - start then max_int else start + budget in
  (* halt test and path dispatch hoisted out of the loop, as in
     {!advance_to_pc} *)
  (try
     if st.halted then raise Program_halted
     else if t.fastpath then
       while st.instret < stop do
         step_fast t
       done
     else
       while st.instret < stop do
         step_ref t
       done
   with Program_halted -> ());
  st.instret - start

(** Advance to the next occurrence of [pc] (a no-op if already there),
    stopping early on halt or when [fuel] runs out; returns the unspent
    fuel. This is the test-mode synchronisation primitive ("runs until its
    PC becomes equal to the DTSVLIW PC"): [pc] was reached iff the PC
    equals it afterwards, so a machine sitting halted {e at} [pc] has
    reached it whether the halt happened before or during the call. The
    inner loop is the sync hot path: on the fast path it runs {!step_fast}
    directly — one exception handler around the whole run instead of a
    handler, a halt test and a dispatch per step. *)
let advance_to_pc t ~pc ~fuel =
  let st = t.st in
  let fuel = ref fuel in
  if t.fastpath then begin
    try
      while st.pc <> pc && not st.halted && !fuel > 0 do
        step_fast t;
        decr fuel
      done
    with Program_halted -> decr fuel
  end
  else begin
    try
      while st.pc <> pc && not st.halted && !fuel > 0 do
        step_ref t;
        decr fuel
      done
    with Program_halted -> decr fuel
  end;
  !fuel
