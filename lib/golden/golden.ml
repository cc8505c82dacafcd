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
  buf : Dts_isa.Semantics.outcome_buf;  (** outcome scratch *)
}

let of_state st = { st; buf = Dts_isa.Semantics.make_buf () }

let state t = t.st

(* Packed micro-ops executed into the preallocated buffer: zero allocation
   per instruction. The caller has checked [halted]. *)
let step_unchecked t =
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
  step_unchecked t

(** Run until [Halt] or until [max_instructions] more instructions have
    retired; returns the number retired by this call. *)
let run ?max_instructions t =
  let budget = match max_instructions with Some n -> n | None -> max_int in
  let st = t.st in
  let start = st.instret in
  let stop = if budget > max_int - start then max_int else start + budget in
  (* the halt test is hoisted out of the loop, as in {!advance_to_pc} *)
  (try
     if st.halted then raise Program_halted;
     while st.instret < stop do
       step_unchecked t
     done
   with Program_halted -> ());
  st.instret - start

(** Advance to the next occurrence of [pc] (a no-op if already there),
    stopping early on halt or when [fuel] runs out; returns the unspent
    fuel. This is the test-mode synchronisation primitive ("runs until its
    PC becomes equal to the DTSVLIW PC"): [pc] was reached iff the PC
    equals it afterwards, so a machine sitting halted {e at} [pc] has
    reached it whether the halt happened before or during the call. The
    inner loop is the sync hot path: one exception handler around the whole
    run instead of a handler and a halt test per step. *)
let advance_to_pc t ~pc ~fuel =
  let st = t.st in
  let fuel = ref fuel in
  (try
     while st.pc <> pc && not st.halted && !fuel > 0 do
       step_unchecked t;
       decr fuel
     done
   with Program_halted -> decr fuel);
  !fuel
