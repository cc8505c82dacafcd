(** The golden reference machine — the paper's "test machine" (§4).

    A purely sequential SRISC interpreter with no timing model, used to
    validate the DTSVLIW and DIF machines instruction by instruction and to
    count the sequential instructions that form the numerator of the
    instructions-per-cycle metric. *)

exception Program_halted

type t

val of_state : Dts_isa.State.t -> t
(** Wrap an existing architectural state (the co-simulation boots two
    identical states and hands one to the golden machine). It executes
    packed micro-ops through {!Dts_isa.Semantics.exec_into}, allocating
    nothing per instruction. *)

val state : t -> Dts_isa.State.t

val step : t -> unit
(** Execute exactly one instruction, servicing traps in place.
    @raise Program_halted on [Halt]. *)

val run : ?max_instructions:int -> t -> int
(** Run until [Halt] or the budget; returns instructions retired by this
    call. *)

val advance_to_pc : t -> pc:int -> fuel:int -> int
(** Advance to the next occurrence of [pc] (a no-op if already there),
    stopping on halt or fuel exhaustion; returns the unspent fuel. The
    test-mode synchronisation primitive: [pc] was reached iff the PC equals
    it afterwards, so halted {e at} [pc] counts as reached whether the halt
    predates the call or happens during it. One exception handler per run
    instead of per step. *)
