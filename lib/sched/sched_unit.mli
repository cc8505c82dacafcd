(** The Scheduler Unit: a behavioural implementation of the paper's
    pipelined First-Come-First-Served scheduling algorithm (§3.2).

    Each machine cycle the unit (a) resolves every candidate instruction —
    moving it up, installing it, or splitting it into a renamed part and a
    tag-gated COPY — and (b) accepts at most one instruction completed by
    the Primary Processor, placing it at the tail of the scheduling list.

    Candidates are resolved head→tail, matching the carry-lookahead signal
    formulation of §3.7 (implemented independently in {!Signals} and
    cross-checked by property tests). Dependence tests read per-element
    summaries of each long instruction's read and write positions, kept up
    to date as ops are placed, moved, split and finished. *)

type config = {
  width : int;  (** instructions per long instruction *)
  height : int;  (** long instructions per block *)
  nwindows : int;
  slot_classes : Dts_isa.Instr.fu_class option array option;
      (** [None] = homogeneous functional units; [Some a] restricts slot k
          to class [a.(k)] ([None] entry = universal). *)
  renaming : bool;  (** instruction splitting enabled (§3.2) *)
  resplit_on_control : bool;
      (** split again on every further branch crossed (§3.8, literal
          reading); [false] lets an already-renamed op move freely *)
  mem_motion : bool;  (** loads/stores may move up and split (§3.9) *)
  strict_control_insert : bool;
      (** a branch in the tail long instruction forces a new element at
          insertion (the stricter reading of §3.2) *)
  latencies : Dts_isa.Instr.latencies;
      (** functional-unit latencies: a producer with latency L must sit at
          least L long instructions above any consumer ([14]) *)
}

val default_config : config
(** 8x8 homogeneous, renaming on, unit latencies. *)

(** What {!tick} decided for one candidate (§3.7's install/split/move). *)
type decision = D_install | D_move | D_split

type t

val create : config -> t
val is_empty : t -> bool

val length : t -> int
(** Number of active elements (long instructions under construction). *)

val element : t -> int -> Schedtypes.element
(** Element [i] of the scheduling list (0 = head). Used by {!Signals} and
    by tests; treat as read-only. *)

val tick : t -> unit
(** One cycle of candidate resolution, head→tail. A cycle in which every
    candidate moves or installs allocates nothing. *)

val tick_decisions : t -> (int * decision) list
(** {!tick}, returning the decisions taken as [(element index before
    resolution, decision)]. *)

val insert : t -> Dts_primary.Primary.retired -> [ `Ok | `Full ]
(** Place one completed instruction (already filtered: not a nop, not an
    unconditional direct branch, not non-schedulable). [`Full] means the
    list has no room: the caller must {!finish_block} and re-insert — the
    paper's flush-on-full rule. *)

val finish_block :
  t -> nba_addr:int -> Schedtypes.block option
(** Freeze the current list into a block whose next-block-address store
    points at [nba_addr], emptying the list; [None] if it was empty.
    Outstanding candidates are installed in place. *)

val pp : Format.formatter -> t -> unit
(** Figure 2-style rendering of the scheduling list. *)

val cfg : t -> config
(** The configuration this unit was created with (used by {!Signals}). *)
