(** Bounded JSONL event tracer: one JSON object per line, zero allocation
    when disabled (guard event construction with {!enabled}).

    Record shape: [{"cycle":C,"ev":"<name>", ...fields}] where [C] is the
    machine cycle at the start of the step that produced the event. After
    [limit] records, further events are counted in {!dropped} instead of
    written. *)

type event =
  | Engine_switch of { to_vliw : bool; pc : int }
  | Block_flush of { tag : int; lis : int; slots : int }
  | Block_install of { tag : int }
  | Block_evict of { tag : int }
  | Block_fetch of { tag : int }
  | Aliasing_violation of { tag : int; li : int }
  | Checkpoint_recovery of { undone : int }

val event_names : string list

type t = {
  mutable now : int;
  limit : int;
  mutable emitted : int;
  mutable dropped : int;
  sink : sink;
}

and sink = Null | Channel of out_channel | Memory of Buffer.t

val default_limit : int
(** 1,000,000 records. *)

val null : t
(** The shared disabled tracer; {!emit} and {!stamp} on it are no-ops. *)

val to_channel : ?limit:int -> out_channel -> t
val to_buffer : ?limit:int -> Buffer.t -> t

val enabled : t -> bool
(** [false] exactly for the null sink — call sites use this to skip event
    construction entirely when tracing is off. *)

val stamp : t -> int -> unit
(** Record the current machine cycle; subsequent events carry it. *)

val emit : t -> event -> unit
val emitted : t -> int
val dropped : t -> int

val close : t -> unit
(** Flush a channel sink (the caller owns and closes the channel). *)

val parse_line : string -> int * string * Json.t
(** One JSONL record as [(cycle, event-name, parsed object)].
    @raise Json.Parse_error or [Failure] on malformed records. *)

val count_events : string -> (string, int) Hashtbl.t
(** Event-name histogram of a raw JSONL string (blank lines ignored). *)
