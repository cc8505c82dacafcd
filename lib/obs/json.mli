(** Minimal JSON values: enough to emit and validate the simulator's
    machine-readable surfaces ([--stats-json], the JSONL trace, the
    allocation baseline) without an external dependency. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact single-line rendering (used for JSONL trace records). *)

val to_string_pretty : t -> string
(** Two-space-indented rendering; arrays of scalars stay on one line. *)

exception Parse_error of string

val of_string : string -> t
(** Parse one JSON document. @raise Parse_error on malformed input. *)

val member : string -> t -> t option
(** [member k (Obj ...)] looks up key [k]; [None] on non-objects too. *)

val to_int : t -> int option

val to_str : t -> string option
