(** A fixed-size domain worker pool with a deterministic, order-preserving
    [map].

    [map pool f xs] evaluates [f] over the items of [xs] on up to [jobs]
    domains (the caller participates as one of them) and returns the
    results in submission order — the scheduling of work across domains
    never leaks into the result. If one or more applications of [f] raise,
    the exception of the {e lowest-indexed} failing item is re-raised in
    the caller with its original backtrace, matching what a sequential
    left-to-right [List.map] would have reported first. *)

type t

val recommended : unit -> int
(** [Domain.recommended_domain_count ()] — one worker per available core. *)

val resolve_jobs : int -> int
(** Map a user-facing [--jobs] value to a worker count: [0] means
    {!recommended}; anything else is clamped to at least [1]. *)

val create : jobs:int -> unit -> t
(** Spawn a pool of [resolve_jobs jobs] workers total: [jobs - 1] domains
    are spawned eagerly and reused across {!map} batches; the caller is the
    remaining worker. [~jobs:1] makes {!map} purely sequential. *)

val jobs : t -> int
(** Total worker count, caller included. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** Deterministic ordered map (see the module description). Not reentrant:
    one batch runs at a time, and [f] must not call [map] on the same
    pool. *)

val shutdown : t -> unit
(** Stop and join the spawned domains. Idempotent; the pool must not be
    used afterwards. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] over a fresh pool and shuts it down when
    [f] returns or raises. *)
