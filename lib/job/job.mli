(** The unified job descriptor: everything the repository can run —
    a paper figure, a fuzz batch, a single-workload simulation — as one
    typed, validated value.

    [dtsvliw_sim], [experiments] and [dtsfuzz] are thin flag→[Job.t]
    adapters over this module, and {!Run.run} evaluates the result, so one
    job means exactly one behaviour whichever CLI builds it. *)

(** Program source of a {!Workload} job. *)
type source =
  | Builtin of string  (** a {!Dts_workloads.Workloads} entry, by name *)
  | File of string  (** a [.s] assembly or [.c] tinyc file *)

type kind =
  | Figure of { figure : string }
      (** regenerate one {!Dts_experiments.Experiments.by_name} entry
          (["all"] included) *)
  | Fuzz_batch of {
      seed : int;
      count : int;
      max_insns : int;
      config : string;  (** geometries: ["all"], ["ideal"] or ["feasible"] *)
      shrink : bool;
      out_dir : string option;  (** reproducer directory; [None] = don't write *)
    }
      (** a differential-fuzzing campaign: programs [Sprng.derive seed i]
          for [i < count] *)
  | Workload of {
      source : source;
      machine : Machine_opts.t;
      dump_blocks : int;  (** print up to N cached blocks after the run *)
    }  (** one simulation, as [dtsvliw_sim] runs it *)

type t = {
  kind : kind;
  budget : int;  (** sequential-instruction budget per simulation *)
  scale : int;  (** workload scale multiplier *)
}

val default_budget : int
(** 500,000 — [dtsvliw_sim]'s default. *)

val default_scale : int

val figure : ?budget:int -> ?scale:int -> string -> t
val fuzz_batch :
  ?max_insns:int ->
  ?config:string ->
  ?shrink:bool ->
  ?out_dir:string ->
  seed:int ->
  count:int ->
  unit ->
  t
val workload :
  ?budget:int ->
  ?scale:int ->
  ?machine:Machine_opts.t ->
  ?dump_blocks:int ->
  source ->
  t

val validate : t -> (unit, string) result
(** Every reason a job cannot run, checked up front: non-positive budget/
    scale/count/max_insns/machine dimensions, negative [dump_blocks],
    unknown figure, config or builtin workload name, empty file path.
    (File {e existence} is a run-time property and is not checked here.) *)
