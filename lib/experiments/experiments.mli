(** The evaluation harness: one plan of simulations per table and figure of
    the paper's §4, plus ablations and the measured extensions.

    Every run executes in test mode (golden co-simulation), so a reported
    number is also a proof that the simulated machine computed the same
    architectural states as a sequential SRISC machine. IPC is the paper's
    metric: sequential instructions (test-machine count) over DTSVLIW
    cycles.

    A figure is produced one way: {!run} evaluates the descriptors of the
    figure's {!plan} and {!assemble}s the result. It returns a structured
    {!figure}: the raw {!run} records, the table cells, and a [render]
    closure producing the exact ready-to-print text (no re-simulation).
    Consumers read data instead of parsing strings.

    Given [?pool], {!run} fans the figure's independent simulations out
    over the pool's domains. Results are reassembled in plan order, so the
    returned figure — rows, tables and rendering — is bit-identical with
    and without a pool. *)

(** Everything measured in one simulation run. *)
type run = {
  workload : string;
  ipc : float;
  instructions : int;  (** sequential instructions (golden-machine count) *)
  stats : Dts_obs.Stats.t;
      (** the full machine snapshot — cycles, Table 3's resource counters,
          the per-category cycle attribution *)
  optgap : Dts_opt.Opt.gap_summary option;
      (** FCFS-vs-optimal schedule comparison over the run's finished
          blocks — [None] except on the [optgap] figure's runs *)
}

(** One table or figure of the evaluation: structured data plus its exact
    text rendering. *)
type figure = {
  name : string;  (** the registry key, e.g. ["fig6"] *)
  rows : run list;  (** every simulation performed, in submission order *)
  tables : (string * string list list) list;
      (** (title, header row :: data rows) for each rendered table *)
  render : unit -> string;
      (** the ready-to-print text output; pure (no re-simulation) *)
}

val run_dtsvliw :
  ?scale:int ->
  ?budget:int ->
  ?tracer:Dts_obs.Trace.t ->
  Dts_core.Config.t ->
  string ->
  run
(** Run one named workload on a DTSVLIW configuration.
    @raise Invalid_argument if [scale] or [budget] is not positive. *)

val run_dif :
  ?scale:int ->
  ?budget:int ->
  ?tracer:Dts_obs.Trace.t ->
  Dts_core.Config.t ->
  string ->
  run * Dts_dif.Dif.t
(** Run one named workload on the DIF baseline.
    @raise Invalid_argument if [scale] or [budget] is not positive. *)

val workload_names : string list

val fig9_dtsvliw_cfg : unit -> Dts_core.Config.t
(** The DTSVLIW side of Figure 9: 6x6 blocks, 4 universal + 2 branch units,
    4KB caches. *)

val table1 : unit -> figure
val table2 : unit -> figure

val names : string list
(** Every figure name {!run}, {!plan} and {!assemble} accept: the paper's
    tables and figures (["table1"] … ["fig9"]), ["ablation"],
    ["extensions"], ["breakdown"] (the feasible machine's cycle
    attribution; its TOTAL row is always 100.0%), ["optgap"] (the greedy
    scheduler's gap to the {!Dts_opt.Opt} oracle's optimal schedules) and,
    last, ["all"]: every paper table and figure plus ["ablation"] and
    ["extensions"], concatenated. *)

val run :
  ?pool:Dts_parallel.Pool.t -> ?scale:int -> ?budget:int -> string -> figure
(** [run name] is [assemble name] of the runs of [plan name], each
    evaluated by {!eval_descriptor} — over [?pool] when given, as one flat
    map for ["all"] too.
    @raise Invalid_argument on an unknown name, or, for a figure that
    simulates, if [scale] or [budget] is not positive. *)

(** {2 Split evaluation}

    A figure is a pure function of its {!run} records, and those records
    are produced from a flat, deterministic list of per-simulation
    descriptors. The three functions below split the two phases, so each
    simulation of a figure's plan can be evaluated (and timed) on its own
    and the figure rebuilt — bit-identical to {!run} — from the runs in
    plan order. {!run} and the benchmark in [perfbench/] are the
    consumers. *)

type descriptor
(** One simulation of a figure's plan: a machine configuration plus a
    workload name. Plain data. *)

val plan : string -> descriptor list
(** The complete, deterministic descriptor list of the named figure —
    empty for figures that simulate nothing (["table1"], ["table2"]);
    ["all"] concatenates its components' plans in rendering order.
    @raise Invalid_argument on an unknown figure name. *)

val eval_descriptor : ?scale:int -> ?budget:int -> descriptor -> run
(** Evaluate one descriptor (same validation as {!run_dtsvliw}). *)

val assemble : string -> run list -> figure
(** Rebuild the named figure from runs listed in {!plan} order. The runs
    may be evaluated in any order and on any worker: the figure depends
    only on the list.
    @raise Invalid_argument on an unknown name or a run-count mismatch. *)
