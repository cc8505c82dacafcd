(** The evaluation harness: one entry per table and figure of the paper's
    §4, plus ablations and the measured extensions.

    Every run executes in test mode (golden co-simulation), so a reported
    number is also a proof that the simulated machine computed the same
    architectural states as a sequential SRISC machine. IPC is the paper's
    metric: sequential instructions (test-machine count) over DTSVLIW
    cycles.

    Entry points return a structured {!figure}: the raw {!run} records, the
    table cells, and a [render] closure producing the exact ready-to-print
    text (no re-simulation). Consumers read data instead of parsing
    strings.

    Every figure generator accepts [?pool]: a {!Dts_parallel.Pool.t} fans
    the figure's independent simulations out over the pool's domains.
    Results are reassembled in submission order, so the returned figure —
    rows, tables and rendering — is bit-identical with and without a
    pool. *)

(** Everything measured in one simulation run. *)
type run = {
  workload : string;
  ipc : float;
  cycles : int;
  instructions : int;
  vliw_fraction : float;
  slot_utilisation : float;
  rr_max : int array;  (** int, fp, flag, mem renaming register high water *)
  max_load_list : int;
  max_store_list : int;
  max_recovery_list : int;
  aliasing_exceptions : int;
  blocks : int;
  stats : Dts_obs.Stats.t;
      (** the full machine snapshot, including the per-category cycle
          attribution *)
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

val simulated_instructions : unit -> int
(** Cumulative sequential instructions simulated by every run performed in
    this process (monotone counter). The bench harness reads deltas around
    each figure to report simulated instructions/sec. *)

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
  ?dif_cfg:Dts_dif.Dif.config ->
  ?tracer:Dts_obs.Trace.t ->
  Dts_core.Config.t ->
  string ->
  run * Dts_dif.Dif.t
(** Run one named workload on the DIF baseline.
    @raise Invalid_argument if [scale] or [budget] is not positive. *)

val run_optgap : ?scale:int -> ?budget:int -> Dts_core.Config.t -> string -> run
(** Run one named workload with its finished blocks captured and the
    {!Dts_opt.Opt} branch-and-bound oracle's FCFS-vs-optimal summary
    attached ([run.optgap] is [Some _]). The oracle's per-block search
    budget is fixed ({!Dts_opt.Opt.default_node_budget}), so the summary is
    a deterministic function of the run's blocks.
    @raise Invalid_argument if [scale] or [budget] is not positive. *)

val workload_names : string list

val fig9_dtsvliw_cfg : unit -> Dts_core.Config.t
(** The DTSVLIW side of Figure 9: 6x6 blocks, 4 universal + 2 branch units,
    4KB caches. *)

val table1 : unit -> figure
val table2 : unit -> figure

val fig5a :
  ?pool:Dts_parallel.Pool.t -> ?scale:int -> ?budget:int -> unit -> figure

val fig5 :
  ?pool:Dts_parallel.Pool.t -> ?scale:int -> ?budget:int -> unit -> figure

val fig6 :
  ?pool:Dts_parallel.Pool.t -> ?scale:int -> ?budget:int -> unit -> figure

val fig7 :
  ?pool:Dts_parallel.Pool.t -> ?scale:int -> ?budget:int -> unit -> figure

val fig8 :
  ?pool:Dts_parallel.Pool.t -> ?scale:int -> ?budget:int -> unit -> figure

val table3 :
  ?pool:Dts_parallel.Pool.t -> ?scale:int -> ?budget:int -> unit -> figure

val fig9 :
  ?pool:Dts_parallel.Pool.t -> ?scale:int -> ?budget:int -> unit -> figure

val ablation :
  ?pool:Dts_parallel.Pool.t -> ?scale:int -> ?budget:int -> unit -> figure

val extensions :
  ?pool:Dts_parallel.Pool.t -> ?scale:int -> ?budget:int -> unit -> figure

val breakdown :
  ?pool:Dts_parallel.Pool.t -> ?scale:int -> ?budget:int -> unit -> figure
(** Cycle-attribution breakdown of the feasible machine: one row per
    {!Dts_obs.Attribution.category}, one column per workload, cells as
    percentages of total machine cycles; the TOTAL row is the sum of all
    categories over machine cycles (the invariant: always 100.0%). Not part
    of {!all} (it is an observability artefact, not a paper figure). *)

val optgap :
  ?pool:Dts_parallel.Pool.t -> ?scale:int -> ?budget:int -> unit -> figure
(** Optimality gap of the greedy FCFS scheduler: every workload under the
    ideal and feasible geometries, each finished block re-scheduled by the
    {!Dts_opt.Opt} branch-and-bound oracle; rows carry summed
    long-instruction counts, certified lower/upper optimal bounds, and the
    gap percentage. Not part of {!all} (a reproduction-quality study, not a
    paper figure). *)

val all :
  ?pool:Dts_parallel.Pool.t -> ?scale:int -> ?budget:int -> unit -> figure
(** Every paper table/figure plus ablations and extensions, concatenated;
    [rows]/[tables] are the concatenation of the sub-figures'. Figures run
    one after another; within each, the runs fan out over [?pool]. *)

val by_name :
  (string
  * (?pool:Dts_parallel.Pool.t -> ?scale:int -> ?budget:int -> unit -> figure))
  list
(** Name → generator registry used by [bin/experiments] and the bench. *)

(** {2 Split evaluation}

    A figure is a pure function of its {!run} records, and those records
    are produced from a flat, deterministic list of per-simulation
    descriptors. The three functions below split the two phases, so each
    simulation of a figure's plan can be evaluated (and timed) on its own
    and the figure rebuilt — bit-identical to a local run — from the runs
    in plan order. The benchmark in [perfbench/] is the consumer. *)

type descriptor
(** One simulation of a figure's plan: a machine configuration plus a
    workload name. Plain data (safe to evaluate in a forked worker and
    marshal the resulting {!run} back). *)

val plan : string -> descriptor list
(** The complete, deterministic descriptor list of the named figure —
    empty for figures that simulate nothing (["table1"], ["table2"]);
    ["all"] concatenates its components' plans in rendering order.
    @raise Invalid_argument on an unknown figure name. *)

val eval_descriptor : ?scale:int -> ?budget:int -> descriptor -> run
(** Evaluate one descriptor (same validation as {!run_dtsvliw}). *)

val assemble : string -> run list -> figure
(** Rebuild the named figure from runs listed in {!plan} order. For every
    figure and any slicing of its plan,
    [assemble name (List.map eval_descriptor (plan name))] equals the
    direct generator call — enforced by test.
    @raise Invalid_argument on an unknown name or a run-count mismatch. *)
