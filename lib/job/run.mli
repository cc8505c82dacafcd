(** Evaluating a {!Job.t} — the single execution path behind every CLI.

    [outcome.text] is the verbatim stdout of the corresponding CLI
    ([dtsvliw_sim] for workload jobs, [experiments] for figure jobs,
    [dtsfuzz] for fuzz jobs); the CLIs print it unmodified. *)

type outcome = {
  text : string;  (** the CLI's exact stdout for this job *)
  stats_json : string option;
      (** workload jobs: the consolidated {!Dts_obs.Stats} document
          ([--stats-json] payload) *)
  exit_code : int;  (** 0, or 1 for a fuzz batch with divergences *)
}

val run :
  ?pool:Dts_parallel.Pool.t ->
  ?tracer:Dts_obs.Trace.t ->
  ?optcheck:bool ->
  Job.t ->
  outcome
(** Evaluate the job here. [pool] fans out a figure's simulations or a fuzz
    batch's programs (submission-order reassembly keeps the outcome
    bit-identical for any pool size); [tracer] applies to workload jobs.

    [optcheck] (workload jobs on DTSVLIW machines only, default off):
    capture every block the Scheduler Unit finishes, re-derive its
    constraint model through the {!Dts_opt.Opt} oracle, check it against
    the oracle's independent legality invariants, and assert the greedy
    schedule's length is never below the certified optimal lower bound.
    Appends a summary line to [text]; violations are reported and make
    [exit_code] 1. Like [tracer], this is a CLI-side option, not part of
    {!Job.t}.
    @raise Invalid_argument on budget/scale violations (callers validate
    first), on [optcheck] with a [--dif] machine, [Sys_error] on an
    unreadable workload file, {!Dts_asm.Assembler.Error} or a
    {!Dts_tinyc} lexer, parser or codegen error on a malformed one. *)
