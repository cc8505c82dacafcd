(** Shared CLI plumbing for the three binaries ([dtsvliw_sim],
    [experiments], [dtsfuzz]): the common flags spelled once, the common
    validation, and the common exit-code contract.

    Exit codes (documented in the README):
    - [0] — success;
    - [1] — the task itself failed (a fuzz divergence, a failed replay, a
      malformed program file);
    - [2] — junk flag {e values} (non-positive budget/count, unknown
      config name, an output file that cannot be opened, ...) rejected
      before any work starts;
    - [124] — cmdliner's own exit for malformed command lines. *)

open Cmdliner

let version = "0.7.0"
(** Reported by every binary's [--version]. *)

let ok = 0
let task_failure = 1
let usage_error = 2

(** Print [msg] on stderr and exit {!usage_error}. *)
let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline msg;
      exit usage_error)
    fmt

(** Exit {!usage_error} on [Error msg] — the flag-validation gate every
    binary runs before doing work. *)
let check = function Ok () -> () | Error msg -> die "%s" msg

let check_positive ~what n =
  if n <= 0 then die "%s must be positive (got %d)" what n

let check_non_negative ~what n =
  if n < 0 then die "%s must be >= 0 (got %d)" what n

(** Open an output file named by a flag, or exit {!usage_error}. Called
    before any work starts, so an unwritable path never costs a run. *)
let open_out_or_die path =
  try open_out path with Sys_error msg -> die "cannot write output file %s" msg

(** Parse a [--config] geometry name or exit {!usage_error}. *)
let geoms_of_config config =
  match Dts_fuzz.Diff.geoms_of_string config with
  | Some geoms -> geoms
  | None -> die "unknown --config %s (expected all, ideal or feasible)" config

(** Parse a [--pool-backend] name or exit {!usage_error}. *)
let backend_of_flag name =
  match Dts_parallel.Pool.backend_of_string name with
  | Some b -> b
  | None -> die "unknown --pool-backend %s (expected domains or processes)" name

(** [Cmd.info] with the shared [--version] string attached. *)
let cmd_info ?doc name = Cmd.info ?doc ~version name

(* ---------- the shared flags ---------- *)

let budget_arg ?(default = Job.default_budget) () =
  Arg.(
    value & opt int default
    & info [ "budget" ] ~docv:"N"
        ~doc:"Sequential-instruction budget per simulation run.")

let scale_arg =
  Arg.(
    value & opt int Job.default_scale
    & info [ "scale" ] ~docv:"N"
        ~doc:"Workload scale multiplier (outer iteration counts).")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Campaign seed.")

let jobs_arg ?(default = 1) ~doc () =
  Arg.(value & opt int default & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let config_arg =
  Arg.(
    value & opt string "all"
    & info [ "config" ] ~docv:"GEOM"
        ~doc:"DTSVLIW geometries to exercise: all, ideal or feasible.")

let backend_arg =
  Arg.(
    value & opt string "domains"
    & info [ "pool-backend" ] ~docv:"BACKEND"
        ~doc:
          "Worker pool backend for --jobs fan-out: domains (in-process) or \
           processes (forked). Output is bit-identical under either.")
