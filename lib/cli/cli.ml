(** Shared CLI plumbing for the three binaries ([dtsvliw_sim],
    [experiments], [dtsfuzz]): the common flags spelled once, the common
    validation, and the common exit-code contract.

    Exit codes (documented in the README):
    - [0] — success;
    - [1] — the task itself failed (a fuzz divergence, a failed replay, a
      malformed program or reproducer file, an output that could not be
      written);
    - [2] — usage errors rejected before any work starts: junk flag values
      (non-positive budget/count, unknown config name, an output file that
      cannot be opened, ...) and flag combinations that cannot run
      together;
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

(** Print [msg] on stderr and exit {!task_failure}. *)
let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline msg;
      exit task_failure)
    fmt

let check_positive ~what n =
  if n <= 0 then die "%s must be positive (got %d)" what n

let check_non_negative ~what n =
  if n < 0 then die "%s must be >= 0 (got %d)" what n

(** An output file named by a flag. *)
type out_file = { path : string; oc : out_channel }

(** Open an output file named by a flag, or exit {!usage_error}. Called
    before any work starts, so an unwritable path never costs a run. *)
let open_out_or_die path =
  try { path; oc = open_out path }
  with Sys_error msg -> die "cannot write output file %s" msg

(* Run [f], which writes to [oc], the output called [name], and ends by
   flushing or closing it. A write that fails (a full disk, say) exits
   [task_failure] with one [cannot write NAME: reason] line instead of an
   uncaught [Sys_error]. *)
let writing name oc f =
  try f ()
  with Sys_error msg ->
    (* closed, so the flush of the standard channels at exit cannot fail
       again *)
    close_out_noerr oc;
    fail "cannot write %s: %s" name msg

(** [write_file f w] is [w]'s result on [f]'s channel, which is closed
    afterwards. A failed write exits {!task_failure} with one
    [cannot write PATH: reason] line. *)
let write_file f w =
  writing f.path f.oc (fun () ->
      let r = w f.oc in
      close_out f.oc;
      r)

(** Print [s] on standard output and flush it. A failed write exits
    {!task_failure} with one [cannot write standard output: reason]
    line. *)
let print s =
  writing "standard output" stdout (fun () ->
      print_string s;
      flush stdout)

(** [Cmd.info] with the shared [--version] string attached. *)
let cmd_info ?doc name = Cmd.info ?doc ~version name

(* ---------- the shared flags ---------- *)

let budget_arg ?(default = 500_000) () =
  Arg.(
    value & opt int default
    & info [ "budget" ] ~docv:"N"
        ~doc:"Sequential-instruction budget per simulation run.")

let scale_arg =
  Arg.(
    value & opt int 1
    & info [ "scale" ] ~docv:"N"
        ~doc:"Workload scale multiplier (outer iteration counts).")

let jobs_arg ?(default = 1) ~doc () =
  Arg.(value & opt int default & info [ "j"; "jobs" ] ~docv:"N" ~doc)
