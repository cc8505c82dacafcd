(** Cycle attribution: every machine cycle is charged to exactly one typed
    category at the moment it is added to [Machine.cycles].

    The paper explains its IPC numbers through indirect aggregates (list
    sizes, slot utilisation); this accounting answers the direct question —
    {e where did the cycles go} — for any run, with the hard invariant that
    the categories sum to the machine's total cycle count (and the
    VLIW-side categories to its VLIW cycle count). The invariant is
    enforced by the test suite on every workload. *)

type category =
  | Primary_execute
      (** Primary Processor pipeline cycles: issue, execute latencies,
          branch and load-use bubbles, trap service *)
  | Primary_icache_stall  (** Primary instruction-cache miss penalties *)
  | Primary_dcache_stall  (** Primary data-cache miss penalties *)
  | Switch_to_vliw  (** engine-switch bubble entering the VLIW Engine *)
  | Switch_to_primary
      (** engine-switch bubble returning to the Primary Processor after a
          clean block exit with no successor block *)
  | Vliw_execute  (** one cycle per long instruction executed *)
  | Vliw_dcache_stall
      (** data-cache miss penalties charged to VLIW loads/stores,
          including data-store-list drain at block commit *)
  | Next_li_penalty
      (** next-long-instruction fetch penalty crossing into a chained
          block (§4.4), unless hidden by next-li prediction *)
  | Mispredict_redirect
      (** annulled-fetch bubble after a mispredicted branch tag (§3.5) *)
  | Recovery_switch
      (** engine-switch bubble returning to the Primary Processor after an
          aliasing violation or checkpoint-recovery rollback (§3.10/§3.11) *)

let all =
  [
    Primary_execute;
    Primary_icache_stall;
    Primary_dcache_stall;
    Switch_to_vliw;
    Switch_to_primary;
    Vliw_execute;
    Vliw_dcache_stall;
    Next_li_penalty;
    Mispredict_redirect;
    Recovery_switch;
  ]

let n_categories = List.length all

let index = function
  | Primary_execute -> 0
  | Primary_icache_stall -> 1
  | Primary_dcache_stall -> 2
  | Switch_to_vliw -> 3
  | Switch_to_primary -> 4
  | Vliw_execute -> 5
  | Vliw_dcache_stall -> 6
  | Next_li_penalty -> 7
  | Mispredict_redirect -> 8
  | Recovery_switch -> 9

(** Snake-case key used in JSON output. *)
let name = function
  | Primary_execute -> "primary_execute"
  | Primary_icache_stall -> "primary_icache_stall"
  | Primary_dcache_stall -> "primary_dcache_stall"
  | Switch_to_vliw -> "switch_to_vliw"
  | Switch_to_primary -> "switch_to_primary"
  | Vliw_execute -> "vliw_execute"
  | Vliw_dcache_stall -> "vliw_dcache_stall"
  | Next_li_penalty -> "next_li_penalty"
  | Mispredict_redirect -> "mispredict_redirect"
  | Recovery_switch -> "recovery_switch"

(** Human-readable row label for the breakdown table. *)
let label = function
  | Primary_execute -> "Primary execute"
  | Primary_icache_stall -> "Primary I-cache stall"
  | Primary_dcache_stall -> "Primary D-cache stall"
  | Switch_to_vliw -> "Switch to VLIW"
  | Switch_to_primary -> "Switch to Primary"
  | Vliw_execute -> "VLIW execute"
  | Vliw_dcache_stall -> "VLIW D-cache stall"
  | Next_li_penalty -> "Next-li penalty"
  | Mispredict_redirect -> "Mispredict redirect"
  | Recovery_switch -> "Exception recovery switch"

(** The categories whose cycles are also counted in [Machine.vliw_cycles]:
    everything charged while the VLIW Engine owns the pipeline. *)
let vliw_categories =
  [ Vliw_execute; Vliw_dcache_stall; Next_li_penalty; Mispredict_redirect ]

type t = int array

let create () : t = Array.make n_categories 0
let charge (t : t) cat n = t.(index cat) <- t.(index cat) + n
let total (t : t) = Array.fold_left ( + ) 0 t

(* ------------------------------------------------------------------ *)
(* Views over a snapshot array (as stored in {!Stats.t})                *)
(* ------------------------------------------------------------------ *)

let sum_of counts cats =
  List.fold_left (fun a c -> a + counts.(index c)) 0 cats

let vliw_total counts = sum_of counts vliw_categories

let to_assoc counts = List.map (fun c -> (name c, counts.(index c))) all
