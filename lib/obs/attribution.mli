(** Cycle attribution: every machine cycle is charged to exactly one typed
    category, with the invariant (test-enforced) that the categories sum to
    [Machine.cycles] and the VLIW-side categories to [Machine.vliw_cycles]. *)

type category =
  | Primary_execute
      (** Primary pipeline cycles: issue, execute latencies, branch and
          load-use bubbles, trap service *)
  | Primary_icache_stall  (** Primary instruction-cache miss penalties *)
  | Primary_dcache_stall  (** Primary data-cache miss penalties *)
  | Switch_to_vliw  (** engine-switch bubble entering the VLIW Engine *)
  | Switch_to_primary
      (** bubble returning to the Primary after a clean block exit with no
          successor block *)
  | Vliw_execute  (** one cycle per long instruction executed *)
  | Vliw_dcache_stall
      (** VLIW data-cache miss penalties, including data-store-list drain *)
  | Next_li_penalty  (** block-chaining fetch penalty (§4.4) *)
  | Mispredict_redirect  (** annulled-fetch bubble on a mispredicted tag *)
  | Recovery_switch
      (** bubble returning to the Primary after an aliasing or
          checkpoint-recovery rollback (§3.10/§3.11) *)

val all : category list
(** Every category, in [index] order. *)

val n_categories : int
val index : category -> int

val name : category -> string
(** Snake-case JSON key. *)

val label : category -> string
(** Human-readable table label. *)

val vliw_categories : category list
(** The categories also counted in [Machine.vliw_cycles]. *)

type t = int array
(** Mutable per-machine accumulator, indexed by {!index}. *)

val create : unit -> t
val charge : t -> category -> int -> unit
val total : t -> int

val sum_of : int array -> category list -> int
(** Sum a snapshot over a category subset. *)

val vliw_total : int array -> int
val to_assoc : int array -> (string * int) list
