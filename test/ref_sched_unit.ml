(* Reference model of the Scheduler Unit: the list-based implementation
   the simulator used before dependence tests read per-element position
   summaries. Each test rebuilds the long instruction's read and write
   sets as [Storage.t] lists and compares them structurally, which makes
   it slow but easy to check against §3.2. The property tests in
   test_sched.ml require the summary-based [Dts_sched.Sched_unit] to build
   the same blocks and take the same decisions. *)

open Dts_sched
open Dts_sched.Schedtypes

type config = Sched_unit.config
type decision = Sched_unit.decision = D_install | D_move | D_split

type t = {
  cfg : Sched_unit.config;
  els : element option array;
  mutable n : int;
  mutable first_addr : int option;
  mutable entry_cwp : int;
  mutable order_ctr : int;
  rr_ctr : int array;  (** per-kind renaming registers used in this block *)
  mutable uid_ctr : int;
  mutable n_copies : int;
  fwd : (Dts_isa.Storage.t, rref) Hashtbl.t;
      (** active forwardings: architectural position -> renaming register
          currently holding its value (block-scoped) *)
  last_writer : (Dts_isa.Storage.t, int) Hashtbl.t;
      (** uid of the latest program-order writer of each position — a split
          may only establish a forwarding for positions it still owns *)
}

let create (cfg : config) =
  {
    cfg;
    els = Array.make cfg.height None;
    n = 0;
    first_addr = None;
    entry_cwp = 0;
    order_ctr = 0;
    rr_ctr = Array.make 4 0;
    uid_ctr = 0;
    n_copies = 0;
    fwd = Hashtbl.create 32;
    last_writer = Hashtbl.create 32;
  }

let is_empty t = t.n = 0
let cfg t = t.cfg
let element t i = Option.get t.els.(i)
let length t = t.n

let find_slot t li fu =
  let k = li_free_slot ?slot_classes:t.cfg.Sched_unit.slot_classes li fu in
  if k < 0 then None else Some k

let li_all_writes li =
  li_fold (fun acc _ op _ -> slot_arch_writes op @ acc) [] li

let op_latency t = function
  | Op s -> Dts_isa.Instr.latency t.cfg.latencies s.instr
  | Copy _ -> 1

(* Would an op reading [reads] placed at long-instruction index [target] be
   too close to a multicycle producer? A producer at index j with latency L
   blocks consumers at indices < j + L; for unit latencies this degenerates
   to the paper's adjacent-li flow test. *)
let flow_blocked_at t ~target reads =
  let maxlat = Dts_isa.Instr.max_latency t.cfg.latencies in
  let blocked = ref false in
  for d = 0 to maxlat - 1 do
    let j = target - d in
    if (not !blocked) && j >= 0 && j < t.n then
      li_iter
        (fun _ op _ ->
          if
            (not !blocked)
            && op_latency t op > d
            && Dts_isa.Storage.any_overlap reads (slot_arch_writes op)
          then blocked := true)
        (element t j).e_li
  done;
  !blocked

let li_reads_excluding li ~slot =
  li_fold
    (fun acc k op _ -> if k = slot then acc else slot_arch_reads op @ acc)
    [] li

let rr_kind_of_storage : Dts_isa.Storage.t -> rr_kind option = function
  | Int_reg _ -> Some K_int
  | Fp_reg _ -> Some K_fp
  | Flags -> Some K_flag
  | Mem _ -> Some K_mem
  | Win -> None (* the window pointer is not renameable in this design *)
  | Ren _ -> None (* renaming registers are single-assignment already *)

let alloc_rr t kind =
  let i = rr_kind_index kind in
  let idx = t.rr_ctr.(i) in
  t.rr_ctr.(i) <- idx + 1;
  { kind; ridx = idx }

(* cross-bit maintenance (§3.10): a load/store placed into a long
   instruction containing a store or memory-copy gets its cross bit set;
   placing a store (or memory-copy) sets the cross bit of every memory
   operation already there. *)
let update_cross_bits li placed =
  let placed_is_store_like =
    match placed with
    | Op s -> Dts_isa.Instr.is_store s.instr
    | Copy c -> List.exists (fun (r, _) -> r.kind = K_mem) c.c_moves
  in
  (match placed with
  | Op s when Dts_isa.Instr.is_mem s.instr ->
    if
      li_fold
        (fun acc _ op _ ->
          acc
          ||
          match op with
          | Op o -> Dts_isa.Instr.is_store o.instr && o.uid <> s.uid
          | Copy c -> List.exists (fun (r, _) -> r.kind = K_mem) c.c_moves)
        false li
    then s.cross <- true
  | Op _ | Copy _ -> ());
  if placed_is_store_like then
    li_iter
      (fun _ op _ ->
        match op with
        | Op o when Dts_isa.Instr.is_mem o.instr -> o.cross <- true
        | Op _ | Copy _ -> ())
      li

let place li slot_op tag k =
  li_fill li k (slot_op, tag);
  update_cross_bits li slot_op

(* ------------------------------------------------------------------ *)
(* Candidate resolution (one cycle of move-up logic)                    *)
(* ------------------------------------------------------------------ *)

let do_move t cur prev c =
  let op = c.c_op in
  (match cur.e_li.slots.(c.c_slot) with
  | Some (Op o, _) when o.uid = op.uid -> li_clear_slot cur.e_li c.c_slot
  | _ -> invalid_arg "Sched_unit: companion slot corrupted");
  let k =
    match find_slot t prev.e_li op.fu with
    | Some k -> k
    | None -> invalid_arg "Sched_unit: move without free slot"
  in
  let tag = li_cur_tag prev.e_li in
  place prev.e_li (Op op) tag k;
  cur.e_cand <- None;
  prev.e_cand <- Some { c_op = op; c_slot = k; c_tag = tag }

let do_split t cur prev c ~rename_arch ~rechain =
  let op = c.c_op in
  let moves_arch =
    List.map
      (fun p ->
        let kind = Option.get (rr_kind_of_storage p) in
        let rr = alloc_rr t kind in
        op.redirect <- (p, rr) :: List.remove_assoc p op.redirect;
        (match p with
        | Dts_isa.Storage.Int_reg _ | Fp_reg _ | Flags ->
          (* forward only while this op is still the latest program-order
             writer of p: otherwise later readers must see the newer value *)
          if Hashtbl.find_opt t.last_writer p = Some op.uid then
            Hashtbl.replace t.fwd p rr
        | Win | Mem _ | Ren _ -> ());
        (rr, T_arch p))
      rename_arch
  in
  let moves_chain =
    List.map
      (fun p ->
        let rr_old = List.assoc p op.redirect in
        let rr_new = alloc_rr t rr_old.kind in
        op.redirect <- (p, rr_new) :: List.remove_assoc p op.redirect;
        (match p with
        | Dts_isa.Storage.Int_reg _ | Fp_reg _ | Flags ->
          (* only retarget the forwarding if it still points at rr_old *)
          if Hashtbl.find_opt t.fwd p = Some rr_old then
            Hashtbl.replace t.fwd p rr_new
        | Win | Mem _ | Ren _ -> ());
        (rr_new, T_ren rr_old))
      rechain
  in
  set_redirect op op.redirect;
  let moves = moves_arch @ moves_chain in
  assert (moves <> []);
  let copy =
    Copy
      (make_copy ~fu:op.fu ~moves
         ~order:(if Dts_isa.Instr.is_store op.instr then op.order else -1)
         ~from:op.uid ())
  in
  (* the companion becomes the copy, permanently, with the op's tag *)
  li_fill cur.e_li c.c_slot (copy, c.c_tag);
  update_cross_bits cur.e_li copy;
  (* the renamed op moves up *)
  let k =
    match find_slot t prev.e_li op.fu with
    | Some k -> k
    | None -> invalid_arg "Sched_unit: split without free slot"
  in
  let tag = li_cur_tag prev.e_li in
  place prev.e_li (Op op) tag k;
  cur.e_cand <- None;
  prev.e_cand <- Some { c_op = op; c_slot = k; c_tag = tag };
  t.n_copies <- t.n_copies + 1

(** Resolve the candidate at element [i]; returns the decision taken. *)
let resolve t i : decision =
  let cur = element t i in
  match cur.e_cand with
  | None -> invalid_arg "resolve: no candidate"
  | Some c ->
    if i = 0 then begin
      (* head of the list: install (§3.7, the (i⊗0) term) *)
      cur.e_cand <- None;
      D_install
    end
    else begin
      let prev = element t (i - 1) in
      let prev_writes = li_all_writes prev.e_li in
      let flow = flow_blocked_at t ~target:(i - 1) c.c_op.reads in
      let resource = find_slot t prev.e_li c.c_op.fu = None in
      if flow || resource then begin
        cur.e_cand <- None;
        D_install
      end
      else begin
        let eff_writes = slot_arch_writes (Op c.c_op) in
        let anti_positions =
          List.filter
            (fun w ->
              List.exists
                (Dts_isa.Storage.overlaps w)
                (li_reads_excluding cur.e_li ~slot:c.c_slot))
            eff_writes
        in
        let out_positions =
          List.filter
            (fun w -> List.exists (Dts_isa.Storage.overlaps w) prev_writes)
            eff_writes
        in
        let ctrl = c.c_tag >= 1 in
        if anti_positions = [] && out_positions = [] && not ctrl then begin
          do_move t cur prev c;
          D_move
        end
        else if
          (not t.cfg.renaming)
          || Dts_isa.Instr.latency t.cfg.latencies c.c_op.instr > 1
          (* a multicycle op cannot split: its copy would sit closer than
             the latency allows *)
        then begin
          cur.e_cand <- None;
          D_install
        end
        else begin
          let rename_arch =
            List.sort_uniq compare
              (anti_positions @ out_positions
              @
              if ctrl then
                List.filter
                  (function Dts_isa.Storage.Ren _ -> false | _ -> true)
                  eff_writes
              else [])
          in
          let rechain =
            if ctrl && t.cfg.resplit_on_control then
              List.filter_map
                (fun (p, _) ->
                  if List.mem p rename_arch then None else Some p)
                c.c_op.redirect
            else []
          in
          if
            List.exists (fun p -> rr_kind_of_storage p = None) rename_arch
          then begin
            (* a non-renameable position (Win) blocks the split *)
            cur.e_cand <- None;
            D_install
          end
          else if rename_arch = [] && rechain = [] then begin
            (* already fully renamed and no re-split requested: free to move *)
            do_move t cur prev c;
            D_move
          end
          else begin
            do_split t cur prev c ~rename_arch ~rechain;
            D_split
          end
        end
      end
    end

(** One cycle of candidate resolution, head→tail. Returns the decisions
    taken, as [(element index before resolution, decision)]. *)
let tick t =
  let decisions = ref [] in
  for i = 0 to t.n - 1 do
    match (element t i).e_cand with
    | None -> ()
    | Some _ -> decisions := (i, resolve t i) :: !decisions
  done;
  List.rev !decisions

(* ------------------------------------------------------------------ *)
(* Insertion                                                            *)
(* ------------------------------------------------------------------ *)

(** The decode-once view of a retired instruction: read/write sets from
    {!Dts_isa.Rwsets.of_instr} plus the forwarding substitutions active at
    preparation time. [insert] prepares this once, runs its dependency
    checks on it, and hands the same record to {!build_sop} — the sets used
    to be recomputed (another [of_instr] decode and forwarding-table sweep)
    for every accepted instruction. Only valid while the forwarding table is
    unchanged, i.e. within one [insert]. *)
type prepped = {
  p_reads : Dts_isa.Storage.t list;  (** read set, forwarding applied *)
  p_arch_writes : Dts_isa.Storage.t list;
  p_subs : (Dts_isa.Storage.t * rref) list;
}

let prep_sop t (r : Dts_primary.Primary.retired) =
  (* the Primary decoded the sets once at retirement (same window count:
     the machine boots the shared state with this scheduler's nwindows) *)
  let arch_reads, arch_writes = r.rwsets in
  (* forward renamed sources: a read of a position whose value currently
     lives in a renaming register reads that register instead (Fig. 2's
     [subcc r32, ...]) *)
  let subs = ref [] in
  let reads =
    List.map
      (fun p ->
        match p with
        | Dts_isa.Storage.Int_reg _ | Fp_reg _ | Flags -> (
          match Hashtbl.find_opt t.fwd p with
          | Some rr ->
            subs := (p, rr) :: !subs;
            storage_of_rref rr
          | None -> p)
        | Win | Mem _ | Ren _ -> p)
      arch_reads
  in
  { p_reads = reads; p_arch_writes = arch_writes; p_subs = !subs }

let build_sop t (r : Dts_primary.Primary.retired) p =
  (* an architectural write supersedes any active forwarding of it *)
  List.iter (fun w -> Hashtbl.remove t.fwd w) p.p_arch_writes;
  let uid = t.uid_ctr + 1 in
  List.iter (fun w -> Hashtbl.replace t.last_writer w uid) p.p_arch_writes;
  let is_mem = Dts_isa.Instr.is_mem r.instr in
  let order =
    if is_mem then begin
      let o = t.order_ctr in
      t.order_ctr <- o + 1;
      o
    end
    else -1
  in
  t.uid_ctr <- t.uid_ctr + 1;
  make_sop ~uid:t.uid_ctr ~instr:r.instr ~addr:r.addr ~cwp:r.cwp ~reads:p.p_reads
    ~arch_writes:p.p_arch_writes ~obs_taken:r.taken ~obs_next_pc:r.next_pc
    ~obs_mem:r.mem ~order ~cross:false ~redirect:[] ~subs:p.p_subs
    ~fu:(Dts_isa.Instr.fu_class r.instr)

let place_new t el sop =
  let k =
    match find_slot t el.e_li sop.fu with
    | Some k -> k
    | None -> invalid_arg "Sched_unit: placing into full long instruction"
  in
  let tag = li_cur_tag el.e_li in
  place el.e_li (Op sop) tag k;
  if Dts_isa.Instr.is_conditional_ctrl sop.instr then
    (* branches establish a new tag and never move (§3.8) *)
    el.e_li.n_branches <- el.e_li.n_branches + 1
  else if t.cfg.mem_motion || not (Dts_isa.Instr.is_mem sop.instr) then
    el.e_cand <- Some { c_op = sop; c_slot = k; c_tag = tag }

let add_element t =
  let el = { e_li = li_create t.cfg.width; e_cand = None } in
  t.els.(t.n) <- Some el;
  t.n <- t.n + 1;
  el

(** Try to insert one completed instruction (already filtered: not a nop,
    not an unconditional direct branch, not non-schedulable). [`Full] means
    the list had no room — the caller must {!finish_block} and re-insert,
    which is the paper's flush-on-full rule. *)
let insert t (r : Dts_primary.Primary.retired) =
  if t.n = 0 then begin
    t.first_addr <- Some r.addr;
    t.entry_cwp <- r.cwp;
    t.order_ctr <- 0;
    Array.fill t.rr_ctr 0 4 0;
    t.n_copies <- 0;
    Hashtbl.reset t.fwd;
    Hashtbl.reset t.last_writer;
    let sop = build_sop t r (prep_sop t r) in
    place_new t (add_element t) sop;
    `Ok
  end
  else begin
    let tail = element t (t.n - 1) in
    (* decode once; the sop itself is built lazily only once we know we can
       take it: the order counter and forwarding table must not advance if
       the list is full *)
    let p = prep_sop t r in
    let tail_w = li_all_writes tail.e_li in
    let tail_r = li_fold (fun acc _ op _ -> slot_arch_reads op @ acc) [] tail.e_li in
    let fu = Dts_isa.Instr.fu_class r.instr in
    let dep =
      Dts_isa.Storage.any_overlap p.p_arch_writes tail_w
      || Dts_isa.Storage.any_overlap p.p_arch_writes tail_r
      || find_slot t tail.e_li fu = None
      || (t.cfg.strict_control_insert && tail.e_li.n_branches > 0)
    in
    let dep = dep || flow_blocked_at t ~target:(t.n - 1) p.p_reads in
    if not dep then begin
      place_new t tail (build_sop t r p);
        `Ok
    end
    else begin
      (* a new tail element — possibly further down if a multicycle
         producer is still in flight (empty padding long instructions model
         the stall) *)
      let rec first_ok idx =
        if idx >= t.cfg.height then None
        else if flow_blocked_at t ~target:idx p.p_reads then first_ok (idx + 1)
        else Some idx
      in
      match first_ok t.n with
      | None -> `Full
      | Some idx ->
        let el = ref (add_element t) in
        while t.n <= idx do
          el := add_element t
        done;
        place_new t !el (build_sop t r p);
            `Ok
    end
  end

(* ------------------------------------------------------------------ *)
(* Block finalisation                                                   *)
(* ------------------------------------------------------------------ *)

(** Freeze the current scheduling list into a block pointing at
    [nba_addr], emptying the list. [None] if the list was empty. All
    outstanding candidates are installed in place. *)
let finish_block t ~nba_addr : block option =
  if t.n = 0 then None
  else begin
    let lis =
      Array.init t.n (fun i ->
          let el = element t i in
          el.e_cand <- None;
          el.e_li)
    in
    let n_slots_filled = Array.fold_left (fun a li -> a + li_count li) 0 lis in
    let max_li_ops = Array.fold_left (fun a li -> max a (li_count li)) 0 lis in
    let block =
      {
        tag_addr = Option.get t.first_addr;
        entry_cwp = t.entry_cwp;
        lis;
        nba_addr;
        nba_idx = t.n - 1;
        rr_counts = Array.copy t.rr_ctr;
        n_slots_filled;
        n_copies = t.n_copies;
        max_li_ops;
      }
    in
    Array.fill t.els 0 t.cfg.height None;
    t.n <- 0;
    t.first_addr <- None;
    Some block
  end

