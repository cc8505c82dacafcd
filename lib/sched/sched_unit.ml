(** The Scheduler Unit: a behavioural implementation of the paper's
    pipelined First-Come-First-Served scheduling algorithm (§3.2).

    Each machine cycle the unit (a) resolves every candidate instruction —
    moving it up, installing it, or splitting it — and (b) accepts at most
    one instruction completed by the Primary Processor, placing it at the
    tail of the scheduling list.

    Candidates are resolved head→tail, so a candidate at element [i] sees
    element [i-1] {e after} that element's candidate has been resolved this
    cycle; this matches the carry-lookahead signal formulation of §3.7
    (implemented independently in {!Signals} and cross-checked by property
    tests).

    Dependence tests read a summary each element keeps of its long
    instruction — how many of its ops read and write each position — which
    placing, moving, splitting and finishing update op by op, the way the
    paper's unit compares register, flag and address fields with fixed
    comparators (§3.7) instead of re-deriving the line's read and write
    sets. Positions are {!Dts_isa.Storage.code}s, interned into columns the
    first time the unit sees them; memory keeps its byte ranges and is
    tested against the line's ops only when both sides touch memory. *)

open Schedtypes

type config = {
  width : int;  (** instructions per long instruction *)
  height : int;  (** long instructions per block *)
  nwindows : int;
  slot_classes : Dts_isa.Instr.fu_class option array option;
      (** [None] = homogeneous functional units; [Some a] restricts slot k
          to class [a.(k)] ([None] entry = universal). *)
  renaming : bool;  (** instruction splitting enabled (§3.2) *)
  resplit_on_control : bool;
      (** split again on every further branch crossed (§3.8, literal
          reading); [false] lets an already-renamed op move freely *)
  mem_motion : bool;  (** loads/stores may move up and split (§3.9) *)
  strict_control_insert : bool;
      (** a branch in the tail long instruction forces a new element at
          insertion (the stricter reading of §3.2) *)
  latencies : Dts_isa.Instr.latencies;
      (** functional-unit latencies: a producer with latency L must sit at
          least L long instructions above any consumer (the multicycle
          scheduling of §3.9's reference [14]); the paper's own experiments
          use unit latencies *)
}

let default_config =
  {
    width = 8;
    height = 8;
    nwindows = 32;
    slot_classes = None;
    renaming = true;
    resplit_on_control = true;
    mem_motion = true;
    strict_control_insert = false;
    latencies = Dts_isa.Instr.unit_latencies;
  }

type decision = D_install | D_move | D_split

type t = {
  cfg : config;
  maxlat : int;
  els : element option array;
  mutable n : int;
  mutable first_addr : int option;
  mutable entry_cwp : int;
  mutable order_ctr : int;
  rr_ctr : int array;  (** per-kind renaming registers used in this block *)
  mutable uid_ctr : int;
  mutable n_copies : int;
  (* position columns: each block gives the positions it meets columns
     0, 1, ... in turn. [pages.(code lsr 6).(code land 63)] holds
     [(gen lsl 20) lor column] for a code that has a column in block
     generation [gen]; starting a block bumps [gen], which frees every
     column at once. *)
  mutable pages : int array array;
  mutable gen : int;
  mutable ncols : int;
  mutable cap : int;  (** columns the per-column arrays have room for *)
  (* per-element summaries of the long instructions under construction *)
  mutable wcnt : int array;
      (** [wcnt.(e * cap + c)]: ops of element [e] writing column [c] *)
  mutable rcnt : int array;  (** the same for reads *)
  mem_w : int array;  (** per element: ops with an effective memory write *)
  mem_r : int array;  (** per element: ops reading memory *)
  stores : int array;  (** per element: stores and memory COPYs (§3.10) *)
  long : int array;  (** per element: ops whose latency exceeds one *)
  (* forwarding state, per column, cleared when the column is assigned *)
  mutable fwd_rr : rref array;
      (** renaming register currently holding the position's value, or
          [no_rref] *)
  mutable lw_uid : int array;
      (** uid of the latest program-order writer of the position — a split
          may only establish a forwarding for positions it still owns *)
}

let no_rref = { kind = K_int; ridx = -1 }
let initial_cap = 32

let create cfg =
  let maxlat = Dts_isa.Instr.max_latency cfg.latencies in
  let l = cfg.latencies in
  if min (min l.l_load l.l_mul) (min l.l_div l.l_fp) < 1 then
    invalid_arg "Sched_unit.create: latencies must be at least 1";
  let h = cfg.height in
  {
    cfg;
    maxlat;
    els = Array.make h None;
    n = 0;
    first_addr = None;
    entry_cwp = 0;
    order_ctr = 0;
    rr_ctr = Array.make 4 0;
    uid_ctr = 0;
    n_copies = 0;
    pages = [||];
    gen = 0;
    ncols = 0;
    cap = initial_cap;
    wcnt = Array.make (h * initial_cap) 0;
    rcnt = Array.make (h * initial_cap) 0;
    mem_w = Array.make h 0;
    mem_r = Array.make h 0;
    stores = Array.make h 0;
    long = Array.make h 0;
    fwd_rr = Array.make initial_cap no_rref;
    lw_uid = Array.make initial_cap 0;
  }

let is_empty t = t.n = 0
let cfg t = t.cfg
let element t i =
  match t.els.(i) with Some el -> el | None -> invalid_arg "Sched_unit.element"
let length t = t.n

let find_slot t li fu = li_free_slot ?slot_classes:t.cfg.slot_classes li fu

let op_latency t = function
  | Op s -> Dts_isa.Instr.latency t.cfg.latencies s.instr
  | Copy _ -> 1

let store_like = function
  | Op s -> Dts_isa.Instr.is_store s.instr
  | Copy c -> List.exists (fun (r, _) -> r.kind = K_mem) c.c_moves

(* ------------------------------------------------------------------ *)
(* Position columns                                                     *)
(* ------------------------------------------------------------------ *)

let grow_cols t =
  let cap = t.cap and cap' = 2 * t.cap in
  let grow_rows a =
    let a' = Array.make (Array.length t.els * cap') 0 in
    for e = 0 to Array.length t.els - 1 do
      Array.blit a (e * cap) a' (e * cap') cap
    done;
    a'
  in
  let extend a fill =
    let a' = Array.make cap' fill in
    Array.blit a 0 a' 0 cap;
    a'
  in
  t.wcnt <- grow_rows t.wcnt;
  t.rcnt <- grow_rows t.rcnt;
  t.fwd_rr <- extend t.fwd_rr no_rref;
  t.lw_uid <- extend t.lw_uid 0;
  t.cap <- cap'

let column_bits = 20
let column_mask = (1 lsl column_bits) - 1

(* The column of position [code] (>= 0), assigning one on first use in
   the block. *)
let column t code =
  let p = code lsr 6 in
  if p >= Array.length t.pages then begin
    let pages = Array.make (max 8 (2 * p)) [||] in
    Array.blit t.pages 0 pages 0 (Array.length t.pages);
    t.pages <- pages
  end;
  let page =
    match t.pages.(p) with
    | [||] ->
      let page = Array.make 64 0 in
      t.pages.(p) <- page;
      page
    | page -> page
  in
  let e = page.(code land 63) in
  if e lsr column_bits = t.gen then e land column_mask
  else begin
    if t.ncols = t.cap then grow_cols t;
    let c = t.ncols in
    t.ncols <- c + 1;
    page.(code land 63) <- (t.gen lsl column_bits) lor c;
    t.fwd_rr.(c) <- no_rref;
    t.lw_uid.(c) <- 0;
    c
  end

(* The column of [code] if it has one in this block, else -1. *)
let find_column t code =
  let p = code lsr 6 in
  if p >= Array.length t.pages then -1
  else
    let page = t.pages.(p) in
    if Array.length page = 0 then -1
    else
      let e = page.(code land 63) in
      if e lsr column_bits = t.gen then e land column_mask else -1

let wcount t e code =
  let c = find_column t code in
  if c < 0 then 0 else t.wcnt.((e * t.cap) + c)

let rcount t e code =
  let c = find_column t code in
  if c < 0 then 0 else t.rcnt.((e * t.cap) + c)

(* ------------------------------------------------------------------ *)
(* Element summaries                                                    *)
(* ------------------------------------------------------------------ *)

let bump counts i d = if i >= 0 then counts.(i) <- counts.(i) + d

(* The index of element [e]'s count of column [c], or -1 for no element. *)
let at t e c = if e >= 0 then (e * t.cap) + c else -1

(* Move one slot op's positions from element [src]'s summary to element
   [dst]'s; -1 at either end adds the op to, or removes it from, the list.
   An op leaves with the codes it entered with, so a split removes the op
   before renaming its outputs. *)
let move_summary t ~src ~dst op =
  let rc = slot_rcodes op and wc = slot_wcodes op in
  for i = 0 to Array.length rc - 1 do
    let code = rc.(i) in
    if code < 0 then begin
      bump t.mem_r src (-1);
      bump t.mem_r dst 1
    end
    else begin
      let c = column t code in
      bump t.rcnt (at t src c) (-1);
      bump t.rcnt (at t dst c) 1
    end
  done;
  for i = 0 to Array.length wc - 1 do
    let code = wc.(i) in
    if code < 0 then begin
      bump t.mem_w src (-1);
      bump t.mem_w dst 1
    end
    else begin
      let c = column t code in
      bump t.wcnt (at t src c) (-1);
      bump t.wcnt (at t dst c) 1
    end
  done;
  if store_like op then begin
    bump t.stores src (-1);
    bump t.stores dst 1
  end;
  if t.maxlat > 1 && op_latency t op > 1 then begin
    bump t.long src (-1);
    bump t.long dst 1
  end

(* Does a memory range [addr, addr + size) in [ps] overlap [a, a + sz)?
   Only memory positions have no code, so [codes] (parallel to [ps]) tells
   an effective memory write from one redirected to a renaming register. *)
let rec mem_overlap_coded a sz codes i = function
  | [] -> false
  | Dts_isa.Storage.Mem m :: tl ->
    (codes.(i) = Dts_isa.Storage.no_code && m.addr < a + sz && a < m.addr + m.size)
    || mem_overlap_coded a sz codes (i + 1) tl
  | _ :: tl -> mem_overlap_coded a sz codes (i + 1) tl

(** Does [op] write memory overlapping [a, a + sz)? (Redirected stores
    write their memory renaming register instead.) *)
let slot_mem_write_overlaps op a sz =
  match op with
  | Op s -> mem_overlap_coded a sz s.wcodes 0 s.arch_writes
  | Copy c ->
    List.exists
      (fun (_, t) ->
        match t with
        | T_arch (Dts_isa.Storage.Mem m) -> m.addr < a + sz && a < m.addr + m.size
        | T_arch _ | T_ren _ -> false)
      c.c_moves

(** Does [op] read memory overlapping [a, a + sz)? Copies read only
    renaming registers. *)
let slot_mem_read_overlaps op a sz =
  match op with
  | Op s -> mem_overlap_coded a sz s.rcodes 0 s.reads
  | Copy _ -> false

(* Does an op of [li], other than the one in slot [skip], meet memory
   range [a, a + sz) through [test] ([slot_mem_write_overlaps] or
   [slot_mem_read_overlaps])? *)
let li_mem_overlap test li ~skip a sz =
  let hit = ref false and i = ref 0 in
  while (not !hit) && !i < li.n_filled do
    let k = li.filled.(!i) in
    (if k <> skip then
       match li.slots.(k) with
       | Some (op, _) -> if test op a sz then hit := true
       | None -> ());
    incr i
  done;
  !hit

let li_mem_writes_overlap li ~skip a sz =
  li_mem_overlap slot_mem_write_overlaps li ~skip a sz

let li_mem_reads_overlap li ~skip a sz =
  li_mem_overlap slot_mem_read_overlaps li ~skip a sz

(* Does a memory position among [ps] (codes [codes]) meet, through [test],
   an op of [li] other than slot [skip]? *)
let rec mem_meets test li ~skip codes i = function
  | [] -> false
  | Dts_isa.Storage.Mem m :: tl ->
    (codes.(i) = Dts_isa.Storage.no_code && test li ~skip m.addr m.size)
    || mem_meets test li ~skip codes (i + 1) tl
  | _ :: tl -> mem_meets test li ~skip codes (i + 1) tl

(* Do the effective writes of [op] meet the read set [rcodes]/[reads]? *)
let slot_writes_meet op rcodes reads =
  let wc = slot_wcodes op in
  let hit = ref false in
  for i = 0 to Array.length wc - 1 do
    let w = wc.(i) in
    if w >= 0 then
      for j = 0 to Array.length rcodes - 1 do
        if rcodes.(j) = w then hit := true
      done
  done;
  !hit
  ||
  let rec mem = function
    | [] -> false
    | Dts_isa.Storage.Mem m :: tl ->
      slot_mem_write_overlaps op m.addr m.size || mem tl
    | _ :: tl -> mem tl
  in
  mem reads

(* Would an op reading [s]'s read set placed at long-instruction index
   [target] be too close to a producer? A producer at index j with latency
   L blocks consumers at indices < j + L; for unit latencies this is the
   paper's adjacent-li flow test, read off the target's summary. *)
let flow_blocked_at t ~target (s : sop) =
  let blocked = ref false in
  if target >= 0 && target < t.n then begin
    let rc = s.rcodes in
    for i = 0 to Array.length rc - 1 do
      let code = rc.(i) in
      if code >= 0 && wcount t target code > 0 then blocked := true
    done;
    if (not !blocked) && t.mem_w.(target) > 0 then
      blocked :=
        mem_meets li_mem_writes_overlap (element t target).e_li ~skip:(-1) rc
          0 s.reads
  end;
  for d = 1 to t.maxlat - 1 do
    let j = target - d in
    if (not !blocked) && j >= 0 && j < t.n && t.long.(j) > 0 then begin
      let li = (element t j).e_li in
      for i = 0 to li.n_filled - 1 do
        match li.slots.(li.filled.(i)) with
        | Some (op, _) ->
          if
            (not !blocked)
            && op_latency t op > d
            && slot_writes_meet op s.rcodes s.reads
          then blocked := true
        | None -> ()
      done
    end
  done;
  !blocked

(* Occurrences of [code] in [codes]. *)
let occurrences codes code =
  let n = ref 0 in
  for i = 0 to Array.length codes - 1 do
    if codes.(i) = code then incr n
  done;
  !n

(* Write [p] (effective code [code]) of the candidate [s] sitting in slot
   [slot] of element [i]: is it an anti dependency on another op of the
   element? *)
let anti_at t i ~slot (s : sop) code p =
  if code >= 0 then rcount t i code > occurrences s.rcodes code
  else
    match p with
    | Dts_isa.Storage.Mem m ->
      t.mem_r.(i) > 0
      && li_mem_reads_overlap (element t i).e_li ~skip:slot m.addr m.size
    | _ -> false

(* ... an output dependency on an op of element [j]? *)
let out_at t j code p =
  if code >= 0 then wcount t j code > 0
  else
    match p with
    | Dts_isa.Storage.Mem m ->
      t.mem_w.(j) > 0
      && li_mem_writes_overlap (element t j).e_li ~skip:(-1) m.addr m.size
    | _ -> false

(* The candidate's writes as bit masks, bit [k] for write [k]: those with
   an anti dependency on another op of element [i] (the candidate sits in
   [slot]), and those with an output dependency on an op of element [j].
   An op writes a handful of positions. *)
let rec anti_mask t i ~slot (s : sop) k = function
  | [] -> 0
  | p :: tl ->
    (if anti_at t i ~slot s s.wcodes.(k) p then 1 lsl k else 0)
    lor anti_mask t i ~slot s (k + 1) tl

let rec out_mask t j (s : sop) k = function
  | [] -> 0
  | p :: tl ->
    (if out_at t j s.wcodes.(k) p then 1 lsl k else 0) lor out_mask t j s (k + 1) tl

(* [s]'s writes already in a renaming register ([`Ren]) or to the window
   pointer ([`Win]), as a mask. *)
let code_mask (s : sop) which =
  let m = ref 0 in
  for k = 0 to Array.length s.wcodes - 1 do
    let code = s.wcodes.(k) in
    let hit =
      match which with
      | `Ren -> Dts_isa.Storage.code_is_ren code
      | `Win -> code = Dts_isa.Storage.code Win
    in
    if hit then m := !m lor (1 lsl k)
  done;
  !m

(* The positions of [s]'s writes in [mask], sorted as [compare] orders
   them (the order of the COPY's moves). *)
let positions_in (s : sop) mask =
  let rec go k acc = function
    | [] -> acc
    | p :: tl -> go (k + 1) (if mask land (1 lsl k) <> 0 then p :: acc else acc) tl
  in
  List.sort_uniq compare (go 0 [] s.arch_writes)

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
   operation already there. [placed] is already in element [e]'s
   summary. *)
let update_cross_bits t e li placed =
  let placed_store = store_like placed in
  (match placed with
  | Op s when Dts_isa.Instr.is_mem s.instr ->
    if t.stores.(e) > if placed_store then 1 else 0 then s.cross <- true
  | Op _ | Copy _ -> ());
  if placed_store then
    for i = 0 to li.n_filled - 1 do
      match li.slots.(li.filled.(i)) with
      | Some (Op o, _) when Dts_isa.Instr.is_mem o.instr -> o.cross <- true
      | Some _ | None -> ()
    done

(* Put [cell] = [Some (op, tag)] into slot [k] of element [e], whose
   summary already counts [op] when [counted]. *)
let place ?(counted = false) t e cell k =
  let li = (element t e).e_li in
  li_put li k cell;
  match cell with
  | Some (op, _) ->
    if not counted then move_summary t ~src:(-1) ~dst:e op;
    update_cross_bits t e li op
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Forwarding tables                                                    *)
(* ------------------------------------------------------------------ *)

let forwarded t code =
  let c = find_column t code in
  if c >= 0 then t.fwd_rr.(c) else no_rref

let set_forward t code rr = t.fwd_rr.(column t code) <- rr

let last_writer_is t code uid =
  let c = find_column t code in
  c >= 0 && t.lw_uid.(c) = uid

let forwardable : Dts_isa.Storage.t -> bool = function
  | Int_reg _ | Fp_reg _ | Flags -> true
  | Win | Mem _ | Ren _ -> false

(* ------------------------------------------------------------------ *)
(* Candidate resolution (one cycle of move-up logic)                    *)
(* ------------------------------------------------------------------ *)

(* Move the candidate [c] of element [i] (held in [cand_cell]) up into
   free slot [k] of element [i-1]. The op's slot cell, and the candidate
   itself, are reused when the tag does not change, so a move allocates
   nothing. *)
let do_move t i cand_cell c k =
  let cur = element t i and prev = element t (i - 1) in
  let op = c.c_op in
  let cell = cur.e_li.slots.(c.c_slot) in
  (match cell with
  | Some ((Op o as slot_op), _) when o == op ->
    move_summary t ~src:i ~dst:(i - 1) slot_op
  | _ -> invalid_arg "Sched_unit: companion slot corrupted");
  li_clear_slot cur.e_li c.c_slot;
  let tag = li_cur_tag prev.e_li in
  let cell =
    match cell with
    | Some (_, old) when old = tag -> cell
    | Some (o, _) -> Some (o, tag)
    | None -> cell
  in
  place ~counted:true t (i - 1) cell k;
  cur.e_cand <- None;
  c.c_slot <- k;
  c.c_tag <- tag;
  prev.e_cand <- cand_cell

let do_split t i cand_cell c k ~rename_arch ~rechain =
  let cur = element t i and prev = element t (i - 1) in
  let op = c.c_op in
  let slot_op =
    match cur.e_li.slots.(c.c_slot) with
    | Some ((Op o as slot_op), _) when o == op -> slot_op
    | _ -> invalid_arg "Sched_unit: companion slot corrupted"
  in
  move_summary t ~src:i ~dst:(-1) slot_op;
  let moves_arch =
    List.map
      (fun p ->
        let kind = Option.get (rr_kind_of_storage p) in
        let rr = alloc_rr t kind in
        op.redirect <- (p, rr) :: List.remove_assoc p op.redirect;
        (* forward only while this op is still the latest program-order
           writer of p: otherwise later readers must see the newer value *)
        if forwardable p then begin
          let code = Dts_isa.Storage.code p in
          if last_writer_is t code op.uid then set_forward t code rr
        end;
        (rr, T_arch p))
      rename_arch
  in
  let moves_chain =
    List.map
      (fun p ->
        let rr_old = List.assoc p op.redirect in
        let rr_new = alloc_rr t rr_old.kind in
        op.redirect <- (p, rr_new) :: List.remove_assoc p op.redirect;
        (* only retarget the forwarding if it still points at rr_old *)
        if forwardable p then begin
          let code = Dts_isa.Storage.code p in
          let f = forwarded t code in
          if f.kind = rr_old.kind && f.ridx = rr_old.ridx then
            set_forward t code rr_new
        end;
        (rr_new, T_ren rr_old))
      rechain
  in
  set_redirect op op.redirect;
  let moves = if moves_chain = [] then moves_arch else moves_arch @ moves_chain in
  assert (moves <> []);
  let copy =
    Copy
      (make_copy ~fu:op.fu ~moves
         ~order:(if Dts_isa.Instr.is_store op.instr then op.order else -1)
         ~from:op.uid ())
  in
  (* the companion becomes the copy, permanently, with the op's tag *)
  place t i (Some (copy, c.c_tag)) c.c_slot;
  (* the renamed op moves up *)
  let tag = li_cur_tag prev.e_li in
  place t (i - 1) (Some (slot_op, tag)) k;
  cur.e_cand <- None;
  c.c_slot <- k;
  c.c_tag <- tag;
  prev.e_cand <- cand_cell;
  t.n_copies <- t.n_copies + 1

(** Resolve the candidate at element [i]; returns the decision taken. *)
let resolve t i : decision =
  let cur = element t i in
  let cand_cell = cur.e_cand in
  match cand_cell with
  | None -> invalid_arg "resolve: no candidate"
  | Some c ->
    if i = 0 then begin
      (* head of the list: install (§3.7, the (i⊗0) term) *)
      cur.e_cand <- None;
      D_install
    end
    else begin
      let prev = element t (i - 1) in
      let op = c.c_op in
      let k = find_slot t prev.e_li op.fu in
      if flow_blocked_at t ~target:(i - 1) op || k < 0 then begin
        cur.e_cand <- None;
        D_install
      end
      else begin
        let slot = c.c_slot in
        let ctrl = c.c_tag >= 1 in
        let deps =
          anti_mask t i ~slot op 0 op.arch_writes
          lor out_mask t (i - 1) op 0 op.arch_writes
        in
        if deps = 0 && not ctrl then begin
          do_move t i cand_cell c k;
          D_move
        end
        else begin
          (* a split renames every write with a dependency, and under a
             branch every architectural write *)
          let ren = code_mask op `Ren in
          let all = (1 lsl Array.length op.wcodes) - 1 in
          let rename = if ctrl then deps lor (all land lnot ren) else deps in
          if
            (not t.cfg.renaming)
            || Dts_isa.Instr.latency t.cfg.latencies op.instr > 1
            (* a multicycle op cannot split: its copy would sit closer than
               the latency allows *)
            || rename land (ren lor code_mask op `Win) <> 0
            (* a non-renameable position (Win) blocks the split *)
          then begin
            cur.e_cand <- None;
            D_install
          end
          else if
            rename = 0
            && ((not (ctrl && t.cfg.resplit_on_control)) || op.redirect = [])
          then begin
            (* already fully renamed and no re-split requested: free to move *)
            do_move t i cand_cell c k;
            D_move
          end
          else begin
            let rename_arch = positions_in op rename in
            let rechain =
              if ctrl && t.cfg.resplit_on_control then
                List.filter_map
                  (fun (p, _) ->
                    if List.mem p rename_arch then None else Some p)
                  op.redirect
              else []
            in
            do_split t i cand_cell c k ~rename_arch ~rechain;
            D_split
          end
        end
      end
    end

(** One cycle of candidate resolution, head→tail. *)
let tick t =
  for i = 0 to t.n - 1 do
    match (element t i).e_cand with
    | None -> ()
    | Some _ -> ignore (resolve t i : decision)
  done

(** {!tick}, returning the decisions taken as [(element index before
    resolution, decision)]. *)
let tick_decisions t =
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

(* Forward renamed sources: a read of a position whose value currently
   lives in a renaming register reads that register instead (Fig. 2's
   [subcc r32, ...]). Returns the read set unchanged (no allocation) when
   nothing is forwarded. *)
let rec any_forwarded t = function
  | [] -> false
  | p :: tl ->
    (forwardable p && forwarded t (Dts_isa.Storage.code p) != no_rref)
    || any_forwarded t tl

let forward_reads t arch_reads =
  if not (any_forwarded t arch_reads) then (arch_reads, [])
  else begin
    let subs = ref [] in
    let reads =
      List.map
        (fun p ->
          if forwardable p then begin
            let rr = forwarded t (Dts_isa.Storage.code p) in
            if rr == no_rref then p
            else begin
              subs := (p, rr) :: !subs;
              storage_of_rref rr
            end
          end
          else p)
        arch_reads
    in
    (reads, !subs)
  end

(* The op [r] becomes if it is taken now. Building it changes nothing:
   {!commit} advances the uid and order counters and the forwarding
   state once the list has room for it. *)
let new_sop t (r : Dts_primary.Primary.retired) =
  (* the Primary decoded the sets once at retirement (same window count:
     the machine boots the shared state with this scheduler's nwindows) *)
  let arch_reads, arch_writes = r.rwsets in
  let reads, subs = forward_reads t arch_reads in
  make_sop ~uid:(t.uid_ctr + 1) ~instr:r.instr ~addr:r.addr ~cwp:r.cwp ~reads
    ~arch_writes ~obs_taken:r.taken ~obs_next_pc:r.next_pc ~obs_mem:r.mem
    ~order:(if Dts_isa.Instr.is_mem r.instr then t.order_ctr else -1)
    ~cross:false ~redirect:[] ~subs ~fu:(Dts_isa.Instr.fu_class r.instr)

let commit t (s : sop) =
  (* an architectural write supersedes any active forwarding of it, and
     makes this op the position's latest writer *)
  let wc = s.wcodes in
  for i = 0 to Array.length wc - 1 do
    let code = wc.(i) in
    if code >= 0 then begin
      let c = column t code in
      t.fwd_rr.(c) <- no_rref;
      t.lw_uid.(c) <- s.uid
    end
  done;
  t.uid_ctr <- s.uid;
  if s.order >= 0 then t.order_ctr <- t.order_ctr + 1

(* Place the new op [sop] into free slot [k] of element [e]. *)
let place_new t e sop k =
  if k < 0 then invalid_arg "Sched_unit: placing into full long instruction";
  let el = element t e in
  let tag = li_cur_tag el.e_li in
  place t e (Some (Op sop, tag)) k;
  if Dts_isa.Instr.is_conditional_ctrl sop.instr then
    (* branches establish a new tag and never move (§3.8) *)
    el.e_li.n_branches <- el.e_li.n_branches + 1
  else if t.cfg.mem_motion || not (Dts_isa.Instr.is_mem sop.instr) then
    el.e_cand <- Some { c_op = sop; c_slot = k; c_tag = tag }

let add_element t =
  let el = { e_li = li_create t.cfg.width; e_cand = None } in
  t.els.(t.n) <- Some el;
  t.n <- t.n + 1

(* Does the new op [s] write a position the tail element [e] reads or
   writes? *)
let tail_conflict t e (s : sop) =
  let wc = s.wcodes in
  let hit = ref false in
  for i = 0 to Array.length wc - 1 do
    let code = wc.(i) in
    if code >= 0 && (wcount t e code > 0 || rcount t e code > 0) then
      hit := true
  done;
  !hit
  || (t.mem_w.(e) > 0 || t.mem_r.(e) > 0)
     &&
     let li = (element t e).e_li in
     mem_meets li_mem_writes_overlap li ~skip:(-1) wc 0 s.arch_writes
     || mem_meets li_mem_reads_overlap li ~skip:(-1) wc 0 s.arch_writes

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
    (* a new block: every column, with its forwarding and last-writer
       entries, is free again *)
    t.gen <- t.gen + 1;
    t.ncols <- 0;
    let sop = new_sop t r in
    commit t sop;
    add_element t;
    place_new t 0 sop (find_slot t (element t 0).e_li sop.fu);
    `Ok
  end
  else begin
    let tail = t.n - 1 in
    let sop = new_sop t r in
    let k = find_slot t (element t tail).e_li sop.fu in
    let dep =
      tail_conflict t tail sop
      || k < 0
      || (t.cfg.strict_control_insert && (element t tail).e_li.n_branches > 0)
      || flow_blocked_at t ~target:tail sop
    in
    if not dep then begin
      commit t sop;
      place_new t tail sop k;
      `Ok
    end
    else begin
      (* a new tail element — possibly further down if a multicycle
         producer is still in flight (empty padding long instructions model
         the stall) *)
      let idx = ref t.n in
      while !idx < t.cfg.height && flow_blocked_at t ~target:!idx sop do
        incr idx
      done;
      if !idx >= t.cfg.height then `Full
      else begin
        while t.n <= !idx do
          add_element t
        done;
        commit t sop;
        place_new t !idx sop (find_slot t (element t !idx).e_li sop.fu);
        `Ok
      end
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
      Array.init t.n (fun e ->
          let el = element t e in
          el.e_cand <- None;
          el.e_li)
    in
    (* empty the summaries for the next block: only this block's columns
       can be non-zero *)
    for e = 0 to t.n - 1 do
      Array.fill t.wcnt (e * t.cap) t.ncols 0;
      Array.fill t.rcnt (e * t.cap) t.ncols 0
    done;
    Array.fill t.mem_w 0 t.n 0;
    Array.fill t.mem_r 0 t.n 0;
    Array.fill t.stores 0 t.n 0;
    Array.fill t.long 0 t.n 0;
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

(* ------------------------------------------------------------------ *)
(* Introspection / pretty printing (Figure 2 style)                     *)
(* ------------------------------------------------------------------ *)

let pp fmt t =
  for i = 0 to t.n - 1 do
    let el = element t i in
    let marker =
      (if i = 0 then "slh->" else "     ")
      ^ if i = t.n - 1 then "slt->" else "     "
    in
    Format.fprintf fmt "%s |" marker;
    Array.iter
      (fun slot ->
        match slot with
        | Some s -> Format.fprintf fmt " %a |" pp_slot s
        | None -> Format.fprintf fmt " --- |")
      el.e_li.slots;
    (match el.e_cand with
    | Some c -> Format.fprintf fmt "   (cand: slot %d)" c.c_slot
    | None -> ());
    Format.fprintf fmt "@."
  done
