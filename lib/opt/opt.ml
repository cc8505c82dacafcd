(** An offline optimality oracle for the Scheduler Unit: branch-and-bound
    scheduling of a finished block's operations into the provably minimal
    number of long instructions.

    The greedy FCFS scheduler (§3.2) commits each retired instruction to
    the first legal slot as the trace streams past; this module answers
    "how many long instructions did that cost over the best possible?" for
    the exact same operation set. The oracle does not re-derive renaming:
    it takes the block as built — split operations, their COPYs, the
    forwarded (substituted) read sets — and searches over cycle
    assignments of those slot ops under the constraints the block's
    execution semantics impose:

    - value flow: every reader stays between the writer whose value it
      observed and the next writer of that position (RAW with the
      producer's functional-unit latency, WAR allowing same-cycle
      placement, WAW in strict order) — positions include renaming
      registers, so an op precedes its COPYs automatically;
    - the §3.10 memory-order rule, exactly as {!Dts_vliw.Aliaslog.violates}
      enforces it at runtime: overlapping store/store and store→load pairs
      in strictly increasing long instructions, load→store free to share
      one;
    - control: an operation with an architectural effect (an unrenamed
      write, or being a branch) never crosses a conditional branch —
      same-cycle placement is legal because branch tags squash the younger
      op on a mispredict (§3.8), which the rebuilt tags express;
    - geometry: per-cycle slot capacity under the machine's functional-unit
      classes. Dedicated slots are per-class and universal slots are the
      only shared pool, so feasibility is the counting (Hall) condition
      [sum_c max 0 (need_c - dedicated_c) <= universal], not first-fit.

    The search enumerates only subsets that are maximal among the eligible
    ops of each cycle (an exchange argument shows some optimal schedule is
    cycle-wise maximal), prunes with a critical-path + resource lower bound
    and a memoized dominance table keyed on latency-clamped ages, and
    degrades to a certified [lower <= optimal <= upper] pair when the node
    budget runs out. *)

open Dts_sched.Schedtypes
module Instr = Dts_isa.Instr
module Storage = Dts_isa.Storage
module SU = Dts_sched.Sched_unit

(* Test-only fault injection (the PR-5 mutation-sanity convention, see
   {!Dts_vliw.Aliaslog.fault_skip_store_check}): inflate the pruning bound
   by one cycle, making the branch-and-bound discard subtrees that contain
   the true optimum. The exhaustive cross-check corpus in test/test_opt.ml
   must catch the resulting "certified optimal" over-estimates — proving
   the property tests can detect an unsound oracle. *)
let fault_weaken_pruning = ref false

let fu_index = function
  | Instr.Fu_int -> 0
  | Instr.Fu_mem -> 1
  | Instr.Fu_fp -> 2
  | Instr.Fu_br -> 3

(* ------------------------------------------------------------------ *)
(* Geometry                                                             *)
(* ------------------------------------------------------------------ *)

type geometry = {
  g_width : int;
  g_classes : Instr.fu_class option array option;
  g_ded : int array;  (** dedicated slots per {!fu_index} class *)
  g_uni : int;  (** universal slots *)
}

let geometry ~width ~(slot_classes : Instr.fu_class option array option) =
  let ded = Array.make 4 0 in
  let uni = ref 0 in
  (match slot_classes with
  | None -> uni := width
  | Some classes ->
    Array.iter
      (function
        | None -> incr uni
        | Some c -> ded.(fu_index c) <- ded.(fu_index c) + 1)
      classes);
  { g_width = width; g_classes = slot_classes; g_ded = ded; g_uni = !uni }

let geometry_of_sched (c : SU.config) =
  geometry ~width:c.SU.width ~slot_classes:c.SU.slot_classes

let geometry_of_config (cfg : Dts_core.Config.t) =
  geometry_of_sched cfg.Dts_core.Config.sched


(* Can one cycle host [counts.(off .. off + 3)] ops ([total] in all)?
   Dedicated slots are per-class; universal slots are the only shared
   resource. *)
let caps_ok_at g counts off total =
  total <= g.g_width
  &&
  let spill = ref 0 in
  for c = 0 to 3 do
    spill := !spill + max 0 (counts.(off + c) - g.g_ded.(c))
  done;
  !spill <= g.g_uni

let caps_ok g counts total = caps_ok_at g counts 0 total

(* ------------------------------------------------------------------ *)
(* The constraint model                                                 *)
(* ------------------------------------------------------------------ *)

type node = {
  n_op : slot_op;
  n_fu : Instr.fu_class;
  n_lat : int;  (** producer latency (COPYs: 1) *)
  n_trace : int;  (** trace position: op uid; a COPY carries its op's *)
  n_branch : bool;
  n_arch : bool;  (** architectural effect: unrenamed write or branch *)
}

(** The constraints as flat arrays: edge [j] of [m_pred_off.(v) <= j <
    m_pred_off.(v + 1)] says every schedule needs
    [li v >= li m_pred.(j) + m_pred_w.(j)]; [m_succ*] hold the same edges
    grouped by source. Each (u, v) pair appears once, at its largest
    weight. *)
type model = {
  m_nodes : node array;
  m_fcfs : int;  (** long instructions of the block as built *)
  m_orig : int array;  (** the block's own assignment (node -> li index) *)
  m_pred_off : int array;
  m_pred : int array;
  m_pred_w : int array;
  m_succ_off : int array;
  m_succ : int array;
  m_succ_w : int array;
  m_maxlat : int;
  m_mem : int array;
      (** the block's §3.10 events in node order, five ints each: node,
          is_store (0/1), order field, address, size *)
}

let model_nodes m = Array.length m.m_nodes

(* The model's nodes in (trace, node) order. *)
let trace_order (m : model) =
  let n = Array.length m.m_nodes in
  let a = Array.init n (fun i -> (m.m_nodes.(i).n_trace * n) + i) in
  sort_ints a;
  for k = 0 to n - 1 do
    let r = a.(k) mod n in
    a.(k) <- (if r < 0 then r + n else r)
  done;
  a

let node_of_slot lat op =
  let trace = match op with Op s -> s.uid | Copy c -> c.c_from in
  let branch =
    match op with
    | Op s -> Instr.is_conditional_ctrl s.instr
    | Copy _ -> false
  in
  let lat_n = match op with Op s -> Instr.latency lat s.instr | Copy _ -> 1 in
  let arch =
    branch
    || Array.exists (fun w -> not (Storage.code_is_ren w)) (slot_wcodes op)
  in
  {
    n_op = op;
    n_fu = slot_fu op;
    n_lat = (if lat_n > 1 then lat_n else 1);
    n_trace = trace;
    n_branch = branch;
    n_arch = arch;
  }

(* A growable int buffer. *)
type buf = { mutable b_a : int array; mutable b_n : int }

let buf_push b x =
  if b.b_n = Array.length b.b_a then begin
    let a = Array.make (2 * b.b_n) 0 in
    Array.blit b.b_a 0 a 0 b.b_n;
    b.b_a <- a
  end;
  b.b_a.(b.b_n) <- x;
  b.b_n <- b.b_n + 1

(* The §3.10 events of node [i]: its own load, its own unrenamed store, or
   the store a COPY commits, appended to [ev] as (i, is_store, order,
   addr, size) — what the engine logs into the alias log at runtime. *)
let push_event ev i is_store order addr size =
  buf_push ev i;
  buf_push ev (if is_store then 1 else 0);
  buf_push ev order;
  buf_push ev addr;
  buf_push ev size

let rec push_loads ev i order = function
  | [] -> ()
  | Storage.Mem { addr; size } :: tl ->
    push_event ev i false order addr size;
    push_loads ev i order tl
  | _ :: tl -> push_loads ev i order tl

let rec push_stores ev i order wcodes k = function
  | [] -> ()
  | w :: tl ->
    (match w with
    | Storage.Mem { addr; size } when wcodes.(k) = Storage.no_code ->
      push_event ev i true order addr size
    | _ -> ());
    push_stores ev i order wcodes (k + 1) tl

let rec push_copy_stores ev i order = function
  | [] -> ()
  | (_, T_arch (Storage.Mem { addr; size })) :: tl ->
    push_event ev i true order addr size;
    push_copy_stores ev i order tl
  | _ :: tl -> push_copy_stores ev i order tl

let push_mem_events ev i op =
  match op with
  | Op s when Instr.is_load s.instr -> push_loads ev i s.order s.reads
  | Op s when Instr.is_store s.instr ->
    push_stores ev i s.order s.wcodes 0 s.arch_writes
  | Op _ -> ()
  | Copy c -> push_copy_stores ev i c.c_order c.c_moves

(* A growable list of constraint edges [li v >= li u + w]. *)
type edges = {
  mutable e_u : int array;
  mutable e_v : int array;
  mutable e_w : int array;
  mutable e_n : int;
}

let add_edge es u v w =
  if u <> v then begin
    if es.e_n = Array.length es.e_u then begin
      let grow a =
        let a' = Array.make (2 * Array.length a) 0 in
        Array.blit a 0 a' 0 es.e_n;
        a'
      in
      es.e_u <- grow es.e_u;
      es.e_v <- grow es.e_v;
      es.e_w <- grow es.e_w
    end;
    es.e_u.(es.e_n) <- u;
    es.e_v.(es.e_n) <- v;
    es.e_w.(es.e_n) <- w;
    es.e_n <- es.e_n + 1
  end

(* Each (u, v) pair once, at its largest weight: predecessor and successor
   arrays of [n] nodes, as (offsets, node, weight). A target's
   predecessors keep the order of their first edges; a source's
   successors come by target. *)
let adjacency n es =
  (* bucket the edges by target *)
  let start = Array.make (n + 1) 0 in
  for i = 0 to es.e_n - 1 do
    start.(es.e_v.(i) + 1) <- start.(es.e_v.(i) + 1) + 1
  done;
  for v = 1 to n do
    start.(v) <- start.(v) + start.(v - 1)
  done;
  let fill = Array.sub start 0 n in
  let by_v = Array.make es.e_n 0 in
  for i = 0 to es.e_n - 1 do
    let v = es.e_v.(i) in
    by_v.(fill.(v)) <- i;
    fill.(v) <- fill.(v) + 1
  done;
  (* [seen.(u) = v] once (u, v) is counted, [= n + v] once it has a slot,
     [at.(u)] that slot *)
  let seen = Array.make n (-1) and at = fill in
  let pred_off = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    let k = ref 0 in
    for j = start.(v) to start.(v + 1) - 1 do
      let u = es.e_u.(by_v.(j)) in
      if seen.(u) <> v then begin
        seen.(u) <- v;
        incr k
      end
    done;
    pred_off.(v + 1) <- pred_off.(v) + !k
  done;
  let ne = pred_off.(n) in
  let pred = Array.make ne 0 and pred_w = Array.make ne 0 in
  let succ_off = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    let k = ref pred_off.(v) in
    for j = start.(v) to start.(v + 1) - 1 do
      let i = by_v.(j) in
      let u = es.e_u.(i) and w = es.e_w.(i) in
      if seen.(u) <> n + v then begin
        seen.(u) <- n + v;
        at.(u) <- !k;
        pred.(!k) <- u;
        pred_w.(!k) <- w;
        succ_off.(u + 1) <- succ_off.(u + 1) + 1;
        incr k
      end
      else if w > pred_w.(at.(u)) then pred_w.(at.(u)) <- w
    done
  done;
  for u = 1 to n do
    succ_off.(u) <- succ_off.(u) + succ_off.(u - 1)
  done;
  let succ = Array.make ne 0 and succ_w = Array.make ne 0 in
  Array.blit succ_off 0 at 0 n;
  for v = 0 to n - 1 do
    for j = pred_off.(v) to pred_off.(v + 1) - 1 do
      let u = pred.(j) in
      succ.(at.(u)) <- v;
      succ_w.(at.(u)) <- pred_w.(j);
      at.(u) <- at.(u) + 1
    done
  done;
  (pred_off, pred, pred_w, succ_off, succ, succ_w)

let model_of_block (lat : Instr.latencies) (b : block) =
  let n = Array.fold_left (fun a li -> a + li_count li) 0 b.lis in
  let orig = Array.make n 0 and slot = Array.make n 0 in
  let i = ref 0 in
  for li_idx = 0 to Array.length b.lis - 1 do
    let li = b.lis.(li_idx) in
    for j = 0 to li.n_filled - 1 do
      orig.(!i) <- li_idx;
      slot.(!i) <- li.filled.(j);
      incr i
    done
  done;
  let nodes =
    Array.init n (fun i ->
        match b.lis.(orig.(i)).slots.(slot.(i)) with
        | Some (op, _) -> node_of_slot lat op
        | None -> invalid_arg "Dts_opt.Opt.model_of_block: empty filled slot")
  in
  (* [na] counts the accesses to non-memory positions *)
  let na = ref 0 in
  for i = 0 to n - 1 do
    let op = nodes.(i).n_op in
    let ws = slot_wcodes op and rs = slot_rcodes op in
    for k = 0 to Array.length ws - 1 do
      if ws.(k) >= 0 then incr na
    done;
    for k = 0 to Array.length rs - 1 do
      if rs.(k) >= 0 then incr na
    done
  done;
  let na = !na in
  let es =
    {
      e_u = Array.make ((4 * n) + 16) 0;
      e_v = Array.make ((4 * n) + 16) 0;
      e_w = Array.make ((4 * n) + 16) 0;
      e_n = 0;
    }
  in
  (* value flow through non-memory positions (architectural registers,
     flags, the window pointer and renaming registers): the block's own
     placement names, for every position, which writer each reader
     observed — the model pins each reader between that writer and the
     next one, and orders the writers themselves. A position's writers are
     walked in (li, trace) order, the newest node first on a tie: each
     long instruction's nodes are ranked that way ([by_place] lists the
     nodes by rank), and accesses are grouped by position code by sorting
     them as [((code * n) + rank) * 2 + is_read]. Nodes come in li order,
     so only each li's own nodes need ordering. *)
  let by_place = Array.init n Fun.id in
  let lo = ref 0 in
  while !lo < n do
    let hi = ref (!lo + 1) in
    while !hi < n && orig.(!hi) = orig.(!lo) do
      incr hi
    done;
    for k = !lo + 1 to !hi - 1 do
      let x = by_place.(k) in
      let tx = nodes.(x).n_trace in
      let j = ref (k - 1) in
      while
        !j >= !lo
        &&
        let y = by_place.(!j) in
        let ty = nodes.(y).n_trace in
        tx < ty || (tx = ty && x > y)
      do
        by_place.(!j + 1) <- by_place.(!j);
        decr j
      done;
      by_place.(!j + 1) <- x
    done;
    lo := !hi
  done;
  let rank = Array.make n 0 in
  for r = 0 to n - 1 do
    rank.(by_place.(r)) <- r
  done;
  let accesses = Array.make na 0 in
  let j = ref 0 in
  for i = 0 to n - 1 do
    let op = nodes.(i).n_op in
    for is_read = 0 to 1 do
      let codes = if is_read = 0 then slot_wcodes op else slot_rcodes op in
      for k = 0 to Array.length codes - 1 do
        let c = codes.(k) in
        if c >= 0 then begin
          accesses.(!j) <- (((c * n) + rank.(i)) * 2) + is_read;
          incr j
        end
      done
    done
  done;
  sort_ints accesses;
  let ws = Array.make na 0 in
  let g = ref 0 in
  while !g < na do
    let code = accesses.(!g) / (2 * n) in
    let stop = ref !g in
    while !stop < na && accesses.(!stop) / (2 * n) = code do
      incr stop
    done;
    (* the writers in (li, trace) order, each ordered after the last *)
    let nw = ref 0 in
    for j = !g to !stop - 1 do
      let a = accesses.(j) in
      if a land 1 = 0 then begin
        ws.(!nw) <- by_place.(a / 2 mod n);
        incr nw
      end
    done;
    for k = 0 to !nw - 2 do
      add_edge es ws.(k) ws.(k + 1) 1
    done;
    (* the writer each reader observed: the last one strictly above it
       (reads happen at the start of a long instruction, writes commit at
       the end) — and the next writer it must not sink past (same cycle is
       fine, for the same reason). Readers come in li order, so the first
       writer at or below the reader only moves down. *)
    let p = ref 0 in
    for j = !g to !stop - 1 do
      let a = accesses.(j) in
      if a land 1 = 1 then begin
        let r = by_place.(a / 2 mod n) in
        while !p < !nw && orig.(ws.(!p)) < orig.(r) do
          incr p
        done;
        if !p > 0 then begin
          let w = ws.(!p - 1) in
          add_edge es w r nodes.(w).n_lat
        end;
        (* a reader of the block-entry state, or of the previous writer's
           value, stays at or above the next writer *)
        if !p < !nw then add_edge es r ws.(!p) 0
      end
    done;
    g := !stop
  done;
  (* §3.10: overlapping memory events in order-field order, exactly the
     runtime predicate of Dts_vliw.Aliaslog.violates *)
  let ev = { b_a = Array.make 40 0; b_n = 0 } in
  for i = 0 to n - 1 do
    push_mem_events ev i nodes.(i).n_op
  done;
  let evs = ev.b_a in
  for x = 0 to (ev.b_n / 5) - 1 do
    let ua = evs.(5 * x) and sa = evs.((5 * x) + 1) = 1 in
    let oa = evs.((5 * x) + 2) and aa = evs.((5 * x) + 3) in
    let za = evs.((5 * x) + 4) in
    for y = 0 to (ev.b_n / 5) - 1 do
      let ub = evs.(5 * y) and sb = evs.((5 * y) + 1) = 1 in
      let ob = evs.((5 * y) + 2) and ab = evs.((5 * y) + 3) in
      let zb = evs.((5 * y) + 4) in
      if ua <> ub && oa < ob && aa < ab + zb && ab < aa + za then
        if sa then add_edge es ua ub 1 (* store commits strictly first *)
        else if sb then add_edge es ua ub 0 (* load may share the store's li *)
    done
  done;
  (* control: architectural effects never cross a conditional branch
     (same cycle is legal — the rebuilt branch tags squash the younger op
     on a mispredict); fully-renamed ops float freely, their committing
     COPYs carry the architectural effect and the pin *)
  for bidx = 0 to n - 1 do
    let nb = nodes.(bidx) in
    if nb.n_branch then
      for i = 0 to n - 1 do
        let nd = nodes.(i) in
        if i <> bidx && nd.n_arch then
          if nd.n_trace < nb.n_trace then add_edge es i bidx 0
          else add_edge es bidx i 0
      done
  done;
  let pred_off, pred, pred_w, succ_off, succ, succ_w = adjacency n es in
  {
    m_nodes = nodes;
    m_fcfs = Array.length b.lis;
    m_orig = orig;
    m_pred_off = pred_off;
    m_pred = pred;
    m_pred_w = pred_w;
    m_succ_off = succ_off;
    m_succ = succ;
    m_succ_w = succ_w;
    m_maxlat =
      Array.fold_left (fun a nd -> if nd.n_lat > a then nd.n_lat else a) 1 nodes;
    m_mem = Array.sub evs 0 ev.b_n;
  }

(* ------------------------------------------------------------------ *)
(* Checking an assignment against the model                             *)
(* ------------------------------------------------------------------ *)

let assignment_ok g (m : model) assign =
  let n = Array.length m.m_nodes in
  Array.length assign = n
  &&
  let ok = ref true in
  for v = 0 to n - 1 do
    if assign.(v) < 0 then ok := false
    else
      for j = m.m_pred_off.(v) to m.m_pred_off.(v + 1) - 1 do
        if assign.(m.m_pred.(j)) + m.m_pred_w.(j) > assign.(v) then ok := false
      done
  done;
  (if !ok && n > 0 then begin
     let maxc = Array.fold_left max 0 assign + 1 in
     let counts = Array.make (4 * maxc) 0 in
     let totals = Array.make maxc 0 in
     for v = 0 to n - 1 do
       let c = assign.(v) in
       let k = (4 * c) + fu_index m.m_nodes.(v).n_fu in
       counts.(k) <- counts.(k) + 1;
       totals.(c) <- totals.(c) + 1
     done;
     for t = 0 to maxc - 1 do
       if not (caps_ok_at g counts (4 * t) totals.(t)) then ok := false
     done
   end);
  !ok

(* ------------------------------------------------------------------ *)
(* Branch-and-bound search                                              *)
(* ------------------------------------------------------------------ *)

type solution = {
  s_fcfs : int;  (** cycles of the block as the greedy scheduler built it *)
  s_lower : int;  (** certified lower bound on the optimal cycle count *)
  s_upper : int;  (** cycles of the best schedule found ([s_schedule]) *)
  s_exact : bool;  (** [s_lower = s_upper]: the optimum is certified *)
  s_nodes : int;  (** search nodes expanded *)
  s_schedule : int array;  (** node -> cycle of the best schedule found *)
}

let default_node_budget = 20_000

(* Longest paths into every node along [off]/[src]/[wt] edges, by
   relaxation to fixpoint: the graph has zero-weight cycles (mutually
   same-cycle-constrained groups) but no positive cycle, so n+1 passes
   converge. *)
let longest_paths n off src wt arr =
  let changed = ref true and passes = ref 0 in
  while !changed do
    changed := false;
    incr passes;
    if !passes > n + 2 then
      failwith "Dts_opt.Opt.schedule: positive constraint cycle";
    for v = 0 to n - 1 do
      for j = off.(v) to off.(v + 1) - 1 do
        let x = arr.(src.(j)) + wt.(j) in
        if x > arr.(v) then begin
          arr.(v) <- x;
          changed := true
        end
      done
    done
  done

(* The dominance memo: an open-addressing table from fixed-length byte
   keys to cycles. The search fills [t_probe] in place and looks it up;
   only an insert copies it, into [t_keys] at [entry * t_len]. *)
type memo = {
  t_probe : Bytes.t;
  t_len : int;
  mutable t_keys : Bytes.t;
  mutable t_hash : int array;
  mutable t_cycle : int array;
  mutable t_count : int;
  mutable t_slots : int array;  (** entry index or -1; a power of two long *)
}

let memo_create len =
  {
    t_probe = Bytes.create len;
    t_len = len;
    t_keys = Bytes.create (32 * len);
    t_hash = Array.make 32 0;
    t_cycle = Array.make 32 0;
    t_count = 0;
    t_slots = Array.make 64 (-1);
  }

(* The entry whose key equals the probe (hashed to [h]), or -1. *)
let memo_find t h =
  let mask = Array.length t.t_slots - 1 in
  let i = ref (h land mask) and found = ref (-1) in
  while !found < 0 && t.t_slots.(!i) >= 0 do
    let e = t.t_slots.(!i) in
    if t.t_hash.(e) = h then begin
      let base = e * t.t_len and k = ref 0 in
      while
        !k < t.t_len
        && Bytes.unsafe_get t.t_keys (base + !k) = Bytes.unsafe_get t.t_probe !k
      do
        incr k
      done;
      if !k = t.t_len then found := e
    end;
    if !found < 0 then i := (!i + 1) land mask
  done;
  !found

let memo_slot t e =
  let mask = Array.length t.t_slots - 1 in
  let i = ref (t.t_hash.(e) land mask) in
  while t.t_slots.(!i) >= 0 do
    i := (!i + 1) land mask
  done;
  t.t_slots.(!i) <- e

(* Add the probe, hashed to [h], at cycle [c]. *)
let memo_add t h c =
  let e = t.t_count in
  if e = Array.length t.t_hash then begin
    let keys = Bytes.create (2 * e * t.t_len) in
    Bytes.blit t.t_keys 0 keys 0 (e * t.t_len);
    t.t_keys <- keys;
    let grow a =
      let a' = Array.make (2 * e) 0 in
      Array.blit a 0 a' 0 e;
      a'
    in
    t.t_hash <- grow t.t_hash;
    t.t_cycle <- grow t.t_cycle
  end;
  Bytes.blit t.t_probe 0 t.t_keys (e * t.t_len) t.t_len;
  t.t_hash.(e) <- h;
  t.t_cycle.(e) <- c;
  t.t_count <- e + 1;
  if 2 * t.t_count > Array.length t.t_slots then begin
    t.t_slots <- Array.make (2 * Array.length t.t_slots) (-1);
    for e = 0 to t.t_count - 1 do
      memo_slot t e
    done
  end
  else memo_slot t e

(* Bytes per op in a dominance key: enough for the codes 0 .. maxlat + 1. *)
let key_width maxlat =
  let rec bytes x = if x < 256 then 1 else 1 + bytes (x lsr 8) in
  bytes (maxlat + 1)

(* The search proper, for a model whose static bound [base_lb] is below
   its greedy length. The tree is the one described at the top: cycle by
   cycle, the maximal subsets of the eligible ops in trace order. Nothing
   is allocated per node: each cycle depth has its own eligibility and
   slot-count buffers, the bound's inputs are kept up to date as ops are
   placed and lifted, and a dominance key is hashed while it is written
   into the memo's probe. *)
let search ~node_budget g (m : model) cls est tail base_lb =
  let n = Array.length m.m_nodes in
  let width = g.g_width and fcfs = m.m_fcfs and maxlat = m.m_maxlat in
  let pred_off = m.m_pred_off and pred = m.m_pred and pred_w = m.m_pred_w in
  let slack = if !fault_weaken_pruning then 1 else 0 in
  let order = trace_order m in
  let cycle = Array.make n (-1) in
  let best_len = ref fcfs in
  let best = Array.copy m.m_orig in
  let expanded = ref 0 in
  let truncated = ref false in
  let cut_min = ref max_int in
  (* the bound's inputs: [cp] the latest [cycle + tail + 1] of a
     scheduled op, [remc] the unscheduled ops per class *)
  let cp = ref 0 and nsched = ref 0 in
  let remc = Array.make 4 0 in
  Array.iter (fun cl -> remc.(cl) <- remc.(cl) + 1) cls;
  let cap = Array.init 4 (fun cl -> min width (g.g_ded.(cl) + g.g_uni)) in
  (* lower bound on any completion of the current state at cycle [c]:
     scheduled critical paths, remaining critical paths, and the resource
     bound on what is left. A scheduled producer u of v adds nothing to
     v's path: [cycle u + w + tail v <= cycle u + tail u], already in
     [cp]. *)
  let state_bound c =
    let b = ref !cp in
    for v = 0 to n - 1 do
      if cycle.(v) < 0 then begin
        let x = (if est.(v) > c then est.(v) else c) + tail.(v) + 1 in
        if x > !b then b := x
      end
    done;
    let rem = n - !nsched in
    if rem > 0 then begin
      let x = c + ((rem + width - 1) / width) in
      if x > !b then b := x;
      for cl = 0 to 3 do
        let k = remc.(cl) in
        if k > 0 then begin
          let x = c + ((k + cap.(cl) - 1) / cap.(cl)) in
          if x > !b then b := x
        end
      done
    end;
    !b
  in
  let place v c =
    cycle.(v) <- c;
    incr nsched;
    remc.(cls.(v)) <- remc.(cls.(v)) - 1;
    let x = c + tail.(v) + 1 in
    if x > !cp then cp := x
  in
  let lift v ~cp0 =
    cp := cp0;
    remc.(cls.(v)) <- remc.(cls.(v)) + 1;
    decr nsched;
    cycle.(v) <- -1
  in
  (* dominance key: scheduled ops with their ages clamped at the latency
     horizon (older producers constrain nothing), one code per op — 0
     unscheduled, 1 clamped, age + 2 otherwise — in [kw] bytes each. Two
     states with equal keys at cycles c' <= c admit exactly the same
     continuations, shifted. *)
  let kw = key_width maxlat in
  let memo = memo_create (n * kw) in
  let dominated c =
    let key = memo.t_probe in
    let h = ref 0 in
    for i = 0 to n - 1 do
      let v = cycle.(i) in
      let code =
        if v < 0 then 0
        else
          let age = c - v in
          if age >= maxlat then 1 else age + 2
      in
      h := (!h * 31) + code;
      if kw = 1 then Bytes.unsafe_set key i (Char.unsafe_chr code)
      else
        for k = 0 to kw - 1 do
          Bytes.unsafe_set key ((i * kw) + k)
            (Char.unsafe_chr ((code lsr (8 * k)) land 255))
        done
    done;
    let h = !h lxor (!h lsr 29) in
    let h = h * 0x5bd1e995 in
    let h = (h lxor (h lsr 32)) land max_int in
    let e = memo_find memo h in
    if e >= 0 && memo.t_cycle.(e) <= c then true
    else begin
      if e >= 0 then memo.t_cycle.(e) <- c else memo_add memo h c;
      false
    end
  in
  (* eligible ops at cycle [c] into depth c's buffer, in trace order:
     strict predecessors placed far enough above, zero-weight predecessors
     placed or themselves eligible (zero-weight edges point trace-forward,
     so one pass suffices); [elig.(v) = gen] marks this pass's *)
  let elig = Array.make n 0 and gen = ref 0 in
  let es_at = Array.make (fcfs + 1) [||] in
  let eligible c =
    incr gen;
    if Array.length es_at.(c) = 0 then es_at.(c) <- Array.make n 0;
    let es = es_at.(c) and gen = !gen in
    let ne = ref 0 in
    for k = 0 to n - 1 do
      let v = order.(k) in
      if cycle.(v) < 0 then begin
        let ok = ref true and j = ref pred_off.(v) in
        while !ok && !j < pred_off.(v + 1) do
          let u = pred.(!j) and w = pred_w.(!j) in
          if w > 0 then begin
            if cycle.(u) < 0 || cycle.(u) + w > c then ok := false
          end
          else if cycle.(u) < 0 && elig.(u) <> gen then ok := false;
          incr j
        done;
        if !ok then begin
          elig.(v) <- gen;
          es.(!ne) <- v;
          incr ne
        end
      end
    done;
    !ne
  in
  (* slots taken at cycle depth c: dedicated per class at [4c + class],
     universal at [c]; an op chosen at c is one with [cycle = c] *)
  let used_ded = Array.make (4 * (fcfs + 1)) 0 in
  let used_uni = Array.make (fcfs + 1) 0 in
  let can_add c cl =
    used_ded.((4 * c) + cl) < g.g_ded.(cl) || used_uni.(c) < g.g_uni
  in
  let zero_preds_placed v =
    let ok = ref true and j = ref pred_off.(v) in
    while !ok && !j < pred_off.(v + 1) do
      if pred_w.(!j) = 0 && cycle.(pred.(!j)) < 0 then ok := false;
      incr j
    done;
    !ok
  in
  let cut b =
    if b < !cut_min then cut_min := b
  in
  let rec go c =
    if !nsched = n then begin
      let len = state_bound c in
      if len < !best_len then begin
        best_len := len;
        Array.blit cycle 0 best 0 n
      end
    end
    else begin
      let b = state_bound c in
      if b + slack >= !best_len then ()
      else if !truncated then cut b
      else if dominated c then ()
      else begin
        incr expanded;
        if !expanded > node_budget then begin
          truncated := true;
          cut b
        end
        else begin
          let ne = eligible c in
          if ne = 0 then go (c + 1) (* forced stall *)
          else begin
            Array.fill used_ded (4 * c) 4 0;
            used_uni.(c) <- 0;
            choose c b ne 0
          end
        end
      end
    end
  (* enumerate only subsets maximal among the eligible ops under the
     slot-class capacities: some optimal schedule is cycle-wise maximal
     (moving an addable op up to this cycle never hurts), so non-maximal
     subsets are dead weight *)
  and choose c b ne i =
    if !truncated then cut b
    else begin
      incr expanded;
      if !expanded > node_budget then begin
        truncated := true;
        cut b
      end
      else begin
        let es = es_at.(c) in
        if i = ne then begin
          let maximal = ref true and j = ref 0 in
          while !maximal && !j < ne do
            let v = es.(!j) in
            if cycle.(v) < 0 && can_add c cls.(v) && zero_preds_placed v then
              maximal := false;
            incr j
          done;
          if !maximal then go (c + 1)
        end
        else begin
          let v = es.(i) in
          let cl = cls.(v) in
          let took = can_add c cl && zero_preds_placed v in
          if took then begin
            let k = (4 * c) + cl in
            let ded = used_ded.(k) < g.g_ded.(cl) in
            if ded then used_ded.(k) <- used_ded.(k) + 1
            else used_uni.(c) <- used_uni.(c) + 1;
            let cp0 = !cp in
            place v c;
            choose c b ne (i + 1);
            lift v ~cp0;
            if ded then used_ded.(k) <- used_ded.(k) - 1
            else used_uni.(c) <- used_uni.(c) - 1
          end;
          if not !truncated then
            if not took then choose c b ne (i + 1)
            else if c + 1 + tail.(v) + 1 + slack < !best_len then
              (* excluding v delays it to cycle c+1 at best *)
              choose c b ne (i + 1)
        end
      end
    end
  in
  go 0;
  let lower =
    if not !truncated then !best_len
    else max base_lb (min !best_len !cut_min)
  in
  {
    s_fcfs = fcfs;
    s_lower = lower;
    s_upper = !best_len;
    s_exact = lower = !best_len;
    s_nodes = !expanded;
    s_schedule = best;
  }

let schedule ?(node_budget = default_node_budget) g (m : model) =
  let n = Array.length m.m_nodes in
  if n = 0 then
    {
      s_fcfs = m.m_fcfs;
      s_lower = m.m_fcfs;
      s_upper = m.m_fcfs;
      s_exact = true;
      s_nodes = 0;
      s_schedule = [||];
    }
  else begin
    let cls = Array.map (fun nd -> fu_index nd.n_fu) m.m_nodes in
    Array.iter
      (fun cl ->
        if g.g_ded.(cl) + g.g_uni = 0 then
          invalid_arg
            "Dts_opt.Opt.schedule: the geometry has no slot for an op class")
      cls;
    (* static longest-path bounds *)
    let est = Array.make n 0 and tail = Array.make n 0 in
    longest_paths n m.m_pred_off m.m_pred m.m_pred_w est;
    longest_paths n m.m_succ_off m.m_succ m.m_succ_w tail;
    let width = g.g_width in
    let base_lb =
      let b = ref 0 in
      for v = 0 to n - 1 do
        b := max !b (est.(v) + tail.(v) + 1)
      done;
      b := max !b ((n + width - 1) / width);
      let cnt = Array.make 4 0 in
      Array.iter (fun cl -> cnt.(cl) <- cnt.(cl) + 1) cls;
      for cl = 0 to 3 do
        if cnt.(cl) > 0 then begin
          let cap = min width (g.g_ded.(cl) + g.g_uni) in
          b := max !b ((cnt.(cl) + cap - 1) / cap)
        end
      done;
      !b
    in
    if base_lb >= m.m_fcfs then
      (* the greedy schedule already meets the static lower bound *)
      {
        s_fcfs = m.m_fcfs;
        s_lower = m.m_fcfs;
        s_upper = m.m_fcfs;
        s_exact = true;
        s_nodes = 0;
        s_schedule = Array.copy m.m_orig;
      }
    else search ~node_budget g m cls est tail base_lb
  end

(* ------------------------------------------------------------------ *)
(* Exhaustive cross-check                                               *)
(* ------------------------------------------------------------------ *)

(** Minimal makespan by brute-force enumeration of every cycle assignment
    (cycles 0..fcfs-1) — an independent implementation used to cross-check
    the branch-and-bound on small blocks. Each op's cycle range is cut to
    the cycles that can still be part of a shorter schedule (see below),
    so long latencies cost no more than short ones.
    @raise Invalid_argument over 12 ops. *)
let exhaustive g (m : model) =
  let n = Array.length m.m_nodes in
  if n = 0 then 0
  else begin
    if n > 12 then invalid_arg "Dts_opt.Opt.exhaustive: too many ops";
    let maxc = m.m_fcfs in
    let cls = Array.map (fun nd -> fu_index nd.n_fu) m.m_nodes in
    (* [tail.(v)]: the longest weighted path from [v] to any op, so every
       complete schedule has [cycle v + tail v + 1 <= makespan] *)
    let tail = Array.make n 0 in
    longest_paths n m.m_succ_off m.m_succ m.m_succ_w tail;
    let cycle = Array.make n (-1) in
    let used_ded = Array.make (4 * maxc) 0 in
    let used_uni = Array.make maxc 0 in
    let best = ref m.m_fcfs in
    let rec assign v =
      if v = n then begin
        let mk = Array.fold_left (fun a c -> max a (c + 1)) 0 cycle in
        if mk < !best then best := mk
      end
      else begin
        (* Lower bound: a cycle below [cycle u + w] for a placed
           predecessor [u] breaks that edge, so starting the loop at the
           largest such value skips only cycles the edge check below
           rejects. *)
        let lo = ref 0 in
        for j = m.m_pred_off.(v) to m.m_pred_off.(v + 1) - 1 do
          let u = m.m_pred.(j) in
          if cycle.(u) >= 0 && cycle.(u) + m.m_pred_w.(j) > !lo then
            lo := cycle.(u) + m.m_pred_w.(j)
        done;
        (* Upper bound, re-read as [best] falls: a schedule placing [v] at
           [t] has makespan at least [t + tail v + 1] (the path behind [v]
           must still fit), which beats [best] only when
           [t <= best - 2 - tail v], i.e. [t < best - 1 - tail v]. Cycles
           past it cannot lead to a leaf that updates [best]. *)
        let rec from t =
          if t <= min (maxc - 1) (!best - 2 - tail.(v)) then begin
            let cl = cls.(v) in
            let k = (4 * t) + cl in
            let ok =
              ref (used_ded.(k) < g.g_ded.(cl) || used_uni.(t) < g.g_uni)
            in
            for j = m.m_pred_off.(v) to m.m_pred_off.(v + 1) - 1 do
              let u = m.m_pred.(j) in
              if cycle.(u) >= 0 && cycle.(u) + m.m_pred_w.(j) > t then ok := false
            done;
            for j = m.m_succ_off.(v) to m.m_succ_off.(v + 1) - 1 do
              let x = m.m_succ.(j) in
              if cycle.(x) >= 0 && t + m.m_succ_w.(j) > cycle.(x) then ok := false
            done;
            if !ok then begin
              let ded = used_ded.(k) < g.g_ded.(cl) in
              if ded then used_ded.(k) <- used_ded.(k) + 1
              else used_uni.(t) <- used_uni.(t) + 1;
              cycle.(v) <- t;
              assign (v + 1);
              cycle.(v) <- -1;
              if ded then used_ded.(k) <- used_ded.(k) - 1
              else used_uni.(t) <- used_uni.(t) - 1
            end;
            from (t + 1)
          end
        in
        from !lo
      end
    in
    assign 0;
    !best
  end

(* ------------------------------------------------------------------ *)
(* Rebuilding a block from a schedule                                   *)
(* ------------------------------------------------------------------ *)

(* A slot for [fu]: a free dedicated slot of that class first, a free
   universal slot otherwise (universal is the only shared pool, so
   dedicated-first is exact whenever the Hall condition holds). *)
let pick_slot g li fu =
  let k =
    match g.g_classes with
    | None -> li_free_slot li fu
    | Some classes ->
      let ded = ref (-1) and uni = ref (-1) in
      for k = Array.length li.slots - 1 downto 0 do
        match (li.slots.(k), classes.(k)) with
        | None, Some c when c = fu -> ded := k
        | None, None -> uni := k
        | _ -> ()
      done;
      if !ded >= 0 then !ded else !uni
  in
  if k < 0 then invalid_arg "Dts_opt.Opt.rebuild: no free slot";
  k

let store_like = function
  | Op s -> Instr.is_store s.instr
  | Copy c ->
    List.exists
      (fun (_, t) ->
        match t with T_arch (Storage.Mem _) -> true | _ -> false)
      c.c_moves

(** Materialise [assign] (node -> cycle) as a block: the same slot ops in
    new long instructions, branch tags recomputed as the number of
    trace-earlier branches sharing the long instruction, §3.10 cross bits
    recomputed, the geometry's slot classes respected. Shares the
    (mutable) scheduled ops with [b] — the caller is expected to discard
    the original. *)
let rebuild g (b : block) (m : model) assign =
  let n = Array.length m.m_nodes in
  if n = 0 then b
  else begin
    let len = Array.fold_left (fun a c -> if c > a then c else a) 0 assign + 1 in
    let lis = Array.init len (fun _ -> li_create g.g_width) in
    (* each long instruction filled in trace order; [nbr.(t)] counts its
       branches so far, the tag of the next op *)
    let nbr = Array.make len 0 and stores = Array.make len 0 in
    let order = trace_order m in
    for k = 0 to n - 1 do
      let v = order.(k) in
      let t = assign.(v) in
      let nd = m.m_nodes.(v) in
      li_fill lis.(t) (pick_slot g lis.(t) nd.n_fu) (nd.n_op, nbr.(t));
      if nd.n_branch then nbr.(t) <- nbr.(t) + 1;
      if store_like nd.n_op then stores.(t) <- stores.(t) + 1
    done;
    (* a memory op's cross bit: another store-like op shares its li *)
    for v = 0 to n - 1 do
      match m.m_nodes.(v).n_op with
      | Op s when Instr.is_mem s.instr ->
        let own = if Instr.is_store s.instr then 1 else 0 in
        s.cross <- stores.(assign.(v)) - own > 0
      | _ -> ()
    done;
    let max_li_ops = ref 0 in
    Array.iteri
      (fun t li ->
        li.n_branches <- nbr.(t);
        if li_count li > !max_li_ops then max_li_ops := li_count li)
      lis;
    { b with lis; nba_idx = len - 1; max_li_ops = !max_li_ops }
  end

(* ------------------------------------------------------------------ *)
(* Independent legality check                                           *)
(* ------------------------------------------------------------------ *)

(** Check a block against every invariant the oracle's model encodes —
    geometry classes, the dependence/latency/control constraints
    (re-derived from the block itself), branch-tag consistency, and the
    §3.10 rule replayed through the engine's own {!Dts_vliw.Aliaslog}.
    Greedy-built blocks and oracle-rebuilt blocks must both pass. *)
let check_block g (lat : Instr.latencies) (b : block) =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  Array.iteri
    (fun i li ->
      if Array.length li.slots <> g.g_width then
        err "li %d: width %d but geometry width %d" i (Array.length li.slots)
          g.g_width)
    b.lis;
  (match g.g_classes with
  | None -> ()
  | Some classes ->
    Array.iteri
      (fun i li ->
        for j = 0 to li.n_filled - 1 do
          let k = li.filled.(j) in
          match (li.slots.(k), classes.(k)) with
          | Some (op, _), Some c when c <> slot_fu op ->
            err "li %d slot %d: %s op in a dedicated slot of another class" i k
              (Instr.show_fu_class (slot_fu op))
          | _ -> ()
        done)
      b.lis);
  let m = model_of_block lat b in
  if not (assignment_ok g m m.m_orig) then
    err "schedule violates the dependence/latency/control/geometry model";
  (* branch tags: each op's tag counts the trace-earlier branches of its
     li, whose traces [brs] holds *)
  let brs = Array.make (Array.fold_left (fun a li -> max a (li_count li)) 0 b.lis) 0 in
  let i = ref 0 in
  Array.iteri
    (fun li_idx li ->
      let lo = !i and nbr = ref 0 in
      for j = 0 to li.n_filled - 1 do
        let nd = m.m_nodes.(lo + j) in
        if nd.n_branch then begin
          brs.(!nbr) <- nd.n_trace;
          incr nbr
        end
      done;
      if li.n_branches <> !nbr then
        err "li %d: n_branches %d but %d branches present" li_idx li.n_branches
          !nbr;
      for j = 0 to li.n_filled - 1 do
        match li.slots.(li.filled.(j)) with
        | Some (_, tag) ->
          let t = m.m_nodes.(lo + j).n_trace in
          let expect = ref 0 in
          for x = 0 to !nbr - 1 do
            if brs.(x) < t then incr expect
          done;
          if tag <> !expect then
            err "li %d: tag %d on an op with %d trace-earlier branches" li_idx
              tag !expect
        | None -> ()
      done;
      i := lo + li.n_filled)
    b.lis;
  (* the alias log replays the model's events, in block order *)
  let ev = m.m_mem in
  if Array.length ev > 0 then begin
    let log = Dts_vliw.Aliaslog.create () in
    try
      for x = 0 to (Array.length ev / 5) - 1 do
        Dts_vliw.Aliaslog.log log ~addr:ev.((5 * x) + 3) ~size:ev.((5 * x) + 4)
          ~order:ev.((5 * x) + 2) ~li:m.m_orig.(ev.(5 * x))
          ~is_store:(ev.((5 * x) + 1) = 1) ~cross:false
      done
    with Dts_vliw.Aliaslog.Alias_violation ->
      err "section-3.10 order violation (alias-log replay)"
  end;
  match !errs with
  | [] -> Ok ()
  | es -> Error (String.concat "; " (List.rev es))

(* ------------------------------------------------------------------ *)
(* Per-run gap summaries                                                *)
(* ------------------------------------------------------------------ *)

(** Aggregated FCFS-vs-optimal comparison over the blocks of one run. All
    cycle counts are sums over the blocks. *)
type gap_summary = {
  gs_blocks : int;
  gs_fcfs_lis : int;  (** long instructions as greedily built *)
  gs_opt_lower : int;  (** certified lower bounds *)
  gs_opt_upper : int;  (** best schedules found *)
  gs_certified : int;  (** blocks whose optimum is certified exactly *)
  gs_search_nodes : int;  (** total branch-and-bound nodes expanded *)
}

let empty_summary =
  {
    gs_blocks = 0;
    gs_fcfs_lis = 0;
    gs_opt_lower = 0;
    gs_opt_upper = 0;
    gs_certified = 0;
    gs_search_nodes = 0;
  }

let summarize ?node_budget g (lat : Instr.latencies) blocks =
  List.fold_left
    (fun acc b ->
      let s = schedule ?node_budget g (model_of_block lat b) in
      {
        gs_blocks = acc.gs_blocks + 1;
        gs_fcfs_lis = acc.gs_fcfs_lis + s.s_fcfs;
        gs_opt_lower = acc.gs_opt_lower + s.s_lower;
        gs_opt_upper = acc.gs_opt_upper + s.s_upper;
        gs_certified = (acc.gs_certified + if s.s_exact then 1 else 0);
        gs_search_nodes = acc.gs_search_nodes + s.s_nodes;
      })
    empty_summary blocks

let summarize_config ?node_budget (cfg : Dts_core.Config.t) blocks =
  summarize ?node_budget (geometry_of_config cfg)
    cfg.Dts_core.Config.sched.SU.latencies blocks

(* ------------------------------------------------------------------ *)
(* Machine wiring                                                       *)
(* ------------------------------------------------------------------ *)

(** A drop-in Scheduler Unit that also appends every finished block to the
    returned list (in finish order, newest first): pass the function to
    {!Dts_core.Machine.create}'s [?scheduler] and read the blocks after
    the run. Behaviour-identical to the default scheduler. *)
let capturing_scheduler (cfg : Dts_core.Config.t) =
  let captured = ref [] in
  let make () =
    let u = SU.create cfg.Dts_core.Config.sched in
    {
      Dts_core.Machine.s_tick = (fun () -> SU.tick u);
      s_insert = (fun r -> SU.insert u r);
      s_finish =
        (fun ~nba_addr ->
          match SU.finish_block u ~nba_addr with
          | Some b ->
            captured := b :: !captured;
            Some b
          | None -> None);
    }
  in
  (make, captured)

(** A Scheduler Unit whose finished blocks are replaced by the oracle's
    best schedule (rebuilt and re-checked) before installation — the
    differential fuzzer's optimal-oracle backend. Runs the whole machine on
    provably legal minimal(-ish) schedules; any modelling error surfaces as
    a co-simulation mismatch or a failed {!check_block}. *)
let rescheduling_scheduler ?(node_budget = 4_000) (cfg : Dts_core.Config.t) ()
    =
  let u = SU.create cfg.Dts_core.Config.sched in
  let g = geometry_of_config cfg in
  let lat = cfg.Dts_core.Config.sched.SU.latencies in
  {
    Dts_core.Machine.s_tick = (fun () -> SU.tick u);
    s_insert = (fun r -> SU.insert u r);
    s_finish =
      (fun ~nba_addr ->
        match SU.finish_block u ~nba_addr with
        | None -> None
        | Some b ->
          let m = model_of_block lat b in
          let s = schedule ~node_budget g m in
          if s.s_fcfs < s.s_lower then
            failwith
              (Printf.sprintf
                 "Dts_opt: greedy block of %d lis beats the certified lower \
                  bound %d"
                 s.s_fcfs s.s_lower);
          let b' = rebuild g b m s.s_schedule in
          (match check_block g lat b' with
          | Ok () -> Some b'
          | Error e ->
            failwith ("Dts_opt: rebuilt block fails the invariant check: " ^ e)));
  }
