(* The list-and-tuple constraint model and the allocating branch-and-bound
   that Dts_opt.Opt used before its flat model and incremental search,
   kept as a reference: the test properties require the same deduplicated
   edge set and the same solution record, schedule included, from both. It
   shares Opt's node records, geometry and solution type, and reads Opt's
   fault_weaken_pruning flag. *)

open Dts_sched.Schedtypes
module Instr = Dts_isa.Instr
module Storage = Dts_isa.Storage
module Opt = Dts_opt.Opt
open Opt

type model = {
  m_nodes : Opt.node array;
  m_fcfs : int;
  m_orig : int array;
  m_preds : (int * int) array array;
      (** (u, w) in m_preds.(v): every schedule needs li v >= li u + w *)
  m_succs : (int * int) array array;
  m_maxlat : int;
}

(* Sort an int array in place: a merge sort comparing with [<] directly,
   several times faster than [Array.sort Int.compare] on the few hundred
   keys of a block. *)
let sort_ints a =
  let tmp = Array.make (Array.length a) 0 in
  let rec sort lo hi =
    if hi - lo <= 12 then
      for i = lo + 1 to hi - 1 do
        let x = a.(i) in
        let j = ref (i - 1) in
        while !j >= lo && a.(!j) > x do
          a.(!j + 1) <- a.(!j);
          decr j
        done;
        a.(!j + 1) <- x
      done
    else begin
      let mid = (lo + hi) / 2 in
      sort lo mid;
      sort mid hi;
      let i = ref lo and j = ref mid and k = ref lo in
      while !k < hi do
        if !j >= hi || (!i < mid && a.(!i) <= a.(!j)) then begin
          tmp.(!k) <- a.(!i);
          incr i
        end
        else begin
          tmp.(!k) <- a.(!j);
          incr j
        end;
        incr k
      done;
      Array.blit tmp lo a lo (hi - lo)
    end
  in
  sort 0 (Array.length a)

let dummy_node =
  Opt.node_of_slot Instr.unit_latencies
    (Copy (make_copy ~moves:[] ~order:(-1) ~from:0 ()))

(* The §3.10 events of a node: its own load, its own unrenamed store, or
   the store a COPY commits, passed to [f is_store order addr size] —
   what the engine logs into the alias log at runtime. *)
let iter_mem_events f op =
  match op with
  | Op s when Instr.is_load s.instr ->
    List.iter
      (function
        | Storage.Mem { addr; size } -> f false s.order addr size | _ -> ())
      s.reads
  | Op s when Instr.is_store s.instr ->
    List.iteri
      (fun k w ->
        match w with
        | Storage.Mem { addr; size } when s.wcodes.(k) = Storage.no_code ->
          f true s.order addr size
        | _ -> ())
      s.arch_writes
  | Op _ -> ()
  | Copy c ->
    List.iter
      (fun (_, t) ->
        match t with
        | T_arch (Storage.Mem { addr; size }) -> f true c.c_order addr size
        | _ -> ())
      c.c_moves

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

(* A fresh array for [k] edges; most nodes have one to three, built as
   literals without a call into the runtime. *)
let edge_array k =
  match k with
  | 0 -> [||]
  | 1 -> [| (0, 0) |]
  | 2 -> [| (0, 0); (0, 0) |]
  | 3 -> [| (0, 0); (0, 0); (0, 0) |]
  | k -> Array.make k (0, 0)

(* Each (u, v) pair once, at its largest weight: predecessor and successor
   lists of [n] nodes. *)
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
  (* [seen.(u) = v + 1] once (u, v) has a slot in [v]'s list, [best.(u)]
     its weight so far *)
  let seen = Array.make n 0 and best = Array.make n 0 in
  let n_succs = Array.make n 0 in
  let preds =
    Array.init n (fun v ->
        let k = ref 0 in
        for j = start.(v) to start.(v + 1) - 1 do
          let i = by_v.(j) in
          let u = es.e_u.(i) and w = es.e_w.(i) in
          if seen.(u) <> v + 1 then begin
            seen.(u) <- v + 1;
            best.(u) <- w;
            incr k
          end
          else if w > best.(u) then best.(u) <- w
        done;
        let ps = edge_array !k in
        k := 0;
        for j = start.(v) to start.(v + 1) - 1 do
          let u = es.e_u.(by_v.(j)) in
          if seen.(u) = v + 1 then begin
            (* the first occurrence takes the slot; mark it done *)
            seen.(u) <- -(v + 1);
            ps.(!k) <- (u, best.(u));
            n_succs.(u) <- n_succs.(u) + 1;
            incr k
          end
        done;
        ps)
  in
  let succs = Array.map edge_array n_succs in
  Array.fill n_succs 0 n 0;
  for v = 0 to n - 1 do
    let ps = preds.(v) in
    for j = 0 to Array.length ps - 1 do
      let u, w = ps.(j) in
      succs.(u).(n_succs.(u)) <- (v, w);
      n_succs.(u) <- n_succs.(u) + 1
    done
  done;
  (preds, succs)

let model_of_block (lat : Instr.latencies) (b : block) =
  let n = Array.fold_left (fun a li -> a + li_count li) 0 b.lis in
  let nodes = Array.make n dummy_node and orig = Array.make n 0 in
  (* [na] counts the accesses to non-memory positions *)
  let i = ref 0 and na = ref 0 in
  for li_idx = 0 to Array.length b.lis - 1 do
    let li = b.lis.(li_idx) in
    for j = 0 to li.n_filled - 1 do
      match li.slots.(li.filled.(j)) with
      | Some (op, _) ->
        nodes.(!i) <- node_of_slot lat op;
        orig.(!i) <- li_idx;
        incr i;
        Array.iter (fun c -> if c >= 0 then incr na) (slot_wcodes op);
        Array.iter (fun c -> if c >= 0 then incr na) (slot_rcodes op)
      | None -> ()
    done
  done;
  let na = !na in
  let es =
    {
      e_u = Array.make ((8 * n) + 8) 0;
      e_v = Array.make ((8 * n) + 8) 0;
      e_w = Array.make ((8 * n) + 8) 0;
      e_n = 0;
    }
  in
  (* value flow through non-memory positions (architectural registers,
     flags, the window pointer and renaming registers): the block's own
     placement names, for every position, which writer each reader
     observed — the model pins each reader between that writer and the
     next one, and orders the writers themselves. Accesses are grouped by
     position code by sorting them as [((code * n) + node) * 2 + is_read]. *)
  let accesses = Array.make na 0 in
  let j = ref 0 in
  for i = 0 to n - 1 do
    let op = nodes.(i).n_op in
    for is_read = 0 to 1 do
      let codes = if is_read = 0 then slot_wcodes op else slot_rcodes op in
      for k = 0 to Array.length codes - 1 do
        let c = codes.(k) in
        if c >= 0 then begin
          accesses.(!j) <- (((c * n) + i) * 2) + is_read;
          incr j
        end
      done
    done
  done;
  sort_ints accesses;
  let by_place a b =
    let c = Int.compare orig.(a) orig.(b) in
    if c <> 0 then c else Int.compare nodes.(a).n_trace nodes.(b).n_trace
  in
  let g = ref 0 in
  while !g < na do
    let code = accesses.(!g) / (2 * n) in
    let stop = ref !g in
    while !stop < na && accesses.(!stop) / (2 * n) = code do
      incr stop
    done;
    (* the writers, newest node first, in (li, trace) order *)
    let ws = ref [] in
    for j = !g to !stop - 1 do
      let a = accesses.(j) in
      if a land 1 = 0 then ws := (a / 2 mod n) :: !ws
    done;
    let ws = List.sort by_place !ws in
    let rec waw = function
      | a :: (b :: _ as tl) ->
        add_edge es a b 1;
        waw tl
      | _ -> ()
    in
    waw ws;
    for j = !g to !stop - 1 do
      let a = accesses.(j) in
      if a land 1 = 1 then begin
        let r = a / 2 mod n in
        (* the writer this reader observed: the last one strictly above
           it (reads happen at the start of a long instruction, writes
           commit at the end) — and the next writer it must not sink
           past (same cycle is fine, for the same reason) *)
        let prev = ref (-1) and next = ref (-1) and rest = ref ws in
        while !next < 0 && match !rest with [] -> false | _ :: _ -> true do
          match !rest with
          | w :: tl ->
            if orig.(w) < orig.(r) then prev := w else next := w;
            rest := tl
          | [] -> ()
        done;
        if !prev >= 0 then add_edge es !prev r nodes.(!prev).n_lat;
        (* a reader of the block-entry state, or of [prev]'s value, stays
           at or above the next writer *)
        if !next >= 0 then add_edge es r !next 0
      end
    done;
    g := !stop
  done;
  (* §3.10: overlapping memory events in order-field order, exactly the
     runtime predicate of Dts_vliw.Aliaslog.violates *)
  let evs = ref [] in
  Array.iteri
    (fun i nd ->
      iter_mem_events
        (fun is_store order addr size ->
          evs := (i, is_store, order, addr, size) :: !evs)
        nd.n_op)
    nodes;
  let evs = Array.of_list (List.rev !evs) in
  Array.iter
    (fun (na, sa, oa, aa, za) ->
      Array.iter
        (fun (nb, sb, ob, ab, zb) ->
          if na <> nb && oa < ob && aa < ab + zb && ab < aa + za then
            match (sa, sb) with
            | true, _ -> add_edge es na nb 1 (* store commits strictly first *)
            | false, true -> add_edge es na nb 0 (* load may share the store's li *)
            | false, false -> ())
        evs)
    evs;
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
  let preds, succs = adjacency n es in
  {
    m_nodes = nodes;
    m_fcfs = Array.length b.lis;
    m_orig = orig;
    m_preds = preds;
    m_succs = succs;
    m_maxlat =
      Array.fold_left (fun a nd -> if nd.n_lat > a then nd.n_lat else a) 1 nodes;
  }


let default_node_budget = 20_000

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
    (* static longest-path bounds by relaxation to fixpoint: the graph has
       zero-weight cycles (mutually same-cycle-constrained groups) but no
       positive cycle, so n+1 passes converge *)
    let est = Array.make n 0 and tail = Array.make n 0 in
    let relax dir arr =
      let changed = ref true and passes = ref 0 in
      while !changed do
        changed := false;
        incr passes;
        if !passes > n + 2 then
          failwith "Dts_opt.Opt.schedule: positive constraint cycle";
        for v = 0 to n - 1 do
          Array.iter
            (fun (u, w) ->
              if arr.(u) + w > arr.(v) then begin
                arr.(v) <- arr.(u) + w;
                changed := true
              end)
            dir.(v)
        done
      done
    in
    relax m.m_preds est;
    relax m.m_succs tail;
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
    else begin
      let maxlat = m.m_maxlat in
      let cycle = Array.make n (-1) in
      let nsched = ref 0 in
      let best_len = ref m.m_fcfs in
      let best = Array.copy m.m_orig in
      let expanded = ref 0 in
      let truncated = ref false in
      let cut_min = ref max_int in
      let memo : (string, int) Hashtbl.t = Hashtbl.create 64 in
      let order = Array.init n Fun.id in
      Array.sort
        (fun a b ->
          compare (m.m_nodes.(a).n_trace, a) (m.m_nodes.(b).n_trace, b))
        order;
      (* lower bound on any completion of the current state at cycle [c]:
         scheduled critical paths, remaining critical paths tightened by
         scheduled producers, and the resource bound on what is left *)
      let state_bound c =
        let b = ref 0 in
        let rem = ref 0 in
        let remc = [| 0; 0; 0; 0 |] in
        for v = 0 to n - 1 do
          if cycle.(v) >= 0 then begin
            let x = cycle.(v) + tail.(v) + 1 in
            if x > !b then b := x
          end
          else begin
            incr rem;
            remc.(cls.(v)) <- remc.(cls.(v)) + 1;
            let e = ref (if est.(v) > c then est.(v) else c) in
            Array.iter
              (fun (u, w) ->
                if cycle.(u) >= 0 && cycle.(u) + w > !e then e := cycle.(u) + w)
              m.m_preds.(v);
            let x = !e + tail.(v) + 1 in
            if x > !b then b := x
          end
        done;
        if !rem > 0 then begin
          let x = c + ((!rem + width - 1) / width) in
          if x > !b then b := x;
          for cl = 0 to 3 do
            if remc.(cl) > 0 then begin
              let cap = min width (g.g_ded.(cl) + g.g_uni) in
              let x = c + ((remc.(cl) + cap - 1) / cap) in
              if x > !b then b := x
            end
          done
        end;
        !b
      in
      let prune_bound b = b + if !fault_weaken_pruning then 1 else 0 in
      (* dominance key: scheduled ops with their ages clamped at the
         latency horizon (older producers constrain nothing), unscheduled
         ops as 255 — two states with equal keys at cycles c' <= c admit
         exactly the same continuations, shifted *)
      let key c =
        let bts = Bytes.create n in
        for i = 0 to n - 1 do
          let v = cycle.(i) in
          let byte =
            if v < 0 then 255
            else
              let age = c - v in
              if age >= maxlat then 254 else age
          in
          Bytes.unsafe_set bts i (Char.unsafe_chr byte)
        done;
        Bytes.unsafe_to_string bts
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
          if prune_bound b >= !best_len then ()
          else if !truncated then begin
            if b < !cut_min then cut_min := b
          end
          else begin
            let k = key c in
            match Hashtbl.find_opt memo k with
            | Some c' when c' <= c -> ()
            | _ ->
              Hashtbl.replace memo k c;
              incr expanded;
              if !expanded > node_budget then begin
                truncated := true;
                if b < !cut_min then cut_min := b
              end
              else begin
                (* eligible ops this cycle, in trace order: strict
                   predecessors placed far enough above, zero-weight
                   predecessors placed or themselves eligible (zero-weight
                   edges point trace-forward, so one pass suffices) *)
                let elig = Array.make n false in
                let e_rev = ref [] in
                Array.iter
                  (fun v ->
                    if cycle.(v) < 0 then begin
                      let ok = ref true in
                      Array.iter
                        (fun (u, w) ->
                          if w > 0 then begin
                            if cycle.(u) < 0 || cycle.(u) + w > c then
                              ok := false
                          end
                          else if cycle.(u) < 0 && not elig.(u) then ok := false)
                        m.m_preds.(v);
                      if !ok then begin
                        elig.(v) <- true;
                        e_rev := v :: !e_rev
                      end
                    end)
                  order;
                let es = Array.of_list (List.rev !e_rev) in
                let ne = Array.length es in
                if ne = 0 then go (c + 1) (* forced stall *)
                else begin
                  let pos = Array.make n (-1) in
                  Array.iteri (fun i v -> pos.(v) <- i) es;
                  let chosen = Array.make ne false in
                  let used_ded = Array.make 4 0 in
                  let used_uni = ref 0 in
                  let can_add cl =
                    used_ded.(cl) < g.g_ded.(cl) || !used_uni < g.g_uni
                  in
                  let preds_ok v =
                    let ok = ref true in
                    Array.iter
                      (fun (u, w) ->
                        if w = 0 && cycle.(u) < 0 && not chosen.(pos.(u)) then
                          ok := false)
                      m.m_preds.(v);
                    !ok
                  in
                  (* enumerate only subsets maximal among the eligible ops
                     under the slot-class capacities: some optimal schedule
                     is cycle-wise maximal (moving an addable op up to this
                     cycle never hurts), so non-maximal subsets are dead
                     weight *)
                  let rec choose i =
                    if !truncated then begin
                      if b < !cut_min then cut_min := b
                    end
                    else begin
                      incr expanded;
                      if !expanded > node_budget then begin
                        truncated := true;
                        if b < !cut_min then cut_min := b
                      end
                      else if i = ne then begin
                        let maximal = ref true in
                        for j = 0 to ne - 1 do
                          if !maximal && not chosen.(j) then begin
                            let v = es.(j) in
                            if can_add cls.(v) && preds_ok v then
                              maximal := false
                          end
                        done;
                        if !maximal then go (c + 1)
                      end
                      else begin
                        let v = es.(i) in
                        let took = ref false in
                        if can_add cls.(v) && preds_ok v then begin
                          let cl = cls.(v) in
                          let ded = used_ded.(cl) < g.g_ded.(cl) in
                          if ded then used_ded.(cl) <- used_ded.(cl) + 1
                          else incr used_uni;
                          chosen.(i) <- true;
                          cycle.(v) <- c;
                          incr nsched;
                          choose (i + 1);
                          decr nsched;
                          cycle.(v) <- -1;
                          chosen.(i) <- false;
                          if ded then used_ded.(cl) <- used_ded.(cl) - 1
                          else decr used_uni;
                          took := true
                        end;
                        if not !truncated then
                          if not !took then choose (i + 1)
                          else begin
                            (* excluding v delays it to cycle c+1 at best *)
                            let excl_lb = c + 1 + tail.(v) + 1 in
                            if prune_bound excl_lb < !best_len then
                              choose (i + 1)
                          end
                      end
                    end
                  in
                  choose 0
                end
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
        s_fcfs = m.m_fcfs;
        s_lower = lower;
        s_upper = !best_len;
        s_exact = lower = !best_len;
        s_nodes = !expanded;
        s_schedule = Array.copy best;
      }
    end
  end
