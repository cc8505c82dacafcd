type 'a entry = {
  mutable key : int;
  mutable payload : 'a option;
  mutable stamp : int;
}

type 'a t = {
  sets : 'a entry array array;
  n_sets : int;
  assoc : int;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable insertions : int;
  mutable evictions : int;
  mutable on_drop : (int -> 'a -> unit) option;
      (** notified with (key, payload) whenever a resident payload leaves
          the cache — replacement, eviction or invalidation — so owners of
          state derived from the payload (compiled plans) can release it *)
}

let create ~n_sets ~assoc =
  if n_sets <= 0 || n_sets land (n_sets - 1) <> 0 then
    invalid_arg "Blockcache.create: n_sets must be a power of two";
  let sets =
    Array.init n_sets (fun _ ->
        Array.init assoc (fun _ -> { key = 0; payload = None; stamp = 0 }))
  in
  {
    sets;
    n_sets;
    assoc;
    clock = 0;
    hits = 0;
    misses = 0;
    insertions = 0;
    evictions = 0;
    on_drop = None;
  }

let set_on_drop t f = t.on_drop <- Some f

let dropped t key payload =
  match t.on_drop with Some f -> f key payload | None -> ()

(* Blocks are tagged with the word-aligned SPARC-style address of their
   first instruction, so index on addr/4. *)
let set_of t addr = t.sets.((addr lsr 2) land (t.n_sets - 1))

(* Allocation-free lookup: an index loop (no iter closure, no ref) that
   returns the resident [Some] box itself rather than re-wrapping it. *)
let rec find_from t ways addr i n =
  if i >= n then begin
    t.misses <- t.misses + 1;
    None
  end
  else
    let e = Array.unsafe_get ways i in
    if e.payload <> None && e.key = addr then begin
      e.stamp <- t.clock;
      t.hits <- t.hits + 1;
      e.payload
    end
    else find_from t ways addr (i + 1) n

let find t addr =
  t.clock <- t.clock + 1;
  let ways = set_of t addr in
  find_from t ways addr 0 (Array.length ways)

let probe t addr =
  let ways = set_of t addr in
  Array.exists (fun e -> e.payload <> None && e.key = addr) ways

let insert t addr block =
  t.clock <- t.clock + 1;
  t.insertions <- t.insertions + 1;
  let ways = set_of t addr in
  let slot = ref None in
  (* reuse an entry with the same key, else an empty way, else LRU victim *)
  Array.iter
    (fun e -> if e.payload <> None && e.key = addr then slot := Some e)
    ways;
  if !slot = None then
    Array.iter (fun e -> if e.payload = None && !slot = None then slot := Some e) ways;
  let victim_payload = ref None in
  let e =
    match !slot with
    | Some e -> e
    | None ->
      let victim = ref ways.(0) in
      Array.iter (fun e -> if e.stamp < !victim.stamp then victim := e) ways;
      t.evictions <- t.evictions + 1;
      victim_payload := !victim.payload;
      !victim
  in
  (* the chosen way's resident payload (same-key replacement or LRU
     victim) is leaving the cache: notify before overwriting *)
  (match e.payload with Some old -> dropped t e.key old | None -> ());
  e.key <- addr;
  e.payload <- Some block;
  e.stamp <- t.clock;
  !victim_payload

let invalidate t addr =
  let ways = set_of t addr in
  let removed = ref false in
  Array.iter
    (fun e ->
      if e.payload <> None && e.key = addr then begin
        (match e.payload with Some old -> dropped t e.key old | None -> ());
        e.payload <- None;
        removed := true
      end)
    ways;
  !removed

let invalidate_all t =
  Array.iter
    (fun ways ->
      Array.iter
        (fun e ->
          (match e.payload with Some old -> dropped t e.key old | None -> ());
          e.payload <- None)
        ways)
    t.sets

let hits t = t.hits
let misses t = t.misses
let insertions t = t.insertions
let evictions t = t.evictions

let iter f t =
  Array.iter
    (fun ways ->
      Array.iter
        (fun e -> match e.payload with Some p -> f e.key p | None -> ())
        ways)
    t.sets

let entry_count t =
  let n = ref 0 in
  iter (fun _ _ -> incr n) t;
  !n
