type way = { mutable tag : int; mutable valid : bool; mutable stamp : int }

type t = {
  sets : way array array; (* [n_sets][assoc]; empty for a perfect cache *)
  n_sets : int;
  line_bits : int;
  miss_penalty : int;
  size_bytes : int;
  line_bytes : int;
  assoc : int;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
}

let log2_exact n =
  let rec go k v = if v = 1 then k else go (k + 1) (v lsr 1) in
  if n <= 0 || n land (n - 1) <> 0 then
    invalid_arg "Cache: sizes must be powers of two"
  else go 0 n

let create ~size_bytes ~line_bytes ~assoc ~miss_penalty =
  if size_bytes mod (line_bytes * assoc) <> 0 then
    invalid_arg "Cache.create: size not a multiple of line_bytes * assoc";
  let n_sets = size_bytes / (line_bytes * assoc) in
  let sets =
    Array.init n_sets (fun _ ->
        Array.init assoc (fun _ -> { tag = 0; valid = false; stamp = 0 }))
  in
  {
    sets;
    n_sets;
    line_bits = log2_exact line_bytes;
    miss_penalty;
    size_bytes;
    line_bytes;
    assoc;
    clock = 0;
    hits = 0;
    misses = 0;
  }

let perfect () =
  {
    sets = [||];
    n_sets = 0;
    line_bits = 0;
    miss_penalty = 0;
    size_bytes = 0;
    line_bytes = 0;
    assoc = 0;
    clock = 0;
    hits = 0;
    misses = 0;
  }

let is_perfect c = Array.length c.sets = 0

let locate c addr =
  let line = addr lsr c.line_bits in
  let set = line mod c.n_sets in
  let tag = line / c.n_sets in
  (c.sets.(set), tag)

(* Allocation-free access: top-level index loops instead of [Array.iter]
   closures or local recursion (a fresh closure per call under the vanilla
   compiler), and no [locate] tuple. *)
let rec find_way ways tag i n =
  if i >= n then -1
  else
    let w = Array.unsafe_get ways i in
    if w.valid && w.tag = tag then i else find_way ways tag (i + 1) n

(* replace an invalid way if any, else true-LRU by stamp; starting the scan
   at 1 with best = 0 is the identity first iteration of the original
   [Array.iter] pass *)
let rec pick_victim ways i best n =
  if i >= n then best
  else
    let w = Array.unsafe_get ways i and b = Array.unsafe_get ways best in
    let best =
      if not w.valid then (if b.valid then i else best)
      else if b.valid && w.stamp < b.stamp then i
      else best
    in
    pick_victim ways (i + 1) best n

let access c addr =
  if is_perfect c then (
    c.hits <- c.hits + 1;
    0)
  else begin
    c.clock <- c.clock + 1;
    let line = addr lsr c.line_bits in
    let set = line mod c.n_sets in
    let tag = line / c.n_sets in
    let ways = c.sets.(set) in
    let n = Array.length ways in
    let h = find_way ways tag 0 n in
    if h >= 0 then begin
      ways.(h).stamp <- c.clock;
      c.hits <- c.hits + 1;
      0
    end
    else begin
      c.misses <- c.misses + 1;
      let victim = ways.(pick_victim ways 1 0 n) in
      victim.tag <- tag;
      victim.valid <- true;
      victim.stamp <- c.clock;
      c.miss_penalty
    end
  end

let probe c addr =
  if is_perfect c then true
  else
    let ways, tag = locate c addr in
    Array.exists (fun w -> w.valid && w.tag = tag) ways

let hits c = c.hits
let misses c = c.misses
