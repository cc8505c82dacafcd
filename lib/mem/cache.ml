(* The ways are two flat int arrays indexed [set * assoc + way]: a fresh
   cache is two [Array.make] blocks, not one record per way, and a fill
   allocates nothing. A tag of -1 marks an invalid way (real tags are
   non-negative). Lines are never invalidated, so an invalid way still has
   its initial stamp 0, below every stamp a fill or hit writes (the clock
   is advanced first): the first way of least stamp is therefore the first
   invalid way if there is one, else the true-LRU way. *)
type t = {
  tags : int array; (* empty for a perfect cache *)
  stamps : int array;
  n_sets : int;
  line_bits : int;
  miss_penalty : int;
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
  {
    tags = Array.make (n_sets * assoc) (-1);
    stamps = Array.make (n_sets * assoc) 0;
    n_sets;
    line_bits = log2_exact line_bytes;
    miss_penalty;
    assoc;
    clock = 0;
    hits = 0;
    misses = 0;
  }

let perfect () =
  {
    tags = [||];
    stamps = [||];
    n_sets = 0;
    line_bits = 0;
    miss_penalty = 0;
    assoc = 0;
    clock = 0;
    hits = 0;
    misses = 0;
  }

let is_perfect c = c.n_sets = 0

(* Allocation-free access: top-level index loops instead of [Array.iter]
   closures or local recursion (a fresh closure per call under the vanilla
   compiler), and no (set, tag) tuple. The [int] annotations matter: left
   polymorphic, [=] and [<] compile to calls to the generic comparison,
   which would dominate the cost of an access. *)
let rec find_way (tags : int array) (tag : int) i n =
  if i >= n then -1
  else if Array.unsafe_get tags i = tag then i
  else find_way tags tag (i + 1) n

(* the first way of least stamp: the first invalid way, else true LRU *)
let rec pick_victim (stamps : int array) i best n =
  if i >= n then best
  else
    pick_victim stamps (i + 1)
      (if Array.unsafe_get stamps i < Array.unsafe_get stamps best then i
       else best)
      n

let access c addr =
  if is_perfect c then (
    c.hits <- c.hits + 1;
    0)
  else begin
    c.clock <- c.clock + 1;
    let line = addr lsr c.line_bits in
    let base = line mod c.n_sets * c.assoc in
    let tag = line / c.n_sets in
    let n = base + c.assoc in
    let h = find_way c.tags tag base n in
    if h >= 0 then begin
      c.stamps.(h) <- c.clock;
      c.hits <- c.hits + 1;
      0
    end
    else begin
      c.misses <- c.misses + 1;
      let v = pick_victim c.stamps (base + 1) base n in
      c.tags.(v) <- tag;
      c.stamps.(v) <- c.clock;
      c.miss_penalty
    end
  end

let probe c addr =
  is_perfect c
  ||
  let line = addr lsr c.line_bits in
  let base = line mod c.n_sets * c.assoc in
  find_way c.tags (line / c.n_sets) base (base + c.assoc) >= 0

let hits c = c.hits
let misses c = c.misses
