(* Unit and property tests for the memory substrate. *)

open Dts_mem

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_rw_roundtrip () =
  let m = Memory.create () in
  Memory.write m ~addr:0x1000 ~size:4 0x12345678;
  check_int "word" 0x12345678 (Memory.read m ~addr:0x1000 ~size:4 ~signed:true);
  Memory.write m ~addr:0x2000 ~size:1 0xFF;
  check_int "byte signed" (-1) (Memory.read m ~addr:0x2000 ~size:1 ~signed:true);
  check_int "byte unsigned" 0xFF (Memory.read m ~addr:0x2000 ~size:1 ~signed:false);
  Memory.write m ~addr:0x2002 ~size:2 0x8000;
  check_int "half signed" (-32768) (Memory.read m ~addr:0x2002 ~size:2 ~signed:true);
  check_int "half unsigned" 0x8000 (Memory.read m ~addr:0x2002 ~size:2 ~signed:false)

let test_big_endian () =
  let m = Memory.create () in
  Memory.write m ~addr:0x100 ~size:4 0x0A0B0C0D;
  check_int "msb first" 0x0A (Memory.read m ~addr:0x100 ~size:1 ~signed:false);
  check_int "lsb last" 0x0D (Memory.read m ~addr:0x103 ~size:1 ~signed:false)

let test_zero_default () =
  let m = Memory.create () in
  check_int "untouched reads zero" 0
    (Memory.read m ~addr:0xABC000 ~size:4 ~signed:true)

let test_misaligned () =
  let m = Memory.create () in
  Alcotest.check_raises "misaligned word" (Memory.Misaligned 0x1002) (fun () ->
      ignore (Memory.read m ~addr:0x1002 ~size:4 ~signed:true));
  Alcotest.check_raises "misaligned half" (Memory.Misaligned 0x1001) (fun () ->
      Memory.write m ~addr:0x1001 ~size:2 1)

let test_negative_word () =
  let m = Memory.create () in
  Memory.write m ~addr:0x40 ~size:4 (-5);
  check_int "negative round-trips" (-5)
    (Memory.read m ~addr:0x40 ~size:4 ~signed:true)

let test_copy_and_equal () =
  let m = Memory.create () in
  Memory.write m ~addr:0x500 ~size:4 42;
  let m2 = Memory.copy m in
  check_bool "copies equal" true (Memory.equal m m2);
  Memory.write m2 ~addr:0x504 ~size:4 7;
  check_bool "diverged" false (Memory.equal m m2);
  Alcotest.(check (option int))
    "first difference" (Some 0x507)
    (Memory.first_difference m m2)

(* ---- one-entry lookaside vs copy/clear ----

   Page resolution caches the last (index, page) pair. [copy] and [clear]
   must never let that cache alias across memories or resurrect stale
   pages: a copy starts with a cold lookaside, and the source's warm entry
   must keep pointing at the source's own page after the fork. *)

let test_copy_lookaside_cold () =
  let m = Memory.create () in
  (* warm the source's lookaside on page 1 *)
  Memory.write m ~addr:0x1000 ~size:4 0xAB;
  let c = Memory.copy m in
  check_bool "fork point equal" true (Memory.equal m c);
  (* write through the copy into the page the source has cached *)
  Memory.write c ~addr:0x1004 ~size:4 77;
  check_int "source unchanged by copy's write" 0
    (Memory.read m ~addr:0x1004 ~size:4 ~signed:false);
  (* the source's warm lookaside still resolves to its own page *)
  Memory.write m ~addr:0x1008 ~size:4 88;
  check_int "copy unchanged by source's write" 0
    (Memory.read c ~addr:0x1008 ~size:4 ~signed:false);
  check_int "copy kept its own write" 77
    (Memory.read c ~addr:0x1004 ~size:4 ~signed:false);
  check_int "source kept the pre-fork write" 0xAB
    (Memory.read c ~addr:0x1000 ~size:4 ~signed:false)

let test_copy_fires_reset_hooks () =
  (* derived caches on the source (pre-decode, plans) must be told to
     flush at the fork point — [copy] fires the source's reset hooks *)
  let m = Memory.create () in
  let fired = ref 0 in
  Memory.add_reset_hook m (fun () -> incr fired);
  ignore (Memory.copy m);
  check_int "reset hook fired once per copy" 1 !fired;
  ignore (Memory.copy m);
  check_int "and again on the next copy" 2 !fired

let test_clear_cycles () =
  let m = Memory.create () in
  Memory.write m ~addr:0x3000 ~size:4 5;
  Memory.write m ~addr:0xFFFFFFFC ~size:4 9;
  Memory.clear m;
  check_int "cleared low" 0 (Memory.read m ~addr:0x3000 ~size:4 ~signed:false);
  check_int "cleared high" 0 (Memory.read_u32 m 0xFFFFFFFC);
  (* the lookaside survives the sweep and still resolves correctly *)
  Memory.write m ~addr:0x3000 ~size:4 6;
  check_int "write after clear" 6
    (Memory.read m ~addr:0x3000 ~size:4 ~signed:false);
  Memory.clear m;
  check_int "second cycle cleared" 0
    (Memory.read m ~addr:0x3000 ~size:4 ~signed:false);
  check_bool "clear leaves memory equal to fresh" true
    (Memory.equal m (Memory.create ()))

let test_zero_page_equal () =
  let m = Memory.create () in
  let m2 = Memory.create () in
  Memory.write m ~addr:0x500 ~size:4 0;
  check_bool "explicit zero equals untouched" true (Memory.equal m m2)

let test_load_bytes () =
  let m = Memory.create () in
  Memory.load_bytes m ~addr:0x10 "\x01\x02\x03\x04";
  check_int "bulk load" 0x01020304 (Memory.read m ~addr:0x10 ~size:4 ~signed:false)

(* The top word of the 32-bit address space, and address wraparound: an
   aligned access at 0xFFFFFFFC is legal and must land in the same place
   whether the address arrives masked or with bits above bit 31 set (the
   fast word accessors mask exactly as the per-byte path does). *)
let test_top_of_address_space () =
  let m = Memory.create () in
  Memory.write m ~addr:0xFFFFFFFC ~size:4 0x0A0B0C0D;
  check_int "word back" 0x0A0B0C0D
    (Memory.read m ~addr:0xFFFFFFFC ~size:4 ~signed:false);
  check_int "read_u32 agrees" 0x0A0B0C0D (Memory.read_u32 m 0xFFFFFFFC);
  check_int "last byte of the space" 0x0D
    (Memory.read m ~addr:0xFFFFFFFF ~size:1 ~signed:false);
  (* bits above the 32-bit space are masked off, not faulted or aliased
     into a fresh page *)
  check_int "2^32 + 0xFFFFFFFC aliases" 0x0A0B0C0D
    (Memory.read m ~addr:0x1FFFFFFFC ~size:4 ~signed:false);
  Memory.write m ~addr:0x1FFFFFFFC ~size:4 0x01020304;
  check_int "aliased write lands at the masked address" 0x01020304
    (Memory.read_u32 m 0xFFFFFFFC);
  (* address 0 is a different location: no wraparound bleed *)
  check_int "address 0 untouched" 0 (Memory.read_u32 m 0)

(* load_bytes notifies word-granular consumers (the pre-decoded
   instruction store) exactly once per touched 32-bit word, for any
   alignment and length. *)
let test_load_bytes_one_hook_per_word () =
  let check_span ~addr s =
    let m = Memory.create () in
    let calls = ref [] in
    Memory.add_watched_write_hook m (fun a -> calls := a :: !calls);
    (* every span below lies in one page *)
    Memory.watch m addr;
    Memory.load_bytes m ~addr s;
    let expected =
      if String.length s = 0 then []
      else
        let first = addr land lnot 3 in
        let last = (addr + String.length s - 1) land lnot 3 in
        List.init (((last - first) / 4) + 1) (fun i -> first + (i * 4))
    in
    Alcotest.(check (list int))
      (Printf.sprintf "words notified for addr=%#x len=%d" addr
         (String.length s))
      expected
      (List.sort compare !calls)
  in
  check_span ~addr:0x100 "\x01\x02\x03\x04";
  (* unaligned start, crossing into a second word *)
  check_span ~addr:0x102 "\x01\x02\x03\x04";
  (* single byte *)
  check_span ~addr:0x203 "\xFF";
  (* long span, unaligned both ends *)
  check_span ~addr:0x301 (String.make 11 'x');
  (* empty load notifies nothing *)
  check_span ~addr:0x400 ""

(* Cache.access victim selection. *)
let test_cache_victim_all_invalid () =
  (* 4-way set: four misses to aliasing tags must each claim an invalid
     way, never evict a just-filled one — all four then hit *)
  let c =
    Cache.create ~size_bytes:1024 ~line_bytes:16 ~assoc:4 ~miss_penalty:10
  in
  let addrs = List.init 4 (fun i -> (i + 1) * 256) in
  List.iter (fun a -> check_int "cold miss" 10 (Cache.access c a)) addrs;
  List.iter (fun a -> check_int "resident after fill" 0 (Cache.access c a)) addrs;
  check_int "misses" 4 (Cache.misses c);
  check_int "hits" 4 (Cache.hits c)

let test_cache_victim_true_lru () =
  let c =
    Cache.create ~size_bytes:1024 ~line_bytes:16 ~assoc:4 ~miss_penalty:10
  in
  let addr i = i * 256 in
  (* fill the set in order A B C D, then refresh A: LRU is now B *)
  List.iter (fun i -> ignore (Cache.access c (addr i))) [ 1; 2; 3; 4 ];
  check_int "A still resident" 0 (Cache.access c (addr 1));
  ignore (Cache.access c (addr 5));
  check_bool "E resident" true (Cache.probe c (addr 5));
  check_bool "B evicted (true LRU)" false (Cache.probe c (addr 2));
  List.iter
    (fun i ->
      check_bool (Printf.sprintf "tag %d survives" i) true
        (Cache.probe c (addr i)))
    [ 1; 3; 4 ];
  (* a second conflict evicts C, the next-oldest *)
  ignore (Cache.access c (addr 6));
  check_bool "C evicted next" false (Cache.probe c (addr 3))

let prop_rw count =
  QCheck2.Test.make ~count ~name:"memory read-after-write"
    QCheck2.Gen.(
      list_size (int_range 1 60)
        (tup2 (int_range 0 0xFFFF) (int_range (-2147483648) 2147483647)))
    (fun writes ->
      let m = Memory.create () in
      let model = Hashtbl.create 64 in
      List.iter
        (fun (slot, v) ->
          let addr = slot * 4 in
          Memory.write m ~addr ~size:4 v;
          Hashtbl.replace model addr v)
        writes;
      Hashtbl.fold
        (fun addr v ok ->
          ok && Memory.read m ~addr ~size:4 ~signed:true = v land 0xFFFFFFFF
                || Memory.read m ~addr ~size:4 ~signed:true
                   = (v lsl (Sys.int_size - 32)) asr (Sys.int_size - 32))
        model true)

let test_cache_direct_mapped () =
  let c = Cache.create ~size_bytes:1024 ~line_bytes:32 ~assoc:1 ~miss_penalty:8 in
  check_int "cold miss" 8 (Cache.access c 0);
  check_int "hit" 0 (Cache.access c 4);
  check_int "conflicting line" 8 (Cache.access c 1024);
  check_int "evicted" 8 (Cache.access c 0);
  check_int "hits" 1 (Cache.hits c);
  check_int "misses" 3 (Cache.misses c)

let test_cache_assoc_lru () =
  let c = Cache.create ~size_bytes:64 ~line_bytes:32 ~assoc:2 ~miss_penalty:8 in
  (* one set of two ways *)
  ignore (Cache.access c 0);
  ignore (Cache.access c 32);
  check_int "both resident" 0 (Cache.access c 0);
  (* 0 is now MRU; inserting a third line evicts 32 *)
  ignore (Cache.access c 64);
  check_int "lru evicted" 8 (Cache.access c 32);
  check_bool "0 evicted by 32's refill (now lru=64)" true
    (Cache.probe c 32)

let test_cache_perfect () =
  let c = Cache.perfect () in
  check_int "always hits" 0 (Cache.access c 123456);
  check_bool "probe hits" true (Cache.probe c 98765)

let test_blockcache_basic () =
  let bc = Blockcache.create ~n_sets:4 ~assoc:2 in
  Alcotest.(check (option string)) "miss" None (Blockcache.find bc 0x1000);
  ignore (Blockcache.insert bc 0x1000 "a");
  Alcotest.(check (option string)) "hit" (Some "a") (Blockcache.find bc 0x1000);
  ignore (Blockcache.insert bc 0x1000 "b");
  Alcotest.(check (option string)) "replaced" (Some "b") (Blockcache.find bc 0x1000);
  check_bool "invalidate" true (Blockcache.invalidate bc 0x1000);
  Alcotest.(check (option string)) "gone" None (Blockcache.find bc 0x1000)

let test_blockcache_lru_eviction () =
  let bc = Blockcache.create ~n_sets:1 ~assoc:2 in
  ignore (Blockcache.insert bc 0x10 "a");
  ignore (Blockcache.insert bc 0x20 "b");
  ignore (Blockcache.find bc 0x10);
  (* b is LRU *)
  let evicted = Blockcache.insert bc 0x30 "c" in
  Alcotest.(check (option string)) "evicted lru" (Some "b") evicted;
  check_bool "a kept" true (Blockcache.probe bc 0x10);
  check_bool "b gone" false (Blockcache.probe bc 0x20)

let test_blockcache_sets () =
  let bc = Blockcache.create ~n_sets:2 ~assoc:1 in
  (* addresses 0x0 and 0x4 land in different sets (word-indexed) *)
  ignore (Blockcache.insert bc 0x0 "a");
  ignore (Blockcache.insert bc 0x4 "b");
  check_bool "no conflict across sets" true
    (Blockcache.probe bc 0x0 && Blockcache.probe bc 0x4)

(* ---- on_drop observer: firing order and exactly-once semantics ----

   The machine's compiled-plan store releases derived state from this
   callback, so the contract is load-bearing: every resident payload that
   leaves the cache — same-key replacement, LRU eviction, invalidate,
   invalidate_all — is reported exactly once, at the moment it leaves, with
   the key it was inserted under. *)

let test_blockcache_on_drop_order () =
  let bc = Blockcache.create ~n_sets:1 ~assoc:2 in
  let drops = ref [] in
  Blockcache.set_on_drop bc (fun key payload ->
      drops := (key, payload) :: !drops);
  ignore (Blockcache.insert bc 0x10 "a");
  ignore (Blockcache.insert bc 0x20 "b");
  Alcotest.(check int) "no drops while filling" 0 (List.length !drops);
  (* same-key replacement drops the old payload, not the other way *)
  ignore (Blockcache.insert bc 0x10 "a2");
  (* make 0x10 the LRU, then evict it with a conflicting insert *)
  ignore (Blockcache.find bc 0x20);
  ignore (Blockcache.insert bc 0x30 "c");
  (* explicit invalidation; a second invalidate of the same key must not
     re-fire the observer *)
  check_bool "invalidate hit" true (Blockcache.invalidate bc 0x20);
  check_bool "invalidate miss" false (Blockcache.invalidate bc 0x20);
  Blockcache.invalidate_all bc;
  Blockcache.invalidate_all bc;
  Alcotest.(check (list (pair int string)))
    "drop events in order"
    [ (0x10, "a"); (0x10, "a2"); (0x20, "b"); (0x30, "c") ]
    (List.rev !drops)

let test_blockcache_on_drop_exactly_once () =
  (* replacement + invalidation storm: every payload carries a unique
     serial; each serial must be dropped exactly once, under its own key,
     and only while resident *)
  let bc = Blockcache.create ~n_sets:4 ~assoc:2 in
  let resident = Hashtbl.create 64 in
  (* serial -> key *)
  let drop_count = ref 0 and insert_count = ref 0 in
  Blockcache.set_on_drop bc (fun key serial ->
      (match Hashtbl.find_opt resident serial with
      | None -> Alcotest.failf "serial %d dropped while not resident" serial
      | Some k ->
        Alcotest.(check int)
          (Printf.sprintf "serial %d dropped under its key" serial)
          k key);
      Hashtbl.remove resident serial;
      incr drop_count);
  let rng = ref 12345 in
  let next n =
    rng := ((!rng * 1103515245) + 12421) land 0x3FFFFFFF;
    !rng mod n
  in
  for serial = 1 to 1000 do
    match next 20 with
    | 0 ->
      ignore (Blockcache.invalidate bc (next 16 * 4))
    | 1 -> Blockcache.invalidate_all bc
    | 2 -> ignore (Blockcache.find bc (next 16 * 4))
    | _ ->
      let key = next 16 * 4 in
      (* same-key replacement drops the previous resident before the
         insert returns, so record residency first *)
      Hashtbl.replace resident serial key;
      incr insert_count;
      ignore (Blockcache.insert bc key serial)
  done;
  Blockcache.invalidate_all bc;
  Alcotest.(check int) "cache empty after flush" 0 (Blockcache.entry_count bc);
  Alcotest.(check int) "nothing left resident" 0 (Hashtbl.length resident);
  Alcotest.(check int) "every insert dropped exactly once" !insert_count
    !drop_count

(* ---- model-based properties: Cache and Blockcache against a
   list-per-set true-LRU reference ----

   Each reference set is the list of its residents, most recently used
   first; a miss into a full set drops the last one. The caches allocate
   their ways lazily (Blockcache) or as flat tag/stamp arrays (Cache), so
   the cases mix 1-way and associative geometries and, when [sparse], aim
   every access at even sets only, leaving the odd sets never touched. *)

let drop_last l = List.filteri (fun i _ -> i < List.length l - 1) l

(* the reference's access: (hit, the set without the key, the LRU resident
   a miss into a full set evicts); the caller puts the key in front *)
let model_touch sets set ~assoc key =
  let resident = List.mem_assoc key sets.(set) in
  let rest = List.remove_assoc key sets.(set) in
  let rest, victim =
    if resident || List.length rest < assoc then (rest, None)
    else (drop_last rest, Some (List.nth rest (List.length rest - 1)))
  in
  (resident, rest, victim)

let gen_geometry =
  QCheck2.Gen.(
    triple (oneofl [ 1; 2; 4 ]) (int_range 0 3) bool
    |> map (fun (assoc, set_bits, sparse) -> (assoc, 1 lsl set_bits, sparse)))

(* an index into [0, 4 * n_sets * assoc) — four times the capacity, so
   sets conflict — kept even when [sparse] *)
let gen_index ~assoc ~n_sets ~sparse =
  QCheck2.Gen.(
    int_range 0 ((4 * n_sets * assoc) - 1)
    |> map (fun k -> if sparse then k land lnot 1 else k))

type cache_op = C_access of int | C_probe of int

let pp_cache_op = function
  | C_access a -> Printf.sprintf "access %#x" a
  | C_probe a -> Printf.sprintf "probe %#x" a

let gen_cache_case =
  let open QCheck2.Gen in
  let* assoc, n_sets, sparse = gen_geometry in
  let* line_bits = int_range 2 5 in
  let addr idx =
    map
      (fun (line, off) -> (line lsl line_bits) lor off)
      (pair idx (int_range 0 ((1 lsl line_bits) - 1)))
  in
  let+ ops =
    list_size (int_range 0 80)
      (frequency
         [
           ( 4,
             map (fun a -> C_access a) (addr (gen_index ~assoc ~n_sets ~sparse))
           );
           ( 1,
             map (fun a -> C_probe a)
               (addr (gen_index ~assoc ~n_sets ~sparse:false)) );
         ])
  in
  (assoc, n_sets, line_bits, ops)

let print_cache_case (assoc, n_sets, line_bits, ops) =
  Printf.sprintf "%d sets x %d ways, %d-byte lines: %s" n_sets assoc
    (1 lsl line_bits)
    (String.concat "; " (List.map pp_cache_op ops))

let prop_cache_model =
  QCheck2.Test.make ~count:500 ~name:"cache matches a true-LRU reference"
    ~print:print_cache_case gen_cache_case
    (fun (assoc, n_sets, line_bits, ops) ->
      let penalty = 7 in
      let c =
        Cache.create
          ~size_bytes:((n_sets * assoc) lsl line_bits)
          ~line_bytes:(1 lsl line_bits) ~assoc ~miss_penalty:penalty
      in
      let sets = Array.make n_sets [] in
      let hits = ref 0 and misses = ref 0 in
      let locate addr =
        let line = addr lsr line_bits in
        (line mod n_sets, line / n_sets)
      in
      let step = function
        | C_access addr ->
          let set, tag = locate addr in
          let hit, rest, _ = model_touch sets set ~assoc tag in
          sets.(set) <- (tag, ()) :: rest;
          if hit then incr hits else incr misses;
          Cache.access c addr = if hit then 0 else penalty
        | C_probe addr ->
          let set, tag = locate addr in
          Cache.probe c addr = List.mem_assoc tag sets.(set)
      in
      List.for_all step ops
      && Cache.hits c = !hits
      && Cache.misses c = !misses
      (* every line of the range, touched sets or not, probes as modelled *)
      && List.for_all
           (fun line -> step (C_probe (line lsl line_bits)))
           (List.init (4 * n_sets * assoc) Fun.id))

type bc_op =
  | B_find of int
  | B_probe of int
  | B_insert of int
  | B_invalidate of int
  | B_invalidate_all

let pp_bc_op = function
  | B_find k -> Printf.sprintf "find %#x" k
  | B_probe k -> Printf.sprintf "probe %#x" k
  | B_insert k -> Printf.sprintf "insert %#x" k
  | B_invalidate k -> Printf.sprintf "invalidate %#x" k
  | B_invalidate_all -> "invalidate_all"

let gen_bc_case =
  let open QCheck2.Gen in
  let* assoc, n_sets, sparse = gen_geometry in
  (* blocks are keyed by word address; the set is (key / 4) mod n_sets *)
  let key ~sparse = map (fun k -> k * 4) (gen_index ~assoc ~n_sets ~sparse) in
  let+ ops =
    list_size (int_range 0 80)
      (frequency
         [
           (3, map (fun k -> B_find k) (key ~sparse:false));
           (1, map (fun k -> B_probe k) (key ~sparse:false));
           (5, map (fun k -> B_insert k) (key ~sparse));
           (1, map (fun k -> B_invalidate k) (key ~sparse:false));
           (1, return B_invalidate_all);
         ])
  in
  (assoc, n_sets, ops)

let print_bc_case (assoc, n_sets, ops) =
  Printf.sprintf "%d sets x %d ways: %s" n_sets assoc
    (String.concat "; " (List.map pp_bc_op ops))

(* Compares every result, the hit/miss/insertion/eviction counts and the
   on_drop events of each operation, in order — except that
   [invalidate_all]'s events are compared as a multiset, since their order
   within a set follows way positions the reference does not model. The
   payload of each insert is its serial number. *)
let prop_blockcache_model =
  QCheck2.Test.make ~count:500 ~name:"blockcache matches a true-LRU reference"
    ~print:print_bc_case gen_bc_case
    (fun (assoc, n_sets, ops) ->
      let bc = Blockcache.create ~n_sets ~assoc in
      let drops = ref [] in
      Blockcache.set_on_drop bc (fun key p -> drops := (key, p) :: !drops);
      let sets = Array.make n_sets [] in
      let hits = ref 0 and misses = ref 0 and evictions = ref 0 in
      let serial = ref 0 in
      let set_of key = (key lsr 2) land (n_sets - 1) in
      let step op =
        drops := [];
        let ok, want_drops =
          match op with
          | B_find k ->
            let s = set_of k in
            let r = Blockcache.find bc k in
            (match List.assoc_opt k sets.(s) with
            | Some p ->
              incr hits;
              sets.(s) <- (k, p) :: List.remove_assoc k sets.(s)
            | None -> incr misses);
            (r = List.assoc_opt k sets.(s), [])
          | B_probe k ->
            (Blockcache.probe bc k = List.mem_assoc k sets.(set_of k), [])
          | B_insert k ->
            incr serial;
            let s = set_of k in
            let r = Blockcache.insert bc k !serial in
            let replaced = List.assoc_opt k sets.(s) in
            let _, rest, victim = model_touch sets s ~assoc k in
            sets.(s) <- (k, !serial) :: rest;
            (match (replaced, victim) with
            | Some old, _ -> (r = None, [ (k, old) ])
            | None, Some (vk, vp) ->
              incr evictions;
              (r = Some vp, [ (vk, vp) ])
            | None, None -> (r = None, []))
          | B_invalidate k ->
            let s = set_of k in
            let r = Blockcache.invalidate bc k in
            let old = List.assoc_opt k sets.(s) in
            sets.(s) <- List.remove_assoc k sets.(s);
            ( r = (old <> None),
              Option.to_list (Option.map (fun p -> (k, p)) old) )
          | B_invalidate_all ->
            Blockcache.invalidate_all bc;
            let all = List.concat (Array.to_list sets) in
            Array.fill sets 0 n_sets [];
            (true, all)
        in
        let got = List.rev !drops in
        ok
        &&
        if op = B_invalidate_all then
          List.sort compare got = List.sort compare want_drops
        else got = want_drops
      in
      let contents () =
        let l = ref [] in
        Blockcache.iter (fun k p -> l := (k, p) :: !l) bc;
        List.sort compare !l
      in
      List.for_all step ops
      && Blockcache.hits bc = !hits
      && Blockcache.misses bc = !misses
      && Blockcache.insertions bc = !serial
      && Blockcache.evictions bc = !evictions
      && Blockcache.entry_count bc
         = Array.fold_left (fun n s -> n + List.length s) 0 sets
      && contents () = List.sort compare (List.concat (Array.to_list sets)))

let test_blockcache_never_filled_sets () =
  (* a fresh cache has no ways yet; every operation on a set no insert
     has reached must see it empty *)
  let bc = Blockcache.create ~n_sets:8 ~assoc:2 in
  let drops = ref 0 in
  Blockcache.set_on_drop bc (fun _ _ -> incr drops);
  Blockcache.invalidate_all bc;
  check_int "flushing a fresh cache drops nothing" 0 !drops;
  Alcotest.(check (option string)) "fresh miss" None (Blockcache.find bc 0x20);
  check_bool "fresh probe" false (Blockcache.probe bc 0x20);
  check_bool "fresh invalidate" false (Blockcache.invalidate bc 0x20);
  (* fill set 3 only: sets 0 and 5 stay never-filled *)
  ignore (Blockcache.insert bc (3 * 4) "a");
  Alcotest.(check (option string)) "other set" None (Blockcache.find bc (5 * 4));
  check_bool "other set invalidate" false (Blockcache.invalidate bc 0);
  check_int "one entry" 1 (Blockcache.entry_count bc);
  Blockcache.invalidate_all bc;
  check_int "flush drops the one resident" 1 !drops;
  check_int "empty again" 0 (Blockcache.entry_count bc);
  check_int "misses counted on never-filled sets" 2 (Blockcache.misses bc)

let suite =
  [
    Alcotest.test_case "rw roundtrip" `Quick test_rw_roundtrip;
    Alcotest.test_case "big endian" `Quick test_big_endian;
    Alcotest.test_case "zero default" `Quick test_zero_default;
    Alcotest.test_case "misaligned" `Quick test_misaligned;
    Alcotest.test_case "top of address space" `Quick test_top_of_address_space;
    Alcotest.test_case "load_bytes one hook per word" `Quick
      test_load_bytes_one_hook_per_word;
    Alcotest.test_case "cache victim: all-invalid set" `Quick
      test_cache_victim_all_invalid;
    Alcotest.test_case "cache victim: true LRU" `Quick
      test_cache_victim_true_lru;
    Alcotest.test_case "negative word" `Quick test_negative_word;
    Alcotest.test_case "copy and equal" `Quick test_copy_and_equal;
    Alcotest.test_case "copy: lookaside stays cold" `Quick
      test_copy_lookaside_cold;
    Alcotest.test_case "copy fires reset hooks" `Quick
      test_copy_fires_reset_hooks;
    Alcotest.test_case "clear cycles" `Quick test_clear_cycles;
    Alcotest.test_case "zero page equal" `Quick test_zero_page_equal;
    Alcotest.test_case "load bytes" `Quick test_load_bytes;
    QCheck_alcotest.to_alcotest (prop_rw 200);
    Alcotest.test_case "cache direct mapped" `Quick test_cache_direct_mapped;
    Alcotest.test_case "cache assoc lru" `Quick test_cache_assoc_lru;
    Alcotest.test_case "cache perfect" `Quick test_cache_perfect;
    Alcotest.test_case "blockcache basic" `Quick test_blockcache_basic;
    Alcotest.test_case "blockcache lru" `Quick test_blockcache_lru_eviction;
    Alcotest.test_case "blockcache sets" `Quick test_blockcache_sets;
    Alcotest.test_case "blockcache on_drop order" `Quick
      test_blockcache_on_drop_order;
    Alcotest.test_case "blockcache on_drop exactly-once under storm" `Quick
      test_blockcache_on_drop_exactly_once;
    Alcotest.test_case "blockcache never-filled sets" `Quick
      test_blockcache_never_filled_sets;
    QCheck_alcotest.to_alcotest prop_cache_model;
    QCheck_alcotest.to_alcotest prop_blockcache_model;
  ]
