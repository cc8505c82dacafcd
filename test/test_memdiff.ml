(* Differential property suite for the paged memory substrate.

   The memory under test is a two-level sparse page directory (leaves of
   256 pages, created on first write or watch) over byte buffers, with
   unaligned word primitives, per-page watch bits and a one-entry
   lookaside — a representation chosen entirely for speed. This suite pins its observable
   semantics against a deliberately naive reference model (a sparse byte
   map): random interleavings of reads, writes, bulk loads and forks must
   agree byte-for-byte, including at the wraparound edge of the 32-bit
   space, and hook dispatch must fire exactly once per touched word on
   watched pages and nowhere else.

   Everything is driven by a fixed-seed LCG so failures replay exactly. *)

module Memory = Dts_mem.Memory

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---- deterministic PRNG ---- *)

let rng = ref 0x2545F4914F6C

let rand n =
  (* Java's 48-bit LCG; the high bits are the good ones *)
  rng := ((!rng * 25214903917) + 11) land 0xFFFFFFFFFFFF;
  !rng lsr 16 mod n

let reset_rng seed = rng := seed

(* ---- reference model: sparse byte map over the 32-bit space ---- *)

module Model = struct
  type t = (int, int) Hashtbl.t (* byte address -> byte value *)

  let create () : t = Hashtbl.create 1024
  let mask a = a land 0xFFFFFFFF
  let get t a = Option.value (Hashtbl.find_opt t (mask a)) ~default:0
  let set t a v = Hashtbl.replace t (mask a) (v land 0xFF)

  let read t ~addr ~size ~signed =
    let v = ref 0 in
    for i = 0 to size - 1 do
      v := (!v lsl 8) lor get t (addr + i)
    done;
    (* the memory keeps 32-bit values sign-extended regardless of
       [signed]; narrower reads extend only when asked *)
    if signed || size = 4 then
      let bits = size * 8 in
      (!v lsl (Sys.int_size - bits)) asr (Sys.int_size - bits)
    else !v

  let write t ~addr ~size v =
    for i = 0 to size - 1 do
      set t (addr + i) (v asr ((size - 1 - i) * 8))
    done

  let load_bytes t ~addr s =
    String.iteri (fun i c -> set t (addr + i) (Char.code c)) s

  let copy : t -> t = Hashtbl.copy

  (* lowest differing byte address between two models *)
  let first_difference a b =
    let keys = Hashtbl.create 64 in
    Hashtbl.iter (fun k _ -> Hashtbl.replace keys k ()) a;
    Hashtbl.iter (fun k _ -> Hashtbl.replace keys k ()) b;
    Hashtbl.fold
      (fun k () best ->
        if get a k <> get b k then
          match best with Some b0 when b0 < k -> best | _ -> Some k
        else best)
      keys None
end

(* address pools: low pages, page-straddling neighbourhoods, the top of
   the address space, and arbitrary 32-bit addresses *)
let random_addr () =
  match rand 4 with
  | 0 -> rand 0x4000
  | 1 -> 0x1000 - 8 + rand 16 (* around a page boundary *)
  | 2 -> 0xFFFFF000 + rand 0x1000 (* top page, includes 0xFFFFFFFC *)
  | _ -> rand 0x40000000 * 4

let random_sized_addr size =
  let a = random_addr () land 0xFFFFFFFF in
  (* align to the access, keeping a 4-byte access inside the space *)
  a land lnot (size - 1)

(* ---- random interleavings vs the model ---- *)

let test_random_ops () =
  reset_rng 0x5EED0001;
  let m = Memory.create () in
  let r = Model.create () in
  for _ = 1 to 8000 do
    match rand 10 with
    | 0 | 1 | 2 | 3 ->
      let size = [| 1; 2; 4 |].(rand 3) in
      let addr = random_sized_addr size in
      let v = rand 0x7FFFFFFF - 0x3FFFFFFF in
      Memory.write m ~addr ~size v;
      Model.write r ~addr ~size v
    | 4 | 5 | 6 ->
      let size = [| 1; 2; 4 |].(rand 3) in
      let addr = random_sized_addr size in
      let signed = rand 2 = 0 in
      let got = Memory.read m ~addr ~size ~signed in
      let want = Model.read r ~addr ~size ~signed in
      if got <> want then
        Alcotest.failf "read addr=%#x size=%d signed=%b: got %#x want %#x"
          addr size signed got want
    | 7 | 8 ->
      let len = rand 10 in
      let addr = random_sized_addr 1 in
      let addr = if addr > 0xFFFFFFFF - len then 0xFFFFFFF0 - len else addr in
      let s = String.init len (fun _ -> Char.chr (rand 256)) in
      Memory.load_bytes m ~addr s;
      Model.load_bytes r ~addr s
    | _ ->
      (* fast word accessors agree with the generic path *)
      let addr = random_sized_addr 4 in
      check_int "read_u32 vs model"
        (Model.read r ~addr ~size:4 ~signed:false land 0xFFFFFFFF)
        (Memory.read_u32 m addr)
  done;
  (* final sweep: every byte the model knows about, plus untouched probes *)
  Hashtbl.iter
    (fun a _ ->
      let got = Memory.read m ~addr:a ~size:1 ~signed:false in
      let want = Model.get r a in
      if got <> want then
        Alcotest.failf "sweep byte %#x: got %#x want %#x" a got want)
    r;
  for _ = 1 to 200 do
    let a = random_sized_addr 1 in
    if not (Hashtbl.mem r a) then
      check_int "untouched byte reads zero" 0
        (Memory.read m ~addr:a ~size:1 ~signed:false)
  done

(* ---- fork divergence: copy, equal, first_difference ---- *)

let test_copy_divergence () =
  reset_rng 0x5EED0002;
  let m = Memory.create () in
  let r = Model.create () in
  for _ = 1 to 400 do
    let size = [| 1; 2; 4 |].(rand 3) in
    let addr = random_sized_addr size in
    let v = rand 1000000 in
    Memory.write m ~addr ~size v;
    Model.write r ~addr ~size v
  done;
  let m2 = Memory.copy m in
  let r2 = Model.copy r in
  check_bool "fork point equal" true (Memory.equal m m2);
  Alcotest.(check (option int))
    "fork point no difference" None
    (Memory.first_difference m m2);
  (* diverge both sides independently *)
  for _ = 1 to 200 do
    let size = [| 1; 2; 4 |].(rand 3) in
    let addr = random_sized_addr size in
    let v = rand 1000000 in
    if rand 2 = 0 then begin
      Memory.write m ~addr ~size v;
      Model.write r ~addr ~size v
    end
    else begin
      Memory.write m2 ~addr ~size v;
      Model.write r2 ~addr ~size v
    end
  done;
  Alcotest.(check (option int))
    "first_difference matches the model"
    (Model.first_difference r r2)
    (Memory.first_difference m m2);
  check_bool "equal matches the model"
    (Model.first_difference r r2 = None)
    (Memory.equal m m2);
  (* each side still reads per its own model *)
  for _ = 1 to 200 do
    let addr = random_sized_addr 4 in
    check_int "side A" (Model.read r ~addr ~size:4 ~signed:true)
      (Memory.read m ~addr ~size:4 ~signed:true);
    check_int "side B" (Model.read r2 ~addr ~size:4 ~signed:true)
      (Memory.read m2 ~addr ~size:4 ~signed:true)
  done

(* ---- wraparound at the top of the 32-bit space ---- *)

let test_wraparound_aliases () =
  reset_rng 0x5EED0003;
  let m = Memory.create () in
  let r = Model.create () in
  for _ = 1 to 500 do
    let size = [| 1; 2; 4 |].(rand 3) in
    let base = 0xFFFFFFF0 + (rand 16 land lnot (size - 1)) in
    let base = min base (0x100000000 - size) in
    (* present the address with or without bits above bit 31 *)
    let alias = if rand 2 = 0 then base else base + 0x100000000 in
    let v = rand 0x7FFFFFFF in
    if rand 2 = 0 then begin
      Memory.write m ~addr:alias ~size v;
      Model.write r ~addr:base ~size v
    end
    else begin
      let got = Memory.read m ~addr:alias ~size ~signed:false in
      let want = Model.read r ~addr:base ~size ~signed:false in
      if got <> want then
        Alcotest.failf "alias read %#x (base %#x) size %d: got %#x want %#x"
          alias base size got want
    end
  done;
  (* address 0 must never see wraparound bleed *)
  check_int "address 0 clean" 0 (Memory.read_u32 m 0)

(* ---- hook dispatch: exactly once per touched word, watched pages only ---- *)

let test_watched_hook_counts () =
  reset_rng 0x5EED0004;
  let m = Memory.create () in
  let counts = Hashtbl.create 64 in
  let bump w = Hashtbl.replace counts w (1 + Option.value (Hashtbl.find_opt counts w) ~default:0) in
  Memory.add_watched_write_hook m (fun a -> bump (a land lnot 3));
  (* watch pages 2 and 5; everything else must stay silent *)
  Memory.watch m 0x2000;
  Memory.watch m 0x5000;
  let expected = Hashtbl.create 64 in
  let expect w = Hashtbl.replace expected w (1 + Option.value (Hashtbl.find_opt expected w) ~default:0) in
  let watched a = a lsr 12 = 2 || a lsr 12 = 5 in
  for _ = 1 to 2000 do
    match rand 3 with
    | 0 | 1 ->
      let size = [| 1; 2; 4 |].(rand 3) in
      let addr = (rand 0x8000) land lnot (size - 1) in
      Memory.write m ~addr ~size (rand 1000);
      if watched addr then expect (addr land lnot 3)
    | _ ->
      let len = rand 10 in
      let addr = rand 0x8000 in
      Memory.load_bytes m ~addr (String.make len 'q');
      if len > 0 then begin
        let w = ref (addr land lnot 3) in
        let last = (addr + len - 1) land lnot 3 in
        while !w <= last do
          if watched !w then expect !w;
          w := !w + 4
        done
      end
  done;
  check_int "words notified" (Hashtbl.length expected) (Hashtbl.length counts);
  Hashtbl.iter
    (fun w n ->
      let got = Option.value (Hashtbl.find_opt counts w) ~default:0 in
      if got <> n then
        Alcotest.failf "word %#x: %d notifications, expected %d" w got n)
    expected

(* ---- dirty_equal must agree with equal from a common baseline ---- *)

let test_dirty_equal_consistency () =
  reset_rng 0x5EED0005;
  for _round = 1 to 50 do
    let a = Memory.create () and b = Memory.create () in
    (* common prefix, then a synchronised baseline *)
    for _ = 1 to 50 do
      let size = [| 1; 2; 4 |].(rand 3) in
      let addr = random_sized_addr size in
      let v = rand 1000000 in
      Memory.write a ~addr ~size v;
      Memory.write b ~addr ~size v
    done;
    Memory.dirty_clear a;
    Memory.dirty_clear b;
    (* divergent suffix: half the rounds stay identical, half fork *)
    let fork = rand 2 = 0 in
    for _ = 1 to 30 do
      let size = [| 1; 2; 4 |].(rand 3) in
      let addr = random_sized_addr size in
      let v = rand 1000000 in
      Memory.write a ~addr ~size v;
      let v' = if fork && rand 4 = 0 then v + 1 else v in
      Memory.write b ~addr ~size v'
    done;
    check_bool "dirty_equal iff equal" (Memory.equal a b)
      (Memory.dirty_equal a b)
  done


(* ---- the sparse directory: leaves, growth, absent regions ---- *)

(* One address in each of several leaves (1 MiB regions): the first, the
   last one the initial top level covers, the first one past it (16 MiB,
   a top-level growth), one mid-space and the top of the 32-bit space
   (the largest growth). *)
let leaf_addrs = [| 0x2000; 0xF00000; 0x1000000; 0x40000000; 0xFFFFFFFC |]

let test_sparse_leaves () =
  reset_rng 0x5EED0006;
  let m = Memory.create () in
  let r = Model.create () in
  for _ = 1 to 4000 do
    let size = [| 1; 2; 4 |].(rand 3) in
    let base = leaf_addrs.(rand (Array.length leaf_addrs)) in
    (* within the two pages up to the base, so each access stays inside
       the 32-bit space *)
    let addr = (base - rand 0x2000) land lnot (size - 1) in
    if rand 2 = 0 then begin
      let v = rand 0x7FFFFFFF in
      Memory.write m ~addr ~size v;
      Model.write r ~addr ~size v
    end
    else
      check_int
        (Printf.sprintf "read %#x size %d" addr size)
        (Model.read r ~addr ~size ~signed:false)
        (Memory.read m ~addr ~size ~signed:false)
  done;
  Hashtbl.iter
    (fun a v -> check_int (Printf.sprintf "byte %#x" a) v (Memory.read_u8 m a))
    r;
  let m2 = Memory.copy m in
  check_bool "copy equal" true (Memory.equal m m2);
  Memory.write_u8 m2 0xFFFFFFFF (Memory.read_u8 m 0xFFFFFFFF lxor 1);
  Alcotest.(check (option int))
    "difference in the top leaf" (Some 0xFFFFFFFF)
    (Memory.first_difference m m2);
  (* a memory that never grew against one that did *)
  let small = Memory.create () and big = Memory.create () in
  Memory.write_u32 big 0x40000000 0;
  check_bool "zero write past the initial top level" true
    (Memory.equal small big && Memory.equal big small);
  Memory.write_u8 big 0x40000003 7;
  Alcotest.(check (option int))
    "difference past the shorter top level" (Some 0x40000003)
    (Memory.first_difference small big);
  Alcotest.(check (option int))
    "and the other way round" (Some 0x40000003)
    (Memory.first_difference big small)

(* A page that is watched but never written reads zero, compares equal to
   an absent one and is not carried by a copy; a page that is written but
   never watched stays silent. *)
let test_watch_without_write () =
  let m = Memory.create () in
  let notified = ref [] in
  Memory.add_watched_write_hook m (fun a -> notified := a :: !notified);
  (* one in an existing leaf, one whose leaf only the watch creates *)
  Memory.watch m 0x3000;
  Memory.watch m 0x50000000;
  Memory.write_u32 m 0x1000 0x12345678;
  Memory.write_u32 m 0x70000000 0x12345678;
  Memory.load_bytes m ~addr:0x70000010 "abcdef";
  check_int "unwatched writes notify nothing" 0 (List.length !notified);
  check_int "watched page reads zero" 0 (Memory.read_u32 m 0x50000000);
  let fresh = Memory.create () in
  Memory.write_u32 fresh 0x1000 0x12345678;
  Memory.write_u32 fresh 0x70000000 0x12345678;
  Memory.load_bytes fresh ~addr:0x70000010 "abcdef";
  check_bool "watch bits are not contents" true (Memory.equal m fresh);
  let c = Memory.copy m in
  Memory.add_watched_write_hook c (fun _ -> Alcotest.fail "copy kept a watch");
  Memory.write_u32 c 0x50000000 1;
  Memory.write_u8 c 0x3001 1;
  Memory.write_u32 m 0x50000004 9;
  Memory.write_u16 m 0x3002 9;
  Alcotest.(check (list int))
    "watched writes notify once each" [ 0x3002; 0x50000004 ] !notified

(* A copy shares nothing with its source, including in leaves the copy
   never writes. *)
let test_copy_untouched_leaves () =
  let src = Memory.create () in
  Array.iteri (fun i a -> Memory.write_u32 src (a land lnot 3) (i + 1)) leaf_addrs;
  let c = Memory.copy src in
  Memory.write_u32 c 0x2000 100;
  Array.iteri
    (fun i a ->
      if i > 0 then
        check_int (Printf.sprintf "copy reads source's %#x" a) (i + 1)
          (Memory.read_u32 c (a land lnot 3)))
    leaf_addrs;
  check_int "source unchanged by the copy's write" 1 (Memory.read_u32 src 0x2000);
  Memory.write_u32 src 0x40000000 200;
  Memory.write_u32 src 0xFFFFFFFC 300;
  check_int "copy unchanged by the source (mid leaf)" 4
    (Memory.read_u32 c 0x40000000);
  check_int "copy unchanged by the source (top leaf)" 5
    (Memory.read_u32 c 0xFFFFFFFC);
  Alcotest.(check (option int))
    "first difference" (Some 0x2003) (Memory.first_difference src c)

(* A region whose leaf exists but holds only zeros equals a region with no
   leaf, in either argument order; a nonzero byte in it is found. *)
let test_zero_leaf_vs_absent () =
  let a = Memory.create () and b = Memory.create () in
  Memory.write_u32 a 0x20000000 0;
  Memory.write_u8 a 0x200FFFFF 0;
  Memory.watch a 0x30000000;
  check_bool "equal a b" true (Memory.equal a b);
  check_bool "equal b a" true (Memory.equal b a);
  Alcotest.(check (option int)) "no difference" None (Memory.first_difference a b);
  Alcotest.(check (option int)) "no difference" None (Memory.first_difference b a);
  Memory.write_u8 a 0x200FFFFF 1;
  check_bool "differ" false (Memory.equal b a);
  Alcotest.(check (option int))
    "last byte of the leaf" (Some 0x200FFFFF) (Memory.first_difference b a)

(* [clear] and [dirty_equal] after each side wrote a leaf the other did
   not. *)
let test_disjoint_leaves () =
  let synced () =
    let a = Memory.create () and b = Memory.create () in
    Memory.dirty_clear a;
    Memory.dirty_clear b;
    (a, b)
  in
  let a, b = synced () in
  Memory.write_u32 a 0x10000000 1;
  Memory.write_u32 b 0x20000000 1;
  check_bool "disjoint nonzero writes" false (Memory.dirty_equal a b);
  (* [b] writes a page [a] also wrote, then one [a] did not: the second
     must still be compared *)
  let a, b = synced () in
  Memory.write_u32 a 0x1000 5;
  Memory.write_u32 b 0x1000 5;
  Memory.write_u32 b 0x20000000 1;
  check_bool "b-only page after a shared one" (Memory.equal a b)
    (Memory.dirty_equal a b);
  check_bool "and from the other side" (Memory.equal b a) (Memory.dirty_equal b a);
  let a, b = synced () in
  Memory.write_u32 a 0x10000000 0;
  Memory.write_u32 b 0x20000000 0;
  check_bool "disjoint zero writes" true (Memory.dirty_equal a b);
  (* [clear] sweeps every leaf its journal names *)
  let a = Memory.create () and b = Memory.create () in
  Memory.write_u32 a 0x10000000 7;
  Memory.write_u16 a 0xFFFFFFFE 7;
  Memory.write_u32 b 0x20000000 7;
  Memory.load_bytes b ~addr:0x3000 "xyz";
  Memory.clear a;
  Memory.clear b;
  check_bool "cleared memories equal" true (Memory.equal a b);
  check_bool "cleared equals fresh" true (Memory.equal a (Memory.create ()));
  Memory.write_u8 a 0x10000001 3;
  Memory.write_u8 b 0x10000001 3;
  check_bool "reused after clear" true (Memory.equal a b);
  check_int "read after clear" 0 (Memory.read_u32 b 0x20000000)

let suite =
  [
    Alcotest.test_case "random ops vs byte-map model" `Quick test_random_ops;
    Alcotest.test_case "copy divergence vs model" `Quick test_copy_divergence;
    Alcotest.test_case "wraparound aliases vs model" `Quick
      test_wraparound_aliases;
    Alcotest.test_case "watched hook counts per word" `Quick
      test_watched_hook_counts;
    Alcotest.test_case "dirty_equal agrees with equal" `Quick
      test_dirty_equal_consistency;
    Alcotest.test_case "sparse leaves and growth vs model" `Quick
      test_sparse_leaves;
    Alcotest.test_case "watched-only and written-only pages" `Quick
      test_watch_without_write;
    Alcotest.test_case "copy independence across leaves" `Quick
      test_copy_untouched_leaves;
    Alcotest.test_case "zero leaf equals absent leaf" `Quick
      test_zero_leaf_vs_absent;
    Alcotest.test_case "clear and dirty_equal, disjoint leaves" `Quick
      test_disjoint_leaves;
  ]
