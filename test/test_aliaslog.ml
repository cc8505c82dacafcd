(* Equivalence of the bucketed aliasing log (Dts_vliw.Aliaslog) with the
   original single-list implementation it replaced.

   The oracle below is the old Engine code verbatim: one list of events,
   scanned in full on every memory operation, with Table 3's load/store
   list sizes recomputed by filtering the list. The property drives both
   implementations with random event sequences and demands they raise a
   violation at exactly the same event — and that the running list-size
   statistics agree at every step. A fixed-workload regression pins Table
   3's max_load_list/max_store_list to the values the list implementation
   produced on the seed. *)

open Dts_vliw

let check_int = Alcotest.(check int)

(* ---- the old list-scan implementation, kept as the oracle ---- *)

exception Oracle_violation

type oracle = {
  mutable log : Aliaslog.event list;
  mutable max_load : int;
  mutable max_store : int;
}

let oracle_create () = { log = []; max_load = 0; max_store = 0 }

let oracle_check o ~is_store ~addr ~size ~order ~li_idx =
  let open Aliaslog in
  let overlap e = addr < e.ev_addr + e.ev_size && e.ev_addr < addr + size in
  List.iter
    (fun e ->
      if overlap e && e.ev_order <> order then
        if is_store then begin
          if e.ev_is_store then begin
            if
              (order < e.ev_order && li_idx >= e.ev_li)
              || (order > e.ev_order && li_idx <= e.ev_li)
            then raise Oracle_violation
          end
          else if
            (order < e.ev_order && li_idx >= e.ev_li)
            || (order > e.ev_order && li_idx < e.ev_li)
          then raise Oracle_violation
        end
        else if e.ev_is_store then begin
          if
            (e.ev_order < order && e.ev_li >= li_idx)
            || (e.ev_order > order && e.ev_li < li_idx)
          then raise Oracle_violation
        end)
    o.log

let oracle_add o (ev : Aliaslog.event) =
  let open Aliaslog in
  oracle_check o ~is_store:ev.ev_is_store ~addr:ev.ev_addr ~size:ev.ev_size
    ~order:ev.ev_order ~li_idx:ev.ev_li;
  o.log <- ev :: o.log;
  let count p = List.length (List.filter p o.log) in
  if ev.ev_cross then
    if ev.ev_is_store then
      o.max_store <-
        max o.max_store (count (fun e -> e.ev_is_store && e.ev_cross))
    else
      o.max_load <-
        max o.max_load (count (fun e -> (not e.ev_is_store) && e.ev_cross))

(* ---- random event sequences ---- *)

(* A tight address range and small order/li domains force plenty of
   overlaps, order collisions and events straddling the 16-byte bucket
   boundary of the new implementation. *)
let gen_event =
  let open QCheck2.Gen in
  let* ev_addr = int_range 0 48 in
  let* ev_size = oneofl [ 1; 2; 4 ] in
  let* ev_order = int_range 0 7 in
  let* ev_li = int_range 0 4 in
  let* ev_is_store = bool in
  let+ ev_cross = bool in
  Aliaslog.{ ev_addr; ev_size; ev_order; ev_li; ev_is_store; ev_cross }

let gen_sequence = QCheck2.Gen.(list_size (int_range 0 40) gen_event)

(* Feed [events] into an implementation until the first violation; return
   (index of the violating event or -1, max load list, max store list). *)
let drive_oracle events =
  let o = oracle_create () in
  let rec go i = function
    | [] -> (-1, o.max_load, o.max_store)
    | ev :: rest -> (
      match oracle_add o ev with
      | () -> go (i + 1) rest
      | exception Oracle_violation -> (i, o.max_load, o.max_store))
  in
  go 0 events

let drive_bucketed events =
  let t = Aliaslog.create () in
  let max_load = ref 0 and max_store = ref 0 in
  let note (ev : Aliaslog.event) =
    if ev.ev_cross then
      if ev.ev_is_store then
        max_store := max !max_store (Aliaslog.cross_stores t)
      else max_load := max !max_load (Aliaslog.cross_loads t)
  in
  let rec go i = function
    | [] -> (-1, !max_load, !max_store)
    | ev :: rest -> (
      match Aliaslog.add t ev with
      | () ->
        note ev;
        go (i + 1) rest
      | exception Aliaslog.Alias_violation -> (i, !max_load, !max_store))
  in
  go 0 events

let prop_equivalence =
  QCheck2.Test.make ~count:2000
    ~name:"bucketed aliasing log == list-scan oracle (violation + stats)"
    gen_sequence
    (fun events -> drive_bucketed events = drive_oracle events)

(* a directed sequence that must violate: store (order 0) committing in a
   later li than a load (order 1) reads — both implementations agree *)
let test_directed_violation () =
  let open Aliaslog in
  let load =
    {
      ev_addr = 0x10;
      ev_size = 4;
      ev_order = 1;
      ev_li = 0;
      ev_is_store = false;
      ev_cross = true;
    }
  in
  let store = { load with ev_order = 0; ev_li = 1; ev_is_store = true } in
  let events = [ load; store ] in
  let b = drive_bucketed events and o = drive_oracle events in
  Alcotest.(check (triple int int int)) "agree" o b;
  check_int "violates at the store" 1 (match b with i, _, _ -> i)

(* ---- Table 3 regression: list-size stats on a fixed workload ---- *)

let table3_stats name =
  let r =
    Dts_experiments.Experiments.run_dtsvliw ~budget:20_000
      (Dts_core.Config.feasible ())
      name
  in
  (r.stats.max_load_list, r.stats.max_store_list)

let test_table3_list_sizes_compress () =
  let load, store = table3_stats "compress" in
  check_int "compress max_load_list" 0 load;
  check_int "compress max_store_list" 2 store

let test_table3_list_sizes_xlisp () =
  let load, store = table3_stats "xlisp" in
  check_int "xlisp max_load_list" 2 load;
  check_int "xlisp max_store_list" 4 store

let suite =
  [
    QCheck_alcotest.to_alcotest prop_equivalence;
    Alcotest.test_case "directed violation agrees" `Quick
      test_directed_violation;
    Alcotest.test_case "table3 list sizes: compress" `Quick
      test_table3_list_sizes_compress;
    Alcotest.test_case "table3 list sizes: xlisp" `Quick
      test_table3_list_sizes_xlisp;
  ]
