(* Unit tests for the worker pool: ordering, empty input, exception
   propagation and the jobs = 1 sequential fallback. *)

open Dts_parallel

let check_int = Alcotest.(check int)
let check_ints = Alcotest.(check (list int))

let with_pool4 f = Pool.with_pool ~jobs:4 f

let test_ordering () =
  with_pool4 (fun pool ->
      (* items of very uneven cost: results must still come back in
         submission order *)
      let xs = List.init 200 (fun i -> i) in
      let f i =
        let spin = if i mod 7 = 0 then 20_000 else 10 in
        let acc = ref 0 in
        for _ = 1 to spin do
          acc := !acc + i
        done;
        ignore !acc;
        i * i
      in
      check_ints "squares in order" (List.map (fun i -> i * i) xs)
        (Pool.map pool f xs))

let test_order_repeatable () =
  with_pool4 (fun pool ->
      let xs = List.init 64 (fun i -> i) in
      let a = Pool.map pool (fun i -> 3 * i) xs in
      let b = Pool.map pool (fun i -> 3 * i) xs in
      check_ints "two batches agree" a b)

let test_empty () =
  with_pool4 (fun pool ->
      check_ints "empty" [] (Pool.map pool (fun i -> i) []);
      check_ints "singleton" [ 9 ] (Pool.map pool (fun i -> i * i) [ 3 ]))

exception Boom of int

(* [f ()] must fail with [Boom i]. *)
let expect_boom what i f =
  match f () with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom j -> check_int what i j

let test_exception () =
  with_pool4 (fun pool ->
      (* several items fail; the lowest-indexed failure must win *)
      expect_boom "lowest failing index" 2 (fun () ->
          Pool.map pool
            (fun i -> if i mod 5 = 2 then raise (Boom i) else i)
            (List.init 40 (fun i -> i))));
  (* the pool stays usable after a failed batch *)
  with_pool4 (fun pool ->
      expect_boom "first item" 7 (fun () ->
          Pool.map pool (fun i -> raise (Boom i)) [ 7; 8 ]);
      check_ints "pool survives" [ 2; 4 ] (Pool.map pool (fun i -> 2 * i) [ 1; 2 ]))

let test_sequential_fallback () =
  Pool.with_pool ~jobs:1 (fun pool ->
      check_int "jobs clamps to 1" 1 (Pool.jobs pool);
      check_ints "sequential map" [ 1; 4; 9 ]
        (Pool.map pool (fun i -> i * i) [ 1; 2; 3 ]);
      expect_boom "sequential raise" 5 (fun () ->
          Pool.map pool (fun i -> raise (Boom i)) [ 5 ]))

(* The property the experiments layer builds on: fanning a figure's runs
   over a pool changes nothing about what it renders. *)
let test_experiments_deterministic () =
  let seq =
    (Dts_experiments.Experiments.run ~budget:400 "table3")
      .Dts_experiments.Experiments.render ()
  in
  with_pool4 (fun pool ->
      let par =
        (Dts_experiments.Experiments.run ~pool ~budget:400 "table3")
          .Dts_experiments.Experiments.render ()
      in
      Alcotest.(check string) "table3 renders identically on a pool" seq par)

let test_resolve_jobs () =
  check_int "negative clamps" 1 (Pool.resolve_jobs (-3));
  check_int "identity" 6 (Pool.resolve_jobs 6);
  check_int "zero means recommended" (Pool.recommended ()) (Pool.resolve_jobs 0)

let suite =
  [
    Alcotest.test_case "ordering under uneven load" `Quick test_ordering;
    Alcotest.test_case "empty and singleton" `Quick test_empty;
    Alcotest.test_case "exception propagation" `Quick test_exception;
    Alcotest.test_case "jobs=1 sequential fallback" `Quick
      test_sequential_fallback;
    Alcotest.test_case "repeatable across batches" `Quick test_order_repeatable;
    Alcotest.test_case "resolve_jobs" `Quick test_resolve_jobs;
    Alcotest.test_case "experiments render deterministically" `Quick
      test_experiments_deterministic;
  ]
