(* The benchmark of the DTSVLIW simulator: one workload per process.

     main.exe --workload W --seed N [--seconds S] [--trace 0|1]
              [--out FILE] [--spans FILE]

   Untraced ([--trace 0], the default): run whole passes of the workload's
   ops while another pass still fits in S seconds, timing three set-ups
   before each. Prints every end-to-end metric as "workload metric value
   unit", then one JSON result as the last line.

   Traced ([--trace 1]): alternate an untraced and a traced pass while
   another pair still fits in S seconds; print every per-layer metric the
   same way and write the spans as JSONL (default
   perfbench/out/W.spans.jsonl).

   [--out FILE] appends the JSON result, tagged with workload, seed and
   mode, to FILE (the input of compare.py). Run from the repository root:
   the pins are read from perfbench/expected/. Exit 0 when every op was
   correct, 1 when one failed or the run could not be set up, 2 on bad
   arguments. *)

let now = Layers.now

let die msg =
  prerr_endline ("perfbench: " ^ msg);
  exit 2

type args = {
  workload : string;
  seed : int;
  seconds : int;
  trace : bool;
  out : string option;
  spans : string option;
}

let flags = [ "--workload"; "--seed"; "--seconds"; "--trace"; "--out"; "--spans" ]

(* Every argument is checked before any simulation starts. *)
let parse argv =
  let rec pairs = function
    | [] -> []
    | f :: v :: rest when List.mem f flags -> (f, v) :: pairs rest
    | f :: _ when List.mem f flags -> die (f ^ " needs a value")
    | a :: _ -> die ("unknown argument " ^ a)
  in
  let kv = pairs argv in
  let find f = List.assoc_opt f kv in
  let int f ~min ~default =
    match find f with
    | None -> (
      match default with Some d -> d | None -> die ("missing " ^ f))
    | Some v -> (
      match int_of_string_opt v with
      | Some n when n >= min -> n
      | Some _ | None ->
        die (Printf.sprintf "%s expects an integer >= %d, got %S" f min v))
  in
  let workload =
    match find "--workload" with
    | Some w when List.mem w Suite.names -> w
    | Some w ->
      die
        (Printf.sprintf "unknown workload %S (expected one of %s)" w
           (String.concat ", " Suite.names))
    | None -> die "missing --workload"
  in
  let trace =
    match find "--trace" with
    | None | Some "0" -> false
    | Some "1" -> true
    | Some v -> die (Printf.sprintf "--trace expects 0 or 1, got %S" v)
  in
  {
    workload;
    seed = int "--seed" ~min:0 ~default:None;
    seconds = int "--seconds" ~min:1 ~default:(Some 25);
    trace;
    out = find "--out";
    spans = find "--spans";
  }

(* Linear interpolation between closest ranks. *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let pos = q *. float_of_int (Array.length a - 1) in
  let i = int_of_float pos in
  if i + 1 >= Array.length a then a.(Array.length a - 1)
  else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5

type pass = {
  wall : float;
  instructions : int;  (** sequential instructions of the correct ops *)
  op_s : float array;  (** host time of each op, in plan order *)
  results : Suite.outcome option array;
  failed : int;
}

(* A pass whose whole-pass check fails counts every one of its ops as
   failed. *)
let finish (p : Suite.prepared) t0 op_s results =
  let whole_ok =
    match p.finish results with
    | () -> true
    | exception e ->
      prerr_endline ("perfbench: pass check failed: " ^ Printexc.to_string e);
      false
  in
  let wall = now () -. t0 in
  let missing = Array.fold_left (fun a o -> if o = None then a + 1 else a) 0 results in
  {
    wall;
    instructions =
      Array.fold_left
        (fun a o -> match o with Some (o : Suite.outcome) -> a + o.instructions | None -> a)
        0 results;
    op_s;
    results;
    failed = (if whole_ok then missing else Array.length results);
  }

(* The order in which pass [pass] runs the ops: plan order for the first
   pass, then a new shuffle drawn from the seed for every other one.
   Results stay in plan order. *)
let order ~seed ~pass n =
  let rng = Random.State.make [| seed; pass |] in
  let a = Array.init n Fun.id in
  if pass > 0 then
    for i = n - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let x = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- x
    done;
  a

let untraced_pass (p : Suite.prepared) order =
  let t0 = now () in
  let n = Array.length p.ops in
  let op_s = Array.make n 0. and results = Array.make n None in
  Array.iter
    (fun i ->
      let t = now () in
      results.(i) <- Suite.attempt p.ops.(i);
      op_s.(i) <- now () -. t)
    order;
  finish p t0 op_s results

let traced_pass (p : Suite.prepared) tr =
  let t0 = now () in
  let results = Layers.within tr "pass" (fun sp -> p.traced tr sp) in
  finish p t0 [||] results

(* Each op at the fastest of its times over the run's passes, and the pass
   work outside the ops at its fastest. The host is shared: contention
   only ever slows work down, and it comes in bursts of seconds, so the
   minimum over passes filters it where a median of a few long passes
   cannot. The first pass, which warms the heap, is filtered the same
   way. *)
let fastest passes =
  let ops = Array.copy (List.hd passes).op_s in
  List.iter
    (fun p -> Array.iteri (fun i t -> ops.(i) <- Float.min ops.(i) t) p.op_s)
    passes;
  let rest =
    List.fold_left
      (fun a p -> Float.min a (p.wall -. Array.fold_left ( +. ) 0. p.op_s))
      infinity passes
  in
  (ops, rest)

(* Whole passes, at least one, while another pass as long as the last
   still ends within [seconds]: a run lasts about [seconds] however slow
   the host is. *)
let repeat ~seconds f =
  let t0 = now () in
  let rec go k acc =
    let t = now () in
    let acc = f k :: acc in
    let t' = now () in
    if t' -. t0 +. (t' -. t) <= float_of_int seconds then go (k + 1) acc
    else List.rev acc
  in
  go 0 []

let sum f xs = List.fold_left (fun a x -> a +. f x) 0. xs

(* Set-ups timed before every pass. Spread over the run, their median is
   not moved by one burst of host contention. *)
let setups_per_pass = 3

let report a ~attempted ~failed metrics =
  List.iter
    (fun (name, v, unit) -> Printf.printf "%s %s %.6g %s\n" a.workload name v unit)
    metrics;
  let open Dts_obs.Json in
  let result =
    [
      ("correct", Bool (failed = 0));
      ("attempted", Int attempted);
      ("failed", Int failed);
      ( "metrics",
        Obj
          (List.map
             (fun (name, v, unit) ->
               (name, Obj [ ("value", Float v); ("unit", String unit) ]))
             metrics) );
    ]
  in
  Option.iter
    (fun path ->
      Out_channel.with_open_gen [ Open_append; Open_creat ] 0o644 path (fun oc ->
          output_string oc
            (to_string
               (Obj
                  ([
                     ("workload", String a.workload);
                     ("seed", Int a.seed);
                     ("trace", Bool a.trace);
                   ]
                  @ result))
            ^ "\n")))
    a.out;
  print_endline (to_string (Obj result));
  exit (if failed = 0 then 0 else 1)

let fastest_wall passes = List.fold_left (fun a p -> Float.min a p.wall) infinity passes

let tally passes =
  ( List.fold_left (fun a p -> a + Array.length p.results) 0 passes,
    List.fold_left (fun a p -> a + p.failed) 0 passes )

let untraced a =
  let setup_s = ref [] and top_heap_words = ref 0 in
  let passes =
    repeat ~seconds:a.seconds (fun k ->
        let p =
          List.init setups_per_pass (fun _ ->
              let t0 = now () in
              let p = Suite.setup a.workload a.seed in
              setup_s := (now () -. t0) :: !setup_s;
              p)
          |> List.hd
        in
        Suite.prime a.workload;
        let pass = untraced_pass p (order ~seed:a.seed ~pass:k (Array.length p.ops)) in
        if k = 0 then top_heap_words := (Gc.quick_stat ()).top_heap_words;
        pass)
  in
  let ops, rest = fastest passes in
  let wall = Array.fold_left ( +. ) rest ops in
  let op_ms = List.map (fun t -> 1e3 *. t) (Array.to_list ops) in
  let ipcs =
    List.filter_map
      (function Some (o : Suite.outcome) when o.ipc > 0. -> Some o.ipc | _ -> None)
      (Array.to_list (List.hd passes).results)
  in
  let attempted, failed = tally passes in
  if ipcs <> [] then
    Printf.printf "%s mean_ipc %.6f instr/cycle\n" a.workload
      (sum Fun.id ipcs /. float_of_int (List.length ipcs));
  Printf.printf "%s failed_frac %.6g ratio\n" a.workload
    (float_of_int failed /. float_of_int attempted);
  let word_bytes = float_of_int (Sys.word_size / 8) in
  report a ~attempted ~failed
    [
      ("wall_s", wall, "s");
      ( "sim_mips",
        float_of_int (List.hd passes).instructions /. wall /. 1e6,
        "Minstr/s" );
      ("op_ms.p50", quantile 0.5 op_ms, "ms");
      ("op_ms.p95", quantile 0.95 op_ms, "ms");
      ("setup_s", median !setup_s, "s");
      ( "peak_heap_mb",
        (* after the first pass: its plan order makes the peak the same
           for every seed, where a shuffled order moves it by up to 13%,
           and it does not depend on how many passes the host allowed *)
        float_of_int !top_heap_words *. word_bytes /. 1048576.,
        "MiB" );
    ]

let traced a =
  let p = Suite.setup a.workload a.seed in
  Suite.prime a.workload;
  let tr = Layers.create ~workload:a.workload in
  let pairs =
    repeat ~seconds:a.seconds (fun k ->
        let minor0 = Gc.minor_words () and major0 = (Gc.quick_stat ()).major_words in
        let u = untraced_pass p (order ~seed:a.seed ~pass:k (Array.length p.ops)) in
        let words =
          (Gc.minor_words () -. minor0, (Gc.quick_stat ()).major_words -. major0)
        in
        (u, words, traced_pass p tr))
  in
  let untraced = List.map (fun (u, _, _) -> u) pairs in
  let traced = List.map (fun (_, _, t) -> t) pairs in
  let instr = float_of_int (List.fold_left (fun a u -> a + u.instructions) 0 untraced) in
  let attempted, failed = tally (untraced @ traced) in
  let spans =
    match a.spans with
    | Some f -> f
    | None ->
      if not (Sys.file_exists "perfbench/out") then Sys.mkdir "perfbench/out" 0o755;
      Printf.sprintf "perfbench/out/%s.spans.jsonl" a.workload
  in
  Layers.write_spans tr spans;
  report a ~attempted ~failed
    (Layers.metrics tr ~passes:(List.length traced)
       ~gc:
         ( Layers.ratio (sum (fun (_, (mi, _), _) -> mi) pairs) instr,
           Layers.ratio (sum (fun (_, (_, ma), _) -> ma) pairs) instr )
       ~overhead:(fastest_wall traced /. fastest_wall untraced -. 1.))

(* Exit 2 is kept for rejected arguments: anything that escapes set-up or
   a pass, such as a missing pin file, exits 1 without a result. *)
let () =
  let a = parse (List.tl (Array.to_list Sys.argv)) in
  match if a.trace then traced a else untraced a with
  | () -> ()
  | exception e ->
    prerr_endline ("perfbench: " ^ Printexc.to_string e);
    exit 1
