(* The four benchmark workloads: what each sets up from the seed, what one
   op is, how its outputs are checked against the pins in
   perfbench/expected/, and how one pass runs under outside-in timers.

   The seed selects the programs of fuzz-roster; the other workloads
   ignore it. Ops are listed in plan order, and the order in which a pass
   runs them is the caller's. *)

module C = Dts_core.Config
module M = Dts_core.Machine
module E = Dts_experiments.Experiments
module SU = Dts_sched.Sched_unit
module Diff = Dts_fuzz.Diff
module Gen = Dts_fuzz.Gen

type outcome = { instructions : int; ipc : float (** 0 when not a simulation *) }

type prepared = {
  ops : (unit -> outcome) array;
      (** one pass, in plan order; an op raises when its output is wrong *)
  finish : outcome option array -> unit;
      (** checks a whole pass, in plan order, after its last op ([None] =
          failed op); raises when an output is wrong, failing every op of
          the pass *)
  traced : Layers.t -> Layers.span -> outcome option array;
      (** one pass in plan order under outside-in timers, as children of
          the given span *)
}

let attempt f =
  match f () with
  | o -> Some o
  | exception e ->
    prerr_endline ("perfbench: op failed: " ^ Printexc.to_string e);
    None

let expected file = Filename.concat "perfbench/expected" file

let read_lines file =
  In_channel.with_open_text (expected file) In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let compile ~scale name =
  Dts_tinyc.Tinyc.compile ((Dts_workloads.Workloads.find name).source scale)

let check_invariant (s : Dts_obs.Stats.t) =
  if not (Dts_obs.Stats.invariant_holds s) then
    failwith "cycle attribution does not sum to the cycle count"

(* ------------------------------------------------------------------ *)
(* figures: the paper's full evaluation, one fresh machine per run      *)
(* ------------------------------------------------------------------ *)

let figures_budget = 100_000

let figures _seed =
  List.iter (fun n -> ignore (compile ~scale:1 n)) E.workload_names;
  let plan = Array.of_list (E.plan "all") in
  let subplans = List.map (fun f -> (f, E.plan f)) Layers.figures in
  if List.concat_map snd subplans <> Array.to_list plan then
    failwith "Layers.figures, plan by plan, is not Experiments.plan \"all\"";
  let slices = List.map (fun (f, p) -> (f, List.length p)) subplans in
  let runs = Array.make (Array.length plan) None in
  let eval i =
    let r = E.eval_descriptor ~scale:1 ~budget:figures_budget plan.(i) in
    check_invariant r.stats;
    runs.(i) <- Some r;
    r
  in
  let op i () =
    let r = eval i in
    { instructions = r.instructions; ipc = r.ipc }
  in
  let finish _ =
    let md5 =
      (E.assemble "all" (Array.to_list (Array.map Option.get runs))).render ()
      |> Digest.string |> Digest.to_hex
    in
    Array.fill runs 0 (Array.length runs) None;
    if [ md5 ] <> read_lines "figures.md5" then
      failwith ("figures render MD5 is not the pinned one: " ^ md5)
  in
  let traced tr pass =
    let next = ref 0 in
    List.concat_map
      (fun (fig, len) ->
        Layers.within tr ~parent:pass ~metric:("experiments." ^ fig ^ "_s")
          ("experiments." ^ fig) (fun fs ->
            let first = !next in
            next := first + len;
            List.init len (fun k ->
                let i = first + k in
                Layers.within tr ~parent:fs ~op:i "op" (fun _ ->
                    attempt (fun () ->
                        let r = eval i in
                        Layers.add_stats tr r.stats;
                        Layers.add tr "golden.instructions"
                          (float_of_int r.instructions);
                        { instructions = r.instructions; ipc = r.ipc })))))
      slices
    |> Array.of_list
  in
  {
    ops = Array.init (Array.length plan) op;
    finish;
    traced;
  }

(* ------------------------------------------------------------------ *)
(* steady-vliw and cache-thrash: long simulations of scaled analogues  *)
(* ------------------------------------------------------------------ *)

let sim_budget = 2_000_000
let sim_scale = 20

type sim = {
  workload : string;
  config : string;
  cfg : C.t;
  program : Dts_asm.Program.t;
}

(* A simulation's cycle and instruction counts must equal the pinned ones:
   test mode proves the architectural state, the pin proves the timing. *)
let check_sim pins s (st : Dts_obs.Stats.t) n =
  check_invariant st;
  let line = Printf.sprintf "%s %s %d %d" s.workload s.config st.cycles n in
  if not (List.mem line pins) then failwith ("result is not pinned: " ^ line)

let run_sim pins s () =
  let m = M.create s.cfg s.program in
  let n = M.run ~max_instructions:sim_budget m in
  let st = M.stats m in
  check_sim pins s st n;
  { instructions = n; ipc = Dts_obs.Stats.ipc st }

(* Per-step timers. An all-float record stores its fields unboxed, so the
   accumulation itself allocates nothing. *)
type clocks = {
  mutable vliw : float;
  mutable primary : float;
  mutable sched : float;
}

(* One simulation with the Scheduler Unit wrapped in timers and
   [Machine.step] driven from here, each call bucketed by the mode it
   started in. [Machine.run] then performs the final full-state check.
   The golden machine is timed standalone on the same program and budget,
   and the captured blocks are recompiled offline by [Plan.compile]. *)
let traced_sim tr sp pins s =
  let ck = { vliw = 0.; primary = 0.; sched = 0. } in
  let ticks = ref 0 and inserts = ref 0 and vsteps = ref 0 and psteps = ref 0 in
  let captured = ref [] in
  let scheduler () =
    let u = SU.create s.cfg.sched in
    {
      M.s_tick =
        (fun () ->
          let t0 = Layers.now () in
          ignore (SU.tick u);
          ck.sched <- ck.sched +. (Layers.now () -. t0);
          incr ticks);
      s_insert =
        (fun r ->
          let t0 = Layers.now () in
          let res = SU.insert u r in
          ck.sched <- ck.sched +. (Layers.now () -. t0);
          incr inserts;
          res);
      s_finish =
        (fun ~nba_addr ->
          let t0 = Layers.now () in
          let b = SU.finish_block u ~nba_addr in
          ck.sched <- ck.sched +. (Layers.now () -. t0);
          Option.iter (fun b -> captured := b :: !captured) b;
          b);
    }
  in
  let m, n =
    Layers.within tr ~parent:sp "machine" (fun _ ->
        let m = M.create ~scheduler s.cfg s.program in
        let g = Dts_golden.Golden.state m.golden in
        let prev = ref (Layers.now ()) in
        while (not m.halted) && g.instret < sim_budget && m.st.instret < sim_budget
        do
          let in_vliw = match m.mode with M.M_vliw _ -> true | M_primary -> false in
          M.step m;
          let t = Layers.now () in
          if in_vliw then begin
            ck.vliw <- ck.vliw +. (t -. !prev);
            incr vsteps
          end
          else begin
            ck.primary <- ck.primary +. (t -. !prev);
            incr psteps
          end;
          prev := t
        done;
        (m, M.run ~max_instructions:sim_budget m))
  in
  let st = M.stats m in
  check_sim pins s st n;
  let nwindows = s.cfg.sched.nwindows in
  let golden = Dts_golden.Golden.of_state (Dts_asm.Program.boot ~nwindows s.program) in
  let gi =
    Layers.within tr ~parent:sp ~metric:"golden.replay_s" "golden.replay"
      (fun _ -> Dts_golden.Golden.run ~max_instructions:sim_budget golden)
  in
  Layers.add tr "golden.instructions" (float_of_int gi);
  let blocks = List.rev !captured in
  Layers.within tr ~parent:sp ~metric:"plan.offline_s" "plan.compile" (fun _ ->
      List.iter (fun b -> ignore (Dts_vliw.Plan.compile ~nwindows b)) blocks);
  let counts =
    [
      ("machine.vliw_step_s", ck.vliw);
      ("machine.primary_step_s", ck.primary);
      ("sched.busy_s", ck.sched);
      ("sched.ticks", float_of_int !ticks);
      ("sched.inserts", float_of_int !inserts);
      ("machine.vliw_steps", float_of_int !vsteps);
      ("primary.steps", float_of_int !psteps);
      ("plan.offline_blocks", float_of_int (List.length blocks));
    ]
  in
  sp.counts <- counts;
  List.iter (fun (k, v) -> Layers.add tr k v) counts;
  Layers.add_stats tr st;
  { instructions = n; ipc = Dts_obs.Stats.ipc st }

let sims ~config cfg workloads =
  let sims =
    Array.of_list
      (List.map
         (fun w -> { workload = w; config; cfg; program = compile ~scale:sim_scale w })
         workloads)
  in
  let pins = read_lines "sims.txt" in
  let traced tr pass =
    Array.mapi
      (fun i s ->
        Layers.within tr ~parent:pass ~op:i "op" (fun sp ->
            attempt (fun () -> traced_sim tr sp pins s)))
      sims
  in
  { ops = Array.map (run_sim pins) sims; finish = ignore; traced }

let steady_vliw _seed = sims ~config:"ideal" (C.ideal ()) E.workload_names

let cache_thrash _seed =
  let cfg = { (C.ideal ()) with vliw_cache = { kb = 48; assoc = 1 } } in
  sims ~config:"ideal-vc48k-1way" cfg [ "gcc"; "go" ]

(* ------------------------------------------------------------------ *)
(* fuzz-roster: generated programs on golden plus every roster engine  *)
(* ------------------------------------------------------------------ *)

let fuzz_programs = 500
let max_insns = Gen.default_max_insns
let fuel = Gen.dynamic_bound ~max_insns

(* Program [i] is [Driver.item]'s program [i] of a campaign seeded [seed]. *)
let generate seed i = Gen.generate ~max_insns ~seed:(Dts_fuzz.Sprng.derive seed i) ()

let diverged divs =
  failwith (String.concat "; " (List.map Dts_fuzz.Driver.describe_div divs))

let fuzz_roster seed =
  let programs = Array.init fuzz_programs (generate seed) in
  let engines = Diff.engines `All in
  let op i () =
    match Diff.run ~geoms:`All ~fuel programs.(i) with
    | Pass { instret } -> { instructions = instret; ipc = 0. }
    | Skip reason -> failwith ("golden skipped the program: " ^ reason)
    | Fail divs -> diverged divs
  in
  (* a seed with a pinned summary, "seed passed instructions", must match it *)
  let finish results =
    let passed = Array.fold_left (fun a o -> if o = None then a else a + 1) 0 results in
    let instr =
      Array.fold_left
        (fun a o -> match o with Some o -> a + o.instructions | None -> a)
        0 results
    in
    let line = Printf.sprintf "%d %d %d" seed passed instr in
    let pinned_seed l = List.hd (String.split_on_char ' ' l) = string_of_int seed in
    match List.find_opt pinned_seed (read_lines "fuzz-roster.txt") with
    | Some pin when pin <> line ->
      failwith (Printf.sprintf "fuzz summary %S differs from the pin %S" line pin)
    | Some _ | None -> ()
  in
  let traced tr pass =
    Array.init fuzz_programs (fun i ->
        Layers.within tr ~parent:pass ~op:i "op" (fun sp ->
            attempt (fun () ->
                let program =
                  Layers.within tr ~parent:sp ~metric:"fuzz.gen_s" "fuzz.gen"
                    (fun _ -> generate seed i)
                in
                let ref_st =
                  match
                    Layers.within tr ~parent:sp ~metric:"fuzz.golden_s"
                      "fuzz.golden" (fun _ -> Diff.run_golden program ~fuel)
                  with
                  | Finished { st; _ } -> st
                  | Timeout | Mismatch _ | Fault _ ->
                    failwith "golden did not finish the program"
                in
                let timed (e : Diff.engine) =
                  let name = "fuzz.engine." ^ e.e_name in
                  {
                    e with
                    e_run =
                      (fun p ~fuel ->
                        Layers.within tr ~parent:sp ~metric:(name ^ "_s") name
                          (fun _ -> e.e_run p ~fuel));
                  }
                in
                match
                  List.filter_map
                    (fun e -> Diff.compare_to_reference ~ref_st (timed e) program ~fuel)
                    engines
                with
                | [] -> { instructions = ref_st.instret; ipc = 0. }
                | divs -> diverged divs)))
  in
  { ops = Array.init fuzz_programs op; finish; traced }

(* Fill the caches that set-up timing bypasses: figures' runs compile
   through [Workloads.program]'s memo, while its timed set-up compiles
   afresh each time. Called untimed after the set-ups; only the first call
   compiles, so no op pays for a compile. *)
let prime = function
  | "figures" ->
    List.iter
      (fun n ->
        ignore
          (Dts_workloads.Workloads.program ~scale:1
             (Dts_workloads.Workloads.find n)))
      E.workload_names
  | _ -> ()

(* The workloads by name, as BENCHMARK.json lists them. *)
let workloads =
  [
    ("figures", figures);
    ("steady-vliw", steady_vliw);
    ("cache-thrash", cache_thrash);
    ("fuzz-roster", fuzz_roster);
  ]

let names = List.map fst workloads
let setup w = List.assoc w workloads
