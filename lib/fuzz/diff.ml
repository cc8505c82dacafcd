(** Multi-engine differential runner.

    One generated program is executed on every engine family of the
    repository — Golden (the reference), the Primary Processor alone, the
    DTSVLIW machine interpreted and through compiled plans on the ideal and
    feasible geometries, and the DIF baseline — and the final architectural
    states are compared: registers and flags ({!Dts_isa.State.regs_equal}),
    memory ({!Dts_mem.Memory.equal}) and the architectural instruction
    count (golden-side sequential retirements).

    The DTSVLIW/DIF machines already co-simulate against their own internal
    golden model and raise {!Dts_core.Machine.Test_mode_mismatch} at the
    first divergent synchronisation point; the runner additionally
    localises divergences to a first divergent PC — by step-lockstep replay
    against a fresh golden machine for the Primary, and by re-running the
    machine with [memcmp_interval = 1] (a full memory comparison at every
    sync point) for the block engines. *)

open Dts_isa

type outcome =
  | Finished of { st : State.t; instret : int }
  | Timeout  (** fuel exhausted without [Halt] *)
  | Mismatch of { cycle : int; pc : int; detail : string }
  | Fault of string  (** an exception escaped the engine *)

type divergence = {
  d_engine : string;
  d_detail : string;
  d_first_pc : int option;  (** first divergent PC, when localisable *)
}

type verdict =
  | Pass of { instret : int }
  | Skip of string
      (** the golden machine itself did not finish cleanly — the program is
          outside the generator's contract and carries no signal *)
  | Fail of divergence list

(** Which DTSVLIW geometries to exercise. *)
type geoms = [ `Ideal | `Feasible | `All ]

let geoms_of_string = function
  | "ideal" -> Some `Ideal
  | "feasible" -> Some `Feasible
  | "all" -> Some `All
  | _ -> None

let geoms_to_string = function
  | `Ideal -> "ideal"
  | `Feasible -> "feasible"
  | `All -> "all"

(* ---------- engines ---------- *)

let perfect_cache () = Dts_core.Config.make_cache Dts_core.Config.Perfect

let run_golden program ~fuel =
  let st = Dts_asm.Program.boot program in
  let g = Dts_golden.Golden.of_state st in
  match Dts_golden.Golden.run ~max_instructions:fuel g with
  | _ ->
    if st.halted then Finished { st; instret = st.instret } else Timeout
  | exception Semantics.Fatal_fault m -> Fault ("Fatal_fault: " ^ m)
  | exception e -> Fault (Printexc.to_string e)

let run_primary program ~fuel =
  let st = Dts_asm.Program.boot program in
  let p =
    Dts_primary.Primary.create ~latencies:Dts_isa.Instr.unit_latencies
      ~icache:(perfect_cache ()) ~dcache:(perfect_cache ()) st
  in
  match Dts_primary.Primary.run ~max_instructions:fuel p with
  | _ -> if st.halted then Finished { st; instret = st.instret } else Timeout
  | exception Dts_primary.Primary.Halted ->
    Finished { st; instret = st.instret }
  | exception Semantics.Fatal_fault m -> Fault ("Fatal_fault: " ^ m)
  | exception e -> Fault (Printexc.to_string e)

let finish_machine (m : Dts_core.Machine.t) =
  if m.halted then
    Finished { st = m.st; instret = (Dts_core.Machine.stats m).instructions }
  else Timeout

let run_machine ~compile ?scheduler ~cfg program ~fuel =
  match
    let m = Dts_core.Machine.create ~compile ?scheduler cfg program in
    ignore (Dts_core.Machine.run ~max_instructions:fuel m);
    m
  with
  | m -> finish_machine m
  | exception Dts_core.Machine.Test_mode_mismatch { cycle; pc; detail } ->
    Mismatch { cycle; pc; detail }
  | exception Semantics.Fatal_fault m -> Fault ("Fatal_fault: " ^ m)
  | exception e -> Fault (Printexc.to_string e)

let run_dif ~cfg program ~fuel =
  match
    let m, _ = Dts_dif.Dif.machine ~machine_cfg:cfg program in
    ignore (Dts_core.Machine.run ~max_instructions:fuel m);
    m
  with
  | m -> finish_machine m
  | exception Dts_core.Machine.Test_mode_mismatch { cycle; pc; detail } ->
    Mismatch { cycle; pc; detail }
  | exception Semantics.Fatal_fault m -> Fault ("Fatal_fault: " ^ m)
  | exception e -> Fault (Printexc.to_string e)

(* ---------- first-divergent-PC localisation ---------- *)

(** Step-lockstep replay: a fresh golden machine and a fresh Primary advance
    one instruction at a time; the first step after which the two
    architectural states disagree (or one halts and the other does not)
    names the divergent PC. *)
let lockstep_primary program ~fuel =
  let stg = Dts_asm.Program.boot program in
  let stp = Dts_asm.Program.boot program in
  let g = Dts_golden.Golden.of_state stg in
  let p =
    Dts_primary.Primary.create ~latencies:Dts_isa.Instr.unit_latencies
      ~icache:(perfect_cache ()) ~dcache:(perfect_cache ()) stp
  in
  let res = ref None in
  (try
     for _ = 1 to fuel do
       let pc = stg.pc in
       let ghalt =
         try
           Dts_golden.Golden.step g;
           false
         with Dts_golden.Golden.Program_halted -> true
       in
       let phalt =
         try
           ignore (Dts_primary.Primary.step p);
           false
         with
         | Dts_primary.Primary.Halted -> true
         | Semantics.Fatal_fault _ -> true
       in
       if ghalt <> phalt || not (State.regs_equal stg stp) then begin
         res := Some pc;
         raise Exit
       end;
       if ghalt then raise Exit
     done
   with Exit -> ());
  !res

(** Re-run a machine engine with a full memory comparison at every
    synchronisation point; the mismatch exception then carries the PC of
    the first divergent sync. *)
let localize_machine ~compile ?scheduler ~cfg program ~fuel =
  let cfg = { cfg with Dts_core.Config.memcmp_interval = 1 } in
  match run_machine ~compile ?scheduler ~cfg program ~fuel with
  | Mismatch { pc; _ } -> Some pc
  | _ -> None

let localize_dif ~cfg program ~fuel =
  let cfg = { cfg with Dts_core.Config.memcmp_interval = 1 } in
  match run_dif ~cfg program ~fuel with
  | Mismatch { pc; _ } -> Some pc
  | _ -> None

(* ---------- the engine roster ---------- *)

type engine = {
  e_name : string;
  e_run : Dts_asm.Program.t -> fuel:int -> outcome;
  e_localize : Dts_asm.Program.t -> fuel:int -> int option;
}

let engines (geoms : geoms) : engine list =
  let cfgs =
    match geoms with
    | `Ideal -> [ ("ideal", Dts_core.Config.ideal ()) ]
    | `Feasible -> [ ("feasible", Dts_core.Config.feasible ()) ]
    | `All ->
      [
        ("ideal", Dts_core.Config.ideal ());
        ("feasible", Dts_core.Config.feasible ());
      ]
  in
  let dif_cfg = Dts_dif.Dif.fig9_machine_cfg () in
  {
    e_name = "primary";
    e_run = run_primary;
    e_localize = (fun p ~fuel -> lockstep_primary p ~fuel);
  }
  :: List.concat_map
       (fun (gname, cfg) ->
         List.map
           (fun compile ->
             {
               e_name =
                 Printf.sprintf "dtsvliw-%s-%s"
                   (if compile then "compiled" else "interpreted")
                   gname;
               e_run = (fun p ~fuel -> run_machine ~compile ~cfg p ~fuel);
               e_localize =
                 (fun p ~fuel -> localize_machine ~compile ~cfg p ~fuel);
             })
           [ false; true ]
         (* The optimality-oracle backend: every block the Scheduler Unit
            finishes is replaced by the branch-and-bound oracle's best
            schedule (rebuilt, tags recomputed, independently re-checked)
            before installation, so the machine executes oracle schedules
            under golden co-simulation. A modelling error in the oracle
            surfaces as a test-mode mismatch, a failed invariant check
            (Fault), or a final-state divergence. Interpreted execution
            only — the plan compiler has its own differential engines. *)
         @ [
             (let scheduler = Dts_opt.Opt.rescheduling_scheduler cfg in
              {
                e_name = Printf.sprintf "dtsvliw-opt-%s" gname;
                e_run =
                  (fun p ~fuel ->
                    run_machine ~compile:false ~scheduler ~cfg p ~fuel);
                e_localize =
                  (fun p ~fuel ->
                    localize_machine ~compile:false ~scheduler ~cfg p ~fuel);
              });
           ])
       cfgs
  @ [
      {
        e_name = "dif";
        e_run = (fun p ~fuel -> run_dif ~cfg:dif_cfg p ~fuel);
        e_localize = (fun p ~fuel -> localize_dif ~cfg:dif_cfg p ~fuel);
      };
    ]

(* ---------- comparison ---------- *)

let compare_to_reference ~(ref_st : State.t) (e : engine) program ~fuel =
  match e.e_run program ~fuel with
  | Finished { st; instret } ->
    let regs_ok = State.regs_equal ref_st st in
    let mem_ok = Dts_mem.Memory.equal ref_st.mem st.mem in
    let count_ok = instret = ref_st.instret in
    if regs_ok && mem_ok && count_ok then None
    else
      let detail =
        Format.asprintf "final state differs (golden vs %s):@ %a%s" e.e_name
          State.pp_diff (ref_st, st)
          (if count_ok then ""
           else Printf.sprintf "instret %d vs %d" ref_st.instret instret)
      in
      Some
        {
          d_engine = e.e_name;
          d_detail = detail;
          d_first_pc = e.e_localize program ~fuel;
        }
  | Timeout ->
    Some
      {
        d_engine = e.e_name;
        d_detail = "did not halt within fuel (golden halted)";
        d_first_pc = None;
      }
  | Mismatch { cycle; pc; detail } ->
    Some
      {
        d_engine = e.e_name;
        d_detail = Printf.sprintf "test-mode mismatch at cycle %d: %s" cycle detail;
        d_first_pc = Some pc;
      }
  | Fault msg ->
    Some { d_engine = e.e_name; d_detail = msg; d_first_pc = None }

(** Run [program] on the full engine roster and compare everything to the
    golden reference. *)
let run ?(geoms = `All) ~fuel program =
  match run_golden program ~fuel with
  | Timeout -> Skip "golden did not halt within fuel"
  | Fault m -> Skip ("golden fault: " ^ m)
  | Mismatch _ -> assert false (* golden does not co-simulate *)
  | Finished { st = ref_st; instret } -> (
    match
      List.filter_map
        (fun e -> compare_to_reference ~ref_st e program ~fuel)
        (engines geoms)
    with
    | [] -> Pass { instret }
    | divs -> Fail divs)

(** [true] iff the program halts cleanly on golden and at least one engine
    diverges — the shrinker's interestingness predicate. *)
let diverges ?geoms ~fuel program =
  match run ?geoms ~fuel program with Fail _ -> true | Pass _ | Skip _ -> false
