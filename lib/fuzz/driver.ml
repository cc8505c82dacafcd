(** Campaign orchestration: generate → differentially run → shrink → emit
    reproducers.

    Determinism contract: program [i] of a campaign is generated from
    [Sprng.derive seed i], so the sequence of programs — and therefore of
    verdicts — depends only on [(seed, count, max_insns)]. With [~jobs > 1]
    the verdicts are computed on a {!Dts_parallel.Pool}, whose [map] returns
    results in submission order, so campaign output is bit-identical for
    every jobs value. Shrinking and reproducer writing happen sequentially
    in the caller after the fan-out. *)

type failure = {
  f_index : int;  (** program index within the campaign *)
  f_seed : int;  (** derived per-program seed *)
  f_divs : Diff.divergence list;  (** divergences of the original program *)
  f_shrunk : Dts_asm.Program.t;  (** minimised reproducer program *)
  f_live : int;  (** live instructions of the shrunk program *)
  f_path : string option;  (** reproducer file, when an out dir was given *)
}

type summary = {
  s_count : int;
  s_passed : int;
  s_skips : (int * int * string) list;
      (** (index, seed, reason) of programs the golden machine itself did
          not finish cleanly — should be rare; a fault reason here is a
          generator bug *)
  s_instructions : int;  (** total sequential instructions across passes *)
  s_failures : failure list;
}

let rec ensure_dir dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir)
  then begin
    ensure_dir (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let describe_div (d : Diff.divergence) =
  Printf.sprintf "%s%s: %s" d.d_engine
    (match d.d_first_pc with
    | Some pc -> Printf.sprintf " (first divergent pc %#x)" pc
    | None -> "")
    d.d_detail

(** Shrink a failing program and (optionally) write its reproducer file.
    The reproducer records the divergences of the {e shrunk} program. *)
let process_failure ~geoms ~fuel ~shrink ~out_dir ~index ~seed program divs =
  let shrunk =
    if shrink then
      Shrink.shrink ~check:(fun p -> Diff.diverges ~geoms ~fuel p) program
    else program
  in
  let final_divs =
    match Diff.run ~geoms ~fuel shrunk with Diff.Fail d -> d | _ -> divs
  in
  let path =
    match out_dir with
    | None -> None
    | Some dir ->
      ensure_dir dir;
      let path = Filename.concat dir (Printf.sprintf "seed-%d.srisc" seed) in
      Repro.save ~path ~seed ~geoms:(Diff.geoms_to_string geoms)
        ~notes:(List.map describe_div final_divs)
        shrunk;
      Some path
  in
  {
    f_index = index;
    f_seed = seed;
    f_divs = divs;
    f_shrunk = shrunk;
    f_live = Shrink.live_instructions shrunk;
    f_path = path;
  }

(** Evaluate campaign item [i]: generate program [derive seed i] and run
    it on every engine. Returns [(i, per-program seed, verdict)], so the
    pool's results can be folded by index. *)
let item ~geoms ~max_insns ~seed i =
  let fuel = Gen.dynamic_bound ~max_insns in
  let pseed = Sprng.derive seed i in
  let program = Gen.generate ~max_insns ~seed:pseed () in
  (i, pseed, Diff.run ~geoms ~fuel program)

(** Fold index-ordered verdicts into a campaign {!summary}. Failing
    programs are regenerated from their per-program seed, shrunk and
    (optionally) written out — sequentially, in index order, so the
    summary depends only on the verdict list. *)
let summarize ?(geoms = `All) ?(max_insns = Gen.default_max_insns)
    ?(shrink = true) ?out_dir ~count verdicts =
  let fuel = Gen.dynamic_bound ~max_insns in
  let passed = ref 0 and skips = ref [] and instructions = ref 0 in
  let failures =
    List.filter_map
      (fun (i, pseed, verdict) ->
        match verdict with
        | Diff.Pass { instret } ->
          incr passed;
          instructions := !instructions + instret;
          None
        | Diff.Skip reason ->
          skips := (i, pseed, reason) :: !skips;
          None
        | Diff.Fail divs ->
          let program = Gen.generate ~max_insns ~seed:pseed () in
          Some
            (process_failure ~geoms ~fuel ~shrink ~out_dir ~index:i
               ~seed:pseed program divs))
      verdicts
  in
  {
    s_count = count;
    s_passed = !passed;
    s_skips = List.rev !skips;
    s_instructions = !instructions;
    s_failures = failures;
  }

let run_campaign ?(jobs = 1) ?(geoms = `All) ?(max_insns = Gen.default_max_insns)
    ?(shrink = true) ?out_dir ~seed ~count () =
  let verdicts =
    Dts_parallel.Pool.with_pool ~jobs (fun pool ->
        Dts_parallel.Pool.map pool
          (item ~geoms ~max_insns ~seed)
          (List.init count Fun.id))
  in
  summarize ~geoms ~max_insns ~shrink ?out_dir ~count verdicts

(** Replay a reproducer file on the full roster. *)
let replay ?(geoms = `All) path =
  let program = Repro.load path in
  Diff.run ~geoms ~fuel:5_000_000 program
