(* CI validator for the simulator's machine-readable JSON surfaces.

   Default mode reads a stats JSON file produced by `dtsvliw_sim
   --stats-json`, checks that it parses, that the required sections and
   keys are present, and that the cycle-attribution invariant holds: the
   attribution categories sum to the machine cycle count (and the
   VLIW-side categories to the VLIW cycle count).

   `--alloc BASELINE FRESH` gates allocation: both files are documents
   written by `experiments --alloc-json` at the same budget (BASELINE is
   the committed bin/alloc_baseline.json), and any figure whose fresh
   minor-heap or major-heap words exceed the baseline's by more than 25%
   fails the check. Simulation is deterministic, so the allocation counts
   move by well under 1% between runs (with where collections fall) and
   the gate has no timing noise — it pins the sequential interpreter's
   allocation-free property, and the per-machine set-up that lands
   directly in the major heap (cache and memory arrays), against silent
   erosion.

   `--optgap` mode validates an `experiments optgap --optgap-json`
   document: one row per workload under both geometries, every row's
   certified oracle bounds internally consistent.

   Exits 1 with a diagnostic on any failure, an unreadable input file
   included — wired into `dune runtest` as a smoke test of the
   observability path. *)

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("stats_check: " ^ s); exit 1) fmt

let parse path =
  let text =
    try In_channel.with_open_text path In_channel.input_all
    with Sys_error msg ->
      (* an open error already names the file; a read error does not *)
      if String.starts_with ~prefix:(path ^ ": ") msg then
        fail "cannot read %s" msg
      else fail "cannot read %s: %s" path msg
  in
  try Dts_obs.Json.of_string text
  with Dts_obs.Json.Parse_error msg -> fail "%s does not parse: %s" path msg

let get ~path obj key =
  match Dts_obs.Json.member key obj with
  | Some v -> v
  | None -> fail "%s: missing key %S" path key

let int_of ~path obj key =
  match Dts_obs.Json.to_int (get ~path obj key) with
  | Some n -> n
  | None -> fail "%s: key %S is not an integer" path key

let str_of ~path obj key =
  match Dts_obs.Json.to_str (get ~path obj key) with
  | Some s -> s
  | None -> fail "%s: key %S is not a string" path key

let check_stats path =
  let doc = parse path in
  let get = get ~path and int_of = int_of ~path in
  let schema = int_of doc "schema_version" in
  if schema <> Dts_obs.Stats.schema_version then
    fail "schema_version %d, expected %d" schema Dts_obs.Stats.schema_version;
  let cycles = int_of doc "cycles" in
  let vliw_cycles = int_of doc "vliw_cycles" in
  ignore (int_of doc "instructions");
  List.iter
    (fun section -> ignore (get doc section))
    [ "attribution"; "machine"; "plan"; "engine"; "caches"; "trace" ];
  let attribution = get doc "attribution" in
  let attributed =
    List.fold_left
      (fun acc cat -> acc + int_of attribution (Dts_obs.Attribution.name cat))
      0 Dts_obs.Attribution.all
  in
  if attributed <> cycles then
    fail "attribution sums to %d but cycles = %d" attributed cycles;
  let attributed_vliw =
    List.fold_left
      (fun acc cat -> acc + int_of attribution (Dts_obs.Attribution.name cat))
      0 Dts_obs.Attribution.vliw_categories
  in
  if attributed_vliw <> vliw_cycles then
    fail "VLIW attribution sums to %d but vliw_cycles = %d" attributed_vliw
      vliw_cycles;
  Cli.print
    (Printf.sprintf "stats_check: %s ok (%d cycles fully attributed)\n" path
       cycles)

let alloc_slack = 1.25

(* An `experiments --alloc-json` document: its budget and each figure's
   (minor, major) heap words. *)
let read_alloc path =
  let doc = parse path in
  let get = get ~path and int_of = int_of ~path and str_of = str_of ~path in
  if int_of doc "alloc_schema_version" <> 1 then
    fail "%s: unsupported alloc_schema_version" path;
  let figures =
    match get doc "figures" with
    | Dts_obs.Json.List l -> l
    | _ -> fail "%s: \"figures\" is not an array" path
  in
  if figures = [] then fail "%s: no figures to gate" path;
  let words fig =
    let name = str_of fig "name" in
    let minor = int_of fig "minor_words" in
    let major = int_of fig "major_words" in
    if major < 0 || minor < 0 then
      fail "%s: figure %s: negative allocation count" path name;
    (name, (minor, major))
  in
  (int_of doc "budget", List.map words figures)

(* Gate FRESH against BASELINE: same budget required (allocation does not
   scale linearly with budget — fixed per-run costs dominate small
   budgets), and each fresh figure's minor and major words must each stay
   within [alloc_slack] of the baseline's. A count the baseline records as
   zero (table lookups that simulate nothing) is exempt. *)
let check_alloc base_path fresh_path =
  let base_budget, base_words = read_alloc base_path in
  let budget, fresh = read_alloc fresh_path in
  if budget <> base_budget then
    fail
      "%s: budget %d but baseline %s was recorded at %d — allocation counts \
       are only comparable at the same budget"
      fresh_path budget base_path base_budget;
  let gate name heap words base =
    if base > 0 then begin
      let limit = int_of_float (alloc_slack *. float_of_int base) in
      if words > limit then
        fail
          "figure %s allocates %d %s words, more than %.0f%% over the \
           committed baseline's %d (limit %d) — the simulator's allocation \
           win is eroding"
          name words heap
          ((alloc_slack -. 1.) *. 100.)
          base limit;
      Cli.print
        (Printf.sprintf
           "stats_check: figure %s %s words %d within %d baseline limit\n"
           name heap words limit)
    end
  in
  List.iter
    (fun (name, (minor, major)) ->
      match List.assoc_opt name base_words with
      | None ->
        fail "%s: figure %s not present in baseline %s" fresh_path name
          base_path
      | Some (base_minor, base_major) ->
        gate name "minor" minor base_minor;
        gate name "major" major base_major)
    fresh

(* --optgap: validate an `experiments optgap --optgap-json` document — one
   row per workload under each of the two geometries, each row's oracle
   numbers internally consistent: lower <= upper <= greedy lis, certified
   blocks within the block count, and a fully certified row pinned to
   lower = upper. *)
let check_optgap path =
  let doc = parse path in
  let get = get ~path and int_of = int_of ~path and str_of = str_of ~path in
  if int_of doc "optgap_schema_version" <> 1 then
    fail "%s: unsupported optgap_schema_version" path;
  if int_of doc "budget" <= 0 then fail "budget must be positive";
  if int_of doc "node_budget" <= 0 then fail "node_budget must be positive";
  let rows =
    match get doc "rows" with
    | Dts_obs.Json.List l -> l
    | _ -> fail "%s: \"rows\" is not an array" path
  in
  let workloads =
    List.map (fun (w : Dts_workloads.Workloads.t) -> w.name)
      Dts_workloads.Workloads.all
  in
  let expected =
    List.concat_map
      (fun geometry -> List.map (fun w -> (geometry, w)) workloads)
      [ "ideal"; "feasible" ]
  in
  if List.length rows <> List.length expected then
    fail "%s: %d rows, expected %d (every workload under both geometries)"
      path (List.length rows) (List.length expected);
  let certified_rows = ref 0 in
  List.iter2
    (fun (geometry, workload) row ->
      let where = Printf.sprintf "%s/%s" geometry workload in
      if str_of row "geometry" <> geometry then
        fail "%s: row %s: geometry %S out of order" path where
          (str_of row "geometry");
      if str_of row "workload" <> workload then
        fail "%s: row %s: workload %S out of order" path where
          (str_of row "workload");
      let blocks = int_of row "blocks" in
      let fcfs = int_of row "fcfs_lis" in
      let lower = int_of row "opt_lower" in
      let upper = int_of row "opt_upper" in
      let certified = int_of row "certified" in
      if blocks <= 0 then fail "%s: row %s: no blocks scheduled" path where;
      if not (0 < lower && lower <= upper && upper <= fcfs) then
        fail "%s: row %s: bounds %d <= %d <= %d violated" path where lower
          upper fcfs;
      if certified < 0 || certified > blocks then
        fail "%s: row %s: %d certified of %d blocks" path where certified
          blocks;
      if certified = blocks && lower <> upper then
        fail "%s: row %s: fully certified but lower %d <> upper %d" path
          where lower upper;
      if int_of row "search_nodes" < 0 then
        fail "%s: row %s: negative search-node count" path where;
      if certified = blocks then incr certified_rows)
    expected rows;
  Cli.print
    (Printf.sprintf "stats_check: %s ok (optgap: %d rows, %d fully certified)\n"
       path (List.length rows) !certified_rows)

let () =
  match Sys.argv with
  | [| _; path |] -> check_stats path
  | [| _; "--alloc"; base; fresh |] -> check_alloc base fresh
  | [| _; "--optgap"; path |] -> check_optgap path
  | _ ->
    fail
      "usage: stats_check FILE.json | --alloc BASELINE.json FRESH.json | \
       --optgap FILE.json"
