(* Smoke tests for the experiment harness: every registered experiment must
   render a non-empty table at a tiny budget, mentioning every workload.
   These are the regression net for the reproduction harness itself. *)

let check_bool = Alcotest.(check bool)

let contains hay needle =
  let hl = String.length hay and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let budget = 4_000

let renders name =
  let fig = Dts_experiments.Experiments.run ~scale:1 ~budget name in
  let out = fig.Dts_experiments.Experiments.render () in
  check_bool (name ^ " non-empty") true (String.length out > 100);
  check_bool (name ^ " lists workloads") true
    (List.for_all
       (fun (w : Dts_workloads.Workloads.t) -> contains out w.name)
       Dts_workloads.Workloads.all);
  check_bool (name ^ " names itself") true
    (fig.Dts_experiments.Experiments.name = name);
  (* structured tables carry the same cells the rendering prints: every
     header and every first-column label must appear in the text *)
  check_bool (name ^ " tables non-empty") true
    (fig.Dts_experiments.Experiments.tables <> []);
  List.iter
    (fun (title, rows) ->
      check_bool (name ^ " title rendered") true (contains out title);
      List.iter
        (fun row ->
          match row with
          | cell :: _ -> check_bool (name ^ " cell rendered") true (contains out cell)
          | [] -> ())
        rows)
    fig.Dts_experiments.Experiments.tables

let test_run_record () =
  let r =
    Dts_experiments.Experiments.run_dtsvliw ~budget
      (Dts_core.Config.ideal ()) "compress"
  in
  check_bool "instructions counted" true (r.instructions >= budget);
  check_bool "ipc positive" true (r.ipc > 0.1);
  check_bool "cycles consistent" true
    (abs_float (r.ipc -. (float_of_int r.instructions /. float_of_int r.stats.cycles))
    < 1e-9);
  let vliw_fraction = Dts_obs.Stats.vliw_cycle_fraction r.stats in
  check_bool "vliw fraction in range" true
    (vliw_fraction >= 0. && vliw_fraction <= 1.)

let test_dif_run_record () =
  let r, dif =
    Dts_experiments.Experiments.run_dif ~budget
      (Dts_dif.Dif.fig9_machine_cfg ())
      "compress"
  in
  check_bool "progressed" true (r.instructions >= budget);
  check_bool "dif blocks" true (dif.blocks_built > 0);
  check_bool "dif cache bytes accounted" true (dif.cache_bytes > 0)

let test_fig8_components_nonnegative_sum () =
  (* the stacked decomposition must add back up to the ideal IPC *)
  let out =
    (Dts_experiments.Experiments.run ~scale:1 ~budget "fig8")
      .Dts_experiments.Experiments.render ()
  in
  check_bool "has ILP column" true (contains out "ILP")

let test_bad_args_rejected () =
  let expect_invalid label f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" label
  in
  expect_invalid "scale 0" (fun () ->
      Dts_experiments.Experiments.run_dtsvliw ~scale:0
        (Dts_core.Config.ideal ()) "compress");
  expect_invalid "budget negative" (fun () ->
      Dts_experiments.Experiments.run_dtsvliw ~budget:(-1)
        (Dts_core.Config.ideal ()) "compress");
  expect_invalid "dif budget 0" (fun () ->
      Dts_experiments.Experiments.run_dif ~budget:0
        (Dts_dif.Dif.fig9_machine_cfg ())
        "compress")

(* Split evaluation: each descriptor of a figure's plan evaluated on its
   own, last first, then the figure rebuilt from the runs, renders exactly
   what [run] does. The benchmark times figures this way. *)
let test_plan_assemble () =
  let module E = Dts_experiments.Experiments in
  List.iter
    (fun name ->
      let direct = E.run ~scale:1 ~budget:400 name in
      let runs =
        List.rev_map (E.eval_descriptor ~scale:1 ~budget:400)
          (List.rev (E.plan name))
      in
      Alcotest.(check string)
        (name ^ " reassembles exactly")
        (direct.E.render ()) ((E.assemble name runs).E.render ()))
    [ "table2"; "fig6"; "fig9" ]

let suite =
  List.map
    (fun name -> Alcotest.test_case ("renders: " ^ name) `Quick (fun () -> renders name))
    [ "table2"; "fig6"; "fig9"; "ablation"; "extensions"; "table3" ]
  @ [
      Alcotest.test_case "run record" `Quick test_run_record;
      Alcotest.test_case "dif run record" `Quick test_dif_run_record;
      Alcotest.test_case "fig8 renders" `Quick test_fig8_components_nonnegative_sum;
      Alcotest.test_case "bad args rejected" `Quick test_bad_args_rejected;
      Alcotest.test_case "plan and assemble reproduce the figure" `Quick
        test_plan_assemble;
    ]
