(* Report rendering tests. *)

let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let contains hay needle =
  let hl = String.length hay and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_table_alignment () =
  let out =
    Dts_report.Report.table ~headers:[ "name"; "x" ]
      [ [ "a"; "1" ]; [ "longer"; "22" ] ]
  in
  let lines = String.split_on_char '\n' out in
  (* header, rule, two rows, trailing empty *)
  Alcotest.(check int) "line count" 5 (List.length lines);
  (* all non-empty lines share a width *)
  let widths =
    List.filter_map
      (fun l -> if l = "" then None else Some (String.length l))
      lines
  in
  check_bool "uniform width" true
    (List.for_all (fun w -> w = List.hd widths) widths)

let test_table_title () =
  let out = Dts_report.Report.table ~title:"T" ~headers:[ "h" ] [ [ "v" ] ] in
  check_bool "title first" true (String.length out > 0 && out.[0] = 'T')

let test_csv () =
  check_str "csv"
    "a,b\n1,2\n"
    (Dts_report.Report.csv ~headers:[ "a"; "b" ] [ [ "1"; "2" ] ])

(* RFC 4180: commas, quotes and newlines must be quoted, quotes doubled *)
let test_csv_escaping () =
  check_str "adversarial cells"
    "label,\"a,b\"\n\"say \"\"hi\"\"\",\"line1\nline2\"\n\"\r\",plain\n"
    (Dts_report.Report.csv
       ~headers:[ "label"; "a,b" ]
       [ [ "say \"hi\""; "line1\nline2" ]; [ "\r"; "plain" ] ])

let test_series_table_ragged () =
  Alcotest.check_raises "ragged series raises with the label"
    (Invalid_argument
       "Report.series_table: series \"short\" has 1 values for 2 x values")
    (fun () ->
      ignore
        (Dts_report.Report.series_table ~x_label:"x" ~x_values:[ "a"; "b" ]
           [ ("ok", [ "1"; "2" ]); ("short", [ "1" ]) ]))

let test_series_table () =
  let out =
    Dts_report.Report.series_table ~x_label:"bench" ~x_values:[ "w1"; "w2" ]
      [ ("s1", [ "1.0"; "2.0" ]); ("s2", [ "3.0"; "4.0" ]) ]
  in
  check_bool "contains series" true (contains out "s1" && contains out "s2");
  check_bool "rows by x" true (contains out "w1" && contains out "w2")

let test_formatters () =
  check_str "f2" "1.23" (Dts_report.Report.f2 1.2345);
  check_str "f1" "1.2" (Dts_report.Report.f1 1.19);
  check_str "pct" "50.0%" (Dts_report.Report.pct 0.5)

let test_experiments_registry () =
  check_bool "all experiments registered" true
    (List.for_all
       (fun n -> List.mem n Dts_experiments.Experiments.names)
       [ "table1"; "table2"; "fig5a"; "fig5"; "fig6"; "fig7"; "fig8";
         "table3"; "fig9"; "ablation"; "all" ])

let test_static_tables_render () =
  let t1 = (Dts_experiments.Experiments.table1 ()).render () in
  let t2 = (Dts_experiments.Experiments.table2 ()).render () in
  check_bool "table1 mentions the pipeline" true (contains t1 "4-stage");
  check_bool "table2 lists all benchmarks" true
    (List.for_all (fun (w : Dts_workloads.Workloads.t) -> contains t2 w.name)
       Dts_workloads.Workloads.all)

let suite =
  [
    Alcotest.test_case "table alignment" `Quick test_table_alignment;
    Alcotest.test_case "table title" `Quick test_table_title;
    Alcotest.test_case "csv" `Quick test_csv;
    Alcotest.test_case "csv RFC 4180 escaping" `Quick test_csv_escaping;
    Alcotest.test_case "series table ragged input" `Quick
      test_series_table_ragged;
    Alcotest.test_case "series table" `Quick test_series_table;
    Alcotest.test_case "formatters" `Quick test_formatters;
    Alcotest.test_case "experiments registry" `Quick test_experiments_registry;
    Alcotest.test_case "static tables render" `Quick test_static_tables_render;
  ]
