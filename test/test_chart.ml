(* Tests for the terminal chart renderer. *)

module Chart = Nest_experiments.Chart

let qtest = QCheck_alcotest.to_alcotest

let contains hay needle =
  let hl = String.length hay and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let test_basic_render () =
  let out =
    Chart.plot ~title:"demo" ~y_label:"Mbps" ~x_labels:[ "64"; "256"; "1024" ]
      ~series:[ ("a", [ 1.0; 2.0; 3.0 ]); ("b", [ 3.0; 2.0; 1.0 ]) ]
  in
  Alcotest.(check bool) "title" true (contains out "demo");
  Alcotest.(check bool) "legend a" true (contains out "*=a");
  Alcotest.(check bool) "legend b" true (contains out "+=b");
  Alcotest.(check bool) "x labels" true
    (contains out "64" && contains out "1024");
  Alcotest.(check bool) "y max label" true (contains out "3.00");
  Alcotest.(check bool) "markers drawn" true
    (contains out "*" && contains out "+")

let test_single_point () =
  let out =
    Chart.plot ~title:"one" ~y_label:"v" ~x_labels:[ "x" ]
      ~series:[ ("s", [ 42.0 ]) ]
  in
  Alcotest.(check bool) "renders" true (contains out "42.0")

let test_empty_rejected () =
  Alcotest.check_raises "no labels" (Invalid_argument "Chart.plot: empty input")
    (fun () ->
      ignore (Chart.plot ~title:"t" ~y_label:"y" ~x_labels:[] ~series:[ ("s", [ 1. ]) ]));
  Alcotest.check_raises "no data" (Invalid_argument "Chart.plot: no data")
    (fun () ->
      ignore (Chart.plot ~title:"t" ~y_label:"y" ~x_labels:[ "a" ] ~series:[ ("s", []) ]))

(* The plot area is 12 rows high. *)
let test_dimensions =
  QCheck.Test.make ~name:"rendered block has the requested height" ~count:50
    QCheck.(list_of_size (Gen.int_range 1 10) (float_range 0. 100.))
    (fun values ->
      let labels = List.mapi (fun i _ -> string_of_int i) values in
      let out =
        Chart.plot ~title:"t" ~y_label:"y" ~x_labels:labels
          ~series:[ ("s", values) ]
      in
      let lines = String.split_on_char '\n' out in
      (* title + 12 rows + axis + xlabels + legend + trailing *)
      List.length lines = 12 + 5)

let test_values_in_range =
  QCheck.Test.make ~name:"no marker outside the plot grid" ~count:50
    QCheck.(list_of_size (Gen.int_range 1 12) (float_range (-50.) 50.))
    (fun values ->
      let labels = List.mapi (fun i _ -> string_of_int i) values in
      let out =
        Chart.plot ~title:"t" ~y_label:"y" ~x_labels:labels
          ~series:[ ("s", values) ]
      in
      (* every grid row is exactly 12 (label) + 1 (bar) + 72 wide *)
      String.split_on_char '\n' out
      |> List.for_all (fun l -> String.length l <= 88))

let () =
  Alcotest.run "chart"
    [ ( "render",
        [ Alcotest.test_case "basic" `Quick test_basic_render;
          Alcotest.test_case "single point" `Quick test_single_point;
          Alcotest.test_case "empty rejected" `Quick test_empty_rejected;
          qtest test_dimensions;
          qtest test_values_in_range ] ) ]
