open Jord_util

let test_table_alignment () =
  let out =
    Render.table ~title:"T" ~header:[ "a"; "bbbb" ]
      ~rows:[ [ "xxxxx"; "y" ]; [ "z" ] ] ()
  in
  let lines = String.split_on_char '\n' out in
  (match lines with
  | title :: header :: sep :: r1 :: r2 :: _ ->
      Alcotest.(check string) "title" "T" title;
      Alcotest.(check int) "rows align with header" (String.length header)
        (String.length r1);
      Alcotest.(check int) "short row padded" (String.length r1) (String.length r2);
      Alcotest.(check bool) "separator dashes" true (String.contains sep '-')
  | _ -> Alcotest.fail "unexpected shape");
  Alcotest.(check bool) "contains data" true
    (String.length out > 0 && String.index_opt out 'x' <> None)

let test_series_union () =
  let out =
    Render.series ~title:"S" ~x_label:"x" ~y_label:"y"
      [ ("a", [ (1.0, 10.0); (2.0, 20.0) ]); ("b", [ (2.0, 7.0); (3.0, 8.0) ]) ]
  in
  (* x = 1, 2, 3 rows; missing points are "-". *)
  let lines = String.split_on_char '\n' out in
  Alcotest.(check int) "title+header+sep+3 rows (+trailing)" 7 (List.length lines);
  Alcotest.(check bool) "missing marker present" true
    (List.exists (fun l -> String.length l > 0 && String.contains l '-') lines)

let test_float_formats () =
  Alcotest.(check string) "f1" "3.1" (Render.f1 3.14159);
  Alcotest.(check string) "f2" "3.14" (Render.f2 3.14159);
  Alcotest.(check string) "f3" "3.142" (Render.f3 3.14159)

let test_shortest () =
  List.iter
    (fun (v, want) -> Alcotest.(check string) want want (Render.shortest v))
    [
      (0.5, "0.5"); (250.0, "250"); (1e-05, "1e-05"); (0.9999999, "0.9999999");
      (1e6, "1e6"); (1234567.0, "1234567"); (1e308, "1e308"); (-2.5e300, "-2.5e300");
      (0.1 +. 0.2, "0.30000000000000004"); (Float.nan, "nan"); (Float.infinity, "inf");
    ]

(* Every finite float reads back exactly, and wherever %g is already exact
   below 1e6 the text is %g's. *)
let prop_shortest =
  QCheck.Test.make ~name:"shortest reads back exactly and matches exact %g" ~count:2000
    QCheck.(
      oneof
        [
          float;
          map (fun k -> float_of_int k /. 1000.0) (int_bound 1_000_000);
          map Float.of_int int;
        ])
    (fun v ->
      let s = Render.shortest v in
      let g = Printf.sprintf "%g" v in
      (not (Float.is_finite v))
      || float_of_string s = v
         && (Float.abs v >= 1e6 || float_of_string g <> v || String.equal s g)
         && not (String.contains s '+'))

let suite =
  [
    Alcotest.test_case "table alignment" `Quick test_table_alignment;
    Alcotest.test_case "series union" `Quick test_series_union;
    Alcotest.test_case "float formats" `Quick test_float_formats;
    Alcotest.test_case "shortest round-trip floats" `Quick test_shortest;
    QCheck_alcotest.to_alcotest prop_shortest;
  ]
