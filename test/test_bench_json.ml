(* Bench_json: schema round trip and the perf-regression comparator the CI
   gate runs (count metrics hard-fail out of tolerance, time metrics are
   advisory, missing metrics fail). *)

module B = Jord_util.Bench_json

let doc_testable =
  Alcotest.testable
    (fun ppf d -> Format.pp_print_string ppf (B.to_string d))
    (fun a b -> B.to_string a = B.to_string b)

let sample_doc =
  {
    B.experiment = "engine";
    metrics =
      [
        B.metric ~name:"push_pop" ~unit_:"ns/op" [ 80.0; 82.0; 81.0; 90.0; 79.0 ];
        B.count ~tolerance:0.5 ~name:"minor_words" ~unit_:"words" 214.0;
        B.count ~name:"events" ~unit_:"events" 74994.0;
      ];
  }

let test_metric_summary () =
  let m = B.metric ~name:"t" ~unit_:"ns" [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  Alcotest.(check (float 1e-9)) "median" 3.0 m.B.value;
  Alcotest.(check (float 1e-9)) "iqr = p75 - p25" 2.0 m.B.iqr;
  Alcotest.(check int) "repetitions" 5 m.B.repetitions;
  Alcotest.check_raises "empty samples rejected"
    (Invalid_argument "Bench_json.metric: empty samples") (fun () ->
      ignore (B.metric ~name:"t" ~unit_:"ns" []))

let test_round_trip () =
  match B.of_string (B.to_string sample_doc) with
  | Error m -> Alcotest.failf "parse failed: %s" m
  | Ok parsed ->
      Alcotest.(check string) "experiment" "engine" parsed.B.experiment;
      Alcotest.(check int) "metric count" 3 (List.length parsed.B.metrics);
      let m = List.hd parsed.B.metrics in
      Alcotest.(check bool) "kind survives" true (m.B.kind = B.Time);
      let c = List.nth parsed.B.metrics 1 in
      Alcotest.(check bool) "tolerance survives" true (c.B.tolerance = Some 0.5)

let test_parse_errors () =
  (match B.of_string "{\"experiment\":\"x\"}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing metrics accepted");
  (match B.of_string "not json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage accepted");
  match B.of_string "{\"experiment\":\"x\",\"metrics\":[{\"name\":\"m\"}]}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "incomplete metric accepted"

let test_baseline_round_trip () =
  let b = { B.default_tolerance = 0.25; experiments = [ sample_doc ] } in
  match B.baseline_of_string (B.baseline_to_string b) with
  | Error m -> Alcotest.failf "baseline parse failed: %s" m
  | Ok parsed ->
      Alcotest.(check (float 1e-9)) "tolerance" 0.25 parsed.B.default_tolerance;
      Alcotest.(check (list doc_testable)) "experiments" [ sample_doc ]
        parsed.B.experiments

let with_current f =
  let current =
    {
      B.experiment = "engine";
      metrics =
        [
          B.metric ~name:"push_pop" ~unit_:"ns/op" [ 81.0 ];
          B.count ~tolerance:0.5 ~name:"minor_words" ~unit_:"words" 214.0;
          B.count ~name:"events" ~unit_:"events" 74994.0;
        ];
    }
  in
  f current

let find_verdict name verdicts =
  List.find (fun v -> v.B.v_metric = name) verdicts

let test_comparator_within_tolerance () =
  with_current (fun current ->
      let verdicts = B.compare_docs ~baseline:sample_doc ~current () in
      Alcotest.(check int) "one verdict per baseline metric" 3 (List.length verdicts);
      Alcotest.(check bool) "no failure" false (B.has_failure verdicts);
      List.iter
        (fun v -> Alcotest.(check bool) (v.B.v_metric ^ " ok") true (v.B.v_status = B.Ok_within))
        verdicts)

let test_comparator_count_regression_fails () =
  with_current (fun current ->
      (* events is a deterministic count with the default tolerance (20%):
         a 30% jump must hard-fail the gate. *)
      let current =
        {
          current with
          B.metrics =
            List.map
              (fun m ->
                if m.B.name = "events" then
                  B.count ~name:"events" ~unit_:"events" (74994.0 *. 1.3)
                else m)
              current.B.metrics;
        }
      in
      let verdicts = B.compare_docs ~baseline:sample_doc ~current () in
      Alcotest.(check bool) "gate fails" true (B.has_failure verdicts);
      let v = find_verdict "events" verdicts in
      Alcotest.(check bool) "count regression = Fail" true (v.B.v_status = B.Fail);
      Alcotest.(check (float 1e-6)) "deviation" 0.3 v.B.v_deviation)

let test_comparator_time_regression_advisory () =
  with_current (fun current ->
      (* A 10x wall-clock blowup is advisory: time metrics never fail. *)
      let current =
        {
          current with
          B.metrics =
            List.map
              (fun m ->
                if m.B.name = "push_pop" then
                  B.metric ~name:"push_pop" ~unit_:"ns/op" [ 810.0 ]
                else m)
              current.B.metrics;
        }
      in
      let verdicts = B.compare_docs ~baseline:sample_doc ~current () in
      let v = find_verdict "push_pop" verdicts in
      Alcotest.(check bool) "time regression = Advisory" true (v.B.v_status = B.Advisory);
      Alcotest.(check bool) "advisory does not fail the gate" false
        (B.has_failure verdicts))

let test_comparator_per_metric_tolerance () =
  with_current (fun current ->
      (* minor_words carries its own 50% tolerance: +40% passes where the
         20% default would have failed. *)
      let current =
        {
          current with
          B.metrics =
            List.map
              (fun m ->
                if m.B.name = "minor_words" then
                  B.count ~tolerance:0.5 ~name:"minor_words" ~unit_:"words" 300.0
                else m)
              current.B.metrics;
        }
      in
      let verdicts = B.compare_docs ~baseline:sample_doc ~current () in
      let v = find_verdict "minor_words" verdicts in
      Alcotest.(check bool) "within per-metric tolerance" true
        (v.B.v_status = B.Ok_within))

let test_comparator_missing_metric_fails () =
  with_current (fun current ->
      let current =
        {
          current with
          B.metrics = List.filter (fun m -> m.B.name <> "events") current.B.metrics;
        }
      in
      let verdicts = B.compare_docs ~baseline:sample_doc ~current () in
      let v = find_verdict "events" verdicts in
      Alcotest.(check bool) "missing = Missing" true (v.B.v_status = B.Missing);
      Alcotest.(check bool) "missing fails the gate" true (B.has_failure verdicts));
  (* The reverse: a count the baseline does not hold is an unset gate, and
     fails; a new time metric is advisory anyway, so it passes. *)
  with_current (fun current ->
      let extra m = { current with B.metrics = current.B.metrics @ [ m ] } in
      let verdicts =
        B.compare_docs ~baseline:sample_doc
          ~current:(extra (B.count ~name:"new_gate" ~unit_:"events" 1.0)) ()
      in
      let v = find_verdict "new_gate" verdicts in
      Alcotest.(check bool) "unpinned = Unpinned" true (v.B.v_status = B.Unpinned);
      Alcotest.(check bool) "unpinned count fails the gate" true (B.has_failure verdicts);
      let verdicts =
        B.compare_docs ~baseline:sample_doc
          ~current:(extra (B.metric ~name:"new_time" ~unit_:"ns" [ 1.0 ])) ()
      in
      Alcotest.(check bool) "new time metric passes" false (B.has_failure verdicts);
      (* Whole reports, both ways. *)
      let b = { B.default_tolerance = 0.2; experiments = [ sample_doc ] } in
      let reports docs =
        let verdicts = B.compare_baseline b docs in
        ( B.has_failure verdicts,
          List.filter_map
            (fun v ->
              if v.B.v_metric = "<report>" then Some (v.B.v_experiment, v.B.v_status)
              else None)
            verdicts )
      in
      let other = { current with B.experiment = "other" } in
      Alcotest.(check bool) "held report passes" true (reports [ current ] = (false, []));
      Alcotest.(check bool) "unpinned report fails" true
        (reports [ current; other ] = (true, [ ("other", B.Unpinned) ]));
      Alcotest.(check bool) "missing report fails" true
        (reports [ other ] = (true, [ ("engine", B.Missing); ("other", B.Unpinned) ])))

let test_render_verdicts () =
  with_current (fun current ->
      let verdicts = B.compare_docs ~baseline:sample_doc ~current () in
      let s = B.render_verdicts verdicts in
      let contains sub =
        let n = String.length sub and len = String.length s in
        let rec at i = i + n <= len && (String.sub s i n = sub || at (i + 1)) in
        at 0
      in
      Alcotest.(check bool) "mentions experiment" true (contains "engine");
      Alcotest.(check bool) "mentions metric" true (contains "push_pop"))

let test_filename_and_write_dir () =
  Alcotest.(check string) "filename" "BENCH_engine.json" (B.filename "engine");
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "jord_bench_json_test" in
  let path = B.write_dir ~dir sample_doc in
  match B.read_file path with
  | Ok doc -> Alcotest.(check doc_testable) "file round trip" sample_doc doc
  | Error m -> Alcotest.failf "read_file: %s" m

let suite =
  [
    Alcotest.test_case "metric median/iqr" `Quick test_metric_summary;
    Alcotest.test_case "doc round trip" `Quick test_round_trip;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "baseline round trip" `Quick test_baseline_round_trip;
    Alcotest.test_case "comparator: within tolerance" `Quick
      test_comparator_within_tolerance;
    Alcotest.test_case "comparator: count regression fails" `Quick
      test_comparator_count_regression_fails;
    Alcotest.test_case "comparator: time regression advisory" `Quick
      test_comparator_time_regression_advisory;
    Alcotest.test_case "comparator: per-metric tolerance" `Quick
      test_comparator_per_metric_tolerance;
    Alcotest.test_case "comparator: missing metric fails" `Quick
      test_comparator_missing_metric_fails;
    Alcotest.test_case "comparator: render" `Quick test_render_verdicts;
    Alcotest.test_case "filename + write_dir" `Quick test_filename_and_write_dir;
  ]
