(* Perf-regression comparator: check a directory of BENCH_*.json reports
   (bench/main.exe --json-out DIR, or jordctl bench --json-out DIR) against
   the checked-in baseline.

     compare.exe --baseline bench/baseline.json --dir bench-out
     compare.exe --dir bench-out --write-baseline bench/baseline.json

   Gate semantics (see Jord_util.Bench_json): deterministic "count" metrics
   out of tolerance are hard failures (exit 1); host wall-clock "time"
   metrics are advisory only. A baseline experiment with no report in the
   directory is a hard failure too, and so is a count metric or a whole
   report that the baseline does not hold.

   --write-baseline refreshes the baseline from the reports in --dir —
   check the diff in and say why the numbers moved. *)

module B = Jord_util.Bench_json

let usage () =
  prerr_endline
    "usage: compare.exe --dir DIR (--baseline FILE [--tolerance T] | \
     --write-baseline FILE [--tolerance T])";
  exit 2

let () =
  let dir = ref None
  and baseline = ref None
  and write_baseline = ref None
  and tolerance = ref 0.2 in
  let rec parse = function
    | [] -> ()
    | "--dir" :: v :: rest ->
        dir := Some v;
        parse rest
    | "--baseline" :: v :: rest ->
        baseline := Some v;
        parse rest
    | "--write-baseline" :: v :: rest ->
        write_baseline := Some v;
        parse rest
    | "--tolerance" :: v :: rest -> (
        match float_of_string_opt v with
        | Some t when t >= 0.0 ->
            tolerance := t;
            parse rest
        | Some _ | None -> usage ())
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let dir = match !dir with Some d -> d | None -> usage () in
  let read_doc path =
    match B.read_file path with
    | Ok doc -> doc
    | Error msg ->
        Printf.eprintf "compare: %s: %s\n" path msg;
        exit 2
  in
  let docs_in_dir () =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.filter (fun f ->
           String.length f > 6
           && String.sub f 0 6 = "BENCH_"
           && Filename.check_suffix f ".json")
    |> List.map (fun f -> read_doc (Filename.concat dir f))
  in
  match (!baseline, !write_baseline) with
  | None, None | Some _, Some _ -> usage ()
  | None, Some out ->
      let b = { B.default_tolerance = !tolerance; experiments = docs_in_dir () } in
      if b.B.experiments = [] then begin
        Printf.eprintf "compare: no BENCH_*.json reports in %s\n" dir;
        exit 2
      end;
      let oc = open_out out in
      output_string oc (B.baseline_to_string b);
      output_char oc '\n';
      close_out oc;
      Printf.printf "wrote %s (%d experiments, default tolerance %g)\n" out
        (List.length b.B.experiments) !tolerance
  | Some path, None -> (
      match B.read_baseline path with
      | Error msg ->
          Printf.eprintf "compare: %s: %s\n" path msg;
          exit 2
      | Ok b ->
          let verdicts = B.compare_baseline b (docs_in_dir ()) in
          print_string (B.render_verdicts verdicts);
          let advisories =
            List.length (List.filter (fun v -> v.B.v_status = B.Advisory) verdicts)
          in
          if advisories > 0 then
            Printf.printf
              "%d wall-clock metric(s) out of tolerance (advisory only)\n" advisories;
          if B.has_failure verdicts then begin
            prerr_endline
              "perf regression: deterministic metric(s) moved beyond tolerance, \
               missing, or not pinned by the baseline";
            exit 1
          end
          else print_endline "perf-regression gate: ok")
