(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation and runs the structured benchmark suite (host-side cost of
   this implementation, from the core data structures up to fleet scale),
   whose BENCH_*.json reports the CI perf-regression gate compares against
   bench/baseline.json.

   Usage:
     bench/main.exe                 run everything (full fidelity)
     bench/main.exe --quick         shorter simulations
     bench/main.exe table4 fig9 ... run selected experiments
     bench/main.exe --jobs=N        run sweep points on an N-domain pool
                                    (reports stay byte-identical to -j 1)
     bench/main.exe --json-out=D    run the structured suite (every
                                    Benchmarks experiment) and write
                                    D/BENCH_<experiment>.json
     bench/main.exe --selftest-par  assert the pool is deterministic and
                                    measurably faster (CI bench smoke)
     bench/main.exe --metrics-dir=D dump each figure point's machine
                                    counters as D/<point>.prom

   Flags take their value as --flag V or --flag=V. Unknown experiment names
   list the valid ones and exit 2. Timing chatter goes to stderr so stdout
   is diffable across --jobs values. *)

open Cmdliner

let section title =
  let bar = String.make 74 '=' in
  Printf.printf "\n%s\n== %s\n%s\n%!" bar title bar

(* Run one structured-suite experiment: print its table and, when
   --json-out is set, write its BENCH_<name>.json. *)
let run_suite ~quick ~json_out name =
  section (Printf.sprintf "bench suite: %s" name);
  let doc = Jord_exp.Benchmarks.run ~quick name in
  print_string (Jord_exp.Benchmarks.render doc);
  Option.iter
    (fun dir -> Printf.eprintf "wrote %s\n%!" (Jord_util.Bench_json.write_dir ~dir doc))
    json_out

let known = Jord_exp.Experiments.names @ Jord_exp.Benchmarks.names

let main quick seeds metrics_dir json_out jobs selftest_par names =
  Jord_exp.Exp_common.set_jobs jobs;
  if selftest_par then begin
    match Jord_exp.Benchmarks.par_selftest ~quick () with
    | Ok summary ->
        print_endline summary;
        exit 0
    | Error msg ->
        prerr_endline msg;
        exit 1
  end;
  Option.iter
    (fun dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      Jord_exp.Exp_common.metrics_sink :=
        Some
          (fun ~name reg ->
            Jord_telemetry.Export.write_file
              ~path:(Filename.concat dir (name ^ ".prom"))
              (Jord_telemetry.Export.to_prometheus reg)))
    metrics_dir;
  let selected =
    if names <> [] then names
    else if json_out <> None then
      (* --json-out with no names: just the structured suite, which is what
         the CI perf-regression job consumes. *)
      Jord_exp.Benchmarks.names
    else known
  in
  let t0 = Jord_util.Clock.now_ns () in
  List.iter
    (fun name ->
      match Jord_exp.Experiments.find name with
      | Some e ->
          section e.title;
          print_string (e.report ~quick ~seeds)
      | None -> run_suite ~quick ~json_out name)
    selected;
  Printf.eprintf "\n[bench completed in %.1f s]\n" (Jord_util.Clock.since_s t0)

let () =
  let experiment =
    Arg.conv'
      ( (fun s ->
          if List.mem s known then Ok s
          else
            Error
              (Printf.sprintf "unknown experiment %S; valid experiments: %s" s
                 (String.concat ", " known))),
        Format.pp_print_string )
  in
  let jobs =
    Arg.conv'
      ( (fun s ->
          match int_of_string_opt s with
          | Some n when n >= 1 -> Ok n
          | _ -> Error "must be an integer >= 1"),
        Format.pp_print_int )
  in
  let term =
    Term.(
      const main
      $ Arg.(value & flag & info [ "q"; "quick" ] ~doc:"Shorter simulations.")
      $ Arg.(value & opt int 1
             & info [ "seeds" ] ~docv:"N"
                 ~doc:"Independent seeds per figure-9 point (median p99, mean throughput).")
      $ Arg.(value & opt (some string) None
             & info [ "metrics-dir" ] ~docv:"DIR"
                 ~doc:"Dump each figure point's machine counters as DIR/<point>.prom.")
      $ Arg.(value & opt (some string) None
             & info [ "json-out" ] ~docv:"DIR"
                 ~doc:"Write each structured-suite experiment as \
                       DIR/BENCH_<experiment>.json; alone, runs just that suite.")
      $ Arg.(value & opt jobs 1
             & info [ "j"; "jobs" ] ~docv:"N"
                 ~doc:"Run sweep points on an N-domain pool (reports stay byte-identical).")
      $ Arg.(value & flag
             & info [ "selftest-par" ]
                 ~doc:"Assert the domain pool is deterministic and measurably faster.")
      $ Arg.(value & pos_all experiment []
             & info [] ~docv:"EXPERIMENT" ~doc:"Experiments to run (default: all)."))
  in
  let info = Cmd.info "main.exe" ~doc:"Regenerate the paper's evaluation and run the benchmarks" in
  (* Command-line errors exit 2, like an unknown experiment always has. *)
  exit (match Cmd.eval (Cmd.v info term) with 124 -> 2 | code -> code)
