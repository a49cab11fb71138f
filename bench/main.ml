(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation, runs Bechamel microbenchmarks of the core data structures
   (host-side wall-clock of this implementation), and emits the structured
   BENCH_*.json reports the CI perf-regression gate compares against
   bench/baseline.json.

   Usage:
     bench/main.exe                 run everything (full fidelity)
     bench/main.exe --quick         shorter simulations
     bench/main.exe table4 fig9 ... run selected experiments
     bench/main.exe micro           only the Bechamel microbenchmarks
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

(* --- Bechamel microbenchmarks: host-side cost of the core structures --- *)

let micro ~quick =
  section "Bechamel microbenchmarks (host wall-clock of the implementation)";
  let open Bechamel in
  let open Toolkit in
  let cfg = Jord_vm.Va.default_config in
  let mk_vte index =
    let sc = Jord_vm.Size_class.of_size 4096 in
    let base = Jord_vm.Va.encode cfg sc ~index ~offset:0 in
    Jord_vm.Vte.create ~base ~bytes:4096 ~phys:(0x100000 + (index * 4096)) ()
  in
  (* Pre-populated structures shared by the lookup benchmarks. *)
  let plain = Jord_vm.Vma_table.create cfg in
  let btree = Jord_vm.Vma_btree.create () in
  let fp = Jord_vm.Footprint.create () in
  for i = 0 to 999 do
    ignore (Jord_vm.Vma_table.insert plain (mk_vte i));
    Jord_vm.Vma_btree.insert btree fp (mk_vte i)
  done;
  let probe = Jord_vm.Vte.base (mk_vte 500) + 64 in
  let vlb = Jord_vm.Vlb.create ~entries:16 in
  for i = 0 to 15 do
    Jord_vm.Vlb.fill vlb ~vte_addr:i (mk_vte i)
  done;
  let memsys =
    Jord_arch.Memsys.create (Jord_arch.Topology.create Jord_arch.Config.default)
  in
  let priv =
    let m = Jord_arch.Memsys.create (Jord_arch.Topology.create Jord_arch.Config.default) in
    let hw =
      Jord_vm.Hw.create ~memsys:m ~store:(Jord_vm.Vma_store.plain cfg) ~va_cfg:cfg ()
    in
    Jord_privlib.Privlib.create ~hw ~os:(Jord_privlib.Os_facade.create ())
  in
  let counter = ref 0 in
  (* Telemetry hot-path instruments: these bound the overhead an owned
     counter/histogram adds when updated from simulation code (pull
     collectors add literally nothing until snapshot). *)
  let reg = Jord_telemetry.Registry.create () in
  let tel_counter = Jord_telemetry.Registry.counter reg "bench_ctr_total" in
  let tel_hist = Jord_telemetry.Registry.histogram reg "bench_hist_ns" in
  let tests =
    [
      Test.make ~name:"telemetry counter inc"
        (Staged.stage (fun () -> Jord_telemetry.Registry.Counter.inc tel_counter));
      Test.make ~name:"telemetry histogram observe"
        (Staged.stage (fun () ->
             Jord_telemetry.Registry.Hist.observe tel_hist 1234.5));
      Test.make ~name:"plain-list lookup"
        (Staged.stage (fun () -> ignore (Jord_vm.Vma_table.lookup plain ~va:probe)));
      Test.make ~name:"b-tree lookup"
        (Staged.stage (fun () -> ignore (Jord_vm.Vma_btree.lookup btree fp ~va:probe)));
      Test.make ~name:"vlb lookup"
        (Staged.stage (fun () ->
             ignore (Jord_vm.Vlb.lookup vlb ~va:(Jord_vm.Vte.base (mk_vte 7) + 5))));
      Test.make ~name:"memsys read (hit)"
        (Staged.stage (fun () -> ignore (Jord_arch.Memsys.read memsys ~core:0 ~addr:0x4000)));
      Test.make ~name:"privlib mmap+munmap"
        (Staged.stage (fun () ->
             let va, _ =
               Jord_privlib.Privlib.mmap priv ~core:0 ~bytes:4096 ~perm:Jord_vm.Perm.rw ()
             in
             ignore (Jord_privlib.Privlib.munmap priv ~core:0 ~va)));
      Test.make ~name:"privlib cget+cput"
        (Staged.stage (fun () ->
             let pd, _ = Jord_privlib.Privlib.cget priv ~core:0 in
             ignore (Jord_privlib.Privlib.cput priv ~core:0 ~pd)));
      Test.make ~name:"event queue push+pop x16"
        (Staged.stage (fun () ->
             let q = Jord_sim.Event_queue.create () in
             incr counter;
             for i = 0 to 15 do
               ignore
                 (Jord_sim.Event_queue.push q ~time:((!counter + i) mod 97) i
                   : Jord_sim.Event_queue.handle)
             done;
             while Jord_sim.Event_queue.pop q <> None do
               ()
             done));
    ]
  in
  let benchmark test =
    let quota = Time.second (if quick then 0.2 else 0.5) in
    Benchmark.all
      (Benchmark.cfg ~limit:2000 ~quota ~kde:(Some 1000) ())
      Instance.[ monotonic_clock ]
      test
  in
  let analyze results =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |])
      Instance.monotonic_clock results
  in
  List.iter
    (fun test ->
      let results = analyze (benchmark (Test.make_grouped ~name:"g" [ test ])) in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> Printf.printf "%-32s %10.1f ns/op\n%!" name est
          | Some _ | None -> Printf.printf "%-32s (no estimate)\n%!" name)
        results)
    tests

(* Run one structured-suite experiment: print its table and, when
   --json-out is set, write its BENCH_<name>.json. *)
let run_suite ~quick ~json_out name =
  section (Printf.sprintf "bench suite: %s" name);
  match Jord_exp.Benchmarks.run_one ~quick name with
  | Error msg -> invalid_arg msg
  | Ok doc ->
      print_string (Jord_exp.Benchmarks.render doc);
      Option.iter
        (fun dir ->
          let path = Jord_util.Bench_json.write_dir ~dir doc in
          Printf.eprintf "wrote %s\n%!" path)
        json_out

let known = Jord_exp.Experiments.names @ [ "micro" ] @ Jord_exp.Benchmarks.names

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
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun name ->
      match Jord_exp.Experiments.find name with
      | Some e ->
          section e.title;
          print_string (e.report ~quick ~seeds)
      | None -> if name = "micro" then micro ~quick else run_suite ~quick ~json_out name)
    selected;
  Printf.eprintf "\n[bench completed in %.1f s]\n" (Unix.gettimeofday () -. t0)

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
