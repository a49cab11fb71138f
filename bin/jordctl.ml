(* jordctl — command-line driver for the Jord reproduction.

     jordctl list                      show workloads, variants, experiments
     jordctl run [options]            one simulation, summarized
     jordctl exp table4 fig9 ...      regenerate paper tables/figures *)

open Cmdliner

let workloads =
  [
    ("hipster", Jord_workloads.Hipster.app);
    ("hotel", Jord_workloads.Hotel.app);
    ("media", Jord_workloads.Media.app);
    ("social", Jord_workloads.Social.app);
  ]

let variants =
  [
    ("jord", Jord_faas.Variant.Jord);
    ("ni", Jord_faas.Variant.Jord_ni);
    ("bt", Jord_faas.Variant.Jord_bt);
    ("nightcore", Jord_faas.Variant.Nightcore);
  ]

let policies =
  [
    ("jbsq", Jord_faas.Policy.Jbsq);
    ("random", Jord_faas.Policy.Random);
    ("rr", Jord_faas.Policy.Round_robin);
  ]

let experiments =
  [ "table4"; "fig9"; "fig10"; "fig11"; "fig12"; "fig13"; "fig14"; "background"; "motivation"; "claims"; "ablation" ]

(* A float that must be strictly positive (sampling intervals). *)
let pos_float =
  let parse s =
    match float_of_string_opt s with
    | Some f when f > 0.0 -> Ok f
    | Some _ -> Error (`Msg "must be > 0")
    | None -> Error (`Msg (Printf.sprintf "invalid value %S, expected a float" s))
  in
  Arg.conv (parse, fun ppf f -> Format.fprintf ppf "%g" f)

(* An int that must be >= 1 (server and retry counts). *)
let pos_int =
  let parse s =
    match int_of_string_opt s with
    | Some i when i >= 1 -> Ok i
    | Some _ -> Error (`Msg "must be >= 1")
    | None -> Error (`Msg (Printf.sprintf "invalid value %S, expected an integer" s))
  in
  Arg.conv (parse, fun ppf i -> Format.fprintf ppf "%d" i)

(* A fault-plan spec: preset name, key=value list, or preset + overrides. *)
let fault_plan_conv =
  let parse s =
    match Jord_fault_inject.Plan.parse s with
    | Ok p -> Ok p
    | Error m -> Error (`Msg m)
  in
  Arg.conv
    (parse, fun ppf p -> Format.pp_print_string ppf (Jord_fault_inject.Plan.to_string p))

(* An SLO spec: preset name, inline objectives, or a spec file path. *)
let slo_conv =
  let parse s =
    match Jord_obsv.Slo.parse_arg s with
    | Ok objectives -> Ok objectives
    | Error m -> Error (`Msg m)
  in
  Arg.conv
    ( parse,
      fun ppf objectives ->
        Format.pp_print_string ppf
          (String.concat ";" (List.map Jord_obsv.Slo.to_string objectives)) )

(* --- fleet mode (--fleet N) ---

   The datacenter layer: a load-balanced fleet of request-granularity Jord
   servers under population traffic, optionally autoscaled. Kept apart from
   the single-machine/cluster paths: it has its own traffic model, its own
   registry and its own deterministic summary (byte-identical at any
   --shards count; only the trailing wall-clock line differs). *)

let fleet_usage_hint () =
  Printf.eprintf
    "hint: fleet mode is `jordctl run --fleet N [--lb %s] [--autoscale SPEC] \
     [--traffic SHAPE] [--shards S]` and excludes --servers and --fault-plan \
     (see `jordctl run --help`)\n"
    (String.concat "|" Jord_fleet.Lb.names)

let run_fleet ~fleet_n ~lb_spec ~autoscale_spec ~traffic_spec ~app ~rate
    ~duration ~shards ~net_one_way ~net_per_byte ~slo_spec ~slo_out ~trace_out
    ~metrics_out ~metrics_format () =
  let usage_fail fmt =
    Printf.ksprintf
      (fun m ->
        Printf.eprintf "jordctl run: %s\n" m;
        fleet_usage_hint ();
        exit 2)
      fmt
  in
  let policy =
    match lb_spec with
    | None -> Jord_fleet.Lb.Affinity
    | Some s -> (
        match Jord_fleet.Lb.parse s with
        | Ok p -> p
        | Error m -> usage_fail "bad --lb: %s" m)
  in
  let autoscale =
    match autoscale_spec with
    | None -> None
    | Some s -> (
        match Jord_fleet.Autoscaler.parse s with
        | Error m -> usage_fail "bad --autoscale: %s" m
        | Ok spec -> (
            match Jord_fleet.Autoscaler.resolve spec ~fleet:fleet_n with
            | Error m -> usage_fail "bad --autoscale: %s" m
            | Ok spec -> Some spec))
  in
  let shape =
    match traffic_spec with
    | None ->
        (* Bare fleet runs take the steady preset at the -r rate. *)
        { (List.assoc "steady" Jord_workloads.Traffic.presets) with
          Jord_workloads.Traffic.rate_mrps = rate }
    | Some s -> (
        match Jord_workloads.Traffic.parse s with
        | Ok shape -> shape
        | Error m -> usage_fail "bad --traffic: %s" m)
  in
  (* SLO verdicts are on by default at fleet scale (--slo none opts out). *)
  let objectives =
    match slo_spec with
    | Some objs -> objs
    | None -> (
        match Jord_obsv.Slo.parse_arg "default" with
        | Ok objs -> objs
        | Error m -> failwith m)
  in
  let cfg =
    {
      Jord_fleet.Fleet.default_config with
      Jord_fleet.Fleet.servers = fleet_n;
      policy;
      net = Jord_faas.Netmodel.create ~one_way_ns:net_one_way ~per_byte_ns:net_per_byte ();
      autoscale;
      shards;
    }
  in
  let t0 = Unix.gettimeofday () in
  let t =
    try Jord_fleet.Fleet.create cfg ~app
    with Invalid_argument m -> usage_fail "%s" m
  in
  let tracer =
    match trace_out with
    | None -> None
    | Some _ -> Some (Jord_obsv.Ftrace.create ())
  in
  Jord_fleet.Fleet.run ~slo:objectives ?tracer t ~shape ~duration_us:duration;
  print_string (Jord_fleet.Fleet.summary t);
  (match Jord_fleet.Fleet.rollup t with
  | None -> ()
  | Some r ->
      print_string (Jord_obsv.Rollup.report_text r);
      (match slo_out with
      | None -> ()
      | Some path ->
          (* CSV by extension (the Rollup per-window export), JSON otherwise. *)
          let body =
            if Filename.check_suffix path ".csv" then
              Jord_obsv.Rollup.report_csv r
            else Jord_obsv.Rollup.report_json r
          in
          let oc = open_out path in
          output_string oc body;
          close_out oc;
          Printf.printf "slo: report -> %s\n" path));
  (match (tracer, trace_out) with
  | Some tracer, Some path ->
      (* No shard count in the meta: the file is the byte-identity witness
         across --shards (jordctl reports shards on its wall-clock line). *)
      let meta =
        [
          ("app", Jord_util.Json.String app.Jord_faas.Model.app_name);
          ("servers", Jord_util.Json.Int fleet_n);
          ("end_ps", Jord_util.Json.Int (Jord_sim.Time.of_us (3.0 *. duration)));
        ]
      in
      Jord_obsv.Ftrace.save ~path ~meta tracer;
      Printf.printf "trace: %d spans retained of %d requests (%s) -> %s\n"
        (List.length (Jord_obsv.Ftrace.retained tracer))
        (Jord_obsv.Ftrace.offered tracer)
        (String.concat " "
           (List.map
              (fun (k, v) -> Printf.sprintf "%s=%d" k v)
              (Jord_obsv.Ftrace.keep_counts tracer)))
        path
  | _ -> ());
  (match metrics_out with
  | None -> ()
  | Some path ->
      let reg = Jord_fleet.Fleet.registry t in
      let fmt =
        match metrics_format with
        | Some `Prom -> Jord_telemetry.Export.Prometheus
        | Some `Jsonl -> Jord_telemetry.Export.Jsonl
        | Some `Csv -> Jord_telemetry.Export.Csv
        | None -> Jord_telemetry.Export.format_for_path path
      in
      Jord_telemetry.Export.write_file ~path (Jord_telemetry.Export.export fmt reg);
      Printf.printf "metrics: %d families -> %s\n"
        (Jord_telemetry.Registry.family_count reg)
        path);
  Printf.printf "[simulated %d events in %.1fs wall, shards=%d]\n"
    (Jord_fleet.Fleet.events_processed t)
    (Unix.gettimeofday () -. t0)
    shards

(* --- run --- *)

let run_cmd =
  let app_t =
    Arg.(value & opt (enum workloads) Jord_workloads.Hipster.app
         & info [ "a"; "app" ] ~docv:"APP" ~doc:"Workload: hipster, hotel, media or social.")
  in
  let variant =
    Arg.(value & opt (enum variants) Jord_faas.Variant.Jord
         & info [ "s"; "system" ] ~docv:"SYSTEM" ~doc:"System variant: jord, ni, bt or nightcore.")
  in
  let rate =
    Arg.(value & opt float 1.0
         & info [ "r"; "rate" ] ~docv:"MRPS" ~doc:"Offered load in million requests per second.")
  in
  let duration =
    Arg.(value & opt float 4000.0
         & info [ "d"; "duration" ] ~docv:"US" ~doc:"Arrival window in microseconds.")
  in
  let cores =
    Arg.(value & opt int 32 & info [ "cores" ] ~docv:"N" ~doc:"Total cores of the machine.")
  in
  let sockets =
    Arg.(value & opt int 1 & info [ "sockets" ] ~docv:"N" ~doc:"Socket count.")
  in
  let orchestrators =
    Arg.(value & opt int 4 & info [ "orchestrators" ] ~docv:"N" ~doc:"Orchestrator cores.")
  in
  let policy =
    Arg.(value & opt (enum policies) Jord_faas.Policy.Jbsq
         & info [ "policy" ] ~docv:"POLICY" ~doc:"Dispatch policy: jbsq, random or rr.")
  in
  let ivlb = Arg.(value & opt int 16 & info [ "ivlb" ] ~docv:"N" ~doc:"I-VLB entries.") in
  let dvlb = Arg.(value & opt int 16 & info [ "dvlb" ] ~docv:"N" ~doc:"D-VLB entries.") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed.") in
  let warmup =
    Arg.(value & opt int 500 & info [ "warmup" ] ~docv:"N" ~doc:"Requests discarded before measuring.")
  in
  let trace_file =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE" ~doc:"Write a Chrome trace-event JSON of the run (chrome://tracing, Perfetto).")
  in
  let trace_out =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE"
             ~doc:"Write the raw event trace as JSONL for offline analysis with \
                   $(b,jordctl trace) (exact integer-picosecond timestamps; works \
                   for clusters too).")
  in
  let metrics_out =
    Arg.(value & opt (some string) None
         & info [ "metrics-out" ] ~docv:"FILE"
             ~doc:"Dump the machine's metric registry (and sampled time series) after the run.")
  in
  let metrics_format =
    let fmt = Arg.enum [ ("prom", `Prom); ("jsonl", `Jsonl); ("csv", `Csv) ] in
    Arg.(value & opt (some fmt) None
         & info [ "metrics-format" ] ~docv:"FMT"
             ~doc:"Export format: prom, jsonl or csv (default: by FILE extension, else prom).")
  in
  let sample_us =
    Arg.(value & opt pos_float 40.0
         & info [ "sample-us" ] ~docv:"US"
             ~doc:"Simulated-time sampling interval for the gauge time series.")
  in
  let servers =
    Arg.(value & opt pos_int 1
         & info [ "servers" ] ~docv:"N"
             ~doc:"Worker servers; > 1 simulates a cluster sharing one timeline, with \
                   cross-server forwarding (paper 3.3).")
  in
  let forward_after =
    Arg.(value & opt pos_int 3
         & info [ "forward-after" ] ~docv:"N"
             ~doc:"Full-scan retries before an internal request is forwarded to a peer \
                   server (clusters only).")
  in
  (* --shards and the --net-* values are validated in the run body (not by
     an Arg.conv) so a bad value exits 2 with a usage hint instead of
     cmdliner's generic CLI-error status. *)
  let shards =
    Arg.(value & opt int 1
         & info [ "shards" ] ~docv:"N"
             ~doc:"Parallel engine shards for cluster runs: servers are partitioned \
                   over N engines advanced in lock-step epochs bounded by the wire \
                   latency (conservative parallel DES). Results are byte-identical \
                   at any shard count; 1 (the default) is the historical \
                   single-engine path.")
  in
  let net_one_way =
    Arg.(value & opt float 2500.0
         & info [ "net-one-way-ns" ] ~docv:"NS"
             ~doc:"Cross-server one-way wire latency (must be > 0: it also bounds \
                   the sharded mode's synchronization window).")
  in
  let net_per_byte =
    Arg.(value & opt float 0.05
         & info [ "net-per-byte-ns" ] ~docv:"NS"
             ~doc:"Cross-server serialization/copy cost per payload byte (>= 0).")
  in
  let fault_plan =
    Arg.(value & opt (some fault_plan_conv) None
         & info [ "fault-plan" ] ~docv:"SPEC"
             ~doc:"Inject deterministic faults: a preset (none, ci-smoke, mild, harsh), a \
                   key=value list (crash=0.01,loss=0.2,server-crash=0.005,seed=7), \
                   or a preset with overrides (ci-smoke,loss=0.5). Same seed and \
                   plan reproduce the same failures at any $(b,--shards) count.")
  in
  let deadline_us =
    Arg.(value & opt (some pos_float) None
         & info [ "deadline-us" ] ~docv:"US"
             ~doc:"Shed external requests still queued after US microseconds \
                   (counted and traced as timeouts; default: no deadline).")
  in
  let retry_base_us =
    Arg.(value & opt pos_float 0.2
         & info [ "retry-base-us" ] ~docv:"US"
             ~doc:"Base backoff for dispatch holds and transfer retries.")
  in
  let retry_cap =
    Arg.(value & opt int 0
         & info [ "retry-cap" ] ~docv:"N"
             ~doc:"Cap on backoff doublings (0 keeps the historical fixed beat).")
  in
  let retry_max =
    Arg.(value & opt pos_int 4
         & info [ "retry-max" ] ~docv:"N"
             ~doc:"Transfer attempts before a forwarded request is abandoned and \
                   re-executed locally (clusters under a fault plan only).")
  in
  let slo_spec =
    Arg.(value & opt (some slo_conv) None
         & info [ "slo" ] ~docv:"SPEC"
             ~doc:"Evaluate SLO objectives online during the run: a preset (none, \
                   default, tight, ci), inline objectives \
                   (p=99,threshold_us=25,window_us=250), or a spec file. Prints a \
                   verdict table and the burn-rate alert log after the summary; \
                   $(b,none) (or omitting the flag) leaves the run untouched.")
  in
  let slo_out =
    Arg.(value & opt (some string) None
         & info [ "slo-out" ] ~docv:"FILE"
             ~doc:"Write the online SLO report (objective snapshots plus the alert \
                   log) as JSON.")
  in
  let fleet_opt =
    Arg.(value & opt (some int) None
         & info [ "fleet" ] ~docv:"N"
             ~doc:"Fleet mode: a front-end load balancer over N request-granularity \
                   Jord servers under population traffic (see $(b,--lb), \
                   $(b,--autoscale), $(b,--traffic)). Mutually exclusive with \
                   --servers and --fault-plan; honors --shards, --rate, \
                   --duration, --slo and --metrics-out.")
  in
  let lb_opt =
    Arg.(value & opt (some string) None
         & info [ "lb" ] ~docv:"POLICY"
             ~doc:"Fleet balancing policy: rr (round robin), lo (least \
                   outstanding) or affinity (warm-route aware; the default). \
                   Requires $(b,--fleet).")
  in
  let autoscale_opt =
    Arg.(value & opt (some string) None
         & info [ "autoscale" ] ~docv:"SPEC"
             ~doc:"Autoscale the fleet: a preset (default, fast), a key=value \
                   list (min=4,max=64,interval-us=50,up=0.75,down=0.25,\
                   up-after=2,down-after=6,step=4,boot-us=250), or a preset \
                   with overrides. Requires $(b,--fleet); without it the whole \
                   fleet stays up.")
  in
  let traffic_opt =
    Arg.(value & opt (some string) None
         & info [ "traffic" ] ~docv:"SHAPE"
             ~doc:"Population traffic shape: a preset (steady, diurnal, flash, \
                   ci), a key=value list (users=1000000,zipf=1.1,rate=8,\
                   amp=0.5,period-us=2000,flash=800:300:3,seed=11), or a \
                   preset with overrides. Requires $(b,--fleet); default: \
                   steady at the --rate load.")
  in
  let run app variant rate duration cores sockets orchestrators policy ivlb dvlb seed warmup trace_file trace_out metrics_out metrics_format sample_us servers shards forward_after net_one_way net_per_byte fault_plan deadline_us retry_base_us retry_cap retry_max slo_spec slo_out fleet lb_spec autoscale_spec traffic_spec =
    let usage_fail fmt =
      Printf.ksprintf
        (fun m ->
          Printf.eprintf "jordctl run: %s\n" m;
          Printf.eprintf
            "hint: try `jordctl run --servers N --shards S` with S >= 1, \
             --net-one-way-ns > 0 and --net-per-byte-ns >= 0 (see `jordctl run \
             --help`)\n";
          exit 2)
        fmt
    in
    if shards < 1 then usage_fail "--shards must be >= 1 (got %d)" shards;
    if net_one_way <= 0.0 then
      usage_fail "--net-one-way-ns must be > 0 (got %g)" net_one_way;
    if net_per_byte < 0.0 then
      usage_fail "--net-per-byte-ns must be >= 0 (got %g)" net_per_byte;
    let fleet_usage_fail fmt =
      Printf.ksprintf
        (fun m ->
          Printf.eprintf "jordctl run: %s\n" m;
          fleet_usage_hint ();
          exit 2)
        fmt
    in
    (match fleet with
    | None ->
        if lb_spec <> None then fleet_usage_fail "--lb requires --fleet";
        if autoscale_spec <> None then
          fleet_usage_fail "--autoscale requires --fleet";
        if traffic_spec <> None then
          fleet_usage_fail "--traffic requires --fleet"
    | Some n ->
        if n < 1 then fleet_usage_fail "--fleet must be >= 1 (got %d)" n;
        if servers > 1 then
          fleet_usage_fail
            "--fleet and --servers contradict: the fleet layer owns the server \
             count (drop --servers)";
        if fault_plan <> None then
          fleet_usage_fail
            "--fault-plan is a cluster-mode feature (--servers N); fleet mode \
             does not take it";
        if trace_file <> None then
          fleet_usage_fail
            "--trace (live Chrome export) is not supported in fleet mode; use \
             --trace-out FILE and `jordctl trace export` instead");
    match fleet with
    | Some fleet_n ->
        run_fleet ~fleet_n ~lb_spec ~autoscale_spec ~traffic_spec ~app ~rate
          ~duration ~shards ~net_one_way ~net_per_byte ~slo_spec ~slo_out
          ~trace_out ~metrics_out ~metrics_format ()
    | None ->
    let machine =
      Jord_arch.Config.with_cores
        (Jord_arch.Config.with_sockets Jord_arch.Config.default sockets)
        cores
    in
    let config =
      {
        Jord_faas.Server.default_config with
        variant;
        machine;
        orchestrators;
        policy;
        i_vlb_entries = ivlb;
        d_vlb_entries = dvlb;
        seed;
        net = Jord_faas.Netmodel.create ~one_way_ns:net_one_way ~per_byte_ns:net_per_byte ();
        fault_plan;
        recovery =
          {
            Jord_faas.Recovery.default with
            deadline = Option.map Jord_sim.Time.of_us deadline_us;
            retry_base_ns = retry_base_us *. 1000.0;
            retry_cap = Int.max 0 retry_cap;
            retry_max;
          };
      }
    in
    let chaos_active = match fault_plan with Some p -> Jord_fault_inject.Plan.active p | None -> false in
    (* Violated conservation invariants go to stderr and fail the run — the
       CI chaos-smoke job relies on this exit code. *)
    let verdict violations =
      if chaos_active then
        Printf.printf "invariants: %s\n"
          (if violations = [] then "ok" else "VIOLATED");
      List.iter (fun v -> Printf.eprintf "invariant violated: %s\n" v) violations;
      if violations <> [] then exit 3
    in
    let t0 = Unix.gettimeofday () in
    (* Telemetry: register the whole machine in a fresh registry and ride a
       simulated-time sampler on the shared engine; both are exported after
       the run when --metrics-out is given. *)
    let registry = Jord_telemetry.Registry.create () in
    let sampler_ref = ref None in
    let start_sampler engine =
      let sampler = Jord_telemetry.Sampler.create ~engine ~interval_us:sample_us () in
      Jord_telemetry.Sampler.start sampler;
      sampler_ref := Some sampler;
      sampler
    in
    let export_metrics () =
      match metrics_out with
      | None -> ()
      | Some path ->
          let fmt =
            match metrics_format with
            | Some `Prom -> Jord_telemetry.Export.Prometheus
            | Some `Jsonl -> Jord_telemetry.Export.Jsonl
            | Some `Csv -> Jord_telemetry.Export.Csv
            | None -> Jord_telemetry.Export.format_for_path path
          in
          let body =
            Jord_telemetry.Export.export fmt ?sampler:!sampler_ref registry
          in
          Jord_telemetry.Export.write_file ~path body;
          Printf.printf "metrics: %d families%s -> %s\n"
            (Jord_telemetry.Registry.family_count registry)
            (match !sampler_ref with
            | Some s ->
                Printf.sprintf ", %d samples" (Jord_telemetry.Sampler.samples_taken s)
            | None -> "")
            path
    in
    let print_recorder recorder ~dropped =
      let open Jord_metrics.Recorder in
      Printf.printf "offered=%.2f MRPS  measured=%.2f MRPS  completed=%d  dropped=%d\n"
        rate (throughput_mrps recorder) (count recorder) dropped;
      Printf.printf "latency: mean=%.2fus p50=%.2fus p90=%.2fus p99=%.2fus\n"
        (mean_us recorder) (p50_us recorder)
        (percentile_us recorder 90.0)
        (p99_us recorder);
      let b = mean_breakdown recorder in
      Printf.printf
        "per-request: exec=%.0fns isolation=%.0fns dispatch=%.0fns data=%.0fns (%.2f invocations)\n"
        b.exec_ns b.isolation_ns b.dispatch_ns b.comm_ns (mean_invocations recorder)
    in
    (* The online SLO plane rides the tracer's emit sink, so --slo forces a
       tracer even when no trace file was asked for. *)
    let objectives = match slo_spec with None -> [] | Some objs -> objs in
    let pipeline =
      if objectives = [] then None else Some (Jord_obsv.Online.create objectives)
    in
    let want_trace = trace_file <> None || trace_out <> None || pipeline <> None in
    (* One tracer shared by every server: events carry the server id, so the
       offline tools can tell the tracks apart. *)
    let tracer = if want_trace then Some (Jord_faas.Trace.create ()) else None in
    (match (pipeline, tracer) with
    | Some p, Some tr ->
        Jord_obsv.Online.attach p tr;
        if metrics_out <> None then Jord_obsv.Online.register_metrics p registry
    | _ -> ());
    let finish_slo engine =
      Option.iter
        (fun p -> Jord_obsv.Online.finish p ~now_ps:(Jord_sim.Engine.now engine))
        pipeline
    in
    let print_slo () =
      match pipeline with
      | None -> ()
      | Some p -> (
          print_string (Jord_obsv.Online.report_text p);
          match slo_out with
          | None -> ()
          | Some path ->
              let oc = open_out path in
              output_string oc (Jord_obsv.Online.report_json p);
              close_out oc;
              Printf.printf "slo: report -> %s\n" path)
    in
    let write_traces tr ~orch_cores ~end_ps =
      (match trace_file with
      | None -> ()
      | Some path ->
          let oc = open_out path in
          output_string oc (Jord_faas.Trace.to_chrome_json ~orch_cores tr);
          close_out oc;
          Printf.printf "trace: %d events (%d retained) -> %s\n"
            (Jord_faas.Trace.total_emitted tr) (Jord_faas.Trace.length tr) path);
      match trace_out with
      | None -> ()
      | Some path ->
          let meta =
            [
              ("variant", Jord_util.Json.String (Jord_faas.Variant.name variant));
              ("app", Jord_util.Json.String app.Jord_faas.Model.app_name);
              ("servers", Jord_util.Json.Int servers);
              ( "orch_cores",
                Jord_util.Json.List (List.map (fun c -> Jord_util.Json.Int c) orch_cores)
              );
              (* The engine's final time: `jordctl slo` replays finish here,
                 so offline reports close the same windows the live run did. *)
              ("end_ps", Jord_util.Json.Int end_ps);
            ]
          in
          Jord_obsv.Tracefile.save ~path ~meta tr;
          Printf.printf "trace: %d events (%d retained) -> %s\n"
            (Jord_faas.Trace.total_emitted tr) (Jord_faas.Trace.length tr) path
    in
    if servers > 1 then begin
      (* Cluster mode: one shared engine, round-robin front end, forwarding
         between peers. *)
      let on_cluster cluster =
        if metrics_out <> None then begin
          (* Counter registration is safe in any mode: collectors are read
             once, after the run (the pool's join gives the happens-before).
             The simulated-time sampler is not — it would read other
             shards' gauges mid-epoch — so it stays on the sequential
             path. *)
          Jord_faas.Cluster.register_metrics cluster registry;
          if Jord_faas.Cluster.shards cluster > 1 then
            Printf.eprintf
              "note: gauge time series disabled at --shards > 1 (sampling would \
               read across shards mid-run); counters are still exported\n"
          else
            Jord_faas.Cluster.attach_sampler cluster
              (start_sampler (Jord_faas.Cluster.engine cluster))
        end
      in
      let cluster, recorder =
        Jord_workloads.Loadgen.run_cluster ?tracer ~on_cluster ~forward_after ~shards
          ~servers ~warmup ~app ~config ~rate_mrps:rate ~duration_us:duration ~seed ()
      in
      finish_slo (Jord_faas.Cluster.engine cluster);
      export_metrics ();
      let members = Jord_faas.Cluster.servers cluster in
      (match tracer with
      | Some tr ->
          write_traces tr
            ~orch_cores:(Jord_faas.Server.orchestrator_cores members.(0))
            ~end_ps:(Jord_sim.Engine.now (Jord_faas.Cluster.engine cluster))
      | None -> ());
      let sum f = Array.fold_left (fun acc s -> acc + f s) 0 members in
      Printf.printf "workload=%s system=%s cluster=%d servers x (%d cores / %d sockets)\n"
        app.Jord_faas.Model.app_name (Jord_faas.Variant.name variant) servers cores
        sockets;
      print_recorder recorder ~dropped:(sum Jord_faas.Server.dropped_requests);
      Printf.printf "forwarding: out=%d in=%d (forward-after=%d, one-way=%.0fns)\n"
        (sum Jord_faas.Server.forwarded_out)
        (sum Jord_faas.Server.received_in)
        forward_after
        (Jord_faas.Netmodel.one_way_ns config.Jord_faas.Server.net);
      Array.iteri
        (fun i s ->
          let orch_util, exec_util = Jord_faas.Server.utilization s in
          Printf.printf
            "  server %d: completed=%d forwarded-out=%d received-in=%d utilization orch=%.0f%% exec=%.0f%%\n"
            i
            (Jord_faas.Server.completed_roots s)
            (Jord_faas.Server.forwarded_out s)
            (Jord_faas.Server.received_in s)
            (100.0 *. orch_util) (100.0 *. exec_util))
        members;
      if chaos_active then begin
        Printf.printf "chaos: timeouts=%d crashes=%d recovered=%d stalls=%d slowdowns=%d\n"
          (sum Jord_faas.Server.timed_out_requests)
          (sum Jord_faas.Server.crashes)
          (sum Jord_faas.Server.recovered)
          (sum Jord_faas.Server.stalls)
          (sum Jord_faas.Server.slowdowns);
        Printf.printf
          "server-faults: crashes=%d warm-losses=%d cold-starts=%d\n"
          (sum Jord_faas.Server.server_crashes)
          (sum Jord_faas.Server.warm_losses)
          (sum Jord_faas.Server.cold_starts);
        match Jord_faas.Cluster.net_stats cluster with
        | Some s ->
            Printf.printf
              "net: xfers=%d copies=%d lost=%d dup-dropped=%d dropped-down=%d retries=%d abandoned=%d failover=%d marked-dead=%d unquarantined=%d\n"
              s.Jord_faas.Cluster.xfers s.Jord_faas.Cluster.wire_copies
              s.Jord_faas.Cluster.lost s.Jord_faas.Cluster.dup_dropped
              s.Jord_faas.Cluster.dropped_down
              s.Jord_faas.Cluster.retries s.Jord_faas.Cluster.abandoned
              s.Jord_faas.Cluster.failover
              s.Jord_faas.Cluster.peers_marked_dead
              s.Jord_faas.Cluster.peers_unquarantined
        | None -> ()
      end;
      print_slo ();
      verdict (Jord_faas.Cluster.check_invariants cluster);
      Printf.printf "[simulated %d events in %.1fs wall]\n"
        (Jord_faas.Cluster.events_processed cluster)
        (Unix.gettimeofday () -. t0)
    end
    else begin
      let on_server server =
        if metrics_out <> None then begin
          Jord_faas.Server.register_metrics server registry;
          Jord_faas.Server.attach_sampler server
            (start_sampler (Jord_faas.Server.engine server))
        end
      in
      let server, recorder =
        Jord_workloads.Loadgen.run ?tracer ~on_server ~warmup ~app ~config
          ~rate_mrps:rate ~duration_us:duration ~seed ()
      in
      finish_slo (Jord_faas.Server.engine server);
      export_metrics ();
      (match tracer with
      | Some tr ->
          write_traces tr
            ~orch_cores:(Jord_faas.Server.orchestrator_cores server)
            ~end_ps:(Jord_sim.Engine.now (Jord_faas.Server.engine server))
      | None -> ());
      Printf.printf "workload=%s system=%s machine=%d cores / %d sockets\n"
        app.Jord_faas.Model.app_name (Jord_faas.Variant.name variant) cores sockets;
      print_recorder recorder ~dropped:(Jord_faas.Server.dropped_requests server);
      let orch_util, exec_util = Jord_faas.Server.utilization server in
      Printf.printf "utilization: orchestrators=%.0f%% executors=%.0f%%\n"
        (100.0 *. orch_util) (100.0 *. exec_util);
      let hw = Jord_faas.Server.hw server in
      let vlb_hits, vlb_misses = Jord_vm.Hw.vlb_totals hw in
      Printf.printf "VLB: %.2f%% hit rate (%d hits, %d misses)\n"
        (100.0 *. float_of_int vlb_hits
        /. float_of_int (Int.max 1 (vlb_hits + vlb_misses)))
        vlb_hits vlb_misses;
      Printf.printf "hardware: %d VTW walks (%.1fns avg), %d shootdowns (%.1fns avg)\n"
        (Jord_vm.Hw.walk_count hw)
        (Jord_vm.Hw.walk_ns_total hw /. float_of_int (Int.max 1 (Jord_vm.Hw.walk_count hw)))
        (Jord_vm.Hw.shootdown_count hw)
        (Jord_vm.Hw.shootdown_ns_total hw
        /. float_of_int (Int.max 1 (Jord_vm.Hw.shootdown_count hw)));
      if chaos_active then begin
        Printf.printf "chaos: timeouts=%d crashes=%d recovered=%d stalls=%d slowdowns=%d\n"
          (Jord_faas.Server.timed_out_requests server)
          (Jord_faas.Server.crashes server)
          (Jord_faas.Server.recovered server)
          (Jord_faas.Server.stalls server)
          (Jord_faas.Server.slowdowns server);
        Printf.printf
          "server-faults: crashes=%d warm-losses=%d cold-starts=%d\n"
          (Jord_faas.Server.server_crashes server)
          (Jord_faas.Server.warm_losses server)
          (Jord_faas.Server.cold_starts server)
      end;
      print_slo ();
      verdict (Jord_faas.Server.check_invariants server);
      Printf.printf "[simulated %d events in %.1fs wall]\n"
        (Jord_sim.Engine.processed (Jord_faas.Server.engine server))
        (Unix.gettimeofday () -. t0)
    end
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one simulation and print a summary")
    Term.(
      const run $ app_t $ variant $ rate $ duration $ cores $ sockets $ orchestrators
      $ policy $ ivlb $ dvlb $ seed $ warmup $ trace_file $ trace_out $ metrics_out
      $ metrics_format $ sample_us $ servers $ shards $ forward_after $ net_one_way
      $ net_per_byte $ fault_plan $ deadline_us $ retry_base_us $ retry_cap
      $ retry_max $ slo_spec $ slo_out $ fleet_opt $ lb_opt $ autoscale_opt
      $ traffic_opt)

(* --- stats --- *)

let stats_cmd =
  let app_t =
    Arg.(value & opt (enum workloads) Jord_workloads.Hipster.app
         & info [ "a"; "app" ] ~docv:"APP" ~doc:"Workload: hipster, hotel, media or social.")
  in
  let variant =
    Arg.(value & opt (enum variants) Jord_faas.Variant.Jord
         & info [ "s"; "system" ] ~docv:"SYSTEM" ~doc:"System variant: jord, ni, bt or nightcore.")
  in
  let rate =
    Arg.(value & opt float 1.0
         & info [ "r"; "rate" ] ~docv:"MRPS" ~doc:"Offered load in million requests per second.")
  in
  let duration =
    Arg.(value & opt float 2000.0
         & info [ "d"; "duration" ] ~docv:"US" ~doc:"Arrival window in microseconds.")
  in
  let sample_us =
    Arg.(value & opt pos_float 40.0
         & info [ "sample-us" ] ~docv:"US" ~doc:"Sampling interval over simulated time.")
  in
  let filter =
    Arg.(value & opt (some string) None
         & info [ "f"; "filter" ] ~docv:"SUBSTR"
             ~doc:"Only show metric families whose name contains SUBSTR.")
  in
  let run app variant rate duration sample_us filter =
    let config = { Jord_faas.Server.default_config with variant } in
    let registry = Jord_telemetry.Registry.create () in
    let sampler_ref = ref None in
    let on_server server =
      Jord_faas.Server.register_metrics server registry;
      let sampler =
        Jord_telemetry.Sampler.create
          ~engine:(Jord_faas.Server.engine server)
          ~interval_us:sample_us ()
      in
      Jord_faas.Server.attach_sampler server sampler;
      Jord_telemetry.Sampler.start sampler;
      sampler_ref := Some sampler
    in
    let _server, _recorder =
      Jord_workloads.Loadgen.run ~on_server ~warmup:200 ~app ~config ~rate_mrps:rate
        ~duration_us:duration ()
    in
    Printf.printf "%s on %s @ %.2f MRPS for %.0f simulated us\n\n"
      app.Jord_faas.Model.app_name (Jord_faas.Variant.name variant) rate duration;
    let name_filter =
      Option.map (fun sub name ->
          let n = String.length sub in
          let len = String.length name in
          let rec at i = i + n <= len && (String.sub name i n = sub || at (i + 1)) in
          at 0)
        filter
    in
    print_string (Jord_telemetry.Timeline.render_snapshot ?filter:name_filter registry);
    match !sampler_ref with
    | Some sampler when Jord_telemetry.Sampler.samples_taken sampler > 0 ->
        print_newline ();
        print_string (Jord_telemetry.Timeline.render_series sampler)
    | _ -> ()
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Run one simulation and show its full metric snapshot + timelines")
    Term.(const run $ app_t $ variant $ rate $ duration $ sample_us $ filter)

(* --- bench --- *)

let bench_cmd =
  let names =
    let all = Jord_exp.Benchmarks.names in
    Arg.(value & pos_all (enum (List.map (fun e -> (e, e)) all)) all
         & info [] ~docv:"EXPERIMENT"
             ~doc:"Structured benchmarks to run: engine, vm, server or cluster \
                   (default: all).")
  in
  let quick =
    Arg.(value & flag & info [ "q"; "quick" ] ~doc:"Shorter measurements.")
  in
  let json_out =
    Arg.(value & opt (some string) None
         & info [ "json-out" ] ~docv:"DIR"
             ~doc:"Also write each experiment as DIR/BENCH_<experiment>.json \
                   (the format the CI perf-regression gate compares against \
                   bench/baseline.json).")
  in
  let run names quick json_out =
    List.iter
      (fun name ->
        match Jord_exp.Benchmarks.run_one ~quick name with
        | Error msg ->
            prerr_endline msg;
            exit 2
        | Ok doc ->
            print_string (Jord_exp.Benchmarks.render doc);
            print_newline ();
            (match json_out with
            | None -> ()
            | Some dir ->
                let path = Jord_util.Bench_json.write_dir ~dir doc in
                Printf.printf "wrote %s\n" path))
      names
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:"Run the structured benchmark suite (machine-readable BENCH_*.json)")
    Term.(const run $ names $ quick $ json_out)

(* --- exp --- *)

let exp_cmd =
  let names =
    Arg.(value & pos_all (enum (List.map (fun e -> (e, e)) experiments)) experiments
         & info [] ~docv:"EXPERIMENT" ~doc:"Experiments to regenerate (default: all).")
  in
  let quick =
    Arg.(value & flag & info [ "q"; "quick" ] ~doc:"Shorter simulations (coarser results).")
  in
  let jobs =
    Arg.(value & opt pos_int 1
         & info [ "j"; "jobs" ] ~docv:"N"
             ~doc:"Run independent sweep points on an N-domain pool. Reports are \
                   byte-identical at any job count.")
  in
  let run names quick jobs =
    Jord_exp.Exp_common.set_jobs jobs;
    List.iter
      (fun name ->
        Printf.printf "\n== %s ==\n%!" name;
        let report =
          match name with
          | "table4" -> Jord_exp.Table4.report ~iters:(if quick then 1500 else 4000) ()
          | "fig9" -> Jord_exp.Fig9.report ~quick ()
          | "fig10" -> Jord_exp.Fig10.report ~quick ()
          | "fig11" -> Jord_exp.Fig11.report ~quick ()
          | "fig12" -> Jord_exp.Fig12.report ~quick ()
          | "fig13" -> Jord_exp.Fig13.report ~quick ()
          | "fig14" -> Jord_exp.Fig14.report ~quick ()
          | "background" -> Jord_exp.Background.report ()
          | "motivation" -> Jord_exp.Motivation.report ~iters:(if quick then 100 else 300) ()
          | "claims" -> Jord_exp.Claims.report ~quick ()
          | "ablation" -> Jord_exp.Ablations.report ~quick ()
          | other -> Printf.sprintf "unknown experiment %S\n" other
        in
        print_string report)
      names
  in
  Cmd.v
    (Cmd.info "exp" ~doc:"Regenerate the paper's tables and figures")
    Term.(const run $ names $ quick $ jobs)

(* --- sweep --- *)

let sweep_cmd =
  let app_t =
    Arg.(value & opt (enum workloads) Jord_workloads.Hipster.app
         & info [ "a"; "app" ] ~docv:"APP" ~doc:"Workload to sweep.")
  in
  let variant =
    Arg.(value & opt (enum variants) Jord_faas.Variant.Jord
         & info [ "s"; "system" ] ~docv:"SYSTEM" ~doc:"System variant.")
  in
  let rates =
    Arg.(value & opt (list float) [ 1.0; 2.0; 4.0; 6.0; 8.0; 10.0; 12.0 ]
         & info [ "r"; "rates" ] ~docv:"R1,R2,..." ~doc:"Loads to sweep (MRPS).")
  in
  let duration =
    Arg.(value & opt float 3000.0 & info [ "d"; "duration" ] ~docv:"US" ~doc:"Arrival window per point.")
  in
  let slo =
    Arg.(value & opt (some float) None
         & info [ "slo" ] ~docv:"US" ~doc:"p99 SLO in us (default: 10x the min-load mean of this system).")
  in
  let run app variant rates duration slo =
    let config = { Jord_faas.Server.default_config with variant } in
    let measure rate =
      snd
        (Jord_workloads.Loadgen.run ~warmup:300 ~app ~config ~rate_mrps:rate
           ~duration_us:duration ())
    in
    let slo_us =
      match slo with
      | Some v -> v
      | None ->
          let r = measure (List.hd rates /. 4.0) in
          10.0 *. Jord_metrics.Recorder.mean_us r
    in
    Printf.printf "%s on %s  (SLO = %.1f us p99)

" app.Jord_faas.Model.app_name
      (Jord_faas.Variant.name variant) slo_us;
    Printf.printf "%10s  %12s  %10s  %10s   %s
" "load(MRPS)" "tput(MRPS)" "mean(us)"
      "p99(us)" "SLO";
    let best = ref 0.0 in
    List.iter
      (fun rate ->
        let r = measure rate in
        let p99 = Jord_metrics.Recorder.p99_us r in
        let tput = Jord_metrics.Recorder.throughput_mrps r in
        let ok = p99 <= slo_us in
        if ok && tput > !best then best := tput;
        Printf.printf "%10.2f  %12.2f  %10.2f  %10.2f   %s
" rate tput
          (Jord_metrics.Recorder.mean_us r)
          p99
          (if ok then "meets" else "VIOLATED"))
      rates;
    Printf.printf "
throughput under SLO: %.2f MRPS
" !best
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Sweep offered load and report throughput under SLO")
    Term.(const run $ app_t $ variant $ rates $ duration $ slo)

(* --- export --- *)

let export_cmd =
  let dir =
    Arg.(value & opt string "results"
         & info [ "o"; "out" ] ~docv:"DIR" ~doc:"Output directory for the CSV files.")
  in
  let quick =
    Arg.(value & flag & info [ "q"; "quick" ] ~doc:"Shorter simulations.")
  in
  let run dir quick =
    let files = Jord_exp.Export.all ~dir ~quick () in
    List.iter (fun p -> Printf.printf "wrote %s\n" p) files
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Write every experiment's data as CSV files")
    Term.(const run $ dir $ quick)

(* --- trace --- *)

let trace_cmd =
  let file_pos =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"FILE"
             ~doc:"JSONL trace written by $(b,jordctl run --trace-out).")
  in
  (* Load once, match once: either kind of trace file yields the shared
     report input plus its own Perfetto export. *)
  let load path =
    match Jord_obsv.Tracefile.load ~path with
    | Error msg ->
        prerr_endline ("jordctl: " ^ msg);
        exit 2
    | Ok (Jord_obsv.Tracefile.Server l) ->
        (* A wrapped ring means every report below covers a suffix of the run
           only — say so where the user will see it. *)
        if l.Jord_obsv.Tracefile.truncated then
          Printf.eprintf "WARNING: ring truncated, %d events dropped\n"
            (l.Jord_obsv.Tracefile.total_emitted
            - List.length l.Jord_obsv.Tracefile.events);
        let r = Jord_obsv.Tracefile.spans l in
        ( Jord_obsv.Critical_path.report r,
          fun () ->
            Jord_obsv.Export.chrome_json
              ~orch_cores:(Jord_obsv.Tracefile.orch_cores l)
              ~events:l.Jord_obsv.Tracefile.events r )
    | Ok (Jord_obsv.Tracefile.Fleet l) ->
        (Jord_obsv.Freport.report l, fun () -> Jord_obsv.Freport.chrome_json l)
  in
  (* Attribution that does not sum exactly to end-to-end latency is a tool
     bug, not a degraded report — fail loudly (CI greps for this). *)
  let print_checked report t =
    print_string (report t);
    if not (Jord_obsv.Report.conservation_ok t) then exit 3
  in
  let breakdown_cmd =
    let run path = print_checked Jord_obsv.Report.breakdown (fst (load path)) in
    Cmd.v
      (Cmd.info "breakdown"
         ~doc:"Per-phase latency attribution per entry function, with the \
               conservation verdict")
      Term.(const run $ file_pos)
  in
  let slowest_cmd =
    let n =
      Arg.(value & opt pos_int 10
           & info [ "n" ] ~docv:"N" ~doc:"How many requests to show.")
    in
    let run path n = print_string (Jord_obsv.Report.slowest ~n (fst (load path))) in
    Cmd.v
      (Cmd.info "slowest" ~doc:"The N slowest completed requests with their phase splits")
      Term.(const run $ file_pos $ n)
  in
  let critical_cmd =
    let run path = print_checked Jord_obsv.Report.blame (fst (load path)) in
    Cmd.v
      (Cmd.info "critical-path"
         ~doc:"Phase blame per entry function and the p99 tail verdict: along \
               the longest causal chain of each fan-out tree (fleet traces: \
               each request's own phases, plus the per-member view)")
      Term.(const run $ file_pos)
  in
  let export_cmd =
    let out =
      Arg.(required & opt (some string) None
           & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output file.")
    in
    let fmt =
      Arg.(value
           & opt (enum [ ("chrome", `Chrome); ("json", `Json); ("csv", `Csv) ]) `Chrome
           & info [ "format" ] ~docv:"FMT"
               ~doc:"chrome (Perfetto trace with causal flow arrows), json or csv \
                     (per-function blame profiles).")
    in
    let run path out fmt =
      let t, chrome = load path in
      let body =
        match fmt with
        | `Chrome -> chrome ()
        | `Json -> Jord_obsv.Report.blame_json t
        | `Csv -> Jord_obsv.Report.blame_csv t
      in
      let oc = open_out out in
      output_string oc body;
      close_out oc;
      Printf.printf "wrote %s\n" out
    in
    Cmd.v
      (Cmd.info "export"
         ~doc:"Convert a trace to a Perfetto document or a blame profile")
      Term.(const run $ file_pos $ out $ fmt)
  in
  Cmd.group
    (Cmd.info "trace"
       ~doc:"Analyze a --trace-out file (single-node, cluster or fleet): \
             breakdown, slowest, critical-path, export")
    [ breakdown_cmd; slowest_cmd; critical_cmd; export_cmd ]

(* --- slo --- *)

let slo_cmd =
  let file_pos =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"FILE"
             ~doc:"JSONL trace written by $(b,jordctl run --trace-out).")
  in
  let spec =
    Arg.(value & opt string "default"
         & info [ "slo" ] ~docv:"SPEC"
             ~doc:"Objectives to evaluate: a preset (default, tight, ci), inline \
                   objectives, or a spec file (same syntax as $(b,jordctl run \
                   --slo)).")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Write to FILE instead of stdout.")
  in
  (* Replaying the recorded events through the same pipeline the live run
     uses: a run with --slo and an offline `jordctl slo` over its --trace-out
     produce identical reports. *)
  let replay_of path spec =
    match Jord_obsv.Tracefile.load ~path with
    | Error msg ->
        prerr_endline ("jordctl: " ^ msg);
        exit 2
    | Ok (Jord_obsv.Tracefile.Fleet _) ->
        (* Fleet traces hold sampled spans, not the complete event stream, so
           an offline SLO replay would silently mis-count; the fleet run
           prints its rollup live (and --slo-out saves it). *)
        Printf.eprintf
          "jordctl slo: %s is a fleet trace (tail-sampled spans, not the full \
           event stream)\n\
           hint: fleet SLO verdicts come from the run itself: `jordctl run \
           --fleet N --slo SPEC [--slo-out FILE]`\n"
          path;
        exit 2
    | Ok (Jord_obsv.Tracefile.Server l) -> (
        match Jord_obsv.Slo.parse_arg spec with
        | Error msg ->
            prerr_endline ("jordctl: bad --slo spec: " ^ msg);
            exit 2
        | Ok [] ->
            prerr_endline "jordctl: the spec selects no objectives (preset \"none\")";
            exit 2
        | Ok objectives ->
            if l.Jord_obsv.Tracefile.truncated then
              Printf.eprintf "WARNING: ring truncated, %d events dropped\n"
                (l.Jord_obsv.Tracefile.total_emitted
                - List.length l.Jord_obsv.Tracefile.events);
            (* Finish where the recording run's engine stopped (when the
               file says), so replayed reports match live ones exactly. *)
            let finish_ps =
              match
                Jord_util.Json.member "end_ps" l.Jord_obsv.Tracefile.meta
              with
              | Some (Jord_util.Json.Int i) -> Some i
              | _ -> None
            in
            Jord_obsv.Online.replay ~objectives ?finish_ps
              l.Jord_obsv.Tracefile.events)
  in
  let emit out body =
    match out with
    | None -> print_string body
    | Some path ->
        let oc = open_out path in
        output_string oc body;
        close_out oc;
        Printf.printf "wrote %s\n" path
  in
  let report_cmd =
    let fmt =
      Arg.(value & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
           & info [ "format" ] ~docv:"FMT" ~doc:"text or json.")
    in
    let run path spec fmt out =
      let p = replay_of path spec in
      emit out
        (match fmt with
        | `Text -> Jord_obsv.Online.report_text p
        | `Json -> Jord_obsv.Online.report_json p)
    in
    Cmd.v
      (Cmd.info "report"
         ~doc:"Verdict table per objective (requests, budget burn, measured \
               quantile, alert counts)")
      Term.(const run $ file_pos $ spec $ fmt $ out)
  in
  let alerts_cmd =
    let fmt =
      Arg.(value & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
           & info [ "format" ] ~docv:"FMT" ~doc:"text or json.")
    in
    let run path spec fmt out =
      let p = replay_of path spec in
      emit out
        (match fmt with
        | `Text -> Jord_obsv.Online.alerts_text p
        | `Json -> Jord_obsv.Online.alerts_json p)
    in
    Cmd.v
      (Cmd.info "alerts"
         ~doc:"The chronological burn-rate alert log (fire/resolve transitions)")
      Term.(const run $ file_pos $ spec $ fmt $ out)
  in
  let burn_cmd =
    let fmt =
      Arg.(value & opt (enum [ ("text", `Text); ("csv", `Csv) ]) `Text
           & info [ "format" ] ~docv:"FMT" ~doc:"text or csv.")
    in
    let run path spec fmt out =
      let p = replay_of path spec in
      emit out
        (match fmt with
        | `Text -> Jord_obsv.Online.burn_text p
        | `Csv -> Jord_obsv.Online.burn_csv p)
    in
    Cmd.v
      (Cmd.info "burn"
         ~doc:"Per-window burn rates for every objective, with a sparkline")
      Term.(const run $ file_pos $ spec $ fmt $ out)
  in
  Cmd.group
    (Cmd.info "slo"
       ~doc:"Evaluate SLO objectives over a recorded trace: report, alerts, burn")
    [ report_cmd; alerts_cmd; burn_cmd ]

(* --- list --- *)

let list_cmd =
  let run () =
    Printf.printf "workloads:   %s\n" (String.concat ", " (List.map fst workloads));
    Printf.printf "systems:     %s\n" (String.concat ", " (List.map fst variants));
    Printf.printf "policies:    %s\n" (String.concat ", " (List.map fst policies));
    Printf.printf "experiments: %s\n" (String.concat ", " experiments);
    List.iter
      (fun (name, app) ->
        Printf.printf "\n%s:\n" name;
        List.iter
          (fun fn -> Printf.printf "  %s\n" fn.Jord_faas.Model.name)
          app.Jord_faas.Model.fns)
      workloads
  in
  Cmd.v (Cmd.info "list" ~doc:"List workloads, systems and experiments") Term.(const run $ const ())

let () =
  let doc = "Jord: single-address-space FaaS (ISCA'25) — reproduction driver" in
  let info = Cmd.info "jordctl" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ run_cmd; stats_cmd; sweep_cmd; exp_cmd; bench_cmd; export_cmd; trace_cmd; slo_cmd; list_cmd ]))
