(* jordctl — command-line driver for the Jord reproduction.

     jordctl list                      show workloads, variants, experiments
     jordctl run [options]            one simulation, summarized
     jordctl exp table4 fig9 ...      regenerate paper tables/figures *)

open Cmdliner
module Server = Jord_faas.Server
module Tracefile = Jord_obsv.Tracefile
module Export = Jord_telemetry.Export

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

(* --- exits, usage errors and the output writer --- *)

let exits =
  [
    Cmd.Exit.info 0 ~doc:"on success.";
    Cmd.Exit.info 2
      ~doc:
        "on usage errors: a malformed or out-of-range flag, contradictory \
         flags, an unreadable trace file or an output path that cannot be \
         written.";
    Cmd.Exit.info 3
      ~doc:
        "when a run breaks a conservation invariant, or a trace's phases do \
         not sum to end-to-end latency.";
    Cmd.Exit.info 125 ~doc:"on unexpected internal errors (bugs).";
  ]

let cmd name ~doc term = Cmd.v (Cmd.info name ~doc ~exits) term
let group name ~doc cmds = Cmd.group (Cmd.info name ~doc ~exits) cmds

(* Every usage error the converters cannot see — flags that contradict each
   other, unreadable traces, unwritable outputs — ends here, with exit 2. *)
let usage_fail ?cmd ?hint fmt =
  Printf.ksprintf
    (fun m ->
      Printf.eprintf "jordctl%s: %s\n" (match cmd with Some c -> " " ^ c | None -> "") m;
      Option.iter (Printf.eprintf "hint: %s\n") hint;
      exit 2)
    fmt

(* Every file jordctl writes is saved through here: a path that cannot be
   written is a usage error, not a crash. *)
let write_with path save =
  try save path
  with Sys_error m ->
    (* A failed open says "PATH: REASON". *)
    let prefix = path ^ ": " in
    let reason =
      if String.starts_with ~prefix m then
        String.sub m (String.length prefix) (String.length m - String.length prefix)
      else m
    in
    usage_fail "cannot write %s: %s" path reason

let write path body = write_with path (fun path -> Export.write_file ~path body)

(* Print [body], or write it to [out] and say so. *)
let emit out body =
  match out with
  | None -> print_string body
  | Some path ->
      write path body;
      Printf.printf "wrote %s\n" path

(* --- converters: every range check on a single flag --- *)

(* [conv] narrowed to the values [ok] accepts; [error] says which. *)
let narrow ok error conv =
  let parse = Arg.conv_parser conv in
  Arg.conv
    ( (fun s -> match parse s with Ok v when not (ok v) -> Error (`Msg error) | r -> r),
      Arg.conv_printer conv )

(* NaN and infinity are never a rate, duration, interval or wire cost: they
   hang the run or simulate nothing. *)
let positive = narrow (fun f -> Float.is_finite f && f > 0.0) "must be finite and > 0"
let pos_float = positive Arg.float

let nonneg_float =
  narrow (fun f -> Float.is_finite f && f >= 0.0) "must be finite and >= 0" Arg.float

let pos_int = narrow (fun i -> i >= 1) "must be >= 1" Arg.int

(* The one converter for every spec grammar — fault plans, SLOs, balancer
   policies, traffic shapes, autoscaler specs: the grammar's own parser,
   printed back in its canonical spelling. *)
let spec parse to_string =
  Arg.conv' (parse, fun ppf v -> Format.pp_print_string ppf (to_string v))

let plan_spec = spec Jord_fault_inject.Plan.parse Jord_fault_inject.Plan.to_string

let slo_spec =
  spec Jord_obsv.Slo.parse_arg (fun objectives ->
      String.concat ";" (List.map Jord_obsv.Slo.to_string objectives))

let lb_spec = spec Jord_fleet.Lb.parse Jord_fleet.Lb.to_string
let traffic_spec = spec Jord_workloads.Traffic.parse Jord_workloads.Traffic.to_string
let autoscale_spec = spec Jord_fleet.Autoscaler.parse Jord_fleet.Autoscaler.to_string

(* --- flag groups --- *)

(* -a, -s and -d, shared by run, stats and sweep: each command passes its
   own -d default, and sweep its own wording. *)
let load_flags
    ?(docs =
      ( "Workload: hipster, hotel, media or social.",
        "System variant: jord, ni, bt or nightcore.",
        "Arrival window in microseconds." )) ~duration () =
  let app_doc, system_doc, duration_doc = docs in
  Term.(
    const (fun app variant duration -> (app, variant, duration))
    $ Arg.(value & opt (enum workloads) Jord_workloads.Hipster.app
           & info [ "a"; "app" ] ~docv:"APP" ~doc:app_doc)
    $ Arg.(value & opt (enum variants) Jord_faas.Variant.Jord
           & info [ "s"; "system" ] ~docv:"SYSTEM" ~doc:system_doc)
    $ Arg.(value & opt pos_float duration
           & info [ "d"; "duration" ] ~docv:"US" ~doc:duration_doc))

let rate_flag =
  Arg.(value & opt pos_float 1.0
       & info [ "r"; "rate" ] ~docv:"MRPS" ~doc:"Offered load in million requests per second.")

let sample_us_flag doc =
  (* %g, so the help shows the default as 40, not 40. *)
  let g = Arg.conv (Arg.conv_parser Arg.float, fun ppf -> Format.fprintf ppf "%g") in
  Arg.(value & opt (positive g) 40.0 & info [ "sample-us" ] ~docv:"US" ~doc)

let net_flags =
  let one_way =
    Arg.(value & opt pos_float 2500.0
         & info [ "net-one-way-ns" ] ~docv:"NS"
             ~doc:"Cross-server one-way wire latency (must be > 0: it also bounds \
                   the sharded mode's synchronization window).")
  in
  let per_byte =
    Arg.(value & opt nonneg_float 0.05
         & info [ "net-per-byte-ns" ] ~docv:"NS"
             ~doc:"Cross-server serialization/copy cost per payload byte (>= 0).")
  in
  Term.(
    const (fun one_way_ns per_byte_ns ->
        Jord_faas.Netmodel.create ~one_way_ns ~per_byte_ns ())
    $ one_way $ per_byte)

let recovery_flags =
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
  Term.(
    const (fun deadline_us retry_base_us retry_cap retry_max ->
        {
          Jord_faas.Recovery.default with
          deadline = Option.map Jord_sim.Time.of_us deadline_us;
          retry_base_ns = retry_base_us *. 1000.0;
          retry_cap = Int.max 0 retry_cap;
          retry_max;
        })
    $ deadline_us $ retry_base_us $ retry_cap $ retry_max)

(* The machine under test: a Server.config with every field but the
   variant, which comes from -s. *)
let machine_flags =
  let count name default doc =
    Arg.(value & opt pos_int default & info [ name ] ~docv:"N" ~doc)
  in
  let policy =
    Arg.(value & opt (enum policies) Jord_faas.Policy.Jbsq
         & info [ "policy" ] ~docv:"POLICY" ~doc:"Dispatch policy: jbsq, random or rr.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed.") in
  let fault_plan =
    Arg.(value & opt (some plan_spec) None
         & info [ "fault-plan" ] ~docv:"SPEC"
             ~doc:"Inject deterministic faults: a preset (none, ci-smoke, mild, harsh), a \
                   key=value list (crash=0.01,loss=0.2,server-crash=0.005,seed=7), \
                   or a preset with overrides (ci-smoke,loss=0.5). Same seed and \
                   plan reproduce the same failures at any $(b,--shards) count.")
  in
  Term.(
    const
      (fun cores sockets orchestrators policy ivlb dvlb seed fault_plan net recovery ->
        {
          Server.default_config with
          machine =
            Jord_arch.Config.with_cores
              (Jord_arch.Config.with_sockets Jord_arch.Config.default sockets)
              cores;
          orchestrators;
          policy;
          i_vlb_entries = ivlb;
          d_vlb_entries = dvlb;
          seed;
          net;
          fault_plan;
          recovery;
        })
    $ count "cores" 32 "Total cores of the machine."
    $ count "sockets" 1 "Socket count."
    $ count "orchestrators" 4 "Orchestrator cores."
    $ policy
    $ count "ivlb" 16 "I-VLB entries."
    $ count "dvlb" 16 "D-VLB entries."
    $ seed $ fault_plan $ net_flags $ recovery_flags)

type cluster = { servers : int; shards : int; forward_after : int }

let cluster_flags =
  let servers =
    Arg.(value & opt pos_int 1
         & info [ "servers" ] ~docv:"N"
             ~doc:"Worker servers; > 1 simulates a cluster sharing one timeline, with \
                   cross-server forwarding (paper 3.3).")
  in
  let shards =
    Arg.(value & opt pos_int 1
         & info [ "shards" ] ~docv:"N"
             ~doc:"Parallel engine shards for cluster runs: servers are partitioned \
                   over N engines advanced in lock-step epochs bounded by the wire \
                   latency (conservative parallel DES). Results are byte-identical \
                   at any shard count; 1 (the default) is the historical \
                   single-engine path.")
  in
  let forward_after =
    Arg.(value & opt pos_int 3
         & info [ "forward-after" ] ~docv:"N"
             ~doc:"Full-scan retries before an internal request is forwarded to a peer \
                   server (clusters only).")
  in
  Term.(
    const (fun servers shards forward_after -> { servers; shards; forward_after })
    $ servers $ shards $ forward_after)

type outputs = {
  trace : string option;
  trace_out : string option;
  metrics_out : string option;
  metrics_format : Export.format option;
  sample_us : float;
  slo : Jord_obsv.Slo.objective list option;
  slo_out : string option;
}

let output_flags =
  let trace =
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
    let fmt = Arg.enum [ ("prom", Export.Prometheus); ("jsonl", Export.Jsonl); ("csv", Export.Csv) ] in
    Arg.(value & opt (some fmt) None
         & info [ "metrics-format" ] ~docv:"FMT"
             ~doc:"Export format: prom, jsonl or csv (default: by FILE extension, else prom).")
  in
  let slo =
    Arg.(value & opt (some slo_spec) None
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
  Term.(
    const (fun trace trace_out metrics_out metrics_format sample_us slo slo_out ->
        { trace; trace_out; metrics_out; metrics_format; sample_us; slo; slo_out })
    $ trace $ trace_out $ metrics_out $ metrics_format
    $ sample_us_flag "Simulated-time sampling interval for the gauge time series."
    $ slo $ slo_out)

type fleet = {
  size : int option;
  lb : Jord_fleet.Lb.policy option;
  autoscale : Jord_fleet.Autoscaler.spec option;
  traffic : Jord_workloads.Traffic.shape option;
}

let fleet_flags =
  let size =
    Arg.(value & opt (some pos_int) None
         & info [ "fleet" ] ~docv:"N"
             ~doc:"Fleet mode: a front-end load balancer over N request-granularity \
                   Jord servers under population traffic (see $(b,--lb), \
                   $(b,--autoscale), $(b,--traffic)). Mutually exclusive with \
                   --servers and --fault-plan; honors --shards, --rate, \
                   --duration, --slo and --metrics-out.")
  in
  let lb =
    Arg.(value & opt (some lb_spec) None
         & info [ "lb" ] ~docv:"POLICY"
             ~doc:"Fleet balancing policy: rr (round robin), lo (least \
                   outstanding) or affinity (warm-route aware; the default). \
                   Requires $(b,--fleet).")
  in
  let autoscale =
    Arg.(value & opt (some autoscale_spec) None
         & info [ "autoscale" ] ~docv:"SPEC"
             ~doc:"Autoscale the fleet: a preset (default, fast), a key=value \
                   list (min=4,max=64,interval-us=50,up=0.75,down=0.25,\
                   up-after=2,down-after=6,step=4,boot-us=250), or a preset \
                   with overrides. Requires $(b,--fleet); without it the whole \
                   fleet stays up.")
  in
  let traffic =
    Arg.(value & opt (some traffic_spec) None
         & info [ "traffic" ] ~docv:"SHAPE"
             ~doc:"Population traffic shape: a preset (steady, diurnal, flash, \
                   ci), a key=value list (users=1000000,zipf=1.1,rate=8,\
                   amp=0.5,period-us=2000,flash=800:300:3,seed=11), or a \
                   preset with overrides. Requires $(b,--fleet); default: \
                   steady at the --rate load.")
  in
  Term.(
    const (fun size lb autoscale traffic -> { size; lb; autoscale; traffic })
    $ size $ lb $ autoscale $ traffic)

(* --- run outputs, shared by every mode --- *)

(* A fresh registry, and a simulated-time sampler started on demand on the
   engine a machine runs on. *)
type telemetry = {
  registry : Jord_telemetry.Registry.t;
  interval_us : float;
  mutable sampler : Jord_telemetry.Sampler.t option;
}

let telemetry interval_us =
  { registry = Jord_telemetry.Registry.create (); interval_us; sampler = None }

let start_sampler tel engine =
  let sampler = Jord_telemetry.Sampler.create ~engine ~interval_us:tel.interval_us () in
  Jord_telemetry.Sampler.start sampler;
  tel.sampler <- Some sampler;
  sampler

let watch_server tel server =
  Server.register_metrics server tel.registry;
  Server.attach_sampler server (start_sampler tel (Server.engine server))

let export_metrics out ?sampler registry =
  Option.iter
    (fun path ->
      let fmt = Option.value out.metrics_format ~default:(Export.format_for_path path) in
      write path (Export.export fmt ?sampler registry);
      Printf.printf "metrics: %d families%s -> %s\n"
        (Jord_telemetry.Registry.family_count registry)
        (match sampler with
        | Some s -> Printf.sprintf ", %d samples" (Jord_telemetry.Sampler.samples_taken s)
        | None -> "")
        path)
    out.metrics_out

(* The SLO report after a run, and its --slo-out copy ([body] gets the path). *)
let report_slo out text body =
  print_string text;
  Option.iter
    (fun path ->
      write path (body path);
      Printf.printf "slo: report -> %s\n" path)
    out.slo_out

let print_wall ~t0 ?shards events =
  Printf.printf "[simulated %d events in %.1fs wall%s]\n" events
    (Jord_util.Clock.since_s t0)
    (match shards with Some s -> Printf.sprintf ", shards=%d" s | None -> "")

(* --- run: one server or a cluster --- *)

let run_servers ~app ~rate ~duration ~warmup ~config ~cluster:c ~out =
  let t0 = Jord_util.Clock.now_ns () in
  let tel = telemetry out.sample_us in
  let watch = out.metrics_out <> None in
  (* The online SLO plane rides the tracer's emit sink, so --slo forces a
     tracer even when no trace file was asked for. *)
  let pipeline =
    match out.slo with
    | None | Some [] -> None
    | Some objectives -> Some (Jord_obsv.Online.create objectives)
  in
  (* One tracer shared by every server: events carry the server id, so the
     offline tools can tell the tracks apart. *)
  let tracer =
    if out.trace <> None || out.trace_out <> None || pipeline <> None then
      Some (Jord_faas.Trace.create ())
    else None
  in
  (match (pipeline, tracer) with
  | Some p, Some tr ->
      Jord_obsv.Online.attach p tr;
      if watch then Jord_obsv.Online.register_metrics p tel.registry
  | _ -> ());
  let members, engine, recorder, events, net, violations =
    if c.servers > 1 then begin
      let on_cluster cluster =
        if watch then begin
          (* Counter registration is safe in any mode: collectors are read
             once, after the run (the pool's join gives the happens-before).
             The simulated-time sampler is not — it would read other
             shards' gauges mid-epoch — so it stays on the sequential
             path. *)
          Jord_faas.Cluster.register_metrics cluster tel.registry;
          if Jord_faas.Cluster.shards cluster > 1 then
            Printf.eprintf
              "note: gauge time series disabled at --shards > 1 (sampling would \
               read across shards mid-run); counters are still exported\n"
          else
            Jord_faas.Cluster.attach_sampler cluster
              (start_sampler tel (Jord_faas.Cluster.engine cluster))
        end
      in
      let cluster, recorder =
        Jord_workloads.Loadgen.run_cluster ?tracer ~on_cluster ~forward_after:c.forward_after
          ~shards:c.shards ~servers:c.servers ~warmup ~app ~config ~rate_mrps:rate
          ~duration_us:duration ~seed:config.Server.seed ()
      in
      ( Jord_faas.Cluster.servers cluster,
        Jord_faas.Cluster.engine cluster,
        recorder,
        Jord_faas.Cluster.events_processed cluster,
        Jord_faas.Cluster.net_stats cluster,
        Jord_faas.Cluster.check_invariants cluster )
    end
    else begin
      let on_server server = if watch then watch_server tel server in
      let server, recorder =
        Jord_workloads.Loadgen.run ?tracer ~on_server ~warmup ~app ~config ~rate_mrps:rate
          ~duration_us:duration ~seed:config.Server.seed ()
      in
      let engine = Server.engine server in
      ( [| server |],
        engine,
        recorder,
        Jord_sim.Engine.processed engine,
        None,
        Server.check_invariants server )
    end
  in
  let end_ps = Jord_sim.Engine.now engine in
  Option.iter (fun p -> Jord_obsv.Online.finish p ~now_ps:end_ps) pipeline;
  export_metrics out ?sampler:tel.sampler tel.registry;
  Option.iter
    (fun tr ->
      let orch_cores = Server.orchestrator_cores members.(0) in
      let saved path =
        Printf.printf "trace: %d events (%d retained) -> %s\n"
          (Jord_faas.Trace.total_emitted tr) (Jord_faas.Trace.length tr) path
      in
      Option.iter
        (fun path ->
          write path (Jord_faas.Trace.to_chrome_json ~orch_cores tr);
          saved path)
        out.trace;
      Option.iter
        (fun path ->
          let meta =
            [
              ("variant", Jord_util.Json.String (Jord_faas.Variant.name config.Server.variant));
              ("app", Jord_util.Json.String app.Jord_faas.Model.app_name);
              ("servers", Jord_util.Json.Int c.servers);
              ( "orch_cores",
                Jord_util.Json.List (List.map (fun c -> Jord_util.Json.Int c) orch_cores)
              );
              (* The engine's final time: `jordctl slo` replays finish here,
                 so offline reports close the same windows the live run did. *)
              ("end_ps", Jord_util.Json.Int end_ps);
            ]
          in
          write_with path (fun path -> Tracefile.save ~path ~meta tr);
          saved path)
        out.trace_out)
    tracer;
  (* A single server is a cluster of one: one summary for both. *)
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 members in
  let machine = config.Server.machine in
  Printf.printf "workload=%s system=%s %s\n" app.Jord_faas.Model.app_name
    (Jord_faas.Variant.name config.Server.variant)
    (if c.servers > 1 then
       Printf.sprintf "cluster=%d servers x (%d cores / %d sockets)" c.servers
         machine.Jord_arch.Config.cores machine.Jord_arch.Config.sockets
     else
       Printf.sprintf "machine=%d cores / %d sockets" machine.Jord_arch.Config.cores
         machine.Jord_arch.Config.sockets);
  (let open Jord_metrics.Recorder in
   Printf.printf "offered=%.2f MRPS  measured=%.2f MRPS  completed=%d  dropped=%d\n" rate
     (throughput_mrps recorder) (count recorder) (sum Server.dropped_requests);
   Printf.printf "latency: mean=%.2fus p50=%.2fus p90=%.2fus p99=%.2fus\n" (mean_us recorder)
     (p50_us recorder) (percentile_us recorder 90.0) (p99_us recorder);
   let b = mean_breakdown recorder in
   Printf.printf
     "per-request: exec=%.0fns isolation=%.0fns dispatch=%.0fns data=%.0fns (%.2f invocations)\n"
     b.exec_ns b.isolation_ns b.dispatch_ns b.comm_ns (mean_invocations recorder));
  if c.servers > 1 then begin
    Printf.printf "forwarding: out=%d in=%d (forward-after=%d, one-way=%.0fns)\n"
      (sum Server.forwarded_out) (sum Server.received_in) c.forward_after
      (Jord_faas.Netmodel.one_way_ns config.Server.net);
    Array.iteri
      (fun i s ->
        let orch_util, exec_util = Server.utilization s in
        Printf.printf
          "  server %d: completed=%d forwarded-out=%d received-in=%d utilization orch=%.0f%% exec=%.0f%%\n"
          i (Server.completed_roots s) (Server.forwarded_out s) (Server.received_in s)
          (100.0 *. orch_util) (100.0 *. exec_util))
      members
  end
  else begin
    let server = members.(0) in
    let orch_util, exec_util = Server.utilization server in
    Printf.printf "utilization: orchestrators=%.0f%% executors=%.0f%%\n" (100.0 *. orch_util)
      (100.0 *. exec_util);
    let hw = Server.hw server in
    let vlb_hits, vlb_misses = Jord_vm.Hw.vlb_totals hw in
    Printf.printf "VLB: %.2f%% hit rate (%d hits, %d misses)\n"
      (100.0 *. float_of_int vlb_hits /. float_of_int (Int.max 1 (vlb_hits + vlb_misses)))
      vlb_hits vlb_misses;
    let per n total = total /. float_of_int (Int.max 1 n) in
    Printf.printf "hardware: %d VTW walks (%.1fns avg), %d shootdowns (%.1fns avg)\n"
      (Jord_vm.Hw.walk_count hw)
      (per (Jord_vm.Hw.walk_count hw) (Jord_vm.Hw.walk_ns_total hw))
      (Jord_vm.Hw.shootdown_count hw)
      (per (Jord_vm.Hw.shootdown_count hw) (Jord_vm.Hw.shootdown_ns_total hw))
  end;
  let chaos_active =
    Option.fold ~none:false ~some:Jord_fault_inject.Plan.active config.Server.fault_plan
  in
  if chaos_active then begin
    Printf.printf "chaos: timeouts=%d crashes=%d recovered=%d stalls=%d slowdowns=%d\n"
      (sum Server.timed_out_requests) (sum Server.crashes) (sum Server.recovered)
      (sum Server.stalls) (sum Server.slowdowns);
    Printf.printf "server-faults: crashes=%d warm-losses=%d cold-starts=%d\n"
      (sum Server.server_crashes) (sum Server.warm_losses) (sum Server.cold_starts);
    Option.iter
      (fun (s : Jord_faas.Cluster.net_stats) ->
        Printf.printf
          "net: xfers=%d copies=%d lost=%d dup-dropped=%d dropped-down=%d retries=%d abandoned=%d failover=%d marked-dead=%d unquarantined=%d\n"
          s.xfers s.wire_copies s.lost s.dup_dropped s.dropped_down s.retries s.abandoned
          s.failover s.peers_marked_dead s.peers_unquarantined)
      net
  end;
  Option.iter
    (fun p ->
      report_slo out (Jord_obsv.Online.report_text p) (fun _ ->
          Jord_obsv.Online.report_json p))
    pipeline;
  (* Violated conservation invariants go to stderr and fail the run — the
     CI chaos-smoke job relies on this exit code. *)
  if chaos_active then
    Printf.printf "invariants: %s\n" (if violations = [] then "ok" else "VIOLATED");
  List.iter (Printf.eprintf "invariant violated: %s\n") violations;
  if violations <> [] then exit 3;
  print_wall ~t0 events

(* --- run: fleet mode (--fleet N) ---

   The datacenter layer: a load-balanced fleet of request-granularity Jord
   servers under population traffic, optionally autoscaled. It has its own
   traffic model, its own registry and its own deterministic summary
   (byte-identical at any --shards count; only the trailing wall-clock line
   differs). *)

let fleet_hint =
  Printf.sprintf
    "fleet mode is `jordctl run --fleet N [--lb %s] [--autoscale SPEC] [--traffic SHAPE] \
     [--shards S]` and excludes --servers and --fault-plan (see `jordctl run --help`)"
    (String.concat "|" Jord_fleet.Lb.names)

let fleet_fail fmt = usage_fail ~cmd:"run" ~hint:fleet_hint fmt

let run_fleet ~app ~rate ~duration ~size ~shards ~net (f : fleet) out =
  let autoscale =
    Option.map
      (fun spec ->
        match Jord_fleet.Autoscaler.resolve spec ~fleet:size with
        | Ok spec -> spec
        | Error m -> fleet_fail "bad --autoscale: %s" m)
      f.autoscale
  in
  (* Bare fleet runs take the steady preset at the -r rate. *)
  let shape =
    Option.value f.traffic
      ~default:
        { (List.assoc "steady" Jord_workloads.Traffic.presets) with
          Jord_workloads.Traffic.rate_mrps = rate }
  in
  (* SLO verdicts are on by default at fleet scale (--slo none opts out). *)
  let objectives =
    Option.value out.slo ~default:(List.assoc "default" Jord_obsv.Slo.presets)
  in
  let cfg =
    {
      Jord_fleet.Fleet.default_config with
      Jord_fleet.Fleet.servers = size;
      policy = Option.value f.lb ~default:Jord_fleet.Lb.Affinity;
      net;
      autoscale;
      shards;
    }
  in
  let t0 = Jord_util.Clock.now_ns () in
  let t = try Jord_fleet.Fleet.create cfg ~app with Invalid_argument m -> fleet_fail "%s" m in
  let tracer = Option.map (fun _ -> Jord_obsv.Ftrace.create ()) out.trace_out in
  Jord_fleet.Fleet.run ~slo:objectives ?tracer t ~shape ~duration_us:duration;
  print_string (Jord_fleet.Fleet.summary t);
  Option.iter
    (fun r ->
      (* CSV by extension (the Rollup per-window export), JSON otherwise. *)
      report_slo out (Jord_obsv.Rollup.report_text r) (fun path ->
          if Filename.check_suffix path ".csv" then Jord_obsv.Rollup.report_csv r
          else Jord_obsv.Rollup.report_json r))
    (Jord_fleet.Fleet.rollup t);
  (match (tracer, out.trace_out) with
  | Some tracer, Some path ->
      (* No shard count in the meta: the file is the byte-identity witness
         across --shards (jordctl reports shards on its wall-clock line). *)
      let meta =
        [
          ("app", Jord_util.Json.String app.Jord_faas.Model.app_name);
          ("servers", Jord_util.Json.Int size);
          ("end_ps", Jord_util.Json.Int (Jord_sim.Time.of_us (3.0 *. duration)));
        ]
      in
      write_with path (fun path -> Jord_obsv.Ftrace.save ~path ~meta tracer);
      Printf.printf "trace: %d spans retained of %d requests (%s) -> %s\n"
        (List.length (Jord_obsv.Ftrace.retained tracer))
        (Jord_obsv.Ftrace.offered tracer)
        (String.concat " "
           (List.map
              (fun (k, v) -> Printf.sprintf "%s=%d" k v)
              (Jord_obsv.Ftrace.keep_counts tracer)))
        path
  | _ -> ());
  export_metrics out (Jord_fleet.Fleet.registry t);
  print_wall ~t0 ~shards (Jord_fleet.Fleet.events_processed t)

let run_cmd =
  let warmup =
    Arg.(value & opt int 500 & info [ "warmup" ] ~docv:"N" ~doc:"Requests discarded before measuring.")
  in
  let run (app, variant, duration) rate warmup config cluster out fleet =
    let config = { config with Server.variant } in
    match fleet.size with
    | Some size ->
        if cluster.servers > 1 then
          fleet_fail
            "--fleet and --servers contradict: the fleet layer owns the server \
             count (drop --servers)";
        if config.Server.fault_plan <> None then
          fleet_fail
            "--fault-plan is a cluster-mode feature (--servers N); fleet mode \
             does not take it";
        if out.trace <> None then
          fleet_fail
            "--trace (live Chrome export) is not supported in fleet mode; use \
             --trace-out FILE and `jordctl trace export` instead";
        run_fleet ~app ~rate ~duration ~size ~shards:cluster.shards ~net:config.Server.net
          fleet out
    | None ->
        if fleet.lb <> None then fleet_fail "--lb requires --fleet";
        if fleet.autoscale <> None then fleet_fail "--autoscale requires --fleet";
        if fleet.traffic <> None then fleet_fail "--traffic requires --fleet";
        Result.iter_error (usage_fail ~cmd:"run" "%s") (Server.validate config);
        run_servers ~app ~rate ~duration ~warmup ~config ~cluster ~out
  in
  cmd "run" ~doc:"Run one simulation and print a summary"
    Term.(
      const run $ load_flags ~duration:4000.0 () $ rate_flag $ warmup $ machine_flags
      $ cluster_flags $ output_flags $ fleet_flags)

(* --- stats --- *)

let stats_cmd =
  let filter =
    Arg.(value & opt (some string) None
         & info [ "f"; "filter" ] ~docv:"SUBSTR"
             ~doc:"Only show metric families whose name contains SUBSTR.")
  in
  let run (app, variant, duration) rate sample_us filter =
    let config = { Server.default_config with variant } in
    let tel = telemetry sample_us in
    ignore
      (Jord_workloads.Loadgen.run ~on_server:(watch_server tel) ~warmup:200 ~app ~config
         ~rate_mrps:rate ~duration_us:duration ());
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
    print_string (Jord_telemetry.Timeline.render_snapshot ?filter:name_filter tel.registry);
    match tel.sampler with
    | Some sampler when Jord_telemetry.Sampler.samples_taken sampler > 0 ->
        print_newline ();
        print_string (Jord_telemetry.Timeline.render_series sampler)
    | _ -> ()
  in
  cmd "stats" ~doc:"Run one simulation and show its full metric snapshot + timelines"
    Term.(
      const run $ load_flags ~duration:2000.0 () $ rate_flag
      $ sample_us_flag "Sampling interval over simulated time." $ filter)

(* --- bench --- *)

let bench_cmd =
  let names =
    let all = Jord_exp.Benchmarks.names in
    Arg.(value & pos_all (enum (List.map (fun e -> (e, e)) all)) all
         & info [] ~docv:"EXPERIMENT"
             ~doc:("Structured benchmarks to run (default: all): " ^ String.concat ", " all ^ "."))
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
        let doc = Jord_exp.Benchmarks.run ~quick name in
        print_string (Jord_exp.Benchmarks.render doc);
        print_newline ();
        Option.iter
          (fun dir ->
            Printf.printf "wrote %s\n"
              (write_with dir (fun dir -> Jord_util.Bench_json.write_dir ~dir doc)))
          json_out)
      names
  in
  cmd "bench" ~doc:"Run the structured benchmark suite (machine-readable BENCH_*.json)"
    Term.(const run $ names $ quick $ json_out)

(* --- exp --- *)

let exp_cmd =
  let experiments =
    let all = Jord_exp.Experiments.all in
    Arg.(value & pos_all (enum (List.map (fun e -> (e.Jord_exp.Experiments.name, e)) all)) all
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
  let run experiments quick jobs =
    Jord_exp.Exp_common.set_jobs jobs;
    List.iter
      (fun (e : Jord_exp.Experiments.t) ->
        Printf.printf "\n== %s ==\n%!" e.name;
        print_string (e.report ~quick ~seeds:1))
      experiments
  in
  cmd "exp" ~doc:"Regenerate the paper's tables and figures"
    Term.(const run $ experiments $ quick $ jobs)

(* --- sweep --- *)

let sweep_cmd =
  let rates =
    Arg.(value
         & opt (narrow (fun l -> l <> []) "must name at least one rate" (list pos_float))
             [ 1.0; 2.0; 4.0; 6.0; 8.0; 10.0; 12.0 ]
         & info [ "r"; "rates" ] ~docv:"R1,R2,..." ~doc:"Loads to sweep (MRPS).")
  in
  let slo =
    Arg.(value & opt (some pos_float) None
         & info [ "slo" ] ~docv:"US" ~doc:"p99 SLO in us (default: 10x the min-load mean of this system).")
  in
  let run (app, variant, duration) rates slo =
    let config = { Server.default_config with variant } in
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
  cmd "sweep" ~doc:"Sweep offered load and report throughput under SLO"
    Term.(
      const run
      $ load_flags ~duration:3000.0
          ~docs:("Workload to sweep.", "System variant.", "Arrival window per point.")
          ()
      $ rates $ slo)

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
    write_with dir (fun dir ->
        List.iter (Printf.printf "wrote %s\n") (Jord_exp.Export.all ~dir ~quick ()))
  in
  cmd "export" ~doc:"Write every experiment's data as CSV files" Term.(const run $ dir $ quick)

(* --- trace and slo: offline analysis of a --trace-out file --- *)

let file_pos =
  Arg.(required & pos 0 (some file) None
       & info [] ~docv:"FILE" ~doc:"JSONL trace written by $(b,jordctl run --trace-out).")

let load path =
  match Tracefile.load ~path with Error msg -> usage_fail "%s" msg | Ok loaded -> loaded

(* A wrapped ring means every report covers a suffix of the run only — say
   so where the user will see it. *)
let warn_truncated (l : Tracefile.server) =
  if l.truncated then
    Printf.eprintf "WARNING: ring truncated, %d events dropped\n"
      (l.total_emitted - List.length l.events)

let trace_cmd =
  (* Load once, match once: either kind of trace file yields the shared
     report input plus its own Perfetto export. *)
  let load_report path =
    match load path with
    | Tracefile.Server l ->
        warn_truncated l;
        let r = Tracefile.spans l in
        ( Jord_obsv.Critical_path.report r,
          fun () ->
            Jord_obsv.Export.chrome_json ~orch_cores:(Tracefile.orch_cores l)
              ~events:l.events r )
    | Tracefile.Fleet l -> (Jord_obsv.Freport.report l, fun () -> Jord_obsv.Freport.chrome_json l)
  in
  (* Attribution that does not sum exactly to end-to-end latency is a tool
     bug, not a degraded report — fail loudly (CI greps for this). *)
  let print_checked report t =
    print_string (report t);
    if not (Jord_obsv.Report.conservation_ok t) then exit 3
  in
  let breakdown_cmd =
    let run path = print_checked Jord_obsv.Report.breakdown (fst (load_report path)) in
    cmd "breakdown"
      ~doc:"Per-phase latency attribution per entry function, with the \
            conservation verdict"
      Term.(const run $ file_pos)
  in
  let slowest_cmd =
    let n =
      Arg.(value & opt pos_int 10
           & info [ "n" ] ~docv:"N" ~doc:"How many requests to show.")
    in
    let run path n = print_string (Jord_obsv.Report.slowest ~n (fst (load_report path))) in
    cmd "slowest" ~doc:"The N slowest completed requests with their phase splits"
      Term.(const run $ file_pos $ n)
  in
  let critical_cmd =
    let run path = print_checked Jord_obsv.Report.blame (fst (load_report path)) in
    cmd "critical-path"
      ~doc:"Phase blame per entry function and the p99 tail verdict: along \
            the longest causal chain of each fan-out tree (fleet traces: \
            each request's own phases, plus the per-member view)"
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
      let t, chrome = load_report path in
      emit (Some out)
        (match fmt with
        | `Chrome -> chrome ()
        | `Json -> Jord_obsv.Report.blame_json t
        | `Csv -> Jord_obsv.Report.blame_csv t)
    in
    cmd "export" ~doc:"Convert a trace to a Perfetto document or a blame profile"
      Term.(const run $ file_pos $ out $ fmt)
  in
  group "trace"
    ~doc:"Analyze a --trace-out file (single-node, cluster or fleet): \
          breakdown, slowest, critical-path, export"
    [ breakdown_cmd; slowest_cmd; critical_cmd; export_cmd ]

let slo_cmd =
  let objectives =
    let nonempty =
      narrow (fun objs -> objs <> []) "the spec selects no objectives (preset \"none\")" slo_spec
    in
    Arg.(value & opt nonempty (List.assoc "default" Jord_obsv.Slo.presets)
         & info [ "slo" ] ~absent:"default" ~docv:"SPEC"
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
  let replay path objectives =
    match load path with
    | Tracefile.Fleet _ ->
        (* Fleet traces hold sampled spans, not the complete event stream, so
           an offline SLO replay would silently mis-count; the fleet run
           prints its rollup live (and --slo-out saves it). *)
        usage_fail ~cmd:"slo"
          ~hint:
            "fleet SLO verdicts come from the run itself: `jordctl run --fleet N \
             --slo SPEC [--slo-out FILE]`"
          "%s is a fleet trace (tail-sampled spans, not the full event stream)" path
    | Tracefile.Server l ->
        warn_truncated l;
        (* Finish where the recording run's engine stopped (when the file
           says), so replayed reports match live ones exactly. *)
        let finish_ps =
          match Jord_util.Json.member "end_ps" l.meta with
          | Some (Jord_util.Json.Int i) -> Some i
          | _ -> None
        in
        Jord_obsv.Online.replay ~objectives ?finish_ps l.events
  in
  let verb (name, doc, renderers) =
    let fmt =
      let names = List.map fst renderers in
      Arg.(value & opt (enum (List.map (fun n -> (n, n)) names)) (List.hd names)
           & info [ "format" ] ~docv:"FMT" ~doc:(String.concat " or " names ^ "."))
    in
    let run path objectives fmt out =
      emit out ((List.assoc fmt renderers) (replay path objectives))
    in
    cmd name ~doc Term.(const run $ file_pos $ objectives $ fmt $ out)
  in
  group "slo" ~doc:"Evaluate SLO objectives over a recorded trace: report, alerts, burn"
    (List.map verb
       Jord_obsv.Online.
         [
           ( "report",
             "Verdict table per objective (requests, budget burn, measured \
              quantile, alert counts)",
             [ ("text", report_text); ("json", report_json) ] );
           ( "alerts",
             "The chronological burn-rate alert log (fire/resolve transitions)",
             [ ("text", alerts_text); ("json", alerts_json) ] );
           ( "burn",
             "Per-window burn rates for every objective, with a sparkline",
             [ ("text", burn_text); ("csv", burn_csv) ] );
         ])

(* --- list --- *)

let list_cmd =
  let run () =
    Printf.printf "workloads:   %s\n" (String.concat ", " (List.map fst workloads));
    Printf.printf "systems:     %s\n" (String.concat ", " (List.map fst variants));
    Printf.printf "policies:    %s\n" (String.concat ", " (List.map fst policies));
    Printf.printf "experiments: %s\n" (String.concat ", " Jord_exp.Experiments.names);
    List.iter
      (fun (name, app) ->
        Printf.printf "\n%s:\n" name;
        List.iter
          (fun fn -> Printf.printf "  %s\n" fn.Jord_faas.Model.name)
          app.Jord_faas.Model.fns)
      workloads
  in
  cmd "list" ~doc:"List workloads, systems and experiments" Term.(const run $ const ())

let () =
  let doc = "Jord: single-address-space FaaS (ISCA'25) — reproduction driver" in
  let main =
    Cmd.group (Cmd.info "jordctl" ~version:"1.0.0" ~doc ~exits)
      [ run_cmd; stats_cmd; sweep_cmd; exp_cmd; bench_cmd; export_cmd; trace_cmd; slo_cmd; list_cmd ]
  in
  (* Cmdliner's own command-line errors join every other usage error on 2. *)
  exit (match Cmd.eval main with 124 -> 2 | code -> code)
