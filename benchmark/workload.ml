(* The four benchmark workloads. All are open loop: arrivals are simulated
   and scheduled independently of completions, so the generator is never
   late. Every seed of a run derives from the benchmark's [--seed].

   Each workload stresses a different set of layers, so an optimisation of
   one layer has a workload that exercises it and one that bypasses it:

   - server_hipster: one detailed server, short functions — engine,
     orchestrator/executor, PrivLib, VM and memsys dominate; no netmodel,
     shards, fleet or observability plane.
   - server_media_slo: the same server with deep async fan-out (more
     suspend/resume, ArgBuf moves, coherence forwards per request) and the
     only detailed workload with the Trace + online SLO plane attached.
   - cluster_fanout: the only workload that forwards across servers and
     runs the sharded engine (netmodel, shard mailboxes, domain pool).
   - fleet_diurnal_flash: population scale — balancer, autoscaler, traffic,
     SLO rollup and tail sampler; memsys/PrivLib/VM are not on its path,
     and its pre-scheduled arrival stream makes memory a real cost. *)

module Server = Jord_faas.Server
module Cluster = Jord_faas.Cluster
module Loadgen = Jord_workloads.Loadgen
module Recorder = Jord_metrics.Recorder
module Registry = Jord_telemetry.Registry
module Sketch = Jord_telemetry.Sketch
module Export = Jord_telemetry.Export
module Fleet = Jord_fleet.Fleet
module Online = Jord_obsv.Online
module Ftrace = Jord_obsv.Ftrace
module Rollup = Jord_obsv.Rollup
module Time = Jord_sim.Time

let derive seed salt = Hashtbl.hash (seed, salt)

let parsed what = function Ok v -> v | Error m -> failwith (what ^ ": " ^ m)

(* What one run produced. Everything but the three host times is a pure
   function of the seed and the scale. *)
type outcome = {
  setup_s : float;  (** Building the simulated system. *)
  run_s : float;  (** End of setup until results and reports are in hand. *)
  report_s : float;  (** The end-of-run report step alone (part of [run_s]). *)
  arrivals : int;
  completed : int;
  shed : int;  (** Dropped, timed out or shed. *)
  lat_n : int;  (** Latency samples behind the quantiles. *)
  p50_us : float;
  p99_us : float;
  events : int;
  sim_sig : string;  (** Simulated results; equal across reps and twins. *)
  obsv_sig : string;  (** What the observability plane saw. *)
  errors : string list;  (** Failed correctness checks. *)
}

(* Per-layer counts read after a run from public accessors and metric
   registries. Zero where the layer is not on the workload's path. *)
type counts = {
  dispatches : float;
  queue_full_retries : float;
  queue_wait_ns : float;
  forwards : float;
  privlib_calls : float;
  privlib_ns : float;
  mmap_munmap_calls : float;
  cget_cput_calls : float;
  vlb_hits : float;
  vlb_misses : float;
  walks : float;
  shootdowns : float;
  l1_hits : float;
  l1_misses : float;
  mem_forwards : float;
  invalidations : float;
  trace_events : float;
  slo_windows : float;
  slo_transitions : float;
  retained : float;
  offered : float;
  routed : float;
  affinity_hits : float;
  cold_starts : float;
  boots : float;
  drains : float;
  up_max : float;
}

let no_counts =
  {
    dispatches = 0.;
    queue_full_retries = 0.;
    queue_wait_ns = 0.;
    forwards = 0.;
    privlib_calls = 0.;
    privlib_ns = 0.;
    mmap_munmap_calls = 0.;
    cget_cput_calls = 0.;
    vlb_hits = 0.;
    vlb_misses = 0.;
    walks = 0.;
    shootdowns = 0.;
    l1_hits = 0.;
    l1_misses = 0.;
    mem_forwards = 0.;
    invalidations = 0.;
    trace_events = 0.;
    slo_windows = 0.;
    slo_transitions = 0.;
    retained = 0.;
    offered = 0.;
    routed = 0.;
    affinity_hits = 0.;
    cold_starts = 0.;
    boots = 0.;
    drains = 0.;
    up_max = 0.;
  }

(* Sum a metric family over every label set [where] accepts. *)
let family snap ?(where = fun _ -> true) name =
  List.fold_left
    (fun acc (s : Registry.sample) ->
      if s.Registry.name = name && where s.Registry.labels then
        match s.Registry.value with
        | Registry.Counter_v v | Registry.Gauge_v v -> acc +. v
        | Registry.Histogram_v _ -> acc
      else acc)
    0.0 snap

let label key values labels =
  match List.assoc_opt key labels with Some v -> List.mem v values | None -> false

(* The detailed machine's counters, from the registry that
   [Server/Cluster.register_metrics] filled. *)
let machine_counts reg =
  let snap = Registry.snapshot reg in
  let f = family snap in
  let ops names = family snap ~where:(label "op" names) "jord_privlib_calls_total" in
  {
    no_counts with
    dispatches = f "jord_server_dispatches_total";
    queue_full_retries = f "jord_server_queue_full_retries_total";
    queue_wait_ns = f "jord_server_queue_wait_ns_total";
    forwards = f "jord_server_forwarded_out_total";
    privlib_calls = f "jord_privlib_calls_total";
    privlib_ns = f "jord_privlib_ns_total";
    mmap_munmap_calls = ops [ "mmap"; "munmap" ];
    cget_cput_calls = ops [ "cget"; "cput" ];
    vlb_hits = f "jord_vlb_hits_total";
    vlb_misses = f "jord_vlb_misses_total";
    walks = f "jord_vtw_walks_total";
    shootdowns = f "jord_vlb_shootdowns_total";
    l1_hits = f ~where:(label "level" [ "l1" ]) "jord_mem_hits_total";
    l1_misses = f "jord_mem_l1_misses_total";
    mem_forwards = f "jord_mem_forwards_total";
    invalidations = f "jord_mem_invalidations_total";
  }

let us_of_ps ps = float_of_int ps /. 1e6

(* Warmup completions the recorder discards, scaled down with the window. *)
let warmup scale = Int.max 10 (int_of_float (500.0 *. Float.min 1.0 scale))

(* A span over stamps taken on both sides of a library hook. *)
let stamp sp name ~start_ns ~end_ns =
  Option.iter (fun t -> Spans.add t name ~start_ns ~end_ns) sp

(* Time the results and report steps that follow a drained run, and fold
   the phase times into the outcome. *)
let conclude sp ~t0 ~t_setup ~results ~report =
  stamp sp "setup" ~start_ns:t0 ~end_ns:t_setup;
  let o = Spans.opt sp "results" results in
  let (obsv_sig, counts), report_s = Clock.timed (fun () -> Spans.opt sp "report" report) in
  let s ns = float_of_int ns *. 1e-9 in
  ( {
      o with
      setup_s = s (t_setup - t0);
      run_s = s (Clock.now_ns () - t_setup);
      report_s;
      obsv_sig;
    },
    counts )

let blank =
  {
    setup_s = 0.;
    run_s = 0.;
    report_s = 0.;
    arrivals = 0;
    completed = 0;
    shed = 0;
    lat_n = 0;
    p50_us = 0.;
    p99_us = 0.;
    events = 0;
    sim_sig = "";
    obsv_sig = "";
    errors = [];
  }

let latency_sig o =
  Printf.sprintf "arr=%d done=%d shed=%d events=%d n=%d p50=%.17g p99=%.17g" o.arrivals
    o.completed o.shed o.events o.lat_n o.p50_us o.p99_us

(* --- the detailed single server ------------------------------------------ *)

type server_spec = {
  app : Jord_faas.Model.app;
  rate_mrps : float;
  slo : string option;  (** Objectives of an attached Trace + Online plane. *)
}

let slice_us = 100.0

let server_results server recorder =
  let o =
    {
      blank with
      arrivals = Server.arrivals server;
      completed = Server.completed_roots server;
      shed = Server.dropped_requests server + Server.timed_out_requests server;
      lat_n = Recorder.count recorder;
      p50_us = Recorder.p50_us recorder;
      p99_us = Recorder.p99_us recorder;
      events = Jord_sim.Engine.processed (Server.engine server);
    }
  in
  let in_flight = Server.in_flight server in
  {
    o with
    sim_sig = latency_sig o;
    errors =
      Server.check_invariants server
      @ (if in_flight = 0 then [] else [ Printf.sprintf "in_flight=%d after drain" in_flight ]);
  }

let server_run spec ~window_us ~sp ~seed ~scale ~twin =
  let config =
    {
      (Jord_exp.Exp_common.config_for Jord_faas.Variant.Jord) with
      Server.seed = derive seed "server";
    }
  in
  let duration_us = window_us *. scale in
  let t0 = Clock.now_ns () in
  let plane =
    match spec.slo with
    | Some s when not twin ->
        let tracer = Jord_faas.Trace.create () in
        let online = Online.create (parsed "slo" (Jord_obsv.Slo.parse s)) in
        Online.attach online tracer;
        Some (tracer, online)
    | _ -> None
  in
  (* [Loadgen.run] step by step, so the drain can be cut into [slice_us]
     slices with a span each when traced. *)
  let server = Server.create config spec.app in
  let t_setup = Clock.now_ns () in
  Option.iter (fun (tr, _) -> Server.set_tracer server (Some tr)) plane;
  let recorder = Recorder.create ~warmup:(warmup scale) () in
  Server.on_root_complete server (Recorder.observe recorder);
  let (_ : Loadgen.t) =
    Loadgen.start ~server ~rate_mrps:spec.rate_mrps ~duration:(Time.of_us duration_us)
      ~seed:(derive seed "loadgen")
  in
  let horizon = 3.0 *. duration_us in
  Spans.opt sp "run" (fun () ->
      let rec go from =
        if from < horizon then begin
          let until = Float.min horizon (from +. slice_us) in
          Spans.opt sp "run.slice" (fun () -> Server.run ~until:(Time.of_us until) server);
          go until
        end
      in
      go 0.0);
  conclude sp ~t0 ~t_setup
    ~results:(fun () -> server_results server recorder)
    ~report:(fun () ->
      let reg = Registry.create () in
      Server.register_metrics server reg;
      let obsv_sig, (emitted, windows, transitions) =
        match plane with
        | None -> ("none", (0, 0, 0))
        | Some (tracer, online) ->
            Spans.opt sp "obsv.finish" (fun () ->
                Online.finish online ~now_ps:(Jord_sim.Engine.now (Server.engine server)));
            Online.register_metrics online reg;
            let text = Online.report_text online ^ Online.report_json online in
            let snaps = Online.snapshot online in
            let sum f = List.fold_left (fun acc s -> acc + f s) 0 snaps in
            let emitted = Jord_faas.Trace.total_emitted tracer in
            let windows = sum (fun s -> s.Online.s_windows_closed) in
            let transitions = sum (fun s -> s.Online.s_fired + s.Online.s_resolved) in
            ( Printf.sprintf "emitted=%d windows=%d transitions=%d bad=%d report=%d" emitted windows
                transitions
                (sum (fun s -> s.Online.s_bad))
                (String.length text),
              (emitted, windows, transitions) )
      in
      let (_ : string) = Spans.opt sp "report.export" (fun () -> Export.to_prometheus reg) in
      ( obsv_sig,
        fun () ->
          {
            (machine_counts reg) with
            trace_events = float_of_int emitted;
            slo_windows = float_of_int windows;
            slo_transitions = float_of_int transitions;
          } ))

(* The Media mix without its ReadPage entry. ReadPage is 0.8% of the mix
   and ~108 nested calls deep, so the 99th percentile sits on the boundary
   of that class and swings 25-140% between seeds; the write path keeps
   the deep async fan-out (batched UploadUniqueId, ComposeReview joins). *)
let media_write =
  let app = Jord_workloads.Media.app in
  {
    app with
    Jord_faas.Model.entries =
      List.filter (fun (name, _) -> name <> Jord_workloads.Media.read_page) app.Jord_faas.Model.entries;
  }

(* --- the cluster: forwarding across servers on parallel shards ----------- *)

(* Entry -> 6 async 2 us leaves on 7 executors with JBSQ bound 2. At
   3.0 Mrps fan-out bursts overflow a server's queues now and then (a
   handful of forwards per run) while the load stays below saturation: at
   4.0 Mrps forwarding storms make p50 swing 90% from one seed to the
   next. Bound 1 would forward ~3% of requests, but there the sharded run
   diverges from the sequential one on some seeds (seed 1: 397476 vs
   397445 events), which fails the twin check. *)
let fanout_app =
  let open Jord_faas.Model in
  let leaf =
    { name = "leaf"; make_phases = (fun _ -> [ compute 2000.0 ]); state_bytes = 1024; code_bytes = 1024 }
  in
  let entry =
    {
      name = "entry";
      make_phases =
        (fun _ -> List.init 6 (fun _ -> invoke ~mode:Async ~arg_bytes:256 "leaf") @ [ wait ]);
      state_bytes = 1024;
      code_bytes = 1024;
    }
  in
  { app_name = "fanout"; fns = [ entry; leaf ]; entries = [ ("entry", 1.0) ] }

let cluster_run ~window_us ~sp ~seed ~scale ~twin =
  let shards = if twin then 1 else 2 in
  let config =
    {
      (Jord_exp.Exp_common.config_for Jord_faas.Variant.Jord) with
      Server.machine = Jord_arch.Config.with_cores Jord_arch.Config.default 8;
      orchestrators = 1;
      queue_capacity = 2;
      seed = derive seed "server";
    }
  in
  let t0 = Clock.now_ns () in
  let t_setup = ref t0 in
  let cluster, recorder =
    Loadgen.run_cluster ~warmup:(warmup scale)
      ~on_cluster:(fun _ -> t_setup := Clock.now_ns ())
      ~forward_after:2 ~shards ~servers:8 ~app:fanout_app ~config ~rate_mrps:3.0
      ~duration_us:(window_us *. scale) ~seed:(derive seed "loadgen") ()
  in
  stamp sp "run" ~start_ns:!t_setup ~end_ns:(Clock.now_ns ());
  let members = Cluster.servers cluster in
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 members in
  conclude sp ~t0 ~t_setup:!t_setup
    ~results:(fun () ->
      let o =
        {
          blank with
          arrivals = sum Server.arrivals;
          completed = sum Server.completed_roots;
          shed = sum Server.dropped_requests + sum Server.timed_out_requests;
          lat_n = Recorder.count recorder;
          p50_us = Recorder.p50_us recorder;
          p99_us = Recorder.p99_us recorder;
          events = Cluster.events_processed cluster;
        }
      in
      let in_flight = sum Server.in_flight and pending = Cluster.pending_transfers cluster in
      {
        o with
        sim_sig = Printf.sprintf "%s forwarded=%d" (latency_sig o) (Cluster.forwarded cluster);
        errors =
          Cluster.check_invariants cluster
          @ (if in_flight = 0 then [] else [ Printf.sprintf "in_flight=%d after drain" in_flight ])
          @ if pending = 0 then [] else [ Printf.sprintf "%d transfers pending after drain" pending ];
      })
    ~report:(fun () ->
      let reg = Registry.create () in
      Cluster.register_metrics cluster reg;
      let (_ : string) = Spans.opt sp "report.export" (fun () -> Export.to_prometheus reg) in
      ("none", fun () -> machine_counts reg))

(* --- the datacenter fleet ------------------------------------------------- *)

let fleet_config ~seed =
  {
    Fleet.default_config with
    Fleet.servers = 200;
    member =
      {
        Jord_fleet.Fserver.default_config with
        Jord_fleet.Fserver.slots = 8;
        queue_cap = 32;
        seed = derive seed "member";
      };
    autoscale = Some (parsed "autoscale" (Jord_fleet.Autoscaler.parse "fast,min=12,boot-us=60"));
    shards = 1;
    service_seed = derive seed "service";
  }

let fleet_shape ~seed =
  {
    (parsed "traffic"
       (Jord_workloads.Traffic.parse
          "users=1000000,zipf=1.1,rate=40,amp=0.5,period-us=5000,flash=8000:1500:3"))
    with
    Jord_workloads.Traffic.seed = derive seed "traffic";
  }

let fleet_app = Jord_workloads.Hipster.app

let fleet_run ~window_us ~sp ~seed ~scale ~twin =
  let duration_us = window_us *. scale in
  let cfg = fleet_config ~seed and shape = fleet_shape ~seed in
  let slo = parsed "slo" (Jord_obsv.Slo.parse "ci") in
  let t0 = Clock.now_ns () in
  let fleet = Fleet.create cfg ~app:fleet_app in
  let t_setup = Clock.now_ns () in
  let tracer = if twin then None else Some (Ftrace.create ~seed:(derive seed "ftrace") ()) in
  Fleet.run ~slo ?tracer fleet ~shape ~duration_us;
  stamp sp "run" ~start_ns:t_setup ~end_ns:(Clock.now_ns ());
  let rollup = Fleet.rollup fleet in
  let retained_ids = Option.map Ftrace.retained_ids tracer in
  conclude sp ~t0 ~t_setup
    ~results:(fun () ->
      let lat = Fleet.latency fleet in
      let o =
        {
          blank with
          arrivals = Fleet.arrivals fleet;
          completed = Fleet.completed fleet;
          shed = Fleet.shed fleet;
          lat_n = Sketch.count lat;
          p50_us = us_of_ps (Sketch.quantile lat 50.0);
          p99_us = us_of_ps (Sketch.quantile lat 99.0);
          events = Fleet.events_processed fleet;
        }
      in
      let rows =
        match rollup with
        | None -> []
        | Some r ->
            List.map
              (fun (row : Rollup.row) ->
                Printf.sprintf "%s:%d/%d/%d:%s" row.Rollup.r_objective.Jord_obsv.Slo.name
                  row.Rollup.r_requests row.Rollup.r_bad row.Rollup.r_shed row.Rollup.r_verdict)
              (Rollup.rows r)
      in
      let exemplars =
        match rollup with
        | None -> []
        | Some r ->
            List.map (fun (row : Rollup.row) -> row.Rollup.r_exemplar) (Rollup.rows r)
            @ List.concat_map
                (fun (_, ws) -> List.map (fun (w : Rollup.closed_window) -> w.Rollup.cw_exemplar) ws)
                (Rollup.windows r)
      in
      let missing =
        match retained_ids with
        | None -> []
        | Some ids -> List.filter (fun id -> id >= 0 && not (List.mem id ids)) exemplars
      in
      let outstanding = Fleet.outstanding_now fleet in
      {
        o with
        sim_sig =
          Printf.sprintf "%s routed=%d hits=%d cold=%d boots=%d drains=%d slo=[%s]" (latency_sig o)
            (Fleet.routed fleet) (Fleet.affinity_hits fleet) (Fleet.cold_starts fleet)
            (Fleet.boots fleet) (Fleet.drains fleet) (String.concat ";" rows);
        errors =
          (if o.arrivals = o.completed + o.shed then []
           else [ Printf.sprintf "arrivals %d <> completed %d + shed %d" o.arrivals o.completed o.shed ])
          @ (if outstanding = 0 then [] else [ Printf.sprintf "outstanding=%d after drain" outstanding ])
          @ List.map (Printf.sprintf "rollup exemplar %d not in the retained trace") missing;
      })
    ~report:(fun () ->
      let text = match rollup with Some r -> Rollup.report_text r | None -> "" in
      let lines =
        match tracer with
        | None -> []
        | Some tr ->
            List.map (fun (keep, s) -> Jord_obsv.Fspan.to_json_line ~keep s) (Ftrace.retained tr)
      in
      let (_ : string) =
        Spans.opt sp "report.export" (fun () -> Export.to_prometheus (Fleet.registry fleet))
      in
      let obsv_sig =
        match tracer with
        | None -> "none"
        | Some tr ->
            Printf.sprintf "offered=%d retained=%d bytes=%d keep=[%s]" (Ftrace.offered tr)
              (List.length lines)
              (String.length text + List.fold_left (fun a l -> a + String.length l) 0 lines)
              (String.concat ";"
                 (List.map (fun (k, n) -> Printf.sprintf "%s:%d" k n) (Ftrace.keep_counts tr)))
      in
      ( obsv_sig,
        fun () ->
          let f = float_of_int in
          let rows = match rollup with Some r -> Rollup.rows r | None -> [] in
          let sum g = List.fold_left (fun acc row -> acc + g row) 0 rows in
          {
            no_counts with
            slo_windows = f (sum (fun row -> row.Rollup.r_windows_closed));
            slo_transitions = f (sum (fun row -> row.Rollup.r_fired + row.Rollup.r_resolved));
            retained = f (List.length lines);
            offered = f (match tracer with Some tr -> Ftrace.offered tr | None -> 0);
            routed = f (Fleet.routed fleet);
            affinity_hits = f (Fleet.affinity_hits fleet);
            cold_starts = f (Fleet.cold_starts fleet);
            boots = f (Fleet.boots fleet);
            drains = f (Fleet.drains fleet);
            up_max = f (snd (Fleet.up_range fleet));
          } ))

(* --- the registry ---------------------------------------------------------- *)

(* The traced run's twin: the same seeded run with one thing changed, to
   price that thing. *)
type twin = Shards_1 | Without_obsv

let twin_name = function Shards_1 -> "shards=1" | Without_obsv -> "no observability plane"

type t = {
  name : string;
  why : string;
  window_us : float;  (** Full-size arrival window. *)
  detailed : bool;  (** Runs the detailed server model (not the fleet). *)
  twin : twin option;
  run :
    window_us:float ->
    sp:Spans.t option ->
    seed:int ->
    scale:float ->
    twin:bool ->
    outcome * (unit -> counts);
}

(* The fleet's arrival window; the traced run also walks its traffic shape
   in isolation. *)
let fleet_window_us = 15000.0

let all =
  [
    {
      name = "server_hipster";
      why = "one detailed Jord server, Hipster mix at 4.0 Mrps: the paper's headline single-server case";
      window_us = 3000.0;
      detailed = true;
      twin = None;
      run = server_run { app = Jord_workloads.Hipster.app; rate_mrps = 4.0; slo = None };
    };
    {
      name = "server_media_slo";
      why = "the same server with the deep async Media write mix at 2.5 Mrps and a Trace + online SLO plane";
      window_us = 3000.0;
      detailed = true;
      twin = Some Without_obsv;
      run =
        server_run
          {
            app = media_write;
            rate_mrps = 2.5;
            slo = Some "p=99,threshold_us=10,window_us=100,budget=0.02,slow=3";
          };
    };
    {
      name = "cluster_fanout";
      why = "8 servers running fan-out requests on 2 engine shards, forwarding bursts over the network model";
      window_us = 3000.0;
      detailed = true;
      twin = Some Shards_1;
      run = cluster_run;
    };
    {
      name = "fleet_diurnal_flash";
      why = "200-member autoscaled fleet under diurnal + flash-crowd Zipf population traffic";
      window_us = fleet_window_us;
      detailed = false;
      twin = Some Without_obsv;
      run = fleet_run;
    };
  ]

(* Run [w] over its own arrival window, scaled by [scale]. *)
let run w ~sp ~seed ~scale ~twin = w.run ~window_us:w.window_us ~sp ~seed ~scale ~twin

let find name = List.find_opt (fun w -> w.name = name) all
let names = List.map (fun w -> w.name) all
