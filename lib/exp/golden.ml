(* Golden-run scenarios: a fixed set of seeded simulations whose outputs are
   checked bit-for-bit against test/golden.expected. The scenarios cover the
   paths a core refactor can disturb — the event engine's ordering, the
   executor/orchestrator interplay, cross-server forwarding, and the Poisson
   load generator — so any change to a measured number shows up as a diff.

   Every float is printed with %.17g: two runs agree only if they performed
   the exact same arithmetic in the exact same order. *)

module Server = Jord_faas.Server
module Cluster = Jord_faas.Cluster
module Variant = Jord_faas.Variant
module Request = Jord_faas.Request
module Engine = Jord_sim.Engine

let f17 = Printf.sprintf "%.17g"

(* The deterministic app of test_server.ml: sync, async and nested chains,
   no sampled phases. *)
let tiny_app =
  let open Jord_faas.Model in
  let leaf name ns =
    { name; make_phases = (fun _ -> [ compute ns ]); state_bytes = 1024; code_bytes = 1024 }
  in
  let mid =
    {
      name = "mid";
      make_phases = (fun _ -> [ compute 150.0; invoke "leafB"; compute 50.0 ]);
      state_bytes = 1024;
      code_bytes = 1024;
    }
  in
  let entry =
    {
      name = "entry";
      make_phases =
        (fun _ ->
          [
            compute 200.0;
            invoke ~mode:Async "leafA";
            invoke "mid";
            wait;
            compute 100.0;
          ]);
      state_bytes = 1024;
      code_bytes = 1024;
    }
  in
  {
    app_name = "tiny";
    fns = [ entry; mid; leaf "leafA" 120.0; leaf "leafB" 80.0 ];
    entries = [ ("entry", 1.0) ];
  }

let root_sums roots =
  List.fold_left
    (fun (lat, ex, iso, disp, comm) (r : Request.root) ->
      ( lat +. Request.latency_ns r,
        ex +. r.Request.exec_ns,
        iso +. r.Request.isolation_ns,
        disp +. r.Request.dispatch_ns,
        comm +. r.Request.comm_ns ))
    (0.0, 0.0, 0.0, 0.0, 0.0) roots

let single_server buf variant =
  let config =
    {
      Server.default_config with
      Server.variant;
      machine = Jord_arch.Config.with_cores Jord_arch.Config.default 8;
      orchestrators = 1;
    }
  in
  let server = Server.create config tiny_app in
  let roots = ref [] in
  Server.on_root_complete server (fun r -> roots := r :: !roots);
  Jord_workloads.Loadgen.fixed_gaps [| server |] ~arrivals:40 ~gap_ns:400.0;
  Server.run server;
  let lat, ex, iso, disp, comm = root_sums !roots in
  Buffer.add_string buf
    (Printf.sprintf
       "server/%s completed=%d live=%d dropped=%d dispatches=%d retries=%d events=%d\n"
       (Variant.name variant) (Server.completed_roots server)
       (Server.live_continuations server)
       (Server.dropped_requests server)
       (Server.dispatch_count server)
       (Server.queue_full_retries server)
       (Engine.processed (Server.engine server)));
  Buffer.add_string buf
    (Printf.sprintf "server/%s latency=%s exec=%s isolation=%s dispatch=%s comm=%s\n"
       (Variant.name variant) (f17 lat) (f17 ex) (f17 iso) (f17 disp) (f17 comm));
  Buffer.add_string buf
    (Printf.sprintf "server/%s dispatch_ns=%s\n" (Variant.name variant)
       (f17 (Server.dispatch_ns_total server)))

let cluster_config =
  {
    Server.default_config with
    Server.machine = Jord_arch.Config.with_cores Jord_arch.Config.default 4;
    orchestrators = 1;
    queue_capacity = 1;
  }

let member_lines buf ~label cluster =
  Array.iteri
    (fun i s ->
      Buffer.add_string buf
        (Printf.sprintf "%s server=%d completed=%d out=%d in=%d\n" label i
           (Server.completed_roots s) (Server.forwarded_out s) (Server.received_in s)))
    (Cluster.servers cluster)

(* Fixed gaps through the load generator's per-engine sources, so the very
   same scenario runs sequentially or sharded: with a fixed seed the two
   must be byte-identical, and CI diffs --shards 1/2/4/8 golden outputs
   against each other to prove it. *)
let cluster_scenario buf ~label ~shards ~servers:n ~arrivals ~gap_ns =
  let cluster =
    Cluster.create ~forward_after:2 ~shards ~servers:n ~config:cluster_config
      Exp_common.fanout_app
  in
  let roots = ref [] in
  Cluster.on_root_complete cluster (fun r -> roots := r :: !roots);
  Jord_workloads.Loadgen.fixed_gaps (Cluster.servers cluster) ~arrivals ~gap_ns;
  Cluster.run cluster;
  let lat, _, iso, disp, comm = root_sums !roots in
  Buffer.add_string buf
    (Printf.sprintf "%s completed=%d events=%d\n" label (List.length !roots)
       (Cluster.events_processed cluster));
  member_lines buf ~label cluster;
  Buffer.add_string buf
    (Printf.sprintf "%s latency=%s isolation=%s dispatch=%s comm=%s\n" label (f17 lat)
       (f17 iso) (f17 disp) (f17 comm))

let cluster buf ~shards = cluster_scenario buf ~label:"cluster" ~shards ~servers:3 ~arrivals:120 ~gap_ns:900.0

(* Six servers so a --shards 4 run actually partitions (two shards hold two
   servers each) and cross-shard forwards dominate the ring. *)
let cluster6 buf ~shards =
  cluster_scenario buf ~label:"cluster6" ~shards ~servers:6 ~arrivals:180 ~gap_ns:450.0

(* Poisson arrivals at JBSQ bound 1 through [Loadgen.run_cluster], the
   path jordctl and the benchmark drive, so CI's --shards diffs cover it. *)
let cluster_poisson buf ~shards =
  let label = "cluster_poisson" in
  let cluster, recorder =
    Jord_workloads.Loadgen.run_cluster ~warmup:50 ~forward_after:1 ~shards ~servers:4
      ~app:Exp_common.fanout_app ~config:cluster_config ~rate_mrps:2.0 ~duration_us:140.0 ()
  in
  let open Jord_metrics.Recorder in
  Buffer.add_string buf
    (Printf.sprintf "%s count=%d events=%d forwarded=%d p50=%s p99=%s\n" label
       (count recorder) (Cluster.events_processed cluster) (Cluster.forwarded cluster)
       (f17 (p50_us recorder)) (f17 (p99_us recorder)));
  member_lines buf ~label cluster

let loadgen buf (label, app, variant, rate) =
  let config = { Server.default_config with Server.variant } in
  let server, recorder =
    Jord_workloads.Loadgen.run ~warmup:100 ~app ~config ~rate_mrps:rate
      ~duration_us:600.0 ()
  in
  let open Jord_metrics.Recorder in
  Buffer.add_string buf
    (Printf.sprintf "loadgen/%s count=%d events=%d mean=%s p50=%s p99=%s tput=%s\n"
       label (count recorder)
       (Engine.processed (Server.engine server))
       (f17 (mean_us recorder)) (f17 (p50_us recorder)) (f17 (p99_us recorder))
       (f17 (throughput_mrps recorder)))

(* Every scenario is a self-contained seeded simulation writing its own
   buffer, so the list can run on a domain pool: parmap returns the pieces
   in this exact order and the concatenation is byte-identical to a
   sequential run at any job count (CI diffs -j 1/4/8 against the golden
   file to prove it). *)
let scenarios ~shards : (unit -> string) list =
  let in_buf f () =
    let buf = Buffer.create 1024 in
    f buf;
    Buffer.contents buf
  in
  List.map
    (fun v -> in_buf (fun buf -> single_server buf v))
    [ Variant.Jord; Variant.Jord_ni; Variant.Jord_bt; Variant.Nightcore ]
  @ [ in_buf (cluster ~shards); in_buf (cluster6 ~shards) ]
  @ List.map
      (fun case -> in_buf (fun buf -> loadgen buf case))
      [
        ("hipster-jord", Jord_workloads.Hipster.app, Variant.Jord, 1.0);
        ("hotel-ni", Jord_workloads.Hotel.app, Variant.Jord_ni, 0.8);
        ("hipster-nightcore", Jord_workloads.Hipster.app, Variant.Nightcore, 0.4);
      ]
  @ [ in_buf (cluster_poisson ~shards) ]

let report ?(jobs = 1) ?(shards = 1) () =
  let scenarios = scenarios ~shards in
  let parts =
    if jobs <= 1 then List.map (fun f -> f ()) scenarios
    else
      Jord_par.Pool.with_pool ~jobs (fun pool ->
          Jord_par.Pool.parmap pool (fun f -> f ()) scenarios)
  in
  "# jord golden run (seeded, bit-exact)\n" ^ String.concat "" parts
