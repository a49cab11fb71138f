open Jord_faas
module Time = Jord_sim.Time

(* A small machine with tight queues: with [Exp_common.fanout_app], the
   recipe for internal requests that cannot be placed locally. *)
let small_config =
  {
    Server.default_config with
    Server.machine = Jord_arch.Config.with_cores Jord_arch.Config.default 4;
    orchestrators = 1;
    queue_capacity = 1;
  }

let run_cluster ~servers n_requests =
  let cluster =
    Cluster.create ~forward_after:2 ~servers ~config:small_config
      Jord_exp.Exp_common.fanout_app
  in
  let count = ref 0 in
  Cluster.on_root_complete cluster (fun r ->
      Alcotest.(check bool) "finished flag" true r.Request.finished;
      incr count);
  let engine = Cluster.engine cluster in
  for i = 0 to n_requests - 1 do
    Jord_sim.Engine.schedule_at engine
      ~time:(Time.of_ns (float_of_int i *. 900.0))
      (fun _ -> Cluster.submit cluster ())
  done;
  Cluster.run cluster;
  (cluster, !count)

let test_forwarding_completes_everything () =
  let cluster, completed = run_cluster ~servers:3 120 in
  Alcotest.(check int) "all requests complete" 120 completed;
  Alcotest.(check bool)
    (Printf.sprintf "some requests were forwarded (%d)" (Cluster.forwarded cluster))
    true
    (Cluster.forwarded cluster > 0);
  Array.iter
    (fun s ->
      Alcotest.(check int)
        "server drained"
        0
        (Server.live_continuations s))
    (Cluster.servers cluster)

let test_forward_conservation () =
  let cluster, _ = run_cluster ~servers:3 120 in
  let out = Array.fold_left (fun a s -> a + Server.forwarded_out s) 0 (Cluster.servers cluster) in
  let inn = Array.fold_left (fun a s -> a + Server.received_in s) 0 (Cluster.servers cluster) in
  Alcotest.(check int) "everything sent was received" out inn;
  Alcotest.(check (list string)) "cluster-wide invariants hold" []
    (Cluster.check_invariants cluster)

let test_single_server_never_forwards () =
  let cluster, completed = run_cluster ~servers:1 60 in
  Alcotest.(check int) "completes alone" 60 completed;
  Alcotest.(check int) "no peers, no forwarding" 0 (Cluster.forwarded cluster)

let test_forwarding_disabled_by_default () =
  (* Without a forward callback the server just retries; everything still
     completes, only slower. *)
  let server = Server.create small_config Jord_exp.Exp_common.fanout_app in
  let count = ref 0 in
  Server.on_root_complete server (fun _ -> incr count);
  let engine = Server.engine server in
  for i = 0 to 39 do
    Jord_sim.Engine.schedule_at engine
      ~time:(Time.of_ns (float_of_int i *. 2000.0))
      (fun _ -> Server.submit server ())
  done;
  Server.run server;
  Alcotest.(check int) "completes without forwarding" 40 !count;
  Alcotest.(check int) "no forwards" 0 (Server.forwarded_out server)

let test_forwarded_latency_includes_network () =
  (* Compare mean latency with and without a remote hop under pressure:
     the cluster pays the wire but gains capacity, so everything still
     completes with sane latencies. *)
  let _, completed = run_cluster ~servers:2 80 in
  Alcotest.(check int) "cluster of 2 completes" 80 completed

let test_no_cross_server_leaks () =
  let cluster, _ = run_cluster ~servers:3 100 in
  Array.iter
    (fun s ->
      let priv = Server.privlib s in
      Alcotest.(check int) "no PDs leaked" 0
        (Jord_privlib.Pd.live_count (Jord_privlib.Privlib.pds priv));
      (* 3 bootstrap VMAs + 2 function code VMAs per server; every ArgBuf —
         including re-materialized forwarded ones — was reclaimed. *)
      Alcotest.(check int) "no VMAs leaked" 5
        (Jord_vm.Vma_store.count (Jord_vm.Hw.store (Server.hw s))))
    (Cluster.servers cluster);
  Alcotest.(check (list string)) "invariant checker agrees" []
    (Cluster.check_invariants cluster)

let test_nightcore_cluster_never_forwards () =
  (* Cross-server ArgBuf forwarding is a Jord mechanism; the pipe-based
     baseline retries locally instead. *)
  let config = { small_config with Server.variant = Variant.Nightcore } in
  let cluster =
    Cluster.create ~forward_after:2 ~servers:2 ~config Jord_exp.Exp_common.fanout_app
  in
  let count = ref 0 in
  Cluster.on_root_complete cluster (fun _ -> incr count);
  let engine = Cluster.engine cluster in
  for i = 0 to 19 do
    Jord_sim.Engine.schedule_at engine
      ~time:(Time.of_ns (float_of_int i *. 40_000.0))
      (fun _ -> Cluster.submit cluster ())
  done;
  Cluster.run cluster;
  Alcotest.(check int) "completes" 20 !count;
  Alcotest.(check int) "never forwards" 0 (Cluster.forwarded cluster)

let suite =
  [
    Alcotest.test_case "forwarding completes everything" `Quick
      test_forwarding_completes_everything;
    Alcotest.test_case "forward conservation" `Quick test_forward_conservation;
    Alcotest.test_case "single server never forwards" `Quick
      test_single_server_never_forwards;
    Alcotest.test_case "forwarding disabled by default" `Quick
      test_forwarding_disabled_by_default;
    Alcotest.test_case "cluster of two" `Quick test_forwarded_latency_includes_network;
    Alcotest.test_case "no cross-server leaks" `Quick test_no_cross_server_leaks;
    Alcotest.test_case "NightCore cluster never forwards" `Quick
      test_nightcore_cluster_never_forwards;
  ]
