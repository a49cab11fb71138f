(* Tests of the conservative parallel core: the Shard mailbox contract,
   deterministic barrier delivery (a qcheck property against a model sort),
   Epoch horizon semantics on empty shards, and the Cluster's sharded mode
   — argument validation, shards=1 vs shards=3 equivalence, and the load
   generator's per-engine arrival sources at 1, 2 and 4 shards. *)

module Engine = Jord_sim.Engine
module Shard = Jord_sim.Shard
module Epoch = Jord_sim.Epoch
module Time = Jord_sim.Time
open Jord_faas

(* --- Shard.post contract --- *)

let test_post_contract () =
  let epochs = Epoch.create ~shards:2 ~lookahead:100 in
  let s0 = Epoch.shard epochs 0 in
  Alcotest.check_raises "own shard rejected"
    (Invalid_argument "Shard.post: message to own shard") (fun () ->
      Shard.post s0 ~dst:0 ~at:500 ~sid:0 (fun _ -> ()));
  Alcotest.check_raises "bad dst rejected"
    (Invalid_argument "Shard.post: bad dst") (fun () ->
      Shard.post s0 ~dst:7 ~at:500 ~sid:0 (fun _ -> ()));
  (* now = 0, lookahead = 100: at must be >= 100. *)
  Alcotest.check_raises "lookahead violation rejected"
    (Invalid_argument "Shard.post: timestamp violates the lookahead window")
    (fun () -> Shard.post s0 ~dst:1 ~at:99 ~sid:0 (fun _ -> ()));
  Shard.post s0 ~dst:1 ~at:100 ~sid:0 (fun _ -> ());
  Alcotest.(check int) "boundary timestamp accepted" 1 (Shard.pending_messages s0);
  Alcotest.(check int) "pending sees the message" 1 (Epoch.pending epochs);
  Alcotest.(check int) "drain delivers it" 1 (Epoch.drain epochs);
  Alcotest.(check int) "outbox reset" 0 (Shard.pending_messages s0);
  Alcotest.(check int) "second drain is empty" 0 (Epoch.drain epochs)

let test_create_validation () =
  Alcotest.check_raises "zero shards"
    (Invalid_argument "Epoch.create: shards must be positive") (fun () ->
      ignore (Epoch.create ~shards:0 ~lookahead:10 : Epoch.t));
  Alcotest.check_raises "zero lookahead"
    (Invalid_argument "Epoch.create: lookahead must be positive") (fun () ->
      ignore (Epoch.create ~shards:2 ~lookahead:0 : Epoch.t))

(* --- qcheck: barrier delivery order is the model sort --- *)

let n_shards = 3
let la = 100

type post = { src : int; dst : int; at : Time.t; sid : int }

(* Random cross-shard posts: any (src, dst <> src) pair, timestamps at or
   past the lookahead with plenty of collisions, and a tiny sid range so
   the (at, sid, posting order) tiebreakers all get exercised. *)
let gen_posts =
  QCheck.Gen.(
    list_size (int_bound 60)
      (map3
         (fun src doff (aoff, sid) ->
           { src; dst = (src + 1 + doff) mod n_shards; at = la + aoff; sid })
         (int_bound (n_shards - 1))
         (int_bound (n_shards - 2))
         (pair (int_bound 20) (int_bound 4))))

let arb_posts =
  QCheck.make
    ~print:(fun l ->
      String.concat "; "
        (List.map
           (fun p -> Printf.sprintf "%d->%d @%d sid=%d" p.src p.dst p.at p.sid)
           l))
    gen_posts

(* The documented delivery order into one destination: gather posting-order
   runs from each source in ascending source order, then stable-sort by
   (at, sid, per-source posting counter). Firing the destination engine
   afterwards must replay exactly that sequence. *)
let expected_for_dst posts d =
  let seq = Array.make n_shards 0 in
  let annotated =
    List.mapi
      (fun i p ->
        let s = seq.(p.src) in
        seq.(p.src) <- s + 1;
        (p, i, s))
      posts
  in
  List.concat
    (List.init n_shards (fun s ->
         List.filter (fun (p, _, _) -> p.src = s && p.dst = d) annotated))
  |> List.stable_sort (fun ((a : post), _, sa) (b, _, sb) ->
         compare (a.at, a.sid, sa) (b.at, b.sid, sb))
  |> List.map (fun (p, i, _) -> (p.at, i))

let drain_matches_model posts =
  let epochs = Epoch.create ~shards:n_shards ~lookahead:la in
  let fired = Array.make n_shards [] in
  List.iteri
    (fun i p ->
      Shard.post (Epoch.shard epochs p.src) ~dst:p.dst ~at:p.at ~sid:p.sid
        (fun eng -> fired.(p.dst) <- (Engine.now eng, i) :: fired.(p.dst)))
    posts;
  let delivered = Epoch.drain epochs in
  for d = 0 to n_shards - 1 do
    Engine.run (Epoch.engine epochs d)
  done;
  delivered = List.length posts
  && List.for_all
       (fun d -> List.rev fired.(d) = expected_for_dst posts d)
       (List.init n_shards Fun.id)

let prop_drain_order =
  QCheck.Test.make
    ~name:"barrier delivers in (timestamp, sid, posting order)" ~count:300
    arb_posts drain_matches_model

(* --- Epoch loop horizon and epoch semantics --- *)

let test_until_covers_empty_shards () =
  (* Like Engine.run ~until, a horizon run must advance every
     shard's clock to the limit — including shards that never held an
     event — so busy fractions read the same as the sequential path. *)
  let epochs = Epoch.create ~shards:2 ~lookahead:50 in
  Epoch.run ~until:1000 epochs;
  Alcotest.(check int) "idle shard 0 at horizon" 1000 (Engine.now (Epoch.engine epochs 0));
  Alcotest.(check int) "idle shard 1 at horizon" 1000 (Engine.now (Epoch.engine epochs 1));
  let epochs = Epoch.create ~shards:2 ~lookahead:50 in
  let fired_at = ref (-1) in
  Engine.schedule_at (Epoch.engine epochs 0) ~time:30 (fun eng ->
      fired_at := Engine.now eng);
  Epoch.run ~until:1000 epochs;
  Alcotest.(check int) "event fired" 30 !fired_at;
  Alcotest.(check int) "busy shard at horizon" 1000 (Engine.now (Epoch.engine epochs 0));
  Alcotest.(check int) "empty shard at horizon too" 1000
    (Engine.now (Epoch.engine epochs 1));
  (* Events beyond the horizon stay queued, exactly like Engine.run. *)
  let epochs = Epoch.create ~shards:2 ~lookahead:50 in
  Engine.schedule_at (Epoch.engine epochs 1) ~time:2000 (fun _ -> ());
  Epoch.run ~until:1000 epochs;
  Alcotest.(check int) "late event still pending" 1 (Epoch.pending epochs);
  Alcotest.(check int) "clock stops at horizon" 1000 (Engine.now (Epoch.engine epochs 1))

let test_cross_shard_ping_pong () =
  (* A courier bouncing between two shards through the mailbox: each hop
     lands exactly one lookahead later, and the loop runs to quiescence
     across as many epochs as it takes. *)
  let epochs = Epoch.create ~shards:2 ~lookahead:100 in
  let hops = ref [] in
  let rec hop at_shard eng =
    hops := (at_shard, Engine.now eng) :: !hops;
    if List.length !hops < 5 then
      let dst = 1 - at_shard in
      Shard.post (Epoch.shard epochs at_shard) ~dst
        ~at:(Engine.now eng + 100)
        ~sid:at_shard (hop dst)
  in
  Engine.schedule_at (Epoch.engine epochs 0) ~time:10 (hop 0);
  Epoch.run epochs;
  Alcotest.(check (list (pair int int)))
    "five hops, one lookahead apart, alternating shards"
    [ (0, 10); (1, 110); (0, 210); (1, 310); (0, 410) ]
    (List.rev !hops);
  Alcotest.(check int) "all events processed" 5 (Epoch.processed epochs);
  Alcotest.(check int) "nothing pending" 0 (Epoch.pending epochs)

(* --- Netmodel.lookahead --- *)

let test_netmodel_lookahead () =
  Alcotest.(check int) "default lookahead = one-way wire latency"
    (Netmodel.one_way Netmodel.default)
    (Netmodel.lookahead Netmodel.default);
  Alcotest.(check int) "paper default is 2.5us"
    (Time.of_ns 2500.0)
    (Netmodel.lookahead Netmodel.default);
  Alcotest.(check int) "zero wire -> zero lookahead" 0
    (Netmodel.lookahead (Netmodel.create ~one_way_ns:0.0 ()))

(* --- Cluster sharded mode: validation --- *)

let test_cluster_validation () =
  let config = Test_cluster.small_config in
  let app = Jord_exp.Exp_common.fanout_app in
  Alcotest.check_raises "zero shards"
    (Invalid_argument "Cluster.create: shards must be positive") (fun () ->
      ignore (Cluster.create ~shards:0 ~servers:3 ~config app : Cluster.t));
  (* Regression: fault plans used to be rejected under ~shards > 1. Chaos
     state is now partitioned per source server, so creation must succeed. *)
  let chaos_config =
    { config with Server.fault_plan = Some Jord_fault_inject.Plan.ci_smoke }
  in
  ignore
    (Cluster.create ~shards:2 ~servers:3 ~config:chaos_config app : Cluster.t);
  Alcotest.check_raises "sharding needs a wire latency"
    (Invalid_argument "Cluster.create: sharding requires a positive one_way_ns")
    (fun () ->
      let config =
        { config with Server.net = Netmodel.create ~one_way_ns:0.0 () }
      in
      ignore (Cluster.create ~shards:2 ~servers:3 ~config app : Cluster.t));
  (* Clamping: more shards than servers means one server per shard. *)
  let c = Cluster.create ~shards:8 ~servers:3 ~config app in
  Alcotest.(check int) "shards clamp to server count" 3 (Cluster.shards c);
  let c1 = Cluster.create ~servers:3 ~config app in
  Alcotest.(check int) "default is single-engine" 1 (Cluster.shards c1);
  Alcotest.check_raises "live submit rejected when sharded"
    (Invalid_argument
       "Cluster.submit: a sharded cluster takes arrivals from Loadgen.run_cluster")
    (fun () -> Cluster.submit c ())

(* --- Cluster sharded mode: equivalence with the sequential path --- *)

let run_cluster ?(config = Test_cluster.small_config) ~shards n_requests =
  let cluster =
    Cluster.create ~forward_after:2 ~shards ~servers:3 ~config
      Jord_exp.Exp_common.fanout_app
  in
  let tracer = Trace.create ~capacity:32768 () in
  Cluster.set_tracer cluster (Some tracer);
  let roots = ref [] in
  Cluster.on_root_complete cluster (fun r ->
      roots :=
        (r.Request.completed_at, r.Request.finished, r.Request.invocations)
        :: !roots);
  Jord_workloads.Loadgen.fixed_gaps (Cluster.servers cluster) ~arrivals:n_requests
    ~gap_ns:900.0;
  Cluster.run cluster;
  let per_server =
    Array.to_list (Cluster.servers cluster)
    |> List.map (fun s -> (Server.forwarded_out s, Server.received_in s))
  in
  ( List.rev !roots,
    Trace.events tracer,
    Cluster.events_processed cluster,
    Cluster.forwarded cluster,
    per_server )

let test_sharded_equals_sequential () =
  let roots1, ev1, n1, fwd1, per1 = run_cluster ~shards:1 60 in
  let roots3, ev3, n3, fwd3, per3 = run_cluster ~shards:3 60 in
  Alcotest.(check int) "all complete sequentially" 60 (List.length roots1);
  Alcotest.(check int) "all complete sharded" 60 (List.length roots3);
  Alcotest.(check bool) "work was forwarded" true (fwd1 > 0);
  Alcotest.(check int) "forwarded counts agree" fwd1 fwd3;
  Alcotest.(check int) "event counts agree" n1 n3;
  Alcotest.(check (list (pair int int))) "per-server forward/receive agree" per1 per3;
  (* Completions and trace events replay in canonical (time, server) order;
     normalize both sides by a total sort so same-picosecond cross-server
     ties cannot flake the comparison. *)
  Alcotest.(check bool) "identical completion records" true
    (List.sort compare roots1 = List.sort compare roots3);
  Alcotest.(check int) "same trace volume" (List.length ev1) (List.length ev3);
  Alcotest.(check bool) "identical trace events" true
    (List.sort compare ev1 = List.sort compare ev3)

(* --- Cluster sharded mode: chaos (fault plans under sharding) --- *)

(* A chaos run at a given shard count, summarized as one comparable value:
   completion records, trace events, chaos counters and the transport's
   net_stats record, plus the conservation verdict. *)
let run_chaos_cluster ~plan ~shards n_requests =
  let config =
    { Test_cluster.small_config with Server.fault_plan = Some plan }
  in
  let cluster =
    Cluster.create ~forward_after:2 ~shards ~servers:3 ~config
      Jord_exp.Exp_common.fanout_app
  in
  let tracer = Trace.create ~capacity:65536 () in
  Cluster.set_tracer cluster (Some tracer);
  let roots = ref [] in
  Cluster.on_root_complete cluster (fun r ->
      roots :=
        (r.Request.completed_at, r.Request.finished, r.Request.invocations)
        :: !roots);
  Jord_workloads.Loadgen.fixed_gaps (Cluster.servers cluster) ~arrivals:n_requests
    ~gap_ns:900.0;
  Cluster.run cluster;
  let sum f =
    Array.fold_left (fun a s -> a + f s) 0 (Cluster.servers cluster)
  in
  let chaos =
    ( sum Server.crashes, sum Server.recovered, sum Server.timed_out_requests,
      sum Server.server_crashes, sum Server.warm_losses, sum Server.cold_starts )
  in
  ( List.rev !roots,
    Trace.events tracer,
    chaos,
    Cluster.net_stats cluster,
    Cluster.check_invariants cluster )

let check_chaos_identical ~plan ~label n_requests =
  let roots1, ev1, chaos1, net1, inv1 = run_chaos_cluster ~plan ~shards:1 n_requests in
  let roots3, ev3, chaos3, net3, inv3 = run_chaos_cluster ~plan ~shards:3 n_requests in
  Alcotest.(check (list string)) (label ^ ": sequential invariants") [] inv1;
  Alcotest.(check (list string)) (label ^ ": sharded invariants") [] inv3;
  Alcotest.(check int)
    (label ^ ": all roots complete sequentially")
    n_requests (List.length roots1);
  Alcotest.(check bool)
    (label ^ ": identical completion records")
    true
    (List.sort compare roots1 = List.sort compare roots3);
  Alcotest.(check bool)
    (label ^ ": identical chaos counters")
    true (chaos1 = chaos3);
  Alcotest.(check bool) (label ^ ": identical net stats") true (net1 = net3);
  Alcotest.(check int)
    (label ^ ": same trace volume")
    (List.length ev1) (List.length ev3);
  Alcotest.(check bool)
    (label ^ ": identical trace events")
    true
    (List.sort compare ev1 = List.sort compare ev3);
  (chaos1, net1)

let test_sharded_chaos_equals_sequential () =
  (* Wire faults only (the historical ci-smoke plan): retries, dups, loss
     and executor crashes must replay identically at any shard count. *)
  let chaos, net =
    check_chaos_identical ~plan:Jord_fault_inject.Plan.ci_smoke
      ~label:"ci-smoke" 80
  in
  let crashes, _, _, _, _, _ = chaos in
  Alcotest.(check bool) "ci-smoke injected executor crashes" true (crashes > 0);
  (match net with
  | Some s -> Alcotest.(check bool) "wire faults exercised" true (s.Cluster.lost > 0)
  | None -> Alcotest.fail "net stats missing under a fault plan")

let test_sharded_server_crash_equals_sequential () =
  (* Whole-server crashes on top: down windows, warm loss, failover and
     dropped-at-down deliveries must also be shard-invariant. *)
  let plan =
    {
      Jord_fault_inject.Plan.ci_smoke with
      Jord_fault_inject.Plan.server_crash = 0.02;
      server_down_us = 40.0;
    }
  in
  let chaos, _ = check_chaos_identical ~plan ~label:"server-crash" 80 in
  let _, _, _, server_crashes, _, _ = chaos in
  Alcotest.(check bool) "whole-server crashes injected" true (server_crashes > 0)

(* --- Loadgen.run_cluster: arrival ties at every shard count --- *)

(* The benchmark's cluster_fanout run at JBSQ bound 1 (seeds derived from
   benchmark seed 1). Some arrivals land on the same picosecond as another
   event here, so ordering arrivals differently at 1 shard and above shows
   up as different event and forward counts. *)
let fanout_jbsq1 ~shards =
  let config =
    {
      (Jord_exp.Exp_common.config_for Variant.Jord) with
      Server.machine = Jord_arch.Config.with_cores Jord_arch.Config.default 8;
      orchestrators = 1;
      queue_capacity = 1;
      seed = 445620787;
    }
  in
  let cluster, recorder =
    Jord_workloads.Loadgen.run_cluster ~warmup:500 ~forward_after:2 ~shards ~servers:8
      ~app:Jord_exp.Exp_common.fanout_app ~config ~rate_mrps:3.0 ~duration_us:600.0
      ~seed:963445776 ()
  in
  let module R = Jord_metrics.Recorder in
  ( Cluster.events_processed cluster,
    Cluster.forwarded cluster,
    ( Array.to_list (Cluster.servers cluster)
      |> List.map (fun s -> (Server.completed_roots s, Server.forwarded_out s, Server.received_in s)),
      R.count recorder, R.cdf recorder ),
    (R.p50_us recorder, R.p99_us recorder) )

let test_run_cluster_jbsq1_ties () =
  let events1, fwd1, done1, pct1 = fanout_jbsq1 ~shards:1 in
  Alcotest.(check bool) "the run forwards" true (fwd1 > 0);
  List.iter
    (fun shards ->
      let events, fwd, done_, pct = fanout_jbsq1 ~shards in
      let at = Printf.sprintf " at %d shards" shards in
      Alcotest.(check int) ("events" ^ at) events1 events;
      Alcotest.(check int) ("forwards" ^ at) fwd1 fwd;
      Alcotest.(check bool) ("completion records" ^ at) true (done1 = done_);
      Alcotest.(check (pair (float 0.0) (float 0.0))) ("p50/p99" ^ at) pct1 pct)
    [ 2; 4 ]

(* --- qcheck: every arrival source agrees at 1, 2 and 4 shards --- *)

(* The fan-out app with its leaf compute on a grid of the 2500 ns one-way
   wire latency, so that, with arrivals on the same grid, events on
   different servers often share a picosecond. *)
let grid_app ~leaf_ns =
  let leaf =
    { Model.name = "leaf"; make_phases = (fun _ -> [ Model.compute leaf_ns ]);
      state_bytes = 1024; code_bytes = 1024 }
  in
  { Jord_exp.Exp_common.fanout_app with
    Model.fns = [ List.hd Jord_exp.Exp_common.fanout_app.Model.fns; leaf ] }

type arrivals =
  | Poisson of { rate_mrps : float; duration_us : float }
  | Gaps of { n : int; gap_ns : float }

type case = {
  capacity : int;
  servers : int;
  forward_after : int;
  seed : int;
  chaos : bool;
  arrivals : arrivals;
  leaf_ns : float;
}

let gen_case =
  let open QCheck.Gen in
  let grid = map (fun m -> 2500.0 *. float_of_int m) in
  let arrivals =
    oneof
      [
        map2
          (fun rate_mrps n -> Poisson { rate_mrps; duration_us = float_of_int n /. rate_mrps })
          (oneofl [ 0.5; 1.0; 2.0 ]) (int_range 20 60);
        map2 (fun n gap_ns -> Gaps { n; gap_ns }) (int_range 20 60) (grid (int_range 1 2));
      ]
  in
  map3
    (fun (capacity, servers, forward_after) (seed, chaos) (arrivals, leaf_ns) ->
      { capacity; servers; forward_after; seed; chaos; arrivals; leaf_ns })
    (triple (oneofl [ 1; 2; 4 ]) (int_range 2 8) (int_range 1 3))
    (pair (int_bound 1_000_000) bool)
    (pair arrivals (grid (int_range 1 3)))

let print_case c =
  Printf.sprintf "capacity=%d servers=%d forward_after=%d seed=%d plan=%s %s leaf=%gns"
    c.capacity c.servers c.forward_after c.seed
    (if c.chaos then "ci-smoke" else "none")
    (match c.arrivals with
    | Poisson p -> Printf.sprintf "poisson %g Mrps over %g us" p.rate_mrps p.duration_us
    | Gaps g -> Printf.sprintf "%d arrivals %g ns apart" g.n g.gap_ns)
    c.leaf_ns

type observed = {
  events : int;
  forwards : int;
  members : (int * int * int * int) list;  (** arrivals, completed, out, in *)
  completions : int * (float * float) list;  (** recorder count and CDF *)
  transport : Cluster.net_stats option;
  invariants : string list;
  trace : string;
}

(* One run of [c] at [shards]. The trace is Chrome JSON in the canonical
   (time, server) order a sharded run replays it in, so it compares each
   server's own event order. *)
let observe c ~shards =
  let config =
    {
      Test_cluster.small_config with
      Server.queue_capacity = c.capacity;
      seed = c.seed;
      fault_plan = (if c.chaos then Some Jord_fault_inject.Plan.ci_smoke else None);
    }
  in
  let app = grid_app ~leaf_ns:c.leaf_ns in
  let tracer = Trace.create ~capacity:65536 () in
  let cluster, recorder =
    match c.arrivals with
    | Poisson { rate_mrps; duration_us } ->
        Jord_workloads.Loadgen.run_cluster ~warmup:0 ~tracer ~forward_after:c.forward_after
          ~shards ~servers:c.servers ~app ~config ~rate_mrps ~duration_us ~seed:c.seed ()
    | Gaps { n; gap_ns } ->
        let cluster =
          Cluster.create ~forward_after:c.forward_after ~shards ~servers:c.servers ~config app
        in
        Cluster.set_tracer cluster (Some tracer);
        let recorder = Jord_metrics.Recorder.create ~warmup:0 () in
        Cluster.on_root_complete cluster (Jord_metrics.Recorder.observe recorder);
        Jord_workloads.Loadgen.fixed_gaps (Cluster.servers cluster) ~arrivals:n ~gap_ns;
        Cluster.run cluster;
        (cluster, recorder)
  in
  let canonical =
    List.stable_sort
      (fun (a : Trace.event) b -> compare (a.Trace.at_ps, a.Trace.sid) (b.Trace.at_ps, b.Trace.sid))
      (Trace.events tracer)
  in
  {
    events = Cluster.events_processed cluster;
    forwards = Cluster.forwarded cluster;
    members =
      Array.to_list (Cluster.servers cluster)
      |> List.map (fun s ->
             (Server.arrivals s, Server.completed_roots s, Server.forwarded_out s,
              Server.received_in s));
    completions = Jord_metrics.Recorder.(count recorder, cdf recorder);
    transport = Cluster.net_stats cluster;
    invariants = Cluster.check_invariants cluster;
    trace = Trace.chrome_document (Trace.chrome_events canonical);
  }

(* The names of what differs between two observations. *)
let differs a b =
  List.filter_map
    (fun (what, same) -> if same then None else Some what)
    [
      ("events", a.events = b.events);
      ("forwards", a.forwards = b.forwards);
      ("per-server tallies", a.members = b.members);
      ("completions", a.completions = b.completions);
      ("transport", a.transport = b.transport);
      ("invariants", a.invariants = b.invariants);
      ("trace", a.trace = b.trace);
    ]

let prop_arrival_sources =
  QCheck.Test.make ~name:"arrival sources agree at 1, 2 and 4 shards" ~count:20
    (QCheck.make ~print:print_case gen_case)
    (fun c ->
      let base = observe c ~shards:1 in
      base.events > 0
      && List.for_all
           (fun shards ->
             match differs (observe c ~shards) base with
             | [] -> true
             | d -> QCheck.Test.fail_reportf "%d shards: %s differ" shards (String.concat ", " d))
           [ 2; 4 ])

(* The property's first find, kept as a fixed case: on server 2 a request
   forwarded by server 1 arrives on the same picosecond as the server's own
   queue-full retry. One engine fires the delivery first (it was scheduled
   earlier); a barrier that queued it behind the destination's events of
   the epoch fired it second, and the trace told the runs apart. *)
let test_barrier_tie () =
  let c =
    {
      capacity = 2;
      servers = 3;
      forward_after = 3;
      seed = 313405;
      chaos = false;
      arrivals = Gaps { n = 23; gap_ns = 2500.0 };
      leaf_ns = 5000.0;
    }
  in
  Alcotest.(check (list string))
    "nothing differs at 2 shards" []
    (differs (observe c ~shards:2) (observe c ~shards:1))

let suite =
  [
    Alcotest.test_case "Shard.post contract" `Quick test_post_contract;
    Alcotest.test_case "Epoch.create validation" `Quick test_create_validation;
    QCheck_alcotest.to_alcotest prop_drain_order;
    Alcotest.test_case "~until covers empty shards" `Quick
      test_until_covers_empty_shards;
    Alcotest.test_case "cross-shard ping-pong" `Quick test_cross_shard_ping_pong;
    Alcotest.test_case "Netmodel.lookahead" `Quick test_netmodel_lookahead;
    Alcotest.test_case "Cluster sharded validation" `Quick test_cluster_validation;
    Alcotest.test_case "sharded cluster = sequential cluster" `Quick
      test_sharded_equals_sequential;
    Alcotest.test_case "sharded chaos = sequential chaos" `Quick
      test_sharded_chaos_equals_sequential;
    Alcotest.test_case "sharded server crashes = sequential" `Quick
      test_sharded_server_crash_equals_sequential;
    Alcotest.test_case "run_cluster JBSQ-1 ties" `Quick test_run_cluster_jbsq1_ties;
    QCheck_alcotest.to_alcotest prop_arrival_sources;
    Alcotest.test_case "barrier delivery tie" `Quick test_barrier_tie;
  ]
