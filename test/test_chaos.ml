(* Fault injection and recovery: deterministic fault plans, deadline
   shedding, crash re-execution, the at-least-once cluster transport, and
   the conservation invariant checker that every scenario must satisfy.
   The property test at the bottom drives random workloads under random
   plans and asserts the invariants and run-to-run determinism that the
   CI chaos-smoke job checks end-to-end. *)

open Jord_faas
module Time = Jord_sim.Time
module Engine = Jord_sim.Engine
module Plan = Jord_fault_inject.Plan
module Invariant = Jord_fault_inject.Invariant

let check_clean name errs =
  Alcotest.(check (list string)) (name ^ ": invariants hold") [] errs

let contains needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* --- plan parsing --- *)

let test_plan_parse () =
  (match Plan.parse "ci-smoke" with
  | Ok p -> Alcotest.(check bool) "preset resolves" true (p = Plan.ci_smoke)
  | Error e -> Alcotest.fail e);
  (match Plan.parse "crash=0.01,loss=0.2,seed=7" with
  | Ok p ->
      Alcotest.(check int) "seed" 7 p.Plan.seed;
      Alcotest.(check (float 1e-9)) "crash" 0.01 p.Plan.crash;
      Alcotest.(check (float 1e-9)) "loss" 0.2 p.Plan.loss
  | Error e -> Alcotest.fail e);
  (match Plan.parse "ci-smoke,loss=0.5" with
  | Ok p ->
      Alcotest.(check (float 1e-9)) "override wins" 0.5 p.Plan.loss;
      Alcotest.(check (float 1e-9)) "rest inherited" Plan.ci_smoke.Plan.crash
        p.Plan.crash
  | Error e -> Alcotest.fail e);
  (match Plan.parse "loss=1.5" with
  | Ok _ -> Alcotest.fail "probability > 1 must be rejected"
  | Error _ -> ());
  (* Canonical form round-trips. *)
  match Plan.parse (Plan.to_string Plan.harsh) with
  | Ok p -> Alcotest.(check bool) "to_string round-trips" true (p = Plan.harsh)
  | Error e -> Alcotest.fail e

(* --- single-server scenarios --- *)

let run_server ?(config = Test_cluster.small_config) ?tracer ~requests ~gap_ns () =
  let server = Server.create config Jord_exp.Exp_common.fanout_app in
  (match tracer with Some _ as t -> Server.set_tracer server t | None -> ());
  let count = ref 0 in
  Server.on_root_complete server (fun _ -> incr count);
  let engine = Server.engine server in
  for i = 0 to requests - 1 do
    Engine.schedule_at engine
      ~time:(Time.of_ns (float_of_int i *. gap_ns))
      (fun _ -> Server.submit server ())
  done;
  Server.run server;
  (server, !count)

let test_deadline_sheds () =
  (* A deadline far below the backlog's sojourn time under a burst: the
     tail must be shed as timeouts, and arrivals must still balance. *)
  let config =
    {
      Test_cluster.small_config with
      Server.recovery = { Recovery.default with deadline = Some (Time.of_us 3.0) };
    }
  in
  let server, completed = run_server ~config ~requests:120 ~gap_ns:50.0 () in
  let timed_out = Server.timed_out_requests server in
  Alcotest.(check bool)
    (Printf.sprintf "some requests shed by deadline (%d)" timed_out)
    true (timed_out > 0);
  Alcotest.(check int) "arrivals conserved"
    (Server.arrivals server)
    (completed + Server.dropped_requests server + timed_out);
  Alcotest.(check int) "drained" 0 (Server.in_flight server);
  check_clean "deadline" (Server.check_invariants server)

let test_no_deadline_no_shedding () =
  let server, completed = run_server ~requests:120 ~gap_ns:50.0 () in
  Alcotest.(check int) "no deadline, no timeouts" 0
    (Server.timed_out_requests server);
  Alcotest.(check int) "everything eventually completes" 120
    (completed + Server.dropped_requests server);
  check_clean "no-deadline" (Server.check_invariants server)

let test_crash_recovery () =
  (* Heavy crash injection: every crashed invocation is torn down
     (PD reclaimed, no output written) and re-executed, so all roots
     still finish and nothing leaks. *)
  let config =
    {
      Test_cluster.small_config with
      Server.fault_plan =
        Some { Plan.none with Plan.seed = 11; crash = 0.15; restart_us = 4.0 };
    }
  in
  let server, completed = run_server ~config ~requests:80 ~gap_ns:2000.0 () in
  Alcotest.(check bool)
    (Printf.sprintf "crashes injected (%d)" (Server.crashes server))
    true
    (Server.crashes server > 0);
  Alcotest.(check bool) "every crash recovered at least its own request" true
    (Server.recovered server >= Server.crashes server);
  Alcotest.(check int) "all roots complete despite crashes" 80 completed;
  Alcotest.(check int) "no PDs leaked" 0
    (Jord_privlib.Pd.live_count (Jord_privlib.Privlib.pds (Server.privlib server)));
  check_clean "crash" (Server.check_invariants server)

let test_stalls_and_slowdowns_only_add_latency () =
  let config =
    {
      Test_cluster.small_config with
      Server.fault_plan =
        Some
          {
            Plan.none with
            Plan.seed = 3;
            stall = 0.3;
            stall_us = 2.0;
            slow = 0.3;
            slow_factor = 4.0;
          };
    }
  in
  let server, completed = run_server ~config ~requests:60 ~gap_ns:2000.0 () in
  Alcotest.(check int) "all complete" 60 completed;
  Alcotest.(check bool) "stalls hit" true (Server.stalls server > 0);
  Alcotest.(check bool) "slowdowns hit" true (Server.slowdowns server > 0);
  Alcotest.(check int) "no recovery action needed" 0 (Server.crashes server);
  check_clean "stall+slow" (Server.check_invariants server)

let test_fault_free_plan_is_inert () =
  (* Run with no plan and with the explicit zero plan: bit-identical
     counters — the injection points must cost nothing when disabled. *)
  let base, c0 = run_server ~requests:60 ~gap_ns:900.0 () in
  let config =
    { Test_cluster.small_config with Server.fault_plan = Some Plan.none }
  in
  let zero, c1 = run_server ~config ~requests:60 ~gap_ns:900.0 () in
  Alcotest.(check int) "same completions" c0 c1;
  Alcotest.(check int) "same events processed"
    (Engine.processed (Server.engine base))
    (Engine.processed (Server.engine zero));
  Alcotest.(check (float 0.0)) "same queue wait"
    (Server.queue_wait_ns_total base)
    (Server.queue_wait_ns_total zero)

(* --- trace integration --- *)

let test_trace_records_faults () =
  let tracer = Trace.create () in
  let config =
    {
      Test_cluster.small_config with
      Server.fault_plan =
        Some { Plan.none with Plan.seed = 11; crash = 0.15; restart_us = 4.0 };
      recovery = { Recovery.default with deadline = Some (Time.of_us 3000.0) };
    }
  in
  let server, _ = run_server ~config ~tracer ~requests:80 ~gap_ns:2000.0 () in
  let events = Trace.events tracer in
  let count k = List.length (List.filter (fun e -> e.Trace.kind = k) events) in
  Alcotest.(check int) "one Crash event per crash" (Server.crashes server)
    (count Trace.Crash);
  Alcotest.(check int) "one Recover event per recovery" (Server.recovered server)
    (count Trace.Recover);
  List.iter
    (fun e ->
      if e.Trace.kind = Trace.Crash then
        Alcotest.(check string) "crash detail names the site" "executor"
          e.Trace.detail)
    events;
  (* New kinds render in both exporters. *)
  Alcotest.(check string) "kind_name crash" "crash" (Trace.kind_name Trace.Crash);
  Alcotest.(check string) "kind_name timeout" "timeout" (Trace.kind_name Trace.Timeout);
  let text = Trace.to_text tracer in
  Alcotest.(check bool) "detail rendered in text log" true
    (contains "[executor]" text);
  let json = Trace.to_chrome_json tracer in
  Alcotest.(check bool) "crash events exported to chrome json" true
    (contains "/crash\"" json)

(* --- forward-path regression: enqueued_at re-stamped per hop --- *)

let test_forward_restamps_enqueued_at () =
  (* A request leaving on the wire was just re-dispatched by the
     orchestrator; its queue-wait clock must restart at the hop, or the
     receiver would bill it for queueing already accounted at the source. *)
  let engine = Engine.create () in
  let config = { Test_cluster.small_config with Server.forward_after = 2 } in
  let servers =
    Array.init 2 (fun i ->
        Server.create ~engine
          { config with Server.seed = config.Server.seed + i }
          Jord_exp.Exp_common.fanout_app)
  in
  let checked = ref 0 in
  Array.iteri
    (fun i s ->
      Server.set_forward s
        (Some
           (fun req ->
             Alcotest.(check int) "fresh enqueued_at stamp at the hop"
               (Engine.now engine) req.Request.enqueued_at;
             incr checked;
             let target = servers.((i + 1) mod 2) in
             Engine.schedule engine
               ~after:(Netmodel.one_way (Server.netmodel s))
               (fun _ -> Server.receive_forwarded target req))))
    servers;
  for i = 0 to 79 do
    Engine.schedule_at engine
      ~time:(Time.of_ns (float_of_int i *. 900.0))
      (fun _ -> Server.submit servers.(i mod 2) ())
  done;
  Engine.run engine;
  Alcotest.(check bool)
    (Printf.sprintf "some hops checked (%d)" !checked)
    true (!checked > 0);
  let tally =
    Array.fold_left
      (fun acc s -> Invariant.add acc (Server.conservation s))
      Invariant.zero servers
  in
  check_clean "restamp ring" (Invariant.check tally)

(* --- cluster chaos transport --- *)

let run_chaos_cluster ?(servers = 3) ~config ~requests ~gap_ns () =
  let cluster =
    Cluster.create ~forward_after:2 ~servers ~config Jord_exp.Exp_common.fanout_app
  in
  let count = ref 0 in
  Cluster.on_root_complete cluster (fun _ -> incr count);
  let engine = Cluster.engine cluster in
  for i = 0 to requests - 1 do
    Engine.schedule_at engine
      ~time:(Time.of_ns (float_of_int i *. gap_ns))
      (fun _ -> Cluster.submit cluster ())
  done;
  Cluster.run cluster;
  (cluster, !count)

let test_cluster_survives_lossy_wire () =
  let config =
    {
      Test_cluster.small_config with
      Server.fault_plan =
        Some { Plan.none with Plan.seed = 21; loss = 0.3; dup = 0.2; jitter_us = 1.0 };
    }
  in
  let cluster, completed = run_chaos_cluster ~config ~requests:120 ~gap_ns:900.0 () in
  Alcotest.(check int) "all requests complete across a lossy wire" 120 completed;
  let s = Option.get (Cluster.net_stats cluster) in
  Alcotest.(check bool)
    (Printf.sprintf "losses retried (%d lost, %d retries)" s.Cluster.lost
       s.Cluster.retries)
    true
    (s.Cluster.lost > 0 && s.Cluster.retries > 0);
  Alcotest.(check bool)
    (Printf.sprintf "duplicates deduplicated (%d)" s.Cluster.dup_dropped)
    true
    (s.Cluster.duplicated = 0 || s.Cluster.dup_dropped >= 0);
  Alcotest.(check int) "no transfer still pending" 0 (Cluster.pending_transfers cluster);
  check_clean "lossy wire" (Cluster.check_invariants cluster)

let test_total_loss_falls_back_to_local () =
  (* A wire that delivers nothing: every transfer exhausts retry_max, is
     abandoned, and the source re-executes locally — no request is lost
     and no peer is executed twice (there is nothing to dedup since no
     copy ever arrives). *)
  let config =
    {
      Test_cluster.small_config with
      Server.fault_plan = Some { Plan.none with Plan.seed = 5; loss = 1.0 };
      recovery = { Recovery.default with retry_max = 2 };
    }
  in
  let cluster, completed = run_chaos_cluster ~servers:2 ~config ~requests:100 ~gap_ns:900.0 () in
  Alcotest.(check int) "all requests complete via local fallback" 100 completed;
  let s = Option.get (Cluster.net_stats cluster) in
  Alcotest.(check bool)
    (Printf.sprintf "transfers abandoned (%d)" s.Cluster.abandoned)
    true (s.Cluster.abandoned > 0);
  Alcotest.(check int) "every transfer was abandoned" s.Cluster.xfers s.Cluster.abandoned;
  Alcotest.(check int) "nothing delivered" 0 s.Cluster.delivered;
  Alcotest.(check bool) "peers quarantined after repeated timeouts" true
    (s.Cluster.peers_marked_dead > 0);
  let abandoned_noted =
    Array.fold_left
      (fun a sv -> a + Server.forward_abandoned sv)
      0 (Cluster.servers cluster)
  in
  Alcotest.(check int) "abandonments accounted on the source servers"
    s.Cluster.abandoned abandoned_noted;
  check_clean "total loss" (Cluster.check_invariants cluster)

let test_cluster_chaos_full_stack () =
  (* Everything at once: crashes, stalls, slowdowns, loss, duplication,
     jitter — the CI smoke plan. All requests complete; conservation and
     transfer balance hold cluster-wide. *)
  let config =
    { Test_cluster.small_config with Server.fault_plan = Some Plan.ci_smoke }
  in
  let cluster, completed = run_chaos_cluster ~config ~requests:150 ~gap_ns:900.0 () in
  Alcotest.(check int) "all requests complete under the ci-smoke plan" 150 completed;
  check_clean "ci-smoke" (Cluster.check_invariants cluster)

(* --- server failure domain --- *)

let test_plan_parse_server_keys () =
  (match Plan.parse "server-crash=0.01,server-down-us=50,warm-loss=0.5" with
  | Ok p ->
      Alcotest.(check (float 1e-9)) "server-crash" 0.01 p.Plan.server_crash;
      Alcotest.(check (float 1e-9)) "server-down-us" 50.0 p.Plan.server_down_us;
      Alcotest.(check (float 1e-9)) "warm-loss" 0.5 p.Plan.warm_loss
  | Error e -> Alcotest.fail e);
  (match Plan.parse "server_crash=0.02,warm_loss=1" with
  | Ok p ->
      Alcotest.(check (float 1e-9)) "underscore alias" 0.02 p.Plan.server_crash
  | Error e -> Alcotest.fail e);
  (match Plan.parse "server-crash=1.5" with
  | Ok _ -> Alcotest.fail "server-crash > 1 must be rejected"
  | Error e ->
      Alcotest.(check bool) "error names the key" true
        (contains "server-crash" e));
  (match Plan.parse "warm-loss=-0.1" with
  | Ok _ -> Alcotest.fail "warm-loss < 0 must be rejected"
  | Error _ -> ());
  match Plan.parse "server-down-us=-5" with
  | Ok _ -> Alcotest.fail "negative downtime must be rejected"
  | Error e ->
      Alcotest.(check bool) "error names the key" true
        (contains "server-down-us" e)

(* Random valid plans over the whole float range of each field: the
   canonical spelling prints the shortest decimal that reads back exactly,
   so the round trip is equality, not approximation. *)
let gen_plan =
  QCheck.Gen.(
    let prob = float_bound_inclusive 1.0 in
    let us = float_bound_inclusive 200.0 in
    map
      (fun ((seed, crash, restart_us, stall, stall_us),
            (loss, dup, jitter_us, slow, factor),
            (server_crash, server_down_us, warm_loss)) ->
        {
          Plan.seed;
          crash;
          restart_us;
          stall;
          stall_us;
          loss;
          dup;
          jitter_us;
          slow;
          slow_factor = 1.0 +. factor;
          server_crash;
          server_down_us;
          warm_loss;
        })
      (tup3
         (tup5 (int_bound 100000) prob us prob us)
         (tup5 prob prob us prob (float_bound_inclusive 9.0))
         (tup3 prob us prob)))

let arb_plan = QCheck.make ~print:Plan.to_string gen_plan

let prop_plan_roundtrip =
  QCheck.Test.make
    ~name:"plan to_string/parse round-trips every valid plan exactly"
    ~count:200 arb_plan
    (fun plan -> Plan.parse (Plan.to_string plan) = Ok plan)

(* --- spec parser fuzzing, for every "preset,key=value,..." grammar --- *)

(* Random specs stitched from a parser's own tokens (presets, "key="
   prefixes), separators, edge numbers (non-finite, huge, just below 1,
   and 1e6 where %g turns to exponents) and random runs over the spec
   alphabet. *)
let gen_spec tokens =
  let open QCheck.Gen in
  let alphabet = "abcdefghijklmnopqrstuvwxyz0123456789=,;:+._ -" in
  let noise =
    string_size ~gen:(map (String.get alphabet) (int_bound (String.length alphabet - 1)))
      (int_range 0 8)
  in
  let numbers =
    [ "nan"; "inf"; "-inf"; "1e308"; "1e999"; "-1e999"; "9e18"; "0.9999999"; "1000000";
      "1e-7"; "0.5"; "99"; "-3"; "0"; "1" ]
  in
  let fragment = oneof [ noise; oneofl ([ ","; "="; "+"; ":" ] @ numbers @ tokens) ] in
  map (String.concat "") (list_size (int_range 0 12) fragment)

(* What every spec parser owes: no exception escapes, and each [Ok] value
   has finite floats, passes its validator and reads back from its own
   canonical spelling exactly. *)
let prop_spec_fuzz ~name ~parse ~to_string ~validate ~floats tokens =
  QCheck.Test.make ~name ~count:3000
    (QCheck.make ~print:(Printf.sprintf "%S") (gen_spec tokens))
    (fun spec ->
      match parse spec with
      | exception e -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e)
      | Error _ -> true
      | Ok v ->
          if not (List.for_all Float.is_finite (floats v)) then
            QCheck.Test.fail_reportf "non-finite value in %s" (to_string v)
          else if validate v <> Ok () then
            QCheck.Test.fail_reportf "%s fails its validator" (to_string v)
          else if parse (to_string v) <> Ok v then
            QCheck.Test.fail_reportf "%s does not parse back" (to_string v)
          else true)

let prop_plan_fuzz =
  prop_spec_fuzz ~name:"plan parse: no exception escapes, Ok plans are finite and round-trip"
    ~parse:Plan.parse ~to_string:Plan.to_string ~validate:Plan.validate
    ~floats:(fun p ->
      Plan.
        [ p.crash; p.restart_us; p.stall; p.stall_us; p.loss; p.dup; p.jitter_us; p.slow;
          p.slow_factor; p.server_crash; p.server_down_us; p.warm_loss ])
    [ "none"; "ci-smoke"; "mild"; "harsh"; "seed="; "crash="; "restart-us="; "stall=";
      "stall-us="; "loss="; "dup="; "jitter-us="; "slow="; "slow-factor="; "server-crash=";
      "server-down-us="; "warm-loss=" ]

let test_server_crash_cluster_conservation () =
  (* Whole-server crashes on top of the wire faults: every request still
     completes exactly once (re-queued entries, discarded children), the
     boot is cold when warm_loss hits, and the conservation invariant
     holds cluster-wide. *)
  let plan =
    {
      Plan.ci_smoke with
      Plan.server_crash = 0.03;
      server_down_us = 60.0;
      warm_loss = 1.0;
    }
  in
  let config =
    { Test_cluster.small_config with Server.fault_plan = Some plan }
  in
  let cluster, completed = run_chaos_cluster ~config ~requests:150 ~gap_ns:900.0 () in
  let sum f = Array.fold_left (fun a s -> a + f s) 0 (Cluster.servers cluster) in
  Alcotest.(check int) "all requests complete through server crashes" 150 completed;
  Alcotest.(check bool) "server crashes injected" true
    (sum Server.server_crashes > 0);
  Alcotest.(check bool) "warm state lost" true (sum Server.warm_losses > 0);
  Alcotest.(check bool) "cold starts paid after warm loss" true
    (sum Server.cold_starts > 0);
  check_clean "server-crash" (Cluster.check_invariants cluster)

let test_quarantine_recovery () =
  (* A long down window trips the health threshold (transfers into the
     dead server time out back-to-back), the peer is quarantined, and
     after probe_us a probing transfer un-quarantines it — the full
     mark-dead / probe / rejoin cycle, not just the marking. *)
  let plan =
    {
      Plan.none with
      Plan.seed = 99;
      server_crash = 0.04;
      server_down_us = 300.0;
      warm_loss = 0.0;
    }
  in
  let config =
    { Test_cluster.small_config with Server.fault_plan = Some plan }
  in
  let cluster, completed = run_chaos_cluster ~config ~requests:200 ~gap_ns:700.0 () in
  let s = Option.get (Cluster.net_stats cluster) in
  Alcotest.(check int) "all requests complete" 200 completed;
  Alcotest.(check bool)
    (Printf.sprintf "deliveries hit the down window (%d)" s.Cluster.dropped_down)
    true (s.Cluster.dropped_down > 0);
  Alcotest.(check bool)
    (Printf.sprintf "peers quarantined (%d)" s.Cluster.peers_marked_dead)
    true (s.Cluster.peers_marked_dead > 0);
  Alcotest.(check bool)
    (Printf.sprintf "quarantined peers rejoined (%d)" s.Cluster.peers_unquarantined)
    true
    (s.Cluster.peers_unquarantined > 0);
  check_clean "quarantine recovery" (Cluster.check_invariants cluster)

(* --- determinism + invariants as a property --- *)

type chaos_spec = { wseed : int; fseed : int; crash_pm : int; loss_pm : int; dup_pm : int }

let gen_chaos_spec =
  QCheck.Gen.(
    map
      (fun (wseed, fseed, crash_pm, loss_pm, dup_pm) ->
        { wseed; fseed; crash_pm; loss_pm; dup_pm })
      (tup5 (int_bound 1000) (int_bound 1000) (int_bound 100) (int_bound 400)
         (int_bound 200)))

let arb_chaos_spec =
  QCheck.make
    ~print:(fun s ->
      Printf.sprintf "{wseed=%d fseed=%d crash=%.3f loss=%.3f dup=%.3f}" s.wseed
        s.fseed
        (float_of_int s.crash_pm /. 1000.0)
        (float_of_int s.loss_pm /. 1000.0)
        (float_of_int s.dup_pm /. 1000.0))
    gen_chaos_spec

let chaos_summary spec =
  let plan =
    {
      Plan.seed = spec.fseed;
      crash = float_of_int spec.crash_pm /. 1000.0;
      restart_us = 5.0;
      stall = 0.05;
      stall_us = 1.0;
      loss = float_of_int spec.loss_pm /. 1000.0;
      dup = float_of_int spec.dup_pm /. 1000.0;
      jitter_us = 1.0;
      slow = 0.05;
      slow_factor = 2.0;
      server_crash = 0.0;
      server_down_us = 200.0;
      warm_loss = 1.0;
    }
  in
  let config =
    {
      Test_cluster.small_config with
      Server.seed = spec.wseed;
      fault_plan = Some plan;
    }
  in
  let cluster, completed = run_chaos_cluster ~config ~requests:60 ~gap_ns:1200.0 () in
  let tally = Cluster.conservation cluster in
  let s = Option.get (Cluster.net_stats cluster) in
  let summary =
    ( completed,
      Engine.processed (Cluster.engine cluster),
      (tally.Invariant.crashes, tally.Invariant.recovered, tally.Invariant.forwarded_out),
      (s.Cluster.xfers, s.Cluster.lost, s.Cluster.dup_dropped, s.Cluster.retries,
       s.Cluster.abandoned) )
  in
  (summary, Cluster.check_invariants cluster)

let prop_chaos_invariants_and_determinism =
  QCheck.Test.make
    ~name:"random fault plans: invariants hold and runs are reproducible" ~count:12
    arb_chaos_spec
    (fun spec ->
      let summary1, errs1 = chaos_summary spec in
      let summary2, errs2 = chaos_summary spec in
      errs1 = [] && errs2 = [] && summary1 = summary2)

let suite =
  [
    Alcotest.test_case "fault plan parsing" `Quick test_plan_parse;
    Alcotest.test_case "deadline sheds the backlog" `Quick test_deadline_sheds;
    Alcotest.test_case "no deadline, no shedding" `Quick test_no_deadline_no_shedding;
    Alcotest.test_case "crash teardown and re-execution" `Quick test_crash_recovery;
    Alcotest.test_case "stalls and slowdowns only add latency" `Quick
      test_stalls_and_slowdowns_only_add_latency;
    Alcotest.test_case "zero plan is inert" `Quick test_fault_free_plan_is_inert;
    Alcotest.test_case "trace records faults" `Quick test_trace_records_faults;
    Alcotest.test_case "forward hop re-stamps enqueued_at" `Quick
      test_forward_restamps_enqueued_at;
    Alcotest.test_case "cluster survives a lossy wire" `Quick
      test_cluster_survives_lossy_wire;
    Alcotest.test_case "total loss falls back to local execution" `Quick
      test_total_loss_falls_back_to_local;
    Alcotest.test_case "full chaos stack completes" `Quick test_cluster_chaos_full_stack;
    Alcotest.test_case "server-crash plan keys parse" `Quick
      test_plan_parse_server_keys;
    QCheck_alcotest.to_alcotest prop_plan_roundtrip;
    QCheck_alcotest.to_alcotest prop_plan_fuzz;
    Alcotest.test_case "server crashes conserve cluster-wide" `Quick
      test_server_crash_cluster_conservation;
    Alcotest.test_case "quarantine recovers via probe" `Quick
      test_quarantine_recovery;
    QCheck_alcotest.to_alcotest prop_chaos_invariants_and_determinism;
  ]
