(* Causal spans, phase attribution and the critical-path profiler.

   The anchor is the conservation identity: for every completed request,
   queue_wait + backoff + run + vm_stall + wire + suspend_wait equals the
   end-to-end latency EXACTLY in integer picoseconds — checked here as a
   qcheck property over random workloads and fault plans, and against the
   engine's own latency measurement. *)

open Jord_faas
module Time = Jord_sim.Time
module Engine = Jord_sim.Engine
module Plan = Jord_fault_inject.Plan
module Span = Jord_obsv.Span
module Critical_path = Jord_obsv.Critical_path
module Report = Jord_obsv.Report
module Tracefile = Jord_obsv.Tracefile

let contains needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* A cluster chaos run sharing one tracer across all members; returns the
   span forest plus the engine's own per-root latency measurements. *)
let traced_chaos_run ?(servers = 3) ?(capacity = 1 lsl 17) ~config ~requests
    ~gap_ns () =
  let cluster =
    Cluster.create ~forward_after:2 ~servers ~config Test_cluster.fanout_app
  in
  let tracer = Trace.create ~capacity () in
  Cluster.set_tracer cluster (Some tracer);
  let roots = ref [] in
  Cluster.on_root_complete cluster (fun r -> roots := r :: !roots);
  let engine = Cluster.engine cluster in
  for i = 0 to requests - 1 do
    Engine.schedule_at engine
      ~time:(Time.of_ns (float_of_int i *. gap_ns))
      (fun _ -> Cluster.submit cluster ())
  done;
  Cluster.run cluster;
  (tracer, Span.of_trace tracer, !roots)

(* Span end-to-end must equal what the engine itself measured for the root:
   completed_at - arrival, in exact integer picoseconds. *)
let check_roots_match_engine r roots =
  List.for_all
    (fun (root : Request.root) ->
      match Span.find r root.Request.root_id with
      | None -> false
      | Some sp ->
          Span.complete sp
          && Span.e2e_ps sp
             = Time.(root.Request.completed_at - root.Request.arrival))
    roots

let prop_conservation =
  QCheck.Test.make
    ~name:
      "conservation: phases sum exactly to end-to-end for every completed \
       request, under random workloads and fault plans"
    ~count:10 Test_chaos.arb_chaos_spec
    (fun spec ->
      let plan =
        {
          Plan.seed = spec.Test_chaos.fseed;
          crash = float_of_int spec.Test_chaos.crash_pm /. 1000.0;
          restart_us = 5.0;
          stall = 0.05;
          stall_us = 1.0;
          loss = float_of_int spec.Test_chaos.loss_pm /. 1000.0;
          dup = float_of_int spec.Test_chaos.dup_pm /. 1000.0;
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
          Server.seed = spec.Test_chaos.wseed;
          fault_plan = Some plan;
        }
      in
      let _, r, roots = traced_chaos_run ~config ~requests:50 ~gap_ns:1200.0 () in
      let _, done_, _, _ = Span.stats r in
      Span.conservation_violations r = []
      && done_ > 0 && roots <> []
      && check_roots_match_engine r roots)

let test_single_server_crash_conservation () =
  let config =
    {
      Test_cluster.small_config with
      Server.fault_plan =
        Some { Plan.none with Plan.seed = 11; crash = 0.15; restart_us = 4.0 };
    }
  in
  let server = Server.create config Test_cluster.fanout_app in
  let tracer = Trace.create () in
  Server.set_tracer server (Some tracer);
  let roots = ref [] in
  Server.on_root_complete server (fun r -> roots := r :: !roots);
  let engine = Server.engine server in
  for i = 0 to 79 do
    Engine.schedule_at engine
      ~time:(Time.of_ns (float_of_int i *. 2000.0))
      (fun _ -> Server.submit server ())
  done;
  Server.run server;
  Alcotest.(check bool) "crashes injected" true (Server.crashes server > 0);
  let r = Span.of_trace tracer in
  Alcotest.(check (list string)) "conservation holds through crashes" []
    (Span.conservation_violations r);
  Alcotest.(check bool) "spans match engine latencies" true
    (check_roots_match_engine r !roots);
  (* Crashed-and-recovered requests show the downtime as queue wait. *)
  Alcotest.(check bool) "some span records a crash" true
    (List.exists (fun sp -> sp.Span.crashes > 0)
       (List.of_seq
          (Hashtbl.to_seq_values r.Span.spans)))

let test_critical_path_conserves () =
  let _, r, _ =
    traced_chaos_run
      ~config:Test_cluster.small_config ~requests:60 ~gap_ns:900.0 ()
  in
  let roots = Span.complete_roots r in
  Alcotest.(check bool) "has complete roots" true (roots <> []);
  List.iter
    (fun sp ->
      let b = Critical_path.of_root r sp in
      Alcotest.(check int)
        (Printf.sprintf "blame total = e2e for root %d" sp.Span.req_id)
        (Span.e2e_ps sp)
        (Critical_path.total_ps b);
      Alcotest.(check bool) "chain starts at the root" true
        (match b.Critical_path.chain with
        | (id, _) :: _ -> id = sp.Span.req_id
        | [] -> false))
    roots;
  (* The fanout app really exercises fan-out: some chain must be > 1 deep. *)
  Alcotest.(check bool) "some chain descends into a child" true
    (List.exists
       (fun sp ->
         List.length (Critical_path.of_root r sp).Critical_path.chain > 1)
       roots)

let test_wraparound_truncation () =
  (* A ring too small for the run: analysis must still terminate, mark the
     result truncated, and say so in every report. *)
  let _, r, _ =
    traced_chaos_run ~capacity:64 ~config:Test_cluster.small_config
      ~requests:40 ~gap_ns:900.0 ()
  in
  Alcotest.(check bool) "marked truncated" true r.Span.truncated;
  let total, _, _, partial = Span.stats r in
  Alcotest.(check bool) "some spans partial (lost their birth)" true
    (partial > 0 && partial <= total);
  let report = Critical_path.report r in
  Alcotest.(check bool) "breakdown warns" true
    (contains "ring wrapped" (Report.breakdown report));
  Alcotest.(check bool) "critical-path warns" true
    (contains "ring wrapped" (Report.blame report));
  (* Partial spans are excluded from conservation, so the check still
     passes on the retained suffix. *)
  Alcotest.(check (list string)) "retained suffix conserves" []
    (Span.conservation_violations r)

let test_iter_fold_no_materialize () =
  let tr = Trace.create ~capacity:4 () in
  for i = 0 to 9 do
    Trace.emit tr ~at_ps:(i * 1000) ~kind:Trace.Start ~req_id:i ~root_id:0
      ~fn:"f" ~core:0 ()
  done;
  let seen = ref [] in
  Trace.iter tr (fun e -> seen := e.Trace.req_id :: !seen);
  Alcotest.(check (list int)) "iter in ring order, oldest first" [ 6; 7; 8; 9 ]
    (List.rev !seen);
  Alcotest.(check int) "fold visits the same window" 4
    (Trace.fold tr ~init:0 (fun n _ -> n + 1));
  Alcotest.(check bool) "truncated after wrap" true (Trace.truncated tr);
  let small = Trace.create ~capacity:8 () in
  Trace.emit small ~at_ps:0 ~kind:Trace.Arrive ~req_id:0 ~root_id:0 ~fn:"f"
    ~core:0 ();
  Alcotest.(check bool) "not truncated below capacity" false
    (Trace.truncated small)

let run_traced variant =
  let tracer = Trace.create () in
  let config = { Server.default_config with Server.variant } in
  let _, _ =
    Jord_workloads.Loadgen.run ~tracer ~warmup:0 ~app:Jord_workloads.Hipster.app
      ~config ~rate_mrps:1.0 ~duration_us:300.0 ()
  in
  Span.of_trace tracer

let vm_stall_total r =
  let acc = ref 0 in
  Span.iter_spans r (fun sp ->
      acc := !acc + sp.Span.phases.(Span.phase_index Span.Vm_stall));
  !acc

let test_vm_stall_jord_vs_ni () =
  (* The acceptance criterion of the attribution: VLB misses, VTW walks and
     shootdowns surface as vm_stall under Jord and never under Jord_NI
     (whose MMU events are not charged to isolation). *)
  let jord = run_traced Variant.Jord in
  let ni = run_traced Variant.Jord_ni in
  Alcotest.(check (list string)) "jord runs conserve" [] (Span.conservation_violations jord);
  Alcotest.(check (list string)) "ni runs conserve" [] (Span.conservation_violations ni);
  Alcotest.(check bool) "vm_stall > 0 under jord" true (vm_stall_total jord > 0);
  Alcotest.(check int) "vm_stall = 0 under ni" 0 (vm_stall_total ni)

let test_tracefile_roundtrip () =
  let tracer, r, _ =
    traced_chaos_run ~config:Test_cluster.small_config ~requests:30
      ~gap_ns:900.0 ()
  in
  let path = Filename.temp_file "jord_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Tracefile.save ~path
        ~meta:[ ("variant", Jord_util.Json.String "jord") ]
        tracer;
      match Tracefile.load ~path with
      | Error e -> Alcotest.fail e
      | Ok (Tracefile.Fleet _) -> Alcotest.fail "loaded as a fleet trace"
      | Ok (Tracefile.Server loaded) ->
          Alcotest.(check int) "all retained events round-trip"
            (Trace.length tracer)
            (List.length loaded.Tracefile.events);
          Alcotest.(check bool) "events identical" true
            (loaded.Tracefile.events = Trace.events tracer);
          let r2 = Tracefile.spans loaded in
          Alcotest.(check (list string)) "loaded spans still conserve" []
            (Span.conservation_violations r2);
          let t1, d1, x1, p1 = Span.stats r and t2, d2, x2, p2 = Span.stats r2 in
          Alcotest.(check (list int)) "same span census" [ t1; d1; x1; p1 ]
            [ t2; d2; x2; p2 ])

let test_load_rejects_garbage () =
  let path = Filename.temp_file "jord_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "{\"not\":\"a trace\"}\n";
      close_out oc;
      match Tracefile.load ~path with
      | Ok _ -> Alcotest.fail "missing header must be rejected"
      | Error e ->
          Alcotest.(check bool) "error names the problem" true
            (contains "jord_trace" e))

(* The one conservation check both trace kinds use: exact sums and
   non-negative phases. *)
let test_report_violations () =
  let row ?(phases = [| 3; 4 |]) e2e_ps =
    { Report.id = 7; fn = "f"; label = "#7 f"; e2e_ps; phases }
  in
  Alcotest.(check (list string)) "exact sum holds" [] (Report.violations [ row 7 ]);
  Alcotest.(check (list string)) "sum mismatch"
    [ "req 7 (f): phases sum to 7 ps but end-to-end is 8 ps (delta -1)" ]
    (Report.violations [ row 8 ]);
  Alcotest.(check (list string)) "negative phase"
    [ "req 7 (f): a phase is negative" ]
    (Report.violations [ row ~phases:[| 9; -2 |] 7 ])

let suite =
  [
    Alcotest.test_case "iter/fold over the ring window" `Quick
      test_iter_fold_no_materialize;
    Alcotest.test_case "single-server crash runs conserve" `Quick
      test_single_server_crash_conservation;
    Alcotest.test_case "critical-path blame sums to e2e" `Quick
      test_critical_path_conserves;
    Alcotest.test_case "wraparound marks reports truncated" `Quick
      test_wraparound_truncation;
    Alcotest.test_case "vm_stall: nonzero under jord, zero under ni" `Quick
      test_vm_stall_jord_vs_ni;
    Alcotest.test_case "tracefile round-trips exactly" `Quick
      test_tracefile_roundtrip;
    Alcotest.test_case "tracefile rejects non-trace files" `Quick
      test_load_rejects_garbage;
    Alcotest.test_case "conservation check flags sums and signs" `Quick
      test_report_violations;
    QCheck_alcotest.to_alcotest prop_conservation;
  ]
