(* Structured benchmarks: every experiment returns a Bench_json.doc whose
   Time metrics are host wall-clock (median/IQR over repetitions; advisory
   in CI) and whose Count metrics are deterministic — simulated results,
   event counts and per-op minor-heap allocation. A Count moving beyond
   tolerance means the implementation's arithmetic or allocation profile
   changed, which is exactly what the perf-regression gate must catch.

   Deterministic metrics carry a tight 0.1% tolerance: far above the JSON
   round-trip's %.6g rounding, far below any real behaviour change.
   Allocation metrics get 50%: minor words per op are stable for a given
   compiler but may shift across OCaml versions. The detailed server's
   minor words per event get 10%, so that losing a tenth of the
   allocation-free hot path fails the gate. *)

module B = Jord_util.Bench_json

let det_tol = 0.001
let alloc_tol = 0.5
let hot_path_alloc_tol = 0.1

(* Minor-heap words per simulated event over a seeded single-domain run,
   set-up included: a count, like the event total it divides by. *)
let words_per_event ~words ~events =
  B.count ~tolerance:hot_path_alloc_tol ~name:"minor_words_per_event" ~unit_:"words/event"
    (words /. float_of_int (Int.max 1 events))

(* Wall-clock ns/op over [reps] repetitions of [iters] calls (one warmup
   repetition is discarded). *)
let time_ns ~reps ~iters f =
  let rep () =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      f ()
    done;
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int iters
  in
  ignore (rep ());
  List.init reps (fun _ -> rep ())

(* Minor-heap words allocated per call, measured on the calling domain. *)
let minor_words ~iters f =
  f ();
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int iters

let reps quick = if quick then 5 else 9

(* --- engine: event-queue hot path --- *)

let engine ~quick =
  let iters = if quick then 20_000 else 60_000 in
  let counter = ref 0 in
  let batch () =
    let q = Jord_sim.Event_queue.create () in
    incr counter;
    for i = 0 to 15 do
      ignore
        (Jord_sim.Event_queue.push q ~time:((!counter + i) mod 97) i
          : Jord_sim.Event_queue.handle)
    done;
    while Jord_sim.Event_queue.pop q <> None do
      ()
    done
  in
  let per_batch = time_ns ~reps:(reps quick) ~iters batch in
  let words = minor_words ~iters:2_000 batch in
  {
    B.experiment = "engine";
    metrics =
      [
        B.metric ~name:"queue_push_pop_x16" ~unit_:"ns/batch" per_batch;
        B.count ~tolerance:alloc_tol ~name:"queue_push_pop_x16_minor_words"
          ~unit_:"words/batch" words;
      ];
  }

(* --- vm: VLB / VMA-store / memsys hot paths --- *)

let vm ~quick =
  let cfg = Jord_vm.Va.default_config in
  let mk_vte index =
    let sc = Jord_vm.Size_class.of_size 4096 in
    let base = Jord_vm.Va.encode cfg sc ~index ~offset:0 in
    Jord_vm.Vte.create ~base ~bytes:4096 ~phys:(0x100000 + (index * 4096)) ()
  in
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
  let vlb_probe = Jord_vm.Vte.base (mk_vte 7) + 5 in
  let memsys =
    Jord_arch.Memsys.create (Jord_arch.Topology.create Jord_arch.Config.default)
  in
  let iters = if quick then 50_000 else 200_000 in
  let r = reps quick in
  let t name f = B.metric ~name ~unit_:"ns/op" (time_ns ~reps:r ~iters f) in
  {
    B.experiment = "vm";
    metrics =
      [
        t "vlb_lookup" (fun () -> ignore (Jord_vm.Vlb.lookup vlb ~va:vlb_probe));
        t "vma_plain_lookup" (fun () ->
            ignore (Jord_vm.Vma_table.lookup plain ~va:probe));
        t "vma_btree_lookup" (fun () ->
            ignore (Jord_vm.Vma_btree.lookup btree fp ~va:probe));
        t "memsys_read_hit" (fun () ->
            ignore (Jord_arch.Memsys.read memsys ~core:0 ~addr:0x4000));
        B.count ~tolerance:det_tol ~name:"btree_rebalances_1k" ~unit_:"ops"
          (float_of_int (Jord_vm.Vma_btree.rebalance_ops btree));
      ];
  }

(* --- server: steady-state throughput of one seeded simulation --- *)

let server ~quick =
  let config = Exp_common.config_for Jord_faas.Variant.Jord in
  let duration_us = if quick then 800.0 else 2500.0 in
  let t0 = Unix.gettimeofday () in
  let w0 = Gc.minor_words () in
  let server, recorder =
    Jord_workloads.Loadgen.run ~warmup:200 ~app:Jord_workloads.Hipster.app ~config
      ~rate_mrps:4.0 ~duration_us ()
  in
  let words = Gc.minor_words () -. w0 in
  let wall_ns = (Unix.gettimeofday () -. t0) *. 1e9 in
  let events = Jord_sim.Engine.processed (Jord_faas.Server.engine server) in
  let open Jord_metrics.Recorder in
  {
    B.experiment = "server";
    metrics =
      [
        B.count ~tolerance:det_tol ~name:"completed" ~unit_:"requests"
          (float_of_int (count recorder));
        B.count ~tolerance:det_tol ~name:"events" ~unit_:"events"
          (float_of_int events);
        B.count ~tolerance:det_tol ~name:"throughput" ~unit_:"mrps"
          (throughput_mrps recorder);
        B.count ~tolerance:det_tol ~name:"p99" ~unit_:"us" (p99_us recorder);
        words_per_event ~words ~events;
        B.metric ~name:"wall_per_event" ~unit_:"ns/event"
          [ wall_ns /. float_of_int (Int.max 1 events) ];
      ];
  }

(* --- cluster: cross-server forwarding under tight queues --- *)

let fanout_app =
  let open Jord_faas.Model in
  let leaf =
    {
      name = "leaf";
      make_phases = (fun _ -> [ compute 2000.0 ]);
      state_bytes = 1024;
      code_bytes = 1024;
    }
  in
  let entry =
    {
      name = "entry";
      make_phases =
        (fun _ ->
          List.init 6 (fun _ -> invoke ~mode:Async ~arg_bytes:256 "leaf") @ [ wait ]);
      state_bytes = 1024;
      code_bytes = 1024;
    }
  in
  { app_name = "fanout"; fns = [ entry; leaf ]; entries = [ ("entry", 1.0) ] }

let cluster ~quick =
  let config =
    {
      (Exp_common.config_for Jord_faas.Variant.Jord) with
      Jord_faas.Server.machine =
        Jord_arch.Config.with_cores Jord_arch.Config.default 8;
      orchestrators = 1;
      queue_capacity = 2;
    }
  in
  let duration_us = if quick then 600.0 else 2000.0 in
  let t0 = Unix.gettimeofday () in
  let w0 = Gc.minor_words () in
  let cluster, recorder =
    Jord_workloads.Loadgen.run_cluster ~forward_after:2 ~servers:3 ~warmup:50
      ~app:fanout_app ~config ~rate_mrps:1.5 ~duration_us ()
  in
  let words = Gc.minor_words () -. w0 in
  let wall_ns = (Unix.gettimeofday () -. t0) *. 1e9 in
  let events = Jord_sim.Engine.processed (Jord_faas.Cluster.engine cluster) in
  let members = Jord_faas.Cluster.servers cluster in
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 members in
  {
    B.experiment = "cluster";
    metrics =
      [
        B.count ~tolerance:det_tol ~name:"completed" ~unit_:"requests"
          (float_of_int (Jord_metrics.Recorder.count recorder));
        B.count ~tolerance:det_tol ~name:"events" ~unit_:"events"
          (float_of_int events);
        B.count ~tolerance:det_tol ~name:"forwarded_out" ~unit_:"requests"
          (float_of_int (sum Jord_faas.Server.forwarded_out));
        B.count ~tolerance:det_tol ~name:"received_in" ~unit_:"requests"
          (float_of_int (sum Jord_faas.Server.received_in));
        words_per_event ~words ~events;
        B.metric ~name:"wall_per_event" ~unit_:"ns/event"
          [ wall_ns /. float_of_int (Int.max 1 events) ];
      ];
  }

(* --- cluster_sharded: the conservative parallel core. One seeded 8-server
   fanout workload run twice per repetition — sequentially (shards=1, the
   historical shared engine) and on 4 parallel engine shards — with a full
   result signature compared for byte-equality. The signature match is the
   hard gate (determinism_ok); events/sec and the sharded/sequential
   speedup are host wall-clock, so advisory. --- *)

let cluster_sharded ~quick =
  let servers = 8 in
  let shards = 4 in
  let config =
    {
      (Exp_common.config_for Jord_faas.Variant.Jord) with
      Jord_faas.Server.machine =
        Jord_arch.Config.with_cores Jord_arch.Config.default 8;
      orchestrators = 1;
      queue_capacity = 2;
    }
  in
  let duration_us = if quick then 600.0 else 2000.0 in
  let run ~shards =
    let t0 = Unix.gettimeofday () in
    let cluster, recorder =
      Jord_workloads.Loadgen.run_cluster ~forward_after:2 ~shards ~servers
        ~warmup:50 ~app:fanout_app ~config ~rate_mrps:3.0 ~duration_us ()
    in
    let wall_s = Unix.gettimeofday () -. t0 in
    let members = Jord_faas.Cluster.servers cluster in
    let sum f = Array.fold_left (fun acc s -> acc + f s) 0 members in
    let open Jord_metrics.Recorder in
    let signature =
      Printf.sprintf "count=%d events=%d out=%d in=%d p99=%.17g tput=%.17g"
        (count recorder)
        (Jord_faas.Cluster.events_processed cluster)
        (sum Jord_faas.Server.forwarded_out)
        (sum Jord_faas.Server.received_in)
        (p99_us recorder) (throughput_mrps recorder)
    in
    ( signature,
      float_of_int (count recorder),
      Jord_faas.Cluster.events_processed cluster,
      wall_s )
  in
  ignore (run ~shards);
  ignore (run ~shards:1);
  let pairs = List.init (reps quick) (fun _ -> (run ~shards:1, run ~shards)) in
  let identical =
    List.for_all (fun ((sig_seq, _, _, _), (sig_shd, _, _, _)) -> sig_seq = sig_shd)
      pairs
  in
  let (_, completed, events, _), _ = List.hd pairs in
  let rate_of (_, _, events, wall_s) =
    float_of_int events /. Float.max wall_s 1e-9
  in
  {
    B.experiment = "cluster_sharded";
    metrics =
      [
        (* The conservative core's contract: 1.0 iff every repetition's
           sharded signature was byte-equal to the sequential one. *)
        B.count ~tolerance:det_tol ~name:"determinism_ok" ~unit_:"bool"
          (if identical then 1.0 else 0.0);
        B.count ~tolerance:det_tol ~name:"completed" ~unit_:"requests" completed;
        B.count ~tolerance:det_tol ~name:"events" ~unit_:"events"
          (float_of_int events);
        B.metric ~name:"events_per_sec_seq" ~unit_:"events/s"
          (List.map (fun (seq, _) -> rate_of seq) pairs);
        B.metric ~name:"events_per_sec_sharded" ~unit_:"events/s"
          (List.map (fun (_, shd) -> rate_of shd) pairs);
        (* > 1.0 whenever the host gives the 4 shard domains real cores;
           on starved CI runners the barrier overhead can push it below. *)
        B.metric ~name:"sharded_speedup" ~unit_:"ratio"
          (List.map (fun (seq, shd) -> rate_of shd /. Float.max (rate_of seq) 1e-9)
             pairs);
      ];
  }

(* --- chaos_failover: the server failure domain under sharding. One seeded
   3-server fanout workload under a whole-server-crash fault plan, run
   sequentially (shards=1) and on 3 parallel engine shards, with the full
   chaos signature — completions, crash/recovery counters and every
   transport stat — compared for byte-equality. The signature match and
   the conservation invariants are the hard gates (determinism_ok,
   invariants_ok); the chaos counters are deterministic counts, so the
   baseline also pins how much failure the plan actually injects. --- *)

let chaos_failover ~quick =
  let plan =
    {
      Jord_fault_inject.Plan.ci_smoke with
      Jord_fault_inject.Plan.server_crash = 0.002;
      server_down_us = 20.0;
      warm_loss = 1.0;
    }
  in
  let config =
    {
      (Exp_common.config_for Jord_faas.Variant.Jord) with
      Jord_faas.Server.machine =
        Jord_arch.Config.with_cores Jord_arch.Config.default 8;
      orchestrators = 1;
      queue_capacity = 2;
      fault_plan = Some plan;
    }
  in
  let duration_us = if quick then 600.0 else 2000.0 in
  let run ~shards =
    let cluster, recorder =
      Jord_workloads.Loadgen.run_cluster ~forward_after:2 ~shards ~servers:3
        ~warmup:50 ~app:fanout_app ~config ~rate_mrps:1.5 ~duration_us ()
    in
    let members = Jord_faas.Cluster.servers cluster in
    let sum f = Array.fold_left (fun acc s -> acc + f s) 0 members in
    let s = Option.get (Jord_faas.Cluster.net_stats cluster) in
    let signature =
      Printf.sprintf
        "count=%d events=%d crashes=%d srv=%d warm=%d cold=%d rec=%d \
         xfers=%d copies=%d lost=%d dup=%d down=%d acked=%d retries=%d \
         abandoned=%d failover=%d dead=%d probe=%d p99=%.17g"
        (Jord_metrics.Recorder.count recorder)
        (Jord_faas.Cluster.events_processed cluster)
        (sum Jord_faas.Server.crashes)
        (sum Jord_faas.Server.server_crashes)
        (sum Jord_faas.Server.warm_losses)
        (sum Jord_faas.Server.cold_starts)
        (sum Jord_faas.Server.recovered)
        s.Jord_faas.Cluster.xfers s.Jord_faas.Cluster.wire_copies
        s.Jord_faas.Cluster.lost s.Jord_faas.Cluster.dup_dropped
        s.Jord_faas.Cluster.dropped_down s.Jord_faas.Cluster.acked
        s.Jord_faas.Cluster.retries s.Jord_faas.Cluster.abandoned
        s.Jord_faas.Cluster.failover s.Jord_faas.Cluster.peers_marked_dead
        s.Jord_faas.Cluster.peers_unquarantined
        (Jord_metrics.Recorder.p99_us recorder)
    in
    let clean = Jord_faas.Cluster.check_invariants cluster = [] in
    ( signature,
      clean,
      float_of_int (Jord_metrics.Recorder.count recorder),
      float_of_int (sum Jord_faas.Server.server_crashes),
      float_of_int s.Jord_faas.Cluster.failover )
  in
  let pairs = List.init (reps quick) (fun _ -> (run ~shards:1, run ~shards:3)) in
  let identical =
    List.for_all
      (fun ((sig_seq, _, _, _, _), (sig_shd, _, _, _, _)) -> sig_seq = sig_shd)
      pairs
  in
  let all_clean =
    List.for_all
      (fun ((_, c1, _, _, _), (_, c2, _, _, _)) -> c1 && c2)
      pairs
  in
  let (_, _, completed, server_crashes, failover), _ = List.hd pairs in
  {
    B.experiment = "chaos_failover";
    metrics =
      [
        (* Hard gate: any fault plan replays byte-identically at every
           shard count — sharded chaos is part of the determinism contract. *)
        B.count ~tolerance:det_tol ~name:"determinism_ok" ~unit_:"bool"
          (if identical then 1.0 else 0.0);
        (* Hard gate: no request lost or executed twice through whole-server
           crashes, failover and local re-execution. *)
        B.count ~tolerance:det_tol ~name:"invariants_ok" ~unit_:"bool"
          (if all_clean then 1.0 else 0.0);
        B.count ~tolerance:det_tol ~name:"completed" ~unit_:"requests" completed;
        B.count ~tolerance:det_tol ~name:"server_crashes" ~unit_:"crashes"
          server_crashes;
        B.count ~tolerance:det_tol ~name:"failover" ~unit_:"transfers" failover;
      ];
  }

(* --- fleet_scale: the datacenter layer over the parallel core. One seeded
   64-server fleet under autoscaled flash-crowd traffic, run sequentially
   (shards=1) and on 4 engine shards (balancer shard + 3 server shards),
   with the full result signature — routing, autoscale actions, cold
   starts, the latency quantile and the SLO rollup verdicts — compared for
   byte-equality. The signature match is the hard gate (determinism_ok);
   the deterministic counts pin how much the autoscaler and the flash crowd
   actually do; events/sec and the speedup are host wall-clock, so
   advisory. --- *)

let fleet_scale ~quick =
  let duration_us = if quick then 400.0 else 1200.0 in
  let shape =
    match Jord_workloads.Traffic.parse "ci,users=100000,rate=40" with
    | Ok s -> s
    | Error m -> failwith ("fleet_scale: " ^ m)
  in
  let autoscale =
    match Jord_fleet.Autoscaler.parse "fast,min=12,boot-us=60" with
    | Ok s -> s
    | Error m -> failwith ("fleet_scale: " ^ m)
  in
  let slo =
    match Jord_obsv.Slo.parse "ci" with
    | Ok o -> o
    | Error m -> failwith ("fleet_scale: " ^ m)
  in
  let run ~shards =
    let cfg =
      {
        Jord_fleet.Fleet.default_config with
        Jord_fleet.Fleet.servers = 64;
        member =
          { Jord_fleet.Fserver.default_config with Jord_fleet.Fserver.slots = 8; queue_cap = 32 };
        autoscale = Some autoscale;
        shards;
      }
    in
    let t0 = Unix.gettimeofday () in
    let t = Jord_fleet.Fleet.create cfg ~app:Jord_workloads.Hipster.app in
    Jord_fleet.Fleet.run ~slo t ~shape ~duration_us;
    let wall_s = Unix.gettimeofday () -. t0 in
    let module F = Jord_fleet.Fleet in
    let rollup_sig =
      match F.rollup t with
      | None -> "none"
      | Some r ->
          String.concat ";"
            (List.map
               (fun (row : Jord_obsv.Rollup.row) ->
                 Printf.sprintf "%s:%d/%d/%d:%s"
                   row.Jord_obsv.Rollup.r_objective.Jord_obsv.Slo.name
                   row.Jord_obsv.Rollup.r_requests row.Jord_obsv.Rollup.r_bad
                   row.Jord_obsv.Rollup.r_shed row.Jord_obsv.Rollup.r_verdict)
               (Jord_obsv.Rollup.rows r))
    in
    let signature =
      Printf.sprintf
        "arr=%d routed=%d done=%d shed=%d hits=%d cold=%d boots=%d drains=%d \
         events=%d p99=%d mean=%.17g slo=[%s]"
        (F.arrivals t) (F.routed t) (F.completed t) (F.shed t)
        (F.affinity_hits t) (F.cold_starts t) (F.boots t) (F.drains t)
        (F.events_processed t)
        (Jord_telemetry.Sketch.quantile (F.latency t) 99.0)
        (Jord_telemetry.Sketch.mean (F.latency t))
        rollup_sig
    in
    ( signature,
      float_of_int (F.completed t),
      float_of_int (F.cold_starts t),
      float_of_int (F.boots t),
      float_of_int (F.drains t),
      (F.events_processed t, wall_s) )
  in
  ignore (run ~shards:4);
  ignore (run ~shards:1);
  let pairs = List.init (reps quick) (fun _ -> (run ~shards:1, run ~shards:4)) in
  let identical =
    List.for_all
      (fun ((sig_seq, _, _, _, _, _), (sig_shd, _, _, _, _, _)) ->
        sig_seq = sig_shd)
      pairs
  in
  let (_, completed, cold_starts, boots, drains, _), _ = List.hd pairs in
  let rate_of (events, wall_s) = float_of_int events /. Float.max wall_s 1e-9 in
  {
    B.experiment = "fleet_scale";
    metrics =
      [
        (* Hard gate: a fleet run — balancer decisions, autoscale actions,
           cold starts, SLO verdicts — is byte-identical at any shard
           count. *)
        B.count ~tolerance:det_tol ~name:"determinism_ok" ~unit_:"bool"
          (if identical then 1.0 else 0.0);
        B.count ~tolerance:det_tol ~name:"completed" ~unit_:"requests" completed;
        B.count ~tolerance:det_tol ~name:"cold_starts" ~unit_:"starts" cold_starts;
        B.count ~tolerance:det_tol ~name:"boots" ~unit_:"servers" boots;
        B.count ~tolerance:det_tol ~name:"drains" ~unit_:"servers" drains;
        B.metric ~name:"events_per_sec_seq" ~unit_:"events/s"
          (List.map (fun ((_, _, _, _, _, seq), _) -> rate_of seq) pairs);
        B.metric ~name:"events_per_sec_sharded" ~unit_:"events/s"
          (List.map (fun (_, (_, _, _, _, _, shd)) -> rate_of shd) pairs);
        B.metric ~name:"sharded_speedup" ~unit_:"ratio"
          (List.map
             (fun ((_, _, _, _, _, seq), (_, _, _, _, _, shd)) ->
               rate_of shd /. Float.max (rate_of seq) 1e-9)
             pairs);
      ];
  }

(* --- fleet_trace_overhead: cost and determinism of fleet causal tracing.
   One seeded autoscaled flash-crowd fleet, run untraced and traced on the
   same seeds. Hard gates: the tracer leaves the simulation untouched (the
   traced run's fleet signature equals the untraced one), the whole trace
   surface — retained span lines plus the verdict table with its exemplar
   column — is byte-identical at shards 1 and 4, the retained-span census
   is pinned, and every exemplar id named by a verdict row or closed
   window is present in the retained set. The wall-clock cost of tracing
   is advisory (target <= ~1.1x). --- *)

let fleet_trace_overhead ~quick =
  let duration_us = if quick then 400.0 else 1200.0 in
  let shape =
    match Jord_workloads.Traffic.parse "flash,users=100000,rate=40" with
    | Ok s -> s
    | Error m -> failwith ("fleet_trace_overhead: " ^ m)
  in
  let autoscale =
    match Jord_fleet.Autoscaler.parse "fast,min=12,boot-us=60" with
    | Ok s -> s
    | Error m -> failwith ("fleet_trace_overhead: " ^ m)
  in
  let slo =
    match Jord_obsv.Slo.parse "ci" with
    | Ok o -> o
    | Error m -> failwith ("fleet_trace_overhead: " ^ m)
  in
  let module F = Jord_fleet.Fleet in
  let module Ftrace = Jord_obsv.Ftrace in
  let run ~shards ~traced =
    let cfg =
      {
        F.default_config with
        F.servers = 64;
        member =
          { Jord_fleet.Fserver.default_config with Jord_fleet.Fserver.slots = 8; queue_cap = 32 };
        autoscale = Some autoscale;
        shards;
      }
    in
    let tracer = if traced then Some (Ftrace.create ()) else None in
    let t0 = Unix.gettimeofday () in
    let t = F.create cfg ~app:Jord_workloads.Hipster.app in
    F.run ~slo ?tracer t ~shape ~duration_us;
    let wall_s = Unix.gettimeofday () -. t0 in
    let fleet_sig =
      Printf.sprintf "arr=%d done=%d shed=%d cold=%d events=%d p99=%d"
        (F.arrivals t) (F.completed t) (F.shed t) (F.cold_starts t)
        (F.events_processed t)
        (Jord_telemetry.Sketch.quantile (F.latency t) 99.0)
    in
    let trace_sig, retained, exemplars_ok =
      match tracer with
      | None -> ("untraced", 0, true)
      | Some tr ->
          let lines =
            List.map
              (fun (keep, sp) -> Jord_obsv.Fspan.to_json_line ~keep sp)
              (Ftrace.retained tr)
          in
          let ids = Ftrace.retained_ids tr in
          let rollup_text =
            match F.rollup t with
            | Some r -> Jord_obsv.Rollup.report_text r
            | None -> "no-rollup"
          in
          let ex_ok =
            match F.rollup t with
            | None -> true
            | Some r ->
                List.for_all
                  (fun (row : Jord_obsv.Rollup.row) ->
                    row.Jord_obsv.Rollup.r_exemplar < 0
                    || List.mem row.Jord_obsv.Rollup.r_exemplar ids)
                  (Jord_obsv.Rollup.rows r)
                && List.for_all
                     (fun (_, ws) ->
                       List.for_all
                         (fun (cw : Jord_obsv.Rollup.closed_window) ->
                           cw.Jord_obsv.Rollup.cw_exemplar < 0
                           || List.mem cw.Jord_obsv.Rollup.cw_exemplar ids)
                         ws)
                     (Jord_obsv.Rollup.windows r)
          in
          (String.concat "\n" (rollup_text :: lines), List.length lines, ex_ok)
    in
    (fleet_sig, trace_sig, retained, exemplars_ok, (F.events_processed t, wall_s))
  in
  ignore (run ~shards:1 ~traced:true);
  let pairs =
    List.init (reps quick) (fun _ ->
        (run ~shards:1 ~traced:false, run ~shards:1 ~traced:true))
  in
  let fsig_off, _, _, _, _ = fst (List.hd pairs) in
  let fsig_on, tsig_on, retained, exemplars_ok, _ = snd (List.hd pairs) in
  let _, tsig_shd, _, _, _ = run ~shards:4 ~traced:true in
  let stable =
    List.for_all
      (fun ((fo, _, _, _, _), (fn_, ts, _, _, _)) ->
        fo = fsig_off && fn_ = fsig_on && ts = tsig_on)
      pairs
  in
  let rate_of (events, wall_s) = float_of_int events /. Float.max wall_s 1e-9 in
  {
    B.experiment = "fleet_trace_overhead";
    metrics =
      [
        (* Hard gates: tracing never perturbs the simulation, and the
           trace surface is shard-invariant and repeatable. *)
        B.count ~tolerance:det_tol ~name:"sim_unperturbed" ~unit_:"bool"
          (if fsig_off = fsig_on && stable then 1.0 else 0.0);
        B.count ~tolerance:det_tol ~name:"determinism_ok" ~unit_:"bool"
          (if tsig_on = tsig_shd then 1.0 else 0.0);
        B.count ~tolerance:det_tol ~name:"exemplars_ok" ~unit_:"bool"
          (if exemplars_ok then 1.0 else 0.0);
        B.count ~tolerance:det_tol ~name:"retained_spans" ~unit_:"spans"
          (float_of_int retained);
        B.metric ~name:"events_per_sec_untraced" ~unit_:"events/s"
          (List.map (fun ((_, _, _, _, off), _) -> rate_of off) pairs);
        B.metric ~name:"events_per_sec_traced" ~unit_:"events/s"
          (List.map (fun (_, (_, _, _, _, on)) -> rate_of on) pairs);
        (* Wall-clock slowdown of the traced run over the untraced run of
           the same seeded simulation (1.0 = free; advisory, ~1.1x). *)
        B.metric ~name:"fleet_trace_overhead" ~unit_:"ratio"
          (List.map
             (fun ((_, _, _, _, off), (_, _, _, _, on)) ->
               snd on /. Float.max (snd off) 1e-9)
             pairs);
      ];
  }

(* --- trace: cost of causal tracing on the single-server hot path --- *)

let trace ~quick =
  let config = Exp_common.config_for Jord_faas.Variant.Jord in
  let duration_us = if quick then 500.0 else 1200.0 in
  let run ?tracer () =
    let t0 = Unix.gettimeofday () in
    let server, _ =
      Jord_workloads.Loadgen.run ?tracer ~warmup:100
        ~app:Jord_workloads.Hipster.app ~config ~rate_mrps:3.0 ~duration_us ()
    in
    let wall_s = Unix.gettimeofday () -. t0 in
    (Jord_sim.Engine.processed (Jord_faas.Server.engine server), wall_s)
  in
  ignore (run ());
  let r = reps quick in
  let emitted = ref 0 in
  let pairs =
    List.init r (fun _ ->
        let events_off, off_s = run () in
        let tr = Jord_faas.Trace.create () in
        let events_on, on_s = run ~tracer:tr () in
        emitted := Jord_faas.Trace.total_emitted tr;
        ((events_off, off_s), (events_on, on_s)))
  in
  let rate_of (events, s) = float_of_int events /. Float.max s 1e-9 in
  {
    B.experiment = "trace";
    metrics =
      [
        B.metric ~name:"events_per_sec_off" ~unit_:"events/s"
          (List.map (fun (off, _) -> rate_of off) pairs);
        B.metric ~name:"events_per_sec_on" ~unit_:"events/s"
          (List.map (fun (_, on) -> rate_of on) pairs);
        (* Wall-clock slowdown of the traced run over the untraced run of
           the same seeded simulation (1.0 = free). *)
        B.metric ~name:"trace_overhead" ~unit_:"ratio"
          (List.map (fun ((_, off_s), (_, on_s)) -> on_s /. Float.max off_s 1e-9) pairs);
        B.count ~tolerance:det_tol ~name:"trace_events_emitted" ~unit_:"events"
          (float_of_int !emitted);
      ];
  }

(* --- slo_overhead: cost of the online SLO plane over plain tracing --- *)

let slo_overhead ~quick =
  let config = Exp_common.config_for Jord_faas.Variant.Jord in
  let duration_us = if quick then 500.0 else 1200.0 in
  (* A threshold below this workload's p99 so windows carry bad requests and
     the burn-rate rule does real transitions, not just bookkeeping. *)
  let objectives =
    match Jord_obsv.Slo.parse "p=99,threshold_us=6,window_us=100,budget=0.02,slow=3" with
    | Ok objs -> objs
    | Error msg -> failwith ("slo_overhead: " ^ msg)
  in
  let run ~slo () =
    let tracer = Jord_faas.Trace.create () in
    let pipeline =
      if slo then begin
        let p = Jord_obsv.Online.create objectives in
        Jord_obsv.Online.attach p tracer;
        Some p
      end
      else None
    in
    let t0 = Unix.gettimeofday () in
    let server, _ =
      Jord_workloads.Loadgen.run ~tracer ~warmup:100
        ~app:Jord_workloads.Hipster.app ~config ~rate_mrps:3.0 ~duration_us ()
    in
    let wall_s = Unix.gettimeofday () -. t0 in
    Option.iter
      (fun p ->
        Jord_obsv.Online.finish p
          ~now_ps:(Jord_sim.Engine.now (Jord_faas.Server.engine server)))
      pipeline;
    (wall_s, pipeline)
  in
  ignore (run ~slo:true ());
  let r = reps quick in
  let last_pipeline = ref None in
  let pairs =
    List.init r (fun _ ->
        let off_s, _ = run ~slo:false () in
        let on_s, p = run ~slo:true () in
        last_pipeline := p;
        (off_s, on_s))
  in
  let snaps =
    match !last_pipeline with
    | Some p -> Jord_obsv.Online.snapshot p
    | None -> []
  in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 snaps in
  {
    B.experiment = "slo_overhead";
    metrics =
      [
        (* Wall-clock slowdown of traced+SLO over traced-only of the same
           seeded simulation (1.0 = the pipeline is free). *)
        B.metric ~name:"slo_overhead" ~unit_:"ratio"
          (List.map (fun (off_s, on_s) -> on_s /. Float.max off_s 1e-9) pairs);
        B.count ~tolerance:det_tol ~name:"slo_requests" ~unit_:"requests"
          (float_of_int (sum (fun s -> s.Jord_obsv.Online.s_completed + s.Jord_obsv.Online.s_shed)));
        B.count ~tolerance:det_tol ~name:"slo_bad" ~unit_:"requests"
          (float_of_int (sum (fun s -> s.Jord_obsv.Online.s_bad)));
        B.count ~tolerance:det_tol ~name:"slo_windows_closed" ~unit_:"windows"
          (float_of_int (sum (fun s -> s.Jord_obsv.Online.s_windows_closed)));
        B.count ~tolerance:det_tol ~name:"slo_transitions" ~unit_:"transitions"
          (float_of_int (sum (fun s -> s.Jord_obsv.Online.s_fired + s.Jord_obsv.Online.s_resolved)));
      ];
  }

(* --- registry --- *)

let experiments =
  [
    ("engine", engine);
    ("vm", vm);
    ("server", server);
    ("cluster", cluster);
    ("cluster_sharded", cluster_sharded);
    ("chaos_failover", chaos_failover);
    ("fleet_scale", fleet_scale);
    ("fleet_trace_overhead", fleet_trace_overhead);
    ("trace", trace);
    ("slo_overhead", slo_overhead);
  ]

let names = List.map fst experiments
let is_known name = List.mem_assoc name experiments

let run_one ~quick name =
  match List.assoc_opt name experiments with
  | Some f -> Ok (f ~quick)
  | None ->
      Error
        (Printf.sprintf "unknown bench experiment %S; valid: %s" name
           (String.concat ", " names))

let render (doc : B.doc) =
  Jord_util.Render.table
    ~title:(Printf.sprintf "bench [%s]" doc.B.experiment)
    ~header:[ "metric"; "kind"; "value"; "unit"; "iqr"; "reps" ]
    ~rows:
      (List.map
         (fun (m : B.metric) ->
           [
             m.B.name;
             (match m.B.kind with B.Time -> "time" | B.Count -> "count");
             Printf.sprintf "%g" m.B.value;
             m.B.unit_;
             Printf.sprintf "%g" m.B.iqr;
             string_of_int m.B.repetitions;
           ])
         doc.B.metrics)
    ()

(* --- parallel selftest: byte-identical + measurably faster --- *)

let par_selftest ?jobs ?(quick = true) () =
  let jobs =
    match jobs with
    | Some j -> j
    | None -> Int.min 4 (Int.max 2 (Domain.recommended_domain_count ()))
  in
  let duration_us = if quick then 1200.0 else 3000.0 in
  let points =
    [ (1.0, 0); (2.0, 0); (3.0, 0); (4.0, 0); (1.5, 1); (2.5, 1); (3.5, 1); (4.5, 1) ]
  in
  let run_case (rate, seed_offset) =
    let config = Exp_common.config_for Jord_faas.Variant.Jord in
    let config =
      { config with Jord_faas.Server.seed = config.Jord_faas.Server.seed + (1000 * seed_offset) }
    in
    let server, recorder =
      Jord_workloads.Loadgen.run ~warmup:100 ~app:Jord_workloads.Hipster.app ~config
        ~rate_mrps:rate ~duration_us ~seed:(7 + (100 * seed_offset)) ()
    in
    Printf.sprintf "r%g_s%d count=%d events=%d p99=%.17g tput=%.17g" rate seed_offset
      (Jord_metrics.Recorder.count recorder)
      (Jord_sim.Engine.processed (Jord_faas.Server.engine server))
      (Jord_metrics.Recorder.p99_us recorder)
      (Jord_metrics.Recorder.throughput_mrps recorder)
  in
  (* Warm code paths once so the sequential leg is not paying one-time
     initialization the parallel leg then skips. *)
  ignore (run_case (List.hd points));
  let timed f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let seq_report, seq_s = timed (fun () -> List.map run_case points) in
  let par_report, par_s =
    timed (fun () ->
        Jord_par.Pool.with_pool ~jobs (fun pool ->
            Jord_par.Pool.parmap pool run_case points))
  in
  if seq_report <> par_report then
    Error
      (Printf.sprintf
         "parallel report differs from sequential (jobs=%d): determinism broken" jobs)
  else begin
    let speedup = seq_s /. Float.max par_s 1e-9 in
    let cores = Domain.recommended_domain_count () in
    let summary =
      Printf.sprintf
        "par-selftest: %d points byte-identical at jobs=%d; seq=%.2fs par=%.2fs \
         speedup=%.2fx (%d cores)"
        (List.length points) jobs seq_s par_s speedup cores
    in
    if cores >= jobs && jobs >= 4 && speedup < 1.8 then
      Error (summary ^ " — expected >= 1.8x on a machine with >= 4 cores")
    else Ok summary
  end
