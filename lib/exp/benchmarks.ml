(* Structured benchmarks: every experiment returns a Bench_json.doc whose
   Time metrics are host wall-clock (median/IQR over repetitions; advisory
   in CI) and whose Count metrics are deterministic — simulated results,
   event counts and per-op minor-heap allocation. A Count moving beyond
   tolerance means the implementation's arithmetic or allocation profile
   changed, which is exactly what the perf-regression gate must catch.

   Deterministic metrics carry a tight 0.1% tolerance: far above the JSON
   round-trip's %.6g rounding, far below any real behaviour change.
   Allocation metrics get 50%: minor words per op are stable for a given
   compiler but may shift across OCaml versions. Minor words per event of
   the detailed server and of the sequential fleet get 10%, so that losing
   a tenth of the allocation-free hot path fails the gate.

   Every wall time reads Jord_util.Clock (CLOCK_MONOTONIC). A run measured
   for both reads the minor-heap words inside the clock window, and builds
   its configs and parses its specs before either window opens, so the
   words counted are the run's own. *)

module B = Jord_util.Bench_json
module Clock = Jord_util.Clock

let det_tol = 0.001
let alloc_tol = 0.5
let hot_path_alloc_tol = 0.1

(* Deterministic counts at [det_tol]: a float, an int, and a hard gate that
   reads 1.0 iff [ok]. *)
let det name unit_ v = B.count ~tolerance:det_tol ~name ~unit_ v
let det_int name unit_ n = det name unit_ (float_of_int n)
let flag name ok = det name "bool" (if ok then 1.0 else 0.0)

(* Minor-heap words per simulated event over a seeded single-domain run,
   set-up included: a count, like the event total it divides by. *)
let words_per_event ~words ~events =
  B.count ~tolerance:hot_path_alloc_tol ~name:"minor_words_per_event" ~unit_:"words/event"
    (words /. float_of_int (Int.max 1 events))

(* One measured run: [f]'s result, its wall seconds and the minor-heap
   words it allocated on the calling domain. *)
let measured f =
  let t0 = Clock.now_ns () in
  let w0 = Gc.minor_words () in
  let r = f () in
  let words = Gc.minor_words () -. w0 in
  (r, Clock.since_s t0, words)

let repeat iters f () =
  for _ = 1 to iters do
    f ()
  done

(* Wall-clock ns/op over [reps] repetitions of [iters] calls (one warmup
   repetition is discarded). *)
let time_ns ~reps ~iters f =
  let rep () = snd (Clock.timed (repeat iters f)) *. 1e9 /. float_of_int iters in
  ignore (rep ());
  List.init reps (fun _ -> rep ())

(* Minor-heap words allocated per call, after one warmup call. *)
let minor_words ~iters f =
  f ();
  let (), _, words = measured (repeat iters f) in
  words /. float_of_int iters

(* [reps] alternating pairs of runs, [a] before [b] in each. *)
let pairs ~reps a b =
  List.init reps (fun _ ->
      let x = a () in
      (x, b ()))

(* Whether both legs of every pair agree on signature [f], compared with
   [compare] so that a NaN field agrees with itself. *)
let agree f pairs = List.for_all (fun (a, b) -> compare (f a) (f b) = 0) pairs

(* One advisory row of [f] over every run, or pair of runs. *)
let per_run name unit_ f runs = B.metric ~name ~unit_ (List.map f runs)

(* The events/s of both legs of every pair, each leg (events, wall
   seconds), as rows [a] and [b], and row [ratio]: the second leg's speedup
   in events/s, or with [slowdown] its wall seconds over the first's
   (1.0 = free). *)
let rates ?(slowdown = false) (a, b, ratio) pairs =
  let rate (events, s) = float_of_int events /. Float.max s 1e-9 in
  [
    per_run a "events/s" (fun (x, _) -> rate x) pairs;
    per_run b "events/s" (fun (_, y) -> rate y) pairs;
    per_run ratio "ratio"
      (fun (x, y) ->
        if slowdown then snd y /. Float.max (snd x) 1e-9 else rate y /. Float.max (rate x) 1e-9)
      pairs;
  ]

let reps quick = if quick then 5 else 9

let parse parse spec = match parse spec with Ok v -> v | Error m -> failwith (spec ^ ": " ^ m)

(* --- engine: the event queue, the dispatch loop and the epoch loop --- *)

module Engine = Jord_sim.Engine
module Epoch = Jord_sim.Epoch

(* [lanes] always-armed events, each rescheduling itself after a fixed
   per-lane gap: the shape of the orchestrator dispatch loop and the
   executor poll loop, which dominate the queue. *)
let lanes = 64
let gap lane = 1 + (lane * 7 mod 97)

(* Arms [n] lanes on [e], lane [i] gapped as lane [first + i]. A fire calls
   [fire i eng] and re-arms its lane while that holds. [fresh] allocates a
   closure per event, as a naive call site does; otherwise each lane reuses
   one closure for the whole run, the engine's allocation-free fast path. *)
let arm ?(fresh = false) ?(first = 0) e n fire =
  let fns = Array.make n (fun (_ : Engine.t) -> ()) in
  let after i = gap (first + i) in
  Array.iteri
    (fun i _ ->
      fns.(i) <-
        (fun eng ->
          if fire i eng then
            Engine.schedule eng ~after:(after i)
              (if fresh then fun eng -> fns.(i) eng else fns.(i))))
    fns;
  Array.iteri (fun i fn -> Engine.schedule e ~after:(after i) fn) fns

(* Events fired by one dispatch run of [total] events. *)
let dispatch ~fresh total =
  let e = Engine.create () and fired = ref 0 in
  arm ~fresh e lanes (fun _ _ ->
      incr fired;
      !fired < total);
  Engine.run e;
  !fired

(* The conservative parallel core on the same event shape: [epoch_shards]
   shards of [lanes / epoch_shards] lanes, and a courier that hops shard to
   shard through the mailbox every epoch, so the barrier path always runs.
   Returns the events processed and a checksum of the fire times, which a
   pooled run must reproduce, and the epoch loop's wall seconds. Shard [s]'s
   slots of [fired] and [sums] are touched only by its own domain (the
   barrier's fork/join orders the courier's handoff). *)
let epoch_shards = 4
let epoch_lookahead = 4096

let epoch ~pooled total () =
  let epochs = Epoch.create ~shards:epoch_shards ~lookahead:epoch_lookahead in
  let fired = Array.make epoch_shards 0 and sums = Array.make epoch_shards 0 in
  let per_shard = lanes / epoch_shards in
  for s = 0 to epoch_shards - 1 do
    arm ~first:(s * per_shard) (Epoch.engine epochs s) per_shard (fun lane eng ->
        fired.(s) <- fired.(s) + 1;
        sums.(s) <- sums.(s) + ((Engine.now eng * 31) lxor lane);
        fired.(s) < total / epoch_shards)
  done;
  let hops = ref 2_000 in
  let rec courier s eng =
    let dst = (s + 1) mod epoch_shards in
    sums.(s) <- sums.(s) + (Engine.now eng * 7);
    decr hops;
    if !hops > 0 then
      Jord_sim.Shard.post (Epoch.shard epochs s) ~dst
        ~at:(Engine.now eng + epoch_lookahead)
        ~sid:s (courier dst)
  in
  Engine.schedule (Epoch.engine epochs 0) ~after:1 (courier 0);
  let (), wall_s =
    Clock.timed (fun () ->
        if pooled then
          Jord_par.Pool.with_pool ~jobs:epoch_shards (fun pool ->
              let runner f n =
                ignore (Jord_par.Pool.parmap pool f (List.init n Fun.id) : unit list)
              in
              Epoch.run ~runner epochs)
        else Epoch.run epochs)
  in
  ((Epoch.processed epochs, Array.fold_left ( lxor ) 0 sums), wall_s)

let engine ~quick =
  let r = reps quick and iters = if quick then 20_000 else 60_000 in
  (* 16 pushes then pops until empty, each batch on a fresh queue: at
     scattered times through the heap, or as wire hops — one source, a
     constant delay after a rising clock — which append to the hop lane. *)
  let counter = ref 0 in
  let batch push () =
    let q = Jord_sim.Event_queue.create () in
    incr counter;
    for i = 0 to 15 do
      push q (!counter + i) i
    done;
    while Jord_sim.Event_queue.pop q <> None do
      ()
    done
  in
  let heap =
    batch (fun q t i ->
        ignore (Jord_sim.Event_queue.push q ~time:(t mod 97) i : Jord_sim.Event_queue.handle))
  in
  let hop =
    batch (fun q t i -> Jord_sim.Event_queue.push_hop q ~time:(t + 97) ~sched:t ~src:0 i)
  in
  let per_batch = time_ns ~reps:r ~iters heap in
  let words = minor_words ~iters:2_000 heap in
  let hop_per_batch = time_ns ~reps:r ~iters hop in
  let hop_words = minor_words ~iters:2_000 hop in
  let total = if quick then 200_000 else 1_000_000 in
  ignore (dispatch ~fresh:false 10_000);
  let fresh = measured (fun () -> dispatch ~fresh:true total) in
  let reused = List.init r (fun _ -> measured (fun () -> dispatch ~fresh:false total)) in
  let per_event (fired, _, words) = words /. float_of_int fired in
  ignore (epoch ~pooled:false (total / 10) ());
  let legs = pairs ~reps:r (epoch ~pooled:false total) (epoch ~pooled:true total) in
  let speedup =
    per_run "epoch_speedup" "ratio" (fun ((_, a), (_, b)) -> a /. Float.max b 1e-9) legs
  in
  let alloc name unit_ v = B.count ~tolerance:alloc_tol ~name ~unit_ v in
  [
    B.metric ~name:"queue_push_pop_x16" ~unit_:"ns/batch" per_batch;
    alloc "queue_push_pop_x16_minor_words" "words/batch" words;
    B.metric ~name:"hop_push_pop_x16" ~unit_:"ns/batch" hop_per_batch;
    alloc "hop_push_pop_x16_minor_words" "words/batch" hop_words;
    (* A closure per event costs its few words; reused closures leave only
       the engine's set-up, amortized over the run. *)
    alloc "dispatch_fresh_minor_words" "words/event" (per_event fresh);
    alloc "dispatch_reused_minor_words" "words/event" (per_event (List.hd reused));
    per_run "dispatch_reused" "ns/event" (fun (n, s, _) -> s *. 1e9 /. float_of_int n) reused;
    (* Hard gate: the pooled epoch loop runs the sequential schedule. *)
    flag "epoch_determinism_ok" (agree fst legs);
    (* With a core per shard, the pooled loop must beat one domain. *)
    flag "epoch_parallel_ok"
      (Domain.recommended_domain_count () < epoch_shards || speedup.B.value > 1.0);
    speedup;
  ]

(* --- vm: VLB / VMA-store / memsys / PrivLib hot paths --- *)

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
  let memsys () = Jord_arch.Memsys.create (Jord_arch.Topology.create Jord_arch.Config.default) in
  let mem = memsys () in
  (* PrivLib on a memory system of its own, so its traffic cannot warm or
     evict the line memsys_read_hit reads. *)
  let priv =
    let hw =
      Jord_vm.Hw.create ~memsys:(memsys ()) ~store:(Jord_vm.Vma_store.plain cfg) ~va_cfg:cfg ()
    in
    Jord_privlib.Privlib.create ~hw ~os:(Jord_privlib.Os_facade.create ())
  in
  let iters = if quick then 50_000 else 200_000 in
  let t name f = B.metric ~name ~unit_:"ns/op" (time_ns ~reps:(reps quick) ~iters f) in
  [
    t "vlb_lookup" (fun () -> ignore (Jord_vm.Vlb.lookup vlb ~va:vlb_probe));
    t "vma_plain_lookup" (fun () -> ignore (Jord_vm.Vma_table.lookup plain ~va:probe));
    t "vma_btree_lookup" (fun () -> ignore (Jord_vm.Vma_btree.lookup btree fp ~va:probe));
    t "memsys_read_hit" (fun () -> ignore (Jord_arch.Memsys.read mem ~core:0 ~addr:0x4000));
    t "privlib_mmap_munmap" (fun () ->
        let va, _ = Jord_privlib.Privlib.mmap priv ~core:0 ~bytes:4096 ~perm:Jord_vm.Perm.rw () in
        ignore (Jord_privlib.Privlib.munmap priv ~core:0 ~va));
    t "privlib_cget_cput" (fun () ->
        let pd, _ = Jord_privlib.Privlib.cget priv ~core:0 in
        ignore (Jord_privlib.Privlib.cput priv ~core:0 ~pd));
    det_int "btree_rebalances_1k" "ops" (Jord_vm.Vma_btree.rebalance_ops btree);
  ]

(* Wall-clock ns per event over [reps] more runs of a seeded simulation
   of [events] events, after the measured run that warmed it up. *)
let wall_per_event ~reps ~events run =
  B.metric ~name:"wall_per_event" ~unit_:"ns/event"
    (List.init reps (fun _ -> snd (Clock.timed run) *. 1e9 /. float_of_int (Int.max 1 events)))

(* --- server: steady-state throughput of one seeded simulation --- *)

let server ~quick =
  let config = Exp_common.config_for Jord_faas.Variant.Jord in
  let duration_us = if quick then 800.0 else 2500.0 in
  let run () =
    Jord_workloads.Loadgen.run ~warmup:200 ~app:Jord_workloads.Hipster.app ~config
      ~rate_mrps:4.0 ~duration_us ()
  in
  let (server, recorder), _, words = measured run in
  let events = Jord_sim.Engine.processed (Jord_faas.Server.engine server) in
  let open Jord_metrics.Recorder in
  [
    det_int "completed" "requests" (count recorder);
    det_int "events" "events" events;
    det "throughput" "mrps" (throughput_mrps recorder);
    det "p99" "us" (p99_us recorder);
    words_per_event ~words ~events;
    wall_per_event ~reps:(reps quick) ~events run;
  ]

(* --- cluster: cross-server forwarding under tight queues --- *)

(* Small machines with tight queues, and a seeded run of
   [Exp_common.fanout_app] on [servers] of them that forward after two
   local retries: the recipe for internal requests that cannot be placed
   locally. *)
let small_config ?fault_plan () =
  {
    (Exp_common.config_for Jord_faas.Variant.Jord) with
    Jord_faas.Server.machine = Jord_arch.Config.with_cores Jord_arch.Config.default 8;
    orchestrators = 1;
    queue_capacity = 2;
    fault_plan;
  }

let fanout ~quick ?shards ~servers ~rate_mrps config () =
  Jord_workloads.Loadgen.run_cluster ~forward_after:2 ?shards ~servers ~warmup:50
    ~app:Exp_common.fanout_app ~config ~rate_mrps
    ~duration_us:(if quick then 600.0 else 2000.0)
    ()

let sum_servers cluster f =
  Array.fold_left (fun acc s -> acc + f s) 0 (Jord_faas.Cluster.servers cluster)

let cluster ~quick =
  let run = fanout ~quick ~servers:3 ~rate_mrps:1.5 (small_config ()) in
  let (cluster, recorder), _, words = measured run in
  let events = Jord_sim.Engine.processed (Jord_faas.Cluster.engine cluster) in
  [
    det_int "completed" "requests" (Jord_metrics.Recorder.count recorder);
    det_int "events" "events" events;
    det_int "forwarded_out" "requests" (sum_servers cluster Jord_faas.Server.forwarded_out);
    det_int "received_in" "requests" (sum_servers cluster Jord_faas.Server.received_in);
    words_per_event ~words ~events;
    wall_per_event ~reps:(reps quick) ~events run;
  ]

(* --- cluster_sharded: the conservative parallel core. One seeded 8-server
   fanout workload run twice per repetition — sequentially (shards=1, the
   historical shared engine) and on 4 parallel engine shards — with a full
   result signature compared for byte-equality. The signature match is the
   hard gate (determinism_ok); events/sec and the sharded/sequential
   speedup are host wall-clock, so advisory. --- *)

let cluster_sharded ~quick =
  let config = small_config () in
  let run ~shards () =
    let (cluster, recorder), wall_s =
      Clock.timed (fanout ~quick ~shards ~servers:8 ~rate_mrps:3.0 config)
    in
    let open Jord_metrics.Recorder in
    let events = Jord_faas.Cluster.events_processed cluster in
    let out_in = List.map (sum_servers cluster) Jord_faas.Server.[ forwarded_out; received_in ] in
    let signature = (count recorder, events, out_in, p99_us recorder, throughput_mrps recorder) in
    ((signature, count recorder), (events, wall_s))
  in
  ignore (run ~shards:4 ());
  ignore (run ~shards:1 ());
  let pairs = pairs ~reps:(reps quick) (run ~shards:1) (run ~shards:4) in
  let ((_, completed), (events, _)), _ = List.hd pairs in
  [
    (* The conservative core's contract: 1.0 iff every repetition's sharded
       signature was byte-equal to the sequential one. *)
    flag "determinism_ok" (agree (fun ((signature, _), _) -> signature) pairs);
    det_int "completed" "requests" completed;
    det_int "events" "events" events;
  ]
  (* sharded_speedup is > 1.0 whenever the host gives the 4 shard domains
     real cores; on starved CI runners the barrier overhead can push it
     below. *)
  @ rates
      ("events_per_sec_seq", "events_per_sec_sharded", "sharded_speedup")
      (List.map (fun ((_, seq), (_, shd)) -> (seq, shd)) pairs)

(* --- chaos_failover: the server failure domain under sharding. One seeded
   3-server fanout workload under a whole-server-crash fault plan, run
   sequentially (shards=1) and on 3 parallel engine shards, with the full
   chaos signature — completions, crash/recovery counters and every
   transport stat — compared for byte-equality. The signature match and
   the conservation invariants are the hard gates (determinism_ok,
   invariants_ok); the chaos counters are deterministic counts, so the
   baseline also pins how much failure the plan actually injects. --- *)

let chaos_failover ~quick =
  let plan = parse Jord_fault_inject.Plan.parse "ci-smoke,server-crash=0.002,server-down-us=20" in
  let config = small_config ~fault_plan:plan () in
  let run ~shards () =
    let cluster, recorder = fanout ~quick ~shards ~servers:3 ~rate_mrps:1.5 config () in
    let sum = sum_servers cluster in
    let s = Option.get (Jord_faas.Cluster.net_stats cluster) in
    (* Completions, crash and recovery counters, and every transport stat. *)
    let signature =
      ( Jord_metrics.Recorder.(count recorder, p99_us recorder),
        Jord_faas.Cluster.events_processed cluster,
        List.map sum
          Jord_faas.Server.[ crashes; server_crashes; warm_losses; cold_starts; recovered ],
        s )
    in
    ( (signature, Jord_faas.Cluster.check_invariants cluster = []),
      (Jord_metrics.Recorder.count recorder, sum Jord_faas.Server.server_crashes, s.failover) )
  in
  let pairs = pairs ~reps:(reps quick) (run ~shards:1) (run ~shards:3) in
  let (_, (completed, server_crashes, failover)), _ = List.hd pairs in
  [
    (* Hard gate: any fault plan replays byte-identically at every shard
       count — sharded chaos is part of the determinism contract. *)
    flag "determinism_ok" (agree (fun ((signature, _), _) -> signature) pairs);
    (* Hard gate: no request lost or executed twice through whole-server
       crashes, failover and local re-execution. *)
    flag "invariants_ok" (List.for_all (fun (((_, c1), _), ((_, c2), _)) -> c1 && c2) pairs);
    det_int "completed" "requests" completed;
    det_int "server_crashes" "crashes" server_crashes;
    det_int "failover" "transfers" failover;
  ]

(* --- fleet experiments: one measured run of an autoscaled 64-server
   Hipster fleet under the [traffic] spec, on [shards] engine shards --- *)

let fleet ~quick ~traffic ?tracer ~shards () =
  let shape = parse Jord_workloads.Traffic.parse traffic in
  let slo = parse Jord_obsv.Slo.parse "ci" in
  let cfg =
    {
      Jord_fleet.Fleet.default_config with
      Jord_fleet.Fleet.servers = 64;
      member =
        { Jord_fleet.Fserver.default_config with Jord_fleet.Fserver.slots = 8; queue_cap = 32 };
      autoscale = Some (parse Jord_fleet.Autoscaler.parse "fast,min=12,boot-us=60");
      shards;
    }
  in
  measured (fun () ->
      let t = Jord_fleet.Fleet.create cfg ~app:Jord_workloads.Hipster.app in
      Jord_fleet.Fleet.run ~slo ?tracer t ~shape ~duration_us:(if quick then 400.0 else 1200.0);
      t)

(* --- fleet_scale: the datacenter layer over the parallel core. One seeded
   64-server fleet under autoscaled flash-crowd traffic, run sequentially
   (shards=1) and on 4 engine shards (balancer shard + 3 server shards),
   with the full result signature — routing, autoscale actions, cold
   starts, the latency quantile and the SLO rollup verdicts — compared for
   byte-equality. The signature match is the hard gate (determinism_ok);
   the deterministic counts pin how much the autoscaler and the flash crowd
   actually do, and minor_words_per_event the allocation of the sequential
   run (Gc.minor_words counts the calling domain only); events/sec and the
   speedup are host wall-clock, so advisory. --- *)

let fleet_scale ~quick =
  let module F = Jord_fleet.Fleet in
  let run ~shards () =
    let t, wall_s, words = fleet ~quick ~traffic:"ci,users=100000,rate=40" ~shards () in
    let verdicts =
      Option.map
        (fun r ->
          List.map
            (fun (row : Jord_obsv.Rollup.row) ->
              (row.r_objective.name, row.r_requests, row.r_bad, row.r_shed, row.r_verdict))
            (Jord_obsv.Rollup.rows r))
        (F.rollup t)
    in
    let signature =
      ( F.(completed t, cold_starts t, boots t, drains t),
        F.[ arrivals t; routed t; shed t; affinity_hits t; events_processed t ],
        Jord_telemetry.Sketch.(quantile (F.latency t) 99.0, mean (F.latency t)),
        verdicts )
    in
    ((signature, words), (F.events_processed t, wall_s))
  in
  ignore (run ~shards:4 ());
  ignore (run ~shards:1 ());
  let pairs = pairs ~reps:(reps quick) (run ~shards:1) (run ~shards:4) in
  let (((completed, cold_starts, boots, drains), _, _, _), words), (events, _) =
    fst (List.hd pairs)
  in
  [
    (* Hard gate: a fleet run — balancer decisions, autoscale actions, cold
       starts, SLO verdicts — is byte-identical at any shard count. *)
    flag "determinism_ok" (agree (fun ((signature, _), _) -> signature) pairs);
    det_int "completed" "requests" completed;
    det_int "cold_starts" "starts" cold_starts;
    det_int "boots" "servers" boots;
    det_int "drains" "servers" drains;
    words_per_event ~words ~events;
  ]
  @ rates
      ("events_per_sec_seq", "events_per_sec_sharded", "sharded_speedup")
      (List.map (fun ((_, seq), (_, shd)) -> (seq, shd)) pairs)

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
  let module F = Jord_fleet.Fleet in
  let module Ftrace = Jord_obsv.Ftrace in
  let run ~shards ~traced () =
    let tracer = if traced then Some (Ftrace.create ()) else None in
    let t, wall_s, _ = fleet ~quick ~traffic:"flash,users=100000,rate=40" ?tracer ~shards () in
    let fleet_sig =
      F.[ arrivals t; completed t; shed t; cold_starts t; events_processed t ]
      @ [ Jord_telemetry.Sketch.quantile (F.latency t) 99.0 ]
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
          let kept id = id < 0 || List.mem id ids in
          let rollup_text, ex_ok =
            match F.rollup t with
            | None -> ("no-rollup", true)
            | Some r ->
                ( Jord_obsv.Rollup.report_text r,
                  List.for_all
                    (fun (row : Jord_obsv.Rollup.row) -> kept row.r_exemplar)
                    (Jord_obsv.Rollup.rows r)
                  && List.for_all
                       (fun (_, ws) ->
                         List.for_all
                           (fun (cw : Jord_obsv.Rollup.closed_window) -> kept cw.cw_exemplar)
                           ws)
                       (Jord_obsv.Rollup.windows r) )
          in
          (String.concat "\n" (rollup_text :: lines), List.length lines, ex_ok)
    in
    ((fleet_sig, trace_sig, retained, exemplars_ok), (F.events_processed t, wall_s))
  in
  ignore (run ~shards:1 ~traced:true ());
  let pairs =
    pairs ~reps:(reps quick) (run ~shards:1 ~traced:false) (run ~shards:1 ~traced:true)
  in
  let ((fsig_off, _, _, _), _), ((_, tsig_on, retained, exemplars_ok), _) = List.hd pairs in
  let (_, tsig_shd, _, _), _ = run ~shards:4 ~traced:true () in
  let unperturbed (((off, _, _, _), _), ((on, traced, _, _), _)) =
    off = fsig_off && on = fsig_off && traced = tsig_on
  in
  [
    (* Hard gates: tracing never perturbs the simulation, and the trace
       surface is shard-invariant and repeatable. *)
    flag "sim_unperturbed" (List.for_all unperturbed pairs);
    flag "determinism_ok" (tsig_on = tsig_shd);
    flag "exemplars_ok" exemplars_ok;
    det_int "retained_spans" "spans" retained;
  ]
  (* fleet_trace_overhead is the wall-clock slowdown of the traced run over
     the untraced run of the same seeded simulation (1.0 = free; advisory,
     ~1.1x). *)
  @ rates ~slowdown:true
      ("events_per_sec_untraced", "events_per_sec_traced", "fleet_trace_overhead")
      (List.map (fun ((_, off), (_, on)) -> (off, on)) pairs)

(* One timed seeded Hipster run at 3 MRPS: a leg of the trace and
   slo_overhead pairs. Returns the run's engine and its wall seconds. *)
let hipster ~quick ?tracer () =
  let config = Exp_common.config_for Jord_faas.Variant.Jord in
  let duration_us = if quick then 500.0 else 1200.0 in
  let (server, _), wall_s =
    Clock.timed (fun () ->
        Jord_workloads.Loadgen.run ?tracer ~warmup:100 ~app:Jord_workloads.Hipster.app ~config
          ~rate_mrps:3.0 ~duration_us ())
  in
  (Jord_faas.Server.engine server, wall_s)

(* --- trace: cost of causal tracing on the single-server hot path --- *)

let trace ~quick =
  let run ?tracer () =
    let engine, wall_s = hipster ~quick ?tracer () in
    (Jord_sim.Engine.processed engine, wall_s)
  in
  ignore (run ());
  let r = reps quick in
  let emitted = ref 0 in
  let pairs =
    pairs ~reps:r run (fun () ->
        let tr = Jord_faas.Trace.create () in
        let on = run ~tracer:tr () in
        emitted := Jord_faas.Trace.total_emitted tr;
        on)
  in
  (* Telemetry hot-path instruments: these bound the overhead an owned
     counter or histogram adds when updated from simulation code (pull
     collectors add nothing until snapshot). *)
  let reg = Jord_telemetry.Registry.create () in
  let counter = Jord_telemetry.Registry.counter reg "bench_ctr_total" in
  let hist = Jord_telemetry.Registry.histogram reg "bench_hist_ns" in
  let iters = if quick then 50_000 else 200_000 in
  let t name f = B.metric ~name ~unit_:"ns/op" (time_ns ~reps:r ~iters f) in
  (* trace_overhead is the wall-clock slowdown of the traced run over the
     untraced run of the same seeded simulation (1.0 = free). *)
  rates ~slowdown:true ("events_per_sec_off", "events_per_sec_on", "trace_overhead") pairs
  @ [
      det_int "trace_events_emitted" "events" !emitted;
      t "telemetry_counter_inc" (fun () -> Jord_telemetry.Registry.Counter.inc counter);
      t "telemetry_hist_observe" (fun () -> Jord_telemetry.Registry.Hist.observe hist 1234.5);
    ]

(* --- slo_overhead: cost of the online SLO plane over plain tracing --- *)

let slo_overhead ~quick =
  (* A threshold below this workload's p99 so windows carry bad requests and
     the burn-rate rule does real transitions, not just bookkeeping. *)
  let objectives =
    parse Jord_obsv.Slo.parse "p=99,threshold_us=6,window_us=100,budget=0.02,slow=3"
  in
  let run ~slo () =
    let tracer = Jord_faas.Trace.create () in
    let pipeline = if slo then Some (Jord_obsv.Online.create objectives) else None in
    Option.iter (fun p -> Jord_obsv.Online.attach p tracer) pipeline;
    let engine, wall_s = hipster ~quick ~tracer () in
    Option.iter (fun p -> Jord_obsv.Online.finish p ~now_ps:(Jord_sim.Engine.now engine)) pipeline;
    (pipeline, wall_s)
  in
  ignore (run ~slo:true ());
  let pairs = pairs ~reps:(reps quick) (run ~slo:false) (run ~slo:true) in
  let _, (pipeline, _) = List.hd pairs in
  let snaps = Jord_obsv.Online.snapshot (Option.get pipeline) in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 snaps in
  let open Jord_obsv.Online in
  [
    (* Wall-clock slowdown of traced+SLO over traced-only of the same seeded
       simulation (1.0 = the pipeline is free). *)
    per_run "slo_overhead" "ratio" (fun ((_, a), (_, b)) -> b /. Float.max a 1e-9) pairs;
    det_int "slo_requests" "requests" (sum (fun s -> s.s_completed + s.s_shed));
    det_int "slo_bad" "requests" (sum (fun s -> s.s_bad));
    det_int "slo_windows_closed" "windows" (sum (fun s -> s.s_windows_closed));
    det_int "slo_transitions" "transitions" (sum (fun s -> s.s_fired + s.s_resolved));
  ]

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
let run ~quick name = { B.experiment = name; metrics = (List.assoc name experiments) ~quick }

let render (doc : B.doc) =
  let row (m : B.metric) =
    let kind = match m.kind with B.Time -> "time" | B.Count -> "count" in
    let g = Printf.sprintf "%g" in
    [ m.name; kind; g m.value; m.unit_; g m.iqr; string_of_int m.repetitions ]
  in
  Jord_util.Render.table ~title:(Printf.sprintf "bench [%s]" doc.experiment)
    ~header:[ "metric"; "kind"; "value"; "unit"; "iqr"; "reps" ]
    ~rows:(List.map row doc.metrics) ()

(* --- parallel selftest: byte-identical + measurably faster --- *)

let par_selftest ?jobs ?(quick = true) () =
  let jobs =
    Option.value jobs ~default:(Int.min 4 (Int.max 2 (Domain.recommended_domain_count ())))
  in
  let duration_us = if quick then 1200.0 else 3000.0 in
  let points =
    [ (1.0, 0); (2.0, 0); (3.0, 0); (4.0, 0); (1.5, 1); (2.5, 1); (3.5, 1); (4.5, 1) ]
  in
  let run_case (rate, seed_offset) =
    let config = Exp_common.config_for Jord_faas.Variant.Jord in
    let config = { config with seed = config.seed + (1000 * seed_offset) } in
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
  let seq_report, seq_s = Clock.timed (fun () -> List.map run_case points) in
  let par_report, par_s =
    Clock.timed (fun () ->
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
