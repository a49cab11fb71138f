module Engine = Jord_sim.Engine

type config = {
  variant : Variant.t;
  machine : Jord_arch.Config.t;
  orchestrators : int;
  queue_capacity : int;
  policy : Policy.t;
  i_vlb_entries : int;
  d_vlb_entries : int;
  seed : int;
  internal_priority : bool;
  forward_after : int;
  net : Netmodel.t;
  fault_plan : Jord_fault_inject.Plan.t option;
  recovery : Recovery.t;
}

let default_config =
  {
    variant = Variant.Jord;
    machine = Jord_arch.Config.default;
    orchestrators = 4;
    queue_capacity = 4;
    policy = Policy.Jbsq;
    i_vlb_entries = 16;
    d_vlb_entries = 16;
    seed = 42;
    internal_priority = true;
    forward_after = max_int;
    net = Netmodel.default;
    fault_plan = None;
    recovery = Recovery.default;
  }

type t = {
  cfg : config;
  ctx : Executor.ctx;
  priv : Jord_privlib.Privlib.t;
  orchs : Orchestrator.t array;
  all_execs : Executor.t array;
  mutable dropped : int;
  mutable arrivals : int;
  pd_floor : int;  (** Live PDs right after boot (the balance baseline). *)
  vma_floor : int;  (** Live VMAs right after boot + function registration. *)
}

(* External queues are capped like a NIC ring: beyond this the server sheds
   load instead of buffering unboundedly; dropped requests are never measured. *)
let external_queue_cap = 32768

let engine t = t.ctx.Executor.engine
let config t = t.cfg
let app t = t.ctx.Executor.app
let hw t = t.ctx.Executor.hw
let privlib t = t.priv
let runtime t = t.ctx.Executor.rt
let netmodel t = t.cfg.net
let on_root_complete t f = t.ctx.Executor.root_cb <- f
let executor_count t = Array.length t.all_execs
let orchestrator_count t = Array.length t.orchs
let dispatch_count t = t.ctx.Executor.dispatch_count
let dispatch_ns_total t = t.ctx.Executor.dispatch_ns
let completed_roots t = t.ctx.Executor.completed
let live_continuations t = t.ctx.Executor.live_conts
let dropped_requests t = t.dropped
let arrivals t = t.arrivals
let queue_full_retries t = t.ctx.Executor.queue_full_retries
let set_forward t cb = t.ctx.Executor.forward_cb <- cb
let set_tracer t tr = t.ctx.Executor.tracer <- tr
let set_trace_sid t sid = t.ctx.Executor.trace_sid <- sid
let set_sid t sid = t.ctx.Executor.sid <- sid
let set_route_return t r = t.ctx.Executor.route_return <- r

(* Give a cluster member a disjoint request-id space (member [base] of
   [stride] servers allocates base, base+stride, ...) so spans built from a
   shared tracer never merge two servers' requests. Must be called before
   any request is admitted. *)
let set_req_id_space t ~base ~stride =
  t.ctx.Executor.next_req_id <- base;
  t.ctx.Executor.req_id_stride <- stride
let orchestrator_cores t =
  Array.to_list (Array.map (fun o -> o.Orchestrator.core) t.orchs)
let forwarded_out t = t.ctx.Executor.forwarded_out
let received_in t = t.ctx.Executor.received_in
let timed_out_requests t = t.ctx.Executor.timed_out
let in_flight t = t.ctx.Executor.in_flight
let crashes t = t.ctx.Executor.crashes
let server_crashes t = t.ctx.Executor.server_crashes
let warm_losses t = t.ctx.Executor.warm_losses
let cold_starts t = t.ctx.Executor.cold_starts

let is_down t =
  Engine.now t.ctx.Executor.engine < t.ctx.Executor.srv_down_until

let recovered t = t.ctx.Executor.recovered
let stalls t = t.ctx.Executor.stalls
let slowdowns t = t.ctx.Executor.slowdowns
let forward_abandoned t = t.ctx.Executor.forward_abandoned
let queue_wait_ns_total t = t.ctx.Executor.queue_wait_ns

let fault_active t =
  match t.ctx.Executor.fault with
  | Some inj -> Jord_fault_inject.Injector.active inj
  | None -> false

let core_busy_ns t ~core = t.ctx.Executor.core_busy_ps.(core) /. 1000.0

(* Cluster-side hooks: account a transfer given up on (the request is
   re-executed locally by the transport) and a deduplicated wire copy. *)
let note_forward_abandoned t req =
  let ctx = t.ctx in
  ctx.Executor.forward_abandoned <- ctx.Executor.forward_abandoned + 1;
  Executor.trace ctx ~kind:Trace.Drop ~req ~core:(-1) ~detail:"peer_dead" ()

let note_duplicate t req =
  Executor.trace t.ctx ~kind:Trace.Duplicate ~req ~core:(-1) ()

let conservation t =
  let ctx = t.ctx in
  {
    Jord_fault_inject.Invariant.arrivals = t.arrivals;
    completed = ctx.Executor.completed;
    dropped = t.dropped;
    timed_out = ctx.Executor.timed_out;
    in_flight = ctx.Executor.in_flight;
    forwarded_out = ctx.Executor.forwarded_out;
    received_in = ctx.Executor.received_in;
    crashes = ctx.Executor.crashes;
    recovered = ctx.Executor.recovered;
    live_continuations = ctx.Executor.live_conts;
    surplus_pds =
      Jord_privlib.Pd.live_count (Jord_privlib.Privlib.pds t.priv) - t.pd_floor;
    surplus_vmas =
      Jord_vm.Vma_store.count (Jord_vm.Hw.store (hw t)) - t.vma_floor;
    drained = Engine.pending ctx.Executor.engine = 0;
  }

let check_invariants t = Jord_fault_inject.Invariant.check (conservation t)

(* Mean orchestrator / executor core utilization over the simulated span. *)
let utilization t =
  let busy = t.ctx.Executor.core_busy_ps in
  let now_ps = float_of_int (Engine.now t.ctx.Executor.engine) in
  if now_ps <= 0.0 then (0.0, 0.0)
  else
    let orch_sum = ref 0.0 and exec_sum = ref 0.0 in
    let () =
      Array.iter (fun o -> orch_sum := !orch_sum +. busy.(o.Orchestrator.core)) t.orchs;
      Array.iter (fun e -> exec_sum := !exec_sum +. busy.(e.Executor.core)) t.all_execs
    in
    ( !orch_sum /. now_ps /. float_of_int (Array.length t.orchs),
      !exec_sum /. now_ps /. float_of_int (Array.length t.all_execs) )

(* Both entry points may run inside another entity's event (an arrival, a
   peer's wire delivery): from here on the engine acts for this server. *)
let receive_forwarded t req =
  Engine.set_sid t.ctx.Executor.engine t.ctx.Executor.sid;
  t.ctx.Executor.received_in <- t.ctx.Executor.received_in + 1;
  let orch = t.orchs.(req.Request.id mod Array.length t.orchs) in
  Orchestrator.internal_arrival t.ctx orch req t.ctx.Executor.engine

let validate cfg =
  let cores = cfg.machine.Jord_arch.Config.cores in
  if cfg.orchestrators >= 1 && 2 * cfg.orchestrators <= cores then Ok ()
  else
    Error
      (Printf.sprintf
         "%d orchestrators on %d cores leave an orchestrator without an \
          executor (each owns a block of cores / orchestrators cores, so \
          cores must be >= 2 x orchestrators)"
         cfg.orchestrators cores)

let create ?engine cfg app =
  (match Model.validate app with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Server.create: invalid app: " ^ msg));
  (match validate cfg with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Server.create: " ^ msg));
  let n = cfg.machine.Jord_arch.Config.cores in
  let topo = Jord_arch.Topology.create cfg.machine in
  let memsys = Jord_arch.Memsys.create topo in
  let va_cfg = Jord_vm.Va.default_config in
  let store =
    match cfg.variant with
    | Variant.Jord_bt -> Jord_vm.Vma_store.btree ()
    | Variant.Jord | Variant.Jord_ni | Variant.Nightcore -> Jord_vm.Vma_store.plain va_cfg
  in
  let hw =
    Jord_vm.Hw.create ~i_entries:cfg.i_vlb_entries ~d_entries:cfg.d_vlb_entries ~memsys
      ~store ~va_cfg ()
  in
  let os = Jord_privlib.Os_facade.create () in
  let priv = Jord_privlib.Privlib.create ~hw ~os in
  let rt =
    Runtime.create ~variant:cfg.variant ~hw ~priv ~nc:Jord_baseline.Nightcore.default
  in
  let ctx =
    {
      Executor.variant = cfg.variant;
      internal_priority = cfg.internal_priority;
      forward_after = cfg.forward_after;
      policy = cfg.policy;
      net = cfg.net;
      engine = (match engine with Some e -> e | None -> Engine.create ());
      memsys;
      hw;
      rt;
      app;
      prng = Jord_util.Prng.create ~seed:cfg.seed;
      core_busy_ps = Array.make n 0.0;
      tracer = None;
      trace_sid = 0;
      sid = 0;
      next_req_id = 0;
      req_id_stride = 1;
      next_cid = 0;
      root_cb = (fun _ -> ());
      completed = 0;
      live_conts = 0;
      dispatch_count = 0;
      dispatch_ns = 0.0;
      queue_full_retries = 0;
      forward_cb = None;
      route_return = None;
      forwarded_out = 0;
      received_in = 0;
      recovery = cfg.recovery;
      (* The fault stream is seeded by the plan, salted by the server seed
         so cluster members sharing one plan get decorrelated schedules. *)
      fault =
        Option.map
          (fun plan -> Jord_fault_inject.Injector.create ~salt:cfg.seed plan)
          cfg.fault_plan;
      timed_out = 0;
      in_flight = 0;
      crashes = 0;
      recovered = 0;
      stalls = 0;
      slowdowns = 0;
      forward_abandoned = 0;
      queue_wait_ns = 0.0;
      on_retry_backoff = (fun _ -> ());
      srv_down_until = Jord_sim.Time.zero;
      server_crashes = 0;
      warm_losses = 0;
      cold_starts = 0;
      cold_fns = Hashtbl.create 8;
      conts = Hashtbl.create 64;
      on_server_purge = (fun ~reboot:_ -> ());
    }
  in
  let block = n / cfg.orchestrators in
  let execs = ref [] in
  let next_eid = ref 0 in
  let orchs =
    Array.init cfg.orchestrators (fun oid ->
        let base = oid * block in
        let last = if oid = cfg.orchestrators - 1 then n - 1 else base + block - 1 in
        let group =
          Array.init (last - base) (fun i ->
              let e =
                Executor.create ctx ~eid:!next_eid ~core:(base + 1 + i)
                  ~queue_capacity:cfg.queue_capacity
              in
              incr next_eid;
              execs := e :: !execs;
              e)
        in
        Orchestrator.create ctx ~oid ~core:base ~execs:group)
  in
  let all_execs = Array.of_list (List.rev !execs) in
  (* Whole-server crash purge: orchestrator queues first (held/internal
     requests), then every executor's queue, in index order — a fixed walk
     so chaos runs replay identically. *)
  ctx.Executor.on_server_purge <-
    (fun ~reboot ->
      Array.iter (fun o -> Orchestrator.purge_for_reboot ctx o ~reboot) orchs;
      Array.iter (fun e -> Executor.purge_for_reboot ctx e ~reboot) all_execs);
  List.iter (fun fn -> Runtime.register_function rt ~core:0 fn) app.Model.fns;
  (* The conservation checker measures PD/VMA leaks against the population
     right after boot and function registration. *)
  let pd_floor = Jord_privlib.Pd.live_count (Jord_privlib.Privlib.pds priv) in
  let vma_floor = Jord_vm.Vma_store.count store in
  { cfg; ctx; priv; orchs; all_execs; dropped = 0; arrivals = 0; pd_floor; vma_floor }

let submit t ?entry () =
  let ctx = t.ctx in
  Engine.set_sid ctx.Executor.engine ctx.Executor.sid;
  t.arrivals <- t.arrivals + 1;
  let entry =
    match entry with
    | Some e -> e
    | None -> Model.pick_entry ctx.Executor.app ctx.Executor.prng
  in
  let arg_bytes = 512 in
  let _, req =
    Request.make_root ~id:(Executor.fresh_req_id ctx) ~entry
      ~arrival:(Engine.now ctx.Executor.engine) ~arg_bytes
  in
  let orch = t.orchs.(req.Request.id mod Array.length t.orchs) in
  if Queue.length orch.Orchestrator.external_q >= external_queue_cap then begin
    t.dropped <- t.dropped + 1;
    Executor.trace ctx ~kind:Trace.Drop ~req ~core:orch.Orchestrator.core
      ~detail:"queue_full" ()
  end
  else begin
    ctx.Executor.in_flight <- ctx.Executor.in_flight + 1;
    Executor.trace ctx ~kind:Trace.Arrive ~req ~core:orch.Orchestrator.core ();
    Orchestrator.enqueue_external ctx orch req ctx.Executor.engine
  end

let run ?until t = Engine.run ?until t.ctx.Executor.engine

let queue_depths t =
  Array.fold_left
    (fun (sum, mx) e ->
      let d = Bounded_queue.length e.Executor.queue in
      (sum + d, Int.max mx d))
    (0, 0) t.all_execs

(* One registry call wires the whole machine's metric families. *)
let register_metrics t ?(labels = []) reg =
  let ctx = t.ctx in
  let open Jord_telemetry.Registry in
  let c name help fn = counter_fn reg ~help ~labels name fn in
  let g name help fn = gauge_fn reg ~help ~labels name fn in
  c "jord_server_arrivals_total" "External requests submitted" (fun () ->
      float_of_int t.arrivals);
  c "jord_server_dispatches_total" "JBSQ dispatch operations" (fun () ->
      float_of_int ctx.Executor.dispatch_count);
  c "jord_server_dispatch_ns_total" "Cumulative dispatch latency (ns)" (fun () ->
      ctx.Executor.dispatch_ns);
  c "jord_server_completed_total" "Root requests completed" (fun () ->
      float_of_int ctx.Executor.completed);
  (* Shed causes are distinguishable by the reason label: queue_full (full
     external queue), deadline (deadline policy), peer_dead (forwarded
     transfer abandoned on the wire and re-executed locally). *)
  let drop_reason reason fn =
    counter_fn reg ~help:"Requests shed, by reason"
      ~labels:(labels @ [ ("reason", reason) ])
      "jord_server_drops_total" fn
  in
  drop_reason "queue_full" (fun () -> float_of_int t.dropped);
  drop_reason "deadline" (fun () -> float_of_int ctx.Executor.timed_out);
  drop_reason "peer_dead" (fun () -> float_of_int ctx.Executor.forward_abandoned);
  c "jord_server_timeouts_total" "External requests shed past their deadline"
    (fun () -> float_of_int ctx.Executor.timed_out);
  c "jord_server_crashes_total" "Injected executor crashes" (fun () ->
      float_of_int ctx.Executor.crashes);
  c "jord_server_machine_crashes_total" "Injected whole-server crashes" (fun () ->
      float_of_int ctx.Executor.server_crashes);
  c "jord_server_warm_losses_total"
    "Whole-server crashes that invalidated warm function state" (fun () ->
      float_of_int ctx.Executor.warm_losses);
  c "jord_server_cold_starts_total"
    "Post-boot invocations that paid the cold re-warm path" (fun () ->
      float_of_int ctx.Executor.cold_starts);
  g "jord_server_up" "1 while the server is up, 0 during a crash window" (fun () ->
      if Engine.now ctx.Executor.engine < ctx.Executor.srv_down_until then 0.0
      else 1.0);
  c "jord_server_recoveries_total" "Requests re-queued after an executor crash"
    (fun () -> float_of_int ctx.Executor.recovered);
  c "jord_server_stalls_total" "Injected executor stalls" (fun () ->
      float_of_int ctx.Executor.stalls);
  c "jord_server_slowdowns_total" "Injected PrivLib slowdowns" (fun () ->
      float_of_int ctx.Executor.slowdowns);
  c "jord_server_queue_wait_ns_total"
    "Cumulative orchestrator + executor queue wait (ns)" (fun () ->
      ctx.Executor.queue_wait_ns);
  g "jord_server_in_flight" "Accepted roots not yet completed or shed" (fun () ->
      float_of_int ctx.Executor.in_flight);
  let backoff_h =
    histogram reg ~help:"Retry backoff intervals (ns)" ~labels
      "jord_server_retry_backoff_ns"
  in
  ctx.Executor.on_retry_backoff <-
    (fun ns -> Hist.observe backoff_h ns);
  c "jord_server_queue_full_retries_total"
    "Dispatch scans that found every executor queue full" (fun () ->
      float_of_int ctx.Executor.queue_full_retries);
  c "jord_server_forwarded_out_total" "Internal requests shipped to another server"
    (fun () -> float_of_int ctx.Executor.forwarded_out);
  c "jord_server_received_in_total" "Forwarded requests accepted from other servers"
    (fun () -> float_of_int ctx.Executor.received_in);
  g "jord_server_live_continuations" "Running or suspended continuations" (fun () ->
      float_of_int ctx.Executor.live_conts);
  gauge_fn reg ~help:"Deepest executor queue"
    ~labels:(labels @ [ ("agg", "max") ])
    "jord_executor_queue_depth" (fun () -> float_of_int (snd (queue_depths t)));
  Jord_vm.Hw.register_metrics ctx.Executor.hw ~labels reg;
  Jord_arch.Memsys.register_metrics ctx.Executor.memsys ~labels reg;
  Jord_privlib.Privlib.register_metrics t.priv ~labels reg

(* Sampled time series: queue depths, continuation population, per-role
   busy fraction (a delta gauge over the tick's span), VLB occupancy. *)
let attach_sampler t ?(labels = []) sampler =
  let ctx = t.ctx in
  let track ?(extra = []) name fn =
    Jord_telemetry.Sampler.track sampler ~labels:(labels @ extra) name fn
  in
  track "jord_executor_queue_depth" ~extra:[ ("agg", "mean") ] (fun () ->
      let sum, _ = queue_depths t in
      float_of_int sum /. float_of_int (Int.max 1 (Array.length t.all_execs)));
  track "jord_executor_queue_depth" ~extra:[ ("agg", "max") ] (fun () ->
      float_of_int (snd (queue_depths t)));
  track "jord_server_live_continuations" (fun () ->
      float_of_int ctx.Executor.live_conts);
  track "jord_server_suspended_continuations" (fun () ->
      float_of_int
        (Array.fold_left (fun acc e -> acc + e.Executor.suspended) 0 t.all_execs));
  let busy_fraction cores =
    let last_busy = ref 0.0
    and last_now = ref (float_of_int (Engine.now ctx.Executor.engine)) in
    fun () ->
      let busy =
        List.fold_left (fun acc c -> acc +. ctx.Executor.core_busy_ps.(c)) 0.0 cores
      in
      let now = float_of_int (Engine.now ctx.Executor.engine) in
      let span = now -. !last_now and delta = busy -. !last_busy in
      last_busy := busy;
      last_now := now;
      if span <= 0.0 then 0.0
      else Float.min 1.0 (delta /. span /. float_of_int (List.length cores))
  in
  let ocores = Array.to_list (Array.map (fun o -> o.Orchestrator.core) t.orchs) in
  let ecores = Array.to_list (Array.map (fun e -> e.Executor.core) t.all_execs) in
  track "jord_core_busy_fraction" ~extra:[ ("role", "orchestrator") ]
    (busy_fraction ocores);
  track "jord_core_busy_fraction" ~extra:[ ("role", "executor") ]
    (busy_fraction ecores);
  track "jord_vlb_occupancy_fraction" ~extra:[ ("vlb", "i") ] (fun () ->
      Jord_vm.Hw.vlb_occupancy ctx.Executor.hw ~kind:`Instr);
  track "jord_vlb_occupancy_fraction" ~extra:[ ("vlb", "d") ] (fun () ->
      Jord_vm.Hw.vlb_occupancy ctx.Executor.hw ~kind:`Data)

(* Worst-case VLB shootdown (Fig. 14): the victim translation (PrivLib's
   code VMA) is resident in every core's VLB, so the VTD invalidates all. *)
let worst_case_shootdown_ns t =
  let hw = t.ctx.Executor.hw in
  match Jord_privlib.Privlib.code_vma t.priv with
  | None -> 0.0
  | Some va ->
      let cores =
        Jord_arch.Topology.cores (Jord_arch.Memsys.topology t.ctx.Executor.memsys)
      in
      for core = 0 to cores - 1 do
        Jord_vm.Hw.warm hw ~core ~va ~kind:`Instr
      done;
      let ns = Jord_vm.Hw.shootdown hw ~core:0 ~va in
      for core = 0 to cores - 1 do
        Jord_vm.Hw.warm hw ~core ~va ~kind:`Instr
      done;
      ns

(* Worst-case dispatch (Fig. 14): every queue-length line is dirty in its
   executor's L1, so each JBSQ read is a remote cache-to-cache transfer. *)
let worst_case_dispatch_ns t =
  let orch = t.orchs.(0) in
  Array.iter
    (fun e ->
      ignore
        (Jord_arch.Memsys.write t.ctx.Executor.memsys ~core:e.Executor.core
           ~addr:(Bounded_queue.len_addr e.Executor.queue)))
    orch.Orchestrator.execs;
  let _, scan_ns, instr_ns = Orchestrator.jbsq_scan t.ctx orch in
  scan_ns +. instr_ns
