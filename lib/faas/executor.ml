module Time = Jord_sim.Time
module Engine = Jord_sim.Engine

(* The machine context every layer shares: the simulated hardware, the
   runtime, the app, and the server-wide counters. Built once by [Server]
   and threaded (never copied) through executors and orchestrators. *)
type ctx = {
  variant : Variant.t;
  internal_priority : bool;
  forward_after : int;
  policy : Policy.t;
  net : Netmodel.t;
  engine : Engine.t;
  memsys : Jord_arch.Memsys.t;
  hw : Jord_vm.Hw.t;
  rt : Runtime.t;
  app : Model.app;
  prng : Jord_util.Prng.t;
  core_busy_ps : float array;
  mutable tracer : Trace.t option;
  mutable trace_sid : int;
  mutable sid : int;
      (** Fleet-wide server id; stamps [Request.home_sid] at the first
          forward hop so the response can be routed back across shards. *)
  mutable next_req_id : int;
  mutable req_id_stride : int;
  mutable next_cid : int;
  mutable root_cb : Request.root -> unit;
  mutable completed : int;
  mutable live_conts : int;
  mutable dispatch_count : int;
  mutable dispatch_ns : float;
  mutable queue_full_retries : int;
  mutable forward_cb : (Request.t -> unit) option;
  mutable route_return : (Request.t -> at:Time.t -> (Engine.t -> unit) -> unit) option;
      (** Delivery of a forwarded request's response event to its home
          server. [None] (the sequential cluster): schedule on the shared
          engine. Under [Jord_sim.Epoch] the cluster installs a router that
          posts cross-shard responses through the shard mailbox. *)
  mutable forwarded_out : int;
  mutable received_in : int;
  recovery : Recovery.t;
  fault : Jord_fault_inject.Injector.t option;
  mutable timed_out : int;
  mutable in_flight : int;
  mutable crashes : int;
  mutable recovered : int;
  mutable stalls : int;
  mutable slowdowns : int;
  mutable forward_abandoned : int;
  mutable queue_wait_ns : float;
  mutable on_retry_backoff : float -> unit;
  mutable srv_down_until : Time.t;
      (** Whole-server crash horizon: while [now < srv_down_until] the
          orchestrators hold all dispatch ([Time.zero] when up). *)
  mutable server_crashes : int;
  mutable warm_losses : int;
  mutable cold_starts : int;
  cold_fns : (string, unit) Hashtbl.t;
      (** Functions whose warm state a server crash invalidated; the next
          invocation of each pays the cold re-warm path. *)
  conts : (int, t Continuation.t) Hashtbl.t;
      (** Every live continuation by cid — the registry a whole-server
          crash walks (in sorted cid order) to abort them all. *)
  mutable on_server_purge : reboot:Time.t -> unit;
      (** Installed by [Server]: drain every orchestrator and executor
          queue after a whole-server crash (re-queue entry requests at
          [reboot], discard local children). *)
}

(* Everything an executor needs from its orchestrator, as closures — this
   is what breaks the executor/orchestrator recursion: [Orchestrator]
   builds one uplink per orchestrator and installs it on its executors. *)
and uplink = {
  int_line : int;  (** The orchestrator's internal-queue cache line. *)
  notify_line : int;  (** Completion-notification line for external requests. *)
  submit_internal : at:Time.t -> Request.t -> unit;
      (** Schedule a nested request's arrival on the orchestrator. *)
  push_reclaim : va:int -> bytes:int -> unit;
      (** Queue a finished ArgBuf for the orchestrator's amortized reclaim. *)
  wake : Engine.t -> unit;
      (** Start the orchestrator's dispatch loop if it is idle. *)
}

and t = {
  eid : int;
  core : int;
  queue : Request.t Bounded_queue.t;
  ready : t Continuation.t Queue.t;
  mutable busy : bool;
  mutable suspended : int;
  mutable up : uplink option;
  mutable release_fn : Engine.t -> unit;
      (** Pre-built "teardown done, poll again" closure (hot path). *)
  mutable down_until : Time.t;
      (** Crashed-executor restart horizon; orchestrators treat the
          executor as full until it passes ([Time.zero] when healthy). *)
  mutable epoch : int;
      (** Bumped by the whole-server purge. Scheduled lifecycle events
          (executor-restart, teardown-release) capture it and no-op when
          it moved: a stale "executor free" from before the crash must
          not clear [busy] while a post-reboot invocation is running. *)
}

(* Executor queues live in their own address-space region. *)
let exec_queue_region = 1 lsl 46

let uplink e =
  match e.up with
  | Some u -> u
  | None -> invalid_arg "Server: executor not wired to an orchestrator"

let fresh_req_id ctx =
  let id = ctx.next_req_id in
  ctx.next_req_id <- id + ctx.req_id_stride;
  id

let charge_core ctx core ns =
  ctx.core_busy_ps.(core) <- ctx.core_busy_ps.(core) +. (ns *. 1000.0)

(* Durations convert with [Time.of_ns] — the same rounding the engine
   applies to its schedule offsets — or arrive pre-rounded via [dur_ps], so
   an event's [at + dur] lands exactly on the engine timestamp of the next
   lifecycle event. The offline span builder relies on this to make
   per-phase attribution telescope exactly to end-to-end latency. *)
let trace ctx ~kind ~req ~core ?dur_ns ?dur_ps ?stall_ns ?detail () =
  match ctx.tracer with
  | None -> ()
  | Some tr ->
      let dur_ps =
        match (dur_ps, dur_ns) with
        | Some ps, _ -> ps
        | None, Some ns -> Time.of_ns ns
        | None, None -> 0
      in
      let stall_ps =
        match stall_ns with
        | Some ns -> Int.min dur_ps (Int.max 0 (Time.of_ns ns))
        | None -> 0
      in
      Trace.emit tr
        ~at_ps:(Engine.now ctx.engine)
        ~kind ~req_id:req.Request.id
        ~root_id:req.Request.root.Request.root_id
        ~parent_id:req.Request.parent_id ~fn:req.Request.fn_name ~core
        ~sid:ctx.trace_sid ~dur_ps ~stall_ps ?detail ()

(* Per-request VM-stall attribution: reset the hardware's stall accumulator
   at the start of each synchronous compute block and read the delta when
   the block's trace event is emitted. Only isolated variants attribute VM
   time to requests — under page-table baselines (Jord_NI, NightCore) walk
   and shootdown costs are architectural background, folded into run. *)
let stall_begin ctx = if ctx.tracer <> None then Jord_vm.Hw.stall_mark ctx.hw

let stall_take ctx =
  if ctx.tracer <> None && Variant.isolated ctx.variant then
    Jord_vm.Hw.stall_since_mark ctx.hw
  else 0.0

(* All cost accumulation goes through [Request.acct] — the real root for
   local requests, a detached ledger for forwarded ones (folded back at the
   response event; see [Request.detach_acct]). Writing the shared root from
   a remote server would race under the sharded engine and make float
   summation order depend on interleaving. *)
let add_cost (acct : Request.root) (c : Runtime.cost) =
  acct.Request.isolation_ns <- acct.Request.isolation_ns +. c.Runtime.isolation_ns;
  acct.Request.comm_ns <- acct.Request.comm_ns +. c.Runtime.comm_ns

(* System-scoped lifecycle events (ServerDown/ServerUp): like SLO alerts
   they belong to no request — req_id = -1, ignored by span building,
   exported as Perfetto global instant markers. *)
let trace_server ctx ~kind ~detail =
  match ctx.tracer with
  | None -> ()
  | Some tr ->
      Trace.emit tr
        ~at_ps:(Engine.now ctx.engine)
        ~kind ~req_id:(-1) ~root_id:(-1) ~fn:"server" ~core:(-1)
        ~sid:ctx.trace_sid ~detail ()

let rec poll ctx e (eng : Engine.t) =
  if (not e.busy) && Engine.now ctx.engine >= e.down_until then begin
    if not (Queue.is_empty e.ready) then begin
      let cont = Queue.pop e.ready in
      (* A whole-server crash aborts continuations in place; skip corpses. *)
      if cont.Continuation.status = Continuation.Aborted then poll ctx e eng
      else resume_cont ctx e cont
    end
    else
      match Bounded_queue.dequeue e.queue ~memsys:ctx.memsys ~core:e.core with
      | Some (req, deq_ns) -> start_request ctx e req ~deq_ns
      | None -> ()
  end

and start_request ctx e req ~deq_ns =
  e.busy <- true;
  stall_begin ctx;
  let acct = req.Request.acct in
  (* Executor-queue wait since the dispatch stamp (pure accounting). *)
  let wait_ns =
    Float.max 0.0 (Time.to_ns Time.(Engine.now ctx.engine - req.Request.enqueued_at))
  in
  acct.Request.queue_ns <- acct.Request.queue_ns +. wait_ns;
  ctx.queue_wait_ns <- ctx.queue_wait_ns +. wait_ns;
  match ctx.fault with
  | Some inj when Jord_fault_inject.Injector.draw_server_crash inj ->
      crash_server ctx e inj req ~deq_ns
  | Some inj when Jord_fault_inject.Injector.draw_crash inj ->
      crash_request ctx e inj req ~deq_ns
  | _ ->
      let fn = Model.find_fn ctx.app req.Request.fn_name in
      (* Warm-state loss: the first invocation of each function after a
         cold boot re-establishes its warm code image before setup. *)
      let cold_ns =
        if Hashtbl.length ctx.cold_fns > 0 && Hashtbl.mem ctx.cold_fns req.Request.fn_name
        then begin
          Hashtbl.remove ctx.cold_fns req.Request.fn_name;
          ctx.cold_starts <- ctx.cold_starts + 1;
          let c = Runtime.rewarm ctx.rt ~core:e.core ~fn in
          add_cost acct c;
          Runtime.total c
        end
        else 0.0
      in
      trace ctx ~kind:Trace.Start ~req ~core:e.core
        ?detail:(if cold_ns > 0.0 then Some "cold" else None) ();
      let pd, state_va, cost =
        Runtime.setup ctx.rt ~core:e.core ~fn ~argbuf:req.Request.argbuf
          ~arg_bytes:req.Request.arg_bytes
      in
      add_cost acct cost;
      (* Injected anomalies: a transient stall before the first segment and
         a PrivLib slowdown scaling the setup's cost. Zero when no plan. *)
      let fault_ns =
        match ctx.fault with
        | None -> 0.0
        | Some inj ->
            let stall = Jord_fault_inject.Injector.draw_stall_ns inj in
            if stall > 0.0 then ctx.stalls <- ctx.stalls + 1;
            let factor = Jord_fault_inject.Injector.draw_slow_factor inj in
            let slow =
              if factor > 1.0 then (factor -. 1.0) *. Runtime.total cost else 0.0
            in
            if slow > 0.0 then begin
              ctx.slowdowns <- ctx.slowdowns + 1;
              add_cost acct { Runtime.isolation_ns = slow; comm_ns = 0.0 }
            end;
            stall +. slow
      in
      acct.Request.comm_ns <- acct.Request.comm_ns +. deq_ns;
      let cid = ctx.next_cid in
      ctx.next_cid <- cid + 1;
      ctx.live_conts <- ctx.live_conts + 1;
      let cont =
        Continuation.make ~cid ~req ~fn
          ~phases:(fn.Model.make_phases ctx.prng)
          ~pd ~state_va ~home:e
      in
      Hashtbl.replace ctx.conts cid cont;
      advance ctx e cont ~dt0:(Runtime.total cost +. deq_ns +. fault_ns +. cold_ns)

(* An injected executor crash at invocation start: the fault hits after
   setup, the runtime rolls the PD back Groundhog-style (ArgBuf preserved),
   and the crashed request — plus everything queued behind it — is
   re-queued through the orchestrator for re-execution on a healthy
   executor. The executor itself stays down for the plan's restart window. *)
and crash_request ctx e inj req ~deq_ns =
  let now = Engine.now ctx.engine in
  ctx.crashes <- ctx.crashes + 1;
  let acct = req.Request.acct in
  let fn = Model.find_fn ctx.app req.Request.fn_name in
  let pd, state_va, cost =
    Runtime.setup ctx.rt ~core:e.core ~fn ~argbuf:req.Request.argbuf
      ~arg_bytes:req.Request.arg_bytes
  in
  add_cost acct cost;
  let ab =
    Runtime.abort ctx.rt ~core:e.core ~fn ~pd ~state_va ~argbuf:req.Request.argbuf
  in
  add_cost acct ab;
  acct.Request.comm_ns <- acct.Request.comm_ns +. deq_ns;
  let dt = deq_ns +. Runtime.total cost +. Runtime.total ab in
  trace ctx ~kind:Trace.Crash ~req ~core:e.core ~dur_ns:dt
    ~stall_ns:(stall_take ctx) ~detail:"executor" ();
  charge_core ctx e.core dt;
  e.down_until <- Time.(now + Time.of_ns (dt +. Jord_fault_inject.Injector.restart_ns inj));
  let up = uplink e in
  let requeue r =
    ctx.recovered <- ctx.recovered + 1;
    trace ctx ~kind:Trace.Recover ~req:r ~core:e.core ();
    up.submit_internal ~at:e.down_until r
  in
  requeue req;
  let rec drain () =
    match Bounded_queue.dequeue e.queue ~memsys:ctx.memsys ~core:e.core with
    | Some (r, _) ->
        requeue r;
        drain ()
    | None -> ()
  in
  drain ();
  (* [busy] stays set (suspended continuations survive the crash untouched
     but nothing new starts) until the restart event clears it. A whole-
     server crash in the window supersedes the restart: the purge bumps
     [epoch] and this event must then leave the rebooted executor alone. *)
  let ep = e.epoch in
  Engine.schedule_at ctx.engine ~time:e.down_until (fun eng ->
      if e.epoch = ep then begin
        e.busy <- false;
        poll ctx e eng
      end)

(* A whole-server crash at invocation start: every executor dies at once.
   The triggering invocation rolls back Groundhog-style like an executor
   crash; then every live continuation on the server is aborted (PDs and
   state VMAs torn down, ArgBufs returned to PD 0), every queue is purged,
   and the server stays dark until the boot event at [reboot]. Entry
   requests — external roots and forwarded-in requests, the server's
   obligations to the outside — re-queue at the reboot horizon; local
   children are discarded because their re-executed parents re-invoke
   them. A warm-loss draw decides whether the boot is cold (every function
   pays the re-warm path on its next invocation). *)
and crash_server ctx e inj req ~deq_ns =
  let now = Engine.now ctx.engine in
  ctx.crashes <- ctx.crashes + 1;
  ctx.server_crashes <- ctx.server_crashes + 1;
  let acct = req.Request.acct in
  let fn = Model.find_fn ctx.app req.Request.fn_name in
  let pd, state_va, cost =
    Runtime.setup ctx.rt ~core:e.core ~fn ~argbuf:req.Request.argbuf
      ~arg_bytes:req.Request.arg_bytes
  in
  add_cost acct cost;
  let ab =
    Runtime.abort ctx.rt ~core:e.core ~fn ~pd ~state_va ~argbuf:req.Request.argbuf
  in
  add_cost acct ab;
  acct.Request.comm_ns <- acct.Request.comm_ns +. deq_ns;
  let dt = deq_ns +. Runtime.total cost +. Runtime.total ab in
  trace ctx ~kind:Trace.Crash ~req ~core:e.core ~dur_ns:dt
    ~stall_ns:(stall_take ctx) ~detail:"server" ();
  charge_core ctx e.core dt;
  let reboot =
    Time.(now + Time.of_ns (Jord_fault_inject.Injector.server_down_ns inj))
  in
  ctx.srv_down_until <- reboot;
  trace_server ctx ~kind:Trace.ServerDown ~detail:"crash";
  let cold = Jord_fault_inject.Injector.draw_warm_loss inj in
  if cold then begin
    ctx.warm_losses <- ctx.warm_losses + 1;
    List.iter
      (fun (f : Model.fn) -> Hashtbl.replace ctx.cold_fns f.Model.name ())
      ctx.app.Model.fns
  end;
  (* The triggering request is an entry by construction (it was dequeued
     for execution); re-queue it first, then abort the rest of the server
     in a deterministic order: live continuations by ascending cid, then
     the orchestrator/executor queues via the server-installed purge. *)
  let up = uplink e in
  ctx.recovered <- ctx.recovered + 1;
  trace ctx ~kind:Trace.Recover ~req ~core:e.core ~detail:"server" ();
  up.submit_internal ~at:reboot req;
  (* Abort each core's currently-entered PD before any suspended one:
     tearing a suspended cont down re-enters its PD, which clobbers the
     core's current-PD register — the mid-segment cont must creturn
     first. Within each class, ascending cid keeps the order canonical. *)
  let keyed =
    Hashtbl.fold
      (fun cid (cont : t Continuation.t) acc ->
        let suspended =
          if Runtime.pd_suspended ctx.rt ~pd:cont.Continuation.pd then 1 else 0
        in
        ((suspended, cid), cid) :: acc)
      ctx.conts []
  in
  List.iter
    (fun (_, cid) ->
      match Hashtbl.find_opt ctx.conts cid with
      | Some cont -> abort_cont ctx cont ~reboot
      | None -> ())
    (List.sort compare keyed);
  ctx.on_server_purge ~reboot;
  Engine.schedule_at ctx.engine ~time:reboot (fun _ ->
      trace_server ctx ~kind:Trace.ServerUp
        ~detail:(if cold then "boot_cold" else "boot"))

(* Groundhog-style abort of one live continuation during a whole-server
   crash: completed-but-unreaped child ArgBufs are released, the PD/state
   VMA/code grant are torn down (the request's own ArgBuf returns to PD 0
   intact), and the continuation is marked [Aborted] so any event still
   scheduled against it — segment ends, zombie child responses — no-ops. *)
and abort_cont ctx (cont : t Continuation.t) ~reboot =
  let e = cont.Continuation.home in
  let req = cont.Continuation.req in
  let acct = req.Request.acct in
  cont.Continuation.status <- Continuation.Aborted;
  Hashtbl.remove ctx.conts cont.Continuation.cid;
  ctx.live_conts <- ctx.live_conts - 1;
  List.iter
    (fun (va, bytes) ->
      if va <> 0 then
        add_cost acct (Runtime.release_argbuf ctx.rt ~core:e.core ~va ~bytes))
    (Continuation.take_reaps cont);
  let ab =
    Runtime.abort ctx.rt ~core:e.core ~fn:cont.Continuation.fn
      ~pd:cont.Continuation.pd ~state_va:cont.Continuation.state_va
      ~argbuf:req.Request.argbuf
  in
  add_cost acct ab;
  if req.Request.on_complete = None || req.Request.forwarded then begin
    (* Entry request: re-execute from its preserved ArgBuf after boot. *)
    ctx.recovered <- ctx.recovered + 1;
    trace ctx ~kind:Trace.Recover ~req ~core:e.core ~detail:"server" ();
    (uplink e).submit_internal ~at:reboot req
  end
  else if req.Request.argbuf <> 0 then begin
    (* Local child: its re-executed parent re-invokes it; drop this
       instance and release its input buffer. *)
    add_cost acct
      (Runtime.release_argbuf ctx.rt ~core:e.core ~va:req.Request.argbuf
         ~bytes:req.Request.arg_bytes);
    req.Request.argbuf <- 0
  end

and resume_cont ctx e (cont : t Continuation.t) =
  e.busy <- true;
  stall_begin ctx;
  trace ctx ~kind:Trace.Resume ~req:cont.Continuation.req ~core:e.core ();
  e.suspended <- e.suspended - 1;
  cont.Continuation.status <- Continuation.Running;
  let acct = cont.Continuation.req.Request.acct in
  (* Reap completed children executor-side (PD 0) before re-entering. *)
  let dt = ref 0.0 in
  List.iter
    (fun (va, bytes) ->
      let c =
        Runtime.reap_argbuf ctx.rt ~core:e.core ~pd:cont.Continuation.pd ~va ~bytes
      in
      add_cost acct c;
      dt := !dt +. Runtime.total c)
    (Continuation.take_reaps cont);
  let c = Runtime.resume ctx.rt ~core:e.core ~pd:cont.Continuation.pd in
  add_cost acct c;
  advance ctx e cont ~dt0:(!dt +. Runtime.total c)

(* Run the continuation until it suspends or finishes, accumulating the
   segment's latency [dt]; schedule the segment-end event. *)
and advance ctx e (cont : t Continuation.t) ~dt0 =
  let now = Engine.now ctx.engine in
  let acct = cont.Continuation.req.Request.acct in
  let dt = ref dt0 in
  let finished = ref false in
  let suspended = ref false in
  let continue = ref true in
  while !continue do
    match cont.Continuation.phases with
    | [] ->
        continue := false;
        finished := true
    | Model.Compute ns :: rest ->
        cont.Continuation.phases <- rest;
        acct.Request.exec_ns <- acct.Request.exec_ns +. ns;
        let c =
          Runtime.touch_working_set ctx.rt ~core:e.core ~pd:cont.Continuation.pd
            ~fn:cont.Continuation.fn ~state_va:cont.Continuation.state_va
        in
        add_cost acct c;
        dt := !dt +. ns +. Runtime.total c
    | Model.Invoke { target; arg_bytes; mode; cookie } :: rest ->
        cont.Continuation.phases <- rest;
        let va, c1 = Runtime.make_argbuf ctx.rt ~core:e.core ~bytes:arg_bytes in
        let c2 = Runtime.invoke_send ctx.rt ~core:e.core ~bytes:arg_bytes in
        (* Returning from the runtime's call gates refetches the caller's
           code region (I-VLB pressure on tiny VLBs). *)
        let c3 =
          Runtime.touch_working_set ctx.rt ~core:e.core ~pd:cont.Continuation.pd
            ~fn:cont.Continuation.fn ~state_va:cont.Continuation.state_va
        in
        add_cost acct (Runtime.( ++ ) (Runtime.( ++ ) c1 c2) c3);
        dt := !dt +. Runtime.total c1 +. Runtime.total c2 +. Runtime.total c3;
        let child =
          Request.make_child ~id:(fresh_req_id ctx) ~parent:cont.Continuation.req
            ~fn_name:target ~arg_bytes
        in
        child.Request.argbuf <- va;
        child.Request.on_complete <-
          Some (fun eng ns -> child_completed ctx cont child eng ns);
        Continuation.register_child cont ?cookie ~child_id:child.Request.id ();
        (* Hand the request to this executor's orchestrator: one line write
           into the internal queue, then an arrival event. *)
        let up = uplink e in
        let wr = Jord_arch.Memsys.write ctx.memsys ~core:e.core ~addr:up.int_line in
        acct.Request.dispatch_ns <- acct.Request.dispatch_ns +. wr;
        dt := !dt +. wr;
        let arrival = Time.(now + Time.of_ns !dt) in
        up.submit_internal ~at:arrival child;
        (match mode with
        | Model.Async -> ()
        | Model.Sync ->
            cont.Continuation.wait <- Continuation.For_child child.Request.id;
            let c = Runtime.suspend ctx.rt ~core:e.core ~pd:cont.Continuation.pd in
            add_cost acct c;
            dt := !dt +. Runtime.total c;
            suspended := true;
            continue := false)
    | Model.Wait :: rest ->
        if Continuation.can_skip_wait cont then cont.Continuation.phases <- rest
        else begin
          cont.Continuation.phases <- rest;
          cont.Continuation.wait <- Continuation.For_all;
          let c = Runtime.suspend ctx.rt ~core:e.core ~pd:cont.Continuation.pd in
          add_cost acct c;
          dt := !dt +. Runtime.total c;
          suspended := true;
          continue := false
        end
    | Model.Wait_for cookie :: rest -> (
        cont.Continuation.phases <- rest;
        match Continuation.pending_cookie cont ~cookie with
        | None -> ()
        | Some child_id ->
            cont.Continuation.wait <- Continuation.For_child child_id;
            let c = Runtime.suspend ctx.rt ~core:e.core ~pd:cont.Continuation.pd in
            add_cost acct c;
            dt := !dt +. Runtime.total c;
            suspended := true;
            continue := false)
    | Model.Scratch bytes :: rest ->
        cont.Continuation.phases <- rest;
        let c = Runtime.scratch ctx.rt ~core:e.core ~bytes in
        add_cost acct c;
        dt := !dt +. Runtime.total c
  done;
  trace ctx ~kind:Trace.Segment ~req:cont.Continuation.req ~core:e.core ~dur_ns:!dt
    ~stall_ns:(stall_take ctx) ();
  charge_core ctx e.core !dt;
  let at = Time.(now + Time.of_ns !dt) in
  if !finished then
    Engine.schedule_at ctx.engine ~time:at (fun eng -> finish_cont ctx e cont eng)
  else if !suspended then begin
    trace ctx ~kind:Trace.Suspend ~req:cont.Continuation.req ~core:e.core ();
    Engine.schedule_at ctx.engine ~time:at (fun eng -> suspend_cont ctx e cont eng)
  end

and suspend_cont ctx e (cont : t Continuation.t) engine =
  (* A whole-server crash between the segment's end being scheduled and
     firing already tore this continuation down; the stale event no-ops. *)
  if cont.Continuation.status = Continuation.Aborted then ()
  else begin
  e.suspended <- e.suspended + 1;
  if Continuation.ready_after_suspend cont then begin
    cont.Continuation.status <- Continuation.Ready;
    Queue.push cont e.ready
  end
  else cont.Continuation.status <- Continuation.Suspended;
  e.busy <- false;
  poll ctx e engine
  end

and finish_cont ctx e (cont : t Continuation.t) engine =
  if cont.Continuation.status = Continuation.Aborted then ()
  else begin
  let now = Engine.now engine in
  stall_begin ctx;
  let req = cont.Continuation.req in
  let root = req.Request.root in
  let acct = req.Request.acct in
  let c =
    Runtime.teardown ctx.rt ~core:e.core ~fn:cont.Continuation.fn
      ~pd:cont.Continuation.pd ~state_va:cont.Continuation.state_va
      ~argbuf:req.Request.argbuf
  in
  add_cost acct c;
  Hashtbl.remove ctx.conts cont.Continuation.cid;
  ctx.live_conts <- ctx.live_conts - 1;
  let dt = Runtime.total c in
  (* Completion notification: a line write under Jord, a pipe message under
     NightCore — the sender only pays the send side; delivery takes the full
     message latency. *)
  let notify_busy, notify_lat, notify_charge =
    if Variant.uses_pipes ctx.variant then begin
      let pipe = (Runtime.nc ctx.rt).Jord_baseline.Nightcore.pipe in
      let send = Jord_baseline.Pipe.sender_ns pipe ~bytes:64 in
      let full = Jord_baseline.Pipe.message_ns pipe ~bytes:64 ~wake:true in
      (send, full, full)
    end
    else begin
      let addr =
        match req.Request.on_complete with
        | Some _ -> Continuation.notify_line cont
        | None -> (uplink e).notify_line
      in
      let wr = Jord_arch.Memsys.write ctx.memsys ~core:e.core ~addr in
      (wr, wr, wr)
    end
  in
  acct.Request.comm_ns <- acct.Request.comm_ns +. notify_charge;
  (* The Complete event's duration is the ps distance to the exact engine
     timestamp where the request's life ends (parent reap notification or
     external completion), so span end = at + dur with no rounding slack. *)
  let trace_complete ~at =
    trace ctx ~kind:Trace.Complete ~req ~core:e.core ~dur_ps:Time.(at - now)
      ~stall_ns:(stall_take ctx) ()
  in
  (match req.Request.on_complete with
  | Some f when req.Request.forwarded ->
      (* Forwarded request: the response travels back over the network; the
         local ArgBuf is reclaimed here, and the origin-side buffer is
         restored before the parent reaps it. *)
      let up = uplink e in
      up.push_reclaim ~va:req.Request.argbuf ~bytes:req.Request.arg_bytes;
      (* Wake the orchestrator so the buffer is reclaimed even when no
         further dispatches are pending on this server. *)
      Engine.schedule_at ctx.engine ~time:now up.wake;
      let resp = Netmodel.response_ns ctx.net in
      acct.Request.comm_ns <- acct.Request.comm_ns +. resp;
      req.Request.argbuf <- req.Request.home_argbuf;
      let at = Time.(now + Time.of_ns (dt +. notify_lat +. resp)) in
      trace_complete ~at;
      (* The response event runs on the home server: fold the detached
         ledger back into the enclosing one there (same fold point in
         sequential and sharded runs, so float order is identical), then
         resume the parent. Routing: local schedule on the shared engine,
         or a shard-mailbox post when the home server lives on another
         shard — [resp >= Netmodel.one_way] keeps the lookahead contract. *)
      let deliver eng =
        Engine.set_sid eng req.Request.home_sid;
        Request.settle_acct req;
        f eng notify_lat
      in
      (match ctx.route_return with
      | None -> Engine.schedule_at ctx.engine ~time:at deliver
      | Some route -> route req ~at deliver)
  | Some f ->
      (* Internal request: notify the parent's executor. *)
      let at = Time.(now + Time.of_ns (dt +. notify_lat)) in
      trace_complete ~at;
      Engine.schedule_at ctx.engine ~time:at (fun eng -> f eng notify_lat)
  | None ->
      (* External request: notify the orchestrator and finish measurement. *)
      let up = uplink e in
      let at = Time.(now + Time.of_ns (dt +. notify_lat)) in
      trace_complete ~at;
      up.push_reclaim ~va:req.Request.argbuf ~bytes:req.Request.arg_bytes;
      Engine.schedule_at ctx.engine ~time:at (fun eng ->
          root.Request.completed_at <- at;
          root.Request.finished <- true;
          ctx.completed <- ctx.completed + 1;
          ctx.in_flight <- ctx.in_flight - 1;
          ctx.root_cb root;
          (* Wake the orchestrator so the finished ArgBuf gets reclaimed
             even when no further dispatches are pending. *)
          up.wake eng));
  charge_core ctx e.core (dt +. notify_busy);
  (* The executor is free again once teardown and the send are done —
     unless a whole-server crash lands in the window (epoch moved), in
     which case the purge already decided the executor's fate. *)
  let ep = e.epoch in
  Engine.schedule_at ctx.engine
    ~time:Time.(now + Time.of_ns (dt +. notify_busy))
    (fun eng -> if e.epoch = ep then e.release_fn eng)
  end

and child_completed ctx (parent : t Continuation.t) child engine (_notify_ns : float) =
  match parent.Continuation.status with
  | Continuation.Aborted ->
      (* Zombie response: the parent died in a whole-server crash after this
         child was already on its way (a forwarded child executing remotely,
         or a local completion notification already scheduled). Don't touch
         the dead continuation's reap list — just reclaim the response
         buffer on the parent's home server. The re-executed parent
         re-invokes its children from scratch. *)
      if child.Request.argbuf <> 0 then begin
        let home = parent.Continuation.home in
        (uplink home).push_reclaim ~va:child.Request.argbuf
          ~bytes:child.Request.arg_bytes;
        child.Request.argbuf <- 0;
        (uplink home).wake engine
      end
  | _ -> (
      let was_waiting_for_this =
        Continuation.child_completed parent ~child_id:child.Request.id
          ~argbuf:child.Request.argbuf ~bytes:child.Request.arg_bytes
      in
      match parent.Continuation.status with
      | Continuation.Suspended when was_waiting_for_this ->
          parent.Continuation.status <- Continuation.Ready;
          Queue.push parent parent.Continuation.home.ready;
          if not parent.Continuation.home.busy then
            poll ctx parent.Continuation.home engine
      | Continuation.Suspended | Continuation.Running | Continuation.Ready
      | Continuation.Aborted ->
          ())

(* Classify one queued-but-unstarted request during a whole-server crash:
   entry requests (external roots and forwarded-in work — the server's
   obligations to the outside) re-queue at the reboot horizon; local
   children are discarded because their re-executed parents re-invoke
   them. Shared by the executor and orchestrator purge paths. *)
let purge_request ctx e (req : Request.t) ~reboot =
  if req.Request.on_complete = None || req.Request.forwarded then begin
    ctx.recovered <- ctx.recovered + 1;
    trace ctx ~kind:Trace.Recover ~req ~core:e.core ~detail:"server" ();
    (uplink e).submit_internal ~at:reboot req
  end
  else if req.Request.argbuf <> 0 then begin
    add_cost req.Request.acct
      (Runtime.release_argbuf ctx.rt ~core:e.core ~va:req.Request.argbuf
         ~bytes:req.Request.arg_bytes);
    req.Request.argbuf <- 0
  end

(* Whole-server crash: purge this executor's queues (dequeue costs are
   not charged — the machine is dead) and hold it down until [reboot].
   Live continuations were already aborted by [crash_server]; the ready
   set holds only corpses at this point. *)
let purge_for_reboot ctx e ~reboot =
  let rec drain () =
    match Bounded_queue.dequeue e.queue ~memsys:ctx.memsys ~core:e.core with
    | Some (req, _) ->
        purge_request ctx e req ~reboot;
        drain ()
    | None -> ()
  in
  drain ();
  Queue.clear e.ready;
  e.suspended <- 0;
  e.busy <- false;
  e.down_until <- reboot;
  e.epoch <- e.epoch + 1

let create ctx ~eid ~core ~queue_capacity =
  let rec e =
    {
      eid;
      core;
      queue =
        Bounded_queue.create ~capacity:queue_capacity
          ~region:
            (exec_queue_region
            + (eid * Bounded_queue.region_bytes ~capacity:queue_capacity));
      ready = Queue.create ();
      busy = false;
      suspended = 0;
      up = None;
      release_fn =
        (fun eng ->
          e.busy <- false;
          poll ctx e eng);
      down_until = Time.zero;
      epoch = 0;
    }
  in
  e
