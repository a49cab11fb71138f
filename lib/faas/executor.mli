(** Executor threads: run continuations inside PDs on their pinned cores
    (paper §3.2).

    An executor polls two sources — its ready queue of resumable
    continuations and its JBSQ-bounded request queue — and drives each
    continuation's phase interpreter ({!advance}) until it suspends or
    finishes. Interaction with the orchestrator goes exclusively through
    the {!uplink} closures, which is what keeps the module graph acyclic:
    [Continuation <- Executor <- Orchestrator <- Server].

    This module also defines {!ctx}, the machine context shared by every
    layer of a server: the simulated hardware, the runtime, the app, and
    the server-wide counters. [Server] builds one and threads it through
    executors and orchestrators. *)

module Time = Jord_sim.Time
module Engine = Jord_sim.Engine

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
      (** Server id stamped on trace events (cluster members share one
          tracer; 0 outside cluster mode). *)
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
          server at absolute time [at]. [None] (the sequential cluster):
          schedule on the shared engine. Under [Jord_sim.Epoch] the cluster
          installs a router that posts cross-shard responses through the
          shard mailbox. *)
  mutable forwarded_out : int;
  mutable received_in : int;
  recovery : Recovery.t;  (** Deadline / retry-backoff / health policy. *)
  fault : Jord_fault_inject.Injector.t option;
      (** The seeded fault stream; [None] (no plan) keeps every fault-free
          code path bit-identical to the golden runs. *)
  mutable timed_out : int;  (** External roots shed past their deadline. *)
  mutable in_flight : int;  (** Accepted roots not yet completed or shed. *)
  mutable crashes : int;  (** Injected executor crashes. *)
  mutable recovered : int;  (** Requests re-queued after a crash. *)
  mutable stalls : int;  (** Injected executor stalls. *)
  mutable slowdowns : int;  (** Injected PrivLib slowdowns. *)
  mutable forward_abandoned : int;
      (** Forwarded transfers given up after [recovery.retry_max] attempts
          and re-executed locally. *)
  mutable queue_wait_ns : float;
      (** Cumulative orchestrator- plus executor-queue wait. *)
  mutable on_retry_backoff : float -> unit;
      (** Observation hook for retry-backoff intervals (telemetry wires a
          histogram here; defaults to a no-op). *)
  mutable srv_down_until : Time.t;
      (** Whole-server crash horizon: while [now < srv_down_until] the
          orchestrators hold all dispatch ([Time.zero] when up). *)
  mutable server_crashes : int;  (** Injected whole-server crashes. *)
  mutable warm_losses : int;
      (** Server crashes that also invalidated warm function state. *)
  mutable cold_starts : int;
      (** Post-boot invocations that paid the cold re-warm path. *)
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
  mutable up : uplink option;  (** Installed by {!Orchestrator.create}. *)
  mutable release_fn : Engine.t -> unit;
      (** Pre-built "teardown done, poll again" closure (hot path). *)
  mutable down_until : Time.t;
      (** Crashed-executor restart horizon; orchestrators treat the
          executor as full until it passes ([Time.zero] when healthy). *)
  mutable epoch : int;
      (** Bumped by the whole-server purge; scheduled lifecycle events
          (executor-restart, teardown-release) capture it at schedule
          time and no-op if it moved, so a stale "executor free" from
          before a crash cannot clear [busy] on the rebooted server. *)
}

val create : ctx -> eid:int -> core:int -> queue_capacity:int -> t
(** An idle executor with a fresh JBSQ queue in the executor-queue
    address-space region; [up] is wired later by its orchestrator. *)

val poll : ctx -> t -> Engine.t -> unit
(** If idle, resume the next ready continuation, else dequeue and start the
    next request; no-op when busy or empty. Safe to call redundantly — the
    orchestrator and completion events both poke it. *)

val purge_request : ctx -> t -> Request.t -> reboot:Time.t -> unit
(** Classify one queued-but-unstarted request during a whole-server crash:
    entry requests (external roots and forwarded-in work) re-queue through
    the uplink at the [reboot] horizon; local children are discarded and
    their ArgBufs released (the re-executed parents re-invoke them).
    Shared by the executor and orchestrator purge paths. *)

val purge_for_reboot : ctx -> t -> reboot:Time.t -> unit
(** Whole-server crash: drain this executor's request queue through
    {!purge_request} (no dequeue cost — the machine is dead), clear the
    ready set, and hold the executor down until [reboot]. *)

val fresh_req_id : ctx -> int
val charge_core : ctx -> int -> float -> unit
(** Accrue [ns] of busy time on a core (stored in picoseconds). *)

val trace :
  ctx ->
  kind:Trace.kind ->
  req:Request.t ->
  core:int ->
  ?dur_ns:float ->
  ?dur_ps:int ->
  ?stall_ns:float ->
  ?detail:string ->
  unit ->
  unit
(** Emit on the context's tracer (no-op when tracing is off). [dur_ns]
    converts with {!Jord_sim.Time.of_ns} — the engine's own rounding — so
    event durations telescope exactly onto engine timestamps; [dur_ps]
    bypasses the conversion for pre-rounded values. [stall_ns] is the VM
    time inside the duration (clamped to it). *)

val stall_begin : ctx -> unit
(** Mark the hardware VM-stall accumulator at the start of a synchronous
    compute block (no-op when tracing is off). *)

val stall_take : ctx -> float
(** VM stall ns accumulated since {!stall_begin} — 0 for non-isolated
    variants, whose walk/shootdown costs are architectural background. *)

val add_cost : Request.root -> Runtime.cost -> unit
(** Fold a runtime cost into the root's isolation/communication accounting. *)
