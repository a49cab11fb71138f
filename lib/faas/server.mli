(** A Jord worker server: orchestrator and executor threads pinned to the
    cores of one machine, sharing a single address space (paper §3).

    The server is a discrete-event model driven by {!Jord_sim.Engine}:
    external requests enter an orchestrator, are JBSQ-dispatched to executor
    queues, run as continuations inside PDs, spawn nested invocations
    through the orchestrators' internal queues (which have priority, for
    deadlock freedom), and report completion back to the orchestrator. All
    control-plane memory traffic (queue lines, VTEs, free lists, ArgBufs)
    goes through the coherence model, so dispatch and isolation costs emerge
    from the machine rather than from constants.

    This module is the composition root: it builds the shared
    {!Executor.ctx} (hardware, runtime, app, counters), instantiates
    {!Orchestrator}s over their {!Executor} groups, and owns submission
    and telemetry. The behavior itself lives in {!Continuation},
    {!Executor}, {!Orchestrator} and {!Netmodel} — see
    [docs/architecture.md] for the map. *)

type config = {
  variant : Variant.t;
  machine : Jord_arch.Config.t;
  orchestrators : int;  (** Cores used as orchestrators (rest are executors). *)
  queue_capacity : int;  (** JBSQ bound per executor queue. *)
  policy : Policy.t;
  i_vlb_entries : int;
  d_vlb_entries : int;
  seed : int;
  internal_priority : bool;
      (** Dispatch internal (nested) requests before external ones — the
          paper's deadlock-avoidance rule (§3.3). Disabled only by the
          queue-priority ablation. *)
  forward_after : int;
      (** All-queues-full retries before an internal request is forwarded to
          another worker server (requires {!set_forward}); [max_int]
          disables forwarding. *)
  net : Netmodel.t;
      (** Cross-server network cost model, shared with {!Cluster} so wire
          and serialization constants have a single source of truth. *)
  fault_plan : Jord_fault_inject.Plan.t option;
      (** Deterministic fault schedule (executor and whole-server crashes,
          stalls, PrivLib slowdowns; {!Cluster} adds the wire faults).
          [None] — the default — keeps every code path bit-identical to the
          fault-free golden runs. *)
  recovery : Recovery.t;
      (** Deadline / retry-backoff / peer-health policy. The default
          reproduces the historical fixed 200 ns retry beat exactly. *)
}

val default_config : config
(** 32-core Table-2 machine, Jord variant, 2 orchestrators, JBSQ bound 4,
    16-entry VLBs. *)

val validate : config -> (unit, string) result
(** The machine shapes {!create} accepts. Each orchestrator owns a block of
    [cores / orchestrators] cores: its own and its executors'. A block of
    one would leave it nothing to dispatch to, so [Error] unless
    [1 <= orchestrators] and [2 * orchestrators <= cores]. *)

type t

val create : ?engine:Jord_sim.Engine.t -> config -> Model.app -> t
(** Build the machine, bootstrap PrivLib, register the app's functions.
    Raises [Invalid_argument] on a config {!validate} rejects. Pass a
    shared [engine] to co-simulate several servers (see {!Cluster}). *)

val engine : t -> Jord_sim.Engine.t
val config : t -> config
val app : t -> Model.app
val hw : t -> Jord_vm.Hw.t
val privlib : t -> Jord_privlib.Privlib.t
val runtime : t -> Runtime.t
val netmodel : t -> Netmodel.t

val submit : t -> ?entry:string -> unit -> unit
(** Inject one external request at the current simulated time. The entry
    function is sampled from the app mix unless given. *)

val on_root_complete : t -> (Request.root -> unit) -> unit
(** Register the completion callback (metrics collection). *)

val executor_count : t -> int
val orchestrator_count : t -> int

val dispatch_count : t -> int
val dispatch_ns_total : t -> float
(** Orchestrator dispatch operations and their cumulative latency (Fig. 14). *)

val completed_roots : t -> int
val live_continuations : t -> int
(** Suspended or running continuations (should drain to 0 when idle). *)

val dropped_requests : t -> int
(** External requests shed because the orchestrator queue was full (severe
    overload only). *)

val set_forward : t -> (Request.t -> unit) option -> unit
(** Install the cross-server forwarding path (paper §3.3): called with an
    internal request this server could not place after
    [config.forward_after] full-scan retries. The callee must eventually
    hand the request to another server's {!receive_forwarded}. *)

val receive_forwarded : t -> Request.t -> unit
(** Accept an internal request shipped from another worker server; it joins
    an orchestrator's internal queue with the usual priority. *)

val forwarded_out : t -> int
val received_in : t -> int

val timed_out_requests : t -> int
(** External roots shed by the deadline policy. *)

val in_flight : t -> int
(** Accepted roots not yet completed or shed (0 once drained). *)

val crashes : t -> int
val recovered : t -> int
(** Injected executor crashes (whole-server crashes included), and requests
    re-queued for re-execution because of them (each crash recovers at
    least the crashed request). *)

val server_crashes : t -> int
(** Injected whole-server crashes (a subset of {!crashes}). *)

val warm_losses : t -> int
(** Whole-server crashes that also invalidated warm function state. *)

val cold_starts : t -> int
(** Post-boot invocations that paid the cold re-warm path. *)

val is_down : t -> bool
(** Whether the server is inside a crash window right now (down or
    booting); a down server accepts no dispatch and acks no transfers. *)

val stalls : t -> int
val slowdowns : t -> int
(** Injected executor stalls / PrivLib slowdowns absorbed without recovery
    action (they only add latency). *)

val forward_abandoned : t -> int
(** Forwarded transfers the cluster transport gave up on after
    [recovery.retry_max] attempts; each was re-executed locally. *)

val queue_wait_ns_total : t -> float
(** Cumulative orchestrator- plus executor-queue wait across all requests
    (each hop re-stamps, so held/re-hopped requests don't double count). *)

val fault_active : t -> bool
(** Is a non-trivial fault plan installed? *)

val note_forward_abandoned : t -> Request.t -> unit
val note_duplicate : t -> Request.t -> unit
(** Transport hooks used by {!Cluster}: account an abandoned transfer
    (Drop trace, reason [peer_dead]) / a deduplicated wire copy. *)

val conservation : t -> Jord_fault_inject.Invariant.tally
(** This server's end-of-sim conservation tally. Sum tallies with
    {!Jord_fault_inject.Invariant.add} across servers that forward to each
    other before checking — forwarding balances cluster-wide, not per
    member. *)

val check_invariants : t -> string list
(** [Invariant.check (conservation t)]: violated invariants ([[]] = all
    hold). Every test asserts this is empty at end-of-sim. *)

val arrivals : t -> int
(** External requests submitted (dropped ones included). *)

val queue_full_retries : t -> int
(** Dispatch scans that found every managed executor queue full (the
    precondition for forwarding). *)

val register_metrics :
  t -> ?labels:(string * string) list -> Jord_telemetry.Registry.t -> unit
(** Register the whole machine's metric families — the server's
    control-plane counters ([jord_server_*], [jord_executor_queue_depth])
    plus the VM ([jord_vlb_*], [jord_vtw_*], [jord_vtd_*],
    [jord_faults_total]), memory-system ([jord_mem_*]) and PrivLib
    ([jord_privlib_*]) families underneath it — as pull collectors.
    [labels] (e.g. [("server", "0")]) are prepended to every instance. *)

val attach_sampler :
  t -> ?labels:(string * string) list -> Jord_telemetry.Sampler.t -> unit
(** Track this server's time-varying gauges (executor queue depths,
    continuation population, per-role core busy fraction, VLB occupancy)
    on a simulated-time sampler. The busy-fraction series are delta
    gauges: utilization over the sampling interval, not since boot. *)

val set_tracer : t -> Trace.t option -> unit
(** Attach an execution tracer; [None] (the default) disables emission. *)

val set_trace_sid : t -> int -> unit
(** Server id stamped on this server's trace events — lets cluster members
    share a single tracer while staying distinguishable (default 0). *)

val set_sid : t -> int -> unit
(** Fleet-wide server id (default 0): stamped on [Request.home_sid] at the
    first forward hop so the cluster can route the response event back to
    this server — across shards when it lives on another engine. *)

val set_route_return : t -> (Request.t -> at:Jord_sim.Time.t -> (Jord_sim.Engine.t -> unit) -> unit) option -> unit
(** Install the cluster's response router for forwarded requests
    ([Executor.ctx.route_return]); [None] (the default) schedules the
    response on this server's own engine — correct whenever home and
    remote servers share it. *)

val set_req_id_space : t -> base:int -> stride:int -> unit
(** Allocate request ids [base], [base+stride], ... so cluster members
    sharing one tracer never collide. Call before any request is admitted;
    the default is [base:0 ~stride:1]. *)

val orchestrator_cores : t -> int list
(** The cores running orchestrators (for trace track naming). *)

val core_busy_ns : t -> core:int -> float
(** Accumulated busy time charged to a core. *)

val utilization : t -> float * float
(** (mean orchestrator utilization, mean executor utilization) over the
    simulated span so far. *)

val run : ?until:Jord_sim.Time.t -> t -> unit
(** Drive the engine. *)

val worst_case_shootdown_ns : t -> float
(** Microbenchmark of a VLB shootdown whose translation every core's VLB
    holds (the paper's worst case: a global invalidation, limited by the
    farthest core's response). Used by Fig. 14. *)

val worst_case_dispatch_ns : t -> float
(** Microbenchmark of one JBSQ dispatch scan in the paper's worst case
    (§6.3): every managed executor's queue-length line is dirty in that
    executor's L1, so each read is a remote transfer. Used by Fig. 14. *)
