(** A cluster of Jord worker servers sharing one simulated timeline.

    Implements the paper's multi-server escape hatch (§3.3): when a worker
    server's orchestrator cannot place an internal request after repeated
    full scans, it ships the request over the network to a peer, which
    executes it and returns the response. Cross-server traffic has no
    zero-copy path: payloads are serialized, copied and re-materialized
    into a local ArgBuf on arrival.

    External requests are spread across servers round-robin (a front-end
    load balancer).

    With a fault plan installed ([config.fault_plan <> None]) the wire
    becomes faulty — copies may be lost, duplicated or jittered — and the
    transport switches from fire-and-forget to at-least-once delivery:
    each transfer is acked by the receiver, retried with capped
    exponential backoff on ack timeout, rerouted away from peers with
    [recovery.health_threshold] consecutive timeouts (quarantined until a
    probe interval elapses), and after [recovery.retry_max] failed
    attempts re-executed locally by the sender. Receivers deduplicate by
    transfer id, and the ack timeout strictly exceeds the worst-case
    round trip, so no request ever executes twice. Without a fault plan
    the historical fire-and-forget path runs bit-identically.

    {2 Sharded (conservative parallel) mode}

    With [~shards > 1] the servers are block-partitioned over a
    {!Jord_sim.Epoch} loop of engine shards that advance in lock-step epochs
    bounded by the network model's {!Netmodel.lookahead} (the one-way wire
    latency): no cross-server interaction is faster than one wire hop, so
    within a lookahead window every shard is independent. Cross-shard
    forwards and forwarded-response deliveries travel through the shard
    mailboxes and are drained at epoch barriers in deterministic
    [(timestamp, sid)] order; completions and trace events are buffered
    per server and replayed in the same canonical order after the run.
    Fixed-seed runs are byte-identical across shard counts, and
    [~shards:1] is exactly the historical single-engine path.

    Fault plans compose with sharding: chaos state is partitioned the same
    way the servers are — each source owns its fault sub-stream
    ({!Jord_fault_inject.Injector.for_sid}), transfer ids, timers and
    health rows; each target owns its dedup table — and wire copies/acks
    travel through the shard mailboxes, so any fault plan replays
    byte-identically at every shard count.

    Sharded mode requires a positive [one_way_ns], and its arrivals come
    from [Jord_workloads.Loadgen], which arms each server's share on that
    server's own engine, rather than from live {!submit}. *)

type net_stats = {
  mutable xfers : int;  (** Transfers started (forwarded requests). *)
  mutable wire_copies : int;  (** Copies put on the wire (retries, dups). *)
  mutable lost : int;
  mutable duplicated : int;
  mutable dup_dropped : int;  (** Deliveries deduplicated at the receiver. *)
  mutable delivered : int;
  mutable dropped_down : int;
      (** Copies that reached a server inside a whole-server crash window:
          no ack, no dedup mark — the source times out and fails over. *)
  mutable acked : int;
  mutable retries : int;
  mutable abandoned : int;  (** Gave up after retry_max; re-executed locally. *)
  mutable failover : int;
      (** Retries that re-routed the transfer to a different peer. *)
  mutable no_healthy_peer : int;  (** Sends with every peer quarantined. *)
  mutable peers_marked_dead : int;
  mutable peers_unquarantined : int;
      (** Quarantined peers that answered a probe and rejoined the ring. *)
}

type t

val create :
  ?forward_after:int ->
  ?shards:int ->
  servers:int ->
  config:Server.config ->
  Model.app ->
  t
(** [forward_after] (default 3) full-scan retries before an internal request
    leaves its server. [shards] (default 1) partitions the servers over
    that many parallel engine shards, clamped to the server count; with 1
    every server shares one engine. Raises [Invalid_argument] if [shards]
    is not positive, or — when the effective shard count exceeds 1 — if
    the network model's one-way latency is zero (the lookahead would be
    empty). *)

val engine : t -> Jord_sim.Engine.t
(** The shared engine ([shards = 1]) or shard 0's engine; at the end of a
    horizon run every shard's clock agrees with it. *)

val servers : t -> Server.t array

val shards : t -> int
(** Effective shard count (1 = sequential single-engine mode). *)

val events_processed : t -> int
(** Events executed so far, summed across shards — identical across shard
    counts for the same workload. *)

val set_tracer : t -> Trace.t option -> unit
(** Install one shared tracer on every member (each stamps its own server
    id on emitted events); [None] disables emission cluster-wide. *)

val submit : t -> ?entry:string -> unit -> unit
(** Round-robin external submission at the current simulated time. Raises
    [Invalid_argument] on a sharded cluster (live submission would read
    one shard's clock mid-epoch): its arrivals come from
    [Jord_workloads.Loadgen.run_cluster]. *)

val on_root_complete : t -> (Request.root -> unit) -> unit
(** Install the completion callback on every server. On a sharded cluster
    the callback instead fires after {!run} returns, replaying all
    completions in [(completed_at, server id)] order — the sequential
    global order whenever no two servers complete roots on the same
    picosecond. *)

val run : ?until:Jord_sim.Time.t -> t -> unit
(** Drive the cluster to quiescence (or to the horizon [until]). Sharded
    mode runs the shards on a {!Jord_par.Pool} of domains, one per shard,
    then replays buffered completions and trace events in canonical
    order; per-server trace rings hold [capacity] events each, so a
    sharded run's merged trace only matches the sequential ring when no
    member overflowed. *)

val forwarded : t -> int
(** Total requests shipped between servers. *)

val net_stats : t -> net_stats option
(** Transport counters; [None] unless a fault plan is installed (the
    fault-free wire cannot lose anything worth counting). *)

val pending_transfers : t -> int
(** Transfers neither acked nor abandoned yet (0 once drained). *)

val conservation : t -> Jord_fault_inject.Invariant.tally
(** Cluster-wide tally: the member servers' tallies summed, so
    forwarded/received balance is checked across the whole ring. *)

val check_invariants : t -> string list
(** {!Jord_fault_inject.Invariant.check} on the cluster-wide tally, plus
    transport-level balance (transfers = acked + abandoned + pending;
    once drained, wire copies = lost + delivered + deduplicated +
    dropped-at-down-servers and no transfer pending). [[]] = all hold. *)

val register_metrics :
  t -> ?labels:(string * string) list -> Jord_telemetry.Registry.t -> unit
(** {!Server.register_metrics} on every member, each labeled
    [server=<index>] (plus the caller's [labels]). *)

val attach_sampler :
  t -> ?labels:(string * string) list -> Jord_telemetry.Sampler.t -> unit
(** {!Server.attach_sampler} on every member with [server=<index>] labels;
    all series share the cluster's single simulated timeline. *)
