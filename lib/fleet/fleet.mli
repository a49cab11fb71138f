(** The datacenter fleet: a front-end load balancer over 100-1000 Jord
    servers, driven by population-scale open-loop traffic.

    Composition (mirroring {!Jord_faas.Cluster}'s sharded layout): the
    balancer owns engine shard 0 and every member server lives on one of
    the remaining shards; requests travel as timestamped messages delayed
    by the {!Jord_faas.Netmodel} one-way wire latency, which is exactly
    the conservative lookahead of {!Jord_sim.Epoch} — so a sharded run is
    byte-identical to the sequential one. All routing state (outstanding
    counts, warm routes, lifecycle) is balancer-local and updated only by
    balancer-shard events; all member state is updated only by delivered
    messages. Arrivals come from the deterministic
    {!Jord_workloads.Traffic} stream, one pending at a time in the balancer
    engine's arrival lane ({!Jord_sim.Engine.schedule_arrival_at}): each
    fires ahead of every same-instant event, as if the whole stream had
    been scheduled before the run, and memory holds only the requests in
    flight plus the per-user Zipf table.

    The autoscaling controller ticks on the balancer engine at sim-time
    cadence, sampling the fleet's own {!Jord_telemetry} gauges
    (utilization, queue depth, servers up) and booting/draining members
    with hysteresis; a booted member comes up cold (PR 8's warm-loss
    restart economics), a drained one leaves once its last response is
    out. Completions feed a latency {!Jord_telemetry.Sketch} and the
    fleet-level {!Jord_obsv.Rollup} SLO verdicts. *)

type config = {
  servers : int;  (** Fleet size (members the autoscaler can use). *)
  policy : Lb.policy;
  member : Fserver.config;
  net : Jord_faas.Netmodel.t;
  autoscale : Autoscaler.spec option;
      (** [None] keeps every server up for the whole run. *)
  shards : int;  (** Engine shards; 1 = sequential. *)
  service_samples : int;  (** Monte-Carlo samples for calibration. *)
  service_seed : int;  (** Seed of calibration and user-entry hashing. *)
}

val default_config : config
(** 100 servers, affinity policy, default member/netmodel, no autoscale,
    1 shard. *)

type t

val create : config -> app:Jord_faas.Model.app -> t
(** Build the fleet, calibrating per-entry service times from [app] via
    {!Jord_faas.Model.mean_service_ns}.
    @raise Invalid_argument on a config the CLI layer should have
    rejected (servers/shards < 1, zero wire latency with shards > 1,
    autoscale bounds exceeding the fleet, invalid app). *)

val run :
  ?slo:Jord_obsv.Slo.objective list ->
  ?tracer:Jord_obsv.Ftrace.t ->
  t ->
  shape:Jord_workloads.Traffic.shape ->
  duration_us:float ->
  unit
(** Arm the first arrival of the stream (each arrival arms the next as it
    fires), start the autoscaler cadence, and run to [3 * duration_us]
    (the drain horizon). With [?slo] a {!Jord_obsv.Rollup} collects
    per-objective verdicts. With [?tracer]
    every request gets an {!Jord_obsv.Fspan} with exact phase attribution,
    tail-sampled deterministically: request ids are arrival indices, shed /
    SLO-violating / cold-start requests always survive, and rollup window
    exemplars are pinned into the retained set — so the saved trace file is
    byte-identical at any shard count. Call once. *)

(** {2 Results} *)

type scale_event = {
  ev_at : Jord_sim.Time.t;
  ev_dir : [ `Up | `Down ];
  ev_count : int;
  ev_before : int;  (** Routable + booting capacity before the action. *)
  ev_after : int;
  ev_util : float;  (** The sampled utilization that triggered it. *)
}

val servers : t -> int
val arrivals : t -> int
val routed : t -> int
val completed : t -> int

val lb_shed : t -> int
(** Arrivals with no routable server. *)

val server_shed : t -> int
(** Queue-full drops at members. *)

val shed : t -> int
(** [lb_shed + server_shed]. *)

val affinity_hits : t -> int

val cold_starts : t -> int
(** Summed over members. *)

val boots : t -> int
val drains : t -> int
val up_now : t -> int

val up_range : t -> int * int
(** Min/max routable count over the run. *)

val outstanding_now : t -> int
(** 0 after a fully drained run. *)

val events_processed : t -> int

val scale_events : t -> scale_event list
(** Chronological. *)

val latency : t -> Jord_telemetry.Sketch.t

val registry : t -> Jord_telemetry.Registry.t
(** The fleet's [jord_fleet_*] / [jord_server_up] instruments. *)

val rollup : t -> Jord_obsv.Rollup.t option

val summary : t -> string
(** Deterministic run report: fleet/traffic/autoscale headers, the scale
    event log, balancer and member counters, and latency quantiles.
    Byte-identical at any shard count. *)
