(** Open-loop Poisson load generator (wrk2-style, paper §5).

    Inter-arrival times are exponential with mean [1 / rate]; arrivals are
    independent of completions, so overload shows up as unbounded queueing —
    exactly the hockey-stick the p99-vs-load figures rely on.

    Every driver here arms arrivals alike: arrival [k] goes to server
    [k mod n], and each distinct engine among the servers runs a source
    that walks the whole arrival sequence and keeps the next arrival for
    its own servers pending in the engine's arrival lane
    ({!Jord_sim.Engine.schedule_arrival_at}), so a sharded cluster sees
    the event order of a single-engine one. *)

type t
(** An arrival process. *)

val start :
  server:Jord_faas.Server.t ->
  rate_mrps:float ->
  duration:Jord_sim.Time.t ->
  seed:int ->
  t
(** Stream Poisson arrivals into [server] from the current simulated time
    for [duration]; the first one past the window fires as a no-op.
    [rate_mrps] is in requests per microsecond (MRPS as used in the paper's
    figures — million requests per second). *)

val run :
  ?warmup:int ->
  ?tracer:Jord_faas.Trace.t ->
  ?on_server:(Jord_faas.Server.t -> unit) ->
  app:Jord_faas.Model.app ->
  config:Jord_faas.Server.config ->
  rate_mrps:float ->
  duration_us:float ->
  ?seed:int ->
  unit ->
  Jord_faas.Server.t * Jord_metrics.Recorder.t
(** Convenience harness: build a server for [app], attach a recorder, drive
    the load to completion (arrivals stop after [duration_us]; the engine
    then drains), and return both. [on_server] runs right after the server
    is built and before any load — the hook where telemetry (a registry or
    a {!Jord_telemetry.Sampler} on the server's engine) gets attached. *)

val run_cluster :
  ?warmup:int ->
  ?tracer:Jord_faas.Trace.t ->
  ?on_cluster:(Jord_faas.Cluster.t -> unit) ->
  ?forward_after:int ->
  ?shards:int ->
  servers:int ->
  app:Jord_faas.Model.app ->
  config:Jord_faas.Server.config ->
  rate_mrps:float ->
  duration_us:float ->
  ?seed:int ->
  unit ->
  Jord_faas.Cluster.t * Jord_metrics.Recorder.t
(** {!run} over a {!Jord_faas.Cluster}: [servers] workers behind one
    front-end round-robin load balancer; internal requests that cannot be
    placed locally are forwarded after [forward_after] (default 3, see
    {!Jord_faas.Cluster.create}) full-scan retries. [on_cluster] is the
    telemetry hook, as [on_server] is for {!run}. [shards] (default 1) runs
    the servers on that many parallel engine shards, each streaming its
    servers' share of the one Poisson process, so results are
    byte-identical across shard counts. *)

val fixed_gaps : Jord_faas.Server.t array -> arrivals:int -> gap_ns:float -> unit
(** Arm [arrivals] arrivals [gap_ns > 0] apart over the servers, the first
    now, through the same sources as {!run_cluster}; no trailing no-op. *)

val stream_population :
  engine:Jord_sim.Engine.t ->
  submit:(user:int -> unit) ->
  shape:Traffic.shape ->
  duration_us:float ->
  unit
(** Open-loop population traffic, streamed: the {!Traffic} arrival stream
    for [shape] over [duration_us] is drawn one arrival at a time, each
    scheduled with {!Jord_sim.Engine.schedule_arrival_at}, and [submit]
    runs at the arrival's time on [engine]. One arrival is pending at a
    time — the next is armed just before [submit] runs — so memory does not
    grow with the run length. Because the arrival lane fires ahead of every
    other event at the same instant, the run is event-for-event the one
    that pre-scheduling the whole stream before anything else would give.
    The fleet layer drives its balancer with it. *)

val population :
  submit:(time:Jord_sim.Time.t -> user:int -> unit) ->
  shape:Traffic.shape ->
  duration_us:float ->
  unit ->
  int
(** The same stream walked at once, with no engine: pass each arrival of
    {!Traffic} for [shape] over [duration_us] to [submit] in nondecreasing
    time order and return the arrival count. Byte-identical to walking
    {!Traffic.pregen} and to the [submit] calls of {!stream_population},
    with no engine or event cost: the bare generator, for timing it. *)
