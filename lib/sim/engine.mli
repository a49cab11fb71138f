(** Discrete-event simulation engine.

    Entities schedule closures at absolute or relative simulated times; the
    engine runs them in timestamp order. Time only advances between events,
    so a callback observes a consistent [now].

    Equal timestamps go by a canonical key: {!schedule_arrival_at} events
    first, then the rest by the instant they were scheduled at, then by the
    id of the entity they were scheduled for ({!set_sid}; a cluster's
    server id, 0 wherever nobody sets one), then FIFO. With a single entity
    that is plain FIFO. The key depends only on what each entity scheduled
    and when, never on how entities interleave, so a cluster's servers see
    the same event order on one shared engine as on one engine per shard
    ({!schedule_posted}).

    Scheduling is allocation-free in the engine itself: the event queue
    stores closures in recycled slots and rings (see {!Event_queue}), so
    hot loops that reuse a pre-built closure — the orchestrator dispatch
    loop, the executor poll loop — put no per-event pressure on the GC. The
    [_handle] variants return a {!handle} with which a pending event can be
    cancelled or moved. *)

type t

type handle
(** Names one pending event; stale after the event fires or is cancelled. *)

val none_handle : handle
(** Never names a live event; [cancel]/[reschedule] on it return [false]. *)

val create : unit -> t

val now : t -> Time.t
(** Current simulated time. *)

val set_sid : t -> int -> unit
(** Declare whom the running callback acts for: the events it schedules
    from now on are keyed with [sid] (in [0, 2{^20})). Each event starts
    out acting for the entity it was scheduled for; a callback that crosses
    over to another entity — a request delivered to another server — sets
    that entity's id before scheduling anything. *)

val schedule : t -> after:Time.t -> (t -> unit) -> unit
(** [schedule t ~after f] runs [f] at [now t + after]. [after] must be
    non-negative. *)

val schedule_at : t -> time:Time.t -> (t -> unit) -> unit
(** [schedule_at t ~time f] runs [f] at absolute [time >= now t]. *)

val schedule_arrival_at : t -> time:Time.t -> (t -> unit) -> unit
(** As {!schedule_at}, in the arrival lane: the event fires before every
    other event at the same instant, whenever that one was scheduled, and in
    FIFO order among arrivals. A source that keeps just its next arrival
    pending here runs in the order it would have had by scheduling its
    whole stream before anything else. No handle: arrivals are neither
    cancelled nor moved. *)

val schedule_hop_at : t -> time:Time.t -> (t -> unit) -> unit
(** As {!schedule_at} for a wire hop: the same key and the same firing
    order, but no handle, so the event can be neither cancelled nor moved.
    Hops go through the queue's hop lane ({!Event_queue.push_hop}), which
    takes them without a heap sift while they are scheduled in firing order
    — a constant latency after a nondecreasing [now], for one entity.
    In-order scheduling is only a speed hint: a hop out of order is queued
    in the heap and fires exactly where {!schedule_at} would put it. *)

val schedule_posted :
  t -> time:Time.t -> posted_at:Time.t -> sid:int -> (t -> unit) -> unit
(** As {!schedule_hop_at}, keyed as if entity [sid] had scheduled it at
    instant [posted_at] on this engine: how {!Epoch} delivers a message
    posted on another shard so that it sorts exactly where a shared engine
    would have put it. {!Epoch} delivers each barrier's messages in
    ascending (time, sid, posting order), so a barrier's constant-latency
    messages reach the hop lane in order. *)

val schedule_handle : t -> after:Time.t -> (t -> unit) -> handle
val schedule_at_handle : t -> time:Time.t -> (t -> unit) -> handle
(** As {!schedule} / {!schedule_at}, returning a handle for {!cancel} /
    {!reschedule}. *)

val cancel : t -> handle -> bool
(** Remove a pending event. [false] if it already fired or was cancelled
    (stale handles are always safe to pass). *)

val reschedule : t -> handle -> time:Time.t -> bool
(** Move a pending event to absolute [time >= now], keeping its handle
    valid; it is keyed as a fresh {!schedule_at} would be (with one entity:
    after every event already queued for the new instant). [false] on a
    stale handle. *)

val pending_handle : t -> handle -> bool
(** Is this handle's event still queued? *)

val run : ?until:Time.t -> t -> unit
(** Process events in order until the queue drains, or until simulated time
    would exceed [until] (remaining events are left unprocessed). When
    [until] is given, [now] ends at exactly [max now until] even if the
    queue drained earlier — the run is defined to cover the whole window,
    so busy fractions computed against [now] use the true horizon. *)

val run_window : t -> until:Time.t -> unit
(** Process events with timestamps [<= until], leaving [now] at the last
    processed event rather than forcing it to the window edge. This is the
    epoch body of the conservative parallel core ({!Epoch}): a shard idle
    mid-epoch must keep [now] where it is so messages drained at the next
    barrier — which may land anywhere inside the just-run window plus the
    lookahead — are still schedulable. Use {!run} when the window edge is a
    true horizon that observers should see. *)

val next_time : t -> Time.t option
(** Timestamp of the earliest pending event, without processing it. The
    epoch loop uses the minimum across shards to place the next epoch. *)

val step : t -> bool
(** Process a single event; [false] if the queue was empty. *)

val pending : t -> int
(** Number of scheduled events not yet run. *)

val processed : t -> int
(** Total number of events executed so far. *)

val cancelled : t -> int
(** Total number of events removed via {!cancel}. *)
