(** Priority queue of timestamped events: an indexed binary min-heap with
    cancellable, reschedulable handles, beside two handle-less FIFO lanes
    for arrivals and wire hops.

    Ties are broken by a key that depends only on the push sequence, never
    on where an event is stored, so the simulation is deterministic. Each
    event carries the instant it was scheduled at and the id of the source
    it was scheduled for ({!push_from}); same-time events fire by that
    instant, then by source id, then in push order. {!push} is [push_from]
    at instant 0 for source 0, so with {!push} alone two events for the
    same instant fire in the order they were pushed. Arrivals
    ({!push_arrival}) go first: at equal times they fire before every
    other event, whenever either was pushed, and in push order among
    themselves.

    Arrivals and hops ({!push_hop}) return no handle. Each kind has a lane,
    a ring kept in key order: a push whose key sorts after the lane's last
    event is appended in O(1), and any other push goes into the heap under
    the same key. A pop takes the least of the heap top and the two lane
    heads, so the pop order is the one a single heap would give; pushing
    in order only spares the heap work.

    The heap and the lanes are structures of parallel [int] arrays, so a
    push performs no heap allocation once the backing arrays are warm —
    the engine's dispatch-heavy hot loop runs allocation-free when callers
    reuse their event closures (the structured suite's [engine] experiment
    gates both, see docs/benchmarking.md). *)

type 'a t

type handle = int
(** Names one pending event. A handle goes stale as soon as its event pops,
    is cancelled, or the queue is cleared; stale handles are recognized (via
    a per-slot generation) and rejected, never confused with a recycled
    slot. *)

val none_handle : handle
(** A handle that no live event ever has; [cancel]/[reschedule] on it return
    [false]. Useful as an initializer. *)

val create : unit -> 'a t
val is_empty : 'a t -> bool
val length : 'a t -> int

val push : 'a t -> time:Time.t -> 'a -> handle
(** Schedule a payload; the handle can later [cancel] or [reschedule] it. *)

val push_from : 'a t -> time:Time.t -> sched:Time.t -> src:int -> 'a -> handle
(** {!push} with the tie-break key spelled out: scheduled at instant
    [sched] (nonnegative) for source [src] (in [0, 2{^20})). Among events
    for the same time, a smaller [sched] fires first, then a smaller
    [src], then the earlier push. *)

val push_arrival : 'a t -> time:Time.t -> 'a -> unit
(** Schedule an arrival. It returns no handle: an arrival is neither
    cancelled nor moved. A source that keeps one pending arrival here fires
    in the same order as if it had pushed its whole stream before anything
    else. *)

val push_hop : 'a t -> time:Time.t -> sched:Time.t -> src:int -> 'a -> unit
(** {!push_from} without a handle, through the hop lane: the event cannot
    be cancelled or moved. Its key and so its firing order are exactly
    {!push_from}'s. Pushing hops in key order — a constant delay after a
    nondecreasing [sched], from one source — keeps them all in the lane;
    that is a speed hint, never a condition for correctness, since a hop
    that sorts before the lane's last one goes into the heap instead. *)

val pop : 'a t -> (Time.t * 'a) option
(** Remove and return the earliest event. *)

val min_time_exn : 'a t -> Time.t
(** Timestamp of the earliest event.
    @raise Invalid_argument when empty. *)

val pop_exn : 'a t -> 'a
(** Allocation-free pop: returns the payload alone; {!popped_time} and
    {!popped_src} then name the event it was.
    @raise Invalid_argument when empty. *)

val popped_time : 'a t -> Time.t
(** Timestamp of the event the last pop removed. *)

val popped_src : 'a t -> int
(** Source id of the event the last pop removed (0 for arrivals). *)

val peek_time : 'a t -> Time.t option
(** Timestamp of the earliest event without removing it. *)

val holds : 'a t -> handle -> bool
(** Is this handle's event still pending? *)

val time_of : 'a t -> handle -> Time.t option
(** Current firing time of a pending event; [None] if the handle is stale. *)

val cancel : 'a t -> handle -> bool
(** Remove a pending event in O(log n). [false] if the handle is stale
    (already popped, cancelled, or cleared). *)

val reschedule : 'a t -> handle -> time:Time.t -> bool
(** Move a pending event to a new time in O(log n), keeping the handle
    valid. The event is re-sequenced exactly as if it had been {!push}ed at
    the reschedule point: it fires after every event already queued for the
    new timestamp. [false] if the handle is stale. *)

val reschedule_from : 'a t -> handle -> time:Time.t -> sched:Time.t -> src:int -> bool
(** {!reschedule} with the key of {!push_from}. *)

val clear : 'a t -> unit
(** Drop every pending event, lanes included (their handles all go
    stale). *)

val invariants_ok : 'a t -> bool
(** Internal consistency check (heap order, index maps, each lane in key
    order); for tests. *)
