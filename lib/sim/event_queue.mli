(** Priority queue of timestamped events: an indexed binary min-heap with
    cancellable, reschedulable handles.

    Ties are broken by a key that depends only on the push sequence, never
    on the heap's internal shape, so the simulation is deterministic. Each
    event carries the instant it was scheduled at and the id of the source
    it was scheduled for ({!push_from}); same-time events fire by that
    instant, then by source id, then in push order. {!push} is [push_from]
    at instant 0 for source 0, so with {!push} alone two events for the
    same instant fire in the order they were pushed. The arrival lane
    ({!push_arrival}) goes first: at equal times its events fire before
    every other event, whenever either was pushed, and in push order among
    themselves.

    The heap is a structure of parallel [int] arrays, so a push performs no
    heap allocation once the backing arrays are warm — the engine's
    dispatch-heavy hot loop runs allocation-free when callers reuse their
    event closures (see [bench/engine_bench.ml]). *)

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

val min_src_exn : 'a t -> int
(** Source id of the earliest event (0 for arrivals).
    @raise Invalid_argument when empty. *)

val push_arrival : 'a t -> time:Time.t -> 'a -> unit
(** Schedule a payload in the arrival lane. It returns no handle: an
    arrival is neither cancelled nor moved. A source that keeps one pending
    arrival here fires in the same order as if it had pushed its whole
    stream before anything else. *)

val pop : 'a t -> (Time.t * 'a) option
(** Remove and return the earliest event. *)

val min_time_exn : 'a t -> Time.t
(** Timestamp of the earliest event.
    @raise Invalid_argument when empty. *)

val pop_exn : 'a t -> 'a
(** Allocation-free pop: returns the payload alone (read {!min_time_exn}
    first if the timestamp is needed).
    @raise Invalid_argument when empty. *)

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
(** Drop every pending event (their handles all go stale). *)

val invariants_ok : 'a t -> bool
(** Internal consistency check (heap order, index maps); for tests. *)
