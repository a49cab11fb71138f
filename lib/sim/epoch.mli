(** Conservative parallel DES: a fixed set of {!Shard}s advanced in
    lock-step epochs.

    The loop repeatedly (1) drains every shard's outboxes into the
    destination engines at a single-threaded barrier, (2) finds the
    earliest pending event time [T] across all shards, and (3) runs every
    shard through the window [\[T, T+W-1\]] where [W] is the lookahead —
    optionally in parallel via an injected runner. Because {!Shard.post}
    refuses timestamps closer than [W], no message produced inside an epoch
    can land inside it, so each epoch's work is independent across shards
    and the schedule is identical whatever the runner's interleaving.

    Determinism of barrier delivery: messages drain into a destination in
    ascending [(timestamp, sid, posting order)], each keyed as if its
    sender had scheduled it there at the post instant
    ({!Engine.schedule_posted}), so the merged schedule is a pure function
    of the posted messages and a delivery sorts among the destination's
    same-time events where one shared engine would put it. *)

type t

val create : shards:int -> lookahead:Time.t -> t
(** [lookahead] must be positive; [shards] at least 1. *)

val shards : t -> int
val shard : t -> int -> Shard.t
val engine : t -> int -> Engine.t
val lookahead : t -> Time.t

val run :
  ?until:Time.t -> ?runner:((int -> unit) -> int -> unit) -> t -> unit
(** Run epochs until every queue and outbox is empty, or (with [until])
    until the earliest pending event lies beyond the horizon. [runner f n]
    must call [f i] exactly once for each [i < n], in any order or in
    parallel (e.g. [Jord_par.Pool]); when omitted the shards run
    sequentially in shard order — same results either way.

    With [until], every shard's [now] is forced to the horizon on return,
    even on shards that never had an event — mirroring
    {!Engine.run}[ ~until] on the sequential path. *)

val drain : t -> int
(** Run one barrier by hand: deliver all posted messages into their
    destination engines, returning how many were delivered. {!run} calls
    this between epochs; tests use it to observe delivery order. *)

val processed : t -> int
(** Events executed, summed over shards. *)

val pending : t -> int
(** Events still queued plus messages awaiting a barrier. *)
