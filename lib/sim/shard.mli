(** One engine shard of a conservative parallel simulation.

    A shard wraps a private {!Engine.t} plus per-destination outboxes for
    timestamped cross-shard messages. During an epoch the shard's domain is
    the only writer of its engine and its outboxes; at the epoch barrier the
    epoch loop ({!Epoch}, single-threaded) drains every outbox into the destination
    engines in deterministic [(timestamp, sid, posting order)] order.

    The conservative contract: a message posted while the shard executes
    the epoch [\[T, T+W-1\]] must carry a timestamp [>= now + W] where [W]
    is the loop's lookahead — so it always lands at or after the next
    epoch's start and no shard ever receives an event in its past. {!post}
    enforces this. *)

type t

val create : id:int -> shards:int -> lookahead:Time.t -> t
(** [create ~id ~shards ~lookahead] makes shard [id] of a set of
    [shards], with outboxes for every destination. [lookahead] must be
    positive. *)

val id : t -> int
val engine : t -> Engine.t
val lookahead : t -> Time.t

val post : t -> dst:int -> at:Time.t -> sid:int -> (Engine.t -> unit) -> unit
(** Queue [fn] for delivery into shard [dst]'s engine at absolute time
    [at]. [sid] is the deterministic tiebreaker among same-timestamp
    messages (callers use the source server id, which is unique across
    shards and is the one the sending callback acts for, see
    {!Engine.set_sid}); the barrier schedules [fn] keyed as if [sid] had
    scheduled it on [dst] at this shard's current instant
    ({!Engine.schedule_posted}). Raises [Invalid_argument] if
    [at - now < lookahead] (a conservative-synchronization violation) or
    if [dst] is this shard (local work should be scheduled directly — it
    needs no barrier).

    Message records are pooled and reused across epochs; a post in the
    steady state allocates only the closure. *)

val pending_messages : t -> int
(** Messages posted since the last barrier, summed over destinations. *)

(**/**)

(* Barrier-side interface, used by {!Epoch} and by tests. *)

type msg = {
  mutable at : Time.t;
  mutable posted_at : Time.t;  (** The sender's [now] at {!post}. *)
  mutable sid : int;
  mutable seq : int;
  mutable fn : Engine.t -> unit;
}

val take_outbox : t -> dst:int -> msg array * int
(** Slots (first [len] live) destined for [dst], in posting order. The
    caller must {!reset_outboxes} once every destination is drained. *)

val reset_outboxes : t -> unit
