(** The cross-server network cost model — the single source of truth for
    wire latency, per-byte serialization and forwarding costs (paper §3.3).

    One instance is shared by every layer that touches the network: the
    orchestrator's forwarding path, the executor's response path, and the
    {!Cluster}'s inter-server delivery delay all read the same record, so
    the constants cannot drift apart (they were previously duplicated
    between [Server] and [Cluster]).

    The model is deliberately parametric: a cluster built with a custom
    instance simulates a different fabric (slower top-of-rack switch,
    cheaper serialization), and future work can extend it toward contention
    and topology without touching the orchestrator or executor layers. *)

type t

val create :
  ?one_way_ns:float -> ?per_byte_ns:float -> ?response_bytes:int -> unit -> t
(** [one_way_ns] (default 2500): NIC + wire + switch, one direction.
    [per_byte_ns] (default 0.05): serialization/copy cost per payload byte —
    there is no zero-copy path between machines. [response_bytes] (default
    256): size of a forwarded request's response message. *)

val default : t
(** The paper's numbers: 2.5 us one way, 0.05 ns/byte, 256-byte responses. *)

val one_way_ns : t -> float
val one_way : t -> Jord_sim.Time.t
val per_byte_ns : t -> float
val response_bytes : t -> int

val lookahead : t -> Jord_sim.Time.t
(** The conservative-synchronization window for a sharded run
    ({!Jord_sim.Epoch}), equal to {!one_way}: wire latency lower-bounds
    every cross-server interaction — a forward costs {!send_ns} [>=]
    [one_way] and a response {!response_ns} [>=] [one_way] — so two shards
    can safely run [one_way] apart without reordering anything. Zero when
    [one_way_ns] is zero; a parallel cluster requires it positive. *)

val send_ns : t -> bytes:int -> float
(** Cost of shipping a request with a [bytes]-byte payload to a peer:
    one-way latency plus serialization. *)

val copy_ns : t -> bytes:int -> float
(** Receiver-side cost of landing a [bytes]-byte payload in a local ArgBuf
    (the copy only; ArgBuf allocation is charged by the runtime). *)

val response_ns : t -> float
(** Cost of returning a forwarded request's response to its home server. *)
