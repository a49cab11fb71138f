(** Front-end load-balancing policies.

    The balancer lives on the fleet's shard 0 and decides from its own
    bookkeeping only — per-server outstanding counts (maintained from the
    responses it has seen) and the warm-route table it built itself — never
    from server-shard state, which is what keeps sharded fleet runs
    byte-identical to sequential ones. *)

type policy =
  | Round_robin  (** Rotate over routable servers. *)
  | Least_outstanding
      (** JBSQ-style: the routable server with the fewest requests in
          flight (lowest id wins ties). *)
  | Affinity
      (** Locality-aware: prefer the least-loaded server already warm for
          the entry (it skips the cold start), spilling to the fleet-wide
          least-outstanding server once every warm candidate has [spill]
          or more requests in flight — cold-start cost traded against
          queueing, the hexabase ADR-003 criterion. *)

val parse : string -> (policy, string) result
(** ["rr"]/["round-robin"], ["lo"]/["least-outstanding"], ["affinity"]. *)

val to_string : policy -> string
val names : string list

type view = {
  routable : bool array;
      (** Up and not draining, by server id; the fleet size is its
          length. *)
  outstanding : int array;  (** LB-side in-flight count, by server id. *)
  spill : int;  (** Affinity spill threshold (e.g. the slot count). *)
}
(** The fleet's own arrays, read in place on every pick. *)

type t

val create : policy -> servers:int -> entries:int -> t
(** A balancer for server ids [0 .. servers-1] and entry ids
    [0 .. entries-1]. *)

val policy : t -> policy

val pick : t -> view -> entry:int -> int
(** Choose a server for a request to [entry], or -1 when no server is
    routable. [Affinity] records the chosen server as warm for [entry]. *)

val hit : t -> bool
(** Whether the last [pick] used an affinity warm route. *)

val forget : t -> int -> unit
(** Drop a server from every warm route (it lost its warm state: drained
    away or about to cold-boot). *)
