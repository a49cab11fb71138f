(** Front-end load-balancing policies and the balancer state they read.

    The balancer lives on the fleet's shard 0 and decides from its own
    bookkeeping only — per-server outstanding counts (kept from the routes
    and completions the fleet reports), which servers are routable, and the
    warm-route table it built itself — never from server-shard state, which
    is what keeps sharded fleet runs byte-identical to sequential ones.

    The state is a set of {!Jord_util.Bitset}s over server ids: a routable
    set, one set per level [l] in [0 .. spill-1] (the servers with [l] or
    fewer requests in flight, routable or not), and one warm set per entry.
    A route or a completion moves one bit, as the server's count passes
    or falls back to a level; a state change flips one routable bit. The
    lowest level a set meets is found by bisection, so a pick that finds a
    server below [spill] intersects at most [ceil (log2 (spill + 1))]
    levels with it, a few words each, whatever the warm set's size. Only
    a pick while every routable server holds [spill] or more falls back to
    a scan of the outstanding counts. No pick allocates. *)

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

type t

val create : policy -> servers:int -> entries:int -> spill:int -> t
(** A balancer for server ids [0 .. servers-1] and entry ids
    [0 .. entries-1], with the affinity spill threshold [spill] (e.g. the
    member slot count). Every server starts routable with nothing
    outstanding and warm for no entry.
    @raise Invalid_argument unless [servers >= 1], [entries >= 0] and
    [spill >= 1]. *)

val policy : t -> policy

val pick : t -> entry:int -> int
(** Choose a server for a request to [entry], or -1 when no server is
    routable. [Affinity] first drops every non-routable server from the
    entry's warm set, then takes the warm server with the fewest requests
    in flight (lowest id on ties) if that is below [spill]; otherwise it
    spills to the least-outstanding server and records it as warm for
    [entry]. A pick does not count the request: report it with {!route}. *)

val hit : t -> bool
(** Whether the last [pick] used an affinity warm route. *)

val route : t -> int -> unit
(** One more request in flight at the server. *)

val complete : t -> int -> unit
(** One request fewer in flight at the server.
    @raise Invalid_argument when it has none. *)

val outstanding : t -> int -> int
(** Requests in flight at the server, as reported. *)

val set_routable : t -> int -> bool -> unit
(** Whether picks may choose the server (up and not draining).
    @raise Invalid_argument on an id outside [0 .. servers-1]. *)

val routable : t -> int -> bool

val forget : t -> int -> unit
(** Drop a server from every warm route (it lost its warm state: drained
    away or about to cold-boot). *)
