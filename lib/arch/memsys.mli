(** End-to-end memory-access latency engine.

    Combines per-core L1D tag arrays, the distributed directory/LLC and the
    NoC into a functional MESI model: every access updates coherence state
    and returns its latency in nanoseconds. Only protocol-relevant accesses
    are driven through this engine (VMA-table entries, request-queue slots,
    free-list heads, ArgBuf lines); plain function execution is charged as
    opaque compute time by the workload model.

    An L1 hit allocates nothing: it probes the L1 by slot and returns the
    precomputed hit latency. A miss allocates its boxed latency and, on a
    line's first touch, the line's directory entry. *)

type stats = {
  mutable l1_hits : int;
  mutable l1_misses : int;
  mutable llc_hits : int;
  mutable dram_fills : int;
  mutable forwards : int;  (** Cache-to-cache transfers from a remote owner. *)
  mutable upgrades : int;  (** S->M upgrades requiring invalidations. *)
  mutable invalidations : int;  (** Remote L1 lines invalidated. *)
}

type t

val create : Topology.t -> t
(** @raise Invalid_argument if the configured line size is not a power of
    two, or the L1 geometry has a set count that is not one (see
    {!Cache.create}). *)

val topology : t -> Topology.t
val config : t -> Config.t
val stats : t -> stats

val read : t -> core:int -> addr:int -> float
(** Latency (ns) of a load by [core] from byte address [addr]. Addresses
    are non-negative; every access raises [Invalid_argument] on a negative
    one. *)

val write : t -> core:int -> addr:int -> float
(** Latency (ns) of a store (read-for-ownership on miss, upgrade on shared
    hit). *)

val atomic : t -> core:int -> addr:int -> float
(** Atomic read-modify-write: a write plus the serialization cost of the
    locked operation. *)

val read_block : t -> core:int -> addr:int -> bytes:int -> float
(** Latency of streaming [bytes] starting at [addr]: per-line accesses with
    overlapped misses (memory-level parallelism models all but the first
    line at a fraction of full latency). *)

val register_metrics :
  t -> ?labels:(string * string) list -> Jord_telemetry.Registry.t -> unit
(** Register the MESI/cache traffic counters ([jord_mem_*] families) as
    pull collectors over {!stats}; [labels] (e.g. a server id) are
    prepended to every instance. Zero hot-path cost. *)

val sharers : t -> addr:int -> Jord_util.Bitset.t
(** Cores whose L1 may hold the address' line — the directory's view, used by
    the VTD when it must fall back on the coherence directory (victim-cache
    behaviour, paper §4.2). This is the directory's own set (an empty one
    for a line never touched): walk it with {!Jord_util.Bitset.next_member}
    before the next access, and do not modify it. *)

val line_of : t -> int -> int
(** Line index of a byte address.
    @raise Invalid_argument on a negative address. *)

val home_of : t -> addr:int -> requester:int -> int
(** LLC slice homing the address' line; assigned by first touch within the
    requester's socket when not yet known. *)
