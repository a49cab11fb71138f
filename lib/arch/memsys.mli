(** End-to-end memory-access latency engine.

    Combines per-core L1D tag arrays, the distributed directory/LLC and the
    NoC into a functional MESI model: every access updates coherence state
    and returns its latency in nanoseconds. Only protocol-relevant accesses
    are driven through this engine (VMA-table entries, request-queue slots,
    free-list heads, ArgBuf lines); plain function execution is charged as
    opaque compute time by the workload model.

    The coherence state is flat int arrays in this module, so a probe
    crosses no module boundary and chases no pointer:
    - every core's L1 ways in one array, [core * lines + set * ways + way],
      each word [line lsl 2 lor state] (M, E or S) or -1 when empty, with
      an LRU tick array beside it; a fill takes the first empty way, else
      the least recently used;
    - the directory in one open-addressing array (linear probing, grown at
      3/4 load), [2 + ceil(cores / 62)] ints per slot: the line, a word
      packing home slice, owner and LLC presence, then the sharer words
      ({!Jord_util.Bitset});
    - a copy of {!Topology}'s one-way latency table.

    An L1 hit allocates nothing, and a miss allocates only its boxed
    latency; a line's first touch adds the homing call's option and, at
    3/4 load, a doubled directory. Every access and {!home_of} raise
    [Invalid_argument] for a core outside [\[0, cores)]. *)

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
    two or is below 4 bytes, or if the L1 geometry is not positive, does not
    divide into whole sets of [l1_ways] lines, or has a set count that is
    not a power of two (a line's set is a mask of its index). *)

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

val sharer_slot : t -> addr:int -> int
(** The directory slot of the address' line, for {!next_sharer}, or [-1]
    for a line never touched. It stays valid until the next access or
    {!home_of}, which may add a line and move every slot. *)

val next_sharer : t -> int -> int -> int
(** [next_sharer t slot c] is the least core [>= c] whose L1 may hold the
    slot's line (the directory's view), or [-1]; always [-1] for slot
    [-1]. Walking from [0], then from [m + 1] after each core [m], visits
    the sharers in ascending order without allocating. The VTD falls back
    on this walk when it lost a translation's entry (victim-cache
    behaviour, paper §4.2). *)

val line_of : t -> int -> int
(** Line index of a byte address.
    @raise Invalid_argument on a negative address. *)

val home_of : t -> addr:int -> requester:int -> int
(** LLC slice homing the address' line; assigned by first touch within the
    requester's socket when not yet known. *)
