(** Placement of cores and LLC slices on the mesh, and NoC/socket distances.

    Each core owns one tile of the per-socket 2D mesh; each tile also hosts
    one LLC slice (and its directory + VTD slice). Physical addresses are
    interleaved across slices at cache-line granularity.

    {!create} lays the cores out once, in per-core tile and socket tables,
    and fills the cores x cores one-way latency table from the hop and
    socket formula ([8 * cores^2] bytes: 512 KB at 256 cores). Every query
    below reads those tables, so a core outside [0, cores) raises
    [Invalid_argument]. *)

type t

val create : Config.t -> t
val config : t -> Config.t

val cores : t -> int
val socket_of : t -> int -> int
(** Socket hosting a core. Cores are distributed round-robin blocks:
    cores [0 .. per_socket-1] on socket 0, etc. *)

val tile_of : t -> int -> int * int
(** Mesh coordinates of a core within its socket. *)

val hops : t -> int -> int -> int
(** Manhattan hop distance between two cores' tiles. Cores on different
    sockets report the intra-socket distance to their socket edge only; the
    cross-socket link cost is accounted separately (see {!latency_ns}). *)

val latency_ns : t -> src:int -> dst:int -> float
(** One-way message latency between two cores' tiles, including the
    inter-socket link when they live on different sockets: a range check
    and one load from the table {!create} built, so it allocates only its
    boxed result. *)

val slice_of_line : t -> ?requester:int -> int -> int
(** Home core/tile (slice index) of a line index (see
    {!Memsys.line_of}). Lines are interleaved across the tiles of one
    socket: the requester's socket when given (first-touch NUMA
    placement), socket 0 otherwise. *)

val max_distance_ns : t -> from:int -> float
(** One-way latency to the farthest tile in the machine — the limiting term
    of a broadcast such as a VLB shootdown. *)
