(** Set-associative cache tag array with LRU replacement.

    Models presence and coherence state only (no data): the simulator charges
    latency from hits/misses and coherence transitions, never from values.
    Lines are non-negative line indices (not byte addresses). Probes return
    a slot index, or [-1] when the line is absent, so a hit allocates
    nothing; a slot stays valid until the next {!insert} or {!invalidate}
    in its set. *)

type t

val create : size:int -> ways:int -> line:int -> t
(** [create ~size ~ways ~line]: capacity [size] bytes of [line]-byte lines.
    [size / line] must be divisible by [ways], and the number of sets a
    power of two, so that a line's set is a mask of its index.
    @raise Invalid_argument otherwise. *)

val sets : t -> int
val ways : t -> int

val lookup : t -> int -> int
(** [lookup t line] is the slot holding the line (and touches LRU), or [-1]
    if absent. *)

val peek : t -> int -> int
(** Like {!lookup} but without updating LRU. *)

val state : t -> int -> Mesi.t
(** MESI state of the line in a slot returned by {!lookup} or {!peek}; never
    [Mesi.Invalid]. *)

val set_state : t -> int -> Mesi.t -> unit
(** [set_state t slot state] updates the state of the line in a slot
    returned by {!lookup} or {!peek}. Setting [Mesi.Invalid] frees the
    way. *)

val insert : t -> int -> Mesi.t -> int
(** [insert t line state] fills a way, evicting the LRU victim if the set is
    full. Returns the evicted line, or [-1] if none was. Inserting a line
    that is already present just updates its state. *)

val invalidate : t -> int -> bool
(** [invalidate t line] removes the line; [true] if it was present. *)

val count_valid : t -> int
(** Number of valid lines currently held. *)

val clear : t -> unit
