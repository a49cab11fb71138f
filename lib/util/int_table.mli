(** Int-keyed hash table with open addressing (linear probing,
    backward-shift deletion).

    Built for the simulator's per-access lookups: probes return a slot
    index (or [-1]) instead of an option, so a hit allocates nothing, and
    values sit in a flat array next to the keys. Slots stay valid until the
    next {!add} or {!remove} on the table. [min_int] is reserved as the
    free-slot marker and cannot be a key. *)

type 'a t

val create : ?size:int -> 'a -> 'a t
(** [create ~size dummy]: room for [size] keys before the first resize;
    [dummy] fills free value slots and is never returned by a probe. *)

val find : 'a t -> int -> int
(** Slot holding the key, or [-1] when absent. *)

val value : 'a t -> int -> 'a
(** Value at a slot returned by {!find} or {!add}. *)

val set_value : 'a t -> int -> 'a -> unit

val add : 'a t -> int -> 'a -> int
(** Insert an absent key; returns its slot. Doubles the table when it would
    become more than half full.
    @raise Invalid_argument if the key is present or is [min_int]. *)

val remove : 'a t -> int -> unit
(** Delete a key; no-op when absent. *)

val length : 'a t -> int

val iter : (int -> 'a -> unit) -> 'a t -> unit
(** Every binding, in slot order. *)

val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b

