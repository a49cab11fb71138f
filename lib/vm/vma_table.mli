(** Plain-list VMA table (the paper's key data structure, §4.1).

    Because a VA encodes its own size class and index, the table entry
    position is computed — never searched. Every operation therefore touches
    exactly one VTE cache block, which is what makes VMA operations
    nanosecond-scale; {!entry_addr} is that block, for the caller to charge
    through the memory model. Entries sit in an int-keyed open-addressing
    table ({!Jord_util.Int_table}) keyed by plain-list position, and a
    lookup that finds nothing returns a {!Vte.vacant} entry, so no
    operation allocates. *)

type t

val create : Va.config -> t
val config : t -> Va.config

val entry_addr : t -> va:int -> int
(** Byte address of the VTE block computed from [va] — the one block every
    operation on [va] touches — or [-1] for a non-Jord VA. *)

val lookup : t -> va:int -> Vte.t
(** The entry covering [va] (bound-checked), or a vacant entry, which covers
    no address: test the result with {!Vte.covers}. *)

val insert : t -> Vte.t -> unit
(** Install an entry at the slot implied by its base VA.
    @raise Invalid_argument if the slot is occupied or the base is not a
    Jord VA. *)

val remove : t -> va:int -> Vte.t
(** Delete the entry covering [va]; returns it, or a vacant entry if none
    did. *)

val count : t -> int

val iter : (Vte.t -> unit) -> t -> unit
