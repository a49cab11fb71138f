(** Growable LIFO stack of ints: the free lists of VMA chunk indices and PD
    ids. Popping and moving entries allocate nothing; a push allocates only
    when the stack outgrows its array. *)

type t

val create : unit -> t
val length : t -> int
val is_empty : t -> bool
val push : t -> int -> unit

val pop : t -> int
(** The top entry, removed. @raise Invalid_argument when empty. *)

val move : t -> t -> int -> int
(** [move src dst n] pops up to [n] entries off [src], pushing each onto
    [dst] as it is popped, and returns how many moved. *)
