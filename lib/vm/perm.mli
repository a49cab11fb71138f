(** VMA access permissions (R/W/X bit set). *)

type t = private int

val none : t
val r : t
val w : t
val x : t
val rw : t
val rx : t
val rwx : t

val make : ?read:bool -> ?write:bool -> ?exec:bool -> unit -> t
val of_bits : int -> t
(** The permission held in the low three bits of an int: the inverse of
    [(p :> int)], for packing a permission into a wider word. *)

val union : t -> t -> t
val inter : t -> t -> t

val can_read : t -> bool
val can_write : t -> bool
val can_exec : t -> bool

val subsumes : t -> t -> bool
(** [subsumes a b]: every right in [b] is also in [a]. *)

type access = Read | Write | Exec

val allows : t -> access -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
val equal : t -> t -> bool
