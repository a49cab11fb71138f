(** Fixed-capacity bit set, used for coherence sharer lists (up to 512
    cores). *)

type t

val create : int -> t
(** [create n] holds members in [\[0, n)]. *)

val capacity : t -> int
val add : t -> int -> unit
val remove : t -> int -> unit
val mem : t -> int -> bool
val is_empty : t -> bool
val cardinal : t -> int
val clear : t -> unit
val next_member : t -> int -> int
(** [next_member t i] is the smallest member [>= i], or [-1] when there is
    none. Walking [next_member t 0], then [next_member t (m + 1)] after each
    member [m], visits the set in ascending order without allocating; the
    member just visited may be removed during the walk. *)

val iter : (int -> unit) -> t -> unit
val fold : ('a -> int -> 'a) -> 'a -> t -> 'a
val to_list : t -> int list
val copy : t -> t
