(** Virtual lookaside buffer — a fully associative range TLB over VMAs
    (paper §4.1). Each core has an I-VLB and a D-VLB; entries are tagged
    with the backing VTE address so that T-bit coherence messages (VTD
    shootdowns) can invalidate them by tag match. *)

type t

type stats = { mutable hits : int; mutable misses : int; mutable shootdowns : int }

val create : entries:int -> t
val capacity : t -> int
val stats : t -> stats

val lookup : t -> va:int -> int
(** Range match on \[base, base+bytes): the hit entry's slot (refreshing
    its LRU), or [-1] on a miss. Allocates nothing. *)

val vte : t -> int -> Vte.t
(** The translation in a slot returned by {!lookup}; valid until the next
    {!fill} or invalidation. *)

val fill : t -> vte_addr:int -> Vte.t -> unit
(** Install a translation after a walk, evicting the LRU entry if full.
    Refilling an already-resident VTE refreshes it in place. The entry
    caches the VTE's range as filled, as a hardware VLB does: a later
    change to the VTE's bound reaches the VLB through a shootdown. *)

val invalidate_vte : t -> vte_addr:int -> bool
(** Tag-matched invalidation from a coherence message; [true] if an entry
    was dropped. *)

val invalidate_all : t -> unit
val contains_vte : t -> vte_addr:int -> bool
val occupancy : t -> int
