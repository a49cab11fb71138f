(** B-tree VMA table — the Jord_BT ablation (paper §6.2, Figure 13).

    Keyed by VMA base address, CLRS-style B-tree of minimum degree 8, as in
    Midgard/redundant-memory-mapping designs. Unlike the plain list, every
    operation walks root-to-leaf (multiple dependent cache accesses) and
    inserts/deletes trigger node splits, borrows and merges — the
    "frequent B-tree rebalancing" the paper blames for Jord_BT spending 167%
    more PrivLib time. Each operation overwrites a {!Footprint.t} with the
    node addresses it touched (reads) and modified (writes), in access
    order, for latency charging. *)

type t

val create : unit -> t

val lookup : t -> Footprint.t -> va:int -> Vte.t
(** Floor search: the entry with the greatest base [<= va] if it covers
    [va], else a vacant entry (which covers no address). *)

val insert : t -> Footprint.t -> Vte.t -> unit
(** @raise Invalid_argument on duplicate base. *)

val remove : t -> Footprint.t -> va:int -> Vte.t
(** Delete the entry covering [va]; returns it, or a vacant entry. *)

val touch : t -> Footprint.t -> va:int -> unit
(** Footprint of an in-place VTE update: the lookup path plus one write of
    the last line it read. *)

val count : t -> int
val height : t -> int

val rebalance_ops : t -> int
(** Cumulative splits + merges + borrows since creation. *)

val check_invariants : t -> (unit, string) result
(** Structural validation (key ordering, occupancy bounds, uniform leaf
    depth) for property tests. *)

val iter : (Vte.t -> unit) -> t -> unit
