(** Runtime-selected VMA-table data structure: the plain list (Jord) or the
    B-tree (Jord_BT). Every operation records its memory footprint — the
    entry and node addresses it read and wrote, in access order — so PrivLib
    and the VTW can charge the accesses through {!Jord_arch.Memsys} (see
    {!Hw.charge_footprint}). The footprint lives in the store and is
    overwritten by the next operation, so recording it allocates nothing. *)

type backend = Plain of Vma_table.t | Btree of Vma_btree.t

type t

val plain : Va.config -> t
val btree : unit -> t
val backend : t -> backend
val kind : t -> string

val lookup : t -> va:int -> Vte.t
(** The entry covering [va], or a vacant entry (which covers no address)
    when none does: test the result with {!Vte.covers}. *)

val insert : t -> Vte.t -> unit

val remove : t -> va:int -> Vte.t
(** Delete the entry covering [va]; returns it, or a vacant entry. *)

val touch : t -> va:int -> unit
(** Record the footprint of an in-place permission update of the entry
    covering [va]. *)

val footprint : t -> Footprint.t
(** The footprint of the last operation. *)

val count : t -> int

val search_instrs : t -> int
(** Straight-line instruction cost of locating an entry: near-zero address
    arithmetic for the plain list; per-level comparisons for the B-tree. *)

val iter : (Vte.t -> unit) -> t -> unit
