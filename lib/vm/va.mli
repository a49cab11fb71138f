(** Size-class–embedded virtual-address encoding (paper §4.1, Figure 6).

    A Jord VA carries its own VMA-table position:

    {v
    | 61..60 | 59..56 | 55..51     | 50..offs_bits | offs_bits-1..0 |
    |   0    |  Top   | size class |     index     |     offset     |
    v}

    so the VMA-table entry address is computable from the VA alone —
    [f(sc, index) = index * n_classes + sc] evenly interleaves classes in
    the plain-list table. The [uatc] CSR (modelled by {!config}) describes
    this layout; [uatp] holds the table base. *)

type config = {
  top_tag : int;  (** Value of the Top field marking Jord-managed VAs. *)
  table_base : int;  (** Byte address of the VMA table (from uatp). *)
  table_capacity : int;  (** Total VTE slots in the plain list. *)
}

val default_config : config
(** 1 Mi-entry table (64 MB at 64 B per VTE), as sized in the paper. *)

val encode : config -> Size_class.t -> index:int -> offset:int -> int
(** Build a VA from its fields.
    @raise Invalid_argument if [offset] exceeds the class chunk or [index]
    exceeds the per-class slot budget. *)

val is_jord : config -> int -> bool
(** Does the address carry the Jord Top tag? Non-Jord addresses fall back to
    the page-based path. *)

val decode : config -> int -> (Size_class.t * int * int) option
(** [(size class, index, offset)] for a Jord VA, [None] otherwise. *)

val base_of : config -> int -> int
(** Base VA of the VMA containing a Jord VA (offset cleared).
    @raise Invalid_argument on a non-Jord VA. *)

val vte_index : config -> Size_class.t -> index:int -> int
(** Position of the VMA's entry in the plain list ([f] above). *)

val vte_index_of_va : config -> int -> int
(** {!vte_index} of the VMA containing a Jord VA, or [-1] for an address
    that is not Jord-managed or names no slot: the per-access slot
    computation, which allocates nothing. {!decode} and {!base_of} read
    the layout through it. *)

val class_at : int -> Size_class.t
(** Size class of the VMAs at a plain-list position (inverse of
    {!vte_index}). *)

val index_at : int -> int
(** Per-class index of the VMA at a plain-list position (inverse of
    {!vte_index}). *)

val vte_addr_at : config -> int -> int
(** Byte address of the entry at a plain-list position. *)

val vte_addr : config -> Size_class.t -> index:int -> int
(** Byte address of the VMA-table entry (entries span one 64 B line each to
    avoid false sharing). *)

val vte_addr_of_va : config -> int -> int
(** Entry address straight from a VA.
    @raise Invalid_argument on a non-Jord VA. *)

val slots_per_class : config -> int
(** Per-class VTE budget implied by the interleaving. *)

val vte_bytes : int
(** 64: a VTE spans a full cache block. *)

val entropy_bits : config -> Size_class.t -> int
(** ASLR headroom for a class: index bits not consumed by the per-class VTE
    budget (paper §4.1 — encoding the class into the VA costs a modest
    amount of randomization entropy). *)
