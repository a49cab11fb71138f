(** VMA-table entry (paper §4.3, Figure 8).

    Each entry spans a full cache block (no false sharing) and holds the
    VMA's bound, its physical backing ([offs]), attribute bits — Global (the
    VMA is visible to every PD with [global_perm]) and Privileged (only
    privileged code may touch it) — and a 20-slot sub-array of per-PD
    permissions. VMAs shared more widely spill into an overflow list
    reachable through the [ptr] field, which costs an extra memory access to
    consult. *)

type t

val create :
  base:int ->
  bytes:int ->
  phys:int ->
  ?global_perm:Perm.t option ->
  ?privileged:bool ->
  unit ->
  t
(** A fresh entry with an empty sub-array. [bytes] is the requested VMA size
    (the bound); the backing chunk may be larger. [global_perm = Some p]
    sets the G bit. *)

val vacant : unit -> t
(** A fresh placeholder that covers no address (its bound is zero). Empty
    VLB entries and table slots hold one, and a store lookup that finds
    nothing returns one, so probes need no option. It holds no slots and
    is never resized or granted to. *)

val base : t -> int
val bytes : t -> int
val phys : t -> int
val privileged : t -> bool
val global_perm : t -> Perm.t option
val covers : t -> int -> bool
(** Is the VA within [base, base + bytes)? *)

val translate : t -> int -> int
(** Physical address of a covered VA.
    @raise Invalid_argument if not covered. *)

val sub_array_capacity : int
(** 20, per the paper. *)

val perm_for : t -> pd:int -> Perm.t
(** Effective permission of a PD for this VMA: the global permission if the
    G bit is set, otherwise the sub-array (or overflow) entry, otherwise
    {!Perm.none}. *)

val overflow_lookup_needed : t -> pd:int -> bool
(** Whether resolving [pd] requires chasing the overflow pointer (i.e. the
    PD is not in the 20-entry sub-array but the overflow list is non-empty). *)

val set_perm : t -> pd:int -> Perm.t -> unit
(** Grant/replace a PD's permission. {!Perm.none} removes the slot. *)

val has_pd : t -> pd:int -> bool
(** Does the sub-array or overflow list hold an entry for this PD? *)

val sharer_count : t -> int
(** PDs currently holding a non-empty permission. *)

val iter_sharers : (int -> unit) -> t -> unit
(** Every PD holding a non-empty permission: sub-array slots in order, then
    the overflow list. *)

val resize : t -> bytes:int -> unit
(** Change the bound (must stay within the backing chunk's size class). *)

val clear_perms : t -> unit
