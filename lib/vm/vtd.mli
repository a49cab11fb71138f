(** Virtual translation directory (paper §4.2, Figure 7).

    Set-associative structure co-located with the LLC slices that tracks,
    per VTE address, which cores' VLBs hold the translation. VTE reads with
    the T bit register the reader; VTE writes consult the sharer list to
    generate parallel VLB invalidations. When an entry was evicted (the VTD
    has bounded capacity), the write falls back on the cache-coherence
    directory's sharers for the VTE line — the directory acts as a victim
    cache for the VTD, pessimistically treating every VTE-line sharer as a
    translation sharer.

    Slots are parallel int arrays, [ways] consecutive slots per set; every
    slot's sharer set is [ceil(cores / 62)] words of one shared array
    ({!Jord_util.Bitset}), so registering a reader or walking the sharers
    allocates nothing. {!note_read} and {!drop_core} raise
    [Invalid_argument] for a core outside [\[0, cores)]. *)

type t

type stats = {
  mutable registrations : int;
  mutable evictions : int;
  mutable tracked_shootdowns : int;
  mutable fallback_shootdowns : int;
}

val create : ?sets:int -> ?ways:int -> cores:int -> unit -> t
(** Default geometry: 512 sets x 8 ways. *)

val stats : t -> stats

val note_read : t -> vte_addr:int -> core:int -> unit
(** Register [core]'s VLB as a sharer of the translation (T-bit read). *)

val write_slot : t -> vte_addr:int -> int
(** For a VTE write: the slot tracking the translation, counted as a tracked
    shootdown; or [-1], counted as a fallback, when the VTD lost the entry
    and the caller must fall back on the coherence directory. *)

val next_sharer : t -> int -> int -> int
(** [next_sharer t slot c] is the least core [>= c] whose VLB holds the
    translation tracked in a slot returned by {!write_slot}, or [-1].
    Walking from [0], then from [m + 1] after each core [m], visits the
    sharers in ascending order without allocating; walk before
    {!note_write} clears them. *)

val note_write : t -> vte_addr:int -> unit
(** Clear tracking after the invalidations for a VTE write went out. *)

val drop_core : t -> vte_addr:int -> core:int -> unit
(** A VLB silently evicted the translation. (Real hardware would not see
    this; we use it only in tests to create the untracked corner case.) *)

val tracked : t -> int
(** Number of live entries. *)
