(** Coherence directory: per-line owner and sharer tracking.

    One logical directory is distributed across LLC slices; homing is decided
    by {!Topology.slice_of_line}, so this module only stores the global
    line -> sharers map, in an int-keyed open-addressing table
    ({!Jord_util.Int_table}). It also records LLC presence ([in_llc]) so the
    memory system can distinguish LLC hits from cold DRAM fetches. Entries
    are never dropped: the LLC is modelled as holding a line from its first
    touch on. *)

type entry = {
  sharers : Jord_util.Bitset.t;  (** Cores whose L1 may hold the line. *)
  mutable owner : int;  (** Core holding M/E, or -1. *)
  mutable in_llc : bool;
  home : int;  (** LLC slice homing the line (fixed at first touch). *)
}

type t

val create : cores:int -> t

val find : t -> int -> int
(** Slot of a line's entry, or [-1] if the line was never touched. The slot
    stays valid until the next {!add}. *)

val entry : t -> int -> entry
(** The entry in a slot returned by {!find}. *)

val add : t -> int -> home:int -> entry
(** [add t line ~home] creates the entry of a line that has none, homed at
    [home] (first-touch NUMA placement). *)

val drop_core : t -> int -> int -> unit
(** [drop_core t line core] removes a core from the line's sharers (L1
    eviction/invalidation notification). *)

val entries : t -> int
