(** The memory footprint of one VMA-store operation: the entry and node
    addresses it read and wrote, in access order, so that PrivLib and the
    VTW can charge them through {!Jord_arch.Memsys} (see
    {!Hw.charge_footprint}).

    A footprint is a pair of buffers reused from one operation to the next:
    recording an address allocates nothing once the buffers have grown to
    the longest operation seen. The fields are read directly, which costs
    no call even across modules. *)

type t = private {
  mutable reads : int array;  (** Its first [n_reads] slots, in access order. *)
  mutable n_reads : int;
  mutable writes : int array;  (** Its first [n_writes] slots, in access order. *)
  mutable n_writes : int;
}

val create : unit -> t

val clear : t -> unit
(** Start a new operation's footprint. *)

val read : t -> int -> unit
(** Record a read of an address. *)

val write : t -> int -> unit
(** Record a write of an address. *)
