(** Protection-domain lifecycle management.

    PD ids come from a shared free list; PD configurations (saved context,
    status) live in a privileged VMA, one cache line per PD, so PD operations
    charge real coherence traffic. PD 0 is the root domain the executors and
    orchestrators run in; it always exists and is never allocated. *)

type status =
  | Idle  (** Allocated by [cget], not entered yet. *)
  | Running of int  (** Entered via [ccall]/[center] on a core. *)
  | Suspended  (** Exited via [cexit], resumable with [center]. *)

type t

val create : ?max_pds:int -> ?cores:int -> unit -> t
(** Default capacity 4096 PDs; ids are handed out through per-core shard
    caches (batches detached from the shared list with one atomic). *)

val alloc : t -> memsys:Jord_arch.Memsys.t -> core:int -> int
(** Pop a PD id; {!alloc_ns} is this call's latency. *)

val alloc_ns : t -> float
(** Latency of the last {!alloc}. *)

val free : t -> memsys:Jord_arch.Memsys.t -> core:int -> int -> float
(** Release a PD.
    @raise Fault.Fault if the id is invalid, still running, or PD 0. *)

val status : t -> int -> status
(** @raise Fault.Fault on an unallocated id. *)

val set_status : t -> int -> status -> unit
val is_live : t -> int -> bool
val live_count : t -> int
val config_addr : int -> int
(** Line address of a PD's configuration record. *)
