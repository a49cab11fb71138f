(** Per-size-class free lists of VMA chunks (paper §4.1 and §4.4).

    Following segregated-list allocators (the paper's citation [43] is
    mimalloc, whose key idea is free-list sharding), each size class keeps
    a shared LIFO backing list plus a per-core shard cache. A chunk is
    identified by its plain-list index (which, with the class, determines
    its VA) and carries its physical backing. The hot path pops from the
    core-local shard (an L1-resident head line); batches move between the
    shard and the shared list — one atomic on the shared head per batch —
    and the shared list refills from the OS through [uat_config]. Without
    the sharding, every mmap would ping-pong the shared head line across all
    executor cores, which is incompatible with the paper's 16 ns VMA
    allocation. *)

type t

val create :
  os:Os_facade.t ->
  va_cfg:Jord_vm.Va.config ->
  ?refill_batch:int ->
  ?cores:int ->
  ?shard_batch:int ->
  unit ->
  t
(** [refill_batch] chunks are reserved per [uat_config] call (default 64);
    each core-local shard exchanges [shard_batch] chunks (default 16) with
    the shared list. Core [c] uses shard [c mod cores] (default 512
    shards). *)

val alloc :
  t ->
  memsys:Jord_arch.Memsys.t ->
  core:int ->
  Jord_vm.Size_class.t ->
  int
(** [alloc t ~memsys ~core sc] pops a chunk and returns its index; {!phys}
    is its backing and {!alloc_ns} this call's latency, which covers the
    atomic list-head update, the chunk-header read, and — rarely — the
    refill syscall. *)

val alloc_ns : t -> float
(** Latency of the last {!alloc}. *)

val phys : t -> Jord_vm.Size_class.t -> int -> int
(** Physical backing of a chunk index the class has handed out. *)

val free :
  t ->
  memsys:Jord_arch.Memsys.t ->
  core:int ->
  Jord_vm.Size_class.t ->
  index:int ->
  float
(** Push a chunk back; returns latency.
    @raise Jord_vm.Fault.Fault if the chunk is not allocated. *)

val live_chunks : t -> int
(** Chunks currently allocated (popped and not yet pushed back). *)

val allocations_by_class : t -> (Jord_vm.Size_class.t * int) list
(** Cumulative allocation counts per size class (non-empty classes only) —
    the distribution behind the paper's "99% of VMAs are smaller than 1 KB"
    sizing argument (§4.1). *)

val small_allocation_share : t -> bytes:int -> float
(** Fraction of all allocations at or below [bytes]. *)

val free_chunks : t -> Jord_vm.Size_class.t -> int
