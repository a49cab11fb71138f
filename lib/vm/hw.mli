(** The assembled Jord hardware extension: per-core MMUs (I/D-VLBs), the VMA
    table walker, the VTD, and the T-bit coherence path, all charging their
    memory traffic through {!Jord_arch.Memsys}.

    Translation identity (VLB tags, VTD tracking) always uses the canonical
    plain-list VTE address computable from the VA — the VA encoding does not
    change between Jord and Jord_BT; only the walked data structure (and so
    the walk's memory footprint) does. *)

type t

val create :
  ?i_entries:int ->
  ?d_entries:int ->
  memsys:Jord_arch.Memsys.t ->
  store:Vma_store.t ->
  va_cfg:Va.config ->
  unit ->
  t
(** Default VLB geometry: 16 I-entries, 16 D-entries (Table 2). *)

val memsys : t -> Jord_arch.Memsys.t
val store : t -> Vma_store.t
val va_cfg : t -> Va.config
val mmu : t -> core:int -> Mmu.t

val vtd : t -> Vtd.t
(** The machine's virtual translation directory (stats inspection). *)

val config : t -> Jord_arch.Config.t

val instr_ns : t -> int -> float
(** Straight-line instruction cost under the machine's CPU profile. *)

val translate :
  t -> core:int -> va:int -> access:Perm.access -> kind:[ `Instr | `Data ] -> float
(** Translation + protection check for the PD currently in the core's ucid:
    VLB lookup, VTW walk on miss (charged through the memory system, with
    VTD registration), sub-array/overflow permission resolution, P-bit
    check.
    Returns the translation latency in ns (0 on a VLB hit).
    @raise Fault.Fault on unmapped VA, denied permission or privilege
    violation. *)

val access :
  t ->
  core:int ->
  va:int ->
  access:Perm.access ->
  kind:[ `Instr | `Data ] ->
  bytes:int ->
  float
(** {!translate} followed by the data access(es) at the translated physical
    address: total latency in ns. *)

val charge_footprint : t -> core:int -> float
(** Drive the reads, then the writes, of the store's last operation through
    the memory system (walker and PrivLib traffic); returns their summed
    latency. *)

val shootdown : t -> core:int -> va:int -> float
(** T-bit VTE-write handling for the VMA covering [va]: consult the VTD (or
    fall back on the coherence directory when untracked), invalidate every
    sharer core's VLB entries in parallel, and return the shootdown latency
    — the round trip from the home LLC slice to the farthest sharer. The
    writing core's own VLB entries are invalidated locally for free. *)

val warm : t -> core:int -> va:int -> kind:[ `Instr | `Data ] -> unit
(** Pre-fill a VLB entry without charging latency (used to set up steady
    state in microbenchmarks). *)

val shootdown_count : t -> int
(** Total shootdowns performed. *)

val shootdown_ns_total : t -> float
(** Cumulative shootdown latency (for the Fig. 14 scalability study). *)

val walk_count : t -> int
val walk_ns_total : t -> float
(** VTW walk statistics (VLB miss penalty measurements). *)

val stall_mark : t -> unit
(** Reset the per-request VM-stall accumulator. The executor calls this at
    the start of each synchronous compute block. *)

val stall_since_mark : t -> float
(** VM time (VTW walks, I-VLB refill bubbles, shootdown round trips)
    accumulated since the last {!stall_mark}, in ns — the tracing layer
    attributes it to the request that ran the block. *)

val vlb_totals : t -> int * int
(** (hits, misses) summed over every core's I- and D-VLB. *)

val vlb_totals_by_kind : t -> (int * int) * (int * int)
(** ((I hits, I misses), (D hits, D misses)) summed over every core. *)

val fault_count : t -> int
(** Translation/protection faults raised through this machine. *)

val note_fault : t -> Fault.t -> unit
(** Count a fault raised outside {!translate} (PrivLib policy checks). *)

val vlb_occupancy : t -> kind:[ `Instr | `Data ] -> float
(** Mean occupancy fraction (0..1) of the given VLB kind across cores —
    sampled over simulated time by the telemetry layer. *)

val register_metrics :
  t -> ?labels:(string * string) list -> Jord_telemetry.Registry.t -> unit
(** Register the VM-layer metric families ([jord_vlb_*], [jord_vtw_*],
    [jord_vtd_*], [jord_faults_total]) as pull collectors; [labels] are
    prepended to every instance. Zero hot-path cost. *)

val reset_counters : t -> unit
