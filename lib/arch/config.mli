(** Machine configuration (Table 2 of the paper) and CPU timing profiles. *)

type cpu_profile =
  | Simulator  (** QFlex-style aggressive 4-way OoO model (effective IPC 4). *)
  | Fpga  (** OpenXiangShan RTL on FPGA: lower IPC, relatively faster DRAM. *)

type t = {
  cores : int;  (** Total cores (orchestrators + executors). *)
  ghz : float;  (** Core clock. *)
  profile : cpu_profile;
  ipc : float;  (** Effective instructions per cycle for straight-line code. *)
  mesh_cols : int;  (** NoC mesh width (tiles). *)
  mesh_rows : int;  (** NoC mesh height (tiles). *)
  link_cycles : int;  (** Cycles per NoC hop. *)
  l1_size : int;  (** L1D bytes. *)
  l1_ways : int;
  l1_latency : int;  (** Cycles for an L1D hit. *)
  llc_latency : int;  (** Cycles for an LLC access (excluding NoC). *)
  line : int;  (** Cache line bytes. *)
  dram_ns : float;  (** DRAM access latency. *)
  sockets : int;  (** 1 or 2. *)
  cross_socket_ns : float;  (** One-way inter-socket latency (AMD Turin). *)
}

val default : t
(** The 32-core configuration of Table 2: 4 GHz, 8x4 mesh, 32 KB 8-way L1D
    (2-cycle), one 6-cycle LLC slice per tile, 3-cycle links, 1 socket.
    Table 2's LLC is 2 MB/tile 16-way; its capacity is not modelled, since
    a line stays LLC-resident after first touch. *)

val fpga : t
(** Two-core OpenXiangShan-like configuration used for the FPGA column of
    Table 4. *)

val with_cores : t -> int -> t
(** [with_cores t n] scales the machine to [n] cores per socket-set, resizing
    the mesh to the smallest balanced rectangle that holds them. *)

val with_sockets : t -> int -> t
(** Set the socket count ([cores] is the total across sockets). *)

val cycles_ns : t -> int -> float
(** Duration of [n] cycles in nanoseconds. *)

val instr_ns : t -> int -> float
(** Duration of [n] straight-line instructions at the profile's IPC. *)
