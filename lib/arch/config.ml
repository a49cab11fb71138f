type cpu_profile = Simulator | Fpga

type t = {
  cores : int;
  ghz : float;
  profile : cpu_profile;
  ipc : float;
  mesh_cols : int;
  mesh_rows : int;
  link_cycles : int;
  l1_size : int;
  l1_ways : int;
  l1_latency : int;
  llc_latency : int;
  line : int;
  dram_ns : float;
  sockets : int;
  cross_socket_ns : float;
}

let default =
  {
    cores = 32;
    ghz = 4.0;
    profile = Simulator;
    ipc = 4.0;
    mesh_cols = 8;
    mesh_rows = 4;
    link_cycles = 3;
    l1_size = 32 * 1024;
    l1_ways = 8;
    l1_latency = 2;
    llc_latency = 6;
    line = 64;
    dram_ns = 90.0;
    sockets = 1;
    cross_socket_ns = 260.0;
  }

(* The FPGA prototype: two cores, lower effective IPC for straight-line code,
   and (per the paper's footnote) DRAM running relatively faster than the
   cores, so memory-bound steps shrink while instruction-bound steps grow. *)
let fpga =
  {
    default with
    cores = 2;
    profile = Fpga;
    ipc = 1.3;
    mesh_cols = 2;
    mesh_rows = 1;
    dram_ns = 45.0;
  }

let mesh_for cores =
  (* Smallest balanced cols >= rows rectangle holding [cores] tiles. *)
  let rec go rows =
    let cols = Jord_util.Bits.ceil_div cores rows in
    if cols >= rows then (cols, rows) else go (rows - 1)
  in
  let side = int_of_float (sqrt (float_of_int cores)) in
  go (Int.max 1 side)

let with_cores t n =
  if n <= 0 then invalid_arg "Config.with_cores";
  let per_socket = Jord_util.Bits.ceil_div n t.sockets in
  let cols, rows = mesh_for per_socket in
  { t with cores = n; mesh_cols = cols; mesh_rows = rows }

let with_sockets t n =
  if n <= 0 then invalid_arg "Config.with_sockets";
  let t = { t with sockets = n } in
  with_cores t t.cores

let cycles_ns t n = float_of_int n /. t.ghz
let instr_ns t n = float_of_int n /. t.ipc /. t.ghz
