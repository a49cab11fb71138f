type t = {
  cfg : Config.t;
  cores : int;
  per_socket : int;
  tile_x : int array; (* per core *)
  tile_y : int array;
  socket : int array;
  lat : float array; (* one-way latency, [src * cores + dst] *)
}

let hops t a b = abs (t.tile_x.(a) - t.tile_x.(b)) + abs (t.tile_y.(a) - t.tile_y.(b))

let create cfg =
  let per_socket = Jord_util.Bits.ceil_div cfg.Config.cores cfg.Config.sockets in
  let cols = cfg.Config.mesh_cols in
  let n = cfg.Config.cores in
  let tile_x = Array.init n (fun c -> c mod per_socket mod cols) in
  let tile_y = Array.init n (fun c -> c mod per_socket / cols) in
  let socket = Array.init n (fun c -> c / per_socket) in
  let max_hops = Array.fold_left Int.max 0 tile_x + Array.fold_left Int.max 0 tile_y in
  let hop_ns =
    Array.init (max_hops + 1) (fun h -> Config.cycles_ns cfg (h * cfg.Config.link_cycles))
  in
  let t =
    { cfg; cores = n; per_socket; tile_x; tile_y; socket; lat = Array.make (n * n) 0.0 }
  in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      let intra = hop_ns.(hops t src dst) in
      t.lat.((src * n) + dst) <-
        (if socket.(src) = socket.(dst) then intra else intra +. cfg.Config.cross_socket_ns)
    done
  done;
  t

let config t = t.cfg
let cores t = t.cores
let socket_of t core = t.socket.(core)
let tile_of t core = (t.tile_x.(core), t.tile_y.(core))

(* In the flat table, [dst = cores] would read the next row: check both
   ends before the one load. *)
let latency_ns t ~src ~dst =
  let n = t.cores in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg "Topology.latency_ns: core out of range";
  t.lat.((src * n) + dst)

let slice_of_line t ?(requester = 0) line =
  let socket = socket_of t requester in
  let per = Int.min t.per_socket (t.cores - (socket * t.per_socket)) in
  (socket * t.per_socket) + (abs line mod per)

let max_distance_ns t ~from =
  let worst = ref 0.0 in
  for dst = 0 to t.cores - 1 do
    let d = latency_ns t ~src:from ~dst in
    if d > !worst then worst := d
  done;
  !worst
