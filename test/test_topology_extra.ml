(* Topology/config edge shapes: odd core counts, single core, big meshes. *)
open Jord_arch

let test_odd_core_counts () =
  List.iter
    (fun n ->
      let cfg = Config.with_cores Config.default n in
      let topo = Topology.create cfg in
      Alcotest.(check int) "cores echoed" n (Topology.cores topo);
      (* Every core has valid coordinates and self-distance zero. *)
      for c = 0 to n - 1 do
        let x, y = Topology.tile_of topo c in
        Alcotest.(check bool) "tile in mesh" true
          (x >= 0 && x < cfg.Config.mesh_cols && y >= 0 && y < cfg.Config.mesh_rows);
        Alcotest.(check int) "self distance" 0 (Topology.hops topo c c)
      done)
    [ 1; 2; 3; 7; 12; 33; 100 ]

let test_homing_covers_all_slices () =
  let topo = Topology.create (Config.with_cores Config.default 16) in
  let homes = Hashtbl.create 16 in
  for i = 0 to 1023 do
    Hashtbl.replace homes (Topology.slice_of_line topo ~requester:0 i) ()
  done;
  Alcotest.(check int) "interleaving reaches every slice" 16 (Hashtbl.length homes)

let test_two_socket_core_split () =
  let cfg = Config.with_sockets (Config.with_cores Config.default 8) 2 in
  let topo = Topology.create cfg in
  let s0 = List.init 8 (fun c -> Topology.socket_of topo c) in
  Alcotest.(check (list int)) "block split" [ 0; 0; 0; 0; 1; 1; 1; 1 ] s0

let test_triangle_inequality_samples () =
  let topo = Topology.create Config.default in
  let ok = ref true in
  for a = 0 to 31 do
    for b = 0 to 31 do
      let direct = Topology.latency_ns topo ~src:a ~dst:b in
      let via = Topology.latency_ns topo ~src:a ~dst:15 +. Topology.latency_ns topo ~src:15 ~dst:b in
      if direct > via +. 1e-9 then ok := false
    done
  done;
  Alcotest.(check bool) "mesh routing satisfies triangle inequality" true !ok

let suite =
  [
    Alcotest.test_case "odd core counts" `Quick test_odd_core_counts;
    Alcotest.test_case "homing covers slices" `Quick test_homing_covers_all_slices;
    Alcotest.test_case "two-socket split" `Quick test_two_socket_core_split;
    Alcotest.test_case "triangle inequality" `Quick test_triangle_inequality_samples;
  ]
