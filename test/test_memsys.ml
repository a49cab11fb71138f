open Jord_arch

let make () = Memsys.create (Topology.create Config.default)

let l1_hit_ns = 0.5 (* 2 cycles at 4 GHz *)
let sharers m ~addr = Option.value ~default:[] (Test_memsys_props.sharer_list m ~addr)

let test_read_then_hit () =
  let m = make () in
  let first = Memsys.read m ~core:0 ~addr:0x1000 in
  Alcotest.(check bool) "first read misses (cold)" true (first > l1_hit_ns);
  let second = Memsys.read m ~core:0 ~addr:0x1000 in
  Alcotest.(check (float 1e-9)) "second read is an L1 hit" l1_hit_ns second;
  let stats = Memsys.stats m in
  Alcotest.(check int) "one miss" 1 stats.Memsys.l1_misses;
  Alcotest.(check int) "one DRAM fill" 1 stats.Memsys.dram_fills

let test_llc_after_first_touch () =
  let m = make () in
  ignore (Memsys.read m ~core:0 ~addr:0x2000);
  (* Another core misses in L1 but finds the line in the LLC. *)
  let lat = Memsys.read m ~core:5 ~addr:0x2000 in
  let dram = Config.default.Config.dram_ns in
  Alcotest.(check bool) "LLC, not DRAM" true (lat < dram)

let test_write_invalidates_readers () =
  let m = make () in
  ignore (Memsys.read m ~core:1 ~addr:0x3000);
  ignore (Memsys.read m ~core:2 ~addr:0x3000);
  Alcotest.(check (list int)) "two sharers" [ 1; 2 ] (sharers m ~addr:0x3000);
  ignore (Memsys.write m ~core:1 ~addr:0x3000);
  Alcotest.(check (list int)) "writer owns alone" [ 1 ] (sharers m ~addr:0x3000);
  (* Reader 2 must now miss. *)
  let lat = Memsys.read m ~core:2 ~addr:0x3000 in
  Alcotest.(check bool) "reader 2 misses after invalidation" true (lat > l1_hit_ns)

let test_dirty_remote_forward () =
  let m = make () in
  ignore (Memsys.write m ~core:3 ~addr:0x4000);
  let before = (Memsys.stats m).Memsys.forwards in
  let lat = Memsys.read m ~core:9 ~addr:0x4000 in
  Alcotest.(check int) "cache-to-cache forward" (before + 1) (Memsys.stats m).Memsys.forwards;
  Alcotest.(check bool) "forward costs more than a hit" true (lat > l1_hit_ns);
  (* The owner was downgraded, so its next write is an upgrade. *)
  let up_before = (Memsys.stats m).Memsys.upgrades in
  ignore (Memsys.write m ~core:3 ~addr:0x4000);
  Alcotest.(check int) "upgrade" (up_before + 1) (Memsys.stats m).Memsys.upgrades

let test_exclusive_silent_upgrade () =
  let m = make () in
  ignore (Memsys.read m ~core:0 ~addr:0x5000);
  (* Sole reader holds E; writing it costs only the L1 hit. *)
  let lat = Memsys.write m ~core:0 ~addr:0x5000 in
  Alcotest.(check (float 1e-9)) "E->M is free" l1_hit_ns lat

let test_write_hit_m () =
  let m = make () in
  ignore (Memsys.write m ~core:0 ~addr:0x6000);
  let lat = Memsys.write m ~core:0 ~addr:0x6000 in
  Alcotest.(check (float 1e-9)) "M write hit" l1_hit_ns lat

let test_atomic_costs_more () =
  let m = make () in
  ignore (Memsys.write m ~core:0 ~addr:0x7000);
  let w = Memsys.write m ~core:0 ~addr:0x7000 in
  let a = Memsys.atomic m ~core:0 ~addr:0x7000 in
  Alcotest.(check bool) "atomic > write" true (a > w)

let test_read_block_overlap () =
  let m = make () in
  (* Warm 8 lines at another core so they are LLC hits. *)
  ignore (Memsys.read_block m ~core:4 ~addr:0x8000 ~bytes:512);
  let full = Memsys.read m ~core:0 ~addr:0x8000 in
  let block = Memsys.read_block m ~core:0 ~addr:0x8040 ~bytes:448 in
  (* 7 overlapped line fills must cost less than 7 serial ones. *)
  Alcotest.(check bool) "MLP discount" true (block < 7.0 *. full)

let test_distance_matters () =
  let m = make () in
  (* Two cold lines homed at different distances from core 0; the line homed
     farther away costs more. Find homes via the first touch. *)
  let near_home = Memsys.home_of m ~addr:0x9000 ~requester:0 in
  ignore near_home;
  let lat_near = ref infinity and lat_far = ref 0.0 in
  for i = 0 to 31 do
    let addr = 0xA000 + (i * 64) in
    let lat = Memsys.read m ~core:0 ~addr in
    if lat < !lat_near then lat_near := lat;
    if lat > !lat_far then lat_far := lat
  done;
  Alcotest.(check bool) "NoC distance differentiates misses" true (!lat_far > !lat_near)

let test_eviction_updates_directory () =
  let m = make () in
  (* L1 is 32 KB / 64 B / 8 ways = 64 sets; 9 lines mapping to one set force
     an eviction. Set stride = 64 sets * 64 B = 4096. *)
  for i = 0 to 8 do
    ignore (Memsys.read m ~core:0 ~addr:(0x100000 + (i * 4096)))
  done;
  let evicted_sharers = sharers m ~addr:0x100000 in
  Alcotest.(check (list int)) "evicted line dropped from directory" [] evicted_sharers

(* A core outside [0, cores) is refused by every access, not read from
   the flat arrays, whose next row is another core's. *)
let test_core_range () =
  let m = make () in
  ignore (Memsys.read m ~core:0 ~addr:0x1000);
  List.iter
    (fun core ->
      let refused name f =
        match f () with
        | _ -> Alcotest.failf "%s accepted core %d" name core
        | exception Invalid_argument _ -> ()
      in
      refused "read" (fun () -> Memsys.read m ~core ~addr:0x1000);
      refused "write" (fun () -> Memsys.write m ~core ~addr:0x1000);
      refused "atomic" (fun () -> Memsys.atomic m ~core ~addr:0x1000);
      refused "read_block" (fun () -> Memsys.read_block m ~core ~addr:0x1000 ~bytes:256);
      refused "home_of (known line)" (fun () -> Memsys.home_of m ~addr:0x1000 ~requester:core);
      refused "home_of (new line)" (fun () -> Memsys.home_of m ~addr:0x7000 ~requester:core))
    [ -1; 32; 33; 64 ];
  Alcotest.(check int) "refused accesses leave no trace" 1
    ((Memsys.stats m).Memsys.l1_misses + (Memsys.stats m).Memsys.l1_hits)

let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* Warm L1 hits and sharer walks allocate nothing; a miss on a line the
   directory already holds allocates only its boxed latency (HEAD before
   the flat arrays: 8 words for a shared read miss, 10 for a write miss
   invalidating two sharers, 8 for a forward, 8 for an upgrade). *)
let test_allocation () =
  let m = make () in
  ignore (Memsys.read m ~core:0 ~addr:0x1000);
  ignore (Memsys.write m ~core:1 ~addr:0x2000);
  let hits =
    minor_words (fun () ->
        for _ = 1 to 1000 do
          ignore (Sys.opaque_identity (Memsys.read m ~core:0 ~addr:0x1000));
          ignore (Sys.opaque_identity (Memsys.write m ~core:1 ~addr:0x2000))
        done)
  in
  Alcotest.(check (float 0.0)) "2000 warm hits" 0.0 hits;
  let slot = Memsys.sharer_slot m ~addr:0x1000 in
  let walks =
    minor_words (fun () ->
        for _ = 1 to 1000 do
          let c = ref (Memsys.next_sharer m slot 0) in
          while !c >= 0 do
            c := Memsys.next_sharer m slot (!c + 1)
          done
        done)
  in
  Alcotest.(check (float 0.0)) "1000 sharer walks" 0.0 walks;
  let boxed = 2.0 (* one boxed float: header and payload *) in
  let miss f = minor_words (fun () -> ignore (Sys.opaque_identity (f ()))) in
  Alcotest.(check (float 0.0)) "shared read miss" boxed
    (miss (fun () -> Memsys.read m ~core:2 ~addr:0x1000));
  Alcotest.(check (float 0.0)) "write miss invalidating two sharers" boxed
    (miss (fun () -> Memsys.write m ~core:3 ~addr:0x1000));
  Alcotest.(check (float 0.0)) "forward" boxed
    (miss (fun () -> Memsys.read m ~core:4 ~addr:0x1000));
  Alcotest.(check (float 0.0)) "upgrade" boxed
    (miss (fun () -> Memsys.write m ~core:4 ~addr:0x1000))

let suite =
  [
    Alcotest.test_case "read then hit" `Quick test_read_then_hit;
    Alcotest.test_case "LLC after first touch" `Quick test_llc_after_first_touch;
    Alcotest.test_case "write invalidates readers" `Quick test_write_invalidates_readers;
    Alcotest.test_case "dirty remote forward" `Quick test_dirty_remote_forward;
    Alcotest.test_case "silent E->M upgrade" `Quick test_exclusive_silent_upgrade;
    Alcotest.test_case "write hit in M" `Quick test_write_hit_m;
    Alcotest.test_case "atomic costs more" `Quick test_atomic_costs_more;
    Alcotest.test_case "read_block overlap" `Quick test_read_block_overlap;
    Alcotest.test_case "distance matters" `Quick test_distance_matters;
    Alcotest.test_case "eviction updates directory" `Quick test_eviction_updates_directory;
    Alcotest.test_case "core range" `Quick test_core_range;
    Alcotest.test_case "hits, walks and misses allocate" `Quick test_allocation;
  ]
