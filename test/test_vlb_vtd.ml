open Jord_vm

let mk_vte base = Vte.create ~base ~bytes:4096 ~phys:0x100000 ()

let test_vlb_hit_miss () =
  let v = Vlb.create ~entries:4 in
  Alcotest.(check int) "cold miss" (-1) (Vlb.lookup v ~va:0x1000);
  let vte = mk_vte 0x1000 in
  Vlb.fill v ~vte_addr:0xAA vte;
  let slot = Vlb.lookup v ~va:0x1FFF in
  Alcotest.(check bool) "range hit" true (slot >= 0 && Vlb.vte v slot == vte);
  Alcotest.(check int) "past range" (-1) (Vlb.lookup v ~va:0x2000);
  let stats = Vlb.stats v in
  Alcotest.(check int) "hits" 1 stats.Vlb.hits;
  Alcotest.(check int) "misses" 2 stats.Vlb.misses

let test_vlb_lru () =
  let v = Vlb.create ~entries:2 in
  Vlb.fill v ~vte_addr:1 (mk_vte 0x10000);
  Vlb.fill v ~vte_addr:2 (mk_vte 0x20000);
  ignore (Vlb.lookup v ~va:0x10000 : int);
  (* Filling a third entry evicts vte 2 (LRU). *)
  Vlb.fill v ~vte_addr:3 (mk_vte 0x30000);
  Alcotest.(check bool) "1 survives" true (Vlb.contains_vte v ~vte_addr:1);
  Alcotest.(check bool) "2 evicted" false (Vlb.contains_vte v ~vte_addr:2);
  Alcotest.(check int) "occupancy" 2 (Vlb.occupancy v)

let test_vlb_shootdown_by_tag () =
  let v = Vlb.create ~entries:4 in
  Vlb.fill v ~vte_addr:0xBEEF (mk_vte 0x5000);
  Alcotest.(check bool) "invalidate hit" true (Vlb.invalidate_vte v ~vte_addr:0xBEEF);
  Alcotest.(check int) "now absent" (-1) (Vlb.lookup v ~va:0x5000);
  Alcotest.(check bool) "second invalidate misses" false
    (Vlb.invalidate_vte v ~vte_addr:0xBEEF);
  Alcotest.(check int) "shootdown counted" 1 (Vlb.stats v).Vlb.shootdowns

let test_vlb_refill_in_place () =
  let v = Vlb.create ~entries:2 in
  Vlb.fill v ~vte_addr:7 (mk_vte 0x1000);
  Vlb.fill v ~vte_addr:7 (mk_vte 0x1000);
  Alcotest.(check int) "no duplicate" 1 (Vlb.occupancy v)

(* The sharers a VTE write would shoot down, or [None] when untracked. *)
let write_sharers t ~vte_addr =
  let slot = Vtd.write_slot t ~vte_addr in
  if slot < 0 then None else Some (Jord_util.Bitset.to_list (Vtd.sharers t slot))

let test_vtd_tracking () =
  let t = Vtd.create ~cores:8 () in
  Vtd.note_read t ~vte_addr:0x40 ~core:1;
  Vtd.note_read t ~vte_addr:0x40 ~core:5;
  Alcotest.(check (option (list int)))
    "sharers" (Some [ 1; 5 ]) (write_sharers t ~vte_addr:0x40);
  Vtd.note_write t ~vte_addr:0x40;
  Alcotest.(check (option (list int))) "cleared after write" None
    (write_sharers t ~vte_addr:0x40)

let test_vtd_eviction_fallback () =
  (* A tiny VTD: overflowing a set evicts an entry, whose next write must
     find no slot (directory fallback, paper's victim-cache case). *)
  let t = Vtd.create ~sets:1 ~ways:2 ~cores:4 () in
  Vtd.note_read t ~vte_addr:(0 * 64) ~core:0;
  Vtd.note_read t ~vte_addr:(1 * 64) ~core:1;
  Vtd.note_read t ~vte_addr:(2 * 64) ~core:2;
  Alcotest.(check int) "evictions" 1 (Vtd.stats t).Vtd.evictions;
  Alcotest.(check int) "LRU victim is untracked" (-1) (Vtd.write_slot t ~vte_addr:0);
  Alcotest.(check int) "fallback counted" 1 (Vtd.stats t).Vtd.fallback_shootdowns

let test_vtd_drop_core () =
  let t = Vtd.create ~cores:4 () in
  Vtd.note_read t ~vte_addr:0x80 ~core:2;
  Vtd.note_read t ~vte_addr:0x80 ~core:3;
  Vtd.drop_core t ~vte_addr:0x80 ~core:2;
  Alcotest.(check (option (list int))) "one left" (Some [ 3 ]) (write_sharers t ~vte_addr:0x80)

let prop_vlb_never_exceeds_capacity =
  QCheck.Test.make ~name:"VLB occupancy never exceeds capacity"
    QCheck.(list (int_bound 50))
    (fun fills ->
      let v = Vlb.create ~entries:4 in
      List.iteri
        (fun i tag -> Vlb.fill v ~vte_addr:tag (mk_vte (0x1000 * (i + 1))))
        fills;
      Vlb.occupancy v <= 4)

let suite =
  [
    Alcotest.test_case "vlb hit/miss" `Quick test_vlb_hit_miss;
    Alcotest.test_case "vlb lru" `Quick test_vlb_lru;
    Alcotest.test_case "vlb shootdown by tag" `Quick test_vlb_shootdown_by_tag;
    Alcotest.test_case "vlb refill in place" `Quick test_vlb_refill_in_place;
    Alcotest.test_case "vtd tracking" `Quick test_vtd_tracking;
    Alcotest.test_case "vtd eviction fallback" `Quick test_vtd_eviction_fallback;
    Alcotest.test_case "vtd drop core" `Quick test_vtd_drop_core;
    QCheck_alcotest.to_alcotest prop_vlb_never_exceeds_capacity;
  ]
