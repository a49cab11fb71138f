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

(* A tracked slot's sharers, walked in place. *)
let slot_sharers t slot =
  let acc = ref [] and c = ref (Vtd.next_sharer t slot 0) in
  while !c >= 0 do
    acc := !c :: !acc;
    c := Vtd.next_sharer t slot (!c + 1)
  done;
  List.rev !acc

(* The sharers a VTE write would shoot down, or [None] when untracked. *)
let write_sharers t ~vte_addr =
  let slot = Vtd.write_slot t ~vte_addr in
  if slot < 0 then None else Some (slot_sharers t slot)

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

(* A core outside [0, cores) is refused, not set in a neighbouring
   slot's sharer word. *)
let test_vtd_core_range () =
  let t = Vtd.create ~cores:8 () in
  Vtd.note_read t ~vte_addr:0x40 ~core:7;
  List.iter
    (fun core ->
      let refused name f =
        match f () with
        | () -> Alcotest.failf "%s accepted core %d" name core
        | exception Invalid_argument _ -> ()
      in
      refused "note_read" (fun () -> Vtd.note_read t ~vte_addr:0x40 ~core);
      refused "note_read (new entry)" (fun () -> Vtd.note_read t ~vte_addr:0x80 ~core);
      refused "drop_core" (fun () -> Vtd.drop_core t ~vte_addr:0x40 ~core))
    [ -1; 8; 61; 62 ];
  Alcotest.(check (option (list int))) "sharers untouched" (Some [ 7 ])
    (write_sharers t ~vte_addr:0x40)

module Vtd_model = Coherence_model.Vtd

type vop =
  | Note_read of int * int (* VTE index, core *)
  | Write_slot of int
  | Note_write of int
  | Drop_core of int * int

let pp_vop = function
  | Note_read (v, c) -> Printf.sprintf "note_read %d %d" v c
  | Write_slot v -> Printf.sprintf "write_slot %d" v
  | Note_write v -> Printf.sprintf "note_write %d" v
  | Drop_core (v, c) -> Printf.sprintf "drop_core %d %d" v c

(* The sharer words against the per-slot set records they replaced, on a
   2-set, 2-way VTD (so registrations evict) and 8, 64 and 256 cores (one,
   two and five words per slot): slots, sharer lists, stats and the live
   count agree after every operation. *)
let prop_vtd_matches_model =
  let gen =
    QCheck.Gen.(
      oneofl [ 8; 64; 256 ] >>= fun cores ->
      let vte = int_bound 9 in
      let core =
        frequency
          [
            (3, int_bound (cores - 1));
            (1, map (fun c -> Int.min (cores - 1) c) (oneofl [ 0; 61; 62; 63; 123; 124 ]));
          ]
      in
      let op =
        frequency
          [
            (5, map2 (fun v c -> Note_read (v, c)) vte core);
            (2, map (fun v -> Write_slot v) vte);
            (2, map (fun v -> Note_write v) vte);
            (1, map2 (fun v c -> Drop_core (v, c)) vte core);
          ]
      in
      map (fun ops -> (cores, ops)) (list_size (int_bound 120) op))
  in
  QCheck.Test.make ~name:"vtd sharer words match the record model" ~count:300
    (QCheck.make
       ~print:(fun (cores, ops) ->
         Printf.sprintf "%d cores: %s" cores (String.concat "; " (List.map pp_vop ops)))
       gen)
    (fun (cores, ops) ->
      let t = Vtd.create ~sets:2 ~ways:2 ~cores () in
      let m = Vtd_model.create ~sets:2 ~ways:2 ~cores in
      let addr v = v * Va.vte_bytes in
      List.for_all
        (fun op ->
          let ok =
            match op with
            | Note_read (v, core) ->
                Vtd.note_read t ~vte_addr:(addr v) ~core;
                Vtd_model.note_read m ~vte_addr:(addr v) ~core;
                true
            | Write_slot v ->
                let slot = Vtd.write_slot t ~vte_addr:(addr v) in
                slot = Vtd_model.write_slot m ~vte_addr:(addr v)
                && (slot < 0 || slot_sharers t slot = Vtd_model.sharers m slot)
            | Note_write v ->
                Vtd.note_write t ~vte_addr:(addr v);
                Vtd_model.note_write m ~vte_addr:(addr v);
                true
            | Drop_core (v, core) ->
                Vtd.drop_core t ~vte_addr:(addr v) ~core;
                Vtd_model.drop_core m ~vte_addr:(addr v) ~core;
                true
          in
          (ok || QCheck.Test.fail_reportf "%s differs" (pp_vop op))
          && (Vtd.stats t = m.Vtd_model.stats && Vtd.tracked t = Vtd_model.tracked m
             || QCheck.Test.fail_reportf "stats differ after %s" (pp_vop op)))
        ops)

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
    Alcotest.test_case "vtd core range" `Quick test_vtd_core_range;
    QCheck_alcotest.to_alcotest prop_vtd_matches_model;
  ]
