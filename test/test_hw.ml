open Jord_vm

let cfg = Va.default_config

let make_hw () =
  let topo = Jord_arch.Topology.create Jord_arch.Config.default in
  let memsys = Jord_arch.Memsys.create topo in
  let store = Vma_store.plain cfg in
  Hw.create ~memsys ~store ~va_cfg:cfg ()

(* Install a VMA directly in the store with the given per-PD permission. *)
let install hw ~index ~bytes ?(privileged = false) ?(global_perm = None) perms =
  let sc = Size_class.of_size bytes in
  let base = Va.encode cfg sc ~index ~offset:0 in
  let vte =
    Vte.create ~base ~bytes ~phys:(0x200000 + (index * 65536)) ~privileged ~global_perm ()
  in
  List.iter (fun (pd, p) -> Vte.set_perm vte ~pd p) perms;
  Vma_store.insert (Hw.store hw) vte;
  base

let test_translate_hit_after_walk () =
  let hw = make_hw () in
  let va = install hw ~index:1 ~bytes:4096 [ (0, Perm.rw) ] in
  let l1 = Hw.translate hw ~core:0 ~va ~access:Perm.Read ~kind:`Data in
  Alcotest.(check bool) "walk costs time" true (l1 > 0.0);
  let l2 = Hw.translate hw ~core:0 ~va ~access:Perm.Read ~kind:`Data in
  Alcotest.(check (float 1e-9)) "VLB hit is free" 0.0 l2;
  Alcotest.(check int) "one walk" 1 (Hw.walk_count hw)

let test_unmapped_faults () =
  let hw = make_hw () in
  let sc = Size_class.of_size 4096 in
  let va = Va.encode cfg sc ~index:999 ~offset:0 in
  (match Hw.translate hw ~core:0 ~va ~access:Perm.Read ~kind:`Data with
  | exception Fault.Fault (Fault.Unmapped _) -> ()
  | _ -> Alcotest.fail "expected unmapped fault");
  match Hw.translate hw ~core:0 ~va:0x42 ~access:Perm.Read ~kind:`Data with
  | exception Fault.Fault (Fault.Unmapped _) -> ()
  | _ -> Alcotest.fail "expected fault on non-jord VA"

let test_permission_fault () =
  let hw = make_hw () in
  let va = install hw ~index:2 ~bytes:4096 [ (0, Perm.r); (3, Perm.rw) ] in
  (* PD 0 can read but not write. *)
  ignore (Hw.translate hw ~core:0 ~va ~access:Perm.Read ~kind:`Data);
  (match Hw.translate hw ~core:0 ~va ~access:Perm.Write ~kind:`Data with
  | exception Fault.Fault (Fault.Permission { pd = 0; _ }) -> ()
  | _ -> Alcotest.fail "expected permission fault");
  (* Switching ucid to PD 3 makes the write legal. *)
  Mmu.set_ucid (Hw.mmu hw ~core:0) 3;
  ignore (Hw.translate hw ~core:0 ~va ~access:Perm.Write ~kind:`Data);
  Mmu.set_ucid (Hw.mmu hw ~core:0) 0

let test_privileged_fault_and_gate () =
  let hw = make_hw () in
  let va =
    install hw ~index:3 ~bytes:4096 ~privileged:true ~global_perm:(Some Perm.rw) []
  in
  let mmu = Hw.mmu hw ~core:0 in
  (match Hw.translate hw ~core:0 ~va ~access:Perm.Read ~kind:`Data with
  | exception Fault.Fault (Fault.Privileged_access _) -> ()
  | _ -> Alcotest.fail "expected privileged-access fault");
  (* Entering privileged mode not at a uatg gate is a CFI violation. *)
  (match Mmu.enter_privileged mmu ~at_gate:false with
  | exception Fault.Fault (Fault.Gate_violation _) -> ()
  | _ -> Alcotest.fail "expected gate violation");
  (* Through the gate, the access is legal. *)
  Mmu.enter_privileged mmu ~at_gate:true;
  ignore (Hw.translate hw ~core:0 ~va ~access:Perm.Read ~kind:`Data);
  Mmu.exit_privileged mmu

let test_csr_protection () =
  let hw = make_hw () in
  let mmu = Hw.mmu hw ~core:0 in
  (match Mmu.write_ucid mmu 5 with
  | exception Fault.Fault (Fault.Privileged_access _) -> ()
  | _ -> Alcotest.fail "ucid write requires the P bit");
  Mmu.enter_privileged mmu ~at_gate:true;
  Mmu.write_ucid mmu 5;
  Alcotest.(check int) "ucid updated" 5 (Mmu.ucid mmu);
  Mmu.exit_privileged mmu;
  Mmu.set_ucid mmu 0

let test_shootdown_invalidates_remote_vlb () =
  let hw = make_hw () in
  let va = install hw ~index:4 ~bytes:4096 ~global_perm:(Some Perm.rw) [] in
  (* Cores 0 and 9 both cache the translation. *)
  ignore (Hw.translate hw ~core:0 ~va ~access:Perm.Read ~kind:`Data);
  ignore (Hw.translate hw ~core:9 ~va ~access:Perm.Read ~kind:`Data);
  let ns = Hw.shootdown hw ~core:0 ~va in
  Alcotest.(check bool) "remote invalidation has latency" true (ns > 0.0);
  (* Core 9 must re-walk now. *)
  let lat = Hw.translate hw ~core:9 ~va ~access:Perm.Read ~kind:`Data in
  Alcotest.(check bool) "core 9 re-walks" true (lat > 0.0);
  Alcotest.(check int) "two shootdown events recorded" 1 (Hw.shootdown_count hw)

let test_shootdown_local_only_is_free () =
  let hw = make_hw () in
  let va = install hw ~index:5 ~bytes:4096 [ (0, Perm.rw) ] in
  ignore (Hw.translate hw ~core:0 ~va ~access:Perm.Read ~kind:`Data);
  let ns = Hw.shootdown hw ~core:0 ~va in
  Alcotest.(check (float 1e-9)) "local invalidation free" 0.0 ns

(* A shootdown walks its sharer set in place, on the tracked path and on
   the directory fallback alike: it allocates at most one boxed latency per
   remote sharer whose VLB held the translation, plus its result, and no
   closure, record or set. *)
let test_shootdown_allocation () =
  let hw = make_hw () in
  let va = install hw ~index:7 ~bytes:4096 ~global_perm:(Some Perm.rw) [] in
  let sharers = [ 0; 3; 9; 17; 30; 31 ] in
  let warm () =
    List.iter
      (fun core -> ignore (Hw.translate hw ~core ~va ~access:Perm.Read ~kind:`Data))
      sharers
  in
  let words () =
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (Hw.shootdown hw ~core:0 ~va));
    Gc.minor_words () -. before
  in
  let bound = float_of_int ((2 * (List.length sharers - 1)) + 2) in
  warm ();
  let tracked = words () in
  Alcotest.(check bool) (Printf.sprintf "tracked: %.0f words" tracked) true (tracked <= bound);
  warm ();
  let tag = Va.vte_addr_at cfg (Va.vte_index_of_va cfg va) in
  Vtd.note_write (Hw.vtd hw) ~vte_addr:tag;
  let fallback = words () in
  Alcotest.(check bool) (Printf.sprintf "fallback: %.0f words" fallback) true (fallback <= bound);
  let stats = Vtd.stats (Hw.vtd hw) in
  Alcotest.(check (pair int int)) "one shootdown down each path" (1, 1)
    (stats.Vtd.tracked_shootdowns, stats.Vtd.fallback_shootdowns);
  List.iter
    (fun core ->
      Alcotest.(check bool) (Printf.sprintf "core %d re-walks" core) true
        (Hw.translate hw ~core ~va ~access:Perm.Read ~kind:`Data > 0.0))
    sharers

let test_overflow_chase_charged () =
  let hw = make_hw () in
  let sc = Size_class.of_size 4096 in
  let base = Va.encode cfg sc ~index:6 ~offset:0 in
  let vte = Vte.create ~base ~bytes:4096 ~phys:0x400000 () in
  for pd = 1 to 24 do
    Vte.set_perm vte ~pd Perm.r
  done;
  Vma_store.insert (Hw.store hw) vte;
  let mmu = Hw.mmu hw ~core:0 in
  (* PD 24 lives in the overflow list: the check costs an extra access even
     on a VLB hit. *)
  Mmu.set_ucid mmu 24;
  ignore (Hw.translate hw ~core:0 ~va:base ~access:Perm.Read ~kind:`Data);
  let lat = Hw.translate hw ~core:0 ~va:base ~access:Perm.Read ~kind:`Data in
  Alcotest.(check bool) "overflow chase on hit" true (lat > 0.0);
  Mmu.set_ucid mmu 1;
  let lat2 = Hw.translate hw ~core:0 ~va:base ~access:Perm.Read ~kind:`Data in
  Alcotest.(check (float 1e-9)) "sub-array hit free" 0.0 lat2;
  Mmu.set_ucid mmu 0

let test_access_charges_data () =
  let hw = make_hw () in
  let va = install hw ~index:7 ~bytes:4096 [ (0, Perm.rw) ] in
  let w = Hw.access hw ~core:0 ~va ~access:Perm.Write ~kind:`Data ~bytes:64 in
  Alcotest.(check bool) "write charged" true (w > 0.0);
  let r = Hw.access hw ~core:0 ~va ~access:Perm.Read ~kind:`Data ~bytes:512 in
  Alcotest.(check bool) "block read charged" true (r > 0.0)

let test_btree_walk_costs_more () =
  let topo = Jord_arch.Topology.create Jord_arch.Config.default in
  let mk store =
    let memsys = Jord_arch.Memsys.create topo in
    Hw.create ~memsys ~store ~va_cfg:cfg ()
  in
  let plain_hw = mk (Vma_store.plain cfg) in
  let bt_hw = mk (Vma_store.btree ()) in
  let walk hw =
    (* Populate a few dozen VMAs, then measure a warm walk. *)
    let base = ref 0 in
    for index = 0 to 63 do
      let sc = Size_class.of_size 4096 in
      let b = Va.encode cfg sc ~index ~offset:0 in
      let vte = Vte.create ~base:b ~bytes:4096 ~phys:(0x500000 + (index * 4096)) ~global_perm:(Some Perm.rw) () in
      Vma_store.insert (Hw.store hw) vte;
      if index = 32 then base := b
    done;
    ignore (Hw.translate hw ~core:0 ~va:!base ~access:Perm.Read ~kind:`Data);
    ignore (Vlb.invalidate_vte (Mmu.d_vlb (Hw.mmu hw ~core:0)) ~vte_addr:(Va.vte_addr_of_va cfg !base));
    let lat = Hw.translate hw ~core:0 ~va:!base ~access:Perm.Read ~kind:`Data in
    lat
  in
  let pl = walk plain_hw and bt = walk bt_hw in
  Alcotest.(check bool)
    (Printf.sprintf "b-tree walk (%.1f ns) > plain walk (%.1f ns)" bt pl)
    true (bt > pl)

let suite =
  [
    Alcotest.test_case "translate: walk then hit" `Quick test_translate_hit_after_walk;
    Alcotest.test_case "unmapped faults" `Quick test_unmapped_faults;
    Alcotest.test_case "permission fault per PD" `Quick test_permission_fault;
    Alcotest.test_case "privileged VMA and gate CFI" `Quick test_privileged_fault_and_gate;
    Alcotest.test_case "CSR protection" `Quick test_csr_protection;
    Alcotest.test_case "shootdown invalidates remote VLB" `Quick
      test_shootdown_invalidates_remote_vlb;
    Alcotest.test_case "local shootdown free" `Quick test_shootdown_local_only_is_free;
    Alcotest.test_case "shootdown walks allocate no set" `Quick test_shootdown_allocation;
    Alcotest.test_case "overflow pointer chase" `Quick test_overflow_chase_charged;
    Alcotest.test_case "access charges data" `Quick test_access_charges_data;
    Alcotest.test_case "b-tree walk dearer than plain" `Quick test_btree_walk_costs_more;
  ]
