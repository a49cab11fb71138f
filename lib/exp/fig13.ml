module Variant = Jord_faas.Variant
module Server = Jord_faas.Server
module R = Jord_metrics.Recorder

type result = {
  slo_us : float;
  jord : (float * float) list;
  jord_bt : (float * float) list;
  jord_tput : float;
  bt_tput : float;
  jord_walk_ns : float;
  bt_walk_ns : float;
  jord_vma_mgmt_ns_per_req : float;
  bt_vma_mgmt_ns_per_req : float;
  bt_rebalances : int;
}

let mean_walk server =
  let hw = Server.hw server in
  let n = Jord_vm.Hw.walk_count hw in
  if n = 0 then 0.0 else Jord_vm.Hw.walk_ns_total hw /. float_of_int n

let vma_mgmt_per_req server =
  let priv = Server.privlib server in
  let n = Server.completed_roots server in
  if n = 0 then 0.0
  else
    Jord_privlib.Privlib.time_in priv Jord_privlib.Privlib.Vma_mgmt /. float_of_int n

let run ?(quick = false) () =
  let spec = Exp_common.hipster in
  let spec = if quick then Exp_common.scale 0.4 spec else spec in
  let slo_us = Exp_common.slo_us spec in
  let sweep variant =
    List.map
      (fun (rate, recorder) -> (rate, R.p99_us recorder))
      (Exp_common.sweep spec ~config:(Exp_common.config_for variant))
  in
  let jord = sweep Variant.Jord in
  let jord_bt = sweep Variant.Jord_bt in
  let best pts =
    List.fold_left
      (fun best (rate, p99) -> if p99 <= slo_us && rate > best then rate else best)
      0.0 pts
  in
  (* Mechanism probes at a common moderate load. *)
  let probe variant =
    Exp_common.run_point spec ~config:(Exp_common.config_for variant) ~rate_mrps:4.0
  in
  let jord_srv, _ = probe Variant.Jord in
  let bt_srv, _ = probe Variant.Jord_bt in
  let bt_rebalances =
    match Jord_vm.Vma_store.backend (Jord_vm.Hw.store (Server.hw bt_srv)) with
    | Jord_vm.Vma_store.Btree b -> Jord_vm.Vma_btree.rebalance_ops b
    | Jord_vm.Vma_store.Plain _ -> 0
  in
  {
    slo_us;
    jord;
    jord_bt;
    jord_tput = best jord;
    bt_tput = best jord_bt;
    jord_walk_ns = mean_walk jord_srv;
    bt_walk_ns = mean_walk bt_srv;
    jord_vma_mgmt_ns_per_req = vma_mgmt_per_req jord_srv;
    bt_vma_mgmt_ns_per_req = vma_mgmt_per_req bt_srv;
    bt_rebalances;
  }

let report ?quick () =
  let r = run ?quick () in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Jord_util.Render.series
       ~title:
         (Printf.sprintf "Figure 13 [Hipster]: Jord vs Jord_BT (SLO = %.1f us)" r.slo_us)
       ~x_label:"load_mrps" ~y_label:"p99_us"
       [ ("Jord", r.jord); ("Jord_BT", r.jord_bt) ]);
  Buffer.add_string buf
    (Jord_util.Render.table ~title:"Figure 13 mechanisms"
       ~header:[ "Metric"; "Jord"; "Jord_BT"; "BT/Jord" ]
       ~rows:
         [
           [
             "tput under SLO (MRPS)";
             Jord_util.Render.f2 r.jord_tput;
             Jord_util.Render.f2 r.bt_tput;
             (if r.jord_tput > 0.0 then Jord_util.Render.f2 (r.bt_tput /. r.jord_tput)
              else "-");
           ];
           [
             "VLB-miss penalty (ns)";
             Jord_util.Render.f1 r.jord_walk_ns;
             Jord_util.Render.f1 r.bt_walk_ns;
             (if r.jord_walk_ns > 0.0 then
                Jord_util.Render.f2 (r.bt_walk_ns /. r.jord_walk_ns)
              else "-");
           ];
           [
             "PrivLib VMA mgmt (ns/req)";
             Jord_util.Render.f1 r.jord_vma_mgmt_ns_per_req;
             Jord_util.Render.f1 r.bt_vma_mgmt_ns_per_req;
             (if r.jord_vma_mgmt_ns_per_req > 0.0 then
                Jord_util.Render.f2
                  (r.bt_vma_mgmt_ns_per_req /. r.jord_vma_mgmt_ns_per_req)
              else "-");
           ];
           [ "B-tree rebalances"; "-"; string_of_int r.bt_rebalances; "-" ];
         ]
       ());
  Buffer.contents buf
