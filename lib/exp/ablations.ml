module Server = Jord_faas.Server
module R = Jord_metrics.Recorder

type row = { label : string; tput_mrps : float; p99_us : float; mean_us : float }

(* Hipster near (but below) saturation stresses dispatch and queueing. *)
let rate = 9.0

let run_one ?(quick = false) ~label config =
  let duration_us = if quick then 1500.0 else 4000.0 in
  match
    Jord_workloads.Loadgen.run ~warmup:500 ~app:Jord_workloads.Hipster.app ~config
      ~rate_mrps:rate ~duration_us ()
  with
  | _, recorder ->
      {
        label;
        tput_mrps = R.throughput_mrps recorder;
        p99_us = R.p99_us recorder;
        mean_us = R.mean_us recorder;
      }
  | exception Jord_vm.Fault.Fault f ->
      (* e.g. PD exhaustion when the deadlock-avoidance rule is disabled:
         suspended continuations pile up without bound. *)
      {
        label = label ^ "  [" ^ Jord_vm.Fault.to_string f ^ "]";
        tput_mrps = 0.0;
        p99_us = Float.infinity;
        mean_us = Float.infinity;
      }

let base = Server.default_config

let dispatch_policies ?quick () =
  List.map
    (fun policy ->
      run_one ?quick
        ~label:(Jord_faas.Policy.name policy)
        { base with Server.policy })
    [ Jord_faas.Policy.Jbsq; Jord_faas.Policy.Random; Jord_faas.Policy.Round_robin ]

let orchestrator_counts ?quick () =
  List.map
    (fun n ->
      run_one ?quick
        ~label:(Printf.sprintf "%d orchestrator%s" n (if n = 1 then "" else "s"))
        { base with Server.orchestrators = n })
    [ 1; 2; 4; 8 ]

let queue_bounds ?quick () =
  List.map
    (fun b ->
      run_one ?quick ~label:(Printf.sprintf "bound %d" b)
        { base with Server.queue_capacity = b })
    [ 1; 2; 4; 8; 16 ]

let internal_priority ?quick () =
  List.map
    (fun on ->
      run_one ?quick
        ~label:(if on then "internal-first (paper)" else "external-first")
        { base with Server.internal_priority = on })
    [ true; false ]

(* --- Hardware-mechanism ablations --- *)

(* VTE sub-array: permission checks are free while a VMA has at most 20
   sharer PDs (the hardware sub-array); beyond that, every check chases the
   overflow pointer — one extra memory access per translation. *)
let sub_array_overflow () =
  let module Vm = Jord_vm in
  let memsys =
    Jord_arch.Memsys.create (Jord_arch.Topology.create Jord_arch.Config.default)
  in
  let hw =
    Vm.Hw.create ~memsys ~store:(Vm.Vma_store.plain Vm.Va.default_config)
      ~va_cfg:Vm.Va.default_config ()
  in
  List.map
    (fun sharers ->
      let sc = Vm.Size_class.of_size 4096 in
      let base = Vm.Va.encode Vm.Va.default_config sc ~index:(sharers + 1) ~offset:0 in
      let vte = Vm.Vte.create ~base ~bytes:4096 ~phys:(0x700000 + (sharers * 8192)) () in
      for pd = 1 to sharers do
        Vm.Vte.set_perm vte ~pd Vm.Perm.rw
      done;
      Vm.Vma_store.insert (Vm.Hw.store hw) vte;
      let mmu = Vm.Hw.mmu hw ~core:0 in
      (* Measure a warm translate as the LAST-added PD (worst position). *)
      Vm.Mmu.set_ucid mmu sharers;
      ignore (Vm.Hw.translate hw ~core:0 ~va:base ~access:Vm.Perm.Read ~kind:`Data);
      let acc = ref 0.0 in
      let n = 200 in
      for _ = 1 to n do
        acc := !acc +. Vm.Hw.translate hw ~core:0 ~va:base ~access:Vm.Perm.Read ~kind:`Data
      done;
      Vm.Mmu.set_ucid mmu 0;
      (sharers, !acc /. float_of_int n))
    [ 1; 10; 20; 21; 40; 100 ]

(* VTD capacity: with a tiny VTD, entries evict under VTE working-set
   pressure and shootdowns fall back on the coherence directory — the
   pessimistic victim-cache mode of paper 4.2. Measured as the share of
   shootdowns that lost VTD tracking, per VTD size and live-VTE count. *)
let vtd_fallback ~sets ~live_vtes =
  let module Vm = Jord_vm in
  let vtd = Vm.Vtd.create ~sets ~ways:8 ~cores:32 () in
  for i = 0 to live_vtes - 1 do
    Vm.Vtd.note_read vtd ~vte_addr:(i * 64) ~core:(i mod 32)
  done;
  let fallback = ref 0 in
  for i = 0 to live_vtes - 1 do
    if Vm.Vtd.write_slot vtd ~vte_addr:(i * 64) < 0 then incr fallback
  done;
  float_of_int !fallback /. float_of_int live_vtes

let table title rows =
  Jord_util.Render.table ~title
    ~header:[ "Config"; "tput (MRPS)"; "mean (us)"; "p99 (us)" ]
    ~rows:
      (List.map
         (fun r ->
           [
             r.label;
             Jord_util.Render.f2 r.tput_mrps;
             Jord_util.Render.f2 r.mean_us;
             Jord_util.Render.f2 r.p99_us;
           ])
         rows)
    ()

let sub_array_table () =
  Jord_util.Render.table
    ~title:
      "Ablation: VTE sub-array (20 hardware slots) -- warm translate latency\n\
       for the last-added sharer PD; past 20 sharers every check chases the\n\
       overflow pointer"
    ~header:[ "sharer PDs"; "translate (ns)" ]
    ~rows:
      (List.map
         (fun (n, ns) -> [ string_of_int n; Jord_util.Render.f2 ns ])
         (sub_array_overflow ()))
    ()

let vtd_table () =
  Jord_util.Render.table
    ~title:
      "Ablation: VTD capacity -- share of shootdowns falling back on the\n\
       coherence directory (victim-cache mode) as live VMAs outgrow the VTD"
    ~header:[ "VTD entries"; "live VMAs"; "fallback share" ]
    ~rows:
      (List.concat_map
         (fun (sets, ways) ->
           List.map
             (fun live ->
               [
                 string_of_int (sets * ways);
                 string_of_int live;
                 Printf.sprintf "%.0f%%" (100.0 *. vtd_fallback ~sets ~live_vtes:live);
               ])
             [ 256; 1024; 8192 ])
         [ (16, 8); (512, 8) ])
    ()

let report ?quick () =
  String.concat "\n"
    [
      table
        (Printf.sprintf "Ablation: dispatch policy (Hipster @ %.0f MRPS)" rate)
        (dispatch_policies ?quick ());
      table "Ablation: orchestrator count (32 cores)" (orchestrator_counts ?quick ());
      table "Ablation: JBSQ queue bound" (queue_bounds ?quick ());
      table "Ablation: internal-queue priority (deadlock avoidance)"
        (internal_priority ?quick ());
      sub_array_table ();
      vtd_table ();
    ]
