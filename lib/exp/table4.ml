module Vm = Jord_vm
module Pl = Jord_privlib.Privlib

type row = {
  op : string;
  sim_ns : float;
  fpga_ns : float;
  paper_sim_ns : float;
  paper_fpga_ns : float;
}

type bench_env = { hw : Vm.Hw.t; priv : Pl.t; core : int }

(* The benchmarks cycle over pools large enough that VTE and PD-config
   lines spill out of the 32 KB L1D into the LLC, matching the paper's
   measurement conditions (a live system touches far more than one VMA). *)
let vma_pool = 2048
let pd_pool = 1024

let make_env profile =
  let machine =
    match profile with
    | `Sim -> Jord_arch.Config.default
    | `Fpga -> Jord_arch.Config.fpga
  in
  let topo = Jord_arch.Topology.create machine in
  let memsys = Jord_arch.Memsys.create topo in
  let va_cfg = Vm.Va.default_config in
  let store = Vm.Vma_store.plain va_cfg in
  let hw = Vm.Hw.create ~memsys ~store ~va_cfg () in
  let os = Jord_privlib.Os_facade.create () in
  let priv = Pl.create ~hw ~os in
  { hw; priv; core = 0 }

let collect ~iters ~warm f =
  let sum = ref 0.0 and n = ref 0 in
  for i = 0 to iters - 1 do
    let v = f i in
    if i >= warm then begin
      sum := !sum +. v;
      incr n
    end
  done;
  if !n = 0 then 0.0 else !sum /. float_of_int !n

(* The VLB-miss walk whose VTE hits the L1D: translate, then invalidate the
   VLB entry (not the cache line) and translate again — the paper's 2 ns
   common case. *)
let vma_lookup env ~iters ~warm =
  let va, _ = Pl.mmap env.priv ~core:env.core ~bytes:4096 ~perm:Vm.Perm.rw () in
  let mmu = Vm.Hw.mmu env.hw ~core:env.core in
  let tag = Vm.Va.vte_addr_of_va (Vm.Hw.va_cfg env.hw) va in
  let lat =
    collect ~iters ~warm (fun _ ->
        ignore (Vm.Vlb.invalidate_vte (Vm.Mmu.d_vlb mmu) ~vte_addr:tag);
        Vm.Hw.translate env.hw ~core:env.core ~va ~access:Vm.Perm.Read ~kind:`Data)
  in
  ignore (Pl.munmap env.priv ~core:env.core ~va);
  lat

(* FIFO pool churn: every iteration maps a fresh VMA and unmaps the oldest,
   keeping [vma_pool] live. [measure] picks which half to report. *)
let vma_churn env ~iters ~warm ~measure =
  let q = Queue.create () in
  for _ = 1 to vma_pool do
    let va, _ = Pl.mmap env.priv ~core:env.core ~bytes:4096 ~perm:Vm.Perm.rw () in
    Queue.push va q
  done;
  let lat =
    collect ~iters ~warm (fun _ ->
        let va, ins = Pl.mmap env.priv ~core:env.core ~bytes:4096 ~perm:Vm.Perm.rw () in
        Queue.push va q;
        let oldest = Queue.pop q in
        let del = Pl.munmap env.priv ~core:env.core ~va:oldest in
        match measure with `Insert -> ins | `Delete -> del)
  in
  Queue.iter (fun va -> ignore (Pl.munmap env.priv ~core:env.core ~va)) q;
  lat

let vma_insertion env ~iters ~warm = vma_churn env ~iters ~warm ~measure:`Insert
let vma_deletion env ~iters ~warm = vma_churn env ~iters ~warm ~measure:`Delete

let vma_update env ~iters ~warm =
  let pool =
    Array.init vma_pool (fun _ ->
        fst (Pl.mmap env.priv ~core:env.core ~bytes:4096 ~perm:Vm.Perm.rw ()))
  in
  let lat =
    collect ~iters ~warm (fun i ->
        let va = pool.(i mod vma_pool) in
        let perm = if i land 1 = 0 then Vm.Perm.r else Vm.Perm.rw in
        Pl.mprotect env.priv ~core:env.core ~va ~perm ())
  in
  Array.iter (fun va -> ignore (Pl.munmap env.priv ~core:env.core ~va)) pool;
  lat

let pd_churn env ~iters ~warm ~measure =
  let q = Queue.create () in
  for _ = 1 to pd_pool do
    Queue.push (fst (Pl.cget env.priv ~core:env.core)) q
  done;
  let lat =
    collect ~iters ~warm (fun _ ->
        let pd, crt = Pl.cget env.priv ~core:env.core in
        Queue.push pd q;
        let oldest = Queue.pop q in
        let del = Pl.cput env.priv ~core:env.core ~pd:oldest in
        match measure with `Create -> crt | `Delete -> del)
  in
  Queue.iter (fun pd -> ignore (Pl.cput env.priv ~core:env.core ~pd)) q;
  lat

let pd_creation env ~iters ~warm = pd_churn env ~iters ~warm ~measure:`Create
let pd_deletion env ~iters ~warm = pd_churn env ~iters ~warm ~measure:`Delete

let pd_switching env ~iters ~warm =
  let pool =
    Array.init pd_pool (fun _ -> fst (Pl.cget env.priv ~core:env.core))
  in
  let lat =
    collect ~iters ~warm (fun i ->
        let pd = pool.(i mod pd_pool) in
        let l = Pl.ccall env.priv ~core:env.core ~pd in
        ignore (Pl.creturn env.priv ~core:env.core);
        l)
  in
  Array.iter (fun pd -> ignore (Pl.cput env.priv ~core:env.core ~pd)) pool;
  lat

let ops =
  [
    ("VMA lookup", vma_lookup, 2.0, 2.0);
    ("VMA update", vma_update, 16.0, 33.0);
    ("VMA insertion", vma_insertion, 16.0, 37.0);
    ("VMA deletion", vma_deletion, 27.0, 39.0);
    ("PD creation", pd_creation, 11.0, 25.0);
    ("PD deletion", pd_deletion, 14.0, 30.0);
    ("PD switching", pd_switching, 12.0, 22.0);
  ]

let rows ?(iters = 4000) () =
  let warm = Int.max 1 (iters / 10) in
  let sim = make_env `Sim and fpga = make_env `Fpga in
  List.map
    (fun (op, f, paper_sim_ns, paper_fpga_ns) ->
      {
        op;
        sim_ns = f sim ~iters ~warm;
        fpga_ns = f fpga ~iters ~warm;
        paper_sim_ns;
        paper_fpga_ns;
      })
    ops

let report ?iters () =
  let rs = rows ?iters () in
  Jord_util.Render.table
    ~title:"Table 4: VMA and PD operation latencies (ns)"
    ~header:[ "Operation"; "Simulator"; "FPGA"; "paper(Sim)"; "paper(FPGA)" ]
    ~rows:
      (List.map
         (fun r ->
           [
             r.op;
             Jord_util.Render.f1 r.sim_ns;
             Jord_util.Render.f1 r.fpga_ns;
             Jord_util.Render.f1 r.paper_sim_ns;
             Jord_util.Render.f1 r.paper_fpga_ns;
           ])
         rs)
    ()
