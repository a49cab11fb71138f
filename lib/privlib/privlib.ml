module Vm = Jord_vm

type category = Vma_mgmt | Pd_mgmt

type op =
  | Op_mmap
  | Op_munmap
  | Op_mprotect
  | Op_pmove
  | Op_pcopy
  | Op_cget
  | Op_cput
  | Op_ccall
  | Op_creturn
  | Op_cexit
  | Op_center

let all_ops =
  [
    Op_mmap; Op_munmap; Op_mprotect; Op_pmove; Op_pcopy; Op_cget; Op_cput;
    Op_ccall; Op_creturn; Op_cexit; Op_center;
  ]

let op_index = function
  | Op_mmap -> 0
  | Op_munmap -> 1
  | Op_mprotect -> 2
  | Op_pmove -> 3
  | Op_pcopy -> 4
  | Op_cget -> 5
  | Op_cput -> 6
  | Op_ccall -> 7
  | Op_creturn -> 8
  | Op_cexit -> 9
  | Op_center -> 10

let op_name = function
  | Op_mmap -> "mmap"
  | Op_munmap -> "munmap"
  | Op_mprotect -> "mprotect"
  | Op_pmove -> "pmove"
  | Op_pcopy -> "pcopy"
  | Op_cget -> "cget"
  | Op_cput -> "cput"
  | Op_ccall -> "ccall"
  | Op_creturn -> "creturn"
  | Op_cexit -> "cexit"
  | Op_center -> "center"

let n_ops = List.length all_ops

type cost = { mutable lookup_ns : float } (* all-float: stored unboxed *)

type t = {
  hw : Vm.Hw.t;
  os : Os_facade.t;
  fl : Free_list.t;
  pds : Pd.t;
  mutable code_va : int option; (* PrivLib's own code VMA (I-VLB pressure) *)
  grants : int Jord_util.Int_table.t; (* PD id -> outstanding VMA permissions *)
  cat_ns : float array; (* cumulative latency by category, indexed by cat_index *)
  mutable vma_calls : int;
  mutable pd_calls : int;
  op_calls : int array; (* per-op call counts, indexed by op_index *)
  op_ns : float array; (* per-op cumulative latency *)
  instr_ns : float array; (* straight-line cost of each op, by op_index *)
  cost : cost;
}

(* Straight-line instruction budgets for each API body (gate entry, policy
   checks, bookkeeping), calibrated so the measured latencies land near
   Table 4 under the Simulator profile. The memory-system traffic on top of
   these comes from the live data structures. *)
let gate_instrs = 14

let body_instrs = function
  | Op_mmap -> 110
  | Op_munmap -> 90
  | Op_mprotect -> 80
  | Op_pmove -> 85
  | Op_pcopy -> 85
  | Op_cget -> 55
  | Op_cput -> 65
  | Op_ccall -> 95
  | Op_creturn -> 48
  | Op_cexit -> 58
  | Op_center -> 75

(* Gate entry plus body of an API call, in ns: computed once per op in
   [create]. *)
let[@inline] instr_ns t op = t.instr_ns.(op_index op)

let hw t = t.hw
let code_vma t = t.code_va
let pds t = t.pds
let free_lists t = t.fl
let mmu t ~core = Vm.Hw.mmu t.hw ~core
let caller_pd t ~core = Vm.Mmu.ucid (mmu t ~core)

(* Model the uatg gate entry: sets the P bit for the duration of the call and
   fetches the first PrivLib instructions (I-VLB pressure on tiny VLBs). *)
let enter t ~core =
  Vm.Mmu.enter_privileged (mmu t ~core) ~at_gate:true;
  match t.code_va with
  | Some va -> Vm.Hw.translate t.hw ~core ~va ~access:Vm.Perm.Exec ~kind:`Instr
  | None -> 0.0

let leave t ~core = Vm.Mmu.exit_privileged (mmu t ~core)

(* Run an API body inside the gate. The P bit is cleared on every exit path:
   when a security-policy check faults, the hardware tears the privileged
   context down before delivering the fault, so a failed call must never
   leave the core privileged. *)
let with_gate t ~core f =
  let gate_ns = enter t ~core in
  match f gate_ns with
  | r ->
      leave t ~core;
      r
  | exception (Vm.Fault.Fault fl as exn) ->
      (* Policy rejections are faults too: count them with the hardware's
         fault classes so telemetry sees the whole fault surface. *)
      Vm.Hw.note_fault t.hw fl;
      leave t ~core;
      raise exn
  | exception exn ->
      leave t ~core;
      raise exn

let cat_index = function Vma_mgmt -> 0 | Pd_mgmt -> 1

let account t cat op ns =
  let c = cat_index cat in
  t.cat_ns.(c) <- t.cat_ns.(c) +. ns;
  (match cat with
  | Vma_mgmt -> t.vma_calls <- t.vma_calls + 1
  | Pd_mgmt -> t.pd_calls <- t.pd_calls + 1);
  let i = op_index op in
  t.op_calls.(i) <- t.op_calls.(i) + 1;
  t.op_ns.(i) <- t.op_ns.(i) +. ns

let time_in t cat = t.cat_ns.(cat_index cat)
let call_count t = function Vma_mgmt -> t.vma_calls | Pd_mgmt -> t.pd_calls
let op_count t op = t.op_calls.(op_index op)
let op_ns t op = t.op_ns.(op_index op)

let op_stats t =
  List.map (fun op -> (op, op_count t op, op_ns t op)) all_ops

let reset_accounting t =
  Array.fill t.cat_ns 0 2 0.0;
  t.vma_calls <- 0;
  t.pd_calls <- 0;
  Array.fill t.op_calls 0 n_ops 0;
  Array.fill t.op_ns 0 n_ops 0.0

(* Telemetry wiring: per-op call counts and cumulative in-PrivLib time, as
   pull collectors over the accounting arrays (Table 1 / Fig. 11 signals). *)
let register_metrics t ?(labels = []) reg =
  let open Jord_telemetry.Registry in
  List.iter
    (fun op ->
      let l = labels @ [ ("op", op_name op) ] in
      counter_fn reg ~help:"PrivLib calls by API" ~labels:l "jord_privlib_calls_total"
        (fun () -> float_of_int (op_count t op));
      counter_fn reg ~help:"Cumulative time inside PrivLib by API (ns)" ~labels:l
        "jord_privlib_ns_total" (fun () -> op_ns t op))
    all_ops;
  List.iter
    (fun (cat, name) ->
      let l = labels @ [ ("category", name) ] in
      counter_fn reg ~help:"PrivLib calls by category" ~labels:l
        "jord_privlib_category_calls_total" (fun () -> float_of_int (call_count t cat));
      counter_fn reg ~help:"Cumulative PrivLib time by category (ns)" ~labels:l
        "jord_privlib_category_ns_total" (fun () -> time_in t cat))
    [ (Vma_mgmt, "vma_mgmt"); (Pd_mgmt, "pd_mgmt") ];
  gauge_fn reg ~help:"Outstanding VMA grants across non-root PDs" ~labels
    "jord_privlib_outstanding_grants" (fun () ->
      float_of_int (Jord_util.Int_table.fold (fun _ v acc -> acc + v) t.grants 0))

(* Find the VTE covering [va], charging the lookup, with policy check: the
   subject PD must hold some permission on the VMA — and acting on behalf of
   a foreign PD is reserved to the trusted runtime in PD 0. *)
let resolve_owned t ~core ~subject ~va =
  let caller = caller_pd t ~core in
  if subject <> caller && caller <> 0 then
    Vm.Fault.raise_fault (Vm.Fault.Bad_handle "acting on a foreign PD is executor-only");
  let vte = Vm.Vma_store.lookup (Vm.Hw.store t.hw) ~va in
  t.cost.lookup_ns <- Vm.Hw.charge_footprint t.hw ~core;
  if not (Vm.Vte.covers vte va) then Vm.Fault.raise_fault (Vm.Fault.Unmapped va);
  let owned =
    (not (Vm.Perm.equal (Vm.Vte.perm_for vte ~pd:subject) Vm.Perm.none))
    || Option.is_some (Vm.Vte.global_perm vte)
    || caller = 0
  in
  if not owned then
    Vm.Fault.raise_fault (Vm.Fault.Bad_handle "caller holds no permission on VMA");
  vte

let check_dst_pd t pd = if pd = 0 then () else ignore (Pd.status t.pds pd)

(* Track how many VMA permissions each non-root PD holds: destroying a PD
   that still holds permissions would let a recycled PD id inherit them, so
   [cput] rejects it (the Figure-4 teardown always revokes first). *)
let bump_grants t pd delta =
  if pd <> 0 then begin
    let slot = Jord_util.Int_table.find t.grants pd in
    let v = (if slot >= 0 then Jord_util.Int_table.value t.grants slot else 0) + delta in
    if v <= 0 then Jord_util.Int_table.remove t.grants pd
    else if slot >= 0 then Jord_util.Int_table.set_value t.grants slot v
    else ignore (Jord_util.Int_table.add t.grants pd v : int)
  end

let outstanding_grants t pd =
  let slot = Jord_util.Int_table.find t.grants pd in
  if slot >= 0 then Jord_util.Int_table.value t.grants slot else 0

(* Apply a permission change on [vte] for [pd], keeping the grant counter in
   sync with whether the PD holds an entry. *)
let set_perm_tracked t vte ~pd perm =
  let had = Vm.Vte.has_pd vte ~pd in
  Vm.Vte.set_perm vte ~pd perm;
  let has = Vm.Vte.has_pd vte ~pd in
  if has && not had then bump_grants t pd 1
  else if had && not has then bump_grants t pd (-1)

let mmap t ~core ~bytes ~perm ?(privileged = false) ?(global_perm = None) () =
  with_gate t ~core (fun gate_ns ->
      if (privileged || Option.is_some global_perm) && caller_pd t ~core <> 0 then
        Vm.Fault.raise_fault (Vm.Fault.Bad_handle "special mappings are executor-only");
      let sc = Vm.Size_class.of_size bytes in
      let index = Free_list.alloc t.fl ~memsys:(Vm.Hw.memsys t.hw) ~core sc in
      let alloc_ns = Free_list.alloc_ns t.fl in
      let va_cfg = Vm.Hw.va_cfg t.hw in
      let base = Vm.Va.encode va_cfg sc ~index ~offset:0 in
      let vte =
        Vm.Vte.create ~base ~bytes ~phys:(Free_list.phys t.fl sc index) ~global_perm
          ~privileged ()
      in
      set_perm_tracked t vte ~pd:(caller_pd t ~core) perm;
      Vm.Vma_store.insert (Vm.Hw.store t.hw) vte;
      let lat =
        gate_ns
        +. instr_ns t Op_mmap
        +. alloc_ns
        +. Vm.Hw.charge_footprint t.hw ~core
      in
      account t Vma_mgmt Op_mmap lat;
      (base, lat))

let munmap t ~core ~va =
  with_gate t ~core (fun gate_ns ->
      let vte = resolve_owned t ~core ~subject:(caller_pd t ~core) ~va in
      let lookup_ns = t.cost.lookup_ns in
      if Vm.Vte.privileged vte then
        Vm.Fault.raise_fault (Vm.Fault.Bad_handle "cannot unmap a privileged VMA");
      let base = Vm.Vte.base vte in
      Vm.Vte.iter_sharers (fun pd -> bump_grants t pd (-1)) vte;
      ignore (Vm.Vma_store.remove (Vm.Hw.store t.hw) ~va:base : Vm.Vte.t);
      let sd = Vm.Hw.shootdown t.hw ~core ~va:base in
      let va_cfg = Vm.Hw.va_cfg t.hw in
      let i = Vm.Va.vte_index_of_va va_cfg base in
      if i < 0 then Vm.Fault.raise_fault (Vm.Fault.Unmapped base);
      let free_ns =
        Free_list.free t.fl ~memsys:(Vm.Hw.memsys t.hw) ~core (Vm.Va.class_at i)
          ~index:(Vm.Va.index_at i)
      in
      let lat =
        gate_ns
        +. instr_ns t Op_munmap
        +. lookup_ns
        +. Vm.Hw.charge_footprint t.hw ~core
        +. sd +. free_ns
      in
      account t Vma_mgmt Op_munmap lat;
      lat)

(* Shared tail of the three permission-updating calls: charge the structure
   update and the hardware shootdown for the rewritten VTE. The shootdown
   runs first, so a fallback sees the VTE line's sharers from before the
   write. *)
let update_vte t ~core ~base =
  Vm.Vma_store.touch (Vm.Hw.store t.hw) ~va:base;
  let sd = Vm.Hw.shootdown t.hw ~core ~va:base in
  Vm.Hw.charge_footprint t.hw ~core +. sd

let mprotect t ~core ?pd ~va ~perm () =
  with_gate t ~core (fun gate_ns ->
      let subject = match pd with Some p -> p | None -> caller_pd t ~core in
      let vte = resolve_owned t ~core ~subject ~va in
      let lookup_ns = t.cost.lookup_ns in
      set_perm_tracked t vte ~pd:subject perm;
      let lat =
        gate_ns
        +. instr_ns t Op_mprotect
        +. lookup_ns
        +. update_vte t ~core ~base:(Vm.Vte.base vte)
      in
      account t Vma_mgmt Op_mprotect lat;
      lat)

let transfer t ~core ~src_pd ~va ~dst_pd ~perm ~keep_src ~op =
  with_gate t ~core (fun gate_ns ->
      check_dst_pd t dst_pd;
      let src_pd = match src_pd with Some p -> p | None -> caller_pd t ~core in
      let vte = resolve_owned t ~core ~subject:src_pd ~va in
      let lookup_ns = t.cost.lookup_ns in
      let src_perm = Vm.Vte.perm_for vte ~pd:src_pd in
      let privileged_caller = caller_pd t ~core = 0 in
      if
        (not (Vm.Perm.subsumes src_perm perm))
        && Option.is_none (Vm.Vte.global_perm vte)
        && not privileged_caller
      then
        Vm.Fault.raise_fault (Vm.Fault.Bad_handle "cannot grant rights the caller lacks");
      set_perm_tracked t vte ~pd:dst_pd perm;
      if not keep_src then set_perm_tracked t vte ~pd:src_pd Vm.Perm.none;
      let lat =
        gate_ns
        +. instr_ns t op
        +. lookup_ns
        +. update_vte t ~core ~base:(Vm.Vte.base vte)
      in
      account t Vma_mgmt op lat;
      lat)

let pmove t ~core ?src_pd ~va ~dst_pd ~perm () =
  transfer t ~core ~src_pd ~va ~dst_pd ~perm ~keep_src:false ~op:Op_pmove

let pcopy t ~core ~va ~dst_pd ~perm =
  transfer t ~core ~src_pd:None ~va ~dst_pd ~perm ~keep_src:true ~op:Op_pcopy

let require_executor t ~core what =
  if caller_pd t ~core <> 0 then
    Vm.Fault.raise_fault (Vm.Fault.Bad_handle (what ^ " is executor-only"))

let cget t ~core =
  with_gate t ~core (fun gate_ns ->
      require_executor t ~core "cget";
      let id = Pd.alloc t.pds ~memsys:(Vm.Hw.memsys t.hw) ~core in
      let alloc_ns = Pd.alloc_ns t.pds in
      let lat = gate_ns +. instr_ns t Op_cget +. alloc_ns in
      account t Pd_mgmt Op_cget lat;
      (id, lat))

let cput t ~core ~pd =
  with_gate t ~core (fun gate_ns ->
      require_executor t ~core "cput";
      if outstanding_grants t pd > 0 then
        Vm.Fault.raise_fault
          (Vm.Fault.Bad_handle "cput: PD still holds VMA permissions");
      let free_ns = Pd.free t.pds ~memsys:(Vm.Hw.memsys t.hw) ~core pd in
      let lat = gate_ns +. instr_ns t Op_cput +. free_ns in
      account t Pd_mgmt Op_cput lat;
      lat)

(* Context switches: save/restore of the register file to/from the PD's
   config line plus the ucid CSR write. *)
let switch_cost t ~core ~pd ~op =
  instr_ns t op
  +. Jord_arch.Memsys.write (Vm.Hw.memsys t.hw) ~core ~addr:(Pd.config_addr pd)

let ccall t ~core ~pd =
  with_gate t ~core (fun gate_ns ->
      require_executor t ~core "ccall";
      (match Pd.status t.pds pd with
      | Pd.Idle -> ()
      | Pd.Running _ ->
          Vm.Fault.raise_fault (Vm.Fault.Bad_handle "ccall target already running")
      | Pd.Suspended ->
          Vm.Fault.raise_fault
            (Vm.Fault.Bad_handle "ccall target suspended; use center"));
      Pd.set_status t.pds pd (Pd.Running core);
      let lat = gate_ns +. switch_cost t ~core ~pd ~op:Op_ccall in
      Vm.Mmu.write_ucid (mmu t ~core) pd;
      account t Pd_mgmt Op_ccall lat;
      lat)

let current_running_pd t ~core what =
  let pd = caller_pd t ~core in
  if pd = 0 then
    Vm.Fault.raise_fault (Vm.Fault.Bad_handle (what ^ ": not inside a PD"));
  (match Pd.status t.pds pd with
  | Pd.Running c when c = core -> ()
  | Pd.Running _ | Pd.Idle | Pd.Suspended ->
      Vm.Fault.raise_fault
        (Vm.Fault.Bad_handle (what ^ ": PD not running on this core")));
  pd

let creturn t ~core =
  with_gate t ~core (fun gate_ns ->
      let pd = current_running_pd t ~core "creturn" in
      Pd.set_status t.pds pd Pd.Idle;
      let lat = gate_ns +. switch_cost t ~core ~pd ~op:Op_creturn in
      Vm.Mmu.write_ucid (mmu t ~core) 0;
      account t Pd_mgmt Op_creturn lat;
      lat)

let cexit t ~core =
  with_gate t ~core (fun gate_ns ->
      let pd = current_running_pd t ~core "cexit" in
      Pd.set_status t.pds pd Pd.Suspended;
      let lat = gate_ns +. switch_cost t ~core ~pd ~op:Op_cexit in
      Vm.Mmu.write_ucid (mmu t ~core) 0;
      account t Pd_mgmt Op_cexit lat;
      lat)

let center t ~core ~pd =
  with_gate t ~core (fun gate_ns ->
      require_executor t ~core "center";
      (match Pd.status t.pds pd with
      | Pd.Suspended -> ()
      | Pd.Idle | Pd.Running _ ->
          Vm.Fault.raise_fault (Vm.Fault.Bad_handle "center target not suspended"));
      Pd.set_status t.pds pd (Pd.Running core);
      let lat = gate_ns +. switch_cost t ~core ~pd ~op:Op_center in
      Vm.Mmu.write_ucid (mmu t ~core) pd;
      account t Pd_mgmt Op_center lat;
      lat)

let create ~hw ~os =
  (* One free-list and PD shard per core: core [c] uses shard [c mod n], so
     any [n] >= the machine's cores gives the same shards. *)
  let cores =
    Int.min 512 (Jord_arch.Topology.cores (Jord_arch.Memsys.topology (Vm.Hw.memsys hw)))
  in
  let t =
    {
      hw;
      os;
      fl = Free_list.create ~os ~va_cfg:(Vm.Hw.va_cfg hw) ~cores ();
      pds = Pd.create ~cores ();
      code_va = None;
      grants = Jord_util.Int_table.create 0;
      cat_ns = Array.make 2 0.0;
      cost = { lookup_ns = 0.0 };
      vma_calls = 0;
      pd_calls = 0;
      op_calls = Array.make n_ops 0;
      op_ns = Array.make n_ops 0.0;
      instr_ns =
        Array.of_list
          (List.map (fun op -> Vm.Hw.instr_ns hw (gate_instrs + body_instrs op)) all_ops);
    }
  in
  (* OS bootstrap: PrivLib's own code, stack and heap live in privileged
     VMAs that only privileged code can touch; they are visible from every
     PD so PrivLib can run regardless of ucid. *)
  let boot bytes perm =
    let va, _ =
      mmap t ~core:0 ~bytes ~perm ~privileged:true ~global_perm:(Some perm) ()
    in
    va
  in
  let code_va = boot (256 * 1024) Vm.Perm.rx (* PrivLib code *) in
  let (_ : int) = boot (64 * 1024) Vm.Perm.rw (* PrivLib stacks *) in
  let (_ : int) = boot (1024 * 1024) Vm.Perm.rw (* PrivLib heap *) in
  t.code_va <- Some code_va;
  reset_accounting t;
  t
