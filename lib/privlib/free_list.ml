(* Chunks are named by their plain-list index; a chunk's physical backing is
   fixed when the OS refill creates it, so it is kept per index rather than
   carried along the lists. *)
type shard = {
  cache : Id_stack.t;
  head_addr : int; (* per-core head line: stays in the owner's L1 *)
}

type class_list = {
  free : Id_stack.t; (* shared backing list *)
  mutable next_index : int;
  shared_head : int;
  shards : shard array; (* one per core *)
  mutable phys : int array; (* backing of each chunk index created so far *)
  mutable live : Bytes.t; (* '\001' for each allocated chunk index *)
}

type cost = { mutable alloc_ns : float } (* all-float: stored unboxed *)

type t = {
  os : Os_facade.t;
  va_cfg : Jord_vm.Va.config;
  refill_batch : int;
  shard_batch : int;
  classes : class_list array;
  mutable live : int;
  alloc_counts : int array; (* allocations per size class, cumulative *)
  cost : cost;
}

(* Free-list metadata lives in PrivLib's privileged heap, above the PD
   table: one line per shared head, one line per (core, class) shard head. *)
let head_region = 1 lsl 43

let create ~os ~va_cfg ?(refill_batch = 64) ?(cores = 512) ?(shard_batch = 16) () =
  if refill_batch <= 0 || shard_batch <= 0 || cores <= 0 then
    invalid_arg "Free_list.create";
  let n_classes = Jord_vm.Size_class.count in
  let mk c =
    {
      free = Id_stack.create ();
      next_index = 0;
      shared_head = head_region + (c * 64);
      shards =
        Array.init cores (fun core ->
            {
              cache = Id_stack.create ();
              head_addr = head_region + (((core + 1) * n_classes * 64) + (c * 64));
            });
      phys = [||];
      live = Bytes.empty;
    }
  in
  {
    os;
    va_cfg;
    refill_batch;
    shard_batch;
    classes = Array.init n_classes mk;
    live = 0;
    alloc_counts = Array.make n_classes 0;
    cost = { alloc_ns = 0.0 };
  }

(* Make room for chunk indices below [n] in the per-index tables. *)
let reserve cl n =
  if n > Array.length cl.phys then begin
    let cap = Int.max n (2 * Array.length cl.phys) in
    let phys = Array.make cap 0 in
    Array.blit cl.phys 0 phys 0 (Array.length cl.phys);
    cl.phys <- phys;
    let live = Bytes.make cap '\000' in
    Bytes.blit cl.live 0 live 0 (Bytes.length cl.live);
    cl.live <- live
  end

(* Refill the shared list from the OS through uat_config. *)
let refill t cl sc =
  Os_facade.note_uat_config t.os;
  let bytes = Jord_vm.Size_class.bytes sc in
  let limit = Jord_vm.Va.slots_per_class t.va_cfg in
  let n = Int.min t.refill_batch (limit - cl.next_index) in
  if n <= 0 then failwith "Free_list: size class exhausted";
  reserve cl (cl.next_index + n);
  for _ = 1 to n do
    let index = cl.next_index in
    cl.next_index <- index + 1;
    cl.phys.(index) <- Os_facade.reserve_chunk t.os ~bytes;
    Id_stack.push cl.free index
  done;
  Os_facade.syscall_ns t.os

(* Move a batch from the shared list into a core's shard: one atomic on the
   shared head detaches the whole batch (LIFO list splice). *)
let grab_batch t ~memsys ~core cl sc shard =
  let refill_ns = if Id_stack.is_empty cl.free then refill t cl sc else 0.0 in
  ignore (Id_stack.move cl.free shard.cache t.shard_batch : int);
  (* The shard head is written before the shared head's atomic. *)
  let head_ns = Jord_arch.Memsys.write memsys ~core ~addr:shard.head_addr in
  let shared_ns = Jord_arch.Memsys.atomic memsys ~core ~addr:cl.shared_head in
  refill_ns +. shared_ns +. head_ns

let alloc t ~memsys ~core sc =
  let ci = Jord_vm.Size_class.to_index sc in
  t.alloc_counts.(ci) <- t.alloc_counts.(ci) + 1;
  let cl = t.classes.(ci) in
  let shard = cl.shards.(core mod Array.length cl.shards) in
  let extra =
    if Id_stack.is_empty shard.cache then grab_batch t ~memsys ~core cl sc shard else 0.0
  in
  if Id_stack.is_empty shard.cache then failwith "Free_list.alloc: empty after refill";
  let index = Id_stack.pop shard.cache in
  Bytes.set cl.live index '\001';
  t.live <- t.live + 1;
  (* Pop from the core-local list: the chunk's embedded next pointer, then
     the head line. *)
  let next_ns = Jord_arch.Memsys.read memsys ~core ~addr:cl.phys.(index) in
  let head_ns = Jord_arch.Memsys.write memsys ~core ~addr:shard.head_addr in
  t.cost.alloc_ns <- head_ns +. next_ns +. extra;
  index

let alloc_ns t = t.cost.alloc_ns
let phys t sc index = t.classes.(Jord_vm.Size_class.to_index sc).phys.(index)

let free t ~memsys ~core sc ~index =
  let cl = t.classes.(Jord_vm.Size_class.to_index sc) in
  if index < 0 || index >= Bytes.length cl.live || Bytes.get cl.live index = '\000' then
    Jord_vm.Fault.raise_fault (Jord_vm.Fault.Bad_handle "double free of VMA chunk");
  Bytes.set cl.live index '\000';
  let shard = cl.shards.(core mod Array.length cl.shards) in
  Id_stack.push shard.cache index;
  t.live <- t.live - 1;
  (* Overfull shard: release a batch back to the shared list. *)
  let spill =
    if Id_stack.length shard.cache > 2 * t.shard_batch then begin
      ignore (Id_stack.move shard.cache cl.free t.shard_batch : int);
      Jord_arch.Memsys.atomic memsys ~core ~addr:cl.shared_head
    end
    else 0.0
  in
  let head_ns = Jord_arch.Memsys.write memsys ~core ~addr:shard.head_addr in
  let next_ns = Jord_arch.Memsys.write memsys ~core ~addr:cl.phys.(index) in
  next_ns +. head_ns +. spill

let live_chunks t = t.live

let allocations_by_class t =
  Array.to_list
    (Array.mapi (fun i n -> (Jord_vm.Size_class.of_index i, n)) t.alloc_counts)
  |> List.filter (fun (_, n) -> n > 0)

let small_allocation_share t ~bytes =
  let total = Array.fold_left ( + ) 0 t.alloc_counts in
  if total = 0 then 0.0
  else begin
    let small = ref 0 in
    Array.iteri
      (fun i n ->
        if Jord_vm.Size_class.bytes (Jord_vm.Size_class.of_index i) <= bytes then
          small := !small + n)
      t.alloc_counts;
    float_of_int !small /. float_of_int total
  end

let free_chunks t sc =
  let cl = t.classes.(Jord_vm.Size_class.to_index sc) in
  Id_stack.length cl.free
  + Array.fold_left (fun acc s -> acc + Id_stack.length s.cache) 0 cl.shards
