type status = Idle | Running of int | Suspended

type shard = { ids : Id_stack.t; head_addr : int }

(* Per-id state, one int: a core for a running PD, else one of these. *)
let not_live = -1
let idle = -2
let suspended = -3

type cost = { mutable alloc_ns : float } (* all-float: stored unboxed *)

type t = {
  max_pds : int;
  free : Id_stack.t;
  state : int array; (* indexed by PD id *)
  mutable live : int;
  shared_head : int;
  shards : shard array;
  batch : int;
  cost : cost;
}

let pd_table_base = 1 lsl 42
let config_addr id = pd_table_base + (id * 64)

let create ?(max_pds = 4096) ?(cores = 512) () =
  if max_pds < 2 then invalid_arg "Pd.create";
  (* PD 0 is the root domain and is never handed out; id 1 is on top. *)
  let free = Id_stack.create () in
  for id = max_pds - 1 downto 1 do
    Id_stack.push free id
  done;
  {
    max_pds;
    free;
    state = Array.make max_pds not_live;
    live = 0;
    shared_head = pd_table_base - 64;
    shards =
      Array.init cores (fun core ->
          { ids = Id_stack.create (); head_addr = pd_table_base - ((core + 2) * 64) });
    batch = 8;
    cost = { alloc_ns = 0.0 };
  }

let alloc t ~memsys ~core =
  let shard = t.shards.(core mod Array.length t.shards) in
  let extra =
    if Id_stack.is_empty shard.ids then begin
      (* Detach a batch of ids from the shared list (one atomic). *)
      if Id_stack.move t.free shard.ids t.batch = 0 then
        Jord_vm.Fault.raise_fault (Jord_vm.Fault.Bad_handle "out of PD ids");
      Jord_arch.Memsys.atomic memsys ~core ~addr:t.shared_head
    end
    else 0.0
  in
  let id = Id_stack.pop shard.ids in
  t.state.(id) <- idle;
  t.live <- t.live + 1;
  (* Initialization of the config line, then the pop from the core-local
     shard. *)
  let config_ns = Jord_arch.Memsys.write memsys ~core ~addr:(config_addr id) in
  let head_ns = Jord_arch.Memsys.write memsys ~core ~addr:shard.head_addr in
  t.cost.alloc_ns <- extra +. head_ns +. config_ns;
  id

let alloc_ns t = t.cost.alloc_ns

(* The state of a live PD. *)
let check_live t id =
  if id <= 0 || id >= t.max_pds then
    Jord_vm.Fault.raise_fault (Jord_vm.Fault.Bad_handle "invalid PD id");
  let s = t.state.(id) in
  if s = not_live then
    Jord_vm.Fault.raise_fault (Jord_vm.Fault.Bad_handle "PD not allocated");
  s

let status t id =
  let s = check_live t id in
  if s = idle then Idle else if s = suspended then Suspended else Running s

let free t ~memsys ~core id =
  if check_live t id >= 0 then
    Jord_vm.Fault.raise_fault (Jord_vm.Fault.Bad_handle "cannot destroy a running PD");
  t.state.(id) <- not_live;
  t.live <- t.live - 1;
  let shard = t.shards.(core mod Array.length t.shards) in
  Id_stack.push shard.ids id;
  let spill =
    if Id_stack.length shard.ids > 2 * t.batch then begin
      ignore (Id_stack.move shard.ids t.free t.batch : int);
      Jord_arch.Memsys.atomic memsys ~core ~addr:t.shared_head
    end
    else 0.0
  in
  let head_ns = Jord_arch.Memsys.write memsys ~core ~addr:shard.head_addr in
  let config_ns = Jord_arch.Memsys.write memsys ~core ~addr:(config_addr id) in
  config_ns +. head_ns +. spill

let set_status t id s =
  ignore (check_live t id : int);
  t.state.(id) <-
    (match s with Idle -> idle | Suspended -> suspended | Running core -> core)

let is_live t id = id > 0 && id < t.max_pds && t.state.(id) <> not_live
let live_count t = t.live
