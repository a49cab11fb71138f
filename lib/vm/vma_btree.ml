let t_min = 8 (* minimum degree *)
let max_keys = (2 * t_min) - 1
let node_region = 1 lsl 41
let node_bytes = 256

type node = {
  id : int;
  keys : int array;
  vals : Vte.t option array;
  kids : node option array; (* max_keys + 1 slots *)
  mutable n : int;
  mutable leaf : bool;
}

type t = {
  mutable root : node;
  mutable next_id : int;
  mutable count : int;
  mutable rebalances : int;
  vacant : Vte.t; (* the result of a search that finds nothing *)
}

let addr_of node = node_region + (node.id * node_bytes)

(* A 256 B node spans four cache lines; a binary search over the keys plus
   the value fetch touches about two of them, and a structural modification
   rewrites two. *)
let visit fp node =
  let addr = addr_of node in
  Footprint.read fp addr;
  Footprint.read fp (addr + 64)

let modify fp node =
  let addr = addr_of node in
  Footprint.write fp addr;
  Footprint.write fp (addr + 64)

let make_node ~id ~leaf =
  {
    id;
    keys = Array.make max_keys 0;
    vals = Array.make max_keys None;
    kids = Array.make (max_keys + 1) None;
    n = 0;
    leaf;
  }

let new_node t ~leaf =
  let id = t.next_id in
  t.next_id <- t.next_id + 1;
  make_node ~id ~leaf

let create () =
  {
    root = make_node ~id:0 ~leaf:true;
    next_id = 1;
    count = 0;
    rebalances = 0;
    vacant = Vte.vacant ();
  }

let count t = t.count
let rebalance_ops t = t.rebalances

let rec node_height node =
  if node.leaf then 1
  else match node.kids.(0) with Some k -> 1 + node_height k | None -> 1

let height t = node_height t.root

let kid node i =
  match node.kids.(i) with
  | Some k -> k
  | None -> invalid_arg "Vma_btree: missing child"

(* Number of keys in [node] that are <= va, counting from key [i]; a
   toplevel function, not a local closure, so that a search allocates
   nothing. *)
let rec upper_bound_from node va i =
  if i < node.n && node.keys.(i) <= va then upper_bound_from node va (i + 1) else i

let upper_bound node va = upper_bound_from node va 0

let rec floor_search fp node va best =
  visit fp node;
  let i = upper_bound node va in
  let best = if i > 0 then node.vals.(i - 1) else best in
  if node.leaf then best else floor_search fp (kid node i) va best

(* The entry covering [va], or [t.vacant]. *)
let covering t fp va =
  match floor_search fp t.root va None with
  | Some vte when Vte.covers vte va -> vte
  | Some _ | None -> t.vacant

let lookup t fp ~va =
  Footprint.clear fp;
  covering t fp va

(* --- Insertion (CLRS top-down with preemptive splits) --- *)

let split_child t fp parent i =
  t.rebalances <- t.rebalances + 1;
  let full = kid parent i in
  let right = new_node t ~leaf:full.leaf in
  right.n <- t_min - 1;
  for j = 0 to t_min - 2 do
    right.keys.(j) <- full.keys.(t_min + j);
    right.vals.(j) <- full.vals.(t_min + j);
    full.vals.(t_min + j) <- None
  done;
  if not full.leaf then
    for j = 0 to t_min - 1 do
      right.kids.(j) <- full.kids.(t_min + j);
      full.kids.(t_min + j) <- None
    done;
  full.n <- t_min - 1;
  (* Shift parent slots right to make room. *)
  for j = parent.n downto i + 1 do
    parent.keys.(j) <- parent.keys.(j - 1);
    parent.vals.(j) <- parent.vals.(j - 1)
  done;
  for j = parent.n + 1 downto i + 2 do
    parent.kids.(j) <- parent.kids.(j - 1)
  done;
  parent.keys.(i) <- full.keys.(t_min - 1);
  parent.vals.(i) <- full.vals.(t_min - 1);
  full.vals.(t_min - 1) <- None;
  parent.kids.(i + 1) <- Some right;
  parent.n <- parent.n + 1;
  modify fp parent;
  modify fp full;
  modify fp right

let rec insert_nonfull t fp node base vte =
  visit fp node;
  let i = upper_bound node base in
  if i > 0 && node.keys.(i - 1) = base then
    invalid_arg "Vma_btree.insert: duplicate base";
  if node.leaf then begin
    for j = node.n downto i + 1 do
      node.keys.(j) <- node.keys.(j - 1);
      node.vals.(j) <- node.vals.(j - 1)
    done;
    node.keys.(i) <- base;
    node.vals.(i) <- Some vte;
    node.n <- node.n + 1;
    modify fp node
  end
  else begin
    let i =
      if (kid node i).n = max_keys then begin
        split_child t fp node i;
        if base > node.keys.(i) then i + 1 else i
      end
      else i
    in
    insert_nonfull t fp (kid node i) base vte
  end

let insert t fp vte =
  Footprint.clear fp;
  let base = Vte.base vte in
  if t.root.n = max_keys then begin
    let old_root = t.root in
    let root = new_node t ~leaf:false in
    root.kids.(0) <- Some old_root;
    t.root <- root;
    split_child t fp root 0
  end;
  insert_nonfull t fp t.root base vte;
  t.count <- t.count + 1

(* --- Deletion (CLRS) --- *)

let shift_left_keys node i =
  for j = i to node.n - 2 do
    node.keys.(j) <- node.keys.(j + 1);
    node.vals.(j) <- node.vals.(j + 1)
  done;
  node.vals.(node.n - 1) <- None;
  node.n <- node.n - 1

(* Merge kids.(i) and kids.(i+1) around separator key i. *)
let merge_children t fp node i =
  t.rebalances <- t.rebalances + 1;
  let left = kid node i and right = kid node (i + 1) in
  left.keys.(left.n) <- node.keys.(i);
  left.vals.(left.n) <- node.vals.(i);
  for j = 0 to right.n - 1 do
    left.keys.(left.n + 1 + j) <- right.keys.(j);
    left.vals.(left.n + 1 + j) <- right.vals.(j)
  done;
  if not left.leaf then
    for j = 0 to right.n do
      left.kids.(left.n + 1 + j) <- right.kids.(j)
    done;
  left.n <- left.n + 1 + right.n;
  (* Remove separator and right child from the parent. *)
  for j = i to node.n - 2 do
    node.keys.(j) <- node.keys.(j + 1);
    node.vals.(j) <- node.vals.(j + 1)
  done;
  node.vals.(node.n - 1) <- None;
  for j = i + 1 to node.n - 1 do
    node.kids.(j) <- node.kids.(j + 1)
  done;
  node.kids.(node.n) <- None;
  node.n <- node.n - 1;
  modify fp node;
  modify fp left;
  modify fp right;
  left

(* Ensure kids.(i) has at least t_min keys before descending into it.
   Returns the (possibly merged) child. *)
let ensure_child t fp node i =
  let child = kid node i in
  if child.n >= t_min then child
  else if i > 0 && (kid node (i - 1)).n >= t_min then begin
    (* Borrow from the left sibling through the parent. *)
    t.rebalances <- t.rebalances + 1;
    let left = kid node (i - 1) in
    for j = child.n downto 1 do
      child.keys.(j) <- child.keys.(j - 1);
      child.vals.(j) <- child.vals.(j - 1)
    done;
    if not child.leaf then
      for j = child.n + 1 downto 1 do
        child.kids.(j) <- child.kids.(j - 1)
      done;
    child.keys.(0) <- node.keys.(i - 1);
    child.vals.(0) <- node.vals.(i - 1);
    if not child.leaf then child.kids.(0) <- left.kids.(left.n);
    node.keys.(i - 1) <- left.keys.(left.n - 1);
    node.vals.(i - 1) <- left.vals.(left.n - 1);
    left.vals.(left.n - 1) <- None;
    if not left.leaf then left.kids.(left.n) <- None;
    left.n <- left.n - 1;
    child.n <- child.n + 1;
    modify fp node;
    modify fp left;
    modify fp child;
    child
  end
  else if i < node.n && (kid node (i + 1)).n >= t_min then begin
    (* Borrow from the right sibling. *)
    t.rebalances <- t.rebalances + 1;
    let right = kid node (i + 1) in
    child.keys.(child.n) <- node.keys.(i);
    child.vals.(child.n) <- node.vals.(i);
    if not child.leaf then child.kids.(child.n + 1) <- right.kids.(0);
    node.keys.(i) <- right.keys.(0);
    node.vals.(i) <- right.vals.(0);
    shift_left_keys right 0;
    if not right.leaf then begin
      for j = 0 to right.n do
        right.kids.(j) <- right.kids.(j + 1)
      done;
      right.kids.(right.n + 1) <- None
    end;
    child.n <- child.n + 1;
    modify fp node;
    modify fp right;
    modify fp child;
    child
  end
  else if i > 0 then merge_children t fp node (i - 1)
  else merge_children t fp node i

let rec max_entry fp node =
  visit fp node;
  if node.leaf then (node.keys.(node.n - 1), node.vals.(node.n - 1))
  else max_entry fp (kid node node.n)

let rec min_entry fp node =
  visit fp node;
  if node.leaf then (node.keys.(0), node.vals.(0))
  else min_entry fp (kid node 0)

let rec delete_key t fp node base =
  visit fp node;
  let i = upper_bound node base in
  if i > 0 && node.keys.(i - 1) = base then begin
    let i = i - 1 in
    if node.leaf then begin
      shift_left_keys node i;
      modify fp node
    end
    else begin
      let left = kid node i and right = kid node (i + 1) in
      if left.n >= t_min then begin
        let k, v = max_entry fp left in
        node.keys.(i) <- k;
        node.vals.(i) <- v;
        modify fp node;
        delete_key t fp left k
      end
      else if right.n >= t_min then begin
        let k, v = min_entry fp right in
        node.keys.(i) <- k;
        node.vals.(i) <- v;
        modify fp node;
        delete_key t fp right k
      end
      else begin
        let merged = merge_children t fp node i in
        delete_key t fp merged base
      end
    end
  end
  else if node.leaf then invalid_arg "Vma_btree.delete: key not found"
  else begin
    delete_key t fp (ensure_child t fp node i) base
  end

let shrink_root t =
  if (not t.root.leaf) && t.root.n = 0 then t.root <- kid t.root 0

let remove t fp ~va =
  Footprint.clear fp;
  let vte = covering t fp va in
  if vte != t.vacant then begin
    delete_key t fp t.root (Vte.base vte);
    shrink_root t;
    t.count <- t.count - 1
  end;
  vte

let touch t fp ~va =
  Footprint.clear fp;
  ignore (floor_search fp t.root va None : Vte.t option);
  (* The update rewrites the node that holds the entry: charge one write,
     of the last line the search read. *)
  Footprint.write fp fp.Footprint.reads.(fp.Footprint.n_reads - 1)

let rec iter_node f node =
  if node.leaf then
    for i = 0 to node.n - 1 do
      match node.vals.(i) with Some v -> f v | None -> ()
    done
  else begin
    for i = 0 to node.n - 1 do
      iter_node f (kid node i);
      match node.vals.(i) with Some v -> f v | None -> ()
    done;
    iter_node f (kid node node.n)
  end

let iter f t = iter_node f t.root

let check_invariants t =
  let exception Bad of string in
  let rec check node ~is_root ~lo ~hi ~depth =
    if node.n > max_keys then raise (Bad "node overfull");
    if (not is_root) && node.n < t_min - 1 then raise (Bad "node underfull");
    if is_root && node.n < 1 && not node.leaf then raise (Bad "empty internal root");
    for i = 0 to node.n - 1 do
      let k = node.keys.(i) in
      if i > 0 && node.keys.(i - 1) >= k then raise (Bad "keys not strictly sorted");
      (match lo with Some l when k <= l -> raise (Bad "key below range") | _ -> ());
      (match hi with Some h when k >= h -> raise (Bad "key above range") | _ -> ());
      if node.vals.(i) = None then raise (Bad "missing value")
    done;
    if node.leaf then depth
    else begin
      let depths =
        List.init (node.n + 1) (fun i ->
            let lo = if i = 0 then lo else Some node.keys.(i - 1) in
            let hi = if i = node.n then hi else Some node.keys.(i) in
            check (kid node i) ~is_root:false ~lo ~hi ~depth:(depth + 1))
      in
      match depths with
      | [] -> depth
      | d :: rest ->
          if List.exists (fun d' -> d' <> d) rest then raise (Bad "uneven leaf depth");
          d
    end
  in
  match check t.root ~is_root:true ~lo:None ~hi:None ~depth:0 with
  | (_ : int) -> Ok ()
  | exception Bad msg -> Error msg
