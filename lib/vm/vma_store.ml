type backend = Plain of Vma_table.t | Btree of Vma_btree.t

(* The footprint of the last operation, reused from one operation to the
   next. *)
type t = { backend : backend; fp : Footprint.t }

let make backend = { backend; fp = Footprint.create () }
let plain cfg = make (Plain (Vma_table.create cfg))
let btree () = make (Btree (Vma_btree.create ()))
let backend t = t.backend
let kind t = match t.backend with Plain _ -> "plain-list" | Btree _ -> "b-tree"
let footprint t = t.fp

(* The plain list touches the one VTE block computed from the VA. *)
let record_plain t p ~va ~write =
  Footprint.clear t.fp;
  let addr = Vma_table.entry_addr p ~va in
  if addr >= 0 then if write then Footprint.write t.fp addr else Footprint.read t.fp addr

let lookup t ~va =
  match t.backend with
  | Plain p ->
      record_plain t p ~va ~write:false;
      Vma_table.lookup p ~va
  | Btree b -> Vma_btree.lookup b t.fp ~va

let insert t vte =
  match t.backend with
  | Plain p ->
      Vma_table.insert p vte;
      record_plain t p ~va:(Vte.base vte) ~write:true
  | Btree b -> Vma_btree.insert b t.fp vte

let remove t ~va =
  match t.backend with
  | Plain p ->
      record_plain t p ~va ~write:true;
      Vma_table.remove p ~va
  | Btree b -> Vma_btree.remove b t.fp ~va

let touch t ~va =
  match t.backend with
  | Plain p -> record_plain t p ~va ~write:true
  | Btree b -> Vma_btree.touch b t.fp ~va

let count t =
  match t.backend with Plain p -> Vma_table.count p | Btree b -> Vma_btree.count b

let search_instrs t =
  match t.backend with
  | Plain _ -> 4 (* shift/mask/add to compute the VTE address *)
  | Btree b -> 18 * (Vma_btree.height b + 1) (* binary search per level *)

let iter f t =
  match t.backend with Plain p -> Vma_table.iter f p | Btree b -> Vma_btree.iter f b
