type t = { cfg : Va.config; entries : Vte.t Jord_util.Int_table.t; vacant : Vte.t }

let create cfg =
  let vacant = Vte.vacant () in
  { cfg; entries = Jord_util.Int_table.create ~size:512 vacant; vacant }

let config t = t.cfg

let entry_addr t ~va =
  let idx = Va.vte_index_of_va t.cfg va in
  if idx < 0 then -1 else Va.vte_addr_at t.cfg idx

(* The entry in [va]'s slot when it covers [va], else [vacant]. *)
let covering t va =
  let slot = Jord_util.Int_table.find t.entries (Va.vte_index_of_va t.cfg va) in
  if slot < 0 then t.vacant
  else
    let vte = Jord_util.Int_table.value t.entries slot in
    if Vte.covers vte va then vte else t.vacant

let lookup t ~va = covering t va

let insert t vte =
  let idx = Va.vte_index_of_va t.cfg (Vte.base vte) in
  if idx < 0 then invalid_arg "Vma_table.insert: not a Jord VA";
  if Jord_util.Int_table.find t.entries idx >= 0 then
    invalid_arg "Vma_table.insert: slot occupied";
  ignore (Jord_util.Int_table.add t.entries idx vte : int)

let remove t ~va =
  let vte = covering t va in
  if vte != t.vacant then
    Jord_util.Int_table.remove t.entries (Va.vte_index_of_va t.cfg va);
  vte

let count t = Jord_util.Int_table.length t.entries
let iter f t = Jord_util.Int_table.iter (fun _ vte -> f vte) t.entries
