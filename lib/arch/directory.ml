type entry = {
  sharers : Jord_util.Bitset.t;
  mutable owner : int;
  mutable in_llc : bool;
  home : int; (* LLC slice homing the line (first-touch NUMA placement) *)
}

type t = { cores : int; table : entry Jord_util.Int_table.t }

let create ~cores =
  let free =
    { sharers = Jord_util.Bitset.create 1; owner = -1; in_llc = false; home = -1 }
  in
  { cores; table = Jord_util.Int_table.create ~size:2048 free }

let find t line = Jord_util.Int_table.find t.table line
let entry t slot = Jord_util.Int_table.value t.table slot

let add t line ~home =
  let e = { sharers = Jord_util.Bitset.create t.cores; owner = -1; in_llc = false; home } in
  ignore (Jord_util.Int_table.add t.table line e : int);
  e

let drop_core t line core =
  let slot = find t line in
  if slot >= 0 then begin
    let e = entry t slot in
    Jord_util.Bitset.remove e.sharers core;
    if e.owner = core then e.owner <- -1
  end

let entries t = Jord_util.Int_table.length t.table
