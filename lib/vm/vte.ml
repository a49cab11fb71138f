(* A sub-array slot packs a PD and its permission into one int,
   [pd lsl 3 lor perm]; a granted permission is never {!Perm.none}, so an
   empty slot is 0. The overflow list uses the same packing. *)
type t = {
  base : int;
  mutable bytes : int;
  chunk_bytes : int;
  phys : int;
  privileged : bool;
  global_perm : Perm.t option;
  sub : int array; (* 20 hardware slots *)
  mutable used : int; (* slots at and past this index are empty *)
  mutable overflow : int list; (* reached via the ptr field *)
}

let sub_array_capacity = 20
let pack pd perm = (pd lsl 3) lor (perm : Perm.t :> int)
let pd_of slot = slot asr 3

let create ~base ~bytes ~phys ?(global_perm = None) ?(privileged = false) () =
  if bytes <= 0 then invalid_arg "Vte.create: bytes";
  let chunk_bytes = Size_class.bytes (Size_class.of_size bytes) in
  {
    base;
    bytes;
    chunk_bytes;
    phys;
    privileged;
    global_perm;
    sub = Array.make sub_array_capacity 0;
    used = 0;
    overflow = [];
  }

let vacant () =
  {
    base = 0;
    bytes = 0;
    chunk_bytes = 0;
    phys = 0;
    privileged = false;
    global_perm = None;
    sub = [||];
    used = 0;
    overflow = [];
  }

let base t = t.base
let bytes t = t.bytes
let phys t = t.phys
let privileged t = t.privileged
let global_perm t = t.global_perm
let covers t va = va >= t.base && va < t.base + t.bytes

let translate t va =
  if not (covers t va) then invalid_arg "Vte.translate: not covered";
  t.phys + (va - t.base)

(* Sub-array slot holding [pd] at or after [i], or -1. A toplevel loop,
   not a local closure, so that a probe allocates nothing. *)
let rec sub_slot sub pd i used =
  if i = used then -1
  else if sub.(i) <> 0 && pd_of sub.(i) = pd then i
  else sub_slot sub pd (i + 1) used

let find_sub t pd = sub_slot t.sub pd 0 t.used

(* The first free slot: below [used], or [used] itself; -1 when full. *)
let rec free_slot t i =
  if i = t.used then (if i < Array.length t.sub then i else -1)
  else if t.sub.(i) = 0 then i
  else free_slot t (i + 1)

let rec overflow_find pd = function
  | [] -> 0
  | s :: rest -> if pd_of s = pd then s else overflow_find pd rest

let perm_for t ~pd =
  match t.global_perm with
  | Some p -> p
  | None ->
      let i = find_sub t pd in
      Perm.of_bits (if i >= 0 then t.sub.(i) else overflow_find pd t.overflow)

let overflow_lookup_needed t ~pd =
  match t.global_perm with
  | Some _ -> false
  | None -> ( match t.overflow with [] -> false | _ :: _ -> find_sub t pd < 0)

let set_perm t ~pd perm =
  (* Remove any existing binding first, then insert. *)
  let i = find_sub t pd in
  if i >= 0 then t.sub.(i) <- 0;
  (match t.overflow with
  | [] -> ()
  | _ :: _ -> t.overflow <- List.filter (fun s -> pd_of s <> pd) t.overflow);
  if not (Perm.equal perm Perm.none) then begin
    let i = free_slot t 0 in
    if i >= 0 then begin
      t.sub.(i) <- pack pd perm;
      if i = t.used then t.used <- i + 1
    end
    else t.overflow <- pack pd perm :: t.overflow
  end

let has_pd t ~pd = find_sub t pd >= 0 || overflow_find pd t.overflow <> 0

let iter_sharers f t =
  for i = 0 to t.used - 1 do
    if t.sub.(i) <> 0 then f (pd_of t.sub.(i))
  done;
  match t.overflow with [] -> () | l -> List.iter (fun s -> f (pd_of s)) l

let sharer_count t =
  Array.fold_left (fun n s -> if s <> 0 then n + 1 else n) (List.length t.overflow) t.sub

let resize t ~bytes =
  if bytes <= 0 || bytes > t.chunk_bytes then invalid_arg "Vte.resize";
  t.bytes <- bytes

let clear_perms t =
  Array.fill t.sub 0 (Array.length t.sub) 0;
  t.used <- 0;
  t.overflow <- []
