type policy = Round_robin | Least_outstanding | Affinity

let spellings =
  [
    ("rr", Round_robin);
    ("round-robin", Round_robin);
    ("round_robin", Round_robin);
    ("lo", Least_outstanding);
    ("least-outstanding", Least_outstanding);
    ("least_outstanding", Least_outstanding);
    ("affinity", Affinity);
  ]

let names = [ "rr"; "lo"; "affinity" ]

let parse s =
  match List.assoc_opt (String.lowercase_ascii s) spellings with
  | Some p -> Ok p
  | None ->
      Error
        (Printf.sprintf "unknown LB policy %S (expected %s)" s
           (String.concat "|" names))

let to_string = function
  | Round_robin -> "rr"
  | Least_outstanding -> "lo"
  | Affinity -> "affinity"

type view = {
  routable : bool array;
  outstanding : int array;
  spill : int;
}

(* One entry's warm servers, an unordered set: ids in [ids.(0 .. count-1)]
   and a member byte per server id. *)
type warm = { ids : int array; mutable count : int; member : Bytes.t }

type t = {
  pol : policy;
  mutable rr : int;
  mutable hit : bool;
  warm : warm array;  (* by entry *)
}

let create pol ~servers ~entries =
  {
    pol;
    rr = 0;
    hit = false;
    warm =
      Array.init entries (fun _ ->
          { ids = Array.make servers 0; count = 0; member = Bytes.make servers '\000' });
  }

let policy t = t.pol
let hit t = t.hit

(* Lowest id among routable servers with minimal outstanding, or -1. *)
let least_outstanding v =
  let best = ref (-1) and best_out = ref max_int in
  for i = 0 to Array.length v.routable - 1 do
    if v.routable.(i) then begin
      let o = v.outstanding.(i) in
      if o < !best_out then begin
        best := i;
        best_out := o
      end
    end
  done;
  !best

let round_robin t v =
  let n = Array.length v.routable in
  let found = ref (-1) and tries = ref 0 in
  while !found < 0 && !tries < n do
    let c = t.rr mod n in
    t.rr <- (t.rr + 1) mod n;
    if v.routable.(c) then found := c;
    incr tries
  done;
  !found

(* Swap the last member into slot [i]. *)
let remove_at w i =
  Bytes.set w.member w.ids.(i) '\000';
  w.count <- w.count - 1;
  w.ids.(i) <- w.ids.(w.count)

let add w s =
  if Bytes.get w.member s = '\000' then begin
    Bytes.set w.member s '\001';
    w.ids.(w.count) <- s;
    w.count <- w.count + 1
  end

(* The warm member with the least outstanding, lowest id on ties, or -1.
   Members that stopped being routable (drained or down) leave the set. *)
let best_warm w v =
  let best = ref (-1) and best_out = ref max_int in
  let i = ref 0 in
  while !i < w.count do
    let s = w.ids.(!i) in
    if v.routable.(s) then begin
      let o = v.outstanding.(s) in
      if o < !best_out || (o = !best_out && s < !best) then begin
        best := s;
        best_out := o
      end;
      incr i
    end
    else remove_at w !i
  done;
  !best

let pick t v ~entry =
  t.hit <- false;
  match t.pol with
  | Round_robin -> round_robin t v
  | Least_outstanding -> least_outstanding v
  | Affinity ->
      let w = t.warm.(entry) in
      let b = best_warm w v in
      if b >= 0 && v.outstanding.(b) < v.spill then begin
        t.hit <- true;
        b
      end
      else begin
        (* Spill: open the entry on the least-loaded server and remember
           the new warm route. *)
        let s = least_outstanding v in
        if s >= 0 then add w s;
        s
      end

let forget t sid =
  Array.iter
    (fun w ->
      if Bytes.get w.member sid <> '\000' then begin
        let i = ref 0 in
        while w.ids.(!i) <> sid do
          incr i
        done;
        remove_at w !i
      end)
    t.warm
