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

module Bitset = Jord_util.Bitset

(* Every set is a [words]-long slice: [routable] on its own, level [l] at
   [l * words] of [levels] and entry [e]'s warm set at [e * words] of
   [warm]. Level [l] holds the servers with [l] or fewer requests in
   flight, for [l < spill], so a route or a completion moves one bit: the
   server leaves level [o] as its count passes [o], and rejoins it as the
   count falls back to [o]. *)
type t = {
  pol : policy;
  servers : int;
  words : int;
  spill : int;
  out : int array;  (* by server *)
  routable : int array;
  levels : int array;
  warm : int array;
  mutable rr : int;
  mutable hit : bool;
}

let create pol ~servers ~entries ~spill =
  if servers < 1 || entries < 0 || spill < 1 then invalid_arg "Lb.create";
  let words = Bitset.words_for servers in
  let t =
    {
      pol;
      servers;
      words;
      spill;
      out = Array.make servers 0;
      routable = Array.make words 0;
      levels = Array.make (spill * words) 0;
      warm = Array.make (entries * words) 0;
      rr = 0;
      hit = false;
    }
  in
  for s = 0 to servers - 1 do
    Bitset.add t.routable 0 s;
    for l = 0 to spill - 1 do
      Bitset.add t.levels (l * words) s
    done
  done;
  t

let policy t = t.pol
let hit t = t.hit
let outstanding t s = t.out.(s)

let check t s = if s < 0 || s >= t.servers then invalid_arg "Lb: server out of range"

let routable t s =
  check t s;
  Bitset.mem t.routable 0 s

let set_routable t s r =
  check t s;
  if r then Bitset.add t.routable 0 s else Bitset.remove t.routable 0 s

let route t s =
  let o = t.out.(s) in
  t.out.(s) <- o + 1;
  if o < t.spill then Bitset.remove t.levels (o * t.words) s

let complete t s =
  let o = t.out.(s) in
  if o <= 0 then invalid_arg "Lb.complete: nothing in flight";
  t.out.(s) <- o - 1;
  if o <= t.spill then Bitset.add t.levels ((o - 1) * t.words) s

(* The first word at which the set at [base] in [set] meets level [l],
   or [words] when they are disjoint. *)
let[@inline] meet t set base l =
  let lbase = l * t.words and w = ref 0 in
  while !w < t.words && set.(base + !w) land t.levels.(lbase + !w) = 0 do
    incr w
  done;
  !w

(* The lowest id with the fewest requests in flight among the members of
   the set at [base] in [set], if that count is below [spill]; else -1.
   Levels only grow with [l], so the lowest level the set meets is found
   by bisection: at most [ceil (log2 (spill + 1))] intersections of
   [words] words each. The members the set shares with that level all sit
   exactly on it. *)
let lowest_below_spill t set base =
  let lo = ref 0 and hi = ref t.spill and at = ref 0 in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let w = meet t set base mid in
    if w < t.words then begin
      hi := mid;
      at := w
    end
    else lo := mid + 1
  done;
  if !hi = t.spill then -1
  else Bitset.member_at !at (set.(base + !at) land t.levels.((!hi * t.words) + !at))

(* Lowest id among routable servers with minimal outstanding, or -1. Only
   when every routable server holds [spill] or more does it scan. *)
let least_outstanding t =
  let s = lowest_below_spill t t.routable 0 in
  if s >= 0 then s
  else begin
    let best = ref (-1) and best_out = ref max_int in
    for i = 0 to t.servers - 1 do
      if Bitset.mem t.routable 0 i then begin
        let o = t.out.(i) in
        if o < !best_out then begin
          best := i;
          best_out := o
        end
      end
    done;
    !best
  end

(* The first routable server at or after the cursor, wrapping once. *)
let round_robin t =
  let s = Bitset.next_member t.routable 0 t.words t.rr in
  let s = if s >= 0 then s else Bitset.next_member t.routable 0 t.words 0 in
  if s >= 0 then t.rr <- (s + 1) mod t.servers;
  s

let pick t ~entry =
  t.hit <- false;
  match t.pol with
  | Round_robin -> round_robin t
  | Least_outstanding -> least_outstanding t
  | Affinity ->
      (* Members that stopped being routable (drained or down) leave the
         entry's warm set. *)
      let base = entry * t.words in
      for w = 0 to t.words - 1 do
        t.warm.(base + w) <- t.warm.(base + w) land t.routable.(w)
      done;
      let b = lowest_below_spill t t.warm base in
      if b >= 0 then begin
        t.hit <- true;
        b
      end
      else begin
        (* Spill: open the entry on the least-loaded server and remember
           the new warm route. *)
        let s = least_outstanding t in
        if s >= 0 then Bitset.add t.warm base s;
        s
      end

let forget t s =
  check t s;
  for e = 0 to (Array.length t.warm / t.words) - 1 do
    Bitset.remove t.warm (e * t.words) s
  done
