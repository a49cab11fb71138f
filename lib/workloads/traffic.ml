type flash = { at_us : float; dur_us : float; boost : float }

type shape = {
  users : int;
  zipf_s : float;
  rate_mrps : float;
  diurnal_amp : float;
  diurnal_period_us : float;
  flash : flash list;
  seed : int;
}

let steady =
  {
    users = 1_000_000;
    zipf_s = 1.1;
    rate_mrps = 8.0;
    diurnal_amp = 0.0;
    diurnal_period_us = 2000.0;
    flash = [];
    seed = 11;
  }

let presets =
  [
    ("steady", steady);
    ("diurnal", { steady with diurnal_amp = 0.5 });
    ("flash", { steady with flash = [ { at_us = 800.0; dur_us = 300.0; boost = 3.0 } ] });
    ( "ci",
      {
        users = 100_000;
        zipf_s = 1.1;
        rate_mrps = 8.0;
        diurnal_amp = 0.5;
        diurnal_period_us = 1000.0;
        flash = [ { at_us = 600.0; dur_us = 200.0; boost = 3.0 } ];
        seed = 11;
      } );
  ]

(* Caps the Zipf alias table at 1.2 GB and keeps its indices in 4 bytes. *)
let max_users = 100_000_000

(* Every check is written so NaN fails it, and every float must be finite:
   a NaN or infinite rate, period or window would stall the generator. *)
let validate t =
  let finite = List.for_all Float.is_finite in
  if t.users < 1 then Error "traffic: users must be >= 1"
  else if t.users > max_users then
    Error (Printf.sprintf "traffic: users must be <= %d" max_users)
  else if not (t.zipf_s >= 0.0 && finite [ t.zipf_s ]) then
    Error "traffic: zipf must be finite and >= 0"
  else if not (t.rate_mrps > 0.0 && finite [ t.rate_mrps ]) then
    Error "traffic: rate must be finite and > 0"
  else if not (t.diurnal_amp >= 0.0 && t.diurnal_amp < 1.0) then
    Error "traffic: amp must be in [0, 1)"
  else if not (t.diurnal_period_us > 0.0 && finite [ t.diurnal_period_us ]) then
    Error "traffic: period-us must be finite and > 0"
  else if
    not
      (List.for_all
         (fun f ->
           f.at_us >= 0.0 && f.dur_us > 0.0 && f.boost >= 1.0
           && finite [ f.at_us; f.dur_us; f.boost ])
         t.flash)
  then Error "traffic: each flash needs finite at>=0, dur>0, boost>=1"
  else Ok ()

let g = Jord_util.Render.shortest

let flash_to_string fs =
  String.concat "+" (List.map (fun f -> Printf.sprintf "%s:%s:%s" (g f.at_us) (g f.dur_us) (g f.boost)) fs)

let flash_of_string s =
  let window w =
    match String.split_on_char ':' w |> List.map float_of_string_opt with
    | [ Some at_us; Some dur_us; Some boost ] -> Ok { at_us; dur_us; boost }
    | _ -> Error (Printf.sprintf "traffic: bad flash window %S (want AT:DUR:BOOST)" w)
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | w :: rest -> ( match window w with Ok f -> go (f :: acc) rest | Error _ as e -> e)
  in
  go [] (String.split_on_char '+' s |> List.filter (fun w -> w <> ""))

(* Spec grammar mirrors Fault_inject.Plan: preset name, key=value list, or
   preset seeded with overrides. *)
let parse spec =
  let apply base kv =
    match String.index_opt kv '=' with
    | None -> Error (Printf.sprintf "traffic: expected key=value, got %S" kv)
    | Some i -> (
        let key = String.sub kv 0 i in
        let v = String.sub kv (i + 1) (String.length kv - i - 1) in
        let f () =
          match float_of_string_opt v with
          | Some f -> Ok f
          | None -> Error (Printf.sprintf "traffic: bad float %S for %s" v key)
        in
        let ( >>| ) r g = match r with Ok x -> Ok (g x) | Error _ as e -> e in
        match key with
        | "users" -> (
            match int_of_string_opt v with
            | Some u -> Ok { base with users = u }
            | None -> Error (Printf.sprintf "traffic: bad int %S for users" v))
        | "seed" -> (
            match int_of_string_opt v with
            | Some s -> Ok { base with seed = s }
            | None -> Error (Printf.sprintf "traffic: bad int %S for seed" v))
        | "zipf" -> f () >>| fun x -> { base with zipf_s = x }
        | "rate" | "rate-mrps" | "rate_mrps" -> f () >>| fun x -> { base with rate_mrps = x }
        | "amp" | "diurnal-amp" | "diurnal_amp" ->
            f () >>| fun x -> { base with diurnal_amp = x }
        | "period-us" | "period_us" ->
            f () >>| fun x -> { base with diurnal_period_us = x }
        | "flash" -> (
            match flash_of_string v with
            | Ok fs -> Ok { base with flash = fs }
            | Error _ as e -> e)
        | _ -> Error (Printf.sprintf "traffic: unknown key %S" key))
  in
  let parts =
    String.split_on_char ',' spec |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  let base, rest =
    match parts with
    | first :: rest when List.mem_assoc first presets ->
        (List.assoc first presets, rest)
    | _ -> (steady, parts)
  in
  let rec go acc = function
    | [] -> Ok acc
    | kv :: rest -> ( match apply acc kv with Ok acc -> go acc rest | Error _ as e -> e)
  in
  match go base rest with
  | Error _ as e -> e
  | Ok t -> ( match validate t with Ok () -> Ok t | Error m -> Error m)

let to_string t =
  let base =
    Printf.sprintf "users=%d,zipf=%s,rate=%s,amp=%s,period-us=%s" t.users (g t.zipf_s)
      (g t.rate_mrps) (g t.diurnal_amp) (g t.diurnal_period_us)
  in
  let flash = if t.flash = [] then "" else ",flash=" ^ flash_to_string t.flash in
  Printf.sprintf "%s%s,seed=%d" base flash t.seed

let describe t =
  let diurnal =
    if t.diurnal_amp > 0.0 then
      Printf.sprintf " diurnal(amp=%g,period=%gus)" t.diurnal_amp t.diurnal_period_us
    else ""
  in
  let flash =
    if t.flash = [] then "" else Printf.sprintf " flash=%s" (flash_to_string t.flash)
  in
  Printf.sprintf "users=%d zipf=%g rate=%g MRPS%s%s seed=%d" t.users t.zipf_s
    t.rate_mrps diurnal flash t.seed

let two_pi = 8.0 *. atan 1.0

(* The product of the boosts of the flash windows active at [us], in list
   order. A loop, not a fold, so the thinning test that inlines it
   allocates nothing. *)
let[@inline] boost flash us =
  let acc = ref 1.0 and fs = ref flash and go = ref true in
  while !go do
    match !fs with
    | [] -> go := false
    | f :: rest ->
        if us >= f.at_us && us < f.at_us +. f.dur_us then acc := !acc *. f.boost;
        fs := rest
  done;
  !acc

let[@inline] rate_boosted t us boost =
  t.rate_mrps *. (1.0 +. (t.diurnal_amp *. sin (two_pi *. us /. t.diurnal_period_us))) *. boost

let rate_at t ~us = rate_boosted t us (boost t.flash us)

(* [rate_at]'s extremes before flash boosts, at sin = -1 and sin = +1.
   Rounding is monotone and [rate_boosted] multiplies in the same order,
   so [diurnal_lo t *. b <= rate_boosted t us b <= diurnal_hi t *. b]. *)
let diurnal_lo t = t.rate_mrps *. (1.0 -. t.diurnal_amp)
let diurnal_hi t = t.rate_mrps *. (1.0 +. t.diurnal_amp)

let rate_bounds t ~us =
  let b = boost t.flash us in
  (diurnal_lo t *. b, diurnal_hi t *. b)

let peak_rate t = diurnal_hi t *. List.fold_left (fun acc f -> acc *. f.boost) 1.0 t.flash

(* Vose alias table over the Zipf rank weights (r+1)^-s: O(users) to build,
   O(1) per draw, and a pure function of (users, s) — no PRNG involved.

   12 bytes per user: [prob] is the weight array, scaled in place, and the
   alias indices are 4-byte ints in [alias] (users <= 1e8 < 2^31). The
   build adds one 4-byte work array holding both stacks — small grows up
   from 0, large down from n-1; an index sits on at most one of them, so
   they never meet — and so peaks at 16 bytes per user. Each arithmetic
   step is that of the textbook two-stack construction, in the same
   order, so the table is bitwise the one it gives. *)
type alias = { prob : float array; alias : Bytes.t }

let get32 b i = Int32.to_int (Bytes.get_int32_le b (4 * i))
let set32 b i v = Bytes.set_int32_le b (4 * i) (Int32.of_int v)

let alias_build weights =
  let n = Array.length weights in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let scaled = weights in
  for i = 0 to n - 1 do
    scaled.(i) <- scaled.(i) *. float_of_int n /. total
  done;
  let alias = Bytes.create (4 * n) and work = Bytes.create (4 * n) in
  let ns = ref 0 and nl = ref 0 in
  let push_small i =
    set32 work !ns i;
    incr ns
  and push_large i =
    set32 work (n - 1 - !nl) i;
    incr nl
  in
  for i = 0 to n - 1 do
    if scaled.(i) < 1.0 then push_small i else push_large i
  done;
  while !ns > 0 && !nl > 0 do
    decr ns;
    decr nl;
    let s = get32 work !ns and l = get32 work (n - 1 - !nl) in
    (* No prob.(s) store: [scaled] is [prob], and s has left both stacks,
       so scaled.(s) is final. *)
    set32 alias s l;
    scaled.(l) <- scaled.(l) +. scaled.(s) -. 1.0;
    if scaled.(l) < 1.0 then push_small l else push_large l
  done;
  (* Whatever is left on either stack is its own alias with prob 1. *)
  let leftover i =
    scaled.(i) <- 1.0;
    set32 alias i i
  in
  for k = 0 to !ns - 1 do
    leftover (get32 work k)
  done;
  for k = 0 to !nl - 1 do
    leftover (get32 work (n - 1 - k))
  done;
  { prob = scaled; alias }

let alias_prob a i = a.prob.(i)
let alias_index a i = get32 a.alias i

let alias_of_shape t =
  alias_build (Array.init t.users (fun r -> (float_of_int (r + 1)) ** -.t.zipf_s))

type arrival = { at : Jord_sim.Time.t; user : int }

(* Arrivals are made [batch] at a time into the buffers of [t]. *)
let batch = 64

type t = {
  shape : shape;
  zipf : alias;
  prng : Jord_util.Prng.t;
  lam_max : float;
  gap_mean : float;  (* 1 / lam_max, boxed once here rather than per draw *)
  lo : float;  (* diurnal_lo shape *)
  hi : float;  (* diurnal_hi shape *)
  duration_us : float;
  mutable t_us : float;  (* the last candidate's time *)
  mutable ended : bool;  (* a candidate reached the horizon: no more draws *)
  at : int array;  (* the batch's arrival times, ps *)
  user : int array;  (* alias columns, then resolved users *)
  coin : float array;
  mutable len : int;
  mutable pos : int;  (* next arrival of the batch to hand out *)
  mutable produced : int;
}

let make shape ~duration_us =
  (match validate shape with Ok () -> () | Error m -> invalid_arg ("Traffic.make: " ^ m));
  if duration_us <= 0.0 then invalid_arg "Traffic.make: duration_us must be > 0";
  let lam_max = peak_rate shape in
  {
    shape;
    zipf = alias_of_shape shape;
    prng = Jord_util.Prng.create ~seed:shape.seed;
    lam_max;
    gap_mean = 1.0 /. lam_max;
    lo = diurnal_lo shape;
    hi = diurnal_hi shape;
    duration_us;
    t_us = 0.0;
    ended = false;
    at = Array.make batch 0;
    user = Array.make batch 0;
    coin = Array.make batch 0.0;
    len = 0;
    pos = 0;
    produced = 0;
  }

(* Thinning (Lewis–Shedler): candidate arrivals at the constant envelope
   rate, each accepted with probability rate_at/lam_max. Rejected draws
   consume PRNG state too, so the stream is one deterministic sequence:
   per candidate the gap, then the acceptance draw, then — if accepted —
   the alias column and coin. The acceptance draw is first held against
   [rate_at]'s bounds at this instant, so [sin] runs only when it falls
   between them. The users are resolved after the batch: the table reads
   consume no draws, so their cache misses overlap. *)
let refill t =
  let module Prng = Jord_util.Prng in
  let n = Array.length t.zipf.prob in
  let us = ref t.t_us and k = ref 0 in
  while !k < batch && not t.ended do
    us := !us +. Jord_util.Sample.exponential t.prng ~mean:t.gap_mean;
    if !us >= t.duration_us then t.ended <- true
    else begin
      let u = Prng.float t.prng t.lam_max in
      let b = boost t.shape.flash !us in
      if u < t.lo *. b || (u < t.hi *. b && u < rate_boosted t.shape !us b) then begin
        t.at.(!k) <- Jord_sim.Time.of_us !us;
        t.user.(!k) <- Prng.int t.prng n;
        t.coin.(!k) <- Prng.float t.prng 1.0;
        incr k
      end
    end
  done;
  t.t_us <- !us;
  for i = 0 to !k - 1 do
    let c = t.user.(i) in
    if not (t.coin.(i) < t.zipf.prob.(c)) then t.user.(i) <- alias_index t.zipf c
  done;
  t.len <- !k;
  t.pos <- 0

let next t =
  if t.pos = t.len && not t.ended then refill t;
  if t.pos = t.len then None
  else begin
    let i = t.pos in
    t.pos <- i + 1;
    t.produced <- t.produced + 1;
    Some { at = t.at.(i); user = t.user.(i) }
  end

let generated t = t.produced

let pregen shape ~duration_us =
  let t = make shape ~duration_us in
  let acc = ref [] in
  let rec go () =
    match next t with
    | Some a ->
        acc := a :: !acc;
        go ()
    | None -> ()
  in
  go ();
  Array.of_list (List.rev !acc)

(* SplitMix64 finalizer over (seed, user); top 53 bits as a uniform. *)
let hash01 ~seed ~user =
  let open Int64 in
  let z = add (mul (of_int (user + 1)) 0x9E3779B97F4A7C15L) (of_int seed) in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = logxor z (shift_right_logical z 31) in
  Int64.to_float (shift_right_logical z 11) /. 9007199254740992.0
