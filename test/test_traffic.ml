(* Population traffic generator: the properties the sharded fleet runs
   lean on — schedules are nondecreasing, seed-deterministic, and the same
   whether consumed live or pre-generated. *)

module Traffic = Jord_workloads.Traffic
module Loadgen = Jord_workloads.Loadgen
module Engine = Jord_sim.Engine

let check = Alcotest.(check bool)

(* Small random shapes for the qcheck properties (big populations are
   exercised by the fleet smoke itself). *)
let gen_shape =
  QCheck.Gen.(
    map
      (fun (users, zipf, rate, amp, flash, seed) ->
        {
          Traffic.users = 1 + users;
          zipf_s = float_of_int zipf /. 10.0;
          rate_mrps = 0.5 +. (float_of_int rate /. 10.0);
          diurnal_amp = float_of_int amp /. 10.0;
          diurnal_period_us = 120.0;
          flash =
            (if flash then [ { Traffic.at_us = 40.0; dur_us = 30.0; boost = 3.0 } ]
             else []);
          seed;
        })
      (tup6 (int_bound 500) (int_bound 20) (int_bound 40) (int_bound 9) bool
         (int_bound 1000)))

let arb_shape = QCheck.make ~print:Traffic.to_string gen_shape

let prop_nondecreasing =
  QCheck.Test.make ~name:"arrival times are nondecreasing" ~count:50 arb_shape
    (fun shape ->
      let arr = Traffic.pregen shape ~duration_us:200.0 in
      let ok = ref true in
      Array.iteri
        (fun i a -> if i > 0 then ok := !ok && a.Traffic.at >= arr.(i - 1).Traffic.at)
        arr;
      !ok
      && Array.for_all
           (fun a -> a.Traffic.at >= 0 && a.Traffic.at < Jord_sim.Time.of_us 200.0)
           arr)

let prop_seed_deterministic =
  QCheck.Test.make ~name:"same shape => identical schedule" ~count:30 arb_shape
    (fun shape ->
      Traffic.pregen shape ~duration_us:150.0 = Traffic.pregen shape ~duration_us:150.0)

let prop_seed_sensitive =
  QCheck.Test.make ~name:"different seed => different schedule (given traffic)"
    ~count:30 arb_shape (fun shape ->
      let a = Traffic.pregen shape ~duration_us:200.0 in
      let b =
        Traffic.pregen { shape with Traffic.seed = shape.Traffic.seed + 1 }
          ~duration_us:200.0
      in
      Array.length a < 3 || a <> b)

let prop_live_equals_pregen =
  QCheck.Test.make ~name:"live iteration = pregenerated array" ~count:50 arb_shape
    (fun shape ->
      let pre = Traffic.pregen shape ~duration_us:150.0 in
      let t = Traffic.make shape ~duration_us:150.0 in
      let live = ref [] in
      let rec go () =
        match Traffic.next t with
        | Some a ->
            live := a :: !live;
            go ()
        | None -> ()
      in
      go ();
      Array.of_list (List.rev !live) = pre
      && Traffic.generated t = Array.length pre)

(* The fleet's arrival source: streamed through an engine, one pending
   arrival at a time, the submits land at exactly the pre-generated times
   and users. *)
let prop_stream_equals_pregen =
  QCheck.Test.make ~name:"streamed through an engine = pregenerated array" ~count:50
    arb_shape (fun shape ->
      let pre = Traffic.pregen shape ~duration_us:150.0 in
      let e = Engine.create () in
      let seen = ref [] and max_pending = ref 0 in
      Loadgen.stream_population ~engine:e ~shape ~duration_us:150.0 ~submit:(fun ~user ->
          max_pending := max !max_pending (Engine.pending e);
          seen := (Engine.now e, user) :: !seen);
      Engine.run e;
      List.rev !seen = List.map (fun a -> (a.Traffic.at, a.Traffic.user)) (Array.to_list pre)
      && !max_pending <= 1)

(* The arrival lane: an event scheduled for an arrival's picosecond before
   that arrival was even armed still fires after it. *)
let test_stream_arrivals_first () =
  let shape =
    { (List.assoc "ci" Traffic.presets) with Traffic.users = 1000; rate_mrps = 2.0 }
  in
  let pre = Traffic.pregen shape ~duration_us:50.0 in
  check "two distinct first arrivals" true
    (Array.length pre >= 2 && pre.(0).Traffic.at < pre.(1).Traffic.at);
  let e = Engine.create () in
  let log = ref [] in
  let at1 = pre.(1).Traffic.at in
  Engine.schedule_at e ~time:at1 (fun _ -> log := "normal" :: !log);
  Loadgen.stream_population ~engine:e ~shape ~duration_us:50.0 ~submit:(fun ~user:_ ->
      if Engine.now e <= at1 then log := "arrival" :: !log);
  Engine.run e;
  Alcotest.(check (list string))
    "both arrivals, then the normal event" [ "arrival"; "arrival"; "normal" ]
    (List.rev !log)

(* The textbook two-stack Vose construction, kept as the reference the packed
   in-place table must match bit for bit. *)
let reference_alias weights =
  let n = Array.length weights in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let scaled = Array.map (fun w -> w *. float_of_int n /. total) weights in
  let prob = Array.make n 1.0 and alias = Array.init n Fun.id in
  let small = Array.make n 0 and large = Array.make n 0 in
  let ns = ref 0 and nl = ref 0 in
  for i = 0 to n - 1 do
    if scaled.(i) < 1.0 then begin
      small.(!ns) <- i;
      incr ns
    end
    else begin
      large.(!nl) <- i;
      incr nl
    end
  done;
  while !ns > 0 && !nl > 0 do
    decr ns;
    decr nl;
    let s = small.(!ns) and l = large.(!nl) in
    prob.(s) <- scaled.(s);
    alias.(s) <- l;
    scaled.(l) <- scaled.(l) +. scaled.(s) -. 1.0;
    if scaled.(l) < 1.0 then begin
      small.(!ns) <- l;
      incr ns
    end
    else begin
      large.(!nl) <- l;
      incr nl
    end
  done;
  (prob, alias)

let gen_weights =
  QCheck.Gen.(
    int_range 1 5000 >>= fun n ->
    let uniform = array_repeat n (float_range 1e-6 1.0) in
    let zipf s = return (Array.init n (fun r -> float_of_int (r + 1) ** -.s)) in
    oneof
      [
        map (fun w -> ("uniform", w)) uniform;
        map2
          (fun w k ->
            w.(k) <- 1000.0 *. float_of_int n;
            ("dominant", w))
          uniform (int_bound (n - 1));
        map (fun w -> ("zipf s=0", w)) (zipf 0.0);
        map (fun w -> ("zipf s=3", w)) (zipf 3.0);
      ])

let prop_alias_bitwise =
  QCheck.Test.make ~name:"packed alias table = two-stack Vose, bitwise" ~count:100
    (QCheck.make ~print:(fun (k, w) -> Printf.sprintf "%s n=%d" k (Array.length w)) gen_weights)
    (fun (_, w) ->
      let prob, alias = reference_alias w in
      let a = Traffic.alias_build (Array.copy w) in
      let ok = ref true in
      Array.iteri
        (fun i p ->
          ok :=
            !ok
            && Int64.bits_of_float p = Int64.bits_of_float (Traffic.alias_prob a i)
            && alias.(i) = Traffic.alias_index a i)
        prob;
      !ok)

let prop_roundtrip =
  QCheck.Test.make ~name:"parse (to_string s) = Ok s" ~count:100 arb_shape
    (fun shape -> Traffic.parse (Traffic.to_string shape) = Ok shape)

let prop_fuzz =
  Test_chaos.prop_spec_fuzz
    ~name:"parse: no exception escapes, Ok shapes are finite and round-trip"
    ~parse:Traffic.parse ~to_string:Traffic.to_string ~validate:Traffic.validate
    ~floats:(fun t ->
      Traffic.(
        [ t.zipf_s; t.rate_mrps; t.diurnal_amp; t.diurnal_period_us ]
        @ List.concat_map (fun f -> [ f.at_us; f.dur_us; f.boost ]) t.flash))
    [ "steady"; "diurnal"; "flash"; "ci"; "users="; "seed="; "zipf="; "rate="; "amp=";
      "period-us="; "flash="; "1000000:300:3"; "600:200:3+"; "0:1:1" ]

(* --- the batched stream against the one-at-a-time generator --- *)

(* The stream as it was generated one arrival at a time: per candidate the
   gap, the acceptance draw against [rate_at], and for an accepted one the
   alias column and coin, resolved on the spot. The model [Traffic.next]
   must match draw for draw. *)
module One_at_a_time = struct
  module Prng = Jord_util.Prng

  type t = {
    shape : Traffic.shape;
    zipf : Traffic.alias;
    users : int;
    prng : Prng.t;
    lam_max : float;
    duration_us : float;
    mutable t_us : float;
    mutable produced : int;
  }

  let make (shape : Traffic.shape) ~duration_us =
    {
      shape;
      zipf =
        Traffic.alias_build
          (Array.init shape.users (fun r -> float_of_int (r + 1) ** -.shape.zipf_s));
      users = shape.users;
      prng = Prng.create ~seed:shape.seed;
      lam_max = Traffic.peak_rate shape;
      duration_us;
      t_us = 0.0;
      produced = 0;
    }

  let alias_pick t =
    let i = Prng.int t.prng t.users in
    if Prng.float t.prng 1.0 < Traffic.alias_prob t.zipf i then i
    else Traffic.alias_index t.zipf i

  let rec next t =
    t.t_us <- t.t_us +. Jord_util.Sample.exponential t.prng ~mean:(1.0 /. t.lam_max);
    if t.t_us >= t.duration_us then None
    else if Prng.float t.prng t.lam_max < Traffic.rate_at t.shape ~us:t.t_us then begin
      let user = alias_pick t in
      t.produced <- t.produced + 1;
      Some (Jord_sim.Time.of_us t.t_us, user)
    end
    else next t
end

(* Both streams to the end, step by step: the same (at, user) at every
   step, the same [generated] after it, and both end together. *)
let batched_matches_model shape ~duration_us =
  let t = Traffic.make shape ~duration_us and m = One_at_a_time.make shape ~duration_us in
  let rec go () =
    let got = Option.map (fun a -> (a.Traffic.at, a.Traffic.user)) (Traffic.next t) in
    let want = One_at_a_time.next m in
    got = want
    && Traffic.generated t = m.One_at_a_time.produced
    && (got = None || go ())
  in
  go () && Traffic.next t = None

let batch_duration_us = 150.0

let gen_batch_shape =
  QCheck.Gen.(
    let window =
      map3
        (fun at_us dur_us boost -> { Traffic.at_us; dur_us; boost })
        (float_range 0.0 batch_duration_us)
        (* Some windows are too short to hold an arrival. *)
        (oneof [ float_range 0.001 0.05; float_range 1.0 80.0 ])
        (float_range 1.0 4.0)
    in
    let* users = oneof [ int_range 1 3; int_range 1 2000; return 100_000 ] in
    let* zipf_s = oneofl [ 0.0; 0.8; 1.1; 2.0 ] in
    let* diurnal_amp = oneofl [ 0.0; 0.3; 0.9 ] in
    let* rate_mrps = float_range 0.5 6.0 in
    let* flash = list_size (int_bound 3) window in
    let* seed = int_bound 10_000 in
    return
      { Traffic.users; zipf_s; rate_mrps; diurnal_amp; diurnal_period_us = 90.0; flash; seed })

let prop_batched_matches_model =
  QCheck.Test.make ~name:"traffic: batched stream matches the one-at-a-time model" ~count:60
    (QCheck.make ~print:Traffic.to_string gen_batch_shape)
    (batched_matches_model ~duration_us:batch_duration_us)

(* The edges named outright: no flash and no diurnal term (so no [sin] at
   all), a window that holds no arrival, and overlapping windows whose
   first end falls inside a batch. *)
let test_batched_edges () =
  let base = { (List.assoc "ci" Traffic.presets) with Traffic.users = 5000; rate_mrps = 4.0 } in
  let flat = { base with Traffic.diurnal_amp = 0.0; flash = [] } in
  let empty_window =
    { base with Traffic.flash = [ { Traffic.at_us = 50.0; dur_us = 0.001; boost = 3.0 } ] }
  in
  let overlapping =
    {
      base with
      Traffic.flash =
        [
          { Traffic.at_us = 20.0; dur_us = 40.0; boost = 2.0 };
          { Traffic.at_us = 40.0; dur_us = 60.0; boost = 3.0 };
        ];
    }
  in
  let before shape ~us =
    Array.fold_left
      (fun n a -> if a.Traffic.at < Jord_sim.Time.of_us us then n + 1 else n)
      0
      (Traffic.pregen shape ~duration_us:batch_duration_us)
  in
  check "the short window holds no arrival" true
    (before empty_window ~us:50.0 = before empty_window ~us:50.001);
  check "the first window ends inside a batch" true (before overlapping ~us:60.0 mod 64 <> 0);
  List.iter
    (fun (name, shape) ->
      check name true (batched_matches_model shape ~duration_us:batch_duration_us))
    [ ("flat", flat); ("empty window", empty_window); ("overlapping windows", overlapping) ]

(* [rate_bounds] brackets [rate_at] at any instant: inside and outside
   windows, at their edges, and at the diurnal extremes. *)
let prop_bounds_bracket_rate_at =
  let gen =
    QCheck.Gen.(
      let* shape = gen_shape in
      let* rate_mrps = oneof [ return shape.Traffic.rate_mrps; float_range 1e-9 1e9 ] in
      let shape = { shape with Traffic.rate_mrps } in
      let edges =
        List.concat_map
          (fun f -> [ f.Traffic.at_us; f.Traffic.at_us +. f.Traffic.dur_us ])
          shape.Traffic.flash
      in
      let p = shape.Traffic.diurnal_period_us in
      let* us =
        oneof
          [
            float_range 0.0 1000.0;
            oneofl ((p /. 4.0) :: (3.0 *. p /. 4.0) :: (edges @ [ 0.0 ]));
          ]
      in
      return (shape, us))
  in
  QCheck.Test.make ~name:"traffic: envelope bounds bracket rate_at" ~count:2000
    (QCheck.make
       ~print:(fun (shape, us) -> Printf.sprintf "%s at %h us" (Traffic.to_string shape) us)
       gen)
    (fun (shape, us) ->
      let lo, hi = Traffic.rate_bounds shape ~us in
      let r = Traffic.rate_at shape ~us in
      lo <= r && r <= hi)

(* --- deterministic unit checks --- *)

let test_presets_valid () =
  List.iter
    (fun (name, shape) ->
      (match Traffic.validate shape with
      | Ok () -> ()
      | Error m -> Alcotest.failf "preset %s invalid: %s" name m);
      check (name ^ " roundtrips") true
        (Traffic.parse (Traffic.to_string shape) = Ok shape))
    Traffic.presets

let test_parse_errors () =
  let bad s =
    match Traffic.parse s with
    | Ok _ -> Alcotest.failf "expected parse error for %S" s
    | Error _ -> ()
  in
  bad "users=0";
  bad "rate=0";
  bad "amp=1.5";
  bad "nosuchkey=1";
  bad "flash=1:2";
  bad "flash=100:50:0.5";
  bad "steady,period-us=-1"

(* The alias table keeps 12 bytes per user and 4-byte indices: 10^8 users
   is the most a shape may ask for. *)
let test_users_capped () =
  check "1e8 users accepted" true (Result.is_ok (Traffic.parse "users=100000000"));
  check "1e8 + 1 users rejected" true (Result.is_error (Traffic.parse "users=100000001"));
  check "max_int users rejected" true
    (Result.is_error (Traffic.parse "users=4611686018427387903"))

let test_parse_preset_override () =
  match Traffic.parse "ci,rate=42,users=1234" with
  | Ok s ->
      check "rate" true (s.Traffic.rate_mrps = 42.0);
      check "users" true (s.Traffic.users = 1234);
      check "preset diurnal kept" true (s.Traffic.diurnal_amp > 0.0)
  | Error m -> Alcotest.fail m

let test_flash_boosts_rate () =
  let base =
    {
      Traffic.users = 1000;
      zipf_s = 1.0;
      rate_mrps = 4.0;
      diurnal_amp = 0.0;
      diurnal_period_us = 100.0;
      flash = [];
      seed = 3;
    }
  in
  let flash =
    { base with Traffic.flash = [ { Traffic.at_us = 50.0; dur_us = 50.0; boost = 4.0 } ] }
  in
  check "rate_at inside burst" true
    (Traffic.rate_at flash ~us:60.0 = 4.0 *. Traffic.rate_at base ~us:60.0);
  check "rate_at outside burst" true
    (Traffic.rate_at flash ~us:10.0 = Traffic.rate_at base ~us:10.0);
  let in_window shape =
    Array.fold_left
      (fun acc a ->
        if a.Traffic.at >= Jord_sim.Time.of_us 50.0 then acc + 1 else acc)
      0
      (Traffic.pregen shape ~duration_us:100.0)
  in
  (* 4x the rate in the second half must show up as a lot more arrivals. *)
  check "burst adds arrivals" true (in_window flash > 2 * in_window base)

let test_zipf_skew () =
  let shape =
    {
      Traffic.users = 1000;
      zipf_s = 1.2;
      rate_mrps = 20.0;
      diurnal_amp = 0.0;
      diurnal_period_us = 100.0;
      flash = [];
      seed = 5;
    }
  in
  let arr = Traffic.pregen shape ~duration_us:400.0 in
  let head = ref 0 and tail = ref 0 in
  Array.iter
    (fun a ->
      if a.Traffic.user < 100 then incr head
      else if a.Traffic.user >= 900 then incr tail)
    arr;
  (* The top decile of a Zipf(1.2) population far outweighs the bottom. *)
  check "head heavier than tail" true (!head > 5 * max 1 !tail);
  check "users in range" true
    (Array.for_all (fun a -> a.Traffic.user >= 0 && a.Traffic.user < 1000) arr)

let test_hash01_deterministic () =
  check "stable" true (Traffic.hash01 ~seed:7 ~user:123 = Traffic.hash01 ~seed:7 ~user:123);
  check "in range" true
    (List.for_all
       (fun u ->
         let h = Traffic.hash01 ~seed:9 ~user:u in
         h >= 0.0 && h < 1.0)
       (List.init 1000 Fun.id))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_nondecreasing;
    QCheck_alcotest.to_alcotest prop_seed_deterministic;
    QCheck_alcotest.to_alcotest prop_seed_sensitive;
    QCheck_alcotest.to_alcotest prop_live_equals_pregen;
    QCheck_alcotest.to_alcotest prop_stream_equals_pregen;
    QCheck_alcotest.to_alcotest prop_alias_bitwise;
    QCheck_alcotest.to_alcotest prop_batched_matches_model;
    Alcotest.test_case "traffic: batched stream at window edges" `Quick test_batched_edges;
    QCheck_alcotest.to_alcotest prop_bounds_bracket_rate_at;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_fuzz;
    Alcotest.test_case "presets validate and roundtrip" `Quick test_presets_valid;
    Alcotest.test_case "parse rejects bad specs" `Quick test_parse_errors;
    Alcotest.test_case "users capped at 1e8" `Quick test_users_capped;
    Alcotest.test_case "stream: arrivals fire first at their instant" `Quick
      test_stream_arrivals_first;
    Alcotest.test_case "preset with overrides" `Quick test_parse_preset_override;
    Alcotest.test_case "flash crowd boosts the window" `Quick test_flash_boosts_rate;
    Alcotest.test_case "zipf population is head-heavy" `Quick test_zipf_skew;
    Alcotest.test_case "hash01 deterministic" `Quick test_hash01_deterministic;
  ]
