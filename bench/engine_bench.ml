(* Engine microbenchmark: allocation and throughput on the dispatch-heavy
   path (many concurrent self-rescheduling events, the shape of the
   orchestrator dispatch loop and executor poll loop).

   Three contenders over the same workload:
     boxed      the pre-refactor design, reproduced here as a reference: a
                boxed-entry binary heap (one record per push, option-boxed
                peek/pop) driven with a freshly allocated closure per event
     fresh      the new indexed-heap engine, still allocating a closure per
                event (what naive call sites do)
     reused     the new engine on its fast path: pre-built closures, zero
                per-event allocation

   Prints minor-heap words per event and wall-clock throughput, and fails
   (exit 1) unless the reused path allocates at least 2x less than the
   boxed reference — the regression guard CI runs in --smoke mode.

     dune exec bench/engine_bench.exe            full run (4M events)
     dune exec bench/engine_bench.exe -- --smoke quick CI guard (200k events) *)

module Engine = Jord_sim.Engine

(* --- Reference implementation: the pre-refactor boxed event queue --- *)

module Boxed = struct
  type 'a entry = { time : int; seq : int; payload : 'a }

  type 'a queue = {
    mutable heap : 'a entry array;
    mutable size : int;
    mutable next_seq : int;
    mutable dummy : 'a entry option;
  }

  let create () = { heap = [||]; size = 0; next_seq = 0; dummy = None }
  let less a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

  let swap t i j =
    let tmp = t.heap.(i) in
    t.heap.(i) <- t.heap.(j);
    t.heap.(j) <- tmp

  let rec sift_up t i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if less t.heap.(i) t.heap.(parent) then begin
        swap t i parent;
        sift_up t parent
      end
    end

  let rec sift_down t i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest = ref i in
    if l < t.size && less t.heap.(l) t.heap.(!smallest) then smallest := l;
    if r < t.size && less t.heap.(r) t.heap.(!smallest) then smallest := r;
    if !smallest <> i then begin
      swap t i !smallest;
      sift_down t !smallest
    end

  let push t ~time payload =
    let entry = { time; seq = t.next_seq; payload } in
    t.next_seq <- t.next_seq + 1;
    if t.dummy = None then t.dummy <- Some entry;
    let cap = Array.length t.heap in
    if t.size = cap then begin
      let heap = Array.make (Int.max 16 (cap * 2)) entry in
      Array.blit t.heap 0 heap 0 t.size;
      t.heap <- heap
    end;
    t.heap.(t.size) <- entry;
    t.size <- t.size + 1;
    sift_up t (t.size - 1)

  let pop t =
    if t.size = 0 then None
    else begin
      let top = t.heap.(0) in
      t.size <- t.size - 1;
      if t.size > 0 then begin
        t.heap.(0) <- t.heap.(t.size);
        sift_down t 0
      end;
      (match t.dummy with Some d -> t.heap.(t.size) <- d | None -> ());
      Some (top.time, top.payload)
    end

  let peek_time t = if t.size = 0 then None else Some t.heap.(0).time

  type engine = { queue : (engine -> unit) queue; mutable now : int }

  let run e =
    let continue () = match peek_time e.queue with None -> false | Some _ -> true in
    while continue () do
      match pop e.queue with
      | None -> ()
      | Some (time, f) ->
          e.now <- time;
          f e
    done
end

(* --- Workload: [lanes] concurrent events, each rescheduling itself with a
   deterministic per-lane gap until [total] events have fired. Mirrors the
   server: a handful of always-armed control loops dominating the queue. --- *)

let lanes = 64
let gap lane = 1 + (lane * 7 mod 97)

let bench_boxed total =
  let e = Boxed.{ queue = create (); now = 0 } in
  let fired = ref 0 in
  (* Per-event closure allocation, as the old server did via partial
     application. *)
  let rec tick lane (eng : Boxed.engine) =
    incr fired;
    if !fired < total then Boxed.push eng.queue ~time:(eng.now + gap lane) (tick lane)
  in
  for lane = 0 to lanes - 1 do
    Boxed.push e.queue ~time:(gap lane) (tick lane)
  done;
  Boxed.run e;
  !fired

let bench_fresh total =
  let e = Engine.create () in
  let fired = ref 0 in
  let rec tick lane eng =
    incr fired;
    if !fired < total then
      Engine.schedule eng ~after:(gap lane) (fun eng -> tick lane eng)
  in
  for lane = 0 to lanes - 1 do
    Engine.schedule e ~after:(gap lane) (tick lane)
  done;
  Engine.run e;
  !fired

let bench_reused total =
  let e = Engine.create () in
  let fired = ref 0 in
  (* The fast path: one closure per lane for the whole run. *)
  let fns = Array.make lanes (fun (_ : Engine.t) -> ()) in
  Array.iteri
    (fun lane _ ->
      fns.(lane) <-
        (fun eng ->
          incr fired;
          if !fired < total then Engine.schedule eng ~after:(gap lane) fns.(lane)))
    fns;
  for lane = 0 to lanes - 1 do
    Engine.schedule e ~after:(gap lane) fns.(lane)
  done;
  Engine.run e;
  !fired

(* --- Epoch leg: the conservative parallel core on the same event shape.

   [epoch_shards] shards each run [lanes / epoch_shards] self-rescheduling
   lanes, and one courier closure hops shard to shard through the mailbox
   every epoch, so the barrier path is always exercised. The same loop
   runs once with the sequential runner and once on a domain pool; both
   must execute the identical schedule — equal event counts and equal
   per-shard fire-time checksums — which is the determinism gate. The
   events/sec ratio is printed, and only enforced (> 1x) when the host
   actually has a core per shard. *)

module Epoch = Jord_sim.Epoch
module Shard = Jord_sim.Shard

let epoch_shards = 4
let epoch_lookahead = 4096
let courier_hops = 2_000

(* Per-shard state, touched only by the shard's own domain during an epoch
   (the barrier's fork/join orders the courier's cross-shard handoff). *)
type epoch_cell = { mutable fired : int; mutable checksum : int }

let bench_epoch ~use_pool total =
  let epochs = Epoch.create ~shards:epoch_shards ~lookahead:epoch_lookahead in
  let cells = Array.init epoch_shards (fun _ -> { fired = 0; checksum = 0 }) in
  let per_shard = total / epoch_shards in
  let lanes_per_shard = lanes / epoch_shards in
  for s = 0 to epoch_shards - 1 do
    let eng = Epoch.engine epochs s in
    let cell = cells.(s) in
    let fns = Array.make lanes_per_shard (fun (_ : Engine.t) -> ()) in
    Array.iteri
      (fun lane _ ->
        fns.(lane) <-
          (fun eng ->
            cell.fired <- cell.fired + 1;
            cell.checksum <- cell.checksum + ((Engine.now eng * 31) lxor lane);
            if cell.fired < per_shard then
              Engine.schedule eng ~after:(gap ((s * lanes_per_shard) + lane))
                fns.(lane)))
      fns;
    for lane = 0 to lanes_per_shard - 1 do
      Engine.schedule eng ~after:(gap ((s * lanes_per_shard) + lane)) fns.(lane)
    done
  done;
  let hops = ref courier_hops in
  let rec courier at_shard eng =
    let cell = cells.(at_shard) in
    cell.checksum <- cell.checksum + (Engine.now eng * 7);
    decr hops;
    if !hops > 0 then begin
      let dst = (at_shard + 1) mod epoch_shards in
      let src = Epoch.shard epochs at_shard in
      Shard.post src ~dst
        ~at:(Engine.now eng + epoch_lookahead)
        ~sid:at_shard (courier dst)
    end
  in
  Engine.schedule (Epoch.engine epochs 0) ~after:1 (courier 0);
  let t0 = Unix.gettimeofday () in
  if use_pool then
    Jord_par.Pool.with_pool ~jobs:epoch_shards (fun pool ->
        let runner f n =
          ignore (Jord_par.Pool.parmap pool f (List.init n Fun.id) : unit list)
        in
        Epoch.run ~runner epochs)
  else Epoch.run epochs;
  let dt = Unix.gettimeofday () -. t0 in
  let processed = Epoch.processed epochs in
  let checksum =
    Array.fold_left (fun acc c -> acc lxor c.checksum) 0 cells
  in
  (processed, checksum, dt)

let epoch_leg total =
  ignore (bench_epoch ~use_pool:false (total / 10));
  let p_seq, c_seq, dt_seq = bench_epoch ~use_pool:false total in
  let p_par, c_par, dt_par = bench_epoch ~use_pool:true total in
  let rate dt n = float_of_int n /. dt /. 1e6 in
  Printf.printf "epoch/seq  %9d events  %7.2f Mevents/s (shards=%d, one domain)\n%!"
    p_seq (rate dt_seq p_seq) epoch_shards;
  Printf.printf "epoch/par  %9d events  %7.2f Mevents/s (shards=%d, pooled domains)\n%!"
    p_par (rate dt_par p_par) epoch_shards;
  if p_seq <> p_par || c_seq <> c_par then begin
    Printf.eprintf
      "FAIL: pooled epoch loop diverged from sequential schedule \
       (events %d vs %d, checksum %d vs %d)\n"
      p_seq p_par c_seq c_par;
    exit 1
  end;
  let speedup = dt_seq /. Float.max dt_par 1e-9 in
  let cores = Domain.recommended_domain_count () in
  Printf.printf "epoch speedup: %.2fx on %d cores\n%!" speedup cores;
  Printf.printf "OK: pooled epoch loop executes the identical schedule (checksum %d)\n%!"
    c_seq;
  if cores >= epoch_shards && speedup <= 1.0 then begin
    Printf.eprintf
      "FAIL: the epoch loop must beat one domain when a core per shard is available \
       (got %.2fx on %d cores)\n"
      speedup cores;
    exit 1
  end

let measure name f total =
  Gc.full_major ();
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let fired = f total in
  let dt = Unix.gettimeofday () -. t0 in
  let words = Gc.minor_words () -. w0 in
  let per_event = words /. float_of_int fired in
  Printf.printf "%-8s %9d events  %6.2f words/event  %7.2f Mevents/s\n%!" name fired
    per_event
    (float_of_int fired /. dt /. 1e6);
  per_event

let () =
  let smoke = Array.exists (( = ) "--smoke") Sys.argv in
  let total = if smoke then 200_000 else 4_000_000 in
  Printf.printf "engine dispatch-path microbenchmark (%d lanes, %d events)\n%!" lanes
    total;
  (* Warm both engines once so array growth is off the measured path. *)
  ignore (bench_boxed 10_000 : int);
  ignore (bench_reused 10_000 : int);
  print_string "-- measured --\n";
  let boxed = measure "boxed" bench_boxed total in
  let fresh = measure "fresh" bench_fresh total in
  let reused = measure "reused" bench_reused total in
  let ratio_reused = boxed /. Float.max reused 1e-9 in
  let ratio_fresh = boxed /. Float.max fresh 1e-9 in
  Printf.printf
    "allocation reduction vs boxed reference: reused %.1fx, fresh closures %.1fx\n%!"
    ratio_reused ratio_fresh;
  if ratio_reused < 2.0 then begin
    Printf.eprintf
      "FAIL: reused-closure path must allocate >= 2x less than the boxed reference \
       (got %.2fx)\n"
      ratio_reused;
    exit 1
  end;
  print_string "OK: >= 2x fewer allocations per event on the dispatch path\n";
  Printf.printf "-- epoch loop (conservative parallel, %d shards) --\n%!" epoch_shards;
  epoch_leg total
