type t = {
  shards : Shard.t array;
  lookahead : Time.t;
  mutable scratch : Shard.msg array;
  (* Reusable per-barrier gather array; holds refs to pooled outbox slots
     only within one [drain] call. *)
}

let create ~shards ~lookahead =
  if shards <= 0 then invalid_arg "Epoch.create: shards must be positive";
  if lookahead <= 0 then invalid_arg "Epoch.create: lookahead must be positive";
  {
    shards = Array.init shards (fun id -> Shard.create ~id ~shards ~lookahead);
    lookahead;
    scratch = [||];
  }

let shards t = Array.length t.shards
let shard t i = t.shards.(i)
let engine t i = Shard.engine t.shards.(i)
let lookahead t = t.lookahead

let push_scratch t i (m : Shard.msg) =
  if i >= Array.length t.scratch then begin
    let cap' = Int.max 64 ((i + 1) * 2) in
    let scratch' = Array.make cap' m in
    Array.blit t.scratch 0 scratch' 0 (Array.length t.scratch);
    t.scratch <- scratch'
  end;
  t.scratch.(i) <- m

(* Ascending (at, sid, seq); seq is unique per source shard, and remaining
   cross-source ties keep gather order (ascending source id) because the
   insertion sort below is stable. *)
let msg_before (a : Shard.msg) (b : Shard.msg) =
  a.at < b.at || (a.at = b.at && (a.sid < b.sid || (a.sid = b.sid && a.seq < b.seq)))

let insertion_sort (arr : Shard.msg array) len =
  for i = 1 to len - 1 do
    let m = arr.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && msg_before m arr.(!j) do
      arr.(!j + 1) <- arr.(!j);
      decr j
    done;
    arr.(!j + 1) <- m
  done

let drain t =
  let n = Array.length t.shards in
  let total = ref 0 in
  for d = 0 to n - 1 do
    let len = ref 0 in
    for s = 0 to n - 1 do
      if s <> d then begin
        let slots, l = Shard.take_outbox t.shards.(s) ~dst:d in
        for i = 0 to l - 1 do
          push_scratch t !len slots.(i);
          incr len
        done
      end
    done;
    if !len > 0 then begin
      insertion_sort t.scratch !len;
      let dst = Shard.engine t.shards.(d) in
      for i = 0 to !len - 1 do
        let m = t.scratch.(i) in
        Engine.schedule_posted dst ~time:m.at ~posted_at:m.posted_at ~sid:m.sid m.fn
      done;
      total := !total + !len
    end
  done;
  Array.iter Shard.reset_outboxes t.shards;
  !total

let next_event_time t =
  Array.fold_left
    (fun acc s ->
      match (acc, Engine.next_time (Shard.engine s)) with
      | None, x | x, None -> x
      | Some a, Some b -> Some (if b < a then b else a))
    None t.shards

let run ?until ?runner t =
  let n = Array.length t.shards in
  let run_epoch upto =
    let body i = Engine.run_window (Shard.engine t.shards.(i)) ~until:upto in
    match runner with
    | Some r when n > 1 -> r body n
    | _ ->
        for i = 0 to n - 1 do
          body i
        done
  in
  let rec loop () =
    ignore (drain t : int);
    match next_event_time t with
    | None -> ()
    | Some start ->
        let beyond = match until with Some u -> start > u | None -> false in
        if not beyond then begin
          let epoch_end = Time.(start + t.lookahead - 1) in
          let epoch_end =
            match until with Some u when epoch_end > u -> u | _ -> epoch_end
          in
          run_epoch epoch_end;
          loop ()
        end
  in
  loop ();
  (* Mirror [Engine.run ~until]: the horizon is covered even on shards that
     drained early (or never had an event at all), so busy fractions and
     trace end-stamps read the same in sequential and sharded runs. At this
     point no shard holds an event <= until, so this only advances [now]. *)
  match until with
  | Some u ->
      Array.iter (fun s -> Engine.run (Shard.engine s) ~until:u) t.shards
  | None -> ()

let processed t =
  Array.fold_left (fun acc s -> acc + Engine.processed (Shard.engine s)) 0 t.shards

let pending t =
  Array.fold_left
    (fun acc s -> acc + Engine.pending (Shard.engine s) + Shard.pending_messages s)
    0 t.shards
