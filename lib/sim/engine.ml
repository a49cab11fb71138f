type t = {
  queue : (t -> unit) Event_queue.t;
  mutable now : Time.t;
  mutable sid : int;  (** Whom the running event acts for; keys its schedules. *)
  mutable processed : int;
  mutable cancelled : int;
}

type handle = Event_queue.handle

let none_handle = Event_queue.none_handle
let create () =
  { queue = Event_queue.create (); now = Time.zero; sid = 0; processed = 0; cancelled = 0 }

let now t = t.now
let set_sid t sid = t.sid <- sid

let schedule_at_handle t ~time f =
  if time < t.now then invalid_arg "Engine.schedule_at: time in the past";
  Event_queue.push_from t.queue ~time ~sched:t.now ~src:t.sid f

let schedule_handle t ~after f =
  if after < 0 then invalid_arg "Engine.schedule: negative delay";
  Event_queue.push_from t.queue ~time:Time.(t.now + after) ~sched:t.now ~src:t.sid f

let schedule_hop_at t ~time f =
  if time < t.now then invalid_arg "Engine.schedule_hop_at: time in the past";
  Event_queue.push_hop t.queue ~time ~sched:t.now ~src:t.sid f

let schedule_posted t ~time ~posted_at ~sid f =
  if time < t.now then invalid_arg "Engine.schedule_posted: time in the past";
  Event_queue.push_hop t.queue ~time ~sched:posted_at ~src:sid f

let schedule_arrival_at t ~time f =
  if time < t.now then invalid_arg "Engine.schedule_arrival_at: time in the past";
  Event_queue.push_arrival t.queue ~time f

let schedule_at t ~time f = ignore (schedule_at_handle t ~time f : handle)
let schedule t ~after f = ignore (schedule_handle t ~after f : handle)

let cancel t h =
  let ok = Event_queue.cancel t.queue h in
  if ok then t.cancelled <- t.cancelled + 1;
  ok

let reschedule t h ~time =
  if time < t.now then invalid_arg "Engine.reschedule: time in the past";
  Event_queue.reschedule_from t.queue h ~time ~sched:t.now ~src:t.sid

let pending_handle t h = Event_queue.holds t.queue h

(* Pop and run the earliest event; the queue must not be empty. *)
let fire t =
  let f = Event_queue.pop_exn t.queue in
  t.now <- Event_queue.popped_time t.queue;
  t.sid <- Event_queue.popped_src t.queue;
  t.processed <- t.processed + 1;
  f t

let step t =
  if Event_queue.is_empty t.queue then false
  else begin
    fire t;
    true
  end

(* Run every event stamped at or before [limit], leaving [now] at the last
   one. *)
let run_upto t limit =
  while (not (Event_queue.is_empty t.queue)) && Event_queue.min_time_exn t.queue <= limit do
    fire t
  done

let run ?until t =
  match until with
  | None -> while step t do () done
  | Some limit ->
      run_upto t limit;
      (* The run covered the whole window: observers (utilization, samplers)
         must see the horizon they asked for, not the last event's stamp. *)
      if t.now < limit then t.now <- limit

(* Epoch body for the conservative parallel core (see [Epoch]): identical
   to [run ~until] except [now] is left at the last processed event. A
   shard that goes idle mid-epoch must NOT fast-forward to the epoch edge —
   a barrier-drained message may still land inside this window, and
   [schedule_at] would reject it as "time in the past". The epoch loop forces
   the caller's horizon exactly once, after the final barrier. *)
let run_window t ~until = run_upto t until

let next_time t = Event_queue.peek_time t.queue

let pending t = Event_queue.length t.queue
let processed t = t.processed
let cancelled t = t.cancelled
