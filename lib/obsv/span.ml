module Trace = Jord_faas.Trace

type phase = Queue_wait | Backoff | Run | Vm_stall | Wire | Suspend_wait

let phase_count = 6
let phase_index = function
  | Queue_wait -> 0
  | Backoff -> 1
  | Run -> 2
  | Vm_stall -> 3
  | Wire -> 4
  | Suspend_wait -> 5

let all_phases = [| Queue_wait; Backoff; Run; Vm_stall; Wire; Suspend_wait |]

let phase_name = function
  | Queue_wait -> "queue_wait"
  | Backoff -> "backoff"
  | Run -> "run"
  | Vm_stall -> "vm_stall"
  | Wire -> "wire"
  | Suspend_wait -> "suspend_wait"

type state = Queued | Running | Suspended | Done

type seg = { t0 : int; t1 : int; core : int; seg_sid : int }

type t = {
  req_id : int;
  root_id : int;
  parent_id : int;
  fn : string;
  mutable sid : int;
  mutable born : int;  (** First Arrive timestamp; -1 when lost to wraparound. *)
  mutable end_ps : int;  (** Complete.at + dur; -1 until complete. *)
  mutable mark : int;  (** Attribution frontier: every ps below it is credited. *)
  mutable state : state;
  mutable wire_open : bool;  (** Last credit was a Forward: next gap is wire. *)
  phases : int array;  (** ps per phase, indexed by [phase_index]. *)
  mutable timeline : (phase * int * int) list;  (** Reversed (newest first). *)
  mutable segs : seg list;  (** Executor occupancy, reversed. *)
  mutable crashes : int;
  mutable retries : int;
  mutable hops : int;
  mutable partial : bool;  (** Born lost to ring wraparound. *)
  mutable dead : bool;  (** Shed (queue_full / deadline): never completes. *)
  mutable anomalies : int;  (** Events observed below the mark (should be 0). *)
}

let e2e_ps sp = if sp.end_ps >= 0 && sp.born >= 0 then sp.end_ps - sp.born else 0
let complete sp = sp.state = Done && sp.born >= 0 && not sp.partial

type result = {
  spans : (int, t) Hashtbl.t;  (** By req_id. *)
  order : int list;  (** req_ids in first-appearance order. *)
  children : (int, int list) Hashtbl.t;  (** parent req_id -> children, in order. *)
  truncated : bool;
  total_events : int;
}

let credit sp ph ~t0 ~t1 =
  if t1 > t0 then begin
    sp.phases.(phase_index ph) <- sp.phases.(phase_index ph) + (t1 - t0);
    sp.timeline <- (ph, t0, t1) :: sp.timeline
  end

(* Credit the interval between the attribution frontier and [a] to the
   phase implied by the span's state, then advance the frontier. Events at
   or below the frontier (Suspend is emitted at segment start by design)
   leave it untouched, so the credited total always telescopes. *)
let gap sp a =
  if sp.mark < 0 then begin
    (* No Arrive retained (ring wraparound): anchor here, span is partial. *)
    sp.partial <- true;
    sp.mark <- a
  end
  else if a > sp.mark then begin
    let ph =
      if sp.wire_open then Wire
      else match sp.state with Suspended -> Suspend_wait | _ -> Queue_wait
    in
    credit sp ph ~t0:sp.mark ~t1:a;
    sp.mark <- a
  end
  else if a < sp.mark then sp.anomalies <- sp.anomalies + 1

(* A duration-bearing event: [stall] ps of its [dur] are VM time. *)
let credit_work sp ~a ~dur ~stall ~core =
  gap sp a;
  let stall = Int.max 0 (Int.min stall dur) in
  credit sp Run ~t0:sp.mark ~t1:(sp.mark + dur - stall);
  credit sp Vm_stall ~t0:(sp.mark + dur - stall) ~t1:(sp.mark + dur);
  if dur > 0 then
    sp.segs <- { t0 = sp.mark; t1 = sp.mark + dur; core; seg_sid = sp.sid } :: sp.segs;
  sp.mark <- sp.mark + dur

let fresh (e : Trace.event) =
  {
    req_id = e.Trace.req_id;
    root_id = e.Trace.root_id;
    parent_id = e.Trace.parent_id;
    fn = e.Trace.fn;
    sid = e.Trace.sid;
    born = -1;
    end_ps = -1;
    mark = -1;
    state = Queued;
    wire_open = false;
    phases = Array.make phase_count 0;
    timeline = [];
    segs = [];
    crashes = 0;
    retries = 0;
    hops = 0;
    partial = false;
    dead = false;
    anomalies = 0;
  }

let feed sp (e : Trace.event) =
  let a = e.Trace.at_ps in
  sp.sid <- e.Trace.sid;
  match e.Trace.kind with
  | Trace.Arrive ->
      if sp.born < 0 && sp.mark < 0 then begin
        sp.born <- a;
        sp.mark <- a
      end
      else begin
        gap sp a;
        sp.wire_open <- false
      end;
      sp.state <- Queued
  | Trace.Forward ->
      gap sp a;
      sp.wire_open <- true;
      sp.hops <- sp.hops + 1;
      sp.state <- Queued
  | Trace.Retry ->
      gap sp a;
      credit sp Backoff ~t0:sp.mark ~t1:(sp.mark + e.Trace.dur_ps);
      sp.mark <- sp.mark + e.Trace.dur_ps;
      sp.retries <- sp.retries + 1
  | Trace.Start ->
      gap sp a;
      sp.state <- Running
  | Trace.Segment ->
      credit_work sp ~a ~dur:e.Trace.dur_ps ~stall:e.Trace.stall_ps ~core:e.Trace.core
  | Trace.Suspend ->
      (* Emitted at segment start; the wait begins at the segment's end
         (the current mark), so only the state flips here. *)
      if a > sp.mark then gap sp a;
      sp.state <- Suspended
  | Trace.Resume ->
      gap sp a;
      sp.state <- Running
  | Trace.Complete ->
      credit_work sp ~a ~dur:e.Trace.dur_ps ~stall:e.Trace.stall_ps ~core:e.Trace.core;
      sp.end_ps <- sp.mark;
      sp.state <- Done
  | Trace.Crash ->
      credit_work sp ~a ~dur:e.Trace.dur_ps ~stall:e.Trace.stall_ps ~core:e.Trace.core;
      sp.crashes <- sp.crashes + 1;
      sp.state <- Queued
  | Trace.Timeout -> sp.dead <- true
  | Trace.Drop -> if e.Trace.detail <> "peer_dead" then sp.dead <- true
  | Trace.Dispatch | Trace.Recover | Trace.Duplicate | Trace.Alert
  | Trace.ServerDown | Trace.ServerUp ->
      ()

let build ?(truncated = false) iter_events =
  let spans = Hashtbl.create 1024 in
  let children = Hashtbl.create 256 in
  let order = ref [] in
  let total = ref 0 in
  iter_events (fun (e : Trace.event) ->
      incr total;
      if e.Trace.req_id < 0 then () (* system events (alerts) span nothing *)
      else
      let sp =
        match Hashtbl.find_opt spans e.Trace.req_id with
        | Some sp -> sp
        | None ->
            let sp = fresh e in
            Hashtbl.add spans e.Trace.req_id sp;
            order := e.Trace.req_id :: !order;
            if e.Trace.parent_id >= 0 then
              Hashtbl.replace children e.Trace.parent_id
                (e.Trace.req_id
                :: (Option.value ~default:[] (Hashtbl.find_opt children e.Trace.parent_id)));
            sp
      in
      feed sp e);
  Hashtbl.iter (fun k v -> Hashtbl.replace children k (List.rev v)) children;
  { spans; order = List.rev !order; children; truncated; total_events = !total }

let of_trace tr = build ~truncated:(Trace.truncated tr) (Trace.iter tr)

let find r id = Hashtbl.find_opt r.spans id
let children_of r id = Option.value ~default:[] (Hashtbl.find_opt r.children id)

let iter_spans r f = List.iter (fun id -> f (Hashtbl.find r.spans id)) r.order

let roots r =
  List.rev
    (List.fold_left
       (fun acc id ->
         let sp = Hashtbl.find r.spans id in
         if sp.parent_id < 0 && sp.req_id = sp.root_id then sp :: acc else acc)
       [] r.order)

let timeline sp = List.rev sp.timeline
let segments sp = List.rev sp.segs

let row sp =
  {
    Report.id = sp.req_id;
    fn = sp.fn;
    label = Printf.sprintf "#%d %s" sp.req_id sp.fn;
    e2e_ps = e2e_ps sp;
    phases = sp.phases;
  }

let complete_roots r = List.filter complete (roots r)

(* The conservation identity over every complete span, plus the events
   that arrived below a span's attribution frontier: either means an
   instrumentation hole. *)
let conservation_violations r =
  List.concat_map
    (fun id ->
      let sp = Hashtbl.find r.spans id in
      if not (complete sp) then []
      else
        Report.violations [ row sp ]
        @
        if sp.anomalies = 0 then []
        else
          [
            Printf.sprintf "req %d (%s): %d events below the attribution frontier" sp.req_id
              sp.fn sp.anomalies;
          ])
    r.order

let stats r =
  let total = ref 0 and done_ = ref 0 and dead = ref 0 and partial = ref 0 in
  iter_spans r (fun sp ->
      incr total;
      if sp.state = Done then incr done_;
      if sp.dead then incr dead;
      if sp.partial then incr partial);
  (!total, !done_, !dead, !partial)
