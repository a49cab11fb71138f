type kind =
  | Arrive
  | Dispatch
  | Start
  | Segment
  | Suspend
  | Resume
  | Complete
  | Forward
  | Drop
  | Timeout
  | Retry
  | Crash
  | Recover
  | Duplicate
  | Alert
  | ServerDown
  | ServerUp

type event = {
  at_ps : int;
  kind : kind;
  req_id : int;
  root_id : int;
  parent_id : int;
  fn : string;
  core : int;
  sid : int;
  dur_ps : int;
  stall_ps : int;
  detail : string;
}

type t = {
  ring : event option array;
  mutable next : int;
  mutable total : int;
  mutable sink : (event -> unit) option;
}

let create ?(capacity = 65536) () =
  if capacity <= 0 then invalid_arg "Trace.create";
  { ring = Array.make capacity None; next = 0; total = 0; sink = None }

let set_sink t sink = t.sink <- sink

let emit t ~at_ps ~kind ~req_id ~root_id ?(parent_id = -1) ~fn ~core ?(sid = 0)
    ?(dur_ps = 0) ?(stall_ps = 0) ?(detail = "") () =
  let e =
    { at_ps; kind; req_id; root_id; parent_id; fn; core; sid; dur_ps; stall_ps; detail }
  in
  t.ring.(t.next) <- Some e;
  t.next <- (t.next + 1) mod Array.length t.ring;
  t.total <- t.total + 1;
  match t.sink with None -> () | Some f -> f e

(* Re-emit an already-built event (the cluster's post-run merge of
   per-shard rings): same ring append and sink fan-out as [emit]. *)
let emit_event t e =
  t.ring.(t.next) <- Some e;
  t.next <- (t.next + 1) mod Array.length t.ring;
  t.total <- t.total + 1;
  match t.sink with None -> () | Some f -> f e

let length t = Int.min t.total (Array.length t.ring)
let total_emitted t = t.total
let capacity t = Array.length t.ring
let truncated t = t.total > Array.length t.ring

let iter t f =
  let cap = Array.length t.ring in
  let n = length t in
  let start = if t.total <= cap then 0 else t.next in
  for i = 0 to n - 1 do
    match t.ring.((start + i) mod cap) with
    | Some e -> f e
    | None -> invalid_arg "Trace.iter: ring corrupted"
  done

let fold t ~init f =
  let acc = ref init in
  iter t (fun e -> acc := f !acc e);
  !acc

let events t =
  List.rev (fold t ~init:[] (fun acc e -> e :: acc))

let kind_name = function
  | Arrive -> "arrive"
  | Dispatch -> "dispatch"
  | Start -> "start"
  | Segment -> "segment"
  | Suspend -> "suspend"
  | Resume -> "resume"
  | Complete -> "complete"
  | Forward -> "forward"
  | Drop -> "drop"
  | Timeout -> "timeout"
  | Retry -> "retry"
  | Crash -> "crash"
  | Recover -> "recover"
  | Duplicate -> "duplicate"
  | Alert -> "alert"
  | ServerDown -> "server_down"
  | ServerUp -> "server_up"

let kind_of_name = function
  | "arrive" -> Some Arrive
  | "dispatch" -> Some Dispatch
  | "start" -> Some Start
  | "segment" -> Some Segment
  | "suspend" -> Some Suspend
  | "resume" -> Some Resume
  | "complete" -> Some Complete
  | "forward" -> Some Forward
  | "drop" -> Some Drop
  | "timeout" -> Some Timeout
  | "retry" -> Some Retry
  | "crash" -> Some Crash
  | "recover" -> Some Recover
  | "duplicate" -> Some Duplicate
  | "alert" -> Some Alert
  | "server_down" -> Some ServerDown
  | "server_up" -> Some ServerUp
  | _ -> None

let us_of_ps ps = float_of_int ps /. 1e6

(* --- Chrome/Perfetto trace-event JSON: the one writer behind the live
   export below, the offline one with flow arrows and the fleet's
   balancer/member tracks --- *)

let chrome_meta ~pid ?tid ~name what =
  let open Jord_util.Json in
  Obj
    ([ ("ph", String "M"); ("pid", Int pid); ("name", String what) ]
    @ (match tid with Some tid -> [ ("tid", Int tid) ] | None -> [])
    @ [ ("args", Obj [ ("name", String name) ]) ])

let chrome_flow ~ph ~id ~pid ~tid ~ts_ps ~name =
  let open Jord_util.Json in
  Obj
    ([
       ("ph", String ph);
       ("id", Int id);
       ("cat", String name);
       ("name", String name);
       ("pid", Int pid);
       ("tid", Int tid);
       ("ts", Float (us_of_ps ts_ps));
     ]
    @ if ph = "f" then [ ("bp", String "e") ] else [])

let chrome_document evs =
  Jord_util.Json.(to_string (Obj [ ("traceEvents", List evs) ]))

(* Process/thread metadata: Perfetto shows named tracks instead of bare
   tids. One process per server (pid = sid + 1, pid 0 is reserved), one
   thread per core that appears in the events. *)
let chrome_metadata ~orch_cores events =
  let seen = Hashtbl.create 16 in
  let sids = Hashtbl.create 4 in
  List.iter
    (fun e ->
      if e.core >= 0 then Hashtbl.replace seen (e.sid, e.core) ();
      Hashtbl.replace sids e.sid ())
    events;
  let procs =
    Hashtbl.fold
      (fun sid () acc ->
        chrome_meta ~pid:(sid + 1) ~name:(Printf.sprintf "jord server %d" sid) "process_name"
        :: acc)
      sids []
  in
  let threads =
    Hashtbl.fold
      (fun (sid, core) () acc ->
        let name =
          if List.mem core orch_cores then Printf.sprintf "orchestrator (core %d)" core
          else Printf.sprintf "core %d" core
        in
        chrome_meta ~pid:(sid + 1) ~tid:core ~name "thread_name" :: acc)
      seen []
  in
  List.sort compare procs @ List.sort compare threads

let chrome_entry e =
  let open Jord_util.Json in
  let common =
    [
      ("name", String (e.fn ^ "/" ^ kind_name e.kind));
      ("pid", Int (e.sid + 1));
      ("tid", Int (Int.max 0 e.core));
      ("ts", Float (us_of_ps e.at_ps));
      ( "args",
        Obj
          ([ ("req", Int e.req_id); ("root", Int e.root_id); ("fn", String e.fn) ]
          @ (if e.parent_id < 0 then [] else [ ("parent", Int e.parent_id) ])
          @ (if e.stall_ps = 0 then [] else [ ("vm_stall_us", Float (us_of_ps e.stall_ps)) ])
          @ if e.detail = "" then [] else [ ("detail", String e.detail) ]) );
    ]
  in
  (* SLO transitions and server lifecycle changes are process-global
     markers: they belong to no request and must line up against every
     track in Perfetto. *)
  let global name =
    Obj
      (("ph", String "i") :: ("s", String "g") :: ("name", String name)
      :: List.filter (fun (k, _) -> k <> "name") common)
  in
  match e.kind with
  | Segment -> Obj (("ph", String "X") :: ("dur", Float (us_of_ps e.dur_ps)) :: common)
  | Alert -> global (Printf.sprintf "slo:%s:%s" e.fn e.detail)
  | ServerDown -> global (Printf.sprintf "server%d:down" e.sid)
  | ServerUp -> global (Printf.sprintf "server%d:up" e.sid)
  | Arrive | Dispatch | Start | Suspend | Resume | Complete | Forward | Drop
  | Timeout | Retry | Crash | Recover | Duplicate ->
      Obj (("ph", String "i") :: ("s", String "t") :: common)

let chrome_events ?(orch_cores = []) events =
  chrome_metadata ~orch_cores events @ List.map chrome_entry events

let to_chrome_json ?orch_cores t = chrome_document (chrome_events ?orch_cores (events t))

let to_text ?limit t =
  let evs = events t in
  let evs =
    match limit with
    | Some l when List.length evs > l ->
        List.filteri (fun i _ -> i >= List.length evs - l) evs
    | Some _ | None -> evs
  in
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "%12.3fus core=%-3d %-8s req=%-6d root=%-6d %s%s%s\n"
           (float_of_int e.at_ps /. 1e6)
           e.core (kind_name e.kind) e.req_id e.root_id e.fn
           (if e.dur_ps > 0 then Printf.sprintf " (%.3fus)" (float_of_int e.dur_ps /. 1e6)
            else "")
           (if e.detail = "" then "" else Printf.sprintf " [%s]" e.detail)))
    evs;
  Buffer.contents buf

let clear t =
  Array.fill t.ring 0 (Array.length t.ring) None;
  t.next <- 0;
  t.total <- 0
