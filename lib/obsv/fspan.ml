module Json = Jord_util.Json

(* Fleet request spans: one record per balancer-observed request, with the
   whole end-to-end latency attributed to exclusive integer-ps phases (the
   PR-5 conservation identity at datacenter scale). The fleet's request
   lifecycle is linear — balancer, wire, member, wire back — so the span is
   a flat record rather than a fan-out tree. *)

type phase =
  | Balancer_queue
  | Wire
  | Member_queue
  | Cold_start
  | Service
  | Response_wire

let phase_count = 6

let phase_index = function
  | Balancer_queue -> 0
  | Wire -> 1
  | Member_queue -> 2
  | Cold_start -> 3
  | Service -> 4
  | Response_wire -> 5

let all_phases =
  [| Balancer_queue; Wire; Member_queue; Cold_start; Service; Response_wire |]

let phase_name = function
  | Balancer_queue -> "balancer_queue"
  | Wire -> "wire"
  | Member_queue -> "member_queue"
  | Cold_start -> "cold_start"
  | Service -> "service"
  | Response_wire -> "response_wire"

(* Short JSONL keys, one per phase, in [all_phases] order. *)
let phase_keys = [| "bq"; "w"; "mq"; "cs"; "sv"; "rw" |]

type outcome = Completed | Shed_lb | Shed_member

let outcome_name = function
  | Completed -> "ok"
  | Shed_lb -> "shed-lb"
  | Shed_member -> "shed-member"

let outcome_of_name = function
  | "ok" -> Some Completed
  | "shed-lb" -> Some Shed_lb
  | "shed-member" -> Some Shed_member
  | _ -> None

type t = {
  req_id : int;  (* arrival index: deterministic at any shard count *)
  user : int;
  fn : string;  (* entry function the user hashed to *)
  member : int;  (* serving member; -1 when shed at the balancer *)
  lb_hit : bool;  (* affinity warm-route hit *)
  cold : bool;  (* the member paid a cold start *)
  outcome : outcome;
  submit_ps : int;  (* arrival at the balancer *)
  end_ps : int;  (* completion (or shed decision) at the balancer *)
  phases : int array;  (* indexed by [phase_index], length [phase_count] *)
}

let e2e_ps sp = sp.end_ps - sp.submit_ps
let phase_ps sp ph = sp.phases.(phase_index ph)
let sum_phases sp = Array.fold_left ( + ) 0 sp.phases

(* The request as a report row, labelled for the slowest table with its
   member and a '*' for a cold start. *)
let row sp =
  {
    Report.id = sp.req_id;
    fn = sp.fn;
    label =
      Printf.sprintf "#%d %s@m%d%s" sp.req_id sp.fn sp.member (if sp.cold then "*" else "");
    e2e_ps = e2e_ps sp;
    phases = sp.phases;
  }

(* The conservation identity: phases are exclusive and exhaustive, so their
   exact integer sum must equal the end-to-end latency. A violation means
   the fleet plumbing mis-stamped an event — a tool bug, never data. *)
let conservation_ok sp = Report.violations [ row sp ] = []

let to_json_line ~keep sp =
  let buf = Buffer.create 160 in
  Buffer.add_string buf
    (Printf.sprintf "{\"r\":%d,\"u\":%d,\"f\":\"%s\",\"m\":%d,\"o\":\"%s\""
       sp.req_id sp.user (Json.escape sp.fn) sp.member (outcome_name sp.outcome));
  if sp.lb_hit then Buffer.add_string buf ",\"hit\":1";
  if sp.cold then Buffer.add_string buf ",\"cold\":1";
  Buffer.add_string buf (Printf.sprintf ",\"t\":%d,\"e\":%d" sp.submit_ps sp.end_ps);
  Array.iteri
    (fun i key ->
      if sp.phases.(i) <> 0 then
        Buffer.add_string buf (Printf.sprintf ",\"%s\":%d" key sp.phases.(i)))
    phase_keys;
  Buffer.add_string buf (Printf.sprintf ",\"keep\":\"%s\"}" (Json.escape keep));
  Buffer.contents buf

let int_member ?(default = 0) key j =
  match Json.member key j with Some (Json.Int i) -> i | _ -> default

let str_member ?(default = "") key j =
  match Json.member key j with Some (Json.String s) -> s | _ -> default

let of_json j =
  let oname = str_member "o" j in
  match outcome_of_name oname with
  | None -> Error (Printf.sprintf "unknown span outcome %S" oname)
  | Some outcome ->
      Ok
        ( str_member ~default:"sampled" "keep" j,
          {
            req_id = int_member "r" j;
            user = int_member "u" j;
            fn = str_member "f" j;
            member = int_member ~default:(-1) "m" j;
            lb_hit = int_member "hit" j = 1;
            cold = int_member "cold" j = 1;
            outcome;
            submit_ps = int_member "t" j;
            end_ps = int_member "e" j;
            phases = Array.map (fun key -> int_member key j) phase_keys;
          } )
