(** Fleet request spans with exact integer-ps phase attribution.

    Every fleet request — completed or shed — gets one span whose
    end-to-end latency decomposes into six exclusive phases: time queued at
    the balancer, the request wire hop, the member queue, the cold start,
    service, and the response wire hop. The route decision itself is an
    instant (it happens at the arrival event), so it carries no phase of
    its own. As with {!Span}, the phases are built from independent event
    timestamps, and {!conservation_ok} checks that they sum exactly to the
    end-to-end latency — the qcheck-enforced identity that catches any
    mis-stamped cross-shard message. *)

type phase =
  | Balancer_queue  (** Arrival to route decision (0 in the current LB). *)
  | Wire  (** Balancer -> member one-way hop. *)
  | Member_queue  (** Delivery to service start at the member. *)
  | Cold_start  (** PD/VMA warm-up charged when the entry was cold. *)
  | Service  (** Calibrated compute (jittered). *)
  | Response_wire  (** Member -> balancer one-way hop. *)

val phase_count : int
val phase_index : phase -> int
val all_phases : phase array
val phase_name : phase -> string

type outcome =
  | Completed
  | Shed_lb  (** No routable server: the span never left the balancer. *)
  | Shed_member  (** Queue-full drop: wire hops only. *)

val outcome_name : outcome -> string

type t = {
  req_id : int;  (** Arrival index — identical at any [--shards] count. *)
  user : int;
  fn : string;
  member : int;  (** -1 when shed at the balancer. *)
  lb_hit : bool;
  cold : bool;
  outcome : outcome;
  submit_ps : int;
  end_ps : int;
  phases : int array;  (** By {!phase_index}; length {!phase_count}. *)
}

val e2e_ps : t -> int
val phase_ps : t -> phase -> int
val sum_phases : t -> int

val row : t -> Report.row
(** The span's phase split as a report row, labelled ["#id fn@mM"] plus
    ["*"] when the member paid a cold start. *)

val conservation_ok : t -> bool
(** Phases are non-negative and sum exactly to [e2e_ps]
    ({!Report.violations}). *)

val to_json_line : keep:string -> t -> string
(** One compact JSONL object (no trailing newline); [keep] is the
    retention reason recorded by the sampler. *)

val of_json : Jord_util.Json.t -> (string * t, string) result
(** Inverse of {!to_json_line}: [(keep_reason, span)]. *)
