(** Structured execution tracing.

    Records the request lifecycle (arrival, dispatch, execution segments,
    suspensions, completions) and system events (forwards, drops) into a
    bounded ring buffer, exportable as Chrome trace-event JSON
    (chrome://tracing, Perfetto) or a readable text log.

    Events carry causal context ([parent_id] of the spawning invocation,
    [sid] of the emitting server) and exact phase accounting ([dur_ps],
    [stall_ps]) so that {!Jord_obsv} can rebuild per-root span trees and
    attribute every picosecond of end-to-end latency offline.

    Tracing is optional and off by default; the server emits events through
    a sink the harness installs. *)

type kind =
  | Arrive  (** Request received by an orchestrator (external or internal). *)
  | Dispatch  (** Orchestrator placed a request on an executor queue. *)
  | Start  (** Executor began an invocation (setup + ccall done). *)
  | Segment  (** One run segment (until suspend or finish), dur = length. *)
  | Suspend  (** cexit while waiting on children. *)
  | Resume  (** center back into the continuation. *)
  | Complete  (** Invocation subtree finished; dur = teardown + notify cost. *)
  | Forward  (** Request shipped to another worker server. *)
  | Drop  (** Request shed; [detail] carries the reason. *)
  | Timeout  (** External request shed by the deadline policy. *)
  | Retry  (** Dispatch held and retried; dur = backoff until next attempt. *)
  | Crash  (** An invocation crashed mid-flight; dur = wasted work + abort. *)
  | Recover  (** A crashed/abandoned request re-queued for re-execution. *)
  | Duplicate  (** A duplicated wire copy arrived and was deduplicated. *)
  | Alert
      (** An SLO burn-rate alert transition ([detail] is ["fire"] or
          ["resolve"], [fn] the objective name). System-scoped: emitted with
          [req_id = -1] and ignored by span building. *)
  | ServerDown
      (** A whole server crashed ([sid] identifies it; [detail] ["crash"]).
          System-scoped like {!Alert}: [req_id = -1], exported as a
          Perfetto global instant marker. *)
  | ServerUp
      (** A crashed server finished booting and polls again ([detail]
          ["boot"], or ["boot_cold"] after a warm-state loss). System-scoped
          like {!Alert}. *)

type event = {
  at_ps : int;  (** Simulated timestamp. *)
  kind : kind;
  req_id : int;
  root_id : int;
  parent_id : int;  (** Spawning invocation's req_id, -1 for roots. *)
  fn : string;
  core : int;  (** Core involved (-1 when not applicable). *)
  sid : int;  (** Emitting server id (0 outside cluster mode). *)
  dur_ps : int;  (** Duration for span-like events, 0 otherwise. *)
  stall_ps : int;
      (** VM time (VLB misses, VTW walks, shootdown waits) inside [dur_ps],
          attributed to this request. Always [<= dur_ps]; 0 for
          non-isolated variants, whose VM cost is architectural. *)
  detail : string;
      (** Refinement of [kind]: the drop/shed reason ("queue_full",
          "deadline", "peer_dead"), the crash site, ""-when-absent. *)
}

type t

val create : ?capacity:int -> unit -> t
(** Ring buffer of the most recent [capacity] events (default 65536). *)

val set_sink : t -> (event -> unit) option -> unit
(** Install a streaming consumer called with every event as it is emitted
    (before any ring wraparound can lose it) — the hook the online SLO
    pipeline rides. [None] (the default) removes it. The sink runs inside
    {!emit}: it must not re-enter the simulation, though it may itself
    [emit] system events (e.g. alerts), which are delivered back to it. *)

val emit :
  t ->
  at_ps:int ->
  kind:kind ->
  req_id:int ->
  root_id:int ->
  ?parent_id:int ->
  fn:string ->
  core:int ->
  ?sid:int ->
  ?dur_ps:int ->
  ?stall_ps:int ->
  ?detail:string ->
  unit ->
  unit

val emit_event : t -> event -> unit
(** Re-emit an already-built event: same ring append and sink fan-out as
    {!emit}. {!Cluster} uses it to merge per-shard member rings into the
    user's tracer in canonical time order after a sharded run. *)

val length : t -> int
val total_emitted : t -> int

val capacity : t -> int
val truncated : t -> bool
(** True when the ring wrapped: [total_emitted > capacity], i.e. the oldest
    events were overwritten and analyses cover a suffix of the run only. *)

val iter : t -> (event -> unit) -> unit
(** Oldest-retained first, without materializing a list. *)

val fold : t -> init:'a -> ('a -> event -> 'a) -> 'a

val events : t -> event list
(** Oldest first (only the retained window). *)

val kind_name : kind -> string
val kind_of_name : string -> kind option

(** {2 Chrome/Perfetto trace-event JSON}

    The one writer: the live export ({!to_chrome_json}), the offline one
    with flow arrows ([Jord_obsv.Export]) and the fleet's balancer/member
    tracks ([Jord_obsv.Freport]) all build their documents from these. *)

val chrome_events : ?orch_cores:int list -> event list -> Jord_util.Json.t list
(** [ph:"M"] process/thread metadata naming each track (one process per
    server, pid = sid + 1; "core N", or "orchestrator (core N)" for cores
    listed in [orch_cores]), then one entry per event: [ph:"X"] slices for
    segments, thread-scoped instants for the request lifecycle and global
    instants for alerts and server down/up transitions. *)

val chrome_meta : pid:int -> ?tid:int -> name:string -> string -> Jord_util.Json.t
(** [chrome_meta ~pid ?tid ~name what]: a [ph:"M"] metadata event ([what]
    is ["process_name"] or ["thread_name"]). *)

val chrome_flow :
  ph:string -> id:int -> pid:int -> tid:int -> ts_ps:int -> name:string -> Jord_util.Json.t
(** One end of a flow arrow: [ph] is ["s"] (start) or ["f"] (finish,
    bound to the enclosing slice). *)

val chrome_document : Jord_util.Json.t list -> string
(** The envelope: one JSON object whose [traceEvents] member lists the
    events. *)

val to_chrome_json : ?orch_cores:int list -> t -> string
(** {!chrome_events} over the retained events, as a document. *)

val to_text : ?limit:int -> t -> string
(** Human-readable log lines, newest [limit] events (default all retained). *)

val clear : t -> unit
