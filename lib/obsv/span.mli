(** Causal span building and per-phase latency attribution.

    Folds a {!Jord_faas.Trace} event stream into one span per invocation
    (request id), linked into a tree per root request via [parent_id].
    Every picosecond between a span's birth (first Arrive) and its end
    (Complete + duration) is credited to exactly one phase, maintained as
    an advancing attribution frontier ([mark]): duration-bearing events
    credit their own length, and the gap up to each event is credited to
    the phase implied by the span's state (queueing, wire transit, or
    waiting on children).

    Conservation identity (checked by {!conservation_violations} and the
    qcheck suite): for every complete span,

    {v queue_wait + backoff + run + vm_stall + wire + suspend_wait
       = end_to_end v}

    exactly, in integer picoseconds. This holds because the executor emits
    durations rounded with the same {!Jord_sim.Time.of_ns} the engine uses
    to schedule the corresponding lifecycle events. *)

type phase = Queue_wait | Backoff | Run | Vm_stall | Wire | Suspend_wait

val phase_count : int
val phase_index : phase -> int
val all_phases : phase array
val phase_name : phase -> string

type state = Queued | Running | Suspended | Done

type seg = { t0 : int; t1 : int; core : int; seg_sid : int }

type t = {
  req_id : int;
  root_id : int;
  parent_id : int;
  fn : string;
  mutable sid : int;
  mutable born : int;
  mutable end_ps : int;
  mutable mark : int;
  mutable state : state;
  mutable wire_open : bool;
  phases : int array;
  mutable timeline : (phase * int * int) list;
  mutable segs : seg list;
  mutable crashes : int;
  mutable retries : int;
  mutable hops : int;
  mutable partial : bool;
  mutable dead : bool;
  mutable anomalies : int;
}

val e2e_ps : t -> int
val complete : t -> bool
(** Finished with a retained birth: attribution covers its whole life. *)


type result = {
  spans : (int, t) Hashtbl.t;
  order : int list;
  children : (int, int list) Hashtbl.t;
  truncated : bool;
  total_events : int;
}

val fresh : Jord_faas.Trace.event -> t
(** A new span keyed by the event's ids, before any attribution. *)

val feed : t -> Jord_faas.Trace.event -> unit
(** Advance a span's attribution with its next event (events must arrive in
    emission order). {!build} is a fold of [feed] over a whole trace; the
    online SLO pipeline calls it one event at a time as the simulation
    runs, which is how the streaming aggregates end up exactly equal to the
    post-hoc fold. *)

val build : ?truncated:bool -> ((Jord_faas.Trace.event -> unit) -> unit) -> result
(** [build iter] folds the events produced by [iter] (oldest first) into
    spans. Pass [~truncated:true] when the source ring wrapped so reports
    flag the analysis as covering a suffix of the run only. *)

val of_trace : Jord_faas.Trace.t -> result
(** {!build} over a live ring via {!Jord_faas.Trace.iter} (no list
    materialization), truncation flagged automatically. *)

val find : result -> int -> t option
val children_of : result -> int -> int list
val iter_spans : result -> (t -> unit) -> unit
(** First-appearance order. *)

val roots : result -> t list
(** Spans of root requests (depth 0), oldest first. *)

val complete_roots : result -> t list

val row : t -> Report.row
(** The span's own phase split as a report row, labelled ["#id fn"]. *)

val timeline : t -> (phase * int * int) list
(** Chronological attributed intervals. *)

val segments : t -> seg list
(** Chronological executor-occupancy segments (with core and server). *)

val conservation_violations : result -> string list
(** One message per complete span violating the conservation identity
    ({!Report.violations}) or holding events below its attribution
    frontier; [[]] means every attributed picosecond is accounted for. *)

val stats : result -> int * int * int * int
(** (spans, completed, shed, partial). *)
