(** The windowed-SLO core.

    Declarative objectives ({!Slo}) over tumbling event-time windows with
    the multi-window burn-rate rule, fed one observation per decided
    request: [(at_ps, fn, latency_ps, shed, trace_id)]. The fleet load
    balancer feeds it directly (the fleet models servers at request
    granularity); the single-node {!Online} plane folds trace spans into
    the same observations. Latencies aggregate into one mergeable
    {!Jord_telemetry.Sketch} per objective; everything is integer-ps and
    event-time driven, so the verdict table is byte-identical at any shard
    count.

    An observation lands in window [at_ps / window_ps]. Several windows
    may be open at once; they close in index order once the watermark
    ({!advance}) passes their end. Closing a window records its counts and
    burn rates, promotes its exemplar and evaluates the fire rule: fire
    while both the fast and the slow burn reach [burn_threshold]. Empty
    windows burn nothing and resolve a firing alert. *)

type transition = {
  tr_at_ps : int;  (** The closing window's end. *)
  tr_objective : string;
  tr_firing : bool;  (** [true] = fire, [false] = resolve. *)
  tr_window : int;  (** Index of the window whose close transitioned. *)
  tr_burn_fast : float;
  tr_burn_slow : float;
}

type closed_window = {
  cw_index : int;
  cw_total : int;  (** Requests decided in the window (completed + shed). *)
  cw_bad : int;  (** Over-threshold completions plus shed requests. *)
  cw_burn_fast : float;
  cw_burn_slow : float;
  cw_firing : bool;  (** Alert state after this window's evaluation. *)
  cw_exemplar_ps : int;  (** -1 when the window carried no trace ids. *)
  cw_exemplar : int;  (** The window's max-latency trace id, or -1. *)
}

(** What the core announces while it runs. [Candidate]: an observation
    became its open window's max-latency trace (a tracer parks the span).
    [Promoted]: the window closed on it (the tracer pins the parked span
    into the retained set). [Transition]: a window close fired or resolved
    the objective's alert. *)
type event =
  | Candidate of { objective : string; id : int }
  | Promoted of { objective : string; id : int; window : int }
  | Transition of transition

type t

val create : Slo.objective list -> t
val objectives : t -> Slo.objective list

val set_hook : t -> (event -> unit) -> unit
(** Install the one event consumer (replacing any earlier one). *)

val advance : t -> now_ps:int -> unit
(** Move the watermark to [now_ps] (never backwards) and close every
    window that ended by then. *)

val observe :
  t -> at_ps:int -> fn:string -> latency_ps:int -> shed:bool -> trace_id:int -> unit
(** Record one decided request for entry function [fn] in the window of
    [at_ps]. A shed request consumes budget without a latency; a completed
    one is bad only if the objective is latency-kind and [latency_ps]
    exceeds its threshold. [trace_id] (-1 = untraced) feeds the
    exemplar machinery: the window and whole-run max-latency observations
    remember it, ties toward the smaller id so exemplars are drain-order
    independent. Raises [Invalid_argument] when the window has already
    closed or after {!finish}. Allocates nothing unless the hook fires
    (one call per fleet request). *)

val finish : t -> now_ps:int -> unit
(** Advance to [now_ps], then close every window that started before the
    watermark plus any later window holding an observation. Call once
    after the run drains; reports are stable afterwards. *)

type row = {
  r_objective : Slo.objective;
  r_requests : int;  (** Decided requests matching the objective. *)
  r_bad : int;  (** Budget-consuming requests (includes [r_shed]). *)
  r_shed : int;
  r_sketch : Jord_telemetry.Sketch.t;
      (** The live whole-run latency sketch (completions only); copy it
          before keeping it. *)
  r_quantile_ps : int;  (** Sketch at the objective's percentile. *)
  r_budget_used : float;  (** Percent of the error budget consumed. *)
  r_windows_closed : int;
  r_fired : int;
  r_resolved : int;
  r_firing : bool;
  r_verdict : string;  (** ["met"], ["VIOLATED"], ["FIRING"], ["no-data"]. *)
  r_exemplar_ps : int;  (** -1 when the run carried no trace ids. *)
  r_exemplar : int;  (** Max-latency retained trace id, or -1. *)
}

val rows : t -> row list

val windows : t -> (string * closed_window list) list
(** Closed-window history per objective, oldest first. *)

val transitions : t -> transition list
(** Chronological, across objectives. *)

val verdict_header : string list

val verdict_cells : row -> string list
(** One verdict-table row under {!verdict_header}; both report tables
    (this one and {!Online}'s) render from it. *)

val transition_line : transition -> string

val alert_log : t -> string
(** ["alerts:"] and one indented {!transition_line} per transition (or
    ["  none"]). *)

val report_text : t -> string
(** Verdict table with an exemplar column, plus the alert log. *)

val report_json : t -> string

val report_csv : t -> string
(** Flat CSV in the {!Report.blame_csv} convention: a header line, then one
    row per (objective, closed window) with the objective-level columns
    repeated; an objective with no closed windows emits a single row with
    [window = -1]. *)

val parse_csv : string -> ((string * string) list list, string) result
(** Inverse of {!report_csv}: each data line becomes a
    [(column, value)] assoc list keyed by the header. *)
