(** The online SLO plane: streaming span completion feeding the windowed
    SLO core ({!Rollup}) at sim time.

    The pipeline rides the {!Jord_faas.Trace} emit sink ({!attach}): every
    event a server/orchestrator emits is folded into an incremental span
    (the same {!Span.feed} the post-hoc builder uses, which is why the
    online aggregates are {e exactly} equal to the post-hoc fold — the
    qcheck suite asserts integer-ps equality). Each event advances the
    core's watermark; each decided root becomes one {!Rollup.observe}: a
    completion in the window of its end with its end-to-end latency, a
    shed root (queue-full drop, deadline timeout) as budget-consuming with
    no latency, in the window of the shedding instant. The adapter itself
    keeps only the exact end-to-end and per-phase sums.

    Windows, burn rates, the fire rule and the verdict cells are the
    core's. Fire/resolve transitions are emitted as [Alert] trace events
    (with [req_id = -1]) so Perfetto timelines show SLO breaches against
    the spans that caused them. *)

type objective_snapshot = {
  s_objective : Slo.objective;
  s_completed : int;
  s_shed : int;
  s_bad : int;  (** Includes [s_shed]. *)
  s_e2e_sum_ps : int;  (** Exact integer sum over completed roots. *)
  s_phase_sum_ps : int array;  (** Indexed by {!Span.phase_index}; exact. *)
  s_sketch : Jord_telemetry.Sketch.t;  (** All completions. *)
  s_quantile_ps : int;  (** [s_sketch] at the objective's percentile. *)
  s_windows_closed : int;
  s_fired : int;
  s_resolved : int;
  s_firing : bool;
  s_windows : Rollup.closed_window list;  (** Chronological. *)
}

type t

val create : Slo.objective list -> t

val rollup : t -> Rollup.t
(** The windowed core the adapter feeds. *)

val attach : t -> Jord_faas.Trace.t -> unit
(** Install {!observe} as the tracer's emit sink and emit the core's
    transitions into the tracer as [Alert] events. *)

val observe : t -> Jord_faas.Trace.event -> unit
(** Feed one event (events must arrive in emission order). System events
    ([req_id < 0], e.g. this pipeline's own alerts) are ignored. *)

val finish : t -> now_ps:int -> unit
(** {!Rollup.finish}: close every window that started before the end of
    the run (plus any later one holding a root). Call once, after the
    engine drains; reports are stable afterwards. *)

val replay :
  objectives:Slo.objective list -> ?finish_ps:int ->
  Jord_faas.Trace.event list -> t
(** Offline evaluation of a recorded trace: feed every event in order and
    {!finish} at [finish_ps] (default: the last event's timestamp). Live
    and replayed pipelines over the same events produce identical
    snapshots. *)

val snapshot : t -> objective_snapshot list

val register_metrics :
  t -> ?labels:(string * string) list -> Jord_telemetry.Registry.t -> unit
(** Register the [jord_slo_*] families ([requests/bad/shed/windows_closed/
    alerts_fired/alerts_resolved] counters and [firing]/
    [budget_remaining_ratio] gauges), one instance per objective, labeled
    [slo=<name>]. *)

val report_text : t -> string
(** Per-objective verdict table plus the alert log. *)

val alerts_text : t -> string
val burn_text : t -> string
(** Alert log alone / per-window burn-rate table with a sparkline. *)

val report_json : t -> string
val alerts_json : t -> string
(** Machine-readable snapshot / alert log (the CI artifact). *)

val burn_csv : t -> string
(** One row per (objective, closed window). *)
