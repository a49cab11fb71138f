(** Declarative SLO objectives and their burn-rate alert rules.

    An objective states a latency target over a workload: "the [percentile]
    latency of roots entering [fn] stays under [threshold_ps], with an
    error budget of [budget] (the fraction of requests allowed to miss the
    threshold — shed requests count as misses)". The online pipeline
    ({!Online}) evaluates it over tumbling sim-time windows of [window_ps]
    and runs the Google-SRE multi-window burn-rate rule: the alert fires
    when the budget burn rate over the last [fast_windows] windows {e and}
    over the last [slow_windows] windows both reach [burn_threshold], and
    resolves as soon as either recovers. Burn rate 1.0 means consuming the
    budget exactly as fast as allowed. *)

type kind =
  | Latency  (** Bad = completed over [threshold_ps], or shed. *)
  | Availability
      (** Bad = shed/failed only; completions are good at any latency.
          States "at least [1 - budget] of roots complete" — the natural
          objective under whole-server fault plans, where crash windows
          shed work without inflating tail latency. *)

type objective = {
  name : string;  (** Unique within a spec; labels alerts and metrics. *)
  fn : string option;  (** Entry-function filter; [None] matches all roots. *)
  kind : kind;  (** What consumes the budget; [Latency] is the default. *)
  percentile : float;  (** Reported quantile, in (0, 100). *)
  threshold_ps : int;  (** Latency bound a request must meet. *)
  window_ps : int;  (** Tumbling evaluation window, sim time. *)
  budget : float;  (** Allowed bad-request fraction, in (0, 1). *)
  fast_windows : int;  (** Short burn-rate horizon, in windows (>= 1). *)
  slow_windows : int;  (** Long horizon, in windows (>= fast). *)
  burn_threshold : float;  (** Fire when both horizons burn >= this. *)
}

val default : objective
(** p99 < 25 us over 250 us windows, 1% budget, 1/4-window horizons,
    burn threshold 1.0 — the ["default"] preset. *)

val presets : (string * objective list) list
(** [none] (empty — the inert spelling), [default], [tight] (p99 < 5 us,
    0.5% budget) and [ci] (p99 < 8 us over 100 us windows, 2% budget). *)

val validate : objective -> (objective, string) result
(** Range checks every parsed objective passes: [0 < p < 100],
    positive threshold and window, [0 < budget < 1],
    [1 <= fast <= slow] and [burn > 0]. *)

val parse : string -> (objective list, string) result
(** Parse a spec: a preset name, a preset with overrides
    (["ci,threshold_us=5"]), or one-or-more inline objectives separated by
    [';'], each a comma-separated [key=value] list over keys [name], [fn],
    [kind] ([latency] or [availability]), [p], [threshold_us], [window_us],
    [budget], [fast], [slow], [burn]. Objective names must be unique. *)

val load : path:string -> (objective list, string) result
(** Parse a spec file: one objective per line ([key=value] lists), blank
    lines and [#] comments ignored. *)

val parse_arg : string -> (objective list, string) result
(** CLI entry point: if the argument names an existing file, {!load} it,
    otherwise {!parse} it as a preset/inline spec. *)

val to_string : objective -> string
(** Canonical [key=value] spelling; [parse]s back to the same objective. *)

val describe : objective -> string
(** Human summary, e.g. ["p99 < 25.0us (budget 1%, 250us windows, burn >= 1.0
    over 1/4 windows)"]. *)
