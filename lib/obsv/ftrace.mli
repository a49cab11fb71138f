(** Fleet tracer: deterministic tail sampling plus SLO exemplar pinning.

    Owns an {!Fsampler} and listens to the rollup's exemplar events so
    that every exemplar trace id named by a verdict table is guaranteed to
    be present in the saved trace file. The fleet records each finished
    span (with its always-keep rule, if any) immediately before feeding
    the request to {!Rollup.observe}; wire {!on_exemplar} to
    {!Rollup.set_hook} to complete the loop. *)

type t

val create : ?seed:int -> ?reservoir:int -> unit -> t

val offered : t -> int
(** Spans recorded so far (the run's decided-request count). *)

val record : t -> ?keep:string -> Fspan.t -> unit
(** Record one finished span, staging it for exemplar capture and
    offering it to the sampler. Call at most once per request id,
    immediately before the matching {!Rollup.observe}. *)

val on_exemplar : t -> Rollup.event -> unit
(** Parks window-max candidates and pins promoted exemplars (retention
    reason ["exemplar"]); alert transitions are ignored. *)

val retained : t -> (string * Fspan.t) list
(** Final retained set as [(keep_reason, span)], sorted by request id. *)

val retained_ids : t -> int list

val keep_counts : t -> (string * int) list
(** Census of retention reasons, sorted by reason name. *)

val save : path:string -> ?meta:(string * Jord_util.Json.t) list -> t -> unit
(** Write the retained set as JSONL: a header object carrying
    ["jord_fleet_trace"], offered/retained counts, sampler seed and
    reservoir plus [meta], then one compact span object per line.
    {!Tracefile.load} reads it back. *)
