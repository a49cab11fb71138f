(** JSONL trace files — the interchange between [jordctl run --trace-out]
    and [jordctl trace].

    Line 1 is a header object ([jord_trace] version, emission totals,
    truncation flag, plus caller metadata such as [variant] and
    [orch_cores]); each further line is one event, oldest retained first.
    All times are integer picoseconds, so files round-trip exactly — the
    conservation identity survives save/load, unlike the Chrome export's
    float microseconds.

    {!load} reads both kinds of trace file: these server event traces, and
    the fleet's span files ({!Ftrace.save}: a [jord_fleet_trace] header,
    then one {!Fspan} per line). *)

val save :
  path:string -> ?meta:(string * Jord_util.Json.t) list -> Jord_faas.Trace.t -> unit
(** Write the retained window. [meta] is appended to the header object. *)

type server = {
  events : Jord_faas.Trace.event list;  (** Oldest first. *)
  truncated : bool;
  total_emitted : int;
  capacity : int;
  meta : Jord_util.Json.t;  (** The whole header object. *)
}

type fleet = {
  spans : (string * Fspan.t) list;  (** [(keep_reason, span)], by req id. *)
  offered_total : int;
}

type loaded = Server of server | Fleet of fleet

val load : path:string -> (loaded, string) result
(** Dispatches on the header key; a file with neither header is an
    [Error]. *)

val orch_cores : server -> int list
(** The [orch_cores] header list ([[]] when absent). *)

val spans : server -> Span.result
(** Build the span forest from a loaded file (truncation propagated). *)
