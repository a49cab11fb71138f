(** Offline exporters over a loaded trace.

    [chrome_json] writes the live export's document
    ({!Jord_faas.Trace.chrome_events}: track metadata plus one entry per
    event) with [ph:"s"]/[ph:"f"] flow arrows added for parent->child
    spawns (flow id = child request id) and forward->arrive wire hops
    (flow ids offset by {!hop_flow_base}).  [blame_json] /
    [blame_csv] export the per-function phase attribution and mean
    critical-path blame. *)

val hop_flow_base : int

val chrome_json :
  ?orch_cores:int list -> events:Jord_faas.Trace.event list -> Span.result -> string

val blame_json : Span.result -> string
val blame_csv : Span.result -> string
