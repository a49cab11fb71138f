(** The offline Perfetto export of a server trace.

    [chrome_json] writes the live export's document
    ({!Jord_faas.Trace.chrome_events}: track metadata plus one entry per
    event) with [ph:"s"]/[ph:"f"] flow arrows added for parent->child
    spawns (flow id = child request id) and forward->arrive wire hops
    (flow ids offset by [2^30]). The blame profiles are
    {!Report.blame_json} and {!Report.blame_csv}. *)

val chrome_json :
  ?orch_cores:int list -> events:Jord_faas.Trace.event list -> Span.result -> string
