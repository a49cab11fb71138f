(** The fleet-only parts of [jordctl trace] over a fleet trace file
    ({!Tracefile.fleet}).

    Fleet spans are flat — one record per request with six exclusive
    phases — so the same rows serve {!Report}'s breakdown and its blame
    report. This module adds what only a fleet has: the retention headline
    (every report's first line says how many spans survived tail sampling
    out of how many requests), the per-member table and LB-imbalance
    summary that close the blame report, and the Perfetto export. *)

val report : Tracefile.fleet -> Report.t
(** Completed requests as rows; the conservation check covers every
    retained span, shed ones included. The blame report's verdict reads
    "verdict: X dominates the fleet p99 tail" and is followed by the
    per-member table (top 16 by retained load, deterministic order) and
    the LB-imbalance line. *)

val chrome_json : Tracefile.fleet -> string
(** Perfetto trace-event document: one process track for the balancer,
    one per member, request/response wire hops drawn as flow arrows. *)
