(** Structured benchmark suite behind [bench/main.exe --json-out] and
    [jordctl bench]: each experiment measures one layer's hot path and
    returns a {!Jord_util.Bench_json.doc} mixing host wall-clock metrics
    (advisory in CI) with deterministic simulated counts and allocation
    profiles (hard perf-regression gates). *)

val names : string list
(** Experiment names, in run order: engine, vm, server, cluster,
    cluster_sharded, chaos_failover, fleet_scale, fleet_trace_overhead,
    trace, slo_overhead. [cluster_sharded] runs the same
    seeded 8-server workload sequentially and on 4 parallel engine shards:
    its [determinism_ok] count hard-gates result byte-equality, while
    events/sec and the sharded speedup are advisory wall-clock. *)

val run : quick:bool -> string -> Jord_util.Bench_json.doc
(** Run one experiment. Both front ends refuse a name not in {!names}
    before they get here.
    @raise Not_found on such a name. *)

val render : Jord_util.Bench_json.doc -> string
(** Human-readable table of a doc (medians, IQRs, kinds). *)

val par_selftest : ?jobs:int -> ?quick:bool -> unit -> (string, string) result
(** The bench smoke behind the PR's acceptance bar: runs an identical batch
    of independent simulations sequentially and on a [jobs]-domain pool
    (default: min 4 [Domain.recommended_domain_count]), checks the two
    reports are byte-identical, and — when the host actually has [>= jobs]
    cores — that the parallel run is at least 1.8x faster. [Ok] carries a
    summary line; [Error] a diagnosis. *)
