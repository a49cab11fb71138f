(** Golden-run scenarios for refactor safety.

    [report ()] runs a fixed set of seeded simulations — single-server per
    variant, forwarding clusters, Poisson loadgen runs, and an autoscaled
    fleet per balancer policy — and
    renders every measured number with full (%.17g) precision. The output is
    compared bit-for-bit against [test/golden.expected]; a diff means a
    change altered measured results, not just structure.

    Regenerate the expectation with [bin/golden_gen.exe] only when a change
    is {e meant} to move numbers, and say so in the commit. *)

val report : ?jobs:int -> ?shards:int -> unit -> string
(** [jobs] (default 1) runs the scenarios on a dedicated domain pool of
    that size; the output is byte-identical at any job count. [shards]
    (default 1) runs the cluster and fleet scenarios on that many parallel
    engine shards ({!Jord_faas.Cluster.create}, {!Jord_fleet.Fleet.create});
    the output is byte-identical at
    any shard count — that invariant {e is} the conservative parallel
    core's correctness statement, and CI diffs --shards 1/2/4 outputs to
    enforce it. Combine [jobs] and [shards] with care: each cluster or
    fleet scenario then opens its own nested domain pool. *)
