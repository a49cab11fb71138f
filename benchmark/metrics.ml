(* Every metric the benchmark reports: name, unit and which direction is
   better. BENCHMARK.json repeats these (plus each end-to-end bound); the
   smoke run checks that the two lists agree. Units prefixed [sim_] are
   simulated time, produced by the model; every other time is host time. *)

type better = Lower | Higher

(* How the repetitions of one invocation reduce to the reported value. *)
type stat =
  | Median
  | Best
      (** The best repetition. Interference from other tenants of a shared
          machine only ever slows a deterministic run, and it comes in
          stretches that move a median by 20% between invocations; the
          fastest repetition moves by a third of that. Set-up takes a few
          milliseconds, where one descheduling is a step of 30%. *)

type def = { name : string; unit_ : string; better : better; stat : stat }

let def ?(stat = Median) name unit_ better = { name; unit_; better; stat }

let better_name = function Lower -> "lower" | Higher -> "higher"

let end_to_end =
  [
    def ~stat:Best "setup_s" "s" Lower;
    def ~stat:Best "sim_req_per_s" "req/s" Higher;
    def "peak_heap_mb" "MB" Lower;
    def "sim_p50_us" "sim_us" Lower;
    def "sim_p99_us" "sim_us" Lower;
    def "sim_served_ratio" "ratio" Higher;
  ]

let per_layer =
  [
    def "sim.events" "count" Lower;
    def "sim.events_per_req" "count" Lower;
    def "sim.events_per_s" "events/s" Higher;
    def "sim.push_pop_ns" "ns" Lower;
    def "sim.pdes_speedup" "ratio" Higher;
    def "faas.setup_s" "s" Lower;
    def "faas.dispatches_per_req" "count" Lower;
    def "faas.queue_full_retries_per_req" "count" Lower;
    def "faas.forward_ratio" "ratio" Lower;
    def "faas.sim_queue_wait_us_per_req" "sim_us" Lower;
    def "privlib.calls_per_req" "count" Lower;
    def "privlib.sim_ns_per_req" "sim_ns" Lower;
    def "privlib.mmap_munmap_ns" "ns" Lower;
    def "privlib.cget_cput_ns" "ns" Lower;
    def "vm.vlb_hit_ratio" "ratio" Higher;
    def "vm.vtw_walks_per_req" "count" Lower;
    def "vm.shootdowns_per_req" "count" Lower;
    def "vm.vlb_lookup_ns" "ns" Lower;
    def "vm.vma_lookup_ns" "ns" Lower;
    def "arch.accesses_per_event" "count" Lower;
    def "arch.l1_hit_ratio" "ratio" Higher;
    def "arch.forwards_per_req" "count" Lower;
    def "arch.invalidations_per_req" "count" Lower;
    def "arch.read_hit_ns" "ns" Lower;
    def "arch.coherence_miss_ns" "ns" Lower;
    def "workloads.arrivals" "count" Higher;
    def "workloads.pregen_s" "s" Lower;
    def "fleet.setup_s" "s" Lower;
    def "fleet.affinity_hit_ratio" "ratio" Higher;
    def "fleet.cold_starts" "count" Lower;
    def "fleet.boots" "count" Lower;
    def "fleet.drains" "count" Lower;
    def "fleet.up_max" "count" Lower;
    def "obsv.trace_events_per_req" "count" Lower;
    def "obsv.slo_windows_closed" "count" Lower;
    def "obsv.slo_transitions" "count" Lower;
    def "obsv.retained_spans" "count" Lower;
    def "obsv.retention_ratio" "ratio" Lower;
    def "obsv.overhead" "ratio" Lower;
    def "obsv.report_s" "s" Lower;
    def "gc.minor_words_per_event" "words" Lower;
    def "gc.promoted_words_per_event" "words" Lower;
    def "gc.major_collections" "count" Lower;
    def "bench.isolated_share" "ratio" Higher;
    def "bench.trace_overhead" "ratio" Lower;
  ]
