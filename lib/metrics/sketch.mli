(** Mergeable fixed-boundary log-bucket quantile sketch over non-negative
    integer picoseconds.

    The bucket ladder is fixed at module load: values 0..15 get exact
    buckets, and every octave above is split into 16 linear sub-buckets, so
    the quantile upper bound is within 1/16 (6.25%) of the true value while
    the ladder never depends on the data. Because buckets are fixed and all
    state is integer sums, merging is exact, associative and commutative:
    any merge order over any partition of the observations yields the same
    sketch, byte for byte — the property that lets per-server, per-window
    sketches roll up into fleet aggregates deterministically.

    [count], [sum], [min] and [max] are exact (plain integer arithmetic),
    which the online-vs-post-hoc conservation property in the test suite
    relies on; only [quantile] is bucketed. {!add} costs a constant number
    of integer steps, whatever the value. *)

type t

val create : unit -> t

val add : t -> int -> unit
(** Record one observation. Negative values are rejected with
    [Invalid_argument]. *)

val add_ex : t -> int -> ex:int -> unit
(** [add], plus an exemplar id for the observation (a retained trace id,
    say). The sketch keeps the id of the largest observation it has seen,
    breaking ties toward the smallest id, so the slot — like the rest of
    the state — is exact, associative and commutative under [merge].
    A negative [ex] records the observation without an exemplar. *)

val exemplar : t -> (int * int) option
(** [(value, id)] of the largest exemplar-carrying observation, or [None]
    when no [add_ex] with a non-negative id has happened. *)

val count : t -> int
val sum : t -> int
(** Exact observation count and exact integer sum. *)

val min_v : t -> int
val max_v : t -> int
(** Exact extrema; both are 0 on an empty sketch. *)

val mean : t -> float
(** [sum / count] as a float; 0 on an empty sketch. *)

val is_empty : t -> bool

val merge_into : into:t -> t -> unit
(** Element-wise add of the source into [into] (the source is unchanged). *)

val merge : t -> t -> t
(** Fresh sketch holding both inputs' observations. *)

val copy : t -> t

val quantile : t -> float -> int
(** [quantile t q] for [q] in [0, 100]: the upper boundary of the bucket
    holding the rank-[ceil (q/100 * count)] observation, clamped into
    [[min_v, max_v]] so the answer always lies in the observed range. 0 on
    an empty sketch. Deterministic and merge-order independent. *)

val bucket_index : int -> int
(** The ladder: which bucket a value lands in (exposed for tests). Constant
    time: the value's top bit is found by six halving shifts. *)

val bucket_upper : int -> int
(** Inclusive upper boundary of a bucket (exposed for tests). *)

val bucket_count : int
(** Number of buckets in the fixed ladder. *)

val equal : t -> t -> bool
(** Structural equality of the full state (buckets, count, sum, extrema) —
    the merge-order-independence checks compare whole sketches. *)

val quantile_of_buckets : (float * int) list -> float -> float
(** Quantile over a cumulative [(upper_bound, cumulative_count)] ladder as
    produced by {!Registry.Hist.buckets}: the first upper bound whose
    cumulative count reaches the rank. An infinite final bound falls back
    to the last finite one (the ladder's ceiling). 0 when empty. *)
