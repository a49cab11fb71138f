(** Population-scale open-loop traffic shapes.

    A {!shape} describes the aggregate arrival process of a simulated user
    population: [users] independent sources whose per-user rates follow a
    Zipf law (a few heavy hitters, a long tail of occasional users), an
    optional diurnal modulation of the aggregate rate, and flash-crowd
    bursts that multiply the rate inside a window. Arrivals are drawn by
    thinning an inhomogeneous Poisson process, so the schedule is exact for
    the instantaneous rate [rate_at] and — crucially for the sharded fleet
    runs — a pure function of the shape: the same shape yields the same
    byte sequence of arrivals whether consumed live ({!make}/{!next}) or
    pre-generated ({!pregen}), at any shard count.

    The live stream makes arrivals in fixed batches of 64. Per candidate it
    draws, in order, the gap, the acceptance draw and — if accepted — the
    Zipf alias column and coin; the acceptance draw is held against
    {!rate_bounds} first, so [sin] is evaluated only when it falls between
    them. Once a batch is full, one pass resolves its users from the alias
    table: those reads consume no draws, so their cache misses overlap and
    the stream is the one a one-at-a-time generator would give. *)

type flash = {
  at_us : float;  (** Burst start, relative to the run start. *)
  dur_us : float;  (** Burst length. *)
  boost : float;  (** Rate multiplier while the burst is active ([>= 1]). *)
}

type shape = {
  users : int;
      (** Population size, [1 .. 100_000_000]; user ids are [0 .. users-1]. *)
  zipf_s : float;  (** Zipf exponent of per-user rates ([0] = uniform). *)
  rate_mrps : float;  (** Baseline aggregate rate, requests per us (MRPS). *)
  diurnal_amp : float;  (** Diurnal amplitude in [\[0, 1)]; [0] disables. *)
  diurnal_period_us : float;  (** Diurnal period ("one day" of sim time). *)
  flash : flash list;  (** Flash-crowd windows, multiplicative. *)
  seed : int;  (** Seed of the arrival/user draw stream. *)
}

val presets : (string * shape) list
(** [steady] (flat Poisson over a 1M-user Zipf population), [diurnal]
    (amp 0.5), [flash] (one 3x burst), [ci] (small population, diurnal +
    flash — the CI smoke shape). *)

val parse : string -> (shape, string) result
(** Spec grammar, mirroring fault plans: a preset name, a [key=value] list,
    or a preset seeded with overrides (["ci,rate=120"]). Keys: [users],
    [zipf], [rate], [amp], [period-us], [seed], and [flash] as
    [AT_US:DUR_US:BOOST] windows joined by ['+']
    (["flash=800:200:3+2400:100:2"]). Underscored key spellings are
    accepted. The result is validated. *)

val to_string : shape -> string
(** Canonical [key=value] spelling; [parse (to_string t) = Ok t]. *)

val validate : shape -> (unit, string) result

val describe : shape -> string
(** Human one-liner for run headers. *)

val rate_at : shape -> us:float -> float
(** Instantaneous aggregate rate (requests/us) at time [us]:
    [rate * (1 + amp * sin(2*pi*us/period)) * product of active boosts]. *)

val peak_rate : shape -> float
(** Upper bound on {!rate_at} over any horizon — the thinning envelope. *)

val rate_bounds : shape -> us:float -> float * float
(** [(rate * (1 - amp) * b, rate * (1 + amp) * b)], [b] the product of
    the boosts active at [us]: the floats {!rate_at} lies between, bounds
    included, whatever [sin] returns — rounding is monotone and both use
    one association. The thinning test accepts below the first and
    rejects at or above the second without evaluating {!rate_at}. *)

type arrival = { at : Jord_sim.Time.t; user : int }

type t
(** A live arrival stream: the iterator form of the process. *)

val make : shape -> duration_us:float -> t
(** Build the stream (allocates the Zipf alias table, O(users)). Arrival
    times are nondecreasing and all land in [\[0, duration_us)]. *)

val next : t -> arrival option
(** The next arrival, or [None] once the horizon is reached; after that
    the stream makes no further draws. *)

val generated : t -> int
(** Arrivals produced so far. *)

val pregen : shape -> duration_us:float -> arrival array
(** The whole schedule at once: exactly the arrivals {!next} would yield.
    The oracle the streamed forms are tested against. *)

(** {2 Zipf alias table}

    The user sampler behind {!make}, exposed so tests can compare it with
    a reference construction. *)

type alias
(** A Vose alias table: an 8-byte probability and a 4-byte alias index per
    entry. *)

val alias_build : float array -> alias
(** [alias_build w] builds the table for the positive weights [w] (at most
    [2^31 - 1] of them) in place: [w] becomes the probability column. *)

val alias_prob : alias -> int -> float
val alias_index : alias -> int -> int

val hash01 : seed:int -> user:int -> float
(** Deterministic per-user uniform in [\[0, 1)] (SplitMix64 finalizer) —
    the fleet derives each user's entry-point preference from it, so a
    user's function follows them to whatever server they are routed to. *)
