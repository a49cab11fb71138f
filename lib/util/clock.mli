(** The host clock every benchmark and wall-time line reads:
    CLOCK_MONOTONIC, through [bechamel.monotonic_clock]. The wall clock can
    be stepped mid-run; this one never goes back, so the difference of two
    reads is a duration. *)

val now_ns : unit -> int
(** Nanoseconds since an arbitrary fixed origin. *)

val since_s : int -> float
(** [since_s t0] is the seconds elapsed since the {!now_ns} read [t0]. *)

val timed : (unit -> 'a) -> 'a * float
(** [timed f] is [f ()] and the seconds it took. *)
