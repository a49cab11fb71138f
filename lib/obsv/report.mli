(** Phase attribution and tail blame over flat rows: what [jordctl trace]
    prints for server and fleet traces alike.

    Each row is one request whose exclusive integer-ps phases sum to its
    end-to-end latency. Server traces supply two row sets, complete roots
    and the same roots' critical-path blame ({!Critical_path.report});
    fleet traces supply completed requests ({!Freport.report}). Strings
    that differ by kind come in {!t}. Tables are laid out by
    {!Jord_util.Render.table}; the breakdown and blame reports end with the
    conservation verdict. *)

val us : int -> float
(** ps to microseconds. *)

val percentile : float -> int array -> int
(** Nearest-rank percentile over a sorted array ([0] when empty). *)

type row = {
  id : int;  (** Request id. *)
  fn : string;  (** Entry function: the per-function grouping key. *)
  label : string;  (** The request's cell in the [slowest] table. *)
  e2e_ps : int;
  phases : int array;  (** ps per phase, in the kind's phase order. *)
}

type t = {
  phase_names : string array;  (** By index into {!row.phases}. *)
  head : string;  (** Opens every report: truncation note, fleet headline. *)
  census : string;  (** Follows [head] in the breakdown only. *)
  title : string;  (** Breakdown table title. *)
  slowest_of : string;  (** Noun in "slowest N ...:". *)
  empty : string;  (** Printed instead of a table when there are no rows. *)
  rows : row list;  (** End-to-end splits, in trace order. *)
  blame_title : string;  (** Blame table title. *)
  blame_rows : row list Lazy.t;  (** Phase blame summing to e2e, per request. *)
  scope : string;  (** Names the tail in "verdict: X dominates the [scope] p99 tail". *)
  blame_extra : string Lazy.t;  (** Kind-only lines after the blame verdict. *)
  checked : string;  (** What the conservation check covered. *)
  violations : string list;  (** Conservation violations; [[]] when it holds. *)
  json_meta : (string * Jord_util.Json.t) list;  (** Leading blame-JSON fields. *)
}

val violations : row list -> string list
(** The conservation identity: one message per row whose phases are
    negative or do not sum exactly to [e2e_ps]. *)

val conservation_ok : t -> bool

val breakdown : t -> string
(** Per-function mean phase split of [rows]. *)

val slowest : ?n:int -> t -> string
(** The [n] (default 10) slowest [rows]; ties keep trace order. *)

val blame : t -> string
(** Per-function mean of [blame_rows], each function's tail split, the
    p99 tail split ("p99 is X% run / Y% queue_wait / ...") and a verdict
    naming its heaviest phase, then [blame_extra]. *)

val blame_json : t -> string
(** [json_meta], then per function of [blame_rows]: count, mean/p50/p99
    latency, mean ns per phase ([phase_mean_ns]) and the p99 tail's share
    per non-zero phase ([tail_share_pct]). *)

val blame_csv : t -> string
(** The same profile flat, one line per (function, phase):
    [fn,count,mean_us,p50_us,p99_us,phase,mean_ns,tail_share_pct]. *)
