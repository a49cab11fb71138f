(** Plain-text rendering of tables and data series for the bench harness.

    Every table and figure of the paper is printed as an aligned ASCII table
    (tables) or as a set of (x, y) series (figures), so the harness output can
    be diffed against EXPERIMENTS.md. *)

val table :
  ?title:string -> header:string list -> rows:string list list -> unit -> string
(** Render an aligned table with a separator under the header. Rows shorter
    than the header are padded with empty cells. *)

val series :
  ?title:string ->
  x_label:string ->
  y_label:string ->
  (string * (float * float) list) list ->
  string
(** Render named (x, y) series in columns: one x column and one column per
    series, aligned on the union of x values. Missing points print as "-". *)

val sparkline : ?width:int -> float list -> string
(** Render values as a one-line ASCII sparkline on an 8-level character
    ramp, resampled to at most [width] (default 40) columns. A flat
    non-zero series renders at full level; an empty series renders as "". *)

val f1 : float -> string
val f2 : float -> string
val f3 : float -> string
(** Fixed-precision float formatting helpers (1/2/3 decimals). *)

val shortest : float -> string
(** The shortest decimal that [float_of_string] reads back as exactly the
    same float. It equals [%g] wherever [%g] is exact (e.g. every value
    below 1e6 with at most 6 significant digits), and writes positive
    exponents without '+' or leading zeros ("1e6", "1.5e308"), so the text
    also survives '+'-separated lists. Non-finite values print as [%g]. *)
