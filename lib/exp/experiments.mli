(** The paper's experiments, one entry each: the table [jordctl exp],
    [jordctl list] and [bench/main.exe] all read. *)

type t = {
  name : string;  (** Command-line name, e.g. ["fig9"]. *)
  title : string;  (** Section title of the report. *)
  report : quick:bool -> seeds:int -> string;
      (** Run the experiment and render its report. [quick] shortens the
          simulations; [seeds] replicates figure 9's points (1 = one seed),
          and the other experiments ignore it. *)
}

val all : t list
(** In run order: table4, fig9 to fig14, background, motivation, claims,
    ablation. *)

val names : string list

val find : string -> t option
