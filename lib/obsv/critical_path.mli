(** Critical-path extraction over fan-out span trees.

    For a completed root, the critical path is the root's own attributed
    timeline with every suspend-wait interval resolved to the child whose
    completion released it (latest end inside the interval), recursively —
    the longest causal chain through the invocation tree, with per-phase
    blame along it. Since each suspend interval is either spliced with a
    child's (conserving) timeline or left as suspend wait, the blame total
    still equals the root's end-to-end latency. *)

type blame = {
  phases : int array;  (** ps per {!Span.phase} on the path. *)
  chain : (int * string) list;  (** (req_id, fn) of spans on the path. *)
}

val of_root : Span.result -> Span.t -> blame
(** Zero blame for incomplete roots. *)

val total_ps : blame -> int
(** Equals the root's end-to-end latency for complete roots. *)

val report : Span.result -> Report.t
(** The server trace's report input: complete roots as the breakdown's
    rows, their critical-path blame as the blame rows (the blame report
    closes with the longest causal chain), and the span forest's
    conservation check ({!Span.conservation_violations}). *)
