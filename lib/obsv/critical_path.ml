(* Critical-path extraction over a root's span tree.

   A root's own timeline already accounts every picosecond of its life; the
   only intervals that hide nested structure are suspend waits. For each
   suspend interval we resolve the child whose completion released the wait
   (the child of this span with the latest end inside the interval), splice
   the child's attributed timeline into the window, and recurse — the
   result is the longest causal chain's per-phase blame. Residue the child
   does not cover (it was born later, or its completion notification
   preceded the resume) stays suspend wait, as do waits whose child was
   lost to ring wraparound. *)

type blame = {
  phases : int array;  (** ps per {!Span.phase} along the critical path. *)
  chain : (int * string) list;  (** (req_id, fn) of spans on the path. *)
}

type acc = { blame_acc : int array; mutable chain_acc : (int * string) list }

let max_depth = 64

let clip (t0, t1) (w0, w1) = (Int.max t0 w0, Int.min t1 w1)

let rec walk r (sp : Span.t) ~window:(w0, w1) ~depth acc =
  if depth > max_depth || w1 <= w0 then ()
  else begin
    acc.chain_acc <- (sp.Span.req_id, sp.Span.fn) :: acc.chain_acc;
    List.iter
      (fun (ph, t0, t1) ->
        let c0, c1 = clip (t0, t1) (w0, w1) in
        if c1 > c0 then
          match ph with
          | Span.Suspend_wait -> resolve_wait r sp ~window:(c0, c1) ~depth acc
          | ph ->
              acc.blame_acc.(Span.phase_index ph) <-
                acc.blame_acc.(Span.phase_index ph) + (c1 - c0))
      (Span.timeline sp)
  end

and resolve_wait r (sp : Span.t) ~window:(c0, c1) ~depth acc =
  (* The child that released this wait: latest end inside the interval. *)
  let best =
    List.fold_left
      (fun best id ->
        match Span.find r id with
        | Some ch when Span.complete ch && ch.Span.end_ps > c0 && ch.Span.end_ps <= c1
          -> (
            match best with
            | Some b when b.Span.end_ps >= ch.Span.end_ps -> best
            | Some _ | None -> Some ch)
        | Some _ | None -> best)
      None
      (Span.children_of r sp.Span.req_id)
  in
  let suspend ps =
    if ps > 0 then
      acc.blame_acc.(Span.phase_index Span.Suspend_wait) <-
        acc.blame_acc.(Span.phase_index Span.Suspend_wait) + ps
  in
  match best with
  | None -> suspend (c1 - c0)
  | Some ch ->
      let b0 = Int.max c0 ch.Span.born and b1 = Int.min c1 ch.Span.end_ps in
      (* Residue outside the child's life stays suspend wait. *)
      suspend (c1 - c0 - (b1 - b0));
      walk r ch ~window:(b0, b1) ~depth:(depth + 1) acc

let of_root r (root : Span.t) =
  let acc = { blame_acc = Array.make Span.phase_count 0; chain_acc = [] } in
  if Span.complete root then
    walk r root ~window:(root.Span.born, root.Span.end_ps) ~depth:0 acc;
  { phases = acc.blame_acc; chain = List.rev acc.chain_acc }

let total_ps b = Array.fold_left ( + ) 0 b.phases

(* A server trace's report input: complete roots as e2e rows, and the same
   roots' critical-path blame (which sums to e2e too) as blame rows. *)
let report (r : Span.result) =
  let roots = Span.complete_roots r in
  let blames = lazy (List.map (fun sp -> (Span.row sp, of_root r sp)) roots) in
  let longest () =
    List.fold_left
      (fun best (_, b) -> if List.length b.chain > List.length best.chain then b else best)
      (snd (List.hd (Lazy.force blames)))
      (Lazy.force blames)
  in
  let total, done_, dead, partial = Span.stats r in
  {
    Report.phase_names = Array.map Span.phase_name Span.all_phases;
    head =
      (if r.Span.truncated then
         "NOTE: the trace ring wrapped (truncated=true): oldest events were lost and\n\
          analyses cover only the retained suffix of the run.\n"
       else "");
    census =
      Printf.sprintf "spans: %d (%d completed, %d shed, %d partial) from %d events\n" total
        done_ dead partial r.Span.total_events;
    title = "per-phase attribution, complete roots (mean us per request / share of e2e):";
    slowest_of = "roots";
    empty = "no complete root spans";
    rows = List.map Span.row roots;
    blame_title = "critical-path blame, complete roots (mean us on the longest causal chain):";
    blame_rows =
      lazy (List.map (fun (row, b) -> { row with Report.phases = b.phases }) (Lazy.force blames));
    scope = "critical-path";
    blame_extra =
      lazy
        (let chain = (longest ()).chain in
         Printf.sprintf "longest chain (%d spans): %s\n" (List.length chain)
           (String.concat " -> " (List.map (fun (id, fn) -> Printf.sprintf "%s#%d" fn id) chain)));
    checked = Printf.sprintf "%d complete spans, %d roots" done_ (List.length roots);
    violations = Span.conservation_violations r;
    json_meta = [ ("truncated", Jord_util.Json.Bool r.Span.truncated) ];
  }
