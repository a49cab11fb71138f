type root = {
  root_id : int;
  entry : string;
  arrival : Jord_sim.Time.t;
  mutable completed_at : Jord_sim.Time.t;
  mutable finished : bool;
  mutable exec_ns : float;
  mutable isolation_ns : float;
  mutable dispatch_ns : float;
  mutable comm_ns : float;
  mutable queue_ns : float;
  mutable invocations : int;
}

type t = {
  id : int;
  fn_name : string;
  arg_bytes : int;
  root : root;
  parent_id : int;
  depth : int;
  mutable argbuf : int;
  mutable enqueued_at : Jord_sim.Time.t;
  mutable on_complete : (Jord_sim.Engine.t -> float -> unit) option;
  mutable forwarded : bool;
  mutable home_argbuf : int;
  mutable home_sid : int;
  mutable acct : root;
  mutable home_acct : root;
}

let make_root ~id ~entry ~arrival ~arg_bytes =
  let root =
    {
      root_id = id;
      entry;
      arrival;
      completed_at = arrival;
      finished = false;
      exec_ns = 0.0;
      isolation_ns = 0.0;
      dispatch_ns = 0.0;
      comm_ns = 0.0;
      queue_ns = 0.0;
      invocations = 1;
    }
  in
  let req =
    {
      id;
      fn_name = entry;
      arg_bytes;
      root;
      parent_id = -1;
      depth = 0;
      argbuf = 0;
      enqueued_at = arrival;
      on_complete = None;
      forwarded = false;
      home_argbuf = 0;
      home_sid = -1;
      acct = root;
      home_acct = root;
    }
  in
  (root, req)

let make_child ~id ~parent ~fn_name ~arg_bytes =
  parent.acct.invocations <- parent.acct.invocations + 1;
  {
    id;
    fn_name;
    arg_bytes;
    root = parent.root;
    parent_id = parent.id;
    depth = parent.depth + 1;
    argbuf = 0;
    enqueued_at = Jord_sim.Time.zero;
    on_complete = None;
    forwarded = false;
    home_argbuf = 0;
    home_sid = -1;
    (* A child accumulates into whatever ledger its parent was using at
       spawn time: the real root locally, or the parent's detached ledger
       on a remote server (see {!detach_acct}). *)
    acct = parent.acct;
    home_acct = parent.acct;
  }

(* Cross-server accounting: when a request is forwarded, its cost
   accumulators must not be mutated from the remote server — under the
   sharded engine ([Jord_sim.Epoch]) the home and remote servers may run on
   different domains, and even sequentially the fold order of float adds
   must not depend on engine interleaving. [detach_acct] (called at the
   first forward hop) swaps in a private zeroed ledger that travels with
   the request; every accumulator write in the executor/orchestrator
   targets [acct]. [settle_acct] folds the ledger back into the enclosing
   one inside the response event, which runs on the home server — so the
   addition order is fixed by the response schedule, identically in
   sequential and sharded runs. *)

let detach_acct req =
  req.home_acct <- req.acct;
  req.acct <-
    {
      root_id = req.id;
      entry = req.fn_name;
      arrival = Jord_sim.Time.zero;
      completed_at = Jord_sim.Time.zero;
      finished = false;
      exec_ns = 0.0;
      isolation_ns = 0.0;
      dispatch_ns = 0.0;
      comm_ns = 0.0;
      queue_ns = 0.0;
      invocations = 0;
    }

let settle_acct req =
  if req.acct != req.home_acct then begin
    let a = req.acct and o = req.home_acct in
    o.exec_ns <- o.exec_ns +. a.exec_ns;
    o.isolation_ns <- o.isolation_ns +. a.isolation_ns;
    o.dispatch_ns <- o.dispatch_ns +. a.dispatch_ns;
    o.comm_ns <- o.comm_ns +. a.comm_ns;
    o.queue_ns <- o.queue_ns +. a.queue_ns;
    o.invocations <- o.invocations + a.invocations;
    req.acct <- o
  end

let latency_ns root = Jord_sim.Time.to_ns Jord_sim.Time.(root.completed_at - root.arrival)
let overhead_ns root = root.isolation_ns +. root.dispatch_ns +. root.comm_ns
