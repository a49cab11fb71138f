type msg = {
  mutable at : Time.t;
  mutable posted_at : Time.t;
  mutable sid : int;
  mutable seq : int;
  mutable fn : Engine.t -> unit;
}

type outbox = { mutable slots : msg array; mutable len : int }

type t = {
  id : int;
  engine : Engine.t;
  lookahead : Time.t;
  outboxes : outbox array;
  mutable next_seq : int;
}

let nop (_ : Engine.t) = ()
let fresh_msg () = { at = Time.zero; posted_at = Time.zero; sid = 0; seq = 0; fn = nop }

let create ~id ~shards ~lookahead =
  if shards <= 0 then invalid_arg "Shard.create: shards must be positive";
  if id < 0 || id >= shards then invalid_arg "Shard.create: id out of range";
  if lookahead <= 0 then invalid_arg "Shard.create: lookahead must be positive";
  {
    id;
    engine = Engine.create ();
    lookahead;
    outboxes = Array.init shards (fun _ -> { slots = [||]; len = 0 });
    next_seq = 0;
  }

let id t = t.id
let engine t = t.engine
let lookahead t = t.lookahead

let grow ob =
  let cap = Array.length ob.slots in
  let cap' = if cap = 0 then 8 else cap * 2 in
  let slots' = Array.init cap' (fun i -> if i < cap then ob.slots.(i) else fresh_msg ()) in
  ob.slots <- slots'

let post t ~dst ~at ~sid fn =
  if dst = t.id then invalid_arg "Shard.post: message to own shard";
  if dst < 0 || dst >= Array.length t.outboxes then invalid_arg "Shard.post: bad dst";
  if at - Engine.now t.engine < t.lookahead then
    invalid_arg "Shard.post: timestamp violates the lookahead window";
  let ob = t.outboxes.(dst) in
  if ob.len = Array.length ob.slots then grow ob;
  let m = ob.slots.(ob.len) in
  m.at <- at;
  m.posted_at <- Engine.now t.engine;
  m.sid <- sid;
  m.seq <- t.next_seq;
  m.fn <- fn;
  t.next_seq <- t.next_seq + 1;
  ob.len <- ob.len + 1

let pending_messages t =
  Array.fold_left (fun acc ob -> acc + ob.len) 0 t.outboxes

let take_outbox t ~dst =
  let ob = t.outboxes.(dst) in
  (ob.slots, ob.len)

let reset_outboxes t =
  Array.iter
    (fun ob ->
      (* Drop closure references so delivered payloads are collectable;
         the slot records themselves are kept warm for the next epoch. *)
      for i = 0 to ob.len - 1 do
        ob.slots.(i).fn <- nop
      done;
      ob.len <- 0)
    t.outboxes
