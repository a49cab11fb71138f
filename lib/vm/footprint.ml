type t = {
  mutable reads : int array;
  mutable n_reads : int;
  mutable writes : int array;
  mutable n_writes : int;
}

let create () = { reads = Array.make 8 0; n_reads = 0; writes = Array.make 8 0; n_writes = 0 }

let clear t =
  t.n_reads <- 0;
  t.n_writes <- 0

(* The buffers are replaced only when full, so a recording that fits
   stores an int and no pointer. *)
let read t addr =
  let n = t.n_reads in
  if n = Array.length t.reads then t.reads <- Array.append t.reads t.reads;
  t.reads.(n) <- addr;
  t.n_reads <- n + 1

let write t addr =
  let n = t.n_writes in
  if n = Array.length t.writes then t.writes <- Array.append t.writes t.writes;
  t.writes.(n) <- addr;
  t.n_writes <- n + 1
