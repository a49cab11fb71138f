(* The one host clock every benchmark timing uses: CLOCK_MONOTONIC through
   bechamel's stub. The wall clock ([Unix.gettimeofday]) can be stepped by
   NTP mid-run, so it is never used for a duration here. *)

let name = "CLOCK_MONOTONIC (bechamel.monotonic_clock)"

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let since_s t0 = float_of_int (now_ns () - t0) *. 1e-9

let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, since_s t0)

(* Start-up self-check: [reads] successive reads must never decrease. A
   clock that does would make every span and rate below meaningless. *)
let self_check ?(reads = 100_000) () =
  let prev = ref (now_ns ()) in
  let back = ref 0 in
  for _ = 1 to reads do
    let t = now_ns () in
    if t < !prev then incr back;
    prev := t
  done;
  if !back = 0 then Ok ()
  else Error (Printf.sprintf "%s went backwards %d times in %d reads" name !back reads)
