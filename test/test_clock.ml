(* Jord_util.Clock: the monotonic host clock every benchmark and wall-time
   line reads. A duration is a difference of two reads, so the reads must
   never go back. *)

module Clock = Jord_util.Clock

let test_never_decreases () =
  let prev = ref (Clock.now_ns ()) and back = ref 0 in
  for _ = 1 to 100_000 do
    let t = Clock.now_ns () in
    if t < !prev then incr back;
    prev := t
  done;
  Alcotest.(check int) "reads that went back" 0 !back

let test_timed () =
  let r, s = Clock.timed (fun () -> List.length (List.init 1000 Fun.id)) in
  Alcotest.(check int) "thunk's result" 1000 r;
  Alcotest.(check bool) "non-negative duration" true (s >= 0.0);
  Alcotest.(check bool) "since_s of now is non-negative" true
    (Clock.since_s (Clock.now_ns ()) >= 0.0)

let suite =
  [
    Alcotest.test_case "10^5 successive reads never decrease" `Quick test_never_decreases;
    Alcotest.test_case "timed returns the result and its duration" `Quick test_timed;
  ]
