let now_ns () = Int64.to_int (Monotonic_clock.now ())
let since_s t0 = float_of_int (now_ns () - t0) *. 1e-9

let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, since_s t0)
