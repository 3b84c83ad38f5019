(* srtt (slot 0, seconds) and rttvar (slot 1) live in a flat float array
   and the RTO bounds in int nanoseconds: as mutable float or int64
   fields of this mixed record every RTT sample — one per timed
   segment — would box its stores. *)
type t = {
  min_rto_ns : int;
  max_rto_ns : int;
  est : float array;
  mutable rto_ns : int;
  mutable samples : int;
}

let create ~min_rto ~max_rto ~initial_rto () =
  if Int64.compare min_rto max_rto > 0 then
    invalid_arg "Rtt_estimator.create: min_rto > max_rto";
  {
    min_rto_ns = Int64.to_int min_rto;
    max_rto_ns = Int64.to_int max_rto;
    est = [| 0.; 0. |];
    rto_ns = Int64.to_int initial_rto;
    samples = 0;
  }

let sample t ns =
  let r = float_of_int ns /. 1e9 in
  if t.samples = 0 then begin
    t.est.(0) <- r;
    t.est.(1) <- r /. 2.
  end
  else begin
    t.est.(1) <- (0.75 *. t.est.(1)) +. (0.25 *. Float.abs (t.est.(0) -. r));
    t.est.(0) <- (0.875 *. t.est.(0)) +. (0.125 *. r)
  end;
  t.samples <- t.samples + 1;
  let var4 = 4. *. t.est.(1) in
  let rto_s = t.est.(0) +. if var4 < 1e-6 then 1e-6 else var4 in
  (* [Engine.Time.span_of_sec]'s rounding, in place: a float passed to a
     function that is not inlined — here or in another module — is
     boxed. *)
  let ns = int_of_float (Float.round (rto_s *. 1e9)) in
  t.rto_ns <-
    (if ns < t.min_rto_ns then t.min_rto_ns
     else if ns > t.max_rto_ns then t.max_rto_ns
     else ns)

let rto_ns t = t.rto_ns

let backoff t =
  let doubled = 2 * t.rto_ns in
  t.rto_ns <- (if doubled > t.max_rto_ns then t.max_rto_ns else doubled)

let srtt t =
  if t.samples = 0 then None else Some (Engine.Time.span_of_sec t.est.(0))
let samples t = t.samples
