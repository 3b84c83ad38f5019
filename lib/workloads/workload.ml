module Sim = Engine.Sim
module Time = Engine.Time

let require_positive ~scenario ~what n =
  if n <= 0 then
    invalid_arg (Printf.sprintf "%s.run: need %s (got %d)" scenario what n)

let repeat_seed ~base ~stride r = Int64.add base (Int64.of_int (r * stride))

let inject_faults sim ?faults ~seed ?tracer ?metrics ~component marking =
  match faults with
  | None -> (marking, fun _ -> ())
  | Some plan ->
      let inj =
        Fault.Injector.create sim ~plan ~seed ?tracer ?metrics ~component ()
      in
      ( Fault.Injector.wrap_marking inj marking,
        fun port -> Fault.Injector.attach inj ~port )

let timeouts flows =
  Array.fold_left
    (fun acc f -> acc + Tcp.Sender.timeouts (Tcp.Flow.sender f))
    0 flows

let default_slice = Time.span_of_ms 5.

let run_slices ?(slice = default_slice) sim ~cap ~pending =
  let rec advance () =
    if pending () && Time.(Sim.now sim < cap) then begin
      Sim.run ~until:(Time.min cap (Time.add (Sim.now sim) slice)) sim;
      advance ()
    end
  in
  advance ()
