module Sim = Engine.Sim
module Time = Engine.Time

type sender_kind =
  | Plain of Tcp.Cc.factory
  | Deadline_aware of
      (total_segments:int -> deadline:Engine.Time.t -> Tcp.Cc.factory)

type config = {
  n_flows : int;
  bytes_per_flow : int;
  deadline : Time.span;
  deadline_spread : Time.span;
  repeats : int;
  rate_bps : float;
  buffer_bytes : int;
  leaf_buffer_bytes : int;
  segment_bytes : int;
  min_rto : Time.span;
  start_jitter : Time.span;
  time_cap : Time.span;
  seed : int64;
}

let default_config =
  {
    n_flows = 16;
    bytes_per_flow = 64 * 1024;
    deadline = Time.span_of_ms 20.;
    deadline_spread = Time.span_of_ms 20.;
    repeats = 20;
    rate_bps = 1e9;
    buffer_bytes = 128 * 1024;
    leaf_buffer_bytes = 512 * 1024;
    segment_bytes = 1500;
    min_rto = Time.span_of_ms 200.;
    start_jitter = Time.span_of_us 300.;
    time_cap = Time.span_of_sec 10.;
    seed = 1L;
  }

type result = {
  met_fraction : float;
  mean_completion_s : float;
  p99_completion_s : float;
  timeouts_per_run : float;
  incomplete : int;
}

type flow_outcome = { met : bool; completion_s : float; finished : bool }

let one_repeat ~marking ~echo ?faults ~buffer kind config ~seed =
  let sim = Sim.create ~seed () in
  let rng = Sim.rng sim in
  (* Each flow's start, then its deadline, per flow in order. *)
  let plan =
    Array.init config.n_flows (fun _ ->
        let start =
          Time.of_ns (Engine.Rng.jitter_span rng ~max:config.start_jitter)
        in
        ( start,
          Time.add
            (Time.add start config.deadline)
            (Engine.Rng.jitter_span rng ~max:config.deadline_spread) ))
  in
  let segments =
    (config.bytes_per_flow + config.segment_bytes - 1) / config.segment_bytes
  in
  let cc deadline =
    match kind with
    | Plain f -> f
    | Deadline_aware mk -> mk ~total_segments:segments ~deadline
  in
  let tcp_config =
    {
      Tcp.Sender.default_config with
      segment_bytes = config.segment_bytes;
      min_rto = config.min_rto;
    }
  in
  let flows =
    Incast.star_repeat sim ?faults ~seed ~buffer ~marking:(marking ()) ?echo
      ~tcp_config ~rate_bps:config.rate_bps ~buffer_bytes:config.buffer_bytes
      ~leaf_buffer_bytes:config.leaf_buffer_bytes ~segments
      ~time_cap:config.time_cap
      (Array.map (fun (start, deadline) -> (start, cc deadline)) plan)
  in
  let outcomes =
    Array.map2
      (fun flow (start, deadline) ->
        match Tcp.Flow.completion_time flow with
        | Some t ->
            {
              met = Time.(t <= deadline);
              completion_s = Time.span_to_sec (Time.diff t start);
              finished = true;
            }
        | None ->
            {
              met = false;
              completion_s = Time.span_to_sec config.time_cap;
              finished = false;
            })
      flows plan
  in
  (outcomes, Workload.timeouts flows)

let run ~marking ?echo ?faults ?(buffer = Net.Buffer_mgr.Static) kind config =
  Workload.require_positive ~scenario:"Deadline" ~what:"flows" config.n_flows;
  Workload.require_positive ~scenario:"Deadline" ~what:"repeats"
    config.repeats;
  let all = ref [] in
  let timeouts = ref 0 in
  for r = 0 to config.repeats - 1 do
    let outcomes, t =
      one_repeat ~marking ~echo ?faults ~buffer kind config
        ~seed:(Workload.repeat_seed ~base:config.seed ~stride:6151 r)
    in
    all := outcomes :: !all;
    timeouts := !timeouts + t
  done;
  let outcomes = Array.concat !all in
  let n = Array.length outcomes in
  let met = Array.fold_left (fun a o -> if o.met then a + 1 else a) 0 outcomes in
  let completions = Array.map (fun o -> o.completion_s) outcomes in
  {
    met_fraction = float_of_int met /. float_of_int n;
    mean_completion_s =
      Array.fold_left ( +. ) 0. completions /. float_of_int n;
    p99_completion_s = Stats.Percentile.of_array completions 99.;
    timeouts_per_run = float_of_int !timeouts /. float_of_int config.repeats;
    incomplete =
      Array.fold_left (fun a o -> if o.finished then a else a + 1) 0 outcomes;
  }
