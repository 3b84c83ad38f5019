module Sim = Engine.Sim
module Time = Engine.Time

type config = {
  n_flows : int;
  bytes_per_flow : int;
  repeats : int;
  rate_bps : float;
  buffer_bytes : int;
  leaf_buffer_bytes : int;
  segment_bytes : int;
  min_rto : Time.span;
  time_cap : Time.span;
  start_jitter : Time.span;
  initial_cwnd : float;
  seed : int64;
}

let default_config =
  {
    n_flows = 16;
    bytes_per_flow = 64 * 1024;
    repeats = 20;
    rate_bps = 1e9;
    buffer_bytes = 128 * 1024;
    leaf_buffer_bytes = 512 * 1024;
    segment_bytes = 1500;
    min_rto = Time.span_of_ms 200.;
    time_cap = Time.span_of_sec 10.;
    start_jitter = Time.span_of_us 300.;
    initial_cwnd = 2.;
    seed = 1L;
  }

type result = {
  mean_goodput_bps : float;
  min_goodput_bps : float;
  max_goodput_bps : float;
  mean_completion : float;
  p99_completion : float;
  timeouts_per_run : float;
  incomplete : int;
}

type run_outcome = {
  completion_s : float;  (** [time_cap] when incomplete. *)
  run_timeouts : int;
  finished : bool;
}

let star_repeat sim ?faults ~seed ~buffer ~marking ?echo ~tcp_config
    ~rate_bps ~buffer_bytes ~leaf_buffer_bytes ~segments ~time_cap flows =
  let marking, attach =
    Workload.inject_faults sim ?faults ~seed ~component:"star_bottleneck"
      marking
  in
  let star =
    Net.Topology.star_testbed sim ~rate_bps ~bottleneck_buffer:buffer_bytes
      ~leaf_buffer:leaf_buffer_bytes ~buffer ~marking ()
  in
  attach star.Net.Topology.star_bottleneck;
  let workers = star.Net.Topology.workers in
  let remaining = ref (Array.length flows) in
  let flows =
    Array.mapi
      (fun i (start, cc) ->
        let src = workers.(i mod Array.length workers) in
        let flow =
          Tcp.Flow.create sim ~src ~dst:star.Net.Topology.aggregator ~flow:i
            ~cc ~config:tcp_config ?echo ~limit_segments:segments
            ~on_complete:(fun _ -> decr remaining)
            ()
        in
        Tcp.Flow.start_at flow start;
        flow)
      flows
  in
  Workload.run_slices sim ~cap:(Time.of_ns time_cap) ~pending:(fun () ->
      !remaining > 0);
  flows

let one_repeat ~sack ?faults ~buffer (proto : Dctcp.Protocol.t) config ~seed =
  let sim = Sim.create ~seed () in
  let rng = Sim.rng sim in
  let flows =
    Array.init config.n_flows (fun _ ->
        ( Time.of_ns (Engine.Rng.jitter_span rng ~max:config.start_jitter),
          proto.Dctcp.Protocol.cc ))
  in
  let tcp_config =
    {
      Tcp.Sender.default_config with
      segment_bytes = config.segment_bytes;
      min_rto = config.min_rto;
      initial_cwnd = config.initial_cwnd;
      sack;
    }
  in
  (* One injector per repeat, derived from the repeat seed, so each
     repeat sees an independent but reproducible fault realization. *)
  let flows =
    star_repeat sim ?faults ~seed ~buffer
      ~marking:(proto.Dctcp.Protocol.marking ())
      ~echo:proto.Dctcp.Protocol.echo ~tcp_config ~rate_bps:config.rate_bps
      ~buffer_bytes:config.buffer_bytes
      ~leaf_buffer_bytes:config.leaf_buffer_bytes
      ~segments:
        ((config.bytes_per_flow + config.segment_bytes - 1)
        / config.segment_bytes)
      ~time_cap:config.time_cap flows
  in
  let finished = Array.for_all Tcp.Flow.completed flows in
  let last_done =
    Array.fold_left
      (fun acc f ->
        match Tcp.Flow.completion_time f with
        | Some t -> Time.max acc t
        | None -> acc)
      Time.zero flows
  in
  {
    completion_s =
      (if finished then Time.to_sec last_done
       else Time.span_to_sec config.time_cap);
    run_timeouts = Workload.timeouts flows;
    finished;
  }

let goodput_of_completion config completion_s =
  if completion_s <= 0. then 0.
  else
    float_of_int (config.n_flows * config.bytes_per_flow * 8) /. completion_s

let run_with_sack ?faults ?(buffer = Net.Buffer_mgr.Static) ~sack proto
    config =
  Workload.require_positive ~scenario:"Incast" ~what:"flows" config.n_flows;
  Workload.require_positive ~scenario:"Incast" ~what:"repeats" config.repeats;
  let outcomes =
    Array.init config.repeats (fun r ->
        one_repeat ~sack ?faults ~buffer proto config
          ~seed:(Workload.repeat_seed ~base:config.seed ~stride:7919 r))
  in
  let completions = Array.map (fun o -> o.completion_s) outcomes in
  let goodputs = Array.map (goodput_of_completion config) completions in
  let d = Stats.Descriptive.of_array goodputs in
  {
    mean_goodput_bps = Stats.Descriptive.mean d;
    min_goodput_bps = Stats.Descriptive.min d;
    max_goodput_bps = Stats.Descriptive.max d;
    mean_completion =
      Stats.Descriptive.mean (Stats.Descriptive.of_array completions);
    p99_completion = Stats.Percentile.of_array completions 99.;
    timeouts_per_run =
      float_of_int
        (Array.fold_left (fun acc o -> acc + o.run_timeouts) 0 outcomes)
      /. float_of_int config.repeats;
    incomplete =
      Array.fold_left
        (fun acc o -> if o.finished then acc else acc + 1)
        0 outcomes;
  }

let run ?faults ?buffer proto config =
  run_with_sack ?faults ?buffer ~sack:false proto config
