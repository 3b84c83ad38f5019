module Sim = Engine.Sim
module Time = Engine.Time

type config = {
  background_flows : int;
  short_senders : int;
  arrival_rate : float;
  short_flow_segments : int;
  duration : Time.span;
  warmup : Time.span;
  drain : Time.span;
  bottleneck_rate_bps : float;
  rtt : Time.span;
  buffer_bytes : int;
  segment_bytes : int;
  min_rto : Time.span;
  seed : int64;
}

let default_config =
  {
    background_flows = 2;
    short_senders = 32;
    arrival_rate = 5000.;
    short_flow_segments = 14;
    duration = Time.span_of_ms 200.;
    warmup = Time.span_of_ms 50.;
    drain = Time.span_of_ms 100.;
    bottleneck_rate_bps = 10e9;
    rtt = Time.span_of_us 100.;
    buffer_bytes = 1000 * 1500;
    segment_bytes = 1500;
    min_rto = Time.span_of_ms 10.;
    seed = 1L;
  }

type result = {
  short_flows_started : int;
  short_flows_completed : int;
  fct_mean_s : float;
  fct_p50_s : float;
  fct_p99_s : float;
  fct_max_s : float;
  background_throughput_bps : float;
  mean_queue_pkts : float;
  std_queue_pkts : float;
}

let run ?faults ?(buffer = Net.Buffer_mgr.Static) (proto : Dctcp.Protocol.t)
    config =
  Workload.require_positive ~scenario:"Dynamic" ~what:"background flows"
    config.background_flows;
  Workload.require_positive ~scenario:"Dynamic" ~what:"senders"
    config.short_senders;
  if config.arrival_rate <= 0. then invalid_arg "Dynamic.run: need arrivals";
  let sim = Sim.create ~seed:config.seed () in
  let n_hosts = config.background_flows + config.short_senders in
  let marking, attach =
    Workload.inject_faults sim ?faults ~seed:config.seed
      ~component:"bottleneck"
      (proto.Dctcp.Protocol.marking ())
  in
  let net =
    Net.Topology.dumbbell sim ~n_senders:n_hosts
      ~bottleneck_rate_bps:config.bottleneck_rate_bps ~rtt:config.rtt
      ~buffer_bytes:config.buffer_bytes ~buffer ~marking ()
  in
  attach net.Net.Topology.bottleneck;
  let tcp_config =
    {
      Tcp.Sender.default_config with
      segment_bytes = config.segment_bytes;
      min_rto = config.min_rto;
    }
  in
  (* Background long-lived flows on the first hosts. *)
  let background =
    Array.init config.background_flows (fun i ->
        let f =
          Tcp.Flow.create sim ~src:net.Net.Topology.senders.(i)
            ~dst:net.Net.Topology.receiver ~flow:i
            ~cc:proto.Dctcp.Protocol.cc ~config:tcp_config
            ~echo:proto.Dctcp.Protocol.echo ()
        in
        Tcp.Flow.start_at f (Time.of_us (float_of_int i));
        f)
  in
  let rng = Engine.Rng.split (Sim.rng sim) in
  let t_measure_start = Time.of_ns config.warmup in
  let t_last_arrival = Time.add t_measure_start config.duration in
  let t_stop = Time.add t_last_arrival config.drain in
  let started = ref 0 in
  let fcts = ref [] in
  let next_flow_id = ref config.background_flows in
  let next_src = ref 0 in
  (* Poisson arrivals of short flows during the measurement window. *)
  let rec arrival () =
    let now = Sim.now sim in
    if Time.(now <= t_last_arrival) then begin
      let src =
        net.Net.Topology.senders.(config.background_flows
                                  + (!next_src mod config.short_senders))
      in
      incr next_src;
      let id = !next_flow_id in
      incr next_flow_id;
      incr started;
      let born = now in
      let flow = ref None in
      let f =
        Tcp.Flow.create sim ~src ~dst:net.Net.Topology.receiver ~flow:id
          ~cc:proto.Dctcp.Protocol.cc ~config:tcp_config
          ~echo:proto.Dctcp.Protocol.echo
          ~limit_segments:config.short_flow_segments
          ~on_complete:(fun _ ->
            fcts :=
              Time.span_to_sec (Time.diff (Sim.now sim) born) :: !fcts;
            (* Free the host's flow binding for reuse. *)
            match !flow with Some f -> Tcp.Flow.close f | None -> ())
          ()
      in
      flow := Some f;
      Tcp.Flow.start f;
      let gap = Engine.Rng.exponential rng ~mean:(1. /. config.arrival_rate) in
      ignore (Sim.schedule_after sim (Time.span_of_sec gap) arrival)
    end
  in
  let bottleneck = net.Net.Topology.bottleneck in
  let bqueue = Net.Port.queue bottleneck in
  let background_at_start = Array.make config.background_flows 0 in
  ignore
    (Sim.schedule_at sim t_measure_start (fun () ->
         Net.Queue_disc.reset_stats bqueue;
         Array.iteri
           (fun i f ->
             background_at_start.(i) <- Tcp.Flow.segments_delivered f)
           background;
         arrival ()));
  Sim.run ~until:t_stop sim;
  let fcts = Array.of_list !fcts in
  let n_done = Array.length fcts in
  let pct p = if n_done = 0 then 0. else Stats.Percentile.of_array fcts p in
  let bg_segments =
    Array.to_list background
    |> List.mapi (fun i f ->
           Tcp.Flow.segments_delivered f - background_at_start.(i))
    |> List.fold_left ( + ) 0
  in
  let window_s =
    Time.span_to_sec (Time.diff t_stop t_measure_start)
  in
  {
    short_flows_started = !started;
    short_flows_completed = n_done;
    fct_mean_s =
      (if n_done = 0 then 0.
       else Array.fold_left ( +. ) 0. fcts /. float_of_int n_done);
    fct_p50_s = pct 50.;
    fct_p99_s = pct 99.;
    fct_max_s = pct 100.;
    background_throughput_bps =
      float_of_int (bg_segments * config.segment_bytes * 8) /. window_s;
    mean_queue_pkts = Net.Queue_disc.mean_occupancy_packets bqueue;
    std_queue_pkts = Net.Queue_disc.stddev_occupancy_packets bqueue;
  }
