(* The fat-tree workload assembled from public functions, for the traced
   run only: [Workloads.Fattree.run] takes no [on_sim], so the engine
   self-profiler cannot attach to the simulator it creates. This is the
   same scenario, step for step and draw for draw ([Fattree.run]'s own
   order of topology build, incast sender picks, long-flow picks, flow
   creation and start jitter), with an [on_sim] hook and the
   [engine.heap_high_water] probe added. The traced outcome is compared
   with the library's untraced one ([Exp.Outcome.equal]) on every run,
   so any drift between the two counts as a failed run. *)

module F = Workloads.Fattree
module Sim = Engine.Sim
module Time = Engine.Time

(* One-way link traversals: 2 within a rack, 4 within a pod, 6 across. *)
let hops ~half ~hosts_per_pod ~src ~dst =
  if src / half = dst / half then 2
  else if src / hosts_per_pod = dst / hosts_per_pod then 4
  else 6

(* Idle-network FCT, as [Workloads.Fattree] scores it. *)
let ideal_fct_ns (c : F.config) ~hops ~bytes =
  let seg = c.segment_bytes in
  let segments = (bytes + seg - 1) / seg in
  let ser_ns b = Int64.of_float (float_of_int (b * 8) /. c.rate_bps *. 1e9) in
  let prop = Int64.mul (Int64.of_int (2 * hops)) c.link_delay in
  Int64.add
    (Int64.add prop (ser_ns (segments * seg)))
    (Int64.mul (Int64.of_int (hops - 1)) (ser_ns seg))

let no_route (ft : Net.Topology.fat_tree) =
  let sum = Array.fold_left (fun a sw -> a + Net.Switch.no_route_drops sw) in
  sum (sum (sum 0 ft.edges) ft.aggs) ft.cores

let run ~metrics ~buffer ~on_sim (proto : Dctcp.Protocol.t) (c : F.config) : F.result =
  Workloads.Workload.require_positive ~scenario:"Fattree" ~what:"incast_fanin" c.incast_fanin;
  if c.long_flows < 0 then invalid_arg "Fattree.run: negative long_flows";
  let sim = Sim.create ~seed:c.seed () in
  on_sim sim;
  let ft =
    Net.Topology.fat_tree sim ~k:c.k ~rate_bps:c.rate_bps ~link_delay:c.link_delay
      ~queue_bytes:c.queue_bytes ~edge_buffer:buffer ~agg_buffer:buffer ~core_buffer:buffer
      ~marking:proto.Dctcp.Protocol.marking ()
  in
  let half = c.k / 2 in
  let n_hosts = Array.length ft.hosts in
  let hosts_per_pod = half * half in
  let n_racks = n_hosts / half in
  let n_short = n_racks * c.incast_fanin in
  let total = n_short + c.long_flows in
  let src_a = Array.make total 0 and dst_a = Array.make total 0 in
  let bytes_a = Array.make total 0 in
  let rng = Sim.rng sim in
  for r = 0 to n_racks - 1 do
    for j = 0 to c.incast_fanin - 1 do
      let i = (r * c.incast_fanin) + j in
      let rec pick () =
        let s = Engine.Rng.int rng ~bound:n_hosts in
        if s / half = r then pick () else s
      in
      src_a.(i) <- pick ();
      dst_a.(i) <- r * half;
      bytes_a.(i) <- c.incast_bytes
    done
  done;
  for l = 0 to c.long_flows - 1 do
    let i = n_short + l in
    let src = Engine.Rng.int rng ~bound:n_hosts in
    src_a.(i) <- src;
    dst_a.(i) <- (src + (n_hosts / 2)) mod n_hosts;
    bytes_a.(i) <- c.long_bytes
  done;
  let tcp_config =
    {
      Tcp.Sender.default_config with
      segment_bytes = c.segment_bytes;
      min_rto = c.min_rto;
      initial_cwnd = c.initial_cwnd;
    }
  in
  let remaining = ref total in
  let finished = Array.make total false in
  let done_at = Array.make total Time.zero in
  let flows =
    Array.init total (fun i ->
        Tcp.Flow.create sim ~src:ft.hosts.(src_a.(i)) ~dst:ft.hosts.(dst_a.(i)) ~flow:i
          ~cc:proto.Dctcp.Protocol.cc ~config:tcp_config ~echo:proto.Dctcp.Protocol.echo
          ~limit_segments:((bytes_a.(i) + c.segment_bytes - 1) / c.segment_bytes)
          ~on_complete:(fun _ ->
            decr remaining;
            finished.(i) <- true;
            done_at.(i) <- Sim.now sim)
          ())
  in
  Obs.Metrics.probe metrics "engine.events_processed" (fun () ->
      float_of_int (Sim.events_processed sim));
  Obs.Metrics.probe metrics "engine.heap_high_water" (fun () ->
      float_of_int (Sim.heap_high_water sim));
  let starts = Array.make total Time.zero in
  Array.iteri
    (fun i f ->
      starts.(i) <- Time.of_ns (Engine.Rng.jitter_span rng ~max:c.start_spread);
      Tcp.Flow.start_at f starts.(i))
    flows;
  let cap = Time.of_ns c.time_cap in
  Workloads.Workload.run_slices sim ~cap ~pending:(fun () -> !remaining > 0);
  let slowdowns =
    Array.init total (fun i ->
        let h = hops ~half ~hosts_per_pod ~src:src_a.(i) ~dst:dst_a.(i) in
        let finish = if finished.(i) then done_at.(i) else cap in
        let actual = Int64.sub (Time.to_ns finish) (Time.to_ns starts.(i)) in
        let actual_ns = if Int64.compare actual 0L < 0 then 0L else actual in
        Stats.Fct.slowdown ~ideal_ns:(ideal_fct_ns c ~hops:h ~bytes:bytes_a.(i)) ~actual_ns)
  in
  let s = Stats.Fct.summarize slowdowns in
  {
    F.slowdown_p50 = s.p50;
    slowdown_p95 = s.p95;
    slowdown_p99 = s.p99;
    slowdown_p999 = s.p999;
    slowdown_mean = s.mean;
    slowdown_max = s.max;
    flows_total = total;
    timeouts =
      Array.fold_left (fun acc f -> acc + Tcp.Sender.timeouts (Tcp.Flow.sender f)) 0 flows;
    incomplete = Array.fold_left (fun acc f -> if f then acc else acc + 1) 0 finished;
    no_route_drops = no_route ft;
  }
