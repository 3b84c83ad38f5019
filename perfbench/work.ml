(* The benchmark's workloads and the ways it executes them: untraced
   through [Exp.Runner] (the end-to-end numbers), traced through a
   direct dispatch into [Workloads.*.run] with layer probes attached,
   a replay of each spec's set-up on a fresh simulator, and the two
   in-run calibration loops. *)

module Spec = Exp.Spec

(* Why each workload was chosen is recorded in BENCHMARK.json and
   README.md. *)
type t = {
  name : string;
  jobs : int;
  spec_names : string list;  (** Registry spec names, run in this order. *)
}

let dumbbell_n60 =
  {
    name = "dumbbell-n60";
    jobs = 1;
    spec_names = [ "fig_sweep/dt-dctcp/n=60" ];
  }

let fattree_k8 =
  {
    name = "fattree-k8";
    jobs = 1;
    spec_names = [ "fig_fattree/dt-dctcp/k=8" ];
  }

(* Longest spec first (as a sweep is best ordered for [Runner]'s
   work-stealing): the -j2 tail is then set by short specs, so the wall
   time measures throughput rather than which long spec was claimed
   last. [runner.max_spec_s] still reports the slowest spec. *)
let suite_j2 =
  {
    name = "suite-j2";
    jobs = 2;
    spec_names =
      [
        "robust_suppress/dt-dctcp/n=70";
        "convergence/dt-dctcp";
        "queue_buildup/dt-dctcp";
        "fig_queue/dt-dctcp/n=100";
        "robust_flap/dt-dctcp/flap";
        "robust_loss/dt-dctcp/p=0.01";
        "fig_buffer/dt-dctcp/B=1000000/a=1";
        "fig_buffer/newreno/B=125000/a=1";
        "fig_buffer/dt-dctcp/B=10000/a=1";
        "d2tcp/d2tcp/n=20";
        "fig_incast/dt-30-34/n=48";
        "fig_fattree/dt-dctcp/k=4";
        "ablation_testbed_labels/start28-stop34/n=40";
        "fig_completion/dt-30-34/n=48";
        "sack/sack/n=40";
      ];
  }

let all = [ dumbbell_n60; fattree_k8; suite_j2 ]
let find name = List.find_opt (fun w -> String.equal w.name name) all

let registry_spec name =
  let specs =
    List.concat_map (fun (e : Exp.Registry.entry) -> e.specs ()) (Exp.Registry.all ())
  in
  match List.find_opt (fun (s : Spec.t) -> String.equal s.name name) specs with
  | Some s -> s
  | None -> failwith ("perfbench: no registry spec " ^ name)

(* The workload seed replaces every spec's own seed, so one seed fixes
   the whole workload's inputs. *)
let specs w ~seed =
  List.map (fun n -> Spec.with_seed (Int64.of_int seed) (registry_spec n)) w.spec_names

(* Workload kinds whose manifests count engine events. The Incast
   family ([Incast], [Completion], [Deadline]) plus [Dynamic] and
   [Convergence] take no metrics registry, so their manifests report
   [events = 0]; they are left out of every per-event figure. *)
let counts_events (s : Spec.t) =
  match s.workload with
  | Spec.Longlived _ | Spec.Fattree _ -> true
  | Spec.Incast _ | Spec.Completion _ | Spec.Dynamic _ | Spec.Convergence _
  | Spec.Deadline _ ->
      false

let seconds_since t0 = float_of_int (Layers.now_ns () - t0) *. 1e-9

(* --- in-run calibration --- *)

(* Events fired by each calibration loop. *)
let calib_events = 200_000

(* [engine.churn_ns]: an [Engine.Sim] schedule-and-fire loop of 256
   self-rescheduling events with pseudo-random delays, the wheel
   insert/pop path the simulator itself runs, with no network code.
   Nanoseconds per fired event. *)
let churn_ns () =
  let sim = Engine.Sim.create ~seed:1L () in
  let fired = ref 0 in
  let lcg = ref 12345 in
  let rec tick () =
    incr fired;
    if !fired <= calib_events then begin
      lcg := ((!lcg * 1103515245) + 12345) land 0x3FFF_FFFF;
      ignore (Engine.Sim.schedule_after sim (Int64.of_int (1 + (!lcg land 0xFFFF))) tick)
    end
  in
  for i = 1 to 256 do
    ignore (Engine.Sim.schedule_after sim (Int64.of_int i) tick)
  done;
  let t0 = Layers.now_ns () in
  Engine.Sim.run sim;
  float_of_int (Layers.now_ns () - t0) /. float_of_int !fired

(* The calibration that normalises host times ({!loop_ns}) shares no
   code with the simulator, so only the machine moves it, yet it does
   the kind of work the simulator does, so on a shared host both slow
   down together when a neighbour contends for the core or memory.

   Its memory is one fixed random cycle of 512K slots (8 MB, past the
   private caches, as the simulator's heap is), built and kept in
   Bigarrays outside the OCaml heap so it never shows in
   [peak_heap_mb]. *)
let ring =
  lazy
    (let open Bigarray in
     let n = 1 lsl 19 in
     let next = Array1.create int c_layout n and acc = Array1.create int c_layout n in
     for i = 0 to n - 1 do
       next.{i} <- i;
       acc.{i} <- i
     done;
     let x = ref 0x2545F4914F6CDD1D in
     (* Sattolo's shuffle, in place: a single cycle through every slot. *)
     for i = n - 1 downto 1 do
       x := !x lxor (!x lsl 13);
       x := !x lxor (!x lsr 7);
       x := !x lxor (!x lsl 17);
       let j = (!x land max_int) mod i in
       let t = next.{i} in
       next.{i} <- next.{j};
       next.{j} <- t
     done;
     (next, acc))

(* A frozen discrete-event loop: a binary min-heap of 1024 pending
   closures, each of which touches a slot of the ring, allocates its
   successor and schedules it at a pseudo-random delay. Nanoseconds per
   fired event. *)
let loop_ns () =
  let next, acc = Lazy.force ring in
  let n = Bigarray.Array1.dim next in
  let cap = 1024 in
  let keys = Array.make (cap + 1) 0 and acts = Array.make (cap + 1) ignore in
  let size = ref 0 and fired = ref 0 and lcg = ref 12345 in
  let push k a =
    incr size;
    let i = ref !size in
    while !i > 1 && keys.(!i / 2) > k do
      keys.(!i) <- keys.(!i / 2);
      acts.(!i) <- acts.(!i / 2);
      i := !i / 2
    done;
    keys.(!i) <- k;
    acts.(!i) <- a
  in
  let pop () =
    let a = acts.(1) in
    let lk = keys.(!size) and la = acts.(!size) in
    decr size;
    let i = ref 1 and fin = ref false in
    while not !fin do
      let c = 2 * !i in
      if c > !size then fin := true
      else begin
        let c = if c < !size && keys.(c + 1) < keys.(c) then c + 1 else c in
        if keys.(c) < lk then begin
          keys.(!i) <- keys.(c);
          acts.(!i) <- acts.(c);
          i := c
        end
        else fin := true
      end
    done;
    keys.(!i) <- lk;
    acts.(!i) <- la;
    a
  in
  let rec event now slot () =
    incr fired;
    let v = acc.{slot} + now in
    acc.{slot} <- v;
    lcg := ((!lcg * 1103515245) + 12345) land 0x3FFF_FFFF;
    let at = now + 1 + (!lcg land 0xFFFF) in
    push at (event at (next.{(slot + v) land (n - 1)}))
  in
  for i = 1 to cap - 1 do
    push i (event i i)
  done;
  let t0 = Layers.now_ns () in
  while !fired < calib_events do
    pop () ()
  done;
  float_of_int (Layers.now_ns () - t0) /. float_of_int !fired

(* --- set-up replay ---

   Rebuilds each spec's network and flows on a fresh simulator, the way
   the workload does before its first event, timing topology
   construction and [Tcp.Flow.create] separately. Flows are created but
   never started, so no event runs. The switches and flow identities of
   each spec's first network are kept for the [Switch.route_port]
   replay. *)

type fabric = { switches : Net.Switch.t array; flows : (int * int * int) array }

type setup = {
  mutable topology_ns : int;
  mutable flow_ns : int;
  mutable flows_created : int;
  mutable fabrics : fabric list;
}

let network b ~keep ~seed ~n_flows ~(proto : Dctcp.Protocol.t) build =
  let t0 = Layers.now_ns () in
  let sim = Engine.Sim.create ~seed () in
  let switches, endpoints = build sim in
  let t1 = Layers.now_ns () in
  let flows =
    Array.init n_flows (fun i ->
        let src, dst = endpoints i in
        ignore
          (Tcp.Flow.create sim ~src ~dst ~flow:i ~cc:proto.Dctcp.Protocol.cc
             ~echo:proto.Dctcp.Protocol.echo ());
        (Net.Host.id src, Net.Host.id dst, i))
  in
  let t2 = Layers.now_ns () in
  b.topology_ns <- b.topology_ns + (t1 - t0);
  b.flow_ns <- b.flow_ns + (t2 - t1);
  b.flows_created <- b.flows_created + n_flows;
  if keep then b.fabrics <- { switches; flows } :: b.fabrics

let replay_spec b (spec : Spec.t) =
  let proto = Spec.protocol_of spec.protocol in
  let buffer = spec.buffer in
  let seed = Spec.seed spec in
  let dumbbell ~n ~rate ~rtt ~buffer_bytes ~n_flows =
    network b ~keep:true ~seed ~n_flows ~proto (fun sim ->
        let d =
          Net.Topology.dumbbell sim ~n_senders:n ~bottleneck_rate_bps:rate ~rtt
            ~buffer_bytes ~buffer ~marking:(proto.Dctcp.Protocol.marking ()) ()
        in
        ( [| d.Net.Topology.switch |],
          fun i -> (d.Net.Topology.senders.(i), d.Net.Topology.receiver) ))
  in
  let stars ~repeats ~rate ~bottleneck ~leaf ~n_flows =
    for r = 0 to repeats - 1 do
      network b ~keep:(r = 0) ~seed ~n_flows ~proto (fun sim ->
          let s =
            Net.Topology.star_testbed sim ~rate_bps:rate ~bottleneck_buffer:bottleneck
              ~leaf_buffer:leaf ~buffer ~marking:(proto.Dctcp.Protocol.marking ()) ()
          in
          let w = s.Net.Topology.workers in
          ( Array.append [| s.Net.Topology.root |] s.Net.Topology.leaves,
            fun i -> (w.(i mod Array.length w), s.Net.Topology.aggregator) ))
    done
  in
  match spec.workload with
  | Spec.Longlived c ->
      let module L = Workloads.Longlived in
      dumbbell ~n:c.L.n_flows ~rate:c.L.bottleneck_rate_bps ~rtt:c.L.rtt
        ~buffer_bytes:c.L.buffer_bytes ~n_flows:c.L.n_flows
  | Spec.Dynamic c ->
      let module D = Workloads.Dynamic in
      dumbbell ~n:(c.D.background_flows + c.D.short_senders)
        ~rate:c.D.bottleneck_rate_bps ~rtt:c.D.rtt ~buffer_bytes:c.D.buffer_bytes
        ~n_flows:c.D.background_flows
  | Spec.Convergence c ->
      let module C = Workloads.Convergence in
      dumbbell ~n:c.C.n_flows ~rate:c.C.bottleneck_rate_bps ~rtt:c.C.rtt
        ~buffer_bytes:c.C.buffer_bytes ~n_flows:c.C.n_flows
  | Spec.Incast { config = c; _ } ->
      let module I = Workloads.Incast in
      stars ~repeats:c.I.repeats ~rate:c.I.rate_bps ~bottleneck:c.I.buffer_bytes
        ~leaf:c.I.leaf_buffer_bytes ~n_flows:c.I.n_flows
  | Spec.Completion c ->
      let module Cp = Workloads.Completion in
      stars ~repeats:c.Cp.repeats ~rate:c.Cp.rate_bps ~bottleneck:c.Cp.buffer_bytes
        ~leaf:c.Cp.leaf_buffer_bytes ~n_flows:c.Cp.n_flows
  | Spec.Deadline { config = c; _ } ->
      let module De = Workloads.Deadline in
      stars ~repeats:c.De.repeats ~rate:c.De.rate_bps ~bottleneck:c.De.buffer_bytes
        ~leaf:c.De.leaf_buffer_bytes ~n_flows:c.De.n_flows
  | Spec.Fattree c ->
      let module F = Workloads.Fattree in
      let n_hosts = c.F.k * c.F.k * c.F.k / 4 in
      let n_flows = (n_hosts / (c.F.k / 2) * c.F.incast_fanin) + c.F.long_flows in
      network b ~keep:true ~seed ~n_flows ~proto (fun sim ->
          let ft =
            Net.Topology.fat_tree sim ~k:c.F.k ~rate_bps:c.F.rate_bps
              ~link_delay:c.F.link_delay ~queue_bytes:c.F.queue_bytes
              ~edge_buffer:buffer ~agg_buffer:buffer ~core_buffer:buffer
              ~marking:(fun () -> proto.Dctcp.Protocol.marking ())
              ()
          in
          let h = ft.Net.Topology.hosts in
          ( Array.concat [ ft.Net.Topology.edges; ft.Net.Topology.aggs; ft.Net.Topology.cores ],
            fun i ->
              let src = i * 7 mod n_hosts in
              (h.(src), h.((src + (n_hosts / 2)) mod n_hosts)) ))

let replay_setup specs =
  let b = { topology_ns = 0; flow_ns = 0; flows_created = 0; fabrics = [] } in
  List.iter (replay_spec b) specs;
  b

(* Mean nanoseconds per [Switch.route_port] lookup, replaying every
   kept flow identity at every switch of its network until at least
   [route_min_calls] lookups have run. *)
let route_min_calls = 400_000

let route_ns fabrics =
  let calls = ref 0 and sink = ref 0 in
  let t0 = Layers.now_ns () in
  while !calls < route_min_calls do
    List.iter
      (fun f ->
        Array.iter
          (fun sw ->
            Array.iter
              (fun (src, dst, flow) ->
                sink := !sink + Net.Switch.route_port sw ~src ~dst ~flow)
              f.flows;
            calls := !calls + Array.length f.flows)
          f.switches)
      fabrics
  done;
  ignore (Sys.opaque_identity !sink);
  float_of_int (Layers.now_ns () - t0) /. float_of_int !calls

(* --- correctness --- *)

(* One hex digest over every spec's outcome, in spec order: any change
   to any simulated statistic changes it. *)
let digest outcomes =
  outcomes
  |> List.map (fun o -> Obs.Json.to_string (Exp.Outcome.to_json o))
  |> String.concat "\n" |> Digest.string |> Digest.to_hex

let no_route_drops = function
  | Exp.Outcome.Done (Exp.Outcome.Fattree r) -> r.Workloads.Fattree.no_route_drops
  | _ -> 0

(* A run fails when a spec raised, or the fabric dropped a packet for
   want of a route (a miswired topology). *)
let run_ok outcomes =
  List.for_all
    (fun o ->
      match o with
      | Exp.Outcome.Failed _ -> false
      | Exp.Outcome.Done _ -> no_route_drops o = 0)
    outcomes

(* --- untraced execution: the end-to-end path --- *)

type run = {
  wall_s : float;
  minor_words : float;
  promoted_words : float;
  major_collections : int;
  manifests : Obs.Manifest.t list;  (** In spec order. *)
  results : Exp.Outcome.t list;  (** In spec order. *)
  digest : string;
  ok : bool;
}

let run_untraced w specs =
  let g0 = Gc.quick_stat () in
  let t0 = Layers.now_ns () in
  let outcomes = Array.to_list (Exp.Runner.run ~jobs:w.jobs specs) in
  let wall_s = seconds_since t0 in
  let g1 = Gc.quick_stat () in
  let results = List.map (fun (o : Exp.Runner.outcome) -> o.result) outcomes in
  {
    wall_s;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
    major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    manifests = List.map (fun (o : Exp.Runner.outcome) -> o.manifest) outcomes;
    results;
    digest = digest results;
    ok = run_ok results;
  }

(* --- traced execution: the per-layer path ---

   The same dispatch [Exp.Runner.run_one] performs, but with the
   protocol bundle's closures wrapped by {!Layers} and, on long-lived
   dumbbells (through [on_sim]) and fat trees (through {!Fabric}), the
   engine self-profiler attached. The outcome must equal the untraced
   one. *)

type traced = {
  spec : Spec.t;
  result : Exp.Outcome.t;
  layers : Layers.t;
  selfprof : Obs.Selfprof.t option;
  snapshot : (string * float) list;
  traced_wall_s : float;
}

let dispatch ?on_sim ~metrics layers (spec : Spec.t) =
  let proto = Layers.wrap_protocol layers (Spec.protocol_of spec.protocol) in
  let faults = spec.faults and buffer = spec.buffer in
  match spec.workload with
  | Spec.Longlived cfg ->
      Exp.Outcome.Longlived
        (Workloads.Longlived.run ~metrics ?faults ~buffer ?on_sim proto cfg)
  | Spec.Incast { config; sack } ->
      Exp.Outcome.Incast (Workloads.Incast.run_with_sack ?faults ~buffer ~sack proto config)
  | Spec.Completion cfg ->
      Exp.Outcome.Completion (Workloads.Completion.run ?faults ~buffer proto cfg)
  | Spec.Dynamic cfg -> Exp.Outcome.Dynamic (Workloads.Dynamic.run ?faults ~buffer proto cfg)
  | Spec.Convergence cfg ->
      Exp.Outcome.Convergence (Workloads.Convergence.run ?faults ~buffer proto cfg)
  | Spec.Deadline { config; d2tcp } ->
      let kind =
        if d2tcp then
          Workloads.Deadline.Deadline_aware
            (fun ~total_segments ~deadline ->
              Layers.wrap_cc layers
                (Dctcp.D2tcp_cc.cc ~total_segments ~deadline ()))
        else Workloads.Deadline.Plain proto.Dctcp.Protocol.cc
      in
      Exp.Outcome.Deadline
        (Workloads.Deadline.run
           ~marking:(fun () -> proto.Dctcp.Protocol.marking ())
           ~echo:proto.Dctcp.Protocol.echo ?faults ~buffer kind config)
  | Spec.Fattree cfg -> (
      match (faults, on_sim) with
      | None, Some on_sim -> Exp.Outcome.Fattree (Fabric.run ~metrics ~buffer ~on_sim proto cfg)
      | _ -> Exp.Outcome.Fattree (Workloads.Fattree.run ~metrics ?faults ~buffer proto cfg))

let run_traced (spec : Spec.t) =
  let layers = Layers.create () in
  let metrics = Obs.Metrics.create () in
  let selfprof =
    match spec.workload with
    | Spec.Longlived _ | Spec.Fattree _ -> Some (Obs.Selfprof.create ())
    | _ -> None
  in
  let on_sim = Option.map (fun p sim -> Obs.Selfprof.attach p sim) selfprof in
  let t0 = Layers.now_ns () in
  let result =
    match dispatch ?on_sim ~metrics layers spec with
    | payload -> Exp.Outcome.Done payload
    | exception exn ->
        Exp.Outcome.Failed { spec = spec.name; error = Printexc.to_string exn }
  in
  let traced_wall_s = seconds_since t0 in
  {
    spec;
    result;
    layers;
    selfprof;
    snapshot = Obs.Metrics.snapshot metrics;
    traced_wall_s;
  }

