(** Helpers shared by the concrete workloads.

    Every workload module pairs a plain-record [config] (with a complete
    [default_config], so call sites override only what they vary; it is
    also the record {!Exp.Spec}'s decoder fills in) with a plain-record
    [result], and exposes a [run] taking the protocol bundle under
    test. *)

val require_positive : scenario:string -> what:string -> int -> unit
(** [require_positive ~scenario ~what n] rejects non-positive scenario
    sizes with a uniform message.
    @raise Invalid_argument if [n <= 0]. *)

val repeat_seed : base:int64 -> stride:int -> int -> int64
(** Seed for repeat [r] of a multi-repeat workload: [base + r * stride].
    Strides are distinct per workload so repeats never share an RNG
    stream across workload families. *)

val inject_faults :
  Engine.Sim.t ->
  ?faults:Fault.Plan.t ->
  seed:int64 ->
  ?tracer:Obs.Trace.t ->
  ?metrics:Obs.Metrics.t ->
  component:string ->
  Net.Marking.t ->
  Net.Marking.t * (Net.Port.t -> unit)
(** [inject_faults sim ?faults ~seed ~component marking] is the marking
    policy to install at the bottleneck and the function to call on the
    bottleneck port once the topology is built. With a plan, both go
    through one {!Fault.Injector} seeded from [seed]; without one no
    injector is constructed, the marking is returned unchanged and the
    port function does nothing, so the run is event-for-event the one
    a build without fault injection produces. *)

val timeouts : Tcp.Flow.t array -> int
(** Retransmission timeouts summed over the flows' senders. *)

val run_slices :
  ?slice:Engine.Time.span ->
  Engine.Sim.t ->
  cap:Engine.Time.t ->
  pending:(unit -> bool) ->
  unit
(** Advance [sim] in [slice]-sized steps (default 5 ms) until [pending]
    reports completion or the clock reaches [cap] — the shared
    "stop as soon as the query is answered" loop of the fan-in
    workloads. *)
