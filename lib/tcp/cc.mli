(** Pluggable congestion control.

    A congestion-control algorithm is a per-flow stateful value built from a
    {!factory}. The sender gives the factory a {!flow_api} holding its
    window cells, then notifies the algorithm of protocol events:

    - {!t.on_ack} for {e every} ACK (new or duplicate) with the echoed ECE
      bit — DCTCP's alpha estimator needs the per-ACK stream;
    - {!t.on_fast_retransmit} when a triple-dupack retransmission fires;
    - {!t.on_timeout} when the RTO fires.

    {b The window contract.} [cwnd] and [ssthresh] (in segments) live in
    the sender's flat float array {!flow_api.w}: [w.(0)] is [cwnd],
    [w.(1)] is [ssthresh]. An algorithm reads and writes them there and
    nowhere else — a float array slot is stored unboxed, where a float
    passed through a closure or kept in a mutable field of a mixed record
    would box on every ACK. Writes are raw: when the callback returns, the
    sender clamps [cwnd] into [[1, max_cwnd]] and [ssthresh] to at least
    1, so between callbacks both hold clamped values, while inside one an
    algorithm that reads back a cell it wrote sees its own unclamped
    value. {!grow}, {!halve} and {!collapse} are the shared Reno steps.

    Baselines [reno] and [ecn_reno] live here; the DCTCP algorithm is in
    [lib/dctcp] (the layer under study). *)

type flow_api = {
  now : unit -> Engine.Time.t;
  flow : int;  (** Flow id, for trace records. *)
  tracer : Obs.Trace.t;
      (** The sender's tracer ({!Obs.Trace.null} when untraced), so
          algorithms can emit events such as [Cwnd_cut]. *)
  w : float array;
      (** The sender's window cells, [[| cwnd; ssthresh |]]; see the
          window contract above. *)
}

type t = {
  name : string;
  on_ack : newly_acked:int -> ece:bool -> snd_una:int -> snd_nxt:int -> unit;
      (** [newly_acked] is 0 for duplicate ACKs. [snd_una] is the value
          after the ACK was applied; sequence numbers let window-grained
          algorithms delimit RTT epochs. *)
  on_fast_retransmit : unit -> unit;
  on_timeout : unit -> unit;
  alpha : unit -> float option;
      (** DCTCP-style congestion-extent estimate, if the algorithm keeps
          one (for instrumentation; [None] for Reno). *)
}

type factory = flow_api -> t

(** {2 Shared Reno steps} *)

val grow : flow_api -> int -> unit
(** [grow api newly_acked]: slow start ([cwnd += newly_acked]) below
    [ssthresh], congestion avoidance ([cwnd += newly_acked / cwnd]) at or
    above it; no-op when [newly_acked = 0]. *)

val halve : flow_api -> unit
(** Multiplicative decrease: [ssthresh] and [cwnd] to [max (cwnd/2) 1]. *)

val collapse : flow_api -> unit
(** Timeout: [ssthresh] to [max (cwnd/2) 1], [cwnd] to 1. *)

(** {2 Algorithms} *)

val reno : factory
(** NewReno-style growth: slow start below [ssthresh], +1/cwnd per ACK
    above; halve on fast retransmit; collapse to 1 on timeout. Ignores
    ECE. *)

val ecn_reno : factory
(** {!reno} plus classic ECN (RFC 3168) reaction: on an ECE ACK, halve the
    window, at most once per window of data. *)

val ai_md : increase:float -> decrease:float -> factory
(** Generic AIMD with additive increase [increase] segments per RTT and
    multiplicative [decrease] on any congestion event; used by ablation
    benches. *)
