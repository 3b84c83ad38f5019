(** DCTCP congestion control (sender side).

    The sender maintains alpha, an EWMA of the fraction of acknowledged
    segments whose ACKs carried ECN-Echo, updated once per window of data
    (Eq. "alpha <- (1-g) alpha + g F"); on congestion it backs off
    proportionally, [cwnd <- cwnd * (1 - alpha/2)], at most once per window.
    Loss handling is standard TCP (halve on fast retransmit, collapse to 1
    on timeout). Both DCTCP and DT-DCTCP use this identical sender; the two
    protocols differ only in the switch marking policy
    ({!Marking_policies}). *)

type params = {
  g : float;  (** EWMA gain, the paper uses 1/16. *)
  init_alpha : float;
      (** Initial congestion estimate; 1.0 (conservative, as in Linux)
          unless overridden. *)
}

val default_params : params
(** [g = 1/16], [init_alpha = 1.0]. *)

val cc : ?params:params -> unit -> Tcp.Cc.factory
(** A fresh factory; each flow built from it gets independent state.
    @raise Invalid_argument if [g] is outside (0, 1] or [init_alpha]
    outside [0, 1]. *)

(** {2 Penalty hook (for deadline-aware derivatives)}

    D2TCP and similar schemes keep DCTCP's alpha machinery but gate the
    backoff through a penalty function [p] of alpha and flow state:
    [cwnd <- cwnd * (1 - p/2)]. The hook receives a snapshot at the moment
    an ECE-triggered reduction is due; plain DCTCP ({!cc}) builds none. *)

type reduction_context = {
  alpha : float;  (** Current congestion estimate. *)
  cwnd : float;  (** Window before the reduction, segments. *)
  now : Engine.Time.t;
  rtt_estimate : Engine.Time.span option;
      (** Duration of the last completed observation window (~1 RTT), if
          one has completed. *)
  snd_una : int;  (** Cumulative segments acknowledged. *)
}

val cc_with_penalty :
  ?params:params -> penalty:(reduction_context -> float) -> unit ->
  Tcp.Cc.factory
(** Like {!cc} but backs off by [penalty ctx] instead of [ctx.alpha]; the
    returned penalty is clamped to [0, 1]. [cc] behaves as
    [cc_with_penalty ~penalty:(fun ctx -> ctx.alpha)], without building
    the context. *)
