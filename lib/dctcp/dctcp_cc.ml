type params = { g : float; init_alpha : float }

let default_params = { g = 1. /. 16.; init_alpha = 1.0 }

type reduction_context = {
  alpha : float;
  cwnd : float;
  now : Engine.Time.t;
  rtt_estimate : Engine.Time.span option;
  snd_una : int;
}

(* Per-flow state. Floats sit in float arrays and instants in int
   nanoseconds: a mutable float or an option of an int64 span in this
   mixed record would box on every update. *)
type state = {
  api : Tcp.Cc.flow_api;
  g : float;
  alpha : float array;  (* [| alpha |] *)
  penalty : (reduction_context -> float) option;  (* [None]: alpha *)
  mutable window_end : int;
  mutable acked_total : int;
  mutable acked_marked : int;
  mutable cwr_end : int;
  mutable epoch_started_ns : int;
  mutable epoch_ns : int;
      (* length of the last completed observation window; 0 before one *)
}

(* What a custom penalty sees at an ECE-triggered cut. *)
let context st ~cwnd ~snd_una =
  {
    alpha = st.alpha.(0);
    cwnd;
    now = st.api.Tcp.Cc.now ();
    rtt_estimate =
      (if st.epoch_ns > 0 then Some (Int64.of_int st.epoch_ns) else None);
    snd_una;
  }

let on_ack st ~newly_acked ~ece ~snd_una ~snd_nxt =
  let api = st.api in
  if newly_acked > 0 then begin
    st.acked_total <- st.acked_total + newly_acked;
    if ece then st.acked_marked <- st.acked_marked + newly_acked
  end;
  if ece then begin
    if snd_una > st.cwr_end then begin
      (* Penalty-gated proportional backoff, once per window. *)
      let w = api.Tcp.Cc.w in
      let cwnd = w.(0) in
      (* The backoff factor, clamped to [0, 1]: plain DCTCP reads alpha;
         only a custom penalty gets a context record. *)
      let p =
        match st.penalty with
        | None -> st.alpha.(0)
        | Some penalty -> penalty (context st ~cwnd ~snd_una)
      in
      let p = if p < 0. then 0. else if p > 1. then 1. else p in
      let target = cwnd *. (1. -. (p /. 2.)) in
      if Obs.Trace.enabled api.Tcp.Cc.tracer Obs.Trace.C_cwnd_cut then
        Obs.Trace.emit api.Tcp.Cc.tracer
          {
            Obs.Trace.time = api.Tcp.Cc.now ();
            component = Printf.sprintf "flow%d" api.Tcp.Cc.flow;
            event =
              Obs.Trace.Cwnd_cut
                {
                  flow = api.Tcp.Cc.flow;
                  cwnd_before = cwnd;
                  cwnd_after = target;
                  alpha = st.alpha.(0);
                };
          };
      w.(0) <- target;
      w.(1) <- target;
      st.cwr_end <- snd_nxt
    end
  end
  else Tcp.Cc.grow api newly_acked;
  if snd_una >= st.window_end then begin
    (* End of the observation window: fold the marked fraction into
       alpha and open the next window. *)
    let f =
      if st.acked_total = 0 then 0.
      else float_of_int st.acked_marked /. float_of_int st.acked_total
    in
    st.alpha.(0) <- ((1. -. st.g) *. st.alpha.(0)) +. (st.g *. f);
    st.acked_total <- 0;
    st.acked_marked <- 0;
    st.window_end <- snd_nxt;
    let now = Engine.Time.to_int_ns (api.Tcp.Cc.now ()) in
    let span = now - st.epoch_started_ns in
    if span > 0 then st.epoch_ns <- span;
    st.epoch_started_ns <- now
  end

let make ~(params : params) ~penalty =
  if params.g <= 0. || params.g > 1. then
    invalid_arg "Dctcp_cc.cc: g out of (0,1]";
  if params.init_alpha < 0. || params.init_alpha > 1. then
    invalid_arg "Dctcp_cc.cc: init_alpha out of [0,1]";
  fun (api : Tcp.Cc.flow_api) ->
    let st =
      {
        api;
        g = params.g;
        alpha = [| params.init_alpha |];
        penalty;
        window_end = 0;
        acked_total = 0;
        acked_marked = 0;
        cwr_end = 0;
        epoch_started_ns = Engine.Time.to_int_ns (api.Tcp.Cc.now ());
        epoch_ns = 0;
      }
    in
    {
      Tcp.Cc.name = "dctcp";
      on_ack =
        (fun ~newly_acked ~ece ~snd_una ~snd_nxt ->
          on_ack st ~newly_acked ~ece ~snd_una ~snd_nxt);
      on_fast_retransmit = (fun () -> Tcp.Cc.halve api);
      on_timeout = (fun () -> Tcp.Cc.collapse api);
      alpha = (fun () -> Some st.alpha.(0));
    }

let cc_with_penalty ?(params = default_params) ~penalty () =
  make ~params ~penalty:(Some penalty)

let cc ?(params = default_params) () = make ~params ~penalty:None
