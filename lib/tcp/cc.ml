type flow_api = {
  now : unit -> Engine.Time.t;
  flow : int;
  tracer : Obs.Trace.t;
  w : float array;
}

type t = {
  name : string;
  on_ack : newly_acked:int -> ece:bool -> snd_una:int -> snd_nxt:int -> unit;
  on_fast_retransmit : unit -> unit;
  on_timeout : unit -> unit;
  alpha : unit -> float option;
}

type factory = flow_api -> t

(* Window arithmetic reads and writes the sender's float array in place:
   no float crosses a call boundary, so none is boxed in either build
   profile. Plain compares, not [Float.max]: that is an out-of-line call
   that boxes its result. *)

let grow api newly_acked =
  if newly_acked > 0 then begin
    let w = api.w in
    let cwnd = w.(0) in
    if cwnd < w.(1) then w.(0) <- cwnd +. float_of_int newly_acked
    else w.(0) <- cwnd +. (float_of_int newly_acked /. cwnd)
  end

let half_window w =
  let h = w.(0) /. 2. in
  if h < 1. then 1. else h

let halve api =
  let w = api.w in
  let target = half_window w in
  w.(1) <- target;
  w.(0) <- target

let collapse api =
  let w = api.w in
  w.(1) <- half_window w;
  w.(0) <- 1.

let reno api =
  {
    name = "reno";
    on_ack =
      (fun ~newly_acked ~ece:_ ~snd_una:_ ~snd_nxt:_ -> grow api newly_acked);
    on_fast_retransmit = (fun () -> halve api);
    on_timeout = (fun () -> collapse api);
    alpha = (fun () -> None);
  }

let ecn_reno api =
  (* One multiplicative decrease per window of data: after reacting to ECE
     we ignore further ECE until snd_una passes the snd_nxt recorded at
     reaction time. *)
  let cwr_end = ref 0 in
  {
    name = "ecn-reno";
    on_ack =
      (fun ~newly_acked ~ece ~snd_una ~snd_nxt ->
        if ece then begin
          (* No growth on congestion-echo ACKs. *)
          if snd_una > !cwr_end then begin
            halve api;
            cwr_end := snd_nxt
          end
        end
        else grow api newly_acked);
    on_fast_retransmit = (fun () -> halve api);
    on_timeout = (fun () -> collapse api);
    alpha = (fun () -> None);
  }

let ai_md ~increase ~decrease api =
  if increase <= 0. then invalid_arg "Cc.ai_md: increase must be positive";
  if decrease <= 0. || decrease >= 1. then
    invalid_arg "Cc.ai_md: decrease must be in (0,1)";
  let cwr_end = ref 0 in
  let w = api.w in
  let reduce () =
    let target = w.(0) *. (1. -. decrease) in
    let target = if target < 1. then 1. else target in
    w.(1) <- target;
    w.(0) <- target
  in
  {
    name = Printf.sprintf "aimd(%.2f,%.2f)" increase decrease;
    on_ack =
      (fun ~newly_acked ~ece ~snd_una ~snd_nxt ->
        if ece && snd_una > !cwr_end then begin
          reduce ();
          cwr_end := snd_nxt
        end
        else if newly_acked > 0 then begin
          let cwnd = w.(0) in
          if cwnd < w.(1) then w.(0) <- cwnd +. float_of_int newly_acked
          else
            w.(0) <- cwnd +. (increase *. float_of_int newly_acked /. cwnd)
        end);
    on_fast_retransmit = reduce;
    on_timeout = (fun () -> collapse api);
    alpha = (fun () -> None);
  }
