(* Layer probes: timing and counting wrappers around the closures the
   simulator calls at its layer boundaries (congestion control, marking,
   buffer-limit updates). Wrapping only observes — every call is
   forwarded with the same arguments and its result returned unchanged —
   so a wrapped run's outcome is bit-identical to an unwrapped one; the
   tests pin that on the ci_smoke specs.

   Timing is sampled: one call in [sample_every] is bracketed with the
   monotonic clock, every call is counted. The first call of each kind
   is always timed, so a hook fired once (the dumbbell's single
   [on_limit]) still gets a duration. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let sample_every = 16
let sample_mask = sample_every - 1

(* One call site: exact call count, sampled duration. *)
type span = { mutable calls : int; mutable sampled : int; mutable ns : int }

let span () = { calls = 0; sampled = 0; ns = 0 }

let timed s =
  let c = s.calls in
  s.calls <- c + 1;
  c land sample_mask = 0

let record s t0 =
  s.sampled <- s.sampled + 1;
  s.ns <- s.ns + (now_ns () - t0)

(* Mean nanoseconds per sampled call, one clock read included; [None]
   when nothing was sampled (a gap, not a zero). *)
let mean_ns s =
  if s.sampled = 0 then None
  else Some (float_of_int s.ns /. float_of_int s.sampled)

(* Estimated total self time of every call, sampled or not. *)
let total_ns s =
  match mean_ns s with None -> 0. | Some m -> m *. float_of_int s.calls

let merge_span a b =
  { calls = a.calls + b.calls; sampled = a.sampled + b.sampled; ns = a.ns + b.ns }

(* Per congestion-control algorithm (keyed by [Tcp.Cc.t.name]). *)
type cc = {
  on_ack : span;
  mutable ece_acks : int;
  mutable timeouts : int;
  mutable fast_retransmits : int;
}

type t = {
  mutable ccs : (string * cc) list;
  enqueue : span;
  dequeue : span;
  limit : span;
  mutable marks : int;
}

let create () =
  { ccs = []; enqueue = span (); dequeue = span (); limit = span (); marks = 0 }

let cc_stats t name =
  match List.assoc_opt name t.ccs with
  | Some c -> c
  | None ->
      let c =
        { on_ack = span (); ece_acks = 0; timeouts = 0; fast_retransmits = 0 }
      in
      t.ccs <- (name, c) :: t.ccs;
      c

let wrap_cc t (factory : Tcp.Cc.factory) : Tcp.Cc.factory =
 fun api ->
  let cc = factory api in
  let st = cc_stats t cc.Tcp.Cc.name in
  let on_ack ~newly_acked ~ece ~snd_una ~snd_nxt =
    if ece then st.ece_acks <- st.ece_acks + 1;
    if timed st.on_ack then begin
      let t0 = now_ns () in
      cc.Tcp.Cc.on_ack ~newly_acked ~ece ~snd_una ~snd_nxt;
      record st.on_ack t0
    end
    else cc.Tcp.Cc.on_ack ~newly_acked ~ece ~snd_una ~snd_nxt
  in
  let on_timeout () =
    st.timeouts <- st.timeouts + 1;
    cc.Tcp.Cc.on_timeout ()
  in
  let on_fast_retransmit () =
    st.fast_retransmits <- st.fast_retransmits + 1;
    cc.Tcp.Cc.on_fast_retransmit ()
  in
  { cc with Tcp.Cc.on_ack; on_timeout; on_fast_retransmit }

let wrap_marking t (m : Net.Marking.t) : Net.Marking.t =
  let on_enqueue ~bytes ~packets =
    let mark =
      if timed t.enqueue then begin
        let t0 = now_ns () in
        let mark = m.Net.Marking.on_enqueue ~bytes ~packets in
        record t.enqueue t0;
        mark
      end
      else m.Net.Marking.on_enqueue ~bytes ~packets
    in
    if mark then t.marks <- t.marks + 1;
    mark
  in
  let on_dequeue ~bytes ~packets =
    if timed t.dequeue then begin
      let t0 = now_ns () in
      m.Net.Marking.on_dequeue ~bytes ~packets;
      record t.dequeue t0
    end
    else m.Net.Marking.on_dequeue ~bytes ~packets
  in
  let on_limit ~limit_bytes =
    if timed t.limit then begin
      let t0 = now_ns () in
      m.Net.Marking.on_limit ~limit_bytes;
      record t.limit t0
    end
    else m.Net.Marking.on_limit ~limit_bytes
  in
  { m with Net.Marking.on_enqueue; on_dequeue; on_limit }

let wrap_protocol t (p : Dctcp.Protocol.t) : Dctcp.Protocol.t =
  {
    p with
    Dctcp.Protocol.cc = wrap_cc t p.Dctcp.Protocol.cc;
    marking = (fun ?on_flip () -> wrap_marking t (p.Dctcp.Protocol.marking ?on_flip ()));
  }

let merge_cc a b =
  {
    on_ack = merge_span a.on_ack b.on_ack;
    ece_acks = a.ece_acks + b.ece_acks;
    timeouts = a.timeouts + b.timeouts;
    fast_retransmits = a.fast_retransmits + b.fast_retransmits;
  }

let merge ts =
  List.fold_left
    (fun acc t ->
      let ccs =
        List.fold_left
          (fun ccs (name, c) ->
            match List.assoc_opt name ccs with
            | None -> (name, c) :: ccs
            | Some prev -> (name, merge_cc prev c) :: List.remove_assoc name ccs)
          acc.ccs t.ccs
      in
      {
        ccs;
        enqueue = merge_span acc.enqueue t.enqueue;
        dequeue = merge_span acc.dequeue t.dequeue;
        limit = merge_span acc.limit t.limit;
        marks = acc.marks + t.marks;
      })
    (create ()) ts

(* Every algorithm's counters summed, and DCTCP's alone. *)
let all_cc t =
  List.fold_left (fun acc (_, c) -> merge_cc acc c)
    { on_ack = span (); ece_acks = 0; timeouts = 0; fast_retransmits = 0 }
    t.ccs

let dctcp_cc t = List.assoc_opt "dctcp" t.ccs
