(* One benchmark run: set-up replays, untraced runs for [seconds], an
   optional traced run, the correctness checks, and the metric table. *)

type result = {
  attempted : int;
  failed : int;
  notes : string list;  (** Correctness verdicts, one line each. *)
  headline : (string * string) list;  (** Spec name, simulated summary. *)
  simulated : (string * string * float) list;
      (** Spec name, statistic, value: the paper's quantities, fixed for
          a seed, so checked by the reference digest rather than bounded. *)
  metrics : (string * float) list;
      (** Every end-to-end catalog metric and, traced, every per-layer
          one, in catalog order; all finite. *)
}

let median xs =
  match List.sort Float.compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Mean of the middle 80 %, and with five runs or more never less than
   one run cut from each end: per-run host times are skewed by slow
   outliers and, run to run, switch between two or three speed modes
   (the same simulation lands on different memory), which a plain median
   over few runs turns into jumps. *)
let trimmed_mean xs =
  let a = Array.of_list (List.sort Float.compare xs) in
  let n = Array.length a in
  let cut = if n >= 5 then max 1 (n / 10) else 0 in
  let kept = Array.sub a cut (n - (2 * cut)) in
  Array.fold_left ( +. ) 0. kept /. float_of_int (Array.length kept)

let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs
(* Set-up is replayed at least [setup_reps] times, and for small
   networks until half a second of replays or 500 of them. *)
let setup_reps = 15

(* Host times are reported calibrated: scaled by [nominal_loop_ns] over
   the calibration loop's speed measured beside them ({!Work.loop_ns}),
   i.e. as seconds on a host where that loop takes 350 ns an event (what
   a quiet 2-vCPU 2.1 GHz Xeon VM measures). A busy or slower host then
   shows up in [calib.loop_ns], not as a regression. *)
let nominal_loop_ns = 350.

(* Snapshot values whose name starts with [prefix] and ends with
   [suffix]; [None] when no such probe was registered. *)
let probe_sum snapshot ~prefix ~suffix =
  let hits =
    List.filter
      (fun (k, _) -> String.starts_with ~prefix k && String.ends_with ~suffix k)
      snapshot
  in
  if hits = [] then None else Some (sum snd hits)

let measure ?(reference = []) (w : Work.t) ~seed ~seconds ~trace =
  let specs = Work.specs w ~seed in
  (* Untraced runs until [seconds] have elapsed (at least one). *)
  let t0 = Layers.now_ns () in
  let first_top = ref 0 in
  let rec loop acc =
    (* A full major collection first, so both calibration loops and the
       run start from a collected heap, whatever the last run left. *)
    Gc.compact ();
    let churn = Work.churn_ns () in
    let cal = Work.loop_ns () in
    let r = Work.run_untraced w specs in
    (* Only the first run keeps its outcomes (for the traced comparison
       and the table), so later runs' results never inflate the heap. *)
    let r = if acc = [] then r else { r with Work.results = [] } in
    (* The major heap never shrinks back (OCaml 5.1 has no compaction)
       and fragments from run to run, so the peak is read once, after
       the first run of a fresh process. *)
    if acc = [] then first_top := (Gc.quick_stat ()).Gc.top_heap_words;
    let acc = ((churn, cal), r) :: acc in
    if Work.seconds_since t0 < seconds then loop acc else List.rev acc
  in
  let runs = loop [] in
  let top_heap_words = !first_top in
  (* Set-up: replay every spec's build [setup_reps] times, after the
     untraced runs so its garbage never inflates their peak heap. Only
     the timings are kept; one more replay feeds the route lookups. *)
  Gc.compact ();
  let k0 = Work.loop_ns () in
  let t_setup = Layers.now_ns () in
  let rec replays n acc =
    if n >= setup_reps && (Work.seconds_since t_setup >= 0.5 || n >= 500) then acc
    else replays (n + 1) ({ (Work.replay_setup specs) with Work.fabrics = [] } :: acc)
  in
  let setups = replays 0 [] in
  let setup_scale = nominal_loop_ns /. ((k0 +. Work.loop_ns ()) /. 2.) in
  let raw_setup_s =
    median
      (List.map
         (fun (b : Work.setup) -> float_of_int (b.topology_ns + b.flow_ns) *. 1e-9)
         setups)
  in
  let setup_s = setup_scale *. raw_setup_s in
  let route_ns = Work.route_ns (Work.replay_setup specs).Work.fabrics in
  (* Correctness of the untraced runs. *)
  let first = (snd (List.hd runs)).Work.results in
  let first_digest = (snd (List.hd runs)).Work.digest in
  let verdict = Reference.check reference ~workload:w.name ~seed first_digest in
  let run_failed (r : Work.run) =
    (not r.ok)
    || (not (String.equal r.digest first_digest))
    || match verdict with Reference.Mismatch _ -> true | _ -> false
  in
  let untraced_failed = List.length (List.filter (fun (_, r) -> run_failed r) runs) in
  let notes =
    [
      (match verdict with
      | Reference.Match -> "reference: outcome digest matches the recorded one"
      | Reference.Mismatch d ->
          Printf.sprintf "reference: MISMATCH, recorded %s, got %s" d first_digest
      | Reference.Unrecorded ->
          "reference: no digest recorded for this seed; checked run-to-run \
           identity only");
    ]
  in
  (* Traced run. *)
  let traced = if trace then List.map Work.run_traced specs else [] in
  let traced_failed =
    if not trace then 0
    else
      let os = List.map (fun (t : Work.traced) -> t.result) traced in
      if Work.run_ok os && List.for_all2 Exp.Outcome.equal os first then 0 else 1
  in
  let notes =
    if trace then
      notes
      @ [
          (if traced_failed = 0 then "traced: outcome bit-identical to untraced"
           else "traced: outcome DIFFERS from untraced");
        ]
    else notes
  in
  (* End-to-end: the trimmed mean over the untraced runs; host times
     scaled by the calibration loop's trimmed mean over the same runs. *)
  let per_run f = trimmed_mean (List.map (fun (_, r) -> f r) runs) in
  let loop_ns = trimmed_mean (List.map (fun ((_, l), _) -> l) runs) in
  let calibrated f = per_run f *. nominal_loop_ns /. loop_ns in
  let counted_manifests (r : Work.run) =
    List.combine specs r.manifests
    |> List.filter_map (fun (s, m) -> if Work.counts_events s then Some m else None)
  in
  let events r =
    sum (fun (m : Obs.Manifest.t) -> float_of_int m.events) (counted_manifests r)
  in
  let serial_sum (r : Work.run) =
    sum (fun (m : Obs.Manifest.t) -> m.wall_clock_s) r.manifests
  in
  let counted_s_per_event r =
    sum (fun (m : Obs.Manifest.t) -> m.wall_clock_s) (counted_manifests r) /. events r
  in
  let e2e =
    [
      ("wall_s", calibrated (fun r -> r.Work.wall_s));
      ("setup_s", setup_s);
      ("events_per_s", 1. /. calibrated counted_s_per_event);
      ("minor_words_per_event", per_run (fun r -> r.Work.minor_words /. events r));
      ("peak_heap_mb", float_of_int (top_heap_words * (Sys.word_size / 8)) /. 1e6);
    ]
  in
  (* Per-layer, from the traced run plus the untraced runs' counters. *)
  let layer_metrics () =
    let opt name = Option.map (fun v -> (name, v)) in
    let some name v = Some (name, v) in
    let all_layers = Layers.merge (List.map (fun (t : Work.traced) -> t.layers) traced) in
    let profiled =
      List.filter_map
        (fun (t : Work.traced) -> Option.map (fun p -> (t, p)) t.selfprof)
        traced
    in
    let engine =
      if profiled = [] then []
      else
        let module C = Engine.Event_class in
        let count cls =
          sum (fun (_, p) -> float_of_int (Obs.Selfprof.count p cls)) profiled
        in
        let mean_ns cls =
          let sampled = sum (fun (_, p) -> float_of_int (Obs.Selfprof.sampled p cls)) profiled in
          if sampled = 0. then None
          else
            Some
              (sum
                 (fun (_, p) ->
                   Obs.Selfprof.mean_us p cls *. float_of_int (Obs.Selfprof.sampled p cls))
                 profiled
              *. 1e3 /. sampled)
        in
        let pl = Layers.merge (List.map (fun ((t : Work.traced), _) -> t.layers) profiled) in
        let fwd =
          Option.map
            (fun rx_ns ->
              let rx = count C.Link_rx in
              ((rx_ns *. rx) -. Layers.total_ns pl.Layers.enqueue
              -. Layers.total_ns (Layers.all_cc pl).Layers.on_ack)
              /. rx)
            (mean_ns C.Link_rx)
        in
        let hw =
          List.fold_left
            (fun acc ((t : Work.traced), _) ->
              match List.assoc_opt "engine.heap_high_water" t.snapshot with
              | Some v -> Float.max acc v
              | None -> acc)
            0. profiled
        in
        [
          some "engine.link_tx.count" (count C.Link_tx);
          some "engine.link_rx.count" (count C.Link_rx);
          some "engine.timer.count" (count C.Timer);
          opt "engine.link_tx.ns" (mean_ns C.Link_tx);
          opt "engine.link_rx.ns" (mean_ns C.Link_rx);
          some "engine.heap_high_water" hw;
          opt "fwd.self_ns" fwd;
        ]
    in
    let snapshots = List.map (fun (t : Work.traced) -> t.snapshot) traced in
    let probes ~prefix ~suffix =
      let vs = List.filter_map (probe_sum ~prefix ~suffix) snapshots in
      if vs = [] then None else Some (List.fold_left ( +. ) 0. vs)
    in
    let ratio a b = if b = 0 then None else Some (float_of_int a /. float_of_int b) in
    let enq = all_layers.Layers.enqueue in
    let dctcp = Layers.dctcp_cc all_layers in
    let tcp = Layers.all_cc all_layers in
    let jobs = Stdlib.min w.jobs (List.length specs) in
    let median_setup f = median (List.map f setups) in
    engine
    @ [
        opt "engine.events" (probes ~prefix:"engine.events_processed" ~suffix:"");
        some "engine.churn_ns" (trimmed_mean (List.map (fun ((c, _), _) -> c) runs));
        some "calib.loop_ns" loop_ns;
        some "calib.raw_wall_s" (per_run (fun r -> r.Work.wall_s));
        some "marking.enqueue.calls" (float_of_int enq.Layers.calls);
        opt "marking.enqueue.ns" (Layers.mean_ns enq);
        opt "marking.dequeue.ns" (Layers.mean_ns all_layers.Layers.dequeue);
        opt "marking.mark_ratio" (ratio all_layers.Layers.marks enq.Layers.calls);
        some "buffer_mgr.limit_updates" (float_of_int all_layers.Layers.limit.Layers.calls);
        opt "buffer_mgr.limit.ns" (Layers.mean_ns all_layers.Layers.limit);
        some "switch.route_ns" route_ns;
      ]
    @ (match dctcp with
      | None -> []
      | Some c ->
          [
            some "dctcp_cc.on_ack.calls" (float_of_int c.Layers.on_ack.Layers.calls);
            opt "dctcp_cc.on_ack.ns" (Layers.mean_ns c.Layers.on_ack);
            opt "dctcp_cc.ece_ratio" (ratio c.Layers.ece_acks c.Layers.on_ack.Layers.calls);
            some "dctcp_cc.on_timeout.calls" (float_of_int c.Layers.timeouts);
          ])
    @ [
        some "tcp.timeouts" (float_of_int tcp.Layers.timeouts);
        some "tcp.fast_retransmits" (float_of_int tcp.Layers.fast_retransmits);
        some "tcp.flow_create_us"
          (median_setup (fun b ->
               float_of_int b.Work.flow_ns /. 1e3 /. float_of_int (max 1 b.Work.flows_created)));
        some "topology.build_s" (median_setup (fun b -> float_of_int b.Work.topology_ns *. 1e-9));
        some "runner.serial_sum_s" (per_run serial_sum);
        some "runner.max_spec_s"
          (per_run (fun r ->
               List.fold_left
                 (fun acc (m : Obs.Manifest.t) -> Float.max acc m.wall_clock_s)
                 0. r.Work.manifests));
        some "runner.parallel_eff"
          (per_run (fun r -> serial_sum r /. (float_of_int jobs *. r.Work.wall_s)));
        some "gc.minor_words" (per_run (fun r -> r.Work.minor_words));
        some "gc.promoted_words" (per_run (fun r -> r.Work.promoted_words));
        some "gc.major_collections" (per_run (fun r -> float_of_int r.Work.major_collections));
        some "trace.overhead"
          (sum (fun (t : Work.traced) -> t.traced_wall_s) traced /. per_run serial_sum);
      ]
    |> List.filter_map Fun.id
  in
  (* A metric the run could not measure is an error, never a 0 or a
     silent omission: the result line must hold every metric of its
     kind. *)
  let measured = e2e @ if trace then layer_metrics () else [] in
  let metrics =
    List.filter_map
      (fun (m : Catalog.metric) ->
        if m.kind = Catalog.Per_layer && not trace then None
        else
          match List.assoc_opt m.name measured with
          | Some v when Float.is_finite v -> Some (m.name, v)
          | _ -> failwith (Printf.sprintf "%s measured no %s" w.name m.name))
      Catalog.all
  in
  (* The same host times before calibration, so its effect on their
     spread can be seen from the same runs. *)
  let notes =
    notes
    @ [
        Printf.sprintf
          "calibration: loop %.4g ns/event; uncalibrated wall_s %.6g, setup_s %.6g, \
           events_per_s %.6g"
          loop_ns
          (per_run (fun r -> r.Work.wall_s))
          raw_setup_s
          (1. /. per_run counted_s_per_event);
      ]
  in
  let headline =
    List.map2
      (fun (s : Exp.Spec.t) o -> (s.name, Exp.Outcome.summary o))
      specs first
  in
  let simulated =
    List.filter_map
      (fun ((s : Exp.Spec.t), o) ->
        match o with
        | Exp.Outcome.Done (Exp.Outcome.Longlived r) ->
            Some (s.name, "queue_std_pkts", r.Workloads.Longlived.std_queue_pkts)
        | Exp.Outcome.Done (Exp.Outcome.Fattree r) ->
            Some (s.name, "slowdown_p99", r.Workloads.Fattree.slowdown_p99)
        | _ -> None)
      (List.combine specs first)
  in
  {
    attempted = List.length runs + if trace then 1 else 0;
    failed = untraced_failed + traced_failed;
    notes;
    headline;
    simulated;
    metrics;
  }
