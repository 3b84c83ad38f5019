(* Every metric the benchmark can emit: name, unit, better direction,
   the layer it belongs to, and which end-to-end figure it should move
   on which workload. BENCHMARK.json declares the same names and units,
   and README.md holds this table as rendered by {!markdown_row}; tests
   keep all three in step. *)

type kind = End_to_end | Per_layer
type better = Lower | Higher

type metric = {
  name : string;
  unit_ : string;
  better : better;
  kind : kind;
  layer : string;
  moves : string;
      (** Per-layer: the end-to-end metric it should move, on which
          workload. End-to-end: its definition. *)
}

let m kind layer name unit_ better moves = { name; unit_; better; kind; layer; moves }
let e2e = m End_to_end "end-to-end"
let layer = m Per_layer

let all =
  [
    e2e "wall_s" "s" Lower "calibrated host seconds per workload run";
    e2e "setup_s" "s" Lower "calibrated host seconds building the simulations (median of the replays)";
    e2e "events_per_s" "1/s" Higher "engine events per calibrated host second";
    e2e "minor_words_per_event" "words" Lower
      "minor-heap words per engine event; exact for a fixed binary and seed";
    e2e "peak_heap_mb" "MB" Lower
      "largest major heap (`top_heap_words`) after the first untraced run of the process";
    layer "engine" "engine.events" "count" Lower "events_per_s on all";
    layer "engine" "engine.link_tx.count" "count" Lower "wall_s on dumbbell-n60, fattree-k8";
    layer "engine" "engine.link_rx.count" "count" Lower "wall_s on dumbbell-n60, fattree-k8";
    layer "engine" "engine.timer.count" "count" Lower "wall_s on suite-j2, fattree-k8";
    layer "engine" "engine.link_tx.ns" "ns" Lower "wall_s, events_per_s on dumbbell-n60, fattree-k8";
    layer "engine" "engine.link_rx.ns" "ns" Lower "wall_s, events_per_s on dumbbell-n60, fattree-k8";
    layer "engine" "engine.heap_high_water" "count" Lower "peak_heap_mb";
    layer "engine" "engine.churn_ns" "ns" Lower "calibration: the engine schedule/fire path alone";
    layer "calib" "calib.loop_ns" "ns" Lower "calibration: shares no code with the simulator";
    layer "calib" "calib.raw_wall_s" "s" Lower "wall_s before calibration";
    layer "marking" "marking.enqueue.calls" "count" Lower "wall_s on dumbbell-n60, fattree-k8";
    layer "marking" "marking.enqueue.ns" "ns" Lower "wall_s on dumbbell-n60, fattree-k8";
    layer "marking" "marking.dequeue.ns" "ns" Lower "wall_s on dumbbell-n60, fattree-k8";
    layer "marking" "marking.mark_ratio" "ratio" Lower "simulated: fixed by the reference outcome";
    layer "buffer_mgr" "buffer_mgr.limit_updates" "count" Lower "wall_s on suite-j2 only";
    layer "buffer_mgr" "buffer_mgr.limit.ns" "ns" Lower "wall_s on suite-j2 only";
    layer "switch" "switch.route_ns" "ns" Lower "wall_s on fattree-k8; ~0 on dumbbell-n60";
    layer "dctcp_cc" "dctcp_cc.on_ack.calls" "count" Lower "wall_s on dumbbell-n60";
    layer "dctcp_cc" "dctcp_cc.on_ack.ns" "ns" Lower "wall_s on dumbbell-n60";
    layer "dctcp_cc" "dctcp_cc.ece_ratio" "ratio" Lower "simulated: fixed by the reference outcome";
    layer "dctcp_cc" "dctcp_cc.on_timeout.calls" "count" Lower "wall_s on suite-j2";
    layer "fwd" "fwd.self_ns" "ns" Lower "wall_s on all three";
    layer "tcp" "tcp.timeouts" "count" Lower "wall_s on suite-j2";
    layer "tcp" "tcp.fast_retransmits" "count" Lower "wall_s on suite-j2";
    layer "tcp" "tcp.flow_create_us" "us" Lower "setup_s on fattree-k8, suite-j2";
    layer "topology" "topology.build_s" "s" Lower "setup_s on fattree-k8, suite-j2";
    layer "runner" "runner.serial_sum_s" "s" Lower "wall_s on suite-j2";
    layer "runner" "runner.max_spec_s" "s" Lower "wall_s on suite-j2 (the tail)";
    layer "runner" "runner.parallel_eff" "ratio" Higher "wall_s on suite-j2";
    layer "gc" "gc.minor_words" "words" Lower "minor_words_per_event, most on fattree-k8";
    layer "gc" "gc.promoted_words" "words" Lower "peak_heap_mb, most on fattree-k8";
    layer "gc" "gc.major_collections" "count" Lower "wall_s, peak_heap_mb";
    layer "trace" "trace.overhead" "ratio" Lower "nothing: cost of the traced run only";
  ]

let find name = List.find_opt (fun x -> String.equal x.name name) all
let of_kind k = List.filter (fun x -> x.kind = k) all

let valid_name s =
  s <> ""
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s

let better_string = function Lower -> "lower" | Higher -> "higher"

(* The metric's row in README.md's tables. *)
let markdown_row m =
  Printf.sprintf "| `%s` | %s | %s | %s | %s |" m.name m.unit_ (better_string m.better) m.layer
    m.moves
