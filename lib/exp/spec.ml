module Json = Obs.Json
module L = Workloads.Longlived
module I = Workloads.Incast
module Cp = Workloads.Completion
module Dy = Workloads.Dynamic
module Cv = Workloads.Convergence
module De = Workloads.Deadline
module Ft = Workloads.Fattree

type protocol =
  | Dctcp of { g : float; k_bytes : int }
  | Dt_dctcp of { g : float; k1_bytes : int; k2_bytes : int }
  | Reno
  | Ecn_reno of { k_bytes : int }
  | Newreno
  | Dctcp_scaled of { g : float; k_frac : float }
  | Dt_dctcp_scaled of { g : float; k1_frac : float; k2_frac : float }

type workload =
  | Longlived of L.config
  | Incast of { config : I.config; sack : bool }
  | Completion of Cp.config
  | Dynamic of Dy.config
  | Convergence of Cv.config
  | Deadline of { config : De.config; d2tcp : bool }
  | Fattree of Ft.config

type t = {
  name : string;
  protocol : protocol;
  workload : workload;
  faults : Fault.Plan.t option;
  buffer : Net.Buffer_mgr.config;
}

let make ?faults ?(buffer = Net.Buffer_mgr.Static) ~name ~protocol ~workload
    () =
  { name; protocol; workload; faults; buffer }

let protocol_name = function
  | Dctcp _ -> "dctcp"
  | Dt_dctcp _ -> "dt-dctcp"
  | Reno -> "reno"
  | Ecn_reno _ -> "ecn-reno"
  | Newreno -> "newreno"
  | Dctcp_scaled _ -> "dctcp-scaled"
  | Dt_dctcp_scaled _ -> "dt-dctcp-scaled"

let workload_name = function
  | Longlived _ -> "longlived"
  | Incast _ -> "incast"
  | Completion _ -> "completion"
  | Dynamic _ -> "dynamic"
  | Convergence _ -> "convergence"
  | Deadline _ -> "deadline"
  | Fattree _ -> "fattree"

let protocol_of = function
  | Dctcp { g; k_bytes } -> Dctcp.Protocol.dctcp ~g ~k_bytes ()
  | Dt_dctcp { g; k1_bytes; k2_bytes } ->
      Dctcp.Protocol.dt_dctcp ~g ~k1_bytes ~k2_bytes ()
  | Reno -> Dctcp.Protocol.reno ()
  | Ecn_reno { k_bytes } -> Dctcp.Protocol.ecn_reno ~k_bytes
  | Newreno -> Dctcp.Protocol.newreno ()
  | Dctcp_scaled { g; k_frac } -> Dctcp.Protocol.dctcp_scaled ~g ~k_frac ()
  | Dt_dctcp_scaled { g; k1_frac; k2_frac } ->
      Dctcp.Protocol.dt_dctcp_scaled ~g ~k1_frac ~k2_frac ()

let seed t =
  match t.workload with
  | Longlived c -> c.L.seed
  | Incast { config; _ } -> config.I.seed
  | Completion c -> c.Cp.seed
  | Dynamic c -> c.Dy.seed
  | Convergence c -> c.Cv.seed
  | Deadline { config; _ } -> config.De.seed
  | Fattree c -> c.Ft.seed

let with_seed seed t =
  let workload =
    match t.workload with
    | Longlived c -> Longlived { c with L.seed }
    | Incast { config; sack } -> Incast { config = { config with I.seed }; sack }
    | Completion c -> Completion { c with Cp.seed }
    | Dynamic c -> Dynamic { c with Dy.seed }
    | Convergence c -> Convergence { c with Cv.seed }
    | Deadline { config; d2tcp } ->
        Deadline { config = { config with De.seed }; d2tcp }
    | Fattree c -> Fattree { c with Ft.seed }
  in
  { t with workload }

let with_name name t = { t with name }

(* --- JSON encoding ---

   Spans are serialized as integer nanoseconds ([Engine.Time.span] is an
   [int64], always in-range for OCaml's 63-bit [int] at simulated
   timescales); seeds follow the Manifest convention of a decimal string
   so full-width int64 values survive readers without exact 64-bit
   integers. *)

let span s = Json.Int (Int64.to_int s)
let span_opt = function None -> Json.Null | Some s -> span s
let seed_json s = Json.String (Int64.to_string s)

let longlived_fields (c : L.config) =
  [
    ("n_flows", Json.Int c.n_flows);
    ("bottleneck_rate_bps", Json.Float c.bottleneck_rate_bps);
    ("rtt", span c.rtt);
    ("buffer_bytes", Json.Int c.buffer_bytes);
    ("segment_bytes", Json.Int c.segment_bytes);
    ("warmup", span c.warmup);
    ("measure", span c.measure);
    ("trace_sampling", span_opt c.trace_sampling);
    ("alpha_sample_period", span c.alpha_sample_period);
    ("stagger", span c.stagger);
    ("min_rto", span c.min_rto);
    ("seed", seed_json c.seed);
  ]

let incast_fields (c : I.config) sack =
  [
    ("sack", Json.Bool sack);
    ("n_flows", Json.Int c.n_flows);
    ("bytes_per_flow", Json.Int c.bytes_per_flow);
    ("repeats", Json.Int c.repeats);
    ("rate_bps", Json.Float c.rate_bps);
    ("buffer_bytes", Json.Int c.buffer_bytes);
    ("leaf_buffer_bytes", Json.Int c.leaf_buffer_bytes);
    ("segment_bytes", Json.Int c.segment_bytes);
    ("min_rto", span c.min_rto);
    ("time_cap", span c.time_cap);
    ("start_jitter", span c.start_jitter);
    ("initial_cwnd", Json.Float c.initial_cwnd);
    ("seed", seed_json c.seed);
  ]

let completion_fields (c : Cp.config) =
  [
    ("n_flows", Json.Int c.n_flows);
    ("total_bytes", Json.Int c.total_bytes);
    ("repeats", Json.Int c.repeats);
    ("rate_bps", Json.Float c.rate_bps);
    ("buffer_bytes", Json.Int c.buffer_bytes);
    ("leaf_buffer_bytes", Json.Int c.leaf_buffer_bytes);
    ("segment_bytes", Json.Int c.segment_bytes);
    ("min_rto", span c.min_rto);
    ("time_cap", span c.time_cap);
    ("seed", seed_json c.seed);
  ]

let dynamic_fields (c : Dy.config) =
  [
    ("background_flows", Json.Int c.background_flows);
    ("short_senders", Json.Int c.short_senders);
    ("arrival_rate", Json.Float c.arrival_rate);
    ("short_flow_segments", Json.Int c.short_flow_segments);
    ("duration", span c.duration);
    ("warmup", span c.warmup);
    ("drain", span c.drain);
    ("bottleneck_rate_bps", Json.Float c.bottleneck_rate_bps);
    ("rtt", span c.rtt);
    ("buffer_bytes", Json.Int c.buffer_bytes);
    ("segment_bytes", Json.Int c.segment_bytes);
    ("min_rto", span c.min_rto);
    ("seed", seed_json c.seed);
  ]

let convergence_fields (c : Cv.config) =
  [
    ("n_flows", Json.Int c.n_flows);
    ("join_interval", span c.join_interval);
    ("hold", span c.hold);
    ("sample_window", span c.sample_window);
    ("bottleneck_rate_bps", Json.Float c.bottleneck_rate_bps);
    ("rtt", span c.rtt);
    ("buffer_bytes", Json.Int c.buffer_bytes);
    ("segment_bytes", Json.Int c.segment_bytes);
    ("min_rto", span c.min_rto);
    ("convergence_band", Json.Float c.convergence_band);
    ("seed", seed_json c.seed);
  ]

let deadline_fields (c : De.config) d2tcp =
  [
    ("d2tcp", Json.Bool d2tcp);
    ("n_flows", Json.Int c.n_flows);
    ("bytes_per_flow", Json.Int c.bytes_per_flow);
    ("deadline", span c.deadline);
    ("deadline_spread", span c.deadline_spread);
    ("repeats", Json.Int c.repeats);
    ("rate_bps", Json.Float c.rate_bps);
    ("buffer_bytes", Json.Int c.buffer_bytes);
    ("leaf_buffer_bytes", Json.Int c.leaf_buffer_bytes);
    ("segment_bytes", Json.Int c.segment_bytes);
    ("min_rto", span c.min_rto);
    ("start_jitter", span c.start_jitter);
    ("time_cap", span c.time_cap);
    ("seed", seed_json c.seed);
  ]

let fattree_fields (c : Ft.config) =
  [
    ("k", Json.Int c.k);
    ("incast_fanin", Json.Int c.incast_fanin);
    ("incast_bytes", Json.Int c.incast_bytes);
    ("long_flows", Json.Int c.long_flows);
    ("long_bytes", Json.Int c.long_bytes);
    ("rate_bps", Json.Float c.rate_bps);
    ("link_delay", span c.link_delay);
    ("queue_bytes", Json.Int c.queue_bytes);
    ("segment_bytes", Json.Int c.segment_bytes);
    ("min_rto", span c.min_rto);
    ("time_cap", span c.time_cap);
    ("start_spread", span c.start_spread);
    ("initial_cwnd", Json.Float c.initial_cwnd);
    ("seed", seed_json c.seed);
  ]

let protocol_to_json p =
  let kind = ("kind", Json.String (protocol_name p)) in
  match p with
  | Dctcp { g; k_bytes } ->
      Json.Obj [ kind; ("g", Json.Float g); ("k_bytes", Json.Int k_bytes) ]
  | Dt_dctcp { g; k1_bytes; k2_bytes } ->
      Json.Obj
        [
          kind;
          ("g", Json.Float g);
          ("k1_bytes", Json.Int k1_bytes);
          ("k2_bytes", Json.Int k2_bytes);
        ]
  | Reno -> Json.Obj [ kind ]
  | Ecn_reno { k_bytes } -> Json.Obj [ kind; ("k_bytes", Json.Int k_bytes) ]
  | Newreno -> Json.Obj [ kind ]
  | Dctcp_scaled { g; k_frac } ->
      Json.Obj [ kind; ("g", Json.Float g); ("k_frac", Json.Float k_frac) ]
  | Dt_dctcp_scaled { g; k1_frac; k2_frac } ->
      Json.Obj
        [
          kind;
          ("g", Json.Float g);
          ("k1_frac", Json.Float k1_frac);
          ("k2_frac", Json.Float k2_frac);
        ]

let workload_to_json w =
  let kind = ("kind", Json.String (workload_name w)) in
  let fields =
    match w with
    | Longlived c -> longlived_fields c
    | Incast { config; sack } -> incast_fields config sack
    | Completion c -> completion_fields c
    | Dynamic c -> dynamic_fields c
    | Convergence c -> convergence_fields c
    | Deadline { config; d2tcp } -> deadline_fields config d2tcp
    | Fattree c -> fattree_fields c
  in
  Json.Obj (kind :: fields)

let buffer_to_json = function
  | Net.Buffer_mgr.Static -> None
  | Net.Buffer_mgr.Dynamic_threshold { pool_bytes; alpha } ->
      Some
        (Json.Obj
           [ ("pool_bytes", Json.Int pool_bytes); ("alpha", Json.Float alpha) ])

let to_json t =
  (* The "faults" and "buffer" keys are omitted (not null) when at their
     defaults, so a spec without faults and with Static buffering
     serializes byte-identically to one from before these features
     existed — pre-existing manifests stay bit-stable. *)
  let base =
    [
      ("name", Json.String t.name);
      ("protocol", protocol_to_json t.protocol);
      ("workload", workload_to_json t.workload);
    ]
  in
  let base =
    match t.faults with
    | None -> base
    | Some plan -> base @ [ ("faults", Fault.Plan.to_json plan) ]
  in
  match buffer_to_json t.buffer with
  | None -> Json.Obj base
  | Some bj -> Json.Obj (base @ [ ("buffer", bj) ])

let to_string t = Json.to_string (to_json t)

(* --- JSON decoding --- *)

let ( let* ) = Result.bind

let field name j =
  match Json.member name j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "Spec.of_json: missing field %S" name)

let wrong name got =
  Error (Printf.sprintf "Spec.of_json: field %S is not a %s" name got)

let int_field name j =
  let* v = field name j in
  match v with Json.Int i -> Ok i | _ -> wrong name "int"

let float_field name j =
  let* v = field name j in
  match v with
  | Json.Float f -> Ok f
  | Json.Int i -> Ok (float_of_int i)
  | _ -> wrong name "number"

let bool_field name j =
  let* v = field name j in
  match v with Json.Bool b -> Ok b | _ -> wrong name "bool"

let string_field name j =
  let* v = field name j in
  match v with Json.String s -> Ok s | _ -> wrong name "string"

let span_field name j =
  let* i = int_field name j in
  Ok (Int64.of_int i)

let span_opt_field name j =
  let* v = field name j in
  match v with
  | Json.Null -> Ok None
  | Json.Int i -> Ok (Some (Int64.of_int i))
  | _ -> wrong name "int or null"

let seed_field name j =
  let* v = field name j in
  match v with
  | Json.String s -> (
      match Int64.of_string_opt s with
      | Some i -> Ok i
      | None -> wrong name "decimal int64 string")
  | Json.Int i -> Ok (Int64.of_int i)
  | _ -> wrong name "seed"

let protocol_of_json j =
  let* kind = string_field "kind" j in
  match kind with
  | "dctcp" ->
      let* g = float_field "g" j in
      let* k_bytes = int_field "k_bytes" j in
      Ok (Dctcp { g; k_bytes })
  | "dt-dctcp" ->
      let* g = float_field "g" j in
      let* k1_bytes = int_field "k1_bytes" j in
      let* k2_bytes = int_field "k2_bytes" j in
      Ok (Dt_dctcp { g; k1_bytes; k2_bytes })
  | "reno" -> Ok Reno
  | "ecn-reno" ->
      let* k_bytes = int_field "k_bytes" j in
      Ok (Ecn_reno { k_bytes })
  | "newreno" -> Ok Newreno
  | "dctcp-scaled" ->
      let* g = float_field "g" j in
      let* k_frac = float_field "k_frac" j in
      Ok (Dctcp_scaled { g; k_frac })
  | "dt-dctcp-scaled" ->
      let* g = float_field "g" j in
      let* k1_frac = float_field "k1_frac" j in
      let* k2_frac = float_field "k2_frac" j in
      Ok (Dt_dctcp_scaled { g; k1_frac; k2_frac })
  | other -> Error (Printf.sprintf "Spec.of_json: unknown protocol %S" other)

let longlived_of_json j =
  let* n_flows = int_field "n_flows" j in
  let* bottleneck_rate_bps = float_field "bottleneck_rate_bps" j in
  let* rtt = span_field "rtt" j in
  let* buffer_bytes = int_field "buffer_bytes" j in
  let* segment_bytes = int_field "segment_bytes" j in
  let* warmup = span_field "warmup" j in
  let* measure = span_field "measure" j in
  let* trace_sampling = span_opt_field "trace_sampling" j in
  let* alpha_sample_period = span_field "alpha_sample_period" j in
  let* stagger = span_field "stagger" j in
  let* min_rto = span_field "min_rto" j in
  let* seed = seed_field "seed" j in
  Ok
    (Longlived
       {
         L.n_flows;
         bottleneck_rate_bps;
         rtt;
         buffer_bytes;
         segment_bytes;
         warmup;
         measure;
         trace_sampling;
         alpha_sample_period;
         stagger;
         min_rto;
         seed;
       })

let incast_of_json j =
  let* sack = bool_field "sack" j in
  let* n_flows = int_field "n_flows" j in
  let* bytes_per_flow = int_field "bytes_per_flow" j in
  let* repeats = int_field "repeats" j in
  let* rate_bps = float_field "rate_bps" j in
  let* buffer_bytes = int_field "buffer_bytes" j in
  let* leaf_buffer_bytes = int_field "leaf_buffer_bytes" j in
  let* segment_bytes = int_field "segment_bytes" j in
  let* min_rto = span_field "min_rto" j in
  let* time_cap = span_field "time_cap" j in
  let* start_jitter = span_field "start_jitter" j in
  let* initial_cwnd = float_field "initial_cwnd" j in
  let* seed = seed_field "seed" j in
  Ok
    (Incast
       {
         config =
           {
             I.n_flows;
             bytes_per_flow;
             repeats;
             rate_bps;
             buffer_bytes;
             leaf_buffer_bytes;
             segment_bytes;
             min_rto;
             time_cap;
             start_jitter;
             initial_cwnd;
             seed;
           };
         sack;
       })

let completion_of_json j =
  let* n_flows = int_field "n_flows" j in
  let* total_bytes = int_field "total_bytes" j in
  let* repeats = int_field "repeats" j in
  let* rate_bps = float_field "rate_bps" j in
  let* buffer_bytes = int_field "buffer_bytes" j in
  let* leaf_buffer_bytes = int_field "leaf_buffer_bytes" j in
  let* segment_bytes = int_field "segment_bytes" j in
  let* min_rto = span_field "min_rto" j in
  let* time_cap = span_field "time_cap" j in
  let* seed = seed_field "seed" j in
  Ok
    (Completion
       {
         Cp.n_flows;
         total_bytes;
         repeats;
         rate_bps;
         buffer_bytes;
         leaf_buffer_bytes;
         segment_bytes;
         min_rto;
         time_cap;
         seed;
       })

let dynamic_of_json j =
  let* background_flows = int_field "background_flows" j in
  let* short_senders = int_field "short_senders" j in
  let* arrival_rate = float_field "arrival_rate" j in
  let* short_flow_segments = int_field "short_flow_segments" j in
  let* duration = span_field "duration" j in
  let* warmup = span_field "warmup" j in
  let* drain = span_field "drain" j in
  let* bottleneck_rate_bps = float_field "bottleneck_rate_bps" j in
  let* rtt = span_field "rtt" j in
  let* buffer_bytes = int_field "buffer_bytes" j in
  let* segment_bytes = int_field "segment_bytes" j in
  let* min_rto = span_field "min_rto" j in
  let* seed = seed_field "seed" j in
  Ok
    (Dynamic
       {
         Dy.background_flows;
         short_senders;
         arrival_rate;
         short_flow_segments;
         duration;
         warmup;
         drain;
         bottleneck_rate_bps;
         rtt;
         buffer_bytes;
         segment_bytes;
         min_rto;
         seed;
       })

let convergence_of_json j =
  let* n_flows = int_field "n_flows" j in
  let* join_interval = span_field "join_interval" j in
  let* hold = span_field "hold" j in
  let* sample_window = span_field "sample_window" j in
  let* bottleneck_rate_bps = float_field "bottleneck_rate_bps" j in
  let* rtt = span_field "rtt" j in
  let* buffer_bytes = int_field "buffer_bytes" j in
  let* segment_bytes = int_field "segment_bytes" j in
  let* min_rto = span_field "min_rto" j in
  let* convergence_band = float_field "convergence_band" j in
  let* seed = seed_field "seed" j in
  Ok
    (Convergence
       {
         Cv.n_flows;
         join_interval;
         hold;
         sample_window;
         bottleneck_rate_bps;
         rtt;
         buffer_bytes;
         segment_bytes;
         min_rto;
         convergence_band;
         seed;
       })

let deadline_of_json j =
  let* d2tcp = bool_field "d2tcp" j in
  let* n_flows = int_field "n_flows" j in
  let* bytes_per_flow = int_field "bytes_per_flow" j in
  let* deadline = span_field "deadline" j in
  let* deadline_spread = span_field "deadline_spread" j in
  let* repeats = int_field "repeats" j in
  let* rate_bps = float_field "rate_bps" j in
  let* buffer_bytes = int_field "buffer_bytes" j in
  let* leaf_buffer_bytes = int_field "leaf_buffer_bytes" j in
  let* segment_bytes = int_field "segment_bytes" j in
  let* min_rto = span_field "min_rto" j in
  let* start_jitter = span_field "start_jitter" j in
  let* time_cap = span_field "time_cap" j in
  let* seed = seed_field "seed" j in
  Ok
    (Deadline
       {
         config =
           {
             De.n_flows;
             bytes_per_flow;
             deadline;
             deadline_spread;
             repeats;
             rate_bps;
             buffer_bytes;
             leaf_buffer_bytes;
             segment_bytes;
             min_rto;
             start_jitter;
             time_cap;
             seed;
           };
         d2tcp;
       })

let fattree_of_json j =
  let* k = int_field "k" j in
  let* incast_fanin = int_field "incast_fanin" j in
  let* incast_bytes = int_field "incast_bytes" j in
  let* long_flows = int_field "long_flows" j in
  let* long_bytes = int_field "long_bytes" j in
  let* rate_bps = float_field "rate_bps" j in
  let* link_delay = span_field "link_delay" j in
  let* queue_bytes = int_field "queue_bytes" j in
  let* segment_bytes = int_field "segment_bytes" j in
  let* min_rto = span_field "min_rto" j in
  let* time_cap = span_field "time_cap" j in
  let* start_spread = span_field "start_spread" j in
  let* initial_cwnd = float_field "initial_cwnd" j in
  let* seed = seed_field "seed" j in
  Ok
    (Fattree
       {
         Ft.k;
         incast_fanin;
         incast_bytes;
         long_flows;
         long_bytes;
         rate_bps;
         link_delay;
         queue_bytes;
         segment_bytes;
         min_rto;
         time_cap;
         start_spread;
         initial_cwnd;
         seed;
       })

let workload_of_json j =
  let* kind = string_field "kind" j in
  match kind with
  | "longlived" -> longlived_of_json j
  | "incast" -> incast_of_json j
  | "completion" -> completion_of_json j
  | "dynamic" -> dynamic_of_json j
  | "convergence" -> convergence_of_json j
  | "deadline" -> deadline_of_json j
  | "fattree" -> fattree_of_json j
  | other -> Error (Printf.sprintf "Spec.of_json: unknown workload %S" other)

let buffer_of_json j =
  let* pool_bytes = int_field "pool_bytes" j in
  let* alpha = float_field "alpha" j in
  if pool_bytes <= 0 then
    Error "Spec.of_json: buffer pool_bytes must be positive"
  else if not (alpha >= 1. /. 1024.) then
    Error "Spec.of_json: buffer alpha must be >= 1/1024"
  else Ok (Net.Buffer_mgr.Dynamic_threshold { pool_bytes; alpha })

let of_json j =
  let* name = string_field "name" j in
  let* pj = field "protocol" j in
  let* protocol = protocol_of_json pj in
  let* wj = field "workload" j in
  let* workload = workload_of_json wj in
  let* faults =
    match Json.member "faults" j with
    | None -> Ok None
    | Some fj ->
        let* plan = Fault.Plan.of_json fj in
        Ok (Some plan)
  in
  let* buffer =
    match Json.member "buffer" j with
    | None -> Ok Net.Buffer_mgr.Static
    | Some bj -> buffer_of_json bj
  in
  Ok { name; protocol; workload; faults; buffer }

let of_string s =
  let* j = Json.parse s in
  of_json j

(* --- PATH=VALUE overrides on the JSON form --- *)

let set_error fmt = Printf.ksprintf (fun m -> Error ("Spec.override: " ^ m)) fmt

let json_kind = function
  | Json.Null -> "null"
  | Json.Bool _ -> "a bool"
  | Json.Int _ -> "an int"
  | Json.Float _ -> "a number"
  | Json.String _ -> "a string"
  | Json.List _ -> "a list"
  | Json.Obj _ -> "an object"

(* VALUE read against the JSON type of the field it replaces. A string
   field takes the raw text (so seeds stay decimal strings); [null]
   replaces anything and is left for [of_json] to accept or refuse. *)
let coerce ~path ~current value =
  let parsed = Json.parse value in
  match (current, parsed) with
  | _, Ok Json.Null -> Ok Json.Null
  | Json.String _, Ok (Json.String s) -> Ok (Json.String s)
  | Json.String _, _ -> Ok (Json.String value)
  | Json.Float _, Ok (Json.Int i) -> Ok (Json.Float (float_of_int i))
  | Json.Null, Ok v -> Ok v
  | (Json.Int _, Ok (Json.Int _ as v))
  | (Json.Float _, Ok (Json.Float _ as v))
  | (Json.Bool _, Ok (Json.Bool _ as v))
  | (Json.List _, Ok (Json.List _ as v))
  | (Json.Obj _, Ok (Json.Obj _ as v)) ->
      Ok v
  | _ -> set_error "%s expects %s, got %S" path (json_kind current) value

(* Replace the value at [keys] (a path of object members that must all
   exist) by [leaf current]. *)
let rec set_path ~path ~leaf j keys =
  match (j, keys) with
  | Json.Obj fields, key :: rest when List.mem_assoc key fields ->
      let* v =
        let v = List.assoc key fields in
        match rest with [] -> leaf v | _ -> set_path ~path ~leaf v rest
      in
      Ok
        (Json.Obj
           (List.map
              (fun (k, old) -> (k, if String.equal k key then v else old))
              fields))
  | _ -> set_error "unknown path %S" path

let set_one j assignment =
  match String.index_opt assignment '=' with
  | None -> set_error "%S is not PATH=VALUE" assignment
  | Some i ->
      let path = String.sub assignment 0 i in
      let value =
        String.sub assignment (i + 1) (String.length assignment - i - 1)
      in
      let keys = String.split_on_char '.' path in
      if List.exists (String.equal "") keys then
        set_error "empty path component in %S" path
      else
        set_path ~path ~leaf:(fun current -> coerce ~path ~current value) j keys

let override assignments t =
  let* j =
    List.fold_left
      (fun j a ->
        let* j = j in
        set_one j a)
      (Ok (to_json t)) assignments
  in
  of_json j

(* Structural equality via the canonical JSON form: covers every field,
   and [Json.equal] compares floats by bit pattern, so specs containing
   identical configs are equal without tripping dtlint's R2/R3. *)
let equal a b = Json.equal (to_json a) (to_json b)
