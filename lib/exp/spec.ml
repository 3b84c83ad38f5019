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

(* --- JSON values ---

   Spans are serialized as integer nanoseconds ([Engine.Time.span] is an
   [int64], always in-range for OCaml's 63-bit [int] at simulated
   timescales); seeds follow the Manifest convention of a decimal string
   so full-width int64 values survive readers without exact 64-bit
   integers. *)

let ( let* ) = Result.bind

let field name j =
  match Json.member name j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "Spec.of_json: missing field %S" name)

let wrong name got =
  Error (Printf.sprintf "Spec.of_json: field %S is not a %s" name got)

let string_field name j =
  let* v = field name j in
  match v with Json.String s -> Ok s | _ -> wrong name "string"

(* --- workload field tables ---

   Each workload's JSON form is written once, as a table: its fields in
   key order, each with its JSON kind, a getter and a setter. One encoder
   and one decoder run every table. The decoder folds the setters over
   the module's [default_config], but every key is still required: the
   default is only the record the setters write into. *)

type _ kind =
  | Int : int kind
  | Float : float kind
  | Span : Engine.Time.span kind
  | Span_opt : Engine.Time.span option kind
  | Seed : int64 kind
  | Bool : bool kind

type 'c field =
  | Field : string * 'a kind * ('c -> 'a) * ('a -> 'c -> 'c) -> 'c field

let encode_value : type a. a kind -> a -> Json.t =
 fun kind v ->
  match kind with
  | Int -> Json.Int v
  | Float -> Json.Float v
  | Span -> Json.Int (Int64.to_int v)
  | Span_opt -> (
      match v with None -> Json.Null | Some s -> Json.Int (Int64.to_int s))
  | Seed -> Json.String (Int64.to_string v)
  | Bool -> Json.Bool v

let decode_value : type a. a kind -> string -> Json.t -> (a, string) result =
 fun kind key j ->
  match field key j with
  | Error e -> Error e
  | Ok v -> (
      match (kind, v) with
      | Int, Json.Int i -> Ok i
      | Int, _ -> wrong key "int"
      | Float, Json.Float f -> Ok f
      | Float, Json.Int i -> Ok (float_of_int i)
      | Float, _ -> wrong key "number"
      | Span, Json.Int i -> Ok (Int64.of_int i)
      | Span, _ -> wrong key "int"
      | Span_opt, Json.Null -> Ok None
      | Span_opt, Json.Int i -> Ok (Some (Int64.of_int i))
      | Span_opt, _ -> wrong key "int or null"
      | Seed, Json.String s -> (
          match Int64.of_string_opt s with
          | Some i -> Ok i
          | None -> wrong key "decimal int64 string")
      | Seed, Json.Int i -> Ok (Int64.of_int i)
      | Seed, _ -> wrong key "seed"
      | Bool, Json.Bool b -> Ok b
      | Bool, _ -> wrong key "bool")

let int_field = decode_value Int
let float_field = decode_value Float

type 'c table = {
  kind : string;  (** The JSON [kind] tag. *)
  fields : 'c field list;
  default : 'c;
  wrap : 'c -> workload;
}

(* Incast and Deadline carry one flag beside their config; their tables
   run over the pair, the flag's key first. *)
let with_flag key fields =
  Field (key, Bool, snd, fun b (c, _) -> (c, b))
  :: List.map
       (fun (Field (k, kind, get, set)) ->
         Field (k, kind, (fun (c, _) -> get c), fun v (c, b) -> (set v c, b)))
       fields

let longlived =
  {
    kind = "longlived";
    default = L.default_config;
    wrap = (fun c -> Longlived c);
    fields =
      L.
        [
          Field ("n_flows", Int, (fun c -> c.n_flows), fun v c ->
            { c with n_flows = v });
          Field ("bottleneck_rate_bps", Float, (fun c -> c.bottleneck_rate_bps),
            fun v c -> { c with bottleneck_rate_bps = v });
          Field ("rtt", Span, (fun c -> c.rtt), fun v c -> { c with rtt = v });
          Field ("buffer_bytes", Int, (fun c -> c.buffer_bytes), fun v c ->
            { c with buffer_bytes = v });
          Field ("segment_bytes", Int, (fun c -> c.segment_bytes), fun v c ->
            { c with segment_bytes = v });
          Field ("warmup", Span, (fun c -> c.warmup), fun v c ->
            { c with warmup = v });
          Field ("measure", Span, (fun c -> c.measure), fun v c ->
            { c with measure = v });
          Field ("trace_sampling", Span_opt, (fun c -> c.trace_sampling),
            fun v c -> { c with trace_sampling = v });
          Field ("alpha_sample_period", Span, (fun c -> c.alpha_sample_period),
            fun v c -> { c with alpha_sample_period = v });
          Field ("stagger", Span, (fun c -> c.stagger), fun v c ->
            { c with stagger = v });
          Field ("min_rto", Span, (fun c -> c.min_rto), fun v c ->
            { c with min_rto = v });
          Field ("seed", Seed, (fun c -> c.seed), fun v c ->
            { c with seed = v });
        ];
  }

let incast =
  {
    kind = "incast";
    default = (I.default_config, false);
    wrap = (fun (config, sack) -> Incast { config; sack });
    fields =
      with_flag "sack"
        I.
          [
            Field ("n_flows", Int, (fun c -> c.n_flows), fun v c ->
              { c with n_flows = v });
            Field ("bytes_per_flow", Int, (fun c -> c.bytes_per_flow),
              fun v c -> { c with bytes_per_flow = v });
            Field ("repeats", Int, (fun c -> c.repeats), fun v c ->
              { c with repeats = v });
            Field ("rate_bps", Float, (fun c -> c.rate_bps), fun v c ->
              { c with rate_bps = v });
            Field ("buffer_bytes", Int, (fun c -> c.buffer_bytes), fun v c ->
              { c with buffer_bytes = v });
            Field ("leaf_buffer_bytes", Int, (fun c -> c.leaf_buffer_bytes),
              fun v c -> { c with leaf_buffer_bytes = v });
            Field ("segment_bytes", Int, (fun c -> c.segment_bytes), fun v c ->
              { c with segment_bytes = v });
            Field ("min_rto", Span, (fun c -> c.min_rto), fun v c ->
              { c with min_rto = v });
            Field ("time_cap", Span, (fun c -> c.time_cap), fun v c ->
              { c with time_cap = v });
            Field ("start_jitter", Span, (fun c -> c.start_jitter), fun v c ->
              { c with start_jitter = v });
            Field ("initial_cwnd", Float, (fun c -> c.initial_cwnd), fun v c ->
              { c with initial_cwnd = v });
            Field ("seed", Seed, (fun c -> c.seed), fun v c ->
              { c with seed = v });
          ];
  }

let completion =
  {
    kind = "completion";
    default = Cp.default_config;
    wrap = (fun c -> Completion c);
    fields =
      Cp.
        [
          Field ("n_flows", Int, (fun c -> c.n_flows), fun v c ->
            { c with n_flows = v });
          Field ("total_bytes", Int, (fun c -> c.total_bytes), fun v c ->
            { c with total_bytes = v });
          Field ("repeats", Int, (fun c -> c.repeats), fun v c ->
            { c with repeats = v });
          Field ("rate_bps", Float, (fun c -> c.rate_bps), fun v c ->
            { c with rate_bps = v });
          Field ("buffer_bytes", Int, (fun c -> c.buffer_bytes), fun v c ->
            { c with buffer_bytes = v });
          Field ("leaf_buffer_bytes", Int, (fun c -> c.leaf_buffer_bytes),
            fun v c -> { c with leaf_buffer_bytes = v });
          Field ("segment_bytes", Int, (fun c -> c.segment_bytes), fun v c ->
            { c with segment_bytes = v });
          Field ("min_rto", Span, (fun c -> c.min_rto), fun v c ->
            { c with min_rto = v });
          Field ("time_cap", Span, (fun c -> c.time_cap), fun v c ->
            { c with time_cap = v });
          Field ("seed", Seed, (fun c -> c.seed), fun v c ->
            { c with seed = v });
        ];
  }

let dynamic =
  {
    kind = "dynamic";
    default = Dy.default_config;
    wrap = (fun c -> Dynamic c);
    fields =
      Dy.
        [
          Field ("background_flows", Int, (fun c -> c.background_flows),
            fun v c -> { c with background_flows = v });
          Field ("short_senders", Int, (fun c -> c.short_senders), fun v c ->
            { c with short_senders = v });
          Field ("arrival_rate", Float, (fun c -> c.arrival_rate), fun v c ->
            { c with arrival_rate = v });
          Field ("short_flow_segments", Int, (fun c -> c.short_flow_segments),
            fun v c -> { c with short_flow_segments = v });
          Field ("duration", Span, (fun c -> c.duration), fun v c ->
            { c with duration = v });
          Field ("warmup", Span, (fun c -> c.warmup), fun v c ->
            { c with warmup = v });
          Field ("drain", Span, (fun c -> c.drain), fun v c ->
            { c with drain = v });
          Field ("bottleneck_rate_bps", Float, (fun c -> c.bottleneck_rate_bps),
            fun v c -> { c with bottleneck_rate_bps = v });
          Field ("rtt", Span, (fun c -> c.rtt), fun v c -> { c with rtt = v });
          Field ("buffer_bytes", Int, (fun c -> c.buffer_bytes), fun v c ->
            { c with buffer_bytes = v });
          Field ("segment_bytes", Int, (fun c -> c.segment_bytes), fun v c ->
            { c with segment_bytes = v });
          Field ("min_rto", Span, (fun c -> c.min_rto), fun v c ->
            { c with min_rto = v });
          Field ("seed", Seed, (fun c -> c.seed), fun v c ->
            { c with seed = v });
        ];
  }

let convergence =
  {
    kind = "convergence";
    default = Cv.default_config;
    wrap = (fun c -> Convergence c);
    fields =
      Cv.
        [
          Field ("n_flows", Int, (fun c -> c.n_flows), fun v c ->
            { c with n_flows = v });
          Field ("join_interval", Span, (fun c -> c.join_interval), fun v c ->
            { c with join_interval = v });
          Field ("hold", Span, (fun c -> c.hold), fun v c ->
            { c with hold = v });
          Field ("sample_window", Span, (fun c -> c.sample_window), fun v c ->
            { c with sample_window = v });
          Field ("bottleneck_rate_bps", Float, (fun c -> c.bottleneck_rate_bps),
            fun v c -> { c with bottleneck_rate_bps = v });
          Field ("rtt", Span, (fun c -> c.rtt), fun v c -> { c with rtt = v });
          Field ("buffer_bytes", Int, (fun c -> c.buffer_bytes), fun v c ->
            { c with buffer_bytes = v });
          Field ("segment_bytes", Int, (fun c -> c.segment_bytes), fun v c ->
            { c with segment_bytes = v });
          Field ("min_rto", Span, (fun c -> c.min_rto), fun v c ->
            { c with min_rto = v });
          Field ("convergence_band", Float, (fun c -> c.convergence_band),
            fun v c -> { c with convergence_band = v });
          Field ("seed", Seed, (fun c -> c.seed), fun v c ->
            { c with seed = v });
        ];
  }

let deadline =
  {
    kind = "deadline";
    default = (De.default_config, false);
    wrap = (fun (config, d2tcp) -> Deadline { config; d2tcp });
    fields =
      with_flag "d2tcp"
        De.
          [
            Field ("n_flows", Int, (fun c -> c.n_flows), fun v c ->
              { c with n_flows = v });
            Field ("bytes_per_flow", Int, (fun c -> c.bytes_per_flow),
              fun v c -> { c with bytes_per_flow = v });
            Field ("deadline", Span, (fun c -> c.deadline), fun v c ->
              { c with deadline = v });
            Field ("deadline_spread", Span, (fun c -> c.deadline_spread),
              fun v c -> { c with deadline_spread = v });
            Field ("repeats", Int, (fun c -> c.repeats), fun v c ->
              { c with repeats = v });
            Field ("rate_bps", Float, (fun c -> c.rate_bps), fun v c ->
              { c with rate_bps = v });
            Field ("buffer_bytes", Int, (fun c -> c.buffer_bytes), fun v c ->
              { c with buffer_bytes = v });
            Field ("leaf_buffer_bytes", Int, (fun c -> c.leaf_buffer_bytes),
              fun v c -> { c with leaf_buffer_bytes = v });
            Field ("segment_bytes", Int, (fun c -> c.segment_bytes), fun v c ->
              { c with segment_bytes = v });
            Field ("min_rto", Span, (fun c -> c.min_rto), fun v c ->
              { c with min_rto = v });
            Field ("start_jitter", Span, (fun c -> c.start_jitter), fun v c ->
              { c with start_jitter = v });
            Field ("time_cap", Span, (fun c -> c.time_cap), fun v c ->
              { c with time_cap = v });
            Field ("seed", Seed, (fun c -> c.seed), fun v c ->
              { c with seed = v });
          ];
  }

let fattree =
  {
    kind = "fattree";
    default = Ft.default_config;
    wrap = (fun c -> Fattree c);
    fields =
      Ft.
        [
          Field ("k", Int, (fun c -> c.k), fun v c -> { c with k = v });
          Field ("incast_fanin", Int, (fun c -> c.incast_fanin), fun v c ->
            { c with incast_fanin = v });
          Field ("incast_bytes", Int, (fun c -> c.incast_bytes), fun v c ->
            { c with incast_bytes = v });
          Field ("long_flows", Int, (fun c -> c.long_flows), fun v c ->
            { c with long_flows = v });
          Field ("long_bytes", Int, (fun c -> c.long_bytes), fun v c ->
            { c with long_bytes = v });
          Field ("rate_bps", Float, (fun c -> c.rate_bps), fun v c ->
            { c with rate_bps = v });
          Field ("link_delay", Span, (fun c -> c.link_delay), fun v c ->
            { c with link_delay = v });
          Field ("queue_bytes", Int, (fun c -> c.queue_bytes), fun v c ->
            { c with queue_bytes = v });
          Field ("segment_bytes", Int, (fun c -> c.segment_bytes), fun v c ->
            { c with segment_bytes = v });
          Field ("min_rto", Span, (fun c -> c.min_rto), fun v c ->
            { c with min_rto = v });
          Field ("time_cap", Span, (fun c -> c.time_cap), fun v c ->
            { c with time_cap = v });
          Field ("start_spread", Span, (fun c -> c.start_spread), fun v c ->
            { c with start_spread = v });
          Field ("initial_cwnd", Float, (fun c -> c.initial_cwnd), fun v c ->
            { c with initial_cwnd = v });
          Field ("seed", Seed, (fun c -> c.seed), fun v c ->
            { c with seed = v });
        ];
  }

(* A workload value with its table, and a table on its own (for
   decoding, where only the kind tag is known). *)
type packed = Packed : 'c table * 'c -> packed
type any_table = Table : 'c table -> any_table

let pack = function
  | Longlived c -> Packed (longlived, c)
  | Incast { config; sack } -> Packed (incast, (config, sack))
  | Completion c -> Packed (completion, c)
  | Dynamic c -> Packed (dynamic, c)
  | Convergence c -> Packed (convergence, c)
  | Deadline { config; d2tcp } -> Packed (deadline, (config, d2tcp))
  | Fattree c -> Packed (fattree, c)

let tables =
  [
    Table longlived;
    Table incast;
    Table completion;
    Table dynamic;
    Table convergence;
    Table deadline;
    Table fattree;
  ]

let workload_name w = match pack w with Packed (tbl, _) -> tbl.kind

let rec seed_entry : type c. c field list -> (c -> int64) * (int64 -> c -> c)
    = function
  | Field (_, Seed, get, set) :: _ -> (get, set)
  | _ :: rest -> seed_entry rest
  | [] -> invalid_arg "Spec: a workload table has no seed field"

let seed t =
  match pack t.workload with
  | Packed (tbl, c) -> fst (seed_entry tbl.fields) c

let with_seed seed t =
  match pack t.workload with
  | Packed (tbl, c) ->
      { t with workload = tbl.wrap (snd (seed_entry tbl.fields) seed c) }

let with_name name t = { t with name }

(* --- JSON encoding --- *)

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
  match pack w with
  | Packed (tbl, c) ->
      Json.Obj
        (("kind", Json.String tbl.kind)
        :: List.map
             (fun (Field (key, kind, get, _)) ->
               (key, encode_value kind (get c)))
             tbl.fields)

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

let workload_of_json j =
  let* kind = string_field "kind" j in
  let known (Table tbl) = String.equal tbl.kind kind in
  match List.find_opt known tables with
  | Some (Table tbl) ->
      let* c =
        List.fold_left
          (fun acc (Field (key, kind, _, set)) ->
            let* c = acc in
            let* v = decode_value kind key j in
            Ok (set v c))
          (Ok tbl.default) tbl.fields
      in
      Ok (tbl.wrap c)
  | None -> Error (Printf.sprintf "Spec.of_json: unknown workload %S" kind)

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
