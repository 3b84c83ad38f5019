(* Tests for the experiment layer (lib/exp): spec JSON round-trips over
   randomized scenarios, registry catalogue integrity, and the sweep
   runner's parallel bit-identity, failure isolation, and manifest
   provenance. Simulation configs here are tiny (1-2 ms windows) so the
   runner properties stay fast under `dune runtest`. *)

module Spec = Exp.Spec
module Registry = Exp.Registry
module Runner = Exp.Runner
module Outcome = Exp.Outcome
module Time = Engine.Time
module Json = Obs.Json
module Gen = QCheck.Gen

let qtest = QCheck_alcotest.to_alcotest

(* --- generators ------------------------------------------------------ *)

let protocol_gen =
  Gen.oneof
    [
      Gen.map2
        (fun g k -> Spec.Dctcp { g; k_bytes = k })
        (Gen.float_range 0.001 1.0)
        (Gen.int_range 1500 200_000);
      Gen.map3
        (fun g k1 dk -> Spec.Dt_dctcp { g; k1_bytes = k1; k2_bytes = k1 + dk })
        (Gen.float_range 0.001 1.0)
        (Gen.int_range 1500 100_000)
        (Gen.int_range 0 100_000);
      Gen.return Spec.Reno;
      Gen.map
        (fun k -> Spec.Ecn_reno { k_bytes = k })
        (Gen.int_range 1500 200_000);
      Gen.return Spec.Newreno;
      Gen.map2
        (fun g k -> Spec.Dctcp_scaled { g; k_frac = k })
        (Gen.float_range 0.001 1.0)
        (Gen.float_range 0.01 1.0);
      Gen.map3
        (fun g k1 dk ->
          Spec.Dt_dctcp_scaled
            { g; k1_frac = k1; k2_frac = Float.min 1. (k1 +. dk) })
        (Gen.float_range 0.001 1.0)
        (Gen.float_range 0.01 0.9)
        (Gen.float_range 0. 0.1);
    ]

(* Full-width seeds: the decimal-string encoding must survive values far
   outside the float-exact integer range. *)
let seed_gen =
  Gen.map2
    (fun hi lo -> Int64.(logxor (shift_left (of_int hi) 32) (of_int lo)))
    Gen.int Gen.int

let span_gen = Gen.map Int64.of_int (Gen.int_range 0 2_000_000_000)

let longlived_gen =
  Gen.map
    (fun ((n, warmup, measure), (sampled, seed)) ->
      let trace_sampling =
        if sampled then Some (Time.span_of_us 50.) else None
      in
      Spec.Longlived
        {
          Workloads.Longlived.default_config with
          n_flows = n;
          warmup;
          measure;
          trace_sampling;
          seed;
        })
    (Gen.pair
       (Gen.triple (Gen.int_range 1 128) span_gen span_gen)
       (Gen.pair Gen.bool seed_gen))

let incast_gen =
  Gen.map
    (fun ((n, bytes, repeats), (sack, start_jitter, seed)) ->
      Spec.Incast
        {
          config =
            {
              Workloads.Incast.default_config with
              n_flows = n;
              bytes_per_flow = bytes;
              repeats;
              start_jitter;
              seed;
            };
          sack;
        })
    (Gen.pair
       (Gen.triple (Gen.int_range 1 64)
          (Gen.int_range 1 1_000_000)
          (Gen.int_range 1 5))
       (Gen.triple Gen.bool span_gen seed_gen))

let completion_gen =
  Gen.map
    (fun ((n, total, repeats), seed) ->
      Spec.Completion
        {
          Workloads.Completion.default_config with
          n_flows = n;
          total_bytes = total;
          repeats;
          seed;
        })
    (Gen.pair
       (Gen.triple (Gen.int_range 1 64)
          (Gen.int_range 1 4_000_000)
          (Gen.int_range 1 5))
       seed_gen)

let dynamic_gen =
  Gen.map
    (fun ((rate, segments, duration), seed) ->
      Spec.Dynamic
        {
          Workloads.Dynamic.default_config with
          arrival_rate = rate;
          short_flow_segments = segments;
          duration;
          seed;
        })
    (Gen.pair
       (Gen.triple (Gen.float_range 1.0 20_000.0) (Gen.int_range 1 100)
          span_gen)
       seed_gen)

let convergence_gen =
  Gen.map
    (fun ((n, join_interval, hold), (band, seed)) ->
      Spec.Convergence
        {
          Workloads.Convergence.default_config with
          n_flows = n;
          join_interval;
          hold;
          convergence_band = band;
          seed;
        })
    (Gen.pair
       (Gen.triple (Gen.int_range 1 16) span_gen span_gen)
       (Gen.pair (Gen.float_range 0.01 0.9) seed_gen))

let deadline_gen =
  Gen.map
    (fun ((n, deadline, deadline_spread), (d2tcp, seed)) ->
      Spec.Deadline
        {
          config =
            {
              Workloads.Deadline.default_config with
              n_flows = n;
              deadline;
              deadline_spread;
              seed;
            };
          d2tcp;
        })
    (Gen.pair
       (Gen.triple (Gen.int_range 1 32) span_gen span_gen)
       (Gen.pair Gen.bool seed_gen))

let fattree_gen =
  Gen.map
    (fun ((k, fanin, long_flows), (incast_bytes, time_cap, seed)) ->
      Spec.Fattree
        {
          Workloads.Fattree.default_config with
          k = 2 * k;
          incast_fanin = fanin;
          long_flows;
          incast_bytes;
          time_cap;
          seed;
        })
    (Gen.pair
       (Gen.triple (Gen.int_range 1 5) (Gen.int_range 1 64)
          (Gen.int_range 0 32))
       (Gen.triple (Gen.int_range 1 4_000_000) span_gen seed_gen))

let workload_gen =
  Gen.oneof
    [
      longlived_gen;
      incast_gen;
      completion_gen;
      dynamic_gen;
      convergence_gen;
      deadline_gen;
      fattree_gen;
    ]

(* Fault plans: valid by construction (windows sorted and disjoint,
   rates in range) so the round-trip property never trips Plan.validate. *)
let faults_gen =
  let window_list_gen =
    Gen.map
      (fun bounds ->
        let sorted = List.sort_uniq Int.compare bounds in
        let rec pair = function
          | lo :: hi :: rest -> (lo, hi) :: pair rest
          | _ -> []
        in
        pair (List.map Int64.of_int sorted))
      (Gen.list_size (Gen.int_range 0 6) (Gen.int_range 0 2_000_000_000))
  in
  let suppression_gen =
    Gen.oneof
      [
        Gen.return Fault.Plan.Keep_marks;
        Gen.return Fault.Plan.Suppress_all;
        Gen.map
          (fun (at, d) ->
            Fault.Plan.Suppress_window
              { at; until = Int64.add at (Int64.of_int d) })
          (Gen.pair span_gen (Gen.int_range 1 1_000_000_000));
        Gen.map (fun p -> Fault.Plan.Suppress_prob p) (Gen.float_range 0. 1.);
      ]
  in
  Gen.map3
    (fun flaps (loss_rate, jitter_max) (rate_changes, suppression) ->
      {
        Fault.Plan.flaps =
          List.map
            (fun (down_at, up_at) -> { Fault.Plan.down_at; up_at })
            flaps;
        loss_rate;
        jitter_max;
        rate_changes =
          List.map
            (fun (at, until) -> { Fault.Plan.at; until; factor = 0.5 })
            rate_changes;
        suppression;
      })
    window_list_gen
    (Gen.pair (Gen.float_range 0. 0.99) span_gen)
    (Gen.pair window_list_gen suppression_gen)

(* Shared-pool configs: alpha restricted to exact multiples of 1/1024 so
   the round-trip property (floats compare by bit pattern) and the
   manager's x1024 quantisation agree on the value being tested. *)
let buffer_gen =
  Gen.oneof
    [
      Gen.return Net.Buffer_mgr.Static;
      Gen.map2
        (fun pool_bytes a ->
          Net.Buffer_mgr.Dynamic_threshold
            { pool_bytes; alpha = float_of_int a /. 1024. })
        (Gen.int_range 1_500 10_000_000)
        (Gen.int_range 1 8192);
    ]

let spec_gen =
  Gen.map3
    (fun name protocol (workload, (faults, buffer)) ->
      { Spec.name; protocol; workload; faults; buffer })
    (Gen.string_size ~gen:Gen.printable (Gen.int_range 0 16))
    protocol_gen
    (Gen.pair workload_gen (Gen.pair (Gen.opt faults_gen) buffer_gen))

let spec_arb = QCheck.make ~print:Spec.to_string spec_gen

(* --- spec serialization ---------------------------------------------- *)

let prop_json_roundtrip =
  QCheck.Test.make ~count:300 ~name:"spec JSON round-trip (of_string/to_string)"
    spec_arb
    (fun s ->
      match Spec.of_string (Spec.to_string s) with
      | Ok s' ->
          Spec.equal s s' && Json.equal (Spec.to_json s) (Spec.to_json s')
      | Error e -> QCheck.Test.fail_reportf "of_string: %s" e)

(* One workload of each kind with every config field off its default, as
   full record literals (no [with]), so a new config field cannot be left
   out here without a compile error. *)
let distinct_workloads =
  [
    Spec.Longlived
      {
        Workloads.Longlived.n_flows = 3;
        bottleneck_rate_bps = 2.5e9;
        rtt = 123_457L;
        buffer_bytes = 77_777;
        segment_bytes = 1_499;
        warmup = 1_000_001L;
        measure = 2_000_003L;
        trace_sampling = Some 50_001L;
        alpha_sample_period = 999_999L;
        stagger = 12_345L;
        min_rto = 7_000_001L;
        seed = 42L;
      };
    Spec.Incast
      {
        config =
          {
            Workloads.Incast.n_flows = 5;
            bytes_per_flow = 40_001;
            repeats = 3;
            rate_bps = 2.5e8;
            buffer_bytes = 99_999;
            leaf_buffer_bytes = 300_001;
            segment_bytes = 1_499;
            min_rto = 7_000_001L;
            time_cap = 3_000_000_001L;
            start_jitter = 100_001L;
            initial_cwnd = 3.5;
            seed = 43L;
          };
        sack = true;
      };
    Spec.Completion
      {
        Workloads.Completion.n_flows = 6;
        total_bytes = 500_001;
        repeats = 4;
        rate_bps = 2.5e8;
        buffer_bytes = 99_999;
        leaf_buffer_bytes = 300_001;
        segment_bytes = 1_499;
        min_rto = 7_000_001L;
        time_cap = 3_000_000_001L;
        seed = 44L;
      };
    Spec.Dynamic
      {
        Workloads.Dynamic.background_flows = 3;
        short_senders = 5;
        arrival_rate = 1234.5;
        short_flow_segments = 7;
        duration = 30_000_001L;
        warmup = 1_000_001L;
        drain = 2_000_003L;
        bottleneck_rate_bps = 2.5e9;
        rtt = 123_457L;
        buffer_bytes = 77_777;
        segment_bytes = 1_499;
        min_rto = 7_000_001L;
        seed = 45L;
      };
    Spec.Convergence
      {
        Workloads.Convergence.n_flows = 3;
        join_interval = 30_000_001L;
        hold = 40_000_001L;
        sample_window = 900_001L;
        bottleneck_rate_bps = 2.5e9;
        rtt = 123_457L;
        buffer_bytes = 77_777;
        segment_bytes = 1_499;
        min_rto = 7_000_001L;
        convergence_band = 0.125;
        seed = 46L;
      };
    Spec.Deadline
      {
        config =
          {
            Workloads.Deadline.n_flows = 5;
            bytes_per_flow = 40_001;
            deadline = 15_000_001L;
            deadline_spread = 5_000_001L;
            repeats = 3;
            rate_bps = 2.5e8;
            buffer_bytes = 99_999;
            leaf_buffer_bytes = 300_001;
            segment_bytes = 1_499;
            min_rto = 7_000_001L;
            start_jitter = 100_001L;
            time_cap = 3_000_000_001L;
            seed = 47L;
          };
        d2tcp = true;
      };
    Spec.Fattree
      {
        Workloads.Fattree.k = 6;
        incast_fanin = 3;
        incast_bytes = 20_001;
        long_flows = 5;
        long_bytes = 900_001;
        rate_bps = 2.5e9;
        link_delay = 3_001L;
        queue_bytes = 77_777;
        segment_bytes = 1_499;
        min_rto = 7_000_001L;
        time_cap = 3_000_000_001L;
        start_spread = 100_001L;
        initial_cwnd = 3.5;
        seed = 48L;
      };
  ]

let spec_of_workload workload =
  Spec.make ~name:"distinct" ~protocol:Spec.Reno ~workload ()

let default_workload = function
  | Spec.Longlived _ -> Spec.Longlived Workloads.Longlived.default_config
  | Spec.Incast _ ->
      Spec.Incast { config = Workloads.Incast.default_config; sack = false }
  | Spec.Completion _ -> Spec.Completion Workloads.Completion.default_config
  | Spec.Dynamic _ -> Spec.Dynamic Workloads.Dynamic.default_config
  | Spec.Convergence _ ->
      Spec.Convergence Workloads.Convergence.default_config
  | Spec.Deadline _ ->
      Spec.Deadline { config = Workloads.Deadline.default_config; d2tcp = false }
  | Spec.Fattree _ -> Spec.Fattree Workloads.Fattree.default_config

let workload_fields w =
  match Json.member "workload" (Spec.to_json (spec_of_workload w)) with
  | Some (Json.Obj fields) -> fields
  | _ -> Alcotest.fail "spec JSON has no workload object"

(* A field missing from Spec's table is missing from both its encoder and
   its decoder, so a JSON round-trip (compared through [Spec.to_json])
   cannot see it. Decode instead and compare the config records
   themselves: with every field off its default, a field the decoder
   does not set comes back as the default and differs. *)
let test_every_field_in_table () =
  List.iter
    (fun w ->
      let kind = Spec.workload_name w in
      (* Every key the table does write must really be off its default,
         or the comparison below could not catch that field. *)
      List.iter2
        (fun (k, v) (k', v0) ->
          Alcotest.(check string) (kind ^ " key order") k k';
          if (not (String.equal k "kind")) && Json.equal v v0 then
            Alcotest.fail (kind ^ "." ^ k ^ " is at its default"))
        (workload_fields w)
        (workload_fields (default_workload w));
      match Spec.of_json (Spec.to_json (spec_of_workload w)) with
      | Ok s ->
          if not (s.Spec.workload = w) then
            Alcotest.failf
              "%s: decoded config differs from the original, so a config \
               field is missing from its table"
              kind
      | Error e -> Alcotest.fail e)
    distinct_workloads

let test_seed_every_workload () =
  List.iter
    (fun w ->
      let s = spec_of_workload w in
      let kind = Spec.workload_name w in
      let s' = Spec.with_seed 7L s in
      Alcotest.(check int64) (kind ^ " with_seed") 7L (Spec.seed s');
      Alcotest.(check bool)
        (kind ^ " with_seed (seed s) s = s")
        true
        (Spec.equal s (Spec.with_seed (Spec.seed s) s));
      List.iter2
        (fun (k, v) (_, v') ->
          Alcotest.(check bool)
            (kind ^ "." ^ k ^ " changed iff it is the seed")
            (String.equal k "seed")
            (not (Json.equal v v')))
        (workload_fields s.Spec.workload)
        (workload_fields s'.Spec.workload))
    distinct_workloads

(* --- parser fuzzing ------------------------------------------------------ *)

let hostile =
  Json.
    [
      Null;
      Int (-1);
      Int max_int;
      Float Float.nan;
      String "x";
      Bool true;
      List [];
      Obj [];
    ]

(* Every single mutation of [j]: each object member dropped, and each
   member value or list element replaced by each hostile value (or,
   recursively, mutated itself). *)
let rec mutations j =
  let replace_nth xs i x = List.mapi (fun i' y -> if i' = i then x else y) xs in
  match j with
  | Json.Obj fields ->
      List.concat
        (List.mapi
           (fun i (k, v) ->
             Json.Obj (List.filteri (fun i' _ -> i' <> i) fields)
             :: List.map
                  (fun v' -> Json.Obj (replace_nth fields i (k, v')))
                  (hostile @ mutations v))
           fields)
  | Json.List items ->
      List.concat
        (List.mapi
           (fun i v ->
             List.map
               (fun v' -> Json.List (replace_nth items i v'))
               (hostile @ mutations v))
           items)
  | Json.Null | Json.Bool _ | Json.Int _ | Json.Float _ | Json.String _ -> []

(* The registry's spec JSON, one per distinct shape: the JSON with every
   leaf value erased except the "kind" tags. *)
let registry_shapes =
  lazy
    (let rec shape = function
       | Json.Obj fields ->
           Json.Obj
             (List.map
                (fun (k, v) -> (k, if String.equal k "kind" then v else shape v))
                fields)
       | Json.List items -> Json.List (List.map shape items)
       | Json.Null | Json.Bool _ | Json.Int _ | Json.Float _ | Json.String _ ->
           Json.Null
     in
     let seen = Hashtbl.create 16 in
     List.concat_map
       (fun (e : Registry.entry) ->
         List.filter_map
           (fun s ->
             let j = Spec.to_json s in
             let key =
               match j with
               | Json.Obj fields ->
                   Json.to_string
                     (shape (Json.Obj (List.remove_assoc "name" fields)))
               | _ -> Json.to_string (shape j)
             in
             if Hashtbl.mem seen key then None
             else begin
               Hashtbl.replace seen key ();
               Some j
             end)
           (e.specs ()))
       (Registry.all ()))

let decodes_without_raising j =
  match Spec.of_json j with
  | Ok _ | Error _ -> true
  | exception e ->
      QCheck.Test.fail_reportf "of_json raised %s on %s"
        (Printexc.to_string e) (Json.to_string j)

let test_single_mutations () =
  let shapes = Lazy.force registry_shapes in
  Alcotest.(check bool) "several shapes" true (List.length shapes >= 7);
  List.iter
    (fun j ->
      List.iter
        (fun m ->
          match Spec.of_json m with
          | Ok _ | Error _ -> ()
          | exception e ->
              Alcotest.failf "of_json raised %s on %s" (Printexc.to_string e)
                (Json.to_string m))
        (mutations j))
    shapes

(* Up to three mutations stacked on one registry shape. *)
let prop_stacked_mutations =
  QCheck.Test.make ~count:500 ~name:"stacked mutations never raise"
    QCheck.(
      pair (int_bound 1_000_000)
        (list_of_size Gen.(int_range 1 3) (int_bound 1_000_000)))
    (fun (shape, picks) ->
      let shapes = Lazy.force registry_shapes in
      let j = List.nth shapes (shape mod List.length shapes) in
      let mutated =
        List.fold_left
          (fun j pick ->
            match mutations j with
            | [] -> j
            | ms -> List.nth ms (pick mod List.length ms))
          j picks
      in
      decodes_without_raising mutated)

let smoke_longlived ~name ~seed =
  {
    Spec.name;
    protocol = Registry.sim_dt;
    workload =
      Spec.Longlived
        {
          Workloads.Longlived.default_config with
          n_flows = 2;
          warmup = Time.span_of_ms 1.;
          measure = Time.span_of_ms 2.;
          seed;
        };
    faults = None;
    buffer = Net.Buffer_mgr.Static;
  }

let smoke_incast ~name ~seed =
  {
    Spec.name;
    protocol = Registry.testbed_dctcp;
    workload =
      Spec.Incast
        {
          config =
            {
              Workloads.Incast.default_config with
              n_flows = 4;
              repeats = 1;
              time_cap = Time.span_of_sec 2.;
              seed;
            };
          sack = false;
        };
    faults = None;
    buffer = Net.Buffer_mgr.Static;
  }

let test_extreme_seeds () =
  let base = smoke_longlived ~name:"seed/extreme" ~seed:0L in
  List.iter
    (fun seed ->
      let s = Spec.with_seed seed base in
      Alcotest.(check int64) "with_seed applies" seed (Spec.seed s);
      match Spec.of_string (Spec.to_string s) with
      | Ok s' -> Alcotest.(check int64) "seed survives JSON" seed (Spec.seed s')
      | Error e -> Alcotest.fail e)
    [ Int64.min_int; Int64.max_int; -1L; 0L; 4_611_686_018_427_387_904L ]

let test_of_json_strict () =
  (match Spec.of_string "{}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty object accepted");
  (match Spec.of_string "not json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage accepted");
  (* A field-complete spec with one config field removed must be rejected:
     of_json is strict so old manifests fail loudly, never fill defaults. *)
  let full = Spec.to_string (smoke_longlived ~name:"strict" ~seed:3L) in
  match Json.parse full with
  | Error e -> Alcotest.fail e
  | Ok json ->
      let rec drop_seed = function
        | Json.Obj fields ->
            Json.Obj
              (List.filter_map
                 (fun (k, v) ->
                   if String.equal k "seed" then None
                   else Some (k, drop_seed v))
                 fields)
        | j -> j
      in
      (match Spec.of_json (drop_seed json) with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "spec without seed field accepted")

(* A Static buffer must be invisible in the serialized spec — that is
   what keeps every pre-buffer-manager manifest parseable and every
   baseline family's spec JSON byte-identical to what it was before the
   shared pool existed. *)
let test_buffer_json_default () =
  let s = smoke_longlived ~name:"buffer/static" ~seed:1L in
  (match Spec.to_json s with
  | Json.Obj fields ->
      Alcotest.(check bool) "buffer key omitted when Static" false
        (List.mem_assoc "buffer" fields)
  | _ -> Alcotest.fail "spec json is not an object");
  (match Spec.of_string (Spec.to_string s) with
  | Ok s' ->
      Alcotest.(check bool) "absent buffer parses as Static" true
        (Net.Buffer_mgr.config_equal s'.Spec.buffer Net.Buffer_mgr.Static)
  | Error e -> Alcotest.fail e);
  let dt =
    {
      s with
      Spec.buffer =
        Net.Buffer_mgr.Dynamic_threshold { pool_bytes = 125_000; alpha = 0.5 };
    }
  in
  (match Spec.to_json dt with
  | Json.Obj fields ->
      Alcotest.(check bool) "buffer key present for a shared pool" true
        (List.mem_assoc "buffer" fields)
  | _ -> Alcotest.fail "spec json is not an object");
  match Spec.of_string (Spec.to_string dt) with
  | Ok dt' ->
      Alcotest.(check bool) "Dynamic_threshold round-trips" true
        (Spec.equal dt dt')
  | Error e -> Alcotest.fail e

(* --- registry catalogue ---------------------------------------------- *)

let test_registry_catalogue () =
  let entries = Registry.all () in
  let names = Registry.names () in
  Alcotest.(check int) "names match entries" (List.length entries)
    (List.length names);
  Alcotest.(check int) "entry names unique" (List.length names)
    (List.length (List.sort_uniq String.compare names));
  List.iter
    (fun (e : Registry.entry) ->
      (match Registry.find e.name with
      | Some found ->
          Alcotest.(check string) "find resolves" e.name found.Registry.name
      | None -> Alcotest.fail ("find misses " ^ e.name));
      let specs = e.specs () in
      Alcotest.(check bool) (e.name ^ " non-empty") true (specs <> []);
      let snames = List.map (fun (s : Spec.t) -> s.Spec.name) specs in
      Alcotest.(check int)
        (e.name ^ " spec names unique")
        (List.length snames)
        (List.length (List.sort_uniq String.compare snames));
      List.iter
        (fun s ->
          match Spec.of_string (Spec.to_string s) with
          | Ok s' ->
              if not (Spec.equal s s') then
                Alcotest.fail ("round-trip changed " ^ s.Spec.name)
          | Error err -> Alcotest.fail (s.Spec.name ^ ": " ^ err))
        specs)
    entries;
  (* `dtsim run --name` looks a spec up across every entry, so names must
     be unique registry-wide, not just within an entry. *)
  let all_specs =
    List.concat_map (fun (e : Registry.entry) -> e.specs ()) entries
  in
  let all_names = List.map (fun (s : Spec.t) -> s.Spec.name) all_specs in
  Alcotest.(check int) "spec names unique across the registry"
    (List.length all_names)
    (List.length (List.sort_uniq String.compare all_names));
  List.iter
    (fun (s : Spec.t) ->
      match Registry.find_spec s.Spec.name with
      | Some found ->
          if not (Spec.equal s found) then
            Alcotest.fail ("find_spec returned another spec for " ^ s.Spec.name)
      | None -> Alcotest.fail ("find_spec misses " ^ s.Spec.name))
    all_specs;
  Alcotest.(check bool) "find_spec misses an unknown name" true
    (Registry.find_spec "fig_sweep/dt-dctcp/n=11" = None);
  match Registry.find "no-such-entry" with
  | None -> ()
  | Some _ -> Alcotest.fail "find invented an entry"

(* --- PATH=VALUE overrides -------------------------------------------- *)

(* Every leaf of a spec's JSON form as a (dotted path, VALUE text) pair
   that restates its current value. *)
let leaf_assignments spec =
  let rec go prefix j acc =
    match j with
    | Json.Obj fields ->
        List.fold_left
          (fun acc (k, v) ->
            go (if prefix = "" then k else prefix ^ "." ^ k) v acc)
          acc fields
    | Json.String s -> (prefix ^ "=" ^ s) :: acc
    | v -> (prefix ^ "=" ^ Json.to_string v) :: acc
  in
  List.rev (go "" (Spec.to_json spec) [])

let sweep_spec n =
  match Registry.find_spec (Printf.sprintf "fig_sweep/dt-dctcp/n=%d" n) with
  | Some s -> s
  | None -> Alcotest.fail "fig_sweep spec missing"

let test_override_identity () =
  List.iter
    (fun (e : Registry.entry) ->
      List.iter
        (fun s ->
          let sets = leaf_assignments s in
          match Spec.override sets s with
          | Ok s' ->
              if not (Spec.equal s s') then
                Alcotest.fail ("restating every field changed " ^ s.Spec.name)
          | Error err -> Alcotest.fail (s.Spec.name ^ ": " ^ err))
        (e.specs ()))
    (Registry.all ());
  match Spec.override [] (sweep_spec 10) with
  | Ok s ->
      Alcotest.(check bool) "no override is identity" true
        (Spec.equal s (sweep_spec 10))
  | Error e -> Alcotest.fail e

let test_override_n_flows () =
  match Spec.override [ "workload.n_flows=60" ] (sweep_spec 10) with
  | Error e -> Alcotest.fail e
  | Ok s ->
      let n60 = sweep_spec 60 in
      Alcotest.(check bool) "n=10 with n_flows=60 is the n=60 spec" true
        (Spec.equal (Spec.with_name n60.Spec.name s) n60);
      Alcotest.(check string) "name kept" "fig_sweep/dt-dctcp/n=10" s.Spec.name

let test_override_values () =
  let base = sweep_spec 10 in
  let ok sets =
    match Spec.override sets base with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let s =
    ok
      [
        "protocol.k1_bytes=45000"; "protocol.g=1"; "workload.seed=7"; "name=x";
      ]
  in
  (match s.Spec.protocol with
  | Spec.Dt_dctcp { k1_bytes; g; _ } ->
      Alcotest.(check int) "k1" 45000 k1_bytes;
      Alcotest.(check (float 0.)) "int accepted for a number" 1. g
  | _ -> Alcotest.fail "protocol kind changed");
  Alcotest.(check int64) "seed string takes raw text" 7L (Spec.seed s);
  Alcotest.(check string) "top-level field" "x" s.Spec.name;
  (match (ok [ "workload.trace_sampling=20000" ]).Spec.workload with
  | Spec.Longlived c ->
      Alcotest.(check (option int64)) "null field set" (Some 20000L)
        c.Workloads.Longlived.trace_sampling
  | _ -> Alcotest.fail "workload kind changed");
  let rejected what sets =
    match Spec.override sets base with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (what ^ " accepted")
  in
  rejected "unknown leaf" [ "workload.nflows=4" ];
  rejected "path through a leaf" [ "workload.n_flows.x=4" ];
  rejected "unknown top-level key" [ "faults=4" ];
  rejected "int field given text" [ "workload.n_flows=four" ];
  rejected "int field given a float" [ "workload.n_flows=4.5" ];
  rejected "number field given text" [ "protocol.g=fast" ];
  rejected "object given a scalar" [ "protocol=3" ];
  rejected "required field nulled" [ "workload.n_flows=null" ];
  rejected "decoder refuses a kind" [ "protocol.kind=dctcp" ];
  rejected "missing =" [ "workload.n_flows" ];
  rejected "empty path" [ "=4" ];
  rejected "empty component" [ "workload..n_flows=4" ];
  rejected "one bad assignment among good ones" [ "name=y"; "workload.x=1" ]

(* Parser fuzzing: arbitrary assignment strings, biased towards real
   paths and JSON-ish values, yield [Ok] or [Error] and never raise. *)
let prop_override_total =
  let paths =
    List.map
      (fun a -> String.sub a 0 (String.index a '='))
      (leaf_assignments (sweep_spec 10))
  in
  let text = Gen.string_size ~gen:Gen.printable (Gen.int_range 0 12) in
  let path_gen =
    Gen.oneof
      [
        Gen.oneofl ("" :: "workload" :: "protocol" :: paths);
        text;
        Gen.map2 (fun p t -> p ^ "." ^ t) (Gen.oneofl paths) text;
      ]
  in
  let value_gen =
    Gen.oneof
      [
        text;
        Gen.map string_of_int Gen.int;
        Gen.map (fun f -> Printf.sprintf "%h" f) Gen.float;
        Gen.oneofl [ "null"; "true"; "[]"; "{}"; "\"s\""; "1e400"; "-0"; "{" ];
      ]
  in
  let assignment =
    Gen.oneof
      [
        Gen.map2 (fun p v -> p ^ "=" ^ v) path_gen value_gen;
        text;
      ]
  in
  QCheck.Test.make ~count:1000 ~name:"override never raises"
    (QCheck.make
       ~print:QCheck.Print.(list string)
       (Gen.list_size (Gen.int_range 0 3) assignment))
    (fun sets ->
      match Spec.override sets (sweep_spec 10) with
      | Ok _ | Error _ -> true
      | exception e ->
          QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e))

(* The buffer-manager refactor must not move any pre-existing baseline:
   every registry family except the new fig_buffer sweep stays on the
   Static (private-capacity) path, and a spec read back from an old
   manifest (no buffer key) runs bit-identically to the explicit-Static
   spec. *)
let test_baseline_families_stay_static () =
  List.iter
    (fun (e : Registry.entry) ->
      if not (String.equal e.name "fig_buffer") then
        List.iter
          (fun (s : Spec.t) ->
            if
              not
                (Net.Buffer_mgr.config_equal s.Spec.buffer
                   Net.Buffer_mgr.Static)
            then Alcotest.fail (e.name ^ "/" ^ s.Spec.name ^ " is not Static"))
          (e.specs ()))
    (Registry.all ())

(* --- runner ----------------------------------------------------------- *)

(* Wall-clock fields (wall_clock_s, events_per_s) legitimately differ
   between runs; everything the simulation computed must not. *)
let manifest_deterministic_eq (a : Obs.Manifest.t) (b : Obs.Manifest.t) =
  String.equal a.Obs.Manifest.name b.Obs.Manifest.name
  && Int64.equal a.Obs.Manifest.seed b.Obs.Manifest.seed
  && a.Obs.Manifest.events = b.Obs.Manifest.events
  && List.length a.Obs.Manifest.metrics = List.length b.Obs.Manifest.metrics
  && List.for_all2
       (fun (k1, v1) (k2, v2) ->
         String.equal k1 k2
         && Int64.equal (Int64.bits_of_float v1) (Int64.bits_of_float v2))
       a.Obs.Manifest.metrics b.Obs.Manifest.metrics
  && Json.equal
       (Json.Obj a.Obs.Manifest.params)
       (Json.Obj b.Obs.Manifest.params)

let outcome_bitwise_eq (a : Runner.outcome) (b : Runner.outcome) =
  Spec.equal a.Runner.spec b.Runner.spec
  && Outcome.equal a.Runner.result b.Runner.result
  && manifest_deterministic_eq a.Runner.manifest b.Runner.manifest

let prop_parallel_identity =
  QCheck.Test.make ~count:3 ~name:"run ~jobs:4 bit-identical to ~jobs:1"
    QCheck.(make ~print:string_of_int Gen.(int_range 0 10_000))
    (fun base ->
      let seed i = Int64.of_int ((base * 13) + i + 1) in
      let specs =
        [
          smoke_longlived ~name:"par/ll-a" ~seed:(seed 0);
          smoke_incast ~name:"par/incast" ~seed:(seed 1);
          smoke_longlived ~name:"par/ll-b" ~seed:(seed 2);
          smoke_longlived ~name:"par/ll-c" ~seed:(seed 3);
        ]
      in
      let serial = Runner.run ~jobs:1 specs in
      let par = Runner.run ~jobs:4 specs in
      Array.length serial = Array.length par
      && Array.for_all2 outcome_bitwise_eq serial par)

let test_failure_isolation () =
  let bad =
    {
      Spec.name = "iso/bad";
      protocol = Registry.sim_dctcp;
      workload =
        Spec.Longlived
          { Workloads.Longlived.default_config with n_flows = 0 };
      faults = None;
      buffer = Net.Buffer_mgr.Static;
    }
  in
  let good_a = smoke_longlived ~name:"iso/good-a" ~seed:11L in
  let good_b = smoke_incast ~name:"iso/good-b" ~seed:12L in
  let outcomes = Runner.run ~jobs:2 [ good_a; bad; good_b ] in
  Alcotest.(check int) "slot per spec" 3 (Array.length outcomes);
  (match outcomes.(1).Runner.result with
  | Outcome.Failed { spec; error } ->
      Alcotest.(check string) "failed slot names its spec" "iso/bad" spec;
      Alcotest.(check bool) "error is non-empty" true (String.length error > 0)
  | Outcome.Done _ -> Alcotest.fail "zero-flow spec reported Done");
  (* The failure must not perturb its neighbours: each good slot is
     bit-identical to running that spec alone. *)
  Alcotest.(check bool) "good-a unperturbed" true
    (outcome_bitwise_eq outcomes.(0) (Runner.run_one good_a));
  Alcotest.(check bool) "good-b unperturbed" true
    (outcome_bitwise_eq outcomes.(2) (Runner.run_one good_b))

let test_static_run_matches_prebuffer_spec () =
  (* A spec deserialized from its pre-buffer-manager JSON form (no
     buffer key) must run bit-identically to the explicit-Static one:
     the refactor's "old behavior preserved" claim, end to end. *)
  let s = smoke_longlived ~name:"regress/static" ~seed:23L in
  let from_old_json =
    match Spec.of_string (Spec.to_string s) with
    | Ok s' -> s'
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "outcomes bit-identical" true
    (outcome_bitwise_eq (Runner.run_one s) (Runner.run_one from_old_json))

let test_manifest_reconstruction () =
  let spec = smoke_longlived ~name:"manifest/reconstruct" ~seed:42L in
  let o = Runner.run_one spec in
  (match o.Runner.result with
  | Outcome.Done _ -> ()
  | Outcome.Failed { error; _ } -> Alcotest.fail error);
  Alcotest.(check bool) "events recorded" true
    (o.Runner.manifest.Obs.Manifest.events > 0);
  Alcotest.(check int64) "manifest seed is the spec seed" 42L
    o.Runner.manifest.Obs.Manifest.seed;
  (* Reconstruct through the serialized form, exactly as a reader of the
     manifest file would. *)
  let buf = Buffer.create 256 in
  Json.to_buffer buf (Obs.Manifest.to_json o.Runner.manifest);
  match Json.parse (Buffer.contents buf) with
  | Error e -> Alcotest.fail e
  | Ok json -> (
      match Obs.Manifest.of_json json with
      | Error e -> Alcotest.fail e
      | Ok m -> (
          match List.assoc_opt "spec" m.Obs.Manifest.params with
          | None -> Alcotest.fail "manifest lacks a spec param"
          | Some spec_json -> (
              match Spec.of_json spec_json with
              | Ok s' ->
                  Alcotest.(check bool) "spec reconstructed bit-for-bit" true
                    (Spec.equal spec s')
              | Error e -> Alcotest.fail e)))

(* --- streaming analysis: online (teed into the run) and offline
   (replaying the same records through a fresh analyzer, via the JSONL
   wire format) must produce bit-identical blocks. --- *)

let test_online_offline_analysis () =
  let spec = smoke_longlived ~name:"analysis/equiv" ~seed:7L in
  let records = ref [] in
  let collector =
    Obs.Trace.create ~classes:Obs.Analyze.required_classes
      (Obs.Trace.Fn (fun r -> records := r :: !records))
  in
  let o = Runner.run_one ~tracer:collector ~analyze:true spec in
  (match o.Runner.result with
  | Outcome.Done _ -> ()
  | Outcome.Failed { error; _ } -> Alcotest.fail error);
  let online =
    match o.Runner.manifest.Obs.Manifest.analysis with
    | Some j -> j
    | None -> Alcotest.fail "analyze:true produced no analysis block"
  in
  let cfg =
    match Runner.analysis_config spec with
    | Some c -> c
    | None -> Alcotest.fail "longlived spec has no analysis config"
  in
  let offline = Obs.Analyze.create cfg in
  List.iter
    (fun r ->
      (* Round-trip each record through its JSONL form, exactly as
         `dtsim analyze` reads a trace file back. *)
      let buf = Buffer.create 128 in
      Json.to_buffer buf (Obs.Trace.record_to_json r);
      match Json.parse (Buffer.contents buf) with
      | Error e -> Alcotest.fail e
      | Ok j -> (
          match Obs.Trace.record_of_json j with
          | Error e -> Alcotest.fail e
          | Ok r' -> Obs.Analyze.feed offline r'))
    (List.rev !records);
  Obs.Analyze.finalize offline;
  Alcotest.(check bool) "records were collected" true (!records <> []);
  Alcotest.(check bool) "online and offline blocks bit-identical" true
    (Json.equal online (Obs.Analyze.to_json offline))

let test_manifest_no_analysis () =
  let spec = smoke_longlived ~name:"analysis/off" ~seed:9L in
  let o = Runner.run_one spec in
  (match o.Runner.result with
  | Outcome.Done _ -> ()
  | Outcome.Failed { error; _ } -> Alcotest.fail error);
  Alcotest.(check bool) "analysis field is None" true
    (o.Runner.manifest.Obs.Manifest.analysis = None);
  (* The serialized manifest must not even carry the key, so registry
     outputs stay byte-identical to pre-analysis builds. *)
  Alcotest.(check bool) "no analysis member in JSON" true
    (Json.member "analysis" (Obs.Manifest.to_json o.Runner.manifest) = None)

(* The engine profiler rides the [on_sim] hook: attached, it must not
   change a bit of the outcome, and it must see every event the manifest
   counts — on the long-lived dumbbell and on the fat tree alike. The
   other workloads do not take the hook and never call it. *)
let test_profiler_sees_every_event () =
  List.iter
    (fun name ->
      let spec =
        match Registry.find_spec name with
        | Some s -> s
        | None -> Alcotest.fail ("no registry spec " ^ name)
      in
      Alcotest.(check bool) (name ^ " takes on_sim") true
        (Runner.takes_on_sim spec);
      let plain = Runner.run_one spec in
      let prof = Obs.Selfprof.create () in
      let profiled =
        Runner.run_one ~on_sim:(fun sim -> Obs.Selfprof.attach prof sim) spec
      in
      Alcotest.(check bool) (name ^ ": outcome unchanged") true
        (outcome_bitwise_eq plain profiled);
      let events = plain.Runner.manifest.Obs.Manifest.events in
      Alcotest.(check bool) (name ^ ": events counted") true (events > 0);
      Alcotest.(check int) (name ^ ": profile total = manifest events")
        events (Obs.Selfprof.total prof))
    [ "ci_smoke/longlived/dt-dctcp"; "fig_fattree_smoke/dt-dctcp/k=4" ];
  List.iter
    (fun name ->
      let spec = Option.get (Registry.find_spec name) in
      Alcotest.(check bool) (name ^ " refuses on_sim") false
        (Runner.takes_on_sim spec);
      let called = ref false in
      ignore (Runner.run_one ~on_sim:(fun _ -> called := true) spec);
      Alcotest.(check bool) (name ^ ": hook never called") false !called)
    [ "ci_smoke/incast/dt-dctcp"; "ci_smoke/completion/dctcp" ]

(* --- allocation budget of the packet path ----------------------------- *)

(* Minor-heap words per engine event over a run's steady state. A probe
   event first due at [from] records [Gc.minor_words] and the event
   count, then re-arms every [every] and records them again; the first
   and the last record bound the window. The readings land in a float
   array, so the probe itself allocates nothing. The spec runs once
   unprobed first, to warm whatever the first run of a process sets up. *)
let steady_words_per_event ~from ~every name =
  let spec = Option.get (Registry.find_spec name) in
  ignore (Runner.run_one spec);
  (* [| words; events |] at the first probe, then at the latest one *)
  let m = [| -1.; 0.; 0.; 0. |] in
  let on_sim sim =
    let rec probe () =
      let at = if m.(0) < 0. then 0 else 2 in
      m.(at) <- Gc.minor_words ();
      m.(at + 1) <- float_of_int (Engine.Sim.events_processed sim);
      ignore (Engine.Sim.schedule_after sim every probe)
    in
    ignore (Engine.Sim.schedule_at sim (Time.of_ns from) probe)
  in
  ignore (Runner.run_one ~on_sim spec);
  let events = m.(3) -. m.(1) in
  Alcotest.(check bool) (name ^ ": window holds events") true (events > 1e4);
  (m.(2) -. m.(0)) /. events

(* The steady-state packet path allocates nothing per packet: the TCP
   header rides in the packet store's int column, the window and DCTCP's
   alpha in float arrays, spans in int nanoseconds. What is left is
   sampler and flow-completion bookkeeping: 0.0041 words/event on the
   dumbbell and 0.0089 on the fat tree, the same in the release profile
   ([dune runtest]) and the dev profile; the boxed design spent 1.72 and
   1.63. One boxed two-word payload per data packet alone reads 0.38, so
   the 0.1 ceiling catches it. *)
let test_packet_path_alloc () =
  List.iter
    (fun (name, from) ->
      let w = steady_words_per_event ~from ~every:(Time.span_of_us 250.) name in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.4f words/event <= 0.1" name w)
        true (w <= 0.1))
    [
      ("ci_smoke/longlived/dt-dctcp", Time.span_of_ms 2.);
      ("fig_fattree_smoke/dt-dctcp/k=4", Time.span_of_ms 1.);
    ]

let suites =
  [
    ( "exp.spec",
      [
        qtest prop_json_roundtrip;
        Alcotest.test_case "every config field is in its table" `Quick
          test_every_field_in_table;
        Alcotest.test_case "seed and with_seed on every workload" `Quick
          test_seed_every_workload;
        Alcotest.test_case "single mutations of registry specs never raise"
          `Quick test_single_mutations;
        qtest prop_stacked_mutations;
        Alcotest.test_case "extreme seeds survive JSON" `Quick
          test_extreme_seeds;
        Alcotest.test_case "of_json is strict" `Quick test_of_json_strict;
        Alcotest.test_case "buffer key omitted when Static" `Quick
          test_buffer_json_default;
        Alcotest.test_case "override: restating every field is identity"
          `Quick test_override_identity;
        Alcotest.test_case "override: n=10 with n_flows=60 is n=60" `Quick
          test_override_n_flows;
        Alcotest.test_case "override: values, types and errors" `Quick
          test_override_values;
        qtest prop_override_total;
      ] );
    ( "exp.registry",
      [
        Alcotest.test_case "catalogue integrity" `Quick
          test_registry_catalogue;
        Alcotest.test_case "baseline families stay Static" `Quick
          test_baseline_families_stay_static;
      ] );
    ( "exp.runner",
      [
        qtest prop_parallel_identity;
        Alcotest.test_case "failure isolation" `Quick test_failure_isolation;
        Alcotest.test_case "Static run = pre-buffer spec run" `Quick
          test_static_run_matches_prebuffer_spec;
        Alcotest.test_case "manifest reconstructs the spec" `Quick
          test_manifest_reconstruction;
        Alcotest.test_case "online analysis = offline replay" `Quick
          test_online_offline_analysis;
        Alcotest.test_case "analysis absent when disabled" `Quick
          test_manifest_no_analysis;
        Alcotest.test_case "profiler sees every event, changes nothing"
          `Quick test_profiler_sees_every_event;
        Alcotest.test_case "steady-state packet path allocation" `Quick
          test_packet_path_alloc;
      ] );
  ]
