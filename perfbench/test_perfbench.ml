(* The benchmark's own tests: its layer wrappers (and the fat tree
   rebuilt for the profiler) must not change what they observe, every name it can emit must be declared in
   BENCHMARK.json and tabled in README.md, and a wrong reference outcome
   must count as a failure. *)

open Perfbench

(* A one-spec workload small enough for a unit test. *)
let tiny =
  {
    Work.name = "tiny";
    jobs = 1;
    spec_names = [ "ci_smoke/longlived/dt-dctcp" ];
  }

let test_wrappers_transparent () =
  List.iter
    (fun (spec : Exp.Spec.t) ->
      let plain = (Exp.Runner.run_one spec).Exp.Runner.result in
      let traced = Work.run_traced spec in
      Alcotest.(check bool)
        (spec.name ^ ": traced outcome equals untraced")
        true
        (Exp.Outcome.equal plain traced.Work.result);
      let cc = Layers.all_cc traced.Work.layers in
      Alcotest.(check bool)
        (spec.name ^ ": the CC wrapper saw ACKs")
        true
        (cc.Layers.on_ack.Layers.calls > 0);
      match spec.workload with
      | Exp.Spec.Longlived _ | Exp.Spec.Fattree _ ->
          Alcotest.(check bool)
            (spec.name ^ ": the engine profiler saw events")
            true
            (match traced.Work.selfprof with
            | Some p -> Obs.Selfprof.total p > 0
            | None -> false)
      | _ -> ())
    (Exp.Registry.smoke_specs () @ Exp.Registry.fattree_smoke_specs ())

let benchmark_json () =
  let text = In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all in
  match Obs.Json.parse text with
  | Ok j -> j
  | Error e -> Alcotest.fail ("BENCHMARK.json: " ^ e)

let declared section =
  match Obs.Json.member section (benchmark_json ()) with
  | Some (Obs.Json.List ms) ->
      List.map
        (fun m ->
          let str k =
            match Obs.Json.member k m with
            | Some (Obs.Json.String s) -> s
            | _ -> Alcotest.fail (section ^ ": metric without " ^ k)
          in
          (str "name", (str "unit", str "better")))
        ms
  | _ -> Alcotest.fail ("BENCHMARK.json: no " ^ section)

let test_catalog_matches_benchmark_json () =
  let check kind section =
    let expect =
      List.map
        (fun (m : Catalog.metric) -> (m.name, (m.unit_, Catalog.better_string m.better)))
        (Catalog.of_kind kind)
    in
    Alcotest.(check (list (pair string (pair string string))))
      (section ^ " equals the catalog") expect (declared section)
  in
  check Catalog.End_to_end "end_to_end";
  check Catalog.Per_layer "per_layer";
  List.iter
    (fun (m : Catalog.metric) ->
      Alcotest.(check bool) (m.name ^ " is a valid name") true (Catalog.valid_name m.name))
    Catalog.all

(* README.md's metric tables list exactly the catalog, row for row. *)
let test_readme_table_matches_catalog () =
  let rows =
    In_channel.with_open_bin "README.md" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (String.starts_with ~prefix:"| `")
  in
  Alcotest.(check (list string))
    "README.md rows = Catalog.markdown_row" (List.map Catalog.markdown_row Catalog.all) rows

let test_emitted_names_declared () =
  let declared = declared "end_to_end" @ declared "per_layer" in
  let r = Bench.measure tiny ~seed:3 ~seconds:0. ~trace:true in
  Alcotest.(check int) "no failed run" 0 r.Bench.failed;
  Alcotest.(check (list string))
    "every catalog metric, in catalog order"
    (List.map (fun (m : Catalog.metric) -> m.name) Catalog.all)
    (List.map fst r.Bench.metrics);
  List.iter
    (fun (name, v) ->
      Alcotest.(check bool) (name ^ " matches [A-Za-z0-9_.-]+") true (Catalog.valid_name name);
      Alcotest.(check bool) (name ^ " is declared") true (List.mem_assoc name declared);
      Alcotest.(check bool) (name ^ " is finite") true (Float.is_finite v))
    r.Bench.metrics

let test_reference_checked () =
  let digest = (Work.run_untraced tiny (Work.specs tiny ~seed:3)).Work.digest in
  let with_digest d = [ ("tiny", [ (3, d) ]) ] in
  let good = Bench.measure ~reference:(with_digest digest) tiny ~seed:3 ~seconds:0. ~trace:false in
  Alcotest.(check int) "recorded digest: no failure" 0 good.Bench.failed;
  let tampered = String.map (fun c -> if c = '0' then '1' else '0') digest in
  let bad =
    Bench.measure ~reference:(with_digest tampered) tiny ~seed:3 ~seconds:0. ~trace:false
  in
  Alcotest.(check int) "tampered digest: the run fails" bad.Bench.attempted bad.Bench.failed;
  (* The file format round-trips. *)
  let t = [ ("a", [ (2, "x"); (1, "y") ]); ("b", []) ] in
  match Obs.Json.parse (Reference.to_string t) with
  | Error e -> Alcotest.fail e
  | Ok j -> (
      match Reference.of_json j with
      | Error e -> Alcotest.fail e
      | Ok back ->
          Alcotest.(check bool) "seed 1 recorded" true
            (Reference.check back ~workload:"a" ~seed:1 "y" = Reference.Match);
          Alcotest.(check bool) "seed 3 unrecorded" true
            (Reference.check back ~workload:"a" ~seed:3 "y" = Reference.Unrecorded))

let test_workloads_resolve () =
  List.iter
    (fun (w : Work.t) ->
      let specs = Work.specs w ~seed:5 in
      Alcotest.(check int) (w.name ^ " resolves every spec") (List.length w.spec_names)
        (List.length specs);
      List.iter
        (fun s -> Alcotest.(check bool) "seed applied" true (Exp.Spec.seed s = 5L))
        specs)
    Work.all

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        [
          Alcotest.test_case "wrappers transparent on ci_smoke, fattree smoke" `Quick
            test_wrappers_transparent;
          Alcotest.test_case "catalog = BENCHMARK.json" `Quick test_catalog_matches_benchmark_json;
          Alcotest.test_case "README table = catalog" `Quick test_readme_table_matches_catalog;
          Alcotest.test_case "emitted names declared" `Quick test_emitted_names_declared;
          Alcotest.test_case "tampered reference fails" `Quick test_reference_checked;
          Alcotest.test_case "workloads resolve" `Quick test_workloads_resolve;
        ] );
    ]
