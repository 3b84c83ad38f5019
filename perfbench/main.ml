(* Command-line entry of the benchmark:

     main.exe --workload <name> --seed <n> --seconds <s> --trace <0|1>
     main.exe --record-reference <lo>-<hi>

   The first form prints a human-readable table, then, as the last line
   of standard output, one JSON object with the keys [correct],
   [attempted], [failed] and [metrics] (every end-to-end metric
   untraced, every per-layer metric traced). The second recomputes the reference
   outcome digests for seeds [lo..hi] of every workload. Run from the
   repository root. *)

open Perfbench

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

let json_line ~trace (r : Bench.result) =
  let kind = if trace then Catalog.Per_layer else Catalog.End_to_end in
  let metric (name, v) =
    let m = Option.get (Catalog.find name) in
    if m.Catalog.kind <> kind then None
    else
      Some
        ( name,
          Obs.Json.Obj [ ("value", Obs.Json.Float v); ("unit", Obs.Json.String m.Catalog.unit_) ]
        )
  in
  Obs.Json.to_string
    (Obs.Json.Obj
       [
         ("correct", Obs.Json.Bool (r.failed = 0));
         ("attempted", Obs.Json.Int r.attempted);
         ("failed", Obs.Json.Int r.failed);
         ("metrics", Obs.Json.Obj (List.filter_map metric r.metrics));
       ])

let print_table (w : Work.t) ~seed ~trace (r : Bench.result) =
  Printf.printf "perfbench %s seed=%d trace=%b\n" w.name seed trace;
  Printf.printf "  runs attempted %d, failed %d, failed_share %g\n" r.attempted r.failed
    (float_of_int r.failed /. float_of_int r.attempted);
  List.iter (Printf.printf "  %s\n") r.notes;
  List.iter (fun (n, s) -> Printf.printf "  %-46s %s\n" n s) r.headline;
  List.iter
    (fun (spec, stat, v) -> Printf.printf "  %-22s %10.4f   (%s)\n" stat v spec)
    r.simulated;
  Printf.printf "\n  %-26s %16s %-6s %-7s %-11s %s\n" "metric" "value" "unit" "better" "layer"
    "should move";
  List.iter
    (fun (name, v) ->
      let m = Option.get (Catalog.find name) in
      Printf.printf "  %-26s %16.6g %-6s %-7s %-11s %s\n" name v m.unit_
        (Catalog.better_string m.better) m.layer m.moves)
    r.metrics;
  print_newline ()

let parse_range s =
  match String.split_on_char '-' s with
  | [ lo; hi ] -> (
      match (int_of_string_opt lo, int_of_string_opt hi) with
      | Some lo, Some hi when lo <= hi -> List.init (hi - lo + 1) (fun i -> lo + i)
      | _ -> die "bad seed range %S" s)
  | _ -> die "bad seed range %S" s

let record seeds =
  let entry (w : Work.t) =
    ( w.name,
      List.map
        (fun seed ->
          let r = Work.run_untraced w (Work.specs w ~seed) in
          if not r.ok then die "%s seed %d failed; not recording" w.name seed;
          Printf.eprintf "%s seed %d recorded\n%!" w.name seed;
          (seed, r.digest))
        seeds )
  in
  let text = Reference.to_string (List.map entry Work.all) in
  Out_channel.with_open_bin Reference.path (fun oc -> output_string oc text)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let record_range = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S how long to repeat untraced runs (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 add the traced run and per-layer metrics");
      ("--record-reference", Arg.Set_string record_range, "LO-HI record reference digests");
    ]
    (fun a -> die "unexpected argument %S" a)
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !record_range <> "" then record (parse_range !record_range)
  else begin
    let w =
      match Work.find !workload with
      | Some w -> w
      | None ->
          die "unknown workload %S; known: %s" !workload
            (String.concat ", " (List.map (fun (w : Work.t) -> w.name) Work.all))
    in
    if !trace <> 0 && !trace <> 1 then die "--trace takes 0 or 1";
    let reference =
      match Reference.load Reference.path with
      | Ok r -> r
      | Error e -> die "cannot read %s: %s" Reference.path e
    in
    let trace = !trace = 1 in
    let r =
      try Bench.measure ~reference w ~seed:!seed ~seconds:!seconds ~trace
      with Failure e -> die "%s" e
    in
    print_table w ~seed:!seed ~trace r;
    print_endline (json_line ~trace r)
  end
