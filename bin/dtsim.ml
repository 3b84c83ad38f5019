(* dtsim: command-line driver for the DT-DCTCP reproduction.

   Every simulation is an Exp.Spec run through Exp.Runner, so a CLI run
   is the same artifact as a bench point: one spec, one manifest,
   reproducible from either. `dtsim run` runs one spec (from the
   registry or a file, optionally edited with --set) with the
   observability attachments; `dtsim sweep` runs whole named spec lists
   from Exp.Registry, optionally across domains. The stability/fluid
   subcommands are closed-form analysis and bypass the experiment
   layer. *)

open Cmdliner
module Spec = Exp.Spec
module Runner = Exp.Runner
module Outcome = Exp.Outcome

(* --- shared analysis arguments --- *)

let k_arg =
  Arg.(
    value
    & opt int 40
    & info [ "k" ] ~docv:"PKTS" ~doc:"DCTCP marking threshold in packets.")

let k1_arg =
  Arg.(
    value
    & opt int 30
    & info [ "k1" ] ~docv:"PKTS"
        ~doc:"DT-DCTCP start-marking threshold (packets, rising).")

let k2_arg =
  Arg.(
    value
    & opt int 50
    & info [ "k2" ] ~docv:"PKTS"
        ~doc:"DT-DCTCP stop-marking threshold (packets, falling).")

let g_arg =
  Arg.(
    value
    & opt float (1. /. 16.)
    & info [ "g" ] ~docv:"G" ~doc:"DCTCP EWMA gain.")

let segment_bytes = 1500

(* --- spec files and result files, shared by run and sweep --- *)

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "dtsim: %s\n" msg;
      exit 2)
    fmt

let read_file file =
  let ic = open_in_bin file in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let specs_of_file file =
  match Obs.Json.parse (read_file file) with
  | Error e -> fail "%s: %s" file e
  | Ok (Obs.Json.List items) ->
      List.map
        (fun j ->
          match Spec.of_json j with
          | Ok s -> s
          | Error e -> fail "%s: %s" file e)
        items
  | Ok j -> (
      match Spec.of_json j with
      | Ok s -> [ s ]
      | Error e -> fail "%s: %s" file e)

let safe_filename name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> c
      | _ -> '-')
    name

let write_json_file file j =
  let oc = open_out file in
  Obs.Json.write oc j;
  output_char oc '\n';
  close_out oc

let write_outcome_files dir (outcomes : Runner.outcome array) =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Array.iteri
    (fun i o ->
      let base =
        Printf.sprintf "%03d-%s" i (safe_filename o.Runner.spec.Spec.name)
      in
      let manifest = Filename.concat dir (base ^ ".manifest.json") in
      let oc = open_out manifest in
      Obs.Manifest.write oc o.Runner.manifest;
      close_out oc;
      write_json_file
        (Filename.concat dir (base ^ ".result.json"))
        (Outcome.to_json o.Runner.result))
    outcomes;
  Printf.printf "wrote %d manifest/result pairs under %s\n"
    (Array.length outcomes) dir

let name_arg ~doc =
  Arg.(value & opt string "" & info [ "name" ] ~docv:"NAME" ~doc)

let spec_file_arg ~doc =
  Arg.(value & opt string "" & info [ "spec" ] ~docv:"FILE" ~doc)

let out_dir_arg =
  Arg.(
    value & opt string ""
    & info [ "out-dir" ] ~docv:"DIR"
        ~doc:"Write per-run manifest and result JSON files under DIR.")

(* --- run --- *)

let parse_trace_events spec =
  match spec with
  | "" -> None
  | s ->
      Some
        (List.map
           (fun name ->
             match Obs.Trace.cls_of_name name with
             | Some c -> c
             | None ->
                 fail "unknown trace event %S (known: %s)" name
                   (String.concat ", "
                      (List.map Obs.Trace.cls_name Obs.Trace.all_classes)))
           (String.split_on_char ',' s))

(* A registry spec by name. On a miss, list the specs of the entry the
   name's first component names, or else the entries. *)
let registry_spec name =
  match Exp.Registry.find_spec name with
  | Some s -> s
  | None -> (
      let entry = List.hd (String.split_on_char '/' name) in
      match Exp.Registry.find entry with
      | Some e ->
          fail "unknown spec %S; %s has: %s" name entry
            (String.concat ", "
               (List.map
                  (fun (s : Spec.t) -> s.Spec.name)
                  (e.Exp.Registry.specs ())))
      | None ->
          fail "unknown spec %S; spec names start with a registry entry: %s"
            name
            (String.concat ", " (Exp.Registry.names ())))

let run_cmd =
  let run name spec_file sets out_dir trace_out trace_events analysis_out
      profile_out metrics_out =
    let spec =
      match (name, spec_file) with
      | "", "" -> fail "pass one of --name (a registry spec) or --spec FILE"
      | name, "" -> registry_spec name
      | "", file -> (
          match specs_of_file file with
          | [ s ] -> s
          | specs ->
              fail "%s holds %d specs; run takes one" file
                (List.length specs))
      | _ -> fail "--name and --spec are mutually exclusive"
    in
    let spec =
      match Spec.override sets spec with Ok s -> s | Error e -> fail "%s" e
    in
    let classes = parse_trace_events trace_events in
    let trace_oc = if trace_out = "" then None else Some (open_out trace_out) in
    let tracer =
      Option.map
        (fun oc ->
          let tr = Obs.Trace.create ?classes (Obs.Trace.Jsonl oc) in
          (* Header first: the analyzer config this spec implies plus the
             tracer's class filter, so `dtsim analyze` can replay the
             file with the exact online parameters. *)
          Option.iter
            (fun acfg ->
              Obs.Json.write oc
                (Obs.Analyze.Header.to_json
                   {
                     Obs.Analyze.Header.config = acfg;
                     classes = Obs.Trace.enabled_classes tr;
                   });
              output_char oc '\n')
            (Runner.analysis_config spec);
          tr)
        trace_oc
    in
    if profile_out <> "" && not (Runner.takes_on_sim spec) then
      fail
        "--profile-out: %s runs a workload the engine profiler cannot attach \
         to (it profiles longlived and fattree specs)"
        spec.Spec.name;
    let profiler =
      if profile_out = "" then None else Some (Obs.Selfprof.create ())
    in
    let on_sim =
      Option.map (fun p sim -> Obs.Selfprof.attach p sim) profiler
    in
    let outcome =
      Runner.run_one ?tracer ?on_sim ~analyze:(analysis_out <> "") spec
    in
    Option.iter
      (fun oc ->
        close_out oc;
        Printf.printf "event trace         %s\n" trace_out)
      trace_oc;
    (match (analysis_out, outcome.Runner.manifest.Obs.Manifest.analysis) with
    | "", _ | _, None -> ()
    | file, Some analysis ->
        write_json_file file analysis;
        Printf.printf "analysis            %s\n" file);
    Option.iter
      (fun p ->
        if Obs.Selfprof.total p = 0 then
          fail "--profile-out: the profiler saw no event; %s not written"
            profile_out;
        write_json_file profile_out (Obs.Selfprof.to_json p);
        Printf.printf "engine profile      %s (%d events, %d timed)\n"
          profile_out (Obs.Selfprof.total p)
          (Obs.Selfprof.sampled_total p))
      profiler;
    if metrics_out <> "" then begin
      let oc = open_out metrics_out in
      Obs.Manifest.write oc outcome.Runner.manifest;
      close_out oc;
      Printf.printf "run manifest        %s\n" metrics_out
    end;
    Printf.printf "%s  %s\n" spec.Spec.name
      (Outcome.summary outcome.Runner.result);
    if out_dir <> "" then write_outcome_files out_dir [| outcome |];
    match outcome.Runner.result with
    | Outcome.Failed _ -> exit 1
    | Outcome.Done _ -> ()
  in
  let spec_name =
    name_arg
      ~doc:
        "Run the registry spec named NAME, e.g. fig_sweep/dt-dctcp/n=60. \
         Spec names start with their registry entry (`dtsim sweep \
         --list`); an unknown NAME lists its entry's specs."
  in
  let spec_file =
    spec_file_arg
      ~doc:
        "Run the one Exp.Spec JSON object in FILE. A manifest's \"spec\" \
         param is accepted as-is."
  in
  let sets =
    Arg.(
      value & opt_all string []
      & info [ "set" ] ~docv:"PATH=VALUE"
          ~doc:
            "Edit the spec's JSON form at a dotted PATH before running, e.g. \
             workload.n_flows=4 or protocol.k1_bytes=45000 (spans are \
             integer nanoseconds). Repeatable; the edited spec is decoded \
             strictly, so an unknown path or a wrongly typed VALUE is an \
             error.")
  in
  let trace_out =
    Arg.(
      value & opt string ""
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Write the structured event stream (drops, marks, hysteresis \
             flips, cwnd cuts, RTOs, ...) to FILE as JSON lines. Workloads \
             that take a tracer (currently longlived) fill it.")
  in
  let trace_events =
    Arg.(
      value & opt string ""
      & info [ "trace-events" ] ~docv:"LIST"
          ~doc:
            "Comma-separated event classes to trace (e.g. \
             drop,mark,mark_state_flip). Default: all classes.")
  in
  let analysis_out =
    Arg.(
      value & opt string ""
      & info [ "analysis-out" ] ~docv:"FILE"
          ~doc:
            "Run the streaming oscillation analyzer online (teed into the \
             trace stream) and write its JSON block to FILE. The same \
             block is embedded in --metrics-out, and `dtsim analyze` on a \
             --trace-out file reproduces it bit for bit.")
  in
  let profile_out =
    Arg.(
      value & opt string ""
      & info [ "profile-out" ] ~docv:"FILE"
          ~doc:
            "Attach the sampled per-event-class engine self-profiler and \
             write its JSON report to FILE. Longlived and fattree specs \
             only; other workloads are refused.")
  in
  let metrics_out =
    Arg.(
      value & opt string ""
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Write an Obs.Manifest run-provenance record (seed, full \
             Exp.Spec, wall clock, events/s, final metrics snapshot) to \
             FILE as JSON.")
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run one spec (registry name or file, edited with --set) through \
          Exp.Runner")
    Term.(
      const run $ spec_name $ spec_file $ sets $ out_dir_arg $ trace_out
      $ trace_events $ analysis_out $ profile_out $ metrics_out)

(* --- sweep --- *)

(* --verify-serial: the sweep's parallel outcomes must be bit-identical to
   a serial rerun, and every manifest must reconstruct its exact spec. *)
let verify_against_serial specs (outcomes : Runner.outcome array) =
  let serial = Runner.run ~jobs:1 specs in
  let failures = ref 0 in
  Array.iteri
    (fun i (o : Runner.outcome) ->
      let s = serial.(i) in
      if not (Outcome.equal o.Runner.result s.Runner.result) then begin
        incr failures;
        Printf.eprintf "MISMATCH %s: parallel and serial results differ\n"
          o.Runner.spec.Spec.name
      end;
      let reconstructed =
        match
          List.find_opt
            (fun (k, _) -> String.equal k "spec")
            o.Runner.manifest.Obs.Manifest.params
        with
        | None -> Error "manifest has no spec param"
        | Some (_, j) -> Spec.of_json j
      in
      match reconstructed with
      | Error e ->
          incr failures;
          Printf.eprintf "MANIFEST %s: %s\n" o.Runner.spec.Spec.name e
      | Ok s ->
          if not (Spec.equal s o.Runner.spec) then begin
            incr failures;
            Printf.eprintf
              "MANIFEST %s: reconstructed spec differs from original\n"
              o.Runner.spec.Spec.name
          end)
    outcomes;
  if !failures > 0 then fail "%d verification failure(s)" !failures;
  Printf.printf
    "verified: %d runs bit-identical to serial, all specs reconstruct \
     from manifests\n"
    (Array.length outcomes)

let sweep_cmd =
  let run entry spec_file jobs out_dir verify list_entries =
    if list_entries then begin
      Printf.printf "%-26s %s\n" "NAME" "DESCRIPTION";
      List.iter
        (fun (e : Exp.Registry.entry) ->
          Printf.printf "%-26s %s (%d specs)\n" e.Exp.Registry.name
            e.Exp.Registry.doc
            (List.length (e.Exp.Registry.specs ())))
        (Exp.Registry.all ());
      exit 0
    end;
    let specs =
      match (entry, spec_file) with
      | "", "" -> fail "pass one of --name (see --list) or --spec FILE"
      | name, "" -> (
          match Exp.Registry.find name with
          | Some e -> e.Exp.Registry.specs ()
          | None ->
              fail "unknown sweep %S; known: %s" name
                (String.concat ", " (Exp.Registry.names ())))
      | "", file -> specs_of_file file
      | _ -> fail "--name and --spec are mutually exclusive"
    in
    if specs = [] then fail "empty spec list";
    Printf.printf "sweep: %d specs, %d job(s)\n%!" (List.length specs) jobs;
    let outcomes, wall_s =
      Obs.Profile.time (fun () -> Runner.run ~jobs specs)
    in
    Array.iter
      (fun (o : Runner.outcome) ->
        Printf.printf "  %-40s %s\n" o.Runner.spec.Spec.name
          (Outcome.summary o.Runner.result))
      outcomes;
    let failed =
      Array.fold_left
        (fun acc (o : Runner.outcome) ->
          match o.Runner.result with
          | Outcome.Failed _ -> acc + 1
          | Outcome.Done _ -> acc)
        0 outcomes
    in
    Printf.printf "%d/%d runs ok in %.1fs wall clock\n"
      (Array.length outcomes - failed)
      (Array.length outcomes) wall_s;
    if out_dir <> "" then write_outcome_files out_dir outcomes;
    if verify then verify_against_serial specs outcomes;
    if failed > 0 then exit 1
  in
  let entry =
    name_arg ~doc:"Run a named sweep from Exp.Registry (see --list)."
  in
  let spec_file =
    spec_file_arg
      ~doc:
        "Run specs from FILE: one Exp.Spec JSON object, or a JSON list \
         of them. A manifest's \"spec\" param is accepted as-is."
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Fan runs across N domains (results stay in spec order).")
  in
  let verify =
    Arg.(
      value & flag
      & info [ "verify-serial" ]
          ~doc:
            "After the sweep, rerun serially and fail unless results are \
             bit-identical and every manifest reconstructs its spec.")
  in
  let list_entries =
    Arg.(value & flag & info [ "list" ] ~doc:"List registry sweeps and exit.")
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
        "Run a registry or file-defined spec list through Exp.Runner, \
         optionally across domains")
    Term.(
      const run $ entry $ spec_file $ jobs $ out_dir_arg $ verify $ list_entries)

(* --- analyze: offline replay of a JSONL trace through the exact
   streaming analyzers a live run uses --- *)

let analyze_cmd =
  let module An = Obs.Analyze in
  let run file out =
    let ic = try open_in file with Sys_error e -> fail "%s" e in
    let next_line () = try Some (input_line ic) with End_of_file -> None in
    (* First non-blank line must be the header record: it carries the
       analyzer configuration the writing run used, which is what makes
       the offline result bit-identical to the online one. *)
    let line_no = ref 0 in
    let rec first_json () =
      match next_line () with
      | None -> fail "%s: empty trace file" file
      | Some l ->
          incr line_no;
          if String.trim l = "" then first_json ()
          else begin
            match Obs.Json.parse l with
            | Error e -> fail "%s:%d: %s" file !line_no e
            | Ok j -> j
          end
    in
    let header_json = first_json () in
    if not (An.Header.is_header header_json) then
      fail
        "%s: first record is not a trace header (traces written by `dtsim \
         run --trace-out` carry one; a headerless file cannot be analyzed \
         offline)"
        file;
    let header =
      match An.Header.of_json header_json with
      | Ok h -> h
      | Error e -> fail "%s: %s" file e
    in
    let cfg = header.An.Header.config in
    let missing =
      List.filter
        (fun c -> not (List.mem c header.An.Header.classes))
        An.required_classes
    in
    if missing <> [] then
      Printf.eprintf
        "dtsim analyze: warning: trace was recorded without class(es) %s; \
         the analysis will under-report them\n"
        (String.concat ", " (List.map Obs.Trace.cls_name missing));
    (* The on_sample hook collects the resampled series for the offline
       FFT cross-check; the analyzer itself never buffers it. *)
    let samples = ref [] in
    let an =
      An.create ~on_sample:(fun x -> samples := x :: !samples) cfg
    in
    let tracer = An.tracer an in
    let rec replay () =
      match next_line () with
      | None -> ()
      | Some l ->
          incr line_no;
          (if String.trim l <> "" then
             match Obs.Json.parse l with
             | Error e -> fail "%s:%d: %s" file !line_no e
             | Ok j -> (
                 match Obs.Trace.record_of_json j with
                 | Ok r -> Obs.Trace.emit tracer r
                 | Error e -> fail "%s:%d: %s" file !line_no e));
          replay ()
    in
    replay ();
    close_in ic;
    An.finalize an;
    let s = An.summary an in
    Printf.printf "trace               %s (%d records, %.3f s)\n" file
      s.An.records s.An.duration_s;
    (match cfg.An.band_bytes with
    | Some (lo, hi) ->
        Printf.printf "marking band        [%d, %d] bytes\n" lo hi
    | None ->
        Printf.printf "marking band        none (cycle detector disabled)\n");
    Printf.printf "occupancy           %.2f pkts mean, %.2f std\n"
      s.An.occ_mean_pkts s.An.occ_std_pkts;
    Printf.printf
      "cycles              %d (amplitude mean %.1f pkts, max %.1f, period \
       mean %.3f ms)\n"
      s.An.cycles s.An.amp_mean_pkts s.An.amp_max_pkts
      (s.An.period_mean_s *. 1e3);
    Printf.printf "marking flip rate   %.1f Hz\n" s.An.flip_rate_hz;
    Printf.printf "sync index          mean %.3f, max %.3f\n" s.An.sync_mean
      s.An.sync_max;
    (match (s.An.dominant_freq_hz, An.spectrum_note an) with
    | Some f, _ ->
        Printf.printf "dominant frequency  %.1f Hz (autocorr, period %.3f ms)\n"
          f (1e3 /. f)
    | None, Some note -> Printf.printf "dominant frequency  none: %s\n" note
    | None, None -> Printf.printf "dominant frequency  none\n");
    (* Independent cross-check: FFT over the buffered series. Silence
       would be indistinguishable from "no oscillation", so the two
       degenerate verdicts print their explicit diagnostics. *)
    let series = Array.of_list (List.rev !samples) in
    let sample_rate_hz = 1e9 /. Int64.to_float cfg.An.sample_period in
    (match Stats.Spectrum.analyze ~samples:series ~sample_rate_hz with
    | Stats.Spectrum.Peak p ->
        Printf.printf "FFT cross-check     %.1f Hz\n"
          p.Stats.Spectrum.frequency_hz
    | v -> (
        match Stats.Spectrum.verdict_note v with
        | Some note -> Printf.printf "FFT cross-check     none: %s\n" note
        | None -> assert false));
    if out <> "" then begin
      write_json_file out (An.to_json an);
      Printf.printf "analysis            %s\n" out
    end
  in
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TRACE"
          ~doc:"JSONL event trace written by `dtsim run --trace-out`.")
  in
  let out =
    Arg.(
      value & opt string ""
      & info [ "out" ] ~docv:"FILE"
          ~doc:
            "Write the analysis JSON block to FILE (bit-identical to the \
             block an online `--analysis-out` run embeds).")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Replay a JSONL trace offline through the same streaming \
          oscillation analyzers a live run tees into")
    Term.(const run $ file $ out)

(* --- stability --- *)

let stability_cmd =
  let run n rate_gbps rtt_us g k k1 k2 critical locus_csv =
    let c = rate_gbps *. 1e9 /. (float_of_int segment_bytes *. 8.) in
    let r0 = rtt_us *. 1e-6 in
    let kf = float_of_int k in
    let k1f = float_of_int k1 and k2f = float_of_int k2 in
    if critical then begin
      let dc =
        Control.Stability.critical_n ~c ~r0 ~g ~n_max:300
          ~verdict_at:(fun p -> Control.Stability.dctcp p ~k:kf)
          ()
      in
      let dt =
        Control.Stability.critical_n ~c ~r0 ~g ~n_max:300
          ~verdict_at:(fun p ->
            Control.Stability.dt_dctcp p ~k1:k1f ~k2:k2f)
          ()
      in
      let str = function Some n -> string_of_int n | None -> "> 300" in
      Printf.printf "critical N (oscillation onset):\n";
      Printf.printf "  DCTCP    (K=%d)        %s\n" k (str dc);
      Printf.printf "  DT-DCTCP (K1=%d,K2=%d)  %s\n" k1 k2 (str dt)
    end
    else begin
      let params = Control.Plant.params ~c ~n ~r0 ~g in
      Printf.printf "operating point: W0 = %.2f pkts, alpha0 = %.3f\n"
        (Control.Plant.w0 params)
        (Control.Plant.alpha0 params);
      let vdc = Control.Stability.dctcp params ~k:kf in
      let vdt = Control.Stability.dt_dctcp params ~k1:k1f ~k2:k2f in
      Format.printf "DCTCP    (K=%d):        %a, gain margin %.3f@." k
        Control.Stability.pp_verdict vdc
        (Control.Stability.dctcp_margin params ~k:kf);
      Format.printf "DT-DCTCP (K1=%d,K2=%d):  %a, gain margin %.3f@." k1 k2
        Control.Stability.pp_verdict vdt
        (Control.Stability.dt_dctcp_margin params ~k1:k1f ~k2:k2f)
    end;
    if locus_csv <> "" then begin
      let params = Control.Plant.params ~c ~n ~r0 ~g in
      let w = Control.Nyquist.log_space ~lo:1e2 ~hi:1e7 ~n:2000 in
      let locus =
        Control.Nyquist.plant_locus params ~k0:(1. /. kf) ~w
      in
      let oc = open_out locus_csv in
      output_string oc "w_rad_s,re,im\n";
      Array.iter
        (fun (p : Control.Nyquist.point) ->
          Printf.fprintf oc "%g,%g,%g\n" p.Control.Nyquist.param
            p.Control.Nyquist.z.Control.Cplx.re
            p.Control.Nyquist.z.Control.Cplx.im)
        locus;
      close_out oc;
      Printf.printf "locus written to %s\n" locus_csv
    end
  in
  let n = Arg.(value & opt int 60 & info [ "n"; "flows" ] ~docv:"N") in
  let rate = Arg.(value & opt float 10. & info [ "rate-gbps" ] ~docv:"GBPS") in
  let rtt = Arg.(value & opt float 100. & info [ "rtt-us" ] ~docv:"US") in
  let critical =
    Arg.(
      value & flag
      & info [ "critical" ] ~doc:"Scan N for the first predicted oscillation.")
  in
  let locus =
    Arg.(
      value & opt string ""
      & info [ "locus-csv" ] ~docv:"FILE" ~doc:"Dump the K0 G(jw) locus.")
  in
  Cmd.v
    (Cmd.info "stability"
       ~doc:"Describing-function stability analysis (paper Fig 9, Theorems 1-2)")
    Term.(
      const run $ n $ rate $ rtt $ g_arg $ k_arg $ k1_arg $ k2_arg $ critical
      $ locus)

(* --- fluid --- *)

let fluid_cmd =
  let run n rate_gbps rtt_us g k k1 k2 dt_proto t_end_ms csv =
    let c = rate_gbps *. 1e9 /. (float_of_int segment_bytes *. 8.) in
    let marking =
      if dt_proto then
        Fluid.Dctcp_fluid.Double (float_of_int k1, float_of_int k2)
      else Fluid.Dctcp_fluid.Single (float_of_int k)
    in
    let params =
      Fluid.Dctcp_fluid.make ~n ~c ~r0:(rtt_us *. 1e-6) ~g ~marking ()
    in
    let traj =
      Fluid.Dctcp_fluid.simulate params ~t_end:(t_end_ms *. 1e-3) ()
    in
    let discard = t_end_ms *. 1e-3 /. 3. in
    let mean, std = Fluid.Dctcp_fluid.queue_stats traj ~discard in
    Printf.printf "fluid model (%s)\n"
      (if dt_proto then Printf.sprintf "DT, K1=%d K2=%d" k1 k2
       else Printf.sprintf "single, K=%d" k);
    Printf.printf "queue mean %.2f pkts, stddev %.2f, swing amplitude %.2f\n"
      mean std
      (Fluid.Dctcp_fluid.oscillation_amplitude traj ~discard);
    if csv <> "" then begin
      let oc = open_out csv in
      output_string oc "t_s,w_pkts,alpha,q_pkts,p\n";
      Array.iteri
        (fun i t ->
          Printf.fprintf oc "%g,%g,%g,%g,%g\n" t traj.Fluid.Dctcp_fluid.w.(i)
            traj.Fluid.Dctcp_fluid.alpha.(i)
            traj.Fluid.Dctcp_fluid.q.(i)
            traj.Fluid.Dctcp_fluid.p.(i))
        traj.Fluid.Dctcp_fluid.times;
      close_out oc;
      Printf.printf "trajectory written to %s\n" csv
    end
  in
  let n = Arg.(value & opt int 10 & info [ "n"; "flows" ] ~docv:"N") in
  let rate = Arg.(value & opt float 10. & info [ "rate-gbps" ] ~docv:"GBPS") in
  let rtt = Arg.(value & opt float 100. & info [ "rtt-us" ] ~docv:"US") in
  let dt_flag =
    Arg.(value & flag & info [ "dt" ] ~doc:"Use the DT-DCTCP hysteresis.")
  in
  let t_end = Arg.(value & opt float 100. & info [ "t-end-ms" ] ~docv:"MS") in
  let csv =
    Arg.(
      value & opt string ""
      & info [ "csv" ] ~docv:"FILE" ~doc:"Dump the full trajectory.")
  in
  Cmd.v
    (Cmd.info "fluid" ~doc:"Integrate the DCTCP fluid model (paper Eqs 1-3)")
    Term.(
      const run $ n $ rate $ rtt $ g_arg $ k_arg $ k1_arg $ k2_arg $ dt_flag
      $ t_end $ csv)

let () =
  let doc =
    "reproduction of 'Ease the Queue Oscillation: Analysis and Enhancement \
     of DCTCP' (ICDCS 2013)"
  in
  let info = Cmd.info "dtsim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ run_cmd; sweep_cmd; analyze_cmd; stability_cmd; fluid_cmd ]))
