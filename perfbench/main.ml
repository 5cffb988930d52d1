(* The psc benchmark.

     main.exe --workload kernels|compile|serve|all [--seed N]
              [--seconds S] [--trace 0|1] [--smoke]

   Prints a human report and, as the last line of stdout, one JSON
   object {"correct", "attempted", "failed", "metrics"}: the end-to-end
   metrics of an untraced run, or the per-layer metrics of a traced one.
   --smoke runs every workload briefly, traced and untraced, and exits 1
   if a metric is missing or lacks its unit, if the catalogue differs
   from BENCHMARK.json, if any oracle check fails, or if a traced run
   reads 0 for a layer the workload calls or could not read a value.
   See README.md. *)

open Common

let workloads = [ "kernels"; "compile"; "serve" ]

(* The host's speed before any work, against the end-of-run value the
   report prints beside it. *)
let calib0 = calibrate ()

(* Set up [reps] times (all but the last torn down again) and report
   the median set-up time, so one slow set-up does not decide setup_s. *)
let timed_setups ~reps setup teardown =
  let rec go rep times =
    let st, dt = time (fun () -> setup ~rep) in
    if rep + 1 < reps then (
      teardown st;
      go (rep + 1) (dt :: times))
    else (st, median (dt :: times), rep + 1)
  in
  go 0 []

let finish ?(problems = []) ~fl ~attempted ~traced ~setup_s ~reps ~rss e2e report extra =
  let setup = metric ~n:reps "setup_s" "s" setup_s and rss = metric "peak_rss_mb" "MB" rss in
  let metrics, problems =
    if traced then
      let ms, ps = Report.layer_metrics (("host.calib_s", calib0) :: extra) in
      (ms, problems @ ps)
    else ((setup :: e2e) @ [ rss ], [])
  in
  let fail_ratio = float_of_int fl.f_n /. float_of_int (max 1 attempted) in
  let report = (setup :: metric ~n:attempted "fail_ratio" "ratio" fail_ratio :: report) @ [ rss ] in
  { r_attempted = attempted; r_failed = fl.f_n; r_failures = List.rev fl.f_lines;
    r_metrics = metrics; r_report = report; r_problems = problems }

let self_rss () = peak_rss_mb "self"

(* Set-ups per run: the cheap ones are repeated more, for a steadier
   median. *)
let setup_reps ~smoke n = if smoke then 1 else n

let run_kernels ~smoke ~seed:_ ~seconds ~traced =
  let fl = failures () in
  let reps = setup_reps ~smoke 5 in
  let st, setup_s, reps =
    timed_setups ~reps (fun ~rep -> Kernels.setup ~smoke ~rep) Kernels.teardown
  in
  Fun.protect ~finally:(fun () -> Kernels.teardown st) @@ fun () ->
  let attempted = Kernels.measure st ~fl ~seconds ~traced in
  let e2e, report = Kernels.report st in
  let extra = if traced then Kernels.layer_values st else [] in
  finish ~fl ~attempted ~traced ~setup_s ~reps ~rss:(self_rss ()) e2e report extra

let run_compile ~smoke ~seed ~seconds ~traced =
  let fl = failures () in
  let reps = setup_reps ~smoke 25 in
  let st, setup_s, reps =
    timed_setups ~reps (fun ~rep:_ -> Compile_wl.setup ~smoke ~seed) ignore
  in
  let samples = { Compile_wl.s_untraced = []; s_traced = [] } in
  let attempted = Compile_wl.measure st ~fl ~seed ~seconds ~traced samples in
  let e2e, report = Compile_wl.report samples in
  let extra = if traced then Compile_wl.layer_values samples else [] in
  finish ~fl ~attempted ~traced ~setup_s ~reps ~rss:(self_rss ()) e2e report extra

let run_serve ~smoke ~seed ~seconds ~traced =
  let fl = failures () in
  let reps = setup_reps ~smoke 15 in
  (* The oracle's own in-process work is not the server's: untraced. *)
  let ex = Span.with_ ~trace:false ~op:"oracle" "oracle" (fun () -> Serve_wl.expected ~seed) in
  let st, setup_s, reps =
    timed_setups ~reps (fun ~rep -> Serve_wl.setup ex ~seed ~rep ~traced) Serve_wl.teardown
  in
  let ph =
    { Serve_wl.closed_t0 = 0.0; closed_s = 0.0; open_t0 = 0.0; open_s = 0.0; closed = [];
      closed_tr = []; opened = []; lags = []; rss_mb = 0.0; stats = "" }
  in
  let attempted =
    Fun.protect ~finally:(fun () -> Serve_wl.teardown st) (fun () ->
        Serve_wl.measure st ph ~fl ~seconds ~traced)
  in
  let e2e, report = Serve_wl.report ph in
  let extra, problems = if traced then Serve_wl.layer_values st ph else ([], []) in
  finish ~problems ~fl ~attempted ~traced ~setup_s ~reps ~rss:ph.Serve_wl.rss_mb e2e report extra

let run_workload ~smoke ~seed ~seconds ~traced = function
  | "kernels" -> run_kernels ~smoke ~seed ~seconds ~traced
  | "compile" -> run_compile ~smoke ~seed ~seconds ~traced
  | "serve" -> run_serve ~smoke ~seed ~seconds ~traced
  | w -> failwith ("unknown workload " ^ w)

(* Write the traced run's spans and have `psc trace-check` validate
   them; a rejected trace counts as a failure. *)
let check_trace ~workload ~seed =
  let path = work_file (Printf.sprintf "trace-%s-%d.json" workload seed) in
  Span.write path;
  let status, out = run_capture (psc_exe ()) [ "trace-check"; path ] in
  Printf.printf "trace: %s (%s)\n  %s\n" path
    (if status = Unix.WEXITED 0 then "psc trace-check: valid" else "psc trace-check: REJECTED")
    (String.trim out);
  status = Unix.WEXITED 0

let print_layers () =
  let total = Span.total_self () in
  Printf.printf "self time per layer (traced operations)\n";
  List.iter
    (fun l ->
      let s = Span.self_seconds l in
      if s > 0.0 then
        Printf.printf "  %-10s %12.3f ms %6.2f%%\n" l (s *. 1000.0) (100.0 *. s /. total))
    (Report.self_layers @ Span.root_layers)

(* One workload: the human report, then the result. *)
let one ~smoke ~seed ~seconds ~traced workload =
  Span.reset ();
  (* A traced run traces its set-up too; the measuring loops then turn
     tracing on and off per operation. *)
  Span.set_enabled traced;
  let r = run_workload ~smoke ~seed ~seconds ~traced workload in
  let trace_ok = (not traced) || check_trace ~workload ~seed in
  Printf.printf "== %s (seed %d, %s run, %g s)\n" workload seed
    (if traced then "traced" else "untraced") seconds;
  Report.print_table
    (if traced then "end-to-end (for reference; the untraced run is the measure)" else "end-to-end")
    r.r_report;
  if traced then begin
    print_layers ();
    Report.print_table "per-layer" r.r_metrics
  end;
  List.iter (fun l -> Printf.printf "PROBLEM: %s\n" l) r.r_problems;
  List.iter (fun l -> Printf.printf "FAILED: %s\n" l) r.r_failures;
  if r.r_failed > List.length r.r_failures then
    Printf.printf "FAILED: ... %d failures in all\n" r.r_failed;
  (r, trace_ok)

let expected_names traced = List.map fst (if traced then Report.per_layer else Report.end_to_end)

(* The catalogue must be the one BENCHMARK.json declares. *)
let catalogue_problems () =
  let module Json = Psc.Trace.Json in
  let declared key =
    match Json.member key (Json.parse (read_file "BENCHMARK.json")) with
    | Some (Json.Arr ms) ->
      List.map
        (fun m ->
          match (Json.member "name" m, Json.member "unit" m) with
          | Some (Json.Str n), Some (Json.Str u) -> (n, u)
          | _ -> ("?", "?"))
        ms
    | _ -> []
  in
  List.concat_map
    (fun (key, ours) ->
      if declared key = ours then [] else [ "BENCHMARK.json " ^ key ^ " differs from the catalogue" ])
    [ ("end_to_end", Report.end_to_end); ("per_layer", Report.per_layer) ]

(* The smoke test's checks on one result.  In a traced run every
   per-layer metric of a layer the workload calls must be nonzero, so a
   span that no longer matches or a counter that is no longer read
   cannot pass as a silent 0. *)
let smoke_problems ~workload ~traced (r, trace_ok) =
  let names = List.map (fun m -> m.m_name) r.r_metrics in
  let tag = Printf.sprintf "%s%s" workload (if traced then " traced" else "") in
  List.filter_map
    (fun n -> if List.mem n names then None else Some (tag ^ ": missing metric " ^ n))
    (expected_names traced)
  @ List.filter_map
      (fun m ->
        if traced && m.m_value = 0.0 && List.mem m.m_name (Report.nonzero workload) then
          Some (tag ^ ": " ^ m.m_name ^ " is 0")
        else None)
      r.r_metrics
  @ List.map (fun p -> tag ^ ": " ^ p) r.r_problems
  @ List.filter_map
      (fun m -> if m.m_unit = "" then Some (tag ^ ": no unit on " ^ m.m_name) else None)
      r.r_metrics
  @ (if r.r_failed > 0 then [ Printf.sprintf "%s: %d oracle failures" tag r.r_failed ] else [])
  @ if trace_ok then [] else [ tag ^ ": trace rejected" ]

(* Every workload, each in its own process so that none inherits
   another's heap or peak memory; their reports in turn, then one result
   line with the metrics prefixed by workload. *)
let run_all ~args =
  let module Json = Psc.Trace.Json in
  let num j k = match Json.member k j with Some (Json.Num f) -> f | _ -> 0.0 in
  let results =
    List.map
      (fun w ->
        let _, out = run_capture Sys.executable_name ("--workload" :: w :: args) in
        let lines = String.split_on_char '\n' (String.trim out) in
        let rec split = function
          | [] -> ([], "")
          | [ last ] -> ([], last)
          | l :: rest ->
            let body, last = split rest in
            (l :: body, last)
        in
        let body, last = split lines in
        List.iter print_endline body;
        match Json.parse last with
        | j -> (w, j)
        | exception Json.Parse_error _ -> failwith (w ^ ": no result line"))
      workloads
  in
  let metrics =
    List.concat_map
      (fun (w, j) ->
        match Json.member "metrics" j with
        | Some (Json.Obj ms) ->
          List.map
            (fun (name, m) ->
              let unit_ = match Json.member "unit" m with Some (Json.Str u) -> u | _ -> "" in
              metric (w ^ "." ^ name) unit_ (num m "value"))
            ms
        | _ -> [])
      results
  in
  let total k = List.fold_left (fun a (_, j) -> a + int_of_float (num j k)) 0 results in
  let correct = List.for_all (fun (_, j) -> Json.member "correct" j = Some (Json.Bool true)) results in
  print_endline
    (Report.result_line ~correct ~attempted:(total "attempted") ~failed:(total "failed") metrics)

let main () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let smoke = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "kernels|compile|serve|all");
      ("--seed", Arg.Set_int seed, "N  seed of every generated input (default 1)");
      ("--seconds", Arg.Set_float seconds, "S  measuring time per run (default 10)");
      ("--trace", Arg.Set_int trace, "0|1  per-layer traced run instead of end-to-end");
      ("--smoke", Arg.Set smoke, "  short run of every workload, traced and untraced; exit 1 on any problem") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W [--seed N] [--seconds S] [--trace 0|1] [--smoke]";
  let host () =
    Printf.printf "host: nproc=%d pool=%d ocaml=%s cc=%S seed=%d calib_start_s=%.4f calib_end_s=%.4f\n"
      nproc nproc Sys.ocaml_version (Lazy.force cc_version) !seed calib0 (calibrate ())
  in
  if !smoke then begin
    let problems =
      catalogue_problems ()
      @ List.concat_map
        (fun w ->
          List.concat_map
            (fun traced ->
              smoke_problems ~workload:w ~traced
                (one ~smoke:true ~seed:!seed ~seconds:0.5 ~traced w))
            [ false; true ])
        workloads
    in
    host ();
    List.iter (Printf.printf "SMOKE: %s\n") problems;
    Printf.printf "smoke: %s\n" (if problems = [] then "ok" else "FAILED");
    exit (if problems = [] then 0 else 1)
  end;
  let traced = !trace = 1 in
  if not ((!workload = "all" || List.mem !workload workloads) && (!trace = 0 || traced)) then begin
    prerr_endline "main.exe: --workload must be kernels, compile, serve or all; --trace 0 or 1";
    exit 2
  end;
  if !workload = "all" then
    run_all ~args:[ "--seed"; string_of_int !seed; "--seconds"; string_of_float !seconds;
                    "--trace"; string_of_int !trace ]
  else begin
    let r, trace_ok = one ~smoke:false ~seed:!seed ~seconds:!seconds ~traced !workload in
    host ();
    print_endline
      (Report.result_line ~correct:(r.r_failed = 0 && trace_ok) ~attempted:r.r_attempted
         ~failed:r.r_failed r.r_metrics)
  end

(* A failure outside the measured operations (a figure that no longer
   matches, a cc that fails, a server that does not start) ends the run
   without a result line. *)
let () =
  Printexc.register_printer (function Layers.Failed m -> Some m | _ -> None);
  try main () with
  | e ->
    prerr_endline ("perfbench: " ^ Printexc.to_string e);
    exit 1
