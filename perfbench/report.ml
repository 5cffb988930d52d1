(* The metric catalogue and the result line.

   [end_to_end] and [per_layer] list every declared metric with its
   unit, in the order BENCHMARK.json gives them; a run prints exactly
   one of the two sets as the "metrics" of its last stdout line. *)

open Common

let end_to_end =
  [ ("setup_s", "s"); ("p50_ms", "ms"); ("ops_per_s", "1/s"); ("aux_ms", "ms"); ("peak_rss_mb", "MB") ]

let kernels = List.map (fun sp -> sp.Kernels.sp_name) Kernels.specs

(* Self time per layer, as a share of all traced time. *)
let self_layers =
  [ "lang"; "sem"; "graph"; "sched"; "hyper"; "check"; "codegen"; "interp"; "runtime"; "c";
    "server"; "bench" ]

let per_layer =
  [ ("lang.parse_ms", "ms"); ("lang.src_kb_per_s", "kB/s"); ("sem.elab_ms", "ms");
    ("sem.sa_check_ms", "ms"); ("graph.build_ms", "ms"); ("graph.edges", "count");
    ("sched.schedule_ms", "ms"); ("sched.passes_ms", "ms"); ("sched.loops", "count");
    ("sched.windows", "count"); ("sched.policy_ms", "ms"); ("hyper.transform_ms", "ms");
    ("hyper.applied", "count"); ("check.verify_ms", "ms"); ("check.lint_ms", "ms");
    ("check.diags", "count"); ("codegen.emit_ms", "ms"); ("codegen.c_kb", "kB");
    ("codegen.cc_s", "s") ]
  @ List.map (fun k -> ("interp.exec_seq_s." ^ k, "s")) kernels
  @ List.map (fun k -> ("interp.exec_par_s." ^ k, "s")) kernels
  @ [ ("interp.evals_per_s", "1/s"); ("interp.words", "count"); ("interp.c_gap", "x");
      ("runtime.speedup", "x"); ("runtime.utilization", "ratio"); ("runtime.imbalance", "ratio");
      ("runtime.steal_ratio", "ratio") ]
  @ List.map (fun k -> ("c.exec_s." ^ k, "s")) kernels
  @ [ ("proto.decode_us", "us"); ("proto.encode_us", "us"); ("serve.hit_p50_ms", "ms");
      ("serve.miss_p50_ms", "ms"); ("serve.lint_p50_ms", "ms"); ("serve.run_p50_ms", "ms");
      ("serve.error_p50_ms", "ms"); ("serve.queue_p99_ms", "ms"); ("serve.handler_p50_ms", "ms");
      ("serve.handler_p99_ms", "ms"); ("serve.transport_p50_ms", "ms");
      ("cache.hit_ratio", "ratio"); ("cache.evictions", "count"); ("serve.shed", "count");
      ("serve.inflight_peak", "count"); ("serve.gen_lag_p99_ms", "ms") ]
  @ List.map (fun l -> ("self_pct." ^ l, "%")) self_layers
  @ [ ("trace.overhead_pct", "%"); ("trace.unattributed_pct", "%"); ("host.calib_s", "s") ]

(* The per-layer metrics the spans give, as per-op medians (times) or
   per-op means (counts) over the ops that called the layer. *)
let from_spans () =
  let ms name = 1000.0 *. median (Span.op_times name) in
  let per_op name = mean (Span.op_counts name) in
  let total = Span.total_self () in
  let pct s = if total > 0.0 then 100.0 *. s /. total else 0.0 in
  [ ("lang.parse_ms", ms "lang.parse");
    ( "lang.src_kb_per_s",
      let t = sum (Span.op_times "lang.parse") in
      if t > 0.0 then sum (Span.op_counts "lang.src_bytes") /. 1024.0 /. t else 0.0 );
    ("sem.elab_ms", ms "sem.elab"); ("sem.sa_check_ms", ms "sem.sa_check");
    ("graph.build_ms", ms "graph.build"); ("graph.edges", per_op "graph.edges");
    ("sched.schedule_ms", ms "sched.schedule"); ("sched.passes_ms", ms "sched.passes");
    ("sched.loops", per_op "sched.loops"); ("sched.windows", per_op "sched.windows");
    ("sched.policy_ms", ms "sched.policy"); ("hyper.transform_ms", ms "hyper.transform");
    ("hyper.applied", per_op "hyper.applied"); ("check.verify_ms", ms "check.verify");
    ("check.lint_ms", ms "check.lint"); ("check.diags", per_op "check.diags");
    ("codegen.emit_ms", ms "codegen.emit");
    ("codegen.c_kb", per_op "codegen.c_bytes" /. 1024.0);
    ("codegen.cc_s", median (Span.op_times "codegen.cc"));
    ("trace.unattributed_pct", pct (Span.unattributed_seconds ())) ]
  @ List.map (fun l -> ("self_pct." ^ l, pct (Span.self_seconds l))) self_layers

(* Every per-layer metric, in catalogue order: workload values first,
   then span-derived ones; a layer the workload never calls reads 0.  A
   non-finite value is reported as 0 and named in the problems. *)
let layer_metrics extra =
  let spans = from_spans () in
  let problems = ref [] in
  let metrics =
    List.map
      (fun (name, unit_) ->
        let v =
          match List.assoc_opt name extra with
          | Some v -> v
          | None -> Option.value (List.assoc_opt name spans) ~default:0.0
        in
        if Float.is_finite v then metric name unit_ v
        else (
          problems := Printf.sprintf "%s is %g" name v :: !problems;
          metric name unit_ 0.0))
      per_layer
  in
  (metrics, List.rev !problems)

(* The per-layer metrics that must be nonzero in a traced run of each
   workload: the ones of the layers that workload calls (README.md,
   "Where each layer does work").  Counts that may rightly be 0 (lint
   diagnostics, steals, evictions in a short run, sheds) are not
   listed. *)
let nonzero workload =
  let all_kernels prefix = List.map (fun k -> prefix ^ k) kernels in
  let front =
    [ "lang.parse_ms"; "lang.src_kb_per_s"; "sem.elab_ms"; "sem.sa_check_ms"; "graph.build_ms";
      "graph.edges"; "sched.schedule_ms"; "sched.passes_ms"; "sched.loops"; "hyper.transform_ms";
      "hyper.applied"; "check.verify_ms"; "codegen.emit_ms"; "codegen.c_kb";
      "self_pct.lang"; "self_pct.sem"; "self_pct.graph"; "self_pct.sched"; "self_pct.hyper";
      "self_pct.check"; "self_pct.codegen" ]
  in
  let bench = [ "trace.unattributed_pct"; "host.calib_s" ] in
  match workload with
  | "kernels" ->
    front
    @ [ "sched.windows"; "sched.policy_ms"; "codegen.cc_s" ]
    @ all_kernels "interp.exec_seq_s." @ all_kernels "interp.exec_par_s."
    @ [ "interp.evals_per_s"; "interp.words"; "interp.c_gap"; "runtime.speedup";
        "runtime.utilization"; "self_pct.interp"; "self_pct.runtime"; "self_pct.c";
        "self_pct.bench" ]
    @ all_kernels "c.exec_s." @ bench
  | "compile" -> front @ [ "check.lint_ms" ] @ bench
  | "serve" ->
    [ "proto.decode_us"; "proto.encode_us"; "serve.hit_p50_ms"; "serve.miss_p50_ms";
      "serve.lint_p50_ms"; "serve.run_p50_ms"; "serve.error_p50_ms"; "serve.queue_p99_ms";
      "serve.handler_p50_ms"; "serve.handler_p99_ms"; "serve.transport_p50_ms";
      "cache.hit_ratio"; "serve.inflight_peak"; "serve.gen_lag_p99_ms"; "self_pct.server";
      "self_pct.bench" ]
    @ bench
  | _ -> []

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.m_name (json_number m.m_value)
              m.m_unit)
          metrics))

let print_table title metrics =
  Printf.printf "%s\n" title;
  List.iter
    (fun m -> Printf.printf "  %-28s %16.6g %-6s n=%d\n" m.m_name m.m_value m.m_unit m.m_n)
    metrics
