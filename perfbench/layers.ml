(* The compile pipeline as calls into each layer's public functions, each
   wrapped in a span named after its layer.  The sequence is the one the
   Psc facade runs (load_string, schedule, hyperplane, verify, lint,
   emit_c), unrolled so the traced run can time every layer separately;
   with tracing off each wrapper is one atomic load. *)

exception Failed of string

let failf fmt = Printf.ksprintf (fun s -> raise (Failed s)) fmt

(* lang + sem: a project from source text, as Psc.load_string. *)
let load ~op src : Psc.t =
  Span.count ~op "lang.src_bytes" (float_of_int (String.length src));
  let ast = Span.with_ ~op "lang.parse" (fun () -> Psc.Parser.program_of_string src) in
  let prog = Span.with_ ~op "sem.elab" (fun () -> Psc.Elab.elab_program ast) in
  let diagnostics =
    Span.with_ ~op "sem.sa_check" (fun () -> Psc.Sa_check.check_program prog)
  in
  (match Psc.Sa_check.errors diagnostics with
   | [] -> ()
   | e :: _ -> failf "%s" (Fmt.str "%a" Psc.Sa_check.pp_diagnostic e));
  { Psc.ast; prog; diagnostics }

type sched = {
  sc_graph : Psc.Dgraph.t;
  sc_flowchart : Psc.Flowchart.t;
  sc_windows : Psc.Schedule.window list;
}

(* graph + sched: Psc.schedule with the sink and trim passes. *)
let schedule ~op ?(sink = false) ?(trim = false) (em : Psc.Elab.emodule) =
  let g = Span.with_ ~op "graph.build" (fun () -> Psc.Build.build em) in
  Span.count ~op "graph.edges" (float_of_int (List.length (Psc.Dgraph.edges g)));
  let r =
    Span.with_ ~op "sched.schedule" (fun () -> Psc.Schedule.schedule_graph_of g)
  in
  let passes () =
    let fc, windows =
      if sink then
        let s = Psc.Sink.apply em r in
        (s.Psc.Sink.s_flowchart, s.Psc.Sink.s_windows)
      else (r.Psc.Schedule.r_flowchart, r.Psc.Schedule.r_windows)
    in
    ((if trim then fst (Psc.Trim.apply em fc) else fc), windows)
  in
  (* Only a schedule that runs a pass has a sched.passes span. *)
  let fc, windows =
    if sink || trim then Span.with_ ~op "sched.passes" passes else passes ()
  in
  Span.count ~op "sched.loops" (float_of_int (Psc.Flowchart.count_loops fc));
  Span.count ~op "sched.windows" (float_of_int (List.length windows));
  { sc_graph = g; sc_flowchart = fc; sc_windows = windows }

let is_error (d : Psc.Diag.t) =
  let id = Psc.Diag.code_id d.Psc.Diag.d_code in
  id <> "" && id.[0] = 'E'

(* check: translation validation of the schedule; any error fails. *)
let verify ~op s =
  let diags =
    Span.with_ ~op "check.verify" (fun () ->
        Psc.Verify.flowchart ~windows:s.sc_windows s.sc_graph s.sc_flowchart)
  in
  match List.filter is_error diags with
  | [] -> ()
  | d :: _ -> failf "verify: %s" (Psc.Diag.code_id d.Psc.Diag.d_code)

(* check: every lint of one module. *)
let lint ~op em =
  let diags = Span.with_ ~op "check.lint" (fun () -> Psc.Lint.module_ em) in
  Span.count ~op "check.diags" (float_of_int (List.length diags))

let emit ~op em s =
  let c =
    Span.with_ ~op "codegen.emit" (fun () ->
        Psc.Emit.emit_module ~windows:s.sc_windows em s.sc_flowchart)
  in
  Span.count ~op "codegen.c_bytes" (float_of_int (String.length c))

let emit_main ~op em s ~scalars =
  let c =
    Span.with_ ~op "codegen.emit" (fun () ->
        Psc.Emit.emit_main ~windows:s.sc_windows em s.sc_flowchart ~scalars)
  in
  Span.count ~op "codegen.c_bytes" (float_of_int (String.length c));
  c

(* hyper: the §4 transformation of [target], re-elaborated into the
   project as Psc.hyperplane does.  Raises on a target it rejects. *)
let hyperplane ~op (t : Psc.t) em ~target =
  let tr =
    Span.with_ ~op "hyper.transform" (fun () -> Psc.Transform.apply em ~target)
  in
  let ast = t.Psc.ast @ [ tr.Psc.Transform.tr_module ] in
  let prog = Span.with_ ~op "sem.elab" (fun () -> Psc.Elab.elab_program ast) in
  let diagnostics =
    Span.with_ ~op "sem.sa_check" (fun () -> Psc.Sa_check.check_program prog)
  in
  ({ Psc.ast; prog; diagnostics }, tr)

(* The fuzz oracle's hyper path: the transformed module of the first
   local array the transformation accepts, if any. *)
let try_hyperplane ~op (t : Psc.t) (em : Psc.Elab.emodule) =
  let targets =
    List.filter_map
      (fun (d : Psc.Elab.data) ->
        if Psc.Stypes.dims d.Psc.Elab.d_ty = [] then None else Some d.Psc.Elab.d_name)
      em.Psc.Elab.em_locals
  in
  let rec go = function
    | [] -> None
    | target :: rest -> (
      match hyperplane ~op t em ~target with
      | t', tr ->
        let name = tr.Psc.Transform.tr_module.Psc.Ast.m_name in
        Psc.Elab.find_module t'.Psc.prog name
      | exception
          ( Psc.Ineq.Not_applicable _ | Psc.Solve.No_schedule _
          | Psc.Elab.Error _ | Psc.Error _ ) ->
        go rest)
  in
  go targets

(* One program through the whole pipeline `psc lint` and `psc emit-c`
   run, module by module: schedule (sink + trim), verify, lint, emit;
   plus, where the hyperplane transformation applies, the transformed
   module scheduled, verified and emitted too.  A module the scheduler
   rejects must be rescued by the transformation. *)
let compile ~op src =
  let t = load ~op src in
  let applied = ref 0 in
  List.iter
    (fun (em : Psc.Elab.emodule) ->
      let scheduled =
        match schedule ~op ~sink:true ~trim:true em with
        | s ->
          verify ~op s;
          emit ~op em s;
          true
        | exception Psc.Schedule.Unschedulable _ -> false
      in
      lint ~op em;
      match try_hyperplane ~op t em with
      | Some em' ->
        incr applied;
        let s' = schedule ~op ~sink:true ~trim:true em' in
        verify ~op s';
        emit ~op em' s'
      | None ->
        if not scheduled then
          failf "module %s: unschedulable and no hyperplane target" em.Psc.Elab.em_name)
    t.Psc.prog.Psc.Elab.ep_modules;
  Span.count ~op "hyper.applied" (float_of_int !applied)
