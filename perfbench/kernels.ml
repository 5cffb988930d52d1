(* The kernels workload: interpreter-bound batch runs of the paper's
   programs, each three ways — sequential Psc.run, pooled Psc.run under
   the static cost model's per-nest table, and the emitted C compiled
   with cc -O2 (the roofline) — on the same scalars.

   Four shapes: jacobi (Fig. 6, a rectangular DOALL band under DO K),
   h3 (seidel after the §4 hyperplane transformation with sink and
   trim: a triangular wavefront), lcs (the transformed LCS, one
   varying-extent DOALL per diagonal) and grp (strided_copy,
   DOGROUP(2)).  A pool or collapse change shows on jacobi and grp, a
   wavefront change on h3 and lcs. *)

open Common

type spec = {
  sp_name : string;
  sp_src : string;
  sp_target : string option;  (* hyperplane target, if transformed *)
  sp_env : (string * int) list;
  sp_smoke_env : (string * int) list;
}

(* Sized so one sequential run takes roughly 0.2-0.5 s on a 2-core
   x86-64 host. *)
let specs =
  [ { sp_name = "jacobi"; sp_src = Ps_models.Models.jacobi; sp_target = None;
      sp_env = [ ("M", 128); ("maxK", 60) ]; sp_smoke_env = [ ("M", 24); ("maxK", 8) ] };
    { sp_name = "h3"; sp_src = Ps_models.Models.seidel; sp_target = Some "A";
      sp_env = [ ("M", 128); ("maxK", 40) ]; sp_smoke_env = [ ("M", 24); ("maxK", 8) ] };
    { sp_name = "lcs"; sp_src = Ps_models.Models.lcs; sp_target = Some "L";
      sp_env = [ ("N", 1300) ]; sp_smoke_env = [ ("N", 96) ] };
    { sp_name = "grp"; sp_src = Ps_models.Models.strided_copy; sp_target = None;
      sp_env = [ ("N", 2_000_000) ]; sp_smoke_env = [ ("N", 20_000) ] } ]

let fig6 =
  "DOALL I (DOALL J (eq.1)); DO K (DOALL I (DOALL J (eq.3))); DOALL I (DOALL J (eq.2))"

let fig7 =
  "DOALL I (DOALL J (eq.1)); DO K (DO I (DO J (eq.3))); DOALL I (DOALL J (eq.2))"

type prog = {
  k_name : string;
  k_t : Psc.t;
  k_module : string option;
  k_transformed : bool;
  k_inputs : (string * Psc.Value.value) list;
  k_policy : Psc.Policy.table;
  k_exe : string;
  k_work : float;  (* equation evaluations of one run *)
  mutable k_ref : (string * Psc.Value.value) list option;
  mutable k_words : int;
  (* samples, seconds: untraced and traced rounds apart *)
  mutable k_seq : float list;
  mutable k_par : float list;
  mutable k_c : float list;
  mutable k_seq_tr : float list;
  mutable k_par_tr : float list;
  mutable k_c_tr : float list;
}

type state = { st_progs : prog list; st_pool : Psc.Pool.t }

let run_cc ~op ~src ~exe =
  let c = exe ^ ".c" in
  write_file c src;
  let status, _ =
    Span.with_ ~op "codegen.cc" (fun () -> run_capture "cc" [ "-O2"; "-o"; exe; c; "-lm" ])
  in
  if status <> Unix.WEXITED 0 then Layers.failf "cc failed on %s" c

let setup ~smoke ~rep =
  let progs =
    List.map
      (fun sp ->
        let op = Printf.sprintf "setup%d.%s" rep sp.sp_name in
        Span.with_ ~op "setup" @@ fun () ->
        let env = if smoke then sp.sp_smoke_env else sp.sp_env in
        let t = Layers.load ~op sp.sp_src in
        let em0 = Psc.default_module t in
        let s0 = Layers.schedule ~op em0 in
        (* The paper's figures, checked before anything is timed. *)
        let fig = Psc.Flowchart.to_compact_string em0 s0.Layers.sc_flowchart in
        (match sp.sp_name with
         | "jacobi" when fig <> fig6 -> Layers.failf "Fig. 6 mismatch: %s" fig
         | "h3" when fig <> fig7 -> Layers.failf "Fig. 7 mismatch: %s" fig
         | _ -> ());
        let t, em, transformed =
          match sp.sp_target with
          | None -> (t, em0, false)
          | Some target ->
            let t', tr = Layers.hyperplane ~op t em0 ~target in
            Span.count ~op "hyper.applied" 1.0;
            (t', Psc.find_module t' tr.Psc.Transform.tr_module.Psc.Ast.m_name, true)
        in
        let s =
          if transformed then Layers.schedule ~op ~sink:true ~trim:true em else s0
        in
        Layers.verify ~op s;
        let name = if transformed then Some em.Psc.Elab.em_name else None in
        let policy =
          Span.with_ ~op "sched.policy" (fun () ->
              Psc.static_policy ?name ~sink:transformed ~trim:transformed ~cores:nproc t
                ~env)
        in
        let exe = work_file (Printf.sprintf "k%d_%s" rep sp.sp_name) in
        run_cc ~op ~src:(Layers.emit_main ~op em s ~scalars:env) ~exe;
        let work =
          Span.with_ ~op "sched.analysis" (fun () ->
              (Psc.work_span ?name ~sink:transformed ~trim:transformed t ~env)
                .Psc.Analysis.work)
        in
        let inputs =
          Span.with_ ~op "bench.inputs" (fun () -> Ps_fuzz.Diff.default_inputs em ~scalars:env)
        in
        { k_name = sp.sp_name; k_t = t; k_module = name; k_transformed = transformed;
          k_inputs = inputs;
          k_policy = policy; k_exe = exe; k_work = work; k_ref = None; k_words = 0;
          k_seq = []; k_par = []; k_c = []; k_seq_tr = []; k_par_tr = []; k_c_tr = [] })
      specs
  in
  { st_progs = progs; st_pool = Psc.Pool.create nproc }

let teardown st = Psc.Pool.shutdown st.st_pool

(* ------------------------------------------------------------------ *)
(* The oracle *)

let bits_equal (a : Psc.Value.value) (b : Psc.Value.value) =
  let open Psc.Value in
  match (a, b) with
  | Vscalar (Sc_real x), Vscalar (Sc_real y) -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Vscalar x, Vscalar y -> x = y
  | Varray x, Varray y -> (
    x.s_dims = y.s_dims
    &&
    match (x.s_data, y.s_data) with
    | PFloat p, PFloat q ->
      Array.length p = Array.length q
      &&
      let ok = ref true in
      Array.iteri
        (fun i v -> if not (Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float q.(i))) then ok := false)
        p;
      !ok
    | p, q -> p = q)
  | _ -> false

let check_outputs p ~what outs =
  match p.k_ref with
  | None -> None
  | Some reference ->
    if List.length reference <> List.length outs then Some "different result sets"
    else
      List.find_map
        (fun (name, v) ->
          match List.assoc_opt name outs with
          | Some v' when bits_equal v v' -> None
          | Some _ -> Some (Printf.sprintf "%s: %s output %s differs from sequential" p.k_name what name)
          | None -> Some (Printf.sprintf "%s: %s output %s missing" p.k_name what name))
        reference

(* Per-output checksums of the C binary within 1e-9 (relative) of the
   interpreter's, the rule of the fuzz oracle's C path. *)
let check_c p out =
  match p.k_ref with
  | None -> Some "no interpreter reference"
  | Some reference ->
    let sums =
      List.filter_map
        (fun l ->
          match String.split_on_char ' ' l with
          | [ n; v ] -> Option.map (fun f -> (n, f)) (float_of_string_opt v)
          | _ -> None)
        (String.split_on_char '\n' out)
    in
    if List.length sums <> List.length reference then
      Some (Printf.sprintf "%s: C printed %d checksums for %d outputs" p.k_name
              (List.length sums) (List.length reference))
    else
      List.find_map
        (fun (n, c) ->
          match List.assoc_opt n reference with
          | None -> Some (Printf.sprintf "%s: C output %s unknown" p.k_name n)
          | Some v ->
            let i = Ps_fuzz.Diff.checksum v in
            if c = i || abs_float (c -. i) <= 1e-9 *. Float.max 1.0 (Float.max (abs_float c) (abs_float i))
            then None
            else Some (Printf.sprintf "%s: C checksum of %s %.17g vs %.17g" p.k_name n c i))
        sums

(* ------------------------------------------------------------------ *)
(* Measurement *)

(* The emitted C runs a hundred times faster than the interpreter, so it
   runs [c_reps] times per round, for as many samples as a round of the
   interpreter takes. *)
let c_reps = 5

type mode = Seq | Par | C of int

let measure st ~fl ~seconds ~traced =
  let attempted = ref 0 in
  let pool = st.st_pool in
  let one p mode ~tr ~round =
    incr attempted;
    let label = match mode with Seq -> "seq" | Par -> "par" | C k -> Printf.sprintf "c%d" k in
    let op = Printf.sprintf "%s.%s.%d" p.k_name label round in
    let record dt =
      match (mode, tr) with
      | Seq, false -> p.k_seq <- dt :: p.k_seq
      | Seq, true -> p.k_seq_tr <- dt :: p.k_seq_tr
      | Par, false -> p.k_par <- dt :: p.k_par
      | Par, true -> p.k_par_tr <- dt :: p.k_par_tr
      | C _, false -> p.k_c <- dt :: p.k_c
      | C _, true -> p.k_c_tr <- dt :: p.k_c_tr
    in
    let interp ?pool ?policy name =
      (* Start every run from a collected heap, so its time and the
         peak memory do not depend on what ran before it. *)
      Gc.full_major ();
      let r, dt =
        time (fun () ->
            Span.with_ ~op name (fun () ->
                Psc.run ?name:p.k_module ~sink:p.k_transformed ~trim:p.k_transformed
                  ?pool ?policy p.k_t ~inputs:p.k_inputs))
      in
      record dt;
      r
    in
    match
      Span.with_ ~op "op" @@ fun () ->
      match mode with
      | Seq ->
        let r = interp ("interp.exec_seq." ^ p.k_name) in
        Span.with_ ~op "bench.check" @@ fun () ->
        (match p.k_ref with
         | None ->
           p.k_ref <- Some r.Psc.Exec.outputs;
           p.k_words <- List.fold_left (fun a (_, w) -> a + w) 0 r.Psc.Exec.allocated
         | Some _ -> ());
        check_outputs p ~what:"sequential" r.Psc.Exec.outputs
      | Par ->
        let r = interp ~pool ~policy:p.k_policy ("interp.exec_par." ^ p.k_name) in
        Span.with_ ~op "bench.check" (fun () -> check_outputs p ~what:"pooled" r.Psc.Exec.outputs)
      | C _ ->
        let (status, out), dt =
          time (fun () -> Span.with_ ~op ("c.exec." ^ p.k_name) (fun () -> run_capture p.k_exe []))
        in
        record dt;
        if status <> Unix.WEXITED 0 then Some (p.k_name ^ ": C binary failed")
        else Span.with_ ~op "bench.check" (fun () -> check_c p out)
    with
    | None -> ()
    | Some msg -> fail fl "%s" msg
    | exception e -> fail fl "%s %s: %s" p.k_name label (Printexc.to_string e)
  in
  if traced then Psc.Pool.reset_stats pool;
  let deadline = now () +. seconds in
  let round = ref 0 in
  (* Whole rounds only, at least two, so every program has a sample of
     each mode with tracing both on and off in a traced run. *)
  while !round < 2 || now () < deadline do
    let tr = traced && !round mod 2 = 0 in
    Span.set_enabled tr;
    Psc.Metrics.set_enabled tr;
    List.iter
      (fun p ->
        List.iter (fun m -> one p m ~tr ~round:!round) (Seq :: Par :: List.init c_reps (fun k -> C k)))
      st.st_progs;
    incr round
  done;
  Span.set_enabled false;
  Psc.Metrics.set_enabled false;
  !attempted

(* ------------------------------------------------------------------ *)
(* Metrics *)

let sum_medians f progs = sum (List.map (fun p -> median (f p)) progs)
let count f progs = List.fold_left (fun a p -> a + List.length (f p)) 0 progs

(* The end-to-end numbers of the untraced run, one declared metric per
   way of running: p50_ms is run_s (pooled) in milliseconds, ops_per_s
   is sequential runs per second at the median (the four programs over
   run_seq_s), and aux_ms is c_run_s (the emitted C) in milliseconds. *)
let report st =
  let ps = st.st_progs in
  let run_s = sum_medians (fun p -> p.k_par) ps in
  let run_seq_s = sum_medians (fun p -> p.k_seq) ps in
  let c_run_s = sum_medians (fun p -> p.k_c) ps in
  let n_par = count (fun p -> p.k_par) ps in
  let n_seq = count (fun p -> p.k_seq) ps in
  let n_c = count (fun p -> p.k_c) ps in
  ( [ metric ~n:n_par "p50_ms" "ms" (run_s *. 1000.0);
      metric ~n:n_seq "ops_per_s" "1/s" (float_of_int (List.length ps) /. run_seq_s);
      metric ~n:n_c "aux_ms" "ms" (c_run_s *. 1000.0) ],
    [ metric ~n:n_par "run_s" "s" run_s; metric ~n:n_seq "run_seq_s" "s" run_seq_s;
      metric ~n:n_c "c_run_s" "s" c_run_s ]
    (* each program in its own row *)
    @ List.concat_map
        (fun p ->
          let row what xs = metric ~n:(List.length xs) (what ^ "." ^ p.k_name) "s" (median xs) in
          [ row "run_s" p.k_par; row "run_seq_s" p.k_seq; row "c_run_s" p.k_c ])
        ps )

(* The kernels-only per-layer values of a traced run, from its traced
   rounds; trace.overhead_pct compares them with the untraced rounds of
   the same run. *)
let layer_values st =
  let ps = st.st_progs in
  let seq = sum_medians (fun p -> p.k_seq_tr) ps in
  let par = sum_medians (fun p -> p.k_par_tr) ps in
  let c = sum_medians (fun p -> p.k_c_tr) ps in
  let untraced = sum_medians (fun p -> p.k_seq) ps +. sum_medians (fun p -> p.k_par) ps in
  let sm = Psc.Pool.summary st.st_pool in
  let size = float_of_int (Psc.Pool.size st.st_pool) in
  (* Time inside the pool's parallel_for that no worker spent running
     chunks: the runtime's own share, carved out of the interp spans
     that enclose it. *)
  let pool_overhead_s =
    Float.max 0.0
      ((float_of_int sm.Psc.Pool.sm_elapsed_ns -. (float_of_int sm.Psc.Pool.sm_busy_ns /. size))
      /. 1e9)
  in
  Span.move_self ~from:"interp" ~to_:"runtime" pool_overhead_s;
  List.concat_map
    (fun p ->
      [ ("interp.exec_seq_s." ^ p.k_name, median p.k_seq_tr);
        ("interp.exec_par_s." ^ p.k_name, median p.k_par_tr);
        ("c.exec_s." ^ p.k_name, median p.k_c_tr) ])
    ps
  @ [ ("interp.evals_per_s", sum (List.map (fun p -> p.k_work) ps) /. seq);
      ("interp.words", float_of_int (List.fold_left (fun a p -> a + p.k_words) 0 ps));
      ("interp.c_gap", seq /. c);
      ("runtime.speedup", seq /. par);
      ("runtime.utilization", sm.Psc.Pool.sm_utilization);
      ("runtime.imbalance", sm.Psc.Pool.sm_imbalance);
      ( "runtime.steal_ratio",
        if sm.Psc.Pool.sm_steal_attempts = 0 then 0.0
        else float_of_int sm.Psc.Pool.sm_steals /. float_of_int sm.Psc.Pool.sm_steal_attempts );
      ("trace.overhead_pct", 100.0 *. (((seq +. par) /. untraced) -. 1.0)) ]
