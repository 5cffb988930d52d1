(* The compile workload: compile-bound, no execution.  Every program of a
   seeded corpus goes through the full pipeline `psc lint` and
   `psc emit-c` run (Layers.compile); all of its time is in the compiler
   layers and none in interp, runtime or server, so a pass optimisation
   shows here and should show no change on kernels.

   The corpus is examples/ps/*.ps, the Ps_models sources, seeded
   Ps_fuzz.Gen programs (about 400 B each), and generated programs
   concatenated into multi-module programs of several sizes, so that
   program size varies. *)

open Common

type state = { st_corpus : (string * string) array (* label, source *) }

(* The models the C back end can express: two_module (module calls) and
   particles (records) are refused by `psc emit-c`, so they are left out. *)
let models =
  let open Ps_models.Models in
  [ ("jacobi", jacobi); ("seidel", seidel); ("heat1d", heat1d); ("matmul", matmul);
    ("binomial", binomial); ("prefix_sum", prefix_sum); ("classify", classify); ("lcs", lcs);
    ("skewed", skewed); ("strided_copy", strided_copy); ("param_recurrence", param_recurrence) ]

let examples_dir = Filename.concat "examples" "ps"

let examples () =
  Sys.readdir examples_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".ps")
  |> List.sort compare
  |> List.map (fun f -> ("examples/" ^ f, read_file (Filename.concat examples_dir f)))

let generated seed i = Ps_fuzz.Gen.render (Ps_fuzz.Gen.generate (Ps_fuzz.Gen.Rng.split seed i))

(* Generated modules are all named Fz; give each its own name. *)
let renamed k src =
  let name = Printf.sprintf "Fz%d" k in
  src
  |> replace_all ~sub:"Fz: module" ~by:(name ^ ": module")
  |> replace_all ~sub:"end Fz;" ~by:("end " ^ name ^ ";")

let setup ~smoke ~seed =
  let singles = if smoke then 8 else 800 in
  let multi =
    if smoke then [ 2; 4 ] else List.concat_map (fun k -> [ k; k; k; k ]) [ 2; 4; 8; 16 ]
  in
  let gen = List.init singles (fun i -> (Printf.sprintf "gen%d" i, generated seed i)) in
  let next = ref singles in
  let multis =
    List.mapi
      (fun j k ->
        let src =
          String.concat "\n"
            (List.init k (fun m ->
                 let i = !next in
                 incr next;
                 renamed m (generated seed i)))
        in
        (Printf.sprintf "multi%d_x%d" j k, src))
      multi
  in
  { st_corpus = Array.of_list (examples () @ models @ gen @ multis) }

type samples = { mutable s_untraced : float list; mutable s_traced : float list }

let measure st ~fl ~seed ~seconds ~traced samples =
  let rng = Ps_fuzz.Gen.Rng.create seed in
  let attempted = ref 0 in
  let deadline = now () +. seconds in
  let pass = ref 0 in
  (* Whole passes over the corpus, in a fresh seeded order each pass. *)
  while !pass < 1 || now () < deadline do
    List.iter
      (fun (label, src) ->
        let tr = traced && !attempted mod 2 = 0 in
        Span.set_enabled tr;
        let op = Printf.sprintf "%s#%d" label !attempted in
        incr attempted;
        match time (fun () -> Span.with_ ~op "op" (fun () -> Layers.compile ~op src)) with
        | _, dt ->
          if tr then samples.s_traced <- dt :: samples.s_traced
          else samples.s_untraced <- dt :: samples.s_untraced
        | exception e -> fail fl "%s: %s" label (Printexc.to_string e))
      (shuffle rng (Array.to_list st.st_corpus));
    incr pass
  done;
  Span.set_enabled false;
  !attempted

let report samples =
  let xs = samples.s_untraced in
  let n = List.length xs in
  let ms q = 1000.0 *. quantile q xs in
  ( [ metric ~n "p50_ms" "ms" (ms 0.5);
      metric ~n "ops_per_s" "1/s" (float_of_int n /. sum xs);
      metric ~n "aux_ms" "ms" (ms 0.9) ],
    [ metric ~n "compile_p50_ms" "ms" (ms 0.5); metric ~n "compile_p90_ms" "ms" (ms 0.9);
      metric ~n "compile_p99_ms" "ms" (ms 0.99) ] )

let layer_values samples =
  [ ( "trace.overhead_pct",
      100.0 *. ((median samples.s_traced /. median samples.s_untraced) -. 1.0) ) ]
