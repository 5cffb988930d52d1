(* Shared helpers for the test suites. *)

let load = Psc.load_string

let first t = Psc.default_module t

(* Schedule a source string and return the compact flowchart. *)
let compact_schedule ?(sink = false) src =
  let t = load src in
  let em = first t in
  let sc = Psc.schedule ~sink em in
  Psc.Flowchart.to_compact_string em sc.Psc.sc_flowchart

let windows_of ?(sink = false) src =
  let t = load src in
  let sc = Psc.schedule ~sink (first t) in
  List.map
    (fun (w : Psc.Schedule.window) ->
      (w.Psc.Schedule.w_data, w.Psc.Schedule.w_dim, w.Psc.Schedule.w_size))
    sc.Psc.sc_windows

(* Run a module and return the outputs; [preset] names the policy (a
   {!Psc.Policy.preset_names} entry), built for the run's own passes. *)
let run ?pool ?sink ?fuse ?trim ?preset ?use_windows ?stats ?name src inputs =
  let t = load src in
  let policy =
    Option.map (Psc.named_policy ?name ?sink ?fuse ?trim t ~env:[]) preset
  in
  Psc.run ?pool ?sink ?fuse ?trim ?policy ?use_windows ?stats ?name t ~inputs

(* A table with every entry's stealing switched off: fixed chunks on a
   single queue, whatever else the entries decide. *)
let fixed_chunks (tp : Psc.Policy.table) =
  { tp with
    Psc.Policy.t_entries =
      List.map
        (fun (k, d) -> (k, { d with Psc.Policy.d_steal = false }))
        tp.Psc.Policy.t_entries }

let output_real r name idx =
  Psc.Exec.read_real (List.assoc name r.Psc.Exec.outputs) idx

let output_int r name idx =
  Psc.Exec.read_int (List.assoc name r.Psc.Exec.outputs) idx

(* Maximum absolute difference between two real array outputs over the
   given index box (inclusive bounds per dimension). *)
let max_diff out1 out2 (box : (int * int) list) =
  let n = List.length box in
  let idx = Array.make n 0 in
  let worst = ref 0.0 in
  let rec go p =
    if p = n then begin
      let d =
        abs_float (Psc.Exec.read_real out1 idx -. Psc.Exec.read_real out2 idx)
      in
      if d > !worst then worst := d
    end
    else
      let lo, hi = List.nth box p in
      for v = lo to hi do
        idx.(p) <- v;
        go (p + 1)
      done
  in
  go 0;
  !worst

let checksum out (box : (int * int) list) =
  let n = List.length box in
  let idx = Array.make n 0 in
  let acc = ref 0.0 in
  let rec go p =
    if p = n then acc := !acc +. Psc.Exec.read_real out idx
    else
      let lo, hi = List.nth box p in
      for v = lo to hi do
        idx.(p) <- v;
        go (p + 1)
      done
  in
  go 0;
  !acc

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* Assert that [f ()] raises a [Psc.Error] whose message contains
   [substring]. *)
let expect_error ?(substring = "") f =
  match f () with
  | exception Psc.Error m ->
    if substring <> "" && not (contains m substring) then
      Alcotest.failf "error %S does not mention %S" m substring
  | _ -> Alcotest.fail "expected Psc.Error"

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let check_string = Alcotest.(check string)

let checkf ?(eps = 1e-12) msg a b =
  if abs_float (a -. b) > eps then Alcotest.failf "%s: %.17g <> %.17g" msg a b
