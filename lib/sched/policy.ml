(* Per-loop-nest scheduling policy (ROADMAP item 3).

   The scheduler proves legality — DO vs DOALL vs DOGROUP/DOINSPECT —
   and the verifier (E02x) checks it.  This module holds the orthogonal
   *shape* decision: for each parallelization point of a flowchart,
   whether the interpreter should fork at all, whether a marked DOALL
   band may be flattened, whether the forked job work-steals or deals
   fixed chunks, and optional per-job chunk / wake-threshold overrides.
   A policy can never change results, only how the iteration space is
   walked; that invariant is what lets a tuned table be cached and
   replayed as just another compile artifact. *)

type source = Static | Tuned

let source_name = function Static -> "static" | Tuned -> "tuned"

let source_of_name = function
  | "static" -> Some Static
  | "tuned" -> Some Tuned
  | _ -> None

type decision = {
  d_par : bool;       (* false: run the whole nest sequentially *)
  d_collapse : bool;  (* flatten the marked DOALL band under this head *)
  d_steal : bool;     (* work-stealing deal vs fixed contiguous chunks *)
  d_chunk_min : int option;  (* per-job floor on a claimed chunk *)
  d_chunk_max : int option;  (* per-job ceiling on a claimed chunk *)
  d_wake : int option;       (* per-job wake threshold override *)
  d_why : string;            (* one-line rationale, recorded in the trajectory *)
}

let sequential ~why =
  { d_par = false; d_collapse = false; d_steal = false; d_chunk_min = None;
    d_chunk_max = None; d_wake = None; d_why = why }

let parallel ?(steal = true) ?(collapse = false) ?chunk_min ?chunk_max ?wake
    ~why () =
  { d_par = true; d_collapse = collapse; d_steal = steal;
    d_chunk_min = chunk_min; d_chunk_max = chunk_max; d_wake = wake;
    d_why = why }

(* The decision of every nest a table does not name: fork, steal, keep
   the band nested. *)
let default = parallel ~why:"default" ()

type table = {
  t_source : source;
  t_host_cores : int;
      (* Core count the table was derived for/on: chunk and wake choices
         do not transfer across hosts, so a mismatch is staleness (W121). *)
  t_entries : (string * decision) list;
}

let empty = { t_source = Static; t_host_cores = 0; t_entries = [] }

(* --- nest keys ------------------------------------------------------ *)

(* A parallelization point is a parallel-kind loop the interpreter would
   actually fork: reachable from the top through DO loops and SOLVE
   bodies only.  Loops nested inside another parallel nest run inside
   the workers and are never fork candidates, so they carry no key.

   The key is the dot-joined path of binder variables from the root,
   with a "#n" ordinal when the same path occurs more than once (e.g.
   fig. 6 has three I.J nests).  The walk is deterministic, so the same
   flowchart yields the same keys at tune time and at run time. *)
let index (fc : Flowchart.t) : (Flowchart.loop * string) list =
  let acc = ref [] in
  let counts = Hashtbl.create 8 in
  let add l path =
    let base = String.concat "." (List.rev path) in
    let n = (try Hashtbl.find counts base with Not_found -> 0) + 1 in
    Hashtbl.replace counts base n;
    let key = if n = 1 then base else Printf.sprintf "%s#%d" base n in
    acc := (l, key) :: !acc
  in
  let rec go ~par path (d : Flowchart.descriptor) =
    match d with
    | Flowchart.D_data _ | Flowchart.D_eq _ -> ()
    | Flowchart.D_solve s ->
      List.iter (go ~par (s.Flowchart.sv_var :: path)) s.Flowchart.sv_body
    | Flowchart.D_loop l ->
      let path' = l.Flowchart.lp_var :: path in
      (match l.Flowchart.lp_kind with
      | Flowchart.Iterative ->
        List.iter (go ~par path') l.Flowchart.lp_body
      | Flowchart.Parallel | Flowchart.Grouped _ | Flowchart.Inspected _ ->
        if par then add l path';
        List.iter (go ~par:false path') l.Flowchart.lp_body)
  in
  List.iter (go ~par:true []) fc;
  List.rev !acc

let find (t : table) key = List.assoc_opt key t.t_entries

(* Pair each fork candidate of [fc] with its table entry; the loop
   records are physically those of [fc], so the interpreter can look
   decisions up by identity while compiling.  An empty table resolves
   without walking the flowchart: every module call compiles its callee
   under one. *)
let resolve (t : table) (fc : Flowchart.t) :
    (Flowchart.loop * decision) list =
  if t.t_entries = [] then []
  else
    List.filter_map
      (fun (l, key) ->
        match find t key with Some d -> Some (l, d) | None -> None)
      (index fc)

let stale (t : table) ~host_cores = t.t_host_cores <> host_cores

(* --- presets -------------------------------------------------------- *)

(* The hand-picked configurations, each one shape applied to every fork
   candidate.  Collapse is only asked for where a nest heads a band of
   two or more loops, so a preset table passes [validate].  Presets do
   not depend on the host: they record 0 cores. *)
let preset_names = [ "seq"; "fixed"; "steal"; "steal+collapse" ]

let preset name (fc : Flowchart.t) : table =
  let why = name ^ " preset" in
  let mk =
    match name with
    | "seq" -> fun _ -> sequential ~why
    | "fixed" -> fun _ -> parallel ~steal:false ~why ()
    | "steal" -> fun _ -> parallel ~why ()
    | "steal+collapse" ->
      fun l -> parallel ~collapse:(List.length (Collapse.band l) >= 2) ~why ()
    | _ -> invalid_arg ("Policy.preset: unknown preset " ^ name)
  in
  { empty with t_entries = List.map (fun (l, key) -> (key, mk l)) (index fc) }

(* --- rendering ------------------------------------------------------ *)

let summary (d : decision) =
  if not d.d_par then "seq"
  else begin
    let b = Buffer.create 16 in
    Buffer.add_string b (if d.d_steal then "steal" else "fixed");
    if d.d_collapse then Buffer.add_string b "+collapse";
    (match d.d_chunk_min with
    | Some c -> Buffer.add_string b (Printf.sprintf ",chunk>=%d" c)
    | None -> ());
    (match d.d_chunk_max with
    | Some c -> Buffer.add_string b (Printf.sprintf ",chunk<=%d" c)
    | None -> ());
    (match d.d_wake with
    | Some w -> Buffer.add_string b (Printf.sprintf ",wake=%d" w)
    | None -> ());
    Buffer.contents b
  end

let table_summary (t : table) =
  Printf.sprintf "%s[%s]" (source_name t.t_source)
    (String.concat ";"
       (List.map (fun (k, d) -> k ^ "=" ^ summary d) t.t_entries))

(* --- wire / cache format -------------------------------------------- *)

(* One JSON object per table; schema field "policy":1.  This is both the
   compile-server artifact payload and the `psc tune` output. *)

let esc s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_json (t : table) =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "{\"policy\":1,\"source\":\"%s\",\"host_cores\":%d,\"nests\":["
       (source_name t.t_source) t.t_host_cores);
  List.iteri
    (fun i (key, d) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "{\"key\":\"%s\",\"par\":%b,\"collapse\":%b,\"steal\":%b"
           (esc key) d.d_par d.d_collapse d.d_steal);
      let opt name = function
        | Some v -> Buffer.add_string b (Printf.sprintf ",\"%s\":%d" name v)
        | None -> ()
      in
      opt "chunk_min" d.d_chunk_min;
      opt "chunk_max" d.d_chunk_max;
      opt "wake" d.d_wake;
      Buffer.add_string b (Printf.sprintf ",\"why\":\"%s\"}" (esc d.d_why)))
    t.t_entries;
  Buffer.add_string b "]}";
  Buffer.contents b

let of_json (s : string) : (table, string) result =
  let module J = Ps_obs.Trace.Json in
  let open struct
    exception Bad of string
  end in
  let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt in
  try
    let j =
      match J.parse s with
      | j -> j
      | exception J.Parse_error m -> bad "malformed JSON: %s" m
    in
    let mem name = J.member name j in
    (match mem "policy" with
    | Some (J.Num f) when int_of_float f = 1 -> ()
    | _ -> bad "missing or unsupported \"policy\" version");
    let source =
      match mem "source" with
      | Some (J.Str s) -> (
        match source_of_name s with
        | Some src -> src
        | None -> bad "unknown source %S" s)
      | _ -> bad "missing \"source\""
    in
    let host_cores =
      match mem "host_cores" with
      | Some (J.Num f) -> int_of_float f
      | _ -> bad "missing \"host_cores\""
    in
    let nests =
      match mem "nests" with
      | Some (J.Arr l) -> l
      | _ -> bad "missing \"nests\" array"
    in
    let entry n =
      let str name =
        match J.member name n with
        | Some (J.Str s) -> s
        | _ -> bad "nest entry missing string %S" name
      in
      let flag name =
        match J.member name n with
        | Some (J.Bool b) -> b
        | _ -> bad "nest entry missing bool %S" name
      in
      let opt name =
        match J.member name n with
        | Some (J.Num f) -> Some (int_of_float f)
        | _ -> None
      in
      let why = match J.member "why" n with Some (J.Str s) -> s | _ -> "" in
      ( str "key",
        { d_par = flag "par"; d_collapse = flag "collapse";
          d_steal = flag "steal"; d_chunk_min = opt "chunk_min";
          d_chunk_max = opt "chunk_max"; d_wake = opt "wake"; d_why = why } )
    in
    Ok { t_source = source; t_host_cores = host_cores;
         t_entries = List.map entry nests }
  with Bad m -> Error m

(* --- structural validation ------------------------------------------ *)

(* A table is well-formed for a flowchart when every entry names an
   existing fork candidate and collapse is only requested on a nest that
   heads a band.  Policies are advisory, so an ill-formed table is a
   caller error, not a legality problem — legality stays with the
   verifier regardless of what the policy asks for. *)
let validate (t : table) (fc : Flowchart.t) : string list =
  let keyed = List.map (fun (l, key) -> (key, l)) (index fc) in
  List.concat_map
    (fun (key, d) ->
      match List.assoc_opt key keyed with
      | None -> [ Printf.sprintf "policy entry %S matches no loop nest" key ]
      | Some l when d.d_collapse && List.length (Collapse.band l) < 2 ->
        [ Printf.sprintf
            "policy entry %S requests collapse on a nest with no DOALL band"
            key ]
      | Some _ ->
        let low =
          List.filter_map
            (fun c ->
              match c with
              | Some c when c < 1 ->
                Some
                  (Printf.sprintf "policy entry %S: chunk bound %d < 1" key c)
              | _ -> None)
            [ d.d_chunk_min; d.d_chunk_max ]
        in
        if low <> [] then low
        else
          match (d.d_chunk_min, d.d_chunk_max) with
          | Some lo, Some hi when lo > hi ->
            [ Printf.sprintf "policy entry %S: chunk_min %d > chunk_max %d" key
                lo hi ]
          | _ -> [])
    t.t_entries
