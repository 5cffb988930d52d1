(* Bench-side spans for the traced run.

   Every call into a library layer that the benchmark makes goes through
   [with_]; while tracing is on it records a span (name, start, end,
   parent, and the id of the operation — program or request — it
   belongs to).  Spans nest per thread.  Aggregates are folded as spans
   close, so a long run needs no more memory than its first
   [keep_ops] operations' spans, which are the ones written to the
   Chrome trace file.

   A span's layer is the prefix of its name before the first dot
   ("lang.parse" is layer lang).  Self time is a span's duration minus
   the time its child spans cover; the self time of the root spans
   ("op", "setup") is the benchmark's own glue: the unattributed time. *)

let on = Atomic.make false

let set_enabled b = Atomic.set on b

let enabled () = Atomic.get on

type span = {
  s_id : int;
  s_parent : int;
  s_name : string;
  s_op : string;
  s_tid : int;
  s_t0 : float;
  mutable s_t1 : float;
  mutable s_child : float;  (* seconds covered by child spans *)
}

let mu = Mutex.create ()
let next_id = ref 0
let t_start = ref (Unix.gettimeofday ())
let stacks : (int, span list) Hashtbl.t = Hashtbl.create 8

(* Written to the trace file: the spans of the first [keep_ops] ops. *)
let keep_ops = 400
let kept : span list ref = ref []
let kept_ops : (string, unit) Hashtbl.t = Hashtbl.create 64

(* Self seconds per layer, and per (op, span name) inclusive seconds. *)
let self_by_layer : (string, float) Hashtbl.t = Hashtbl.create 16
let per_op : (string * string, float) Hashtbl.t = Hashtbl.create 1024

(* Per-op counts recorded beside the spans (edges, loops, C bytes...). *)
let counts : (string * string, float) Hashtbl.t = Hashtbl.create 256

let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let reset () =
  Mutex.protect mu (fun () ->
      next_id := 0;
      t_start := Unix.gettimeofday ();
      Hashtbl.reset stacks;
      kept := [];
      Hashtbl.reset kept_ops;
      Hashtbl.reset self_by_layer;
      Hashtbl.reset per_op;
      Hashtbl.reset counts)

let add tbl k v =
  Hashtbl.replace tbl k (v +. Option.value (Hashtbl.find_opt tbl k) ~default:0.0)

let count ~op name v = if enabled () then Mutex.protect mu (fun () -> add counts (op, name) v)

(* [trace] overrides the global flag for one call, for threads that
   trace some of their operations and not others. *)
let with_ ?(trace = enabled ()) ~op name f =
  if not trace then f ()
  else begin
    let tid = Thread.id (Thread.self ()) in
    let sp =
      Mutex.protect mu (fun () ->
          incr next_id;
          let stack = Option.value (Hashtbl.find_opt stacks tid) ~default:[] in
          let parent = match stack with p :: _ -> p.s_id | [] -> 0 in
          let sp =
            { s_id = !next_id; s_parent = parent; s_name = name; s_op = op;
              s_tid = tid; s_t0 = Unix.gettimeofday (); s_t1 = 0.0; s_child = 0.0 }
          in
          Hashtbl.replace stacks tid (sp :: stack);
          sp)
    in
    let close () =
      let t1 = Unix.gettimeofday () in
      Mutex.protect mu (fun () ->
          sp.s_t1 <- t1;
          let dur = t1 -. sp.s_t0 in
          (match Hashtbl.find_opt stacks tid with
           | Some (_ :: (parent :: _ as rest)) ->
             parent.s_child <- parent.s_child +. dur;
             Hashtbl.replace stacks tid rest
           | Some _ | None -> Hashtbl.remove stacks tid);
          add self_by_layer (layer_of name) (dur -. sp.s_child);
          add per_op (op, name) dur;
          if Hashtbl.mem kept_ops op || Hashtbl.length kept_ops < keep_ops then begin
            Hashtbl.replace kept_ops op ();
            kept := sp :: !kept
          end)
    in
    Fun.protect ~finally:close f
  end

(* ------------------------------------------------------------------ *)
(* Aggregates *)

(* Per-op totals of span [name] (or count [name]), over the ops that
   recorded it. *)
let op_values tbl name =
  Hashtbl.fold (fun (_, n) v acc -> if n = name then v :: acc else acc) tbl []

let op_times name = op_values per_op name
let op_counts name = op_values counts name

let self_seconds layer = Option.value (Hashtbl.find_opt self_by_layer layer) ~default:0.0

let total_self () = Hashtbl.fold (fun _ v acc -> acc +. v) self_by_layer 0.0

(* The root spans' self time: what no layer span covers. *)
let root_layers = [ "op"; "setup" ]

let unattributed_seconds () = Common.sum (List.map self_seconds root_layers)

(* Re-attribute [secs] of self time between layers, for work a layer
   does inside another's span that only a counter can measure. *)
let move_self ~from ~to_ secs =
  Mutex.protect mu (fun () ->
      add self_by_layer from (-.secs);
      add self_by_layer to_ secs)

(* ------------------------------------------------------------------ *)
(* Chrome trace export *)

(* Spans as Begin/End events, one thread at a time: spans in id (start)
   order, closing every open span that is not the next one's parent
   before opening it.  Timestamps are clamped monotone per thread. *)
let events () =
  let pid = Unix.getpid () in
  let spans = Mutex.protect mu (fun () -> !kept) in
  let tids = List.sort_uniq compare (List.map (fun sp -> sp.s_tid) spans) in
  List.concat_map
    (fun tid ->
      let mine =
        List.filter (fun sp -> sp.s_tid = tid) spans
        |> List.sort (fun a b -> compare a.s_id b.s_id)
      in
      let out = ref [] and last = ref 0.0 and stack = ref [] in
      let ev sp ph t args =
        let ts = Float.max !last ((t -. !t_start) *. 1e6) in
        last := ts;
        out :=
          { Psc.Trace.ev_name = sp.s_name; ev_ph = ph; ev_ts = ts; ev_pid = pid;
            ev_tid = tid; ev_args = args }
          :: !out
      in
      let close_until parent =
        let rec go () =
          match !stack with
          | top :: rest when top.s_id <> parent ->
            ev top Psc.Trace.End top.s_t1 [];
            stack := rest;
            go ()
          | _ -> ()
        in
        go ()
      in
      List.iter
        (fun sp ->
          close_until sp.s_parent;
          ev sp Psc.Trace.Begin sp.s_t0
            [ ("sid", Printf.sprintf "%d.%d" pid sp.s_id);
              ("parent", Printf.sprintf "%d.%d" pid sp.s_parent);
              ("op", sp.s_op) ];
          stack := sp :: !stack)
        mine;
      close_until (-1);
      List.rev !out)
    tids

let write path = Psc.Trace.write_events ~epoch_us:(!t_start *. 1e6) path (events ())
