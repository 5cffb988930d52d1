(* The serve workload: a spawned `psc serve --socket` with its CLI
   defaults (4 workers, no pool, a 64-entry cache in 8 shards), driven
   by an editor-like request mix drawn from the seed.  It is the only
   workload that exercises Proto, the event core, the queue and the
   cache; hits and misses use the cache in opposite ways, so a gain on
   one that costs the other shows.

   Two phases run over the same mix: a closed loop with nproc
   connections (throughput), then an open loop at a fixed offered rate
   (latency, each request timed from when it was due). *)

open Common
module Proto = Ps_server.Proto
module Rng = Ps_fuzz.Gen.Rng

(* Offered rate of the open-loop phase, requests per second: a fifth to
   a half of the closed-loop throughput on a 2-core x86-64 host,
   depending on how busy the host is, so the queue stays short. *)
let open_rate = 300.0

(* The working set: small sources re-requested unchanged.  Its 24
   cache entries (schedule, compile and emit-c of each source) fit in
   the default 64-entry cache with room to spare, so a hit request stays
   a hit; the edited sources supply the eviction pressure. *)
let working_set =
  let open Ps_models.Models in
  [| jacobi; seidel; heat1d; matmul; binomial; prefix_sum; skewed; strided_copy |]

(* [run] requests: relaxation grids of M = 16..32, replies of tens of KB. *)
let run_sources = [| Ps_models.Models.jacobi; Ps_models.Models.seidel |]
let run_maxk = 8
let run_m_lo = 16
let run_m_hi = 32

type cls = Hit | Miss | Lint | Run | Error

let cls_name = function
  | Hit -> "hit" | Miss -> "miss" | Lint -> "lint" | Run -> "run" | Error -> "error"

let classes = [ Hit; Miss; Lint; Run; Error ]

(* Shares of the mix, in percent.  No recorded editor traffic exists to
   draw them from, so they are assumptions, chosen for what the
   benchmark has to measure:
   - hits, 45: the largest share, so the cache-read path carries most of
     the closed-loop throughput;
   - misses, 20: about 60/s in the open loop, enough to fill the room the
     working set leaves in the cache within a second, so the cache
     evicts for the rest of the run;
   - lint 10, run 15, errors 10: each at least a tenth, so the open loop
     gives every class hundreds of samples for its serve.<cls>_p50_ms;
     run gets more because its work varies fourfold with M. *)
let mix = [ (Hit, 45); (Miss, 20); (Lint, 10); (Run, 15); (Error, 10) ]

(* Replies the server must give, computed in-process with the same
   public calls its handlers make and rendered by Proto's own writer. *)
type expected = {
  ex_flowchart : string array;
  ex_modules : string array;
  ex_c : string array;
  ex_lint : string array;
  ex_run : (string * Psc.Value.value) list array array;  (* [source][M - lo] *)
  ex_run_json : string array array;
  ex_broken : string array array;  (* mid-edit sources that fail to parse *)
}

(* A mid-edit source: the text cut at a seeded point with a dangling
   operator, kept only if it really fails to load. *)
let broken_variants ~seed i src =
  let rng = Rng.split (seed + 7919) i in
  let n = String.length src in
  List.filter_map
    (fun _ ->
      let cut = Rng.range rng (n / 3) (n - 2) in
      let s = String.sub src 0 cut ^ " = = ;\n" ^ String.sub src cut (n - cut) in
      match Psc.load_string s with
      | _ -> None
      | exception Psc.Error _ -> Some s)
    (List.init 12 Fun.id)
  |> function
  | [] -> failwith "no mid-edit variant of a working-set source fails to parse"
  | l -> Array.of_list l

let expected ~seed =
  let project src = Psc.load_string src in
  let per_ws f = Array.map (fun src -> f src (project src)) working_set in
  let run_outputs =
    Array.map
      (fun src ->
        let t = project src in
        let em = Psc.default_module t in
        Array.init (run_m_hi - run_m_lo + 1) (fun k ->
            let scalars = [ ("M", run_m_lo + k); ("maxK", run_maxk) ] in
            (Psc.run t ~inputs:(Ps_fuzz.Diff.default_inputs em ~scalars)).Psc.Exec.outputs))
      run_sources
  in
  { ex_flowchart =
      per_ws (fun _ t ->
          Proto.jstr (Psc.flowchart_string (Psc.schedule (Psc.default_module t))));
    ex_modules = per_ws (fun _ t -> Proto.jarr (List.map Proto.jstr (Psc.modules t)));
    ex_c = per_ws (fun _ t -> Proto.jstr (Psc.emit_c t));
    ex_lint =
      per_ws (fun src _ ->
          Proto.jstr (Psc.Diag.summary (Psc.lint (Psc.load_string_lenient src))));
    ex_run = run_outputs;
    ex_run_json =
      Array.map (Array.map (fun outs -> Proto.jarr (List.map Proto.output_json outs))) run_outputs;
    ex_broken = Array.mapi (fun i src -> broken_variants ~seed i src) working_set }

(* ------------------------------------------------------------------ *)
(* Requests *)

type req = { rq_id : int; rq_cls : cls; rq_line : string; rq_check : string -> bool }

let ok_prefix id = Printf.sprintf "{\"id\":%d,\"ok\":true," id
let error_prefix id = Printf.sprintf "{\"id\":%d,\"ok\":false,\"error\":" id

(* Request [id] of the mix, a pure function of (seed, id): the order and
   content of requests do not depend on timing. *)
let make_request ex ~seed id =
  let rng = Rng.split seed id in
  let line op src extra =
    Proto.jobj
      ([ ("id", string_of_int id); ("op", Proto.jstr op); ("source", Proto.jstr src) ] @ extra)
  in
  let ok key value reply =
    String.starts_with ~prefix:(ok_prefix id) reply && has_member reply key value
  in
  let cached_op i src =
    match Rng.int rng 3 with
    | 0 -> (line "schedule" src [], ok "flowchart" ex.ex_flowchart.(i))
    | 1 -> (line "compile" src [], ok "modules" ex.ex_modules.(i))
    | _ -> (line "emit-c" src [], ok "c" ex.ex_c.(i))
  in
  let edited src = Printf.sprintf "(* edit %d.%d *)\n%s" seed id src in
  let i = Rng.int rng (Array.length working_set) in
  let cls =
    let rec pick roll = function
      | [ (c, _) ] -> c
      | (c, share) :: rest -> if roll < share then c else pick (roll - share) rest
      | [] -> assert false
    in
    pick (Rng.int rng 100) mix
  in
  let l, check =
    match cls with
    | Hit -> cached_op i working_set.(i)
    | Miss -> cached_op i (edited working_set.(i))
    | Lint -> (line "lint" (edited working_set.(i)) [], ok "summary" ex.ex_lint.(i))
    | Run ->
      let p = Rng.int rng (Array.length run_sources) in
      let m = Rng.range rng run_m_lo run_m_hi in
      ( line "run" run_sources.(p)
          [ ("scalars", Proto.jobj [ ("M", string_of_int m); ("maxK", string_of_int run_maxk) ]) ],
        ok "outputs" ex.ex_run_json.(p).(m - run_m_lo) )
    | Error ->
      let variants = ex.ex_broken.(i) in
      ( line "schedule" variants.(Rng.int rng (Array.length variants)) [],
        fun reply -> String.starts_with ~prefix:(error_prefix id) reply )
  in
  { rq_id = id; rq_cls = cls; rq_line = l; rq_check = check }

let reply_id reply =
  match find ~sub:"\"id\":" reply with
  | None -> None
  | Some i ->
    let j = ref (i + 5) in
    while !j < String.length reply && reply.[!j] >= '0' && reply.[!j] <= '9' do incr j done;
    int_of_string_opt (String.sub reply (i + 5) (!j - i - 5))

let is_shed reply = contains ~sub:"E033" reply

(* ------------------------------------------------------------------ *)
(* Connections *)

type conn = { c_fd : Unix.file_descr; c_ic : in_channel }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> Some { c_fd = fd; c_ic = Unix.in_channel_of_descr fd }
  | exception Unix.Unix_error _ ->
    Unix.close fd;
    None

let send c line =
  let s = line ^ "\n" in
  let n = String.length s in
  let rec go off = if off < n then go (off + Unix.write_substring c.c_fd s off (n - off)) in
  go 0

let close c = try Unix.close c.c_fd with Unix.Unix_error _ -> ()

let call c line =
  send c line;
  input_line c.c_ic

(* ------------------------------------------------------------------ *)
(* Server lifecycle *)

type server = { sv_pid : int; sv_path : string; sv_log : string option }

(* Servers not yet stopped, terminated at exit whatever the exit path. *)
let live : int list ref = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid))
        !live)

let spawn ~rep ~access_log =
  let path = work_file (Printf.sprintf "serve-%d-%d.sock" (Unix.getpid ()) rep) in
  (try Sys.remove path with Sys_error _ -> ());
  let log = if access_log then Some (work_file (Printf.sprintf "access-%d.log" (Unix.getpid ()))) else None in
  Option.iter (fun l -> try Sys.remove l with Sys_error _ -> ()) log;
  let exe = psc_exe () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let args =
    [ exe; "serve"; "--socket"; path ] @ match log with Some l -> [ "--access-log"; l ] | None -> []
  in
  let pid = Unix.create_process exe (Array.of_list args) devnull devnull devnull in
  Unix.close devnull;
  live := pid :: !live;
  let sv = { sv_pid = pid; sv_path = path; sv_log = log } in
  (* Ready when a connection is accepted. *)
  let rec wait tries =
    match connect path with
    | Some c -> c
    | None ->
      if tries = 0 then failwith "psc serve did not start";
      Thread.delay 0.0005;
      wait (tries - 1)
  in
  (sv, wait 20000)

let stop sv =
  (match connect sv.sv_path with
   | Some c ->
     (try ignore (call c "{\"id\":0,\"op\":\"shutdown\"}") with End_of_file | Sys_error _ -> ());
     close c
   | None -> ());
  ignore (Unix.waitpid [] sv.sv_pid);
  live := List.filter (( <> ) sv.sv_pid) !live;
  try Sys.remove sv.sv_path with Sys_error _ -> ()

type state = { st_server : server; st_ex : expected; st_seed : int }

(* Spawn to ready, then warm the cache with every hit request of the
   working set and one run per run source. *)
let setup ex ~seed ~rep ~traced =
  let sv, c = spawn ~rep ~access_log:traced in
  (match
     Fun.protect ~finally:(fun () -> close c) @@ fun () ->
      Array.iteri
        (fun i src ->
          List.iteri
            (fun j (op, key, value) ->
              let id = -((i * 10) + j + 1) in
              let l = Proto.jobj [ ("id", string_of_int id); ("op", Proto.jstr op); ("source", Proto.jstr src) ] in
              let reply = call c l in
              if not (has_member reply key value) then failwith ("warm-up " ^ op ^ " failed"))
            [ ("schedule", "flowchart", ex.ex_flowchart.(i)); ("compile", "modules", ex.ex_modules.(i));
              ("emit-c", "c", ex.ex_c.(i)) ])
        working_set;
      Array.iteri
        (fun p src ->
          let l =
            Proto.jobj
              [ ("id", string_of_int (-100 - p)); ("op", Proto.jstr "run"); ("source", Proto.jstr src);
                ("scalars", Proto.jobj [ ("M", string_of_int run_m_lo); ("maxK", string_of_int run_maxk) ]) ]
          in
          if not (has_member (call c l) "outputs" ex.ex_run_json.(p).(0)) then failwith "warm-up run failed")
        run_sources
   with
   | () -> ()
   | exception e ->
     stop sv;
     raise e);
  { st_server = sv; st_ex = ex; st_seed = seed }

let teardown st = stop st.st_server

(* ------------------------------------------------------------------ *)
(* Measurement *)

type sample = { sm_cls : cls; sm_lat : float; sm_id : int; sm_done : float }

type phases = {
  mutable closed_t0 : float;
  mutable closed_s : float;
  mutable open_t0 : float;
  mutable open_s : float;
  mutable closed : sample list;  (* send to reply, untraced requests *)
  mutable closed_tr : sample list;  (* the traced requests of a traced run *)
  mutable opened : sample list;  (* due time to reply *)
  mutable lags : float list;  (* generator lateness *)
  mutable rss_mb : float;
  mutable stats : string;
}

let next_id = Atomic.make 1

let judge fl r reply =
  if r.rq_check reply then true
  else begin
    if is_shed reply then fail fl "request %d (%s): shed (E033)" r.rq_id (cls_name r.rq_cls)
    else
      fail fl "request %d (%s): unexpected reply %s" r.rq_id (cls_name r.rq_cls)
        (if String.length reply > 160 then String.sub reply 0 160 ^ "..." else reply);
    false
  end

(* nproc connections, each sending its next request when the previous
   reply arrives.  In a traced run every other request is traced. *)
let closed_loop st ph ~fl ~seconds ~traced =
  let mu = Mutex.create () in
  let attempted = Atomic.make 0 in
  let deadline = now () +. seconds in
  let client () =
    match connect st.st_server.sv_path with
    | None -> fail fl "closed loop: connect failed"
    | Some c ->
      Fun.protect ~finally:(fun () -> close c) @@ fun () ->
      let continue = ref true in
      while !continue && now () < deadline do
        let id = Atomic.fetch_and_add next_id 1 in
        let r = make_request st.st_ex ~seed:st.st_seed id in
        let tr = traced && id mod 2 = 0 in
        let op = Printf.sprintf "req%d" id in
        Atomic.incr attempted;
        match
          Span.with_ ~trace:tr ~op "op" @@ fun () ->
          let reply, dt =
            time (fun () ->
                Span.with_ ~trace:tr ~op ("server." ^ cls_name r.rq_cls) (fun () -> call c r.rq_line))
          in
          (Span.with_ ~trace:tr ~op "bench.check" (fun () -> judge fl r reply), dt)
        with
        | true, dt ->
          let s = { sm_cls = r.rq_cls; sm_lat = dt; sm_id = id; sm_done = now () } in
          Mutex.protect mu (fun () ->
              if tr then ph.closed_tr <- s :: ph.closed_tr else ph.closed <- s :: ph.closed)
        | false, _ -> ()
        | exception (End_of_file | Sys_error _ | Unix.Unix_error _) ->
          fail fl "request %d: connection lost" id;
          continue := false
      done
  in
  ph.closed_t0 <- now ();
  ph.closed_s <- seconds;
  let threads = List.init nproc (fun _ -> Thread.create client ()) in
  List.iter Thread.join threads;
  Atomic.get attempted

(* Requests sent on a seeded Poisson schedule at [open_rate] over nproc
   pipelined connections, whatever the replies are doing; a reader per
   connection matches replies to requests by id. *)
let open_loop st ph ~fl ~seconds =
  let conns = Array.init nproc (fun _ -> connect st.st_server.sv_path) in
  if Array.exists Option.is_none conns then (fail fl "open loop: connect failed"; 0)
  else begin
    let conns = Array.map Option.get conns in
    let mu = Mutex.create () in
    let pending : (int, req * float) Hashtbl.t = Hashtbl.create 1024 in
    let reader c () =
      try
        while true do
          let reply = input_line c.c_ic in
          let t = now () in
          match reply_id reply with
          | None -> fail fl "open loop: reply without id"
          | Some id -> (
            match Mutex.protect mu (fun () ->
                let e = Hashtbl.find_opt pending id in
                Hashtbl.remove pending id;
                e) with
            | None -> fail fl "open loop: reply to unknown id %d" id
            | Some (r, due) ->
              if judge fl r reply then
                Mutex.protect mu (fun () ->
                    ph.opened <- { sm_cls = r.rq_cls; sm_lat = t -. due; sm_id = id; sm_done = t } :: ph.opened))
        done
      with End_of_file | Sys_error _ | Unix.Unix_error _ -> ()
    in
    let readers = Array.map (fun c -> Thread.create (reader c) ()) conns in
    let rng = Rng.create (st.st_seed + 104729) in
    let t0 = now () in
    ph.open_t0 <- t0;
    ph.open_s <- seconds;
    let stop_at = t0 +. seconds in
    let due = ref t0 and k = ref 0 in
    (try
       while !due < stop_at do
         let wait = !due -. now () in
         if wait > 0.0 then Thread.delay wait;
         let id = Atomic.fetch_and_add next_id 1 in
         let r = make_request st.st_ex ~seed:st.st_seed id in
         Mutex.protect mu (fun () -> Hashtbl.replace pending id (r, !due));
         ph.lags <- (now () -. !due) :: ph.lags;
         send conns.(!k mod nproc) r.rq_line;
         incr k;
         (* Exponential inter-arrival gap, from a 30-bit uniform draw. *)
         let u = (float_of_int (Rng.int rng (1 lsl 30)) +. 0.5) /. float_of_int (1 lsl 30) in
         due := !due -. (log u /. open_rate)
       done
     with Unix.Unix_error _ -> fail fl "open loop: send failed");
    (* Drain: every request sent must be answered. *)
    let drain_until = now () +. 10.0 in
    while Mutex.protect mu (fun () -> Hashtbl.length pending) > 0 && now () < drain_until do
      Thread.delay 0.005
    done;
    Array.iter (fun c -> try Unix.shutdown c.c_fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()) conns;
    Array.iter Thread.join readers;
    Array.iter close conns;
    Hashtbl.iter (fun id (r, _) -> fail fl "request %d (%s): no reply" id (cls_name r.rq_cls)) pending;
    !k
  end

let measure st ph ~fl ~seconds ~traced =
  let a = closed_loop st ph ~fl ~seconds:(seconds /. 2.0) ~traced in
  let b = open_loop st ph ~fl ~seconds:(seconds /. 2.0) in
  ph.rss_mb <- peak_rss_mb (string_of_int st.st_server.sv_pid);
  if traced then begin
    match connect st.st_server.sv_path with
    | Some c ->
      (try ph.stats <- call c "{\"id\":0,\"op\":\"stats\"}" with End_of_file | Sys_error _ -> ());
      close c
    | None -> ()
  end;
  a + b

(* ------------------------------------------------------------------ *)
(* Metrics *)

let lat_ms q samples = 1000.0 *. quantile q (List.map (fun s -> s.sm_lat) samples)

(* The gated throughput and medians are medians over half-second slices
   of a phase (by reply time), so a burst of host contention that slows
   a few slices moves them less than a figure over the whole phase. *)
let slice = 0.5

let slices ~t0 ~dur samples =
  let a = Array.make (max 1 (int_of_float (dur /. slice))) [] in
  List.iter
    (fun s ->
      let k = int_of_float ((s.sm_done -. t0) /. slice) in
      if k >= 0 && k < Array.length a then a.(k) <- s :: a.(k))
    samples;
  Array.to_list a

let req_per_s ph =
  let per = slices ~t0:ph.closed_t0 ~dur:ph.closed_s (ph.closed @ ph.closed_tr) in
  (List.length per, median (List.map (fun l -> float_of_int (List.length l) /. slice) per))

(* Median of the slices' median latencies, over the slices that hold
   any sample. *)
let sliced_p50_ms ~t0 ~dur samples =
  let per = List.filter (( <> ) []) (slices ~t0 ~dur samples) in
  (List.length per, median (List.map (lat_ms 0.5) per))

(* p50_ms is the closed loop's latency, send to reply; aux_ms the open
   loop's, timed from due times, which charges every host stall to all
   the requests due during it. *)
let report ph =
  let n_open = List.length ph.opened in
  let n_closed = List.length ph.closed in
  let slices, rps = req_per_s ph in
  let closed_slices, closed_p50 = sliced_p50_ms ~t0:ph.closed_t0 ~dur:ph.closed_s ph.closed in
  let open_slices, open_p50 = sliced_p50_ms ~t0:ph.open_t0 ~dur:ph.open_s ph.opened in
  ( [ metric ~n:closed_slices "p50_ms" "ms" closed_p50;
      metric ~n:slices "ops_per_s" "1/s" rps;
      metric ~n:open_slices "aux_ms" "ms" open_p50 ],
    [ metric ~n:slices "req_per_s" "1/s" rps;
      metric ~n:closed_slices "closed_p50_ms" "ms" closed_p50;
      metric ~n:n_closed "closed_p90_ms" "ms" (lat_ms 0.9 ph.closed);
      metric ~n:open_slices "lat_p50_ms" "ms" open_p50;
      metric ~n:n_open "lat_p90_ms" "ms" (lat_ms 0.9 ph.opened);
      metric ~n:n_open "lat_p99_ms" "ms" (lat_ms 0.99 ph.opened);
      metric ~n:(List.length ph.lags) "gen_lag_p99_ms" "ms" (1000.0 *. quantile 0.99 ph.lags) ] )

module Json = Psc.Trace.Json

(* Access-log lines by request id: (queue_us, handler_us, total_us),
   and the problems met reading them. *)
let access_log = function
  | None -> ([], [ "no access log" ])
  | Some path -> (
    match read_lines path with
    | exception Sys_error e -> ([], [ "access log: " ^ e ])
    | [] -> ([], [ "access log is empty" ])
    | lines ->
      let entries, bad =
        List.partition_map
          (fun l ->
            match Json.parse l with
            | j -> (
              match List.map (fun k -> Json.member k j) [ "id"; "queue_us"; "handler_us"; "total_us" ] with
              | [ Some (Json.Num id); Some (Json.Num q); Some (Json.Num h); Some (Json.Num t) ] ->
                Left (int_of_float id, (q, h, t))
              | _ -> Right l)
            | exception Json.Parse_error _ -> Right l)
          lines
      in
      ( entries,
        List.map (fun l -> "access log line does not parse: " ^ l) (List.filteri (fun i _ -> i < 3) bad) ))

(* In-process Proto costs on the workload's own lines and replies. *)
let proto_spans st =
  Span.set_enabled true;
  for id = 1 to 500 do
    let r = make_request st.st_ex ~seed:st.st_seed id in
    ignore
      (Span.with_ ~op:(Printf.sprintf "decode%d" id) "server.proto_decode" (fun () ->
           Proto.parse_request r.rq_line))
  done;
  Array.iteri
    (fun p per_m ->
      Array.iteri
        (fun k outs ->
          ignore
            (Span.with_ ~op:(Printf.sprintf "encode%d.%d" p k) "server.proto_encode" (fun () ->
                 Proto.ok_response ~id:(string_of_int ((p * 100) + k)) ~cached:false
                   [ ("outputs", Proto.jarr (List.map Proto.output_json outs)) ])))
        per_m)
    st.st_ex.ex_run;
  Span.set_enabled false

let layer_values st ph =
  let per_call name = 1e6 *. median (Span.op_times name) in
  proto_spans st;
  let decode = per_call "server.proto_decode" and encode = per_call "server.proto_encode" in
  let log, log_problems = access_log st.st_server.sv_log in
  let us_ms f = List.map (fun (_, e) -> f e /. 1000.0) log in
  let queue = us_ms (fun (q, _, _) -> q) and handler = us_ms (fun (_, h, _) -> h) in
  let all_closed = ph.closed @ ph.closed_tr in
  let transport =
    List.filter_map
      (fun s ->
        Option.map (fun (_, _, total) -> (s.sm_lat *. 1000.0) -. (total /. 1000.0))
          (List.assoc_opt s.sm_id log))
      all_closed
  in
  (* The stats reply's counters; one that is absent is a problem. *)
  let stats_problems = ref [] in
  let stats =
    match Json.parse ph.stats with
    | j -> j
    | exception Json.Parse_error _ ->
      stats_problems := [ "stats reply does not parse: " ^ ph.stats ];
      Json.Null
  in
  let counter path =
    let rec go j = function
      | [] -> ( match j with Json.Num f -> Some f | _ -> None)
      | k :: rest -> Option.bind (Json.member k j) (fun j -> go j rest)
    in
    match go stats path with
    | Some f -> f
    | None ->
      stats_problems := ("stats reply has no " ^ String.concat "." path) :: !stats_problems;
      0.0
  in
  let hits = counter [ "cache"; "hits" ] and misses = counter [ "cache"; "misses" ] in
  let by cls = List.filter (fun s -> s.sm_cls = cls) ph.opened in
  let values =
    List.map (fun c -> (Printf.sprintf "serve.%s_p50_ms" (cls_name c), lat_ms 0.5 (by c))) classes
    @ [ ("proto.decode_us", decode); ("proto.encode_us", encode);
        ("serve.queue_p99_ms", quantile 0.99 queue);
        ("serve.handler_p50_ms", quantile 0.5 handler);
        ("serve.handler_p99_ms", quantile 0.99 handler);
        ("serve.transport_p50_ms", median transport);
        ("cache.hit_ratio", if hits +. misses > 0.0 then hits /. (hits +. misses) else 0.0);
        ("cache.evictions", counter [ "cache"; "evictions" ]); ("serve.shed", counter [ "shed" ]);
        ("serve.inflight_peak", counter [ "inflight_peak" ]);
        ("serve.gen_lag_p99_ms", 1000.0 *. quantile 0.99 ph.lags);
        ( "trace.overhead_pct",
          100.0 *. ((lat_ms 0.5 ph.closed_tr /. lat_ms 0.5 ph.closed) -. 1.0) ) ]
  in
  (values, log_problems @ List.rev !stats_problems)
