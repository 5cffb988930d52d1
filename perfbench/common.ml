(* Shared pieces of the benchmark: clocks, order statistics, host facts,
   process helpers, and the metric records every workload returns. *)

let now () = Unix.gettimeofday ()

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ------------------------------------------------------------------ *)
(* Order statistics *)

(* Nearest-rank quantile of an unsorted sample; 0 for an empty one. *)
let quantile q xs =
  match xs with
  | [] -> 0.0
  | _ ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    let rank = max 1 (int_of_float (ceil (q *. float_of_int n))) in
    a.(min n rank - 1)

let median xs = quantile 0.5 xs

let sum xs = List.fold_left ( +. ) 0.0 xs

let mean xs = match xs with [] -> 0.0 | _ -> sum xs /. float_of_int (List.length xs)

(* ------------------------------------------------------------------ *)
(* Metrics *)

type metric = { m_name : string; m_value : float; m_unit : string; m_n : int }

let metric ?(n = 1) m_name m_unit m_value = { m_name; m_value; m_unit; m_n = n }

(* What a workload hands back: operation counts for fail_ratio, the
   metrics BENCHMARK.json declares ([r_metrics]: end-to-end in an untraced run,
   per-layer in a traced one), the workload's own metrics the human
   report prints beside them, and anything that kept a per-layer metric
   from being measured (a non-finite value, a server reply or log that
   does not parse), which the smoke test fails on. *)
type result = {
  r_attempted : int;
  r_failures : string list;  (* one line per failed operation, capped *)
  r_failed : int;
  r_metrics : metric list;
  r_report : metric list;
  r_problems : string list;
}

(* A failure log shared by the workloads: counts every failure, keeps
   the first few descriptions for the report. *)
type failures = { mutable f_n : int; mutable f_lines : string list; f_mu : Mutex.t }

let failures () = { f_n = 0; f_lines = []; f_mu = Mutex.create () }

let fail fl fmt =
  Printf.ksprintf
    (fun s ->
      Mutex.protect fl.f_mu (fun () ->
          fl.f_n <- fl.f_n + 1;
          if fl.f_n <= 20 then fl.f_lines <- s :: fl.f_lines))
    fmt

(* ------------------------------------------------------------------ *)
(* Host facts *)

let nproc = Psc.Pool.recommended_size ()

(* A fixed CPU-only loop: its time at the start and end of a run shows
   how loaded the host was while the run measured. *)
let calibrate () =
  let _, dt =
    time (fun () ->
        let x = ref 1 in
        for i = 1 to 50_000_000 do
          x := (!x * 1103515245) + 12345 + i
        done;
        Sys.opaque_identity !x)
  in
  dt

let read_lines path = In_channel.with_open_bin path In_channel.input_lines

(* VmHWM (peak resident set) of a process, in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match
    List.find_opt
      (String.starts_with ~prefix:"VmHWM:")
      (read_lines path)
  with
  | Some l -> (
    match String.split_on_char ' ' l |> List.filter (fun s -> s <> "") with
    | _ :: kb :: _ -> float_of_string kb /. 1024.0
    | _ -> 0.0)
  | None -> 0.0
  | exception Sys_error _ -> 0.0

(* The first line a command prints, or "unknown". *)
let command_line cmd =
  match Unix.open_process_in (cmd ^ " 2>/dev/null") with
  | ic ->
    let l = try input_line ic with End_of_file -> "unknown" in
    ignore (Unix.close_process_in ic);
    l

let cc_version = lazy (command_line "cc --version")

(* ------------------------------------------------------------------ *)
(* Files and processes *)

(* Scratch space for emitted C, sockets, logs and traces: inside the
   checkout, under the build directory git ignores. *)
let work_dir =
  lazy
    (let d = Filename.concat ".bench_build" "perfbench" in
     if not (Sys.file_exists ".bench_build") then Unix.mkdir ".bench_build" 0o755;
     if not (Sys.file_exists d) then Unix.mkdir d 0o755;
     d)

let work_file name = Filename.concat (Lazy.force work_dir) name

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The psc executable built next to this one. *)
let psc_exe () =
  let p =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/psc_main.exe"
  in
  if Sys.file_exists p then p else failwith ("psc executable not found at " ^ p)

(* Run a program to completion, returning its exit status and stdout. *)
let run_capture prog args =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin out_w devnull
  in
  Unix.close out_w;
  Unix.close devnull;
  let ic = Unix.in_channel_of_descr out_r in
  let buf = Buffer.create 256 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  (status, Buffer.contents buf)

let matches_at s i sub =
  let n = String.length sub in
  i >= 0
  && i + n <= String.length s
  &&
  let rec go k = k = n || (s.[i + k] = sub.[k] && go (k + 1)) in
  go 0

(* First index of [sub] in [s]. *)
let find ~sub s =
  let m = String.length s - String.length sub in
  let rec go i = if i > m then None else if matches_at s i sub then Some i else go (i + 1) in
  go 0

let contains ~sub s = find ~sub s <> None

(* Whether the JSON line [s] has member [key] whose rendered value is
   exactly [value] (values rendered by the server's own writer). *)
let has_member s key value =
  let k = "\"" ^ key ^ "\":" in
  match find ~sub:k s with
  | Some i -> matches_at s (i + String.length k) value
  | None -> false

(* Seeded Fisher-Yates shuffle. *)
let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Ps_fuzz.Gen.Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let replace_all ~sub ~by s =
  let b = Buffer.create (String.length s) in
  let n = String.length sub in
  let rec go i =
    if i >= String.length s then ()
    else if matches_at s i sub then (
      Buffer.add_string b by;
      go (i + n))
    else (
      Buffer.add_char b s.[i];
      go (i + 1))
  in
  go 0;
  Buffer.contents b
