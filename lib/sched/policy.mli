(** Per-loop-nest scheduling policy.

    Legality (DO vs DOALL vs DOGROUP/DOINSPECT) is the scheduler's and
    the verifier's business; a policy only picks the *shape* of the
    schedule at each fork candidate: sequential vs forked, flattened
    band vs nested, stealing vs fixed chunks, and per-job chunk / wake
    overrides.  A policy never changes results, which is what makes a
    tuned table safe to cache and replay as a compile artifact. *)

type source = Static | Tuned

val source_name : source -> string

val source_of_name : string -> source option

type decision = {
  d_par : bool;       (** false: run the whole nest sequentially *)
  d_collapse : bool;  (** flatten the DOALL band ({!Collapse.band}) here *)
  d_steal : bool;     (** work-stealing deal vs fixed contiguous chunks *)
  d_chunk_min : int option;  (** per-job floor on a claimed chunk *)
  d_chunk_max : int option;  (** per-job ceiling on a claimed chunk *)
  d_wake : int option;       (** per-job wake-threshold override *)
  d_why : string;            (** one-line rationale for the trajectory *)
}

val sequential : why:string -> decision

val parallel :
  ?steal:bool ->
  ?collapse:bool ->
  ?chunk_min:int ->
  ?chunk_max:int ->
  ?wake:int ->
  why:string ->
  unit ->
  decision

val default : decision
(** The decision of every nest a table does not name: parallel,
    work-stealing, no collapse. *)

type table = {
  t_source : source;
  t_host_cores : int;
  t_entries : (string * decision) list;
}

val empty : table
(** No entries: every nest runs under {!default}. *)

val index : Flowchart.t -> (Flowchart.loop * string) list
(** The fork candidates of a flowchart — parallel-kind loops reachable
    through DO loops and SOLVE bodies only — each with its stable key:
    the dot-joined binder path from the root plus a ["#n"] ordinal for
    repeats.  Deterministic, so tune-time and run-time keys agree. *)

val find : table -> string -> decision option

val resolve : table -> Flowchart.t -> (Flowchart.loop * decision) list
(** Pair each fork candidate with its decision, dropping keyless nests.
    The loop values are physically those of the argument flowchart, so
    callers may look up decisions by identity ([==]). *)

val stale : table -> host_cores:int -> bool
(** Chunk and wake choices do not transfer across hosts: a table tuned
    for a different core count is stale (diagnostic W121). *)

val preset_names : string list
(** ["seq"; "fixed"; "steal"; "steal+collapse"]. *)

val preset : string -> Flowchart.t -> table
(** The named hand-picked configuration as a table over the flowchart's
    fork candidates: one shape for every nest, collapse only where a
    nest heads a band of two or more loops.  Host-independent
    ([t_host_cores = 0]).
    @raise Invalid_argument on a name outside {!preset_names}. *)

val summary : decision -> string
(** Compact form, e.g. ["seq"], ["steal+collapse"],
    ["fixed,chunk>=8,wake=64"]. *)

val table_summary : table -> string
(** E.g. ["static[K.I=steal+collapse;I.J=seq]"] — the bench trajectory's
    [policy] field. *)

val to_json : table -> string
(** One-line JSON object (schema field ["policy":1]) — the wire and
    cache format, also what [psc tune] prints. *)

val of_json : string -> (table, string) result

val validate : table -> Flowchart.t -> string list
(** Structural problems: entries naming no nest, collapse requested on
    a nest that heads no DOALL band, inverted or non-positive chunk
    bounds.  Empty
    means well-formed. *)
