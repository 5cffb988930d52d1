(** C code generation (paper §1: "a compiler which generates C code").

    Emission is driven by the flowchart: subrange descriptors become for
    loops annotated [/* DO (iterative) */] or [/* DOALL (concurrent) */]
    (the outermost DOALL of each nest also gets an OpenMP pragma), node
    descriptors become assignments.  Virtual dimensions allocate their
    window and subscript through [% window] (§3.4).

    Unsupported constructs (module calls, record types) raise
    {!Unsupported}; enumerations become [#define]d integers. *)

exception Unsupported of string

val emit_module :
  ?windows:Ps_sched.Schedule.window list ->
  ?policy:Ps_sched.Policy.table ->
  Ps_sem.Elab.emodule ->
  Ps_sched.Flowchart.t ->
  string
(** The kernel: a C function taking inputs (const pointers / scalars)
    and result out-parameters, allocating windowed locals internally.

    Each loop nest's pragmas follow its decision in [policy], or
    {!Ps_sched.Policy.default} when the nest has no entry (or no table
    is given): a nest the policy runs sequentially loses its
    [#pragma omp parallel for] (replaced by a comment carrying the
    reason), a nest with a chunk hint gains a [schedule(...)] clause,
    and only a decision asking for collapse widens the pragma with a
    [collapse] clause over the DOALL band.
    Policies never change which loops are {e legal} to parallelise —
    only which of the proved-parallel ones are worth forking. *)

val emit_main :
  ?windows:Ps_sched.Schedule.window list ->
  ?policy:Ps_sched.Policy.table ->
  Ps_sem.Elab.emodule ->
  Ps_sched.Flowchart.t ->
  scalars:(string * int) list ->
  string
(** The kernel plus a [main] that fills array inputs with the
    deterministic generator shared with
    {!Ps_models.Models.fill_value} and prints one checksum line per
    result — the basis of the C-vs-interpreter differential tests.
    @raise Unsupported if a scalar input has no value in [scalars]. *)

val c_name : string -> string
(** Identifier sanitation (C keywords get a [ps_] prefix). *)
