(* DOALL nest collapsing.

   The hyperplane transformation (and plain scheduling of independent
   recurrences) produces perfectly nested DOALL bands — [DOALL I (DOALL
   J (eq...))] — but a runtime that parallelizes only the outermost axis
   of such a band sees just the outer trip count: a [DOALL I(3) (DOALL
   J(10^6))] nest offers three units of work to the pool, and the
   triangular wavefront spaces of §4 offer trip counts that vary from 1
   to N per time step.  Collapsing flattens the band into one combined
   iteration space so the pool balances over the *product* of the trip
   counts, the standard loop-collapsing transformation (cf. OpenMP's
   [collapse] clause).

   The band itself is structural ([band] below): whether a nest is
   flattened is its policy decision's [d_collapse], and the interpreter
   ([Ps_interp.Exec]) and the code generator decide how much of the band
   they can actually flatten (e.g. the interpreter needs the inner
   bounds to be affine in at most the head variable).  This pass only
   *marks* the heads of collapsible bands ([lp_collapse]) for display
   ([psc schedule --collapse]) and for the verifier.  A loop heads a
   band when:

   - it is DOALL, and
   - its body is exactly one descriptor, itself a DOALL loop

   (i.e. the nest is *perfect*: no equations or data placements sit
   between the two headers, so interchanging or flattening the axes
   cannot reorder any computation relative to the band).  Legality of
   executing the flattened space in any order is exactly the DOALL
   guarantee the scheduler (and the [Verify] translation validator)
   already established per axis: every dependence distance across each
   axis of the band is zero.  [Verify.flowchart] additionally rejects
   marks placed on anything but such a perfect DOALL pair (E021), so a
   corrupted flowchart cannot smuggle an iterative loop into a band. *)

let is_parallel (l : Flowchart.loop) = l.Flowchart.lp_kind = Flowchart.Parallel

(* Is [l] (already marked below it) the head of a perfect DOALL pair? *)
let collapsible (l : Flowchart.loop) =
  is_parallel l
  && (match l.Flowchart.lp_body with
     | [ Flowchart.D_loop inner ] -> is_parallel inner
     | _ -> false)

(* The DOALL band rooted at [l]: [l] plus every loop of the perfect
   DOALL chain below it ([l] alone when it heads no pair).  This is the
   one definition of a band: the interpreter flattens it, the C back end
   widens its pragma over it, and the cost model prices it — each only
   when the nest's policy decision asks for collapse.  Marks play no
   part; a marked head is exactly one whose band has two or more loops. *)
let rec band (l : Flowchart.loop) : Flowchart.loop list =
  match l.Flowchart.lp_body with
  | [ Flowchart.D_loop inner ] when collapsible l -> l :: band inner
  | _ -> [ l ]

let rec mark_descs (descs : Flowchart.t) : Flowchart.t =
  List.map mark_desc descs

and mark_desc (d : Flowchart.descriptor) : Flowchart.descriptor =
  match d with
  | Flowchart.D_loop l ->
    let body = mark_descs l.Flowchart.lp_body in
    let l = { l with Flowchart.lp_body = body } in
    Flowchart.D_loop { l with Flowchart.lp_collapse = collapsible l }
  | Flowchart.D_solve s ->
    Flowchart.D_solve { s with Flowchart.sv_body = mark_descs s.Flowchart.sv_body }
  | (Flowchart.D_data _ | Flowchart.D_eq _) as d -> d

let mark (fc : Flowchart.t) : Flowchart.t =
  Ps_obs.Trace.with_span "schedule.collapse" (fun () -> mark_descs fc)

let rec count (fc : Flowchart.t) =
  List.fold_left
    (fun acc d ->
      match d with
      | Flowchart.D_loop l ->
        acc + (if l.Flowchart.lp_collapse then 1 else 0) + count l.Flowchart.lp_body
      | Flowchart.D_solve s -> acc + count s.Flowchart.sv_body
      | Flowchart.D_data _ | Flowchart.D_eq _ -> acc)
    0 fc

let rec clear (fc : Flowchart.t) : Flowchart.t =
  List.map
    (function
      | Flowchart.D_loop l ->
        Flowchart.D_loop
          { l with Flowchart.lp_collapse = false; lp_body = clear l.Flowchart.lp_body }
      | Flowchart.D_solve s ->
        Flowchart.D_solve { s with Flowchart.sv_body = clear s.Flowchart.sv_body }
      | (Flowchart.D_data _ | Flowchart.D_eq _) as d -> d)
    fc
