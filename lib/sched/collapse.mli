(** DOALL nest collapsing (marking pass).

    Detects perfectly nested DOALL bands — a DOALL whose body is exactly
    one descriptor, itself a DOALL — and sets {!Flowchart.loop.lp_collapse}
    on the head.  The marks are display and verification only: execution
    and emission flatten {!band}, the structural chain, when a nest's
    policy decision asks for collapse.  Legality per axis is the
    DOALL guarantee the scheduler already established (dependence
    distance zero across every axis of the band); {!Verify} checks that
    marks sit only on such perfect pairs. *)

val band : Flowchart.loop -> Flowchart.loop list
(** The DOALL band rooted at a loop: the loop plus every loop of the
    perfect DOALL chain below it (a band of one when it heads no pair).
    Independent of marks. *)

val mark : Flowchart.t -> Flowchart.t
(** Mark every collapsible band head, bottom-up; a depth-[k] perfect
    DOALL nest gets [k-1] marks (each non-innermost header). *)

val count : Flowchart.t -> int
(** Number of collapse marks present. *)

val clear : Flowchart.t -> Flowchart.t
(** Remove all collapse marks (the A/B baseline). *)
