(** Atomic Predicates verifier (Yang & Lam), the §6.2 comparison baseline.

    Computes the coarsest partition of header space such that every edge
    predicate of the forwarding graph is a union of atoms; packet sets then
    become integer sets and propagation is set arithmetic. The atom
    computation is the up-front cost the paper's direct BDD dataflow
    avoids. Only filter edges are supported (as in the original tool —
    adding transformations required a new theory, §3 Lesson 2). *)

type t

(** Why a partition was not built. *)
type refusal =
  | Transformation_edges  (** the graph has transformation (NAT) edges *)
  | Atom_cap of int  (** refinement exceeded this many atoms *)

exception Refused of refusal

val refusal_to_string : refusal -> string

(** Builds atoms from every distinct filter predicate in the graph.
    @raise Refused [Transformation_edges] if the graph contains
    transformation edges. *)
val build : Fgraph.t -> t

(** {!build} capped at [max_atoms] (default 4096) atoms, returning the
    refusal instead of raising it — callers that use atoms only as an
    optimization (the failure-scenario symmetry pruner) degrade gracefully
    instead of aborting. Any other exception is a bug and propagates. *)
val try_build : ?max_atoms:int -> Fgraph.t -> (t, refusal) result

val atom_count : t -> int

(** Fold over every graph edge's atom bitset, keyed by
    [(from_loc, to_loc, index in the source's out-edge list)]. Iteration
    order is unspecified; fold into an order-insensitive structure. *)
val fold_edge_atoms : t -> (int * int * int -> Bytes.t -> 'a -> 'a) -> 'a -> 'a

(** The set of packets (as a BDD over the graph's environment) that can
    reach any location in [targets] from [src], computed by propagating atom
    sets backward. *)
val reach : t -> Fgraph.t -> src:int -> targets:int list -> Bdd.t

(** Convert an atom set at a location back to a BDD (for cross-checking). *)
val atoms_to_bdd : t -> Bytes.t -> Bdd.t
