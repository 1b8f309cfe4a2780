(** The forwarding dataflow graph (§4.2.1).

    Locations are graph nodes; edges carry packet-set functions (filters,
    NAT transformations, zone-bit manipulations). The engine propagates
    BDD-encoded packet sets over this graph, forward or backward. *)

type loc =
  | Src of string * string
      (** packets entering the network (or arriving off the wire) at
          (node, interface) *)
  | Fwd of string  (** the node's FIB lookup *)
  | Pre_out of string * string * Ipv4.t option
      (** chosen egress (node, interface, gateway) *)
  | Dst of string * string
      (** packets delivered into the attached subnet or leaving the modeled
          network via (node, interface) *)
  | Accept of string  (** delivered to the device itself *)
  | Dropped of string  (** denied/no-route/null-routed at the node *)

val loc_to_string : loc -> string

(** The node owning a location. *)
val loc_node : loc -> string

(** Edge functions. [Set_extra]/[Erase_extra] manipulate the query-local
    extra bits used for zones and waypoints. *)
type func =
  | Filter of Bdd.t
  | Transform of Bdd.t  (** NAT relation over primed variables *)
  | Set_extra of (int * bool) list
  | Erase_extra of int list
  | Seq of func list

type edge = { e_from : int; e_to : int; e_fn : func }

type t = {
  env : Pktset.t;
  locs : loc array;
  loc_index : (loc, int) Hashtbl.t;
  mutable out_edges : edge list array;
  mutable in_edges : edge list array;
}

(** Zone bits occupy extra bits 0..3; waypoint instrumentation should use
    bits >= [zone_bits]. *)
val zone_bits : int

(** [build ~configs ~dp ()] constructs the graph for a computed data plane.
    [compress] enables the chain-contraction optimization (§4.2.3); the
    result is semantically equivalent. *)
val build :
  ?env:Pktset.t ->
  ?compress:bool ->
  ?sessions:(string -> Bdd.t) ->
  configs:(string -> Vi.t option) ->
  dp:Dataplane.t ->
  unit ->
  t
(** [sessions] supplies, per stateful (zoned) device, the set of return
    packets whose forward sessions were established — those bypass the zone
    policy (the session "fast path" of §4.2.3's bidirectional analysis). *)

(** [patch ~base ~dirty ~configs ~dp ()] rebuilds only the edges owned by
    the [dirty] nodes against the new [configs]/[dp], keeping every other
    node's edges (and the base's location numbering) as-is; new locations
    append past the base's. The base is not mutated. Callers must list
    every node whose FIB, config, or local L3 surroundings changed — both
    ends of a failed link and the neighbors of every downed interface
    included — or the patched graph diverges from a fresh build. Stale
    locations left without incident edges cannot influence any propagation
    result, so query values, rows and witnesses match a from-scratch
    [build] for the same inputs. *)
val patch :
  base:t ->
  dirty:string list ->
  configs:(string -> Vi.t option) ->
  dp:Dataplane.t ->
  unit ->
  t

val loc_id : t -> loc -> int option
val n_locs : t -> int
val n_edges : t -> int

(** Apply an edge function to a packet set, forward direction. *)
val apply : t -> func -> Bdd.t -> Bdd.t

(** Preimage of a packet set under an edge function. *)
val apply_reverse : t -> func -> Bdd.t -> Bdd.t

(** All locations satisfying a predicate. *)
val locs_where : t -> (loc -> bool) -> int list

val env : t -> Pktset.t

(** [same_graph a b] — exact structural equality of two graphs built in the
    {e same} manager (physical BDD equality per edge program). Decides the
    same predicate as comparing the two graphs' canonical spec fingerprints,
    at a fraction of the cost: no export, no marshalling, no hashing. Returns
    [false] whenever the managers differ. *)
val same_graph : t -> t -> bool

(** {2 Manager-independent graph specs}

    A spec is the whole graph compiled out of its BDD manager: locations,
    edges, and edge-program BDDs packed into one {!Bdd.exported} table.
    Worker domains use [of_spec] to re-materialize the graph into a private
    manager, so parallel queries share no mutable BDD state. Because BDDs are
    canonical, propagation over the re-materialized graph computes exactly
    the same packet sets (same witnesses, same verdicts). *)
type spec

(** Compile the graph into a manager-independent description. *)
val to_spec : t -> spec

(** Content fingerprint (MD5 hex) of a spec. Two graphs denoting the same
    locations, edges and packet functions fingerprint identically no matter
    which manager built them, so the fingerprint keys worker-resident graph
    caches: same fingerprint ⇒ the already-imported graph can be reused;
    an incremental update produces a new fingerprint and naturally
    invalidates stale entries. *)
val spec_fingerprint : spec -> string

(** [of_spec ?env spec] rebuilds the graph. With no [env], a fresh private
    environment (own BDD manager) is created with the spec's variable layout;
    an explicit [env] must have the same layout (order and extra-bit count)
    or [Invalid_argument] is raised. *)
val of_spec : ?env:Pktset.t -> spec -> t

(** Host-facing source locations: enabled, addressed interfaces that face no
    modeled device (heuristic default scoping, §4.4.2). *)
val edge_interfaces : t -> dp:Dataplane.t -> (string * string) list
