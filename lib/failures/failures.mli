(** Failure-scenario exploration: verify a property set under every single
    and double link/node failure.

    Scenarios are enumerated from the L3 topology, pruned by {!Apt} atom
    equivalence (scenarios whose failed elements disable graph edges with
    identical atom signatures collapse to one representative), and checked
    by warm fault-injected re-simulation: the failed elements' nodes form
    the dirty set of a {!Dataplane.update} against the base fixed point, so
    clean dependency components are reused verbatim, and the scenario
    forwarding graph is built into the checking worker's resident manager.
    Checks fan out across the session {!Par.Pool} with stripe affinity.

    Every per-scenario result is bit-identical to a cold full recompute of
    that scenario ({!cold_outcome}); a scenario whose re-simulation exhausts
    fuel, oscillates, quarantines new nodes, or raises is quarantined as
    [Inconclusive] with a {!Diag} record — the sweep never aborts. *)

(** A failed element: a point-to-point link (both endpoint interfaces forced
    down) or a whole node (every interface forced down). *)
type element =
  | Link of L3.endpoint * L3.endpoint
  | Node of string

type scenario = { sc_id : int; sc_elements : element list }

(** A reachability property: packets entering at [pr_src] are delivered at
    node [pr_dst]. It holds under a scenario iff the delivered set stays
    non-empty. A property is vacuously satisfied by any scenario whose
    [Node] failures include one of its own endpoints — a dead device cannot
    meaningfully violate reachability to itself. Link failures adjacent to
    an endpoint carry no such exemption. *)
type property = { pr_src : Fquery.start; pr_dst : string }

(** [Violated] carries a witness from the residual reachability BDD: a
    packet deliverable in the base network but not under the failure. *)
type verdict = Holds | Violated of Packet.t option

type outcome =
  | Checked of verdict list  (** one per property, in property order *)
  | Inconclusive of string

type result = {
  r_scenario : scenario;
  r_outcome : outcome;  (** inherited from the class representative *)
  r_rep : int;  (** sc_id of the representative actually simulated *)
}

type report = {
  rp_k : int;
  rp_properties : property list;
  rp_dropped_properties : int;  (** base pairs beyond the property cap *)
  rp_enumerated : int;  (** brute-force scenario count *)
  rp_simulated : int;  (** class representatives actually re-simulated *)
  rp_pruned : int;  (** [rp_enumerated - rp_simulated] *)
  rp_pruning : bool;  (** atom pruning was active *)
  rp_atoms : int;  (** atom count backing the pruner (0 when off) *)
  rp_results : result list;  (** every enumerated scenario, id order *)
  rp_surviving : property list;  (** hold under every conclusive scenario *)
  rp_failing : (property * scenario * Packet.t option) list;
      (** minimal failing scenario (singles enumerate before pairs) plus
          counterexample packet, per failing property *)
  rp_inconclusive : (scenario * string) list;
  rp_diags : Diag.t list;
}

val element_to_string : element -> string
val scenario_to_string : scenario -> string
val property_to_string : property -> string

(** Deterministic enumeration: every link ({!L3.links}) and every node with
    at least one endpoint as single-element scenarios, followed by all
    unordered pairs when [k >= 2]. *)
val enumerate : topo:L3.t -> k:int -> scenario list

(** Default property set from the base snapshot's reachable pairs, capped;
    returns [(properties, dropped_count)]. Both endpoints are restricted to
    host-bearing nodes — those with an interface-subnet [Fgraph.Dst]
    delivery location on an interface that is not an inter-device link
    endpoint in [topo] — so transit devices do not become property anchors;
    keeping the anchor set small is what lets atom pruning collapse
    symmetric transit failures. Falls back to every reachable pair when no
    host-to-host pair exists. *)
val properties_of :
  ?max_properties:int -> topo:L3.t -> Fquery.t -> property list * int

(** Equivalence classes [(representative, members)] in enumeration order.
    [apt = None] disables pruning (every scenario its own class). [anchors]
    are the hostnames the properties mention; elements touching different
    anchors never collapse. [restrict] is the property-relevant packet set
    (the union of the properties' base delivered sets, in the graph's
    manager): edge atom sets are intersected with it before comparison, so
    traffic the properties never check — e.g. per-link p2p subnets, unique
    by construction — cannot keep symmetric elements apart. *)
val classify :
  apt:Apt.t option ->
  g:Fgraph.t ->
  anchors:string list ->
  restrict:Bdd.t ->
  scenario list ->
  (scenario * scenario list) list

(** The fault-injected environment of a scenario: the base environment with
    every failed element's (node, interface) pairs forced down. *)
val scenario_env : topo:L3.t -> Dp_env.t -> scenario -> Dp_env.t

(** Warm single-scenario check against a base query [qb] (the base graph in
    the calling domain's manager — {!Fpar.worker_query} inside a pool
    worker). [options] should be serial; never raises. *)
val check_scenario :
  options:Dataplane.options ->
  env:Dp_env.t ->
  configs_list:Vi.t list ->
  find:(string -> Vi.t option) ->
  base_dp:Dataplane.t ->
  properties:property list ->
  Fquery.t ->
  scenario ->
  outcome

(** {2 Cold reference}

    A fresh-manager, from-scratch recompute of a scenario: full
    {!Dataplane.compute} against the fault-injected environment and fresh
    graph builds, no warm reuse anywhere. Warm outcomes must equal cold
    outcomes structurally ([=]) — the bit-identity contract. *)

type cold

val cold_context :
  options:Dataplane.options ->
  env:Dp_env.t ->
  configs_list:Vi.t list ->
  find:(string -> Vi.t option) ->
  unit ->
  cold

val cold_outcome : cold -> properties:property list -> scenario -> outcome

(** {2 The sweep} *)

(** [run ~k ~options ~env ~configs_list ~find ~base_dp ~base_fq ()] explores
    every failure scenario up to size [k] (1 or 2). [prune] (default true)
    enables atom-equivalence pruning, degrading gracefully (with a
    [code_pruning_disabled] diag naming the cause) when the graph has
    transformation edges or the atom partition exceeds [max_atoms]. With a
    [pool] (or [domains] > 1) representatives fan out across workers;
    per-scenario work itself always runs serial. *)
val run :
  ?pool:Par.Pool.t ->
  ?domains:int ->
  ?max_properties:int ->
  ?prune:bool ->
  ?max_atoms:int ->
  k:int ->
  options:Dataplane.options ->
  env:Dp_env.t ->
  configs_list:Vi.t list ->
  find:(string -> Vi.t option) ->
  base_dp:Dataplane.t ->
  base_fq:Fquery.t ->
  unit ->
  report
