(** Data-plane generation: the imperative fixed-point control-plane
    simulation of §4.1.

    The engine computes, in order: connected/local routes, recursive static
    routes, OSPF (to convergence, before BGP starts — the IGP-first ordering
    Datalog could not express), then BGP to a fixed point. BGP scheduling
    uses protocol-graph coloring so adjacent routers never exchange in the
    same step, and routes carry logical clocks used as a best-path tiebreak;
    together these give deterministic convergence (§4.1.2). RIB deltas are
    pulled by receivers (no per-neighbor queues, §4.1.3). Non-convergence is
    detected and reported rather than forced. *)

type schedule =
  | Colored  (** production scheduling: color classes exchange in turn *)
  | Lockstep  (** naive: everyone exchanges simultaneously (Figure 1 mode) *)

type options = {
  schedule : schedule;
  use_logical_clocks : bool;
  domains : int;  (** worker domains for parallel phases *)
  pool : Par.Pool.t option;
      (** persistent worker pool for parallel phases; when set, [domains]
          is ignored and jobs run on the pool's resident workers *)
  max_rounds : int;
      (** fuel budget for BGP rounds within one outer pass; exhausting it
          yields [converged = false] plus a [BGP_FUEL_EXHAUSTED] diag *)
  outer_fuel : int;
      (** fuel budget for session re-evaluation passes (§4.1.1); exhausting
          it yields [converged = false] plus an [OUTER_FUEL_EXHAUSTED] diag *)
  full_rib_compare : bool;
      (** ablation: also detect convergence by snapshotting and comparing
          full RIBs each round (the classic, memory-hungry method) *)
}

val default_options : options

type session_report = {
  sr_node : string;
  sr_peer : Ipv4.t;
  sr_remote_node : string option;  (** None for external peers *)
  sr_is_ibgp : bool;
  sr_established : bool;
  sr_reason : string option;  (** why the session is down *)
}

type node_result = {
  nr_node : string;
  nr_main : Rib.t;
  nr_bgp : Rib.t;
  nr_ospf : Rib.t option;
  nr_fib : Fib.t;
}

(** Opaque result of one dependency component's simulation, retained so
    {!update} can reuse unchanged components. *)
type comp_result

(** Engine counters: how much of the snapshot was actually simulated.
    A full {!compute} reports every node simulated; {!update} reports the
    dirty/reused split. [st_frontier_nodes] counts the nodes the route-delta
    worklist actually re-simulated inside dirty components (equal to
    [st_simulated_nodes] when every dirty component ran from scratch);
    [st_converged_early] counts re-simulated nodes whose fixed point came
    back identical to the base — the frontier ring where propagation died
    out. *)
type stats = {
  st_components : int;
  st_dirty_components : int;
  st_simulated_nodes : int;
  st_reused_nodes : int;
  st_frontier_nodes : int;
  st_converged_early : int;
  st_exported_routes : int;
      (** best routes the route-delta worklist ran through a sender's export
          pipeline (0 when every dirty component ran from scratch) *)
  st_imported_routes : int;
      (** wire routes it ran through a receiver's import pipeline *)
}

type t = {
  topo : L3.t;
  nodes : (string, node_result) Hashtbl.t;
  node_order : string list;
  converged : bool;
  oscillated : bool;
  rounds : int;  (** total BGP rounds across components (or cutoff) *)
  outer_iterations : int;  (** max session re-evaluation passes (§4.1.1) *)
  sessions : session_report list;
  quarantined : (string * string) list;
      (** nodes excluded from the simulation, with the reason; their results
          are present but empty, their sessions reported down *)
  diags : Diag.t list;  (** everything skipped, quarantined, or budget-cut *)
  components : string list list;
      (** the dependency partition (L3 adjacency + BGP sessions;
          redistribution is node-local): hostname groups in config order *)
  comp_results : comp_result list;
  stats : stats;
}

(** Fault-isolated data-plane generation: a node whose topology, OSPF, or
    BGP initialization raises is quarantined (routes withdrawn, sessions
    down with a reason) instead of aborting the snapshot, and both the BGP
    round loop and the outer session re-evaluation loop run on explicit fuel
    budgets ({!options.max_rounds}, {!options.outer_fuel}). Never raises on
    operator input. *)
val compute : ?options:options -> ?env:Dp_env.t -> Vi.t list -> t

(** [update ~base ~changed configs] recomputes the data plane for [configs]
    (the complete new snapshot) reusing [base] wherever possible. [changed]
    must name every host whose vendor-independent model differs from [base]
    (added hosts included; removed hosts are simply absent from [configs]).
    A dependency component is reused wholesale when none of its members
    changed and its member set equals a base component's member set. A dirty
    component whose member set still matches runs the route-delta worklist:
    only the changed nodes (plus their session partners and any member whose
    pre-BGP state changed) are re-simulated, each neighbor is woken only when
    the advertisements it receives actually differ from the base, and every
    untouched node keeps its base RIBs — so propagation stops at the first
    ring of undisturbed fixed point. The warm path is guarded: it runs only
    when the base fixed point was converged, diagnostic-free, and provably
    timing-independent, and any mid-flight surprise falls back to the exact
    per-component scratch path [compute] uses. Either way the result is
    bit-identical to [compute configs]. [options] and [env] must equal those
    used to build [base]. Engine counters land in {!t.stats}. *)
val update :
  ?options:options -> ?env:Dp_env.t -> base:t -> changed:string list -> Vi.t list -> t

(** The explicit dependency map backing the component partition: undirected
    (node, node) influence edges — L3 adjacencies plus resolved BGP
    sessions. *)
val dependency_edges : topo:L3.t -> Vi.t list -> (string * string) list

(** Test support: recompute every wire the result holds for the next
    {!update} (one per established internal session of each delta-safe
    component) with the sender's full export pipeline, and describe each
    one that differs from the stored wire, or that is missing or extra.
    [configs] are the configs [t] was computed from. [[]] means every
    stored wire is exact. *)
val wire_mismatches : Vi.t list -> t -> string list

(** @raise Invalid_argument on an unknown node name; prefer {!node_opt}. *)
val node : t -> string -> node_result

val node_opt : t -> string -> node_result option

(** Total best routes in main RIBs across nodes (the paper's Table 1
    "routes" column). *)
val total_routes : t -> int

(** Approximate heap footprint of all RIB state, in machine words (for the
    memory ablations). *)
val rib_words : t -> int
