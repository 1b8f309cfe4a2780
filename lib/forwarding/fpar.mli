(** Sharded parallel verification over per-domain BDD managers.

    Workers re-materialize the forwarding graph from a
    manager-independent {!Fgraph.spec} into private managers (no shared
    mutable BDD state) and pull independent queries off a work-stealing
    scheduler ({!Par.map_dynamic_init}). Results merge deterministically:
    reachability rows are plain data, and multipath verdicts come back as
    exported BDDs unioned in the caller's manager. Every edge function
    distributes over union, so per-shard backward fixpoints union to
    exactly the sequential fixpoint; BDD canonicity then makes the merged
    results bit-identical to the sequential engine ([domains = 1]).

    Each worker domain keeps its imported graph (and warm BDD caches) in
    domain-local storage keyed by the spec fingerprint, so on a persistent
    {!Par.Pool} repeated queries against the same snapshot import nothing.
    Entry points route through an adaptive plan: with [~auto:true] an
    estimated cost below {!auto_cutoff} falls back to the sequential
    engine, so small queries never pay the fan-out overhead. *)

(** Parallel {!Fquery.all_pairs}: one forward pass per start location,
    fanned across [domains] worker domains (or the [pool]'s resident
    workers). Identical row list to the sequential engine. *)
val all_pairs :
  ?pool:Par.Pool.t ->
  ?domains:int ->
  ?auto:bool ->
  ?hdr:Bdd.t ->
  ?starts:Fquery.start list ->
  Fquery.t ->
  Fquery.reach_row list

(** Parallel {!Fquery.multipath_consistency}: the delivered-sink and
    dropped-sink backward passes run as two concurrent jobs, each with all
    its sinks batched so a worker pays the graph import once per pass (the
    earlier per-destination sharding re-propagated the whole graph per
    shard and inverted the speedup). Returned verdict sets live in the
    caller's manager and equal the sequential ones. *)
val multipath_consistency :
  ?pool:Par.Pool.t ->
  ?domains:int ->
  ?auto:bool ->
  ?starts:Fquery.start list ->
  Fquery.t ->
  (Fquery.start * Bdd.t) list

(** {2 Adaptive scheduling} *)

(** Execution plan chosen by {!plan}. *)
type plan = Serial | Parallel of int

(** How parallelizable work scales when sharded: [Uniform] tasks (per-start
    forward passes) divide total work across workers; a [Sharded_pass]
    workload (multipath's two batched whole-graph passes) can at best halve
    the wall clock, so it needs a correspondingly larger job to amortize
    the fan-out overhead. *)
type workload = Uniform | Sharded_pass

(** [plan ?pool ?domains ?auto ?workload ?fp ~tasks ~cost ()] decides how
    an entry point runs: [Serial] when there are fewer than two tasks or one
    worker, or when [auto] is set and [cost] (in tasks × graph edges) is
    below the effective cutoff; otherwise [Parallel n] with the pool size or
    [domains] workers. The effective cutoff is the {!auto_cutoff} floor
    raised by {!measured_cutoff} once samples exist — but only when the
    fan-out would start cold: when [fp] (the snapshot's spec fingerprint)
    is already resident in every pool worker the import charge is waived
    and the floor alone decides. The cutoff is doubled for [Sharded_pass]
    workloads (their speedup is bounded by the pass count). Both entry
    points route through this single decision, so their serial fallbacks
    are uniform. *)
val plan :
  ?pool:Par.Pool.t ->
  ?domains:int ->
  ?auto:bool ->
  ?workload:workload ->
  ?fp:string ->
  tasks:int ->
  cost:int ->
  unit ->
  plan

(** Static floor of the [auto] cost threshold, in units of tasks × graph
    edges. Setting it to [0] disables the serial fallback entirely (the test
    escape hatch); setting it to [max_int] forces serial. *)
val auto_cutoff : int ref

(** The measured break-even cost: average worker graph-import time divided
    by the serial engine's measured time per cost unit — a job cheaper than
    one graph import cannot win from a cold fan-out. [None] until both an
    import and a serial run have been sampled. *)
val measured_cutoff : unit -> int option

(** The cutoff {!plan} actually compares against in [auto] mode. [warm]
    (default false) waives the measured per-worker import charge — the
    workers already hold the graph. *)
val effective_cutoff :
  ?warm:bool -> workload:workload -> workers:int -> unit -> int

(** How many persistent pool workers currently hold the graph with spec
    fingerprint [fp] in their domain-local MRU cache. Maintained by the
    workers themselves on import/eviction; spawned (non-pool) domains never
    register. *)
val resident_workers : string -> int

(** {2 Worker-resident cache introspection} *)

(** Process-wide counters [(imports, reuses)]: how many times a worker
    domain materialized a graph from a spec versus served it from its
    domain-local cache. Reuses only accrue on persistent pools (spawned
    domains die with their cache). *)
val worker_stats : unit -> int * int

(** Worker-side entry: fetch (or materialize) the calling domain's private
    query object for the snapshot identified by [fp], from its
    manager-independent [spec]. Must run inside the worker that will use the
    result (the MRU cache is domain-local). [spec]/[fp] should come from
    {!Fquery.spec_with_fingerprint} computed on the caller before fan-out.
    Exposed so other subsystems (the failure-scenario sweep) can share the
    per-worker resident graph cache. *)
val worker_query :
  fp:string ->
  spec:Fgraph.spec ->
  dp:Dataplane.t ->
  configs:(string -> Vi.t option) ->
  unit ->
  Fquery.t

(** Number of graphs cached in the calling domain's own worker cache. *)
val worker_cached_graphs : unit -> int

(** Per-worker MRU capacity for resident imported graphs (default 4).
    A long-lived service should size it to its live-snapshot count:
    a capacity below the number of snapshots in active rotation makes
    every fan-out re-import a graph some other query just evicted
    (the stuck-at-9% hit-rate failure). Clamped to at least 1. *)
val set_worker_cache_capacity : int -> unit

val worker_cache_capacity : unit -> int

(** [prewarm ?pool q] imports [q]'s graph into every resident pool worker
    up front (one broadcast) and runs {!Fquery.all_pairs} over the default
    starts there, so the first query against the snapshot finds the workers
    warm instead of paying the per-worker spec import inside its own
    latency. Returns the number of workers warmed; [0] without a
    live pool. Must not be called from inside a pool worker. *)
val prewarm : ?pool:Par.Pool.t -> Fquery.t -> int

(** Aggregate over a pool's resident workers: how many responded, total
    cached graphs, the configured per-worker capacity, process-wide
    eviction count, and the summed {!Bdd.cache_stats} of their private
    managers. *)
type worker_cache_report = {
  wr_workers : int;
  wr_cached : int;
  wr_capacity : int;
  wr_evictions : int;
  wr_hits : int;
  wr_misses : int;
  wr_entries : int;
  wr_filled : int;
}

val worker_cache_stats : Par.Pool.t -> worker_cache_report
