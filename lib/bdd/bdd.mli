(** Reduced ordered binary decision diagrams.

    This is the symbolic backend of the data-plane verification engine
    (paper §4.2). Nodes are hash-consed into a manager, so BDDs are canonical:
    two BDDs over the same manager represent the same boolean function iff
    they are physically equal ({!equal} is [==] on node ids). The manager owns
    a unique table and a 2-way set-associative operation cache (an MRU way
    plus a victim way per set, so two hot keys that hash together coexist);
    identity-based cache hits short-circuit full traversals, as the paper
    notes.

    Variables are identified by their level in the (fixed) variable order:
    level 0 is tested first. *)

type man
type t = int

(** [create ~nvars ()] makes a manager for variables [0 .. nvars-1].
    [cache_bits] sizes the operation caches at [2^cache_bits] entries
    initially; the cache grows automatically (doubling, rehashing warm
    entries) up to [2^max_cache_bits] entries when the observed miss rate
    degrades. Growth affects performance only — results are canonical and
    node ids unchanged.

    The manager stores packed 32-bit values outside the GC's scanned heap:
    12 bytes per node, 4 bytes per unique-table bucket and 16 bytes per
    op-cache entry (4 MB for the default [2^18] entries). Raises
    [Invalid_argument] if [nvars] exceeds [2^26] (restrict literals [2v + b]
    share a 31-bit op code with a 4-bit op kind). *)
val create : ?cache_bits:int -> ?max_cache_bits:int -> nvars:int -> unit -> man

val nvars : man -> int

(** Number of live nodes in the manager (grows monotonically; there is no
    garbage collection — analyses use a fresh manager per snapshot). Node
    ids stay below [2^31 - 1]: an operation that would create one more
    raises [Invalid_argument]. *)
val node_count : man -> int

val bot : t
val top : t

(** [var man v] is the function "variable v is true". *)
val var : man -> int -> t

(** [nvar man v] is the function "variable v is false". *)
val nvar : man -> int -> t

(** [ite_raw man v lo hi] builds the node testing level [v] directly; [v]
    must be strictly less than the root levels of [lo] and [hi]. *)
val ite_raw : man -> int -> t -> t -> t

val equal : t -> t -> bool
val is_bot : t -> bool
val is_top : t -> bool
val band : man -> t -> t -> t
val bor : man -> t -> t -> t
val bxor : man -> t -> t -> t

(** [bdiff man a b] is [a ∧ ¬b]. *)
val bdiff : man -> t -> t -> t

(** Relation tests that allocate no node: [intersects man a b] is
    [not (is_bot (band man a b))] and [leq man a b] is
    [is_bot (bdiff man a b)]. Both stop at the first witness and are
    memoized in the op cache, so {!node_count} is unchanged by either. *)
val intersects : man -> t -> t -> bool
val leq : man -> t -> t -> bool

val bnot : man -> t -> t
val bimplies : man -> t -> t -> t
val ite : man -> t -> t -> t -> t
val conj : man -> t list -> t
val disj : man -> t list -> t

(** Variable sets for quantification. Registered against a manager so
    operations can be cached. Varsets and perms share a per-manager id
    space of [2^27]; creating one more raises [Invalid_argument], so mint
    them once and reuse them. *)
type varset

val varset : man -> int list -> varset
val varset_mem : varset -> int -> bool

(** Order-compatible variable renamings. [perm man pairs] renames level
    [a] to level [b] for each [(a, b)]. The mapping must preserve relative
    order on the variables that actually occur in the argument BDD, and no
    target variable may occur in it. *)
type perm

val perm : man -> (int * int) list -> perm

(** How many varset/perm ids the manager has minted so far (read-only; a
    count that keeps rising on repeated work means ids are being leaked). *)
val aux_count : man -> int

val exists : man -> varset -> t -> t
val replace : man -> perm -> t -> t

(** Variable substitution valid for arbitrary permutations (e.g. swapping
    source and destination fields). Correct where {!replace} would require
    order compatibility; potentially slower. *)
val compose_perm : man -> perm -> t -> t

(** [and_exists man vs a b] = [exists man vs (band man a b)], computed in one
    pass (relational product). *)
val and_exists : man -> varset -> t -> t -> t

(** [transform man ~rel ~quant ~rename a] applies a packet-transformation
    relation: [replace rename (exists quant (band a rel))], fused into a
    single traversal. This is the optimized NAT operation of §4.2.3. Each
    distinct [(quant, rename)] pair is interned into one of [2^27]
    per-manager transform ids; one more raises [Invalid_argument]. *)
val transform : man -> rel:t -> quant:varset -> rename:perm -> t -> t

(** The same three steps executed separately (baseline for the ablation). *)
val transform_unfused : man -> rel:t -> quant:varset -> rename:perm -> t -> t

(** Restrict a variable to a constant. Raises [Invalid_argument] if the
    level is out of range. *)
val restrict : man -> int -> bool -> t -> t

(** Levels occurring in the BDD, ascending. *)
val support : man -> t -> int list

(** Number of nodes reachable from the root (including terminals). *)
val size : man -> t -> int

(** Number of satisfying assignments over [nvars] variables. *)
val sat_count : man -> t -> float

(** A satisfying assignment as [(level, value)] pairs for the levels tested
    on the chosen path; unmentioned levels are unconstrained.
    Returns [None] for [bot]. Prefers [false] branches, so unconstrained-
    looking (all-zero) witnesses come out when possible. *)
val any_sat : man -> t -> (int * bool) list option

(** [eval man t assign] evaluates under a total assignment. *)
val eval : man -> t -> (int -> bool) -> bool

(** [pick_preferred man t prefs] intersects [t] with each preference in order,
    keeping only intersections that remain satisfiable (§4.4.3 example
    selection). The result is a non-empty subset of [t] when [t] is
    non-empty. *)
val pick_preferred : man -> t -> t list -> t

(** Cache/unique-table statistics for benchmarks: (nodes, cache_hits,
    cache_misses). *)
val stats : man -> int * int * int

(** [(live_managers, total_nodes)] across every manager still alive in the
    process, worker-domain managers included. Managers are tracked weakly
    from {!create}, so collected managers drop out; node counts of managers
    owned by other domains are sampled without synchronization (fine for
    benchmark reporting, not a precise barrier). *)
val global_stats : unit -> int * int

(** Current operation-cache capacity in entries (grows adaptively). *)
val cache_size : man -> int

(** Operation-cache health counters: lifetime hits/misses, current capacity
    in entries, and how many entries are occupied. Hit rate is
    [cs_hits /. (cs_hits + cs_misses)]; occupancy is
    [cs_filled /. cs_entries]. *)
type cache_stats = {
  cs_hits : int;
  cs_misses : int;
  cs_entries : int;
  cs_filled : int;
}

val cache_stats : man -> cache_stats

(** {2 Manager-independent export/import}

    A forwarding graph's edge programs can be compiled out of one manager and
    re-materialized into a private manager per worker domain. [export] packs
    the BDDs reachable from [roots] into a compact child-before-parent node
    table; [import] rebuilds them in another manager (over at least as many
    variables), yielding BDDs denoting exactly the same boolean functions.
    Since BDDs are canonical, every derived observation (satisfiability,
    witnesses, evaluation) is identical across managers. *)
type exported

(** [export man roots] packs the listed BDDs into a manager-independent
    table. *)
val export : man -> t list -> exported

(** [import man ex] rebuilds the exported BDDs in [man], returning the new
    roots in the same order as the [roots] given to {!export}. Raises
    [Invalid_argument] if a variable is out of range for [man]. *)
val import : man -> exported -> t list

(** Number of distinct internal nodes in the exported table. *)
val exported_nodes : exported -> int
