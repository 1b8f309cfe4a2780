(** The public entry point: snapshots and the four-stage pipeline.

    {[
      let snapshot = Batfish.Snapshot.of_dir "configs/" in
      let bf = Batfish.init snapshot in
      let dp = Batfish.dataplane bf in            (* stage 2 *)
      let q = Batfish.forwarding bf in            (* stage 3 engine *)
      Questions.print_answer (Batfish.answer_reachability bf ...)
    ]} *)

module Snapshot : sig
  type t

  (** [(filename, config text)] pairs; vendors are auto-detected. A file
      whose parse raises is skipped with a [Fatal] diag; duplicate hostnames
      keep the first definition and emit an [Error] diag. [?diags] prepends
      diagnostics gathered before parsing (used by {!of_dir}). [?base]
      enables fingerprint-keyed parse reuse: a file whose name and content
      digest match one in [base] takes that snapshot's parse result (model
      and diags) without re-parsing — the result is indistinguishable from a
      base-less parse because parsing is deterministic in the text. *)
  val of_texts : ?diags:Diag.t list -> ?base:t -> (string * string) list -> t

  (** Reads every regular file in a directory as a configuration. Dotfiles
      and unreadable files are skipped with a diag instead of raising;
      handling order is deterministic (sorted by name). *)
  val of_dir : string -> t

  (** The raw directory read behind {!of_dir}: [(name, text)] pairs plus the
      skipped/unreadable diagnostics, without parsing anything. *)
  val read_dir : string -> (string * string) list * Diag.t list

  val of_network : Netgen.network -> t
  val configs : t -> Vi.t list

  (** Every successfully parsed file, {e before} duplicate-hostname
      first-wins dedup — the view the duplicate-identity lint needs. *)
  val parsed_files : t -> (string * Vi.t) list

  (** Per-config parse diagnostics (post-dedup configs only). *)
  val parse_warnings : t -> (Vi.t * Diag.t list) list

  (** Parse/convert diagnostics, including every parse warning. *)
  val diags : t -> Diag.t list

  val find : t -> string -> Vi.t option
  val node_names : t -> string list

  (** The input [(filename, text)] pairs, in file order. *)
  val files : t -> (string * string) list

  (** Per-file content fingerprints (MD5 hex), in file order. *)
  val fingerprints : t -> (string * string) list

  (** How many files this construction actually parsed (the rest were
      fingerprint-reused from the base snapshot). *)
  val reparsed : t -> int

  (** Hostnames whose derived vendor-independent model differs between the
      two snapshots, sorted; includes added and removed hosts. Structural
      comparison: cosmetic edits (comments, spacing) report no change. *)
  val changed_nodes : base:t -> t -> string list
end

type t

(** [init snap] opens an analysis session. With [options.domains > 1] the
    session lazily creates one persistent {!Par.Pool} the first time a
    parallel phase runs and reuses it for every later phase (dataplane
    rounds, query fan-out, lint), keeping worker-resident BDD state warm.
    [auto_domains] (default false) enables the adaptive cutoff: symbolic
    queries whose estimated cost is too small to amortize the fan-out run
    serially. *)
val init :
  ?options:Dataplane.options ->
  ?env:Dp_env.t ->
  ?auto_domains:bool ->
  Snapshot.t ->
  t

val snapshot : t -> Snapshot.t

(** The session's persistent worker pool, created on first use; [None] when
    the session is single-domain. *)
val session_pool : t -> Par.Pool.t option

(** [(workers, jobs_run)] of the live session pool, if any. *)
val pool_stats : t -> (int * int) option

(** Shut down the session pool (idempotent; safe when no pool exists).
    Sessions derived via {!update} share their base's pool, so shut down
    only when done with the whole lineage. *)
val shutdown : t -> unit

(** Stage 2, computed once and cached. *)
val dataplane : t -> Dataplane.t

(** Stage 3 engine (forwarding graph), computed once and cached.
    @raise Failure if graph construction fails (see {!try_forwarding}). *)
val forwarding : t -> Fquery.t

(** Like {!forwarding} but fault-isolated: a crash during graph construction
    is returned (and recorded) as a [Fatal] forwarding diag. *)
val try_forwarding : t -> (Fquery.t, Diag.t) result

(** Content identity of the session's snapshot: a digest over the per-file
    [(name, md5)] fingerprints in file order. Computable without parsing;
    byte-identical file sets share it. The analysis service keys its
    snapshot store on this to dedup identical configs across clients. *)
val fingerprint : t -> string

(** Import this session's forwarding graph into every resident pool worker
    ({!Fpar.prewarm}), so the first parallel query starts warm. Forces the
    data plane and forwarding graph. Returns the number of workers warmed
    ([0] when single-domain or forwarding cannot be built). *)
val prewarm : t -> int

(** (hits, misses) of the forwarding query memo; [None] until the
    forwarding engine has been built. Never forces computation. *)
val memo_stats : t -> (int * int) option

(** All diagnostics produced so far: snapshot parse/convert diags, data-plane
    diags (once computed), and forwarding diags. Never forces computation. *)
val diags : t -> Diag.t list

(** True when any [Error] or [Fatal] diagnostic was produced (the CLI's
    [--strict] gate). *)
val strict_failure : t -> bool

(** Concrete traceroute through the computed data plane. *)
val traceroute : t -> start:string -> ?ingress:string -> Packet.t -> Traceroute.trace list

(** {2 Question shortcuts} *)

val answer_init_issues : t -> Questions.answer

(** The structured diagnostics table (see {!diags}). *)
val answer_diagnostics : t -> Questions.answer
val answer_undefined_references : t -> Questions.answer
val answer_unused_structures : t -> Questions.answer
val answer_duplicate_ips : t -> Questions.answer
val answer_bgp_compatibility : t -> Questions.answer
val answer_bgp_status : t -> Questions.answer
val answer_property_consistency : t -> Questions.answer
val answer_routes : ?node:string -> ?protocol:string -> t -> Questions.answer
val answer_multipath_consistency : t -> Questions.answer

(** All-pairs reachability, sharded over [options.domains] worker domains
    (identical rows at any domain count). *)
val answer_all_pairs : t -> Questions.answer

val answer_loops : t -> Questions.answer

(** Failure-scenario sweep ({!Failures.run}) over this session: every single
    ([k = 1], the default) or single-and-double ([k = 2]) link/node failure,
    atom-pruned and re-checked warm on the session pool. Sweep diagnostics
    (inconclusive scenarios, disabled pruning) are folded into {!diags}. *)
val failure_report :
  ?k:int -> ?max_properties:int -> ?prune:bool -> t -> Failures.report

(** {!failure_report} rendered as answers: the sweep summary followed by the
    per-property verdict table (minimal failing scenario + counterexample). *)
val answer_failures :
  ?k:int ->
  ?max_properties:int ->
  ?prune:bool ->
  t ->
  Failures.report * Questions.answer list

val answer_reachability :
  t -> src:Fquery.start -> dst_ip:Prefix.t -> ?hdr:Bdd.t -> unit -> Questions.answer

(** {2 Coverage}

    Which config source lines influence the forwarding behavior exercised
    by the query set ({!Coverage}). Uses the session's data plane and
    memoized query engine when they can be built, and degrades to the
    purely static report (never raising) when they cannot. *)

val coverage : t -> Coverage.report

(** Per-file covered/uncovered/dead counts as a printable table. *)
val answer_coverage : t -> Questions.answer

(** {2 Lint}

    The static-analysis registry ({!Lint}) over this snapshot: no data plane
    is computed or required. *)

(** The lint context for this snapshot (pre-dedup files included, so the
    duplicate-identity pass sees shadowed hostnames). *)
val lint_ctx : t -> Lint.ctx

(** Run selected lint passes; [Error msg] on an unknown pass name. *)
val lint :
  ?select:string list -> ?ignore_passes:string list -> t -> (Lint.report, string) result

(** Run every registered pass. *)
val lint_all : t -> Lint.report

(** {!lint_all} as a printable table. *)
val answer_lint : t -> Questions.answer

(** Every configuration-hygiene check at once (the continuous-validation
    bundle of §5.2), lint included. *)
val check_all : t -> Questions.answer list

(** {2 Incremental analysis (CI-style repeated snapshots)}

    Engine counters for one {!update}: how much was re-parsed, which hosts
    changed, and how much of the data plane / forwarding state was reused. *)
type update_report = {
  up_files_changed : int;  (** added + removed + content-changed files *)
  up_files_reparsed : int;
  up_nodes_changed : string list;
  up_components : int;
  up_dirty_components : int;
  up_nodes_simulated : int;
  up_nodes_reused : int;
  up_frontier_size : int;
      (** nodes the route-delta worklist re-simulated inside dirty
          components — where advertisement propagation actually reached *)
  up_nodes_converged_early : int;
      (** re-simulated nodes whose fixed point came back identical to the
          base: the ring where propagation died out *)
  up_forwarding_rebuilt : bool;
  up_memo_invalidated : int;
}

(** [update ~files t] re-analyzes the session after a change: [files] are
    the added/modified [(name, text)] pairs, [?removed] names deleted files.
    Only changed files are re-parsed (content fingerprints), the dirty node
    set is derived from the explicit dependency map (L3 adjacency + BGP
    sessions), the data-plane fixed point re-runs only on the nodes the edit
    actually disturbs (the route-delta worklist; clean nodes and components
    carry their RIBs/FIBs over from the base), and the forwarding graph is
    rebuilt in the warm BDD environment — or kept, memo included, when
    forwarding did not change. The result is bit-identical to a from-scratch
    analysis of the new file set. Forces the base data plane if not yet
    computed; the forwarding engine is only rebuilt if the base had built
    it. *)
val update :
  ?removed:string list ->
  ?diags:Diag.t list ->
  files:(string * string) list ->
  t ->
  t * update_report

(** The report as a printable metric table. *)
val answer_update_report : update_report -> Questions.answer

(** Differential reachability between two snapshots (proactive validation of
    a change, §5.1). Builds both forwarding graphs over one shared variable
    environment. *)
val differential :
  base:t -> candidate:t -> ?srcs:Fquery.start list -> unit -> Questions.answer

(** {2 The §4.3.2 differential engine testing harness} *)

(** Cross-validate the BDD engine against traceroute on this snapshot:
    for every edge interface, check representative packets in both
    directions. Returns the number of flows checked; raises [Failure] with a
    description on any disagreement. *)
val differential_engine_test : ?flows_per_location:int -> t -> int
