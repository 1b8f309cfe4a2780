(** Data-plane verification queries over the forwarding graph, with the
    usability machinery of §4.4: scoped defaults and positive/negative
    example selection. *)

(** Memo key for whole-graph backward passes; see {!memo_stats}. *)
type memo_key =
  | Mk_delivered of string option * Bdd.t
  | Mk_dropped of Bdd.t

type t = {
  g : Fgraph.t;
  dp : Dataplane.t;
  configs : string -> Vi.t option;
  memo : (memo_key, Bdd.t array) Hashtbl.t;
      (** snapshot-keyed query memo: a [t] wraps one graph of one snapshot,
          so (same graph, same header set) ⇒ the cached propagation result.
          Callers must treat cached arrays as read-only. *)
  mutable memo_hits : int;
  mutable memo_misses : int;
  mutable spec_cache : (Fgraph.spec * string) option;
      (** lazily computed manager-independent spec + fingerprint; managed by
          {!spec_with_fingerprint}, do not write. *)
}

(** A flow start location: [(node, Some iface)] for packets entering at an
    interface, [(node, None)] for packets originated by the device. *)
type start = string * string option

(** Wrap an already-built graph (fresh, empty memo). *)
val of_graph :
  Fgraph.t ->
  dp:Dataplane.t ->
  configs:(string -> Vi.t option) ->
  t

(** [compress] is the chain-contraction switch of {!Fgraph.build}. *)
val make :
  ?env:Pktset.t ->
  ?compress:bool ->
  configs:(string -> Vi.t option) ->
  dp:Dataplane.t ->
  unit ->
  t

val graph : t -> Fgraph.t

(** The graph compiled to a manager-independent spec, plus that spec's
    content fingerprint — computed once per query object and cached (the
    wrapped graph is immutable). Parallel entry points ship the spec to
    worker domains and use the fingerprint to key each worker's resident
    imported-graph cache. *)
val spec_with_fingerprint : t -> Fgraph.spec * string

(** The spec fingerprint if {!spec_with_fingerprint} has already computed
    it, without forcing the spec export. Used by the adaptive planner as a
    zero-cost warmth probe: workers can only hold a graph whose spec was
    shipped to them, which computes the fingerprint as a side effect. *)
val cached_fingerprint : t -> string option

(** (hits, misses) of the query memo. *)
val memo_stats : t -> int * int

(** Incremental rebuild against a base query. [dirty] lists the hostnames
    whose data-plane results changed: when empty, [base] itself is returned
    (graph, manager and memo intact). Otherwise the graph is rebuilt for the
    new [configs]/[dp] inside [base]'s warm BDD environment; if its canonical
    spec fingerprint equals the base's the edit did not change forwarding and
    the base graph plus its whole memo are kept (zero entries invalidated),
    else the memo starts fresh and the number of invalidated entries is
    returned. Either way {!graph} answers with physically the base graph
    exactly when forwarding was unchanged. Canonicity makes the rebuilt
    query's spec and rows bit-identical to a from-scratch {!make}. *)
val update :
  base:t ->
  dirty:string list ->
  configs:(string -> Vi.t option) ->
  dp:Dataplane.t ->
  unit ->
  t * int

(** Fault-isolated {!make}: an exception during graph construction is
    returned as a [Fatal] forwarding diagnostic instead of escaping. *)
val make_checked :
  ?env:Pktset.t ->
  ?compress:bool ->
  configs:(string -> Vi.t option) ->
  dp:Dataplane.t ->
  unit ->
  (t, Diag.t) result

(** {2 Compatibility stubs}

    The forwarding engine has no quotient; these two constants exist only
    because the perfbench driver still reports [compress.*] counters, and
    that driver changes only together with the benchmark itself. *)

(** Always [None]. *)
val compression_info : t -> (float * int * string) option

(** Always [(0, 0)]. *)
val compress_stats : t -> int * int

(** Group [starts] whose locations are interchangeable sources — in-edge-
    free with identical concrete out-edges (same targets, equal edge
    functions) — tagged with their original index, preserving first-
    occurrence order. One forward pass answers a whole group: the fixpoint
    from either seed agrees everywhere beyond the seeds, so rows differ
    only in the source label (multi-port access switches are the common
    case); starts that do not qualify get singleton groups. {!all_pairs}
    runs one pass per group; {!Fpar.all_pairs} makes each group one
    parallel task. *)
val start_groups : t -> start list -> (int * start) list list

val env : t -> Pktset.t

(** The set with all query-local extra bits zero (seeds must use it). *)
val clean : t -> Bdd.t

(** Forward propagation from start locations; [hdr] scopes the headers. *)
val forward_from : t -> ?hdr:Bdd.t -> start list -> Bdd.t array

(** Per-location sets that can still reach a delivered disposition
    ([Accept]/[Dst]), optionally at a specific node, computed backward. *)
val to_delivered : t -> ?at:string -> ?hdr:Bdd.t -> unit -> Bdd.t array

(** Per-location sets that can still reach a drop. *)
val to_dropped : t -> ?hdr:Bdd.t -> unit -> Bdd.t array

(** Union of a set array over delivered locations (optionally at a node). *)
val delivered_union : t -> ?at:string -> Bdd.t array -> Bdd.t

(** [reachable t ~src ~dst_ip ()] is the set of packets entering at [src]
    that are delivered somewhere, constrained to destination [dst_ip]. *)
val reachable : t -> src:start -> ?hdr:Bdd.t -> ?dst_ip:Prefix.t -> unit -> Bdd.t

(** Default start scoping (§4.4.2): edge-facing interfaces. *)
val default_starts : t -> start list

(** Multipath consistency (the Figure 3 benchmark query): for every start
    location, flows that are delivered along some paths and dropped along
    others. Uses two backward passes. *)
val multipath_consistency :
  t -> ?starts:start list -> unit -> (start * Bdd.t) list

(** {2 All-pairs reachability}

    One row per (start, destination node) pair with a non-empty delivered
    set. Rows are plain data — strings and a concrete example packet — so
    per-start passes computed on different BDD managers (worker domains)
    merge without any cross-manager transfer, and the merged list is
    byte-identical to the sequential one. *)
type reach_row = {
  rr_src : start;
  rr_dst : string;
  rr_example : Packet.t option;
}

(** One forward pass: every destination node reachable from [s]. Rows come
    out in location-index order (deterministic). *)
val pairs_for_start : t -> ?hdr:Bdd.t -> start -> reach_row list

(** [all_pairs t ()] is the concatenation of {!pairs_for_start} over
    [starts] (default {!default_starts}), in start order. It runs one pass
    per {!start_groups} group and relabels the representative's rows for
    the other members — the result is bit-identical to the per-start
    sweep. *)
val all_pairs : t -> ?hdr:Bdd.t -> ?starts:start list -> unit -> reach_row list

(** Waypoint query (§4.2.3): packets from [src] delivered at [dst_node]
    whose paths traversed ([`Through]) or avoided ([`Avoid]) [waypoint].
    Returns (compliant, violating). *)
val waypoint :
  t ->
  src:start ->
  dst_node:string ->
  waypoint:string ->
  mode:[ `Through | `Avoid ] ->
  ?hdr:Bdd.t ->
  unit ->
  Bdd.t * Bdd.t

(** Bidirectional reachability (§4.2.3): flows from [src] delivered at
    [dst] whose return traffic (src/dst swapped) also makes it back,
    given the firewall sessions established by the forward direction.
    Returns (delivered_forward, round_trip). *)
val bidirectional :
  t -> src:start -> dst:string * string -> ?hdr:Bdd.t -> unit -> Bdd.t * Bdd.t

(** Forwarding loops: cycles in the graph that some packet set can traverse
    fully. Returns (nodes on the cycle, looping set). *)
val find_loops : t -> (string list * Bdd.t) list

(** §4.4.3: pick a violating example and a contrasting positive example from
    the two sets, biased toward realistic packets. *)
val pick_examples :
  t ->
  ?src_prefix:Prefix.t ->
  ?dst_prefix:Prefix.t ->
  violating:Bdd.t ->
  holding:Bdd.t ->
  unit ->
  Packet.t option * Packet.t option
