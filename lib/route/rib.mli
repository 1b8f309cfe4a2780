(** Delta-tracking RIBs (§4.1.3).

    A RIB keeps candidate routes per prefix and exposes the multipath best
    set. Changes to best sets accumulate in a delta; receivers pull the delta
    each iteration instead of being pushed per-neighbor queues, which is the
    paper's queue-free hybrid scheme. Deltas are normalized: a route added
    and removed within the same iteration cancels out. *)

type t

(** [prefer] is a strict total preference (negative = first argument is
    better); [multipath_equal] says when two routes can be installed together
    (ECMP); [max_paths] caps the best set. *)
val create :
  prefer:(Route.t -> Route.t -> int) ->
  multipath_equal:(Route.t -> Route.t -> bool) ->
  max_paths:int ->
  unit ->
  t

(** Insert or replace the candidate with the same {!Route.candidate_key}. *)
val merge : t -> Route.t -> unit

(** Replace the rib's whole contents in one pass, as if it had been wiped and
    every route [merge]d in list order — same candidate ordering, same best
    sets — but with a single selection per net and no per-merge delta
    bookkeeping. The delta table is reset. Built for wholesale per-node
    rebuilds (the incremental engine's warm re-step), where deltas are
    tracked by comparing RIB snapshots instead. *)
val reload : t -> Route.t list -> unit

(** [assign rib ~from] gives [rib] exactly [from]'s candidates and best sets
    in O(1), by sharing [from]'s persistent trie: later changes to either RIB
    replace its own trie and never reach the other. [rib] keeps its own
    comparator and multipath cap (the stored best sets are [from]'s, so the
    two should select alike) and its delta table is reset. Built for the
    incremental engine, which starts a node whose inputs did not change from
    its base fixed point instead of re-deriving it. *)
val assign : t -> from:t -> unit

(** Remove the candidate with the same key as this route. *)
val withdraw : t -> Route.t -> unit

(** Remove all candidates matching the predicate. *)
val withdraw_where : t -> (Route.t -> bool) -> unit

(** The multipath best set for an exact prefix. *)
val best : t -> Prefix.t -> Route.t list

(** Longest-prefix match over prefixes that currently have a best set. *)
val lookup : t -> Ipv4.t -> (Prefix.t * Route.t list) option

(** All best routes across prefixes. *)
val best_routes : t -> Route.t list

(** All candidates (the memory-relevant population). *)
val candidates : t -> Route.t list

val fold_best : (Prefix.t -> Route.t list -> 'a -> 'a) -> t -> 'a -> 'a

(** Fold over every prefix with its full candidate list and its best set
    ([f prefix candidates best acc]) — the view the incremental engine's
    ambiguity detector needs. *)
val fold_entries : (Prefix.t -> Route.t list -> Route.t list -> 'a -> 'a) -> t -> 'a -> 'a

(** Net best-set changes since the last call: (added, removed). Clears the
    delta. *)
val take_delta : t -> Route.t list * Route.t list

(** Peek: does the RIB have a pending non-empty delta? *)
val dirty : t -> bool

(** Number of prefixes with a non-empty best set. *)
val prefix_count : t -> int

val best_count : t -> int
val candidate_count : t -> int
