type entry = { candidates : Route.t list; best : Route.t list }

type t = {
  prefer : Route.t -> Route.t -> int;
  multipath_equal : Route.t -> Route.t -> bool;
  max_paths : int;
  mutable trie : entry Prefix_trie.t;
  (* Net delta: route -> count (+ added, - removed). Keys use arrival-less
     structural identity via Route.same semantics. *)
  delta : (Route.t, int) Hashtbl.t;
}

let create ~prefer ~multipath_equal ~max_paths () =
  { prefer; multipath_equal; max_paths; trie = Prefix_trie.empty;
    delta = Hashtbl.create 64 }

let delta_key (r : Route.t) = { r with arrival = 0 }

let bump rib r n =
  let k = delta_key r in
  let c = Option.value (Hashtbl.find_opt rib.delta k) ~default:0 + n in
  if c = 0 then Hashtbl.remove rib.delta k else Hashtbl.replace rib.delta k c

let select rib candidates =
  match List.stable_sort rib.prefer candidates with
  | [] -> []
  | top :: rest ->
    let equals = List.filter (rib.multipath_equal top) rest in
    let rec take n acc = function
      | [] -> List.rev acc
      | r :: rest -> if n = 0 then List.rev acc else take (n - 1) (r :: acc) rest
    in
    top :: take (rib.max_paths - 1) [] equals

let update_entry rib prefix f =
  let old_entry =
    Option.value
      (Prefix_trie.find prefix rib.trie)
      ~default:{ candidates = []; best = [] }
  in
  let candidates = f old_entry.candidates in
  let best = select rib candidates in
  (* Delta = symmetric difference of best sets, ignoring arrival clocks. *)
  let removed = List.filter (fun r -> not (List.exists (Route.same r) best)) old_entry.best in
  let added = List.filter (fun r -> not (List.exists (Route.same r) old_entry.best)) best in
  List.iter (fun r -> bump rib r (-1)) removed;
  List.iter (fun r -> bump rib r 1) added;
  rib.trie <-
    (if candidates = [] then Prefix_trie.remove prefix rib.trie
     else Prefix_trie.add prefix { candidates; best } rib.trie)

let merge rib r =
  let key = Route.candidate_key r in
  update_entry rib r.Route.net (fun cands ->
      r :: List.filter (fun c -> Route.candidate_key c <> key) cands)

(* [reload rib routes] replaces the rib's entire contents with the state a
   full wipe followed by [merge]ing every route in list order would produce —
   in one pass: per net, candidates are deduplicated by {!Route.candidate_key}
   (a later route replaces an earlier one with the same key, and lands at the
   front, exactly like a sequence of merges) and [select] runs once instead of
   once per merge. The delta table is reset: wholesale rebuilders compare RIB
   snapshots, they don't consume deltas. *)
let reload rib routes =
  let nets : (Prefix.t, Route.t list ref) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (r : Route.t) ->
      let key = Route.candidate_key r in
      match Hashtbl.find_opt nets r.Route.net with
      | None -> Hashtbl.add nets r.Route.net (ref [ r ])
      | Some cell -> cell := r :: List.filter (fun c -> Route.candidate_key c <> key) !cell)
    routes;
  let trie = ref Prefix_trie.empty in
  Hashtbl.iter
    (fun net cell ->
      let candidates = !cell in
      trie := Prefix_trie.add net { candidates; best = select rib candidates } !trie)
    nets;
  rib.trie <- !trie;
  Hashtbl.reset rib.delta

(* [assign rib ~from] points [rib] at [from]'s contents. The trie is
   persistent and every mutator above replaces it rather than editing it, so
   sharing it is safe in both directions; [rib] keeps its own comparator, cap
   and (reset) delta table. *)
let assign rib ~from =
  rib.trie <- from.trie;
  Hashtbl.reset rib.delta

let withdraw rib r =
  let key = Route.candidate_key r in
  update_entry rib r.Route.net (fun cands ->
      List.filter (fun c -> Route.candidate_key c <> key) cands)

let withdraw_where rib pred =
  let prefixes =
    Prefix_trie.fold
      (fun p e acc -> if List.exists pred e.candidates then p :: acc else acc)
      rib.trie []
  in
  List.iter
    (fun p -> update_entry rib p (fun cands -> List.filter (fun c -> not (pred c)) cands))
    prefixes

let best rib prefix =
  match Prefix_trie.find prefix rib.trie with
  | Some e -> e.best
  | None -> []

let lookup rib ip =
  (* Deepest match with a non-empty best set. *)
  let matches = Prefix_trie.all_matches ip rib.trie in
  List.fold_left
    (fun acc (p, e) -> if e.best <> [] then Some (p, e.best) else acc)
    None matches

let fold_best f rib acc = Prefix_trie.fold (fun p e acc -> f p e.best acc) rib.trie acc

let fold_entries f rib acc =
  Prefix_trie.fold (fun p e acc -> f p e.candidates e.best acc) rib.trie acc
let best_routes rib = fold_best (fun _ b acc -> b @ acc) rib []

let candidates rib =
  Prefix_trie.fold (fun _ e acc -> e.candidates @ acc) rib.trie []

let take_delta rib =
  let added, removed =
    Hashtbl.fold
      (fun r c (add, del) ->
        if c > 0 then (r :: add, del) else if c < 0 then (add, r :: del) else (add, del))
      rib.delta ([], [])
  in
  Hashtbl.reset rib.delta;
  (added, removed)

let dirty rib = Hashtbl.length rib.delta > 0

let prefix_count rib =
  Prefix_trie.fold (fun _ e n -> if e.best <> [] then n + 1 else n) rib.trie 0

let best_count rib = fold_best (fun _ b n -> n + List.length b) rib 0

let candidate_count rib =
  Prefix_trie.fold (fun _ e n -> n + List.length e.candidates) rib.trie 0
