(* Memo keys for whole-graph backward passes. A [t] wraps one graph of one
   snapshot, so "same graph" is implicit in the table identity; the key is
   the query kind plus its parameters. Header sets are BDDs in the graph's
   manager, so they compare by canonical node id. *)
type memo_key =
  | Mk_delivered of string option * Bdd.t  (* at, hdr *)
  | Mk_dropped of Bdd.t  (* hdr *)

type t = {
  g : Fgraph.t;
  dp : Dataplane.t;
  configs : string -> Vi.t option;
  memo : (memo_key, Bdd.t array) Hashtbl.t;
  mutable memo_hits : int;
  mutable memo_misses : int;
  mutable spec_cache : (Fgraph.spec * string) option;
}

type start = string * string option

let of_graph g ~dp ~configs =
  { g; dp; configs; memo = Hashtbl.create 16; memo_hits = 0; memo_misses = 0;
    spec_cache = None }

(* The spec (and its fingerprint) is a function of the graph alone, and the
   graph inside a [t] never mutates (incremental update builds a new [t]),
   so computing both once per query object is sound. The cache lives here
   rather than in [Fgraph.t] because query combinators build [{ g with ... }]
   copies that would carry a stale cached spec. *)
let spec_with_fingerprint t =
  match t.spec_cache with
  | Some (spec, fp) -> (spec, fp)
  | None ->
    let spec = Fgraph.to_spec t.g in
    let fp = Fgraph.spec_fingerprint spec in
    t.spec_cache <- Some (spec, fp);
    (spec, fp)

(* The fingerprint if it has already been computed, without forcing the
   (milliseconds-scale) spec export. Workers can only be warm for a graph
   whose spec was shipped to them — which computes the fingerprint — so a
   [None] here is a sound "cold" answer for {!Fpar.plan}. *)
let cached_fingerprint t = Option.map snd t.spec_cache

let make ?env ?compress ~configs ~dp () =
  of_graph (Fgraph.build ?env ?compress ~configs ~dp ()) ~dp ~configs

let graph t = t.g
let memo_stats t = (t.memo_hits, t.memo_misses)

(* Constant stubs: the perfbench driver reports these counters and changes
   only together with the benchmark itself; the engine has no equivalence
   quotient to report on. *)
let compression_info (_ : t) : (float * int * string) option = None
let compress_stats (_ : t) = (0, 0)

let memo_find t key compute =
  match Hashtbl.find_opt t.memo key with
  | Some r ->
    t.memo_hits <- t.memo_hits + 1;
    r
  | None ->
    t.memo_misses <- t.memo_misses + 1;
    let r = compute () in
    Hashtbl.add t.memo key r;
    r

(* Incremental rebuild (ISSUE 4; memo retention in ISSUE 8). With an empty
   dirty set the base query — graph, manager, memo, counters — is returned
   as-is, so every cached propagation result survives the update. Otherwise
   the new graph is built inside the base's warm BDD environment, where
   hash-consing turns every unchanged node's edge functions into cache hits.
   If it is structurally identical to the base graph ({!Fgraph.same_graph} —
   physical BDD equality in the shared manager, the cheap exact equivalent
   of comparing canonical spec fingerprints), the edit did not touch
   forwarding at all and the base graph (memo included) is kept; otherwise
   the memo is keyed to the old graph's propagations, so it starts fresh and
   the count of dropped entries is reported. Canonicity makes the warm-env
   rebuild's exported spec and query rows bit-identical to a from-scratch
   build. *)
let update ~base ~dirty ~configs ~dp () =
  if dirty = [] then (base, 0)
  else begin
    let g = Fgraph.build ~env:(base.g.Fgraph.env) ~configs ~dp () in
    if Fgraph.same_graph base.g g then
      (* The edit left the forwarding graph semantically untouched (same
         canonical spec): keep the base graph object — and with it every
         memoized propagation — swapping in the new data plane and configs
         for scoping defaults. Canonicity makes the kept graph's spec and
         query rows bit-identical to what the fresh build would answer. *)
      ({ base with dp; configs }, 0)
    else begin
      let invalidated = Hashtbl.length base.memo in
      (of_graph g ~dp ~configs, invalidated)
    end
  end

(* Fault-isolated construction: graph building walks every FIB and compiles
   every referenced ACL, any of which may be garbage on a hostile snapshot. *)
let make_checked ?env ?compress ~configs ~dp () =
  try Ok (make ?env ?compress ~configs ~dp ())
  with exn ->
    Error
      (Diag.fatal ~phase:Diag.Forwarding ~code:Diag.code_forwarding_failed
         (Printf.sprintf "forwarding graph construction raised: %s"
            (Printexc.to_string exn)))

let env t = t.g.Fgraph.env

let clean t =
  let e = env t in
  let man = Pktset.man e in
  let acc = ref Bdd.top in
  for b = 0 to Pktset.extra_count e - 1 do
    acc := Bdd.band man !acc (Bdd.nvar man (Pktset.extra_level e b))
  done;
  !acc

let start_loc t (node, iface) =
  match iface with
  | Some i -> Fgraph.loc_id t.g (Fgraph.Src (node, i))
  | None -> Fgraph.loc_id t.g (Fgraph.Fwd node)

let seeds_of t ?hdr starts =
  let man = Pktset.man (env t) in
  let hdr = Option.value hdr ~default:Bdd.top in
  let seed = Bdd.band man hdr (clean t) in
  List.filter_map (fun s -> Option.map (fun id -> (id, seed)) (start_loc t s)) starts

let forward_from t ?hdr starts = Freach.forward t.g (seeds_of t ?hdr starts)

let delivered_pred ?at loc =
  match loc with
  | Fgraph.Accept n | Fgraph.Dst (n, _) -> (
    match at with
    | Some node -> n = node
    | None -> true)
  | Fgraph.Src _ | Fgraph.Fwd _ | Fgraph.Pre_out _ | Fgraph.Dropped _ -> false

let sink_seeds t pred ?hdr () =
  ignore (env t);
  let hdr = Option.value hdr ~default:Bdd.top in
  List.map (fun id -> (id, hdr)) (Fgraph.locs_where t.g pred)

let to_delivered t ?at ?hdr () =
  let hdr_b = Option.value hdr ~default:Bdd.top in
  memo_find t (Mk_delivered (at, hdr_b)) (fun () ->
      Freach.backward t.g (sink_seeds t (delivered_pred ?at) ?hdr ()))

let to_dropped t ?hdr () =
  let pred = function
    | Fgraph.Dropped _ -> true
    | Fgraph.Src _ | Fgraph.Fwd _ | Fgraph.Pre_out _ | Fgraph.Dst _ | Fgraph.Accept _ ->
      false
  in
  let hdr_b = Option.value hdr ~default:Bdd.top in
  memo_find t (Mk_dropped hdr_b) (fun () ->
      Freach.backward t.g (sink_seeds t pred ?hdr ()))

let delivered_union t ?at sets =
  let man = Pktset.man (env t) in
  List.fold_left
    (fun acc id -> Bdd.bor man acc sets.(id))
    Bdd.bot
    (Fgraph.locs_where t.g (delivered_pred ?at))

let reachable t ~src ?hdr ?dst_ip () =
  let man = Pktset.man (env t) in
  let hdr =
    match dst_ip with
    | Some p ->
      Bdd.band man (Option.value hdr ~default:Bdd.top) (Pktset.dst_prefix (env t) p)
    | None -> Option.value hdr ~default:Bdd.top
  in
  (* Backward from delivered sinks is cheaper than a full forward pass for a
     single start location. *)
  let back = to_delivered t ~hdr () in
  match start_loc t src with
  | Some id -> Bdd.band man (Bdd.band man back.(id) hdr) (clean t)
  | None -> Bdd.bot

let default_starts t =
  List.map (fun (n, i) -> (n, Some i)) (Fgraph.edge_interfaces t.g ~dp:t.dp)

let multipath_consistency t ?starts () =
  let man = Pktset.man (env t) in
  (* Scoping defaults (§4.4.2): start locations default to edge-facing
     interfaces. *)
  let starts =
    match starts with
    | Some s -> s
    | None -> default_starts t
  in
  let deliver = to_delivered t () in
  let drop = to_dropped t () in
  List.filter_map
    (fun s ->
      match start_loc t s with
      | None -> None
      | Some id ->
        let v = Bdd.band man (Bdd.band man deliver.(id) drop.(id)) (clean t) in
        if Bdd.is_bot v then None else Some (s, v))
    starts

(* Waypointing: instrument a copy of the graph so that traversing the
   waypoint node's FIB sets an extra bit, then test the bit at delivery. *)
let waypoint t ~src ~dst_node ~waypoint ~mode ?hdr () =
  let man = Pktset.man (env t) in
  let bit = Fgraph.zone_bits in
  let g = t.g in
  let instrumented =
    { g with
      Fgraph.out_edges =
        Array.map
          (List.map (fun (e : Fgraph.edge) ->
               match g.Fgraph.locs.(e.e_from) with
               | Fgraph.Fwd n when n = waypoint ->
                 { e with e_fn = Fgraph.Seq [ e.e_fn; Fgraph.Set_extra [ (bit, true) ] ] }
               | _ -> e))
          g.Fgraph.out_edges }
  in
  let seeds = seeds_of t ?hdr [ src ] in
  let sets = Freach.forward instrumented seeds in
  let delivered =
    List.fold_left
      (fun acc id -> Bdd.bor man acc sets.(id))
      Bdd.bot
      (Fgraph.locs_where g (delivered_pred ~at:dst_node))
  in
  let through =
    Bdd.band man delivered (Bdd.var man (Pktset.extra_level (env t) bit))
  in
  let avoided = Bdd.bdiff man delivered through in
  let strip = Pktset.strip_extra (env t) bit in
  match mode with
  | `Through -> (strip through, strip avoided)
  | `Avoid -> (strip avoided, strip through)

let bidirectional t ~src ~dst ?hdr () =
  let e = env t in
  let man = Pktset.man e in
  let dst_node, dst_iface = dst in
  (* forward pass: establishes sessions at stateful devices *)
  let fwd = forward_from t ?hdr [ src ] in
  let delivered =
    List.fold_left
      (fun acc id -> Bdd.bor man acc fwd.(id))
      Bdd.bot
      (Fgraph.locs_where t.g (fun l ->
           match l with
           | Fgraph.Dst (n, i) -> n = dst_node && i = dst_iface
           | Fgraph.Accept n -> n = dst_node
           | Fgraph.Src _ | Fgraph.Fwd _ | Fgraph.Pre_out _ | Fgraph.Dropped _ -> false))
  in
  let delivered = Pktset.strip_extras e delivered in
  (* session fast-path sets: return flows of everything that traversed each
     stateful device *)
  let sessions name =
    match Fgraph.loc_id t.g (Fgraph.Fwd name) with
    | Some id -> Pktset.swap_src_dst e (Pktset.strip_extras e fwd.(id))
    | None -> Bdd.bot
  in
  let g' = Fgraph.build ~env:e ~sessions ~configs:t.configs ~dp:t.dp () in
  (* fresh wrapper: the memo table is keyed per-graph, so the instrumented
     graph must not share the original's cache *)
  let t' = of_graph g' ~dp:t.dp ~configs:t.configs in
  (* return direction: swapped delivered flows, re-entering at dst *)
  let return_seed = Bdd.band man (Pktset.swap_src_dst e delivered) (clean t') in
  let seeds =
    match Fgraph.loc_id g' (Fgraph.Src (dst_node, dst_iface)) with
    | Some id -> [ (id, return_seed) ]
    | None -> []
  in
  let back = Freach.forward g' seeds in
  let src_node = fst src in
  let returned =
    List.fold_left
      (fun acc id -> Bdd.bor man acc back.(id))
      Bdd.bot
      (Fgraph.locs_where g' (delivered_pred ~at:src_node))
  in
  (* round trip: forward-delivered flows whose swapped counterpart returned *)
  let round_trip =
    Bdd.band man delivered (Pktset.swap_src_dst e (Pktset.strip_extras e returned))
  in
  (delivered, round_trip)

(* Loop detection: find a non-trivial SCC among transit locations, extract a
   cycle, and compose edge functions around it; survivors loop forever. *)
let find_loops t =
  let g = t.g in
  let man = Pktset.man (env t) in
  let n = Fgraph.n_locs g in
  let adj =
    Array.init n (fun v -> List.map (fun (e : Fgraph.edge) -> e.Fgraph.e_to) g.Fgraph.out_edges.(v))
  in
  let comp = Scc.compute ~n adj in
  let groups = Scc.groups comp in
  let results = ref [] in
  Array.iter
    (fun members ->
      if List.length members > 1 then begin
        (* find one cycle through the component with DFS *)
        let inside v = List.mem v members in
        let start = List.hd members in
        let rec dfs path v =
          if v = start && path <> [] then Some (List.rev path)
          else if List.exists (fun (w, _) -> w = v) path && v <> start then None
          else
            List.fold_left
              (fun acc (e : Fgraph.edge) ->
                match acc with
                | Some _ -> acc
                | None ->
                  if inside e.e_to then dfs ((v, e) :: path) e.e_to else None)
              None g.Fgraph.out_edges.(v)
        in
        match dfs [] start with
        | None -> ()
        | Some cycle_edges ->
          let survive =
            List.fold_left
              (fun acc (_, (e : Fgraph.edge)) -> Fgraph.apply g e.e_fn acc)
              Bdd.top cycle_edges
          in
          (* iterate composition to a fixed point: packets that keep cycling *)
          let rec fixpoint s guard =
            if guard = 0 then s
            else
              let s' =
                List.fold_left
                  (fun acc (_, (e : Fgraph.edge)) -> Fgraph.apply g e.e_fn acc)
                  s cycle_edges
              in
              let s'' = Bdd.band man s s' in
              if Bdd.equal s'' s then s else fixpoint s'' (guard - 1)
          in
          let looping = fixpoint survive 16 in
          if not (Bdd.is_bot looping) then begin
            let nodes =
              List.filter_map
                (fun (v, _) ->
                  match g.Fgraph.locs.(v) with
                  | Fgraph.Fwd n -> Some n
                  | _ -> None)
                cycle_edges
            in
            results := (nodes, looping) :: !results
          end
      end)
    groups;
  List.rev !results

(* --- all-pairs reachability -------------------------------------------- *)

(* Rows are plain data (strings + concrete packets), not BDDs: a worker
   domain computing them against a re-materialized graph in a private
   manager produces byte-identical rows, so parallel all-pairs needs no
   cross-manager BDD transfer when merging. *)
type reach_row = { rr_src : start; rr_dst : string; rr_example : Packet.t option }

let pairs_for_start t ?hdr s =
  let e = env t in
  let man = Pktset.man e in
  match start_loc t s with
  | None -> []
  | Some id ->
    let hdr = Option.value hdr ~default:Bdd.top in
    let sets = Freach.forward t.g [ (id, Bdd.band man hdr (clean t)) ] in
    (* Union delivered sets per destination node, in location-index order
       (deterministic: index order is fixed by graph construction). *)
    let order = ref [] in
    let by_node = Hashtbl.create 16 in
    Array.iteri
      (fun i l ->
        match l with
        | Fgraph.Accept n | Fgraph.Dst (n, _) ->
          (match Hashtbl.find_opt by_node n with
           | Some r -> r := Bdd.bor man !r sets.(i)
           | None ->
             order := n :: !order;
             Hashtbl.add by_node n (ref sets.(i)))
        | Fgraph.Src _ | Fgraph.Fwd _ | Fgraph.Pre_out _ | Fgraph.Dropped _ -> ())
      t.g.Fgraph.locs;
    let prefs = Pktset.standard_prefs e () in
    List.filter_map
      (fun n ->
        let set = !(Hashtbl.find by_node n) in
        if Bdd.is_bot set then None
        else Some { rr_src = s; rr_dst = n; rr_example = Pktset.to_packet e ~prefs set })
      (List.rev !order)

(* Group starts whose locations are interchangeable sources: in-edge-free,
   with identical concrete out-edges (same target locations, equal edge
   functions). Seeding either location injects exactly the same values into
   exactly the same successors and nothing flows back into the seed, so the
   fixpoint agrees at every other location and one forward pass answers the
   whole group — rows differ only in the [rr_src] label. Soundness needs
   the same targets, not merely equivalent ones (multi-port access switches
   are the common case). Starts that do not qualify get singleton groups. *)
let start_groups t starts =
  let indexed = List.mapi (fun i s -> (i, s)) starts in
  (* bucket by the target-id list (hashable), then split each bucket by
     structural equality of the full (target, function) signature —
     canonical BDDs make [=] on functions exact and cheap (equal sets
     are physically shared) *)
  let sig_of id =
    List.sort
      (fun (a, _) (b, _) -> Int.compare a b)
      (List.map
         (fun e -> (e.Fgraph.e_to, e.Fgraph.e_fn))
         t.g.Fgraph.out_edges.(id))
  in
  let order = ref [] in
  let buckets :
      (int list, ((int * Fgraph.func) list * (int * start) list ref) list ref)
      Hashtbl.t =
    Hashtbl.create 64
  in
  List.iter
    (fun (i, s) ->
      match start_loc t s with
      | Some id when t.g.Fgraph.in_edges.(id) = [] ->
        let sg = sig_of id in
        let key = List.map fst sg in
        let bucket =
          match Hashtbl.find_opt buckets key with
          | Some b -> b
          | None ->
            let b = ref [] in
            Hashtbl.add buckets key b;
            b
        in
        (match List.assoc_opt sg !bucket with
        | Some members -> members := (i, s) :: !members
        | None ->
          let members = ref [ (i, s) ] in
          bucket := (sg, members) :: !bucket;
          order := `Group members :: !order)
      | Some _ | None -> order := `Single (i, s) :: !order)
    indexed;
  List.rev_map
    (function
      | `Group members -> List.rev !members
      | `Single is -> [ is ])
    !order

let all_pairs t ?hdr ?starts () =
  let starts =
    match starts with
    | Some s -> s
    | None -> default_starts t
  in
  (* one pass per group of interchangeable sources; non-representative
     members reuse the representative's rows under their own label. The
     concatenation is in original start order, bit-identical to the
     ungrouped sweep. *)
  let out = Array.make (List.length starts) [] in
  List.iter
    (function
      | [] -> ()
      | (i0, s0) :: rest ->
        let rows0 = pairs_for_start t ?hdr s0 in
        out.(i0) <- rows0;
        List.iter
          (fun (i, s) ->
            out.(i) <- List.map (fun r -> { r with rr_src = s }) rows0)
          rest)
    (start_groups t starts);
  List.concat (Array.to_list out)

let pick_examples t ?src_prefix ?dst_prefix ~violating ~holding () =
  let e = env t in
  let prefs = Pktset.standard_prefs e ?src_prefix ?dst_prefix () in
  let neg = Pktset.to_packet e ~prefs violating in
  (* Contrast: prefer a positive example close to the negative one (same
     protocol and destination), so the difference highlights the cause. *)
  let man = Pktset.man e in
  let close =
    match neg with
    | Some p ->
      [ Pktset.value e Field.Dst_ip p.Packet.dst_ip;
        Pktset.value e Field.Protocol p.Packet.protocol;
        Pktset.value e Field.Src_ip p.Packet.src_ip ]
    | None -> []
  in
  let pos = Pktset.to_packet e ~prefs:(close @ prefs) (Bdd.bdiff man holding violating) in
  (neg, pos)
