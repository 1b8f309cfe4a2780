(* Memo keys for whole-graph backward passes. A [t] wraps one graph of one
   snapshot, so "same graph" is implicit in the table identity; the key is
   the query kind plus its parameters. Header sets are BDDs in the graph's
   manager, so they compare by canonical node id. *)
type memo_key =
  | Mk_delivered of string option * Bdd.t  (* at, hdr *)
  | Mk_dropped of Bdd.t  (* hdr *)

type compress_mode = [ `Off | `On | `Auto ]

type t = {
  g : Fgraph.t;
  dp : Dataplane.t;
  configs : string -> Vi.t option;
  memo : (memo_key, Bdd.t array) Hashtbl.t;
  mutable memo_hits : int;
  mutable memo_misses : int;
  mutable spec_cache : (Fgraph.spec * string) option;
  mutable cmode : compress_mode;
  mutable comp_fwd : Fcompress.partition option option;
  mutable comp_bwd : Fcompress.partition option;
  mutable comp_passes : int;
  mutable comp_fallbacks : int;
  (* the first pass through each partition direction runs the full
     per-location fixpoint verification; once it holds, later passes skip
     the O(edges) sweep (it costs as much as the uncompressed pass) *)
  mutable comp_fwd_checked : bool;
  mutable comp_bwd_checked : bool;
}

type start = string * string option

let of_graph ?(compress_mode = `Off) g ~dp ~configs =
  { g; dp; configs; memo = Hashtbl.create 16; memo_hits = 0; memo_misses = 0;
    spec_cache = None; cmode = compress_mode; comp_fwd = None; comp_bwd = None;
    comp_passes = 0; comp_fallbacks = 0; comp_fwd_checked = false;
    comp_bwd_checked = false }

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

let make ?env ?compress ?compress_mode ~configs ~dp () =
  of_graph ?compress_mode (Fgraph.build ?env ?compress ~configs ~dp ()) ~dp
    ~configs

let graph t = t.g
let memo_stats t = (t.memo_hits, t.memo_misses)

(* --- quotient compression (ISSUE 10) ------------------------------------ *)

(* The auto heuristic: compression only pays when the graph is big enough
   to amortize the (integer-only) refinement and the partition actually
   merges a decent fraction of locations. Thresholds are deliberately
   conservative — compressed passes are bit-identical either way, this only
   decides whether the quotient detour is worth taking. *)
let auto_min_locs = 96
let auto_max_ratio = 0.75

let set_compress_mode t m =
  if m <> t.cmode then begin
    t.cmode <- m;
    (* decisions depend on the mode; cached results stay valid because
       compressed and uncompressed passes are bit-identical *)
    t.comp_fwd <- None;
    t.comp_bwd <- None;
    t.comp_fwd_checked <- false;
    t.comp_bwd_checked <- false
  end

let compress_mode t = t.cmode

let forward_partition t =
  match t.comp_fwd with
  | Some r -> r
  | None ->
    let r =
      match t.cmode with
      | `Off -> None
      | `On -> Some (Fcompress.base t.g `Fwd)
      | `Auto ->
        if Fgraph.n_locs t.g < auto_min_locs then None
        else begin
          let p = Fcompress.base t.g `Fwd in
          if Fcompress.ratio p <= auto_max_ratio then Some p else None
        end
    in
    t.comp_fwd <- Some r;
    r

(* Backward passes activate with the forward decision (one knob), but use
   their own out-signature partition. *)
let backward_partition t =
  match forward_partition t with
  | None -> None
  | Some _ -> (
    match t.comp_bwd with
    | Some p -> Some p
    | None ->
      let p = Fcompress.base t.g `Bwd in
      t.comp_bwd <- Some p;
      Some p)

let compression_info t =
  Option.map
    (fun p -> (Fcompress.ratio p, Fcompress.n_classes p, Fcompress.fingerprint p))
    (forward_partition t)

let compress_stats t = (t.comp_passes, t.comp_fallbacks)

(* Seed a patched query's partitions by refitting the base's (the failure
   sweep's per-scenario path): locations owned by clean nodes keep their
   base class as the refinement starting key, so stability is re-verified
   instead of rediscovered from singletons. Only meaningful when [t]'s graph
   came from {!Fgraph.patch} against [base]'s graph — surviving locations
   keep their ids, new ones append past the base's. Refinement only splits,
   so any stale grouping the patch invalidated is separated again and the
   result is a stable partition of the new graph. When the base declined
   compression the same decision is recorded on [t] (one heuristic call per
   snapshot, not per scenario). *)
let refit_partitions ~base ~dirty t =
  if t.cmode <> `Off then begin
    (* refitted partitions are new objects: their first pass re-verifies *)
    t.comp_fwd_checked <- false;
    t.comp_bwd_checked <- false;
    match forward_partition base with
    | None -> t.comp_fwd <- Some None
    | Some pf ->
      let dirty_tbl = Hashtbl.create 16 in
      List.iter (fun n -> Hashtbl.replace dirty_tbl n ()) dirty;
      let base_n = Fcompress.n_locs pf in
      let flags =
        Array.init (Fgraph.n_locs t.g) (fun i ->
            i >= base_n
            || Hashtbl.mem dirty_tbl (Fgraph.loc_node t.g.Fgraph.locs.(i)))
      in
      t.comp_fwd <- Some (Some (Fcompress.refit t.g `Fwd ~like:pf ~dirty:flags));
      match backward_partition base with
      | None -> ()
      | Some pb ->
        t.comp_bwd <- Some (Fcompress.refit t.g `Bwd ~like:pb ~dirty:flags)
  end

(* Run one propagation pass, through the quotient when compression is
   active, falling back to the concrete pass whenever the partition check
   fails (see Fcompress): answers are bit-identical in all cases. The full
   per-location verification sweep runs on the first pass through each
   partition direction only — it costs as much as the uncompressed pass,
   so paying it every time would forfeit the compression win. *)
let compressed_pass t part_of direct ~checked ~mark_checked seeds =
  match part_of t with
  | None -> direct t.g seeds
  | Some base -> (
    let verify = not (checked t) in
    (* the base partition pre-splits the standard seed shapes, so the
       specialize-and-retry path only triggers for unusual seeds (e.g. a
       start at an interior location); specialized partitions are
       throwaway, so their passes always verify *)
    let outcome, verified_base =
      match Fcompress.run ~verify t.g base ~seeds with
      | `Non_uniform ->
        ( Fcompress.run ~verify:true t.g
            (Fcompress.specialize t.g base ~seeds)
            ~seeds,
          false )
      | o -> (o, verify)
    in
    match outcome with
    | `Sets sets ->
      t.comp_passes <- t.comp_passes + 1;
      if verified_base then mark_checked t;
      sets
    | `Non_uniform | `Mismatch ->
      t.comp_fallbacks <- t.comp_fallbacks + 1;
      direct t.g seeds)

let forward_pass t seeds =
  compressed_pass t forward_partition Freach.forward
    ~checked:(fun t -> t.comp_fwd_checked)
    ~mark_checked:(fun t -> t.comp_fwd_checked <- true)
    seeds

let backward_pass t seeds =
  compressed_pass t backward_partition Freach.backward
    ~checked:(fun t -> t.comp_bwd_checked)
    ~mark_checked:(fun t -> t.comp_bwd_checked <- true)
    seeds

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
      (of_graph ~compress_mode:base.cmode g ~dp ~configs, invalidated)
    end
  end

(* Fault-isolated construction: graph building walks every FIB and compiles
   every referenced ACL, any of which may be garbage on a hostile snapshot. *)
let make_checked ?env ?compress ?compress_mode ~configs ~dp () =
  try Ok (make ?env ?compress ?compress_mode ~configs ~dp ())
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

let forward_from t ?hdr starts = forward_pass t (seeds_of t ?hdr starts)

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
      backward_pass t (sink_seeds t (delivered_pred ?at) ?hdr ()))

let to_dropped t ?hdr () =
  let pred = function
    | Fgraph.Dropped _ -> true
    | Fgraph.Src _ | Fgraph.Fwd _ | Fgraph.Pre_out _ | Fgraph.Dst _ | Fgraph.Accept _ ->
      false
  in
  let hdr_b = Option.value hdr ~default:Bdd.top in
  memo_find t (Mk_dropped hdr_b) (fun () ->
      backward_pass t (sink_seeds t pred ?hdr ()))

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
   cycle, and compose edge functions around it; survivors loop forever.
   With compression active, the quotient screens first: when it certifies
   the concrete graph acyclic (the common case), the answer is [] without
   touching the concrete SCC machinery; otherwise the concrete pass runs
   unchanged, so results stay bit-identical. *)
let find_loops_concrete t =
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

let find_loops t =
  match forward_partition t with
  | Some p when Fcompress.loop_screen t.g p ->
    t.comp_passes <- t.comp_passes + 1;
    []
  | Some _ ->
    t.comp_fallbacks <- t.comp_fallbacks + 1;
    find_loops_concrete t
  | None -> find_loops_concrete t

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
    let sets = forward_pass t [ (id, Bdd.band man hdr (clean t)) ] in
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
   whole group — rows differ only in the [rr_src] label. The key is the
   concrete signature, not the partition class: soundness needs the same
   targets, not merely same-class targets (multi-port access switches are
   the common case). Starts that do not qualify get singleton groups. *)
let start_groups t starts =
  let indexed = List.mapi (fun i s -> (i, s)) starts in
  match forward_partition t with
  | None -> List.map (fun is -> [ is ]) indexed
  | Some _ ->
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
  match forward_partition t with
  | None -> List.concat_map (fun s -> pairs_for_start t ?hdr s) starts
  | Some _ ->
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
