(* Failure-scenario exploration (the paper's "verify under the failures
   operators actually fear", via Plankton-style equivalence pruning and
   selective re-simulation from a warm base fixed point).

   The sweep enumerates single and double link/node failures from the L3
   topology, collapses scenarios whose failed elements carry identical
   forwarding atoms (Apt) into one representative, and re-checks a property
   set per representative by warm incremental re-simulation: the failed
   elements' nodes are marked dirty, [Dataplane.update] recomputes exactly
   their dependency components against the fault-injected environment and
   reuses every clean component verbatim. Fault injection is sound for the
   update path because [Dp_env.down_links] is consulted only for the owning
   (node, interface) pair: every node whose inputs the injection can change
   is itself listed dirty, so all environment-visible differences live in
   recomputed components and each per-scenario result is bit-identical to a
   cold full recompute of that scenario (test- and bench-enforced).

   Scenario checks fan out across the session {!Par.Pool} with stripe
   affinity: each worker re-checks against its resident imported base graph
   ({!Fpar.worker_query}), building the scenario graph into the same warm
   private manager. A scenario whose re-simulation exhausts fuel, oscillates,
   quarantines new nodes, or raises is reported [Inconclusive] with a
   {!Diag} record — the sweep itself never aborts. *)

type element =
  | Link of L3.endpoint * L3.endpoint
  | Node of string

type scenario = { sc_id : int; sc_elements : element list }

type property = { pr_src : Fquery.start; pr_dst : string }

(* [Violated] means the destination became unreachable from the start under
   the scenario; the packet is a concrete witness from the residual set
   (deliverable in the base network, undeliverable under the failure). *)
type verdict = Holds | Violated of Packet.t option

type outcome =
  | Checked of verdict list  (* one per property, in property order *)
  | Inconclusive of string

type result = {
  r_scenario : scenario;
  r_outcome : outcome;
  r_rep : int;  (* sc_id of the representative that was actually simulated *)
}

type report = {
  rp_k : int;
  rp_properties : property list;
  rp_dropped_properties : int;
  rp_enumerated : int;
  rp_simulated : int;
  rp_pruned : int;
  rp_pruning : bool;
  rp_atoms : int;
  rp_results : result list;  (* every enumerated scenario, id order *)
  rp_surviving : property list;
  rp_failing : (property * scenario * Packet.t option) list;
  rp_inconclusive : (scenario * string) list;  (* representatives only *)
  rp_diags : Diag.t list;
}

(* --- rendering ---------------------------------------------------------- *)

let element_to_string = function
  | Link (a, b) ->
    Printf.sprintf "link(%s[%s] ~ %s[%s])" a.L3.ep_node a.L3.ep_iface
      b.L3.ep_node b.L3.ep_iface
  | Node n -> Printf.sprintf "node(%s)" n

let scenario_to_string sc =
  String.concat " + " (List.map element_to_string sc.sc_elements)

let property_to_string p =
  let src =
    match p.pr_src with
    | n, Some i -> Printf.sprintf "%s[%s]" n i
    | n, None -> n
  in
  Printf.sprintf "%s -> %s" src p.pr_dst

(* --- enumeration -------------------------------------------------------- *)

let element_nodes = function
  | Link (a, b) -> [ a.L3.ep_node; b.L3.ep_node ]
  | Node n -> [ n ]

(* The (node, interface) pairs a failed element forces down: both ends of a
   link, every interface of a node. *)
let element_down topo = function
  | Link (a, b) ->
    [ (a.L3.ep_node, a.L3.ep_iface); (b.L3.ep_node, b.L3.ep_iface) ]
  | Node n -> List.map (fun ep -> (ep.L3.ep_node, ep.L3.ep_iface)) (L3.endpoints topo n)

(* Deterministic scenario order with all single-element scenarios before any
   pair, so the first failing scenario found for a property is minimal. *)
let enumerate ~topo ~k =
  let singles =
    List.map (fun (a, b) -> Link (a, b)) (L3.links topo)
    @ List.filter_map
        (fun n -> if L3.endpoints topo n = [] then None else Some (Node n))
        (L3.nodes topo)
  in
  let elements = Array.of_list singles in
  let n = Array.length elements in
  let out = ref [] and id = ref 0 in
  let push els =
    out := { sc_id = !id; sc_elements = els } :: !out;
    incr id
  in
  Array.iter (fun e -> push [ e ]) elements;
  if k >= 2 then
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        push [ elements.(i); elements.(j) ]
      done
    done;
  List.rev !out

(* --- properties --------------------------------------------------------- *)

(* Default property set: the base snapshot's reachable (start, destination)
   pairs, deduplicated in row order and capped (the sweep re-checks every
   property under every scenario, so the cap bounds total work; the dropped
   count is surfaced in the report).

   Both endpoints are restricted to host-bearing nodes — nodes owning an
   interface-subnet delivery ([Fgraph.Dst]) location on an interface that is
   not an inter-device link endpoint, i.e. a genuine edge subnet (every
   device on a point-to-point link has [Dst] locations for the /31, so the
   link endpoints must be excluded for the distinction to mean anything).
   Transit reachability (from or to a pure forwarding device) is not an
   operator intent worth sweeping failures for, and keeping transit devices
   out of the property anchor set is what gives atom pruning its leverage:
   two spine failures can only collapse into one equivalence class if
   neither spine is itself a property endpoint. When no host-to-host pair
   exists (loopback-only topologies) every pair is kept. *)
let properties_of ?(max_properties = 32) ~topo fq =
  let g = Fquery.graph fq in
  let link_eps = Hashtbl.create 32 in
  List.iter
    (fun (a, b) ->
      Hashtbl.replace link_eps (a.L3.ep_node, a.L3.ep_iface) ();
      Hashtbl.replace link_eps (b.L3.ep_node, b.L3.ep_iface) ())
    (L3.links topo);
  let host_dst = Hashtbl.create 16 in
  ignore
    (Fgraph.locs_where g (function
      | Fgraph.Dst (n, i) ->
        if not (Hashtbl.mem link_eps (n, i)) then Hashtbl.replace host_dst n ();
        true
      | Fgraph.Src _ | Fgraph.Fwd _ | Fgraph.Pre_out _ | Fgraph.Accept _
      | Fgraph.Dropped _ -> false));
  let rows = Fquery.all_pairs fq () in
  let keep (r : Fquery.reach_row) =
    Hashtbl.mem host_dst (fst r.Fquery.rr_src)
    && Hashtbl.mem host_dst r.Fquery.rr_dst
  in
  let dedup keep rows =
    let seen = Hashtbl.create 64 in
    List.filter_map
      (fun (r : Fquery.reach_row) ->
        let p = { pr_src = r.Fquery.rr_src; pr_dst = r.Fquery.rr_dst } in
        if (not (keep r)) || Hashtbl.mem seen p then None
        else begin
          Hashtbl.add seen p ();
          Some p
        end)
      rows
  in
  let props =
    match dedup keep rows with
    | [] -> dedup (fun _ -> true) rows (* no host-to-host pairs: keep all *)
    | ps -> ps
  in
  let n = List.length props in
  if n <= max_properties then (props, 0)
  else (List.filteri (fun i _ -> i < max_properties) props, n - max_properties)

(* --- atom-equivalence pruning ------------------------------------------- *)

let endpoint_locs g (node, iface) =
  Fgraph.locs_where g (function
    | Fgraph.Src (n, i) | Fgraph.Dst (n, i) | Fgraph.Pre_out (n, i, _) ->
      n = node && i = iface
    | Fgraph.Fwd _ | Fgraph.Accept _ | Fgraph.Dropped _ -> false)

let node_locs g node = Fgraph.locs_where g (fun l -> Fgraph.loc_node l = node)

(* An element's signature: the multiset of property-relevant packet sets
   carried by the base graph edges the failure disables (edges incident to
   the failed endpoints' locations), plus the element kind and the
   property-anchored hostnames it touches. Each edge's atom bitset is
   converted back to a BDD and intersected with [restrict] — the union of
   the properties' base delivered sets — so traffic the properties never
   check (p2p link subnets, whose per-link addresses make every edge
   predicate unique) cannot keep symmetric elements apart. BDD node ids are
   canonical within the one manager a classify call runs in, so the
   restricted sets compare as ints. Identical signatures mean the failures
   remove interchangeable forwarding behavior relative to the checked
   properties, so their scenarios are collapsed to one representative. The
   equivalence is validated empirically: pruned and brute-force verdicts
   must agree (test-enforced). *)
let element_signature ~g ~apt ~anchors ~restrict el =
  let locs = Hashtbl.create 32 in
  let add id = Hashtbl.replace locs id () in
  (match el with
  | Link (a, b) ->
    List.iter add (endpoint_locs g (a.L3.ep_node, a.L3.ep_iface));
    List.iter add (endpoint_locs g (b.L3.ep_node, b.L3.ep_iface))
  | Node n -> List.iter add (node_locs g n));
  let man = Pktset.man (Fgraph.env g) in
  let bits =
    Apt.fold_edge_atoms apt
      (fun (f, t, _) b acc ->
        if Hashtbl.mem locs f || Hashtbl.mem locs t then
          Bdd.band man (Apt.atoms_to_bdd apt b) restrict :: acc
        else acc)
      []
    |> List.sort compare
  in
  let kind = match el with Link _ -> 0 | Node _ -> 1 in
  let touched =
    List.filter (fun n -> List.mem n anchors) (element_nodes el)
    |> List.sort compare
  in
  (kind, touched, bits)

let scenario_signature ~g ~apt ~anchors ~restrict sc =
  let sigs =
    List.map (element_signature ~g ~apt ~anchors ~restrict) sc.sc_elements
    |> List.sort compare
  in
  let ns = List.concat_map element_nodes sc.sc_elements in
  let shared = List.length ns - List.length (List.sort_uniq compare ns) in
  Marshal.to_string (sigs, shared) []

(* Group scenarios into equivalence classes: [(representative, members)]
   in enumeration order, the representative being the lowest-id member.
   Without an atom partition every scenario is its own class. *)
let classify ~apt ~g ~anchors ~restrict scenarios =
  match apt with
  | None -> List.map (fun sc -> (sc, [])) scenarios
  | Some apt ->
    let by_sig = Hashtbl.create 64 in
    let members = Hashtbl.create 64 in
    let reps = ref [] in
    List.iter
      (fun sc ->
        let key = scenario_signature ~g ~apt ~anchors ~restrict sc in
        match Hashtbl.find_opt by_sig key with
        | None ->
          Hashtbl.add by_sig key sc;
          reps := sc :: !reps
        | Some rep ->
          let prev =
            match Hashtbl.find_opt members rep.sc_id with
            | Some l -> l
            | None -> []
          in
          Hashtbl.replace members rep.sc_id (sc :: prev))
      scenarios;
    List.rev_map
      (fun rep ->
        let ms =
          match Hashtbl.find_opt members rep.sc_id with
          | Some l -> List.rev l
          | None -> []
        in
        (rep, ms))
      !reps

(* --- per-scenario check ------------------------------------------------- *)

let scenario_env ~topo env sc =
  Dp_env.with_down_links env (List.concat_map (element_down topo) sc.sc_elements)

(* Nodes whose forwarding-graph edges can differ between the base build and
   the scenario build — the dirty set handed to {!Fgraph.patch}: nodes whose
   FIB changed (or appeared/disappeared), the failed elements' own nodes
   (their interface set changes), and the L3 neighbors of every downed
   interface in either topology (wire edges into a downed interface are
   owned by the neighbor, so the neighbor's edges must be rebuilt even when
   its FIB is untouched — multi-access subnets included). *)
let graph_dirty ~base_dp ~(dp_s : Dataplane.t) sc =
  let dirty = Hashtbl.create 16 in
  let add n = Hashtbl.replace dirty n () in
  List.iter add (List.concat_map element_nodes sc.sc_elements);
  let topo_b = base_dp.Dataplane.topo in
  List.iter
    (fun (node, iface) ->
      List.iter
        (fun topo ->
          List.iter
            (fun ep -> add ep.L3.ep_node)
            (L3.neighbors topo ~node ~iface))
        [ topo_b; dp_s.Dataplane.topo ])
    (List.concat_map (element_down topo_b) sc.sc_elements);
  List.iter
    (fun n ->
      if not (Hashtbl.mem dirty n) then
        match
          ( Hashtbl.find_opt base_dp.Dataplane.nodes n,
            Hashtbl.find_opt dp_s.Dataplane.nodes n )
        with
        | Some b, Some s ->
          if Fib.entries b.Dataplane.nr_fib <> Fib.entries s.Dataplane.nr_fib
          then add n
        | None, None -> ()
        | Some _, None | None, Some _ -> add n)
    dp_s.Dataplane.node_order;
  Hashtbl.fold (fun n () acc -> n :: acc) dirty []

(* Delivered set at node [dst] for flows entering at [src], with the query's
   extra bits cleaned — the same quantity {!Fquery.all_pairs} rows report. *)
let delivered_at q ~src ~dst =
  let g = Fquery.graph q in
  let loc =
    match src with
    | n, Some i -> Fgraph.Src (n, i)
    | n, None -> Fgraph.Fwd n
  in
  match Fgraph.loc_id g loc with
  | None -> Bdd.bot
  | Some id ->
    let sets = Fquery.to_delivered q ~at:dst () in
    Bdd.band (Pktset.man (Fquery.env q)) sets.(id) (Fquery.clean q)

(* Node failures make properties anchored at the dead device vacuous: when
   [node(d)] takes the destination (or source) itself offline, "src reaches
   d" is not an operator intent the scenario can meaningfully violate — every
   property would otherwise trivially fail under its own endpoint's node
   failure and the surviving set would always be empty. Link failures get no
   such exemption: a property endpoint losing one of its links is exactly
   the redundancy question the sweep exists to answer. *)
let failed_nodes sc =
  List.filter_map (function Node n -> Some n | Link _ -> None) sc.sc_elements

(* [qb] (base) and [qs] (scenario) must share one manager, so the residual
   difference and its witness packet are computed canonically — the same
   verdict list falls out of every manager, which is what lets warm
   (worker-resident) and cold (fresh-manager) checks be compared with [=]. *)
let verdicts ~failed ~qb ~qs ~properties =
  let e = Fquery.env qb in
  let man = Pktset.man e in
  let prefs = Pktset.standard_prefs e () in
  List.map
    (fun p ->
      if List.mem (fst p.pr_src) failed || List.mem p.pr_dst failed then Holds
      else
        let cur = delivered_at qs ~src:p.pr_src ~dst:p.pr_dst in
        if not (Bdd.is_bot cur) then Holds
        else begin
          let base = delivered_at qb ~src:p.pr_src ~dst:p.pr_dst in
          let residual = Bdd.bdiff man base cur in
          Violated (Pktset.to_packet e ~prefs residual)
        end)
    properties

(* Gates shared by the warm and cold paths, so their outcomes stay
   comparable: any sign the scenario fixed point is not trustworthy makes
   the scenario inconclusive rather than producing wrong verdicts. *)
let gate ~base_dp (dp_s : Dataplane.t) =
  if not dp_s.Dataplane.converged then
    Some "re-simulation exhausted its fuel budget before convergence"
  else if dp_s.Dataplane.oscillated then
    Some "re-simulation detected a routing oscillation"
  else begin
    let base_q = List.map fst base_dp.Dataplane.quarantined in
    match
      List.filter (fun (n, _) -> not (List.mem n base_q)) dp_s.Dataplane.quarantined
    with
    | [] -> None
    | qs ->
      Some
        (Printf.sprintf "re-simulation quarantined %s"
           (String.concat ", " (List.map fst qs)))
  end

(* Warm check: runs in a pool worker (or the caller). [qb] wraps the base
   graph in this domain's private manager; the scenario data plane reuses
   the base fixed point via [Dataplane.update] and the scenario graph is
   built into the same warm manager. [options] must already be serial —
   nested pool entry would be refused by [Par.Pool.run] anyway, but the
   sweep never even tries. Never raises: any exception becomes
   [Inconclusive]. *)
let check_scenario ~options ~env ~configs_list ~find ~base_dp ~properties qb sc =
  try
    let topo = base_dp.Dataplane.topo in
    let env_s = scenario_env ~topo env sc in
    let changed =
      List.sort_uniq compare (List.concat_map element_nodes sc.sc_elements)
    in
    let dp_s = Dataplane.update ~options ~env:env_s ~base:base_dp ~changed configs_list in
    match gate ~base_dp dp_s with
    | Some why -> Inconclusive why
    | None ->
      (* Patch the base forwarding graph in place of a full rebuild: only
         the dirty nodes' edges are reconstructed (into [qb]'s warm
         manager, where unchanged predicates hash-cons to the base's).
         Patched propagation results are bit-identical to a from-scratch
         build (warm-vs-cold equality is test-enforced). *)
      let dirty = graph_dirty ~base_dp ~dp_s sc in
      let g_s =
        Fgraph.patch ~base:(Fquery.graph qb) ~dirty ~configs:find ~dp:dp_s ()
      in
      let qs = Fquery.of_graph g_s ~dp:dp_s ~configs:find in
      Checked (verdicts ~failed:(failed_nodes sc) ~qb ~qs ~properties)
  with exn ->
    Inconclusive (Printf.sprintf "re-simulation raised: %s" (Printexc.to_string exn))

(* --- cold reference ----------------------------------------------------- *)

(* Everything needed to recompute a scenario from scratch: a fresh manager
   holding a from-scratch base query (for residuals), plus the inputs. Each
   {!cold_outcome} call runs the full [Dataplane.compute] for the scenario —
   no warm reuse anywhere — which is the reference the warm path must match
   bit-for-bit. *)
type cold = {
  cold_options : Dataplane.options;
  cold_env : Dp_env.t;
  cold_configs : Vi.t list;
  cold_find : string -> Vi.t option;
  cold_dp : Dataplane.t;
  cold_q : Fquery.t;
}

let cold_context ~options ~env ~configs_list ~find () =
  let options = { options with Dataplane.pool = None; domains = 1 } in
  let cold_dp = Dataplane.compute ~options ~env configs_list in
  let cold_q = Fquery.make ~configs:find ~dp:cold_dp () in
  { cold_options = options; cold_env = env; cold_configs = configs_list;
    cold_find = find; cold_dp; cold_q }

let cold_outcome cold ~properties sc =
  try
    let topo = cold.cold_dp.Dataplane.topo in
    let env_s = scenario_env ~topo cold.cold_env sc in
    let dp_s =
      Dataplane.compute ~options:cold.cold_options ~env:env_s cold.cold_configs
    in
    match gate ~base_dp:cold.cold_dp dp_s with
    | Some why -> Inconclusive why
    | None ->
      let qs =
        Fquery.make ~env:(Fquery.env cold.cold_q) ~configs:cold.cold_find ~dp:dp_s ()
      in
      Checked (verdicts ~failed:(failed_nodes sc) ~qb:cold.cold_q ~qs ~properties)
  with exn ->
    Inconclusive (Printf.sprintf "re-simulation raised: %s" (Printexc.to_string exn))

(* --- sweep -------------------------------------------------------------- *)

let run ?pool ?(domains = 1) ?(max_properties = 32) ?(prune = true)
    ?(max_atoms = 4096) ~k ~options ~env ~configs_list ~find ~base_dp ~base_fq
    () =
  if k < 1 || k > 2 then invalid_arg "Failures.run: k must be 1 or 2";
  let diags = ref [] in
  let topo = base_dp.Dataplane.topo in
  let properties, dropped = properties_of ~max_properties ~topo base_fq in
  let scenarios = enumerate ~topo ~k in
  let g = Fquery.graph base_fq in
  let apt =
    if not prune then None
    else
      match Apt.try_build ~max_atoms g with
      | Ok apt -> Some apt
      | Error why ->
        diags :=
          Diag.warn ~phase:Diag.Question ~code:Diag.code_pruning_disabled
            (Printf.sprintf
               "atom partition unavailable (%s); checking every scenario"
               (Apt.refusal_to_string why))
          :: !diags;
        None
  in
  let anchors =
    List.sort_uniq compare
      (List.concat_map (fun p -> [ fst p.pr_src; p.pr_dst ]) properties)
  in
  (* the traffic the properties actually check: signatures are computed
     relative to this, so edge differences outside it cannot block pruning *)
  let restrict =
    let man = Pktset.man (Fquery.env base_fq) in
    List.fold_left
      (fun acc p ->
        Bdd.bor man acc (delivered_at base_fq ~src:p.pr_src ~dst:p.pr_dst))
      Bdd.bot properties
  in
  let classes = classify ~apt ~g ~anchors ~restrict scenarios in
  let reps = Array.of_list (List.map fst classes) in
  (* Per-scenario work is strictly serial: the sweep itself saturates the
     pool, and a nested pool entry from a worker is pointless. *)
  let options_s = { options with Dataplane.pool = None; domains = 1 } in
  let workers =
    match pool with
    | Some p when not (Par.Pool.closed p) -> Par.Pool.size p
    | Some _ | None -> domains
  in
  let outcomes =
    if workers > 1 && Array.length reps > 1 then begin
      (* compute the spec/fingerprint on the caller: the lazy cache inside
         [base_fq] is not safe to fill concurrently from workers *)
      let spec, fp = Fquery.spec_with_fingerprint base_fq in
      Par.map_dynamic_init ?pool ~domains
        ~init:(fun () ->
          Fpar.worker_query ~fp ~spec ~dp:base_dp ~configs:find ())
        (fun qb sc ->
          ( sc.sc_id,
            check_scenario ~options:options_s ~env ~configs_list ~find ~base_dp
              ~properties qb sc ))
        reps
    end
    else
      Array.map
        (fun sc ->
          ( sc.sc_id,
            check_scenario ~options:options_s ~env ~configs_list ~find ~base_dp
              ~properties base_fq sc ))
        reps
  in
  let by_id = Hashtbl.create 64 in
  Array.iter (fun (id, o) -> Hashtbl.replace by_id id o) outcomes;
  let results =
    List.concat_map
      (fun (rep, members) ->
        let o = Hashtbl.find by_id rep.sc_id in
        { r_scenario = rep; r_outcome = o; r_rep = rep.sc_id }
        :: List.map
             (fun m -> { r_scenario = m; r_outcome = o; r_rep = rep.sc_id })
             members)
      classes
    |> List.sort (fun a b -> compare a.r_scenario.sc_id b.r_scenario.sc_id)
  in
  (* Scenario ids enumerate singles before pairs, so the first failing
     scenario per property (over the expanded, pruning-independent list) is
     a minimal one. *)
  let failing = ref [] and surviving = ref [] in
  List.iteri
    (fun i p ->
      let rec find = function
        | [] -> None
        | r :: rest -> (
          match r.r_outcome with
          | Checked vs -> (
            match List.nth vs i with
            | Violated pkt -> Some (r.r_scenario, pkt)
            | Holds -> find rest)
          | Inconclusive _ -> find rest)
      in
      match find results with
      | Some (sc, pkt) -> failing := (p, sc, pkt) :: !failing
      | None -> surviving := p :: !surviving)
    properties;
  let inconclusive =
    List.filter_map
      (fun r ->
        match r.r_outcome with
        | Inconclusive why when r.r_rep = r.r_scenario.sc_id ->
          Some (r.r_scenario, why)
        | Inconclusive _ | Checked _ -> None)
      results
  in
  List.iter
    (fun (sc, why) ->
      diags :=
        Diag.warn ~phase:Diag.Question ~code:Diag.code_scenario_inconclusive
          (Printf.sprintf "scenario %s: %s" (scenario_to_string sc) why)
        :: !diags)
    inconclusive;
  { rp_k = k;
    rp_properties = properties;
    rp_dropped_properties = dropped;
    rp_enumerated = List.length scenarios;
    rp_simulated = Array.length reps;
    rp_pruned = List.length scenarios - Array.length reps;
    rp_pruning = Option.is_some apt;
    rp_atoms = (match apt with Some a -> Apt.atom_count a | None -> 0);
    rp_results = results;
    rp_surviving = List.rev !surviving;
    rp_failing = List.rev !failing;
    rp_inconclusive = inconclusive;
    rp_diags = List.rev !diags }
