type loc =
  | Src of string * string
  | Fwd of string
  | Pre_out of string * string * Ipv4.t option
  | Dst of string * string
  | Accept of string
  | Dropped of string

let loc_to_string = function
  | Src (n, i) -> Printf.sprintf "src(%s[%s])" n i
  | Fwd n -> Printf.sprintf "fwd(%s)" n
  | Pre_out (n, i, Some g) -> Printf.sprintf "out(%s[%s] via %s)" n i (Ipv4.to_string g)
  | Pre_out (n, i, None) -> Printf.sprintf "out(%s[%s] attached)" n i
  | Dst (n, i) -> Printf.sprintf "dst(%s[%s])" n i
  | Accept n -> Printf.sprintf "accept(%s)" n
  | Dropped n -> Printf.sprintf "dropped(%s)" n

type func =
  | Filter of Bdd.t
  | Transform of Bdd.t
  | Set_extra of (int * bool) list
  | Erase_extra of int list
  | Seq of func list

type edge = { e_from : int; e_to : int; e_fn : func }

type t = {
  env : Pktset.t;
  locs : loc array;
  loc_index : (loc, int) Hashtbl.t;
  mutable out_edges : edge list array;
  mutable in_edges : edge list array;
}

let zone_bits = 4

let loc_id t l = Hashtbl.find_opt t.loc_index l
let n_locs t = Array.length t.locs
let n_edges t = Array.fold_left (fun acc es -> acc + List.length es) 0 t.out_edges

let locs_where t pred =
  let acc = ref [] in
  Array.iteri (fun i l -> if pred l then acc := i :: !acc) t.locs;
  List.rev !acc

(* --- edge function application --- *)

let rec apply t fn set =
  let man = Pktset.man t.env in
  match fn with
  | Filter f -> Bdd.band man set f
  | Transform rel -> Pktset.apply_rel t.env rel set
  | Set_extra bits ->
    let vs = Pktset.extra_varset t.env (List.map fst bits) in
    let freed = Bdd.exists man vs set in
    List.fold_left
      (fun acc (b, v) ->
        let lvl = Pktset.extra_level t.env b in
        Bdd.band man acc (if v then Bdd.var man lvl else Bdd.nvar man lvl))
      freed bits
  | Erase_extra bits -> Bdd.exists man (Pktset.extra_varset t.env bits) set
  | Seq fns -> List.fold_left (fun acc fn -> apply t fn acc) set fns

let rec apply_reverse t fn target =
  let man = Pktset.man t.env in
  match fn with
  | Filter f -> Bdd.band man target f
  | Transform rel -> Pktset.apply_rel_reverse t.env rel target
  | Set_extra bits ->
    (* forward sets bits to fixed values; a packet maps into [target] iff
       [target] holds with those values, with the original bits free *)
    let constrained =
      List.fold_left
        (fun acc (b, v) ->
          let lvl = Pktset.extra_level t.env b in
          Bdd.band man acc (if v then Bdd.var man lvl else Bdd.nvar man lvl))
        target bits
    in
    Bdd.exists man (Pktset.extra_varset t.env (List.map fst bits)) constrained
  | Erase_extra bits -> Bdd.exists man (Pktset.extra_varset t.env bits) target
  | Seq fns -> List.fold_right (fun fn acc -> apply_reverse t fn acc) fns target

(* --- construction helpers --- *)

let zone_code_filter env code =
  (* zone bits 0..zone_bits-1 encode the ingress zone id *)
  let man = Pktset.man env in
  let rec go b acc =
    if b >= zone_bits then acc
    else
      let lvl = Pktset.extra_level env b in
      let lit = if (code lsr b) land 1 = 1 then Bdd.var man lvl else Bdd.nvar man lvl in
      go (b + 1) (Bdd.band man acc lit)
  in
  go 0 Bdd.top

let zone_code_set code =
  Set_extra (List.init zone_bits (fun b -> (b, (code lsr b) land 1 = 1)))

(* NAT rule chains: first matching rule applies; unmatched packets pass
   unchanged. Destination NAT matches on destination prefixes; source NAT on
   an ACL or source prefix, with the egress interface address available for
   interface pools. *)
let dst_nat_rel env (cfg : Vi.t) =
  let man = Pktset.man env in
  let rules = List.filter (fun (r : Vi.nat_rule) -> r.nr_kind = `Destination) cfg.nat_rules in
  if rules = [] then None
  else begin
    let covered = ref Bdd.bot in
    let rel = ref Bdd.bot in
    List.iter
      (fun (r : Vi.nat_rule) ->
        let guard =
          match r.Vi.nr_match_dst with
          | Some pre -> Pktset.dst_prefix env pre
          | None -> Bdd.bot
        in
        let guard = Bdd.bdiff man guard !covered in
        let rewrite =
          match r.Vi.nr_pool with
          | Vi.Nat_ip ip -> Some (Pktset.Set_value ip)
          | Vi.Nat_prefix p -> Some (Pktset.Set_value (Prefix.first_host p))
          | Vi.Nat_interface -> None
        in
        (match rewrite with
         | Some rw ->
           rel := Bdd.bor man !rel (Pktset.rel env ~guard [ (Field.Dst_ip, rw) ]);
           covered := Bdd.bor man !covered guard
         | None -> ()))
      rules;
    let identity = Pktset.rel env ~guard:(Bdd.bnot man !covered) [] in
    Some (Bdd.bor man !rel identity)
  end

let src_nat_rel env (cfg : Vi.t) ~egress_ip =
  let man = Pktset.man env in
  let rules = List.filter (fun (r : Vi.nat_rule) -> r.nr_kind = `Source) cfg.nat_rules in
  if rules = [] then None
  else begin
    let covered = ref Bdd.bot in
    let rel = ref Bdd.bot in
    List.iter
      (fun (r : Vi.nat_rule) ->
        let guard =
          match (r.Vi.nr_match_acl, r.Vi.nr_match_src) with
          | Some name, _ -> Acl_bdd.permits_named env cfg name
          | None, Some pre -> Pktset.src_prefix env pre
          | None, None -> Bdd.bot
        in
        let guard = Bdd.bdiff man guard !covered in
        let rewrite =
          match r.Vi.nr_pool with
          | Vi.Nat_ip ip -> Some (Pktset.Set_value ip)
          | Vi.Nat_prefix p -> Some (Pktset.Set_value (Prefix.first_host p))
          | Vi.Nat_interface -> Option.map (fun ip -> Pktset.Set_value ip) egress_ip
        in
        match rewrite with
        | Some rw ->
          rel := Bdd.bor man !rel (Pktset.rel env ~guard [ (Field.Src_ip, rw) ]);
          covered := Bdd.bor man !covered guard
        | None -> ())
      rules;
    let identity = Pktset.rel env ~guard:(Bdd.bnot man !covered) [] in
    Some (Bdd.bor man !rel identity)
  end

(* --- graph construction --- *)

type builder = {
  b_env : Pktset.t;
  mutable b_locs : loc list;  (* reversed *)
  b_index : (loc, int) Hashtbl.t;
  mutable b_count : int;
  mutable b_edges : edge list;  (* reversed *)
}

let bnode b l =
  match Hashtbl.find_opt b.b_index l with
  | Some i -> i
  | None ->
    let i = b.b_count in
    b.b_count <- i + 1;
    Hashtbl.add b.b_index l i;
    b.b_locs <- l :: b.b_locs;
    i

let bedge b from_ to_ fn = b.b_edges <- { e_from = from_; e_to = to_; e_fn = fn } :: b.b_edges

let simplify_fn env fn =
  (* flatten Seq, drop identity filters *)
  let rec flat fn =
    match fn with
    | Seq fns -> List.concat_map flat fns
    | Filter f when Bdd.is_top f -> []
    | Filter _ | Transform _ | Set_extra _ | Erase_extra _ -> [ fn ]
  in
  ignore env;
  match flat fn with
  | [] -> Filter Bdd.top
  | [ f ] -> f
  | fns -> Seq fns

(* Per-node edge construction. Every edge emitted here has its [e_from]
   location owned by [name] (ingress edges leave Src(name,·), FIB edges
   leave Fwd(name), egress and wire edges leave Pre_out(name,·,·)) — the
   ownership invariant {!patch} relies on to splice a node's edges in and
   out without touching the rest of the graph. *)
let build_node b ~session_fastpath ~dp name (cfg : Vi.t) =
  let env = b.b_env in
  let man = Pktset.man env in
  let topo = dp.Dataplane.topo in
  let fwd = bnode b (Fwd name) in
        let dropped = bnode b (Dropped name) in
        let accept = bnode b (Accept name) in
        let zoned = cfg.zones <> [] in
        let zone_ids =
          (* 0 = originated, 1..k = zones, k+1 = unzoned interface *)
          List.mapi (fun i (z : Vi.zone) -> (z.z_name, i + 1)) cfg.zones
        in
        let null_zone = List.length zone_ids + 1 in
        let zone_code_of_iface iface =
          match Zone_eval.zone_of cfg iface with
          | Some z -> (
            match List.assoc_opt z zone_ids with
            | Some c -> c
            | None -> null_zone)
          | None -> null_zone
        in
        let dnat = dst_nat_rel env cfg in
        (* ingress: Src(n,i) -> Fwd(n) *)
        List.iter
          (fun (ep : L3.endpoint) ->
            let src = bnode b (Src (name, ep.ep_iface)) in
            let in_acl =
              match Vi.find_interface cfg ep.ep_iface with
              | Some { Vi.if_in_acl = Some acl; _ } -> Acl_bdd.permits_named env cfg acl
              | Some _ | None -> Bdd.top
            in
            (* denied at ingress *)
            if not (Bdd.is_top in_acl) then
              bedge b src dropped (Filter (Bdd.bnot man in_acl));
            let steps =
              [ Filter in_acl ]
              @ (if zoned then [ zone_code_set (zone_code_of_iface ep.ep_iface) ] else [])
              @ (match dnat with
                 | Some rel -> [ Transform rel ]
                 | None -> [])
            in
            bedge b src fwd (simplify_fn env (Seq steps)))
          (L3.endpoints topo name);
        (* FIB: Fwd(n) -> Pre_out / Accept / Dropped, longest prefix first *)
        let fib = (Dataplane.node dp name).Dataplane.nr_fib in
        let entries =
          List.sort
            (fun (a : Fib.entry) (c : Fib.entry) ->
              Int.compare (Prefix.length c.fe_prefix) (Prefix.length a.fe_prefix))
            (Fib.entries fib)
        in
        let covered = ref Bdd.bot in
        let accept_set = ref Bdd.bot in
        let drop_set = ref Bdd.bot in
        let out_sets : (string * Ipv4.t option, Bdd.t ref) Hashtbl.t = Hashtbl.create 16 in
        List.iter
          (fun (e : Fib.entry) ->
            let pfx = Pktset.dst_prefix env e.fe_prefix in
            let cell = Bdd.bdiff man pfx !covered in
            covered := Bdd.bor man !covered pfx;
            if not (Bdd.is_bot cell) then
              List.iter
                (fun action ->
                  match action with
                  | Fib.Receive -> accept_set := Bdd.bor man !accept_set cell
                  | Fib.Drop_null -> drop_set := Bdd.bor man !drop_set cell
                  | Fib.Forward { out_iface; gateway } ->
                    let key = (out_iface, gateway) in
                    let r =
                      match Hashtbl.find_opt out_sets key with
                      | Some r -> r
                      | None ->
                        let r = ref Bdd.bot in
                        Hashtbl.add out_sets key r;
                        r
                    in
                    r := Bdd.bor man !r cell)
                e.fe_actions)
          entries;
        (* no route at all *)
        drop_set := Bdd.bor man !drop_set (Bdd.bnot man !covered);
        if not (Bdd.is_bot !accept_set) then bedge b fwd accept (Filter !accept_set);
        bedge b fwd dropped (Filter !drop_set);
        let out_list =
          List.sort compare (Hashtbl.fold (fun k r acc -> (k, !r) :: acc) out_sets [])
        in
        List.iter
          (fun (((out_iface, gateway) as _key), cell) ->
            let pre = bnode b (Pre_out (name, out_iface, gateway)) in
            bedge b fwd pre (Filter cell);
            (* zone policy for this egress interface *)
            let zone_fns =
              if not zoned then []
              else begin
                let out_zone = Zone_eval.zone_of cfg out_iface in
                let allowed_for code from_iface_zone =
                  (* from zone code to out_zone *)
                  match (from_iface_zone, out_zone) with
                  | None, _ when code = 0 -> Bdd.top (* originated *)
                  | fz, oz ->
                    if fz = oz then Bdd.top
                    else (
                      match (fz, oz) with
                      | Some a, Some o -> (
                        match
                          List.find_opt
                            (fun (p : Vi.zone_policy) -> p.zp_from = a && p.zp_to = o)
                            cfg.zone_policies
                        with
                        | Some p -> Acl_bdd.permits_named env cfg p.zp_acl
                        | None -> Bdd.bot)
                      | _ -> Bdd.bot)
                in
                (* originated traffic (code 0) always passes *)
                let pass = ref (zone_code_filter env 0) in
                List.iter
                  (fun (z, code) ->
                    let ok = allowed_for code (Some z) in
                    pass :=
                      Bdd.bor man !pass (Bdd.band man (zone_code_filter env code) ok))
                  zone_ids;
                (* unzoned ingress ifaces *)
                let null_ok =
                  match out_zone with
                  | None -> Bdd.top
                  | Some _ -> Bdd.bot
                in
                pass :=
                  Bdd.bor man !pass
                    (Bdd.band man (zone_code_filter env null_zone) null_ok);
                (* stateful fast path: return traffic of established sessions
                   bypasses the zone policy (§4.2.3) *)
                pass := Bdd.bor man !pass (session_fastpath name);
                [ Filter !pass; Erase_extra (List.init zone_bits Fun.id) ]
              end
            in
            let out_acl =
              match Vi.find_interface cfg out_iface with
              | Some { Vi.if_out_acl = Some acl; _ } -> Acl_bdd.permits_named env cfg acl
              | Some _ | None -> Bdd.top
            in
            let egress_ip =
              Option.map (fun (ep : L3.endpoint) -> ep.ep_ip)
                (L3.endpoint topo ~node:name ~iface:out_iface)
            in
            let snat = src_nat_rel env cfg ~egress_ip in
            let egress_steps =
              zone_fns
              @ [ Filter out_acl ]
              @ (match snat with
                 | Some rel -> [ Transform rel ]
                 | None -> [])
            in
            (* drops at egress (zone deny or ACL deny) *)
            let pass_filter =
              List.fold_left
                (fun acc fn ->
                  match fn with
                  | Filter f -> Bdd.band man acc f
                  | Transform _ | Set_extra _ | Erase_extra _ | Seq _ -> acc)
                Bdd.top zone_fns
            in
            let denied =
              Bdd.bnot man (Bdd.band man pass_filter out_acl)
            in
            if not (Bdd.is_bot denied) then bedge b pre dropped (Filter denied);
            (* wire delivery *)
            (match gateway with
             | Some gw -> (
               match L3.owner_of_ip topo gw with
               | Some ep when ep.L3.ep_node <> name ->
                 let tgt = bnode b (Src (ep.L3.ep_node, ep.L3.ep_iface)) in
                 bedge b pre tgt (simplify_fn env (Seq egress_steps))
               | Some _ | None ->
                 (* unknown gateway: leaves the modeled network *)
                 let tgt = bnode b (Dst (name, out_iface)) in
                 bedge b pre tgt (simplify_fn env (Seq egress_steps)))
             | None -> (
               (* directly attached: split per neighbor device, remainder is
                  delivered to the subnet *)
               match L3.endpoint topo ~node:name ~iface:out_iface with
               | None ->
                 let tgt = bnode b (Dst (name, out_iface)) in
                 bedge b pre tgt (simplify_fn env (Seq egress_steps))
               | Some my_ep ->
                 let neighbors = L3.neighbors topo ~node:name ~iface:out_iface in
                 let neighbor_dsts = ref Bdd.bot in
                 List.iter
                   (fun (nep : L3.endpoint) ->
                     let d = Pktset.value env Field.Dst_ip nep.ep_ip in
                     neighbor_dsts := Bdd.bor man !neighbor_dsts d;
                     let tgt = bnode b (Src (nep.ep_node, nep.ep_iface)) in
                     bedge b pre tgt (simplify_fn env (Seq (egress_steps @ [ Filter d ]))))
                   neighbors;
                 let rest =
                   Bdd.bdiff man (Pktset.dst_prefix env my_ep.ep_prefix) !neighbor_dsts
                 in
                 let tgt = bnode b (Dst (name, out_iface)) in
                 bedge b pre tgt (simplify_fn env (Seq (egress_steps @ [ Filter rest ])))))
            )
          out_list

(* Chain contraction: a Pre_out with exactly one incoming and one outgoing
   edge is folded into a single edge. Node-local: both edges are owned by
   the Pre_out's node, so contraction commutes with per-node patching.
   [select] restricts which Pre_out locations are considered. *)
let contract_chains t ~select =
  let env = t.env in
  Array.iteri
    (fun v l ->
      match l with
      | Pre_out _ when select v -> (
        match (t.in_edges.(v), t.out_edges.(v)) with
        | [ ein ], [ eout ] when ein.e_from <> v && eout.e_to <> v ->
          let merged =
            { e_from = ein.e_from; e_to = eout.e_to;
              e_fn = simplify_fn env (Seq [ ein.e_fn; eout.e_fn ]) }
          in
          t.out_edges.(ein.e_from) <-
            merged :: List.filter (fun e -> e != ein) t.out_edges.(ein.e_from);
          t.in_edges.(eout.e_to) <-
            merged :: List.filter (fun e -> e != eout) t.in_edges.(eout.e_to);
          t.in_edges.(v) <- [];
          t.out_edges.(v) <- []
        | _ -> ())
      | Pre_out _ | Src _ | Fwd _ | Dst _ | Accept _ | Dropped _ -> ())
    t.locs

let build ?env ?(compress = true) ?sessions ~configs ~dp () =
  let env =
    match env with
    | Some e -> e
    | None -> Pktset.create ()
  in
  let session_fastpath name =
    match sessions with
    | Some f -> f name
    | None -> Bdd.bot
  in
  let b =
    { b_env = env; b_locs = []; b_index = Hashtbl.create 1024; b_count = 0;
      b_edges = [] }
  in
  List.iter
    (fun name ->
      match configs name with
      | None -> ()
      | Some cfg -> build_node b ~session_fastpath ~dp name cfg)
    dp.Dataplane.node_order;
  let locs = Array.of_list (List.rev b.b_locs) in
  let n = Array.length locs in
  let out_edges = Array.make n [] and in_edges = Array.make n [] in
  List.iter
    (fun e ->
      out_edges.(e.e_from) <- e :: out_edges.(e.e_from);
      in_edges.(e.e_to) <- e :: in_edges.(e.e_to))
    b.b_edges;
  let t = { env; locs; loc_index = b.b_index; out_edges; in_edges } in
  if compress then contract_chains t ~select:(fun _ -> true);
  t

(* Which node a location belongs to (the node whose construction emits the
   location's outgoing edges). *)
let loc_node = function
  | Src (n, _) | Fwd n | Pre_out (n, _, _) | Dst (n, _) | Accept n
  | Dropped n -> n

(* In-place scenario patching (ISSUE 10 satellite; ROADMAP stretch of the
   failure sweep): rebuild only the edges owned by [dirty] nodes instead of
   reconstructing the whole graph. The base is never mutated — locations
   and surviving edges are copied (new locations append past the base's) —
   so concurrent scenarios can patch one shared base. Callers must list
   every node whose FIB, config, or *local L3 surroundings* changed (wire
   edges read neighbor interfaces, so both ends of a failed link and the
   neighbors of every downed interface are dirty too).

   Stale locations (a Dst or Src the scenario no longer targets) are kept
   but end up with no incident edges: seeds at such sinks propagate nowhere
   and forward passes never reach them, so query *values* — and therefore
   verdicts, rows and witnesses — are unaffected. What patching does not
   preserve is the base's location numbering semantics for *new* graphs:
   the patched graph is its own [t] with its own spec/fingerprint. *)
let patch ~base ~dirty ~configs ~dp () =
  let env = base.env in
  let is_dirty =
    let h = Hashtbl.create 16 in
    List.iter (fun n -> Hashtbl.replace h n ()) dirty;
    fun n -> Hashtbl.mem h n
  in
  let b =
    { b_env = env;
      b_locs = List.rev (Array.to_list base.locs);
      b_index = Hashtbl.copy base.loc_index;
      b_count = Array.length base.locs;
      b_edges = [] }
  in
  (* surviving edges, flattened in node-index order like [to_spec] does;
     uncontracted copies live in [b_edges] reversed, matching [build] *)
  Array.iter
    (List.iter (fun e ->
         if not (is_dirty (loc_node base.locs.(e.e_from))) then
           b.b_edges <- e :: b.b_edges))
    base.out_edges;
  let session_fastpath _ = Bdd.bot in
  List.iter
    (fun name ->
      if is_dirty name then
        match configs name with
        | None -> ()
        | Some cfg -> build_node b ~session_fastpath ~dp name cfg)
    dp.Dataplane.node_order;
  let locs = Array.of_list (List.rev b.b_locs) in
  let n = Array.length locs in
  let out_edges = Array.make n [] and in_edges = Array.make n [] in
  List.iter
    (fun e ->
      out_edges.(e.e_from) <- e :: out_edges.(e.e_from);
      in_edges.(e.e_to) <- e :: in_edges.(e.e_to))
    b.b_edges;
  let t = { env; locs; loc_index = b.b_index; out_edges; in_edges } in
  (* Only freshly rebuilt Pre_outs need contraction: surviving edges were
     copied already contracted, and contraction is node-local. *)
  contract_chains t ~select:(fun v -> is_dirty (loc_node t.locs.(v)));
  t

(* Structural equality of two graphs living in the SAME manager. Hash-consing
   makes semantically equal BDDs physically equal there, so comparing edge
   programs with {!Bdd.equal} decides exactly the same predicate as comparing
   canonical spec fingerprints — without exporting, marshalling, or hashing
   either graph. [Fquery.update] uses this to detect forwarding-neutral edits
   cheaply (the warm rebuild always happens inside the base's manager). *)
let same_graph a b =
  let rec fn_eq f g =
    match (f, g) with
    | Filter x, Filter y | Transform x, Transform y -> Bdd.equal x y
    | Set_extra x, Set_extra y -> x = y
    | Erase_extra x, Erase_extra y -> x = y
    | Seq xs, Seq ys -> (
      try List.for_all2 fn_eq xs ys with Invalid_argument _ -> false)
    | (Filter _ | Transform _ | Set_extra _ | Erase_extra _ | Seq _), _ -> false
  in
  let edge_eq x y = x.e_from = y.e_from && x.e_to = y.e_to && fn_eq x.e_fn y.e_fn in
  let edges_eq ea eb =
    try List.for_all2 edge_eq ea eb with Invalid_argument _ -> false
  in
  a.env == b.env
  && a.locs = b.locs
  && Array.length a.out_edges = Array.length b.out_edges
  && (let ok = ref true in
      Array.iteri (fun i ea -> if !ok then ok := edges_eq ea b.out_edges.(i)) a.out_edges;
      !ok)

(* --- manager-independent graph specs ----------------------------------- *)

(* A spec captures the whole graph — locations, edges, and the edge
   programs' BDDs — without reference to any BDD manager, so a worker domain
   can re-materialize the graph into its own private manager. Edge functions
   are mirrored structurally with BDD roots replaced by indices into one
   shared export table (deduplicated node-wise by {!Bdd.export}). *)
type func_spec =
  | Sf_filter of int
  | Sf_transform of int
  | Sf_set_extra of (int * bool) list
  | Sf_erase_extra of int list
  | Sf_seq of func_spec list

type spec = {
  sp_order : Pktset.order;
  sp_extra_bits : int;
  sp_locs : loc array;
  sp_edges : (int * int * func_spec) array;  (* (from, to, fn) *)
  sp_bdds : Bdd.exported;
}

let to_spec t =
  let roots_rev = ref [] in
  let n_roots = ref 0 in
  let root_index bdd =
    let i = !n_roots in
    roots_rev := bdd :: !roots_rev;
    n_roots := i + 1;
    i
  in
  let rec spec_fn = function
    | Filter f -> Sf_filter (root_index f)
    | Transform rel -> Sf_transform (root_index rel)
    | Set_extra bits -> Sf_set_extra bits
    | Erase_extra bits -> Sf_erase_extra bits
    | Seq fns -> Sf_seq (List.map spec_fn fns)
  in
  let edges = ref [] in
  (* Flatten out_edges in node-index order; within a node, keep list order.
     Reconstruction rebuilds both adjacency arrays from this sequence. *)
  Array.iter
    (fun es ->
      List.iter (fun e -> edges := (e.e_from, e.e_to, spec_fn e.e_fn) :: !edges) es)
    t.out_edges;
  let sp_edges = Array.of_list (List.rev !edges) in
  let roots = List.rev !roots_rev in
  { sp_order = Pktset.order t.env;
    sp_extra_bits = Pktset.extra_count t.env;
    sp_locs = Array.copy t.locs;
    sp_edges;
    sp_bdds = Bdd.export (Pktset.man t.env) roots }

(* [export] emits a pure function of the BDD structure (post-order table), so
   two graphs with the same semantics fingerprint identically regardless of
   which manager built them — exactly what a worker-resident cache key
   needs. *)
let spec_fingerprint spec = Digest.to_hex (Digest.string (Marshal.to_string spec []))

let of_spec ?env spec =
  let env =
    match env with
    | Some e ->
      if Pktset.order e <> spec.sp_order || Pktset.extra_count e <> spec.sp_extra_bits
      then invalid_arg "Fgraph.of_spec: incompatible environment layout";
      e
    | None -> Pktset.create ~order:spec.sp_order ~extra_bits:spec.sp_extra_bits ()
  in
  let roots = Array.of_list (Bdd.import (Pktset.man env) spec.sp_bdds) in
  let rec fn_of = function
    | Sf_filter i -> Filter roots.(i)
    | Sf_transform i -> Transform roots.(i)
    | Sf_set_extra bits -> Set_extra bits
    | Sf_erase_extra bits -> Erase_extra bits
    | Sf_seq fns -> Seq (List.map fn_of fns)
  in
  let locs = Array.copy spec.sp_locs in
  let n = Array.length locs in
  let loc_index = Hashtbl.create (max 16 n) in
  Array.iteri (fun i l -> Hashtbl.add loc_index l i) locs;
  let out_edges = Array.make n [] and in_edges = Array.make n [] in
  (* Cons in reverse so each adjacency list comes out in spec order. *)
  for i = Array.length spec.sp_edges - 1 downto 0 do
    let from_, to_, fns = spec.sp_edges.(i) in
    let e = { e_from = from_; e_to = to_; e_fn = fn_of fns } in
    out_edges.(from_) <- e :: out_edges.(from_);
    in_edges.(to_) <- e :: in_edges.(to_)
  done;
  { env; locs; loc_index; out_edges; in_edges }

let env t = t.env

let edge_interfaces t ~dp =
  let topo = dp.Dataplane.topo in
  ignore t;
  List.concat_map
    (fun name ->
      List.filter_map
        (fun (ep : L3.endpoint) ->
          if L3.neighbors topo ~node:name ~iface:ep.ep_iface = [] then
            Some (name, ep.ep_iface)
          else None)
        (L3.endpoints topo name))
    dp.Dataplane.node_order
