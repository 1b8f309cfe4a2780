type schedule = Colored | Lockstep

type options = {
  schedule : schedule;
  use_logical_clocks : bool;
  domains : int;
  pool : Par.Pool.t option;
  max_rounds : int;
  outer_fuel : int;
  full_rib_compare : bool;
}

let default_options =
  { schedule = Colored; use_logical_clocks = true; domains = 1; pool = None;
    max_rounds = 500; outer_fuel = 5; full_rib_compare = false }

type session_report = {
  sr_node : string;
  sr_peer : Ipv4.t;
  sr_remote_node : string option;
  sr_is_ibgp : bool;
  sr_established : bool;
  sr_reason : string option;
}

type node_result = {
  nr_node : string;
  nr_main : Rib.t;
  nr_bgp : Rib.t;
  nr_ospf : Rib.t option;
  nr_fib : Fib.t;
}

(* A wire held as segments: the non-empty exports of the sender's best
   routes net by net, in ascending net order. [Stdlib.compare] on nets is
   the order [canonical_route_order] puts them in ([net] is [Route.t]'s
   first field), so the segments concatenated are the flat wire. Export
   never rewrites a route's net, so a segment's net — its key — is the net
   of its routes. *)
type wire = Route.t list array

(* One receiver-side BGP wire snapshot: the exact (arrival-free, canonically
   ordered) route list arriving over one established internal session, as
   produced by the sender's export pipeline, held as per-net segments so
   that a sender whose best sets moved re-exports only the moved nets.
   Keyed from the receiver side because sessions can be asymmetric
   (per-side multihop/update-source). The incremental engine compares these
   wires to decide whether a neighbor's inputs actually changed. *)
type export_entry = {
  ex_receiver : string;
  ex_peer_ip : Ipv4.t;  (* the sender-side session address (receiver's view) *)
  ex_local_ip : Ipv4.t;  (* the receiver-side session address *)
  ex_is_ibgp : bool;
  ex_sender : string;
  mutable ex_reverse : Vi.bgp_neighbor;
      (* the sender's neighbor stanza for this session, from the sender's
         current config up to its source line *)
  mutable ex_wire : wire;
}

(* An internal remote carries the peer's index and the peer's neighbor
   stanza pointing back at us. *)
type remote = Internal of int * Vi.bgp_neighbor | External of Dp_env.external_peer

(* A node's BGP session set, exactly: per established session the peer and
   local addresses, the remote, the iBGP flag and both neighbor stanzas; then
   the down sessions with their reasons. A node's BGP RIBs are a function of
   this set and the wires arriving over it, so the incremental engine keeps
   a node's RIBs while both are unchanged. *)
type session_key =
  (Ipv4.t * Ipv4.t * remote * bool * Vi.bgp_neighbor) list * (Vi.bgp_neighbor * string) list

(* Result of simulating one dependency component (see [component_partition]).
   Retained inside [t] so that [update] can splice unchanged components'
   results into a new snapshot without re-running them, and warm-start
   route-delta propagation inside dirty ones. *)
type comp_result = {
  cr_members : string list;  (* hostnames, in config order *)
  cr_results : (string * node_result) list;
  cr_sessions : session_report list;
  cr_converged : bool;
  cr_oscillated : bool;
  cr_rounds : int;
  cr_outer : int;
  cr_quarantined : (string * string) list;
  cr_diags : Diag.t list;
  cr_prebgp : (string * string) list;
      (* per-member digest of the pre-BGP main RIB (and external BGP inputs):
         a member whose digest matches the base's needs re-simulation only if
         its incoming advertisements change *)
  cr_exports : export_entry list;
  cr_session_keys : (string * session_key) list;
      (* per member, the session set its BGP RIBs were derived from *)
  cr_configs : Vi.t list;  (* the members' configs, which its wires were exported under *)
  cr_ospf_digest : string;  (* digest of the last SPF inputs used *)
  cr_delta_safe : bool;
      (* false when the fixed point is timing-dependent (an arrival-decided
         best-set boundary on some node): warm-started propagation could then
         legitimately land on a different fixed point, so [update] falls back
         to scratch *)
}

type stats = {
  st_components : int;
  st_dirty_components : int;
  st_simulated_nodes : int;
  st_reused_nodes : int;
  st_frontier_nodes : int;
  st_converged_early : int;
  st_exported_routes : int;
  st_imported_routes : int;
}

type t = {
  topo : L3.t;
  nodes : (string, node_result) Hashtbl.t;
  node_order : string list;
  converged : bool;
  oscillated : bool;
  rounds : int;
  outer_iterations : int;
  sessions : session_report list;
  quarantined : (string * string) list;
  diags : Diag.t list;
  components : string list list;
  comp_results : comp_result list;
  stats : stats;
}

(* --- internal simulation state --- *)

type session = {
  ss_local_ip : Ipv4.t;
  ss_peer_ip : Ipv4.t;
  ss_neighbor : Vi.bgp_neighbor;  (* our side's neighbor stanza *)
  ss_is_ibgp : bool;
  ss_remote : remote;
  mutable ss_consumed : int;
}

type publication = { pub_version : int; pub_round : int; pub_adds : Route.t list; pub_dels : Route.t list }

type node = {
  idx : int;
  cfg : Vi.t;
  router_id : Ipv4.t;
  mutable sessions : session list;
  mutable down_sessions : (Vi.bgp_neighbor * string) list;  (* reason *)
  static_configured : Vi.static_route list;
  static_rib : Rib.t;
  mutable ospf_rib : Rib.t option;
  bgp_rib : Rib.t;
  main_rib : Rib.t;
  mutable clock : int;
  mutable version : int;
  mutable published : publication list;  (* newest first; pruned *)
  mutable local_bgp : Route.t list;
  mutable published_this_round : bool;
}

let session_key node : session_key =
  ( List.map
      (fun s ->
        (s.ss_peer_ip, s.ss_local_ip, s.ss_remote, s.ss_is_ibgp, s.ss_neighbor))
      node.sessions,
    node.down_sessions )

let local_as (node : node) =
  match node.cfg.Vi.bgp with
  | Some b -> b.bp_as
  | None -> 0

let find_router_id (cfg : Vi.t) =
  let candidates =
    (match cfg.bgp with
     | Some b -> Option.to_list b.bp_router_id
     | None -> [])
    @ (match cfg.ospf with
       | Some o -> Option.to_list o.op_router_id
       | None -> [])
  in
  match candidates with
  | rid :: _ -> rid
  | [] ->
    (* Highest loopback address, else highest interface address. *)
    let ips which =
      List.filter_map
        (fun (i : Vi.interface) ->
          match i.if_address with
          | Some (ip, _)
            when which = (String.length i.if_name >= 4
                         && String.lowercase_ascii (String.sub i.if_name 0 4) = "loop") ->
            Some ip
          | _ -> None)
        cfg.interfaces
    in
    (match List.sort (fun a b -> Int.compare b a) (ips true) with
     | ip :: _ -> ip
     | [] -> (
       match List.sort (fun a b -> Int.compare b a) (ips false) with
       | ip :: _ -> ip
       | [] -> 0))

let igp_cost node ip =
  match Rib.lookup node.main_rib ip with
  | Some (_, r :: _) ->
    if Route_proto.is_bgp r.Route.protocol then Some (1_000_000 + r.Route.metric)
    else Some r.Route.metric
  | Some (_, []) | None -> None

(* What a node's export pipeline reads of its config ([export_route] and the
   sender-side policies it runs): the vendor (policy semantics), the router
   id, the BGP process, and the lists and route maps policies look up —
   without source lines, which move with edits elsewhere in the file. Two
   configs with equal views export each best route alike. *)
let export_config (cfg : Vi.t) =
  let c = Vi.strip_provenance cfg in
  (c.vendor, find_router_id cfg, c.bgp, c.prefix_lists, c.community_lists, c.as_path_lists,
   c.route_maps)

let make_node idx (cfg : Vi.t) =
  let main_rib =
    Rib.create ~prefer:Cmp.main_prefer ~multipath_equal:Cmp.main_multipath_equal
      ~max_paths:16 ()
  in
  let node_ref = ref None in
  let cost ip =
    match !node_ref with
    | Some n -> igp_cost n ip
    | None -> None
  in
  let max_paths =
    match cfg.bgp with
    | Some b -> max b.bp_max_paths b.bp_max_paths_ibgp
    | None -> 1
  in
  let bgp_rib =
    Rib.create
      ~prefer:(fun a b -> Cmp.bgp_prefer ~igp_cost:cost a b)
      ~multipath_equal:(fun a b -> Cmp.bgp_multipath_equal ~igp_cost:cost a b)
      ~max_paths ()
  in
  let node =
    { idx; cfg; router_id = find_router_id cfg; sessions = []; down_sessions = [];
      static_configured = cfg.static_routes;
      static_rib =
        Rib.create ~prefer:Cmp.main_prefer ~multipath_equal:Cmp.main_multipath_equal
          ~max_paths:4 ();
      ospf_rib = None; bgp_rib; main_rib; clock = 0; version = 0; published = [];
      local_bgp = []; published_this_round = false }
  in
  node_ref := Some node;
  node

(* When clocks are disabled (Figure 1 ablation) the comparator must not see
   arrival times; we zero them at import. *)

(* --- connected & static phases --- *)

let connected_routes env (cfg : Vi.t) =
  List.concat_map
    (fun (i : Vi.interface) ->
      if (not i.if_enabled) || Dp_env.link_down env ~node:cfg.hostname ~iface:i.if_name
      then []
      else
        List.concat_map
          (fun addr ->
            match addr with
            | Some (ip, len) ->
              [ Route.connected ~net:(Prefix.make ip len) ~iface:i.if_name;
                Route.local ~ip ~iface:i.if_name ]
            | None -> [])
          (i.if_address :: List.map Option.some i.if_secondary))
    cfg.interfaces

let iface_up env (cfg : Vi.t) name =
  match Vi.find_interface cfg name with
  | Some i -> i.if_enabled && not (Dp_env.link_down env ~node:cfg.hostname ~iface:name)
  | None -> false

(* Activate statics against the current main RIB; returns true if anything
   changed. Recursive statics resolve through previously activated routes. *)
let activate_statics env node =
  let changed = ref false in
  List.iter
    (fun (sr : Vi.static_route) ->
      let nh, active =
        match sr.sr_next_hop with
        | Vi.Nh_discard -> (Route.Nh_discard, true)
        | Vi.Nh_interface i -> (Route.Nh_iface i, iface_up env node.cfg i)
        | Vi.Nh_ip ip -> (
          (Route.Nh_ip ip,
           match Rib.lookup node.main_rib ip with
           | Some (p, _) ->
             (* A static may not resolve through itself. *)
             not (Prefix.equal p sr.sr_prefix)
           | None -> false))
      in
      let route = Route.static ~net:sr.sr_prefix ~nh ~ad:sr.sr_ad ~tag:sr.sr_tag in
      let present =
        List.exists (Route.same route) (Rib.best node.static_rib sr.sr_prefix)
      in
      if active && not present then begin
        Rib.merge node.static_rib route;
        Rib.merge node.main_rib route;
        changed := true
      end
      else if (not active) && present then begin
        Rib.withdraw node.static_rib route;
        Rib.withdraw node.main_rib route;
        changed := true
      end)
    node.static_configured;
  !changed

(* --- BGP session establishment --- *)

let interface_ip_on_subnet topo nodename ip =
  List.find_opt
    (fun (ep : L3.endpoint) -> Prefix.contains ep.ep_prefix ip)
    (L3.endpoints topo nodename)

let session_local_ip topo node (nbr : Vi.bgp_neighbor) =
  match nbr.bn_update_source with
  | Some ifname -> (
    match Vi.find_interface node.cfg ifname with
    | Some { Vi.if_address = Some (ip, _); _ } -> Some ip
    | Some _ | None -> None)
  | None -> (
    match interface_ip_on_subnet topo node.cfg.Vi.hostname nbr.bn_peer with
    | Some ep -> Some ep.L3.ep_ip
    | None ->
      (* fall back to the router id's interface, as routers fall back to a
         loopback source *)
      if node.router_id <> 0 then Some node.router_id else None)

(* §4.1.1: session viability depends on a successful TCP connection, which
   interface ACLs can break. For directly connected sessions we check the
   four ACL points of each connection attempt (initiator egress, responder
   ingress, responder egress, initiator ingress); the session is down only
   when BOTH connection directions are blocked, since either speaker may
   initiate. *)
let tcp_blocked_by_acls topo node (remote_node : node option) local_ip peer_ip =
  let cfg_of ip =
    if ip = local_ip then Some node.cfg
    else Option.map (fun n -> n.cfg) remote_node
  in
  let acl_denies (cfg : Vi.t) ~inbound ~facing pkt =
    match interface_ip_on_subnet topo cfg.Vi.hostname facing with
    | None -> false
    | Some ep -> (
      match Vi.find_interface cfg ep.L3.ep_iface with
      | None -> false
      | Some i -> (
        match (if inbound then i.Vi.if_in_acl else i.Vi.if_out_acl) with
        | None -> false
        | Some name -> (
          match Vi.find_acl cfg name with
          | Some acl -> not (Acl_eval.permits acl pkt)
          | None ->
            not (Semantics.for_vendor cfg.Vi.vendor).Semantics.undefined_acl_permits)))
  in
  let pkt_blocked (pkt : Packet.t) =
    let out_blocked =
      match cfg_of pkt.src_ip with
      | Some cfg -> acl_denies cfg ~inbound:false ~facing:pkt.dst_ip pkt
      | None -> false
    and in_blocked =
      match cfg_of pkt.dst_ip with
      | Some cfg -> acl_denies cfg ~inbound:true ~facing:pkt.src_ip pkt
      | None -> false
    in
    out_blocked || in_blocked
  in
  let connection_blocked src dst =
    let syn = Packet.tcp ~src ~dst 179 in
    let syn_ack =
      Packet.tcp
        ~flags:(Packet.Tcp_flags.syn lor Packet.Tcp_flags.ack)
        ~src_port:179 ~src:dst ~dst:src 49152
    in
    pkt_blocked syn || pkt_blocked syn_ack
  in
  connection_blocked local_ip peer_ip && connection_blocked peer_ip local_ip

let establish_sessions ?(peer_quarantined = fun _ -> false) env topo nodes node_index node =
  match node.cfg.Vi.bgp with
  | None ->
    node.sessions <- [];
    node.down_sessions <- []
  | Some bgp ->
    let sessions = ref [] and down = ref [] in
    List.iter
      (fun (nbr : Vi.bgp_neighbor) ->
        let fail reason = down := (nbr, reason) :: !down in
        if nbr.bn_shutdown then fail "administratively shut down"
        else
          match session_local_ip topo node nbr with
          | None -> fail "no source address for session"
          | Some local_ip -> (
            let my_as = Option.value nbr.bn_local_as ~default:bgp.bp_as in
            match L3.owner_of_ip topo nbr.bn_peer with
            | Some ep -> (
              match Hashtbl.find_opt node_index ep.L3.ep_node with
              | None -> fail "peer node unknown"
              | Some ridx when peer_quarantined ridx -> fail "peer node quarantined"
              | Some ridx -> (
                let rnode = nodes.(ridx) in
                match rnode.cfg.Vi.bgp with
                | None -> fail "peer has no bgp process"
                | Some rbgp -> (
                  let reverse =
                    List.find_opt
                      (fun (rn : Vi.bgp_neighbor) -> rn.bn_peer = local_ip)
                      rbgp.bp_neighbors
                  in
                  match reverse with
                  | None -> fail "peer has no matching neighbor statement"
                  | Some rn ->
                    let their_as = Option.value rn.bn_local_as ~default:rbgp.bp_as in
                    if rn.bn_shutdown then fail "peer side shut down"
                    else if nbr.bn_remote_as <> their_as then
                      fail
                        (Printf.sprintf "remote-as mismatch (configured %d, peer is %d)"
                           nbr.bn_remote_as their_as)
                    else if rn.bn_remote_as <> my_as then
                      fail "peer's remote-as does not match our AS"
                    else begin
                      let is_ibgp = my_as = their_as in
                      let local_ep =
                        interface_ip_on_subnet topo node.cfg.Vi.hostname nbr.bn_peer
                      in
                      let directly_connected = local_ep <> None in
                      (* the TCP connection needs the link itself: a session
                         over an administratively/failure-downed interface
                         (either end) has no direct path and must fall back
                         to multihop reachability, if configured *)
                      let link_up =
                        match local_ep with
                        | None -> false
                        | Some ep ->
                          iface_up env node.cfg ep.L3.ep_iface
                          && (match
                                interface_ip_on_subnet topo
                                  rnode.cfg.Vi.hostname local_ip
                              with
                             | Some rep -> iface_up env rnode.cfg rep.L3.ep_iface
                             | None -> true)
                      in
                      let reachable =
                        if directly_connected && link_up then true
                        else if is_ibgp || nbr.bn_ebgp_multihop then
                          Rib.lookup node.main_rib nbr.bn_peer <> None
                          && Rib.lookup rnode.main_rib local_ip <> None
                        else false
                      in
                      if not reachable then
                        fail
                          (if directly_connected && not link_up then
                             "session interface down"
                           else if is_ibgp || nbr.bn_ebgp_multihop then
                             "peer unreachable"
                           else "eBGP peer not directly connected (no ebgp-multihop)")
                      else if
                        directly_connected
                        && tcp_blocked_by_acls topo node (Some rnode) local_ip nbr.bn_peer
                      then fail "BGP TCP session blocked by ACL"
                      else
                        sessions :=
                          { ss_local_ip = local_ip; ss_peer_ip = nbr.bn_peer;
                            ss_neighbor = nbr; ss_is_ibgp = is_ibgp;
                            ss_remote = Internal (ridx, rn);
                            ss_consumed = 0 }
                          :: !sessions
                    end)))
            | None -> (
              match Dp_env.find_peer env nbr.bn_peer with
              | None -> fail "peer address unknown (no device or environment entry)"
              | Some xp ->
                if nbr.bn_remote_as <> xp.Dp_env.xp_as then
                  fail
                    (Printf.sprintf "remote-as mismatch (configured %d, peer is %d)"
                       nbr.bn_remote_as xp.Dp_env.xp_as)
                else
                  let directly_connected =
                    match interface_ip_on_subnet topo node.cfg.Vi.hostname nbr.bn_peer with
                    | Some ep -> iface_up env node.cfg ep.L3.ep_iface
                    | None -> false
                  in
                  if not (directly_connected || nbr.bn_ebgp_multihop) then
                    fail "external peer not on a connected subnet"
                  else if
                    directly_connected
                    && tcp_blocked_by_acls topo node None local_ip nbr.bn_peer
                  then fail "BGP TCP session blocked by ACL"
                  else
                    sessions :=
                      { ss_local_ip = local_ip; ss_peer_ip = nbr.bn_peer;
                        ss_neighbor = nbr; ss_is_ibgp = false;
                        ss_remote = External xp; ss_consumed = 0 }
                      :: !sessions)))
      bgp.bp_neighbors;
    node.sessions <- List.rev !sessions;
    node.down_sessions <- List.rev !down

(* --- BGP route processing --- *)

let next_arrival options node =
  if options.use_logical_clocks then begin
    node.clock <- node.clock + 1;
    node.clock
  end
  else 0

(* Export r from [sender] toward the peer described by [rev] (the sender's
   neighbor stanza for the receiver). [sender_ip] is the sender's session
   address and [ctx] the sender's policy context with it as [self_ip],
   built once per session rather than once per route. Returns the route as
   it appears on the wire. *)
let export_route ~ctx sender (rev : Vi.bgp_neighbor) ~sender_ip ~receiver_ip ~is_ibgp r =
  let open Route in
  if r.from_peer = receiver_ip then None (* don't echo back to the sender *)
  else
    let attrs = Route.get_attrs r in
    if List.mem Vi.no_advertise attrs.Attrs.communities then None
    else if (not is_ibgp) && List.mem Vi.no_export attrs.Attrs.communities then None
    else
    (* Reflection rules for iBGP-learned routes toward iBGP peers. *)
    let reflection =
      if r.protocol = Route_proto.Ibgp && is_ibgp then begin
        let cluster_id =
          match sender.cfg.Vi.bgp with
          | Some b -> (
            match b.bp_cluster_id with
            | Some c -> Some c
            | None -> if rev.bn_route_reflector_client then Some sender.router_id else None)
          | None -> None
        in
        let from_client =
          match sender.cfg.Vi.bgp with
          | Some b ->
            List.exists
              (fun (n : Vi.bgp_neighbor) ->
                n.bn_peer = r.from_peer && n.bn_route_reflector_client)
              b.bp_neighbors
          | None -> false
        in
        match cluster_id with
        | Some cid when rev.bn_route_reflector_client || from_client ->
          let originator =
            if attrs.Attrs.originator_id = 0 then r.from_rid
            else attrs.Attrs.originator_id
          in
          Some
            (Attrs.update ~originator_id:originator
               ~cluster_list:(cid :: attrs.Attrs.cluster_list) attrs)
        | Some _ | None -> None (* not reflected *)
      end
      else Some attrs
    in
    match reflection with
    | None -> None
    | Some attrs -> (
      let r = { r with attrs = Some attrs } in
      (* Sender-side policy, in the sender's configuration context. *)
      let pl_ok =
        match rev.bn_prefix_list_out with
        | Some pl -> Policy_eval.run_prefix_list_named ctx pl r.net
        | None -> true
      in
      if not pl_ok then None
      else
        match Policy_eval.run_optional ctx rev.bn_export_policy r with
        | Policy_eval.Denied -> None
        | Policy_eval.Accepted r ->
          (* One re-interned update: weight reset, communities stripped
             unless sent, and on eBGP the rewrites below. *)
          let attrs = Route.get_attrs r in
          let communities = if rev.bn_send_community then None else Some [] in
          let r =
            if not is_ibgp then
              (* eBGP: prepend our AS, set next hop to our address, reset
                 local preference for the receiver. *)
              let sender_as =
                Option.value rev.bn_local_as
                  ~default:
                    (match sender.cfg.Vi.bgp with
                     | Some b -> b.bp_as
                     | None -> 0)
              in
              { r with
                attrs =
                  Some
                    (Attrs.update ~weight:0 ?communities
                       ~as_path:(sender_as :: attrs.Attrs.as_path) ~local_pref:100
                       ~originator_id:0 ~cluster_list:[] attrs);
                next_hop = Nh_ip sender_ip }
            else
              let nh =
                if rev.bn_next_hop_self || r.from_peer = 0 then Nh_ip sender_ip
                else r.next_hop
              in
              { r with attrs = Some (Attrs.update ~weight:0 ?communities attrs); next_hop = nh }
          in
          Some { r with from_peer = 0; from_rid = sender.router_id })

(* Import r at [receiver] over [s]; returns the route to merge. *)
let import_route options receiver (s : session) ~sender_rid r =
  let open Route in
  let my_as = local_as receiver in
  let attrs = Route.get_attrs r in
  let loop_count = List.length (List.filter (( = ) my_as) attrs.Attrs.as_path) in
  if (not s.ss_is_ibgp) && loop_count > s.ss_neighbor.Vi.bn_allowas_in then None
  else if s.ss_is_ibgp && attrs.Attrs.originator_id = receiver.router_id then None
  else if
    s.ss_is_ibgp
    &&
    let my_cluster =
      match receiver.cfg.Vi.bgp with
      | Some b -> Option.value b.bp_cluster_id ~default:receiver.router_id
      | None -> receiver.router_id
    in
    List.mem my_cluster attrs.Attrs.cluster_list
  then None
  else
    let ctx = Policy_eval.make_ctx ~self_ip:s.ss_local_ip receiver.cfg in
    let pl_ok =
      match s.ss_neighbor.Vi.bn_prefix_list_in with
      | Some pl -> Policy_eval.run_prefix_list_named ctx pl r.net
      | None -> true
    in
    if not pl_ok then None
    else
      match Policy_eval.run_optional ctx s.ss_neighbor.Vi.bn_import_policy r with
      | Policy_eval.Denied -> None
      | Policy_eval.Accepted r ->
        let proto = if s.ss_is_ibgp then Route_proto.Ibgp else Route_proto.Ebgp in
        Some
          { r with
            protocol = proto;
            admin = Route_proto.admin_distance proto;
            arrival = next_arrival options receiver;
            from_peer = s.ss_peer_ip;
            from_rid = sender_rid }

(* Locally originated BGP routes: network statements and redistribution. *)
let compute_local_bgp node =
  match node.cfg.Vi.bgp with
  | None -> []
  | Some bgp ->
    let ctx = Policy_eval.make_ctx node.cfg in
    let from_networks =
      List.filter_map
        (fun ((p, rm) : Prefix.t * string option) ->
          let best = Rib.best node.main_rib p in
          let igp =
            List.find_opt
              (fun (r : Route.t) -> not (Route_proto.is_bgp r.Route.protocol))
              best
          in
          Option.bind igp (fun (src : Route.t) ->
              let candidate =
                { (Route.bgp ~proto:Route_proto.Ibgp ~net:p ~nh:src.Route.next_hop
                     ~attrs:(Attrs.make ~weight:32768 ~origin:Vi.Origin_igp ())
                     ~arrival:0 ~from_peer:0 ~from_rid:node.router_id)
                  with Route.admin = 200 }
              in
              match Policy_eval.run_optional ctx rm candidate with
              | Policy_eval.Denied -> None
              | Policy_eval.Accepted r -> Some r))
        bgp.bp_networks
    in
    let from_redistribution =
      List.concat_map
        (fun (rd : Vi.redistribution) ->
          Rib.best_routes node.main_rib
          |> List.filter (fun (r : Route.t) ->
                 Route_proto.matches_source r.Route.protocol rd.rd_protocol)
          |> List.filter_map (fun (src : Route.t) ->
                 let candidate =
                   { (Route.bgp ~proto:Route_proto.Ibgp ~net:src.Route.net
                        ~nh:src.Route.next_hop
                        ~attrs:
                          (Attrs.make ~weight:32768 ~origin:Vi.Origin_incomplete
                             ~med:(Option.value rd.rd_metric ~default:src.Route.metric)
                             ())
                        ~arrival:0 ~from_peer:0 ~from_rid:node.router_id)
                     with Route.admin = 200; Route.tag = src.Route.tag }
                 in
                 match Policy_eval.run_optional ctx rd.rd_route_map candidate with
                 | Policy_eval.Denied -> None
                 | Policy_eval.Accepted r -> Some r))
        bgp.bp_redistribute
    in
    from_networks @ from_redistribution

let refresh_local_bgp node =
  let fresh = compute_local_bgp node in
  let gone =
    List.filter (fun old -> not (List.exists (Route.same old) fresh)) node.local_bgp
  in
  let added =
    List.filter (fun nw -> not (List.exists (Route.same nw) node.local_bgp)) fresh
  in
  List.iter (fun r -> Rib.withdraw node.bgp_rib r) gone;
  List.iter (fun r -> Rib.merge node.bgp_rib r) added;
  node.local_bgp <- fresh

(* Merge this node's BGP best-route delta into its main RIB (locally
   originated candidates stay out: the IGP source is already there). *)
let apply_bgp_delta_to_main node (adds, dels) =
  List.iter
    (fun (r : Route.t) -> if r.Route.from_peer <> 0 then Rib.withdraw node.main_rib r)
    dels;
  List.iter
    (fun (r : Route.t) -> if r.Route.from_peer <> 0 then Rib.merge node.main_rib r)
    adds

(* The canonical advertisement order: plain structural comparison with the
   arrival clock zeroed. Every advertisement path — publication deltas, the
   warm re-import loop, wire snapshots — sorts by this, so the candidate a
   receiver keeps when one peer advertises several variants of a net (iBGP
   multipath without next-hop rewrite) is a function of the sender's final
   best set, not of delivery history. *)
let canonical_route_order (a : Route.t) (b : Route.t) =
  compare { a with Route.arrival = 0 } { b with Route.arrival = 0 }

let publish options node ~round =
  if Rib.dirty node.bgp_rib then begin
    ignore options;
    let adds, dels = Rib.take_delta node.bgp_rib in
    if adds <> [] || dels <> [] then begin
      apply_bgp_delta_to_main node (adds, dels);
      (* Publish the full current variant list for every net the delta
         touched, canonically ordered. A receiver keeps one candidate per
         (net, peer), so a raw delta would leave its pick dependent on which
         variant happened to arrive last — and a withdrawal of one variant
         would clobber a survivor until that survivor next changed. *)
      let touched = Hashtbl.create 8 in
      List.iter
        (fun (r : Route.t) -> Hashtbl.replace touched r.Route.net ())
        (adds @ dels);
      let adds =
        Rib.best_routes node.bgp_rib
        |> List.filter (fun (r : Route.t) -> Hashtbl.mem touched r.Route.net)
        |> List.sort canonical_route_order
      in
      node.version <- node.version + 1;
      let pub =
        { pub_version = node.version; pub_round = round; pub_adds = adds;
          pub_dels = dels }
      in
      node.published <-
        pub :: (if List.length node.published >= 6 then List.filteri (fun i _ -> i < 5) node.published
                else node.published);
      node.published_this_round <- true
    end
  end

(* One processing turn for a node: pull deltas from every established
   session, run export+import+merge (the queue-free hybrid of §4.1.3),
   refresh local originations, publish this node's own delta. *)
let process_node options nodes ~round ~visible node =
  node.published_this_round <- false;
  refresh_local_bgp node;
  List.iter
    (fun s ->
      match s.ss_remote with
      | External _ -> () (* external announcements injected at session setup *)
      | Internal (ridx, rev) ->
        let sender = nodes.(ridx) in
        let ctx = Policy_eval.make_ctx ~self_ip:s.ss_peer_ip sender.cfg in
        (* Oldest unconsumed publication first. *)
        let pubs =
          List.filter (fun p -> p.pub_version > s.ss_consumed && visible p)
            (List.rev sender.published)
        in
        List.iter
          (fun pub ->
            List.iter
              (fun (r : Route.t) ->
                (* A withdrawal removes whatever we hold from this peer. *)
                let dummy =
                  { r with Route.from_peer = s.ss_peer_ip;
                    protocol =
                      (if s.ss_is_ibgp then Route_proto.Ibgp else Route_proto.Ebgp) }
                in
                Rib.withdraw node.bgp_rib dummy)
              pub.pub_dels;
            (* Per-net resolution: the kept candidate is the last variant in
               the publication's canonical order that survives both export
               and import. A net whose every variant was denied is stale —
               withdraw it. (A denial must not clobber an accepted variant of
               the same net, or the outcome would depend on variant order.) *)
            let outcome : (Prefix.t, Route.t option) Hashtbl.t =
              Hashtbl.create 8
            in
            List.iter
              (fun (r : Route.t) ->
                let accepted =
                  match
                    export_route ~ctx sender rev ~sender_ip:s.ss_peer_ip
                      ~receiver_ip:s.ss_local_ip ~is_ibgp:s.ss_is_ibgp r
                  with
                  | None -> None
                  | Some wire ->
                    import_route options node s ~sender_rid:sender.router_id wire
                in
                match accepted with
                | Some imported -> Hashtbl.replace outcome r.Route.net (Some imported)
                | None ->
                  if not (Hashtbl.mem outcome r.Route.net) then
                    Hashtbl.replace outcome r.Route.net None)
              pub.pub_adds;
            Hashtbl.iter
              (fun net kept ->
                match kept with
                | Some imported -> Rib.merge node.bgp_rib imported
                | None ->
                  (* Export or import denied for every variant: make sure
                     nothing stale remains. *)
                  let dummy =
                    Route.bgp
                      ~proto:
                        (if s.ss_is_ibgp then Route_proto.Ibgp else Route_proto.Ebgp)
                      ~net ~nh:Route.Nh_discard ~attrs:(Attrs.make ()) ~arrival:0
                      ~from_rid:0 ~from_peer:s.ss_peer_ip
                  in
                  Rib.withdraw node.bgp_rib dummy)
              outcome;
            s.ss_consumed <- pub.pub_version)
          pubs)
    node.sessions;
  publish options node ~round

(* Inject external announcements through the import pipeline. *)
(* External announcements, already through this node's import pipeline, in
   session/announcement order (the order their arrival clocks are stamped). *)
let external_imports options node =
  List.concat_map
    (fun s ->
      match s.ss_remote with
      | Internal _ -> []
      | External xp ->
        List.filter_map
          (fun (xa : Dp_env.external_announcement) ->
            let wire =
              Route.bgp ~proto:Route_proto.Ebgp ~net:xa.xa_prefix
                ~nh:(Route.Nh_ip s.ss_peer_ip)
                ~attrs:
                  (Attrs.make ~as_path:xa.xa_as_path ~med:xa.xa_med
                     ~communities:xa.xa_communities ~origin:Vi.Origin_igp ())
                ~arrival:0 ~from_peer:s.ss_peer_ip ~from_rid:s.ss_peer_ip
            in
            import_route options node s ~sender_rid:s.ss_peer_ip wire)
          xp.Dp_env.xp_announcements)
    node.sessions

let inject_external options node =
  List.iter (Rib.merge node.bgp_rib) (external_imports options node)

(* --- route-delta reuse machinery (incremental per-node warm starts) --- *)

(* The warm path bails out to a scratch [compute_component] whenever any of
   its preconditions fail mid-flight. *)
exception Fallback of string

(* A RIB's best sets as plain comparable data, arrival clocks zeroed (the
   clocks are the one legitimately timing-dependent field). *)
let rib_state rib =
  Rib.fold_best
    (fun p best acc ->
      List.rev_append
        (List.map (fun (r : Route.t) -> (p, { r with Route.arrival = 0 })) best)
        acc)
    rib []
  |> List.sort compare

(* Digest of everything that feeds a node's BGP phase from below: its pre-BGP
   main RIB (connected + static + OSPF) and the external announcements its
   configured peers would inject. A member whose digest equals the base's
   can only change through its internal BGP inputs — which the export-set
   comparison tracks. *)
let prebgp_digest env node =
  let externals =
    match node.cfg.Vi.bgp with
    | None -> []
    | Some b ->
      List.filter_map
        (fun (nbr : Vi.bgp_neighbor) ->
          Option.map (fun xp -> (nbr.Vi.bn_peer, xp)) (Dp_env.find_peer env nbr.Vi.bn_peer))
        b.bp_neighbors
  in
  Digest.to_hex (Digest.string (Marshal.to_string (rib_state node.main_rib, externals) []))

(* The wire list one internal session carries: the sender's current BGP best
   routes, canonically ordered, through its export pipeline, arrival-zeroed.
   The order is kept (no terminal sort): the receiver imports advertisements
   in exactly this sequence and keeps the last accepted variant per net, so
   two equal wire lists mean the receiver's inputs over this session — and
   hence its kept candidates — are unchanged. *)
let wire_routes ~sender ~rev ~sender_ip ~receiver_ip ~is_ibgp =
  let ctx = Policy_eval.make_ctx ~self_ip:sender_ip sender.cfg in
  Rib.best_routes sender.bgp_rib
  |> List.sort canonical_route_order
  |> List.filter_map (fun r ->
         export_route ~ctx sender rev ~sender_ip ~receiver_ip ~is_ibgp r)
  |> List.map (fun (r : Route.t) -> { r with Route.arrival = 0 })

(* One net's segment of that list: the net's best routes, canonically
   ordered, through the export pipeline, arrival-zeroed. *)
let wire_segment ~ctx ~sender ~rev ~sender_ip ~receiver_ip ~is_ibgp best =
  List.sort canonical_route_order best
  |> List.filter_map (fun r ->
         Option.map
           (fun (w : Route.t) -> { w with Route.arrival = 0 })
           (export_route ~ctx sender rev ~sender_ip ~receiver_ip ~is_ibgp r))

let segment_net seg = (List.hd seg).Route.net

(* The index of net [p]'s segment in [wire], by binary search. *)
let segment_index (wire : wire) p =
  let rec go lo hi =
    if lo >= hi then None
    else
      let mid = (lo + hi) / 2 in
      let c = compare (segment_net wire.(mid)) p in
      if c = 0 then Some mid else if c < 0 then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length wire)

(* [wire] with the segments of [updates] — (net, segment) pairs in
   ascending net order, [[]] for no segment — spliced in. Physically [wire]
   when no segment changed; unchanged segments stay shared. *)
let splice_segments (wire : wire) updates =
  let current p = match segment_index wire p with Some k -> wire.(k) | None -> [] in
  match List.filter (fun (p, seg) -> seg <> current p) updates with
  | [] -> wire
  | edits ->
    let n = Array.length wire in
    let rec go i edits acc =
      match edits with
      | [] -> List.rev_append acc (Array.to_list (Array.sub wire i (n - i)))
      | (p, seg) :: rest ->
        if i < n && compare (segment_net wire.(i)) p < 0 then go (i + 1) edits (wire.(i) :: acc)
        else
          let i = if i < n && segment_net wire.(i) = p then i + 1 else i in
          go i rest (if seg = [] then acc else seg :: acc)
    in
    Array.of_list (go 0 edits [])

(* [wire_routes] as segments. [exported] counts the routes run through the
   export pipeline. *)
let wire_segments ~exported ~sender ~rev ~sender_ip ~receiver_ip ~is_ibgp : wire =
  let ctx = Policy_eval.make_ctx ~self_ip:sender_ip sender.cfg in
  Rib.fold_best
    (fun p best acc ->
      exported := !exported + List.length best;
      match wire_segment ~ctx ~sender ~rev ~sender_ip ~receiver_ip ~is_ibgp best with
      | [] -> acc
      | seg -> (p, seg) :: acc)
    sender.bgp_rib []
  |> List.sort (fun (p, _) (q, _) -> compare p q)
  |> List.map snd |> Array.of_list

(* The flat wire list a wire's segments stand for. *)
let wire_flatten (wire : wire) = List.concat (Array.to_list wire)

(* What the export pipeline reads of a best route: all of it except the
   router id it was learned from, which only iBGP reflection of an
   iBGP-learned route reads (every exported route carries the sender's own
   router id). A net whose best set changes only there — every route a
   neighbor's router-id change reaches — exports the same segments. *)
let export_view (r : Route.t) =
  if r.Route.protocol = Route_proto.Ibgp then r else { r with Route.from_rid = 0 }

(* The nets whose best sets differ, as far as export can see, between two
   [rib_state]s, by one merge pass over the sorted lists, in ascending
   order. *)
let moved_nets a b =
  let rec group p acc = function
    | (q, r) :: rest when q = p -> group p (export_view r :: acc) rest
    | rest -> (acc, rest)
  in
  let rec go acc a b =
    match (a, b) with
    | [], [] -> List.rev acc
    | (pa, _) :: _, (pb, _) :: _ when compare pb pa < 0 -> next acc pb a b
    | (p, _) :: _, _ | [], (p, _) :: _ -> next acc p a b
  and next acc p a b =
    let ga, a' = group p [] a and gb, b' = group p [] b in
    go (if ga = gb then acc else p :: acc) a' b'
  in
  go [] a b

(* An arrival-decided best-set boundary: two eBGP candidates for the same
   prefix that tie on every decision step before the arrival clock, only one
   of which made the best set (covers multipath-cap truncation too, since a
   truncated equal candidate differs in membership from an admitted one).
   Only eBGP pairs qualify — the oldest-path step skips iBGP ties, which the
   router-id and peer-address steps then decide deterministically. *)
let node_ambiguous node =
  let cost ip = igp_cost node ip in
  Rib.fold_entries
    (fun _p cands best acc ->
      acc
      || List.exists
           (fun a ->
             List.exists
               (fun b ->
                 a != b
                 && a.Route.protocol = Route_proto.Ebgp
                 && Cmp.bgp_pre_arrival_equal ~igp_cost:cost a b
                 && List.memq a best <> List.memq b best)
               cands)
           cands)
    node.bgp_rib false

(* A fingerprint of global BGP state (arrival clocks ignored), used to detect
   oscillation: a repeated state with pending changes means a cycle. *)
let fingerprint nodes =
  let h = ref 0 in
  Array.iter
    (fun node ->
      Rib.fold_best
        (fun p best () ->
          List.iter
            (fun (r : Route.t) ->
              h := !h lxor Hashtbl.hash (p, { r with Route.arrival = 0 }))
            best)
        node.bgp_rib ())
    nodes;
  !h

let snapshot_ribs nodes =
  Array.map
    (fun node ->
      List.map (fun (r : Route.t) -> { r with Route.arrival = 0 })
        (Rib.best_routes node.main_rib))
    nodes

(* Run the BGP exchange to a fixed point. Returns (rounds, converged,
   oscillated, fuel_exhausted). [skip] excludes quarantined nodes;
   [on_fault] quarantines a node whose processing raises — the run keeps
   going for everyone else. [options.max_rounds] is the fuel budget: when it
   runs out the result is a well-formed non-converged state, not a hang. *)
let run_bgp options nodes ~skip ~on_fault =
  let safe ~round node f =
    if not (skip node) then
      try f () with exn -> on_fault ~round node (Printexc.to_string exn)
  in
  let n = Array.length nodes in
  (* Schedule: color the internal-session graph so that no two adjacent nodes
     are in the same class (Colored), or put everyone in one class
     (Lockstep). *)
  let edges =
    Array.to_list nodes
    |> List.concat_map (fun node ->
           List.filter_map
             (fun s ->
               match s.ss_remote with
               | Internal (r, _) -> Some (node.idx, r)
               | External _ -> None)
             node.sessions)
  in
  let classes =
    match options.schedule with
    | Colored -> Coloring.classes (Coloring.greedy ~n edges)
    | Lockstep -> [| List.init n (fun i -> i) |]
  in
  (* Initial state: local originations + external announcements, then a first
     publication from everyone. *)
  Array.iter (fun node -> safe ~round:0 node (fun () -> refresh_local_bgp node)) nodes;
  Array.iter (fun node -> safe ~round:0 node (fun () -> inject_external options node)) nodes;
  Array.iter (fun node -> safe ~round:0 node (fun () -> publish options node ~round:0)) nodes;
  let seen_states = Hashtbl.create 64 in
  let rounds = ref 0 and converged = ref false and oscillated = ref false in
  while (not !converged) && (not !oscillated) && !rounds < options.max_rounds do
    incr rounds;
    let round = !rounds in
    let visible =
      match options.schedule with
      | Colored -> fun _ -> true
      | Lockstep -> fun p -> p.pub_round < round
    in
    let snapshot = if options.full_rib_compare then Some (snapshot_ribs nodes) else None in
    Array.iter
      (fun cls ->
        let members = Array.of_list cls in
        (* Same-color nodes share no session, so they can proceed in
           parallel; results are deterministic because each node only
           mutates its own state. Faults are collected and applied
           sequentially after the class so quarantine bookkeeping never
           races across domains. *)
        let faults =
          Par.map ?pool:options.pool ~domains:options.domains
            (fun i ->
              let nd = nodes.(i) in
              if skip nd then None
              else
                match process_node options nodes ~round ~visible nd with
                | () -> None
                | exception exn -> Some (i, Printexc.to_string exn))
            members
        in
        Array.iter
          (function
            | None -> ()
            | Some (i, msg) -> on_fault ~round nodes.(i) msg)
          faults)
      classes;
    let any_published =
      Array.exists (fun node -> node.published_this_round) nodes
    in
    (match snapshot with
     | Some before ->
       (* The classic convergence check: deep-compare previous and current
          RIB state. Used only by the ablation benchmark. *)
       let after = snapshot_ribs nodes in
       ignore (before = after)
     | None -> ());
    if not any_published then converged := true
    else begin
      (* The fingerprint omits in-flight publications, so a single repeat is
         not conclusive; require the same state three times past a warmup
         before declaring an oscillation. *)
      let fp = fingerprint nodes in
      let count = 1 + Option.value (Hashtbl.find_opt seen_states fp) ~default:0 in
      Hashtbl.replace seen_states fp count;
      if count >= 3 && round > 8 then oscillated := true
    end
  done;
  let fuel_exhausted =
    !rounds >= options.max_rounds && (not !converged) && not !oscillated
  in
  if fuel_exhausted then oscillated := true;
  (!rounds, !converged, !oscillated, fuel_exhausted)

(* --- dependency map and component partition --- *)

(* The explicit dependency map (ISSUE 4): a route computed on one device can
   influence another device only along (a) an L3 adjacency (connected
   subnets, OSPF adjacency, FIB next-hop resolution) or (b) a BGP session,
   whose peer is resolved exactly the way session establishment resolves it
   ([L3.owner_of_ip], which also covers multihop/iBGP peerings).
   Redistribution is node-local — one protocol feeding another on the same
   device — so it adds no cross-node edge beyond (a)/(b). The relation is
   symmetric (sessions and adjacencies are bidirectional), so influence
   closure = connected components of this graph. *)
let dependency_edges ~topo (live : Vi.t list) =
  let bgp =
    List.concat_map
      (fun (cfg : Vi.t) ->
        match cfg.Vi.bgp with
        | None -> []
        | Some b ->
          List.filter_map
            (fun (nbr : Vi.bgp_neighbor) ->
              match L3.owner_of_ip topo nbr.Vi.bn_peer with
              | Some ep when ep.L3.ep_node <> cfg.Vi.hostname ->
                Some (cfg.Vi.hostname, ep.L3.ep_node)
              | Some _ | None -> None)
            b.bp_neighbors)
      live
  in
  L3.node_edges topo @ bgp

(* Partition [live] into dependency components: deterministic — components
   ordered by first appearance in [live], members in [live] order. *)
let component_partition ~topo (live : Vi.t list) =
  let arr = Array.of_list live in
  let n = Array.length arr in
  let idx = Hashtbl.create (2 * n) in
  Array.iteri
    (fun i (cfg : Vi.t) ->
      if not (Hashtbl.mem idx cfg.Vi.hostname) then
        Hashtbl.add idx cfg.Vi.hostname i)
    arr;
  let parent = Array.init n (fun i -> i) in
  let rec find i = if parent.(i) = i then i else (parent.(i) <- find parent.(i); parent.(i)) in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then parent.(max ra rb) <- min ra rb
  in
  List.iter
    (fun (a, b) ->
      match (Hashtbl.find_opt idx a, Hashtbl.find_opt idx b) with
      | Some ia, Some ib -> union ia ib
      | _ -> ())
    (dependency_edges ~topo live);
  let buckets = Hashtbl.create 16 and roots = ref [] in
  Array.iteri
    (fun i cfg ->
      let r = find i in
      match Hashtbl.find_opt buckets r with
      | None ->
        Hashtbl.add buckets r (ref [ cfg ]);
        roots := r :: !roots
      | Some members -> members := cfg :: !members)
    arr;
  List.rev_map (fun r -> List.rev !(Hashtbl.find buckets r)) !roots

let empty_rib () =
  Rib.create ~prefer:Cmp.main_prefer ~multipath_equal:Cmp.main_multipath_equal
    ~max_paths:1 ()

let empty_result ~topo name =
  let main = empty_rib () in
  { nr_node = name; nr_main = main; nr_bgp = empty_rib (); nr_ospf = None;
    nr_fib = Fib.of_rib ~node:name ~topo main }

(* Pre-flight: probe each config's topology and protocol initialization in
   isolation. A config that cannot even initialize is quarantined up front
   instead of poisoning the rest of the snapshot. Deterministic per config,
   so an unchanged config always gets the same verdict across snapshots. *)
let preflight ~env configs =
  let dc = Diag.collector () in
  let quarantine_tbl : (string, string) Hashtbl.t = Hashtbl.create 8 in
  let quarantine ~node reason =
    if not (Hashtbl.mem quarantine_tbl node) then begin
      Hashtbl.replace quarantine_tbl node reason;
      Diag.add dc
        (Diag.error ~node ~phase:Diag.Dataplane ~code:Diag.code_node_quarantined
           reason)
    end
  in
  List.iter
    (fun (cfg : Vi.t) ->
      let probe what f =
        if not (Hashtbl.mem quarantine_tbl cfg.Vi.hostname) then
          try ignore (f ())
          with exn ->
            quarantine ~node:cfg.Vi.hostname
              (Printf.sprintf "%s raised: %s" what (Printexc.to_string exn))
      in
      probe "topology inference" (fun () -> L3.infer [ cfg ]);
      probe "ospf initialization" (fun () -> Ospf_engine.interface_settings env cfg);
      probe "node initialization" (fun () -> make_node 0 cfg))
    configs;
  let live =
    List.filter
      (fun (c : Vi.t) -> not (Hashtbl.mem quarantine_tbl c.Vi.hostname))
      configs
  in
  let quarantined =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) quarantine_tbl []
  in
  (live, quarantined, Diag.to_list dc)

let infer_topology dc live =
  try L3.infer live
  with exn ->
    Diag.add dc
      (Diag.error ~phase:Diag.Dataplane ~code:Diag.code_topology_failed
         (Printf.sprintf "topology inference raised; continuing without links: %s"
            (Printexc.to_string exn)));
    L3.infer []

(* --- per-component simulation --- *)

(* Phases 1–3, shared verbatim by the scratch and warm paths: connected
   routes, the recursive static fixed point, OSPF, then the statics/OSPF
   re-resolution dance (statics may resolve through OSPF and change the
   redistributable set). [isolate] is the caller's fault policy; [run_spf]
   maps prepared SPF inputs to per-node RIBs — the scratch path runs SPF,
   the warm path substitutes the base's RIBs when the input digest matches.
   Returns the digest of the last SPF inputs used. *)
let prebgp_phases ~env ~topo ~live ~nodes ~node_index ~isolate ~is_quarantined
    ~run_spf ~on_ospf_error =
  (* Phase 1: connected and local routes. *)
  Array.iter
    (fun node ->
      isolate node "connected-route computation" (fun () ->
          List.iter (fun r -> Rib.merge node.main_rib r) (connected_routes env node.cfg)))
    nodes;
  (* Phase 2: static routes (recursive resolution to a fixed point). *)
  let rec statics_fixpoint guard =
    let changed = ref false in
    Array.iter
      (fun node ->
        isolate node "static-route activation" (fun () ->
            if activate_statics env node then changed := true))
      nodes;
    if !changed && guard > 0 then statics_fixpoint (guard - 1)
  in
  statics_fixpoint 16;
  (* Phase 3: OSPF converges before BGP begins (the IGP-first ordering). A
     crash in the global SPF computation degrades to "no OSPF routes" with an
     Error diag rather than aborting the snapshot. *)
  let last_digest = ref "" in
  let run_ospf () =
    let redistributable name =
      match Hashtbl.find_opt node_index name with
      | None -> []
      | Some i ->
        let node = nodes.(i) in
        if is_quarantined node.cfg.Vi.hostname then []
        else Rib.best_routes node.static_rib @ connected_routes env node.cfg
    in
    let ospf_configs =
      List.filter (fun (c : Vi.t) -> not (is_quarantined c.Vi.hostname)) live
    in
    match
      let inputs =
        Ospf_engine.prepare ~env ~topo ~configs:ospf_configs ~redistributable ()
      in
      last_digest := Ospf_engine.digest inputs;
      run_spf inputs
    with
    | ribs ->
      Array.iter
        (fun node ->
          isolate node "ospf route application" (fun () ->
              match Hashtbl.find_opt ribs node.cfg.Vi.hostname with
              | None -> ()
              | Some rib ->
                Rib.withdraw_where node.main_rib (fun r ->
                    Route_proto.is_ospf r.Route.protocol);
                node.ospf_rib <- Some rib;
                List.iter (fun r -> Rib.merge node.main_rib r) (Rib.best_routes rib)))
        nodes
    | exception exn -> on_ospf_error exn
  in
  run_ospf ();
  (* Statics may resolve through OSPF; if that changes the redistributable
     set, recompute OSPF once more. *)
  let statics_changed = ref false in
  Array.iter
    (fun node ->
      isolate node "static-route activation" (fun () ->
          if activate_statics env node then statics_changed := true))
    nodes;
  if !statics_changed then begin
    statics_fixpoint 16;
    run_ospf ()
  end;
  !last_digest

(* Final-state export snapshots plus the delta-safety verdict (see
   [comp_result]): every internal session's wire list, receiver-keyed, and
   whether any node's best-set boundary is arrival-decided. *)
let export_snapshots nodes =
  let entries = ref [] and safe = ref true in
  Array.iter
    (fun node ->
      List.iter
        (fun s ->
          match s.ss_remote with
          | External _ -> ()
          | Internal (ridx, rev) ->
            let sender = nodes.(ridx) in
            let wire =
              wire_segments ~exported:(ref 0) ~sender ~rev ~sender_ip:s.ss_peer_ip
                ~receiver_ip:s.ss_local_ip ~is_ibgp:s.ss_is_ibgp
            in
            entries :=
              { ex_receiver = node.cfg.Vi.hostname; ex_peer_ip = s.ss_peer_ip;
                ex_local_ip = s.ss_local_ip; ex_is_ibgp = s.ss_is_ibgp;
                ex_sender = sender.cfg.Vi.hostname; ex_reverse = rev; ex_wire = wire }
              :: !entries)
        node.sessions)
    nodes;
  Array.iter
    (fun node ->
      if node_ambiguous node then safe := false)
    nodes;
  let entries =
    List.sort
      (fun a b -> compare (a.ex_receiver, a.ex_peer_ip) (b.ex_receiver, b.ex_peer_ip))
      !entries
  in
  (entries, !safe)

(* Simulate one dependency component to its fixed point. [topo] is the
   global topology; by construction every topology- or session-relevant
   query made here resolves inside the component (or to the external
   environment), so per-component execution reaches the same fixed point the
   former whole-snapshot simulation did. *)
let compute_component ~options ~env ~topo (comp : Vi.t list) =
  let dc = Diag.collector () in
  let quarantine_tbl : (string, string) Hashtbl.t = Hashtbl.create 4 in
  let quarantine ~node reason =
    if not (Hashtbl.mem quarantine_tbl node) then begin
      Hashtbl.replace quarantine_tbl node reason;
      Diag.add dc
        (Diag.error ~node ~phase:Diag.Dataplane ~code:Diag.code_node_quarantined
           reason)
    end
  in
  let is_quarantined name = Hashtbl.mem quarantine_tbl name in
  let live = comp in
  let nodes =
    let acc = ref [] in
    List.iter
      (fun (cfg : Vi.t) ->
        match make_node (List.length !acc) cfg with
        | node -> acc := node :: !acc
        | exception exn ->
          quarantine ~node:cfg.Vi.hostname
            (Printf.sprintf "node initialization raised: %s" (Printexc.to_string exn)))
      live;
    Array.of_list (List.rev !acc)
  in
  let node_index = Hashtbl.create 64 in
  Array.iter (fun node -> Hashtbl.replace node_index node.cfg.Vi.hostname node.idx) nodes;
  (* Quarantining a node mid-simulation withdraws everything it holds and
     publishes the withdrawals, so peers drop state learned from it; its
     sessions are reported down with the reason. *)
  let quarantine_node ~round node reason =
    quarantine ~node:node.cfg.Vi.hostname reason;
    (try Rib.withdraw_where node.bgp_rib (fun _ -> true) with _ -> ());
    (try Rib.withdraw_where node.main_rib (fun _ -> true) with _ -> ());
    (try Rib.withdraw_where node.static_rib (fun _ -> true) with _ -> ());
    node.ospf_rib <- None;
    node.local_bgp <- [];
    (try publish options node ~round with _ -> ());
    node.down_sessions <-
      node.down_sessions
      @ List.map (fun s -> (s.ss_neighbor, "node quarantined")) node.sessions;
    node.sessions <- []
  in
  let skip node = is_quarantined node.cfg.Vi.hostname in
  let on_fault ~round node msg =
    quarantine_node ~round node (Printf.sprintf "quarantined: %s" msg)
  in
  let isolate node what f =
    if not (skip node) then
      try f ()
      with exn ->
        on_fault ~round:0 node
          (Printf.sprintf "%s raised: %s" what (Printexc.to_string exn))
  in
  let ospf_digest =
    prebgp_phases ~env ~topo ~live ~nodes ~node_index ~isolate ~is_quarantined
      ~run_spf:(fun inputs ->
        Ospf_engine.run ?pool:options.pool ~domains:options.domains inputs)
      ~on_ospf_error:(fun exn ->
        Diag.add dc
          (Diag.error ~phase:Diag.Dataplane ~code:Diag.code_ospf_failed
             (Printf.sprintf
                "OSPF computation raised; continuing without OSPF routes: %s"
                (Printexc.to_string exn))))
  in
  (* The pre-BGP state digest each member enters Phase 4 with — the warm
     path's seed test (a member whose digest changed must be re-simulated). *)
  let prebgp =
    Array.to_list nodes
    |> List.map (fun node ->
           ( node.cfg.Vi.hostname,
             try prebgp_digest env node with _ -> "" ))
  in
  (* Phase 4: BGP, with session re-evaluation at key points (§4.1.1). The
     outer loop carries an explicit fuel budget: exhausting it yields a
     well-formed converged=false result with a diag instead of spinning. *)
  let peer_quarantined ridx = is_quarantined nodes.(ridx).cfg.Vi.hostname in
  let session_signature () =
    Array.to_list nodes
    |> List.concat_map (fun node ->
           List.map (fun s -> (node.cfg.Vi.hostname, s.ss_peer_ip)) node.sessions)
  in
  let rounds_total = ref 0 and converged = ref true and oscillated = ref false in
  let outer = ref 0 in
  let continue_outer = ref true in
  while !continue_outer && !outer < options.outer_fuel do
    incr outer;
    let before = if !outer = 1 then [] else session_signature () in
    Array.iter
      (fun node ->
        if skip node then begin
          node.down_sessions <-
            (match node.cfg.Vi.bgp with
             | Some b ->
               List.map (fun (nbr : Vi.bgp_neighbor) -> (nbr, "node quarantined"))
                 b.bp_neighbors
             | None -> []);
          node.sessions <- []
        end
        else
          try establish_sessions ~peer_quarantined env topo nodes node_index node
          with exn ->
            on_fault ~round:0 node
              (Printf.sprintf "session establishment raised: %s"
                 (Printexc.to_string exn)))
      nodes;
    let after = session_signature () in
    if !outer > 1 && before = after then continue_outer := false
    else begin
      (* Drop state learned over sessions that no longer exist. *)
      Array.iter
        (fun node ->
          isolate node "stale-session withdrawal" (fun () ->
              let live = List.map (fun s -> s.ss_peer_ip) node.sessions in
              Rib.withdraw_where node.bgp_rib (fun r ->
                  r.Route.from_peer <> 0 && not (List.mem r.Route.from_peer live));
              Rib.withdraw_where node.main_rib (fun r ->
                  Route_proto.is_bgp r.Route.protocol
                  && r.Route.from_peer <> 0
                  && not (List.mem r.Route.from_peer live));
              ignore (Rib.take_delta node.bgp_rib)))
        nodes;
      let rounds, conv, osc, fuel = run_bgp options nodes ~skip ~on_fault in
      rounds_total := !rounds_total + rounds;
      converged := conv;
      oscillated := osc;
      if fuel then
        Diag.add dc
          (Diag.error ~phase:Diag.Dataplane ~code:Diag.code_bgp_fuel_exhausted
             (Printf.sprintf "BGP did not converge within the %d-round fuel budget"
                options.max_rounds))
      else if osc then
        Diag.add dc
          (Diag.warn ~phase:Diag.Dataplane ~code:Diag.code_oscillation
             (Printf.sprintf "BGP oscillation detected after %d rounds" rounds));
      if osc then continue_outer := false
    end
  done;
  if !continue_outer && !outer >= options.outer_fuel then begin
    converged := false;
    Diag.add dc
      (Diag.error ~phase:Diag.Dataplane ~code:Diag.code_outer_fuel_exhausted
         (Printf.sprintf
            "session re-evaluation did not stabilize within the %d-pass fuel budget"
            options.outer_fuel))
  end;
  (* Phase 5: FIBs. Nodes quarantined during this component's simulation
     appear with empty tables so lookups stay total. *)
  let results = ref [] in
  Array.iter
    (fun node ->
      let name = node.cfg.Vi.hostname in
      let fib =
        try Fib.of_rib ~node:name ~topo node.main_rib
        with exn ->
          Diag.add dc
            (Diag.error ~node:name ~phase:Diag.Dataplane ~code:Diag.code_fib_failed
               (Printf.sprintf "FIB resolution raised: %s" (Printexc.to_string exn)));
          Fib.of_rib ~node:name ~topo (empty_rib ())
      in
      results :=
        (name,
         { nr_node = name; nr_main = node.main_rib;
           nr_bgp = node.bgp_rib; nr_ospf = node.ospf_rib; nr_fib = fib })
        :: !results)
    nodes;
  List.iter
    (fun (cfg : Vi.t) ->
      let name = cfg.Vi.hostname in
      if is_quarantined name && not (List.mem_assoc name !results) then
        results := (name, empty_result ~topo name) :: !results)
    comp;
  let sessions =
    Array.to_list nodes
    |> List.concat_map (fun node ->
           List.map
             (fun s ->
               { sr_node = node.cfg.Vi.hostname; sr_peer = s.ss_peer_ip;
                 sr_remote_node =
                   (match s.ss_remote with
                    | Internal (i, _) -> Some nodes.(i).cfg.Vi.hostname
                    | External _ -> None);
                 sr_is_ibgp = s.ss_is_ibgp; sr_established = true;
                 sr_reason = None })
             node.sessions
           @ List.map
               (fun ((nbr : Vi.bgp_neighbor), reason) ->
                 { sr_node = node.cfg.Vi.hostname; sr_peer = nbr.bn_peer;
                   sr_remote_node = None; sr_is_ibgp = false;
                   sr_established = false; sr_reason = Some reason })
               node.down_sessions)
  in
  let exports, delta_safe =
    try export_snapshots nodes with _ -> ([], false)
  in
  { cr_members = List.map (fun (c : Vi.t) -> c.Vi.hostname) comp;
    cr_results = List.rev !results;
    cr_sessions = sessions;
    cr_converged = !converged;
    cr_oscillated = !oscillated;
    cr_rounds = !rounds_total;
    cr_outer = !outer;
    cr_quarantined =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) quarantine_tbl [];
    cr_diags = Diag.to_list dc;
    cr_prebgp = prebgp;
    cr_exports = exports;
    cr_session_keys =
      Array.to_list nodes
      |> List.map (fun node -> (node.cfg.Vi.hostname, session_key node));
    cr_configs = comp;
    cr_ospf_digest = ospf_digest;
    cr_delta_safe = delta_safe }

(* --- warm per-node re-simulation: the route-delta worklist --- *)

type warm_stats = {
  ws_simulated : int;
  ws_converged_early : int;
  ws_exported : int;
  ws_imported : int;
}

(* Re-simulate a dirty component starting from [base_cr]'s converged fixed
   point, touching only the nodes the edit actually disturbs.

   The pre-BGP phases (connected, statics, OSPF — with SPF reused when its
   input digest matches) run fresh for every member; they are cheap and their
   digests drive the seed test. The BGP phase then runs as a worklist seeded
   with the changed nodes, every member whose pre-BGP state changed, and the
   configured session partners of changed nodes (session viability and TCP
   ACL checks read the partner's config). A neighbor is enqueued only when
   the wire set it receives actually changes, or when this node's main RIB
   changed (multihop session viability reads it). Propagation therefore dies
   out at the first ring of undisturbed fixed point.

   A visit re-derives a node only when its BGP inputs changed. Seeds and
   receivers of a changed wire are dirty; a node woken only by a partner's
   main-RIB transition is clean. A clean node first dequeued adopts its base
   RIBs (shared, not copied) and a clean visit only re-establishes its
   sessions: while they equal the set its RIBs were derived from and its
   incoming wire entries are current, its RIBs are still a fixed point of
   unchanged inputs — sessions, wires, own config and externals, own main
   RIB — and re-deriving them would return the same best sets. Otherwise the
   node turns dirty, and a dirty visit re-derives it from its neighbors'
   current advertisements (clean neighbors still expose the base fixed
   point), starting, the first time, from its fresh pre-BGP state.

   Bit-identity with a scratch run holds because (a) the compared surface is
   arrival-free, (b) advertisement is canonical — publication deltas, the
   re-import loop here and the wire snapshots all order variants by
   [canonical_route_order], so a receiver's kept candidate per (net, peer)
   is a function of the sender's final best set, not of delivery history,
   (c) the base was delta-safe (no arrival-decided best-set boundary), and
   (d) that safety condition is re-checked on every re-derived node, with
   [Fallback] to the scratch path when it fails. *)
let warm_component_exn ~options ~env ~topo ~base_cr ~changed_tbl (comp : Vi.t list) =
  if not base_cr.cr_converged then raise (Fallback "base component not converged");
  if base_cr.cr_oscillated then raise (Fallback "base component oscillated");
  if base_cr.cr_quarantined <> [] then raise (Fallback "base component has quarantines");
  if base_cr.cr_diags <> [] then raise (Fallback "base component has diagnostics");
  if not base_cr.cr_delta_safe then
    raise (Fallback "base fixed point is timing-dependent");
  let nodes = Array.of_list (List.mapi make_node comp) in
  let n = Array.length nodes in
  let node_index = Hashtbl.create 64 in
  Array.iter (fun node -> Hashtbl.replace node_index node.cfg.Vi.hostname node.idx) nodes;
  let base_nr =
    Array.map
      (fun node ->
        match List.assoc_opt node.cfg.Vi.hostname base_cr.cr_results with
        | Some nr -> nr
        | None -> raise (Fallback "member missing from base results"))
      nodes
  in
  let isolate _node what f =
    try f ()
    with exn ->
      raise (Fallback (Printf.sprintf "%s raised: %s" what (Printexc.to_string exn)))
  in
  let ospf_digest =
    prebgp_phases ~env ~topo ~live:comp ~nodes ~node_index ~isolate
      ~is_quarantined:(fun _ -> false)
      ~run_spf:(fun inputs ->
        let d = Ospf_engine.digest inputs in
        if d = base_cr.cr_ospf_digest then begin
          (* unchanged SPF inputs: the base per-node OSPF RIBs are exactly
             what a fresh run would produce *)
          let tbl = Hashtbl.create (max 16 n) in
          Array.iteri
            (fun i node ->
              match base_nr.(i).nr_ospf with
              | Some rib -> Hashtbl.replace tbl node.cfg.Vi.hostname rib
              | None -> ())
            nodes;
          tbl
        end
        else Ospf_engine.run ?pool:options.pool ~domains:options.domains inputs)
      ~on_ospf_error:(fun exn -> raise (Fallback (Printexc.to_string exn)))
  in
  let prebgp =
    Array.map (fun node -> (node.cfg.Vi.hostname, prebgp_digest env node)) nodes
  in
  (* Configured session partners (both directions), from the new configs. *)
  let partners = Array.make n [] in
  Array.iteri
    (fun i node ->
      match node.cfg.Vi.bgp with
      | None -> ()
      | Some b ->
        List.iter
          (fun (nbr : Vi.bgp_neighbor) ->
            match L3.owner_of_ip topo nbr.Vi.bn_peer with
            | Some ep -> (
              match Hashtbl.find_opt node_index ep.L3.ep_node with
              | Some j when j <> i ->
                if not (List.mem j partners.(i)) then partners.(i) <- j :: partners.(i);
                if not (List.mem i partners.(j)) then partners.(j) <- i :: partners.(j)
              | Some _ | None -> ())
            | None -> ())
          b.bp_neighbors)
    nodes;
  let queue = Queue.create () in
  let in_queue = Array.make n false in
  let materialized = Array.make n false in
  let early = Array.make n false in
  (* [dirty]: the node's BGP inputs changed since its RIBs were derived, so
     its next visit re-derives them. [derived]: it was re-derived at least
     once (otherwise its RIBs are the base's). *)
  let dirty = Array.make n false in
  let derived = Array.make n false in
  (* whether the node's main RIB equals the base's, as of its last derivation *)
  let main_at_base = Array.make n true in
  let enqueue i =
    if not in_queue.(i) then begin
      in_queue.(i) <- true;
      Queue.add i queue
    end
  in
  let enqueue_dirty i =
    dirty.(i) <- true;
    enqueue i
  in
  (* Seeds: changed nodes, members whose pre-BGP state changed, and the
     session partners of changed nodes (configured in either snapshot —
     base sessions cover deleted neighbor stanzas). All start dirty. *)
  Array.iteri
    (fun i node ->
      let name = node.cfg.Vi.hostname in
      let changed = Hashtbl.mem changed_tbl name in
      let pre_same =
        match List.assoc_opt name base_cr.cr_prebgp with
        | Some d -> d <> "" && d = snd prebgp.(i)
        | None -> false
      in
      if changed || not pre_same then enqueue_dirty i;
      if changed then List.iter enqueue_dirty partners.(i))
    nodes;
  List.iter
    (fun sr ->
      match sr.sr_remote_node with
      | None -> ()
      | Some remote -> (
        let wake a b =
          if Hashtbl.mem changed_tbl a then
            Option.iter enqueue_dirty (Hashtbl.find_opt node_index b)
        in
        wake sr.sr_node remote;
        wake remote sr.sr_node))
    base_cr.cr_sessions;
  (* Every read of a not-yet-materialized node goes to the base fixed point:
     [view] aliases the base RIBs until the node is first dequeued. *)
  let view =
    Array.mapi
      (fun i node ->
        { node with main_rib = base_nr.(i).nr_main; bgp_rib = base_nr.(i).nr_bgp })
      nodes
  in
  (* Base states are snapshotted only for the nodes whose state is compared. *)
  let base_main_state = Array.map (fun nr -> lazy (rib_state nr.nr_main)) base_nr in
  (* Last main-RIB state each node propagated from: partners are woken on a
     transition, not on every visit while the state differs from base (that
     would cycle forever in a dense session mesh). *)
  let last_main_state = Array.copy base_main_state in
  (* The session set each node's RIBs were derived from: the base's until
     the node is re-derived. *)
  let derived_keys =
    Array.map
      (fun node -> List.assoc_opt node.cfg.Vi.hostname base_cr.cr_session_keys)
      nodes
  in
  (* The fresh pre-BGP main RIB of a node that adopted its base RIBs, kept
     until its first re-derivation starts from it. *)
  let prebgp_main = Array.make n None in
  (* The live wire table, seeded from the base snapshot and refreshed as
     nodes re-simulate. Entries are private copies: [ex_wire] is mutable and
     the base's records must stay pristine (an entry shares its unchanged
     segments with the base's). [incoming] indexes it by
     receiver (the sessions each member holds an entry for); [outgoing] by
     sender, in the table's own iteration order — the order [propagate]
     wakes receivers in — and is rebuilt after the key set changes. *)
  let exports : (string * Ipv4.t, export_entry) Hashtbl.t = Hashtbl.create 64 in
  let incoming = Array.make n [] in
  List.iter
    (fun e ->
      Hashtbl.replace exports (e.ex_receiver, e.ex_peer_ip) { e with ex_wire = e.ex_wire };
      match Hashtbl.find_opt node_index e.ex_receiver with
      | Some j -> incoming.(j) <- e.ex_peer_ip :: incoming.(j)
      | None -> ())
    base_cr.cr_exports;
  let outgoing = Array.make n [] and outgoing_stale = ref true in
  let outgoing_of i =
    if !outgoing_stale then begin
      Array.fill outgoing 0 n [];
      Hashtbl.iter
        (fun _ e ->
          match Hashtbl.find_opt node_index e.ex_sender with
          | Some j -> outgoing.(j) <- e :: outgoing.(j)
          | None -> ())
        exports;
      Array.iteri (fun j es -> outgoing.(j) <- List.rev es) outgoing;
      outgoing_stale := false
    end;
    outgoing.(i)
  in
  (* Each node's BGP best-set state as of its last propagation (its outgoing
     wires are that state's export): a dequeued node re-exports (sender-side
     policy runs) only the nets whose best sets moved since, as export sees
     them, not on every visit. *)
  let last_bgp_state = Array.map (fun nr -> lazy (rib_state nr.nr_bgp)) base_nr in
  let step_count = ref 0 in
  (* Routes run through the export and import pipelines (counters). *)
  let exported = ref 0 and imported = ref 0 in
  (* Keep the wire table's entry set in sync with [i]'s live sessions:
     entries are created for new sessions (computing their wire once from the
     sender's current view) and dropped for sessions that disappeared.
     Surviving entries are already current — every sender rewrites its
     entries whenever its own BGP state transitions. Returns whether an
     entry was created, replaced or dropped; with [~check_only] nothing is
     touched and the result says whether one would be. *)
  let sync_incoming ?(check_only = false) i =
    let nd = nodes.(i) in
    let name = nd.cfg.Vi.hostname in
    let moved = ref false in
    List.iter
      (fun s ->
        match s.ss_remote with
        | External _ -> ()
        | Internal (ridx, rev) ->
          let sender = view.(ridx) in
          let current e =
            e.ex_local_ip = s.ss_local_ip
            && e.ex_is_ibgp = s.ss_is_ibgp
            && e.ex_sender = sender.cfg.Vi.hostname
          in
          (match Hashtbl.find_opt exports (name, s.ss_peer_ip) with
           | Some e when current e -> ()
           | found ->
             moved := true;
             if not check_only then begin
               if found = None then incoming.(i) <- s.ss_peer_ip :: incoming.(i);
               outgoing_stale := true;
               Hashtbl.replace exports (name, s.ss_peer_ip)
                 { ex_receiver = name; ex_peer_ip = s.ss_peer_ip;
                   ex_local_ip = s.ss_local_ip; ex_is_ibgp = s.ss_is_ibgp;
                   ex_sender = sender.cfg.Vi.hostname; ex_reverse = rev;
                   ex_wire =
                     wire_segments ~exported ~sender ~rev ~sender_ip:s.ss_peer_ip
                       ~receiver_ip:s.ss_local_ip ~is_ibgp:s.ss_is_ibgp }
             end))
      nd.sessions;
    let live =
      List.filter_map
        (fun s ->
          match s.ss_remote with
          | Internal _ -> Some s.ss_peer_ip
          | External _ -> None)
        nd.sessions
    in
    let stale, kept = List.partition (fun peer -> not (List.mem peer live)) incoming.(i) in
    if stale <> [] then begin
      moved := true;
      if not check_only then begin
        List.iter (fun peer -> Hashtbl.remove exports (name, peer)) stale;
        incoming.(i) <- kept;
        outgoing_stale := true
      end
    end;
    !moved
  in
  (* One node's re-derivation: wipe its BGP state and rebuild it from its
     neighbors' cached wire entries (the wires hold exactly what the scratch
     export pipeline put there, in canonical order, and [import_route]
     ignores the incoming arrival clock — so importing a cached wire is the
     import half of the scratch exchange, without re-running the sender-side
     export policies). Iterates because local originations, import best
     selection (IGP cost) and session viability read the node's own main.
     Returns the settled (main, bgp) states. *)
  (* Receiver-side import results, cached per wire entry. [import_route] is
     a pure function of (receiver config, session, sender router-id, wire
     route) apart from the arrival stamp, and a wire is replaced by a new
     array whenever one of its segments changes — so physical identity of
     [ex_wire] (plus the sender rid) keys the policy evaluation exactly.
     Accepted routes are cached arrival-free and restamped at merge time, in
     the same session/route order the direct import loop would stamp them. *)
  let import_cache : (string * Ipv4.t, wire * int * Route.t list) Hashtbl.t =
    Hashtbl.create 64
  in
  let step i =
    let nd = nodes.(i) in
    let name = nd.cfg.Vi.hostname in
    let cur = ref (rib_state nd.main_rib, rib_state nd.bgp_rib) in
    let stable = ref false and guard = ref 8 in
    while not !stable do
      if !guard = 0 then
        raise (Fallback "node did not stabilize under warm re-simulation");
      decr guard;
      incr step_count;
      establish_sessions env topo view node_index nd;
      ignore (sync_incoming i);
      (* Gather the node's full BGP candidate list in the order a wipe
         followed by the scratch merge sequence would produce it — local
         originations, external announcements, then each session's cached
         wire through the (cached) import pipeline — and rebuild the rib in
         one [Rib.reload] pass. *)
      nd.local_bgp <- compute_local_bgp nd;
      let acc = ref (List.rev nd.local_bgp) in
      List.iter
        (fun r -> acc := r :: !acc)
        (external_imports options nd);
      List.iter
        (fun s ->
          match s.ss_remote with
          | External _ -> ()
          | Internal (ridx, _) -> (
            match Hashtbl.find_opt exports (name, s.ss_peer_ip) with
            | None -> ()
            | Some e ->
              let sender_rid = view.(ridx).router_id in
              let imported_routes =
                match Hashtbl.find_opt import_cache (name, s.ss_peer_ip) with
                | Some (w, rid, imp) when w == e.ex_wire && rid = sender_rid -> imp
                | _ ->
                  let wire = wire_flatten e.ex_wire in
                  imported := !imported + List.length wire;
                  let imp =
                    List.filter_map
                      (fun w ->
                        Option.map
                          (fun (r : Route.t) -> { r with Route.arrival = 0 })
                          (import_route options nd s ~sender_rid w))
                      wire
                  in
                  Hashtbl.replace import_cache (name, s.ss_peer_ip)
                    (e.ex_wire, sender_rid, imp);
                  imp
              in
              List.iter
                (fun (r : Route.t) ->
                  acc := { r with Route.arrival = next_arrival options nd } :: !acc)
                imported_routes))
        nd.sessions;
      Rib.reload nd.bgp_rib (List.rev !acc);
      (* Rebuild the main RIB the same wholesale way: every non-BGP-learned
         candidate survives as-is, the BGP portion is this rib's fresh best
         set (arrival-zeroed, locally originated candidates stay out) —
         exactly what the scratch delta application converges to. *)
      let retained_rev =
        Rib.fold_entries
          (fun _ cands _ acc ->
            List.fold_left
              (fun acc (c : Route.t) ->
                if Route_proto.is_bgp c.Route.protocol && c.Route.from_peer <> 0
                then acc
                else c :: acc)
              acc cands)
          nd.main_rib []
      in
      let bgp_into_main =
        List.filter_map
          (fun (r : Route.t) ->
            if r.Route.from_peer <> 0 then Some { r with Route.arrival = 0 }
            else None)
          (Rib.best_routes nd.bgp_rib)
      in
      Rib.reload nd.main_rib (retained_rev @ bgp_into_main);
      let now = (rib_state nd.main_rib, rib_state nd.bgp_rib) in
      stable := now = !cur;
      cur := now
    done;
    !cur
  in
  (* Whether a member's export view differs from its base's: only then can
     its exports change while its best sets stay the same. *)
  let export_changed =
    Array.map
      (fun node ->
        let name = node.cfg.Vi.hostname in
        Hashtbl.mem changed_tbl name
        &&
        match List.find_opt (fun (c : Vi.t) -> c.Vi.hostname = name) base_cr.cr_configs with
        | Some base -> export_config base <> export_config node.cfg
        | None -> true)
      nodes
  in
  (* Whether such a node's wires were re-exported under its new config. *)
  let config_exported = Array.make n false in
  (* The delta test: when this node's BGP best sets moved, re-export the
     moved nets on every outgoing wire, splice them in, and enqueue exactly
     the receivers whose wire changed (they turn dirty). A node whose export
     view changed (which can alter exports with its state unchanged) looks
     its neighbor stanzas up afresh and, on its first propagation, re-exports
     every net; its wires then hold its new config's exports, so later
     propagations re-export only moved nets again. A main-RIB transition
     additionally wakes the configured partners (their session viability
     reads it). Returns true when nothing downstream was disturbed. *)
  let propagate i (cur_main, cur_bgp) =
    let nd = nodes.(i) in
    let quiet = ref true in
    let changed = export_changed.(i) in
    let full = changed && not config_exported.(i) in
    if changed then config_exported.(i) <- true;
    let moved = if full then [] else moved_nets cur_bgp (Lazy.force last_bgp_state.(i)) in
    last_bgp_state.(i) <- Lazy.from_val cur_bgp;
    if full || moved <> [] then begin
      let all_nets = if full then Rib.fold_best (fun p _ acc -> p :: acc) nd.bgp_rib [] else [] in
      List.iter
        (fun e ->
          match Hashtbl.find_opt node_index e.ex_receiver with
          | None -> ()
          | Some j when materialized.(j) && j = i -> ()
          | Some j ->
            let reexport nets =
              let rev = e.ex_reverse in
              let ctx = Policy_eval.make_ctx ~self_ip:e.ex_peer_ip nd.cfg in
              splice_segments e.ex_wire
                (List.map
                   (fun p ->
                     let best = Rib.best nd.bgp_rib p in
                     exported := !exported + List.length best;
                     ( p,
                       wire_segment ~ctx ~sender:nd ~rev ~sender_ip:e.ex_peer_ip
                         ~receiver_ip:e.ex_local_ip ~is_ibgp:e.ex_is_ibgp best ))
                   nets)
            in
            let wire =
              if not changed then reexport moved
              else
                match
                  Option.bind nd.cfg.Vi.bgp (fun b ->
                      List.find_opt
                        (fun (rn : Vi.bgp_neighbor) -> rn.Vi.bn_peer = e.ex_local_ip)
                        b.bp_neighbors)
                with
                | None -> if e.ex_wire = [||] then e.ex_wire else [||]
                | Some rev ->
                  e.ex_reverse <- rev;
                  reexport
                    (if full then
                       List.sort_uniq compare
                         (Array.fold_left (fun acc seg -> segment_net seg :: acc) all_nets
                            e.ex_wire)
                     else moved)
            in
            if wire != e.ex_wire then begin
              e.ex_wire <- wire;
              quiet := false;
              enqueue_dirty j
            end)
        (outgoing_of i)
    end;
    if cur_main <> Lazy.force last_main_state.(i) then begin
      last_main_state.(i) <- Lazy.from_val cur_main;
      quiet := false;
      List.iter enqueue partners.(i)
    end;
    !quiet
  in
  (* One dequeue. A node first dequeued clean adopts its base RIBs; a clean
     visit re-checks only its sessions and incoming entries and, if they
     still match what its RIBs were derived from, reports "no change" (no
     re-export, no partner wake). A dirty visit re-derives and propagates.
     Returns whether the node sits at its base fixed point with nothing
     downstream disturbed. *)
  let visit i =
    let nd = nodes.(i) in
    if not materialized.(i) then begin
      materialized.(i) <- true;
      if not dirty.(i) then begin
        let fresh = empty_rib () in
        Rib.assign fresh ~from:nd.main_rib;
        prebgp_main.(i) <- Some fresh;
        Rib.assign nd.main_rib ~from:base_nr.(i).nr_main;
        Rib.assign nd.bgp_rib ~from:base_nr.(i).nr_bgp
      end;
      view.(i) <- nd
    end;
    if not dirty.(i) then begin
      establish_sessions env topo view node_index nd;
      if sync_incoming ~check_only:true i || Some (session_key nd) <> derived_keys.(i)
      then dirty.(i) <- true
    end;
    if dirty.(i) then begin
      (* A node that adopted its base RIBs is first re-derived from where a
         fresh one starts: its pre-BGP main RIB, no BGP routes, clock 0. *)
      Option.iter
        (fun fresh ->
          Rib.assign nd.main_rib ~from:fresh;
          Rib.reload nd.bgp_rib [];
          prebgp_main.(i) <- None)
        prebgp_main.(i);
      let ((cur_main, _) as cur) = step i in
      dirty.(i) <- false;
      derived.(i) <- true;
      derived_keys.(i) <- Some (session_key nd);
      main_at_base.(i) <- cur_main = Lazy.force base_main_state.(i);
      propagate i cur && main_at_base.(i)
    end
    else main_at_base.(i)
  in
  (* Worklist fuel. The runaway backstop is 16 dequeues per member, but the
     caller's [max_rounds] budget also binds: a crippled fuel option must
     cripple the warm engine the same way it bounds the scratch engine's BGP
     rounds (exceeding it falls back to the scratch path, which reports fuel
     exhaustion precisely). *)
  let budget = ref (min (max 64 (16 * n)) (max 1 (options.max_rounds * n))) in
  while not (Queue.is_empty queue) do
    if !budget = 0 then raise (Fallback "delta worklist exceeded its budget");
    decr budget;
    let i = Queue.pop queue in
    in_queue.(i) <- false;
    early.(i) <- visit i
  done;
  (* The warm fixed point must itself be timing-independent, or it cannot be
     trusted (nor serve as the next update's base). A node never re-derived
     holds the base's delta-safe fixed point over its own unchanged main RIB,
     so its verdict is the base's. *)
  Array.iteri
    (fun i node ->
      if derived.(i) && node_ambiguous node then
        raise (Fallback "warm fixed point is timing-dependent"))
    nodes;
  let results =
    Array.to_list
      (Array.mapi
         (fun i node ->
           let name = node.cfg.Vi.hostname in
           if derived.(i) then
             ( name,
               { nr_node = name; nr_main = node.main_rib; nr_bgp = node.bgp_rib;
                 nr_ospf = node.ospf_rib;
                 nr_fib = Fib.of_rib ~node:name ~topo node.main_rib } )
           else if materialized.(i) then
             (* visited, never re-derived: the base's RIBs and FIB, with the
                OSPF RIB this run computed *)
             (name, { (base_nr.(i)) with nr_ospf = node.ospf_rib })
           else (name, base_nr.(i)))
         nodes)
  in
  let sessions =
    Array.to_list nodes
    |> List.concat_map (fun node ->
           let name = node.cfg.Vi.hostname in
           if materialized.(node.idx) then
             List.map
               (fun s ->
                 { sr_node = name; sr_peer = s.ss_peer_ip;
                   sr_remote_node =
                     (match s.ss_remote with
                      | Internal (i, _) -> Some nodes.(i).cfg.Vi.hostname
                      | External _ -> None);
                   sr_is_ibgp = s.ss_is_ibgp; sr_established = true;
                   sr_reason = None })
               node.sessions
             @ List.map
                 (fun ((nbr : Vi.bgp_neighbor), reason) ->
                   { sr_node = name; sr_peer = nbr.bn_peer; sr_remote_node = None;
                     sr_is_ibgp = false; sr_established = false;
                     sr_reason = Some reason })
                 node.down_sessions
           else List.filter (fun sr -> sr.sr_node = name) base_cr.cr_sessions)
  in
  let exports_list =
    Hashtbl.fold (fun _ e acc -> e :: acc) exports []
    |> List.sort (fun a b ->
           compare (a.ex_receiver, a.ex_peer_ip) (b.ex_receiver, b.ex_peer_ip))
  in
  let simulated = Array.fold_left (fun acc m -> if m then acc + 1 else acc) 0 materialized in
  let early_count = ref 0 in
  Array.iteri (fun i m -> if m && early.(i) then incr early_count) materialized;
  ( { cr_members = List.map (fun (c : Vi.t) -> c.Vi.hostname) comp;
      cr_results = results;
      cr_sessions = sessions;
      cr_converged = true;
      cr_oscillated = false;
      cr_rounds = !step_count;
      cr_outer = 1;
      cr_quarantined = [];
      cr_diags = [];
      cr_prebgp = Array.to_list prebgp;
      cr_exports = exports_list;
      cr_session_keys =
        Array.to_list nodes
        |> List.filter_map (fun node ->
               Option.map (fun k -> (node.cfg.Vi.hostname, k)) derived_keys.(node.idx));
      cr_configs = comp;
      cr_ospf_digest = ospf_digest;
      cr_delta_safe = true },
    { ws_simulated = simulated; ws_converged_early = !early_count;
      ws_exported = !exported; ws_imported = !imported } )

(* Any failed precondition or mid-flight surprise sends the component down
   the scratch path instead — slower, never wrong. *)
let warm_component ~options ~env ~topo ~base_cr ~changed_tbl comp =
  try Some (warm_component_exn ~options ~env ~topo ~base_cr ~changed_tbl comp)
  with _ -> None

(* --- orchestration --- *)

(* Stitch per-component results back into a whole-snapshot [t]. Session
   reports are re-ordered by [node_order] so the output is independent of the
   component partition. *)
let assemble ~configs ~topo ~pre_quarantined ~pre_diags ~stats comp_results =
  let results = Hashtbl.create 64 in
  List.iter
    (fun cr ->
      List.iter (fun (name, nr) -> Hashtbl.replace results name nr) cr.cr_results)
    comp_results;
  (* Pre-flight-quarantined configs appear with empty tables so lookups stay
     total. *)
  List.iter
    (fun (cfg : Vi.t) ->
      let name = cfg.Vi.hostname in
      if List.mem_assoc name pre_quarantined && not (Hashtbl.mem results name) then
        Hashtbl.replace results name (empty_result ~topo name))
    configs;
  let node_order = List.map (fun (c : Vi.t) -> c.Vi.hostname) configs in
  let order_index = Hashtbl.create 64 in
  List.iteri (fun i n -> if not (Hashtbl.mem order_index n) then Hashtbl.add order_index n i)
    node_order;
  let sessions =
    List.concat_map (fun cr -> cr.cr_sessions) comp_results
    |> List.stable_sort (fun a b ->
           compare
             (Hashtbl.find_opt order_index a.sr_node)
             (Hashtbl.find_opt order_index b.sr_node))
  in
  { topo;
    nodes = results;
    node_order;
    converged = List.for_all (fun cr -> cr.cr_converged) comp_results;
    oscillated = List.exists (fun cr -> cr.cr_oscillated) comp_results;
    rounds = List.fold_left (fun acc cr -> acc + cr.cr_rounds) 0 comp_results;
    outer_iterations = List.fold_left (fun acc cr -> max acc cr.cr_outer) 0 comp_results;
    sessions;
    quarantined =
      List.sort compare
        (pre_quarantined @ List.concat_map (fun cr -> cr.cr_quarantined) comp_results);
    diags = pre_diags @ List.concat_map (fun cr -> cr.cr_diags) comp_results;
    components = List.map (fun cr -> cr.cr_members) comp_results;
    comp_results;
    stats }

let compute ?(options = default_options) ?(env = Dp_env.empty) configs =
  let live, pre_quarantined, pre_diags0 = preflight ~env configs in
  let dc = Diag.collector () in
  let topo = infer_topology dc live in
  let pre_diags = pre_diags0 @ Diag.to_list dc in
  let comps = component_partition ~topo live in
  let comp_results = List.map (compute_component ~options ~env ~topo) comps in
  let stats =
    { st_components = List.length comp_results;
      st_dirty_components = List.length comp_results;
      st_simulated_nodes = List.length live;
      st_reused_nodes = 0;
      st_frontier_nodes = 0;
      st_converged_early = 0;
      st_exported_routes = 0;
      st_imported_routes = 0 }
  in
  assemble ~configs ~topo ~pre_quarantined ~pre_diags ~stats comp_results

(* Incremental recompute (ISSUE 4 tentpole; per-node route-delta reuse in
   ISSUE 8). [changed] lists the hostnames whose vendor-independent model
   differs from [base] (including added nodes; removed nodes are simply
   absent from [configs]). A component of the new snapshot is reused from
   [base] — results, sessions, diags and all — exactly when none of its
   members changed AND its member set equals a base component's member set;
   the membership check catches every cross-component influence shift (an
   edit elsewhere that acquires or loses ownership of a peer address, adds an
   adjacency, etc.) because any such shift changes the partition. A dirty
   component whose member set still matches a base component re-simulates
   only the nodes the edit disturbs ([warm_component]), warm-starting the
   rest from the base fixed point; if the warm preconditions fail (base not
   converged, timing-dependent fixed point, mid-flight surprise) it falls
   back to the identical [compute_component] path from scratch. Either way
   the result is bit-identical to a full [compute] of the new configs.
   [options] and [env] must equal the ones [base] was computed with. *)
let update ?(options = default_options) ?(env = Dp_env.empty) ~base ~changed configs =
  let live, pre_quarantined, pre_diags0 = preflight ~env configs in
  let dc = Diag.collector () in
  let topo = infer_topology dc live in
  let pre_diags = pre_diags0 @ Diag.to_list dc in
  let comps = component_partition ~topo live in
  let changed_tbl = Hashtbl.create 16 in
  List.iter (fun n -> Hashtbl.replace changed_tbl n ()) changed;
  let base_by_members =
    List.map (fun cr -> (cr.cr_members, cr)) base.comp_results
  in
  let reused_nodes = ref 0 and dirty = ref 0 and simulated = ref 0 in
  let frontier = ref 0 and early = ref 0 in
  let exported = ref 0 and imported = ref 0 in
  let comp_results =
    List.map
      (fun comp ->
        let members = List.map (fun (c : Vi.t) -> c.Vi.hostname) comp in
        let n_members = List.length members in
        let base_cr = List.assoc_opt members base_by_members in
        let any_changed = List.exists (Hashtbl.mem changed_tbl) members in
        match (any_changed, base_cr) with
        | false, Some cr ->
          reused_nodes := !reused_nodes + n_members;
          cr
        | _, Some bcr -> (
          incr dirty;
          match warm_component ~options ~env ~topo ~base_cr:bcr ~changed_tbl comp with
          | Some (cr, ws) ->
            simulated := !simulated + ws.ws_simulated;
            reused_nodes := !reused_nodes + (n_members - ws.ws_simulated);
            frontier := !frontier + ws.ws_simulated;
            early := !early + ws.ws_converged_early;
            exported := !exported + ws.ws_exported;
            imported := !imported + ws.ws_imported;
            cr
          | None ->
            simulated := !simulated + n_members;
            frontier := !frontier + n_members;
            compute_component ~options ~env ~topo comp)
        | _, None ->
          incr dirty;
          simulated := !simulated + n_members;
          frontier := !frontier + n_members;
          compute_component ~options ~env ~topo comp)
      comps
  in
  let stats =
    { st_components = List.length comp_results;
      st_dirty_components = !dirty;
      st_simulated_nodes = !simulated;
      st_reused_nodes = !reused_nodes;
      st_frontier_nodes = !frontier;
      st_converged_early = !early;
      st_exported_routes = !exported;
      st_imported_routes = !imported }
  in
  assemble ~configs ~topo ~pre_quarantined ~pre_diags ~stats comp_results

let node_opt t name = Hashtbl.find_opt t.nodes name

let node t name =
  match node_opt t name with
  | Some nr -> nr
  | None -> invalid_arg (Printf.sprintf "Dataplane.node: unknown node %s" name)

let total_routes t =
  Hashtbl.fold (fun _ nr acc -> acc + Rib.best_count nr.nr_main) t.nodes 0

let rib_words t =
  (* One traversal over every RIB at once, so structure shared across nodes
     (interned attributes) is counted a single time — the sharing is the
     point of the measurement. *)
  let all =
    Hashtbl.fold (fun _ nr acc -> nr.nr_main :: nr.nr_bgp :: acc) t.nodes []
  in
  Obj.reachable_words (Obj.repr all)

(* Test support: every stored wire against [wire_routes], the full flat
   re-export it must equal. *)
let wire_mismatches configs t =
  let cfgs = Hashtbl.create 64 in
  List.iter
    (fun (c : Vi.t) ->
      if not (Hashtbl.mem cfgs c.Vi.hostname) then Hashtbl.add cfgs c.Vi.hostname c)
    configs;
  let label e =
    Printf.sprintf "%s <- %s (%s)" e.ex_receiver (Ipv4.to_string e.ex_peer_ip) e.ex_sender
  in
  List.concat_map
    (fun cr ->
      if not cr.cr_delta_safe then []
      else
        let live =
          List.filter_map
            (fun sr ->
              if sr.sr_established && sr.sr_remote_node <> None then
                Some (sr.sr_node, sr.sr_peer)
              else None)
            cr.cr_sessions
          |> List.sort compare
        in
        let held =
          List.map (fun e -> (e.ex_receiver, e.ex_peer_ip)) cr.cr_exports |> List.sort compare
        in
        let entry_set =
          if live = held then []
          else [ Printf.sprintf "component %s: entries do not match the live sessions"
                   (String.concat "," cr.cr_members) ]
        in
        entry_set
        @ List.filter_map
            (fun e ->
              match
                (Hashtbl.find_opt cfgs e.ex_sender, List.assoc_opt e.ex_sender cr.cr_results)
              with
              | Some cfg, Some nr -> (
                let sender = { (make_node 0 cfg) with bgp_rib = nr.nr_bgp } in
                let rev =
                  Option.bind cfg.Vi.bgp (fun b ->
                      List.find_opt
                        (fun (rn : Vi.bgp_neighbor) -> rn.Vi.bn_peer = e.ex_local_ip)
                        b.bp_neighbors)
                in
                match rev with
                | None -> Some (label e ^ ": sender has no stanza for the session")
                | Some rev when { rev with bn_line = 0 } <> { e.ex_reverse with bn_line = 0 } ->
                  Some (label e ^ ": stale sender stanza")
                | Some rev ->
                  let full =
                    wire_routes ~sender ~rev ~sender_ip:e.ex_peer_ip ~receiver_ip:e.ex_local_ip
                      ~is_ibgp:e.ex_is_ibgp
                  in
                  if full = wire_flatten e.ex_wire then None
                  else Some (label e ^ ": wire differs from a full re-export"))
              | _ -> Some (label e ^ ": unknown sender"))
            cr.cr_exports)
    t.comp_results
