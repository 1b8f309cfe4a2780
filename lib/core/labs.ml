type expectation =
  | Route_present of string * string * string
  | Route_absent of string * string
  | Flow_delivered of string * string option * Packet.t
  | Flow_dropped of string * string option * Packet.t
  | Session_established of string * string
  | Session_down of string * string

type lab = {
  lab_name : string;
  lab_doc : string;
  lab_configs : (string * string) list;
  lab_env : Dp_env.t;
  lab_expectations : expectation list;
}

type outcome = { ok_expectation : string; ok_pass : bool; ok_detail : string }

let describe = function
  | Route_present (n, p, proto) -> Printf.sprintf "%s has %s via %s" n p proto
  | Route_absent (n, p) -> Printf.sprintf "%s has no route to %s" n p
  | Flow_delivered (n, _, pkt) -> Printf.sprintf "%s delivers %s" n (Packet.to_string pkt)
  | Flow_dropped (n, _, pkt) -> Printf.sprintf "%s drops %s" n (Packet.to_string pkt)
  | Session_established (n, p) -> Printf.sprintf "%s session to %s up" n p
  | Session_down (n, p) -> Printf.sprintf "%s session to %s down" n p

let run lab =
  let snap = Batfish.Snapshot.of_texts lab.lab_configs in
  let bf = Batfish.init ~env:lab.lab_env snap in
  let dp = Batfish.dataplane bf in
  let check = function
    | Route_present (node, pfx, proto) -> (
      let best = Rib.best (Dataplane.node dp node).Dataplane.nr_main (Prefix.of_string pfx) in
      match
        List.find_opt (fun (r : Route.t) -> Route_proto.to_string r.protocol = proto) best
      with
      | Some r -> (true, Route.to_string r)
      | None ->
        ( false,
          Printf.sprintf "found [%s]" (String.concat "; " (List.map Route.to_string best)) ))
    | Route_absent (node, pfx) ->
      let best = Rib.best (Dataplane.node dp node).Dataplane.nr_main (Prefix.of_string pfx) in
      if best = [] then (true, "absent")
      else (false, Printf.sprintf "unexpectedly present: %s" (Route.to_string (List.hd best)))
    | Flow_delivered (start, ingress, pkt) ->
      let traces = Batfish.traceroute bf ~start ?ingress pkt in
      let ok =
        traces <> []
        && List.for_all
             (fun (tr : Traceroute.trace) -> Traceroute.is_delivered tr.disposition)
             traces
      in
      ( ok,
        String.concat " | "
          (List.map
             (fun (tr : Traceroute.trace) -> Traceroute.disposition_to_string tr.disposition)
             traces) )
    | Flow_dropped (start, ingress, pkt) ->
      let traces = Batfish.traceroute bf ~start ?ingress pkt in
      let ok =
        List.for_all
          (fun (tr : Traceroute.trace) ->
            not (Traceroute.is_delivered tr.disposition))
          traces
      in
      ( ok,
        String.concat " | "
          (List.map
             (fun (tr : Traceroute.trace) -> Traceroute.disposition_to_string tr.disposition)
             traces) )
    | Session_established (node, peer) ->
      let p = Ipv4.of_string peer in
      let s =
        List.find_opt
          (fun (s : Dataplane.session_report) -> s.sr_node = node && s.sr_peer = p)
          dp.Dataplane.sessions
      in
      (match s with
       | Some s when s.sr_established -> (true, "ESTABLISHED")
       | Some s -> (false, Option.value s.sr_reason ~default:"down")
       | None -> (false, "no such session"))
    | Session_down (node, peer) -> (
      let p = Ipv4.of_string peer in
      match
        List.find_opt
          (fun (s : Dataplane.session_report) -> s.sr_node = node && s.sr_peer = p)
          dp.Dataplane.sessions
      with
      | Some s when not s.sr_established ->
        (true, Option.value s.sr_reason ~default:"down")
      | Some _ -> (false, "unexpectedly established")
      | None -> (true, "no session (configured side down)"))
  in
  List.map
    (fun e ->
      let pass, detail = check e in
      { ok_expectation = describe e; ok_pass = pass; ok_detail = detail })
    lab.lab_expectations

let all_pass outcomes = List.for_all (fun o -> o.ok_pass) outcomes

(* ------------------------------------------------------------------ *)
(* The lab repository                                                  *)
(* ------------------------------------------------------------------ *)

let text lines = String.concat "\n" lines
let ip = Ipv4.of_string

(* Lab 1: recommended OSPF + eBGP border configuration. *)
let lab_standard_border =
  { lab_name = "standard-border";
    lab_doc = "recommended-template OSPF core with an eBGP border";
    lab_configs =
      [ ( "core.cfg",
          text
            [ "hostname core";
              "interface Loopback0"; " ip address 10.255.0.1 255.255.255.255";
              " ip ospf area 0"; " ip ospf cost 1";
              "interface e1"; " ip address 10.0.0.1 255.255.255.252";
              " ip ospf area 0"; " ip ospf cost 10";
              "interface lan"; " ip address 10.1.0.1 255.255.0.0";
              " ip ospf area 0"; " ip ospf cost 10";
              "router ospf 1"; " passive-interface lan"; " passive-interface Loopback0" ] );
        ( "border.cfg",
          text
            [ "hostname border";
              "interface e1"; " ip address 10.0.0.2 255.255.255.252";
              " ip ospf area 0"; " ip ospf cost 10";
              "interface ext"; " ip address 203.0.113.2 255.255.255.252";
              "router ospf 1"; " redistribute bgp metric 20 subnets";
              "router bgp 65000";
              " neighbor 203.0.113.1 remote-as 65010";
              " redistribute connected" ] ) ];
    lab_env =
      Dp_env.make
        [ Dp_env.peer ~ip:(ip "203.0.113.1") ~asn:65010
            [ Dp_env.announce (Prefix.of_string "8.8.8.0/24") ] ];
    lab_expectations =
      [ Session_established ("border", "203.0.113.1");
        Route_present ("border", "8.8.8.0/24", "bgp");
        Route_present ("border", "10.1.0.0/16", "ospf");
        Route_present ("core", "10.255.0.1/32", "local");
        Flow_delivered
          ("core", Some "lan", Packet.tcp ~src:(ip "10.1.0.9") ~dst:(ip "10.0.0.2") 179) ] }

(* Lab 2: a deviation — the neighbor references an undefined route-map.
   What should happen is undocumented vendor behaviour (Lesson 3): IOS
   treats it as deny-all. *)
let lab_undefined_route_map =
  { lab_name = "deviation-undefined-route-map";
    lab_doc = "BGP import references a route-map that is not defined (IOS: deny)";
    lab_configs =
      [ ( "r1.cfg",
          text
            [ "hostname r1";
              "interface e1"; " ip address 10.0.0.1 255.255.255.252";
              "router bgp 100";
              " neighbor 10.0.0.2 remote-as 65010";
              " neighbor 10.0.0.2 route-map DOES_NOT_EXIST in" ] ) ];
    lab_env =
      Dp_env.make
        [ Dp_env.peer ~ip:(ip "10.0.0.2") ~asn:65010
            [ Dp_env.announce (Prefix.of_string "9.9.9.0/24") ] ];
    lab_expectations =
      [ Session_established ("r1", "10.0.0.2");
        Route_absent ("r1", "9.9.9.0/24") ] }

(* Lab 3: a deviation — one-sided session configuration. *)
let lab_one_sided_session =
  { lab_name = "deviation-one-sided-session";
    lab_doc = "only one side configures the BGP neighbor";
    lab_configs =
      [ ( "a.cfg",
          text
            [ "hostname a";
              "interface e1"; " ip address 10.0.0.1 255.255.255.252";
              "router bgp 100"; " neighbor 10.0.0.2 remote-as 200" ] );
        ( "b.cfg",
          text
            [ "hostname b";
              "interface e1"; " ip address 10.0.0.2 255.255.255.252";
              "router bgp 200" ] ) ];
    lab_env = Dp_env.empty;
    lab_expectations = [ Session_down ("a", "10.0.0.2") ] }

(* Lab 4: well-known communities honoured at export. The provider tags
   customer routes no-export at import, so they reach the provider but are
   not re-exported to other eBGP peers. *)
let lab_no_export =
  { lab_name = "well-known-communities";
    lab_doc = "routes tagged no-export must not cross the next eBGP boundary";
    lab_configs =
      [ ( "edge.cfg",
          text
            [ "hostname edge";
              "interface lan"; " ip address 10.5.0.1 255.255.0.0";
              "interface e1"; " ip address 10.0.0.1 255.255.255.252";
              "router bgp 100";
              " neighbor 10.0.0.2 remote-as 200";
              " network 10.5.0.0 mask 255.255.0.0" ] );
        ( "peer.cfg",
          text
            [ "hostname peer";
              "interface e1"; " ip address 10.0.0.2 255.255.255.252";
              "interface far"; " ip address 10.0.1.1 255.255.255.252";
              "route-map CUST_IN permit 10"; " set community no-export";
              "router bgp 200";
              " neighbor 10.0.0.1 remote-as 100";
              " neighbor 10.0.0.1 route-map CUST_IN in";
              " neighbor 10.0.1.2 remote-as 300" ] );
        ( "far.cfg",
          text
            [ "hostname far";
              "interface far"; " ip address 10.0.1.2 255.255.255.252";
              "router bgp 300";
              " neighbor 10.0.1.1 remote-as 200" ] ) ];
    lab_env = Dp_env.empty;
    lab_expectations =
      [ Route_present ("peer", "10.5.0.0/16", "bgp");
        (* no-export: peer must not pass it on to far *)
        Route_absent ("far", "10.5.0.0/16") ] }

(* Lab 5: numbered ACLs, the classic syntax. *)
let lab_numbered_acl =
  { lab_name = "numbered-acls";
    lab_doc = "classic numbered access lists filter as the named ones do";
    lab_configs =
      [ ( "gw.cfg",
          text
            [ "hostname gw";
              "interface lan"; " ip address 10.6.0.1 255.255.0.0";
              " ip access-group 105 in";
              "interface wan"; " ip address 10.0.0.1 255.255.255.252";
              "access-list 105 permit tcp 10.6.0.0 0.0.255.255 any eq 443";
              "access-list 105 deny ip any any";
              "ip route 0.0.0.0 0.0.0.0 10.0.0.2" ] );
        ( "up.cfg",
          text
            [ "hostname up";
              "interface wan"; " ip address 10.0.0.2 255.255.255.252";
              "interface net"; " ip address 8.8.8.1 255.255.255.0";
              "ip route 10.6.0.0 255.255.0.0 10.0.0.1" ] ) ];
    lab_env = Dp_env.empty;
    lab_expectations =
      [ Flow_delivered
          ("gw", Some "lan", Packet.tcp ~src:(ip "10.6.1.1") ~dst:(ip "8.8.8.8") 443);
        Flow_dropped
          ("gw", Some "lan", Packet.tcp ~src:(ip "10.6.1.1") ~dst:(ip "8.8.8.8") 80) ] }

(* Lab 6: iBGP full mesh without a route reflector. A router's own routes
   (here a redistributed connected subnet) go to every iBGP peer; only
   routes it learned over iBGP stay unadvertised to the others. *)
let lab_ibgp_full_mesh =
  { lab_name = "ibgp-full-mesh";
    lab_doc = "a non-reflector advertises its own redistributed routes to all iBGP peers";
    lab_configs =
      [ ( "r1.cfg",
          text
            [ "hostname r1";
              "interface e12"; " ip address 10.0.12.1 255.255.255.252";
              "interface e13"; " ip address 10.0.13.1 255.255.255.252";
              "interface lan"; " ip address 10.7.0.1 255.255.255.0";
              "router bgp 100";
              " neighbor 10.0.12.2 remote-as 100";
              " neighbor 10.0.13.2 remote-as 100";
              " redistribute connected" ] );
        ( "r2.cfg",
          text
            [ "hostname r2";
              "interface e12"; " ip address 10.0.12.2 255.255.255.252";
              "interface e23"; " ip address 10.0.23.1 255.255.255.252";
              "router bgp 100";
              " neighbor 10.0.12.1 remote-as 100";
              " neighbor 10.0.23.2 remote-as 100" ] );
        ( "r3.cfg",
          text
            [ "hostname r3";
              "interface e13"; " ip address 10.0.13.2 255.255.255.252";
              "interface e23"; " ip address 10.0.23.2 255.255.255.252";
              "router bgp 100";
              " neighbor 10.0.13.1 remote-as 100";
              " neighbor 10.0.23.1 remote-as 100" ] ) ];
    lab_env = Dp_env.empty;
    lab_expectations =
      [ Session_established ("r2", "10.0.12.1");
        Session_established ("r3", "10.0.13.1");
        Route_present ("r2", "10.7.0.0/24", "ibgp");
        Route_present ("r3", "10.7.0.0/24", "ibgp") ] }

let builtin =
  [ lab_standard_border; lab_undefined_route_map; lab_one_sided_session;
    lab_no_export; lab_numbered_acl; lab_ibgp_full_mesh ]
