type network = {
  n_name : string;
  n_type : string;
  n_configs : (string * string) list;
  n_env : Dp_env.t;
}

let device_count n = List.length n.n_configs

let config_lines n =
  List.fold_left
    (fun acc (_, text) -> acc + List.length (String.split_on_char '\n' text))
    0 n.n_configs

(* --- address allocation --- *)

type alloc = { mutable links : int; mutable loops : int; mutable subnets : int; mutable ext : int }

let alloc () = { links = 0; loops = 0; subnets = 0; ext = 0 }

(* /30 point-to-point links out of 10.192.0.0/10 *)
let new_link a =
  let k = a.links in
  a.links <- k + 1;
  let base = Ipv4.of_octets 10 192 0 0 + (k * 4) in
  (base + 1, base + 2)

let new_loopback a =
  let k = a.loops in
  a.loops <- k + 1;
  Ipv4.of_octets 10 255 0 0 + k

(* /24 host subnets out of 172.16.0.0/12; returns the gateway address *)
let new_subnet a =
  let k = a.subnets in
  a.subnets <- k + 1;
  Ipv4.of_octets 172 16 0 0 + (k * 256) + 1

(* /24 externally announced prefixes out of 193.0.0.0/8 *)
let new_ext_prefix a =
  let k = a.ext in
  a.ext <- k + 1;
  Prefix.make (Ipv4.of_octets 193 0 0 0 + (k * 256)) 24

let subnet_of gw = Prefix.make gw 24
let s = Printf.sprintf

(* --- IOS emission --- *)

let mask_str len = Ipv4.to_string (Prefix.mask (Prefix.make 0 len))

let ios_iface ?desc ?cost ?area ?in_acl ?out_acl ?zone name ip len =
  [ s "interface %s" name ]
  @ (match desc with
     | Some d -> [ s " description %s" d ]
     | None -> [])
  @ [ s " ip address %s %s" (Ipv4.to_string ip) (mask_str len) ]
  @ (match cost with
     | Some c -> [ s " ip ospf cost %d" c ]
     | None -> [])
  @ (match area with
     | Some ar -> [ s " ip ospf 1 area %d" ar ]
     | None -> [])
  @ (match in_acl with
     | Some acl -> [ s " ip access-group %s in" acl ]
     | None -> [])
  @ (match out_acl with
     | Some acl -> [ s " ip access-group %s out" acl ]
     | None -> [])
  @ (match zone with
     | Some z -> [ s " zone-member security %s" z ]
     | None -> [])
  @ [ " no shutdown"; "!" ]

let ios_device ?(arista = false) ~name parts =
  let body = List.concat parts in
  let header =
    if arista then [ "! Arista vEOS"; s "hostname %s" name; "!" ]
    else [ s "hostname %s" name; "!" ]
  in
  (s "%s.cfg" name, String.concat "\n" (header @ body @ [ "end"; "" ]))

let mgmt =
  [ "ntp server 10.255.255.1"; "ntp server 10.255.255.2";
    "ip name-server 10.255.255.53"; "logging host 10.255.255.99";
    "snmp-server community netops RO"; "!" ]

(* --- Junos emission --- *)

let jun_device ~name parts =
  let body = List.concat parts in
  ( s "%s.cfg" name,
    String.concat "\n"
      ([ s "set system host-name %s" name;
         "set system ntp server 10.255.255.1";
         "set system ntp server 10.255.255.2";
         "set system name-server 10.255.255.53";
         "set system syslog host 10.255.255.99 any";
         "set snmp community netops" ]
      @ body @ [ "" ]) )

let jun_iface ?cost ?area ?passive name ip len =
  [ s "set interfaces %s unit 0 family inet address %s/%d" name (Ipv4.to_string ip) len ]
  @ (match area with
     | Some ar ->
       [ s "set protocols ospf area %d interface %s%s" ar name
           (match cost with
            | Some c -> s " metric %d" c
            | None -> "") ]
       @ (if passive = Some true then [ s "set protocols ospf area %d interface %s passive" ar name ] else [])
     | None -> [])

(* ======================= leaf-spine fabrics ======================= *)

(* Internal builder shared by clos/clos3/paired_dc. Every leaf gets a host
   subnet and an anti-spoofing edge ACL; everything speaks eBGP with ECMP. *)
let clos_core ~a ~prefix ~spines ~leaves ~spine_as ~leaf_as () =
  let spine_names = List.init spines (fun i -> s "%s-spine%d" prefix (i + 1)) in
  let leaf_names = List.init leaves (fun i -> s "%s-leaf%d" prefix (i + 1)) in
  (* links.(l).(sp) = (leaf ip, spine ip) *)
  let links = Array.init leaves (fun _ -> Array.init spines (fun _ -> new_link a)) in
  let subnets = Array.init leaves (fun _ -> new_subnet a) in
  let leaf_devices =
    List.mapi
      (fun l name ->
        let lan_gw = subnets.(l) in
        let acl =
          [ "ip access-list extended EDGE_IN";
            s " 10 permit ip %s 0.0.0.255 any" (Ipv4.to_string (Prefix.network (subnet_of lan_gw)));
            " 20 deny ip any any"; "!" ]
        in
        let ifaces =
          ios_iface ~desc:"host subnet" ~in_acl:"EDGE_IN" "Vlan100" lan_gw 24
          @ List.concat
              (List.mapi
                 (fun sp (lip, _) ->
                   ios_iface ~desc:(s "to %s" (List.nth spine_names sp))
                     (s "Ethernet%d" (sp + 1)) lip 30)
                 (Array.to_list links.(l)))
        in
        let bgp =
          [ s "router bgp %d" (leaf_as l);
            s " bgp router-id %s" (Ipv4.to_string lan_gw) ]
          @ List.concat
              (List.mapi
                 (fun _sp (_, sip) ->
                   [ s " neighbor %s remote-as %d" (Ipv4.to_string sip) spine_as ])
                 (Array.to_list links.(l)))
          @ [ s " network %s mask 255.255.255.0" (Ipv4.to_string (Prefix.network (subnet_of lan_gw)));
              " maximum-paths 16"; "!" ]
        in
        ios_device ~name [ mgmt; acl; ifaces; bgp ])
      leaf_names
  in
  let spine_devices =
    List.mapi
      (fun sp name ->
        let ifaces =
          List.concat
            (List.mapi
               (fun l row ->
                 let _, sip = row.(sp) in
                 ios_iface ~desc:(s "to %s" (List.nth leaf_names l))
                   (s "Ethernet%d" (l + 1)) sip 30)
               (Array.to_list links))
        in
        let bgp =
          [ s "router bgp %d" spine_as;
            s " bgp router-id %s" (Ipv4.to_string (snd links.(0).(sp))) ]
          @ List.concat
              (List.mapi
                 (fun l row ->
                   let lip, _ = row.(sp) in
                   [ s " neighbor %s remote-as %d" (Ipv4.to_string lip) (leaf_as l) ])
                 (Array.to_list links))
          @ [ " maximum-paths 16"; "!" ]
        in
        ios_device ~arista:true ~name [ mgmt; ifaces; bgp ])
      spine_names
  in
  (spine_devices @ leaf_devices, spine_names, Array.to_list subnets)

let clos ~name ~spines ~leaves () =
  let a = alloc () in
  let devices, _, _ =
    clos_core ~a ~prefix:name ~spines ~leaves ~spine_as:64512
      ~leaf_as:(fun l -> 65001 + l)
      ()
  in
  { n_name = name; n_type = "DC"; n_configs = devices; n_env = Dp_env.empty }

let clos3 ~name ~pods ~pod_spines ~pod_leaves ~superspines () =
  let a = alloc () in
  let ss_names = List.init superspines (fun i -> s "%s-ss%d" name (i + 1)) in
  let ss_as = 64496 in
  let pod_results =
    List.init pods (fun p ->
        clos_core ~a ~prefix:(s "%s-p%d" name (p + 1)) ~spines:pod_spines
          ~leaves:pod_leaves ~spine_as:(64512 + p)
          ~leaf_as:(fun l -> 65001 + (p * 100) + l)
          ())
  in
  (* superspine <-> pod-spine links; emitted as extra config text appended to
     the pod spine configs *)
  let ss_ifaces = Array.make superspines [] in
  let ss_nbrs = Array.make superspines [] in
  let ss_iface_count = Array.make superspines 0 in
  let pod_devices =
    List.concat
      (List.mapi
         (fun p (devices, spine_names, _) ->
           List.map
             (fun (fname, text) ->
               let dev_name = Filename.remove_extension fname in
               match
                 List.find_opt (fun sn -> sn = dev_name) spine_names
               with
               | None -> (fname, text)
               | Some _ ->
                 (* link this pod spine to every superspine *)
                 let extra =
                   List.concat
                     (List.mapi
                        (fun k ss_name ->
                          let pip, ssip = new_link a in
                          ss_iface_count.(k) <- ss_iface_count.(k) + 1;
                          ss_ifaces.(k) <-
                            ss_ifaces.(k)
                            @ ios_iface ~desc:(s "to %s" dev_name)
                                (s "Ethernet%d" ss_iface_count.(k))
                                ssip 30;
                          ss_nbrs.(k) <-
                            ss_nbrs.(k) @ [ s " neighbor %s remote-as %d" (Ipv4.to_string pip) (64512 + p) ];
                          ios_iface ~desc:(s "to %s" ss_name)
                            (s "Uplink%d" (k + 1)) pip 30
                          @ [ s "router bgp %d" (64512 + p);
                              s " neighbor %s remote-as %d" (Ipv4.to_string ssip) ss_as; "!" ])
                        ss_names)
                 in
                 (fname, text ^ "\n" ^ String.concat "\n" extra ^ "\n"))
             devices)
         pod_results)
  in
  let ss_devices =
    List.mapi
      (fun k ss_name ->
        ios_device ~arista:true ~name:ss_name
          [ mgmt; ss_ifaces.(k);
            [ s "router bgp %d" ss_as ] @ ss_nbrs.(k) @ [ " maximum-paths 16"; "!" ] ])
      ss_names
  in
  { n_name = name; n_type = "DC (3-tier)"; n_configs = ss_devices @ pod_devices;
    n_env = Dp_env.empty }

(* ======================= enterprise ======================= *)

let enterprise ~name ~sites () =
  let a = alloc () in
  let asn = 65000 in
  let core_lo = [| new_loopback a; new_loopback a |] in
  let core_names = [| s "%s-core1" name; s "%s-core2" name |] in
  let core_link = new_link a in
  (* per-site: links to both cores *)
  let site_links = Array.init sites (fun _ -> (new_link a, new_link a)) in
  let site_lo = Array.init sites (fun _ -> new_loopback a) in
  let site_subnets = Array.init sites (fun _ -> (new_subnet a, new_subnet a)) in
  let border_links = Array.init 2 (fun _ -> (new_link a, new_link a)) in
  let border_lo = [| new_loopback a; new_loopback a |] in
  let isp_links = [| new_link a; new_link a |] in
  let fw_link = new_link a in
  let dmz_gw = Ipv4.of_octets 172 31 1 1 in
  let ibgp_clients =
    Array.to_list (Array.map Ipv4.to_string site_lo)
    @ Array.to_list (Array.map Ipv4.to_string border_lo)
  in
  let policies =
    [ "ip prefix-list OUR_NETS seq 5 permit 172.16.0.0/12 le 24";
      "ip prefix-list OUR_NETS seq 10 permit 172.31.0.0/16 le 24";
      "ip community-list standard SITE_ROUTES permit 65000:100";
      "route-map TO_ISP permit 10";
      " match ip address prefix-list OUR_NETS";
      "route-map TO_ISP deny 20";
      "!" ]
  in
  let cores =
    List.init 2 (fun c ->
        let other = 1 - c in
        let my_end (x, y) = if c = 0 then x else y in
        let ifaces =
          ios_iface ~cost:1 ~area:0 "Loopback0" core_lo.(c) 32
          @ ios_iface ~desc:(s "to %s" core_names.(other)) ~cost:5 ~area:0 "Ethernet1"
              (my_end core_link) 30
          @ List.concat
              (List.init sites (fun i ->
                   let l1, l2 = site_links.(i) in
                   let link = if c = 0 then l1 else l2 in
                   ios_iface ~desc:(s "to site %d" (i + 1)) ~cost:10 ~area:0
                     (s "Ethernet%d" (i + 2))
                     (fst link) 30))
          @ List.concat
              (List.init 2 (fun b ->
                   let l1, l2 = border_links.(b) in
                   let link = if c = 0 then l1 else l2 in
                   if c = b || sites = 0 then
                     ios_iface ~desc:(s "to border%d" (b + 1)) ~cost:10 ~area:0
                       (s "Ethernet%d" (sites + 2 + b))
                       (fst link) 30
                   else
                     ios_iface ~desc:(s "to border%d" (b + 1)) ~cost:10 ~area:0
                       (s "Ethernet%d" (sites + 2 + b))
                       (fst link) 30))
          @ (if c = 0 then
               ios_iface ~desc:"to firewall" ~cost:10 ~area:0 "Ethernet99" (fst fw_link) 30
             else [])
        in
        let statics =
          if c = 0 then
            [ s "ip route 172.31.1.0 255.255.255.0 %s" (Ipv4.to_string (snd fw_link)); "!" ]
          else []
        in
        let ospf =
          [ "router ospf 1";
            s " router-id %s" (Ipv4.to_string core_lo.(c));
            " passive-interface Loopback0" ]
          @ (if c = 0 then [ " redistribute static metric 20 subnets" ] else [])
          @ [ " maximum-paths 4"; "!" ]
        in
        let bgp =
          [ s "router bgp %d" asn;
            s " bgp router-id %s" (Ipv4.to_string core_lo.(c));
            s " bgp cluster-id %s" (Ipv4.to_string core_lo.(c)) ]
          @ List.concat_map
              (fun peer ->
                [ s " neighbor %s remote-as %d" peer asn;
                  s " neighbor %s update-source Loopback0" peer;
                  s " neighbor %s route-reflector-client" peer;
                  s " neighbor %s send-community" peer ])
              ibgp_clients
          @ [ s " neighbor %s remote-as %d" (Ipv4.to_string core_lo.(other)) asn;
              s " neighbor %s update-source Loopback0" (Ipv4.to_string core_lo.(other));
              " maximum-paths ibgp 4"; "!" ]
        in
        ios_device ~name:core_names.(c) [ mgmt; ifaces; statics; ospf; bgp ])
  in
  let dists =
    List.init sites (fun i ->
        let dist_name = s "%s-dist%d" name (i + 1) in
        let l1, l2 = site_links.(i) in
        let sn1, sn2 = site_subnets.(i) in
        let area = i + 1 in
        if i = sites - 1 && sites > 1 then
          (* the Junos site *)
          jun_device ~name:dist_name
            [ jun_iface ~cost:1 ~area:0 ~passive:true "lo0" site_lo.(i) 32;
              jun_iface ~cost:10 ~area:0 "ge-0/0/0" (snd l1) 30;
              jun_iface ~cost:10 ~area:0 "ge-0/0/1" (snd l2) 30;
              jun_iface ~area ~passive:true "ge-0/1/0" sn1 24;
              jun_iface ~area ~passive:true "ge-0/1/1" sn2 24;
              [ s "set routing-options autonomous-system %d" asn;
                s "set routing-options router-id %s" (Ipv4.to_string site_lo.(i));
                "set protocols bgp group ibgp type internal";
                s "set protocols bgp group ibgp neighbor %s" (Ipv4.to_string core_lo.(0));
                s "set protocols bgp group ibgp neighbor %s" (Ipv4.to_string core_lo.(1));
                "set protocols bgp group ibgp export REDIST_CONN";
                s "set policy-options prefix-list SITE_NETS %s"
                  (Prefix.to_string (subnet_of sn1));
                s "set policy-options prefix-list SITE_NETS %s"
                  (Prefix.to_string (subnet_of sn2));
                "set policy-options community SITE_COMM members 65000:100";
                "set policy-options policy-statement REDIST_CONN term conn from protocol direct";
                "set policy-options policy-statement REDIST_CONN term conn from prefix-list SITE_NETS";
                "set policy-options policy-statement REDIST_CONN term conn then community add SITE_COMM";
                "set policy-options policy-statement REDIST_CONN term conn then next-hop self";
                "set policy-options policy-statement REDIST_CONN term conn then accept";
                "set policy-options policy-statement REDIST_CONN term rest then reject" ] ]
        else
          let conn_map =
            [ s "ip prefix-list SITE_NETS seq 5 permit %s" (Prefix.to_string (subnet_of sn1));
              s "ip prefix-list SITE_NETS seq 10 permit %s" (Prefix.to_string (subnet_of sn2));
              "route-map CONN_TO_BGP permit 10";
              " match ip address prefix-list SITE_NETS";
              " set community 65000:100";
              "route-map CONN_TO_BGP deny 20";
              "!" ]
          in
          let ifaces =
            ios_iface ~cost:1 ~area:0 "Loopback0" site_lo.(i) 32
            @ ios_iface ~desc:"to core1" ~cost:10 ~area:0 "Ethernet1" (snd l1) 30
            @ ios_iface ~desc:"to core2" ~cost:10 ~area:0 "Ethernet2" (snd l2) 30
            @ ios_iface ~desc:"users" ~cost:10 ~area "Vlan10" sn1 24
            @ ios_iface ~desc:"voice" ~cost:10 ~area "Vlan20" sn2 24
          in
          let ospf =
            [ "router ospf 1"; s " router-id %s" (Ipv4.to_string site_lo.(i));
              " passive-interface Loopback0"; " passive-interface Vlan10";
              " passive-interface Vlan20"; " maximum-paths 4"; "!" ]
          in
          let bgp =
            [ s "router bgp %d" asn;
              s " bgp router-id %s" (Ipv4.to_string site_lo.(i)) ]
            @ List.concat_map
                (fun core ->
                  [ s " neighbor %s remote-as %d" core asn;
                    s " neighbor %s update-source Loopback0" core;
                    s " neighbor %s send-community" core;
                    s " neighbor %s next-hop-self" core ])
                [ Ipv4.to_string core_lo.(0); Ipv4.to_string core_lo.(1) ]
            @ [ " redistribute connected route-map CONN_TO_BGP"; " maximum-paths ibgp 4"; "!" ]
          in
          ios_device ~name:dist_name [ mgmt; conn_map; ifaces; ospf; bgp ])
  in
  let isp_as = [| 64701; 64702 |] in
  let borders =
    List.init 2 (fun bI ->
        let border_name = s "%s-border%d" name (bI + 1) in
        let l1, l2 = border_links.(bI) in
        let isp_me, isp_peer = isp_links.(bI) in
        let from_isp =
          [ "ip access-list extended FROM_ISP";
            " 10 deny ip 172.16.0.0 0.15.255.255 any";
            " 20 permit tcp any any established";
            " 30 permit icmp any any";
            " 40 permit tcp any 172.31.1.0 0.0.0.255 eq 80";
            " 50 permit tcp any 172.31.1.0 0.0.0.255 eq 443";
            " 60 permit udp any any eq 53";
            " 70 deny ip any any";
            "!";
            "ip access-list extended PRIVATE_SRC";
            " 10 permit ip 172.16.0.0 0.15.255.255 any";
            "!";
            "route-map FROM_ISP_IN permit 10";
            s " set local-preference %d" (if bI = 0 then 120 else 80);
            s " set community 65000:%d additive" (701 + bI);
            "!" ]
        in
        let nat =
          if bI = 0 then
            [ "ip nat pool INET_POOL 198.51.100.1 198.51.100.254 prefix-length 24";
              "ip nat inside source list PRIVATE_SRC pool INET_POOL overload"; "!" ]
          else []
        in
        let ifaces =
          ios_iface ~cost:1 ~area:0 "Loopback0" border_lo.(bI) 32
          @ ios_iface ~desc:"to core1" ~cost:10 ~area:0 "Ethernet1" (snd l1) 30
          @ ios_iface ~desc:"to core2" ~cost:10 ~area:0 "Ethernet2" (snd l2) 30
          @ ios_iface ~desc:"to ISP" ~in_acl:"FROM_ISP" "Ethernet3" isp_me 30
        in
        let ospf =
          [ "router ospf 1"; s " router-id %s" (Ipv4.to_string border_lo.(bI));
            " passive-interface Loopback0"; " maximum-paths 4"; "!" ]
        in
        let bgp =
          [ s "router bgp %d" asn;
            s " bgp router-id %s" (Ipv4.to_string border_lo.(bI));
            s " neighbor %s remote-as %d" (Ipv4.to_string isp_peer) isp_as.(bI);
            s " neighbor %s route-map FROM_ISP_IN in" (Ipv4.to_string isp_peer);
            s " neighbor %s route-map TO_ISP out" (Ipv4.to_string isp_peer) ]
          @ List.concat_map
              (fun core ->
                [ s " neighbor %s remote-as %d" core asn;
                  s " neighbor %s update-source Loopback0" core;
                  s " neighbor %s send-community" core;
                  s " neighbor %s next-hop-self" core ])
              [ Ipv4.to_string core_lo.(0); Ipv4.to_string core_lo.(1) ]
          @ [ " maximum-paths ibgp 4"; "!" ]
        in
        ios_device ~name:border_name [ mgmt; from_isp; policies; nat; ifaces; ospf; bgp ])
  in
  let firewall =
    let ifaces =
      ios_iface ~desc:"to core1" ~zone:"TRUST" "Ethernet1" (snd fw_link) 30
      @ ios_iface ~desc:"dmz" ~zone:"DMZ" "Ethernet2" dmz_gw 24
    in
    let zones =
      [ "zone security TRUST"; "zone security DMZ";
        "zone-pair security source TRUST destination DMZ acl TO_DMZ";
        "zone-pair security source DMZ destination TRUST acl FROM_DMZ";
        "ip access-list extended TO_DMZ";
        " 10 permit tcp any 172.31.1.0 0.0.0.255 eq 80";
        " 20 permit tcp any 172.31.1.0 0.0.0.255 eq 443";
        " 30 permit icmp any any";
        " 40 deny ip any any";
        "ip access-list extended FROM_DMZ";
        " 10 permit tcp any any established";
        " 20 permit udp 172.31.1.0 0.0.0.255 any eq 53";
        " 30 deny ip any any";
        "!" ]
    in
    let statics =
      [ s "ip route 0.0.0.0 0.0.0.0 %s" (Ipv4.to_string (fst fw_link)); "!" ]
    in
    ios_device ~name:(s "%s-fw1" name) [ mgmt; zones; ifaces; statics ]
  in
  let env =
    Dp_env.make
      (List.init 2 (fun bI ->
           let _, isp_peer = isp_links.(bI) in
           Dp_env.peer ~ip:isp_peer ~asn:isp_as.(bI)
             (Dp_env.announce ~path:[ isp_as.(bI) ] (Prefix.of_string "0.0.0.0/0")
             :: List.init 20 (fun _ ->
                    Dp_env.announce ~path:[ isp_as.(bI); 3356 ] (new_ext_prefix a)))))
  in
  { n_name = name; n_type = "enterprise"; n_configs = cores @ dists @ borders @ [ firewall ];
    n_env = env }

(* ======================= WAN ======================= *)

let wan ~name ~pops () =
  let a = alloc () in
  let asn = 65100 in
  let lo = Array.init pops (fun _ -> new_loopback a) in
  let names = Array.init pops (fun i -> s "%s-p%d" name i) in
  (* ring plus chords every 4 hops *)
  let edges = ref [] in
  for i = 0 to pops - 1 do
    edges := (i, (i + 1) mod pops, new_link a) :: !edges
  done;
  if pops > 6 then
    for i = 0 to (pops / 4) - 1 do
      let u = i * 4 and v = ((i * 4) + (pops / 2)) mod pops in
      if u <> v && (u + 1) mod pops <> v && (v + 1) mod pops <> u then
        edges := (u, v, new_link a) :: !edges
    done;
  let edges = List.rev !edges in
  let rr = [ 0; min 1 (pops - 1) ] in
  let customers =
    List.init pops (fun i ->
        if i mod 3 = 0 then Some (new_link a, 64800 + i, [ new_ext_prefix a; new_ext_prefix a ])
        else None)
  in
  let devices =
    List.init pops (fun i ->
        let my_edges =
          List.filter_map
            (fun (u, v, (uip, vip)) ->
              if u = i then Some (v, uip)
              else if v = i then Some (u, vip)
              else None)
            edges
        in
        let ifaces =
          ios_iface ~cost:1 ~area:0 "Loopback0" lo.(i) 32
          @ List.concat
              (List.mapi
                 (fun k (peer, ip) ->
                   ios_iface ~desc:(s "to %s" names.(peer)) ~cost:10 ~area:0
                     (s "Ethernet%d" (k + 1)) ip 30)
                 my_edges)
          @ (match List.nth customers i with
             | Some ((me, _), _, _) ->
               ios_iface ~desc:"customer" (s "Ethernet%d" (List.length my_edges + 1)) me 30
             | None -> [])
        in
        let policy =
          [ "ip community-list standard CUSTOMER permit 65100:200";
            "route-map CUST_IN permit 10";
            " set community 65100:200 additive";
            " set local-preference 110";
            "route-map CUST_OUT permit 10";
            " match community CUSTOMER";
            "route-map CUST_OUT deny 20"; "!" ]
        in
        let ospf =
          [ "router ospf 1"; s " router-id %s" (Ipv4.to_string lo.(i));
            " passive-interface Loopback0"; " maximum-paths 4"; "!" ]
        in
        let ibgp_peers =
          if List.mem i rr then List.filter (fun j -> j <> i) (List.init pops Fun.id)
          else List.filter (fun j -> j <> i) rr
        in
        let bgp =
          [ s "router bgp %d" asn; s " bgp router-id %s" (Ipv4.to_string lo.(i)) ]
          @ (if List.mem i rr then [ s " bgp cluster-id %s" (Ipv4.to_string lo.(i)) ] else [])
          @ List.concat_map
              (fun j ->
                [ s " neighbor %s remote-as %d" (Ipv4.to_string lo.(j)) asn;
                  s " neighbor %s update-source Loopback0" (Ipv4.to_string lo.(j));
                  s " neighbor %s send-community" (Ipv4.to_string lo.(j)) ]
                @ (if List.nth customers i <> None then
                     [ s " neighbor %s next-hop-self" (Ipv4.to_string lo.(j)) ]
                   else [])
                @
                if List.mem i rr && not (List.mem j rr) then
                  [ s " neighbor %s route-reflector-client" (Ipv4.to_string lo.(j)) ]
                else [])
              ibgp_peers
          @ (match List.nth customers i with
             | Some ((_, cust_ip), cust_as, _) ->
               [ s " neighbor %s remote-as %d" (Ipv4.to_string cust_ip) cust_as;
                 s " neighbor %s route-map CUST_IN in" (Ipv4.to_string cust_ip);
                 s " neighbor %s route-map CUST_OUT out" (Ipv4.to_string cust_ip) ]
             | None -> [])
          @ [ " maximum-paths ibgp 4"; "!" ]
        in
        ios_device ~name:names.(i) [ mgmt; policy; ifaces; ospf; bgp ])
  in
  let env =
    Dp_env.make
      (List.filter_map
         (fun c ->
           match c with
           | Some ((_, cust_ip), cust_as, prefixes ) ->
             Some
               (Dp_env.peer ~ip:cust_ip ~asn:cust_as
                  (List.map (fun p -> Dp_env.announce ~path:[ cust_as ] p) prefixes))
           | None -> None)
         customers)
  in
  { n_name = name; n_type = "WAN"; n_configs = devices; n_env = env }

(* ======================= campus ======================= *)

let campus ~name ~buildings () =
  let a = alloc () in
  let core_lo = [| new_loopback a; new_loopback a |] in
  let core_names = [| s "%s-core1" name; s "%s-core2" name |] in
  let core_link = new_link a in
  let bldg_links = Array.init buildings (fun _ -> (new_link a, new_link a)) in
  let bldg_subnets = Array.init buildings (fun _ -> (new_subnet a, new_subnet a)) in
  let server_net = Ipv4.of_octets 172 30 0 0 in
  let cores =
    List.init 2 (fun c ->
        let ifaces =
          ios_iface ~cost:1 ~area:0 "Loopback0" core_lo.(c) 32
          @ ios_iface ~desc:"core interlink" ~cost:5 ~area:0 "Ethernet1"
              ((if c = 0 then fst else snd) core_link) 30
          @ List.concat
              (List.init buildings (fun i ->
                   let l1, l2 = bldg_links.(i) in
                   (* core side is in the building's area: cores are ABRs *)
                   ios_iface ~desc:(s "to building %d" (i + 1)) ~cost:10 ~area:(i + 1)
                     (s "Ethernet%d" (i + 2))
                     (fst (if c = 0 then l1 else l2))
                     30))
          @ (if c = 0 then
               ios_iface ~desc:"server farm" ~cost:10 ~area:0 "Vlan30" (server_net + 1) 24
             else [])
        in
        let ospf =
          [ "router ospf 1"; s " router-id %s" (Ipv4.to_string core_lo.(c));
            " passive-interface Loopback0";
            " redistribute static metric 10 metric-type 1 subnets";
            " maximum-paths 4"; "!" ]
        in
        let statics =
          if c = 0 then
            [ s "ip route 172.30.9.0 255.255.255.0 %s" (Ipv4.to_string (server_net + 10)); "!" ]
          else []
        in
        ios_device ~name:core_names.(c) [ mgmt; ifaces; statics; ospf ])
  in
  let bldgs =
    List.init buildings (fun i ->
        let bname = s "%s-b%d" name (i + 1) in
        let l1, l2 = bldg_links.(i) in
        let sn1, sn2 = bldg_subnets.(i) in
        let area = i + 1 in
        if i mod 4 = 3 then
          jun_device ~name:bname
            [ jun_iface ~cost:10 ~area "ge-0/0/0" (snd l1) 30;
              jun_iface ~cost:10 ~area "ge-0/0/1" (snd l2) 30;
              jun_iface ~area ~passive:true "ge-0/1/0" sn1 24;
              jun_iface ~area ~passive:true "ge-0/1/1" sn2 24 ]
        else
          let ifaces =
            ios_iface ~desc:"to core1" ~cost:10 ~area "Ethernet1" (snd l1) 30
            @ ios_iface ~desc:"to core2" ~cost:10 ~area "Ethernet2" (snd l2) 30
            @ ios_iface ~desc:"users" ~cost:10 ~area "Vlan10" sn1 24
            @ ios_iface ~desc:"printers" ~cost:10 ~area "Vlan20" sn2 24
          in
          let ospf =
            [ "router ospf 1"; " passive-interface Vlan10"; " passive-interface Vlan20";
              " maximum-paths 4"; "!" ]
          in
          ios_device ~name:bname [ mgmt; ifaces; ospf ])
  in
  { n_name = name; n_type = "campus"; n_configs = cores @ bldgs; n_env = Dp_env.empty }

(* ======================= paired DCs ======================= *)

let paired_dc ~name ~spines ~leaves () =
  let a = alloc () in
  let mk prefix spine_as leaf_as_base =
    clos_core ~a ~prefix ~spines ~leaves ~spine_as
      ~leaf_as:(fun l -> leaf_as_base + l)
      ()
  in
  let dev_a, spines_a, _ = mk (name ^ "-a") 64512 65001 in
  let dev_b, spines_b, _ = mk (name ^ "-b") 64612 65101 in
  (* border per DC, linked to its spines and to the other border *)
  let border_names = [| name ^ "-bra"; name ^ "-brb" |] in
  let border_as = [| 65401; 65402 |] in
  let inter_link = new_link a in
  let border spine_names spine_as bI =
    let links = List.map (fun _ -> new_link a) spine_names in
    let ifaces =
      List.concat
        (List.mapi
           (fun k (bip, _) ->
             ios_iface ~desc:(s "to %s" (List.nth spine_names k)) (s "Ethernet%d" (k + 1)) bip 30)
           links)
      @ ios_iface ~desc:"inter-dc"
          (s "Ethernet%d" (List.length links + 1))
          ((if bI = 0 then fst else snd) inter_link)
          30
    in
    let bgp =
      [ s "router bgp %d" border_as.(bI) ]
      @ List.concat
          (List.map
             (fun (_, sip) -> [ s " neighbor %s remote-as %d" (Ipv4.to_string sip) spine_as ])
             links)
      @ [ s " neighbor %s remote-as %d"
            (Ipv4.to_string ((if bI = 0 then snd else fst) inter_link))
            border_as.(1 - bI);
          " maximum-paths 16"; "!" ]
    in
    (* spine side of the border links, appended to spine configs *)
    let spine_extra =
      List.mapi
        (fun k (bip, sip) ->
          (List.nth spine_names k,
           String.concat "\n"
             (ios_iface ~desc:(s "to %s" border_names.(bI)) (s "Border%d" (bI + 1)) sip 30
             @ [ s "router bgp %d" spine_as;
                 s " neighbor %s remote-as %d" (Ipv4.to_string bip) border_as.(bI); "!" ])))
        links
    in
    (ios_device ~name:border_names.(bI) [ mgmt; ifaces; bgp ], spine_extra)
  in
  let bra, extra_a = border spines_a 64512 0 in
  let brb, extra_b = border spines_b 64612 1 in
  let patch devices extras =
    List.map
      (fun (fname, text) ->
        let dev = Filename.remove_extension fname in
        match List.assoc_opt dev extras with
        | Some extra -> (fname, text ^ "\n" ^ extra ^ "\n")
        | None -> (fname, text))
      devices
  in
  { n_name = name; n_type = "paired DCs";
    n_configs = patch dev_a extra_a @ patch dev_b extra_b @ [ bra; brb ];
    n_env = Dp_env.empty }

(* ======================= HA ToR fabric ======================= *)

(* A fat leaf tier built from redundancy groups (VRRP/MLAG-style): every
   slot is one active ToR — it terminates the slot's [ports] access
   subnets and is emitted first, so deterministic first-owner gateway
   resolution makes it the forwarder — plus [members - 1] hot standbys
   whose configs are stamped from the same template, sharing the slot's
   uplink addressing (same IP on the shared per-(slot, spine) subnet).
   Standbys are therefore *behaviorally identical*; the active's [ports]
   identically-configured access interfaces (the 48-port ToR picture) are
   interchangeable sources that all-pairs collapses to one pass per device
   via {!Fquery.start_groups}.
   Static routing end to end: spines route each access subnet at the
   shared uplink IP, ToRs default to every spine. *)
let clos_ha ?(ports = 1) ~name ~spines ~slots ~members () =
  let spine_names = List.init spines (fun i -> s "%s-spine%d" name (i + 1)) in
  (* /29 uplink subnet per (slot, spine): spine at .1, every member at .2 *)
  let up_base l sp = Ipv4.of_octets 10 64 0 0 + (((l * spines) + sp) * 8) in
  let host_gw l p = Ipv4.of_octets 172 16 0 0 + (((l * ports) + p) * 256) + 1 in
  let spine_devices =
    List.mapi
      (fun sp sname ->
        let ifaces =
          List.concat
            (List.init slots (fun l ->
                 ios_iface ~desc:(s "to slot%d" (l + 1))
                   (s "Ethernet%d" (l + 1))
                   (up_base l sp + 1) 29))
        in
        let routes =
          List.concat
            (List.init slots (fun l ->
                 List.init ports (fun p ->
                     s "ip route %s 255.255.255.0 %s"
                       (Ipv4.to_string (Prefix.network (subnet_of (host_gw l p))))
                       (Ipv4.to_string (up_base l sp + 2)))))
          @ [ "!" ]
        in
        ios_device ~arista:true ~name:sname [ mgmt; ifaces; routes ])
      spine_names
  in
  let tor_devices =
    List.concat
      (List.init slots (fun l ->
           let uplinks =
             List.concat
               (List.init spines (fun sp ->
                    ios_iface
                      ~desc:(s "to %s" (List.nth spine_names sp))
                      (s "Ethernet%d" (sp + 1))
                      (up_base l sp + 2) 29))
           in
           let defaults =
             List.init spines (fun sp ->
                 s "ip route 0.0.0.0 0.0.0.0 %s"
                   (Ipv4.to_string (up_base l sp + 1)))
             @ [ "!" ]
           in
           let access =
             List.concat
               (List.init ports (fun p ->
                    ios_iface ~desc:"host subnet"
                      (s "Vlan%d" (100 + p))
                      (host_gw l p) 24))
           in
           List.init members (fun m ->
               let dname = s "%s-slot%d-tor%d" name (l + 1) (m + 1) in
               (* only the active terminates the access segments (host-
                  facing ports must be neighbor-free to count as edge
                  interfaces); the standbys are identical to each other *)
               let host = if m = 0 then access else [] in
               ios_device ~name:dname [ mgmt; host @ uplinks; defaults ])))
  in
  { n_name = name; n_type = "DC (HA ToR groups)";
    n_configs = spine_devices @ tor_devices; n_env = Dp_env.empty }

(* ======================= Figure 1b ======================= *)

let fig1b () =
  let border n my_ip peer_ip ext_ip ext_peer =
    ( s "%s.cfg" n,
      String.concat "\n"
        [ s "hostname %s" n;
          "interface ibgp"; s " ip address %s 255.255.255.252" my_ip;
          "interface ext"; s " ip address %s 255.255.255.252" ext_ip;
          "route-map FROM_IBGP permit 10";
          " set local-preference 200";
          "router bgp 65000";
          s " bgp router-id %s" my_ip;
          s " neighbor %s remote-as 65000" peer_ip;
          s " neighbor %s route-map FROM_IBGP in" peer_ip;
          s " neighbor %s remote-as 65010" ext_peer;
          "" ] )
  in
  let env =
    Dp_env.make
      [ Dp_env.peer ~ip:(Ipv4.of_string "203.0.1.1") ~asn:65010
          [ Dp_env.announce (Prefix.of_string "10.0.0.0/8") ];
        Dp_env.peer ~ip:(Ipv4.of_string "203.0.2.1") ~asn:65010
          [ Dp_env.announce (Prefix.of_string "10.0.0.0/8") ] ]
  in
  { n_name = "fig1b"; n_type = "pattern";
    n_configs =
      [ border "b1" "10.0.0.1" "10.0.0.2" "203.0.1.2" "203.0.1.1";
        border "b2" "10.0.0.2" "10.0.0.1" "203.0.2.2" "203.0.2.1" ];
    n_env = env }

(* ======================= the 11 profiles ======================= *)

type profile = {
  p_name : string;
  p_type : string;
  p_vendors : string;
  p_protocols : string;
  p_make : float -> network;
}

let sc f v = max 1 (int_of_float (ceil (f *. float_of_int v)))

let profiles =
  [ { p_name = "NET1"; p_type = "enterprise"; p_vendors = "Cisco, Juniper";
      p_protocols = "OSPF, BGP";
      p_make = (fun f -> enterprise ~name:"net1" ~sites:(sc f 4) ()) };
    { p_name = "NET2"; p_type = "campus"; p_vendors = "Cisco, Juniper";
      p_protocols = "OSPF";
      p_make = (fun f -> campus ~name:"net2" ~buildings:(sc f 12) ()) };
    { p_name = "NET3"; p_type = "DC"; p_vendors = "Cisco, Arista";
      p_protocols = "BGP";
      p_make = (fun f -> clos ~name:"net3" ~spines:(sc f 4) ~leaves:(sc f 12) ()) };
    { p_name = "NET4"; p_type = "enterprise"; p_vendors = "Cisco, Juniper";
      p_protocols = "OSPF, BGP";
      p_make = (fun f -> enterprise ~name:"net4" ~sites:(sc f 10) ()) };
    { p_name = "NET5"; p_type = "WAN"; p_vendors = "Cisco";
      p_protocols = "OSPF, BGP";
      p_make = (fun f -> wan ~name:"net5" ~pops:(sc f 16) ()) };
    { p_name = "NET6"; p_type = "DC (3-tier)"; p_vendors = "Cisco, Arista";
      p_protocols = "BGP";
      p_make =
        (fun f ->
          clos3 ~name:"net6" ~pods:(sc f 2) ~pod_spines:2 ~pod_leaves:(sc f 6)
            ~superspines:2 ()) };
    { p_name = "NET7"; p_type = "paired DCs"; p_vendors = "Cisco, Arista";
      p_protocols = "BGP";
      p_make = (fun f -> paired_dc ~name:"net7" ~spines:2 ~leaves:(sc f 8) ()) };
    { p_name = "NET8"; p_type = "enterprise"; p_vendors = "Cisco, Juniper";
      p_protocols = "OSPF, BGP";
      p_make = (fun f -> enterprise ~name:"net8" ~sites:(sc f 24) ()) };
    { p_name = "NET9"; p_type = "WAN"; p_vendors = "Cisco";
      p_protocols = "OSPF, BGP";
      p_make = (fun f -> wan ~name:"net9" ~pops:(sc f 40) ()) };
    { p_name = "NET10"; p_type = "DC"; p_vendors = "Cisco, Arista";
      p_protocols = "BGP";
      p_make = (fun f -> clos ~name:"net10" ~spines:(sc f 6) ~leaves:(sc f 48) ()) };
    { p_name = "NET11"; p_type = "DC (3-tier)"; p_vendors = "Cisco, Arista";
      p_protocols = "BGP";
      p_make =
        (fun f ->
          clos3 ~name:"net11" ~pods:(sc f 4) ~pod_spines:2 ~pod_leaves:(sc f 16)
            ~superspines:(sc f 2) ()) };
    (* Scale-sweep profiles: fat leaf tiers behind a small fixed spine
       count — the shape where interchangeable-source grouping pays most. NET12's leaf tier is 8-way HA ToR groups (one active + seven
       template-stamped standbys per slot, four access ports each, see
       [clos_ha]); it reaches ~500 devices at scale 4 and ~1000 at scale 8.
       NET13 is a 3-tier fabric (fat pods, shared superspines). *)
    { p_name = "NET12"; p_type = "DC (HA ToR groups)"; p_vendors = "Cisco, Arista";
      p_protocols = "static";
      p_make =
        (fun f ->
          clos_ha ~ports:8 ~name:"net12" ~spines:4 ~slots:(sc f 16)
            ~members:8 ()) };
    { p_name = "NET13"; p_type = "DC (3-tier, fat pods)";
      p_vendors = "Cisco, Arista"; p_protocols = "BGP";
      p_make =
        (fun f ->
          clos3 ~name:"net13" ~pods:4 ~pod_spines:2 ~pod_leaves:(sc f 30)
            ~superspines:2 ()) } ]
