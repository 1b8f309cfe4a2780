(* ISSUE 4: the incremental analysis engine. The contract under test is
   bit-identity — [Batfish.update] after an edit must produce exactly the
   RIBs, FIBs, forwarding-graph spec, and query rows that a from-scratch
   analysis of the new file set produces — while the engine counters prove
   that only the dirty dependency components were actually re-simulated. *)

let check = Alcotest.check

let profile name = List.find (fun (p : Netgen.profile) -> p.Netgen.p_name = name) Netgen.profiles

let load ?options (net : Netgen.network) =
  Batfish.init ?options ~env:net.Netgen.n_env (Batfish.Snapshot.of_texts net.Netgen.n_configs)

(* one seeded semantic edit; returns (mutated network, the edited file) *)
let edit ~seed (net : Netgen.network) =
  let rng = Rng.create seed in
  match Chaos.semantic_edit_network ~rng net with
  | None -> Alcotest.fail "semantic edit applied to no file"
  | Some (net', mut) ->
    let name = List.hd mut.Chaos.mut_files in
    (net', (name, List.assoc name net'.Netgen.n_configs))

(* the complete routing state of a data plane, as plain comparable data *)
let routing_state (dp : Dataplane.t) =
  List.map
    (fun n ->
      let r = Dataplane.node dp n in
      (n, Rib.best_routes r.Dataplane.nr_main, Fib.entries r.Dataplane.nr_fib))
    dp.Dataplane.node_order

(* Every wire the data plane holds for the next update equals a full
   re-export of the sender's final best routes. *)
let wires_exact name bf =
  match
    Dataplane.wire_mismatches
      (Batfish.Snapshot.configs (Batfish.snapshot bf))
      (Batfish.dataplane bf)
  with
  | [] -> ()
  | m :: _ as all -> Alcotest.failf "%s: %d wires differ, e.g. %s" name (List.length all) m

let counters_consistent name (dp : Dataplane.t) (rep : Batfish.update_report) =
  if rep.Batfish.up_nodes_changed = [] then begin
    (* cosmetic path: the base data plane (whose own stats say "everything
       simulated") is carried over wholesale *)
    check Alcotest.int (name ^ " nothing simulated") 0 rep.Batfish.up_nodes_simulated;
    check Alcotest.int (name ^ " no dirty component") 0 rep.Batfish.up_dirty_components
  end
  else begin
    let st = dp.Dataplane.stats in
    check Alcotest.int (name ^ " simulated counter") st.Dataplane.st_simulated_nodes
      rep.Batfish.up_nodes_simulated;
    check Alcotest.int (name ^ " reused counter") st.Dataplane.st_reused_nodes
      rep.Batfish.up_nodes_reused;
    check Alcotest.int (name ^ " dirty components") st.Dataplane.st_dirty_components
      rep.Batfish.up_dirty_components;
    check Alcotest.int (name ^ " frontier counter") st.Dataplane.st_frontier_nodes
      rep.Batfish.up_frontier_size;
    (* the frontier is exactly what got re-simulated inside dirty
       components, and early convergence can only happen on the frontier *)
    check Alcotest.int (name ^ " frontier = simulated")
      rep.Batfish.up_nodes_simulated rep.Batfish.up_frontier_size;
    check Alcotest.bool (name ^ " early within frontier") true
      (rep.Batfish.up_nodes_converged_early >= 0
      && rep.Batfish.up_nodes_converged_early <= rep.Batfish.up_frontier_size);
    (* every live node is either re-simulated or reused, never both/neither *)
    let live =
      List.length dp.Dataplane.node_order - List.length dp.Dataplane.quarantined
    in
    check Alcotest.int (name ^ " simulated+reused=live") live
      (st.Dataplane.st_simulated_nodes + st.Dataplane.st_reused_nodes)
  end

(* --- full bit-identity on every generated profile ----------------------- *)

let profile_identity () =
  List.iter
    (fun (p : Netgen.profile) ->
      let name = p.Netgen.p_name in
      let net = p.p_make 0.25 in
      let net', changed_file = edit ~seed:(Hashtbl.hash name) net in
      let bf = load net in
      ignore (Batfish.forwarding bf);
      let bf', rep = Batfish.update ~files:[ changed_file ] bf in
      let scratch = load net' in
      (* RIBs and FIBs *)
      let dp' = Batfish.dataplane bf' in
      let dps = Batfish.dataplane scratch in
      check Alcotest.bool (name ^ " routing state identical") true
        (routing_state dp' = routing_state dps);
      check Alcotest.bool (name ^ " sessions identical") true
        (dp'.Dataplane.sessions = dps.Dataplane.sessions);
      (* forwarding-graph spec and query rows *)
      let q' = Batfish.forwarding bf' and qs = Batfish.forwarding scratch in
      check Alcotest.bool (name ^ " graph spec identical") true
        (Fgraph.to_spec (Fquery.graph q') = Fgraph.to_spec (Fquery.graph qs));
      check Alcotest.bool (name ^ " all-pairs rows identical") true
        (Fquery.all_pairs q' () = Fquery.all_pairs qs ());
      (* the engine only re-simulated the dirty component(s) *)
      counters_consistent name dp' rep;
      if rep.Batfish.up_nodes_changed <> [] then begin
        check Alcotest.bool (name ^ " some component dirty") true
          (rep.Batfish.up_dirty_components >= 1);
        (* the forwarding graph is either rebuilt or provably unchanged —
           and a kept graph keeps its whole memo *)
        if not rep.Batfish.up_forwarding_rebuilt then
          check Alcotest.int (name ^ " kept forwarding keeps memo") 0
            rep.Batfish.up_memo_invalidated;
        (* the route-delta worklist re-simulates something, but never more
           than the members of the components holding a changed node *)
        let dirty_members =
          List.filter
            (fun comp ->
              List.exists (fun n -> List.mem n rep.Batfish.up_nodes_changed) comp)
            dp'.Dataplane.components
          |> List.concat
        in
        check Alcotest.bool
          (name ^ " simulated bounded by changed components") true
          (rep.Batfish.up_nodes_simulated >= 1
          && rep.Batfish.up_nodes_simulated <= List.length dirty_members)
      end)
    Netgen.profiles

(* --- many seeded single-file edits -------------------------------------- *)

let seeded_edits_over nets ~seeds () =
  let identical = ref 0 in
  for seed = 1 to seeds do
    let p = List.nth nets (seed mod List.length nets) in
    let net = p.Netgen.p_make 0.25 in
    let net', changed_file = edit ~seed net in
    let bf = load net in
    let bf', rep = Batfish.update ~files:[ changed_file ] bf in
    let scratch = load net' in
    let dp' = Batfish.dataplane bf' in
    if routing_state dp' <> routing_state (Batfish.dataplane scratch) then
      Alcotest.failf "seed %d (%s): incremental and scratch routing state differ" seed
        p.Netgen.p_name;
    wires_exact (Printf.sprintf "seed %d (%s)" seed p.Netgen.p_name) bf';
    counters_consistent (Printf.sprintf "seed %d" seed) dp' rep;
    incr identical
  done;
  check Alcotest.int
    (Printf.sprintf "%d edits, %d identical" seeds seeds)
    seeds !identical

let seeded_edits =
  seeded_edits_over
    [ profile "NET1"; profile "NET3"; profile "NET5"; profile "NET7" ]
    ~seeds:100

(* NET8 runs iBGP route reflectors over OSPF, so [igp_cost] and multihop
   session viability read the main RIB there; NET11 is the three-tier eBGP
   fabric whose router ids come from loopbacks. *)
let seeded_edits_ibgp_clos =
  seeded_edits_over [ profile "NET8"; profile "NET11" ] ~seeds:50

(* --- multi-component reuse ---------------------------------------------- *)

let component_reuse () =
  (* two address-disjoint estates in one snapshot: an edit inside one must
     leave every node of the other reused, not re-simulated *)
  let estate prefix subnet =
    [ ( prefix ^ "1.cfg",
        String.concat "\n"
          [ "hostname " ^ prefix ^ "1";
            "interface e1"; Printf.sprintf " ip address %s.1.1 255.255.255.252" subnet;
            "interface lan"; Printf.sprintf " ip address %s.10.1 255.255.255.0" subnet;
            Printf.sprintf "ip route %s.20.0 255.255.255.0 %s.1.2" subnet subnet ] );
      ( prefix ^ "2.cfg",
        String.concat "\n"
          [ "hostname " ^ prefix ^ "2";
            "interface e1"; Printf.sprintf " ip address %s.1.2 255.255.255.252" subnet;
            "interface lan"; Printf.sprintf " ip address %s.20.1 255.255.255.0" subnet;
            Printf.sprintf "ip route %s.10.0 255.255.255.0 %s.1.1" subnet subnet ] ) ]
  in
  let a = estate "alpha" "10.1" and b = estate "beta" "192.168" in
  let bf = Batfish.init (Batfish.Snapshot.of_texts (a @ b)) in
  let dp = Batfish.dataplane bf in
  check Alcotest.int "estates are separate components" 2
    (List.length dp.Dataplane.components);
  (* reroute alpha1's static route straight to the LAN next hop *)
  let edited =
    ( "alpha1.cfg",
      String.concat "\n"
        [ "hostname alpha1";
          "interface e1"; " ip address 10.1.1.1 255.255.255.252";
          "interface lan"; " ip address 10.1.10.1 255.255.255.0";
          "ip route 10.1.20.0 255.255.255.0 10.1.1.2";
          "ip route 10.1.30.0 255.255.255.0 10.1.1.2" ] )
  in
  let bf', rep = Batfish.update ~files:[ edited ] bf in
  let dp' = Batfish.dataplane bf' in
  check (Alcotest.list Alcotest.string) "only alpha nodes changed" [ "alpha1" ]
    rep.Batfish.up_nodes_changed;
  (* the delta worklist stops at the edited node: alpha1's new static route
     never leaves it (no redistribution), so alpha2 — though in the same
     dirty component — is warm-started straight from its base RIBs *)
  check Alcotest.int "only the edited node re-simulated" 1
    rep.Batfish.up_nodes_simulated;
  check Alcotest.int "everything else reused" 3 rep.Batfish.up_nodes_reused;
  check Alcotest.int "frontier is the edited node" 1 rep.Batfish.up_frontier_size;
  check Alcotest.int "edited node really changed" 0
    rep.Batfish.up_nodes_converged_early;
  check Alcotest.int "one dirty component of two" 1 rep.Batfish.up_dirty_components;
  check Alcotest.int "two components" 2 rep.Batfish.up_components;
  (* and the merged result still matches scratch *)
  let scratch = Batfish.init (Batfish.Snapshot.of_texts (edited :: List.tl a @ b)) in
  check Alcotest.bool "combined routing state identical" true
    (routing_state dp' = routing_state (Batfish.dataplane scratch))

(* --- cosmetic edits keep everything, memo included ---------------------- *)

let cosmetic_edit () =
  let net = (profile "NET5").p_make 0.25 in
  let bf = load net in
  let q = Batfish.forwarding bf in
  ignore (Fquery.to_delivered q ());
  let _, misses_before = Fquery.memo_stats q in
  check Alcotest.bool "memo primed" true (misses_before > 0);
  let name, text = List.hd net.Netgen.n_configs in
  let bf', rep = Batfish.update ~files:[ (name, text ^ "\n! only a comment") ] bf in
  check Alcotest.int "file changed" 1 rep.Batfish.up_files_changed;
  check Alcotest.int "file reparsed" 1 rep.Batfish.up_files_reparsed;
  check (Alcotest.list Alcotest.string) "no node changed" [] rep.Batfish.up_nodes_changed;
  check Alcotest.int "nothing simulated" 0 rep.Batfish.up_nodes_simulated;
  check Alcotest.bool "forwarding not rebuilt" false rep.Batfish.up_forwarding_rebuilt;
  check Alcotest.int "memo kept" 0 rep.Batfish.up_memo_invalidated;
  (* the exact engine objects carry over: a primed memo answers from cache *)
  let q' = Batfish.forwarding bf' in
  check Alcotest.bool "same engine object" true (q == q');
  ignore (Fquery.to_delivered q' ());
  let hits_after, misses_after = Fquery.memo_stats q' in
  check Alcotest.int "no new miss" misses_before misses_after;
  check Alcotest.bool "memo hit" true (hits_after > 0);
  (* fingerprint-keyed parse reuse: only the edited file was re-read *)
  check Alcotest.int "reparsed one file"
    1 (Batfish.Snapshot.reparsed (Batfish.snapshot bf'))

(* --- route-delta frontier on a hand-built eBGP chain --------------------- *)

(* r1 - r2 - r3 - r4 - r5, one eBGP session per adjacent pair, a /24
   advertised from each end. Every node's fixed point depends on its
   neighbors, so component-granularity reuse can never skip a member — the
   per-node worklist can. *)
let chain_configs ?(r3_extra = []) () =
  let cfg name body = (name ^ ".cfg", String.concat "\n" body) in
  [ cfg "r1"
      [ "hostname r1";
        "interface east"; " ip address 10.0.1.1 255.255.255.252";
        "interface lan"; " ip address 10.10.1.1 255.255.255.0";
        "router bgp 65001";
        " bgp router-id 1.1.1.1";
        " neighbor 10.0.1.2 remote-as 65002";
        " network 10.10.1.0 mask 255.255.255.0" ];
    cfg "r2"
      [ "hostname r2";
        "interface west"; " ip address 10.0.1.2 255.255.255.252";
        "interface east"; " ip address 10.0.2.1 255.255.255.252";
        "router bgp 65002";
        " bgp router-id 2.2.2.2";
        " neighbor 10.0.1.1 remote-as 65001";
        " neighbor 10.0.2.2 remote-as 65003" ];
    cfg "r3"
      ([ "hostname r3";
         "interface west"; " ip address 10.0.2.2 255.255.255.252";
         "interface east"; " ip address 10.0.3.1 255.255.255.252";
         "interface lan"; " ip address 10.30.1.1 255.255.255.0";
         "router bgp 65003";
         " bgp router-id 3.3.3.3";
         " neighbor 10.0.2.1 remote-as 65002";
         " neighbor 10.0.3.2 remote-as 65004" ]
      @ r3_extra);
    cfg "r4"
      [ "hostname r4";
        "interface west"; " ip address 10.0.3.2 255.255.255.252";
        "interface east"; " ip address 10.0.4.1 255.255.255.252";
        "router bgp 65004";
        " bgp router-id 4.4.4.4";
        " neighbor 10.0.3.1 remote-as 65003";
        " neighbor 10.0.4.2 remote-as 65005" ];
    cfg "r5"
      [ "hostname r5";
        "interface west"; " ip address 10.0.4.2 255.255.255.252";
        "interface lan"; " ip address 10.50.1.1 255.255.255.0";
        "router bgp 65005";
        " bgp router-id 5.5.5.5";
        " neighbor 10.0.4.1 remote-as 65004";
        " network 10.50.1.0 mask 255.255.255.0" ] ]

let chain_update ~r3_extra =
  let base = chain_configs () in
  let bf = Batfish.init (Batfish.Snapshot.of_texts base) in
  let dp = Batfish.dataplane bf in
  check Alcotest.int "chain is one component" 1
    (List.length dp.Dataplane.components);
  (* the chain actually propagates: r5 learns r1's /24 across four hops *)
  let r5 = Dataplane.node dp "r5" in
  check Alcotest.bool "r5 learned the far prefix" true
    (List.exists
       (fun (r : Route.t) -> r.Route.net = Prefix.of_string "10.10.1.0/24")
       (Rib.best_routes r5.Dataplane.nr_main));
  let edited = chain_configs ~r3_extra () in
  let bf', rep = Batfish.update ~files:[ List.nth edited 2 ] bf in
  let scratch = Batfish.init (Batfish.Snapshot.of_texts edited) in
  check Alcotest.bool "chain routing state identical" true
    (routing_state (Batfish.dataplane bf')
    = routing_state (Batfish.dataplane scratch));
  rep

let chain_frontier_stops () =
  (* a static route on r3 that is never redistributed into BGP: r3's RIB
     changes, its advertisements don't. The worklist must re-simulate r3
     plus its immediate session partners (whose viability reads r3's config
     and RIB) and stop there — r1 and r5, two hops out, keep their base
     fixed point untouched. *)
  let rep =
    chain_update ~r3_extra:[ "ip route 10.99.0.0 255.255.0.0 10.30.1.2" ]
  in
  check (Alcotest.list Alcotest.string) "only r3 changed" [ "r3" ]
    rep.Batfish.up_nodes_changed;
  check Alcotest.int "frontier stops one hop out" 3 rep.Batfish.up_frontier_size;
  check Alcotest.int "ends of the chain reused" 2 rep.Batfish.up_nodes_reused;
  (* r3's own state changed; both partners re-converged to the base *)
  check Alcotest.int "partners converged early" 2
    rep.Batfish.up_nodes_converged_early

let noop_advert_edit () =
  (* semantics-free model change: an unreferenced ACL reordered in place.
     The VI model differs (so r3 counts as changed and is re-simulated) but
     no RIB, advertisement, or session can move — the whole frontier must
     converge early and nothing downstream re-runs. *)
  let base_acl =
    [ "ip access-list extended UNUSED";
      " 10 permit ip 10.1.0.0 0.0.255.255 any";
      " 20 permit ip 10.2.0.0 0.0.255.255 any" ]
  in
  let reordered =
    [ "ip access-list extended UNUSED";
      " 10 permit ip 10.2.0.0 0.0.255.255 any";
      " 20 permit ip 10.1.0.0 0.0.255.255 any" ]
  in
  let base = chain_configs ~r3_extra:base_acl () in
  let bf = Batfish.init (Batfish.Snapshot.of_texts base) in
  ignore (Batfish.dataplane bf);
  let edited = chain_configs ~r3_extra:reordered () in
  let bf', rep = Batfish.update ~files:[ List.nth edited 2 ] bf in
  check (Alcotest.list Alcotest.string) "only r3 changed" [ "r3" ]
    rep.Batfish.up_nodes_changed;
  check Alcotest.int "frontier is r3 plus partners" 3 rep.Batfish.up_frontier_size;
  check Alcotest.int "zero downstream re-simulation" 2 rep.Batfish.up_nodes_reused;
  check Alcotest.int "entire frontier converged early" rep.Batfish.up_frontier_size
    rep.Batfish.up_nodes_converged_early;
  let scratch = Batfish.init (Batfish.Snapshot.of_texts edited) in
  check Alcotest.bool "no-op edit routing state identical" true
    (routing_state (Batfish.dataplane bf')
    = routing_state (Batfish.dataplane scratch))

(* --- dispositions: hop-limit exhaustion vs a genuine loop ---------------- *)

let hop_limit_vs_loop () =
  let parse ls = fst (Parse.parse_config (String.concat "\n" ls)) in
  (* a genuine routing loop: the same (node, packet) state repeats *)
  let looped =
    [ parse
        [ "hostname a"; "interface e1"; " ip address 10.0.1.1 255.255.255.252";
          "ip route 10.9.0.0 255.255.0.0 10.0.1.2" ];
      parse
        [ "hostname b"; "interface e1"; " ip address 10.0.1.2 255.255.255.252";
          "ip route 10.9.0.0 255.255.0.0 10.0.1.1" ] ]
  in
  let dp = Dataplane.compute looped in
  let find name = List.find_opt (fun (c : Vi.t) -> c.Vi.hostname = name) looped in
  let pkt = Packet.tcp ~src:(Ipv4.of_string "10.0.1.1") ~dst:(Ipv4.of_string "10.9.0.1") 80 in
  let traces = Traceroute.run ~configs:find ~dp ~start:"a" pkt in
  check Alcotest.bool "repeating state reported as LOOP" true
    (List.exists
       (fun tr ->
         match tr.Traceroute.disposition with Traceroute.Loop _ -> true | _ -> false)
       traces);
  (* the same loop under a tiny hop budget is a hop-limit exhaustion of a
     path whose states never repeat exactly... build a long linear chain and
     walk it with max_hops smaller than its length *)
  let chain_node i =
    parse
      ([ Printf.sprintf "hostname c%d" i;
         "interface w"; Printf.sprintf " ip address 10.1.%d.2 255.255.255.252" (i - 1);
         "interface e"; Printf.sprintf " ip address 10.1.%d.1 255.255.255.252" i ]
      @
      if i < 6 then
        [ Printf.sprintf "ip route 10.99.0.0 255.255.0.0 10.1.%d.2" i ]
      else [ "interface lan"; " ip address 10.99.0.1 255.255.0.0" ])
  in
  let chain = List.init 6 (fun i -> chain_node (i + 1)) in
  let dp2 = Dataplane.compute chain in
  let find2 name = List.find_opt (fun (c : Vi.t) -> c.Vi.hostname = name) chain in
  let pkt2 = Packet.tcp ~src:(Ipv4.of_string "10.1.0.1") ~dst:(Ipv4.of_string "10.99.0.9") 80 in
  let full = Traceroute.run ~configs:find2 ~dp:dp2 ~start:"c1" pkt2 in
  check Alcotest.bool "full budget delivers" true
    (List.exists (fun tr -> Traceroute.is_delivered tr.Traceroute.disposition) full);
  let cut = Traceroute.run ~configs:find2 ~dp:dp2 ~max_hops:3 ~start:"c1" pkt2 in
  check Alcotest.bool "tiny budget reports HOP_LIMIT_EXCEEDED, not LOOP" true
    (List.exists
       (fun tr ->
         match tr.Traceroute.disposition with
         | Traceroute.Hop_limit_exceeded _ -> true
         | _ -> false)
       cut);
  check Alcotest.bool "tiny budget is not a LOOP" true
    (List.for_all
       (fun tr ->
         match tr.Traceroute.disposition with Traceroute.Loop _ -> false | _ -> true)
       cut);
  check Alcotest.bool "hop-limit not delivered" true
    (not (Traceroute.is_delivered (Traceroute.Hop_limit_exceeded "c4")))

(* --- NAT topologies: both engines agree on the final packet -------------- *)

let nat_differential () =
  (* the §4.3.2 harness now also checks, flow by flow, that the traceroute
     final packet (post-NAT) lies inside the symbolic delivered image and
     that every trace's final packet is its last hop's packet; run it over
     seeded semantic edits of the NAT-bearing profiles *)
  List.iter
    (fun (name, seed) ->
      let p = profile name in
      let net, _ = edit ~seed (p.Netgen.p_make 0.25) in
      let bf = load net in
      let flows = Batfish.differential_engine_test bf in
      check Alcotest.bool (name ^ " flows checked") true (flows > 0))
    [ ("NET1", 7); ("NET7", 11) ]

(* --- quiet visits: change sets like the edit-stream benchmark's ---------- *)

let tier name =
  let has sub = Re.execp (Re.compile (Re.str sub)) name in
  if has "-ss" then "ss" else if has "spine" then "spine" else "leaf"

(* One change set: each (kind, tier) edit lands on a distinct device of that
   tier ("any" for no constraint), chosen and detailed by [rng]. Returns the
   edited files, to apply over [files]. *)
let change_set ~rng files slots =
  let files = Array.of_list files in
  let chosen = Hashtbl.create 4 in
  List.map
    (fun (kind, want) ->
      let rec pick () =
        let j = Rng.int rng (Array.length files) in
        let name, text = files.(j) in
        if Hashtbl.mem chosen j || (want <> "any" && tier name <> want) then pick ()
        else
          match Chaos.semantic_edit ~rng ~kind text with
          | Some (text', _) ->
            Hashtbl.add chosen j ();
            (name, text')
          | None -> pick ()
      in
      pick ())
    slots

let apply_files files edited =
  List.map
    (fun (name, text) -> (name, Option.value (List.assoc_opt name edited) ~default:text))
    files

(* [bf'] must answer exactly like a scratch analysis of [files]. *)
let same_as_scratch name ~env bf' files =
  let scratch = Batfish.init ~env (Batfish.Snapshot.of_texts files) in
  let dp' = Batfish.dataplane bf' and dps = Batfish.dataplane scratch in
  check Alcotest.bool (name ^ " routing state identical") true
    (routing_state dp' = routing_state dps);
  check Alcotest.bool (name ^ " sessions identical") true
    (dp'.Dataplane.sessions = dps.Dataplane.sessions);
  let q' = Batfish.forwarding bf' and qs = Batfish.forwarding scratch in
  check Alcotest.bool (name ^ " graph spec identical") true
    (Fgraph.to_spec (Fquery.graph q') = Fgraph.to_spec (Fquery.graph qs));
  check Alcotest.bool (name ^ " all-pairs rows identical") true
    (Fquery.all_pairs q' () = Fquery.all_pairs qs ())

let net11_change_sets () =
  let net = (profile "NET11").p_make 0.5 in
  let env = net.Netgen.n_env and base_files = net.Netgen.n_configs in
  let bf = load net in
  ignore (Batfish.forwarding bf);
  let sets =
    [ ("ss loopback + leaf acl", [ ("add-loopback", "ss"); ("add-acl-line", "leaf"); ("comment-edit", "any") ]);
      ("ss loopback + leaf loopback", [ ("add-loopback", "ss"); ("add-loopback", "leaf"); ("comment-edit", "any") ]);
      ("ss shutdown", [ ("toggle-shutdown", "ss") ]);
      ("leaf session dropped", [ ("drop-bgp-neighbor", "leaf") ]) ]
  in
  List.iteri
    (fun k (name, slots) ->
      let rng = Rng.create (k + 1) in
      let edited = change_set ~rng base_files slots in
      let files = apply_files base_files edited in
      let bf', rep = Batfish.update ~files:edited bf in
      same_as_scratch name ~env bf' files;
      wires_exact name bf';
      counters_consistent name (Batfish.dataplane bf') rep;
      (* a warm result is the next update's base: chain a second set *)
      let slots2 = List.nth sets ((k + 1) mod List.length sets) |> snd in
      let edited2 = change_set ~rng files slots2 in
      let bf'', rep2 = Batfish.update ~files:edited2 bf' in
      same_as_scratch (name ^ ", then another set") ~env bf'' (apply_files files edited2);
      wires_exact (name ^ ", then another set") bf'';
      counters_consistent (name ^ ", then another set") (Batfish.dataplane bf'') rep2)
    sets

(* A superspine loopback becomes its router id (clos3 superspines set no
   [bgp router-id]), so every route it sends changes and the whole fabric is
   woken; most visits find their BGP inputs unchanged and skip the
   re-derivation, so there are fewer derivation passes than two per visited
   node (a re-derivation takes at least two). *)
let quiet_visits_engage () =
  let net = (profile "NET11").p_make 0.5 in
  let bf = load net in
  ignore (Batfish.dataplane bf);
  let edited =
    change_set ~rng:(Rng.create 1) net.Netgen.n_configs
      [ ("add-loopback", "ss"); ("add-acl-line", "leaf"); ("comment-edit", "any") ]
  in
  let bf', rep = Batfish.update ~files:edited bf in
  let dp' = Batfish.dataplane bf' in
  check Alcotest.int "one component" 1 (List.length dp'.Dataplane.components);
  check Alcotest.int "the whole fabric is visited"
    (List.length dp'.Dataplane.node_order) rep.Batfish.up_frontier_size;
  check Alcotest.bool "fewer passes than two per visited node" true
    (dp'.Dataplane.rounds < 2 * rep.Batfish.up_frontier_size);
  check Alcotest.bool "some visits converged early" true
    (rep.Batfish.up_nodes_converged_early > 0)

(* The superspine's new router id reaches every route it sends, so every
   pod spine's best sets move — but only in the learned-from router id,
   which export overwrites. Re-exporting only the nets whose best sets moved
   as export sees them leaves the spines' wires alone: the update exports
   the changed superspine's wires once, well under a tenth of one full
   re-export of every wire. *)
let per_net_reexport_engages () =
  let net = (profile "NET11").p_make 0.5 in
  let bf = load net in
  let dp = Batfish.dataplane bf in
  let edited =
    change_set ~rng:(Rng.create 1) net.Netgen.n_configs [ ("add-loopback", "ss") ]
  in
  let bf', rep = Batfish.update ~files:edited bf in
  let dp' = Batfish.dataplane bf' in
  check Alcotest.int "the whole fabric is visited"
    (List.length dp'.Dataplane.node_order) rep.Batfish.up_frontier_size;
  let full_reexport =
    List.fold_left
      (fun acc sr ->
        match sr.Dataplane.sr_remote_node with
        | Some sender when sr.Dataplane.sr_established ->
          acc + Rib.best_count (Dataplane.node dp sender).Dataplane.nr_bgp
        | Some _ | None -> acc)
      0 dp.Dataplane.sessions
  in
  let exported = dp'.Dataplane.stats.Dataplane.st_exported_routes in
  if not (exported > 0 && 10 * exported < full_reexport) then
    Alcotest.failf "exported %d routes; one full re-export is %d" exported full_reexport;
  check Alcotest.bool "routes imported" true
    (dp'.Dataplane.stats.Dataplane.st_imported_routes > 0);
  wires_exact "superspine loopback" bf'

(* When a border router's id changes, the route reflectors' best sets move
   only in the learned-from router id of the external routes it sends them,
   yet the routes they reflect carry that id as their originator: export
   reads the router id of iBGP-learned routes, so those nets must still be
   re-exported. *)
let reflected_router_id_change () =
  let net = (profile "NET8").p_make 0.25 in
  let env = net.Netgen.n_env and files = net.Netgen.n_configs in
  let bf = load net in
  ignore (Batfish.dataplane bf);
  let name, text =
    List.find (fun (name, _) -> Re.execp (Re.compile (Re.str "border1.")) name) files
  in
  let text' =
    Re.replace_string
      (Re.compile (Re.seq [ Re.str "bgp router-id "; Re.rep1 (Re.compl [ Re.char '\n' ]) ]))
      ~by:"bgp router-id 10.255.9.27" text
  in
  check Alcotest.bool "router id edited" true (text' <> text);
  let bf', rep = Batfish.update ~files:[ (name, text') ] bf in
  check Alcotest.bool "warm path taken" true (rep.Batfish.up_nodes_converged_early > 0);
  same_as_scratch "border router id" ~env bf' (apply_files files [ (name, text') ]);
  wires_exact "border router id" bf'

(* An ACL line changes nothing export reads: the edited leaf's export view
   equals its base's, its best sets do not move, and so no route is
   re-exported at all. *)
let unchanged_export_view_exports_nothing () =
  let net = (profile "NET11").p_make 0.5 in
  let bf = load net in
  ignore (Batfish.dataplane bf);
  let edited =
    change_set ~rng:(Rng.create 3) net.Netgen.n_configs [ ("add-acl-line", "leaf") ]
  in
  let bf', rep = Batfish.update ~files:edited bf in
  check Alcotest.int "one node changed" 1 (List.length rep.Batfish.up_nodes_changed);
  check Alcotest.int "routes exported" 0
    (Batfish.dataplane bf').Dataplane.stats.Dataplane.st_exported_routes;
  same_as_scratch "leaf ACL line" ~env:net.Netgen.n_env bf'
    (apply_files net.Netgen.n_configs edited);
  wires_exact "leaf ACL line" bf'

(* A route-map edit is part of the export view even when the BGP process
   and the node's best sets are unchanged: a NET8 border router sends the
   core its routes through an outbound route map, and the edit flips the
   map's final deny to permit. The border router's wires must be
   re-exported under the new map. *)
let route_map_edit_reexports () =
  let net = (profile "NET8").p_make 0.25 in
  let env = net.Netgen.n_env in
  let name, text =
    List.find (fun (name, _) -> Re.execp (Re.compile (Re.str "border1.")) name) net.n_configs
  in
  (* every iBGP session of the border router goes out through TO_ISP *)
  let with_out_map =
    Re.replace
      (Re.compile
         (Re.seq [ Re.bol; Re.group (Re.seq [ Re.str " neighbor "; Re.rep1 (Re.compl [ Re.space ]) ]);
                   Re.str " update-source Loopback0" ]))
      ~f:(fun g -> Re.Group.get g 0 ^ "\n" ^ Re.Group.get g 1 ^ " route-map TO_ISP out")
      text
  in
  check Alcotest.bool "outbound map added" true (with_out_map <> text);
  let files = apply_files net.n_configs [ (name, with_out_map) ] in
  let bf = Batfish.init ~env (Batfish.Snapshot.of_texts files) in
  ignore (Batfish.dataplane bf);
  let text' =
    Re.replace_string (Re.compile (Re.str "route-map TO_ISP deny 20"))
      ~by:"route-map TO_ISP permit 20" with_out_map
  in
  check Alcotest.bool "route map edited" true (text' <> with_out_map);
  let bf', rep = Batfish.update ~files:[ (name, text') ] bf in
  check Alcotest.bool "warm path taken" true (rep.Batfish.up_nodes_converged_early > 0);
  same_as_scratch "border route map" ~env bf' (apply_files files [ (name, text') ]);
  wires_exact "border route map" bf'

(* --- forwarding graphs of one lineage share extra-bit varsets ----------- *)

let varsets_shared_across_updates () =
  let net = (profile "NET8").p_make 0.25 in
  let bf = ref (load net) in
  (* answering a query applies the graph's zone edges, whose
     [Set_extra]/[Erase_extra] quantifications take the varsets *)
  let man () =
    let q = Batfish.forwarding !bf in
    ignore (Fquery.all_pairs q ());
    Pktset.man (Fquery.env q)
  in
  let files = ref net.Netgen.n_configs in
  let before = Bdd.aux_count (man ()) in
  let rng = Rng.create 5 in
  (* single-loopback updates until five of them rebuilt the graph (a
     loopback no route carries leaves the forwarding state alone) *)
  let rec go rebuilt counts budget =
    if rebuilt = 5 then List.rev counts
    else if budget = 0 then Alcotest.fail "too few loopback edits rebuilt the graph"
    else begin
      let edited = change_set ~rng !files [ ("add-loopback", "any") ] in
      files := apply_files !files edited;
      let bf', rep = Batfish.update ~files:edited !bf in
      bf := bf';
      if rep.Batfish.up_forwarding_rebuilt then
        go (rebuilt + 1) (Bdd.aux_count (man ()) :: counts) (budget - 1)
      else go rebuilt counts (budget - 1)
    end
  in
  let counts = go 0 [] 40 in
  check (Alcotest.list Alcotest.int) "no varset/perm id minted per graph"
    (List.map (fun _ -> before) counts)
    counts

let suites =
  [ ( "incremental",
      [ Alcotest.test_case "per-profile bit-identity" `Quick profile_identity;
        Alcotest.test_case "100 seeded edits identical" `Slow seeded_edits;
        Alcotest.test_case "NET8/NET11 seeded edits identical" `Slow
          seeded_edits_ibgp_clos;
        Alcotest.test_case "NET11 change sets, chained" `Quick net11_change_sets;
        Alcotest.test_case "quiet visits engage" `Quick quiet_visits_engage;
        Alcotest.test_case "per-net re-export engages" `Quick per_net_reexport_engages;
        Alcotest.test_case "reflected router-id change" `Quick reflected_router_id_change;
        Alcotest.test_case "unchanged export view exports nothing" `Quick
          unchanged_export_view_exports_nothing;
        Alcotest.test_case "route-map edit re-exports" `Quick route_map_edit_reexports;
        Alcotest.test_case "update graphs share varsets" `Quick
          varsets_shared_across_updates;
        Alcotest.test_case "multi-component reuse" `Quick component_reuse;
        Alcotest.test_case "chain frontier stops" `Quick chain_frontier_stops;
        Alcotest.test_case "no-op advert edit" `Quick noop_advert_edit;
        Alcotest.test_case "cosmetic edit keeps memo" `Quick cosmetic_edit;
        Alcotest.test_case "hop limit vs loop" `Quick hop_limit_vs_loop;
        Alcotest.test_case "NAT differential harness" `Quick nat_differential ] ) ]
