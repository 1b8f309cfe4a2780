(* Baseline engines: the Datalog engine + control-plane model, the
   difference-of-cubes (HSA) engine, and Atomic Predicates — each
   cross-checked against the production engines. *)

let check = Alcotest.check

let qtest ?(count = 100) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

(* --- Datalog engine --- *)

let datalog_tc () =
  let db = Datalog.create () in
  let e = Datalog.sym db in
  Datalog.fact db "edge" [| e "a"; e "b" |];
  Datalog.fact db "edge" [| e "b"; e "c" |];
  Datalog.fact db "edge" [| e "c"; e "d" |];
  Datalog.rule db ~head:("path", [| Datalog.V 0; Datalog.V 1 |])
    ~body:[ ("edge", [| Datalog.V 0; Datalog.V 1 |]) ] ();
  Datalog.rule db ~head:("path", [| Datalog.V 0; Datalog.V 2 |])
    ~body:[ ("path", [| Datalog.V 0; Datalog.V 1 |]); ("edge", [| Datalog.V 1; Datalog.V 2 |]) ]
    ();
  Datalog.solve db;
  check Alcotest.int "transitive closure size" 6 (Datalog.relation_size db "path");
  check Alcotest.bool "a reaches d" true
    (List.exists (fun t -> t.(0) = e "a" && t.(1) = e "d") (Datalog.tuples db "path"))

let datalog_guards_computes () =
  let db = Datalog.create () in
  Datalog.fact db "n" [| 3 |];
  Datalog.fact db "n" [| 7 |];
  Datalog.fact db "n" [| 12 |];
  Datalog.rule db ~head:("double", [| Datalog.V 0; Datalog.V 1 |])
    ~body:[ ("n", [| Datalog.V 0 |]) ]
    ~guards:[ (fun b -> b.(0) < 10) ]
    ~computes:[ (1, fun b -> b.(0) * 2) ]
    ();
  Datalog.solve db;
  let doubles = List.sort compare (List.map (fun t -> (t.(0), t.(1))) (Datalog.tuples db "double")) in
  check Alcotest.(list (pair int int)) "guard+compute" [ (3, 6); (7, 14) ] doubles

let datalog_agg () =
  let db = Datalog.create () in
  Datalog.fact db "cost" [| 1; 10 |];
  Datalog.fact db "cost" [| 1; 4 |];
  Datalog.fact db "cost" [| 2; 7 |];
  Datalog.agg_min db ~head:("best", [| Datalog.V 0; Datalog.V 1 |])
    ~source:("cost", [| Datalog.V 0; Datalog.V 1 |])
    ~value:1;
  Datalog.solve db;
  let best = List.sort compare (List.map (fun t -> (t.(0), t.(1))) (Datalog.tuples db "best")) in
  check Alcotest.(list (pair int int)) "min per group" [ (1, 4); (2, 7) ] best

let datalog_strata () =
  let db = Datalog.create () in
  Datalog.fact db "x" [| 5 |];
  Datalog.rule db ~head:("y", [| Datalog.V 0 |]) ~body:[ ("x", [| Datalog.V 0 |]) ] ();
  Datalog.stratum db;
  (* the second stratum sees y's fixpoint *)
  Datalog.rule db ~head:("z", [| Datalog.V 0 |]) ~body:[ ("y", [| Datalog.V 0 |]) ] ();
  Datalog.solve db;
  check Alcotest.int "z derived across strata" 1 (Datalog.relation_size db "z")

(* --- Datalog control-plane model vs the imperative engine --- *)

let imp_coverage dp =
  List.sort_uniq compare
    (List.concat_map
       (fun n ->
         let nr = Dataplane.node dp n in
         Rib.fold_best
           (fun p best acc -> if best <> [] then (n, p) :: acc else acc)
           nr.Dataplane.nr_main [])
       dp.Dataplane.node_order)

let datalog_cp_clos () =
  let net = Netgen.clos ~name:"dlt" ~spines:2 ~leaves:4 () in
  let configs = List.map (fun (_, t) -> fst (Parse.parse_config t)) net.Netgen.n_configs in
  let dp = Dataplane.compute ~env:net.Netgen.n_env configs in
  let dl = Datalog_cp.run ~configs ~env:net.Netgen.n_env in
  let imp = imp_coverage dp in
  let cov = Datalog_cp.coverage dl in
  (* everything datalog derives, the imperative engine also has *)
  check Alcotest.bool "datalog subset of imperative" true
    (List.for_all (fun x -> List.mem x imp) cov);
  (* every leaf must reach every host prefix (the BGP fabric works) *)
  let host_prefixes =
    List.filter_map
      (fun (_, p) -> if Prefix.length p = 24 && Prefix.contains (Prefix.of_string "172.16.0.0/12") (Prefix.network p) then Some p else None)
      cov
    |> List.sort_uniq compare
  in
  check Alcotest.int "4 host prefixes" 4 (List.length host_prefixes);
  List.iter
    (fun leaf ->
      List.iter
        (fun p ->
          check Alcotest.bool
            (Printf.sprintf "%s has %s" leaf (Prefix.to_string p))
            true
            (List.mem (leaf, p) cov))
        host_prefixes)
    [ "dlt-leaf1"; "dlt-leaf2"; "dlt-leaf3"; "dlt-leaf4" ];
  (* the solver retains far more facts than final routes (Lesson 1) *)
  check Alcotest.bool "intermediate fact blow-up" true
    (dl.Datalog_cp.derived_facts > 2 * List.length cov)

(* --- cubes --- *)

let packet_gen =
  QCheck.Gen.(
    map2
      (fun (s, d) (proto, sp, dp_, fl) ->
        { Packet.default with src_ip = s land 0xFFFF_FFFF; dst_ip = d land 0xFFFF_FFFF;
          protocol = proto; src_port = sp; dst_port = dp_; tcp_flags = fl })
      (pair (int_range 0 0xFFFF_FFFF) (int_range 0 0xFFFF_FFFF))
      (quad (oneofl [ 1; 6; 17 ]) (int_bound 65535) (int_bound 65535) (int_bound 255)))

let cube_gen =
  (* random cube: constrain a few random fields *)
  QCheck.Gen.(
    map2
      (fun p mask ->
        let c = ref Cube.star in
        if mask land 1 = 1 then c := Cube.set_field !c Cube.dst_ip_off 32 p.Packet.dst_ip;
        if mask land 2 = 2 then c := Cube.set_field !c Cube.src_ip_off 32 p.Packet.src_ip;
        if mask land 4 = 4 then c := Cube.set_field !c Cube.proto_off 8 p.Packet.protocol;
        if mask land 8 = 8 then c := Cube.set_field !c Cube.dst_port_off 16 p.Packet.dst_port;
        !c)
      packet_gen (int_bound 15))

let cube_intersect_semantics =
  qtest "cube intersect = conjunction"
    (QCheck.make QCheck.Gen.(triple cube_gen cube_gen packet_gen))
    (fun (a, b, p) ->
      let both =
        match Cube.intersect a b with
        | Some c -> Cube.matches c p
        | None -> false
      in
      both = (Cube.matches a p && Cube.matches b p))

let cube_subtract_semantics =
  qtest "cube subtract = and-not"
    (QCheck.make QCheck.Gen.(triple cube_gen cube_gen packet_gen))
    (fun (a, b, p) ->
      Cube.member (Cube.subtract a b) p = (Cube.matches a p && not (Cube.matches b p)))

let cube_port_range =
  qtest "port range cubes"
    (QCheck.make QCheck.Gen.(triple (int_bound 65535) (int_bound 65535) packet_gen))
    (fun (a, b, p) ->
      let lo = min a b and hi = max a b in
      Cube.member (Cube.port_range Cube.dst_port_off lo hi) p
      = (p.Packet.dst_port >= lo && p.Packet.dst_port <= hi))

(* --- HSA engine vs BDD engine --- *)

let hsa_network () =
  let texts =
    [ [ "hostname r1";
        "interface hosts"; " ip address 10.1.0.1 255.255.0.0";
        "interface e1"; " ip address 10.0.1.1 255.255.255.252";
        "ip route 10.9.0.0 255.255.0.0 10.0.1.2" ];
      [ "hostname r2";
        "interface e1"; " ip address 10.0.1.2 255.255.255.252";
        "interface servers"; " ip address 10.9.0.1 255.255.0.0";
        " ip access-group PROTECT out";
        "ip access-list extended PROTECT";
        " 10 permit tcp any any eq 80";
        " 15 permit tcp any any established";
        " 20 deny ip any any";
        "ip route 10.1.0.0 255.255.0.0 10.0.1.1" ] ]
  in
  let configs = List.map (fun t -> fst (Parse.parse_config (String.concat "\n" t))) texts in
  let dp = Dataplane.compute configs in
  let find name = List.find_opt (fun (c : Vi.t) -> c.hostname = name) configs in
  (find, dp)

let hsa_matches_bdd =
  let find, dp = hsa_network () in
  let hsa = Hsa_engine.build ~configs:find ~dp in
  let q = Fquery.make ~configs:find ~dp () in
  let e = Fquery.env q in
  let deliver_bdd = Fquery.to_delivered q () in
  let deliver_hsa = Hsa_engine.to_delivered hsa in
  qtest ~count:200 "hsa delivered = bdd delivered" (QCheck.make packet_gen) (fun p ->
      List.for_all
        (fun ((node, iface), cube_set) ->
          match Fgraph.loc_id q.Fquery.g (Fgraph.Src (node, iface)) with
          | None -> true
          | Some id ->
            let p =
              (* bias destinations toward the network occasionally *)
              if p.Packet.dst_port mod 3 = 0 then
                { p with Packet.dst_ip = Ipv4.of_string "10.9.0.5" }
              else p
            in
            Cube.member cube_set p = Pktset.mem e deliver_bdd.(id) p)
        deliver_hsa)

let hsa_multipath () =
  let find, dp = hsa_network () in
  let hsa = Hsa_engine.build ~configs:find ~dp in
  (* this network is consistent *)
  check Alcotest.int "no violations" 0 (List.length (Hsa_engine.multipath_consistency hsa))

(* --- APT vs BDD --- *)

let apt_matches_bdd () =
  let find, dp = hsa_network () in
  let q = Fquery.make ~configs:find ~dp () in
  let e = Fquery.env q in
  let man = Pktset.man e in
  let apt = Apt.build q.Fquery.g in
  check Alcotest.bool "atoms exist" true (Apt.atom_count apt > 1);
  let targets =
    Fgraph.locs_where q.Fquery.g (function
      | Fgraph.Dst _ | Fgraph.Accept _ -> true
      | _ -> false)
  in
  match Fgraph.loc_id q.Fquery.g (Fgraph.Src ("r1", "hosts")) with
  | None -> Alcotest.fail "missing loc"
  | Some src ->
    let apt_reach = Apt.reach apt q.Fquery.g ~src ~targets in
    let deliver = Fquery.to_delivered q () in
    (* restrict to headers without extra bits: APT ignores them *)
    let clean = Fquery.clean q in
    check Alcotest.bool "apt = bdd on clean headers" true
      (Bdd.equal (Bdd.band man apt_reach clean) (Bdd.band man deliver.(src) clean))

(* --- labelled atomization vs the plain refinement it replaced --- *)

(* The plain refinement, kept only as a test oracle: every atom is split by
   [band]/[bdiff] against every predicate, then each predicate's atom set
   is rebuilt by a second [band] pass. Returns the atoms and each edge's
   atom bitset, or [None] where [Apt.try_build] refuses. *)
let plain_atomization ~max_atoms g =
  let man = Pktset.man g.Fgraph.env in
  let exception Refused in
  let rec filter_of = function
    | Fgraph.Filter f -> f
    | Fgraph.Seq fns ->
      List.fold_left (fun acc fn -> Bdd.band man acc (filter_of fn)) Bdd.top fns
    | Fgraph.Set_extra _ | Fgraph.Erase_extra _ -> Bdd.top
    | Fgraph.Transform _ -> raise Refused
  in
  let set b i =
    Bytes.set b (i / 8) (Char.chr (Char.code (Bytes.get b (i / 8)) lor (1 lsl (i mod 8))))
  in
  try
    let predicates = Hashtbl.create 64 in
    Array.iter
      (List.iter (fun (e : Fgraph.edge) -> Hashtbl.replace predicates (filter_of e.e_fn) ()))
      g.Fgraph.out_edges;
    let atoms = ref [ Bdd.top ] in
    Hashtbl.iter
      (fun p () ->
        if not (Bdd.is_top p || Bdd.is_bot p) then begin
          atoms :=
            List.concat_map
              (fun a ->
                (* sequenced: node ids depend on which runs first *)
                let inside = Bdd.band man a p in
                let outside = Bdd.bdiff man a p in
                List.filter (fun x -> not (Bdd.is_bot x)) [ inside; outside ])
              !atoms;
          if List.length !atoms > max_atoms then raise Refused
        end)
      predicates;
    let atoms = Array.of_list !atoms in
    let n = Array.length atoms in
    let pred_sets = Hashtbl.create 64 in
    Hashtbl.iter
      (fun p () ->
        let b = Bytes.make ((n + 7) / 8) '\000' in
        Array.iteri (fun i a -> if Bdd.equal (Bdd.band man a p) a then set b i) atoms;
        Hashtbl.add pred_sets p b)
      predicates;
    let edge_atoms = Hashtbl.create 256 in
    Array.iteri
      (fun v edges ->
        List.iteri
          (fun k (e : Fgraph.edge) ->
            Hashtbl.replace edge_atoms (v, e.e_to, k)
              (Hashtbl.find pred_sets (filter_of e.e_fn)))
          edges)
      g.Fgraph.out_edges;
    Some (atoms, edge_atoms)
  with Refused -> None

(* Builds the forwarding graph of [find]/[dp] twice, each into a fresh
   manager, atomizes one with the oracle and the other with [Apt], and
   checks the two agree id for id, bitset for bitset, and on the number of
   nodes their managers hold afterwards. Returns whether a partition was
   built. *)
let atomization_matches name ~find ~dp =
  let max_atoms = 4096 in
  let g_old = Fgraph.build ~configs:find ~dp () in
  let old = plain_atomization ~max_atoms g_old in
  let g_new = Fgraph.build ~configs:find ~dp () in
  let built = Apt.try_build ~max_atoms g_new in
  let nodes g = Bdd.node_count (Pktset.man g.Fgraph.env) in
  check Alcotest.int (name ^ ": node count") (nodes g_old) (nodes g_new);
  match (old, built) with
  | None, Error _ -> false
  | Some _, Error why ->
    Alcotest.failf "%s: refused (%s) where the oracle built" name
      (Apt.refusal_to_string why)
  | None, Ok _ -> Alcotest.failf "%s: built where the oracle refused" name
  | Some (atoms, edge_atoms), Ok apt ->
    let n = Apt.atom_count apt in
    (* atom i back as a BDD: the union of the singleton set {i} *)
    let atom i =
      let b = Bytes.make ((n + 7) / 8) '\000' in
      Bytes.set b (i / 8) (Char.chr (1 lsl (i mod 8)));
      Apt.atoms_to_bdd apt b
    in
    check Alcotest.(array int) (name ^ ": atoms") atoms (Array.init n atom);
    let edges =
      Apt.fold_edge_atoms apt
        (fun key bits acc ->
          (match Hashtbl.find_opt edge_atoms key with
          | Some b when Bytes.equal b bits -> ()
          | Some _ | None -> Alcotest.failf "%s: edge bitset differs" name);
          acc + 1)
        0
    in
    check Alcotest.int (name ^ ": edges") (Hashtbl.length edge_atoms) edges;
    true

let session (net : Netgen.network) =
  let snap = Batfish.Snapshot.of_texts net.Netgen.n_configs in
  let dp = Dataplane.compute ~env:net.Netgen.n_env (Batfish.Snapshot.configs snap) in
  (Batfish.Snapshot.find snap, dp)

let atomization_profiles () =
  let built = ref 0 in
  List.iter
    (fun (p : Netgen.profile) ->
      List.iter
        (fun scale ->
          let find, dp = session (p.Netgen.p_make scale) in
          let name = Printf.sprintf "%s x%g" p.Netgen.p_name scale in
          if atomization_matches name ~find ~dp then incr built)
        [ 0.1; 0.25 ])
    Netgen.profiles;
  check Alcotest.bool "compared real partitions" true (!built >= 10)

let atomization_chaos () =
  let compared = ref 0 in
  for seed = 1 to 20 do
    let rng = Rng.create (7000 + seed) in
    let net = Netgen.clos ~name:"achaos" ~spines:2 ~leaves:4 () in
    let mutated, _ = Chaos.mutate_network ~rng ~mutations:2 net in
    match session mutated with
    | exception _ -> () (* the mutation broke base analysis: not this test *)
    | find, dp ->
      if atomization_matches (Printf.sprintf "chaos seed %d" seed) ~find ~dp then
        incr compared
  done;
  check Alcotest.int "every variant built a partition" 20 !compared

let suites =
  [ ( "datalog.engine",
      [ Alcotest.test_case "transitive closure" `Quick datalog_tc;
        Alcotest.test_case "guards+computes" `Quick datalog_guards_computes;
        Alcotest.test_case "aggregation" `Quick datalog_agg;
        Alcotest.test_case "strata" `Quick datalog_strata ] );
    ("datalog.cp", [ Alcotest.test_case "clos equivalence" `Quick datalog_cp_clos ]);
    ( "hsa.cubes",
      [ cube_intersect_semantics; cube_subtract_semantics; cube_port_range ] );
    ( "hsa.engine",
      [ hsa_matches_bdd; Alcotest.test_case "multipath" `Quick hsa_multipath ] );
    ( "apt",
      [ Alcotest.test_case "reach = bdd" `Quick apt_matches_bdd;
        Alcotest.test_case "labelled = plain atomization, every profile" `Slow
          atomization_profiles;
        Alcotest.test_case "labelled = plain atomization, 20 chaos variants"
          `Slow atomization_chaos ] ) ]
