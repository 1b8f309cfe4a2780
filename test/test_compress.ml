(* Interchangeable-source grouping: {!Fquery.all_pairs} runs one forward
   pass per group of starts with identical concrete out-edges and relabels
   the representative's rows for the other members. The result must be
   bit-identical to the per-start reference sweep on every profile and
   under chaos-seeded mutations, and the fat-leaf fixture must actually
   group (fewer groups than starts). *)

let check = Alcotest.check

let query_of bf =
  match Batfish.try_forwarding bf with
  | Error _ -> None
  | Ok q -> Some q

(* The reference: one {!Fquery.pairs_for_start} pass per start, no
   grouping. Same query object ⇒ same manager ⇒ canonical BDDs, so [=] on
   the rows (example packets included) is exact bit-identity. *)
let per_start q starts = List.concat_map (Fquery.pairs_for_start q) starts

let compare_rows ~where q starts =
  if Fquery.all_pairs q ~starts () <> per_start q starts then
    Alcotest.failf "%s: grouped all-pairs rows differ from the per-start sweep"
      where

let session_of (net : Netgen.network) =
  Batfish.init ~env:net.Netgen.n_env
    (Batfish.Snapshot.of_texts net.Netgen.n_configs)

(* The acceptance property: >= 100 chaos-seeded snapshots across every
   Netgen profile. The start sample is bounded to keep the seed sweep fast;
   it is a prefix of the default starts, so the multi-port access
   interfaces that form groups stay in it. *)
let seeds_per_profile = 8

let chaos_identity () =
  let compared = ref 0 in
  List.iteri
    (fun bi (p : Netgen.profile) ->
      for seed = 0 to seeds_per_profile - 1 do
        let where = Printf.sprintf "%s seed %d" p.Netgen.p_name seed in
        let rng = Rng.create ((7919 * bi) + seed) in
        let mutated, _ =
          Chaos.mutate_network ~rng ~mutations:(1 + Rng.int rng 2)
            (p.Netgen.p_make 0.25)
        in
        match query_of (session_of mutated) with
        | None -> () (* mutation broke graph construction; skip the seed *)
        | Some q ->
          incr compared;
          compare_rows ~where q
            (List.filteri (fun i _ -> i < 24) (Fquery.default_starts q))
      done)
    Netgen.profiles;
  check Alcotest.bool "compared >= 100 seeded snapshots" true (!compared >= 100)

(* Every profile, un-mutated, at two scales, over all default starts — the
   deterministic half of the identity gate. *)
let profile_identity () =
  List.iter
    (fun (p : Netgen.profile) ->
      List.iter
        (fun scale ->
          let where = Printf.sprintf "%s x%g" p.Netgen.p_name scale in
          match query_of (session_of (p.Netgen.p_make scale)) with
          | None -> Alcotest.failf "%s: forwarding graph failed" where
          | Some q -> compare_rows ~where q (Fquery.default_starts q))
        [ 0.25; 0.5 ])
    Netgen.profiles

(* The HA ToR-group fabric with four identically-configured access ports
   per ToR: each active ToR's edge interfaces are interchangeable sources
   and must merge into fewer groups than starts — with rows still identical
   to the per-start sweep. *)
let clos_fixture_groups () =
  let net =
    Netgen.clos_ha ~ports:4 ~name:"fatleaf" ~spines:4 ~slots:8 ~members:8 ()
  in
  match query_of (session_of net) with
  | None -> Alcotest.fail "clos fixture: forwarding graph failed"
  | Some q ->
    let starts = Fquery.default_starts q in
    let groups = Fquery.start_groups q starts in
    check Alcotest.int "every start in exactly one group" (List.length starts)
      (List.length (List.concat groups));
    if List.length groups >= List.length starts then
      Alcotest.failf "clos fixture: %d groups for %d starts (expected fewer)"
        (List.length groups) (List.length starts);
    compare_rows ~where:"clos fixture" q starts

(* Two access ports on one router whose ingress ACLs both permit some
   traffic and drop the rest, so their out-edges have the same targets but
   different functions: the ports must not share a group. Port [a] drops
   everything toward 10/8 and so delivers nothing; port [b] only drops SSH
   and reaches both routers. *)
let acl_ports_stay_apart () =
  let text = String.concat "\n" in
  let configs =
    [ ( "r1.cfg",
        text
          [ "hostname r1";
            "interface a"; " ip address 10.1.0.1 255.255.255.0";
            " ip access-group A_IN in";
            "interface b"; " ip address 10.2.0.1 255.255.255.0";
            " ip access-group B_IN in";
            "interface up"; " ip address 10.0.0.1 255.255.255.252";
            "ip access-list extended A_IN";
            " deny ip any 10.0.0.0 0.255.255.255"; " permit ip any any";
            "ip access-list extended B_IN";
            " deny tcp any any eq 22"; " permit ip any any";
            "ip route 10.3.0.0 255.255.255.0 10.0.0.2" ] );
      ( "r2.cfg",
        text
          [ "hostname r2";
            "interface up"; " ip address 10.0.0.2 255.255.255.252";
            "interface lan"; " ip address 10.3.0.1 255.255.255.0";
            "ip route 10.0.0.0 255.0.0.0 10.0.0.1" ] ) ]
  in
  match query_of (Batfish.init (Batfish.Snapshot.of_texts configs)) with
  | None -> Alcotest.fail "acl fixture: forwarding graph failed"
  | Some q ->
    let a = ("r1", Some "a") and b = ("r1", Some "b") in
    let grouped_with_b =
      List.exists
        (fun g -> List.mem_assoc 0 g && List.mem_assoc 1 g)
        (Fquery.start_groups q [ a; b ])
    in
    check Alcotest.bool "differently filtered ports in separate groups" false
      grouped_with_b;
    check Alcotest.int "port a delivers nothing" 0
      (List.length (Fquery.pairs_for_start q a));
    check Alcotest.bool "port b reaches r2" true
      (List.exists
         (fun r -> r.Fquery.rr_dst = "r2")
         (Fquery.pairs_for_start q b));
    compare_rows ~where:"acl fixture" q (Fquery.default_starts q)

let suites =
  [ ( "compress",
      [ (* off/on: grouping off (the per-start reference) and on *)
        Alcotest.test_case "profiles identical off/on" `Quick profile_identity;
        Alcotest.test_case "clos fixture compresses its starts into groups"
          `Quick clos_fixture_groups;
        Alcotest.test_case "ports with different ingress ACLs stay apart"
          `Quick acl_ports_stay_apart;
        Alcotest.test_case "chaos identity (>=100 seeds)" `Slow chaos_identity ]
    ) ]
