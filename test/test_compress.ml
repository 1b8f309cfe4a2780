(* Quotient compression (ISSUE 10): compressed passes must be bit-identical
   to the uncompressed engine on every profile and under chaos-seeded
   mutations, and the fat-leaf fixture must actually compress (nontrivial
   partition, no per-pass fallbacks). *)

let check = Alcotest.check

(* Two query objects over the same graph and manager, compression forced
   off and on. Same manager ⇒ canonical BDDs ⇒ [=] on rows, multipath
   verdicts and loop sets is exact bit-identity. *)
let queries_of bf =
  match Batfish.try_forwarding bf with
  | Error _ -> None
  | Ok q0 ->
    let g = Fquery.graph q0 in
    let dp = Batfish.dataplane bf in
    let configs = Batfish.Snapshot.find (Batfish.snapshot bf) in
    Some
      ( Fquery.of_graph ~compress_mode:`Off g ~dp ~configs,
        Fquery.of_graph ~compress_mode:`On g ~dp ~configs )

(* Bounding the start fan-out keeps the seed sweep fast; the per-start pass
   is the unit under test, so identity over a sample is identity. *)
let compare_answers ~where q_off q_on =
  let starts =
    List.filteri (fun i _ -> i < 12) (Fquery.default_starts q_off)
  in
  if Fquery.all_pairs q_off ~starts () <> Fquery.all_pairs q_on ~starts ()
  then Alcotest.failf "%s: all-pairs rows differ under compression" where;
  if
    Fquery.multipath_consistency q_off ~starts ()
    <> Fquery.multipath_consistency q_on ~starts ()
  then Alcotest.failf "%s: multipath verdicts differ under compression" where;
  if Fquery.find_loops q_off <> Fquery.find_loops q_on then
    Alcotest.failf "%s: loop reports differ under compression" where

(* The acceptance property: >= 100 chaos-seeded snapshots across every
   Netgen profile, each answering all-pairs / multipath / loops identically
   with compression off and on. *)
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
        let bf =
          Batfish.init ~env:mutated.Netgen.n_env
            (Batfish.Snapshot.of_texts mutated.Netgen.n_configs)
        in
        match queries_of bf with
        | None -> () (* mutation broke graph construction; skip the seed *)
        | Some (q_off, q_on) ->
          incr compared;
          compare_answers ~where q_off q_on
      done)
    Netgen.profiles;
  check Alcotest.bool "compared >= 100 seeded snapshots" true (!compared >= 100)

(* Every profile, un-mutated, at two scales — the deterministic half of the
   identity gate. *)
let profile_identity () =
  List.iter
    (fun (p : Netgen.profile) ->
      List.iter
        (fun scale ->
          let net = p.Netgen.p_make scale in
          let bf =
            Batfish.init ~env:net.Netgen.n_env
              (Batfish.Snapshot.of_texts net.Netgen.n_configs)
          in
          match queries_of bf with
          | None ->
            Alcotest.failf "%s x%g: forwarding graph failed" p.Netgen.p_name
              scale
          | Some (q_off, q_on) ->
            compare_answers
              ~where:(Printf.sprintf "%s x%g" p.Netgen.p_name scale)
              q_off q_on)
        [ 0.25; 0.5 ])
    Netgen.profiles

(* The HA ToR-group fabric: seven standbys per slot are template-identical
   to each other, so whole devices collapse into classes, the partition is
   strongly nontrivial, and the compressed passes must never fall back to
   the concrete engine. *)
let clos_fixture_compresses () =
  let net = Netgen.clos_ha ~name:"fatleaf" ~spines:4 ~slots:8 ~members:8 () in
  let bf =
    Batfish.init ~env:net.Netgen.n_env
      (Batfish.Snapshot.of_texts net.Netgen.n_configs)
  in
  match queries_of bf with
  | None -> Alcotest.fail "clos fixture: forwarding graph failed"
  | Some (q_off, q_on) ->
    let starts =
      List.filteri (fun i _ -> i < 12) (Fquery.default_starts q_off)
    in
    if Fquery.all_pairs q_off ~starts () <> Fquery.all_pairs q_on ~starts ()
    then Alcotest.fail "clos fixture: all-pairs rows differ";
    if
      Fquery.multipath_consistency q_off ~starts ()
      <> Fquery.multipath_consistency q_on ~starts ()
    then Alcotest.fail "clos fixture: multipath verdicts differ";
    (* stats before find_loops: the propagation passes themselves must run
       on the quotient without ever hitting the uncompressed fallback *)
    let passes, fallbacks = Fquery.compress_stats q_on in
    check Alcotest.bool "compressed passes ran" true (passes > 0);
    check Alcotest.int "no propagation fallbacks" 0 fallbacks;
    (match Fquery.compression_info q_on with
    | None -> Alcotest.fail "clos fixture: compression inactive under `On"
    | Some (ratio, classes, _) ->
      if ratio >= 0.5 then
        Alcotest.failf "clos fixture: ratio %.2f (expected < 0.5)" ratio;
      check Alcotest.bool "fewer classes than locations" true
        (classes < Fgraph.n_locs (Fquery.graph q_on)));
    (* the loop screen may decline on a fabric whose quotient has
       class-level cycles — that is a concrete re-run, not an identity
       risk, so here only the answers are gated *)
    if Fquery.find_loops q_off <> Fquery.find_loops q_on then
      Alcotest.fail "clos fixture: loop reports differ"

(* The crafted fixture of the issue: a star with genuinely interchangeable
   locations — one ingress root fanning into 24 transit nodes that each
   split between a delivery and a drop sink. Forward refinement keys on
   in-edge signatures, so the transits (same in-edge multiset from the
   root) and the sinks merge, driving the ratio far below 0.5. A uniform
   seed at the root runs on the base partition directly; a seed at one
   transit splits the merged class, which the run must detect
   ([`Non_uniform]) and {!Fcompress.specialize} must repair — bit-for-bit
   against Freach.forward both times. *)
let crafted_star_ratio () =
  let env = Pktset.create () in
  let n_mids = 24 in
  let locs =
    Array.of_list
      (Fgraph.Dst ("sink", "out") :: Fgraph.Dropped "sink"
       :: Fgraph.Src ("root", "in")
       :: List.init n_mids (fun i -> Fgraph.Fwd (Printf.sprintf "m%d" i)))
  in
  let loc_index = Hashtbl.create 64 in
  Array.iteri (fun i l -> Hashtbl.replace loc_index l i) locs;
  let root = 2 and mid i = 3 + i in
  let p_transit = Pktset.dst_prefix env (Prefix.of_string "10.0.0.0/8") in
  let p_narrow = Pktset.dst_prefix env (Prefix.of_string "10.1.0.0/16") in
  let edges =
    List.init n_mids (fun i ->
        { Fgraph.e_from = root; e_to = mid i; e_fn = Fgraph.Filter p_transit })
    @ List.init n_mids (fun i ->
          { Fgraph.e_from = mid i;
            e_to = (if i mod 2 = 0 then 0 else 1);
            e_fn = Fgraph.Filter Bdd.top })
  in
  let n = Array.length locs in
  let out_edges = Array.make n [] and in_edges = Array.make n [] in
  List.iter
    (fun e ->
      out_edges.(e.Fgraph.e_from) <- e :: out_edges.(e.Fgraph.e_from);
      in_edges.(e.Fgraph.e_to) <- e :: in_edges.(e.Fgraph.e_to))
    edges;
  let g =
    { Fgraph.env; locs; loc_index; out_edges; in_edges }
  in
  let p = Fcompress.base g `Fwd in
  if Fcompress.ratio p >= 0.5 then
    Alcotest.failf "crafted star: ratio %.2f (expected < 0.5)"
      (Fcompress.ratio p);
  let match_freach ~what seeds = function
    | `Sets sets ->
      let reference = Freach.forward g seeds in
      Array.iteri
        (fun i r ->
          if not (Bdd.equal r sets.(i)) then
            Alcotest.failf "crafted star (%s): location %d differs" what i)
        reference
    | `Non_uniform -> Alcotest.failf "crafted star (%s): non-uniform" what
    | `Mismatch -> Alcotest.failf "crafted star (%s): verification failed" what
  in
  (* the root is in-edge-free, hence a singleton class: the standard
     single-start seed is uniform on the base partition as designed *)
  let uni = [ (root, p_transit) ] in
  match_freach ~what:"base" uni (Fcompress.run g p ~seeds:uni);
  (* a second seed at an interior transit splits the merged transit class:
     the base run must refuse rather than silently merge the seeds *)
  let seeds = [ (root, p_transit); (mid 0, p_narrow) ] in
  (match Fcompress.run g p ~seeds with
  | `Non_uniform -> ()
  | `Sets _ | `Mismatch ->
    Alcotest.fail "crafted star: class-splitting seeds not detected");
  let p' = Fcompress.specialize g p ~seeds in
  match_freach ~what:"specialized" seeds (Fcompress.run g p' ~seeds)

(* Direct Fcompress check below the Fquery layer: base partition + seed
   specialization + quotient run must reproduce Freach.forward exactly. *)
let fcompress_run_matches_freach () =
  let net = Netgen.clos ~name:"direct" ~spines:4 ~leaves:6 () in
  let bf =
    Batfish.init ~env:net.Netgen.n_env
      (Batfish.Snapshot.of_texts net.Netgen.n_configs)
  in
  let q = Batfish.forwarding bf in
  let g = Fquery.graph q in
  let starts =
    List.filteri (fun i _ -> i < 4) (Fquery.default_starts q)
  in
  let seeds =
    List.filter_map
      (fun (n, io) ->
        let loc =
          match io with
          | Some i -> Fgraph.Src (n, i)
          | None -> Fgraph.Fwd n
        in
        Option.map (fun id -> (id, Fquery.clean q)) (Fgraph.loc_id g loc))
      starts
  in
  check Alcotest.bool "fixture has seeds" true (seeds <> []);
  let base = Fcompress.base g `Fwd in
  let outcome =
    match Fcompress.run g base ~seeds with
    | `Non_uniform ->
      Fcompress.run g (Fcompress.specialize g base ~seeds) ~seeds
    | o -> o
  in
  match outcome with
  | `Non_uniform ->
    Alcotest.fail "Fcompress.run non-uniform after specialization"
  | `Mismatch -> Alcotest.fail "Fcompress.run fell back on a clean fixture"
  | `Sets sets ->
    let reference = Freach.forward g seeds in
    check Alcotest.int "set arrays same length" (Array.length reference)
      (Array.length sets);
    Array.iteri
      (fun i r ->
        if not (Bdd.equal r sets.(i)) then
          Alcotest.failf "location %d: quotient result differs" i)
      reference

let suites =
  [ ( "compress",
      [ Alcotest.test_case "profiles identical off/on" `Quick profile_identity;
        Alcotest.test_case "clos fixture compresses without fallback" `Quick
          clos_fixture_compresses;
        Alcotest.test_case "crafted star ratio < 0.5" `Quick crafted_star_ratio;
        Alcotest.test_case "Fcompress.run = Freach.forward" `Quick
          fcompress_run_matches_freach;
        Alcotest.test_case "chaos identity (>=100 seeds)" `Slow chaos_identity ]
    ) ]
