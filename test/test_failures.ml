(* Failure-scenario exploration (ISSUE 6). The contracts under test:
   enumeration is deterministic with singles before pairs (so the first
   failing scenario in id order is minimal), atom pruning never changes a
   verdict relative to brute-force enumeration, warm fault-injected
   re-simulation is bit-identical to a cold from-scratch recompute of every
   scenario (chaos-seeded), and a scenario the engine cannot trust is
   quarantined as inconclusive with a diag instead of aborting the sweep. *)

let check = Alcotest.check

let profile name =
  List.find (fun (p : Netgen.profile) -> p.Netgen.p_name = name) Netgen.profiles

let setup ?(scale = 0.25) (p : Netgen.profile) =
  let net = p.p_make scale in
  let snap = Batfish.Snapshot.of_texts net.Netgen.n_configs in
  let configs_list = Batfish.Snapshot.configs snap in
  let find = Batfish.Snapshot.find snap in
  let dp = Dataplane.compute ~env:net.Netgen.n_env configs_list in
  let q = Fquery.make ~configs:find ~dp () in
  (net, configs_list, find, dp, q)

let sweep ?pool ?domains ?prune ?max_atoms ?options ~k
    (net, configs_list, find, dp, q) =
  let options = Option.value options ~default:Dataplane.default_options in
  Failures.run ?pool ?domains ?prune ?max_atoms ~k ~options ~env:net.Netgen.n_env
    ~configs_list ~find ~base_dp:dp ~base_fq:q ()

(* --- enumeration shape --------------------------------------------------- *)

let enumeration_shape () =
  let _, _, _, dp, _ = setup (profile "NET3") in
  let topo = dp.Dataplane.topo in
  let links = L3.links topo in
  let nodes_with_eps =
    List.filter (fun n -> L3.endpoints topo n <> []) (L3.nodes topo)
  in
  check Alcotest.bool "topology has links" true (links <> []);
  let n = List.length links + List.length nodes_with_eps in
  let singles = Failures.enumerate ~topo ~k:1 in
  check Alcotest.int "singles = links + nodes" n (List.length singles);
  let doubles = Failures.enumerate ~topo ~k:2 in
  check Alcotest.int "doubles add every unordered pair"
    (n + (n * (n - 1) / 2))
    (List.length doubles);
  List.iteri
    (fun i (sc : Failures.scenario) ->
      check Alcotest.int "ids are the enumeration order" i sc.Failures.sc_id;
      check Alcotest.int "singles enumerate before pairs"
        (if i < n then 1 else 2)
        (List.length sc.Failures.sc_elements))
    doubles;
  (* the same call enumerates the same list *)
  check Alcotest.bool "deterministic" true
    (Failures.enumerate ~topo ~k:2 = doubles)

(* --- pruning vs brute force ---------------------------------------------- *)

let outcome_key (r : Failures.result) =
  (r.Failures.r_scenario.Failures.sc_id, r.Failures.r_outcome)

let pruned_equals_brute () =
  List.iter
    (fun name ->
      let ctx = setup (profile name) in
      List.iter
        (fun k ->
          let pruned = sweep ~prune:true ~k ctx in
          let brute = sweep ~prune:false ~k ctx in
          check Alcotest.int
            (Printf.sprintf "%s k=%d same enumeration" name k)
            brute.Failures.rp_enumerated pruned.Failures.rp_enumerated;
          check Alcotest.int "brute simulates everything"
            brute.Failures.rp_enumerated brute.Failures.rp_simulated;
          check Alcotest.bool "pruned simulates no more than brute" true
            (pruned.Failures.rp_simulated <= brute.Failures.rp_simulated);
          (* the point of the equivalence classes: expanded per-scenario
             outcomes — verdicts and counterexample packets — are identical
             to checking every scenario individually *)
          check Alcotest.bool
            (Printf.sprintf "%s k=%d identical expanded outcomes" name k)
            true
            (List.map outcome_key pruned.Failures.rp_results
            = List.map outcome_key brute.Failures.rp_results);
          check Alcotest.bool "identical surviving properties" true
            (pruned.Failures.rp_surviving = brute.Failures.rp_surviving);
          check Alcotest.bool "identical minimal failing scenarios" true
            (pruned.Failures.rp_failing = brute.Failures.rp_failing))
        [ 1; 2 ])
    [ "NET1"; "NET3" ]

(* --- the acceptance sweep: k=1 and k=2 on every profile ------------------ *)

let sweep_every_profile () =
  List.iter
    (fun (p : Netgen.profile) ->
      let ctx = setup ~scale:0.1 p in
      List.iter
        (fun k ->
          let r = sweep ~k ctx in
          let name = Printf.sprintf "%s k=%d" p.Netgen.p_name k in
          check Alcotest.int (name ^ ": every scenario has a result")
            r.Failures.rp_enumerated
            (List.length r.Failures.rp_results);
          check Alcotest.bool (name ^ ": pruned <= brute-force count") true
            (r.Failures.rp_simulated <= r.Failures.rp_enumerated);
          check Alcotest.int (name ^ ": pruned accounting")
            r.Failures.rp_enumerated
            (r.Failures.rp_simulated + r.Failures.rp_pruned);
          (* surviving/failing partition the conclusive verdict space *)
          List.iter
            (fun pr ->
              check Alcotest.bool (name ^ ": no property in both sets") false
                (List.exists (fun (p', _, _) -> p' = pr) r.Failures.rp_failing))
            r.Failures.rp_surviving;
          (* every failing property carries a minimal failing scenario and a
             concrete counterexample *)
          let prop_index pr =
            let rec idx i = function
              | [] -> Alcotest.failf "%s: failing property unknown" name
              | p' :: _ when p' = pr -> i
              | _ :: tl -> idx (i + 1) tl
            in
            idx 0 r.Failures.rp_properties
          in
          List.iter
            (fun (pr, (sc : Failures.scenario), pkt) ->
              check Alcotest.bool (name ^ ": counterexample packet present")
                true (pkt <> None);
              let i = prop_index pr in
              List.iter
                (fun (res : Failures.result) ->
                  if res.Failures.r_scenario.Failures.sc_id < sc.Failures.sc_id
                  then
                    match res.Failures.r_outcome with
                    | Failures.Checked vs -> (
                      match List.nth vs i with
                      | Failures.Violated _ ->
                        Alcotest.failf
                          "%s: scenario %d fails before reported minimal %d"
                          name res.Failures.r_scenario.Failures.sc_id
                          sc.Failures.sc_id
                      | Failures.Holds -> ())
                    | Failures.Inconclusive _ -> ())
                r.Failures.rp_results)
            r.Failures.rp_failing)
        [ 1; 2 ])
    Netgen.profiles

(* --- warm = cold, chaos-seeded ------------------------------------------- *)

let chaos_warm_equals_cold () =
  let checked = ref 0 in
  for seed = 1 to 100 do
    let rng = Rng.create (5000 + seed) in
    let net = Netgen.clos ~name:"fchaos" ~spines:1 ~leaves:3 () in
    let mutated, _ = Chaos.mutate_network ~rng ~mutations:2 net in
    let snap = Batfish.Snapshot.of_texts mutated.Netgen.n_configs in
    let configs_list = Batfish.Snapshot.configs snap in
    let find = Batfish.Snapshot.find snap in
    match
      let dp = Dataplane.compute ~env:mutated.Netgen.n_env configs_list in
      let q = Fquery.make ~configs:find ~dp () in
      (dp, q)
    with
    | exception _ -> () (* the mutation broke base analysis: not this test *)
    | dp, q ->
      (* exercise the fan-out path on a third of the seeds *)
      let domains = if seed mod 3 = 0 then 2 else 1 in
      let r =
        sweep ~domains ~k:1 (mutated, configs_list, find, dp, q)
      in
      let cold =
        Failures.cold_context ~options:Dataplane.default_options
          ~env:mutated.Netgen.n_env ~configs_list ~find ()
      in
      List.iter
        (fun (res : Failures.result) ->
          if res.Failures.r_rep = res.Failures.r_scenario.Failures.sc_id then begin
            incr checked;
            let co =
              Failures.cold_outcome cold ~properties:r.Failures.rp_properties
                res.Failures.r_scenario
            in
            if co <> res.Failures.r_outcome then
              Alcotest.failf
                "seed %d: scenario %d (%s) warm outcome differs from cold"
                seed res.Failures.r_scenario.Failures.sc_id
                (Failures.scenario_to_string res.Failures.r_scenario)
          end)
        r.Failures.rp_results
  done;
  check Alcotest.bool "compared a real scenario population" true (!checked > 50)

(* --- pool fan-out is bit-identical to the serial sweep ------------------- *)

let pool_sweep_identical () =
  let ctx = setup (profile "NET3") in
  let serial = sweep ~k:1 ctx in
  let pool = Par.Pool.create ~domains:3 () in
  Fun.protect
    ~finally:(fun () -> Par.Pool.shutdown pool)
    (fun () ->
      let pooled = sweep ~pool ~k:1 ctx in
      check Alcotest.bool "pooled sweep identical to serial" true
        (List.map outcome_key pooled.Failures.rp_results
        = List.map outcome_key serial.Failures.rp_results);
      check Alcotest.bool "same failing report" true
        (pooled.Failures.rp_failing = serial.Failures.rp_failing))

(* --- quarantine semantics ------------------------------------------------ *)

let inconclusive_never_aborts () =
  let ctx = setup (profile "NET3") in
  (* the base fixed point is healthy, but every per-scenario re-simulation
     gets a fuel budget too small for BGP to converge *)
  let crippled = { Dataplane.default_options with Dataplane.max_rounds = 1 } in
  let r = sweep ~options:crippled ~k:1 ctx in
  check Alcotest.bool "some scenarios are inconclusive" true
    (r.Failures.rp_inconclusive <> []);
  check Alcotest.int "the sweep still covered every scenario"
    r.Failures.rp_enumerated
    (List.length r.Failures.rp_results);
  List.iter
    (fun (_, why) ->
      check Alcotest.bool "reason is human-readable" true
        (String.length why > 0))
    r.Failures.rp_inconclusive;
  let quarantine_diags =
    List.filter
      (fun (d : Diag.t) -> d.Diag.d_code = Diag.code_scenario_inconclusive)
      r.Failures.rp_diags
  in
  check Alcotest.int "one diag per inconclusive representative"
    (List.length quarantine_diags)
    (List.length r.Failures.rp_inconclusive);
  List.iter
    (fun (d : Diag.t) ->
      check Alcotest.bool "diag is well-formed" true (Diag.well_formed d))
    quarantine_diags;
  (* an inconclusive scenario claims no verdict: it must not appear as any
     property's minimal failing scenario *)
  List.iter
    (fun (_, (sc : Failures.scenario), _) ->
      check Alcotest.bool "failing scenario is conclusive" false
        (List.exists
           (fun ((sc' : Failures.scenario), _) ->
             sc'.Failures.sc_id = sc.Failures.sc_id)
           r.Failures.rp_inconclusive))
    r.Failures.rp_failing

(* --- a refused partition names its cause ---------------------------------- *)

let pruning_refusal_named () =
  let disabled (r : Failures.report) =
    List.filter_map
      (fun d ->
        if d.Diag.d_code = Diag.code_pruning_disabled then Some d.Diag.d_message
        else None)
      r.Failures.rp_diags
  in
  (* NET1's border router NATs inside sources *)
  let nat = sweep ~k:1 (setup ~scale:0.1 (profile "NET1")) in
  check Alcotest.bool "NAT: pruning off" false nat.Failures.rp_pruning;
  check Alcotest.(list string) "NAT: diag names transformation edges"
    [ "atom partition unavailable (the forwarding graph has transformation \
       (NAT) edges); checking every scenario" ]
    (disabled nat);
  let capped = sweep ~max_atoms:2 ~k:1 (setup ~scale:0.1 (profile "NET3")) in
  check Alcotest.bool "cap: pruning off" false capped.Failures.rp_pruning;
  check Alcotest.(list string) "cap: diag names the atom cap"
    [ "atom partition unavailable (refinement exceeded the cap of 2 atoms); \
       checking every scenario" ]
    (disabled capped);
  check Alcotest.(list string) "default cap: no diag" []
    (disabled (sweep ~k:1 (setup ~scale:0.1 (profile "NET3"))))

(* --- the session surface ------------------------------------------------- *)

let session_surface () =
  let p = profile "NET1" in
  let net = p.p_make 0.25 in
  let bf =
    Batfish.init ~env:net.Netgen.n_env
      (Batfish.Snapshot.of_texts net.Netgen.n_configs)
  in
  let report, answers = Batfish.answer_failures ~k:1 bf in
  check Alcotest.int "two answers" 2 (List.length answers);
  let verification = List.nth answers 1 in
  check Alcotest.int "one row per property"
    (List.length report.Failures.rp_properties)
    (List.length verification.Questions.a_rows);
  List.iter
    (fun row ->
      check Alcotest.int "verdict rows have four columns" 4 (List.length row);
      check Alcotest.bool "verdict column is stable" true
        (List.mem (List.nth row 1) [ "survives"; "fails"; "inconclusive" ]))
    verification.Questions.a_rows;
  (* sweep diags fold into the session's diagnostics: NET1's border router
     has NAT edges, so this sweep always reports FAILURE_PRUNING_DISABLED *)
  let session_codes = List.map (fun d -> d.Diag.d_code) (Batfish.diags bf) in
  List.iter
    (fun d ->
      check Alcotest.bool "report diag visible on the session" true
        (List.mem d.Diag.d_code session_codes))
    report.Failures.rp_diags

let suites =
  [ ( "failures",
      [ Alcotest.test_case "enumeration shape" `Quick enumeration_shape;
        Alcotest.test_case "pruned = brute force (verdicts and witnesses)"
          `Slow pruned_equals_brute;
        Alcotest.test_case "k=1 and k=2 on every profile" `Slow
          sweep_every_profile;
        Alcotest.test_case "chaos: warm = cold (100 seeds)" `Slow
          chaos_warm_equals_cold;
        Alcotest.test_case "pool sweep bit-identical" `Quick
          pool_sweep_identical;
        Alcotest.test_case "inconclusive never aborts" `Quick
          inconclusive_never_aborts;
        Alcotest.test_case "answer_failures surface" `Quick session_surface;
        Alcotest.test_case "refused partition names its cause" `Quick
          pruning_refusal_named ] )
  ]
