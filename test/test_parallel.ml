(* Sharded parallel verification: the engine's one non-negotiable property
   is that parallel results are bit-identical to the sequential engine
   (determinism is the paper's core lesson, §4.1.2). These tests pin it
   down: scheduler equivalence, manager-independent export/import and graph
   spec round-trips, domains=1 vs domains=4 equivalence for all-pairs
   reachability / multipath verdicts / lint findings on every Netgen
   profile, and a chaos-seeded repetition property. *)

let check = Alcotest.check

(* --- work-stealing scheduler ------------------------------------------- *)

let par_map_equivalence () =
  let arr = Array.init 100 (fun i -> i) in
  (* skewed per-item cost: the dynamic scheduler must still return results
     at their input index *)
  let f x =
    let acc = ref 0 in
    for i = 0 to (x mod 7) * 1000 do
      acc := !acc + i
    done;
    (x * 2) + (!acc mod 1)
  in
  let seq = Array.map f arr in
  List.iter
    (fun domains ->
      check (Alcotest.array Alcotest.int)
        (Printf.sprintf "map domains=%d" domains)
        seq
        (Par.map ~domains f arr);
      check (Alcotest.array Alcotest.int)
        (Printf.sprintf "map_dynamic domains=%d" domains)
        seq
        (Par.map_dynamic ~domains f arr))
    [ 1; 2; 4; 7 ];
  check (Alcotest.array Alcotest.int) "empty" [||] (Par.map ~domains:4 f [||]);
  check (Alcotest.array Alcotest.int) "singleton" [| 84 |] (Par.map ~domains:4 f [| 42 |])

let par_map_init_state () =
  (* worker state is built per domain and threaded through every task the
     worker claims; with domains=1 a single state serves all items *)
  let arr = Array.init 20 (fun i -> i) in
  let out =
    Par.map_dynamic_init ~domains:1
      ~init:(fun () -> ref 0)
      (fun st x ->
        incr st;
        x + (if !st > 0 then 0 else 1))
      arr
  in
  check (Alcotest.array Alcotest.int) "state-threaded results" arr out;
  let out4 =
    Par.map_dynamic_init ~domains:4
      ~init:(fun () -> Buffer.create 8)
      (fun _ x -> x * x)
      arr
  in
  check (Alcotest.array Alcotest.int) "domains=4 with state"
    (Array.map (fun x -> x * x) arr)
    out4

(* --- export / import across managers ----------------------------------- *)

let export_import_roundtrip () =
  let env = Pktset.create () in
  let man = Pktset.man env in
  let p s = Option.get (Prefix.of_string_opt s) in
  let a = Pktset.dst_prefix env (p "10.0.0.0/8") in
  let b = Pktset.src_prefix env (p "172.16.0.0/12") in
  let c = Bdd.band man a (Bdd.bnot man b) in
  let d = Pktset.range env Field.Dst_port 1024 60000 in
  let roots = [ a; b; c; d; Bdd.bot; Bdd.top ] in
  let ex = Bdd.export man roots in
  let env2 = Pktset.clone_empty env in
  let man2 = Pktset.man env2 in
  let imported = Bdd.import man2 ex in
  List.iter2
    (fun orig imp ->
      check (Alcotest.float 0.0) "same sat count"
        (Bdd.sat_count man orig) (Bdd.sat_count man2 imp))
    roots imported;
  (* round-trip back into the original manager: canonicity makes the result
     physically equal to where it started *)
  let back = Bdd.import man (Bdd.export man2 imported) in
  List.iter2
    (fun orig b -> check Alcotest.bool "round-trip equal" true (Bdd.equal orig b))
    roots back;
  (* witnesses are canonical too: same example packet from either manager *)
  check
    (Alcotest.option (Alcotest.testable (fun fmt p ->
         Format.pp_print_string fmt (Packet.to_string p)) ( = )))
    "same witness" (Pktset.to_packet env c)
    (Pktset.to_packet env2 (List.nth imported 2))

let cache_growth_identical () =
  (* the auto-growing op cache affects performance only: a manager squeezed
     into a tiny cache (forcing growth) computes the same functions *)
  let mk cache_bits max_cache_bits =
    let m = Bdd.create ~cache_bits ~max_cache_bits ~nvars:32 () in
    let vs = List.init 32 (fun i -> Bdd.var m i) in
    let acc = ref Bdd.top in
    List.iteri
      (fun i v ->
        let w = List.nth vs ((i * 7 + 3) mod 32) in
        acc :=
          if i mod 3 = 0 then Bdd.band m !acc (Bdd.bor m v w)
          else if i mod 3 = 1 then Bdd.bor m !acc (Bdd.band m v (Bdd.bnot m w))
          else Bdd.bxor m !acc (Bdd.band m v w))
      vs;
    (m, !acc)
  in
  let m_small, r_small = mk 2 6 in
  let m_big, r_big = mk 16 16 in
  check (Alcotest.float 0.0) "same function despite cache growth"
    (Bdd.sat_count m_big r_big) (Bdd.sat_count m_small r_small);
  (* stronger: the same operation sequence builds the same nodes, id for
     id, whatever the cache shape *)
  check Alcotest.int "same root id" r_big r_small;
  check Alcotest.int "same node count" (Bdd.node_count m_big) (Bdd.node_count m_small);
  check Alcotest.bool "tiny cache grew" true (Bdd.cache_size m_small > 4)

(* --- graph spec round-trip --------------------------------------------- *)

let net_query ?(scale = 0.25) (profile : Netgen.profile) =
  let net = profile.p_make scale in
  let snap = Batfish.Snapshot.of_texts net.Netgen.n_configs in
  let dp = Dataplane.compute ~env:net.Netgen.n_env (Batfish.Snapshot.configs snap) in
  let find = Batfish.Snapshot.find snap in
  Fquery.make ~configs:find ~dp ()

let profile name =
  List.find (fun (p : Netgen.profile) -> p.Netgen.p_name = name) Netgen.profiles

let spec_roundtrip () =
  let q = net_query (profile "NET1") in
  let g = Fquery.graph q in
  let spec = Fgraph.to_spec g in
  let g2 = Fgraph.of_spec spec in
  check Alcotest.int "same locations" (Fgraph.n_locs g) (Fgraph.n_locs g2);
  check Alcotest.int "same edges" (Fgraph.n_edges g) (Fgraph.n_edges g2);
  let q2 = Fquery.of_graph g2 ~dp:q.Fquery.dp ~configs:q.Fquery.configs in
  (* rows are plain data, so equality across managers is structural *)
  let rows = Fquery.all_pairs q () in
  let rows2 = Fquery.all_pairs q2 () in
  check Alcotest.bool "identical all-pairs rows" true (rows = rows2);
  check Alcotest.bool "rows are non-trivial" true (List.length rows > 0);
  (* importing into an explicit same-layout environment also works *)
  let g3 = Fgraph.of_spec ~env:(Pktset.clone_empty (Fgraph.env g)) spec in
  check Alcotest.int "same edges (explicit env)" (Fgraph.n_edges g) (Fgraph.n_edges g3)

(* --- parallel vs sequential on every profile --------------------------- *)

let domains_equivalence () =
  List.iter
    (fun (p : Netgen.profile) ->
      let q = net_query p in
      let rows1 = Fpar.all_pairs ~domains:1 q in
      let rows4 = Fpar.all_pairs ~domains:4 q in
      if rows1 <> rows4 then
        Alcotest.failf "%s: all-pairs rows differ between domains=1 and domains=4"
          p.Netgen.p_name;
      let v1 = Fpar.multipath_consistency ~domains:1 q in
      let v4 = Fpar.multipath_consistency ~domains:4 q in
      if List.length v1 <> List.length v4
         || not
              (List.for_all2
                 (fun (s1, b1) (s4, b4) -> s1 = s4 && Bdd.equal b1 b4)
                 v1 v4)
      then
        Alcotest.failf "%s: multipath verdicts differ between domains=1 and domains=4"
          p.Netgen.p_name;
      let net = p.p_make 0.25 in
      let snap = Batfish.Snapshot.of_texts net.Netgen.n_configs in
      let configs = Batfish.Snapshot.configs snap in
      let findings domains =
        Lint.findings
          (Lint.run_passes (Lint.make_ctx ~domains configs) Lint.passes)
      in
      if findings 1 <> findings 4 then
        Alcotest.failf "%s: lint findings differ between domains=1 and domains=4"
          p.Netgen.p_name)
    Netgen.profiles

(* --- chaos-seeded determinism ------------------------------------------ *)

let chaos_parallel_determinism () =
  (* mutated snapshots still give deterministic parallel results: repeated
     runs at domains=3 agree with each other and with domains=1 *)
  for seed = 1 to 8 do
    let rng = Rng.create (1000 + seed) in
    let net = Netgen.clos ~name:"cpd" ~spines:2 ~leaves:3 () in
    let mutated, _ = Chaos.mutate_network ~rng ~mutations:2 net in
    match
      Fquery.make_checked
        ~configs:
          (let snap = Batfish.Snapshot.of_texts mutated.Netgen.n_configs in
           Batfish.Snapshot.find snap)
        ~dp:
          (let snap = Batfish.Snapshot.of_texts mutated.Netgen.n_configs in
           Dataplane.compute ~env:mutated.Netgen.n_env (Batfish.Snapshot.configs snap))
        ()
    with
    | Error _ -> () (* graph construction refused the snapshot: fine *)
    | Ok q ->
      let r1 = Fpar.all_pairs ~domains:1 q in
      let ra = Fpar.all_pairs ~domains:3 q in
      let rb = Fpar.all_pairs ~domains:3 q in
      if not (r1 = ra && ra = rb) then
        Alcotest.failf "seed %d: parallel all-pairs nondeterministic" seed
  done

(* --- query memo --------------------------------------------------------- *)

let memo_caching () =
  let q = net_query (profile "NET1") in
  let a = Fquery.to_delivered q () in
  let b = Fquery.to_delivered q () in
  check Alcotest.bool "memo returns the cached array" true (a == b);
  let hits, misses = Fquery.memo_stats q in
  check Alcotest.int "one hit" 1 hits;
  check Alcotest.int "one miss" 1 misses;
  (* a different header set is a different key *)
  let e = Fquery.env q in
  let hdr = Pktset.dst_prefix e (Option.get (Prefix.of_string_opt "172.16.0.0/24")) in
  let c = Fquery.to_delivered q ~hdr () in
  check Alcotest.bool "different key recomputes" true (not (c == a));
  let _, misses2 = Fquery.memo_stats q in
  check Alcotest.int "two misses" 2 misses2;
  (* same header BDD again: canonical ids make the key hit *)
  let hdr' = Pktset.dst_prefix e (Option.get (Prefix.of_string_opt "172.16.0.0/24")) in
  let d = Fquery.to_delivered q ~hdr:hdr' () in
  check Alcotest.bool "canonical key hits" true (c == d)

(* --- persistent pool properties ----------------------------------------- *)

let pool_map_equivalence () =
  let f () x = (x * x) + 1 in
  List.iter
    (fun k ->
      let pool = Par.Pool.create ~domains:k () in
      Fun.protect
        ~finally:(fun () -> Par.Pool.shutdown pool)
        (fun () ->
          let arr = Array.init 37 (fun i -> i) in
          let expect = Array.map (f ()) arr in
          let got = Par.Pool.run pool ~init:(fun () -> ()) f arr in
          check (Alcotest.array Alcotest.int)
            (Printf.sprintf "pool size %d = sequential" k)
            expect got;
          (* skewed costs: late tasks are much heavier, results stay in
             index order regardless of which worker ran what *)
          let skewed () x =
            let acc = ref 0 in
            for _ = 1 to x * x * 50 do
              incr acc
            done;
            x + (!acc * 0)
          in
          let got2 = Par.Pool.run pool ~init:(fun () -> ()) skewed arr in
          check (Alcotest.array Alcotest.int) "skewed costs keep index order" arr got2;
          check (Alcotest.array Alcotest.int) "empty" [||]
            (Par.Pool.run pool ~init:(fun () -> ()) f [||]);
          check (Alcotest.array Alcotest.int) "singleton" [| f () 6 |]
            (Par.Pool.run pool ~init:(fun () -> ()) f [| 6 |])))
    [ 1; 2; 4 ]

let pool_exceptions_and_shutdown () =
  let pool = Par.Pool.create ~domains:3 () in
  let boom () x = if x = 13 then failwith "boom13" else x * 2 in
  (match Par.Pool.run pool ~init:(fun () -> ()) boom (Array.init 20 Fun.id) with
  | _ -> Alcotest.fail "expected the worker exception to propagate"
  | exception Failure msg -> check Alcotest.string "propagated message" "boom13" msg);
  (* a failed job must not wedge the workers: the pool stays usable *)
  let ok = Par.Pool.run pool ~init:(fun () -> ()) (fun () x -> x + 1) [| 1; 2; 3 |] in
  check (Alcotest.array Alcotest.int) "usable after a failed job" [| 2; 3; 4 |] ok;
  Par.Pool.shutdown pool;
  check Alcotest.bool "closed after shutdown" true (Par.Pool.closed pool);
  Par.Pool.shutdown pool;
  (* idempotent *)
  check Alcotest.bool "still closed" true (Par.Pool.closed pool);
  match Par.Pool.run pool ~init:(fun () -> ()) (fun () x -> x) [| 1 |] with
  | _ -> Alcotest.fail "run on a shut-down pool must raise"
  | exception Invalid_argument _ -> ()

let nested_pool_run_inline () =
  (* a task that re-enters its own pool must complete inline instead of
     deadlocking on the submission lock (the failure-sweep fan-out calls
     library code that may itself ask for parallelism). Alcotest's checks
     are not safe to run concurrently, so workers only record what they
     saw and the caller asserts it. *)
  let pool = Par.Pool.create ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> Par.Pool.shutdown pool)
    (fun () ->
      check Alcotest.bool "caller is not a worker" false (Par.Pool.in_worker ());
      let seen =
        Par.Pool.run pool
          ~init:(fun () -> ())
          (fun () x ->
            let in_worker = Par.Pool.in_worker () in
            let inner =
              Par.Pool.run pool ~init:(fun () -> ()) (fun () y -> y * y)
                [| x; x + 1 |]
            in
            (* broadcast from a worker is refused loudly, never a hang *)
            let broadcast_refused =
              match Par.Pool.broadcast pool (fun w -> w) with
              | _ -> false
              | exception Invalid_argument _ -> true
            in
            (in_worker, broadcast_refused, inner.(0) + inner.(1)))
          (Array.init 8 Fun.id)
      in
      Array.iter
        (fun (in_worker, broadcast_refused, _) ->
          check Alcotest.bool "worker knows it is a worker" true in_worker;
          check Alcotest.bool "broadcast from a worker raises" true
            broadcast_refused)
        seen;
      let out = Array.map (fun (_, _, v) -> v) seen in
      check (Alcotest.array Alcotest.int) "nested results correct"
        (Array.init 8 (fun x -> (x * x) + ((x + 1) * (x + 1))))
        out;
      (* map_dynamic_init from inside a worker must not spawn a second tier *)
      let out2 =
        Par.Pool.run pool
          ~init:(fun () -> ())
          (fun () x ->
            (Par.map_dynamic_init ~domains:4
               ~init:(fun () -> ())
               (fun () y -> y + 1)
               [| x |]).(0))
          [| 1; 2; 3 |]
      in
      check (Alcotest.array Alcotest.int) "nested map_dynamic_init inline"
        [| 2; 3; 4 |] out2)

let failed_job_leaves_workers_consistent () =
  (* satellite of ISSUE 6: a worker exception mid-job must not corrupt the
     stripe counters or the worker-resident MRU caches — follow-up jobs on
     the same pool keep their warm graphs and stay bit-identical *)
  let q = net_query (profile "NET1") in
  let pool = Par.Pool.create ~domains:3 () in
  Fun.protect
    ~finally:(fun () -> Par.Pool.shutdown pool)
    (fun () ->
      let serial = Fpar.all_pairs ~domains:1 q in
      let warmup = Fpar.all_pairs ~pool q in
      check Alcotest.bool "warmup identical" true (serial = warmup);
      let imports0, _ = Fpar.worker_stats () in
      (match
         Par.Pool.run pool
           ~init:(fun () -> ())
           (fun () x -> if x = 7 then failwith "mid-scenario crash" else x)
           (Array.init 16 Fun.id)
       with
      | _ -> Alcotest.fail "expected the exception to propagate"
      | exception Failure _ -> ());
      let after = Fpar.all_pairs ~pool q in
      let imports1, _ = Fpar.worker_stats () in
      check Alcotest.bool "post-failure results identical" true (serial = after);
      check Alcotest.int "no spurious graph imports counted" imports0 imports1)

let pool_warm_reuse_identical () =
  let q = net_query (profile "NET3") in
  let pool = Par.Pool.create ~domains:3 () in
  Fun.protect
    ~finally:(fun () -> Par.Pool.shutdown pool)
    (fun () ->
      let _, reuses0 = Fpar.worker_stats () in
      let serial = Fpar.all_pairs ~domains:1 q in
      let cold = Fpar.all_pairs ~pool q in
      let warm = Fpar.all_pairs ~pool q in
      check Alcotest.bool "cold pool call identical to serial" true (serial = cold);
      check Alcotest.bool "warm pool call identical to serial" true (serial = warm);
      let v1 = Fpar.multipath_consistency ~domains:1 q in
      let vp = Fpar.multipath_consistency ~pool q in
      check Alcotest.bool "warm multipath identical" true
        (List.length v1 = List.length vp
        && List.for_all2
             (fun (s1, b1) (s2, b2) -> s1 = s2 && Bdd.equal b1 b2)
             v1 vp);
      let _, reuses1 = Fpar.worker_stats () in
      check Alcotest.bool "resident workers reused their imported graph" true
        (reuses1 > reuses0))

let adaptive_cutoff_both_ways () =
  let q = net_query (profile "NET1") in
  let serial = Fpar.all_pairs ~domains:1 q in
  let saved = !Fpar.auto_cutoff in
  Fun.protect
    ~finally:(fun () -> Fpar.auto_cutoff := saved)
    (fun () ->
      let pool = Par.Pool.create ~domains:2 () in
      Fun.protect
        ~finally:(fun () -> Par.Pool.shutdown pool)
        (fun () ->
          Fpar.auto_cutoff := max_int;
          check Alcotest.bool "below cutoff plans serial" true
            (Fpar.plan ~pool ~auto:true ~tasks:100 ~cost:1_000 () = Fpar.Serial);
          let a = Fpar.all_pairs ~pool ~auto:true q in
          Fpar.auto_cutoff := 0;
          (match Fpar.plan ~pool ~auto:true ~tasks:100 ~cost:1_000 () with
          | Fpar.Parallel _ -> ()
          | Fpar.Serial -> Alcotest.fail "above cutoff must plan parallel");
          let b = Fpar.all_pairs ~pool ~auto:true q in
          check Alcotest.bool "forced-serial auto identical" true (a = serial);
          check Alcotest.bool "forced-parallel auto identical" true (b = serial)));
  (* without auto, plan never falls back on cost *)
  check Alcotest.bool "no auto: cost is ignored" true
    (Fpar.plan ~domains:2 ~auto:false ~tasks:100 ~cost:0 () = Fpar.Parallel 2)

let measured_cutoff_scaling () =
  let saved = !Fpar.auto_cutoff in
  Fun.protect
    ~finally:(fun () -> Fpar.auto_cutoff := saved)
    (fun () ->
      (* make sure at least the serial side of the calibration has samples *)
      let q = net_query (profile "NET1") in
      ignore (Fpar.all_pairs ~domains:1 q);
      Fpar.auto_cutoff := 0;
      check Alcotest.int "0 disables the serial fallback" 0
        (Fpar.effective_cutoff ~workload:Fpar.Uniform ~workers:4 ());
      check Alcotest.int "0 disables it for sharded passes too" 0
        (Fpar.effective_cutoff ~workload:Fpar.Sharded_pass ~workers:4 ());
      Fpar.auto_cutoff := 1_000;
      let u = Fpar.effective_cutoff ~workload:Fpar.Uniform ~workers:4 () in
      check Alcotest.bool "configured floor is respected" true (u >= 1_000);
      (match Fpar.measured_cutoff () with
      | Some m -> check Alcotest.int "measured cost raises the floor" (max 1_000 m) u
      | None -> check Alcotest.int "no samples: the floor stands" 1_000 u);
      (* multipath's two batched passes can at best halve the wall clock,
         so their cutoff is double the uniform one regardless of workers *)
      check Alcotest.int "sharded cutoff is doubled" (u * 2)
        (Fpar.effective_cutoff ~workload:Fpar.Sharded_pass ~workers:4 ());
      check Alcotest.int "sharded cutoff ignores worker count" (u * 2)
        (Fpar.effective_cutoff ~workload:Fpar.Sharded_pass ~workers:16 ());
      Fpar.auto_cutoff := max_int;
      check Alcotest.int "scaling saturates instead of overflowing" max_int
        (Fpar.effective_cutoff ~workload:Fpar.Sharded_pass ~workers:8 ()))

(* --- interning under parallel data-plane simulation --------------------- *)

let parallel_dataplane_identical () =
  (* BGP-heavy profile: the colored route-exchange phase fans per-node work
     across domains, each of which interns BGP attributes in its own
     domain-local pool. The resulting RIBs must be bit-identical to a
     serial simulation. *)
  let net = Netgen.wan ~name:"race" ~pops:5 () in
  let configs =
    Batfish.Snapshot.configs (Batfish.Snapshot.of_texts net.Netgen.n_configs)
  in
  let dp_at domains =
    Dataplane.compute
      ~options:{ Dataplane.default_options with Dataplane.domains }
      ~env:net.Netgen.n_env configs
  in
  let signature dp =
    List.map
      (fun n ->
        let nr = Dataplane.node dp n in
        ( n,
          List.map Route.to_string (Rib.best_routes nr.Dataplane.nr_main),
          List.map Route.to_string (Rib.candidates nr.Dataplane.nr_bgp) ))
      dp.Dataplane.node_order
  in
  let d1 = dp_at 1 in
  let d4 = dp_at 4 in
  check Alcotest.bool "routes survived" true (Dataplane.total_routes d1 > 0);
  check Alcotest.bool "parallel RIBs bit-identical to serial" true
    (signature d1 = signature d4);
  check Alcotest.bool "session reports identical" true
    (d1.Dataplane.sessions = d4.Dataplane.sessions);
  (* interned attributes from different domains still compare equal *)
  let mk () =
    Attrs.make ~origin:Vi.Origin_igp ~as_path:[ 65000; 65001 ] ~local_pref:120
      ~med:10 ~communities:[ 70007 ] ()
  in
  let cross = Par.map ~domains:2 (fun () -> mk ()) [| (); () |] in
  check Alcotest.bool "cross-domain attrs equal" true
    (Attrs.equal cross.(0) cross.(1) && Attrs.equal cross.(0) (mk ()))

let suites =
  [ ( "parallel",
      [ Alcotest.test_case "Par.map equivalence" `Quick par_map_equivalence;
        Alcotest.test_case "Par.map_dynamic_init state" `Quick par_map_init_state;
        Alcotest.test_case "BDD export/import round-trip" `Quick export_import_roundtrip;
        Alcotest.test_case "op-cache growth is invisible" `Quick cache_growth_identical;
        Alcotest.test_case "graph spec round-trip" `Quick spec_roundtrip;
        Alcotest.test_case "query memo" `Quick memo_caching;
        Alcotest.test_case "domains=1 vs 4 on every profile" `Slow domains_equivalence;
        Alcotest.test_case "chaos-seeded parallel determinism" `Slow
          chaos_parallel_determinism;
        Alcotest.test_case "pool map = sequential map" `Quick pool_map_equivalence;
        Alcotest.test_case "pool exceptions and shutdown" `Quick
          pool_exceptions_and_shutdown;
        Alcotest.test_case "nested pool entry runs inline" `Quick
          nested_pool_run_inline;
        Alcotest.test_case "failed job leaves workers consistent" `Quick
          failed_job_leaves_workers_consistent;
        Alcotest.test_case "pool warm reuse is bit-identical" `Quick
          pool_warm_reuse_identical;
        Alcotest.test_case "adaptive cutoff both ways" `Quick adaptive_cutoff_both_ways;
        Alcotest.test_case "measured cutoff scaling" `Quick measured_cutoff_scaling;
        Alcotest.test_case "parallel dataplane interning" `Slow
          parallel_dataplane_identical ] ) ]
