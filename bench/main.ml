(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§6) plus the ablations DESIGN.md calls out.

     dune exec bench/main.exe                 -- everything, default scale
     dune exec bench/main.exe -- table1 table2 --scale 2
     dune exec bench/main.exe -- fig1 fig3 apt ablations micro

   Absolute numbers depend on this machine; the shapes (who wins, by what
   order of magnitude) are the reproduction target. *)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let fmt_s t = if t < 0.001 then Printf.sprintf "%.2fms" (t *. 1000.0) else Printf.sprintf "%.3fs" t

(* ------------------------------------------------------------------ *)
(* Machine-readable results: every benchmark also records its numbers  *)
(* here, and the harness writes BENCH_results.json on exit so the perf *)
(* trajectory can be tracked across PRs.                               *)
(* ------------------------------------------------------------------ *)

let m_f k v = (k, Printf.sprintf "%.6f" v)
let m_i k v = (k, string_of_int v)
let m_b k v = (k, if v then "true" else "false")

(* Peak resident set size (VmHWM) in kB from /proc/self/status; 0 when the
   proc filesystem is unavailable (non-Linux). *)
let peak_rss_kb () =
  match open_in "/proc/self/status" with
  | exception _ -> 0
  | ic ->
    let rec scan acc =
      match input_line ic with
      | line ->
        (match Scanf.sscanf_opt line "VmHWM: %d kB" (fun v -> v) with
        | Some v -> scan v
        | None -> scan acc)
      | exception End_of_file -> acc
    in
    let v = scan 0 in
    close_in ic;
    v

let records : (string * (string * string) list) list ref = ref []

(* Every record carries the process footprint at the moment it was taken:
   peak RSS plus the node total across every live BDD manager (schema 4) —
   worker-resident managers included, which per-section [m_bdd] cannot see. *)
let record name metrics =
  let live_managers, global_nodes = Bdd.global_stats () in
  records :=
    (name,
     metrics
     @ [ m_i "peak_rss_kb" (peak_rss_kb ());
         m_i "bdd_live_managers" live_managers;
         m_i "bdd_global_nodes" global_nodes ])
    :: !records

(* BDD-manager counters as metrics: nodes, op-cache hits/misses, current
   op-cache capacity and occupancy. *)
let m_bdd man =
  let nodes, _, _ = Bdd.stats man in
  let cs = Bdd.cache_stats man in
  [ m_i "bdd_nodes" nodes; m_i "cache_hits" cs.Bdd.cs_hits;
    m_i "cache_misses" cs.Bdd.cs_misses; m_i "cache_entries" cs.Bdd.cs_entries;
    m_i "cache_filled" cs.Bdd.cs_filled ]

let write_results ~scale ~domains () =
  let oc = open_out "BENCH_results.json" in
  let entry (name, metrics) =
    Printf.sprintf "    {\"name\": \"%s\"%s}" name
      (String.concat ""
         (List.map (fun (k, v) -> Printf.sprintf ", \"%s\": %s" k v) metrics))
  in
  Printf.fprintf oc
    "{\n  \"schema\": 8,\n  \"scale\": %g,\n  \"domains\": %d,\n  \"results\": [\n%s\n  ]\n}\n"
    scale domains
    (String.concat ",\n" (List.map entry (List.rev !records)));
  close_out oc;
  Printf.printf "wrote BENCH_results.json (%d results)\n" (List.length !records)

(* CI gate: any record carrying identical=false means a parallel or
   incremental path diverged from the sequential engine — fail the run even
   if the section that produced it did not exit itself. *)
let check_identical () =
  let bad =
    List.filter
      (fun (_, metrics) -> List.mem ("identical", "false") metrics)
      !records
  in
  if bad <> [] then begin
    List.iter
      (fun (name, _) ->
        Printf.printf "ERROR: %s: results not identical to the sequential engine\n" name)
      bad;
    exit 1
  end

(* Performance gates beyond bit-identity: the two service-mode regressions
   this harness exists to catch. A cold sharded fan-out losing to serial
   means the prewarm path stopped hiding the per-worker graph import; a
   service run with zero coalesced requests means in-flight coalescing went
   inert and every concurrent duplicate paid a full computation. *)
let check_gates () =
  let bad = ref [] in
  List.iter
    (fun (name, metrics) ->
      let fv k = Option.bind (List.assoc_opt k metrics) float_of_string_opt in
      (match fv "speedup_cold" with
      | Some s when s < 1.0 ->
        bad :=
          Printf.sprintf
            "%s: speedup_cold %.2f < 1.0 (cold sharded fan-out lost to serial)"
            name s
          :: !bad
      | Some _ | None -> ());
      (* the sweep's largest scale factor must show grouping winning;
         smaller factors may legitimately hover around 1.0. At >= 500
         devices grouped all-pairs must win by >= 2x. *)
      (match (fv "all_pairs_speedup", List.assoc_opt "sweep_largest" metrics) with
      | Some s, Some "true" when s < 1.0 ->
        bad :=
          Printf.sprintf
            "%s: grouping speedup %.2f < 1.0 at the largest sweep scale"
            name s
          :: !bad
      | _ -> ());
      (match
         (fv "all_pairs_speedup", fv "devices",
          List.assoc_opt "sweep_largest" metrics)
       with
      | Some s, Some d, Some "true" when d >= 500.0 && s < 2.0 ->
        bad :=
          Printf.sprintf
            "%s: all-pairs speedup %.2f < 2.0 at %.0f devices" name s d
          :: !bad
      | _ -> ());
      if String.length name >= 8 && String.sub name 0 8 = "service." then
        match fv "coalesced" with
        | Some c when c < 1.0 ->
          bad :=
            (name ^ ": no coalesced requests (in-flight coalescing inert)")
            :: !bad
        | Some _ | None -> ())
    !records;
  if !bad <> [] then begin
    List.iter (fun m -> Printf.printf "ERROR: %s\n" m) !bad;
    exit 1
  end

let load_profile ~scale (p : Netgen.profile) =
  let net = p.p_make scale in
  let texts = net.Netgen.n_configs in
  let snap, parse_t = time (fun () -> Batfish.Snapshot.of_texts texts) in
  (net, snap, parse_t)

(* ------------------------------------------------------------------ *)
(* Table 1: the networks                                              *)
(* ------------------------------------------------------------------ *)

let table1 ~scale () =
  print_endline "== Table 1: benchmark networks (synthetic stand-ins for the paper's 11) ==";
  let rows =
    List.map
      (fun (p : Netgen.profile) ->
        let net, snap, _ = load_profile ~scale p in
        let bf = Batfish.init ~env:net.Netgen.n_env snap in
        let dp = Batfish.dataplane bf in
        [ p.p_name; net.Netgen.n_type;
          string_of_int (Netgen.device_count net);
          string_of_int (Netgen.config_lines net);
          string_of_int (Dataplane.total_routes dp);
          p.p_protocols; p.p_vendors ])
      Netgen.profiles
  in
  Table.print
    ~header:[ "network"; "type"; "devices"; "LoC"; "routes"; "protocols"; "vendors" ]
    rows;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Table 2: performance of current Batfish                            *)
(* ------------------------------------------------------------------ *)

let table2 ~scale () =
  print_endline "== Table 2: current-engine performance per network ==";
  let rows =
    List.map
      (fun (p : Netgen.profile) ->
        let net, snap, parse_t = load_profile ~scale p in
        let bf = Batfish.init ~env:net.Netgen.n_env snap in
        let dp, dp_t = time (fun () -> Batfish.dataplane bf) in
        let q, graph_t = time (fun () -> Batfish.forwarding bf) in
        (* destination reachability: one backward pass toward the first host
           subnet (§4.2.3 backward propagation) *)
        let e = Fquery.env q in
        let dst = Prefix.make (Ipv4.of_octets 172 16 0 0) 24 in
        let _, dest_t =
          time (fun () -> Fquery.to_delivered q ~hdr:(Pktset.dst_prefix e dst) ())
        in
        let _, mpc_t = time (fun () -> Fquery.multipath_consistency q ()) in
        ignore dp;
        record
          (Printf.sprintf "table2.%s" p.p_name)
          ([ m_i "devices" (Netgen.device_count net); m_f "parse_s" parse_t;
             m_f "dataplane_s" dp_t; m_f "graph_s" graph_t; m_f "dest_reach_s" dest_t;
             m_f "multipath_s" mpc_t ]
          @ m_bdd (Pktset.man e));
        [ p.p_name; string_of_int (Netgen.device_count net); fmt_s parse_t; fmt_s dp_t;
          fmt_s graph_t; fmt_s dest_t; fmt_s mpc_t ])
      Netgen.profiles
  in
  Table.print
    ~header:
      [ "network"; "devices"; "parse"; "DP gen"; "graph build"; "dest reach";
        "multipath cons." ]
    rows;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Figure 3: current vs original engines                              *)
(* ------------------------------------------------------------------ *)

let fig3_one ~leaves () =
  let net = Netgen.clos ~name:"net1o" ~spines:4 ~leaves () in
  let texts = net.Netgen.n_configs in
  let snap, parse_t = time (fun () -> Batfish.Snapshot.of_texts texts) in
  let configs = Batfish.Snapshot.configs snap in
  let dp, imp_t = time (fun () -> Dataplane.compute ~env:net.Netgen.n_env configs) in
  let dl, dl_t = time (fun () -> Datalog_cp.run ~configs ~env:net.Netgen.n_env) in
  let find name = Batfish.Snapshot.find snap name in
  let q, _ = time (fun () -> Fquery.make ~configs:find ~dp ()) in
  let _, bdd_t = time (fun () -> Fquery.multipath_consistency q ()) in
  let hsa, _ = time (fun () -> Hsa_engine.build ~configs:find ~dp) in
  let _, hsa_t = time (fun () -> Hsa_engine.multipath_consistency hsa) in
  [ [ Printf.sprintf "%d devices: parsing" (Netgen.device_count net);
      fmt_s parse_t; fmt_s parse_t; "1x" ];
    [ "  data plane generation"; fmt_s dl_t; fmt_s imp_t;
      Printf.sprintf "%.0fx" (dl_t /. imp_t) ];
    [ Printf.sprintf "  data plane verification (%d facts retained)"
        dl.Datalog_cp.derived_facts;
      fmt_s hsa_t; fmt_s bdd_t; Printf.sprintf "%.0fx" (hsa_t /. bdd_t) ] ]

let fig3 ~scale () =
  print_endline "== Figure 3: current vs original Batfish (NET1-class networks) ==";
  print_endline "   (original = Datalog control plane + difference-of-cubes verification;";
  print_endline "    the gap grows super-linearly: at the paper's network sizes it reaches";
  print_endline "    three orders of magnitude for generation)";
  let sizes =
    List.map (fun l -> max 2 (int_of_float (float_of_int l *. scale))) [ 10; 20; 30 ]
  in
  let rows = List.concat_map (fun leaves -> fig3_one ~leaves ()) sizes in
  Table.print ~header:[ "stage"; "original"; "current"; "speedup" ] rows;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Figure 1: convergence patterns                                     *)
(* ------------------------------------------------------------------ *)

let fig1 () =
  print_endline "== Figure 1(b): mutual-export pattern under different schedules ==";
  let net = Netgen.fig1b () in
  let snap = Batfish.Snapshot.of_texts net.Netgen.n_configs in
  let configs = Batfish.Snapshot.configs snap in
  let run schedule clocks =
    let options =
      { Dataplane.default_options with schedule; use_logical_clocks = clocks;
        max_rounds = 60 }
    in
    Dataplane.compute ~options ~env:net.Netgen.n_env configs
  in
  let rows =
    List.map
      (fun (label, schedule, clocks) ->
        let dp = run schedule clocks in
        [ label;
          (if dp.Dataplane.converged then "converged" else "did NOT converge");
          (if dp.Dataplane.oscillated then "oscillation detected" else "-");
          string_of_int dp.Dataplane.rounds ])
      [ ("lockstep (naive parallelism)", Dataplane.Lockstep, true);
        ("colored schedule + logical clocks", Dataplane.Colored, true);
        ("colored, no logical clocks", Dataplane.Colored, false) ]
  in
  Table.print ~header:[ "schedule"; "outcome"; "pathology"; "BGP rounds" ] rows;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* §6.2: comparison with Atomic Predicates                            *)
(* ------------------------------------------------------------------ *)

let apt ~scale () =
  print_endline "== APT comparison (§6.2): 92-node network, dest reachability ==";
  (* A WAN, like APT's largest published network (Internet2-class, dst-only
     forwarding predicates). *)
  let pops = max 8 (int_of_float (92.0 *. scale)) in
  let net = Netgen.wan ~name:"apt" ~pops () in
  let snap = Batfish.Snapshot.of_texts net.Netgen.n_configs in
  Printf.printf "   network: %d devices\n" (Netgen.device_count net);
  let bf = Batfish.init ~env:net.Netgen.n_env snap in
  let dp = Batfish.dataplane bf in
  let find = Batfish.Snapshot.find snap in
  (* Batfish: graph build + one destination-reachability query *)
  let q, bf_graph_t = time (fun () -> Fquery.make ~configs:find ~dp ()) in
  let e = Fquery.env q in
  let dst = Prefix.make (Ipv4.of_octets 172 16 0 0) 24 in
  let _, bf_query_t =
    time (fun () -> Fquery.to_delivered q ~hdr:(Pktset.dst_prefix e dst) ())
  in
  (* APT: the same graph, plus atom computation, then the query *)
  let apt_t0 = Unix.gettimeofday () in
  let g2 = Fgraph.build ~env:e ~configs:find ~dp () in
  let atoms = Apt.build g2 in
  let apt_build_t = Unix.gettimeofday () -. apt_t0 in
  let targets =
    Fgraph.locs_where g2 (function
      | Fgraph.Dst _ | Fgraph.Accept _ -> true
      | Fgraph.Src _ | Fgraph.Fwd _ | Fgraph.Pre_out _ | Fgraph.Dropped _ -> false)
  in
  let src =
    Option.get
      (Fgraph.loc_id g2
         (Fgraph.Src ("apt-p0", "Loopback0")))
  in
  let _, apt_query_t = time (fun () -> Apt.reach atoms g2 ~src ~targets) in
  Table.print
    ~header:[ "engine"; "build (graph+atoms)"; "dest-reach query"; "total" ]
    [ [ "Batfish BDD dataflow"; fmt_s bf_graph_t; fmt_s bf_query_t;
        fmt_s (bf_graph_t +. bf_query_t) ];
      [ Printf.sprintf "Atomic Predicates (%d atoms)" (Apt.atom_count atoms);
        fmt_s apt_build_t; fmt_s apt_query_t; fmt_s (apt_build_t +. apt_query_t) ] ];
  Printf.printf "   advantage: %.0fx\n\n"
    ((apt_build_t +. apt_query_t) /. (bf_graph_t +. bf_query_t))

(* ------------------------------------------------------------------ *)
(* Ablations                                                          *)
(* ------------------------------------------------------------------ *)

let ablations ~scale () =
  print_endline "== Ablations of the design choices ==";
  (* 1. attribute interning (§4.1.3) *)
  let p8 = List.find (fun (p : Netgen.profile) -> p.Netgen.p_name = "NET8") Netgen.profiles in
  let net = p8.p_make scale in
  let snap = Batfish.Snapshot.of_texts net.Netgen.n_configs in
  let configs = Batfish.Snapshot.configs snap in
  let run_dp () = Dataplane.compute ~env:net.Netgen.n_env configs in
  Attrs.clear_pools ();
  Attrs.interning_enabled := true;
  let dp_on, t_on = time run_dp in
  let distinct, requests = Attrs.pool_stats () in
  let words_on = Dataplane.rib_words dp_on in
  Attrs.interning_enabled := false;
  let dp_off, t_off = time run_dp in
  let words_off = Dataplane.rib_words dp_off in
  Attrs.interning_enabled := true;
  print_endline "-- route-attribute interning (NET8) --";
  Table.print
    ~header:[ "variant"; "DP gen"; "RIB heap (words)"; "sharing" ]
    [ [ "interned"; fmt_s t_on; string_of_int words_on;
        Printf.sprintf "%d distinct / %d uses" distinct requests ];
      [ "no interning"; fmt_s t_off; string_of_int words_off; "-" ] ];
  Printf.printf "   memory saved: %.0f%%\n\n"
    (100.0 *. (1.0 -. (float_of_int words_on /. float_of_int (max 1 words_off))));

  (* 2. full-RIB-compare convergence detection vs deltas (§4.1.3) *)
  let _, t_delta = time run_dp in
  let _, t_full =
    time (fun () ->
        Dataplane.compute
          ~options:{ Dataplane.default_options with full_rib_compare = true }
          ~env:net.Netgen.n_env configs)
  in
  print_endline "-- convergence detection (NET8) --";
  Table.print
    ~header:[ "method"; "DP gen" ]
    [ [ "RIB deltas (production)"; fmt_s t_delta ];
      [ "full RIB snapshot+compare"; fmt_s t_full ] ];
  print_newline ();

  (* 3. BDD variable order (§4.2.2): encode a large multi-field ACL (with
     port ranges, where bit order matters most) under each order *)
  print_endline "-- BDD variable order (400-line ACL with prefixes + port ranges) --";
  let synth_acl =
    let rng = Rng.create 7 in
    let lines =
      List.init 400 (fun i ->
          { Vi.acl_line_default with
            l_seq = (i + 1) * 10;
            l_action = (if Rng.int rng 4 = 0 then Vi.Deny else Vi.Permit);
            l_proto = Some (if Rng.bool rng then 6 else 17);
            l_src = Prefix.make (Rng.int rng 0x4000_0000 * 4) (8 + Rng.int rng 17);
            l_dst = Prefix.make (Rng.int rng 0x4000_0000 * 4) (8 + Rng.int rng 17);
            l_dst_ports = [ (let lo = Rng.int rng 60000 in (lo, lo + 1 + Rng.int rng 5000)) ];
            l_src_ports = (if Rng.bool rng then [ (1024, 65535) ] else []) })
    in
    { Vi.acl_name = "SYNTH"; acl_lines = lines }
  in
  let order_row label order =
    let env = Pktset.create ~order () in
    let bdd, build_t = time (fun () -> Acl_bdd.permits env synth_acl) in
    let nodes, _, _ = Bdd.stats (Pktset.man env) in
    [ label; fmt_s build_t; string_of_int (Bdd.size (Pktset.man env) bdd);
      string_of_int nodes ]
  in
  Table.print
    ~header:[ "variable order"; "build"; "ACL BDD size"; "manager nodes" ]
    [ order_row "paper heuristic (dst first, MSB first)" Pktset.Paper_order;
      order_row "reversed fields" Pktset.Reversed_fields;
      order_row "LSB first" Pktset.Lsb_first ];
  print_newline ();
  let p5 = List.find (fun (p : Netgen.profile) -> p.Netgen.p_name = "NET5") Netgen.profiles in
  let net5 = p5.p_make scale in
  let snap5 = Batfish.Snapshot.of_texts net5.Netgen.n_configs in
  let dp5 = Dataplane.compute ~env:net5.Netgen.n_env (Batfish.Snapshot.configs snap5) in
  let find5 = Batfish.Snapshot.find snap5 in

  (* 4. graph compression (§4.2.3) *)
  print_endline "-- forwarding-graph compression (NET5) --";
  let comp_row label compress =
    let env = Pktset.create () in
    let (q : Fquery.t), build_t =
      time (fun () ->
          Fquery.of_graph
            (Fgraph.build ~env ~compress ~configs:find5 ~dp:dp5 ())
            ~dp:dp5 ~configs:find5)
    in
    let _, t = time (fun () -> Fquery.to_delivered q ()) in
    [ label; string_of_int (Fgraph.n_edges q.Fquery.g); fmt_s build_t; fmt_s t ]
  in
  Table.print
    ~header:[ "variant"; "edges"; "build"; "dest reach" ]
    [ comp_row "compressed" true; comp_row "uncompressed" false ];
  print_newline ();

  (* 5. fused NAT transform (§4.2.3) *)
  print_endline "-- fused vs unfused NAT transform (1000 applications) --";
  let env = Pktset.create () in
  let man = Pktset.man env in
  let rel =
    Pktset.rel env
      ~guard:(Pktset.src_prefix env (Prefix.make (Ipv4.of_octets 10 0 0 0) 8))
      [ (Field.Src_ip, Pktset.Set_prefix (Prefix.make (Ipv4.of_octets 198 51 100 0) 24));
        (Field.Src_port, Pktset.Set_range (1024, 65535)) ]
  in
  let sets =
    List.init 50 (fun i ->
        Bdd.band man
          (Pktset.dst_prefix env (Prefix.make (Ipv4.of_octets 10 i 0 0) 16))
          (Pktset.range env Field.Dst_port 0 (80 + i)))
  in
  let _, t_fused =
    time (fun () ->
        for _ = 1 to 20 do
          List.iter (fun s -> ignore (Pktset.apply_rel env rel s)) sets
        done)
  in
  let _, t_unfused =
    time (fun () ->
        for _ = 1 to 20 do
          List.iter (fun s -> ignore (Pktset.apply_rel_unfused env rel s)) sets
        done)
  in
  Table.print
    ~header:[ "variant"; "time"; "relative" ]
    [ [ "fused and-exists-rename"; fmt_s t_fused; "1.0x" ];
      [ "three separate BDD ops"; fmt_s t_unfused;
        Printf.sprintf "%.2fx" (t_unfused /. t_fused) ] ];
  print_newline ();

  (* 6. backward vs forward propagation for a single destination (§4.2.3):
     a fabric with many sources, one destination subnet *)
  print_endline "-- single-destination query: backward vs forward (Clos fabric) --";
  let net6n = Netgen.clos ~name:"bvf" ~spines:4 ~leaves:(max 4 (int_of_float (24.0 *. scale))) () in
  let snap6 = Batfish.Snapshot.of_texts net6n.Netgen.n_configs in
  let dp5 = Dataplane.compute ~env:net6n.Netgen.n_env (Batfish.Snapshot.configs snap6) in
  let find5 = Batfish.Snapshot.find snap6 in
  let env6 = Pktset.create () in
  let g6 = Fgraph.build ~env:env6 ~configs:find5 ~dp:dp5 () in
  let q6 = Fquery.of_graph g6 ~dp:dp5 ~configs:find5 in
  let dst = Pktset.dst_prefix env6 (Prefix.make (Ipv4.of_octets 172 16 0 0) 24) in
  let delivered_sinks =
    List.map
      (fun id -> (id, dst))
      (Fgraph.locs_where g6 (function
        | Fgraph.Dst _ | Fgraph.Accept _ -> true
        | Fgraph.Src _ | Fgraph.Fwd _ | Fgraph.Pre_out _ | Fgraph.Dropped _ -> false))
  in
  let (_, back_apps), t_back =
    time (fun () -> Freach.backward_counted g6 delivered_sinks)
  in
  let starts =
    List.map (fun (n, i) -> (n, Some i)) (Fgraph.edge_interfaces g6 ~dp:dp5)
  in
  let man6 = Pktset.man env6 in
  let fwd_seed = Bdd.band man6 dst (Fquery.clean q6) in
  let fwd_seeds =
    List.filter_map
      (fun (n, i) ->
        Option.map
          (fun id -> (id, fwd_seed))
          (Fgraph.loc_id g6 (Fgraph.Src (n, Option.get i))))
      starts
  in
  let (_, fwd_apps), t_fwd = time (fun () -> Freach.forward_counted g6 fwd_seeds) in
  Table.print
    ~header:[ "direction"; "time"; "edge applications" ]
    [ [ "backward from destination"; fmt_s t_back; string_of_int back_apps ];
      [ "forward from all sources"; fmt_s t_fwd; string_of_int fwd_apps ] ];
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Sharded parallel verification                                       *)
(* ------------------------------------------------------------------ *)

let parallel ~scale ~domains () =
  Printf.printf
    "== Sharded parallel verification (%d resident pool workers, private BDD managers) ==\n"
    domains;
  (* One persistent pool serves the whole sweep, so the second (and warm)
     calls at each scale run on workers whose imported graph and BDD caches
     survived the previous call — the session shape the engine optimizes. *)
  let pool = Par.Pool.create ~domains () in
  let scales = [ scale; scale *. 2.0 ] in
  let table_rows = ref [] in
  List.iteri
    (fun si sc ->
      let leaves = max 4 (int_of_float (12.0 *. sc)) in
      let net = Netgen.clos ~name:"par" ~spines:4 ~leaves () in
      let snap = Batfish.Snapshot.of_texts net.Netgen.n_configs in
      let dp = Dataplane.compute ~env:net.Netgen.n_env (Batfish.Snapshot.configs snap) in
      let find = Batfish.Snapshot.find snap in
      let q = Fquery.make ~configs:find ~dp () in
      let devices = Netgen.device_count net in
      let starts = List.length (Fquery.default_starts q) in
      Printf.printf "   scale %.2g: %d devices, %d start locations\n" sc devices starts;
      let scaled_up = si = List.length scales - 1 in
      let suffix = if scaled_up then "" else Printf.sprintf ".scale%g" sc in
      (* all-pairs reachability: per-source forward passes. Serial runs
         first on the equally cold main manager. The session then prewarms
         the pool — one broadcast import per worker, the daemon-startup
         move — so the first client-visible query ("cold") no longer pays
         the per-worker graph import inside its own latency: that unhidden
         import is what made speedup_cold 0.59-0.65 in schema 6. *)
      let rows_seq, ap_ts = time (fun () -> Fpar.all_pairs ~domains:1 q) in
      let warmed, prewarm_t = time (fun () -> Fpar.prewarm ~pool q) in
      let rows_cold, ap_tc = time (fun () -> Fpar.all_pairs ~pool q) in
      let rows_warm, ap_tw = time (fun () -> Fpar.all_pairs ~pool q) in
      let ap_same = rows_seq = rows_cold && rows_seq = rows_warm in
      (* multipath consistency: per-destination-shard backward passes *)
      let v_seq, mpc_ts = time (fun () -> Fquery.multipath_consistency q ()) in
      let v_par, mpc_tp = time (fun () -> Fpar.multipath_consistency ~pool q) in
      let mpc_same =
        List.length v_seq = List.length v_par
        && List.for_all2
             (fun (s1, b1) (s2, b2) -> s1 = s2 && Bdd.equal b1 b2)
             v_seq v_par
      in
      (* memoized repeat of the multipath query (same graph + header set) *)
      let _, memo_t = time (fun () -> Fquery.multipath_consistency q ()) in
      let memo_hits, memo_misses = Fquery.memo_stats q in
      let label l = Printf.sprintf "%s (scale %.2g)" l sc in
      table_rows :=
        !table_rows
        @ [ [ label "all-pairs reachability"; fmt_s ap_ts; fmt_s ap_tc; fmt_s ap_tw;
              Printf.sprintf "%.2fx" (ap_ts /. Float.max 1e-9 ap_tw);
              string_of_bool ap_same ];
            [ label "multipath consistency"; fmt_s mpc_ts; fmt_s mpc_tp; "-";
              Printf.sprintf "%.2fx" (mpc_ts /. Float.max 1e-9 mpc_tp);
              string_of_bool mpc_same ];
            [ label "multipath (memoized)"; fmt_s mpc_ts; "-"; fmt_s memo_t;
              Printf.sprintf "%.2fx" (mpc_ts /. Float.max 1e-9 memo_t); "true" ] ];
      record
        ("parallel.all_pairs" ^ suffix)
        [ m_i "devices" devices; m_i "rows" (List.length rows_seq);
          m_f "t_serial_s" ap_ts; m_f "prewarm_s" prewarm_t;
          m_i "workers_prewarmed" warmed; m_f "t_cold_s" ap_tc;
          m_f "t_warm_s" ap_tw; m_f "speedup" (ap_ts /. Float.max 1e-9 ap_tw);
          m_f "speedup_cold" (ap_ts /. Float.max 1e-9 ap_tc);
          m_b "identical" ap_same ];
      record
        ("parallel.multipath" ^ suffix)
        [ m_i "violations" (List.length v_seq); m_f "t_serial_s" mpc_ts;
          m_f "t_pool_s" mpc_tp; m_f "speedup" (mpc_ts /. Float.max 1e-9 mpc_tp);
          m_b "identical" mpc_same ];
      if scaled_up then
        record "parallel.memo"
          ([ m_f "t_first_s" mpc_ts; m_f "t_memoized_s" memo_t;
             m_i "memo_hits" memo_hits; m_i "memo_misses" memo_misses ]
          @ m_bdd (Pktset.man (Fquery.env q)));
      (* adaptive cutoff at the base scale: --domains auto must never lose
         to plain serial on a query this small *)
      if si = 0 then begin
        let rows_auto, ap_ta = time (fun () -> Fpar.all_pairs ~pool ~auto:true q) in
        let auto_same = rows_auto = rows_seq in
        record "parallel.auto"
          [ m_i "devices" devices; m_f "t_serial_s" ap_ts; m_f "t_auto_s" ap_ta;
            m_f "ratio" (ap_ts /. Float.max 1e-9 ap_ta); m_b "identical" auto_same ];
        Printf.printf "   --domains auto at scale %.2g: %s vs serial %s (ratio %.2fx)\n"
          sc (fmt_s ap_ta) (fmt_s ap_ts) (ap_ts /. Float.max 1e-9 ap_ta);
        (* the same guarantee for the sharded-pass workload: a multipath job
           this small must plan serial under the measured cutoff (the
           schema-3 0.38-0.46x regression was exactly this job fanning out) *)
        let v_auto, mpc_ta =
          time (fun () -> Fpar.multipath_consistency ~pool ~auto:true q)
        in
        let mpc_auto_same =
          List.length v_seq = List.length v_auto
          && List.for_all2
               (fun (s1, b1) (s2, b2) -> s1 = s2 && Bdd.equal b1 b2)
               v_seq v_auto
        in
        record "parallel.multipath_auto"
          [ m_i "devices" devices; m_f "t_serial_s" mpc_ts; m_f "t_auto_s" mpc_ta;
            m_f "ratio" (mpc_ts /. Float.max 1e-9 mpc_ta);
            m_b "identical" mpc_auto_same ]
      end)
    scales;
  Table.print
    ~header:[ "query"; "serial"; "pool cold"; "pool warm"; "speedup"; "identical" ]
    !table_rows;
  (* pool + worker-resident cache counters *)
  let imports, reuses = Fpar.worker_stats () in
  let wr = Fpar.worker_cache_stats pool in
  let lookups = wr.Fpar.wr_hits + wr.Fpar.wr_misses in
  Printf.printf
    "   pool: %d workers, %d jobs; graphs imported %d, reused warm %d; worker op-cache hit rate %.1f%%\n"
    (Par.Pool.size pool) (Par.Pool.jobs_run pool) imports reuses
    (if lookups = 0 then 0.0
     else 100.0 *. float_of_int wr.Fpar.wr_hits /. float_of_int lookups);
  record "parallel.pool"
    [ m_i "workers" (Par.Pool.size pool); m_i "jobs" (Par.Pool.jobs_run pool);
      m_i "graph_imports" imports; m_i "graph_reuses" reuses;
      m_i "worker_cached_graphs" wr.Fpar.wr_cached;
      m_i "worker_cache_capacity" wr.Fpar.wr_capacity;
      m_i "graph_evictions" wr.Fpar.wr_evictions;
      m_i "worker_cache_hits" wr.Fpar.wr_hits;
      m_i "worker_cache_misses" wr.Fpar.wr_misses;
      m_f "worker_cache_hit_rate"
        (if lookups = 0 then 0.0
         else float_of_int wr.Fpar.wr_hits /. float_of_int lookups);
      m_f "worker_cache_occupancy"
        (if wr.Fpar.wr_entries = 0 then 0.0
         else float_of_int wr.Fpar.wr_filled /. float_of_int wr.Fpar.wr_entries) ];
  Par.Pool.shutdown pool;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Incremental update: scratch vs warm (ISSUE 4)                      *)
(* ------------------------------------------------------------------ *)

let incremental ~scale () =
  print_endline "== Incremental update: from-scratch recompute vs Batfish.update ==";
  let all_identical = ref true in
  let no_reuse = ref [] in
  let rows =
    List.filter_map
      (fun name ->
        let p =
          List.find (fun (p : Netgen.profile) -> p.Netgen.p_name = name) Netgen.profiles
        in
        let net = p.p_make scale in
        let rng = Rng.create (Hashtbl.hash name) in
        match Chaos.semantic_edit_network ~rng net with
        | None -> None
        | Some (net', mut) ->
          let file = List.hd mut.Chaos.mut_files in
          let changed = (file, List.assoc file net'.Netgen.n_configs) in
          (* base analysis, fully forced (the state a CI daemon would hold) *)
          let bf = Batfish.init ~env:net.Netgen.n_env (Batfish.Snapshot.of_texts net.Netgen.n_configs) in
          ignore (Batfish.dataplane bf);
          ignore (Batfish.forwarding bf);
          (* warm path: re-parse changed files, re-simulate dirty components,
             rebuild the graph in the warm BDD environment *)
          let (bf', rep), warm_t = time (fun () -> Batfish.update ~files:[ changed ] bf) in
          (* scratch path: everything from the file texts *)
          let scratch, scratch_t =
            time (fun () ->
                let s =
                  Batfish.init ~env:net.Netgen.n_env
                    (Batfish.Snapshot.of_texts net'.Netgen.n_configs)
                in
                ignore (Batfish.dataplane s);
                ignore (Batfish.forwarding s);
                s)
          in
          (* the contract: bit-identical state on both paths *)
          let routing dp =
            List.map
              (fun n ->
                let r = Dataplane.node dp n in
                (n, Rib.best_routes r.Dataplane.nr_main, Fib.entries r.Dataplane.nr_fib))
              dp.Dataplane.node_order
          in
          let q' = Batfish.forwarding bf' and qs = Batfish.forwarding scratch in
          let identical =
            routing (Batfish.dataplane bf') = routing (Batfish.dataplane scratch)
            && Fgraph.to_spec (Fquery.graph q') = Fgraph.to_spec (Fquery.graph qs)
            && Fquery.all_pairs q' () = Fquery.all_pairs qs ()
          in
          if not identical then all_identical := false;
          (* single-edit gate: per-node reuse must actually kick in — a
             dirty component re-simulated wholesale would report 0 reused *)
          if rep.Batfish.up_nodes_changed <> [] && rep.Batfish.up_nodes_reused = 0
          then no_reuse := p.p_name :: !no_reuse;
          (* a cosmetic edit keeps the engine, memo included: the repeated
             query must answer from cache *)
          let noop_file = (file, snd changed ^ "\n! bench cosmetic edit") in
          let bf'', noop_rep =
            let q0 = Batfish.forwarding bf' in
            ignore (Fquery.to_delivered q0 ());
            Batfish.update ~files:[ noop_file ] bf'
          in
          let q'' = Batfish.forwarding bf'' in
          let hits0, _ = Fquery.memo_stats q'' in
          let _, noop_t = time (fun () -> Fquery.to_delivered q'' ()) in
          let hits1, misses1 = Fquery.memo_stats q'' in
          let memo_rate =
            float_of_int hits1 /. float_of_int (max 1 (hits1 + misses1))
          in
          record
            (Printf.sprintf "incremental.%s" p.p_name)
            [ m_i "devices" (Netgen.device_count net); m_f "scratch_s" scratch_t;
              m_f "warm_s" warm_t; m_f "speedup" (scratch_t /. Float.max 1e-9 warm_t);
              m_i "files_reparsed" rep.Batfish.up_files_reparsed;
              m_i "nodes_changed" (List.length rep.Batfish.up_nodes_changed);
              m_i "dirty_components" rep.Batfish.up_dirty_components;
              m_i "nodes_simulated" rep.Batfish.up_nodes_simulated;
              m_i "nodes_reused" rep.Batfish.up_nodes_reused;
              m_i "frontier_size" rep.Batfish.up_frontier_size;
              m_i "nodes_converged_early" rep.Batfish.up_nodes_converged_early;
              m_i "memo_invalidated" rep.Batfish.up_memo_invalidated;
              m_f "noop_update_memo_rate" memo_rate;
              m_b "noop_memo_hit" (hits1 > hits0);
              m_b "identical" identical ];
          ignore noop_t;
          ignore noop_rep;
          Some
            [ p.p_name; string_of_int (Netgen.device_count net); fmt_s scratch_t;
              fmt_s warm_t; Printf.sprintf "%.2fx" (scratch_t /. Float.max 1e-9 warm_t);
              string_of_int rep.Batfish.up_nodes_simulated;
              string_of_int rep.Batfish.up_nodes_reused;
              string_of_int rep.Batfish.up_nodes_converged_early;
              string_of_bool identical ])
      [ "NET1"; "NET3"; "NET5"; "NET7" ]
  in
  Table.print
    ~header:[ "network"; "devices"; "scratch"; "warm"; "speedup"; "frontier";
              "reused"; "early"; "identical" ]
    rows;
  if not !all_identical then begin
    print_endline "ERROR: incremental update differs from the from-scratch engine";
    exit 1
  end;
  if !no_reuse <> [] then begin
    Printf.printf
      "ERROR: no per-node reuse on single-edit profile(s): %s\n"
      (String.concat ", " (List.rev !no_reuse));
    exit 1
  end;
  (* warm speedup as a curve: the same single edit on NET3 at growing scale
     (the per-node worklist should pull further ahead of scratch as the
     network grows, where component-level dirtiness stayed flat) *)
  let sweep_point ~scale tag =
    let p =
      List.find (fun (p : Netgen.profile) -> p.Netgen.p_name = "NET3") Netgen.profiles
    in
    let net = p.p_make scale in
    let rng = Rng.create (Hashtbl.hash ("incremental.sweep", tag)) in
    match Chaos.semantic_edit_network ~rng net with
    | None -> []
    | Some (net', mut) ->
      let file = List.hd mut.Chaos.mut_files in
      let changed = (file, List.assoc file net'.Netgen.n_configs) in
      let bf =
        Batfish.init ~env:net.Netgen.n_env
          (Batfish.Snapshot.of_texts net.Netgen.n_configs)
      in
      ignore (Batfish.dataplane bf);
      let (bf', rep), warm_t = time (fun () -> Batfish.update ~files:[ changed ] bf) in
      let scratch, scratch_t =
        time (fun () ->
            let s =
              Batfish.init ~env:net.Netgen.n_env
                (Batfish.Snapshot.of_texts net'.Netgen.n_configs)
            in
            ignore (Batfish.dataplane s);
            s)
      in
      let routing dp =
        List.map
          (fun n ->
            let r = Dataplane.node dp n in
            (n, Rib.best_routes r.Dataplane.nr_main, Fib.entries r.Dataplane.nr_fib))
          dp.Dataplane.node_order
      in
      let identical =
        routing (Batfish.dataplane bf') = routing (Batfish.dataplane scratch)
      in
      if not identical then all_identical := false;
      [ m_i ("devices_x" ^ tag) (Netgen.device_count net);
        m_f ("scratch_s_x" ^ tag) scratch_t;
        m_f ("warm_s_x" ^ tag) warm_t;
        m_f ("speedup_x" ^ tag) (scratch_t /. Float.max 1e-9 warm_t);
        m_i ("frontier_size_x" ^ tag) rep.Batfish.up_frontier_size;
        m_i ("nodes_reused_x" ^ tag) rep.Batfish.up_nodes_reused;
        m_b ("identical_x" ^ tag) identical ]
  in
  let sweep_metrics =
    List.concat_map
      (fun (s, tag) -> sweep_point ~scale:s tag)
      [ (0.5, "0p5"); (1.0, "1"); (2.0, "2") ]
  in
  record "incremental.sweep"
    (sweep_metrics @ [ m_b "identical" !all_identical ]);
  if not !all_identical then begin
    print_endline "ERROR: incremental sweep differs from the from-scratch engine";
    exit 1
  end;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Failure scenarios: pruning leverage + warm re-simulation (ISSUE 6)  *)
(* ------------------------------------------------------------------ *)

let failures ~scale ~domains () =
  print_endline
    "== Failure scenarios: atom pruning + warm fault-injected re-simulation ==";
  let rows =
    List.map
      (fun (name, k, sc) ->
        let p =
          List.find (fun (p : Netgen.profile) -> p.Netgen.p_name = name) Netgen.profiles
        in
        let net = p.p_make sc in
        let snap = Batfish.Snapshot.of_texts net.Netgen.n_configs in
        let options = { Dataplane.default_options with domains } in
        let bf = Batfish.init ~options ~env:net.Netgen.n_env snap in
        ignore (Batfish.dataplane bf);
        ignore (Batfish.forwarding bf);
        let report, warm_t = time (fun () -> Batfish.failure_report ~k bf) in
        (* cold reference: every representative recomputed from scratch in a
           fresh manager — the warm path's bit-identity contract, and the
           speedup baseline. Honestly cold: a fresh context (base fixed
           point included) per representative, so no manager or fixed-point
           state is shared between scenario recomputes. *)
        let reps =
          List.filter
            (fun r -> r.Failures.r_rep = r.Failures.r_scenario.Failures.sc_id)
            report.Failures.rp_results
        in
        let n_same, cold_t =
          time (fun () ->
              List.fold_left
                (fun acc r ->
                  let cold =
                    Failures.cold_context ~options ~env:net.Netgen.n_env
                      ~configs_list:(Batfish.Snapshot.configs snap)
                      ~find:(Batfish.Snapshot.find snap) ()
                  in
                  let co =
                    Failures.cold_outcome cold
                      ~properties:report.Failures.rp_properties
                      r.Failures.r_scenario
                  in
                  if co = r.Failures.r_outcome then acc + 1 else acc)
                0 reps)
        in
        let identical = n_same = List.length reps in
        let rate =
          float_of_int report.Failures.rp_simulated /. Float.max 1e-9 warm_t
        in
        Batfish.shutdown bf;
        record
          (Printf.sprintf "failures.%s.k%d" p.p_name k)
          [ m_i "devices" (Netgen.device_count net); m_i "k" k;
            m_i "properties" (List.length report.Failures.rp_properties);
            m_i "enumerated" report.Failures.rp_enumerated;
            m_i "simulated" report.Failures.rp_simulated;
            m_i "pruned" report.Failures.rp_pruned;
            m_b "pruning" report.Failures.rp_pruning;
            m_i "atoms" report.Failures.rp_atoms;
            m_i "failing" (List.length report.Failures.rp_failing);
            m_i "inconclusive" (List.length report.Failures.rp_inconclusive);
            m_f "warm_s" warm_t; m_f "cold_s" cold_t;
            m_f "scenarios_per_s" rate;
            m_f "speedup" (cold_t /. Float.max 1e-9 warm_t);
            m_b "identical" identical ];
        [ Printf.sprintf "%s k=%d" p.p_name k;
          string_of_int (Netgen.device_count net);
          string_of_int report.Failures.rp_enumerated;
          string_of_int report.Failures.rp_simulated;
          Printf.sprintf "%.1f/s" rate; fmt_s warm_t; fmt_s cold_t;
          Printf.sprintf "%.2fx" (cold_t /. Float.max 1e-9 warm_t);
          string_of_bool identical ])
      [ ("NET3", 1, scale *. 0.5); ("NET1", 1, scale); ("NET3", 2, scale *. 0.25) ]
  in
  Table.print
    ~header:
      [ "sweep"; "devices"; "enumerated"; "simulated"; "scen/s"; "warm"; "cold";
        "speedup"; "identical" ]
    rows;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Coverage: line attribution, cold vs session-warm                   *)
(* ------------------------------------------------------------------ *)

(* Cold = first coverage call on a fresh session (data plane + forwarding
   graph built on demand); warm = second call on the same session, reusing
   the memoized query engine. The identical gate checks the two reports
   render byte-identically. *)
let coverage_bench ~scale ~domains () =
  print_endline "== Coverage: line attribution, cold vs memo-warm ==";
  List.iter
    (fun name ->
      let p =
        List.find (fun (p : Netgen.profile) -> p.Netgen.p_name = name) Netgen.profiles
      in
      let net = p.p_make scale in
      let snap = Batfish.Snapshot.of_texts net.Netgen.n_configs in
      let options = { Dataplane.default_options with domains } in
      let bf = Batfish.init ~options ~env:net.Netgen.n_env snap in
      let r_cold, cold_t = time (fun () -> Batfish.coverage bf) in
      let r_warm, warm_t = time (fun () -> Batfish.coverage bf) in
      let identical =
        Coverage.report_to_json r_cold = Coverage.report_to_json r_warm
      in
      Printf.printf
        "  %-6s %3d devices: %5d units (%d covered, %d dead), cold %.2fs warm %.2fs%s\n"
        p.p_name (Netgen.device_count net) r_cold.Coverage.cov_total
        r_cold.Coverage.cov_covered r_cold.Coverage.cov_dead cold_t warm_t
        (if identical then "" else "  MISMATCH");
      Batfish.shutdown bf;
      record
        (Printf.sprintf "coverage.%s" p.p_name)
        [ m_i "devices" (Netgen.device_count net);
          m_i "units" r_cold.Coverage.cov_total;
          m_i "attributed" r_cold.Coverage.cov_attributed;
          m_i "covered" r_cold.Coverage.cov_covered;
          m_i "uncovered" r_cold.Coverage.cov_uncovered;
          m_i "dead" r_cold.Coverage.cov_dead;
          m_i "shards" r_cold.Coverage.cov_shards;
          m_f "cold_s" cold_t; m_f "warm_s" warm_t;
          m_b "identical" identical ])
    [ "NET1"; "NET3" ];
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Analysis service: daemon over a Unix socket (ISSUE 9)              *)
(* ------------------------------------------------------------------ *)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (int_of_float ((p *. float_of_int (n - 1)) +. 0.5)))

let service_bench ~scale ~domains () =
  Printf.printf
    "== Analysis service: concurrent clients over a Unix socket (%d worker domains) ==\n"
    domains;
  let leaves = max 4 (int_of_float (8.0 *. scale)) in
  let net = Netgen.clos ~name:"svc" ~spines:2 ~leaves () in
  let files = net.Netgen.n_configs in
  let svc = Service.create ~domains () in
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "bf_bench_%d.sock" (Unix.getpid ()))
  in
  let server =
    Thread.create (fun () -> Service.serve ~install_signals:false ~socket svc) ()
  in
  let rec wait_sock n =
    if n = 0 then failwith "service socket never appeared"
    else if not (Sys.file_exists socket) then begin
      Thread.delay 0.01;
      wait_sock (n - 1)
    end
  in
  wait_sock 500;
  let connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX socket);
    (Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)
  in
  let request (ic, oc) line =
    output_string oc line;
    output_char oc '\n';
    flush oc;
    input_line ic
  in
  let query_line question =
    Sjson.to_string
      (Sjson.Obj
         [ ("method", Sjson.Str "query");
           ("params", Sjson.Obj [ ("question", Sjson.Str question) ]) ])
  in
  let c0 = connect () in
  (* cold load through the protocol: parse + data plane + forwarding graph
     + prewarm broadcast, all inside the daemon *)
  let load_line =
    Sjson.to_string
      (Sjson.Obj
         [ ("method", Sjson.Str "load");
           ("params",
            Sjson.Obj
              [ ("files",
                 Sjson.Obj (List.map (fun (n, t) -> (n, Sjson.Str t)) files)) ]) ])
  in
  let load_resp, load_t = time (fun () -> request c0 load_line) in
  let _, cold_q_t = time (fun () -> request c0 (query_line "all_pairs")) in
  let warm_resp, warm_q_t = time (fun () -> request c0 (query_line "all_pairs")) in
  (* dedup: a second client loading byte-identical configs must be answered
     from the store without parsing (reused=true, still one live snapshot) *)
  let c1 = connect () in
  let dedup_resp = request c1 load_line in
  let dedup_reused =
    match Sjson.parse dedup_resp with
    | Ok r ->
      Option.bind (Sjson.member "result" r) (Sjson.member "reused")
      = Some (Sjson.Bool true)
    | Error _ -> false
  in
  (* coalescing: concurrent identical uncached queries must join one
     computation. The test seam stretches the compute window so the
     overlap is deterministic at bench timescales. *)
  Service.test_delay := 0.05;
  let racers =
    List.init 4 (fun _ ->
        Thread.create (fun () -> ignore (request (connect ()) (query_line "loops"))) ())
  in
  List.iter Thread.join racers;
  Service.test_delay := 0.0;
  (* sustained load: a small fleet of clients issuing memo-warm queries;
     latency distribution + throughput are the service-mode numbers *)
  let clients = 4 and per_client = 25 in
  let latencies = Array.make (clients * per_client) 0.0 in
  let questions = [| "all_pairs"; "multipath"; "routes"; "diagnostics" |] in
  let t0 = Unix.gettimeofday () in
  let fleet =
    List.init clients (fun ci ->
        Thread.create
          (fun () ->
            let conn = connect () in
            for i = 0 to per_client - 1 do
              let line = query_line questions.((ci + i) mod Array.length questions) in
              let _, dt = time (fun () -> request conn line) in
              latencies.((ci * per_client) + i) <- dt
            done)
          ())
  in
  List.iter Thread.join fleet;
  let elapsed = Unix.gettimeofday () -. t0 in
  Array.sort compare latencies;
  let p50 = percentile latencies 0.5 and p99 = percentile latencies 0.99 in
  let qps = float_of_int (clients * per_client) /. Float.max 1e-9 elapsed in
  (* byte-identity with the one-shot engine: the service's rendered answer
     must equal the same snapshot analyzed directly, serially *)
  let direct =
    Batfish.init ~env:net.Netgen.n_env (Batfish.Snapshot.of_texts files)
  in
  let direct_answer = Batfish.answer_all_pairs direct in
  let identical =
    match Sjson.parse warm_resp with
    | Error _ -> false
    | Ok r -> (
      match Option.bind (Sjson.member "result" r) (Sjson.member "answers") with
      | Some (Sjson.Arr [ Sjson.Obj fields ]) ->
        List.assoc_opt "title" fields
        = Some (Sjson.Str direct_answer.Questions.a_title)
        && List.assoc_opt "rows" fields
           = Some
               (Sjson.Arr
                  (List.map
                     (fun row -> Sjson.Arr (List.map (fun c -> Sjson.Str c) row))
                     direct_answer.Questions.a_rows))
      | _ -> false)
  in
  ignore (request c0 (Sjson.to_string (Sjson.Obj [ ("method", Sjson.Str "shutdown") ])));
  Thread.join server;
  let s = Service.stats svc in
  Printf.printf
    "   load %s; query cold %s warm %s; %d reqs from %d clients: %.0f q/s, p50 %s p99 %s\n"
    (fmt_s load_t) (fmt_s cold_q_t) (fmt_s warm_q_t) (clients * per_client)
    clients qps (fmt_s p50) (fmt_s p99);
  Printf.printf
    "   computed %d, coalesced %d, dedup %s, errors %d, pool shutdowns %d\n"
    s.Service.st_computed s.Service.st_coalesced
    (if dedup_reused then "hit" else "MISS") s.Service.st_errors
    s.Service.st_shutdowns_run;
  ignore load_resp;
  record "service.bench"
    [ m_i "devices" (Netgen.device_count net); m_i "clients" clients;
      m_i "requests" s.Service.st_requests; m_f "load_s" load_t;
      m_f "cold_query_s" cold_q_t; m_f "warm_query_s" warm_q_t;
      m_f "qps" qps; m_f "p50_s" p50; m_f "p99_s" p99;
      m_i "computed" s.Service.st_computed;
      m_i "coalesced" s.Service.st_coalesced;
      m_i "errors" s.Service.st_errors;
      m_b "dedup_hit" dedup_reused;
      m_i "snapshots" s.Service.st_snapshots;
      m_i "shutdowns_run" s.Service.st_shutdowns_run;
      m_b "identical" identical ];
  print_newline ()

(* Where a served all-pairs answer spends its time, in process on NET12
   with a warmed 2-domain pool: the parallel engine ([Fpar.all_pairs]), the
   table rendering (example flows to text), the fragment encoding and the
   response write (envelope + bytes to /dev/null). The daemon's request
   path is these four stages plus protocol IO, so this is the per-stage
   attribution the socket-level benchmarks cannot see. Each stage is the
   median of [reps] runs over the same input. *)
let render_bench ~factor () =
  Printf.printf
    "== Answer path: engine, rendering, encoding, write (NET12 x%g, 2 domains) ==\n"
    factor;
  let p = List.find (fun (p : Netgen.profile) -> p.Netgen.p_name = "NET12") Netgen.profiles in
  let net = p.Netgen.p_make factor in
  let pool = Par.Pool.create ~domains:2 () in
  let options =
    { Dataplane.default_options with Dataplane.domains = 2; Dataplane.pool = Some pool }
  in
  let bf =
    Batfish.init ~options ~auto_domains:true ~env:net.Netgen.n_env
      (Batfish.Snapshot.of_texts net.Netgen.n_configs)
  in
  ignore (Batfish.prewarm bf);
  let q = Batfish.forwarding bf in
  let reps = 7 in
  let median f =
    let ts = Array.init reps (fun _ -> snd (time f)) in
    Array.sort compare ts;
    ts.(reps / 2)
  in
  let engine () = Fpar.all_pairs ~pool ~domains:2 ~auto:true q in
  let rows = engine () in
  let engine_t = median engine in
  let answer = Questions.all_pairs_answer rows in
  let render_t = median (fun () -> Questions.all_pairs_answer rows) in
  let encode () = Service.answers_fragment ~plan:"parallel(2)" [ answer ] in
  let fragment = encode () in
  let encode_t = median encode in
  let oc = open_out_bin "/dev/null" in
  let write_t =
    median (fun () ->
        List.iter (output_string oc)
          (Service.response_parts ~id:(Sjson.Int 1)
             ~meta:"{\"coalesced\":false}" ~ok:true fragment);
        output_char oc '\n';
        flush oc)
  in
  close_out oc;
  let distinct =
    let seen = Hashtbl.create 64 in
    List.iter
      (fun (r : Fquery.reach_row) ->
        Option.iter (fun p -> Hashtbl.replace seen p ()) r.Fquery.rr_example)
      rows;
    Hashtbl.length seen
  in
  let identical = answer = Batfish.answer_all_pairs bf in
  Par.Pool.shutdown pool;
  let after = render_t +. encode_t +. write_t in
  Printf.printf
    "   %d devices, %d rows (%d distinct example flows), %d-byte fragment\n"
    (Netgen.device_count net) (List.length rows) distinct (String.length fragment);
  Printf.printf
    "   engine %s | render %s | encode %s | write %s  (after-engine = %.2fx engine)\n"
    (fmt_s engine_t) (fmt_s render_t) (fmt_s encode_t) (fmt_s write_t)
    (after /. Float.max 1e-9 engine_t);
  record "service.render"
    [ m_i "devices" (Netgen.device_count net); m_i "rows" (List.length rows);
      m_i "distinct_examples" distinct; m_i "fragment_bytes" (String.length fragment);
      m_f "engine_s" engine_t; m_f "render_s" render_t; m_f "encode_s" encode_t;
      m_f "write_s" write_t; m_f "after_engine_ratio" (after /. Float.max 1e-9 engine_t);
      m_b "identical" identical ];
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks (Bechamel)                                        *)
(* ------------------------------------------------------------------ *)

let micro () =
  print_endline "== Micro-benchmarks (Bechamel, ns/op) ==";
  let open Bechamel in
  let open Toolkit in
  let env = Pktset.create () in
  let man = Pktset.man env in
  let a = Pktset.dst_prefix env (Prefix.make (Ipv4.of_octets 10 0 0 0) 8) in
  let b = Pktset.src_prefix env (Prefix.make (Ipv4.of_octets 172 16 0 0) 12) in
  let t_band = Test.make ~name:"bdd.band" (Staged.stage (fun () -> ignore (Bdd.band man a b))) in
  let acl_cfg, _ =
    Parse.parse_config
      (String.concat "\n"
         [ "hostname m"; "ip access-list extended T";
           " 10 permit tcp 10.0.0.0 0.255.255.255 any eq 443";
           " 20 deny udp any any"; " 30 permit ip any 172.16.0.0 0.15.255.255" ])
  in
  let acl = Option.get (Vi.find_acl acl_cfg "T") in
  let pkt = Packet.tcp ~src:(Ipv4.of_octets 10 1 2 3) ~dst:(Ipv4.of_octets 172 16 9 9) 443 in
  let t_acl =
    Test.make ~name:"acl.eval" (Staged.stage (fun () -> ignore (Acl_eval.action acl pkt)))
  in
  let trie =
    List.fold_left
      (fun t i -> Prefix_trie.add (Prefix.make (Ipv4.of_octets 10 i 0 0) 16) i t)
      Prefix_trie.empty
      (List.init 200 Fun.id)
  in
  let t_lpm =
    Test.make ~name:"trie.lpm"
      (Staged.stage (fun () ->
           ignore (Prefix_trie.longest_match (Ipv4.of_octets 10 77 1 1) trie)))
  in
  let rib =
    Rib.create ~prefer:Cmp.main_prefer ~multipath_equal:Cmp.main_multipath_equal
      ~max_paths:4 ()
  in
  let route =
    Route.static ~net:(Prefix.make (Ipv4.of_octets 10 9 0 0) 16)
      ~nh:(Route.Nh_ip (Ipv4.of_octets 10 0 0 1)) ~ad:1 ~tag:0
  in
  let t_rib =
    Test.make ~name:"rib.merge"
      (Staged.stage (fun () ->
           Rib.merge rib route;
           ignore (Rib.take_delta rib)))
  in
  let tests = Test.make_grouped ~name:"micro" [ t_band; t_acl; t_lpm; t_rib ] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] tests in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun name r ->
      match Bechamel.Analyze.OLS.estimates r with
      | Some [ est ] -> Printf.printf "  %-24s %10.1f ns/op\n" name est
      | Some _ | None -> Printf.printf "  %-24s (no estimate)\n" name)
    results;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Scale sweep: interchangeable-source grouping vs the per-start      *)
(* all-pairs sweep on the fat-leaf NET12 fabric, up to ~1k devices    *)
(* ------------------------------------------------------------------ *)

(* One data plane per scale factor; the same graph spec is materialized
   into two private managers and both sides answer all-pairs over the same
   start sample from a cold manager, so neither side warms the other's
   operation cache: the ungrouped side runs one forward pass per start,
   the grouped side one pass per {!Fquery.start_groups} group. Rows are
   plain data, so bit-identity is [=]. Serial on purpose: the ratio
   isolates grouping, not the parallel fan-out. *)
let sweep ~factors () =
  print_endline
    "== scale sweep: grouped vs per-start all-pairs (NET12, serial) ==";
  let p =
    List.find
      (fun (p : Netgen.profile) -> p.Netgen.p_name = "NET12")
      Netgen.profiles
  in
  let largest = List.fold_left max 0.0 factors in
  let rows =
    List.map
      (fun f ->
        let net, snap, _ = load_profile ~scale:f p in
        let bf = Batfish.init ~env:net.Netgen.n_env snap in
        let dp = Batfish.dataplane bf in
        let configs = Batfish.Snapshot.find snap in
        let spec = Fgraph.to_spec (Fquery.graph (Batfish.forwarding bf)) in
        let q_ungrouped = Fquery.of_graph (Fgraph.of_spec spec) ~dp ~configs in
        let q_grouped = Fquery.of_graph (Fgraph.of_spec spec) ~dp ~configs in
        (* a start sample bounds the ungrouped side's wall clock *)
        let starts =
          List.filteri (fun i _ -> i < 96) (Fquery.default_starts q_ungrouped)
        in
        let groups = List.length (Fquery.start_groups q_grouped starts) in
        (* compact before every timed block: the two sides run sequentially
           in one process, so without this the later side pays the major-GC
           cost of the earlier side's garbage and the ratio is biased *)
        let timed f =
          Gc.compact ();
          time f
        in
        let rows_ungrouped, ap_ungrouped =
          timed (fun () ->
              List.concat_map (Fquery.pairs_for_start q_ungrouped) starts)
        in
        let rows_grouped, ap_grouped =
          timed (fun () -> Fquery.all_pairs q_grouped ~starts ())
        in
        let identical = rows_ungrouped = rows_grouped in
        let speedup =
          if ap_grouped > 0.0 then ap_ungrouped /. ap_grouped else 1.0
        in
        let nodes_of q =
          let n, _, _ = Bdd.stats (Pktset.man (Fquery.env q)) in
          n
        in
        record
          (Printf.sprintf "sweep.NET12.x%g" f)
          [ m_i "devices" (Netgen.device_count net);
            m_i "locs" (Fgraph.n_locs (Fquery.graph q_grouped));
            m_i "edges" (Fgraph.n_edges (Fquery.graph q_grouped));
            m_i "starts" (List.length starts); m_i "groups" groups;
            m_f "all_pairs_ungrouped_s" ap_ungrouped;
            m_f "all_pairs_grouped_s" ap_grouped;
            m_f "all_pairs_speedup" speedup;
            m_b "sweep_largest" (f = largest);
            m_b "identical" identical;
            m_i "bdd_nodes_ungrouped" (nodes_of q_ungrouped);
            m_i "bdd_nodes_grouped" (nodes_of q_grouped) ];
        [ Printf.sprintf "x%g" f;
          string_of_int (Netgen.device_count net);
          string_of_int (Fgraph.n_locs (Fquery.graph q_grouped));
          Printf.sprintf "%d/%d" groups (List.length starts);
          fmt_s ap_ungrouped; fmt_s ap_grouped;
          Printf.sprintf "%.2fx" speedup;
          (if identical then "yes" else "NO") ])
      factors
  in
  Table.print
    ~header:
      [ "scale"; "devices"; "locs"; "groups/starts"; "per-start"; "grouped";
        "speedup"; "identical" ]
    rows;
  print_newline ()

(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let scale =
    let rec find = function
      | "--scale" :: v :: _ -> float_of_string v
      | "--full" :: _ -> 4.0
      | _ :: rest -> find rest
      | [] -> 1.0
    in
    find args
  in
  let domains =
    let rec find = function
      | "--domains" :: v :: _ -> int_of_string v
      | _ :: rest -> find rest
      | [] -> 4
    in
    find args
  in
  let selected =
    List.filter
      (fun a ->
        String.length a > 0 && a.[0] <> '-' && float_of_string_opt a = None)
      args
  in
  let all = selected = [] in
  let want name = all || List.mem name selected in
  Printf.printf "batfish-caml benchmark harness (scale %.2g, domains %d)\n\n" scale domains;
  (* smoke: the fast CI subset (make bench-smoke) — exercises the parallel
     machinery and the convergence harness, writes BENCH_results.json, and
     exits nonzero on crash or on a parallel-vs-sequential mismatch. *)
  let smoke = List.mem "smoke" selected in
  if want "table1" && not smoke then table1 ~scale ();
  if want "table2" && not smoke then table2 ~scale ();
  if want "fig1" || smoke then fig1 ();
  if want "fig3" && not smoke then fig3 ~scale ();
  if want "apt" && not smoke then apt ~scale:(min scale 1.0) ();
  if want "ablations" && not smoke then ablations ~scale ();
  if want "parallel" || smoke then
    parallel ~scale:(if smoke then min scale 1.0 else scale) ~domains ();
  if want "incremental" || smoke then
    incremental ~scale:(if smoke then min scale 1.0 else scale) ();
  if want "failures" || smoke then
    failures ~scale:(if smoke then min scale 1.0 else scale) ~domains ();
  if want "coverage" || smoke then
    coverage_bench ~scale:(if smoke then min scale 1.0 else scale) ~domains ();
  if want "service" || smoke then begin
    service_bench ~scale:(if smoke then min scale 1.0 else scale) ~domains ();
    (* NET12 x2 is the snapshot the daemon benchmark serves; smoke keeps the
       stage split at a quarter of that size *)
    render_bench ~factor:(if smoke then 0.5 else 2.0) ()
  end;
  if want "micro" && not smoke then micro ();
  (* smoke runs the sweep at one small factor (the bit-identity gate still
     applies); full runs sweep three factors, plus the ~1k-device point when
     invoked with --scale >= 2 or --full *)
  if want "sweep" || smoke then
    sweep
      ~factors:
        (if smoke then [ 0.5 ]
         else if scale >= 2.0 then [ 1.0; 2.0; 4.0; 8.0 ]
         else [ 1.0; 2.0; 4.0 ])
      ();
  (* a mode that records nothing (apt, table1, ...) leaves the committed
     BENCH_results.json as it is instead of emptying its result list *)
  if !records <> [] then write_results ~scale ~domains ();
  check_identical ();
  check_gates ()
