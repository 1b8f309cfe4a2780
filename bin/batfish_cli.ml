(* Command-line front end: the manual proactive-validation workflow (§5.1.2)
   over a directory of configuration files.

   Failure semantics: operator mistakes (unknown node names, bad addresses,
   unknown profiles) get a friendly message and a nonzero exit, never a raw
   exception; pipeline trouble surfaces as structured diagnostics
   (`diagnostics` command), and `--strict` turns Error/Fatal diagnostics into
   a nonzero exit for CI use. *)

open Cmdliner

let dir_arg =
  Arg.(required & pos 0 (some dir) None & info [] ~docv:"CONFIG_DIR" ~doc:"Directory of configuration files")

let strict_arg =
  Arg.(value & flag
       & info [ "strict" ]
           ~doc:"Exit with a nonzero status if any Error or Fatal diagnostic was produced")

(* --domains accepts a worker count or "auto": auto picks a
   machine-appropriate count and turns on the adaptive cutoff, so small
   queries fall back to serial instead of paying fan-out overhead. *)
let domains_conv =
  let parse s =
    if s = "auto" then Ok `Auto
    else
      match int_of_string_opt s with
      | Some n -> Ok (`Fixed n)
      | None ->
        Error
          (`Msg (Printf.sprintf "invalid DOMAINS '%s' (an integer or 'auto')" s))
  in
  let print ppf = function
    | `Auto -> Format.pp_print_string ppf "auto"
    | `Fixed n -> Format.pp_print_int ppf n
  in
  Arg.conv (parse, print)

let domains_arg =
  Arg.(value & opt domains_conv (`Fixed 1)
       & info [ "domains" ] ~docv:"DOMAINS"
           ~doc:"Worker domains for parallel computation (route exchange and \
                 sharded symbolic verification). Results are identical at any \
                 value; 0 picks a machine-appropriate count, and 'auto' \
                 additionally falls back to serial execution for queries too \
                 small to amortize the parallel fan-out.")

let resolve_domains = function
  | `Auto -> (Par.default_domains (), true)
  | `Fixed n -> ((if n <= 0 then Par.default_domains () else n), false)

let load ?(domains = `Fixed 1) dir =
  let domains, auto_domains = resolve_domains domains in
  Batfish.init
    ~options:{ Dataplane.default_options with domains }
    ~auto_domains
    (Batfish.Snapshot.of_dir dir)

(* --- incremental mode (--base): CONFIG_DIR is a revision of BASE_DIR --- *)

let base_arg =
  Arg.(value & opt (some dir) None
       & info [ "base" ] ~docv:"BASE_DIR"
           ~doc:"Incremental mode (CI): treat $(docv) as the previously analyzed \
                 snapshot and CONFIG_DIR as its updated revision. Files whose \
                 content fingerprint is unchanged are not re-parsed, and \
                 data-plane commands re-simulate only the dirty dependency \
                 components; results are identical to a from-scratch run.")

(* Snapshot-level reuse (parse stage only): enough for commands that never
   compute a data plane. *)
let load_snapshot_incremental ?(domains = `Fixed 1) ~base dir =
  let domains, auto_domains = resolve_domains domains in
  let base_snap = Batfish.Snapshot.of_dir base in
  let files, diags = Batfish.Snapshot.read_dir dir in
  let snap = Batfish.Snapshot.of_texts ~diags ~base:base_snap files in
  Printf.printf "incremental: re-parsed %d of %d files, %d node(s) changed\n\n"
    (Batfish.Snapshot.reparsed snap) (List.length files)
    (List.length (Batfish.Snapshot.changed_nodes ~base:base_snap snap));
  Batfish.init ~options:{ Dataplane.default_options with domains } ~auto_domains
    snap

(* Full engine reuse: analyze BASE_DIR (data plane + forwarding graph), apply
   the revision via Batfish.update, and print the engine counters. *)
let load_update_incremental ?(domains = `Fixed 1) ~base dir =
  let domains, auto_domains = resolve_domains domains in
  let bf0 =
    Batfish.init
      ~options:{ Dataplane.default_options with domains }
      ~auto_domains
      (Batfish.Snapshot.of_dir base)
  in
  ignore (Batfish.dataplane bf0);
  ignore (Batfish.try_forwarding bf0);
  let files, diags = Batfish.Snapshot.read_dir dir in
  let removed =
    List.filter_map
      (fun (n, _) -> if List.mem_assoc n files then None else Some n)
      (Batfish.Snapshot.files (Batfish.snapshot bf0))
  in
  let bf, report = Batfish.update ~removed ~diags ~files bf0 in
  Questions.print_answer (Batfish.answer_update_report report);
  print_newline ();
  bf

(* Operator-input errors: a friendly message and exit 1, never a raw
   exception at the user. *)
let die fmt = Printf.ksprintf (fun msg -> prerr_endline ("error: " ^ msg); exit 1) fmt

let shortlist names =
  let shown = List.filteri (fun i _ -> i < 8) names in
  String.concat ", " shown ^ if List.length names > 8 then ", ..." else ""

let check_node bf name =
  let known = Batfish.Snapshot.node_names (Batfish.snapshot bf) in
  if not (List.mem name known) then
    die "unknown node '%s' (known nodes: %s)" name (shortlist known)

let known_protocols =
  [ "connected"; "local"; "static"; "ospf"; "ospfIA"; "ospfE1"; "ospfE2"; "bgp"; "ibgp" ]

let finish ~strict bf =
  if strict && Batfish.strict_failure bf then begin
    prerr_endline
      "strict: Error/Fatal diagnostics were produced (run the diagnostics command for details)";
    exit 1
  end

let print_answers answers =
  List.iter
    (fun a ->
      Questions.print_answer a;
      print_newline ())
    answers

(* --- parse --- *)

let parse_cmd =
  let run dir strict =
    let bf = load dir in
    print_answers
      [ Questions.node_properties (Batfish.Snapshot.configs (Batfish.snapshot bf));
        Batfish.answer_init_issues bf ];
    finish ~strict bf
  in
  Cmd.v (Cmd.info "parse" ~doc:"Parse configurations and report issues")
    Term.(const run $ dir_arg $ strict_arg)

(* --- diagnostics --- *)

let diagnostics_cmd =
  let dataplane =
    Arg.(value & flag
         & info [ "dataplane" ] ~doc:"Also compute the data plane and include its diagnostics")
  in
  let run dir dataplane strict =
    let bf = load dir in
    if dataplane then ignore (Batfish.dataplane bf);
    print_answers [ Batfish.answer_diagnostics bf ];
    finish ~strict bf
  in
  Cmd.v
    (Cmd.info "diagnostics"
       ~doc:"Show structured pipeline diagnostics (skipped files, quarantined nodes, budgets)")
    Term.(const run $ dir_arg $ dataplane $ strict_arg)

(* --- dataplane --- *)

let dataplane_cmd =
  let run dir domains strict =
    let bf = load ~domains dir in
    let t0 = Unix.gettimeofday () in
    let dp = Batfish.dataplane bf in
    Printf.printf "data plane: %d nodes, %d routes, converged=%b, %d BGP rounds (%.2fs)\n"
      (List.length dp.Dataplane.node_order)
      (Dataplane.total_routes dp) dp.Dataplane.converged dp.Dataplane.rounds
      (Unix.gettimeofday () -. t0);
    List.iter
      (fun (node, reason) -> Printf.printf "quarantined: %s (%s)\n" node reason)
      dp.Dataplane.quarantined;
    print_newline ();
    print_answers [ Batfish.answer_bgp_status bf ];
    finish ~strict bf
  in
  Cmd.v (Cmd.info "dataplane" ~doc:"Generate the data plane and show session status")
    Term.(const run $ dir_arg $ domains_arg $ strict_arg)

(* --- routes --- *)

let routes_cmd =
  let node = Arg.(value & opt (some string) None & info [ "node" ] ~doc:"Limit to one node") in
  let proto = Arg.(value & opt (some string) None & info [ "protocol" ] ~doc:"Limit to a protocol") in
  let run dir node protocol strict =
    let bf = load dir in
    Option.iter (check_node bf) node;
    Option.iter
      (fun p ->
        if not (List.mem p known_protocols) then
          die "unknown protocol '%s' (one of: %s)" p (String.concat ", " known_protocols))
      protocol;
    print_answers [ Batfish.answer_routes ?node ?protocol bf ];
    finish ~strict bf
  in
  Cmd.v (Cmd.info "routes" ~doc:"Show main-RIB routes")
    Term.(const run $ dir_arg $ node $ proto $ strict_arg)

(* --- lint --- *)

let lint_cmd =
  let dir =
    Arg.(value & pos 0 (some dir) None
         & info [] ~docv:"CONFIG_DIR" ~doc:"Directory of configuration files")
  in
  let select =
    Arg.(value & opt (some string) None
         & info [ "select" ] ~docv:"PASSES"
             ~doc:"Comma-separated lint passes to run (by name or LINT0xx code)")
  in
  let ignore_ =
    Arg.(value & opt (some string) None
         & info [ "ignore" ] ~docv:"PASSES"
             ~doc:"Comma-separated lint passes to skip (by name or LINT0xx code)")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the machine-readable JSON report")
  in
  let fail_on =
    Arg.(value & opt (some string) None
         & info [ "fail-on" ] ~docv:"SEVERITY"
             ~doc:"Exit 2 if any finding is at or above SEVERITY (info|warn|error|fatal)")
  in
  let list_passes =
    Arg.(value & flag & info [ "list" ] ~doc:"List the registered passes and exit")
  in
  let strict =
    Arg.(value & flag
         & info [ "strict" ]
             ~doc:"CI gate: shorthand for --fail-on warn (any finding fails the run)")
  in
  let run dir base select ignore_ json fail_on strict list_passes domains =
    if list_passes then begin
      List.iter
        (fun (p : Lint.pass) ->
          let dc =
            if List.mem p.Lint.p_code Lint.dead_config_passes then
              "  [dead-config report]"
            else ""
          in
          Printf.printf "%s  %-22s %s%s\n" p.p_code p.p_name p.p_doc dc)
        Lint.passes;
      exit 0
    end;
    let dir =
      match dir with
      | Some d -> d
      | None -> die "CONFIG_DIR required (or use --list to show the passes)"
    in
    let bf =
      match base with
      | Some b -> load_snapshot_incremental ~domains ~base:b dir
      | None -> load ~domains dir
    in
    let split = Option.map (String.split_on_char ',') in
    match Batfish.lint ?select:(split select) ?ignore_passes:(split ignore_) bf with
    | Error msg -> die "%s (passes: %s)" msg (String.concat ", " Lint.pass_names)
    | Ok report ->
      print_string
        (if json then Lint.report_to_json report ^ "\n" else Lint.report_to_text report);
      let threshold =
        match fail_on with
        | Some s -> (
          match Diag.severity_of_string s with
          | Some sv -> Some sv
          | None -> die "unknown severity '%s' (info|warn|error|fatal)" s)
        | None -> if strict then Some Diag.Warn else None
      in
      (match threshold with
       | Some sv when Lint.count_at_least sv report > 0 -> exit 2
       | _ -> ())
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Run the static-analysis lint passes over a snapshot (no data plane computed)")
    Term.(const run $ dir $ base_arg $ select $ ignore_ $ json $ fail_on $ strict $ list_passes $ domains_arg)

(* --- coverage --- *)

let coverage_cmd =
  let json =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Emit the machine-readable JSON report")
  in
  let run dir base domains json strict =
    let bf =
      match base with
      | Some b -> load_update_incremental ~domains ~base:b dir
      | None -> load ~domains dir
    in
    let report = Batfish.coverage bf in
    print_string
      (if json then Coverage.report_to_json report
       else Coverage.report_to_text report);
    finish ~strict bf
  in
  Cmd.v
    (Cmd.info "coverage"
       ~doc:"Report which config source lines the query set exercises: \
             per-file covered/uncovered/dead lines plus the unified \
             dead-config report (lint dead lines and never-exercised lines \
             in one ranked view)")
    Term.(const run $ dir_arg $ base_arg $ domains_arg $ json $ strict_arg)

(* --- checks --- *)

let check_cmd =
  let run dir base domains strict =
    let bf =
      match base with
      | Some b ->
        (* full engine reuse so the report shows the route-delta counters
           (frontierSize, nodesConvergedEarly) alongside the hygiene checks *)
        load_update_incremental ~domains ~base:b dir
      | None -> load ~domains dir
    in
    print_answers (Batfish.check_all bf);
    finish ~strict bf
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Run the configuration-hygiene battery (references, duplicate IPs, BGP compatibility, consistency)")
    Term.(const run $ dir_arg $ base_arg $ domains_arg $ strict_arg)

(* --- trace --- *)

let trace_cmd =
  let start = Arg.(required & opt (some string) None & info [ "start" ] ~doc:"Start node") in
  let ingress = Arg.(value & opt (some string) None & info [ "ingress" ] ~doc:"Ingress interface") in
  let src = Arg.(required & opt (some string) None & info [ "src" ] ~doc:"Source IP") in
  let dst = Arg.(required & opt (some string) None & info [ "dst" ] ~doc:"Destination IP") in
  let dport = Arg.(value & opt int 80 & info [ "dport" ] ~doc:"Destination port") in
  let proto = Arg.(value & opt string "tcp" & info [ "proto" ] ~doc:"tcp | udp | icmp") in
  let run dir start ingress src dst dport proto =
    let bf = load dir in
    check_node bf start;
    let ip what s =
      match Ipv4.of_string_opt s with
      | Some ip -> ip
      | None -> die "bad %s address '%s'" what s
    in
    let src = ip "source" src and dst = ip "destination" dst in
    let pkt =
      match proto with
      | "udp" -> Packet.udp ~src ~dst dport
      | "icmp" -> Packet.icmp ~src ~dst ()
      | "tcp" -> Packet.tcp ~src ~dst dport
      | p -> die "unknown protocol '%s' (tcp | udp | icmp)" p
    in
    Printf.printf "traceroute %s from %s:\n" (Packet.to_string pkt) start;
    List.iter
      (fun tr -> print_endline (Traceroute.trace_to_string tr))
      (Batfish.traceroute bf ~start ?ingress pkt)
  in
  Cmd.v (Cmd.info "trace" ~doc:"Concrete traceroute through the computed data plane")
    Term.(const run $ dir_arg $ start $ ingress $ src $ dst $ dport $ proto)

(* --- reach --- *)

let reach_cmd =
  let src = Arg.(required & opt (some string) None & info [ "src" ] ~doc:"Start as NODE or NODE/IFACE") in
  let dst = Arg.(required & opt (some string) None & info [ "dst-prefix" ] ~doc:"Destination prefix") in
  let run dir src dst =
    let bf = load dir in
    let src =
      match String.index_opt src '/' with
      | Some i ->
        (String.sub src 0 i, Some (String.sub src (i + 1) (String.length src - i - 1)))
      | None -> (src, None)
    in
    check_node bf (fst src);
    let dst_ip =
      match Prefix.of_string_opt dst with
      | Some p -> p
      | None -> die "bad destination prefix '%s'" dst
    in
    print_answers [ Batfish.answer_reachability bf ~src ~dst_ip () ]
  in
  Cmd.v (Cmd.info "reach" ~doc:"Symbolic reachability with examples")
    Term.(const run $ dir_arg $ src $ dst)

(* --- verify (multipath + loops) --- *)

let verify_cmd =
  let all_pairs =
    Arg.(value & flag
         & info [ "all-pairs" ]
             ~doc:"Also run all-pairs reachability (one forward pass per edge \
                   interface, fanned across --domains workers)")
  in
  let failures =
    Arg.(value & opt int 0
         & info [ "failures" ] ~docv:"K"
             ~doc:"Also verify reachability under every failure scenario of \
                   up to $(docv) (1 or 2) simultaneous link/node failures: \
                   symmetric scenarios are pruned by forwarding-atom \
                   equivalence and the rest re-simulated warm from the base \
                   fixed point")
  in
  let run dir base domains all_pairs failures =
    if failures < 0 || failures > 2 then
      die "--failures supports k = 1 (single failures) or k = 2 (double failures)";
    let bf =
      match base with
      | Some b -> load_update_incremental ~domains ~base:b dir
      | None -> load ~domains dir
    in
    print_answers
      ([ Batfish.answer_multipath_consistency bf; Batfish.answer_loops bf ]
      @ (if all_pairs then [ Batfish.answer_all_pairs bf ] else []));
    if failures > 0 then begin
      let report, answers = Batfish.answer_failures ~k:failures bf in
      print_answers answers;
      List.iter
        (fun (sc, why) ->
          Printf.printf "inconclusive: %s: %s\n" (Failures.scenario_to_string sc) why)
        report.Failures.rp_inconclusive
    end;
    (* Engine counters for CI logs, on stderr so that stdout holds only the
       answers: op-cache health of the main manager, session-pool usage,
       and worker-resident graph reuse. *)
    (match Batfish.try_forwarding bf with
     | Error _ -> ()
     | Ok fq ->
       let cs = Bdd.cache_stats (Pktset.man (Fquery.env fq)) in
       let lookups = cs.Bdd.cs_hits + cs.Bdd.cs_misses in
       Printf.eprintf
         "bdd op-cache: %d/%d lookups hit (%.1f%%), %d/%d entries filled (%.1f%%)\n"
         cs.Bdd.cs_hits lookups
         (if lookups = 0 then 0.0
          else 100.0 *. float_of_int cs.Bdd.cs_hits /. float_of_int lookups)
         cs.Bdd.cs_filled cs.Bdd.cs_entries
         (if cs.Bdd.cs_entries = 0 then 0.0
          else
            100.0 *. float_of_int cs.Bdd.cs_filled
            /. float_of_int cs.Bdd.cs_entries));
    (match Batfish.pool_stats bf with
     | None -> ()
     | Some (workers, jobs) ->
       let imports, reuses = Fpar.worker_stats () in
       Printf.eprintf
         "worker pool: %d workers, %d jobs; graphs imported %d, reused warm %d\n"
         workers jobs imports reuses);
    Batfish.shutdown bf
  in
  Cmd.v (Cmd.info "verify" ~doc:"Multipath consistency and loop detection")
    Term.(
      const run $ dir_arg $ base_arg $ domains_arg $ all_pairs $ failures)

(* --- serve: analysis as a service --- *)

let serve_cmd =
  let socket =
    Arg.(value & opt string "/tmp/batfish.sock"
         & info [ "socket" ] ~docv:"PATH"
             ~doc:"Unix-domain socket to listen on (replaced if it exists)")
  in
  let tcp =
    Arg.(value & opt (some int) None
         & info [ "tcp" ] ~docv:"PORT"
             ~doc:"Also listen on localhost:$(docv) (same protocol)")
  in
  let preload =
    Arg.(value & opt_all dir []
         & info [ "preload" ] ~docv:"CONFIG_DIR"
             ~doc:"Load this snapshot at startup (repeatable); its forwarding \
                   graph is imported into every worker before the first \
                   client query, so cold-start latency is paid here, not in \
                   a request")
  in
  let serve_domains =
    Arg.(value & opt domains_conv `Auto
         & info [ "domains" ] ~docv:"DOMAINS"
             ~doc:"Worker domains for the shared session pool (default \
                   'auto': machine-appropriate count with the adaptive \
                   serial fallback)")
  in
  let max_snapshots =
    Arg.(value & opt (some int) None
         & info [ "max-snapshots" ] ~docv:"N"
             ~doc:"Keep at most $(docv) snapshots loaded: registering one \
                   past the bound evicts the least recently queried snapshot \
                   (eviction counts appear under 'stats'). Unbounded by \
                   default.")
  in
  let run socket tcp preload domains max_snapshots =
    let domains, auto = resolve_domains domains in
    let svc = Service.create ~domains ~auto ?max_snapshots () in
    List.iter
      (fun dir ->
        let files, _ = Batfish.Snapshot.read_dir dir in
        let fp = Service.load_files svc files in
        Printf.printf "preloaded %s as %s (%d files)\n%!" dir fp
          (List.length files))
      preload;
    Printf.printf "serving on %s%s (%d worker domain%s); SIGINT/SIGTERM to stop\n%!"
      socket
      (match tcp with Some p -> Printf.sprintf " and localhost:%d" p | None -> "")
      domains
      (if domains = 1 then "" else "s");
    Service.serve ?tcp_port:tcp ~socket svc;
    let s = Service.stats svc in
    Printf.printf
      "served %d request(s): %d computed, %d coalesced, %d error(s), %d \
       snapshot(s) live, %d evicted\n"
      s.Service.st_requests s.Service.st_computed s.Service.st_coalesced
      s.Service.st_errors s.Service.st_snapshots s.Service.st_evictions
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Long-lived analysis daemon: newline-delimited JSON requests \
             over a Unix-domain (and optional TCP) socket, sharing parsed \
             snapshots, data planes and warm worker caches across clients")
    Term.(
      const run $ socket $ tcp $ preload $ serve_domains $ max_snapshots)

(* --- netgen --- *)

let netgen_cmd =
  let profile =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"PROFILE"
           ~doc:"NET1..NET13, or clos/enterprise/wan/campus")
  in
  let out = Arg.(required & opt (some string) None & info [ "out" ] ~doc:"Output directory") in
  let scale = Arg.(value & opt float 1.0 & info [ "scale" ] ~doc:"Size multiplier") in
  let run profile out scale =
    let net =
      match List.find_opt (fun (p : Netgen.profile) -> p.Netgen.p_name = profile) Netgen.profiles with
      | Some p -> p.p_make scale
      | None -> (
        match profile with
        | "clos" -> Netgen.clos ~name:"clos" ~spines:4 ~leaves:(int_of_float (8.0 *. scale)) ()
        | "enterprise" -> Netgen.enterprise ~name:"ent" ~sites:(int_of_float (8.0 *. scale)) ()
        | "wan" -> Netgen.wan ~name:"wan" ~pops:(int_of_float (16.0 *. scale)) ()
        | "campus" -> Netgen.campus ~name:"campus" ~buildings:(int_of_float (8.0 *. scale)) ()
        | p ->
          die "unknown profile '%s' (NET1..NET13, clos, enterprise, wan, campus)" p)
    in
    if not (Sys.file_exists out) then Sys.mkdir out 0o755;
    List.iter
      (fun (name, text) ->
        let oc = open_out (Filename.concat out name) in
        output_string oc text;
        close_out oc)
      net.Netgen.n_configs;
    Printf.printf "wrote %d configs (%d lines) to %s\n" (Netgen.device_count net)
      (Netgen.config_lines net) out
  in
  Cmd.v (Cmd.info "netgen" ~doc:"Generate a synthetic network's configurations")
    Term.(const run $ profile $ out $ scale)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default
          (Cmd.info "batfish_cli" ~version:"1.0"
             ~doc:"Configuration analysis: parse, simulate, verify")
          [ parse_cmd; diagnostics_cmd; dataplane_cmd; routes_cmd; lint_cmd; coverage_cmd;
            check_cmd; trace_cmd; reach_cmd; verify_cmd; serve_cmd; netgen_cmd ]))
