module Snapshot = struct
  (* One input file with its content fingerprint and (possibly reused) parse
     outcome. Parsing is deterministic in the file text, so (name, digest)
     fully keys the result: an unchanged file re-uses the base snapshot's
     parsed model without touching the parser (ISSUE 4). *)
  type parsed_file = {
    pf_name : string;
    pf_digest : string;  (* content fingerprint (MD5 hex of the raw text) *)
    pf_result : (Vi.t * Diag.t list, Diag.t) result;
  }

  type t = {
    files : (string * string) list;
    entries : parsed_file list;  (* one per input file, in file order *)
    all_parsed : (string * Vi.t) list;  (* every parsed file, pre-dedup *)
    parsed : (Vi.t * Diag.t list) list;
    by_name : (string, Vi.t) Hashtbl.t;
    diags : Diag.t list;
    reparsed : int;  (* files actually run through the parser *)
  }

  let fingerprint text = Digest.to_hex (Digest.string text)

  (* Per-file isolation: a parser crash on one file (truncated, binary
     garbage) becomes a Fatal diag; the rest of the snapshot still loads. *)
  let parse_one fname text =
    match Parse.parse_config text with
    | cfg, warns -> Ok (cfg, List.map (fun w -> Diag.set_file w fname) warns)
    | exception exn ->
      Error
        (Diag.fatal ~file:fname ~phase:Diag.Parse ~code:Diag.code_parse_crash
           (Printf.sprintf "parser raised: %s" (Printexc.to_string exn)))

  let of_texts ?(diags = []) ?base files =
    let reuse =
      match base with
      | None -> fun _ _ -> None
      | Some b ->
        let tbl = Hashtbl.create 64 in
        List.iter
          (fun pf -> Hashtbl.replace tbl (pf.pf_name, pf.pf_digest) pf.pf_result)
          b.entries;
        fun name digest -> Hashtbl.find_opt tbl (name, digest)
    in
    let reparsed = ref 0 in
    let entries =
      List.map
        (fun (fname, text) ->
          let digest = fingerprint text in
          let result =
            match reuse fname digest with
            | Some r -> r
            | None ->
              incr reparsed;
              parse_one fname text
          in
          { pf_name = fname; pf_digest = digest; pf_result = result })
        files
    in
    (* Replay diagnostics in file order, exactly as a base-less parse would
       produce them (reused results carry their original diags). *)
    let c = Diag.collector () in
    Diag.add_all c diags;
    let parsed =
      List.filter_map
        (fun pf ->
          match pf.pf_result with
          | Ok (cfg, warns) ->
            List.iter (Diag.add c) warns;
            Some (pf.pf_name, (cfg, warns))
          | Error d ->
            Diag.add c d;
            None)
        entries
    in
    let all_parsed = List.map (fun (fname, (cfg, _)) -> (fname, cfg)) parsed in
    (* Duplicate hostnames are deterministic first-wins, with an Error diag
       for every shadowed config. *)
    let by_name = Hashtbl.create 64 in
    let parsed =
      List.filter_map
        (fun (fname, ((cfg : Vi.t), warns)) ->
          if Hashtbl.mem by_name cfg.hostname then begin
            Diag.add c
              (Diag.error ~node:cfg.hostname ~file:fname ~phase:Diag.Convert
                 ~code:Diag.code_duplicate_hostname
                 (Printf.sprintf
                    "hostname '%s' defined by more than one file; keeping the first"
                    cfg.hostname));
            None
          end
          else begin
            Hashtbl.add by_name cfg.hostname cfg;
            Some (cfg, warns)
          end)
        parsed
    in
    { files; entries; all_parsed; parsed; by_name; diags = Diag.to_list c;
      reparsed = !reparsed }

  (* Read every regular file of a directory; returns the texts plus the
     diagnostics of everything skipped or unreadable. *)
  let read_dir dir =
    let c = Diag.collector () in
    let entries = Sys.readdir dir in
    Array.sort compare entries;
    let files =
      Array.to_list entries
      |> List.filter_map (fun name ->
             let path = Filename.concat dir name in
             if String.length name > 0 && name.[0] = '.' then begin
               Diag.add c
                 (Diag.info ~file:name ~phase:Diag.Parse ~code:Diag.code_skipped_file
                    "skipped dotfile");
               None
             end
             else
               match
                 if Sys.is_directory path then None
                 else begin
                   let ic = open_in_bin path in
                   let len = in_channel_length ic in
                   let text = really_input_string ic len in
                   close_in ic;
                   Some (name, text)
                 end
               with
               | v -> v
               | exception exn ->
                 Diag.add c
                   (Diag.error ~file:name ~phase:Diag.Parse
                      ~code:Diag.code_unreadable_file
                      (Printf.sprintf "unreadable file: %s" (Printexc.to_string exn)));
                 None)
    in
    (files, Diag.to_list c)

  let of_dir dir =
    let files, diags = read_dir dir in
    of_texts ~diags files

  let of_network (n : Netgen.network) = of_texts n.n_configs
  let configs t = List.map fst t.parsed
  let parsed_files t = t.all_parsed
  let parse_warnings t = t.parsed
  let diags t = t.diags
  let find t name = Hashtbl.find_opt t.by_name name
  let node_names t = List.map (fun (c : Vi.t) -> c.Vi.hostname) (configs t)
  let files t = t.files
  let fingerprints t = List.map (fun pf -> (pf.pf_name, pf.pf_digest)) t.entries
  let reparsed t = t.reparsed

  (* Hostnames whose vendor-independent model differs between [base] and [t]
     (added or removed hostnames included). The comparison is structural on
     the derived [Vi.t] with source-line provenance stripped — a cosmetic
     edit (comments, whitespace, line shifts) that parses to the same
     semantic model reports no change — with a physical-equality fast path
     for fingerprint-reused parses. *)
  let changed_nodes ~base t =
    let changed = ref [] in
    Hashtbl.iter
      (fun name cfg ->
        match Hashtbl.find_opt base.by_name name with
        | Some bcfg
          when bcfg == cfg
               || Vi.strip_provenance bcfg = Vi.strip_provenance cfg -> ()
        | Some _ | None -> changed := name :: !changed)
      t.by_name;
    Hashtbl.iter
      (fun name _ ->
        if not (Hashtbl.mem t.by_name name) then changed := name :: !changed)
      base.by_name;
    List.sort_uniq compare !changed
end

type t = {
  snap : Snapshot.t;
  env : Dp_env.t;
  options : Dataplane.options;
  auto_domains : bool;
  mutable pool : Par.Pool.t option;
  mutable dp : Dataplane.t option;
  mutable fq : Fquery.t option;
  mutable extra_diags : Diag.t list;  (* newest first *)
}

let init ?(options = Dataplane.default_options) ?(env = Dp_env.empty)
    ?(auto_domains = false) snap =
  { snap; env; options; auto_domains;
    pool = options.Dataplane.pool; dp = None; fq = None; extra_diags = [] }

let snapshot t = t.snap

(* One persistent worker pool per session, created lazily the first time a
   parallel phase runs and reused by every later one (dataplane rounds,
   query fan-out, lint), so worker-resident BDD state stays warm across the
   whole session. Sessions derived by [update] share their base's pool. *)
let session_pool t =
  match t.pool with
  | Some p when not (Par.Pool.closed p) -> Some p
  | _ ->
    if t.options.Dataplane.domains > 1 then begin
      let p = Par.Pool.create ~domains:t.options.Dataplane.domains () in
      t.pool <- Some p;
      Some p
    end
    else None

let shutdown t =
  match t.pool with
  | Some p -> Par.Pool.shutdown p
  | None -> ()

let pool_stats t =
  match t.pool with
  | Some p when not (Par.Pool.closed p) ->
    Some (Par.Pool.size p, Par.Pool.jobs_run p)
  | _ -> None

let effective_options t =
  { t.options with Dataplane.pool = session_pool t }

let dataplane t =
  match t.dp with
  | Some dp -> dp
  | None ->
    let dp =
      Dataplane.compute ~options:(effective_options t) ~env:t.env
        (Snapshot.configs t.snap)
    in
    t.dp <- Some dp;
    dp

let try_forwarding t =
  match t.fq with
  | Some fq -> Ok fq
  | None -> (
    match
      Fquery.make_checked ~configs:(Snapshot.find t.snap) ~dp:(dataplane t) ()
    with
    | Ok fq ->
      t.fq <- Some fq;
      Ok fq
    | Error d ->
      t.extra_diags <- d :: t.extra_diags;
      Error d)

let forwarding t =
  match try_forwarding t with
  | Ok fq -> fq
  | Error d -> failwith (Diag.to_string d)

(* Snapshot identity without parsing: the digest of the per-file content
   fingerprints in file order. Two sessions loaded from byte-identical file
   sets share it, which is what lets a long-lived service dedup snapshots
   across clients before doing any work. *)
let fingerprint t =
  let buf = Buffer.create 256 in
  List.iter
    (fun (name, md5) ->
      Buffer.add_string buf name;
      Buffer.add_char buf '\000';
      Buffer.add_string buf md5;
      Buffer.add_char buf '\000')
    (Snapshot.fingerprints t.snap);
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Ship this session's forwarding graph to every resident pool worker now,
   so the first parallel query pays no per-worker import inside its own
   latency (the cold-path inversion). Forces the data plane and forwarding
   graph; returns workers warmed (0 when single-domain or when forwarding
   cannot be built). *)
let prewarm t =
  match try_forwarding t with
  | Error _ -> 0
  | Ok fq -> Fpar.prewarm ?pool:(session_pool t) fq

(* (hits, misses) of the forwarding query memo, without forcing anything:
   [None] until the forwarding engine has been built. *)
let memo_stats t = Option.map Fquery.memo_stats t.fq

(* Every diagnostic the pipeline has produced so far. The data plane's are
   included only once it has been computed; nothing here forces it. *)
let diags t =
  Snapshot.diags t.snap
  @ (match t.dp with
    | Some dp -> dp.Dataplane.diags
    | None -> [])
  @ List.rev t.extra_diags

let strict_failure t =
  Diag.severity_rank (Diag.max_severity (diags t)) >= Diag.severity_rank Diag.Error

let traceroute t ~start ?ingress pkt =
  Traceroute.run ~configs:(Snapshot.find t.snap) ~dp:(dataplane t) ~start ?ingress pkt

let answer_init_issues t = Questions.init_issues (Snapshot.parse_warnings t.snap)
let answer_diagnostics t = Questions.diagnostics (diags t)
let answer_undefined_references t = Questions.undefined_references (Snapshot.configs t.snap)
let answer_unused_structures t = Questions.unused_structures (Snapshot.configs t.snap)
let answer_duplicate_ips t = Questions.duplicate_ips (Snapshot.configs t.snap)
let answer_bgp_compatibility t = Questions.bgp_session_compatibility (Snapshot.configs t.snap)
let answer_bgp_status t = Questions.bgp_session_status (dataplane t)
let answer_property_consistency t = Questions.property_consistency (Snapshot.configs t.snap)
let answer_routes ?node ?protocol t = Questions.routes ?node ?protocol (dataplane t)

(* Symbolic queries inherit the session's [options.domains]: the same knob
   that parallelizes route exchange shards the verification engine. They run
   on the session pool (warm worker-resident graphs) and honor [auto_domains]
   (adaptive serial fallback for small queries). *)
let answer_multipath_consistency t =
  Questions.multipath_consistency ?pool:(session_pool t)
    ~domains:t.options.Dataplane.domains ~auto:t.auto_domains (forwarding t)

let answer_all_pairs t =
  Questions.all_pairs_reachability ?pool:(session_pool t)
    ~domains:t.options.Dataplane.domains ~auto:t.auto_domains (forwarding t)

let answer_loops t = Questions.detect_loops (forwarding t)

(* Failure-scenario sweep (ISSUE 6). The report's sweep diags (inconclusive
   scenarios, disabled pruning) are folded into the session's diagnostics so
   [diags]/[strict_failure] and the CLI see them. *)
let failure_report ?(k = 1) ?max_properties ?prune t =
  let report =
    Failures.run ?pool:(session_pool t) ~domains:t.options.Dataplane.domains
      ?max_properties ?prune ~k ~options:(effective_options t) ~env:t.env
      ~configs_list:(Snapshot.configs t.snap) ~find:(Snapshot.find t.snap)
      ~base_dp:(dataplane t) ~base_fq:(forwarding t) ()
  in
  t.extra_diags <- List.rev_append report.Failures.rp_diags t.extra_diags;
  report

let answer_failures ?k ?max_properties ?prune t =
  let report = failure_report ?k ?max_properties ?prune t in
  (report, [ Questions.failure_summary report; Questions.failure_verification report ])

let answer_reachability t ~src ~dst_ip ?hdr () =
  Questions.reachability (forwarding t) ~src ~dst_ip ?hdr ()

(* --- configuration coverage over this snapshot --- *)

(* Coverage degrades gracefully: a snapshot whose data plane or forwarding
   graph cannot be built still gets the purely static report (dead lines
   from the shared lint analyses; everything live marked uncovered) instead
   of an exception — the chaos harness relies on this. *)
let coverage t =
  let dp = try Some (dataplane t) with _ -> None in
  let q =
    match dp with
    | None -> None
    | Some _ -> (
      try match try_forwarding t with Ok q -> Some q | Error _ -> None
      with _ -> None)
  in
  Coverage.analyze ~domains:t.options.Dataplane.domains
    ?pool:(session_pool t) ?dp ?q
    ~files:(Snapshot.parsed_files t.snap)
    (Snapshot.configs t.snap)

let answer_coverage t =
  let r = coverage t in
  let total_row =
    [ "TOTAL"; string_of_int r.Coverage.cov_covered;
      string_of_int r.Coverage.cov_uncovered;
      string_of_int r.Coverage.cov_dead;
      Printf.sprintf "%d/%d" r.Coverage.cov_attributed r.Coverage.cov_total ]
  in
  { Questions.a_title = "coverage";
    a_header = [ "File"; "Covered"; "Uncovered"; "Dead"; "Attributed" ];
    a_rows =
      List.map
        (fun (fc : Coverage.file_cov) ->
          [ fc.fc_file;
            string_of_int (List.length fc.fc_covered);
            string_of_int (List.length fc.fc_uncovered);
            string_of_int (List.length fc.fc_dead); "" ])
        r.Coverage.cov_files
      @ [ total_row ] }

(* --- the lint registry over this snapshot --- *)

let lint_ctx t =
  Lint.make_ctx ~files:(Snapshot.parsed_files t.snap)
    ~domains:t.options.Dataplane.domains ?pool:(session_pool t)
    (Snapshot.configs t.snap)

let lint ?select ?ignore_passes t = Lint.run ?select ?ignore_passes (lint_ctx t)
let lint_all t = Lint.run_passes (lint_ctx t) Lint.passes
let answer_lint t = Questions.lint (lint_all t)

let check_all t =
  [ answer_init_issues t; answer_undefined_references t; answer_unused_structures t;
    answer_duplicate_ips t; answer_bgp_compatibility t; answer_property_consistency t;
    answer_lint t; answer_bgp_status t ]

(* --- incremental snapshot analysis (ISSUE 4 tentpole) --- *)

type update_report = {
  up_files_changed : int;  (* added + removed + content-changed files *)
  up_files_reparsed : int;  (* files actually run through the parser *)
  up_nodes_changed : string list;  (* hosts whose VI model differs *)
  up_components : int;
  up_dirty_components : int;
  up_nodes_simulated : int;
  up_nodes_reused : int;
  up_frontier_size : int;  (* nodes the route-delta worklist re-simulated *)
  up_nodes_converged_early : int;  (* frontier nodes identical to the base *)
  up_forwarding_rebuilt : bool;
  up_memo_invalidated : int;
}

let update ?(removed = []) ?(diags = []) ~files t =
  (* New file list: base order for retained names (edits replace in place),
     genuinely new files appended in the order given. *)
  let replace = Hashtbl.create 16 in
  List.iter (fun (n, txt) -> Hashtbl.replace replace n txt) files;
  let kept =
    List.filter_map
      (fun (n, txt) ->
        if List.mem n removed then None
        else
          match Hashtbl.find_opt replace n with
          | Some txt' ->
            Hashtbl.remove replace n;
            Some (n, txt')
          | None -> Some (n, txt))
      (Snapshot.files t.snap)
  in
  let fresh = List.filter (fun (n, _) -> Hashtbl.mem replace n) files in
  let new_files = kept @ fresh in
  let snap' = Snapshot.of_texts ~diags ~base:t.snap new_files in
  let files_changed =
    let base_fp = Hashtbl.create 64 in
    List.iter
      (fun (n, d) -> Hashtbl.replace base_fp n d)
      (Snapshot.fingerprints t.snap);
    let changed = ref 0 in
    List.iter
      (fun (n, d) ->
        (match Hashtbl.find_opt base_fp n with
         | Some bd when bd = d -> ()
         | Some _ | None -> incr changed);
        Hashtbl.remove base_fp n)
      (Snapshot.fingerprints snap');
    !changed + Hashtbl.length base_fp
  in
  let changed = Snapshot.changed_nodes ~base:t.snap snap' in
  if changed = [] && Snapshot.node_names snap' = Snapshot.node_names t.snap then
    (* Cosmetic change only: every derived artifact — data plane, forwarding
       graph, query memo — carries over untouched. *)
    let reused =
      match t.dp with
      | Some dp -> List.length dp.Dataplane.node_order
      | None -> 0
    in
    ( { snap = snap'; env = t.env; options = t.options;
        auto_domains = t.auto_domains; pool = t.pool;
        dp = t.dp; fq = t.fq; extra_diags = t.extra_diags },
      { up_files_changed = files_changed;
        up_files_reparsed = Snapshot.reparsed snap';
        up_nodes_changed = [];
        up_components =
          (match t.dp with
           | Some dp -> dp.Dataplane.stats.Dataplane.st_components
           | None -> 0);
        up_dirty_components = 0;
        up_nodes_simulated = 0;
        up_nodes_reused = reused;
        up_frontier_size = 0;
        up_nodes_converged_early = 0;
        up_forwarding_rebuilt = false;
        up_memo_invalidated = 0 } )
  else begin
    let base_dp = dataplane t in
    let dp' =
      Dataplane.update ~options:(effective_options t) ~env:t.env ~base:base_dp
        ~changed (Snapshot.configs snap')
    in
    let stats = dp'.Dataplane.stats in
    let fq', rebuilt, invalidated =
      match t.fq with
      | None -> (None, false, 0)
      | Some q ->
        let q', inval =
          Fquery.update ~base:q ~dirty:changed ~configs:(Snapshot.find snap')
            ~dp:dp' ()
        in
        (* [Fquery.update] keeps the base graph object exactly when the edit
           left forwarding untouched — physical graph identity is the
           "rebuilt" signal. *)
        (Some q', not (Fquery.graph q' == Fquery.graph q), inval)
    in
    ( { snap = snap'; env = t.env; options = t.options;
        auto_domains = t.auto_domains; pool = t.pool;
        dp = Some dp'; fq = fq'; extra_diags = [] },
      { up_files_changed = files_changed;
        up_files_reparsed = Snapshot.reparsed snap';
        up_nodes_changed = changed;
        up_components = stats.Dataplane.st_components;
        up_dirty_components = stats.Dataplane.st_dirty_components;
        up_nodes_simulated = stats.Dataplane.st_simulated_nodes;
        up_nodes_reused = stats.Dataplane.st_reused_nodes;
        up_frontier_size = stats.Dataplane.st_frontier_nodes;
        up_nodes_converged_early = stats.Dataplane.st_converged_early;
        up_forwarding_rebuilt = rebuilt;
        up_memo_invalidated = invalidated } )
  end

let answer_update_report (r : update_report) =
  Questions.incremental_update ~files_changed:r.up_files_changed
    ~files_reparsed:r.up_files_reparsed ~nodes_changed:r.up_nodes_changed
    ~components:r.up_components ~dirty_components:r.up_dirty_components
    ~nodes_simulated:r.up_nodes_simulated ~nodes_reused:r.up_nodes_reused
    ~frontier_size:r.up_frontier_size
    ~nodes_converged_early:r.up_nodes_converged_early
    ~forwarding_rebuilt:r.up_forwarding_rebuilt
    ~memo_invalidated:r.up_memo_invalidated

let differential ~base ~candidate ?srcs () =
  let env = Pktset.create () in
  let qb =
    Fquery.make ~env ~configs:(Snapshot.find base.snap) ~dp:(dataplane base) ()
  in
  let qc =
    Fquery.make ~env ~configs:(Snapshot.find candidate.snap) ~dp:(dataplane candidate) ()
  in
  let srcs =
    match srcs with
    | Some s -> s
    | None ->
      List.map (fun (n, i) -> (n, Some i)) (Fgraph.edge_interfaces qb.Fquery.g ~dp:(dataplane base))
  in
  Questions.differential_reachability qb qc ~srcs

(* §4.3.2: cross-validate the two forwarding engines on this snapshot. *)
let differential_engine_test ?(flows_per_location = 4) t =
  let q = forwarding t in
  let e = Fquery.env q in
  let man = Pktset.man e in
  let dp = dataplane t in
  let deliver = Fquery.to_delivered q () in
  let drop = Fquery.to_dropped q () in
  let checked = ref 0 in
  let slices =
    (* distinct header slices so the representatives differ *)
    [ Bdd.top;
      Pktset.value e Field.Protocol Packet.Proto.tcp;
      Pktset.value e Field.Protocol Packet.Proto.udp;
      Pktset.value e Field.Protocol Packet.Proto.icmp;
      Pktset.range e Field.Dst_port 0 1023 ]
  in
  let starts = Fgraph.edge_interfaces q.Fquery.g ~dp in
  List.iter
    (fun (node, iface) ->
      match Fgraph.loc_id q.Fquery.g (Fgraph.Src (node, iface)) with
      | None -> ()
      | Some id ->
        let verify set expect_delivered =
          match Pktset.to_packet e ~prefs:(Pktset.standard_prefs e ()) set with
          | None -> ()
          | Some pkt ->
            incr checked;
            let traces =
              Traceroute.run ~configs:(Snapshot.find t.snap) ~dp ~start:node ~ingress:iface pkt
            in
            let delivered =
              List.exists
                (fun (tr : Traceroute.trace) -> Traceroute.is_delivered tr.disposition)
                traces
            in
            if delivered <> expect_delivered then
              failwith
                (Printf.sprintf
                   "engine disagreement at %s[%s] for %s: symbolic=%s traceroute=%s" node
                   iface (Packet.to_string pkt)
                   (if expect_delivered then "delivered" else "dropped")
                   (if delivered then "delivered" else "dropped"));
            (* The final packet must be the last hop's post-NAT packet (the
               ISSUE 4 traceroute bugfix), and on delivered paths it must lie
               in the symbolic engine's post-transformation delivered image. *)
            List.iter
              (fun (tr : Traceroute.trace) ->
                match List.rev tr.Traceroute.hops with
                | [] -> ()
                | last :: _ ->
                  if tr.final_packet <> last.Traceroute.h_packet then
                    failwith
                      (Printf.sprintf
                         "traceroute final_packet disagrees with last hop at %s[%s]: %s vs %s"
                         node iface
                         (Packet.to_string tr.final_packet)
                         (Packet.to_string last.Traceroute.h_packet)))
              traces;
            if delivered then begin
              let fwd =
                Fquery.forward_from q ~hdr:(Pktset.of_packet e pkt) [ (node, Some iface) ]
              in
              (* Delivered sets carry the query-local extra bits (zone /
                 session marks set along the path); strip them before the
                 concrete membership test, which evaluates extras as zero. *)
              let image = Pktset.strip_extras e (Fquery.delivered_union q fwd) in
              List.iter
                (fun (tr : Traceroute.trace) ->
                  if
                    Traceroute.is_delivered tr.disposition
                    && not (Pktset.mem e image tr.final_packet)
                  then
                    failwith
                      (Printf.sprintf
                         "engine disagreement at %s[%s]: traceroute final packet %s \
                          is outside the symbolic delivered image for %s"
                         node iface
                         (Packet.to_string tr.final_packet)
                         (Packet.to_string pkt)))
                traces
            end
        in
        let rec take k = function
          | [] -> ()
          | slice :: rest ->
            if k > 0 then begin
              let base = Bdd.band man (Fquery.clean q) slice in
              verify (Bdd.band man base (Bdd.bdiff man deliver.(id) drop.(id))) true;
              verify (Bdd.band man base (Bdd.bdiff man drop.(id) deliver.(id))) false;
              take (k - 1) rest
            end
        in
        take (max 1 (flows_per_location / 2)) slices)
    starts;
  !checked
