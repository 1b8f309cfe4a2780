(* Layer-attributed pipeline benchmark.

   One process runs one workload over a fixed, seeded op list and prints one
   JSON result line on stdout (progress goes to stderr). perfbench/run.py
   builds this program and relays that line; perfbench/README.md documents
   the workloads, the metrics and why a run is shaped the way it is.

     pb.exe --workload edit-stream --seed 1 --seconds 10 --trace 0

   Shape of a run, the same for every workload:
   - inputs (config texts, edits, request lists) are generated from the seed
     before anything is timed; the program only ever sees generated text;
   - the run is [timed_rounds] rounds, each a timed set-up (ending with
     discarded warm-up ops), a full major GC and a timed pass over the same
     fixed op list (closed loop, one op at a time per client); every round
     starts from freshly built state, so each op does the same work in every
     round, and an op's latency is its least over the rounds: a slow phase
     of the host, which can last several seconds, then has to cover the same
     op in every round to show;
   - every round must give every op the same answers;
   - peak RSS is read right after each pass, before any check;
   - every correctness check runs after the last pass; then the remaining
     set-up-only rounds run; setup_s is the median of all set-up rounds;
   - a fixed integer loop ([spin_ms]) runs before and after, so host-speed
     drift can be told apart from a program change.

   With --trace 1 the run then sets up once more and runs the same op list
   with spans recorded around every call into a layer's public functions. *)

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10
let trace = ref 0
let cli = ref "_build/default/bin/batfish_cli.exe"
let out_dir = ref ".perfbench"
let digest_dir = ref "perfbench/digests"
let record_digests = ref false

(* The seed whose per-op digests are committed under perfbench/digests. *)
let default_seed = 1

(* Rounds per workload, as (timed rounds, set-up-only rounds after the
   checks). Each timed round is a set-up and a pass; the set-up-only rounds
   bring the set-ups timed for setup_s to at least three, or five where a
   set-up is cheap (edit-stream's mid-pass rebuilds are set-ups too). Two
   timed rounds where a round's untimed work costs most: edit-stream's
   set-up and mid-pass rebuild take ~3 s per round. *)
let rounds = function
  | "cold-snapshot" -> (3, 2)
  | "edit-stream" -> (2, 0)
  | "failure-sweep" -> (2, 3)
  | "daemon-queries" -> (3, 0)
  | w -> failwith ("unknown workload " ^ w)

let log fmt = Printf.eprintf (fmt ^^ "\n%!")

(* ------------------------------------------------------------------ *)
(* Spans and counters                                                  *)
(* ------------------------------------------------------------------ *)

type span = {
  sp_id : int;
  sp_parent : int;  (** 0 for an op's root span *)
  sp_op : int;
  sp_name : string;
  sp_t0 : float;
  sp_t1 : float;
}

let tracing = ref false
let spans : span list ref = ref []
let span_lock = Mutex.create ()
let next_id = ref 0
let parent = ref 0
let cur_op = ref (-1)

let fresh_id () = Mutex.protect span_lock (fun () -> incr next_id; !next_id)
let push_span s = Mutex.protect span_lock (fun () -> spans := s :: !spans)

(* Time [f] as layer [name], nested under the innermost open span of the
   current op. A no-op wrapper when tracing is off. Single-threaded use
   only; the daemon clients record their spans with [push_span]. *)
let span name f =
  if not !tracing then f ()
  else begin
    let id = fresh_id () and p = !parent and op = !cur_op in
    parent := id;
    let t0 = now () in
    let finish () =
      push_span
        { sp_id = id; sp_parent = p; sp_op = op; sp_name = name; sp_t0 = t0;
          sp_t1 = now () };
      parent := p
    in
    match f () with
    | r -> finish (); r
    | exception e -> finish (); raise e
  end

(* ------------------------------------------------------------------ *)
(* Small helpers                                                       *)
(* ------------------------------------------------------------------ *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

let median a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then 0.0
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(* The highest percentile with at least ten samples beyond it: the sample
   with exactly ten larger ones, i.e. percentile 100 * (n - 10) / n. *)
let tail a =
  let s = sorted a in
  let n = Array.length s in
  s.(max 0 (n - 11))

let tail_percentile n = 100.0 *. float_of_int (max 0 (n - 10)) /. float_of_int n

(* VmHWM of a process, in MB (0 when /proc is unavailable). *)
let peak_rss_mb pid =
  let path =
    match pid with None -> "/proc/self/status" | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  match open_in path with
  | exception Sys_error _ -> 0.0
  | ic ->
    let rec scan acc =
      match input_line ic with
      | line -> (
        match Scanf.sscanf_opt line "VmHWM: %d kB" (fun v -> v) with
        | Some v -> scan v
        | None -> scan acc)
      | exception End_of_file -> acc
    in
    let kb = scan 0 in
    close_in ic;
    float_of_int kb /. 1024.0

(* Host-speed probe: a fixed integer loop; only the host's speed moves it. *)
let spin_ms () =
  let t0 = now () in
  let x = ref 0 in
  for i = 1 to 20_000_000 do
    x := ((!x * 31) + i) land 0x3FFFFFFF
  done;
  ignore (Sys.opaque_identity !x);
  (now () -. t0) *. 1000.0

(* Host memory probe: a fixed pointer chase around one random cycle through
   32 MB (Sattolo's shuffle), so contention for cache and memory bandwidth
   from other tenants moves it. *)
let mem_ms () =
  let n = 1 lsl 22 in
  let a = Array.init n Fun.id in
  let rng = Rng.create 42 in
  for i = n - 1 downto 1 do
    let j = Rng.int rng i in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  let t0 = now () in
  let j = ref 0 in
  for _ = 1 to 2_000_000 do
    j := Array.unsafe_get a !j
  done;
  ignore (Sys.opaque_identity !j);
  (now () -. t0) *. 1000.0

(* Both probes run in a child process, so the probe's array stays out of
   this process's peak RSS. Returns (spin ms, chase ms). *)
let probe_flag = ref false

let host_probe () =
  let ic = Unix.open_process_args_in Sys.executable_name [| Sys.executable_name; "--probe" |] in
  let line = input_line ic in
  ignore (Unix.close_process_in ic);
  Scanf.sscanf line "%f %f" (fun s m -> (s, m))

let profile name =
  List.find (fun (p : Netgen.profile) -> p.Netgen.p_name = name) Netgen.profiles

(* Per-op random stream, a function of (workload, seed, index) only, so the
   first k ops are the same whatever the op count. Warm-up ops (negative
   indices) ignore the seed: set-up does the same work for every seed, so
   setup_s does not vary with the inputs. *)
let op_rng i = Rng.create (Hashtbl.hash (!workload, (if i < 0 then 0 else !seed), i))

let render answers =
  String.concat "\n" (List.map Questions.answer_to_string answers)

let answers_digest answers = Digest.to_hex (Digest.string (render answers))

let serial = { Dataplane.default_options with domains = 1 }

(* Session-manager counters. *)
let bdd_counts q =
  let man = Pktset.man (Fquery.env q) in
  let nodes, _, _ = Bdd.stats man in
  let cs = Bdd.cache_stats man in
  let hits = float_of_int cs.Bdd.cs_hits and misses = float_of_int cs.Bdd.cs_misses in
  [ ("bdd.nodes", float_of_int nodes); ("bdd.cache_hits", hits);
    ("bdd.cache_misses", misses);
    ("bdd.cache_hit_ratio", hits /. Float.max 1.0 (hits +. misses)) ]

let query_counts q =
  let g = Fquery.graph q in
  let hits, misses = Fquery.memo_stats q in
  let passes, fallbacks = Fquery.compress_stats q in
  let ratio, classes =
    match Fquery.compression_info q with
    | Some (r, c, _) -> (r, float_of_int c)
    | None -> (0.0, 0.0)
  in
  [ ("forwarding.edges", float_of_int (Fgraph.n_edges g));
    ("forwarding.locs", float_of_int (Fgraph.n_locs g));
    ("query.memo_hits", float_of_int hits); ("query.memo_misses", float_of_int misses);
    ("compress.ratio", ratio); ("compress.classes", classes);
    ("compress.passes", float_of_int passes);
    ("compress.fallbacks", float_of_int fallbacks) ]
  @ bdd_counts q

let dataplane_counts (dp : Dataplane.t) =
  let st = dp.Dataplane.stats in
  [ ("dataplane.routes", float_of_int (Dataplane.total_routes dp));
    ("dataplane.bgp_rounds", float_of_int dp.Dataplane.rounds);
    ("dataplane.simulated_nodes", float_of_int st.Dataplane.st_simulated_nodes);
    ("dataplane.reused_nodes", float_of_int st.Dataplane.st_reused_nodes);
    ("dataplane.frontier_nodes", float_of_int st.Dataplane.st_frontier_nodes);
    ("dataplane.converged_early", float_of_int st.Dataplane.st_converged_early) ]

(* ------------------------------------------------------------------ *)
(* What a workload hands back to the main loop                         *)
(* ------------------------------------------------------------------ *)

(* One timed pass. [lat] are op wall times in seconds; [counts.(i)] are the
   layer counters read at op [i]'s boundary; [digests.(i)] identify op
   [i]'s answers; [failed.(i)] marks an op that raised or failed a check. *)
type pass = {
  lat : float array;
  counts : (string * float) list array;
  digests : string array;
  failed : bool array;
  run_counts : (string * float) list;  (** run-level counters *)
  rss_mb : float;  (** VmHWM of the working process after the pass *)
}

(* Counts that must repeat exactly across runs of one seed. *)
let determinism_keys =
  [ "dataplane.routes"; "dataplane.simulated_nodes"; "forwarding.edges";
    "bdd.nodes"; "failures.simulated"; "service.computed" ]

(* Drive a single-client pass: [op i] runs under a root span and is timed;
   [before i] runs first, untimed and untraced; [after r] turns its result
   into (counts, digest) outside the timed region. An op that raises counts
   as failed. *)
let serial_pass ?(before = ignore) ~n ~(op : int -> 'r)
    ~(after : 'r -> (string * float) list * string) () =
  let lat = Array.make n 0.0 and counts = Array.make n [] in
  let digests = Array.make n "" and failed = Array.make n false in
  for i = 0 to n - 1 do
    let traced = !tracing in
    tracing := false;
    before i;
    tracing := traced;
    cur_op := i;
    let t0 = now () in
    let r = try Ok (span "op" (fun () -> op i)) with e -> Error e in
    lat.(i) <- now () -. t0;
    cur_op := -1;
    match r with
    | Ok r ->
      let c, d = after r in
      counts.(i) <- c;
      digests.(i) <- d
    | Error e ->
      log "op %d raised %s" i (Printexc.to_string e);
      failed.(i) <- true
  done;
  { lat; counts; digests; failed; run_counts = []; rss_mb = peak_rss_mb None }

(* A distinct seeded variant of [net] for op [i]: one semantic edit. *)
let variant net i =
  let net = Lazy.force net in
  match Chaos.semantic_edit_network ~rng:(op_rng i) net with
  | Some (v, _) -> v
  | None -> net

(* The first four stages on a fresh single-domain session, one span each. *)
let fresh_session (v : Netgen.network) =
  let snap = span "config.parse" (fun () -> Batfish.Snapshot.of_texts v.Netgen.n_configs) in
  let bf = span "core.init" (fun () -> Batfish.init ~options:serial ~env:v.Netgen.n_env snap) in
  let dp = span "dataplane.compute" (fun () -> Batfish.dataplane bf) in
  let q = span "forwarding.build" (fun () -> Batfish.forwarding bf) in
  (snap, bf, dp, q)

(* ------------------------------------------------------------------ *)
(* Workload: cold-snapshot                                             *)
(* ------------------------------------------------------------------ *)

(* A CI job re-analyzing a whole changed snapshot: every op is a fresh
   session over a distinct seeded variant, so every scratch stage runs once
   per op and the memo, incremental update, pool, service and quotient are
   all bypassed (the control workload for those layers). *)
module Cold = struct
  let net = lazy ((profile "NET8").Netgen.p_make 0.5)
  let variant = variant net

  let analyze v =
    let snap, bf, dp, q = fresh_session v in
    let lint = span "lint" (fun () -> Batfish.answer_lint bf) in
    let mp = span "query.multipath" (fun () -> Batfish.answer_multipath_consistency bf) in
    let loops = span "query.loops" (fun () -> Batfish.answer_loops bf) in
    let ap = span "query.all_pairs" (fun () -> Batfish.answer_all_pairs bf) in
    (snap, bf, dp, q, [ lint; mp; loops; ap ])

  let counts (snap, _, dp, q, _) =
    (("config.files_reparsed", float_of_int (Batfish.Snapshot.reparsed snap))
     :: dataplane_counts dp)
    @ query_counts q

  let prepare ~n =
    let inputs = Array.init n variant in
    let warm = Array.init 2 (fun k -> variant (-1 - k)) in
    let setup () = Array.iter (fun v -> ignore (analyze v)) warm in
    let pass () =
      Gc.full_major ();
      serial_pass ~n
        ~op:(fun i -> analyze inputs.(i))
        ~after:(fun ((_, _, _, _, answers) as r) -> (counts r, answers_digest answers))
        ()
    in
    (setup, pass)

  (* BDD engine against concrete traceroute, and a fresh re-analysis that
     must reproduce the timed op's answers. *)
  let check (p : pass) sample =
    List.iter
      (fun i ->
        if not p.failed.(i) then
          let v = variant i in
          let ok =
            try
              let _, bf, _, _, answers = analyze v in
              ignore (Batfish.differential_engine_test bf);
              answers_digest answers = p.digests.(i)
            with e ->
              log "cold-snapshot check op %d: %s" i (Printexc.to_string e);
              false
          in
          if not ok then p.failed.(i) <- true)
      sample
end

(* ------------------------------------------------------------------ *)
(* Workload: edit-stream                                               *)
(* ------------------------------------------------------------------ *)

(* CI on a stream of proposed changes against one main snapshot: every op
   applies one seeded change set to the base with [Batfish.update] (ops are
   not chained) and re-answers all-pairs and multipath — the write path. *)
module Edit = struct
  let net = lazy ((profile "NET11").Netgen.p_make 1.0)

  (* A change set is three seeded semantic edits on distinct devices. The
     kind and device tier of each edit follow a fixed schedule by op index,
     and the seed picks the device within the tier and the edit's details,
     so every seed replays the same mix of cost classes:
     - one routing edit, by op index mod 10: six loopbacks on a superspine
       (the whole fabric re-simulated, ~130 ms ops), three cheap ones
       (shutdown on a superspine, loopback on a pod spine, ~85 ms) and one
       BGP session dropped on a leaf (~110 ms);
     - one leaf-local edit (ACL line or loopback);
     - one cosmetic edit (a comment) anywhere.
     So p50 (rank 50%) and op_tail_ms (rank ~82%) both fall inside the
     whole-fabric class, which spans ranks 40-100%. Edits whose cost
     depends on which interface or peer the seed picks (shutdowns on
     leaves and pod spines, BGP sessions on pod spines) would spread a
     class over a seed-dependent range and are left out. *)
  let routing_edits =
    [| ("add-loopback", "ss"); ("toggle-shutdown", "ss"); ("add-loopback", "ss");
       ("add-loopback", "spine"); ("add-loopback", "ss"); ("drop-bgp-neighbor", "leaf");
       ("add-loopback", "ss"); ("toggle-shutdown", "ss"); ("add-loopback", "ss");
       ("add-loopback", "ss") |]

  let tier name =
    let has sub =
      let n = String.length sub in
      let rec go i = i + n <= String.length name && (String.sub name i n = sub || go (i + 1)) in
      go 0
    in
    if has "-ss" then "ss" else if has "spine" then "spine" else "leaf"

  let change_set i =
    let files = Array.of_list (Lazy.force net).Netgen.n_configs in
    let rng = op_rng i in
    let slots =
      [ routing_edits.(((i mod 10) + 10) mod 10);
        ((if i land 1 = 0 then "add-acl-line" else "add-loopback"), "leaf");
        ("comment-edit", "any") ]
    in
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

  let answer bf =
    span "query.requery" (fun () ->
        let ap = span "query.all_pairs" (fun () -> Batfish.answer_all_pairs bf) in
        let mp = span "query.multipath" (fun () -> Batfish.answer_multipath_consistency bf) in
        [ ap; mp ])

  let base () =
    let net = Lazy.force net in
    let snap = Batfish.Snapshot.of_texts net.Netgen.n_configs in
    let bf = Batfish.init ~options:serial ~env:net.Netgen.n_env snap in
    ignore (answer bf);
    bf

  let apply bf files =
    let bf', rep = span "core.update" (fun () -> Batfish.update ~files bf) in
    (bf', rep, answer bf')

  let counts (bf', (rep : Batfish.update_report), _) =
    [ ("config.files_reparsed", float_of_int rep.Batfish.up_files_reparsed);
      ("core.forwarding_rebuilt", if rep.Batfish.up_forwarding_rebuilt then 1.0 else 0.0);
      ("core.memo_invalidated", float_of_int rep.Batfish.up_memo_invalidated) ]
    @ dataplane_counts (Batfish.dataplane bf')
    @ query_counts (Batfish.forwarding bf')

  let state = ref None

  (* Every session derived from the base shares the base's BDD manager, which
     only grows: over 55 ops it reached ~700 MB. So the base is rebuilt (and
     warmed up again) every [rebase_every] ops, outside the timed region;
     each segment of ops then runs on the same kind of session. A rebuild is
     the same work as a set-up, and its time is one more set-up sample. *)
  let rebase_every = 20
  let rebuilds = ref []

  let prepare ~n =
    let inputs = Array.init n change_set in
    let warm = Array.init 2 (fun k -> change_set (-1 - k)) in
    let setup () =
      let bf = base () in
      Array.iter (fun files -> ignore (apply bf files)) warm;
      state := Some bf
    in
    let rebase i =
      if i > 0 && i mod rebase_every = 0 then begin
        state := None;
        Gc.full_major ();
        let t0 = now () in
        setup ();
        rebuilds := (now () -. t0) :: !rebuilds;
        Gc.full_major ()
      end
    in
    let pass () =
      Gc.full_major ();
      serial_pass ~n ~before:rebase
        ~op:(fun i -> apply (Option.get !state) inputs.(i))
        ~after:(fun ((_, _, answers) as r) -> (counts r, answers_digest answers))
        ()
    in
    (setup, pass)

  (* The updated session must answer exactly like a from-scratch analysis
     of the edited files, and its BDD engine must agree with traceroute. *)
  let check (p : pass) sample =
    match !state with
    | None -> ()
    | Some base_bf ->
      let net = Lazy.force net in
      List.iter
        (fun i ->
          if not p.failed.(i) then
            let files = change_set i in
            let ok =
              try
                let bf', _, answers = apply base_bf files in
                let edited =
                  List.map
                    (fun (name, text) ->
                      (name, Option.value (List.assoc_opt name files) ~default:text))
                    net.Netgen.n_configs
                in
                let scratch =
                  Batfish.init ~options:serial ~env:net.Netgen.n_env
                    (Batfish.Snapshot.of_texts edited)
                in
                ignore (Batfish.differential_engine_test bf');
                let d = answers_digest answers in
                d = p.digests.(i) && d = answers_digest (answer scratch)
              with e ->
                log "edit-stream check op %d: %s" i (Printexc.to_string e);
                false
            in
            if not ok then p.failed.(i) <- true)
        sample
end

(* ------------------------------------------------------------------ *)
(* Workload: failure-sweep                                             *)
(* ------------------------------------------------------------------ *)

(* [verify --failures 1] on a changed snapshot: every op sweeps all single
   link/node failures of a fresh seeded variant, serially. The failures
   layer (enumeration, atom pruning, warm fault-injected re-simulation)
   runs nowhere else. *)
module Fail = struct
  let net = lazy ((profile "NET7").Netgen.p_make 0.25)
  let variant = variant net

  let sweep v =
    let snap, bf, dp, q = fresh_session v in
    let rp = span "failures.sweep" (fun () -> Batfish.failure_report ~k:1 bf) in
    (snap, dp, q, rp)

  let report_digest rp =
    answers_digest [ Questions.failure_summary rp; Questions.failure_verification rp ]

  let counts (_, dp, q, (rp : Failures.report)) =
    [ ("failures.enumerated", float_of_int rp.Failures.rp_enumerated);
      ("failures.simulated", float_of_int rp.Failures.rp_simulated);
      ("failures.pruned", float_of_int rp.Failures.rp_pruned);
      ("failures.atoms", float_of_int rp.Failures.rp_atoms);
      ("failures.inconclusive", float_of_int (List.length rp.Failures.rp_inconclusive)) ]
    @ dataplane_counts dp @ query_counts q

  let prepare ~n =
    let inputs = Array.init n variant in
    let warm = Array.init 2 (fun k -> variant (-1 - k)) in
    let setup () = Array.iter (fun v -> ignore (sweep v)) warm in
    let pass () =
      Gc.full_major ();
      serial_pass ~n
        ~op:(fun i -> sweep inputs.(i))
        ~after:(fun ((_, _, _, rp) as r) -> (counts r, report_digest rp))
        ()
    in
    (setup, pass)

  (* Simulated representatives must equal a cold, fresh-manager recompute
     of the same scenario ([Failures.cold_outcome]). Two per sampled op:
     the first and the last simulated scenario. *)
  let check (p : pass) sample =
    List.iter
      (fun i ->
        if not p.failed.(i) then
          let v = variant i in
          let ok =
            try
              let snap, _, _, rp = sweep v in
              let reps =
                List.filter
                  (fun r -> r.Failures.r_rep = r.Failures.r_scenario.Failures.sc_id)
                  rp.Failures.rp_results
              in
              let picks =
                match reps with
                | [] -> []
                | [ r ] -> [ r ]
                | r :: rest -> [ r; List.nth rest (List.length rest - 1) ]
              in
              let cold =
                Failures.cold_context ~options:serial ~env:v.Netgen.n_env
                  ~configs_list:(Batfish.Snapshot.configs snap)
                  ~find:(Batfish.Snapshot.find snap) ()
              in
              report_digest rp = p.digests.(i)
              && List.for_all
                   (fun r ->
                     Failures.cold_outcome cold ~properties:rp.Failures.rp_properties
                       r.Failures.r_scenario
                     = r.Failures.r_outcome)
                   picks
            with e ->
              log "failure-sweep check op %d: %s" i (Printexc.to_string e);
              false
          in
          if not ok then p.failed.(i) <- true)
      sample
end

(* ------------------------------------------------------------------ *)
(* Workload: daemon-queries                                            *)
(* ------------------------------------------------------------------ *)

(* Many users querying one long-lived daemon ([batfish_cli serve --domains
   2]) over a Unix socket: two closed-loop client connections each replay
   half of a seeded request list. The read path: socket and Sjson,
   coalescing, memo hits, the pool and worker caches, quotient compression.
   Parse and data plane run only in set-up. *)
module Daemon = struct
  let net = lazy ((profile "NET12").Netgen.p_make 2.0)

  type request = {
    rq_class : string;  (** the [service.*] layer span name *)
    rq_line : string;
    rq_sync : bool;  (** sent by both clients at the same position *)
    rq_params : (string * string) list;
  }

  let query_line params =
    Sjson.to_string
      (Sjson.Obj
         [ ("method", Sjson.Str "query");
           ("params", Sjson.Obj (List.map (fun (k, v) -> (k, Sjson.Str v)) params)) ])

  let mk ?(sync = false) cls params =
    { rq_class = cls; rq_line = query_line params; rq_sync = sync; rq_params = params }

  (* Host-facing starts and their /24s, from the generated configs: the
     active ToR of each slot carries the access VLANs. *)
  let hosts =
    lazy
      (let snap = Batfish.Snapshot.of_texts (Lazy.force net).Netgen.n_configs in
       List.concat_map
         (fun (c : Vi.t) ->
           List.filter_map
             (fun (i : Vi.interface) ->
               match i.Vi.if_address with
               | Some (ip, 24) when String.starts_with ~prefix:"Vlan" i.Vi.if_name ->
                 Some
                   ( c.Vi.hostname ^ "/" ^ i.Vi.if_name,
                     Prefix.to_string (Prefix.make ip 24) )
               | _ -> None)
             c.Vi.interfaces)
         (Batfish.Snapshot.configs snap)
       |> Array.of_list)

  (* Request classes by position in a client's list (period 50):
     - position 0: all-pairs, and position 25: multipath, each sent by both
       clients at the same moment so the daemon coalesces the pair;
     - positions 12 and 37: every node's static (client 0) or connected
       (client 1) routes;
     - everything else: reachability start -> host /24. Destinations come
       from a fixed pool of [dst_pool] prefixes, so the first query per
       destination pays a backward pass and the rest hit the memo.
     Apart from the synchronized pairs the two lists share no request, so
     no other request can coalesce by chance and service.computed repeats
     exactly.
     The same shares in every seed keep p50 inside the cheap reachability
     class and op_tail_ms inside the all-pairs class (2% of requests). *)
  let period = 50
  let dst_pool = 64

  (* The warm-up's destinations are the last [warm_dsts] hosts, the same for
     every seed. The timed list draws its destinations from the first
     [dst_pool] of the other hosts in a seeded order, so the warm-up never
     answers a timed destination in advance. *)
  let warm_dsts = 8

  let dst_order =
    lazy
      (let order = Array.init (Array.length (Lazy.force hosts) - warm_dsts) Fun.id in
       Rng.shuffle (Rng.create (Hashtbl.hash (!seed, "dsts"))) order;
       order)

  let request ~client k =
    let hosts = Lazy.force hosts in
    let rng = op_rng ((k * 2) + client) in
    match k mod period with
    | 0 -> mk ~sync:true "service.all_pairs" [ ("question", "all_pairs") ]
    | 25 -> mk ~sync:true "service.multipath" [ ("question", "multipath") ]
    | 12 | 37 ->
      mk "service.routes"
        [ ("question", "routes"); ("protocol", if client = 0 then "static" else "connected") ]
    | _ ->
      let dst = snd hosts.((Lazy.force dst_order).(Rng.int rng dst_pool)) in
      let src = fst hosts.((2 * Rng.int rng (Array.length hosts / 2)) + client) in
      mk "service.reach" [ ("question", "reachability"); ("src", src); ("dst_prefix", dst) ]

  (* Warm-up, the same for every seed: one of each heavy question plus
     reachability toward the warm-up destinations. *)
  let warmup () =
    let hosts = Lazy.force hosts in
    let rng = op_rng (-1) in
    [ mk "service.all_pairs" [ ("question", "all_pairs") ];
      mk "service.multipath" [ ("question", "multipath") ];
      mk "service.routes" [ ("question", "routes"); ("protocol", "static") ] ]
    @ List.init warm_dsts (fun k ->
          let src = fst (Rng.pick rng hosts) in
          let dst = snd hosts.(Array.length hosts - 1 - k) in
          mk "service.reach" [ ("question", "reachability"); ("src", src); ("dst_prefix", dst) ])

  (* --- the daemon process and its connections --- *)

  let live_pids = ref []

  let () =
    at_exit (fun () ->
        List.iter
          (fun pid ->
            (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
            try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
          !live_pids)

  type conn = { ic : in_channel; oc : out_channel }

  let call c line =
    output_string c.oc line;
    output_char c.oc '\n';
    flush c.oc;
    input_line c.ic

  let connect path =
    let rec go tries =
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match Unix.connect fd (Unix.ADDR_UNIX path) with
      | () -> { ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
      | exception Unix.Unix_error _ when tries > 0 ->
        Unix.close fd;
        Unix.sleepf 0.01;
        go (tries - 1)
    in
    go 3000

  type daemon = { pid : int; sock : string; conns : conn array; load_s : float }

  let counter = ref 0

  let start () =
    incr counter;
    let sock = Filename.concat !out_dir (Printf.sprintf "d%d-%d.sock" (Unix.getpid ()) !counter) in
    (try Sys.remove sock with Sys_error _ -> ());
    let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
    let pid =
      Unix.create_process !cli
        [| !cli; "serve"; "--socket"; sock; "--domains"; "2" |]
        null null Unix.stderr
    in
    Unix.close null;
    live_pids := pid :: !live_pids;
    let conns = Array.init 2 (fun _ -> connect sock) in
    let files = (Lazy.force net).Netgen.n_configs in
    let load =
      Sjson.to_string
        (Sjson.Obj
           [ ("method", Sjson.Str "load");
             ("params",
              Sjson.Obj
                [ ("files", Sjson.Obj (List.map (fun (n, t) -> (n, Sjson.Str t)) files)) ]) ])
    in
    let t0 = now () in
    let resp = call conns.(0) load in
    let load_s = now () -. t0 in
    if not (String.starts_with ~prefix:{|{"ok":true|} resp) then
      failwith ("daemon load failed: " ^ resp);
    { pid; sock; conns; load_s }

  let stop d =
    ignore (try call d.conns.(0) {|{"method":"shutdown"}|} with _ -> "");
    Array.iter (fun c -> try close_in c.ic with _ -> ()) d.conns;
    ignore (Unix.waitpid [] d.pid);
    live_pids := List.filter (fun p -> p <> d.pid) !live_pids;
    try Sys.remove d.sock with Sys_error _ -> ()

  let stats d =
    match Sjson.parse (call d.conns.(0) {|{"method":"stats"}|}) with
    | Ok r ->
      let get k =
        match Option.bind (Sjson.member "result" r) (Sjson.member k) with
        | Some (Sjson.Int v) -> float_of_int v
        | _ -> 0.0
      in
      [ ("service.computed", get "computed"); ("service.coalesced", get "coalesced");
        ("service.errors", get "errors"); ("pool.jobs", get "pool_jobs") ]
    | Error _ -> []

  (* The answers array of an ok query response, with the per-response
     [plan] and [meta] stripped; [None] for an error response. *)
  let last_index s sub =
    let n = String.length sub in
    let rec go i = if i < 0 then None else if String.sub s i n = sub then Some i else go (i - 1) in
    go (String.length s - n)

  let answers_part resp =
    let pre = {|{"ok":true,"result":{"answers":|} in
    if not (String.starts_with ~prefix:pre resp) then None
    else
      let stop =
        match last_index resp {|,"meta":|} with Some i -> i | None -> String.length resp
      in
      let body = String.sub resp (String.length pre) (stop - 1 - String.length pre) in
      match last_index body {|,"plan":"|} with
      | Some i -> Some (String.sub body 0 i)
      | None -> Some body

  let plan_of resp =
    match last_index resp {|"plan":"parallel|} with
    | Some _ -> `Parallel
    | None -> if last_index resp {|"plan":"serial"|} <> None then `Serial else `None

  (* --- the timed pass: two closed-loop clients --- *)

  let state : daemon option ref = ref None

  (* The first response to each sampled request line: every non-reach
     request, and every 20th reachability request. *)
  let samples : (string, int * request * string) Hashtbl.t = Hashtbl.create 64
  let sample_lock = Mutex.create ()
  let timed_lists = ref [||]

  let is_sample i (rq : request) = rq.rq_class <> "service.reach" || i mod 20 = 7

  let prepare ~n =
    let per = n / 2 in
    let lists = Array.init 2 (fun client -> Array.init per (fun k -> request ~client k)) in
    let warm = warmup () in
    timed_lists := lists;
    let setup () =
      let d = start () in
      List.iteri (fun k rq -> ignore (call d.conns.(k mod 2) rq.rq_line)) warm;
      state := Some d
    in
    let pass () =
      let d = Option.get !state in
      let before = stats d in
      Gc.full_major ();
      let total = 2 * per in
      let lat = Array.make total 0.0 and digests = Array.make total "" in
      let failed = Array.make total false and plans = Array.make total `None in
      Hashtbl.reset samples;
      (* both clients meet here before each synchronized request *)
      let bar_m = Mutex.create () and bar_cv = Condition.create () in
      let arrived = Array.make per 0 in
      let barrier k =
        Mutex.lock bar_m;
        arrived.(k) <- arrived.(k) + 1;
        if arrived.(k) >= 2 then Condition.broadcast bar_cv
        else
          while arrived.(k) < 2 do
            Condition.wait bar_cv bar_m
          done;
        Mutex.unlock bar_m
      in
      let client c () =
        let conn = d.conns.(c) in
        Array.iteri
          (fun k rq ->
            let i = (k * 2) + c in
            if rq.rq_sync then barrier k;
            let t0 = now () in
            let resp = try call conn rq.rq_line with e -> "!" ^ Printexc.to_string e in
            let t1 = now () in
            lat.(i) <- t1 -. t0;
            if !tracing then begin
              let root = fresh_id () in
              push_span
                { sp_id = root; sp_parent = 0; sp_op = i; sp_name = "op"; sp_t0 = t0; sp_t1 = t1 };
              push_span
                { sp_id = fresh_id (); sp_parent = root; sp_op = i; sp_name = rq.rq_class;
                  sp_t0 = t0; sp_t1 = t1 }
            end;
            plans.(i) <- plan_of resp;
            match answers_part resp with
            | None ->
              log "daemon request %d failed: %s" i
                (String.sub resp 0 (min 200 (String.length resp)));
              failed.(i) <- true
            | Some body ->
              digests.(i) <- Digest.to_hex (Digest.string body);
              if is_sample i rq then
                Mutex.protect sample_lock (fun () ->
                    if not (Hashtbl.mem samples rq.rq_line) then
                      Hashtbl.replace samples rq.rq_line (i, rq, body)))
          lists.(c)
      in
      let threads = List.init 2 (fun c -> Thread.create (client c) ()) in
      List.iter Thread.join threads;
      let rss_mb = peak_rss_mb (Some d.pid) in
      let after = stats d in
      let delta =
        List.map (fun (k, v) -> (k, v -. Option.value (List.assoc_opt k before) ~default:0.0)) after
      in
      let count p = Array.fold_left (fun a x -> if x = p then a + 1 else a) 0 plans in
      { lat; counts = Array.make total []; digests; failed; rss_mb;
        run_counts =
          delta
          @ [ ("planner.parallel", float_of_int (count `Parallel));
              ("planner.serial", float_of_int (count `Serial)) ] }
    in
    (setup, pass)

  let teardown () =
    Option.iter stop !state;
    state := None

  let load_s () = match !state with Some d -> d.load_s | None -> 0.0

  (* Sampled responses must be byte-identical to the direct engine's
     answers over the same texts. The reference session also supplies the
     counts that are properties of the loaded snapshot alone, and so equal
     the daemon's: routes, graph size, quotient size. Counts that depend on
     the request history (memo, BDD, quotient passes) are not exposed by the
     daemon and are not reported for this workload. *)
  let snapshot_keys =
    [ "dataplane.routes"; "forwarding.edges"; "forwarding.locs"; "compress.ratio";
      "compress.classes" ]

  let reference_counts = ref []

  let check (p : pass) =
    let net = Lazy.force net in
    let bf =
      Batfish.init ~options:serial ~env:net.Netgen.n_env
        (Batfish.Snapshot.of_texts net.Netgen.n_configs)
    in
    let answer_json (a : Questions.answer) =
      let str s = Sjson.Str s in
      Sjson.Obj
        [ ("title", str a.Questions.a_title);
          ("header", Sjson.Arr (List.map str a.Questions.a_header));
          ("rows", Sjson.Arr (List.map (fun r -> Sjson.Arr (List.map str r)) a.Questions.a_rows)) ]
    in
    let parse_start s =
      match String.index_opt s '/' with
      | Some i -> (String.sub s 0 i, Some (String.sub s (i + 1) (String.length s - i - 1)))
      | None -> (s, None)
    in
    let direct rq =
      let param k = List.assoc k rq.rq_params in
      match param "question" with
      | "all_pairs" -> Batfish.answer_all_pairs bf
      | "multipath" -> Batfish.answer_multipath_consistency bf
      | "routes" -> Batfish.answer_routes ~protocol:(param "protocol") bf
      | "reachability" ->
        Batfish.answer_reachability bf ~src:(parse_start (param "src"))
          ~dst_ip:(Prefix.of_string (param "dst_prefix")) ()
      | q -> failwith ("unexpected question " ^ q)
    in
    Hashtbl.iter
      (fun _ (i, rq, body) ->
        let expect = Sjson.to_string (Sjson.Arr [ answer_json (direct rq) ]) in
        if expect <> body then begin
          log "daemon response %d differs from the direct engine" i;
          p.failed.(i) <- true
        end)
      samples;
    (* identical requests must get identical answers, coalesced or not *)
    let first = Hashtbl.create 256 in
    Array.iteri
      (fun c l ->
        Array.iteri
          (fun k rq ->
            let i = (k * 2) + c in
            if not p.failed.(i) then
              match Hashtbl.find_opt first rq.rq_line with
              | None -> Hashtbl.replace first rq.rq_line p.digests.(i)
              | Some d ->
                if d <> p.digests.(i) then begin
                  log "daemon response %d differs from an identical request's" i;
                  p.failed.(i) <- true
                end)
          l)
      !timed_lists;
    let q = Batfish.forwarding bf in
    reference_counts :=
      List.filter
        (fun (k, _) -> List.mem k snapshot_keys)
        (query_counts q @ dataplane_counts (Batfish.dataplane bf))
end

(* ------------------------------------------------------------------ *)
(* Main loop                                                           *)
(* ------------------------------------------------------------------ *)

(* Op counts are fixed per workload and second of measurement, never "as
   many as fit": every run of a seed replays the same list. The ops of all
   timed rounds together make up [seconds] times this rate. *)
let ops_per_second = function
  | "cold-snapshot" -> 6.0
  | "edit-stream" -> 4.0
  | "failure-sweep" -> 3.0
  | "daemon-queries" -> 150.0
  | w -> failwith ("unknown workload " ^ w)

(* One pass out of the timed rounds' passes over the same op list: each op's
   least latency, the last pass's counts and digests, the highest peak RSS.
   An op failed if it failed in any round or any round answered it
   differently. *)
let least_latencies = function
  | [] -> invalid_arg "least_latencies"
  | first :: _ as ps ->
    let last = List.nth ps (List.length ps - 1) in
    { last with
      lat = Array.mapi (fun i _ -> List.fold_left (fun a q -> Float.min a q.lat.(i)) infinity ps) first.lat;
      failed =
        Array.mapi
          (fun i _ -> List.exists (fun q -> q.failed.(i) || q.digests.(i) <> last.digests.(i)) ps)
          first.lat;
      rss_mb = List.fold_left (fun a q -> Float.max a q.rss_mb) 0.0 ps }

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let json_str s = Sjson.to_string (Sjson.Str s)

let e2e_units =
  [ ("setup_s", "s"); ("ops_per_s", "1/s"); ("op_p50_ms", "ms"); ("op_tail_ms", "ms");
    ("peak_rss_mb", "MB") ]

(* Every per-layer metric, in BENCHMARK.json order. Time metrics come from
   spans (median per op of the op's summed span time); counts are read at
   op boundaries (median per op) or once per run. *)
let layer_units =
  [ ("config.parse_ms", "ms"); ("config.files_reparsed", "count");
    ("core.init_ms", "ms"); ("core.update_ms", "ms"); ("core.forwarding_rebuilt", "count");
    ("core.memo_invalidated", "count");
    ("dataplane.compute_ms", "ms"); ("dataplane.routes", "count");
    ("dataplane.bgp_rounds", "count"); ("dataplane.simulated_nodes", "count");
    ("dataplane.reused_nodes", "count"); ("dataplane.frontier_nodes", "count");
    ("dataplane.converged_early", "count");
    ("forwarding.build_ms", "ms"); ("forwarding.edges", "count"); ("forwarding.locs", "count");
    ("query.all_pairs_ms", "ms"); ("query.multipath_ms", "ms"); ("query.loops_ms", "ms");
    ("query.requery_ms", "ms"); ("query.memo_hits", "count"); ("query.memo_misses", "count");
    ("compress.ratio", "ratio"); ("compress.classes", "count"); ("compress.passes", "count");
    ("compress.fallbacks", "count");
    ("bdd.nodes", "count"); ("bdd.cache_hits", "count"); ("bdd.cache_misses", "count");
    ("bdd.cache_hit_ratio", "ratio");
    ("lint.ms", "ms");
    ("failures.sweep_ms", "ms"); ("failures.enumerated", "count");
    ("failures.simulated", "count"); ("failures.pruned", "count"); ("failures.atoms", "count");
    ("failures.inconclusive", "count");
    ("service.reach_ms", "ms"); ("service.all_pairs_ms", "ms"); ("service.multipath_ms", "ms");
    ("service.routes_ms", "ms"); ("service.load_s", "s"); ("service.computed", "count");
    ("service.coalesced", "count"); ("service.errors", "count");
    ("pool.jobs", "count"); ("planner.parallel", "count"); ("planner.serial", "count");
    ("self.config_ms", "ms"); ("self.core_ms", "ms"); ("self.dataplane_ms", "ms");
    ("self.forwarding_ms", "ms"); ("self.query_ms", "ms"); ("self.lint_ms", "ms");
    ("self.failures_ms", "ms"); ("self.service_ms", "ms");
    ("trace.coverage", "ratio"); ("trace.overhead_pct", "%"); ("trace.low_coverage_ops", "count");
    ("host.spin_ms", "ms"); ("host.mem_ms", "ms") ]

let layer_of name =
  match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

(* Per-layer numbers from the spans of a traced pass. *)
let span_metrics ~n =
  let by_op = Array.make n [] in
  List.iter (fun s -> if s.sp_op >= 0 && s.sp_op < n then by_op.(s.sp_op) <- s :: by_op.(s.sp_op)) !spans;
  let dur s = (s.sp_t1 -. s.sp_t0) *. 1000.0 in
  let per_op_sum pred = Array.map (fun ss -> List.fold_left (fun a s -> if pred s then a +. dur s else a) 0.0 ss) by_op in
  let with_span name = Array.to_list by_op |> List.filter (List.exists (fun s -> s.sp_name = name)) in
  let named_ms name =
    match with_span name with
    | [] -> 0.0
    | ops ->
      median
        (Array.of_list
           (List.map (fun ss -> List.fold_left (fun a s -> if s.sp_name = name then a +. dur s else a) 0.0 ss) ops))
  in
  (* self time: a span's duration minus its children's *)
  let self_ms layer =
    let per =
      Array.map
        (fun ss ->
          List.fold_left
            (fun a s ->
              if s.sp_name <> "op" && layer_of s.sp_name = layer then
                let kids =
                  List.fold_left (fun k c -> if c.sp_parent = s.sp_id then k +. dur c else k) 0.0 ss
                in
                a +. dur s -. kids
              else a)
            0.0 ss)
        by_op
    in
    median per
  in
  let root_ms = per_op_sum (fun s -> s.sp_name = "op") in
  let covered =
    Array.map
      (fun ss ->
        let roots = List.filter (fun s -> s.sp_name = "op") ss in
        List.fold_left
          (fun a s -> if List.exists (fun r -> r.sp_id = s.sp_parent) roots then a +. dur s else a)
          0.0 ss)
      by_op
  in
  let cov = Array.mapi (fun i c -> if root_ms.(i) > 0.0 then c /. root_ms.(i) else 0.0) covered in
  let low = List.filter (fun i -> cov.(i) < 0.95) (List.init n Fun.id) in
  let total_cov = Array.fold_left ( +. ) 0.0 covered /. Float.max 1e-9 (Array.fold_left ( +. ) 0.0 root_ms) in
  let names =
    [ ("config.parse_ms", "config.parse"); ("core.init_ms", "core.init");
      ("core.update_ms", "core.update"); ("dataplane.compute_ms", "dataplane.compute");
      ("forwarding.build_ms", "forwarding.build"); ("query.all_pairs_ms", "query.all_pairs");
      ("query.multipath_ms", "query.multipath"); ("query.loops_ms", "query.loops");
      ("query.requery_ms", "query.requery"); ("lint.ms", "lint");
      ("failures.sweep_ms", "failures.sweep"); ("service.reach_ms", "service.reach");
      ("service.all_pairs_ms", "service.all_pairs"); ("service.multipath_ms", "service.multipath");
      ("service.routes_ms", "service.routes") ]
  in
  List.map (fun (m, s) -> (m, named_ms s)) names
  @ List.map
      (fun l -> ("self." ^ l ^ "_ms", self_ms l))
      [ "config"; "core"; "dataplane"; "forwarding"; "query"; "lint"; "failures"; "service" ]
  @ [ ("trace.coverage", total_cov); ("trace.low_coverage_ops", float_of_int (List.length low)) ],
  low

let write_trace_events path =
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[";
  let t_base = List.fold_left (fun a s -> Float.min a s.sp_t0) infinity !spans in
  List.iteri
    (fun k s ->
      if k > 0 then output_string oc ",\n";
      Printf.fprintf oc
        "{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"ts\":%.1f,\"dur\":%.1f,\"pid\":1,\"tid\":%d,\"args\":{\"op\":%d,\"id\":%d,\"parent\":%d}}"
        (json_str s.sp_name) (json_str (layer_of s.sp_name))
        ((s.sp_t0 -. t_base) *. 1e6) ((s.sp_t1 -. s.sp_t0) *. 1e6)
        (if !workload = "daemon-queries" then s.sp_op mod 2 else 0)
        s.sp_op s.sp_id s.sp_parent)
    (List.sort (fun a b -> compare a.sp_t0 b.sp_t0) !spans);
  output_string oc "]}\n";
  close_out oc

(* The data-plane node counters are summed over the run: on edit-stream
   the per-op median would sit in whichever cost class holds the median op
   (the whole-fabric one, where route-delta reuses nothing), hiding reuse
   in the other classes. *)
let run_total_keys =
  [ "dataplane.simulated_nodes"; "dataplane.reused_nodes"; "dataplane.frontier_nodes";
    "dataplane.converged_early" ]

(* Median per op of each counter (run total for [run_total_keys]);
   run-level counters as read. *)
let count_metrics (p : pass) =
  let keys = Hashtbl.create 32 in
  Array.iter (List.iter (fun (k, _) -> Hashtbl.replace keys k ())) p.counts;
  let per_op =
    Hashtbl.fold
      (fun k () acc ->
        let vs = Array.to_list p.counts |> List.filter_map (List.assoc_opt k) in
        let v =
          if List.mem k run_total_keys then List.fold_left ( +. ) 0.0 vs
          else median (Array.of_list vs)
        in
        (k, v) :: acc)
      keys []
  in
  per_op @ p.run_counts

(* Committed per-op digests at the default seed: "<op> <answers md5>
   <determinism counts>" per line. *)
let digest_line i (p : pass) =
  let counts =
    List.filter_map
      (fun k ->
        Option.map (fun v -> Printf.sprintf "%s=%.0f" k v) (List.assoc_opt k p.counts.(i)))
      determinism_keys
  in
  String.concat " " ((string_of_int i :: p.digests.(i) :: counts))

let digest_file () = Filename.concat !digest_dir (!workload ^ ".txt")

let check_digests (p : pass) =
  let path = digest_file () in
  if !record_digests then begin
    let oc = open_out path in
    Array.iteri (fun i _ -> output_string oc (digest_line i p ^ "\n")) p.digests;
    close_out oc;
    log "wrote %s" path;
    true
  end
  else if !seed <> default_seed then true
  else
    match open_in path with
    | exception Sys_error _ ->
      log "missing committed digests %s" path;
      false
    | ic ->
      let rec read acc = match input_line ic with l -> read (l :: acc) | exception End_of_file -> List.rev acc in
      let lines = Array.of_list (read []) in
      close_in ic;
      let ok = ref true in
      Array.iteri
        (fun i _ ->
          if i < Array.length lines && not p.failed.(i) then
            if digest_line i p <> lines.(i) then begin
              log "op %d differs from the committed digest:\n  got  %s\n  want %s" i
                (digest_line i p) lines.(i);
              p.failed.(i) <- true;
              ok := false
            end)
        p.digests;
      !ok

let () =
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measured seconds (sets the op count)");
      ("--trace", Arg.Set_int trace, "0|1 traced run");
      ("--cli", Arg.Set_string cli, "PATH batfish_cli executable (daemon-queries)");
      ("--out", Arg.Set_string out_dir, "DIR run records and trace files");
      ("--digests", Arg.Set_string digest_dir, "DIR committed per-op digests");
      ("--record-digests", Arg.Set record_digests, " write the digests instead of checking them");
      ("--probe", Arg.Set probe_flag, " print the host probes (spin ms, chase ms) and exit") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "pb.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !probe_flag then begin
    Printf.printf "%.6f %.6f\n" (spin_ms ()) (mem_ms ());
    exit 0
  end;
  let timed_rounds, setup_only_rounds = rounds !workload in
  let n =
    max 20
      (int_of_float
         (Float.round
            (float_of_int !seconds *. ops_per_second !workload /. float_of_int timed_rounds)))
  in
  let n = if !workload = "daemon-queries" then 2 * (n / 2) else n in
  (try Unix.mkdir !out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let spin0, mem0 = host_probe () in
  (* inputs are generated here, outside set-up *)
  let setup, pass =
    match !workload with
    | "cold-snapshot" -> Cold.prepare ~n
    | "edit-stream" -> Edit.prepare ~n
    | "failure-sweep" -> Fail.prepare ~n
    | "daemon-queries" -> Daemon.prepare ~n
    | w -> failwith ("unknown workload " ^ w)
  in
  (* Before each set-up, untimed: drop the previous round's state (stop its
     daemon) and collect it, so no round pays for the one before. *)
  let reset () =
    (match !workload with
    | "daemon-queries" -> Daemon.teardown ()
    | "edit-stream" -> Edit.state := None
    | _ -> ());
    Gc.full_major ()
  in
  let setups = ref [] and loads = ref [] in
  let timed_setup () =
    reset ();
    let t0 = now () in
    setup ();
    setups := (now () -. t0) :: !setups;
    if !workload = "daemon-queries" then loads := Daemon.load_s () :: !loads
  in
  let passes = ref [] in
  for _ = 1 to timed_rounds do
    timed_setup ();
    passes := pass () :: !passes
  done;
  let passes = List.rev !passes in
  let untraced = least_latencies passes in
  setups := !Edit.rebuilds @ !setups;
  let traced =
    if !trace = 1 then begin
      reset ();
      setup ();
      spans := [];
      tracing := true;
      let p = pass () in
      tracing := false;
      Some p
    end
    else None
  in
  if !workload = "daemon-queries" then Daemon.teardown ();
  (* checks: every one outside the timed region *)
  let sample = [ 0; n / 2; n - 1 ] in
  let p = untraced in
  (match !workload with
  | "cold-snapshot" -> Cold.check p sample
  | "edit-stream" -> Edit.check p [ 0; n / 2 ]
  | "failure-sweep" -> Fail.check p [ 0; n / 2 ]
  | _ -> Daemon.check p);
  let digests_ok = check_digests p in
  let deterministic =
    match traced with
    | None -> true
    | Some t ->
      (* the traced pass replays the same list: same answers, same counts *)
      let same = ref true in
      Array.iteri
        (fun i d ->
          if d <> p.digests.(i) || digest_line i t <> digest_line i p then begin
            log "traced op %d differs from the untraced pass" i;
            same := false
          end)
        t.digests;
      !same
  in
  for _ = 1 to setup_only_rounds do
    timed_setup ()
  done;
  reset ();
  let spin1, mem1 = host_probe () in
  let failed = Array.fold_left (fun a f -> if f then a + 1 else a) 0 p.failed in
  let correct = failed = 0 && digests_ok && deterministic in
  let sum_lat = Array.fold_left ( +. ) 0.0 p.lat in
  let pass_sums = List.map (fun q -> Array.fold_left ( +. ) 0.0 q.lat) passes in
  let setup_s = median (Array.of_list !setups) in
  let e2e =
    [ ("setup_s", setup_s);
      ("ops_per_s", float_of_int n /. Float.max 1e-9 sum_lat);
      ("op_p50_ms", median p.lat *. 1000.0);
      ("op_tail_ms", tail p.lat *. 1000.0);
      ("peak_rss_mb", p.rss_mb) ]
  in
  let counts = count_metrics p in
  let layer, low_ops =
    match traced with
    | None -> ([], [])
    | Some t ->
      let sm, low = span_metrics ~n in
      let traced_sum = Array.fold_left ( +. ) 0.0 t.lat in
      let pass_sum = median (Array.of_list pass_sums) in
      ( sm
        @ [ ("trace.overhead_pct", 100.0 *. (traced_sum -. pass_sum) /. Float.max 1e-9 pass_sum);
            ("service.load_s", if !loads = [] then 0.0 else median (Array.of_list !loads));
            ("host.spin_ms", (spin0 +. spin1) /. 2.0);
            ("host.mem_ms", (mem0 +. mem1) /. 2.0) ]
        @ counts @ !Daemon.reference_counts,
        low )
  in
  let layer_full =
    List.map (fun (k, _) -> (k, Option.value (List.assoc_opt k layer) ~default:0.0)) layer_units
  in
  let metrics_json units values =
    String.concat ","
      (List.map
         (fun (k, u) ->
           Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (json_str k)
             (json_float (List.assoc k values)) (json_str u))
         units)
  in
  let result =
    Printf.sprintf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}" correct n
      failed
      (if !trace = 1 then metrics_json layer_units layer_full else metrics_json e2e_units e2e)
  in
  (* the run record: everything a steadiness or determinism report needs *)
  let stem = Printf.sprintf "%s-seed%d-trace%d" !workload !seed !trace in
  if !trace = 1 then write_trace_events (Filename.concat !out_dir (stem ^ ".trace.json"));
  let oc = open_out (Filename.concat !out_dir (stem ^ ".json")) in
  let floats xs = "[" ^ String.concat "," (List.map json_float xs) ^ "]" in
  Printf.fprintf oc
    "{\"workload\":%s,\"seed\":%d,\"seconds\":%d,\"trace\":%d,\"ops\":%d,\"tail_percentile\":%s,\n\
     \"host_spin_ms\":%s,\"host_mem_ms\":%s,\"setup_rounds_s\":%s,\"pass_sums_s\":%s,\n\
     \"end_to_end\":{%s},\n\
     \"counts\":{%s},\n\"determinism\":{%s},\n\"low_coverage_ops\":[%s],\"correct\":%b,\"failed\":%d,\n\
     \"latencies_ms\":%s}\n"
    (json_str !workload) !seed !seconds !trace n (json_float (tail_percentile n))
    (floats [ spin0; spin1 ]) (floats [ mem0; mem1 ]) (floats (List.rev !setups))
    (floats pass_sums)
    (metrics_json e2e_units e2e)
    (String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s:%s" (json_str k) (json_float v)) counts))
    (String.concat ","
       (List.filter_map
          (fun k ->
            let vs = Array.to_list p.counts |> List.filter_map (List.assoc_opt k) in
            let vs = match List.assoc_opt k p.run_counts with Some v -> [ v ] | None -> vs in
            if vs = [] then None else Some (Printf.sprintf "%s:%s" (json_str k) (floats vs)))
          determinism_keys))
    (String.concat "," (List.map string_of_int low_ops))
    correct failed
    (floats (Array.to_list (Array.map (fun x -> x *. 1000.0) p.lat)));
  close_out oc;
  print_endline result
