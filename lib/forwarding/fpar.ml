(* Sharded parallel verification.

   Each worker domain re-materializes the forwarding graph from a
   manager-independent spec into its own private BDD manager, so workers
   share no mutable state at all — no concurrent unique table, no locking
   on the hot path. Independent queries (per-source forward passes,
   per-destination-shard backward passes) fan out over domains via the
   work-stealing scheduler; results come back either as plain data
   (reachability rows) or as exported BDDs that are imported and unioned in
   the caller's manager. Both merge paths are bit-identical to the
   sequential engine: BDDs are canonical, and every edge function
   distributes over union, so a fixpoint seeded with a union of sinks
   equals the pointwise union of per-shard fixpoints.

   Importing a graph into a cold manager per call is what inverted the
   speedup in the first sharded version, so workers now keep their imported
   graph (and its warm BDD caches) in domain-local storage, keyed by the
   spec fingerprint: on a persistent {!Par.Pool} the import happens once per
   worker per snapshot, and every later query against the same snapshot
   starts hot. An incremental update yields a new fingerprint, so stale
   entries age out of the small MRU cache by themselves. *)

(* --- worker-resident snapshot state ------------------------------------ *)

type cached = { c_fp : string; c_q : Fquery.t }

(* Per-worker MRU capacity. The historical fixed capacity of 2 covered a
   base snapshot plus its incremental successor, but thrashes as soon as a
   session serves three or more live fingerprints (an analysis daemon with
   several loaded snapshots, or the failure sweep's per-scenario graphs):
   every fan-out then re-imports a graph some other query just evicted.
   Default 4; long-lived services size it to their live-snapshot count via
   {!set_worker_cache_capacity}. *)
let cache_capacity = ref 4

let set_worker_cache_capacity n = cache_capacity := max 1 n
let worker_cache_capacity () = !cache_capacity

let worker_cache : cached list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let graph_imports = Atomic.make 0
let graph_reuses = Atomic.make 0
let graph_evictions = Atomic.make 0

let worker_stats () = (Atomic.get graph_imports, Atomic.get graph_reuses)

(* --- pool-worker residency registry ------------------------------------- *)

(* How many persistent pool workers currently hold each fingerprint in
   their domain-local cache. Maintained from inside the workers (import
   increments, eviction decrements; only counted under [Par.Pool.in_worker]
   — graphs imported by one-shot spawned domains die with the domain and
   must not register as resident). {!plan} reads it to decide whether a
   fan-out would start warm: a cold fan-out must additionally pay one graph
   import per worker, a warm one only job dispatch. *)
let resident_mutex = Mutex.create ()
let resident_counts : (string, int) Hashtbl.t = Hashtbl.create 16

let note_resident fp delta =
  if Par.Pool.in_worker () then begin
    Mutex.lock resident_mutex;
    let c = Option.value ~default:0 (Hashtbl.find_opt resident_counts fp) + delta in
    if c <= 0 then Hashtbl.remove resident_counts fp
    else Hashtbl.replace resident_counts fp c;
    Mutex.unlock resident_mutex
  end

let resident_workers fp =
  Mutex.lock resident_mutex;
  let c = Option.value ~default:0 (Hashtbl.find_opt resident_counts fp) in
  Mutex.unlock resident_mutex;
  c

(* --- measured calibration ----------------------------------------------- *)

(* Wall-clock samples feeding the [auto] plan: the cost of materializing a
   graph in a worker (the dominant cold fan-out overhead) and the serial
   engine's throughput in cost units (tasks × graph edges) per nanosecond.
   Both are measured on this machine at the current snapshot scale, so the
   derived cutoff tracks the real break-even instead of a hardcoded guess. *)
let import_ns_total = Atomic.make 0
let import_samples = Atomic.make 0
let serial_ns_total = Atomic.make 0
let serial_units_total = Atomic.make 0

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

let note_import ns =
  if ns > 0 then begin
    ignore (Atomic.fetch_and_add import_ns_total ns);
    Atomic.incr import_samples
  end

let note_serial ~cost ns =
  if cost > 0 && ns > 0 then begin
    ignore (Atomic.fetch_and_add serial_ns_total ns);
    ignore (Atomic.fetch_and_add serial_units_total cost)
  end

let measured_cutoff () =
  let samples = Atomic.get import_samples in
  let s_units = Atomic.get serial_units_total in
  let s_ns = Atomic.get serial_ns_total in
  if samples = 0 || s_units = 0 || s_ns = 0 then None
  else begin
    let import_ns = Atomic.get import_ns_total / samples in
    (* serial nanoseconds per cost unit, floored so the division below
       cannot blow up on very fast serial runs *)
    let unit_ns = max 1 (s_ns / s_units) in
    Some (import_ns / unit_ns)
  end

(* Runs inside a worker domain: fetch (or build) this domain's private query
   object for the snapshot identified by [fp]. MRU order; capacity bounds
   total managers per worker. *)
let worker_query ~fp ~spec ~dp ~configs () =
  let cache = Domain.DLS.get worker_cache in
  match List.find_opt (fun c -> c.c_fp = fp) !cache with
  | Some c ->
    Atomic.incr graph_reuses;
    cache := c :: List.filter (fun c' -> c'.c_fp <> fp) !cache;
    c.c_q
  | None ->
    let t0 = now_ns () in
    let qw = Fquery.of_graph (Fgraph.of_spec spec) ~dp ~configs in
    (* Count (and time) the import only after it succeeds and before the
       cache insert below: a raising import must leave the counters
       consistent with what the MRU cache actually holds. *)
    Atomic.incr graph_imports;
    note_import (now_ns () - t0);
    let cap = !cache_capacity in
    let keep = List.filteri (fun i _ -> i < cap - 1) !cache in
    let evicted = List.filteri (fun i _ -> i >= cap - 1) !cache in
    List.iter
      (fun c ->
        Atomic.incr graph_evictions;
        note_resident c.c_fp (-1))
      evicted;
    cache := { c_fp = fp; c_q = qw } :: keep;
    note_resident fp 1;
    qw

(* Import this graph into every resident pool worker up front, so the first
   client query against the snapshot finds the workers warm instead of
   paying the per-worker spec import inside its own latency (the cold-path
   inversion: importing per request made the cold sharded all-pairs slower
   than serial). Returns the number of workers warmed; 0 without a live
   pool — spawned domains die with their cache, so there is nothing durable
   to warm. *)
let prewarm ?pool q =
  match pool with
  | Some p when not (Par.Pool.closed p) ->
    let spec, fp = Fquery.spec_with_fingerprint q in
    let dp = q.Fquery.dp and configs = q.Fquery.configs in
    (* Importing the graph alone leaves each worker's private BDD manager
       with a cold unique table and operation caches, so the first sharded
       query still paid near-serial cost per shard (the cold-path
       inversion). Forward passes share little structure across starts, so
       run the default-starts all-pairs sweep in every worker — one pass per
       group of interchangeable sources, the same representatives a real
       query runs: each manager ends in exactly the state a completed query
       leaves behind, and the first client-visible query runs at warm speed.
       The sweep costs one serial all-pairs of wall time, paid here — at
       session/daemon load — instead of inside the first request's
       latency. *)
    let starts = Fquery.default_starts q in
    let warmed =
      Par.Pool.broadcast p (fun _ ->
          let qw = worker_query ~fp ~spec ~dp ~configs () in
          ignore (Fquery.all_pairs qw ~starts ()))
    in
    Array.fold_left
      (fun n r -> match r with Some () -> n + 1 | None -> n)
      0 warmed
  | Some _ | None -> 0

let worker_cached_graphs () = List.length !(Domain.DLS.get worker_cache)

type worker_cache_report = {
  wr_workers : int;
  wr_cached : int;
  wr_capacity : int;
  wr_evictions : int;
  wr_hits : int;
  wr_misses : int;
  wr_entries : int;
  wr_filled : int;
}

let worker_cache_stats pool =
  let per_worker =
    Par.Pool.broadcast pool (fun _ ->
        let cache = !(Domain.DLS.get worker_cache) in
        let agg =
          List.fold_left
            (fun (h, m, e, f) c ->
              let s = Bdd.cache_stats (Pktset.man (Fgraph.env (Fquery.graph c.c_q))) in
              ( h + s.Bdd.cs_hits, m + s.Bdd.cs_misses,
                e + s.Bdd.cs_entries, f + s.Bdd.cs_filled ))
            (0, 0, 0, 0) cache
        in
        (List.length cache, agg))
  in
  Array.fold_left
    (fun acc w ->
      match w with
      | None -> acc
      | Some (n, (h, m, e, f)) ->
        { acc with
          wr_workers = acc.wr_workers + 1; wr_cached = acc.wr_cached + n;
          wr_hits = acc.wr_hits + h; wr_misses = acc.wr_misses + m;
          wr_entries = acc.wr_entries + e; wr_filled = acc.wr_filled + f })
    { wr_workers = 0; wr_cached = 0; wr_capacity = !cache_capacity;
      wr_evictions = Atomic.get graph_evictions; wr_hits = 0; wr_misses = 0;
      wr_entries = 0; wr_filled = 0 }
    per_worker

(* --- adaptive scheduling ------------------------------------------------ *)

type plan = Serial | Parallel of int

(* How the parallelizable work scales when sharded across workers. *)
type workload =
  | Uniform  (** independent per-task passes: fan-out divides total work *)
  | Sharded_pass
      (** a fixed small number of whole-graph passes (multipath: one per
          sink kind) run concurrently: total work matches the serial engine
          but the achievable speedup is bounded by the pass count, so only
          jobs big enough to amortize the per-worker graph import win *)

(* Static floor for the [auto] cutoff in units of tasks × graph edges:
   below this, the fan-out overhead (job dispatch, spec shipping, result
   import) exceeds the win and serial execution is chosen. [0] is an escape
   hatch meaning "never fall back to serial" (used by tests to force the
   parallel branch); otherwise the floor is raised by the measured
   per-worker graph-import cost once samples exist. *)
let auto_cutoff = ref 60_000

(* Multiply [cutoff] by [factor], saturating instead of overflowing (the
   test escape hatch sets the cutoff to [max_int]). *)
let scale_cutoff cutoff factor =
  if cutoff > max_int / factor then max_int else cutoff * factor

let effective_cutoff ?(warm = false) ~workload ~workers () =
  ignore workers;
  if !auto_cutoff = 0 then 0
  else begin
    let base =
      (* A cold fan-out pays one graph import per worker before any useful
         work, so the measured import cost is charged on top of the static
         floor. Warm workers (graph already resident in their MRU cache)
         only pay job dispatch: the floor alone decides, letting smaller
         jobs go parallel once the session has warmed up. *)
      if warm then !auto_cutoff
      else
        match measured_cutoff () with
        | Some m -> max !auto_cutoff m
        | None -> !auto_cutoff
    in
    match workload with
    | Uniform -> base
    | Sharded_pass ->
      (* two concurrent passes at best halve the wall clock, so the job must
         out-earn twice the usual fan-out overhead before the pool pays off *)
      scale_cutoff base 2
  end

let plan ?pool ?(domains = 1) ?(auto = false) ?(workload = Uniform) ?fp ~tasks
    ~cost () =
  let workers =
    match pool with
    | Some p when not (Par.Pool.closed p) -> Par.Pool.size p
    | Some _ | None -> domains
  in
  (* Warm only counts when every worker already holds the graph: a partial
     residency would still pay imports on the cold workers. Only resident
     pool workers register (see [note_resident]), so [fp = None] — or any
     graph never shipped to a pool — plans as cold. *)
  let warm =
    match (fp, pool) with
    | Some fp, Some p when not (Par.Pool.closed p) ->
      resident_workers fp >= Par.Pool.size p
    | _ -> false
  in
  if tasks < 2 || workers <= 1 then Serial
  else if auto && cost < effective_cutoff ~warm ~workload ~workers () then
    Serial
  else Parallel workers

(* --- entry points ------------------------------------------------------- *)

(* Split any fan-out group longer than [max_len] (load balance: one merged
   class holding most starts must not serialize the whole sweep onto a
   single worker). *)
let chunk_group ~max_len group =
  let rec go acc cur n = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: tl ->
      if n >= max_len then go (List.rev cur :: acc) [ x ] 1 tl
      else go acc (x :: cur) (n + 1) tl
  in
  go [] [] 0 group

let all_pairs ?pool ?(domains = 1) ?(auto = false) ?hdr ?starts q =
  let starts =
    match starts with
    | Some s -> s
    | None -> Fquery.default_starts q
  in
  let g = Fquery.graph q in
  let cost = List.length starts * Fgraph.n_edges g in
  (* Per-group fan-out: interchangeable sources (identical concrete
     out-edge signatures, see {!Fquery.start_groups}) form one task, and the
     worker runs a single pass for the whole group, relabeling the
     representative's rows for the other members. *)
  let groups =
    let n_workers =
      match pool with
      | Some p when not (Par.Pool.closed p) -> Par.Pool.size p
      | Some _ | None -> max 1 domains
    in
    let max_len =
      max 1 ((List.length starts + (4 * n_workers) - 1) / (4 * n_workers))
    in
    List.concat_map (chunk_group ~max_len) (Fquery.start_groups q starts)
  in
  match
    plan ?pool ~domains ~auto
      ?fp:(Fquery.cached_fingerprint q)
      ~tasks:(List.length groups) ~cost ()
  with
  | Serial ->
    let t0 = now_ns () in
    let rows = Fquery.all_pairs q ?hdr ~starts () in
    note_serial ~cost (now_ns () - t0);
    rows
  | Parallel domains ->
    let spec, fp = Fquery.spec_with_fingerprint q in
    let hdr_ex =
      Option.map (fun h -> Bdd.export (Pktset.man (Fgraph.env g)) [ h ]) hdr
    in
    let dp = q.Fquery.dp and configs = q.Fquery.configs in
    let group_rows =
      Par.map_dynamic_init ?pool ~domains
        ~init:(fun () ->
          let qw = worker_query ~fp ~spec ~dp ~configs () in
          let hdr_w =
            Option.map
              (fun ex ->
                List.hd (Bdd.import (Pktset.man (Fquery.env qw)) ex))
              hdr_ex
          in
          (qw, hdr_w))
        (fun (qw, hdr_w) group ->
          match group with
          | [] -> []
          | (i0, s0) :: rest ->
            let rows0 = Fquery.pairs_for_start qw ?hdr:hdr_w s0 in
            (i0, rows0)
            :: List.map
                 (fun (i, s) ->
                   ( i,
                     List.map
                       (fun r -> { r with Fquery.rr_src = s })
                       rows0 ))
                 rest)
        (Array.of_list groups)
    in
    (* Reassemble rows in the original start order: grouping must not be
       observable in the result (bit-identical to the sequential sweep). *)
    let indexed = List.concat (Array.to_list group_rows) in
    let sorted =
      List.sort (fun (i, _) (j, _) -> Int.compare i j) indexed
    in
    List.concat_map snd sorted

let multipath_consistency ?pool ?(domains = 1) ?(auto = false) ?starts q =
  let starts =
    match starts with
    | Some s -> s
    | None -> Fquery.default_starts q
  in
  let g = Fquery.graph q in
  let delivered_sinks =
    Fgraph.locs_where g (function
      | Fgraph.Dst _ | Fgraph.Accept _ -> true
      | Fgraph.Src _ | Fgraph.Fwd _ | Fgraph.Pre_out _ | Fgraph.Dropped _ -> false)
  in
  let dropped_sinks =
    Fgraph.locs_where g (function
      | Fgraph.Dropped _ -> true
      | Fgraph.Src _ | Fgraph.Fwd _ | Fgraph.Pre_out _ | Fgraph.Dst _
      | Fgraph.Accept _ -> false)
  in
  (* The serial engine does two whole-graph backward passes (delivered,
     dropped); the parallel plan runs exactly those two passes concurrently,
     each with all its sinks batched into a single job so the per-worker
     graph import is paid once per pass, not once per sink shard. *)
  let cost =
    (List.length delivered_sinks + List.length dropped_sinks) * Fgraph.n_edges g
  in
  match
    plan ?pool ~domains ~auto ~workload:Sharded_pass
      ?fp:(Fquery.cached_fingerprint q)
      ~tasks:2 ~cost ()
  with
  | Serial ->
    let t0 = now_ns () in
    let verdicts = Fquery.multipath_consistency q ~starts () in
    note_serial ~cost (now_ns () - t0);
    verdicts
  | Parallel domains ->
    let man = Pktset.man (Fgraph.env g) in
    let start_ids =
      (* location indices are preserved by of_spec, so ids computed on the
         main graph address the same locations in every worker's graph *)
      List.map
        (fun (node, iface) ->
          match iface with
          | Some i -> Fgraph.loc_id g (Fgraph.Src (node, i))
          | None -> Fgraph.loc_id g (Fgraph.Fwd node))
        starts
    in
    let wanted = List.filter_map Fun.id start_ids in
    let tasks =
      List.filter
        (fun (_, sinks) -> sinks <> [])
        [ (`Deliver, delivered_sinks); (`Drop, dropped_sinks) ]
    in
    let spec, fp = Fquery.spec_with_fingerprint q in
    let dp = q.Fquery.dp and configs = q.Fquery.configs in
    let shards =
      Par.map_dynamic_init ?pool ~domains
        ~init:(fun () -> worker_query ~fp ~spec ~dp ~configs ())
        (fun qw (kind, sinks) ->
          (* route through the worker query object: the pass lands in its
             memo *)
          ignore sinks;
          let sets =
            match kind with
            | `Deliver -> Fquery.to_delivered qw ()
            | `Drop -> Fquery.to_dropped qw ()
          in
          let gw = Fquery.graph qw in
          let at_starts = List.map (fun id -> sets.(id)) wanted in
          (kind, Bdd.export (Pktset.man (Fgraph.env gw)) at_starts))
        (Array.of_list tasks)
    in
    (* Import each shard's per-start sets into the caller's manager and union
       per kind: union-distributivity makes this equal (canonically, so
       bit-identical) to one backward pass from all sinks. *)
    let n = List.length wanted in
    let deliver = Array.make n Bdd.bot and drop = Array.make n Bdd.bot in
    Array.iter
      (fun (kind, ex) ->
        let sets = Bdd.import man ex in
        let acc =
          match kind with
          | `Deliver -> deliver
          | `Drop -> drop
        in
        List.iteri (fun i s -> acc.(i) <- Bdd.bor man acc.(i) s) sets)
      shards;
    let by_id = Hashtbl.create 16 in
    List.iteri
      (fun i id ->
        if not (Hashtbl.mem by_id id) then Hashtbl.add by_id id (deliver.(i), drop.(i)))
      wanted;
    let clean =
      let e = Fgraph.env g in
      let acc = ref Bdd.top in
      for b = 0 to Pktset.extra_count e - 1 do
        acc := Bdd.band man !acc (Bdd.nvar man (Pktset.extra_level e b))
      done;
      !acc
    in
    List.filter_map
      (fun (s, id) ->
        match id with
        | None -> None
        | Some id ->
          let d, r = Hashtbl.find by_id id in
          let v = Bdd.band man (Bdd.band man d r) clean in
          if Bdd.is_bot v then None else Some (s, v))
      (List.combine starts start_ids)
