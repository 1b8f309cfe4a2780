(* Analysis-as-a-service (the §5.2 "persistent service" deployment mode).

   One process owns one persistent {!Par.Pool}; per-connection systhreads
   do protocol IO and block on engine mutexes, while the pool's worker
   domains do the parallel compute. Snapshots are stored by content
   fingerprint, so identical configs loaded by different clients share a
   single parsed session — and hence a single data plane, forwarding graph
   and warm per-worker graph cache. *)

type inflight_state = Running | Done of string | Failed of string

(* One in-flight query computation. Followers with the same (snapshot,
   query) key wait on [i_cv] and share the result fragment instead of
   re-running the engine. *)
type inflight = {
  i_mutex : Mutex.t;
  i_cv : Condition.t;
  mutable i_state : inflight_state;
}

type session = {
  s_bf : Batfish.t;
  (* Serializes engine computation on this snapshot: the session's BDD
     manager is single-threaded state. Cross-snapshot queries still
     overlap (each has its own lock), and within one query the shared
     pool provides the actual parallelism. *)
  s_lock : Mutex.t;
  (* [v_clock] value at the last store lookup that returned this session —
     the LRU eviction key. Guarded by [v_mutex]. *)
  mutable s_last_used : int;
}

type stats = {
  st_requests : int;
  st_errors : int;
  st_computed : int;
  st_coalesced : int;
  st_snapshots : int;
  st_dedup_hits : int;
  st_evictions : int;
  st_shutdowns_run : int;
}

type t = {
  v_mutex : Mutex.t;  (* guards store, inflight map, counters, conns *)
  v_store : (string, session) Hashtbl.t;
  v_inflight : (string * string, inflight) Hashtbl.t;
  v_pool : Par.Pool.t option;
  v_domains : int;
  v_auto : bool;
  v_max_snapshots : int option;  (* LRU store capacity; None = unbounded *)
  mutable v_requests : int;
  mutable v_errors : int;
  mutable v_computed : int;
  mutable v_coalesced : int;
  mutable v_dedup_hits : int;
  mutable v_evictions : int;
  mutable v_clock : int;  (* monotonic lookup counter driving LRU order *)
  mutable v_shutdowns_run : int;
  v_stopping : bool Atomic.t;
  v_finalized : bool Atomic.t;  (* the pool-shutdown once-guard *)
  mutable v_wake : Unix.file_descr option;  (* self-pipe write end *)
  mutable v_conns : (Unix.file_descr * Thread.t) list;
}

let test_delay = ref 0.

let create ?domains ?(auto = true) ?max_snapshots () =
  let domains =
    match domains with
    | Some d -> max 1 d
    | None -> Par.default_domains ()
  in
  let pool = if domains > 1 then Some (Par.Pool.create ~domains ()) else None in
  { v_mutex = Mutex.create (); v_store = Hashtbl.create 8;
    v_inflight = Hashtbl.create 8; v_pool = pool; v_domains = domains;
    v_auto = auto; v_max_snapshots = Option.map (max 1) max_snapshots;
    v_requests = 0; v_errors = 0; v_computed = 0;
    v_coalesced = 0; v_dedup_hits = 0; v_evictions = 0; v_clock = 0;
    v_shutdowns_run = 0;
    v_stopping = Atomic.make false; v_finalized = Atomic.make false;
    v_wake = None; v_conns = [] }

let stats t =
  Mutex.lock t.v_mutex;
  let s =
    { st_requests = t.v_requests; st_errors = t.v_errors;
      st_computed = t.v_computed; st_coalesced = t.v_coalesced;
      st_snapshots = Hashtbl.length t.v_store;
      st_dedup_hits = t.v_dedup_hits; st_evictions = t.v_evictions;
      st_shutdowns_run = t.v_shutdowns_run }
  in
  Mutex.unlock t.v_mutex;
  s

(* Stamp a session as just-used. Caller must hold [v_mutex]. *)
let touch t s =
  t.v_clock <- t.v_clock + 1;
  s.s_last_used <- t.v_clock

(* --- snapshot store ----------------------------------------------------- *)

(* Same digest as [Batfish.fingerprint]: (name, text-MD5) pairs in file
   order. Computable from the raw texts, so a client re-loading configs
   the store already holds is answered without parsing anything. *)
let files_fingerprint files =
  let buf = Buffer.create 256 in
  List.iter
    (fun (name, text) ->
      Buffer.add_string buf name;
      Buffer.add_char buf '\000';
      Buffer.add_string buf (Digest.to_hex (Digest.string text));
      Buffer.add_char buf '\000')
    files;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let session_options t =
  { Dataplane.default_options with
    Dataplane.domains = t.v_domains;
    Dataplane.pool = t.v_pool }

(* Size the per-worker graph MRU to the live-snapshot count (+1 slack for
   an update in flight): a capacity below the number of snapshots in
   active rotation makes every fan-out re-import a graph some other query
   just evicted — the stuck-at-9%-hit-rate failure. Never shrinks below
   the default. *)
let resize_worker_cache t =
  Fpar.set_worker_cache_capacity (max 4 (Hashtbl.length t.v_store + 1))

(* Drop least-recently-used snapshots until the store fits the configured
   capacity. Caller must hold [v_mutex]. Sessions still referenced by an
   in-flight request keep working (only the store entry goes away); a
   client re-loading an evicted snapshot simply pays the parse again. *)
let evict_over_capacity t =
  match t.v_max_snapshots with
  | None -> ()
  | Some cap ->
    while Hashtbl.length t.v_store > cap do
      let victim =
        Hashtbl.fold
          (fun fp s acc ->
            match acc with
            | Some (_, best) when best.s_last_used <= s.s_last_used -> acc
            | Some _ | None -> Some (fp, s))
          t.v_store None
      in
      match victim with
      | None -> assert false (* store length > cap >= 1: non-empty *)
      | Some (fp, _) ->
        Hashtbl.remove t.v_store fp;
        t.v_evictions <- t.v_evictions + 1
    done

(* Register a session under [fp]; an existing entry wins (two clients
   racing identical loads keep one session). Caller must not hold
   [v_mutex]. Returns (session, freshly_registered). *)
let register t fp bf =
  Mutex.lock t.v_mutex;
  match Hashtbl.find_opt t.v_store fp with
  | Some s ->
    t.v_dedup_hits <- t.v_dedup_hits + 1;
    touch t s;
    Mutex.unlock t.v_mutex;
    (s, false)
  | None ->
    let s = { s_bf = bf; s_lock = Mutex.create (); s_last_used = 0 } in
    Hashtbl.replace t.v_store fp s;
    touch t s;
    evict_over_capacity t;
    resize_worker_cache t;
    Mutex.unlock t.v_mutex;
    (s, true)

let find_session t fp =
  Mutex.lock t.v_mutex;
  let r =
    match fp with
    | Some fp -> Hashtbl.find_opt t.v_store fp
    | None -> (
      (* snapshot is optional exactly when the store is unambiguous *)
      match Hashtbl.fold (fun _ s acc -> s :: acc) t.v_store [] with
      | [ s ] -> Some s
      | _ -> None)
  in
  Option.iter (touch t) r;
  Mutex.unlock t.v_mutex;
  r

let load_session ?(warm = true) t ?(diags = []) files =
  let fp = files_fingerprint files in
  let existing =
    Mutex.lock t.v_mutex;
    let s = Hashtbl.find_opt t.v_store fp in
    (match s with
    | Some s ->
      t.v_dedup_hits <- t.v_dedup_hits + 1;
      touch t s
    | None -> ());
    Mutex.unlock t.v_mutex;
    s
  in
  match existing with
  | Some s -> (fp, s, false, 0)
  | None ->
    let snap = Batfish.Snapshot.of_texts ~diags files in
    let bf =
      Batfish.init ~options:(session_options t) ~auto_domains:t.v_auto snap
    in
    let s, fresh = register t fp bf in
    let warmed =
      if fresh && warm then begin
        Mutex.lock s.s_lock;
        let w = try Batfish.prewarm s.s_bf with _ -> 0 in
        Mutex.unlock s.s_lock;
        w
      end
      else 0
    in
    (fp, s, fresh, warmed)

let load_files ?warm t files =
  let fp, _, _, _ = load_session ?warm t files in
  fp

(* --- in-flight coalescing ----------------------------------------------- *)

(* Run [compute] for (snapshot [fp], canonical query [key]), or join the
   identical computation already in flight. Returns the result fragment
   plus whether this request coalesced. The owner always reaches the
   Done/Failed broadcast (exceptions included), so followers never hang. *)
let run_coalesced t ~fp ~key compute =
  Mutex.lock t.v_mutex;
  match Hashtbl.find_opt t.v_inflight (fp, key) with
  | Some infl ->
    t.v_coalesced <- t.v_coalesced + 1;
    Mutex.unlock t.v_mutex;
    Mutex.lock infl.i_mutex;
    while infl.i_state = Running do
      Condition.wait infl.i_cv infl.i_mutex
    done;
    let st = infl.i_state in
    Mutex.unlock infl.i_mutex;
    (match st with
    | Done s -> (Ok s, true)
    | Failed e -> (Error e, true)
    | Running -> assert false)
  | None ->
    let infl =
      { i_mutex = Mutex.create (); i_cv = Condition.create ();
        i_state = Running }
    in
    Hashtbl.replace t.v_inflight (fp, key) infl;
    t.v_computed <- t.v_computed + 1;
    Mutex.unlock t.v_mutex;
    let result =
      match
        if !test_delay > 0. then Thread.delay !test_delay;
        compute ()
      with
      | v -> Ok v
      | exception exn -> Error (Printexc.to_string exn)
    in
    Mutex.lock t.v_mutex;
    Hashtbl.remove t.v_inflight (fp, key);
    Mutex.unlock t.v_mutex;
    Mutex.lock infl.i_mutex;
    infl.i_state <-
      (match result with Ok s -> Done s | Error e -> Failed e);
    Condition.broadcast infl.i_cv;
    Mutex.unlock infl.i_mutex;
    (result, false)

(* --- request handling --------------------------------------------------- *)

let str s = Sjson.Str s

(* The one answer encoder: tables go straight into a single buffer, with
   no intermediate [Sjson.t] tree. The bytes are exactly those of
   [Sjson.to_string] on the equivalent {"answers":[...],"plan":...} tree. *)
let answers_fragment ?plan answers =
  (* sized for the unescaped text plus quotes and separators, so a
     multi-megabyte answer is written without regrowing the buffer *)
  let strings_size xs = List.fold_left (fun n x -> n + String.length x + 3) 2 xs in
  let size =
    List.fold_left
      (fun n (a : Questions.answer) ->
        List.fold_left
          (fun n row -> n + strings_size row)
          (n + 64 + strings_size (a.Questions.a_title :: a.Questions.a_header))
          a.Questions.a_rows)
      64 answers
  in
  let buf = Buffer.create size in
  let strings xs =
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        Sjson.add_quoted buf x)
      xs;
    Buffer.add_char buf ']'
  in
  Buffer.add_string buf "{\"answers\":[";
  List.iteri
    (fun i (a : Questions.answer) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf "{\"title\":";
      Sjson.add_quoted buf a.Questions.a_title;
      Buffer.add_string buf ",\"header\":";
      strings a.Questions.a_header;
      Buffer.add_string buf ",\"rows\":[";
      List.iteri
        (fun j row ->
          if j > 0 then Buffer.add_char buf ',';
          strings row)
        a.Questions.a_rows;
      Buffer.add_string buf "]}")
    answers;
  Buffer.add_char buf ']';
  Option.iter
    (fun p ->
      Buffer.add_string buf ",\"plan\":";
      Sjson.add_quoted buf p)
    plan;
  Buffer.add_char buf '}';
  Buffer.contents buf

(* The admission decision a symbolic query will face, as reported to the
   client: the very plan [Fpar] uses, fed the session pool, the adaptive
   cutoff and the snapshot's residency fingerprint. *)
let plan_string t q ~workload ~tasks =
  let g = Fquery.graph q in
  let cost = List.length (Fquery.default_starts q) * Fgraph.n_edges g in
  match
    Fpar.plan ?pool:t.v_pool ~domains:t.v_domains ~auto:t.v_auto ~workload
      ?fp:(Fquery.cached_fingerprint q) ~tasks ~cost ()
  with
  | Fpar.Serial -> "serial"
  | Fpar.Parallel n -> Printf.sprintf "parallel(%d)" n

let param params name = Option.bind params (Sjson.member name)
let param_string params name = Option.bind (param params name) Sjson.get_string

let parse_start s =
  match String.index_opt s '/' with
  | Some i ->
    (String.sub s 0 i, Some (String.sub s (i + 1) (String.length s - i - 1)))
  | None -> (s, None)

(* Canonical query key + thunk for one question. The key must be a pure
   function of the question's semantics (same question text + params ⇒
   same key) — it is the coalescing identity within a snapshot. *)
let question_of_params s params =
  let bf = s.s_bf in
  match param_string params "question" with
  | None -> Error "missing params.question"
  | Some "multipath" ->
    Ok ("multipath", fun t ->
        let plan =
          plan_string t (Batfish.forwarding bf) ~workload:Fpar.Sharded_pass
            ~tasks:2
        in
        answers_fragment ~plan [ Batfish.answer_multipath_consistency bf ])
  | Some "all_pairs" ->
    Ok ("all_pairs", fun t ->
        let q = Batfish.forwarding bf in
        let plan =
          plan_string t q ~workload:Fpar.Uniform
            ~tasks:(List.length (Fquery.default_starts q))
        in
        answers_fragment ~plan [ Batfish.answer_all_pairs bf ])
  | Some "reachability" -> (
    match (param_string params "src", param_string params "dst_prefix") with
    | None, _ -> Error "reachability needs params.src (NODE or NODE/IFACE)"
    | _, None -> Error "reachability needs params.dst_prefix"
    | Some src, Some dst -> (
      match Prefix.of_string_opt dst with
      | None -> Error (Printf.sprintf "bad dst_prefix '%s'" dst)
      | Some dst_ip ->
        Ok
          ( Printf.sprintf "reachability src=%s dst=%s" src dst,
            fun _ ->
              answers_fragment
                [ Batfish.answer_reachability bf ~src:(parse_start src)
                    ~dst_ip () ] )))
  | Some "routes" ->
    let node = param_string params "node" in
    let protocol = param_string params "protocol" in
    Ok
      ( Printf.sprintf "routes node=%s proto=%s"
          (Option.value ~default:"*" node)
          (Option.value ~default:"*" protocol),
        fun _ -> answers_fragment [ Batfish.answer_routes ?node ?protocol bf ] )
  | Some "lint" -> Ok ("lint", fun _ -> answers_fragment [ Batfish.answer_lint bf ])
  | Some "coverage" ->
    Ok ("coverage", fun _ -> answers_fragment [ Batfish.answer_coverage bf ])
  | Some "loops" -> Ok ("loops", fun _ -> answers_fragment [ Batfish.answer_loops bf ])
  | Some "diagnostics" ->
    Ok ("diagnostics", fun _ -> answers_fragment [ Batfish.answer_diagnostics bf ])
  | Some "check" -> Ok ("check", fun _ -> answers_fragment (Batfish.check_all bf))
  | Some q -> Error (Printf.sprintf "unknown question '%s'" q)

let files_of_params params =
  match param params "files" with
  | Some files_json -> (
    match Sjson.get_obj files_json with
    | None -> Error "params.files must be an object of name -> config text"
    | Some kvs ->
      let rec conv acc = function
        | [] -> Ok (List.rev acc)
        | (name, Sjson.Str text) :: rest -> conv ((name, text) :: acc) rest
        | (name, _) :: _ ->
          Error (Printf.sprintf "params.files.%s must be a string" name)
      in
      Result.map (fun files -> (files, [])) (conv [] kvs))
  | None -> (
    match param_string params "dir" with
    | Some dir -> (
      match Batfish.Snapshot.read_dir dir with
      | files, diags -> Ok (files, diags)
      | exception exn ->
        Error
          (Printf.sprintf "cannot read '%s': %s" dir (Printexc.to_string exn)))
    | None -> Error "load needs params.files or params.dir")

let forward_stop = ref (fun (_ : t) -> ())

(* Dispatch one parsed request; returns the response fields after "ok". *)
let dispatch t req =
  let params = Sjson.member "params" req in
  match Option.bind (Sjson.member "method" req) Sjson.get_string with
  | None -> Error "missing method"
  | Some "ping" -> Ok ("\"pong\"", None)
  | Some "load" -> (
    match files_of_params params with
    | Error e -> Error e
    | Ok (files, diags) ->
      let warm =
        Option.value ~default:true
          (Option.bind (param params "warm") Sjson.get_bool)
      in
      let fp, s, fresh, warmed = load_session ~warm t ~diags files in
      let nodes =
        List.length (Batfish.Snapshot.node_names (Batfish.snapshot s.s_bf))
      in
      Ok
        ( Sjson.to_string
            (Sjson.Obj
               [ ("fingerprint", str fp); ("files", Sjson.Int (List.length files));
                 ("nodes", Sjson.Int nodes); ("reused", Sjson.Bool (not fresh));
                 ("warmed", Sjson.Int warmed) ]),
          None ))
  | Some "query" -> (
    match find_session t (param_string params "snapshot") with
    | None -> Error "unknown snapshot (load first, or pass params.snapshot)"
    | Some s -> (
      match question_of_params s params with
      | Error e -> Error e
      | Ok (key, compute) -> (
        let fp = Batfish.fingerprint s.s_bf in
        let result, coalesced =
          run_coalesced t ~fp ~key (fun () ->
              Mutex.lock s.s_lock;
              Fun.protect
                ~finally:(fun () -> Mutex.unlock s.s_lock)
                (fun () -> compute t))
        in
        match result with
        | Error e -> Error e
        | Ok fragment ->
          Ok
            ( fragment,
              Some
                (Sjson.to_string
                   (Sjson.Obj [ ("coalesced", Sjson.Bool coalesced) ])) ))))
  | Some "update" -> (
    match find_session t (param_string params "snapshot") with
    | None -> Error "unknown snapshot (load first, or pass params.snapshot)"
    | Some s -> (
      match files_of_params params with
      | Error e -> Error e
      | Ok (files, diags) ->
        let removed =
          match Option.bind (param params "removed") Sjson.get_arr with
          | Some xs -> List.filter_map Sjson.get_string xs
          | None -> []
        in
        Mutex.lock s.s_lock;
        let outcome =
          match Batfish.update ~removed ~diags ~files s.s_bf with
          | v -> Ok v
          | exception exn -> Error (Printexc.to_string exn)
        in
        Mutex.unlock s.s_lock;
        (match outcome with
        | Error e -> Error e
        | Ok (bf', report) ->
          let fp' = Batfish.fingerprint bf' in
          ignore (register t fp' bf');
          Ok
            ( Sjson.to_string
                (Sjson.Obj
                   [ ("fingerprint", str fp');
                     ("files_changed", Sjson.Int report.Batfish.up_files_changed);
                     ("files_reparsed", Sjson.Int report.Batfish.up_files_reparsed);
                     ("nodes_changed",
                      Sjson.Arr (List.map str report.Batfish.up_nodes_changed));
                     ("nodes_simulated", Sjson.Int report.Batfish.up_nodes_simulated);
                     ("nodes_reused", Sjson.Int report.Batfish.up_nodes_reused);
                     ("forwarding_rebuilt",
                      Sjson.Bool report.Batfish.up_forwarding_rebuilt);
                     ("memo_invalidated", Sjson.Int report.Batfish.up_memo_invalidated) ]),
              None ))))
  | Some "unload" -> (
    match param_string params "snapshot" with
    | None -> Error "unload needs params.snapshot"
    | Some fp ->
      Mutex.lock t.v_mutex;
      let known = Hashtbl.mem t.v_store fp in
      if known then begin
        Hashtbl.remove t.v_store fp;
        resize_worker_cache t
      end;
      Mutex.unlock t.v_mutex;
      if known then Ok ("\"unloaded\"", None)
      else Error (Printf.sprintf "unknown snapshot '%s'" fp))
  | Some "stats" ->
    let s = stats t in
    let pool_fields =
      match t.v_pool with
      | Some p when not (Par.Pool.closed p) ->
        [ ("pool_workers", Sjson.Int (Par.Pool.size p));
          ("pool_jobs", Sjson.Int (Par.Pool.jobs_run p)) ]
      | _ -> [ ("pool_workers", Sjson.Int 0); ("pool_jobs", Sjson.Int 0) ]
    in
    Ok
      ( Sjson.to_string
          (Sjson.Obj
             ([ ("requests", Sjson.Int s.st_requests);
                ("errors", Sjson.Int s.st_errors);
                ("computed", Sjson.Int s.st_computed);
                ("coalesced", Sjson.Int s.st_coalesced);
                ("snapshots", Sjson.Int s.st_snapshots);
                ("dedup_hits", Sjson.Int s.st_dedup_hits);
                ("evictions", Sjson.Int s.st_evictions);
                ("max_snapshots",
                 Sjson.Int (Option.value ~default:0 t.v_max_snapshots));
                ("worker_cache_capacity", Sjson.Int (Fpar.worker_cache_capacity ())) ]
             @ pool_fields)),
        None )
  | Some "shutdown" ->
    !forward_stop t;
    Ok ("\"stopping\"", None)
  | Some m -> Error (Printf.sprintf "unknown method '%s'" m)

(* One response line as [head; body; tail]. The result fragment [body] is
   passed through verbatim (it is already JSON), so coalesced followers
   share the rendered result without re-encoding or copying it — only the
   small envelope around it differs per request. *)
let response_parts ?id ?meta ~ok body =
  let head =
    String.concat ""
      [ (if ok then "{\"ok\":true" else "{\"ok\":false");
        (match id with Some id -> ",\"id\":" ^ Sjson.to_string id | None -> "");
        (if ok then ",\"result\":" else ",\"error\":") ]
  in
  let tail = match meta with Some m -> ",\"meta\":" ^ m ^ "}" | None -> "}" in
  [ head; body; tail ]

let count_request ?(error = false) t =
  Mutex.lock t.v_mutex;
  t.v_requests <- t.v_requests + 1;
  if error then t.v_errors <- t.v_errors + 1;
  Mutex.unlock t.v_mutex

let error_response ?id t msg =
  count_request ~error:true t;
  response_parts ?id ~ok:false (Sjson.to_string (Sjson.Str msg))

let handle_line_parts t line =
  match Sjson.parse line with
  | Error msg -> error_response t msg
  | Ok req -> (
    let id = Sjson.member "id" req in
    match (try dispatch t req with exn -> Error (Printexc.to_string exn)) with
    | Error msg -> error_response ?id t msg
    | Ok (body, meta) ->
      count_request t;
      response_parts ?id ?meta ~ok:true body)

let handle_line t line = String.concat "" (handle_line_parts t line)

(* --- sockets and lifecycle ---------------------------------------------- *)

let stop t =
  if not (Atomic.exchange t.v_stopping true) then
    (* wake the accept loop; a full pipe just means it is already awake *)
    match t.v_wake with
    | Some w -> (
      match Unix.write w (Bytes.make 1 '!') 0 1 with
      | _ -> ()
      | exception Unix.Unix_error _ -> ())
    | None -> ()

let () = forward_stop := stop

(* Shut the shared pool down exactly once, whichever path gets here first
   (signal-driven stop, protocol shutdown, explicit serve return). The
   process [at_exit] sweep would also join the pool, but that now being
   idempotent is the backstop, not the plan. *)
let finalize t =
  if not (Atomic.exchange t.v_finalized true) then begin
    (match t.v_pool with
    | Some p -> ( try Par.Pool.shutdown p with _ -> ())
    | None -> ());
    Mutex.lock t.v_mutex;
    t.v_shutdowns_run <- t.v_shutdowns_run + 1;
    Mutex.unlock t.v_mutex
  end

let handle_conn t fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  (try
     let rec loop () =
       match input_line ic with
       | exception End_of_file -> ()
       | line ->
         let line =
           (* tolerate CRLF clients (nc, telnet) *)
           if String.length line > 0 && line.[String.length line - 1] = '\r'
           then String.sub line 0 (String.length line - 1)
           else line
         in
         if String.trim line <> "" then begin
           List.iter (output_string oc) (handle_line_parts t line);
           output_char oc '\n';
           flush oc
         end;
         loop ()
     in
     loop ()
   with _ -> ());
  Mutex.lock t.v_mutex;
  t.v_conns <- List.filter (fun (fd', _) -> fd' != fd) t.v_conns;
  Mutex.unlock t.v_mutex;
  try Unix.close fd with Unix.Unix_error _ -> ()

let serve ?(install_signals = true) ?tcp_port ~socket t =
  (* Self-pipe: [stop] (possibly from a signal handler) writes one byte,
     unblocking the select below no matter when the signal lands. *)
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_w;
  t.v_wake <- Some wake_w;
  let saved_signals =
    if install_signals then begin
      let h = Sys.Signal_handle (fun _ -> stop t) in
      [ (Sys.sigint, Sys.signal Sys.sigint h);
        (Sys.sigterm, Sys.signal Sys.sigterm h) ]
    end
    else []
  in
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let lsock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lsock (Unix.ADDR_UNIX socket);
  Unix.listen lsock 64;
  let tsock =
    Option.map
      (fun port ->
        let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt s Unix.SO_REUSEADDR true;
        Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        Unix.listen s 64;
        s)
      tcp_port
  in
  let listeners = lsock :: Option.to_list tsock in
  let accept_one l =
    match Unix.accept l with
    | fd, _ ->
      Mutex.lock t.v_mutex;
      let th = Thread.create (fun () -> handle_conn t fd) () in
      t.v_conns <- (fd, th) :: t.v_conns;
      Mutex.unlock t.v_mutex
    | exception Unix.Unix_error _ -> ()
  in
  let rec loop () =
    if not (Atomic.get t.v_stopping) then begin
      (match Unix.select (wake_r :: listeners) [] [] (-1.) with
      | ready, _, _ ->
        List.iter
          (fun fd -> if fd != wake_r && List.memq fd ready then accept_one fd)
          listeners
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ();
  List.iter (fun l -> try Unix.close l with Unix.Unix_error _ -> ()) listeners;
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  (* Drain: stop feeding the readers (in-flight responses still flush —
     only the receive side is shut), then join every connection thread,
     so a request racing the signal still gets its complete answer. *)
  Mutex.lock t.v_mutex;
  let conns = t.v_conns in
  Mutex.unlock t.v_mutex;
  List.iter
    (fun (fd, _) ->
      try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
    conns;
  List.iter (fun (_, th) -> Thread.join th) conns;
  t.v_wake <- None;
  (try Unix.close wake_r with Unix.Unix_error _ -> ());
  (try Unix.close wake_w with Unix.Unix_error _ -> ());
  List.iter (fun (s, old) -> Sys.set_signal s old) saved_signals;
  finalize t
