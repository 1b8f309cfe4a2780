(* Analysis-as-a-service daemon (ISSUE 9): protocol correctness, snapshot
   dedup, in-flight coalescing, malformed-request isolation, concurrent
   clients over a real Unix socket, clean shutdown mid-request, and the
   Par.Pool shutdown races the daemon leans on. The service must answer
   byte-identically to the one-shot CLI path (same engine, same renderer),
   and a bad request must never take the daemon down. *)

let check = Alcotest.check

(* --- Sjson: the hand-rolled protocol codec ------------------------------ *)

let rec json_equal a b =
  match (a, b) with
  | Sjson.Null, Sjson.Null -> true
  | Sjson.Bool x, Sjson.Bool y -> x = y
  | Sjson.Int x, Sjson.Int y -> x = y
  | Sjson.Float x, Sjson.Float y -> x = y
  | Sjson.Str x, Sjson.Str y -> x = y
  | Sjson.Arr xs, Sjson.Arr ys ->
    List.length xs = List.length ys && List.for_all2 json_equal xs ys
  | Sjson.Obj xs, Sjson.Obj ys ->
    List.length xs = List.length ys
    && List.for_all2
         (fun (k1, v1) (k2, v2) -> k1 = k2 && json_equal v1 v2)
         xs ys
  | _ -> false

let sjson_roundtrip () =
  let v =
    Sjson.Obj
      [ ("method", Sjson.Str "load");
        ("id", Sjson.Int 42);
        ("pi", Sjson.Float 3.5);
        ("flags", Sjson.Arr [ Sjson.Bool true; Sjson.Bool false; Sjson.Null ]);
        ("text", Sjson.Str "line1\nline2\t\"quoted\" \\ \x01");
        ("nested", Sjson.Obj [ ("empty_arr", Sjson.Arr []); ("empty_obj", Sjson.Obj []) ]) ]
  in
  match Sjson.parse (Sjson.to_string v) with
  | Error e -> Alcotest.failf "round-trip parse failed: %s" e
  | Ok v' -> check Alcotest.bool "round-trip equal" true (json_equal v v')

let sjson_parse_forms () =
  let ok s = match Sjson.parse s with Ok v -> v | Error e -> Alcotest.failf "parse %S: %s" s e in
  check Alcotest.bool "unicode escape" true
    (json_equal (ok {|"Aé"|}) (Sjson.Str "A\xc3\xa9"));
  check Alcotest.bool "negative int" true (json_equal (ok "-17") (Sjson.Int (-17)));
  check Alcotest.bool "exponent is float" true (json_equal (ok "1e3") (Sjson.Float 1000.));
  check Alcotest.bool "whitespace tolerated" true
    (json_equal (ok " { \"a\" : [ 1 , 2 ] } ") (Sjson.Obj [ ("a", Sjson.Arr [ Sjson.Int 1; Sjson.Int 2 ]) ]))

let sjson_parse_errors () =
  List.iter
    (fun s ->
      match Sjson.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected parse error for %S" s)
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 trailing"; "{\"a\" 1}" ]

(* [depth] nested arrays around a scalar: well-formed JSON. *)
let nested depth = String.make depth '[' ^ "0" ^ String.make depth ']'

let sjson_depth_cap () =
  (match Sjson.parse (nested Sjson.max_depth) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "nesting at the cap rejected: %s" e);
  (match Sjson.parse (nested (Sjson.max_depth + 1)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "nesting past the cap accepted");
  (match Sjson.parse ("{\"a\":" ^ nested Sjson.max_depth ^ "}") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "object nesting past the cap accepted");
  (* a 100k-deep array fails at the cap, not after walking all of it *)
  let t0 = Unix.gettimeofday () in
  (match Sjson.parse (nested 100_000) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "100k-deep array accepted");
  let dt = Unix.gettimeofday () -. t0 in
  if dt > 0.5 then Alcotest.failf "100k-deep array took %.2f s to reject" dt

(* --- byte-identity of the direct answer encoder ------------------------- *)

let qtest ?(count = 300) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

(* The per-character escaper [Sjson] used before it copied unescaped runs
   whole; kept here only as the reference. *)
let per_char_escape s =
  let buf = Buffer.create 16 in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  "\"" ^ Buffer.contents buf ^ "\""

(* Strings dense in the bytes an encoder can get wrong: quotes, backslashes,
   the named and unnamed control bytes, DEL and bytes >= 0x80. *)
let nasty_string =
  QCheck.Gen.(
    string_size (int_bound 24)
      ~gen:
        (frequency
           [ (4, char_range 'a' 'z'); (1, pure '"'); (1, pure '\\');
             (1, oneofl [ '\n'; '\r'; '\t' ]); (1, char_range '\000' '\031');
             (1, pure '\127'); (1, char_range '\128' '\255') ]))

let sjson_escape_matches_per_char =
  qtest ~count:1000 "escape = per-character escape"
    (QCheck.make ~print:String.escaped nasty_string)
    (fun s -> Sjson.to_string (Sjson.Str s) = per_char_escape s)

let answer_gen =
  QCheck.Gen.(
    let* a_title = nasty_string in
    let* a_header = list_size (int_bound 4) nasty_string in
    let+ a_rows = list_size (int_bound 6) (list_size (int_bound 4) nasty_string) in
    { Questions.a_title; a_header; a_rows })

(* [Service.answers_fragment] against [Sjson.to_string] of the tree the
   service used to build for the same answers *)
let fragment_matches_tree =
  let print (plan, answers) =
    Printf.sprintf "plan=%s answers=%s"
      (Option.value ~default:"-" plan)
      (String.concat "; "
         (List.map
            (fun (a : Questions.answer) ->
              String.escaped (Questions.answer_to_string a))
            answers))
  in
  qtest "answers_fragment = Sjson tree"
    (QCheck.make ~print
       QCheck.Gen.(pair (opt nasty_string) (list_size (int_bound 3) answer_gen)))
    (fun (plan, answers) ->
      let str s = Sjson.Str s in
      let answer_json (a : Questions.answer) =
        Sjson.Obj
          [ ("title", str a.Questions.a_title);
            ("header", Sjson.Arr (List.map str a.Questions.a_header));
            ("rows",
             Sjson.Arr
               (List.map (fun row -> Sjson.Arr (List.map str row)) a.Questions.a_rows)) ]
      in
      let tree =
        Sjson.Obj
          ([ ("answers", Sjson.Arr (List.map answer_json answers)) ]
          @ match plan with None -> [] | Some p -> [ ("plan", str p) ])
      in
      Service.answers_fragment ?plan answers = Sjson.to_string tree)

(* --- protocol helpers --------------------------------------------------- *)

let fixture_files =
  (* deterministic small clos fabric; parsed by the service from raw text,
     exactly as a client would send it *)
  let net = Netgen.clos ~name:"tsvc" ~spines:2 ~leaves:3 () in
  net.Netgen.n_configs

let request ?id ?params meth =
  let fields =
    [ ("method", Sjson.Str meth) ]
    @ (match id with Some i -> [ ("id", Sjson.Int i) ] | None -> [])
    @ match params with Some p -> [ ("params", Sjson.Obj p) ] | None -> []
  in
  Sjson.to_string (Sjson.Obj fields)

let load_params files = [ ("files", Sjson.Obj (List.map (fun (n, t) -> (n, Sjson.Str t)) files)) ]

let parse_resp line =
  match Sjson.parse line with
  | Error e -> Alcotest.failf "response is not JSON (%s): %s" e line
  | Ok v -> v

let resp_ok line =
  match Option.bind (Sjson.member "ok" (parse_resp line)) Sjson.get_bool with
  | Some b -> b
  | None -> Alcotest.failf "response missing ok: %s" line

let resp_field line name = Sjson.member name (parse_resp line)

(* --- handle_line: envelope, dedup, isolation ---------------------------- *)

let service_ping_envelope () =
  let t = Service.create ~domains:1 () in
  let r = Service.handle_line t (request ~id:7 "ping") in
  check Alcotest.bool "ok" true (resp_ok r);
  check Alcotest.bool "id echoed" true
    (match resp_field r "id" with Some (Sjson.Int 7) -> true | _ -> false);
  check Alcotest.bool "pong" true
    (match resp_field r "result" with Some (Sjson.Str "pong") -> true | _ -> false)

let service_load_dedup () =
  let t = Service.create ~domains:1 () in
  let line = request "load" ~params:(load_params fixture_files) in
  let r1 = Service.handle_line t line in
  let r2 = Service.handle_line t line in
  check Alcotest.bool "first load ok" true (resp_ok r1);
  check Alcotest.bool "second load ok" true (resp_ok r2);
  let reused r =
    match Option.bind (resp_field r "result") (Sjson.member "reused") with
    | Some (Sjson.Bool b) -> b
    | _ -> Alcotest.failf "load result missing reused: %s" r
  in
  check Alcotest.bool "first load is fresh" false (reused r1);
  check Alcotest.bool "second load reuses the snapshot" true (reused r2);
  let fp r =
    match Option.bind (resp_field r "result") (Sjson.member "fingerprint") with
    | Some (Sjson.Str s) -> s
    | _ -> Alcotest.failf "load result missing fingerprint: %s" r
  in
  check Alcotest.string "same fingerprint" (fp r1) (fp r2);
  let s = Service.stats t in
  check Alcotest.int "one live snapshot" 1 s.Service.st_snapshots;
  check Alcotest.int "one dedup hit" 1 s.Service.st_dedup_hits

let service_lru_eviction () =
  (* capacity 2: loading a third snapshot must evict the least recently
     used one (the first — the second is touched by a query in between),
     and the eviction must show up in stats *)
  let t = Service.create ~domains:1 ~max_snapshots:2 () in
  let snap i =
    (Netgen.clos ~name:(Printf.sprintf "lru%d" i) ~spines:2 ~leaves:2 ())
      .Netgen.n_configs
  in
  let fp1 = Service.load_files ~warm:false t (snap 1) in
  let fp2 = Service.load_files ~warm:false t (snap 2) in
  (* touch snapshot 1 so snapshot 2 is the LRU victim *)
  check Alcotest.bool "query on fp1 ok" true
    (resp_ok
       (Service.handle_line t
          (request "query"
             ~params:
               [ ("snapshot", Sjson.Str fp1); ("question", Sjson.Str "routes") ])));
  let fp3 = Service.load_files ~warm:false t (snap 3) in
  let s = Service.stats t in
  check Alcotest.int "two snapshots live" 2 s.Service.st_snapshots;
  check Alcotest.int "one eviction" 1 s.Service.st_evictions;
  (* fp2 was evicted: addressing it now is an error; fp1 and fp3 answer *)
  let query fp =
    resp_ok
      (Service.handle_line t
         (request "query"
            ~params:
              [ ("snapshot", Sjson.Str fp); ("question", Sjson.Str "routes") ]))
  in
  check Alcotest.bool "evicted snapshot unknown" false (query fp2);
  check Alcotest.bool "kept snapshot answers" true (query fp1);
  check Alcotest.bool "new snapshot answers" true (query fp3);
  (* re-loading the evicted snapshot re-registers it (and evicts another) *)
  let fp2' = Service.load_files ~warm:false t (snap 2) in
  check Alcotest.string "same content, same fingerprint" fp2 fp2';
  check Alcotest.int "still at capacity" 2 (Service.stats t).Service.st_snapshots;
  check Alcotest.int "second eviction" 2 (Service.stats t).Service.st_evictions

let service_answers_identical_serial_vs_pooled () =
  (* byte-identity across admission plans: a pooled service and a serial
     service must render identical answers for the same snapshot *)
  let serial = Service.create ~domains:1 () in
  let pooled = Service.create ~domains:4 () in
  let load = request "load" ~params:(load_params fixture_files) in
  check Alcotest.bool "serial load ok" true (resp_ok (Service.handle_line serial load));
  check Alcotest.bool "pooled load ok" true (resp_ok (Service.handle_line pooled load));
  List.iter
    (fun question ->
      let q = request "query" ~params:[ ("question", Sjson.Str question) ] in
      let rs = Service.handle_line serial q and rp = Service.handle_line pooled q in
      check Alcotest.bool (question ^ " serial ok") true (resp_ok rs);
      check Alcotest.bool (question ^ " pooled ok") true (resp_ok rp);
      let answers r =
        match Option.bind (resp_field r "result") (Sjson.member "answers") with
        | Some a -> a
        | None -> Alcotest.failf "%s: result missing answers: %s" question r
      in
      check Alcotest.bool (question ^ " answers identical") true
        (json_equal (answers rs) (answers rp)))
    [ "all_pairs"; "multipath"; "lint"; "coverage"; "loops" ]

let service_malformed_isolation () =
  let t = Service.create ~domains:1 () in
  let bad =
    [ "this is not json";
      "{\"params\":{}}" (* missing method *);
      request "frobnicate" (* unknown method *);
      request "query" ~params:[ ("question", Sjson.Str "all_pairs") ]
      (* query before any load *);
      request "load" ~params:[ ("files", Sjson.Str "not-an-object") ] ]
  in
  List.iter
    (fun line ->
      let r = Service.handle_line t line in
      check Alcotest.bool ("rejected: " ^ line) false (resp_ok r);
      check Alcotest.bool "has error string" true
        (match resp_field r "error" with Some (Sjson.Str _) -> true | _ -> false))
    bad;
  (* the daemon survives: a well-formed request right after still works *)
  check Alcotest.bool "ping after garbage" true (resp_ok (Service.handle_line t (request "ping")));
  let s = Service.stats t in
  check Alcotest.int "errors counted" (List.length bad) s.Service.st_errors;
  (* an unknown question on a live snapshot is isolated the same way *)
  check Alcotest.bool "load ok" true
    (resp_ok (Service.handle_line t (request "load" ~params:(load_params fixture_files))));
  check Alcotest.bool "unknown question rejected" false
    (resp_ok (Service.handle_line t (request "query" ~params:[ ("question", Sjson.Str "nope") ])));
  check Alcotest.bool "query after rejection ok" true
    (resp_ok (Service.handle_line t (request "query" ~params:[ ("question", Sjson.Str "multipath") ])))

(* The socket server writes [handle_line_parts] one part after another; the
   parts must concatenate to exactly the line tests and clients see, with
   the query's result fragment passed through as its own part. *)
let service_line_equals_parts () =
  let t = Service.create ~domains:1 () in
  let load = request "load" ~params:(load_params fixture_files) in
  let query question =
    request "query" ~id:3 ~params:[ ("question", Sjson.Str question) ]
  in
  check Alcotest.bool "load ok" true (resp_ok (Service.handle_line t load));
  (* requests whose answer does not depend on how often they were asked
     (a repeated load reports reused=true both times) *)
  List.iter
    (fun (label, line) ->
      let parts = Service.handle_line_parts t line in
      check Alcotest.int (label ^ ": three parts") 3 (List.length parts);
      check Alcotest.string (label ^ ": line = parts")
        (Service.handle_line t line) (String.concat "" parts))
    [ ("ping", request ~id:1 "ping"); ("load", load);
      ("all_pairs", query "all_pairs"); ("multipath", query "multipath");
      ("routes", query "routes"); ("unknown question", query "nope");
      ("malformed", "not json") ];
  match Service.handle_line_parts t (query "all_pairs") with
  | [ _; body; _ ] ->
    let direct = Batfish.init (Batfish.Snapshot.of_texts fixture_files) in
    let expect = Service.answers_fragment [ Batfish.answer_all_pairs direct ] in
    (* the fragment carries the admission plan after the answers *)
    check Alcotest.string "fragment is the encoded answer"
      (String.sub expect 0 (String.length expect - 1))
      (String.sub body 0 (String.length expect - 1))
  | _ -> Alcotest.fail "expected three parts"

(* --- coalescing --------------------------------------------------------- *)

let service_coalescing () =
  let t = Service.create ~domains:1 () in
  check Alcotest.bool "load ok" true
    (resp_ok (Service.handle_line t (request "load" ~params:(load_params fixture_files))));
  let q = request "query" ~params:[ ("question", Sjson.Str "loops") ] in
  let racers = 4 in
  let results = Array.make racers "" in
  Service.test_delay := 0.05;
  Fun.protect
    ~finally:(fun () -> Service.test_delay := 0.)
    (fun () ->
      let threads =
        List.init racers (fun i ->
            Thread.create (fun () -> results.(i) <- Service.handle_line t q) ())
      in
      List.iter Thread.join threads);
  Array.iter (fun r -> check Alcotest.bool "racer ok" true (resp_ok r)) results;
  (* all racers share one rendered result fragment *)
  let frag r = Sjson.to_string (Option.get (resp_field r "result")) in
  Array.iter
    (fun r -> check Alcotest.string "shared result" (frag results.(0)) (frag r))
    results;
  let s = Service.stats t in
  check Alcotest.bool "at least one racer coalesced" true (s.Service.st_coalesced >= 1);
  check Alcotest.bool "fewer computations than racers" true
    (s.Service.st_computed < racers + 1);
  let coalesced r =
    match Option.bind (resp_field r "meta") (Sjson.member "coalesced") with
    | Some (Sjson.Bool b) -> b
    | _ -> false
  in
  check Alcotest.bool "meta.coalesced marks a follower" true
    (Array.exists coalesced results)

let engine_memo_no_recompute () =
  (* the layer under coalescing: a repeated identical question hits the
     engine's query memo instead of recomputing the fixpoint *)
  let snap = Batfish.Snapshot.of_texts fixture_files in
  let bf = Batfish.init snap in
  ignore (Batfish.answer_multipath_consistency bf);
  let hits1, misses1 = Option.get (Batfish.memo_stats bf) in
  ignore (Batfish.answer_multipath_consistency bf);
  let hits2, misses2 = Option.get (Batfish.memo_stats bf) in
  check Alcotest.int "no new memo misses on repeat" misses1 misses2;
  check Alcotest.bool "repeat served from memo" true (hits2 > hits1)

(* --- a real daemon over a Unix socket ----------------------------------- *)

let temp_socket () =
  let path = Filename.temp_file "bf_test_svc" ".sock" in
  Sys.remove path;
  path

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

let send_request oc line =
  output_string oc line;
  output_char oc '\n';
  flush oc

let rpc (_, ic, oc) line =
  send_request oc line;
  input_line ic

let wait_for_socket path =
  let rec wait n =
    if n = 0 then Alcotest.fail "server socket never appeared";
    if not (Sys.file_exists path) then begin
      Thread.delay 0.01;
      wait (n - 1)
    end
  in
  wait 500

let with_server ?(domains = 2) f =
  let t = Service.create ~domains () in
  let socket = temp_socket () in
  let server = Thread.create (fun () -> Service.serve ~install_signals:false ~socket t) () in
  wait_for_socket socket;
  Fun.protect
    ~finally:(fun () ->
      Service.stop t;
      Thread.join server)
    (fun () -> f t socket);
  (socket, Service.stats t)

let service_socket_concurrent_clients () =
  let socket, stats =
    with_server (fun _t socket ->
        let clients = 3 in
        let errs = Array.make clients None in
        let threads =
          List.init clients (fun i ->
              Thread.create
                (fun () ->
                  try
                    let c = connect socket in
                    let load = rpc c (request "load" ~params:(load_params fixture_files)) in
                    if not (resp_ok load) then failwith ("load failed: " ^ load);
                    let q =
                      rpc c (request ~id:i "query" ~params:[ ("question", Sjson.Str "multipath") ])
                    in
                    if not (resp_ok q) then failwith ("query failed: " ^ q);
                    (match resp_field q "id" with
                    | Some (Sjson.Int j) when j = i -> ()
                    | _ -> failwith ("wrong id echoed: " ^ q));
                    let fd, _, _ = c in
                    Unix.close fd
                  with exn -> errs.(i) <- Some (Printexc.to_string exn))
                ())
        in
        List.iter Thread.join threads;
        Array.iter
          (function None -> () | Some e -> Alcotest.failf "client failed: %s" e)
          errs)
  in
  (* all three clients loaded byte-identical configs: one snapshot, deduped *)
  check Alcotest.int "one snapshot across clients" 1 stats.Service.st_snapshots;
  check Alcotest.int "later clients dedup" 2 stats.Service.st_dedup_hits;
  check Alcotest.int "no protocol errors" 0 stats.Service.st_errors;
  check Alcotest.bool "socket unlinked after serve" false (Sys.file_exists socket)

let service_shutdown_mid_request () =
  (* stop() while a query is in flight: the request still gets its full
     response, serve returns after the drain, and the pool is shut down
     exactly once *)
  let socket, stats =
    with_server (fun t socket ->
        let c = connect socket in
        check Alcotest.bool "load ok" true
          (resp_ok (rpc c (request "load" ~params:(load_params fixture_files))));
        Service.test_delay := 0.2;
        Fun.protect
          ~finally:(fun () -> Service.test_delay := 0.)
          (fun () ->
            let _, _, oc = c in
            send_request oc (request "query" ~params:[ ("question", Sjson.Str "loops") ]);
            Thread.delay 0.05;
            Service.stop t;
            (* the in-flight response must still arrive, complete *)
            let _, ic, _ = c in
            let r = input_line ic in
            check Alcotest.bool "in-flight query answered after stop" true (resp_ok r));
        let fd, _, _ = c in
        Unix.close fd)
  in
  ignore socket;
  check Alcotest.int "pool shut down exactly once" 1 stats.Service.st_shutdowns_run

let service_deep_nesting_keeps_connection () =
  let _, stats =
    with_server ~domains:1 (fun _t socket ->
        let c = connect socket in
        let r = rpc c (nested 100_000) in
        check Alcotest.bool "deep line answered ok:false" false (resp_ok r);
        check Alcotest.bool "same connection still served" true
          (resp_ok (rpc c (request ~id:1 "ping")));
        let fd, _, _ = c in
        Unix.close fd)
  in
  check Alcotest.int "one protocol error" 1 stats.Service.st_errors

let service_protocol_shutdown () =
  let _, stats =
    with_server (fun _t socket ->
        let c = connect socket in
        check Alcotest.bool "shutdown acked" true (resp_ok (rpc c (request "shutdown")));
        let fd, _, _ = c in
        Unix.close fd)
  in
  check Alcotest.int "pool shut down exactly once" 1 stats.Service.st_shutdowns_run

(* --- Par.Pool: the shutdown races the daemon depends on ----------------- *)

let pool_shutdown_drains_inflight_job () =
  let p = Par.Pool.create ~domains:3 () in
  let job_result = ref [||] in
  let runner =
    Thread.create
      (fun () ->
        job_result :=
          Par.Pool.run p
            ~init:(fun () -> ())
            (fun () x ->
              Thread.delay 0.02;
              x * x)
            (Array.init 9 (fun i -> i)))
      ()
  in
  Thread.delay 0.03;
  (* shutdown racing the in-flight run: the published job must drain, the
     submitter must not be stranded *)
  Par.Pool.shutdown p;
  Thread.join runner;
  check (Alcotest.array Alcotest.int) "racing job completed correctly"
    (Array.init 9 (fun i -> i * i))
    !job_result;
  check Alcotest.bool "pool closed" true (Par.Pool.closed p)

let pool_concurrent_double_shutdown () =
  let p = Par.Pool.create ~domains:3 () in
  ignore (Par.Pool.run p ~init:(fun () -> ()) (fun () x -> x + 1) [| 1; 2; 3 |]);
  let failures = Array.make 4 None in
  let threads =
    List.init 4 (fun i ->
        Thread.create
          (fun () ->
            try Par.Pool.shutdown p
            with exn -> failures.(i) <- Some (Printexc.to_string exn))
          ())
  in
  List.iter Thread.join threads;
  Array.iter
    (function None -> () | Some e -> Alcotest.failf "concurrent shutdown raised: %s" e)
    failures;
  check Alcotest.bool "pool closed" true (Par.Pool.closed p);
  (* and once more for the idempotence of the sequential path *)
  Par.Pool.shutdown p

let pool_concurrent_submitters () =
  let p = Par.Pool.create ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> Par.Pool.shutdown p)
    (fun () ->
      let n = 6 in
      let outputs = Array.make n [||] in
      let threads =
        List.init n (fun i ->
            Thread.create
              (fun () ->
                outputs.(i) <-
                  Par.Pool.run p
                    ~init:(fun () -> i * 100)
                    (fun base x -> base + x)
                    (Array.init 20 (fun j -> j)))
              ())
      in
      List.iter Thread.join threads;
      List.iteri
        (fun i _ ->
          check (Alcotest.array Alcotest.int)
            (Printf.sprintf "submitter %d result" i)
            (Array.init 20 (fun j -> (i * 100) + j))
            outputs.(i))
        threads)

let suites =
  [ ( "sjson",
      [ Alcotest.test_case "value round-trip through to_string/parse" `Quick sjson_roundtrip;
        Alcotest.test_case "escapes, numbers, whitespace" `Quick sjson_parse_forms;
        Alcotest.test_case "malformed inputs are parse errors" `Quick sjson_parse_errors;
        Alcotest.test_case "nesting past the depth cap is a parse error" `Quick
          sjson_depth_cap;
        sjson_escape_matches_per_char; fragment_matches_tree ] );
    ( "service",
      [ Alcotest.test_case "ping echoes id" `Quick service_ping_envelope;
        Alcotest.test_case "identical configs dedup to one snapshot" `Quick service_load_dedup;
        Alcotest.test_case "LRU eviction honors --max-snapshots" `Quick service_lru_eviction;
        Alcotest.test_case "answers identical, serial vs pooled" `Quick
          service_answers_identical_serial_vs_pooled;
        Alcotest.test_case "malformed requests never kill the daemon" `Quick
          service_malformed_isolation;
        Alcotest.test_case "overlapping identical queries coalesce" `Quick service_coalescing;
        Alcotest.test_case "repeated question served from engine memo" `Quick
          engine_memo_no_recompute;
        Alcotest.test_case "concurrent clients over a Unix socket" `Quick
          service_socket_concurrent_clients;
        Alcotest.test_case "stop drains an in-flight request" `Quick
          service_shutdown_mid_request;
        Alcotest.test_case "protocol shutdown stops the daemon" `Quick
          service_protocol_shutdown;
        Alcotest.test_case "over-deep request line keeps the connection" `Quick
          service_deep_nesting_keeps_connection;
        Alcotest.test_case "response line = concatenated parts" `Quick
          service_line_equals_parts ] );
    ( "service_pool",
      [ Alcotest.test_case "shutdown drains a racing job" `Quick pool_shutdown_drains_inflight_job;
        Alcotest.test_case "concurrent shutdowns join each worker once" `Quick
          pool_concurrent_double_shutdown;
        Alcotest.test_case "concurrent submitters share one pool" `Quick
          pool_concurrent_submitters ] ) ]
