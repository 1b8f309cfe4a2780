(* Tests for bf_prim: addresses, prefixes, tries, rng, interning, par. *)

let check = Alcotest.check
let qtest ?(count = 200) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

let ip_gen = QCheck.Gen.(map (fun i -> i land 0xFFFF_FFFF) (int_range 0 0xFFFF_FFFF))
let ip_arb = QCheck.make ~print:Ipv4.to_string ip_gen

let prefix_gen =
  QCheck.Gen.(
    map2 (fun ip len -> Prefix.make (ip land 0xFFFF_FFFF) len) (int_range 0 0xFFFF_FFFF) (int_bound 32))

let prefix_arb = QCheck.make ~print:Prefix.to_string prefix_gen

(* --- Ipv4 --- *)

let ipv4_units () =
  check Alcotest.int "of_octets" 0x0A000001 (Ipv4.of_octets 10 0 0 1);
  check Alcotest.string "to_string" "10.0.0.1" (Ipv4.to_string (Ipv4.of_octets 10 0 0 1));
  check Alcotest.int "of_string" (Ipv4.of_octets 192 168 1 200) (Ipv4.of_string "192.168.1.200");
  check Alcotest.bool "junk rejected" true (Ipv4.of_string_opt "1.2.3.4x" = None);
  check Alcotest.bool "overflow rejected" true (Ipv4.of_string_opt "1.2.3.256" = None);
  check Alcotest.bool "short rejected" true (Ipv4.of_string_opt "1.2.3" = None);
  check Alcotest.bool "empty octet rejected" true (Ipv4.of_string_opt "1..2.3" = None);
  check Alcotest.bool "msb" true (Ipv4.bit (Ipv4.of_octets 128 0 0 0) 0);
  check Alcotest.bool "lsb" true (Ipv4.bit (Ipv4.of_octets 0 0 0 1) 31);
  check Alcotest.int "succ wraps" 0 (Ipv4.succ Ipv4.max_value);
  check Alcotest.bool "multicast" true (Ipv4.is_multicast (Ipv4.of_string "224.0.0.5"));
  check Alcotest.bool "private 172.16" true (Ipv4.is_private (Ipv4.of_string "172.16.0.1"));
  check Alcotest.bool "not private" false (Ipv4.is_private (Ipv4.of_string "8.8.8.8"))

let ipv4_roundtrip =
  qtest "ipv4 string roundtrip" QCheck.(make ip_gen)
    (fun ip -> Ipv4.of_string (Ipv4.to_string ip) = ip)

(* --- Prefix --- *)

let prefix_units () =
  let p = Prefix.of_string "10.1.2.3/24" in
  check Alcotest.string "canonicalized" "10.1.2.0/24" (Prefix.to_string p);
  check Alcotest.bool "contains" true (Prefix.contains p (Ipv4.of_string "10.1.2.255"));
  check Alcotest.bool "not contains" false (Prefix.contains p (Ipv4.of_string "10.1.3.0"));
  check Alcotest.string "mask" "255.255.255.0" (Ipv4.to_string (Prefix.mask p));
  check Alcotest.string "broadcast" "10.1.2.255" (Ipv4.to_string (Prefix.broadcast p));
  check Alcotest.string "first host" "10.1.2.1" (Ipv4.to_string (Prefix.first_host p));
  let p31 = Prefix.of_string "10.0.0.0/31" in
  check Alcotest.string "/31 first host" "10.0.0.0" (Ipv4.to_string (Prefix.first_host p31));
  check Alcotest.bool "contains_prefix" true
    (Prefix.contains_prefix (Prefix.of_string "10.0.0.0/8") p);
  check Alcotest.bool "no larger prefix" false
    (Prefix.contains_prefix p (Prefix.of_string "10.0.0.0/8"));
  let a, b = Prefix.split (Prefix.of_string "10.0.0.0/8") in
  check Alcotest.string "split lo" "10.0.0.0/9" (Prefix.to_string a);
  check Alcotest.string "split hi" "10.128.0.0/9" (Prefix.to_string b);
  check Alcotest.string "bare ip is /32" "1.2.3.4/32"
    (Prefix.to_string (Prefix.of_string "1.2.3.4"))

let prefix_roundtrip =
  qtest "prefix string roundtrip" prefix_arb
    (fun p -> Prefix.equal (Prefix.of_string (Prefix.to_string p)) p)

let prefix_split_partition =
  qtest "split partitions membership" (QCheck.pair prefix_arb ip_arb) (fun (p, ip) ->
      QCheck.assume (Prefix.length p < 32);
      let a, b = Prefix.split p in
      Prefix.contains p ip = (Prefix.contains a ip || Prefix.contains b ip)
      && not (Prefix.contains a ip && Prefix.contains b ip))

(* --- Prefix_trie: model-based --- *)

let trie_of_assoc l = List.fold_left (fun t (p, v) -> Prefix_trie.add p v t) Prefix_trie.empty l

let model_find l p =
  List.fold_left (fun acc (q, v) -> if Prefix.equal p q then Some v else acc) None l

let model_lpm l ip =
  List.fold_left
    (fun acc (q, v) ->
      if Prefix.contains q ip then
        match acc with
        | Some (best, _) when Prefix.length best > Prefix.length q -> acc
        | _ -> Some (q, v)
      else acc)
    None l

let assoc_gen = QCheck.Gen.(list_size (int_bound 30) (pair prefix_gen small_nat))

let trie_find_matches_model =
  qtest "trie find = model"
    (QCheck.pair (QCheck.make assoc_gen) prefix_arb)
    (fun (l, p) -> Prefix_trie.find p (trie_of_assoc l) = model_find l p)

let trie_lpm_matches_model =
  qtest "trie longest_match = model"
    (QCheck.pair (QCheck.make assoc_gen) ip_arb)
    (fun (l, ip) ->
      let t = trie_of_assoc l in
      match (Prefix_trie.longest_match ip t, model_lpm l ip) with
      | None, None -> true
      | Some (p, v), Some (q, w) -> Prefix.equal p q && v = w
      | _ -> false)

let trie_remove_then_absent =
  qtest "remove makes find None" (QCheck.make assoc_gen) (fun l ->
      let t = trie_of_assoc l in
      List.for_all (fun (p, _) -> Prefix_trie.find p (Prefix_trie.remove p t) = None) l)

let trie_units () =
  let t =
    trie_of_assoc
      [ (Prefix.of_string "10.0.0.0/8", 1); (Prefix.of_string "10.1.0.0/16", 2);
        (Prefix.of_string "10.1.1.0/24", 3); (Prefix.of_string "0.0.0.0/0", 0) ]
  in
  let lpm ip =
    match Prefix_trie.longest_match (Ipv4.of_string ip) t with
    | Some (_, v) -> v
    | None -> -1
  in
  check Alcotest.int "lpm /24" 3 (lpm "10.1.1.5");
  check Alcotest.int "lpm /16" 2 (lpm "10.1.2.5");
  check Alcotest.int "lpm /8" 1 (lpm "10.2.0.1");
  check Alcotest.int "lpm default" 0 (lpm "192.168.0.1");
  check Alcotest.int "cardinal" 4 (Prefix_trie.cardinal t);
  check Alcotest.int "all_matches count" 4
    (List.length (Prefix_trie.all_matches (Ipv4.of_string "10.1.1.5") t));
  check Alcotest.int "within 10/8" 3
    (List.length (Prefix_trie.within (Prefix.of_string "10.0.0.0/8") t));
  check Alcotest.bool "empty trie is empty" true (Prefix_trie.is_empty Prefix_trie.empty);
  check Alcotest.bool "removal restores emptiness" true
    (Prefix_trie.is_empty
       (Prefix_trie.remove (Prefix.of_string "1.0.0.0/8")
          (Prefix_trie.add (Prefix.of_string "1.0.0.0/8") 5 Prefix_trie.empty)))

let trie_within_under_prefix =
  qtest "within only returns contained prefixes"
    (QCheck.pair (QCheck.make assoc_gen) prefix_arb)
    (fun (l, p) ->
      Prefix_trie.within p (trie_of_assoc l)
      |> List.for_all (fun (q, _) -> Prefix.contains_prefix p q))

(* --- Packet --- *)

let packet_units () =
  let p = Packet.tcp ~src:(Ipv4.of_string "1.1.1.1") ~dst:(Ipv4.of_string "2.2.2.2") 443 in
  check Alcotest.int "dport" 443 p.Packet.dst_port;
  check Alcotest.string "flags" "SYN" (Packet.Tcp_flags.to_string p.Packet.tcp_flags);
  check Alcotest.string "no flags" "-" (Packet.Tcp_flags.to_string 0);
  check Alcotest.string "synack" "SYN|ACK"
    (Packet.Tcp_flags.to_string (Packet.Tcp_flags.syn lor Packet.Tcp_flags.ack));
  let i = Packet.icmp ~src:(Ipv4.of_string "1.1.1.1") ~dst:(Ipv4.of_string "2.2.2.2") () in
  check Alcotest.int "icmp proto" Packet.Proto.icmp i.Packet.protocol;
  check Alcotest.int "echo request" 8 i.Packet.icmp_type

(* --- Renderers: byte-identity with the Printf formulations --- *)

(* The renderers write into a Buffer; these are the Printf formulations
   they replaced, kept here only as the reference. *)
let printf_ipv4 ip =
  let a, b, c, d = Ipv4.to_octets ip in
  Printf.sprintf "%d.%d.%d.%d" a b c d

let printf_prefix p =
  Printf.sprintf "%s/%d" (printf_ipv4 (Prefix.network p)) (Prefix.length p)

let printf_tcp_flags flags =
  let set =
    List.filter_map
      (fun (b, n) -> if flags land b <> 0 then Some n else None)
      [ (Packet.Tcp_flags.fin, "FIN"); (Packet.Tcp_flags.syn, "SYN");
        (Packet.Tcp_flags.rst, "RST"); (Packet.Tcp_flags.psh, "PSH");
        (Packet.Tcp_flags.ack, "ACK"); (Packet.Tcp_flags.urg, "URG");
        (Packet.Tcp_flags.ece, "ECE"); (Packet.Tcp_flags.cwr, "CWR") ]
  in
  if set = [] then "-" else String.concat "|" set

let printf_packet (p : Packet.t) =
  let base =
    Printf.sprintf "%s %s -> %s" (Packet.Proto.to_string p.protocol)
      (printf_ipv4 p.src_ip) (printf_ipv4 p.dst_ip)
  in
  if p.protocol = Packet.Proto.tcp then
    Printf.sprintf "%s sport=%d dport=%d flags=%s" base p.src_port p.dst_port
      (printf_tcp_flags p.tcp_flags)
  else if p.protocol = Packet.Proto.udp then
    Printf.sprintf "%s sport=%d dport=%d" base p.src_port p.dst_port
  else if p.protocol = Packet.Proto.icmp then
    Printf.sprintf "%s type=%d code=%d" base p.icmp_type p.icmp_code
  else base

(* tcp, udp and icmp in equal measure with other protocol numbers; every
   field over its full header range *)
let packet_gen =
  QCheck.Gen.(
    let* protocol =
      oneof
        [ pure Packet.Proto.tcp; pure Packet.Proto.udp; pure Packet.Proto.icmp;
          int_bound 255 ]
    in
    let* src_ip = ip_gen and* dst_ip = ip_gen in
    let* src_port = int_bound 65535 and* dst_port = int_bound 65535 in
    let* icmp_type = int_bound 255 and* icmp_code = int_bound 255 in
    let* tcp_flags = int_bound 255 in
    let* dscp = int_bound 63 and* ecn = int_bound 3 in
    let+ packet_length = int_bound 65535 in
    { Packet.src_ip; dst_ip; protocol; src_port; dst_port; icmp_type;
      icmp_code; tcp_flags; dscp; ecn; fragment_offset = 0; packet_length })

let render_units () =
  for flags = 0 to 255 do
    check Alcotest.string
      (Printf.sprintf "flags %d" flags)
      (printf_tcp_flags flags)
      (Packet.Tcp_flags.to_string flags)
  done;
  List.iter
    (fun ip -> check Alcotest.string "ipv4 edge" (printf_ipv4 ip) (Ipv4.to_string ip))
    [ 0; 0xFFFF_FFFF; Ipv4.of_octets 9 10 99 100; Ipv4.of_octets 100 0 255 1 ]

let render_ipv4 =
  qtest ~count:1000 "ipv4 to_string = printf" QCheck.(make ip_gen)
    (fun ip -> Ipv4.to_string ip = printf_ipv4 ip)

let render_prefix =
  qtest ~count:1000 "prefix to_string = printf" prefix_arb
    (fun p -> Prefix.to_string p = printf_prefix p)

let render_packet =
  qtest ~count:2000 "packet to_string = printf"
    (QCheck.make ~print:printf_packet packet_gen)
    (fun p -> Packet.to_string p = printf_packet p)

(* --- Rng --- *)

let rng_units () =
  let a = Rng.create 42 and b = Rng.create 42 in
  let seq r = List.init 50 (fun _ -> Rng.int r 1000) in
  check Alcotest.(list int) "deterministic" (seq a) (seq b);
  let c = Rng.create 43 in
  check Alcotest.bool "different seeds differ" true (seq (Rng.create 42) <> seq c);
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int r 10 in
    if v < 0 || v >= 10 then Alcotest.fail "out of bounds"
  done;
  let arr = Array.init 20 (fun i -> i) in
  Rng.shuffle (Rng.create 1) arr;
  check Alcotest.(list int) "shuffle is a permutation" (List.init 20 Fun.id)
    (List.sort Int.compare (Array.to_list arr))

(* --- Intern --- *)

module String_intern = Intern.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

let intern_units () =
  let pool = String_intern.create () in
  let a = String_intern.intern pool (String.concat "" [ "he"; "llo" ]) in
  let b = String_intern.intern pool (String.concat "" [ "hel"; "lo" ]) in
  check Alcotest.bool "physically shared" true (a == b);
  check Alcotest.int "distinct" 1 (String_intern.distinct pool);
  check Alcotest.int "requests" 2 (String_intern.requests pool);
  ignore (String_intern.intern pool "world");
  check Alcotest.int "distinct 2" 2 (String_intern.distinct pool);
  String_intern.clear pool;
  check Alcotest.int "cleared" 0 (String_intern.distinct pool)

(* --- Par --- *)

let par_matches_seq =
  qtest ~count:50 "par map = seq map"
    QCheck.(list small_int)
    (fun l ->
      let arr = Array.of_list l in
      Par.map ~domains:4 (fun x -> (x * x) + 1) arr = Array.map (fun x -> (x * x) + 1) arr)

(* --- Table --- *)

let table_units () =
  let s = Table.to_string ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "33"; "4" ] ] in
  check Alcotest.bool "header present" true (String.length s > 0);
  check Alcotest.bool "rows present" true
    (String.split_on_char '\n' s |> List.length >= 4)

let suites =
  [ ( "prim.ipv4",
      [ Alcotest.test_case "units" `Quick ipv4_units; ipv4_roundtrip ] );
    ( "prim.prefix",
      [ Alcotest.test_case "units" `Quick prefix_units; prefix_roundtrip;
        prefix_split_partition ] );
    ( "prim.trie",
      [ Alcotest.test_case "units" `Quick trie_units; trie_find_matches_model;
        trie_lpm_matches_model; trie_remove_then_absent; trie_within_under_prefix ] );
    ("prim.packet", [ Alcotest.test_case "units" `Quick packet_units ]);
    ( "prim.render",
      [ Alcotest.test_case "flag sets and edge addresses" `Quick render_units;
        render_ipv4; render_prefix; render_packet ] );
    ("prim.rng", [ Alcotest.test_case "units" `Quick rng_units ]);
    ("prim.intern", [ Alcotest.test_case "units" `Quick intern_units ]);
    ("prim.par", [ par_matches_seq ]);
    ("prim.table", [ Alcotest.test_case "units" `Quick table_units ]) ]
