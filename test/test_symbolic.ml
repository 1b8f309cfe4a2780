(* Tests for the symbolic packet-set layer: encodings agree with concrete
   packet semantics, and NAT relations compute correct images/preimages. *)

let qtest ?(count = 100) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)
let check = Alcotest.check

let packet_gen =
  QCheck.Gen.(
    let ip = map (fun i -> i land 0xFFFF_FFFF) (int_range 0 0xFFFF_FFFF) in
    let port = int_bound 65535 in
    map2
      (fun (src_ip, dst_ip, src_port, dst_port) (proto, flags, it, ic) ->
        { Packet.default with src_ip; dst_ip; src_port; dst_port;
          protocol = proto; tcp_flags = flags; icmp_type = it; icmp_code = ic })
      (quad ip ip port port)
      (quad (oneofl [ 1; 6; 17; 89 ]) (int_bound 255) (int_bound 255) (int_bound 255)))

let packet_arb = QCheck.make ~print:Packet.to_string packet_gen

(* One shared env: creating a manager per case is expensive. *)
let env = Pktset.create ()

let of_packet_mem =
  qtest "of_packet is a member" packet_arb (fun p ->
      Pktset.mem env (Pktset.of_packet env p) p)

let of_packet_distinct =
  qtest "distinct packets are not members" (QCheck.pair packet_arb packet_arb)
    (fun (p, q) ->
      QCheck.assume (not (Packet.equal p q));
      not (Pktset.mem env (Pktset.of_packet env p) q))

let prefix_matches_contains =
  qtest "dst_prefix = Prefix.contains" (QCheck.pair packet_arb (QCheck.make
      QCheck.Gen.(map2 (fun ip len -> Prefix.make (ip land 0xFFFF_FFFF) len) (int_range 0 0xFFFF_FFFF) (int_bound 32))))
    (fun (p, pre) ->
      Pktset.mem env (Pktset.dst_prefix env pre) p = Prefix.contains pre p.Packet.dst_ip)

let range_matches_interval =
  qtest "range = interval membership"
    (QCheck.triple packet_arb (QCheck.int_bound 65535) (QCheck.int_bound 65535))
    (fun (p, a, b) ->
      let lo = min a b and hi = max a b in
      Pktset.mem env (Pktset.range env Field.Dst_port lo hi) p
      = (p.Packet.dst_port >= lo && p.Packet.dst_port <= hi))

let value_matches_equality =
  qtest "value = equality" (QCheck.pair packet_arb (QCheck.int_bound 255))
    (fun (p, v) ->
      Pktset.mem env (Pktset.value env Field.Protocol v) p = (p.Packet.protocol = v))

let tcp_flag_matches =
  qtest "tcp_flag tests the right bit" packet_arb (fun p ->
      List.for_all
        (fun mask ->
          Pktset.mem env (Pktset.tcp_flag env mask) p = (p.Packet.tcp_flags land mask <> 0))
        [ Packet.Tcp_flags.syn; Packet.Tcp_flags.ack; Packet.Tcp_flags.rst;
          Packet.Tcp_flags.fin ])

let to_packet_in_set =
  qtest "to_packet returns a member" packet_arb (fun p ->
      let set =
        Bdd.bor (Pktset.man env) (Pktset.of_packet env p)
          (Pktset.dst_prefix env (Prefix.of_string "10.0.0.0/8"))
      in
      match Pktset.to_packet env set with
      | None -> false
      | Some q -> Pktset.mem env set q)

let to_packet_respects_prefs () =
  let set = Pktset.dst_prefix env (Prefix.of_string "10.0.0.0/8") in
  let prefs = Pktset.standard_prefs env ~dst_prefix:(Prefix.of_string "10.1.0.0/16") () in
  match Pktset.to_packet env ~prefs set with
  | None -> Alcotest.fail "expected a packet"
  | Some p ->
    check Alcotest.int "prefers tcp" Packet.Proto.tcp p.Packet.protocol;
    check Alcotest.int "prefers port 80" 80 p.Packet.dst_port;
    check Alcotest.bool "dst hint honored" true
      (Prefix.contains (Prefix.of_string "10.1.0.0/16") p.Packet.dst_ip)

(* The former [to_packet] assembly, a [Hashtbl] over [Field.all] filled
   from the satisfying assignment: the reference the array-indexed one must
   match packet for packet. *)
let to_packet_reference env ?(prefs = []) set =
  let man = Pktset.man env in
  let level_field = Hashtbl.create 256 in
  List.iter
    (fun f ->
      Array.iteri (fun i lvl -> Hashtbl.replace level_field lvl (f, i)) (Pktset.levels env f))
    Field.all;
  match Bdd.any_sat man (Bdd.pick_preferred man set prefs) with
  | None -> None
  | Some assignment ->
    let values = Hashtbl.create 16 in
    List.iter (fun f -> Hashtbl.replace values f 0) Field.all;
    List.iter
      (fun (lvl, b) ->
        match Hashtbl.find_opt level_field lvl with
        | Some (f, i) when b ->
          Hashtbl.replace values f (Hashtbl.find values f lor (1 lsl (Field.bits f - 1 - i)))
        | Some _ | None -> ())
      assignment;
    let g f = Hashtbl.find values f in
    Some
      { Packet.src_ip = g Field.Src_ip; dst_ip = g Field.Dst_ip; protocol = g Field.Protocol;
        src_port = g Field.Src_port; dst_port = g Field.Dst_port;
        icmp_type = g Field.Icmp_type; icmp_code = g Field.Icmp_code;
        tcp_flags = g Field.Tcp_flags; dscp = g Field.Dscp; ecn = g Field.Ecn;
        fragment_offset = g Field.Fragment_offset; packet_length = g Field.Packet_length }

let lsb_env = lazy (Pktset.create ~order:Pktset.Lsb_first ())

let to_packet_matches_reference =
  let prefix_gen =
    QCheck.Gen.(
      map2 (fun ip len -> Prefix.make (ip land 0xFFFF_FFFF) len) (int_range 0 0xFFFF_FFFF)
        (int_bound 32))
  in
  (* every header field random, so each field's bits reach the assembly *)
  let full_packet_gen =
    QCheck.Gen.(
      map2
        (fun p (dscp, ecn, fragment_offset, packet_length) ->
          { p with Packet.dscp; ecn; fragment_offset; packet_length })
        packet_gen
        (quad (int_bound 63) (int_bound 3) (int_bound 8191) (int_bound 65535)))
  in
  qtest ~count:200 "to_packet = Hashtbl reference"
    (QCheck.make
       QCheck.Gen.(
         pair
           (triple full_packet_gen prefix_gen bool)
           (quad (int_bound 65535) (int_bound 65535) (int_bound 255) bool)))
    (fun ((p, pre, single), (a, b, proto, lsb)) ->
      let env = if lsb then Lazy.force lsb_env else env in
      let man = Pktset.man env in
      (* a random set: one packet, or that packet or a prefix x port range
         or a protocol outside a source prefix *)
      let set =
        if single then Pktset.of_packet env p
        else
          Bdd.bor man (Pktset.of_packet env p)
            (Bdd.bor man
               (Bdd.band man (Pktset.dst_prefix env pre)
                  (Pktset.range env Field.Dst_port (min a b) (max a b)))
               (Bdd.bdiff man (Pktset.value env Field.Protocol proto)
                  (Pktset.src_prefix env pre)))
      in
      let prefs = Pktset.standard_prefs env ~dst_prefix:pre () in
      Pktset.to_packet env set = to_packet_reference env set
      && Pktset.to_packet env ~prefs set = to_packet_reference env ~prefs set)

let sat_count_prefix () =
  let man = Pktset.man env in
  let total = 2.0 ** float_of_int (Bdd.nvars man) in
  let s = Pktset.dst_prefix env (Prefix.of_string "10.0.0.0/8") in
  check (Alcotest.float 1e-6) "prefix /8 fraction" (total /. 256.0) (Bdd.sat_count man s)

(* --- NAT relations --- *)

let nat_value_rewrite =
  qtest "Set_value image is the constant" packet_arb (fun p ->
      let target = Ipv4.of_string "192.0.2.1" in
      let r = Pktset.rel env ~guard:Bdd.top [ (Field.Src_ip, Pktset.Set_value target) ] in
      let image = Pktset.apply_rel env r (Pktset.of_packet env p) in
      let expected = { p with Packet.src_ip = target } in
      Pktset.mem env image expected && not (Bdd.is_bot image)
      && (Packet.equal p expected || not (Pktset.mem env image p)))

let nat_guard_filters =
  qtest "guard restricts the relation" packet_arb (fun p ->
      let guard = Pktset.dst_prefix env (Prefix.of_string "10.0.0.0/8") in
      let r =
        Pktset.rel env ~guard [ (Field.Src_ip, Pktset.Set_value (Ipv4.of_string "1.2.3.4")) ]
      in
      let image = Pktset.apply_rel env r (Pktset.of_packet env p) in
      if Prefix.contains (Prefix.of_string "10.0.0.0/8") p.Packet.dst_ip then
        Pktset.mem env image { p with Packet.src_ip = Ipv4.of_string "1.2.3.4" }
      else Bdd.is_bot image)

let nat_fused_matches_unfused =
  qtest "apply_rel fused = unfused" packet_arb (fun p ->
      let r =
        Pktset.rel env ~guard:(Pktset.value env Field.Protocol Packet.Proto.tcp)
          [ (Field.Src_ip, Pktset.Set_prefix (Prefix.of_string "203.0.113.0/24"));
            (Field.Src_port, Pktset.Set_range (1024, 65535)) ]
      in
      let set =
        Bdd.bor (Pktset.man env) (Pktset.of_packet env p)
          (Pktset.src_prefix env (Prefix.of_string "172.16.0.0/12"))
      in
      Bdd.equal (Pktset.apply_rel env r set) (Pktset.apply_rel_unfused env r set))

let nat_reverse_is_preimage =
  qtest "preimage contains sources of image" packet_arb (fun p ->
      let r =
        Pktset.rel env ~guard:Bdd.top
          [ (Field.Dst_ip, Pktset.Set_value (Ipv4.of_string "10.10.10.10")) ]
      in
      let image = Pktset.apply_rel env r (Pktset.of_packet env p) in
      let back = Pktset.apply_rel_reverse env r image in
      Pktset.mem env back p)

let nat_pool_image_within_pool =
  qtest "Set_prefix image lands in the pool" packet_arb (fun p ->
      let pool = Prefix.of_string "198.51.100.0/24" in
      let r = Pktset.rel env ~guard:Bdd.top [ (Field.Src_ip, Pktset.Set_prefix pool) ] in
      let image = Pktset.apply_rel env r (Pktset.of_packet env p) in
      Bdd.is_bot (Bdd.bdiff (Pktset.man env) image (Pktset.src_prefix env pool)))

(* --- alternative variable orders agree semantically --- *)

let orders_agree =
  qtest ~count:40 "orders agree on membership" packet_arb (fun p ->
      let check_env e =
        let set =
          Bdd.band (Pktset.man e)
            (Pktset.dst_prefix e (Prefix.of_string "10.0.0.0/9"))
            (Pktset.range e Field.Dst_port 100 2000)
        in
        Pktset.mem e set p
      in
      let a = check_env env in
      let b = check_env (Pktset.create ~order:Pktset.Reversed_fields ()) in
      let c = check_env (Pktset.create ~order:Pktset.Lsb_first ()) in
      a = b && b = c)

let layout_units () =
  check Alcotest.int "165 header bits" 165 Field.header_bits;
  check Alcotest.int "261 total vars" 261 Field.total_vars;
  check Alcotest.int "manager vars = 261 + extra" (261 + 8)
    (Bdd.nvars (Pktset.man env));
  (* Paper order: destination IP first. *)
  check Alcotest.int "dst ip msb is level 0" 0 (Pktset.levels env Field.Dst_ip).(0);
  check Alcotest.bool "interleaved primes" true
    ((Pktset.levels env Field.Dst_ip).(1) = 2);
  check Alcotest.int "extra after header" 261 (Pktset.extra_level env 0)

let suites =
  [ ( "symbolic.encoding",
      [ Alcotest.test_case "layout" `Quick layout_units;
        of_packet_mem; of_packet_distinct; prefix_matches_contains;
        range_matches_interval; value_matches_equality; tcp_flag_matches ] );
    ( "symbolic.examples",
      [ to_packet_in_set; to_packet_matches_reference;
        Alcotest.test_case "prefs" `Quick to_packet_respects_prefs;
        Alcotest.test_case "sat_count" `Quick sat_count_prefix ] );
    ( "symbolic.nat",
      [ nat_value_rewrite; nat_guard_filters; nat_fused_matches_unfused;
        nat_reverse_is_preimage; nat_pool_image_within_pool ] );
    ("symbolic.orders", [ orders_agree ]) ]
