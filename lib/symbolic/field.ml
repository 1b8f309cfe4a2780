type t =
  | Dst_ip
  | Src_ip
  | Dst_port
  | Src_port
  | Icmp_code
  | Icmp_type
  | Protocol
  | Tcp_flags
  | Dscp
  | Ecn
  | Fragment_offset
  | Packet_length

let all =
  [ Dst_ip; Src_ip; Dst_port; Src_port; Icmp_code; Icmp_type; Protocol;
    Tcp_flags; Dscp; Ecn; Fragment_offset; Packet_length ]

let count = List.length all

let index = function
  | Dst_ip -> 0
  | Src_ip -> 1
  | Dst_port -> 2
  | Src_port -> 3
  | Icmp_code -> 4
  | Icmp_type -> 5
  | Protocol -> 6
  | Tcp_flags -> 7
  | Dscp -> 8
  | Ecn -> 9
  | Fragment_offset -> 10
  | Packet_length -> 11

let bits = function
  | Dst_ip | Src_ip -> 32
  | Dst_port | Src_port -> 16
  | Icmp_code | Icmp_type | Protocol | Tcp_flags -> 8
  | Dscp -> 6
  | Ecn -> 2
  | Fragment_offset -> 13
  | Packet_length -> 16

let transformable = function
  | Dst_ip | Src_ip | Dst_port | Src_port -> true
  | Icmp_code | Icmp_type | Protocol | Tcp_flags | Dscp | Ecn | Fragment_offset
  | Packet_length -> false

let to_string = function
  | Dst_ip -> "dstIp"
  | Src_ip -> "srcIp"
  | Dst_port -> "dstPort"
  | Src_port -> "srcPort"
  | Icmp_code -> "icmpCode"
  | Icmp_type -> "icmpType"
  | Protocol -> "ipProtocol"
  | Tcp_flags -> "tcpFlags"
  | Dscp -> "dscp"
  | Ecn -> "ecn"
  | Fragment_offset -> "fragmentOffset"
  | Packet_length -> "packetLength"

let header_bits = List.fold_left (fun acc f -> acc + bits f) 0 all
let transform_bits = 96
let total_vars = header_bits + transform_bits

(* Transformable fields occupy interleaved (unprimed, primed) level pairs at
   the front of the order; the remaining fields follow contiguously. *)
let base =
  let tbl = Hashtbl.create 16 in
  let off = ref 0 in
  List.iter
    (fun f ->
      if transformable f then begin
        Hashtbl.add tbl f !off;
        off := !off + (2 * bits f)
      end)
    all;
  List.iter
    (fun f ->
      if not (transformable f) then begin
        Hashtbl.add tbl f !off;
        off := !off + bits f
      end)
    all;
  assert (!off = total_vars);
  tbl

let levels f =
  let b = Hashtbl.find base f in
  if transformable f then Array.init (bits f) (fun i -> b + (2 * i))
  else Array.init (bits f) (fun i -> b + i)

let primed_levels f =
  if not (transformable f) then invalid_arg "Field.primed_levels";
  let b = Hashtbl.find base f in
  Array.init (bits f) (fun i -> b + (2 * i) + 1)

let value_of_packet (p : Packet.t) = function
  | Dst_ip -> p.dst_ip
  | Src_ip -> p.src_ip
  | Dst_port -> p.dst_port
  | Src_port -> p.src_port
  | Icmp_code -> p.icmp_code
  | Icmp_type -> p.icmp_type
  | Protocol -> p.protocol
  | Tcp_flags -> p.tcp_flags
  | Dscp -> p.dscp
  | Ecn -> p.ecn
  | Fragment_offset -> p.fragment_offset
  | Packet_length -> p.packet_length
