module Tcp_flags = struct
  let fin = 1
  let syn = 2
  let rst = 4
  let psh = 8
  let ack = 16
  let urg = 32
  let ece = 64
  let cwr = 128

  let names =
    [ (fin, "FIN"); (syn, "SYN"); (rst, "RST"); (psh, "PSH"); (ack, "ACK");
      (urg, "URG"); (ece, "ECE"); (cwr, "CWR") ]

  let add_to_buffer buf flags =
    let any =
      List.fold_left
        (fun any (b, n) ->
          if flags land b = 0 then any
          else begin
            if any then Buffer.add_char buf '|';
            Buffer.add_string buf n;
            true
          end)
        false names
    in
    if not any then Buffer.add_char buf '-'

  let to_string flags =
    let buf = Buffer.create 16 in
    add_to_buffer buf flags;
    Buffer.contents buf
end

module Proto = struct
  let icmp = 1
  let tcp = 6
  let udp = 17
  let ospf = 89

  let to_string = function
    | 1 -> "icmp"
    | 6 -> "tcp"
    | 17 -> "udp"
    | 89 -> "ospf"
    | p -> string_of_int p
end

type t = {
  src_ip : Ipv4.t;
  dst_ip : Ipv4.t;
  protocol : int;
  src_port : int;
  dst_port : int;
  icmp_type : int;
  icmp_code : int;
  tcp_flags : int;
  dscp : int;
  ecn : int;
  fragment_offset : int;
  packet_length : int;
}

let default =
  { src_ip = Ipv4.of_octets 10 0 0 1; dst_ip = Ipv4.of_octets 10 0 0 2;
    protocol = Proto.tcp; src_port = 49152; dst_port = 80;
    icmp_type = 0; icmp_code = 0; tcp_flags = Tcp_flags.syn;
    dscp = 0; ecn = 0; fragment_offset = 0; packet_length = 512 }

let tcp ?(flags = Tcp_flags.syn) ?(src_port = 49152) ~src ~dst dst_port =
  { default with src_ip = src; dst_ip = dst; protocol = Proto.tcp;
    src_port; dst_port; tcp_flags = flags }

let udp ?(src_port = 49152) ~src ~dst dst_port =
  { default with src_ip = src; dst_ip = dst; protocol = Proto.udp;
    src_port; dst_port; tcp_flags = 0 }

let icmp ?(ty = 8) ?(code = 0) ~src ~dst () =
  { default with src_ip = src; dst_ip = dst; protocol = Proto.icmp;
    src_port = 0; dst_port = 0; icmp_type = ty; icmp_code = code; tcp_flags = 0 }

let to_string p =
  let buf = Buffer.create 64 in
  let field name v =
    Buffer.add_string buf name;
    Buffer.add_string buf (string_of_int v)
  in
  Buffer.add_string buf (Proto.to_string p.protocol);
  Buffer.add_char buf ' ';
  Ipv4.add_to_buffer buf p.src_ip;
  Buffer.add_string buf " -> ";
  Ipv4.add_to_buffer buf p.dst_ip;
  if p.protocol = Proto.tcp || p.protocol = Proto.udp then begin
    field " sport=" p.src_port;
    field " dport=" p.dst_port;
    if p.protocol = Proto.tcp then begin
      Buffer.add_string buf " flags=";
      Tcp_flags.add_to_buffer buf p.tcp_flags
    end
  end
  else if p.protocol = Proto.icmp then begin
    field " type=" p.icmp_type;
    field " code=" p.icmp_code
  end;
  Buffer.contents buf

let pp fmt p = Format.pp_print_string fmt (to_string p)
let equal = ( = )
let compare = Stdlib.compare
