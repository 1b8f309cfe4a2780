(** Packet-header fields of the symbolic encoding.

    The variable order follows the paper (§4.2.2): fields constrained most
    often come first — destination IP, source IP, destination port, source
    port, ICMP code, ICMP type, IP protocol — followed by less-used fields.
    Within a field, the most significant bit comes first.

    The first four fields are {e transformable} (NAT can rewrite them); each
    of their 96 bits is paired with an interleaved primed variable, giving the
    261 network-independent variables the paper reports (165 header bits + 96
    primed bits). *)

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

val all : t list

(** [List.length all]. *)
val count : int

(** The field's position in {!all}, in [0, count). *)
val index : t -> int

val bits : t -> int
val transformable : t -> bool
val to_string : t -> string

(** Total unprimed header bits (165). *)
val header_bits : int

(** Total variables including primed copies (261). *)
val total_vars : int

(** Levels of the field's unprimed bits, most significant first. *)
val levels : t -> int array

(** Levels of the field's primed bits; only for transformable fields. *)
val primed_levels : t -> int array

val value_of_packet : Packet.t -> t -> int
