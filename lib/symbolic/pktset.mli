(** Sets of packets represented as BDDs over header variables (§4.2.2).

    An environment owns a BDD manager whose variables encode one IPv4 header
    (plus primed copies of the transformable fields, plus a few query-local
    "extra" bits used for zones and waypoints). The variable order defaults
    to the paper's heuristic; alternative orders exist for the variable-order
    ablation benchmark. *)


type t

type order =
  | Paper_order  (** most-constrained fields first, MSB first *)
  | Reversed_fields  (** least-constrained fields first (bad) *)
  | Lsb_first  (** paper field order, least significant bit first (bad) *)

val create : ?order:order -> ?extra_bits:int -> unit -> t
val man : t -> Bdd.man
val order : t -> order

(** [clone_empty env] is a fresh environment with a private BDD manager and
    the same variable layout ([order], [extra_bits]) as [env]. BDDs exported
    ({!Bdd.export}) from one can be imported into the other because levels
    carry the same meaning. Used to give each worker domain its own
    manager. *)
val clone_empty : t -> t

(** Levels of the field's unprimed bits, most significant bit first. *)
val levels : t -> Field.t -> int array

val extra_count : t -> int

(** Level of extra (zone/waypoint) bit [i]. *)
val extra_level : t -> int -> int

(** The set where extra bit [i] is set. *)
val extra : t -> int -> Bdd.t

(** [strip_extra env i s] quantifies extra bit [i] out of [s]. *)
val strip_extra : t -> int -> Bdd.t -> Bdd.t

(** [strip_extras env s] quantifies every extra bit out of [s]. *)
val strip_extras : t -> Bdd.t -> Bdd.t

(** {2 Header constraints} *)

(** [value env f v] is the set of packets whose field [f] equals [v]. *)
val value : t -> Field.t -> int -> Bdd.t

(** [ip_prefix env f p] constrains an IP-valued field to a prefix. *)
val ip_prefix : t -> Field.t -> Prefix.t -> Bdd.t

val dst_prefix : t -> Prefix.t -> Bdd.t
val src_prefix : t -> Prefix.t -> Bdd.t

(** [range env f lo hi] is the set where [lo <= f <= hi] (inclusive). *)
val range : t -> Field.t -> int -> int -> Bdd.t

(** [tcp_flag env mask] is the set where the TCP flag bit [mask] (one of
    {!Packet.Tcp_flags}) is set. *)
val tcp_flag : t -> int -> Bdd.t

(** Singleton set holding exactly this packet's header. *)
val of_packet : t -> Packet.t -> Bdd.t

(** [mem env set pkt] tests concrete membership (extra bits read as 0). *)
val mem : t -> Bdd.t -> Packet.t -> bool

(** {2 Packet transformations (NAT), §4.2.3} *)

type rewrite =
  | Set_value of int  (** rewrite to a constant (static NAT / PAT address) *)
  | Set_prefix of Prefix.t  (** rewrite into a pool prefix *)
  | Set_range of int * int  (** rewrite into a port range *)

(** [rel env ~guard rewrites] builds a transformation relation: packets
    matching [guard] have the listed fields rewritten and all other
    transformable fields preserved. Only transformable fields may appear. *)
val rel : t -> guard:Bdd.t -> (Field.t * rewrite) list -> Bdd.t

(** Image of a packet set under a relation (the fused BDD operation). *)
val apply_rel : t -> Bdd.t -> Bdd.t -> Bdd.t

(** Same image computed as three separate BDD operations (ablation). *)
val apply_rel_unfused : t -> Bdd.t -> Bdd.t -> Bdd.t

(** Preimage of a packet set under a relation (backward propagation). *)
val apply_rel_reverse : t -> Bdd.t -> Bdd.t -> Bdd.t

(** [swap_src_dst env s] is the set of packets whose src/dst-swapped
    counterpart (addresses and ports) is in [s] — the return flows of the
    sessions in [s] (§4.2.3 bidirectional reachability). *)
val swap_src_dst : t -> Bdd.t -> Bdd.t

(** {2 Example extraction (§4.4.3)} *)

(** Ordered preference constraints used to pick realistic examples: common
    protocols and applications first, then source/destination hints. *)
val standard_prefs :
  t -> ?src_prefix:Prefix.t -> ?dst_prefix:Prefix.t -> unit -> Bdd.t list

(** [to_packet env ?prefs set] extracts a concrete example packet, biased by
    the preferences; [None] iff the set is empty. *)
val to_packet : t -> ?prefs:Bdd.t list -> Bdd.t -> Packet.t option
