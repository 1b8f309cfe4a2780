(** IPv4 addresses represented as non-negative integers in [0, 2^32). *)

type t = int

val zero : t
val max_value : t

(** [of_octets a b c d] builds [a.b.c.d]. Octets must be in [0, 255]. *)
val of_octets : int -> int -> int -> int -> t

val to_octets : t -> int * int * int * int

(** [of_string "10.0.0.1"] parses a dotted-quad address.
    @raise Invalid_argument on malformed input. *)
val of_string : string -> t

val of_string_opt : string -> t option
val to_string : t -> string

(** [add_to_buffer buf ip] appends [to_string ip] to [buf]. *)
val add_to_buffer : Buffer.t -> t -> unit

val pp : Format.formatter -> t -> unit
val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int

(** [succ ip] is the next address; wraps at [max_value]. *)
val succ : t -> t

(** [bit ip i] is bit [i] of [ip], where bit 0 is the most significant. *)
val bit : t -> int -> bool

(** Multicast range 224.0.0.0/4. *)
val is_multicast : t -> bool

(** RFC1918 private ranges. *)
val is_private : t -> bool
