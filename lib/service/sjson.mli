(** Minimal JSON codec for the analysis service's newline-delimited
    protocol. Self-contained on purpose: the toolchain ships no JSON
    library, and the protocol needs only the standard scalar types, arrays
    and objects — no streaming, no numbers beyond OCaml [int]/[float]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(** Deepest array/object nesting {!parse} accepts (128). *)
val max_depth : int

(** Parse one complete JSON value; trailing non-whitespace is an error.
    [Error msg] carries the byte offset of the failure. Arrays and objects
    nested more than {!max_depth} deep are an error, so parsing time and
    memory stay linear in the input whatever its shape. *)
val parse : string -> (t, string) result

(** Compact (single-line) rendering; strings are escaped per RFC 8259.
    [Float] values that are whole numbers print with a trailing [.]
    so they re-parse as floats. *)
val to_string : t -> string

(** [add_quoted buf s] appends [s] as a quoted JSON string literal, escaped
    exactly as {!to_string} escapes [Str s]. For encoders that write large
    documents straight into one buffer instead of building a [t]. *)
val add_quoted : Buffer.t -> string -> unit

(** {2 Accessors} — total lookups used by the request handlers. *)

(** Field of an object ([None] on missing field or non-object). *)
val member : string -> t -> t option

val get_string : t -> string option
val get_int : t -> int option
val get_bool : t -> bool option

(** Object fields as an association list ([None] on non-objects). *)
val get_obj : t -> (string * t) list option

val get_arr : t -> t list option
