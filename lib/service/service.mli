(** Analysis-as-a-service: a long-lived daemon serving the question set
    over newline-delimited JSON (one request object per line, one response
    object per line) on a Unix-domain — and optionally TCP — socket.

    Design:

    - {b Snapshot store.} Loaded snapshots are keyed by their content
      fingerprint (digest over per-file (name, MD5) pairs, computable
      without parsing), so two clients loading byte-identical configs
      share one parsed session, one data plane and one forwarding graph.
    - {b One pool, many clients.} All sessions share a single persistent
      {!Par.Pool}; per-connection systhreads handle protocol IO while the
      pool's worker domains provide the real parallelism. Engine compute
      is serialized per snapshot (BDD managers are not thread-safe), and
      each query routes through {!Fpar.plan} for admission, so small
      questions never occupy the pool.
    - {b Coalescing.} Identical queries against the same snapshot that
      overlap in time join one computation and share its result; repeats
      that arrive later hit the engine's query memo instead.
    - {b Shutdown.} [stop] (wired to SIGINT/SIGTERM by {!serve}) drains
      in-flight requests — each still receives its full response — then
      shuts the shared pool down exactly once, never racing the process
      [at_exit] sweep into a double join. *)

type t

(** Protocol-level counters, readable at any time (and exposed to clients
    via the [stats] method). *)
type stats = {
  st_requests : int;  (** requests parsed and dispatched *)
  st_errors : int;  (** requests answered with ["ok": false] *)
  st_computed : int;  (** queries that ran the engine *)
  st_coalesced : int;  (** queries that joined an in-flight computation *)
  st_snapshots : int;  (** live snapshots in the store *)
  st_dedup_hits : int;  (** loads answered by an existing snapshot *)
  st_evictions : int;  (** snapshots dropped by the LRU capacity bound *)
  st_shutdowns_run : int;  (** times the shared pool was actually shut down *)
}

(** [create ?domains ?auto ()] builds a service instance. [domains]
    (default {!Par.default_domains}) sizes the shared worker pool
    ([domains <= 1] runs everything serially, no pool); [auto] (default
    true) enables the adaptive serial fallback for small queries.
    [max_snapshots] bounds the snapshot store: registering one past the
    bound evicts the snapshot whose last store lookup (load, query,
    update) is oldest — in-flight requests against an evicted session
    still complete; re-loading it just pays the parse again. Unbounded by
    default. *)
val create :
  ?domains:int ->
  ?auto:bool ->
  ?max_snapshots:int ->
  unit ->
  t

(** Handle one request line, returning exactly one response line (no
    trailing newline). Never raises: malformed JSON, unknown methods and
    engine failures all come back as [{"ok":false,"error":...}] — a bad
    request must never take the daemon down. Thread-safe. *)
val handle_line : t -> string -> string

(** The same response as {!handle_line}, in parts whose concatenation is
    that line: the envelope head, the result fragment (shared, not copied,
    between coalesced requests) and the envelope tail. The socket server
    writes the parts one after another, never building the full line. *)
val handle_line_parts : t -> string -> string list

(** [response_parts ?id ?meta ~ok body] is the envelope around an
    already-encoded JSON value [body], as [[head; body; tail]]:
    [{"ok":true,"id":ID,"result":BODY,"meta":META}], or ["error"] in place
    of ["result"] when [ok] is false. [meta] is encoded JSON too. *)
val response_parts :
  ?id:Sjson.t -> ?meta:string -> ok:bool -> string -> string list

(** The result fragment of a query: [{"answers":[...]}] with one object
    per answer ([title], [header], [rows]), plus ["plan"] when given.
    Byte-identical to [Sjson.to_string] of the equivalent tree, but encoded
    straight into one buffer. *)
val answers_fragment : ?plan:string -> Questions.answer list -> string

(** Load a snapshot directly (bypassing the protocol): returns its store
    fingerprint. [warm] (default true) forces the data plane and
    forwarding graph and pre-imports the graph into every pool worker.
    Deduped against the store like protocol loads. *)
val load_files : ?warm:bool -> t -> (string * string) list -> string

val stats : t -> stats

(** Ask the serve loop to stop. Safe from signal handlers' contexts
    (asynchronous with respect to [serve]) and idempotent. Pending
    requests drain before the listener returns. *)
val stop : t -> unit

(** [serve t ~socket ()] binds [socket] (a Unix-domain path, replaced if
    it already exists), optionally also [tcp_port] on localhost, and
    serves until {!stop}. [install_signals] (default true) wires SIGINT
    and SIGTERM to {!stop} via a self-pipe so an interrupted daemon still
    drains in-flight requests and shuts the pool down exactly once.
    Returns after the drain. *)
val serve : ?install_signals:bool -> ?tcp_port:int -> socket:string -> t -> unit

(** Test seam: artificial delay (seconds) inserted into every engine
    computation, so tests can force two identical queries to overlap and
    exercise the coalescing path deterministically. Default [0.]. *)
val test_delay : float ref
