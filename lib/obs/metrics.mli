(** Metrics registry: named counters, gauges and fixed-bucket histograms with
    JSON and Prometheus text exposition.

    Hot-path instruments ({!Counter.add}, {!Histogram.observe}) are lock-free:
    counters are sharded across domains, histogram buckets are atomics and the
    float sum uses a CAS retry loop.  The registry lock is only taken to
    register instruments and to export. *)

module Counter : sig
  type t

  val create : unit -> t
  (** A standalone (unregistered) sharded counter. *)

  val add : t -> int -> unit
  val incr : t -> unit
  val get : t -> int
end

module Histogram : sig
  type t

  val create : float array -> t
  (** [create bounds] with strictly ascending bucket upper bounds; an implicit
      [+Inf] bucket is appended.  Raises [Invalid_argument] on an empty or
      non-ascending ladder. *)

  val observe : t -> float -> unit
  val count : t -> int
  val sum : t -> float

  val buckets : t -> (float * int) list
  (** Per-bucket (upper bound, count) pairs, non-cumulative, ending with the
      [+Inf] bucket (reported as [infinity]). *)

  val latency_ms_buckets : float array
  (** Default ladder for statement latencies in milliseconds. *)

  val io_pages_buckets : float array
  (** Default ladder for per-statement page IO. *)
end

type t
(** A registry: a mutable set of named instruments. *)

val create : unit -> t

val counter :
  t -> ?help:string -> ?labels:(string * string) list -> string -> Counter.t
(** Create and register a counter; returns it for hot-path use. *)

val fn_counter :
  t ->
  ?help:string ->
  ?labels:(string * string) list ->
  string ->
  (unit -> float) ->
  unit
(** Register a counter whose (monotonic) value is sampled at export time —
    used to expose counters that already live elsewhere (buffer pool, plan
    cache) without double-counting. *)

val gauge :
  t ->
  ?help:string ->
  ?labels:(string * string) list ->
  string ->
  (unit -> float) ->
  unit
(** Register a gauge sampled at export time (queue depth, live temps, ...). *)

val histogram :
  t ->
  ?help:string ->
  ?labels:(string * string) list ->
  buckets:float array ->
  string ->
  Histogram.t

val escape_json : string -> string
(** Escape a string for use inside a JSON string literal. *)

val json_float : float -> string
(** Number rendering used by both exports: integral values print without a
    fraction, everything else prints the shortest decimal form that parses
    back to the exact same float — large cumulative counters and histogram
    sums never lose precision. *)

val to_json : t -> string
(** All metrics as one JSON document, sorted by (name, labels). *)

val to_prometheus : t -> string
(** Prometheus text exposition format: [# TYPE] lines, cumulative histogram
    buckets with [le] labels, [_sum]/[_count] series. *)
