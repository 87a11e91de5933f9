(** Statement tracing: per-statement trace ids, span trees emitted as JSONL,
    and a slow-query log.

    A span line looks like:
    {v
    {"trace":3,"span":7,"parent":5,"name":"execute","status":"ok",
     "ts":1754500000.123456,"dur_ms":4.218,"attrs":{"rows":42}}
    v}

    Every span is written by {!emit} with externally measured timing: a
    statement's spans are rendered from its record once it has finished,
    and per-operator spans from the executor's profile tree — the
    executor's hot loop never touches the tracer. *)

type attr = S of string | I of int | F of float | B of bool

type tracer

val create :
  ?slow_ms:float -> ?out:out_channel -> ?owns_out:bool -> unit -> tracer
(** A tracer writing JSONL to [out] (if any).  [slow_ms] arms the slow-query
    log: statements at or above the threshold are reported to stderr.
    [owns_out] makes {!close} close the channel. *)

val create_file : ?slow_ms:float -> string -> tracer
(** Tracer writing to a fresh file at [path]; {!close} closes it. *)

val close : tracer -> unit
(** Flush (and close, if owned) the output channel.  Idempotent enough for
    shutdown paths. *)

val new_trace : tracer -> int
(** Allocate a fresh trace id (one per statement). *)

val emit :
  tracer ->
  trace_id:int ->
  ?parent:int ->
  ?status:string ->
  t0:float ->
  dur_ms:float ->
  string ->
  (string * attr) list ->
  int
(** Write a span with externally measured [t0] (Unix seconds) and [dur_ms];
    returns the new span id, for parenting children.  [status] defaults to
    ["ok"]; error paths pass ["error"]. *)

val note_slow :
  tracer ->
  ?fingerprint:string ->
  ?sid:int ->
  sql:string ->
  dur_ms:float ->
  trace_id:int ->
  unit ->
  unit
(** Report the statement to the slow-query log if [dur_ms] is at or above the
    tracer's [slow_ms] threshold (no-op otherwise).  [fingerprint] (plan-cache
    hex fingerprint) and [sid] (server session/connection id) are printed when
    given, so slow-log lines can be joined against [avq_stat_statements] and
    per-connection traces. *)

val spans_emitted : tracer -> int
val slow_statements : tracer -> int
