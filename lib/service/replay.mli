(** Batch replay of a query file through one service instance.

    Input format matches the interactive shell: statements are terminated
    by [;;] (each statement may itself be a script of [;]-separated CREATE
    VIEWs ending in a SELECT).  Lines whose first non-blank characters are
    [--] are comments.

    Three non-SQL forms are recognized per statement:
    - [\metrics] (or [\metrics prom]): dump the service's metrics registry
      as JSON (or Prometheus text) at that point in the replay;
    - [\dm]: list materialized views (name, group count, freshness,
      absorbed base-table versions, definition);
    - [EXPLAIN ANALYZE <sql>]: run the statement under per-operator
      profiling and render the estimated-vs-actual tree with q-errors.

    Mutating statements (INSERT, CREATE / DROP / REFRESH MATERIALIZED
    VIEW) are routed through {!Service.exec_statement} and report a
    completion tag instead of a row count. *)

val split_statements : string -> string list
(** Strip comment lines and split on [;;]; empty statements are dropped. *)

(** How one statement is routed; shared with the network server so [avq
    serve] speaks exactly the session statement language. *)
type classified =
  | Directive_metrics of [ `Json | `Prometheus ]
  | Directive_stats of [ `Show | `Reset ]
      (** [\stats] / [\stats reset]: render the top statement statistics
          ({!Stmt_stats}) or drop every tracked entry *)
  | Directive_matviews
  | Directive_checkpoint
      (** [\checkpoint]: snapshot catalog + matviews to the data directory
          and truncate the WAL; a barrier in pool replay *)
  | Explain_analyze of string
  | Update of string
      (** INSERT or MATERIALIZED VIEW DDL: mutates shared state, so pool
          replay treats it as a barrier *)
  | Plain of string

val classify : string -> classified

val describe_error : exn -> string
(** One-line rendering of a failure {!Service.typed_error} knows.
    Re-raises anything else (an untyped engine bug). *)

val run_metrics : Service.t -> [ `Json | `Prometheus ] -> string

val run_stats : Service.t -> [ `Show | `Reset ] -> string
(** Render the top tracked statements as an aligned table, or reset the
    store and report that. *)

exception Analysis_failed of exn * string
(** A failed [EXPLAIN ANALYZE] still carries its partial annotated tree. *)

val run_explain_analyze :
  ?limits:Service.session_limits -> Service.t -> string -> string
(** Run under the session's [limits] (default: the service config).
    @raise Analysis_failed with the (partial) rendered tree on failure. *)

type outcome =
  | Executed of Service.planned * int
      (** planned + result row count of a plain statement *)
  | Rendered of string
      (** output of a [\metrics] directive or an [EXPLAIN ANALYZE] *)
  | Failed of string  (** bind/parse/typed-execution error message *)

type line = { index : int; sql : string; outcome : outcome }

val replay : Service.t -> string -> line list
(** Run every statement in order, executing each against the service's
    catalog. Statements that fail to bind or parse are reported in their
    [outcome] and do not stop the replay.  A {!Lifecycle} drain stops the
    replay at the next statement boundary: finished lines keep their
    outcomes, the rest are never started. *)

val replay_pool : Service.Pool.t -> string -> line list
(** Like {!replay} but through a worker pool: runs of consecutive read-only
    statements are submitted up front and awaited in order, so the per-line
    report is deterministic while prepare + plan + execute run concurrently
    on the workers.  Mutating statements are barriers: each runs alone,
    after all earlier statements completed and before any later one is
    submitted.  Directives and [EXPLAIN ANALYZE] run synchronously at their
    await position (a [\metrics] line sees every earlier statement's
    effect; later statements in the same run may still be in flight). *)

val report : Format.formatter -> Service.t -> line list -> unit
(** Human-readable per-statement lines followed by the service's cache
    statistics. *)
