(** The executor: evaluates physical plans over the paged storage engine,
    charging every page touch to the buffer pool.

    One engine: every operator moves {!Batch.t} row batches with selection
    vectors.  Scans fill one batch per page, filters mark rows in a
    selection vector instead of copying, projections and hash joins run
    compiled loops over batches, and the operators that walk their inputs
    in lockstep (block and index nested loops, merge join, sort group, the
    external sort's merge) are {!Biter.lockstep} operators.  Batches obey
    the page-order rule of {!Biter}: a batch does its page IO before its
    first row and none between rows, so the pool sees every page touch in
    the order a row-at-a-time interpreter would make it, and page IO is
    what the cost model predicts. *)

type engine = [ `Batch ]
(** The one engine; kept as a type so configurations can name it. *)

val open_batch : Exec_ctx.t -> Physical.t -> Biter.t
(** Open a plan as a batch-at-a-time iterator.  The caller must drain or
    close it; temp files are released on close / {!Exec_ctx.cleanup}. *)

val run : Exec_ctx.t -> Physical.t -> Relation.t
(** Evaluate to a materialized (in-memory) result and clean up temps.
    Temps are released even if an operator raises (exception-safe). *)

val run_measured :
  ?cold:bool -> Exec_ctx.t -> Physical.t -> Relation.t * Buffer_pool.stats
(** Like {!run} but also returns the page IO the run incurred, measured as
    the delta of the calling domain's own IO tally — no shared counter is
    reset on the warm path, so concurrent measurements on different worker
    domains cannot clobber each other.  [cold] (default true) additionally
    empties the buffer pool and zeroes the global counters first (cold-cache
    benchmarking; single-threaded by contract). *)

val run_profiled :
  ?executor:engine -> Exec_ctx.t -> Physical.t -> Relation.t * Profile.t
(** Like {!run} but additionally collects per-operator counters (rows
    in/out, batches, wall time, page IO) for every plan node.  [executor]
    has a single value and is ignored. *)

val run_profiled_result :
  ?cold:bool ->
  Exec_ctx.t ->
  Physical.t ->
  (Relation.t * Buffer_pool.stats * Profile.t, exn * Profile.t) result
(** {!run_measured} + {!run_profiled} with error-tolerant profiling: on
    failure (timeout, cancellation, fault, quota) the partial profile —
    counters up to the point of death, marked via {!Profile.error} — is
    returned alongside the exception instead of being dropped.  [cold]
    defaults to [false] (warm path). *)
