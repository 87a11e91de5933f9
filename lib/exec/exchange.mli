(** Morsel-driven intra-query parallelism: the worker-team and queue
    machinery behind the [Physical.Exchange] / [Physical.Repartition]
    operators.

    The morsel unit is one batch worth of heap pages (1024 rows); workers
    claim morsel indices from a shared atomic cursor; the morsels in index
    order hold exactly the serial scan's rows, in the serial order (the
    serial scan cuts the same pages one per batch).  The streaming consumer ({!gather})
    resequences morsels back into cursor order, which makes parallel plan
    output byte-identical to the serial plan's; {!fold} is the blocking
    variant used for parallel partial aggregation.

    Error containment: the first worker exception wins, raises a shared
    stop flag (siblings stop at their next morsel claim), and is re-raised
    on the consuming domain once the queue drains.  Worker contexts are
    forked from the statement context ({!Exec_ctx.fork}): they share the
    cancellation token and deadline, and clean their own temps before the
    domain exits. *)

val max_dop : int
val clamp_dop : int -> int

(** Per-worker counters, surfaced as [worker-<i>] children of the exchange
    profile node. *)
type wstats = {
  wid : int;
  mutable wrows : int;  (** rows the worker emitted (gather) / absorbed *)
  mutable wbatches : int;
  mutable wms : float;  (** worker wall time, ms *)
  mutable wio : Buffer_pool.stats;  (** IO tallied on the worker's domain *)
}

val fold :
  ctx:Exec_ctx.t ->
  dop:int ->
  n_morsels:int ->
  worker:
    (wid:int -> stats:wstats -> Exec_ctx.t -> claim:(unit -> int option) -> 'a) ->
  ?on_done:(wstats array -> unit) ->
  unit ->
  'a array * wstats array
(** Run [dop] workers to completion; each claims morsel indices via [claim]
    (which polls stop/deadline/cancellation and returns [None] when the
    cursor runs dry) and returns a final accumulator.  Blocks until all
    workers join, credits their IO to the calling domain, then re-raises
    the first worker error if any. *)

val gather :
  ctx:Exec_ctx.t ->
  dop:int ->
  schema:Schema.t ->
  n_morsels:int ->
  morsel:(wid:int -> Exec_ctx.t -> int -> Batch.t option) ->
  ?on_done:(wstats array -> unit) ->
  unit ->
  Biter.t
(** Streaming produce/consume over a bounded MPMC queue: workers evaluate
    [morsel] per claimed index ([None] = the morsel filtered to nothing)
    and the returned iterator emits the surviving batches in morsel order.
    [on_done] fires on the consuming domain once all workers have joined
    (before any error is re-raised).  Closing the iterator early stops the
    workers and drains the queue. *)

val parallel_group_ok : Aggregate.t list -> bool
(** Whether partial/merge decomposition of these aggregates reproduces the
    serial fold bit for bit: COUNT/MIN/MAX always, SUM/AVG only over Int
    arguments (float addition is not associative), never UDFs. *)

val segment_ok : Physical.t -> bool
(** Whether the plan is a morsel pipeline workers can evaluate
    independently: a heap scan driving filters, projections and hash-join
    probes (build sides are evaluated once up front and may be anything). *)

val parallelize : dop:int -> Physical.t -> Physical.t
(** Insert (at most) one [Exchange] at the widest eligible point of the
    plan and mark hash-join build sides inside the segment with
    [Repartition].  Plans with no eligible segment are returned
    unchanged. *)

val has_exchange : Physical.t -> bool
