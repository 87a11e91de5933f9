(** EXPLAIN ANALYZE: estimated vs actual, per plan node.

    Runs a plan with per-operator profiling and zips the executor's measured
    rows, page IO and wall time back onto the plan tree next to the cost
    model's estimates.  The per-node {e q-error} — [max(est/actual,
    actual/est)], both sides clamped at 1 — makes cost-model accuracy a
    first-class, testable quantity.

    Estimated IO per node is the model's {e cumulative} cost
    ({!Cost_model.est.cost}); the matching actual is the node's inclusive
    subtree page {e touches} — reads + writes + pool hits
    ({!Profile.total_touches}).  The model has no caching notion (it prices
    every page access), so touches, not physical reads, are the comparable
    actual; the comparison is then stable whether the pool is cold or warm.
    Use [~cold:true] when the statement IO footer should show physical
    reads.  Index scans carry a structurally large [q_pages]: the model
    caps unclustered fetches at the table's page count (assuming the pool
    absorbs revisits) while touches count every heap access. *)

type node = {
  label : string;  (** {!Explain.node_label} *)
  op : string;  (** {!Physical.op_name} *)
  est : Cost_model.est;
  rows : int;  (** actual rows out *)
  pages : int;  (** actual inclusive page touches (reads+writes+hits) of the subtree *)
  ms : float;  (** inclusive wall time: open (blocking work) + pulls *)
  batches : int;
  missing : bool;
      (** no profile node matched this plan node (e.g. the rescanned inner
          of a BNL join, opened with profiling suspended) *)
  children : node list;
}

type t = {
  root : node;
  wall_ms : float;  (** whole-statement execution wall time *)
  io : Buffer_pool.stats;
      (** statement IO delta; on a failed run, the IO done before failing
          as the caller measured it ({!analyze} reports zero) *)
  error : string option;  (** set when the run failed: stats are partial *)
}

val q_error : est:float -> actual:float -> float
val q_rows : node -> float
val q_pages : node -> float

val analyze :
  ?cold:bool ->
  Exec_ctx.t ->
  Physical.t ->
  (Relation.t, exn) result * t
(** Run the plan under profiling and build the annotated tree.  On failure
    the tree carries the partial actuals and [error] is set.  [cold]
    (default false) empties the buffer pool first. *)

val of_profile :
  Catalog.t ->
  work_mem:int ->
  Physical.t ->
  io:Buffer_pool.stats ->
  wall_ms:float ->
  Profile.t ->
  t
(** Zip an already-collected profile onto a plan (used by the service,
    which runs the statement itself). *)

val nodes : t -> node list
(** All nodes, preorder. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
