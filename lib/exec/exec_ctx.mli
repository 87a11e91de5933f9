(** Execution context: catalog access plus the operator memory budget.

    [work_mem] is the number of buffer-pool pages an operator may use as
    workspace (sort runs, hash tables, BNL outer blocks).  The cost model
    uses the same [work_mem] value, so predicted and measured IO agree on
    when spilling happens. *)

type t

val create : ?work_mem:int -> Catalog.t -> t
(** Default [work_mem] is 32 pages.
    @raise Invalid_argument if [work_mem < 3] (BNL and external sort need at
    least 3 pages). *)

val catalog : t -> Catalog.t
val work_mem : t -> int

val fork : t -> t
(** A morsel worker's view of the statement: shares the catalog, memory
    budget, deadline and the {e same} cancellation token (cancelling the
    statement stops every worker), but owns a fresh temp list / spill
    counter and carries no profiler — the exchange operator aggregates
    per-worker stats itself. *)

val storage : t -> Storage.t

val temp : t -> Schema.t -> Heap_file.t
(** Allocate a temp heap file (registered for {!cleanup}). *)

val drop : t -> Heap_file.t -> unit
(** Release one temp file.  Idempotent: dropping a heap this context no
    longer tracks is a no-op, so eager operator closes (e.g. [Limit])
    compose with the outer close and with {!cleanup}. *)

val cleanup : t -> unit
(** Drop any temp files still alive (safety net after failed runs). *)

val live_temps : t -> int
(** Number of temp heap files currently tracked (0 after {!cleanup}). *)

val profiler : t -> Profile.t option
val set_profiler : t -> Profile.t option -> unit
(** Per-operator counter sink; when set, [Executor.open_batch] registers
    and wraps every operator it opens. *)

(** {2 Statement limits}

    A statement may carry a deadline, a cancellation token and a temp-spill
    quota.  Deadline and cancellation are polled at batch boundaries by the
    executor (see {!guarded}); the spill quota is enforced eagerly, on every
    fresh temp page the statement allocates. *)

val begin_statement :
  ?timeout_ms:float -> ?spill_quota:int -> ?cancel:bool Atomic.t -> t -> unit
(** Reset the per-statement limit state.  [timeout_ms] sets an absolute
    deadline from now; [spill_quota] bounds the {e cumulative} number of
    temp pages the statement may allocate; [cancel] is a shared token another
    domain may set to abort the statement.
    @raise Invalid_argument if [timeout_ms <= 0] or [spill_quota < 0]. *)

val check : t -> unit
(** Poll the limits: raises [Avq_error.Error Cancelled] if a process-wide
    {!Lifecycle} abort is in progress or the statement's token is set, then
    [Avq_error.Error (Timeout _)] if past the deadline. *)

val cancel : t -> unit
(** Set this statement's cancellation token. *)

val guarded : t -> bool
(** Whether the executor should poll {!check} at batch boundaries: the
    current statement carries a deadline or cancel token, or lifecycle
    shutdown handlers are installed ({!Lifecycle.engaged}). *)

val spill_pages : t -> int
(** Cumulative temp pages allocated by the current statement. *)
