(** External merge sort.

    If the input fits in [work_mem] pages the sort happens in memory with no
    extra IO; otherwise sorted runs of [work_mem] pages are spilled to temp
    files and merged with fan-in [work_mem - 1], exactly the behaviour the
    cost model prices. *)

val sort :
  Exec_ctx.t ->
  compare:(Tuple.t -> Tuple.t -> int) ->
  Biter.t ->
  Biter.t
(** Drain the input, then serve it sorted. *)

val merge : Schema.t -> (Tuple.t -> Tuple.t -> int) -> Biter.t list -> Biter.t
(** k-way merge of already-sorted inputs using a binary min-heap over their
    heads (O(log k) per tuple); ties break on input index.  Output batches
    end wherever the next row needs a new input batch (see
    {!Biter.lockstep}). *)

val by_columns :
  ?desc:bool list -> Schema.t -> Schema.column list -> Tuple.t -> Tuple.t -> int
(** Comparator on the given columns resolved against [schema], with a
    per-column direction flag parallel to the column list ([true] =
    descending; omitted or [[]] = all ascending).
    @raise Expr.Unresolved_column on a missing column. *)
