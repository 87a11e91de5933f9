(** Batch iterators: the executor's pull protocol.

    Like a volcano iterator, but each call moves a {!Batch.t} instead of a
    tuple, so per-row closure dispatch and [option] allocation disappear
    from inner loops.

    {b Page order.}  The cost model and the paper's experiments count page
    IO, and a buffer pool's hits and evictions depend on the order pages
    are touched in.  Every operator therefore keeps one rule: a batch does
    all its page IO before its first row, and none between rows.  A
    consumer that touches pages between rows (a nested loop, a merge, a
    spill) then touches them exactly where a row-at-a-time interpreter
    would: a row's page is never read before the consumer asks for that
    row.  Scans produce one page per batch; the {!lockstep} operators below
    end a batch wherever a row would need fresh IO. *)

type t = {
  schema : Schema.t;
  next_batch : unit -> Batch.t option;
  close : unit -> unit;
}

val empty : Schema.t -> t

val once : (unit -> unit) -> unit -> unit
(** Make a close function idempotent (second and later calls are no-ops). *)

val of_batches : Schema.t -> Batch.t list -> t
val of_rows : Schema.t -> Tuple.t array -> t
(** Serve an array as batches of {!Batch.default_rows}. *)

val scan : Schema.t -> Heap_file.t -> t
(** Heap scan, one page per batch (zero-copy). *)

val iter : (Batch.t -> unit) -> t -> unit
(** Drain batch-at-a-time and close; the source is closed (once) even when
    the callback or a producer raises. *)

val iter_rows : (Tuple.t -> unit) -> t -> unit
(** Drain row-at-a-time (over live rows) and close; exception-safe like
    {!iter}. *)

val to_list : t -> Tuple.t list
val to_relation : t -> Relation.t

(** {2 Lockstep operators}

    Merges, nested loops and streaming group-bys consume their inputs a row
    at a time, interleaved with each other and with their own page IO.
    They are written as a [step] function over input {!cursor}s that
    appends output rows with {!emit}.  {!lockstep} runs steps until the
    batch is full, and ends it early where the next step would do IO while
    rows are already buffered; the interrupted step runs again first in the
    next batch.  A step must therefore do its IO ({!pull} or {!touch})
    before any other side effect, and its pulls that may cross an input
    batch boundary must come first. *)

type cursor
(** Row-at-a-time reader over a batch iterator. *)

val cursor : t -> cursor

val at_boundary : cursor -> bool
(** The next {!advance} pulls a batch from the source (and so may do IO). *)

val advance : cursor -> Tuple.t option
(** Next row; [None] once the source is exhausted.  Does not close it. *)

type out
(** The batch a lockstep operator is filling. *)

val emit : out -> Tuple.t -> unit

val pull : out -> cursor -> Tuple.t option
(** {!advance}, but when that would pull a new input batch while [out]
    already holds rows, end the output batch first (the step is retried). *)

val touch : out -> unit
(** Declare that the step is about to do page IO of its own (an index
    probe, opening an inner input): ends the output batch first if it holds
    rows. *)

val lockstep : Schema.t -> step:(out -> bool) -> close:(unit -> unit) -> t
(** Batch iterator over the rows [step] emits; [step] returns [false] once
    the operator is finished. *)
