(** Synchronization primitives for the shared service state.

    The plan cache is an intrusive LRU list, so all cache operations (and
    the find→optimize→add sequence that must be atomic for "optimization
    paid once per key") run under one {!t} mutex.  Per-call counters are
    atomics ({!Counter}, {!Fsum}) so {!Service.stats} can read them without
    blocking the planning path. *)

type t = Mutex.t

val create : unit -> t

val protect : t -> (unit -> 'a) -> 'a
(** Run a thunk with the lock held; always released (even on exceptions). *)

(** Monotonic integer counter readable without the lock. *)
module Counter : sig
  type t

  val create : unit -> t
  val incr : t -> unit
  val get : t -> int
end

(** Atomic float accumulator (CAS loop) for wall-time totals. *)
module Fsum : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val get : t -> float
end
