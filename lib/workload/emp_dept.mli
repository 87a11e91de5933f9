(** The paper's running example schema (Examples 1 and 2):

    - [emp(eno PK, dno -> dept, sal, age)]
    - [dept(dno PK, budget, dname)]

    with knobs for the parameters the paper's trade-off discussion turns on:
    the number of employees, the number of departments (hence group count),
    and the age distribution (hence the selectivity of [e1.age < limit]). *)

type params = {
  emps : int;
  depts : int;
  age_min : int;
  age_max : int;
  sal_min : int;
  sal_max : int;
  seed : int;
  frames : int;  (** buffer-pool pages *)
}

val default_params : params

val load : ?params:params -> unit -> Catalog.t
(** Build a catalog holding [emp] and [dept] with PK indexes, an index on
    [emp.dno] and [emp.age], the FK declaration, and statistics. *)

val example1 : ?age_limit:int -> unit -> Block.query
(** Example 1: employees younger than [age_limit] (default 22) earning more
    than their department's average salary — a join of [emp] with the
    aggregate view [A1(dno, asal)]. *)

val example1_pulled_up : ?age_limit:int -> unit -> Block.query
(** Example 1 rewritten by the paper's pull-up ("query B" of Section 3): a
    single grouped block over the self-join of [emp], keyed on the outer
    employee, with the salary comparison as HAVING. *)

val example2 : ?budget_limit:int -> unit -> Block.query
(** Example 2: average salary per department with budget below
    [budget_limit] — a single-block query whose minimal invariant set is
    [{emp}]. *)

val avg_by_dept_view : alias:string -> Block.view
(** The aggregate view A1: [SELECT dno, AVG(sal) FROM emp GROUP BY dno]. *)
