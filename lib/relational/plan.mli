(** Compiled execution plans over columnar tables.

    A {!t} is a relational-algebra AST; {!run} executes it with
    specialized kernels over {!Columnar} storage: selection fused into
    scans, hash-join build/probe fused with projection (needed-columns
    analysis gathers only what some ancestor consumes), inner loops on
    unboxed code arrays with no per-tuple column-name resolution.

    Semantics: predicates keep a row only when definitely true under
    three-valued logic, NULL never joins (but [Antijoin] keeps
    NULL-keyed left rows — a NULL key refutes nothing), and
    [Distinct]/[Union]/[Diff] restore set semantics with rows sorted by
    [Value.compare].  Join output order is nested-loop order
    (left-major, right ascending).

    Every executed node ticks {!Obs.Progress} once, and the scan, build
    and probe loops once per 4,096 rows, so a deadline stops a large
    join from inside it.

    Allocation: the kernels allocate their outputs at their exact size.
    A probe runs twice — once counting its matches, once writing them
    into arrays of that size — so no buffer grows and nothing is
    allocated per probe row.  A [Filter] whose predicates are all
    self-equalities [x = x] over NULL-free columns passes its input
    through; other self-equalities in a conjunction are not tested.

    Counters: [scan.columnar] per scan, [join.fused] per fused
    hash-join/semijoin/antijoin kernel, [join.probe_rows] the rows
    probed into a join index. *)

type op = Eq | Neq | Lt | Le | Gt | Ge
type operand = Col of string | Const of Value.t
type pred = { op : op; left : operand; right : operand }

type filter =
  | All of pred list  (** conjunction: every predicate definitely true *)
  | Any of pred list  (** disjunction: some predicate definitely true *)

type arg = Avar of string | Aconst of Value.t

type t =
  | Scan of { rel : string; args : arg list; tid : string option }
      (** One base relation via {!Instance.columnar}, with constant and
          repeated-variable selections fused into the scan.  Output
          columns: [tid] (if any), then the distinct variables in
          first-occurrence order.  An arity-mismatched argument list
          yields the empty table. *)
  | Table of Columnar.t  (** A materialized intermediate. *)
  | Filter of filter * t
  | Join of t * t
      (** Natural join on all shared column names (cartesian product
          when none are shared). *)
  | Semijoin of t * t
  | Antijoin of t * t
      (** Left rows with no join partner; NULL-keyed left rows are
          kept. *)
  | Project of string list * t  (** No dedup. *)
  | Distinct of t
  | Union of t * t  (** Positional, set semantics. *)
  | Diff of t * t
      (** Positional set difference (with distinct); NULL compares
          equal to NULL here, matching [Value.compare]. *)

val cols : t -> string list
(** Static output columns of a plan, in output order. *)

val run : ?needed:string list -> Instance.t -> t -> Columnar.t
(** Execute.  [needed] restricts the output to (the plan-order subset
    of) those columns and lets every kernel skip gathering the rest.
    Raises [Invalid_argument] (with the available columns listed) when
    a referenced column does not exist. *)

val eval_op : op -> Value.t -> Value.t -> Tvl.t
(** The three-valued comparison semantics the compiled predicates
    implement — [Logic.Cmp.eval]'s value-level core. *)
