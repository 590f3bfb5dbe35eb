(** A small line-oriented text format for databases, constraints and
    queries, used by the command-line tool and the examples.

    {v
    % comments start with a percent sign
    relation Employee(name, salary)
    row Employee(page, 5)
    row Employee(page, 8)
    key Employee(name)
    fd Employee: name -> salary
    ind Supply[item] <= Articles[item]
    dc kappa: S(X), R(X, Y), S(Y)
    cfd Cust: cc = 44, zip -> street
    query q(X) :- Employee(X, Y), Y <> 5
    v}

    Identifiers starting with an uppercase letter are variables (Prolog
    convention); everything else is a constant.  All-digit tokens are
    integers, [null] is the SQL null, quoted strings keep their spelling.
    [ind] position lists use attribute names; [dc] bodies may end with
    comparisons ([=], [<>], [<], [<=], [>], [>=]).  Queries and [dc]s must
    be safe: a head or comparison variable that no body atom binds is an
    {!Error} naming the variable.

    One directive per line.  A token left on the line after a directive
    is an {!Error} on that line ([unexpected 'R' after the directive]),
    as is a [row] whose value count differs from its relation's arity.
    Spaces, tabs and carriage returns separate tokens, so a CRLF file
    parses as its LF twin.  The text is read in one pass by a cursor
    with one token of lookahead, and the rows go to the instance in
    bulk ({!Relational.Instance.of_array}). *)

type document = {
  schema : Relational.Schema.t;
  instance : Relational.Instance.t;
  ics : Constraints.Ic.t list;
  queries : (string * Logic.Cq.t) list;
}

exception Error of int * string
(** Line number and message. *)

val document_of_string : string -> document
val document_of_file : string -> document
val find_query : document -> string -> Logic.Cq.t
(** The first query with that name.  Raises [Not_found]. *)

val find_ucq : document -> string -> Logic.Ucq.t
(** All queries sharing the name, as a union — several [query q(...) :- ...]
    lines with one name declare a UCQ.  Raises [Not_found]. *)
