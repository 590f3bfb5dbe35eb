(** The per-(constraints, query) complexity classifier — the static
    tractability test behind [method=auto].

    For self-join-free conjunctive queries under primary keys, the
    Koutris–Wijsen trichotomy (PAPER.md Section 3; built on the
    Fuxman–Miller dichotomy of Section 3.1) separates three tiers by the
    shape of the query's {!Attack_graph}: an acyclic attack graph means
    the certain answers are first-order rewritable; a cyclic graph whose
    every 2-cycle carries a weak attack leaves certainty in PTIME
    (L-complete); a 2-cycle of strong attacks makes it coNP-complete.
    The classifier is symbolic — no data touched — and returns a verdict
    plus a machine-readable witness: the attacking cycle, the elimination
    order, the saturation steps applied, the non-key constraint, the
    self-joined relation, ...

    Soundness contract: when the verdict is {!Fo_rewritable} with an
    {!Attack_acyclic} witness, {!Rewriting.Key_rewrite} driven by the
    {!Attack_graph.rewriting_input} of {!classify_rewriting} produces
    exactly the consistent answers.  {!Conp_hard} is a sound {e lower}
    bound: the witness names a 2-cycle of strong attacks, the
    configuration of the trichotomy's hardness reduction.  [Unknown]
    covers everything the analysis does not decide, including weak
    attack cycles (PTIME in principle, but the recursive rewriting for
    that tier is not implemented).  Under denial-class constraints the
    engine answers every [Conp_hard] and [Unknown] query by SAT
    compilation, which is exact for all of them. *)

type verdict = Fo_rewritable | Conp_hard | Unknown

type witness =
  | No_constraints  (** No constraint touches the query's relations. *)
  | Attack_acyclic of { order : string list; saturated : string list }
      (** Acyclic attack graph: the unattacked-atom elimination order
          (relation names) the rewriting follows and the saturation steps
          applied (empty when the query is saturated). *)
  | Strong_attack_cycle of string list
      (** A 2-cycle of strong attacks — the coNP-hardness witness. *)
  | Weak_attack_cycle of string list
      (** An attack cycle whose 2-cycles all carry weak attacks: PTIME
          per the trichotomy, outside the implemented rewritings. *)
  | Unsafe_query of string  (** Head or comparison variable unbound in the body. *)
  | Non_key_constraint of string  (** A relevant constraint outside the key class. *)
  | Multiple_keys of string  (** Relation with two key constraints. *)
  | Self_join of string
      (** Relation occurring in two atoms: the trichotomy assumes
          self-join-freeness, classification falls back to [Unknown] (and
          {!Lint.query_findings} surfaces the degradation). *)
  | Union_query of int  (** UCQ with that many disjuncts. *)
  | Rewrite_failed
      (** Structural checks passed but the rewriting input was refused —
          downgraded to [Unknown] defensively. *)

type t = { verdict : verdict; witness : witness }

val classify : Constraints.Ic.t list -> Logic.Cq.t -> t

val classify_rewriting :
  Constraints.Ic.t list -> Logic.Cq.t -> t * Attack_graph.rewriting_input option
(** {!classify}, plus the rewriting input an {!Attack_acyclic} verdict
    was computed from (keyed by {!rewrite_keys}), so a caller can run
    the rewriting without analyzing the query again.  [None] for every
    other witness. *)

val classify_ucq : Constraints.Ic.t list -> Logic.Ucq.t -> t

val rewrite_keys : Constraints.Ic.t list -> Logic.Cq.t -> (string * int list) list
(** The key map to drive the rewritings with: declared keys for the
    query's relations, and a synthesized all-attribute key for query
    relations no relevant constraint touches (such relations are never
    repaired, so the full tuple acts as its own key). *)

val verdict_label : verdict -> string
(** ["FO_rewritable"], ["coNP_hard"], ["unknown"]. *)

val witness_code : witness -> string
(** Stable machine-readable code, e.g. ["attack-graph/strong-cycle"]. *)

val describe : t -> string
(** One line: verdict, witness code and the witness itself. *)

val to_lines : t -> string list
(** Deterministic multi-line rendering for ANALYZE / EXPLAIN output. *)

val ucq_rewriting_diagnostic : Constraints.Ic.t list -> Logic.Ucq.t -> string
(** Why [method=rewriting] does not apply to this union query — names the
    failing condition of the first offending disjunct (e.g. its attack
    cycle), or the absence of a union rewriting when every disjunct is
    individually rewritable. *)
