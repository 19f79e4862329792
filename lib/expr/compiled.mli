(** Structural hashing of canonical-form basis functions — the key of
    every per-basis cache (dataset columns, dot products, the evaluation
    cache).

    [Hashtbl.hash] only inspects a bounded prefix of the tree, so deep
    bases sharing a prefix all collide; {!hash_basis} folds over every
    node and weight.

    The module keeps its historical name from when it also held a
    per-basis postfix evaluator; evaluation now lives in {!Fused} alone.
    The name stays until the next benchmark change, because the
    benchmark harness calls [Compiled.Key.hash]. *)

val hash_basis : Expr.basis -> int
(** Structural hash over the {e entire} tree: every constructor, operator,
    exponent and weight participates (weights included: a mutated weight is
    a different column).  Non-negative. *)

module Key : Hashtbl.HashedType with type t = Expr.basis
(** Hash-consing key: {!Expr.equal_basis} + {!hash_basis}. *)

module Tbl : Hashtbl.S with type key = Expr.basis
(** Hash tables keyed by whole basis trees under {!Key}. *)
