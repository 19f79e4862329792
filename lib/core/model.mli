(** A fitted CAFFEINE model: a set of basis-function trees with
    least-squares-learned linear weights, plus its training error and the
    complexity measure of eq. (1).

    All evaluation goes through the fused engine ({!Caffeine_expr.Fused}):
    basis value columns come from {!Caffeine_io.Dataset.basis_column}
    (memoized per dataset) rather than re-interpreting the trees. *)

module Expr = Caffeine_expr.Expr
module Dataset = Caffeine_io.Dataset

type t = {
  bases : Expr.basis array;
  intercept : float;
  weights : float array;  (** same length as [bases] *)
  train_error : float;  (** normalized error on the fitting data *)
  complexity : float;
}

val complexity_of : wb:float -> wvc:float -> Expr.basis array -> float
(** Eq. (1): [Σ_j (w_b + nnodes(j) + Σ_k w_vc·Σ_d |vc_k(d)|)]. *)

val basis_columns : Expr.basis array -> Dataset.t -> float array array option
(** Evaluate each basis on each sample (memoized on the dataset); [None]
    when any value is not finite (the model is invalid on this data).  The
    returned columns are the dataset's cached arrays — do not mutate. *)

val fit :
  wb:float -> wvc:float -> Expr.basis array -> data:Dataset.t -> targets:float array ->
  t option
(** Least-squares weighting of the basis functions; [None] for invalid
    models.  An empty basis array yields the constant model.  One path
    for both storages: {!Dataset.gram} (cached upper-triangle products and
    finiteness), then {!Caffeine_regress.Linfit.fit_stream} over
    {!Dataset.iter_basis_chunks}, so dense and streamed data give
    bit-identical fits. *)

val to_wsum : t -> Expr.wsum
(** The model as one weighted sum [intercept + Σ wⱼ·basisⱼ] — the form
    export, serving and exact sensitivities work on. *)

val evaluator : t -> float array -> float
(** [evaluator model] compiles the whole model once
    ({!Caffeine_expr.Fused.compile_wsums}) and returns a point-evaluation
    closure — use it when probing many single points
    (sensitivities, exported-code checks). *)

val predict_point : t -> float array -> float
(** One-shot [evaluator model x]; prefer {!evaluator} or {!predict} in
    loops. *)

val predict : t -> Dataset.t -> float array
(** Batched response over a dataset, from cached basis columns. *)

val warm : t -> Dataset.t -> unit
(** Fill the dataset's column cache for every basis of the model through
    one fused tape ({!Dataset.warm_columns}): subtrees shared between the
    model's bases evaluate once.  Purely a throughput optimization —
    subsequent {!predict} / {!error_on} calls return bit-identical
    results with or without warming. *)

val warm_front : t list -> Dataset.t -> unit
(** {!warm} for a whole front at once, sharing subtrees {e across}
    models — fronts grown by the search overlap heavily, so this is the
    cheap way to prepare SAG, scoring and export passes. *)

val error_on : t -> data:Dataset.t -> targets:float array -> float
(** Normalized error on a dataset; [infinity] when predictions are not
    finite. *)

val num_bases : t -> int

val to_string : var_names:string array -> t -> string
(** Paper-style rendering, e.g.
    ["90.5 + 190.6 * id1 / vsg1 + 22.2 * id2 / vds2"]. *)

val simplify : wb:float -> wvc:float -> t -> t
(** Algebraic cleanup: fold constant subexpressions into the linear weights
    and the intercept, drop zero-weight bases, recompute complexity.  The
    predictions are unchanged (up to rounding). *)
