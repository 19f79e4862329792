(** Fused evaluation of {e sets} of canonical-form basis functions — the
    one expression engine behind dataset columns, probes, model
    evaluation, serving and export.

    {!Expr.eval_basis} interprets one tree at one sample; evaluating a
    whole generation (or a whole Pareto front) that way re-walks every
    subtree shared between candidates — and GP populations under set
    crossover share enormously.  This module hash-conses a set of bases
    into a single DAG using the same structural identity as
    {!Compiled.Key} (structural equality, weights by IEEE bits), emits one
    topologically-ordered tape where each distinct subtree is computed
    exactly once, and evaluates it with cache-tiled kernels: the sample
    dimension is blocked so the whole working set (one tile per live
    slot) stays L1/L2-resident, inner loops use unsafe accesses, and
    per-root output rows are the only allocations — intermediate tiles
    live in a reusable scratch arena whose slots are recycled by liveness
    (a value's slot is reused as soon as its last consumer has read it).
    A single basis is the one-root case.

    Results are {b bit-identical} to {!Expr.eval_basis} (NaN for NaN):
    every DAG node is one step of the interpreter's folds, applied in the
    same order and association (monomial factors in variable order, the
    factor product and the weighted sum left to right), the conditional
    evaluates both branches eagerly and selects per sample (value-equal to
    the interpreter's lazy branch, since expressions are pure) with the
    same NaN convention, and all kernels are elementwise, so fusing,
    tiling and slot reuse cannot change any IEEE word.  Fusion is
    therefore safe on the search hot path: workers fusing their own chunk
    of a generation produce the same objectives as evaluating one basis
    at a time.

    Inputs are checked once per call: a design column the tape reads that
    is missing or shorter than the samples asked for, or a probe index
    outside it, raises [Invalid_argument] before any kernel runs. *)

type node =
  | Const of float
  | Vc of { vars : int array; exps : int array }
      (** Monomial over the nonzero-exponent design variables. *)
  | Unary of Op.unary * int
  | Binary of Op.binary * int * int
  | Lte of { test : int; threshold : int; less : int; otherwise : int }
  | Mul of int * int  (** One step of a basis's factor-product fold. *)
  | Fma of { acc : int; w : float; term : int }
      (** One step of a weighted-sum fold: [acc +. (w *. term)]. *)

type t
(** A fused DAG compiled to a slot-allocated, tiled kernel tape. *)

val compile : Expr.basis array -> t
(** Hash-cons the bases into one DAG and compile it.  [compile [||]] is
    valid and evaluates to zero output rows.  Products and weighted sums
    are consed one fold step at a time ({!Mul}/{!Fma} chains), so shared
    {e prefixes} of factor lists and term lists deduplicate too, not just
    whole subtrees. *)

val compile_wsums : Expr.wsum array -> t
(** Fuse whole weighted sums (one root per wsum) — a model's
    [intercept + Σ wⱼ·basisⱼ] is a wsum, so this fuses entire fronts for
    export and serving. *)

val roots : t -> int array
(** Node id of each input expression, in input order.  Duplicate inputs
    map to the same node id but keep distinct output rows. *)

val nodes : t -> node array
(** The DAG in topological (creation) order: children precede parents.
    This is the codegen surface for fused export. *)

val nodes_in : t -> int
(** DAG nodes the input expressions would create without sharing — the
    per-expression compilation cost. *)

val nodes_out : t -> int
(** Distinct DAG nodes after hash-consing ([Array.length (nodes t)]).
    [nodes_in / nodes_out] is the cross-tree CSE ratio. *)

val tile : t -> int
(** Samples per block: chosen at compile time so all live slots' tiles
    fit the L1 budget, clamped to keep per-tile loop overhead amortized. *)

val slots : t -> int
(** Scratch columns needed (after liveness-based slot reuse). *)

type scratch
(** Reusable arena of tile buffers; grows to the largest
    (slots × tile width) seen and can be shared by sequential calls. *)

val scratch : unit -> scratch

val eval_columns :
  t -> scratch:scratch -> columns:float array array -> n:int -> float array array
(** [eval_columns t ~scratch ~columns ~n] evaluates every root over all
    [n] samples ([columns.(v).(i)] is design variable [v] at sample [i]).
    Row [r] of the result is a fresh length-[n] column whose entry [i]
    equals [Expr.eval_basis bases.(r)] at sample [i], bit for bit.
    Raises [Invalid_argument] when a column the tape reads is missing or
    shorter than [n]. *)

val eval_columns_into :
  t ->
  scratch:scratch ->
  columns:float array array ->
  n:int ->
  out:float array array ->
  unit
(** {!eval_columns} writing into caller-owned buffers: fills the first [n]
    cells of [out.(r)] with root [r]'s values (cells past [n] are left
    untouched).  The streaming (chunked) dataset path calls this once per
    chunk with buffers allocated once per pass, so a million-row fit does
    not churn a fresh result matrix per chunk.  Raises [Invalid_argument]
    unless [out] has one buffer of length >= [n] per root and every
    column the tape reads has length >= [n]. *)

val eval_probe : t -> columns:float array array -> indices:int array -> float array array
(** Evaluate every root at the selected sample indices only — the fused
    behavioral-fingerprint probe.  Entry [(r, j)] equals entry
    [indices.(j)] of the {!eval_columns} row [r] bit for bit.  [indices]
    may be empty, a single index, or contain repeats; an index that is
    negative or past the end of a column the tape reads raises
    [Invalid_argument]. *)
