(** Column-major sample datasets for batch evaluation.

    The search, SAG pruning, insight queries, CLI and bench all evaluate
    basis functions over the same sample matrices.  This type stores those
    matrices struct-of-arrays (one contiguous column per design variable),
    carries the variable names, and memoizes per-basis value columns keyed
    by the full structural hash ({!Caffeine_expr.Compiled.Key}) — so a
    basis shared between individuals, or revisited by SAG after the
    search, is evaluated on a given dataset exactly once.  Every
    evaluation goes through {!Caffeine_expr.Fused}; a single basis is a
    one-root fused tape.

    Datasets are safe to evaluate from multiple domains concurrently (the
    parallel search evaluates NSGA-II candidates and whole islands against
    one shared dataset): the column cache is sharded behind per-shard
    mutexes and the evaluation scratch buffers are domain-local.  Column
    values are pure functions of (basis, data), so concurrency never
    changes a returned column — a racing duplicate evaluation is only
    wasted work.  The cache is bounded ({!set_cache_limit}); overflowing
    shards are dropped wholesale and simply re-evaluate on the next miss.

    On top of the column cache sits a bounded, sharded dot-product cache
    feeding the incremental regression engine: {!dot} memoizes
    [⟨col_i, col_j⟩] under an unordered structural-hash pair key, and
    {!dot_target} memoizes [⟨col_i, y⟩] per registered target array, so
    the Gram matrix of an individual whose bases recur across the
    population is assembled from cached entries.  Both caches expose
    hit/miss/eviction counters through {!stats}. *)

module Expr = Caffeine_expr.Expr
module Compiled = Caffeine_expr.Compiled
module Fused = Caffeine_expr.Fused

type t

val of_columns : ?var_names:string array -> float array array -> t
(** [of_columns columns] with [columns.(v).(i)] = variable [v] at sample
    [i].  Columns must be non-empty and of equal length; the arrays are
    owned by the dataset afterwards (not copied).  Default names are
    [x0, x1, ...].  Raises [Invalid_argument] on width/name mismatch. *)

val of_rows : ?var_names:string array -> float array array -> t
(** Transpose row-major design points (the DOE / simulator layout) into a
    dataset.  Rows must be non-empty and width-consistent. *)

val of_table : ?exclude:string list -> Csv.table -> t
(** Every CSV column whose name is not excluded becomes a design variable,
    in header order — the direct CSV-to-dataset path used by the CLI.
    Raises [Invalid_argument] on a table with no data rows (header
    only). *)

val chunked_of_columns : ?var_names:string array -> chunk_rows:int -> float array array -> t
(** The same data as {!of_columns}, but served through the chunked
    (streaming) storage path in [chunk_rows]-row slices — an in-memory
    stand-in for a {!Colstore} file, used to pin streaming ≡ dense
    equivalence in tests without touching disk.  All evaluation goes
    through the chunk source: columns are never cached, dots accumulate
    chunk by chunk (bit-identical to the dense sequential products — see
    {!gram}). *)

val of_colstore : ?exclude:string list -> Colstore.t -> t
(** A streaming dataset over an open column store: every store variable
    whose name is not excluded becomes a design variable, in store order.
    The dataset keeps the store handle alive inside its chunk source —
    target columns should be pulled separately with {!Colstore.column}.
    Raises [Invalid_argument] when every column is excluded or the store
    is empty. *)

val n_samples : t -> int
val dims : t -> int
val var_names : t -> string array

val is_chunked : t -> bool
(** Whether this dataset streams from a chunk source (out-of-core path)
    rather than holding resident columns. *)

val chunk_rows : t -> int
(** Rows per chunk of the streaming source; [n_samples] for dense
    storage (one whole-dataset "chunk"). *)

val column : t -> int -> float array
(** The stored column for one variable — shared, do not mutate.  On
    chunked storage the column is materialized fresh on every call
    (checkpoint fingerprints are the intended consumer). *)

val point : t -> int -> float array
(** A fresh row: all variables at one sample. *)

val rows : t -> float array array
(** Fresh row-major copy (for row-oriented consumers, e.g. the posynomial
    baseline).  Raises [Invalid_argument] on chunked storage — an
    out-of-core dataset has no in-memory row matrix. *)

val split : t -> at:int -> t * t
(** Train/test split at a sample index: samples [0..at-1] and [at..n-1],
    each with fresh caches.  Raises [Invalid_argument] unless
    [0 < at < n_samples], or on chunked storage (split the source file
    instead). *)

val eval_column : Expr.basis -> t -> float array
(** Evaluate a basis over every sample (fresh result column, no
    memoization); the tile arena is reused across calls on the same
    dataset and domain. *)

val basis_column : t -> Expr.basis -> float array
(** Memoized: evaluate the basis over the dataset (first time only).
    Subsequent calls with a structurally equal basis return the cached
    column — shared, do not mutate.  Agrees with {!Expr.eval_basis} bit
    for bit (NaN for NaN) on every sample. *)

type fuse_stats = {
  fused_bases : int;  (** distinct bases that had no memoized column *)
  nodes_in : int;  (** DAG nodes before cross-tree sharing *)
  nodes_out : int;  (** distinct DAG nodes actually evaluated *)
}

val warm_columns : t -> Expr.basis array -> fuse_stats
(** [warm_columns data bases] fills the column cache for every basis that
    has no memoized column yet, by hash-consing all of the missing bases
    into one {!Caffeine_expr.Fused} DAG and evaluating shared subtrees
    exactly once with tiled kernels.  Each installed column is
    bit-identical to what {!basis_column} would have computed, so warming
    is purely a throughput optimization: subsequent {!basis_column} /
    {!dot} / {!probe_many} calls return the same IEEE words whether or not a
    batch was warmed (and under the same bounded-shard eviction policy).
    Bumps the [fused.nodes_in] / [fused.nodes_out] counters and the
    [fused.cse_ratio] gauge; the returned stats cover this call only. *)

val probe_many : t -> Expr.basis array -> indices:int array -> float array array
(** [probe_many data bases ~indices] is every basis's value at the
    selected sample indices — the raw material of behavioral
    fingerprints — through one fused DAG, so probing an individual
    evaluates subtrees shared between its bases once.  Row [k], entry [j]
    equals [(basis_column data bases.(k)).(indices.(j))] bit for bit, in
    every cache state ({!clear_cache} mid-run included) and on either
    storage kind.  Evaluates at the probe indices only and never fills
    the column cache.  Raises [Invalid_argument] on an index outside
    [0, n_samples). *)

val dot : t -> Expr.basis -> Expr.basis -> float
(** [dot data b1 b2] is the dot product of the two bases' value columns
    over every sample, memoized under an unordered pair key:
    [dot data a b] and [dot data b a] share one cache entry.  Agrees with
    computing the product from {!basis_column} directly. *)

val dot_target : t -> Expr.basis -> targets:float array -> float
(** [dot_target data basis ~targets] is [⟨basis column, targets⟩],
    memoized per (basis, target array).  Target arrays are identified
    physically ([==]) in a small registry — pass the same array across
    calls, as the search loop does; a fresh array per call would grow the
    registry without reuse.  Raises [Invalid_argument] when [targets]
    does not have one entry per sample. *)

val column_sum : t -> Expr.basis -> float
(** [Σ_i col.(i)] of the basis column — the border row of the regression
    engine's Gram matrix ([⟨col, 1⟩], cached like any target product). *)

type gram = {
  dots : float array array;  (** [k x k] symmetric: [⟨colᵢ, colⱼ⟩] *)
  dot_ys : float array;  (** [⟨colᵢ, y⟩] *)
  col_sums : float array;  (** [⟨colᵢ, 1⟩] *)
  finite_bases : bool array;  (** whether column [i] is finite everywhere *)
}

val gram : t -> Expr.basis array -> targets:float array -> gram
(** Every product {!Caffeine_regress.Linfit.fit_gram} needs for one
    individual, in one batch.  On chunked storage this is the streaming
    workhorse: entries already memoized in the dot cache are reused
    without touching the data; the remaining entries are accumulated by
    {!Caffeine_regress.Gram_stream} in a single pass over the chunks
    (each scalar carried across chunk boundaries in row order, hence
    bit-identical to the dense sequential products), then installed into
    the caches.  Per-basis finiteness is screened in the same pass and
    cached separately, so a fully-warm cache means no data pass at all.
    On dense storage the entries come from {!dot} / {!dot_target} /
    {!column_sum} directly.  Raises [Invalid_argument] when [targets]
    does not have one entry per sample. *)

val iter_basis_chunks :
  t ->
  Expr.basis array ->
  f:(row0:int -> len:int -> float array array -> unit) ->
  unit
(** Visit the bases' value columns as row chunks in order — the
    [iter] argument of {!Caffeine_regress.Linfit.fit_stream}.
    [columns.(j)] holds basis [j]'s values for rows [row0 .. row0+len-1]
    in its first [len] cells; buffers are only valid during the callback.
    Chunked storage evaluates all bases through one fused tape per chunk
    (never materializing a full column); dense storage makes a single
    whole-dataset call from memoized columns.  Raises [Invalid_argument]
    on an empty basis array. *)

val cached_columns : t -> int
(** Number of distinct bases memoized so far (cache introspection). *)

type cache_stats = {
  columns_cached : int;  (** basis columns currently memoized *)
  column_hits : int;
  column_misses : int;
  column_evictions : int;  (** entries dropped by shard overflow *)
  dots_cached : int;  (** pair + target products currently memoized *)
  dot_hits : int;
  dot_misses : int;
  dot_evictions : int;
}

val stats : t -> cache_stats
(** Lifetime counters of both caches (since creation or the last process
    start — {!clear_cache} drops entries but keeps counters), for cache
    effectiveness reporting ([fit --verbose], perf PRs). *)

val publish_metrics : t -> unit
(** Snapshot {!stats} into the {!Caffeine_obs.Metrics.default} registry as
    gauges [dataset.columns_cached], [dataset.column_hits],
    [dataset.column_misses], [dataset.column_evictions],
    [dataset.dots_cached], [dataset.dot_hits], [dataset.dot_misses] and
    [dataset.dot_evictions] (each call overwrites the previous snapshot).
    The values depend on evaluation-order races between pool domains, so
    they are reporting data, not part of the determinism contract. *)

val clear_cache : t -> unit
(** Drop every memoized column and dot product.  Useful between
    independent experiments on one dataset (e.g. benchmark repetitions)
    and after a long run whose cache is no longer worth its memory. *)

val cache_limit : t -> int
(** Current bound on the number of memoized columns (default 32768). *)

val set_cache_limit : t -> int -> unit
(** Cap the memo table at [limit] columns (must be positive).  The cache
    grows per-basis across generations and restarts; with parallel islands
    multiplying the churn this bound keeps memory flat.  Exceeding shards
    are reset; subsequent lookups re-evaluate and re-fill. *)

val dot_cache_limit : t -> int
(** Current bound on the number of memoized dot products (default
    131072 — products are single floats, far cheaper than columns). *)

val set_dot_cache_limit : t -> int -> unit
(** Cap the dot-product cache at [limit] entries (must be positive), with
    the same wholesale per-shard eviction policy as the column cache. *)
