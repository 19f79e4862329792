(** The CAFFEINE search loop: NSGA-II over (training error, complexity) with
    grammar-respecting initialization and variation.

    Basis-function evaluation goes through the fused batch engine
    ({!Caffeine_expr.Fused}): bases are lowered to a hash-consed kernel tape
    and evaluated column-wise over the whole dataset, and the resulting
    columns are memoized in the dataset keyed by the full structural hash
    ({!Caffeine_expr.Compiled.Key} — not the depth-bounded polymorphic
    [Hashtbl.hash], which collides on deep bases sharing a prefix).  Bases
    shared between individuals, the common case under set crossover, are
    evaluated on the training data only once, and SAG or scoring passes
    that reuse the same dataset reuse the same columns.

    {2 Execution backends}

    Both entry points program against {!Caffeine_par.Executor}: objective
    evaluation inside each generation, and (for {!run_multi}) whole
    restarts as parallel islands.  Passing [?executor] reuses the
    caller's executor (and its pool, if any); otherwise a domain-pool
    executor of [config.Config.jobs] domains is created for the call
    (which degenerates to sequential when [jobs <= 1]).

    Results are {b bit-identical} across both backends and every [jobs]
    setting, including the sequential path: all random-number
    consumption stays on the coordinating domain in a fixed order, and
    only pure per-genome evaluation — or a whole island's deterministic
    loop — is distributed. *)

module Expr = Caffeine_expr.Expr
module Dataset = Caffeine_io.Dataset

type outcome = {
  front : Model.t list;
      (** the nondominated (train error, complexity) models, sorted by
          increasing (complexity, train error) *)
  population_size : int;
  generations_run : int;
}

val run :
  ?seed:int ->
  ?executor:Caffeine_par.Executor.t ->
  ?trace:Caffeine_obs.Trace.sink ->
  ?on_generation:(Caffeine_obs.Trace.generation -> unit) ->
  ?checkpoint_path:string ->
  ?checkpoint_every:int ->
  ?resume:Checkpoint.t ->
  ?eval_cache:Eval_cache.mode ->
  ?eval_cache_limit:int ->
  Config.t ->
  data:Dataset.t ->
  targets:float array ->
  outcome
(** Evolve symbolic models of [targets] as functions of the dataset's
    design variables.  Requires at least 2 samples.  The returned front
    always contains the constant model as its zero-complexity end.
    Progress is logged on the ["caffeine.search"] {!Logs} source at debug
    level.

    [trace] receives a {!Caffeine_obs.Trace.Run_start}, one
    {!Caffeine_obs.Trace.Generation} followed by one
    {!Caffeine_obs.Trace.Op_stats} (per-operator variation success
    tallies) per environmental selection (generation 0 = after
    initialization) and a {!Caffeine_obs.Trace.Run_end}; [on_generation]
    observes the same per-generation records directly.  Every field
    except [wall_s] is deterministic: for a fixed seed the record
    sequence is identical at every jobs setting.  With the default null
    sink and no callback, record construction is skipped entirely.

    [eval_cache] (default {!Eval_cache.Off}) puts a two-level memo in
    front of objective evaluation ({!Eval_cache}): the exact level keys on
    the individual's structural hash and is bit-identical to recomputation
    by construction, so the evolved front is the same with the cache on or
    off at every backend; the behavioral level additionally reuses results
    across structurally different candidates whose compiled probe outputs
    match exactly, and reports the population's distinct-fingerprint count
    in each generation record's [behavioral_diversity] field.  Each island
    owns a private cache instance bounded by [eval_cache_limit] entries
    (default {!Eval_cache.default_limit}).  Caches are rebuildable derived
    state: they never enter checkpoint snapshots, and resumed runs start
    cold.

    Each generation's miss-batch is evaluated through fused
    multi-expression tapes ({!Caffeine_expr.Fused}): the batch is split
    into one chunk per executor job (one chunk on the sequential
    executor), each worker hash-conses its chunk's bases into a shared
    DAG, and subtrees shared across the chunk are evaluated once with
    cache-tiled kernels before the per-genome fits run against the warmed
    column cache.  Warmed columns are bit-identical to lazily computed
    ones, so the evolved front does not depend on chunk boundaries, the
    backend or the cache mode.  When observing, one
    {!Caffeine_obs.Trace.Fused_stats} record per generation reports the
    cross-tree CSE ratio (dropped by the deterministic projection).

    [checkpoint_path] makes the run durable: every [checkpoint_every]
    generations (default 10) and once when the search completes, the full
    run state — population with objectives, generation counter, generator
    words, fingerprint of config/data/targets — is written atomically to
    the path ({!Checkpoint.save}), and a
    {!Caffeine_obs.Trace.Checkpoint_written} record is emitted.  [resume]
    continues from a previously loaded snapshot: the run restarts at the
    checkpointed generation and produces a front {b bit-identical} to the
    uninterrupted run's, at any jobs setting.  Raises [Invalid_argument]
    when the snapshot does not match this run's fingerprint, seed or
    island count, or is in the simplifying phase ({!Sag} progress is
    resumed by the CLI layer, not here). *)

val run_multi :
  ?seed:int ->
  ?executor:Caffeine_par.Executor.t ->
  ?trace:Caffeine_obs.Trace.sink ->
  ?on_generation:(island:int -> Caffeine_obs.Trace.generation -> unit) ->
  ?checkpoint_path:string ->
  ?checkpoint_every:int ->
  ?resume:Checkpoint.t ->
  ?eval_cache:Eval_cache.mode ->
  ?eval_cache_limit:int ->
  restarts:int ->
  Config.t ->
  data:Dataset.t ->
  targets:float array ->
  outcome
(** Independent restarts merged into a single nondominated front — the
    stochastic-search hedge the paper leaves to one run per goal ("the aim
    was proof-of-concept, not efficiency").  Each island's generator is
    split off a master seeded with [seed] ({!Caffeine_util.Rng.split})
    before any work starts, so a run with [restarts = r] executes exactly
    the first [r] islands of any longer run with the same seed, and the
    merged front is identical whether islands run sequentially or across
    pool domains.  The restarts share the dataset's basis-column cache.
    Requires [restarts >= 1].

    With a live [trace], an [on_generation] callback or a
    [checkpoint_path], the islands run back-to-back on the calling domain
    (each still fans its inner evaluation loop over the pool), so the
    generation records of island [k] precede those of island [k+1] at
    every jobs setting and snapshot writes never race — trading
    island-level parallelism for a deterministic record sequence.

    Checkpointing and resuming work as in {!run}; a snapshot holds one
    entry per island (pending, in-progress or finished), so a resumed run
    skips finished islands entirely and re-enters the interrupted one at
    its checkpointed generation. *)

val dedup_and_sort : Model.t list -> Model.t list
(** The exact nondominated subset over (train error, complexity),
    deduplicated on identical objective pairs, sorted by
    (complexity, train error) — a total order on the result, so equal
    inputs in any arrival order produce the same list. *)

val merge_fronts : Model.t list list -> Model.t list
(** [dedup_and_sort] of the concatenation of several fronts. *)
