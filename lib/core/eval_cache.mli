(** Two-level, domain-safe cache in front of NSGA-II objective evaluation.

    Most of a generation's budget is spent re-fitting candidates the search
    has already seen: variation frequently returns a child structurally
    equal to its parent (no-op mutations, depth-bound rejections), and GP
    populations collapse onto few behavioral clusters.  This cache skips
    those duplicate evaluations at two levels:

    - {b L1 (exact)} — bounded, sharded, keyed by the full structural hash
      of the whole individual ({!Caffeine_expr.Compiled.hash_basis} folded
      over the bases, {!Caffeine_expr.Expr.equal_basis} collision checks).
      A hit returns the objectives computed when the structure was first
      fitted, {e bit-identical to recomputation by construction}: the
      objectives are a pure function of (structure, data, targets), so the
      determinism-at-any-backend invariant survives with the cache on.

    - {b L2 (behavioral)} — only in {!Behavioral} mode.  Candidates are
      keyed by the raw IEEE words of their bases' outputs on a fixed,
      RNG-seeded probe subsample of the dataset ({!Caffeine_io.Dataset.probe_many},
      stable under column-cache eviction).  Results are reused across
      {e structurally different} candidates only on exact probe-output
      match, and only the fitted training error crosses over — complexity
      is structural and is recomputed for the candidate at hand.  Quantized
      probe outputs additionally serve as behavioral {!fingerprint}s for
      population {!diversity} accounting (never for reuse).

    Instances are rebuildable state: the search creates one per island per
    run, never serializes one into a checkpoint, and a resumed run simply
    starts cold.  Lookups and stores are sharded behind per-shard mutexes
    (the dataset caches' design), bounded by wholesale per-shard resets.

    Every instance also bumps the process-wide
    {!Caffeine_obs.Metrics.default} counters [eval.cache_hits],
    [eval.cache_misses] and [eval.cache_evictions]. *)

module Expr = Caffeine_expr.Expr
module Dataset = Caffeine_io.Dataset

type mode = Off | Exact | Behavioral

val mode_to_string : mode -> string

val mode_of_string : string -> (mode, string) result
(** Parses ["off"], ["exact"], ["behavioral"] (the [--eval-cache] CLI
    values). *)

type t

val default_limit : int
(** Default bound on cached entries per level (65536). *)

val create :
  ?limit:int ->
  ?probe_size:int ->
  ?probe_seed:int ->
  ?precision:int ->
  mode:mode ->
  wb:float ->
  wvc:float ->
  data:Dataset.t ->
  unit ->
  t
(** [create ~mode ~wb ~wvc ~data ()] builds a cache over [data] with the
    complexity weights the search fits with.  [limit] bounds each level
    (default {!default_limit}); [probe_size] samples (default 16, clamped
    to the dataset) are drawn once from a generator seeded with
    [probe_seed] — independent of the search stream, so every island and
    every resumed run probes the same indices; [precision] is the number
    of decimal digits the diversity fingerprint quantizes to (default 6).
    Raises [Invalid_argument] on a non-positive [limit] or [probe_size]
    or a negative [precision]. *)

val mode : t -> mode

val probe_size : t -> int
(** Number of probe samples actually used ([min probe_size n_samples]). *)

val lookup : t -> Expr.basis array -> float array option
(** Previously computed [[| train_error; complexity |]] for this
    individual, or [None].  Exact hits are bit-identical to recomputation;
    behavioral hits reuse the training error of a probe-identical twin and
    recompute the structural complexity.  Always [None] in {!Off} mode. *)

val store : t -> Expr.basis array -> float array -> unit
(** Record freshly computed objectives (a defensive copy is taken).  In
    {!Behavioral} mode the training error is also indexed by the
    individual's probe signature.  No-op in {!Off} mode. *)

val fingerprint : t -> Expr.basis array -> int64 array
(** The quantized behavioral fingerprint: per-basis probe outputs in basis
    order, rounded to the configured precision, as IEEE words (non-finite
    outputs collapse to canonical constants).  A pure function of
    (individual, data, probe plan) — independent of cache contents and of
    the dataset's column-cache state. *)

val diversity : t -> Expr.basis array array -> int
(** Number of distinct {!fingerprint}s in the population — the
    per-generation behavioral-diversity statistic.  [-1] unless the cache
    is in {!Behavioral} mode. *)

type stats = {
  hits : int;  (** lookups served from either level *)
  misses : int;  (** lookups that fell through to a real evaluation *)
  evictions : int;  (** entries dropped by per-shard overflow resets *)
  l1_hits : int;  (** exact structural hits *)
  l2_hits : int;  (** behavioral (probe-signature) hits *)
  entries : int;  (** entries currently cached across both levels *)
}

val stats : t -> stats
(** Lifetime counters of this instance, for effectiveness reporting. *)

type global_stats = { total_hits : int; total_misses : int; total_evictions : int }

val global_stats : unit -> global_stats
(** Process-wide [eval.cache_*] counter values (all instances of this
    process combined). *)
