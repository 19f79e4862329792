(** Durable run state: versioned snapshots of an evolutionary search.

    A long CAFFEINE run (one multi-objective GP run per performance metric,
    islands × generations, then PRESS-guided simplification) must survive
    preemption, crashes and time budgets without losing work {e or
    determinism}.  A snapshot captures everything the search consumes:
    per-island NSGA-II populations (genomes, objectives, rank, crowding),
    the generation counter, the exact xoshiro256** generator words
    ({!Caffeine_util.Rng.state}), SAG phase progress, and a fingerprint of
    the configuration and dataset.  A run killed at any generation and
    resumed from its snapshot produces a {b bit-identical} final front to
    the uninterrupted run, at any [--jobs] setting (see
    {!Search.run}/{!Search.run_multi}).

    {2 Snapshot format}

    A snapshot is a JSONL file (UTF-8, one JSON object per line):

    - a header line carrying [version], [fingerprint], [seed], [restarts]
      and the phase name;
    - in the evolving phase, one [island] line per island, each either
      [pending] (initial generator state only), [in_progress] (generation,
      generator state, full population) or [done] (the island's final
      front);
    - in the simplifying phase, one [sag] line holding the evolved front
      and the prefix of models already simplified.

    Floats are encoded with [%.17g] (exact round-trip; non-finite values
    as JSON strings), generator words as decimal [int64] strings, and
    expressions as a direct tree encoding — not the pretty-printed infix
    of {!Model_io}, which rounds weights.  Snapshots are written to a
    temporary file and renamed into place, so a crash mid-write never
    corrupts the previous snapshot.

    The format is versioned: {!load} rejects snapshots whose [version]
    differs from {!version}, and {!validate} rejects snapshots whose
    fingerprint, seed or island count do not match the resuming run. *)

module Rng = Caffeine_util.Rng
module Nsga2 = Caffeine_evo.Nsga2
module Dataset = Caffeine_io.Dataset

type population = Vary.individual Nsga2.individual array
(** A checkpointed NSGA-II population: genomes with their sanitized
    objectives, rank and crowding, exactly as {!Caffeine_evo.Nsga2.run}
    hands them to [on_generation]. *)

type island =
  | Pending of Rng.state  (** not started; initial generator state *)
  | In_progress of { gen : int; rng : Rng.state; population : population }
      (** [gen] generations completed; [rng] is the generator state
          captured right after generation [gen]'s environmental
          selection *)
  | Done of Model.t list  (** the island's final front *)

type phase =
  | Evolving of island array  (** one entry per island, in island order *)
  | Simplifying of { front : Model.t list; processed : Model.t list }
      (** [front] is the merged evolved front entering SAG; [processed]
          is the prefix of simplified results ([List.length processed]
          models are done) *)

type t = {
  fingerprint : string;  (** {!fingerprint} of config, data and targets *)
  seed : int;
  restarts : int;  (** island count ([1] for {!Search.run}) *)
  phase : phase;
}

val version : int
(** Current snapshot format version. *)

val fingerprint : Config.t -> data:Dataset.t -> targets:float array -> string
(** Digest of every run input that determines the result: all search
    parameters (except [jobs] — parallelism never changes results, and a
    run may legitimately resume at a different [--jobs]), the operator
    set, and the full training data and targets. *)

val phase_name : phase -> string
(** ["evolving"] or ["simplifying"] — the header field and the label used
    in trace records. *)

val validate : t -> fingerprint:string -> seed:int -> restarts:int -> (unit, string) result
(** Check that a loaded snapshot belongs to the run about to resume. *)

val save : path:string -> t -> unit
(** Serialize atomically: write [path ^ ".tmp"], then rename over [path].
    Bumps the [checkpoint.written] counter on the default metrics
    registry. *)

val load : path:string -> (t, string) result
(** Read a snapshot back.  Errors on I/O failure, malformed JSON, or a
    [version] mismatch. *)
