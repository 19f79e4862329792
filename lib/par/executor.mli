(** The execution backend seam: one value that says {e how} the search
    runs, threaded through every layer that used to take a raw [?pool].

    An executor is built from a backend choice and carries the runtime
    it needs:

    - {!Seq} — everything on the calling domain; no domains.  The
      reference semantics the other backend must reproduce bit-for-bit.
    - {!Domains} — a shared {!Pool.t} of worker domains; data-parallel
      maps (objective evaluation, PRESS candidate scoring) fan out across
      it.  Bound by OCaml 5's cross-domain GC coupling: all domains join
      every minor collection, so it only pays off when the work between
      synchronizations is large.

    Executors are cheap immutable handles; the only resource they may own
    is the domain pool, released by {!shutdown} / {!with_executor}.
    Nested use is safe everywhere: a {!map} issued from inside another
    {!map} degrades to [Array.map] on the calling domain, never to
    deadlock. *)

type backend =
  | Seq
  | Domains

val backend_name : backend -> string
(** ["seq"] or ["domains"] — the [--backend] CLI spelling. *)

val backend_of_string : string -> (backend, string) result
(** Inverse of {!backend_name}; the error lists the valid spellings. *)

type t

val sequential : t
(** The {!Seq} executor: [map] is [Array.map], no resources owned. *)

val create : ?jobs:int -> backend -> t
(** Build an executor.

    For {!Domains}, [jobs] (default auto, clamped by
    {!Pool.effective_jobs}) sets the pool size; an effective size of 1
    spawns no domains.  For {!Seq} it is ignored.  Executors that spawned
    a pool must be released with {!shutdown} (or use {!with_executor}). *)

val of_pool : Pool.t -> t
(** A {!Domains} executor borrowing the caller's pool.  The caller keeps
    ownership: {!shutdown} on the result is a no-op. *)

val with_executor : ?jobs:int -> backend -> (t -> 'a) -> 'a
(** [create] scoped with a guaranteed {!shutdown}, including on
    exception. *)

val shutdown : t -> unit
(** Release the executor's owned resources (the domain pool, when it
    spawned one).  Idempotent; borrowed pools are left alone. *)

val jobs : t -> int
(** The pool size for {!Domains}, else 1. *)

val pool : t -> Pool.t option
(** The underlying domain pool, when the backend has one. *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map exec f input] is [Array.map f input], fanned across the domain
    pool when the executor has one ({!Pool.parallel_map} contract: [f]
    domain-safe, element order preserved, first exception re-raised).
    On a {!Seq} executor it runs on the calling domain. *)

val init : t -> int -> (int -> 'a) -> 'a array
(** [init exec n f] is [Array.init n f] under the same contract as
    {!map}. *)
