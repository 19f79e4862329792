(* Per-layer accounting of the traced run, and the traced rebuild of
   [Search.run] from the library's public parts.

   Every span is taken from this file, around a call into a layer's
   public function; nothing inside lib/ is instrumented.  Spans that can
   run on pool domains accumulate in a per-domain record, so no two
   domains ever write the same field, and are summed once the search has
   joined. *)

module Rng = Caffeine_util.Rng
module Expr = Caffeine_expr.Expr
module Compiled = Caffeine_expr.Compiled
module Dataset = Caffeine_io.Dataset
module Linfit = Caffeine_regress.Linfit
module Nsga2 = Caffeine_evo.Nsga2
module Executor = Caffeine_par.Executor
module Metrics = Caffeine_obs.Metrics
module Config = Caffeine.Config
module Model = Caffeine.Model
module Gen = Caffeine.Gen
module Vary = Caffeine.Vary
module Search = Caffeine.Search

let now () = Int64.to_int (Metrics.now_ns ())
let seconds ns = float_of_int ns *. 1e-9

(* Totals over every traced search, SAG pass and serving replay of one
   run.  Times are in nanoseconds. *)
type t = {
  mutable ota_sample_ns : int;
  mutable vary_ns : int;
  mutable vary_applied : int;
  mutable vary_changed : int;
  mutable nsga2_self_ns : int;
  mutable dot_ns : int;
  mutable dot_calls : int;
  mutable dot_hits : int;
  mutable dot_misses : int;
  mutable columns_ns : int;
  mutable column_hits : int;
  mutable column_misses : int;
  mutable warm_ns : int;
  mutable nodes_in : int;
  mutable nodes_out : int;
  mutable gram_ns : int;
  mutable gram_fits : int;
  mutable fallback_ns : int;
  mutable fallbacks : int;
  mutable sag_select_ns : int;
  mutable forward_rounds : int;
  mutable test_filter_ns : int;
  mutable busy_ns : int;
  mutable capacity_ns : int;  (** jobs × search wall *)
  mutable evals : int;
  mutable dup_evals : int;
  mutable minor_words : float;
  mutable major_collections : int;
  mutable json_decode_ns : int;
  mutable serve_eval_ns : int;
  mutable server_self_ns : int;
  mutable reload_ns : int;
  mutable reloads : int;
}

let create () =
  {
    ota_sample_ns = 0;
    vary_ns = 0;
    vary_applied = 0;
    vary_changed = 0;
    nsga2_self_ns = 0;
    dot_ns = 0;
    dot_calls = 0;
    dot_hits = 0;
    dot_misses = 0;
    columns_ns = 0;
    column_hits = 0;
    column_misses = 0;
    warm_ns = 0;
    nodes_in = 0;
    nodes_out = 0;
    gram_ns = 0;
    gram_fits = 0;
    fallback_ns = 0;
    fallbacks = 0;
    sag_select_ns = 0;
    forward_rounds = 0;
    test_filter_ns = 0;
    busy_ns = 0;
    capacity_ns = 0;
    evals = 0;
    dup_evals = 0;
    minor_words = 0.;
    major_collections = 0;
    json_decode_ns = 0;
    serve_eval_ns = 0;
    server_self_ns = 0;
    reload_ns = 0;
    reloads = 0;
  }

let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den

(* The per-layer metrics, by the names BENCHMARK.json lists.  The tracing
   overhead is added by the caller, which owns both wall times. *)
let metrics t =
  [
    ("ota.sample_s", seconds t.ota_sample_ns, "s");
    ("vary.busy_s", seconds t.vary_ns, "s");
    ("vary.changed_ratio", ratio t.vary_changed t.vary_applied, "share");
    ("nsga2.self_s", seconds t.nsga2_self_ns, "s");
    ("dataset.dot_s", seconds t.dot_ns, "s");
    ("dataset.dot_calls", float_of_int t.dot_calls, "count");
    ("dataset.dot_hit_ratio", ratio t.dot_hits (t.dot_hits + t.dot_misses), "share");
    ("dataset.columns_s", seconds t.columns_ns, "s");
    ("dataset.column_hit_ratio", ratio t.column_hits (t.column_hits + t.column_misses), "share");
    ("fused.warm_s", seconds t.warm_ns, "s");
    ("fused.cse_ratio", ratio t.nodes_in t.nodes_out, "ratio");
    ("linfit.gram_s", seconds t.gram_ns, "s");
    ("linfit.gram_fits", float_of_int t.gram_fits, "count");
    ("linfit.fallback_s", seconds t.fallback_ns, "s");
    ("linfit.fallback_ratio", ratio t.fallbacks t.gram_fits, "share");
    ("sag.select_s", seconds t.sag_select_ns, "s");
    ("linfit.forward_rounds", float_of_int t.forward_rounds, "count");
    ("sag.test_filter_s", seconds t.test_filter_ns, "s");
    ("executor.busy_ratio", ratio t.busy_ns t.capacity_ns, "share");
    ("search.dup_eval_ratio", ratio t.dup_evals t.evals, "share");
    ("gc.minor_mwords", t.minor_words /. 1e6, "Mwords");
    ("gc.major_collections", float_of_int t.major_collections, "count");
    ("json.decode_s", seconds t.json_decode_ns, "s");
    ("fused.serve_eval_s", seconds t.serve_eval_ns, "s");
    ("server.self_s", seconds (Stdlib.max 0 t.server_self_ns), "s");
    ("registry.reload_s", seconds t.reload_ns, "s");
    ("registry.reloads", float_of_int t.reloads, "count");
  ]

let counter name = Metrics.counter_value (Metrics.counter Metrics.default name)

(* Run [f] and add the change of the named [Metrics.default] counter. *)
let counting name f =
  let before = counter name in
  let result = f () in
  (result, counter name - before)

let gc_around t f =
  let before = Gc.quick_stat () in
  let result = f () in
  let after = Gc.quick_stat () in
  t.minor_words <- t.minor_words +. (after.Gc.minor_words -. before.Gc.minor_words);
  t.major_collections <-
    t.major_collections + (after.Gc.major_collections - before.Gc.major_collections);
  result

(* {2 Per-domain span records} *)

type domain_acc = {
  mutable d_columns_ns : int;
  mutable d_dot_ns : int;
  mutable d_dot_calls : int;
  mutable d_gram_ns : int;
  mutable d_fallback_ns : int;
  mutable d_warm_ns : int;
  mutable d_vary_ns : int;
  mutable d_nodes_in : int;
  mutable d_nodes_out : int;
  mutable d_busy_ns : int;  (** time inside callbacks on this domain *)
  mutable d_spans : (int * int) list;  (** callback intervals, for NSGA-II self time *)
  mutable d_genomes : Vary.individual list;  (** every evaluated genome *)
}

let fresh_acc () =
  {
    d_columns_ns = 0;
    d_dot_ns = 0;
    d_dot_calls = 0;
    d_gram_ns = 0;
    d_fallback_ns = 0;
    d_warm_ns = 0;
    d_vary_ns = 0;
    d_nodes_in = 0;
    d_nodes_out = 0;
    d_busy_ns = 0;
    d_spans = [];
    d_genomes = [];
  }

let accs = ref []
let accs_lock = Mutex.create ()

let acc_key =
  Domain.DLS.new_key (fun () ->
      let a = fresh_acc () in
      Mutex.protect accs_lock (fun () -> accs := a :: !accs);
      a)

(* Pool domains outlive a search, so their records are zeroed in place
   between searches; they are idle whenever this runs. *)
let reset_accs () =
  Mutex.protect accs_lock (fun () ->
      List.iter
        (fun a ->
          a.d_columns_ns <- 0;
          a.d_dot_ns <- 0;
          a.d_dot_calls <- 0;
          a.d_gram_ns <- 0;
          a.d_fallback_ns <- 0;
          a.d_warm_ns <- 0;
          a.d_vary_ns <- 0;
          a.d_nodes_in <- 0;
          a.d_nodes_out <- 0;
          a.d_busy_ns <- 0;
          a.d_spans <- [];
          a.d_genomes <- [])
        !accs)

(* Evaluations of a genome structurally equal to one evaluated earlier in
   the same search: the count is order-independent (total − distinct). *)
module Genome_tbl = Hashtbl.Make (struct
  type t = Vary.individual

  let equal = Vary.equal_individual
  let hash g = Array.fold_left (fun h b -> (h * 31) + Compiled.Key.hash b) 17 g
end)

let duplicates genomes =
  let seen = Genome_tbl.create 4096 in
  List.fold_left
    (fun dups g ->
      if Genome_tbl.mem seen g then dups + 1
      else begin
        Genome_tbl.add seen g ();
        dups
      end)
    0 genomes

(* {2 The traced search} *)

(* [Search.run]'s objective, rebuilt from [Model.basis_columns] and
   [Linfit.fit_gram] with the dot-product closures timed, and the
   acceptance test of [Model.fit]: an invalid or singular fit scores
   (infinity, complexity). *)
let traced_objectives ~wb ~wvc ~data ~targets (bases : Vary.individual) =
  let a = Domain.DLS.get acc_key in
  let start = now () in
  let invalid () = [| Float.infinity; Model.complexity_of ~wb ~wvc bases |] in
  let c0 = now () in
  let columns = Model.basis_columns bases data in
  a.d_columns_ns <- a.d_columns_ns + (now () - c0);
  let result =
    match columns with
    | None -> invalid ()
    | Some columns -> (
        let inner = ref 0 in
        let timed f =
          let s = now () in
          let v = f () in
          inner := !inner + (now () - s);
          a.d_dot_calls <- a.d_dot_calls + 1;
          v
        in
        let dot i j = timed (fun () -> Dataset.dot data bases.(i) bases.(j)) in
        let dot_y i = timed (fun () -> Dataset.dot_target data bases.(i) ~targets) in
        let col_sum i = timed (fun () -> Dataset.column_sum data bases.(i)) in
        let fallbacks_before = counter "linfit.gram_fallbacks" in
        let f0 = now () in
        let fitted =
          match Linfit.fit_gram ~dot ~dot_y ~col_sum ~basis_values:columns ~targets with
          | fitted -> Some fitted
          | exception Caffeine_linalg.Decomp.Singular -> None
        in
        let self = now () - f0 - !inner in
        a.d_dot_ns <- a.d_dot_ns + !inner;
        (* Under domains another domain's fallback can move the shared
           counter during this call; the split of time between the Gram
           and fallback paths is then approximate, the counts are not. *)
        if counter "linfit.gram_fallbacks" <> fallbacks_before then
          a.d_fallback_ns <- a.d_fallback_ns + self
        else a.d_gram_ns <- a.d_gram_ns + self;
        match fitted with
        | Some f
          when Float.is_finite f.Linfit.train_error
               && Float.is_finite f.Linfit.intercept
               && Caffeine_util.Stats.is_finite_array f.Linfit.weights ->
            [| f.Linfit.train_error; Model.complexity_of ~wb ~wvc bases |]
        | _ -> invalid ())
  in
  let stop = now () in
  a.d_busy_ns <- a.d_busy_ns + (stop - start);
  a.d_spans <- (start, stop) :: a.d_spans;
  a.d_genomes <- bases :: a.d_genomes;
  result

let traced_prepare ~data (chunk : Vary.individual array) =
  let a = Domain.DLS.get acc_key in
  let start = now () in
  let stats = Dataset.warm_columns data (Array.concat (Array.to_list chunk)) in
  let stop = now () in
  a.d_warm_ns <- a.d_warm_ns + (stop - start);
  a.d_nodes_in <- a.d_nodes_in + stats.Dataset.nodes_in;
  a.d_nodes_out <- a.d_nodes_out + stats.Dataset.nodes_out;
  a.d_busy_ns <- a.d_busy_ns + (stop - start);
  a.d_spans <- (start, stop) :: a.d_spans

(* Initialization and variation, which [Nsga2.run] calls on the calling
   domain. *)
let traced_vary f =
  let a = Domain.DLS.get acc_key in
  let start = now () in
  let result = f () in
  let stop = now () in
  a.d_vary_ns <- a.d_vary_ns + (stop - start);
  a.d_busy_ns <- a.d_busy_ns + (stop - start);
  a.d_spans <- (start, stop) :: a.d_spans;
  result

(* [Search.run ~seed ~executor config ~data ~targets] (fuse on, no eval
   cache) rebuilt from [Nsga2.run] and the public layer functions, with
   every layer timed.  Returns the same front, bit for bit — the caller
   checks that. *)
let search t ~executor ~seed config ~data ~targets =
  let dims = Dataset.dims data in
  let wb = config.Config.wb and wvc = config.Config.wvc in
  let stats = Vary.fresh_stats () in
  reset_accs ();
  let gram_fits_before = counter "linfit.gram_fits" in
  let fallbacks_before = counter "linfit.gram_fallbacks" in
  let before = Dataset.stats data in
  let start = now () in
  let population =
    Nsga2.run ~executor
      ~prepare:(traced_prepare ~data)
      ~rng:(Rng.create ~seed ())
      {
        Nsga2.pop_size = config.Config.pop_size;
        generations = config.Config.generations;
        init = (fun rng -> traced_vary (fun () -> Gen.random_individual rng config ~dims));
        objectives = traced_objectives ~wb ~wvc ~data ~targets;
        vary = (fun rng p1 p2 -> traced_vary (fun () -> Vary.vary ~stats rng config ~dims p1 p2));
      }
  in
  let stop = now () in
  let all = Mutex.protect accs_lock (fun () -> !accs) in
  let spans = List.concat_map (fun a -> a.d_spans) all in
  let self = Util.self_time ~start ~stop spans in
  let sum f = List.fold_left (fun s a -> s + f a) 0 all in
  t.nsga2_self_ns <- t.nsga2_self_ns + self;
  t.busy_ns <- t.busy_ns + sum (fun a -> a.d_busy_ns) + self;
  t.capacity_ns <- t.capacity_ns + (Executor.jobs executor * (stop - start));
  t.vary_ns <- t.vary_ns + sum (fun a -> a.d_vary_ns);
  t.vary_applied <- t.vary_applied + Array.fold_left ( + ) 0 stats.Vary.op_counts;
  t.vary_changed <- t.vary_changed + Array.fold_left ( + ) 0 stats.Vary.op_changed;
  t.columns_ns <- t.columns_ns + sum (fun a -> a.d_columns_ns);
  t.dot_ns <- t.dot_ns + sum (fun a -> a.d_dot_ns);
  t.dot_calls <- t.dot_calls + sum (fun a -> a.d_dot_calls);
  t.gram_ns <- t.gram_ns + sum (fun a -> a.d_gram_ns);
  t.fallback_ns <- t.fallback_ns + sum (fun a -> a.d_fallback_ns);
  t.warm_ns <- t.warm_ns + sum (fun a -> a.d_warm_ns);
  t.nodes_in <- t.nodes_in + sum (fun a -> a.d_nodes_in);
  t.nodes_out <- t.nodes_out + sum (fun a -> a.d_nodes_out);
  t.gram_fits <- t.gram_fits + (counter "linfit.gram_fits" - gram_fits_before);
  t.fallbacks <- t.fallbacks + (counter "linfit.gram_fallbacks" - fallbacks_before);
  let genomes = List.concat_map (fun a -> a.d_genomes) all in
  t.evals <- t.evals + List.length genomes;
  t.dup_evals <- t.dup_evals + duplicates genomes;
  let after = Dataset.stats data in
  t.dot_hits <- t.dot_hits + (after.Dataset.dot_hits - before.Dataset.dot_hits);
  t.dot_misses <- t.dot_misses + (after.Dataset.dot_misses - before.Dataset.dot_misses);
  t.column_hits <- t.column_hits + (after.Dataset.column_hits - before.Dataset.column_hits);
  t.column_misses <- t.column_misses + (after.Dataset.column_misses - before.Dataset.column_misses);
  reset_accs ();
  (* Front extraction exactly as [Search.run]: refit the rank-0 genomes,
     add the constant model, keep the exact nondominated set. *)
  let candidates =
    Array.to_list (Nsga2.pareto_front population)
    |> List.filter_map (fun (ind : Vary.individual Nsga2.individual) ->
           Model.fit ~wb ~wvc ind.Nsga2.genome ~data ~targets)
  in
  let fitted = Linfit.fit_constant ~targets in
  let constant =
    {
      Model.bases = [||];
      intercept = fitted.Linfit.intercept;
      weights = [||];
      train_error = fitted.Linfit.train_error;
      complexity = 0.;
    }
  in
  Search.dedup_and_sort (constant :: candidates)
