module Rng = Caffeine_util.Rng
module Stats = Caffeine_util.Stats
module Expr = Caffeine_expr.Expr
module Dataset = Caffeine_io.Dataset
module Linfit = Caffeine_regress.Linfit
module Nsga2 = Caffeine_evo.Nsga2
module Executor = Caffeine_par.Executor
module Metrics = Caffeine_obs.Metrics
module Trace = Caffeine_obs.Trace

type outcome = {
  front : Model.t list;
  population_size : int;
  generations_run : int;
}

let log_src = Logs.Src.create "caffeine.search" ~doc:"CAFFEINE evolutionary search"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* Per-basis evaluation columns and their pairwise dot products are
   memoized inside the dataset, keyed by the full structural hash
   (Compiled.Key) — weights included: a mutated weight is a different
   column.  Bases shared between individuals (the common case under set
   crossover) are evaluated and Gram-assembled once.  The dataset caches
   and scratch buffers are domain-safe, so the same closure serves the
   parallel evaluation paths unchanged. *)

let fit_cached ~wb ~wvc bases ~data ~targets = Model.fit ~wb ~wvc bases ~data ~targets

let validate_data ~data ~targets =
  let n = Dataset.n_samples data in
  if n < 2 then invalid_arg "Search.run: need at least 2 samples";
  if Array.length targets <> n then invalid_arg "Search.run: data/targets length mismatch";
  Dataset.dims data

(* Exact nondominated filter over (train error, complexity), deduplicated
   on identical objective pairs (keep the first), sorted by (complexity,
   train error) — a total order on the deduplicated front, so merged
   parallel-island fronts serialize identically however they arrive. *)
let dedup_and_sort models =
  let dominated (a : Model.t) (b : Model.t) =
    (* b dominates a *)
    b.Model.train_error <= a.Model.train_error
    && b.Model.complexity <= a.Model.complexity
    && (b.Model.train_error < a.Model.train_error || b.Model.complexity < a.Model.complexity)
  in
  let nondominated =
    List.filter (fun m -> not (List.exists (fun other -> dominated m other) models)) models
  in
  let deduped =
    List.fold_left
      (fun acc (m : Model.t) ->
        if
          List.exists
            (fun (kept : Model.t) ->
              kept.Model.train_error = m.Model.train_error
              && kept.Model.complexity = m.Model.complexity)
            acc
        then acc
        else m :: acc)
      [] nondominated
    |> List.rev
  in
  List.sort
    (fun (a : Model.t) b ->
      compare
        (a.Model.complexity, a.Model.train_error)
        (b.Model.complexity, b.Model.train_error))
    deduped

(* Run [f] with the executor the caller supplied, or a fresh domain-pool
   executor of [config.jobs] domains (which degrades to sequential when
   the effective jobs count is 1). *)
let with_search_executor ?executor config f =
  match executor with
  | Some executor -> f executor
  | None -> Executor.with_executor ~jobs:config.Config.jobs Executor.Domains f

let run_with_rng ~rng ?(executor = Executor.sequential) ?(trace = Trace.null) ?on_generation
    ?start ?on_checkpoint ?(eval_cache = Eval_cache.Off)
    ?(eval_cache_limit = Eval_cache.default_limit) config ~data ~targets =
  let dims = validate_data ~data ~targets in
  let wb = config.Config.wb and wvc = config.Config.wvc in
  let objectives individual =
    match fit_cached ~wb ~wvc individual ~data ~targets with
    | Some model -> [| model.Model.train_error; model.Model.complexity |]
    | None -> [| Float.infinity; Model.complexity_of ~wb ~wvc individual |]
  in
  (* One cache per run_with_rng call, so every island owns a private
     instance.  The cache is rebuildable derived state: it never enters
     checkpoint snapshots, and resumed runs simply start cold. *)
  let eval_cache =
    match eval_cache with
    | Eval_cache.Off -> None
    | mode -> Some (Eval_cache.create ~limit:eval_cache_limit ~mode ~wb ~wvc ~data ())
  in
  let nsga_cache =
    Option.map
      (fun c -> { Nsga2.lookup = Eval_cache.lookup c; store = Eval_cache.store c })
      eval_cache
  in
  (* Fused warming: before a chunk of genomes is evaluated, all of their
     bases are hash-consed into one Fused DAG and the missing columns are
     computed together (shared subtrees once), so the per-genome fits that
     follow hit the column cache.  Purely a throughput hint — warmed
     columns are bit-identical to lazily computed ones — so fronts do not
     depend on chunk boundaries or cache state.  The accumulators are
     atomics because [prepare] runs on pool domains; totals are drained
     per generation into a Fused_stats trace record (dropped by the
     deterministic projection, like the other effectiveness reports). *)
  let fused_batches = Atomic.make 0
  and fused_nodes_in = Atomic.make 0
  and fused_nodes_out = Atomic.make 0 in
  let prepare (chunk : Vary.individual array) =
    let stats = Dataset.warm_columns data (Array.concat (Array.to_list chunk)) in
    if stats.Dataset.fused_bases > 0 then begin
      Atomic.incr fused_batches;
      ignore (Atomic.fetch_and_add fused_nodes_in stats.Dataset.nodes_in);
      ignore (Atomic.fetch_and_add fused_nodes_out stats.Dataset.nodes_out)
    end
  in
  (* Record construction (objective sorts, variation tallies) happens only
     when someone listens — with the null sink and no callback a traced
     build costs one branch per generation. *)
  let observing = (not (Trace.is_null trace)) || Option.is_some on_generation in
  let vary_stats = Vary.fresh_stats () in
  let last_ns = ref (Metrics.now_ns ()) in
  let notify gen population =
    let best_error =
      Array.fold_left
        (fun acc (ind : Vary.individual Nsga2.individual) -> Float.min acc ind.Nsga2.objectives.(0))
        Float.infinity population
    in
    let front_size = Array.length (Nsga2.pareto_front population) in
    Log.debug (fun m ->
        m "generation %d: best train error %.4f, front size %d" gen best_error front_size);
    if observing then begin
      let stop_ns = Metrics.now_ns () in
      let wall_s = Int64.to_float (Int64.sub stop_ns !last_ns) /. 1e9 in
      last_ns := stop_ns;
      let errors =
        Array.map (fun (ind : Vary.individual Nsga2.individual) -> ind.Nsga2.objectives.(0)) population
      in
      let complexities =
        Array.map (fun (ind : Vary.individual Nsga2.individual) -> ind.Nsga2.objectives.(1)) population
      in
      let record =
        {
          Trace.gen;
          evals = config.Config.pop_size;
          front_size;
          best_nmse = best_error;
          median_nmse = Stats.median errors;
          complexity_min = Stats.min_value complexities;
          complexity_median = Stats.median complexities;
          complexity_max = Stats.max_value complexities;
          crossovers = vary_stats.Vary.crossovers;
          op_counts = Array.copy vary_stats.Vary.op_counts;
          depth_rejects = vary_stats.Vary.depth_rejects;
          behavioral_diversity =
            (match eval_cache with
            | Some cache ->
                Eval_cache.diversity cache
                  (Array.map
                     (fun (ind : Vary.individual Nsga2.individual) -> ind.Nsga2.genome)
                     population)
            | None -> -1);
          wall_s;
        }
      in
      let op_record : Trace.op_stats =
        {
          gen;
          applied = Array.copy vary_stats.Vary.op_counts;
          changed = Array.copy vary_stats.Vary.op_changed;
        }
      in
      Vary.reset_stats vary_stats;
      let fused_record : Trace.fused_stats =
        {
          gen;
          batches = Atomic.exchange fused_batches 0;
          nodes_in = Atomic.exchange fused_nodes_in 0;
          nodes_out = Atomic.exchange fused_nodes_out 0;
        }
      in
      if not (Trace.is_null trace) then begin
        Trace.emit trace (Trace.Generation record);
        Trace.emit trace (Trace.Op_stats op_record);
        Trace.emit trace (Trace.Fused_stats fused_record)
      end;
      match on_generation with None -> () | Some f -> f record
    end;
    (* Checkpoint capture runs after the generation record so a traced,
       checkpointed run interleaves them in (Generation, Checkpoint_written)
       order.  Capturing here — right after environmental selection, before
       the next tournament draw — consumes no randomness, so the generator
       state the callback snapshots is exactly what generation [gen + 1]
       needs. *)
    match on_checkpoint with None -> () | Some f -> f gen population
  in
  let population =
    Nsga2.run ~on_generation:notify ~executor ?start ?cache:nsga_cache ~prepare ~rng
      {
        Nsga2.pop_size = config.Config.pop_size;
        generations = config.Config.generations;
        init = (fun rng -> Gen.random_individual rng config ~dims);
        objectives;
        vary = (fun rng p1 p2 -> Vary.vary ~stats:vary_stats rng config ~dims p1 p2);
      }
  in
  (* Refit the rank-0 genomes into models, always include the constant
     model, and keep an exact nondominated set sorted by complexity. *)
  let front_genomes = Nsga2.pareto_front population in
  let candidate_models =
    Array.to_list front_genomes
    |> List.filter_map (fun (ind : Vary.individual Nsga2.individual) ->
           fit_cached ~wb ~wvc ind.Nsga2.genome ~data ~targets)
  in
  let constant =
    let fitted = Linfit.fit_constant ~targets in
    {
      Model.bases = [||];
      intercept = fitted.Linfit.intercept;
      weights = [||];
      train_error = fitted.Linfit.train_error;
      complexity = 0.;
    }
  in
  {
    front = dedup_and_sort (constant :: candidate_models);
    population_size = config.Config.pop_size;
    generations_run = config.Config.generations;
  }

let emit_run_start trace ~seed config ~data =
  if not (Trace.is_null trace) then
    Trace.emit trace
      (Trace.Run_start
         {
           seed;
           pop_size = config.Config.pop_size;
           generations = config.Config.generations;
           max_bases = config.Config.max_bases;
           samples = Dataset.n_samples data;
           dims = Dataset.dims data;
         })

let emit_run_end trace ~start_ns outcome =
  if not (Trace.is_null trace) then
    Trace.emit trace
      (Trace.Run_end
         {
           front =
             List.map (fun (m : Model.t) -> (m.Model.complexity, m.Model.train_error)) outcome.front;
           total_wall_s =
             Int64.to_float (Int64.sub (Metrics.now_ns ()) start_ns) /. 1e9;
         })

let merge_fronts fronts = dedup_and_sort (List.concat fronts)

(* {2 Checkpointing}

   Both entry points drive the same island loop over a mutable
   [Checkpoint.island array]: each slot advances Pending -> In_progress ->
   Done, and every write serializes the whole array — so a snapshot always
   carries the finished fronts of earlier islands alongside the live one. *)

type checkpoint_ctx = {
  ckpt_path : string;
  ckpt_every : int;
  ckpt_fingerprint : string;
  ckpt_seed : int;
}

let m_resumed = Metrics.counter Metrics.default "checkpoint.resumed"

let save_snapshot ~trace ctx islands ~island ~gen =
  Checkpoint.save ~path:ctx.ckpt_path
    {
      Checkpoint.fingerprint = ctx.ckpt_fingerprint;
      seed = ctx.ckpt_seed;
      restarts = Array.length islands;
      phase = Checkpoint.Evolving islands;
    };
  if not (Trace.is_null trace) then
    Trace.emit trace
      (Trace.Checkpoint_written { path = ctx.ckpt_path; phase = "evolving"; island; gen })

(* Initial island states: fresh generator snapshots, or (validated against
   this run's fingerprint, seed and island count) the snapshot's islands. *)
let resume_islands ?resume ~trace ~fingerprint ~seed ~restarts ~entry fresh_states =
  match resume with
  | None -> Array.map (fun state -> Checkpoint.Pending state) fresh_states
  | Some snapshot -> (
      (match Checkpoint.validate snapshot ~fingerprint ~seed ~restarts with
      | Ok () -> ()
      | Error message -> invalid_arg (entry ^ ": cannot resume: " ^ message));
      match snapshot.Checkpoint.phase with
      | Checkpoint.Simplifying _ ->
          invalid_arg
            (entry ^ ": cannot resume: checkpoint is in the simplifying phase, not the search")
      | Checkpoint.Evolving islands ->
          Metrics.incr m_resumed;
          if not (Trace.is_null trace) then begin
            (* Report the first island with work left: its index and last
               completed generation (-1 when it never started, and for both
               fields when every island already finished). *)
            let island = ref (-1) and gen = ref (-1) in
            (try
               Array.iteri
                 (fun k (state : Checkpoint.island) ->
                   match state with
                   | Checkpoint.Done _ -> ()
                   | Checkpoint.Pending _ ->
                       island := k;
                       raise Exit
                   | Checkpoint.In_progress { gen = g; _ } ->
                       island := k;
                       gen := g;
                       raise Exit)
                 islands
             with Exit -> ());
            Trace.emit trace
              (Trace.Run_resumed { phase = "evolving"; island = !island; gen = !gen })
          end;
          Array.copy islands)

let run_islands ~executor ~trace ?on_generation ?checkpoint ~eval_cache ~eval_cache_limit
    islands config ~data ~targets =
  let generations = config.Config.generations in
  let evolve k rng start =
    let on_checkpoint =
      Option.map
        (fun ctx gen population ->
          if gen > 0 && gen mod ctx.ckpt_every = 0 && gen < generations then begin
            islands.(k) <- Checkpoint.In_progress { gen; rng = Rng.to_state rng; population };
            save_snapshot ~trace ctx islands ~island:k ~gen
          end)
        checkpoint
    in
    let on_generation = Option.map (fun f record -> f ~island:k record) on_generation in
    let outcome =
      (* Each island reuses the shared executor for its inner evaluation
         loop; when the islands themselves are fanned out below, those
         nested calls fall back to sequential evaluation inside the
         island. *)
      run_with_rng ~rng ~executor ~trace ?on_generation ?start ?on_checkpoint ~eval_cache
        ~eval_cache_limit config ~data ~targets
    in
    (match checkpoint with
    | Some ctx ->
        islands.(k) <- Checkpoint.Done outcome.front;
        save_snapshot ~trace ctx islands ~island:k ~gen:generations
    | None -> ());
    outcome.front
  in
  let run_island k =
    match islands.(k) with
    | Checkpoint.Done front -> front
    | Checkpoint.Pending state -> evolve k (Rng.of_state state) None
    | Checkpoint.In_progress { gen; rng; population } ->
        evolve k (Rng.of_state rng) (Some (gen, population))
  in
  let indices = Array.init (Array.length islands) (fun k -> k) in
  (* A live trace, a generation callback or a checkpoint file pins the
     islands to the calling domain, so records arrive in island order and
     snapshot writes never race — the same sequence at every jobs setting
     (the executor still parallelizes each island's inner evaluation
     loop).  Only the unobserved path fans whole islands out. *)
  if
    Array.length islands > 1 && Trace.is_null trace && Option.is_none on_generation
    && Option.is_none checkpoint
  then Executor.map executor run_island indices
  else Array.map run_island indices

let checkpoint_inputs ?checkpoint_path ?resume ~checkpoint_every ~seed ~entry config ~data
    ~targets =
  if checkpoint_every < 1 then invalid_arg (entry ^ ": checkpoint_every must be at least 1");
  let fingerprint =
    if Option.is_some checkpoint_path || Option.is_some resume then
      Checkpoint.fingerprint config ~data ~targets
    else ""
  in
  let checkpoint =
    Option.map
      (fun path ->
        {
          ckpt_path = path;
          ckpt_every = checkpoint_every;
          ckpt_fingerprint = fingerprint;
          ckpt_seed = seed;
        })
      checkpoint_path
  in
  (fingerprint, checkpoint)

let run ?(seed = 17) ?executor ?(trace = Trace.null) ?on_generation ?checkpoint_path
    ?(checkpoint_every = 10) ?resume ?(eval_cache = Eval_cache.Off)
    ?(eval_cache_limit = Eval_cache.default_limit) config ~data ~targets =
  ignore (validate_data ~data ~targets);
  let fingerprint, checkpoint =
    checkpoint_inputs ?checkpoint_path ?resume ~checkpoint_every ~seed ~entry:"Search.run"
      config ~data ~targets
  in
  emit_run_start trace ~seed config ~data;
  let start_ns = Metrics.now_ns () in
  let fresh = [| Rng.to_state (Rng.create ~seed ()) |] in
  let islands =
    resume_islands ?resume ~trace ~fingerprint ~seed ~restarts:1 ~entry:"Search.run" fresh
  in
  let outcome =
    with_search_executor ?executor config @@ fun executor ->
    let on_generation = Option.map (fun f ~island:_ record -> f record) on_generation in
    let fronts =
      run_islands ~executor ~trace ?on_generation ?checkpoint ~eval_cache ~eval_cache_limit
        islands config ~data ~targets
    in
    {
      front = fronts.(0);
      population_size = config.Config.pop_size;
      generations_run = config.Config.generations;
    }
  in
  emit_run_end trace ~start_ns outcome;
  outcome

let run_multi ?(seed = 17) ?executor ?(trace = Trace.null) ?on_generation ?checkpoint_path
    ?(checkpoint_every = 10) ?resume ?(eval_cache = Eval_cache.Off)
    ?(eval_cache_limit = Eval_cache.default_limit) ~restarts config ~data ~targets =
  if restarts < 1 then invalid_arg "Search.run_multi: need at least 1 restart";
  ignore (validate_data ~data ~targets);
  let fingerprint, checkpoint =
    checkpoint_inputs ?checkpoint_path ?resume ~checkpoint_every ~seed
      ~entry:"Search.run_multi" config ~data ~targets
  in
  emit_run_start trace ~seed config ~data;
  let start_ns = Metrics.now_ns () in
  (* Island RNGs are split off the master sequentially before any parallel
     work, so island k sees the same stream whether the islands run
     back-to-back or fanned out across domains — and a [restarts = r] run
     shares its first r islands with any larger run of the same seed. *)
  let master = Rng.create ~seed () in
  let fresh = Array.make restarts (Rng.to_state master) in
  for k = 0 to restarts - 1 do
    fresh.(k) <- Rng.to_state (Rng.split master)
  done;
  let islands =
    resume_islands ?resume ~trace ~fingerprint ~seed ~restarts ~entry:"Search.run_multi" fresh
  in
  with_search_executor ?executor config @@ fun executor ->
  let fronts =
    run_islands ~executor ~trace ?on_generation ?checkpoint ~eval_cache ~eval_cache_limit
      islands config ~data ~targets
  in
  let outcome =
    {
      front = merge_fronts (Array.to_list fronts);
      population_size = config.Config.pop_size;
      generations_run = config.Config.generations * restarts;
    }
  in
  emit_run_end trace ~start_ns outcome;
  outcome
