(* The CAFFEINE benchmark: one workload per process.

     perfbench.exe --workload paper-ota|wide-ota|serve-mix --seed N
                   --seconds S --trace 0|1 [--cli PATH] [--commit HASH] [--nproc N]

   With --trace 0 it measures the end-to-end metrics; with --trace 1 it
   runs the same work once untraced and once traced, checks that both
   produce bit-identical fronts and responses, and reports the per-layer
   metrics.  The last line of stdout is the result object.  See
   README.md for why each workload exists. *)

module Ota = Caffeine_ota.Ota
module Executor = Caffeine_par.Executor
module Pool = Caffeine_par.Pool
module Config = Caffeine.Config
module Model = Caffeine.Model

type workload = Paper_ota | Wide_ota | Serve_mix

let workload_name = function
  | Paper_ota -> "paper-ota"
  | Wide_ota -> "wide-ota"
  | Serve_mix -> "serve-mix"

(* Search budgets.  paper-ota and serve-mix use the CLI fit settings
   (Config.paper at the default population of 120); the generation count
   is cut so that one six-performance flow takes seconds.  wide-ota has
   17x the rows, so a smaller population. *)
let pop_size = function Paper_ota | Serve_mix -> 120 | Wide_ota -> 40
let generations = function Paper_ota | Serve_mix -> 30 | Wide_ota -> 12

let performances = function
  | Paper_ota | Wide_ota -> Ota.all_performances
  | Serve_mix -> [ Ota.Pm; Ota.Alf ]

(* Set-up repetitions whose median is setup_s: fewer on wide-ota, where
   one set-up simulates 5120 points.  serve-mix's flow_s and evals_per_s
   come from the fits inside its set-ups. *)
let setup_repeats = function Paper_ota | Serve_mix -> 5 | Wide_ota -> 3

(* The search seeds, fixed like the sample points: the cost of a
   six-performance flow moves by about 10% from one search seed to the
   next, so seeds drawn from the workload seed would make the seed, not
   the code, decide the flow metrics.  A round fits each performance
   with each of these seeds; the fronts that are served come from
   [reference_seed].  The workload seed draws the rows of the served
   requests.  wide-ota's fits are long enough that one seed per round
   leaves time for several rounds. *)
let reference_seed = 1

let search_seeds = function
  | Paper_ota -> [ reference_seed; 2 ]
  | Wide_ota | Serve_mix -> [ reference_seed ]

(* Windows of the traced serve-mix replay, [serve_window] requests each. *)
let traced_windows = 12

(* Scratch files (front files, the server's socket and log), one
   directory per process so that concurrent runs in one checkout do not
   collide. *)
let run_root = ".perfbench-run"
let run_dir = Filename.concat run_root (string_of_int (Unix.getpid ()))

let config w =
  Config.scaled ~pop_size:(pop_size w) ~generations:(generations w) ~jobs:1 Config.paper

let jobs = function Wide_ota -> Pool.effective_jobs 0 | Paper_ota | Serve_mix -> 1

let with_executor w f =
  match w with
  | Wide_ota -> Executor.with_executor ~jobs:(jobs w) Executor.Domains f
  | Paper_ota | Serve_mix -> f Executor.sequential

(* Sample points are fixed per workload, like the paper's DOE. *)
let make_data = function
  | Wide_ota -> Flows.wide_data ~seed:reference_seed
  | Paper_ota | Serve_mix -> Flows.paper_data ()

(* {2 Run envelope} *)

let print_envelope w ~commit ~nproc ~seed ~seconds ~trace =
  let obj fields =
    "{" ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k v) fields) ^ "}"
  in
  let str = Printf.sprintf "%S" and int = string_of_int in
  print_endline
    ("envelope "
    ^ obj
        [
          ("workload", str (workload_name w));
          ("seed", int seed);
          ("seconds", int seconds);
          ("trace", int trace);
          ("nproc", int nproc);
          ("cpus_used", int (Domain.recommended_domain_count ()));
          ("ocaml", str Sys.ocaml_version);
          ("commit", str commit);
          ( "budget",
            obj
              [
                ("pop", int (pop_size w));
                ("gens", int (generations w));
                ("performances", int (List.length (performances w)));
                ("jobs", int (jobs w));
                ("setup_repeats", int (setup_repeats w));
              ] );
        ])

(* {2 Result} *)

let print_result ~correct ~attempted ~failed metrics =
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{" correct attempted
    failed;
  List.iteri
    (fun i (name, value, unit) ->
      if i > 0 then Buffer.add_char b ',';
      if not (Float.is_finite value) then failwith (name ^ " was not measured");
      Printf.bprintf b "%S:{\"value\":%.17g,\"unit\":%S}" name value unit)
    metrics;
  Buffer.add_string b "}}";
  print_endline (Buffer.contents b)

let ms ns = float_of_int ns *. 1e-6

let self_peak_rss_mb () = Serving.vm_hwm_mb "self"

let timed f =
  let start = Layers.now () in
  let result = f () in
  (result, Layers.now () - start)

let median_ns samples = Util.median (Array.of_list (List.map float_of_int samples))

let print_digests label (fits : Flows.fitted list) =
  List.iter
    (fun (f : Flows.fitted) ->
      Printf.printf "front-digest %s %s search=%s sag=%s\n" label
        (Ota.performance_name f.Flows.performance)
        (Util.front_digest f.Flows.raw_front)
        (Util.front_digest f.Flows.front))
    fits

let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)
let test_hv fits = mean (List.map (fun (f : Flows.fitted) -> f.Flows.hv) fits)
let evals w = pop_size w * (generations w + 1)

(* {2 Untraced runs} *)

(* Every run repeats the same work: fits with fixed search seeds, and a
   fixed request sequence replayed.  Repetitions of a fit must give the
   same fronts bit for bit, and every response of every replay is
   checked.  Each unit of work (a set-up, a fit, a replay) runs between
   two samples of the host-speed reference, and every time measured
   inside it is multiplied by the unit's scale (see reference.ml). *)

(* The metrics with every scale set to 1, and each phase's mean scale,
   on a [raw] line before the result. *)
let print_raw metrics phases =
  Printf.printf "raw {%s} %s\n"
    (String.concat ","
       (List.map (fun (name, value, _) -> Printf.sprintf "%S:%.6g" name value) metrics))
    (String.concat " "
       (List.map
          (fun (phase, r) -> Printf.sprintf "%s_scale %.4f" phase (Reference.mean_scale r))
          phases))

let unscaled units = List.map (fun (x, _) -> (x, 1.)) units

(* The latency metrics of replays of [steps], each replay at its own
   scale.  The percentiles are taken per replay and their median over
   the replays is reported, so that a replay the host stalled without
   the reference noticing moves one sample of the median instead of the
   tail of a pooled sample.  Throughput is over every predict of every
   replay. *)
let latency_metrics ~fronts steps (passes : (Serving.pass * float) list) =
  let samples = Serving.samples ~fronts steps in
  let predictions = ref 0 and busy_ms = ref 0. in
  let per_replay ((pass : Serving.pass), scale) =
    let predict = ref [] and reload = ref [] in
    Array.iteri
      (fun i sample ->
        let latency = ms pass.Serving.latency_ns.(i) *. scale in
        match sample with
        | Serving.Timed_predict n ->
            predict := latency :: !predict;
            predictions := !predictions + n;
            busy_ms := !busy_ms +. latency
        | Serving.Reload -> reload := latency :: !reload
        | Serving.Other -> ())
      samples;
    let predict = Array.of_list !predict in
    let p99 =
      match Util.percentile predict 0.99 with
      | Some v -> v
      | None ->
          failwith
            (Printf.sprintf "only %d predict samples in a replay: p99 needs %d beyond it"
               (Array.length predict) Util.min_beyond)
    in
    (Util.median predict, p99, Util.median (Array.of_list !reload))
  in
  let replays = List.map per_replay passes in
  let median f = Util.median (Array.of_list (List.map f replays)) in
  [
    ("predict_p50_ms", median (fun (p50, _, _) -> p50), "ms");
    ("predict_p99_ms", median (fun (_, p99, _) -> p99), "ms");
    ("predictions_per_s", float_of_int !predictions /. (!busy_ms *. 1e-3), "predictions/s");
    ("reload_p50_ms", median (fun (_, _, reload) -> reload), "ms");
  ]

(* The flow metrics of fits repeated in [rounds], each round's fits in
   the same order, each fit with its scale: flow_s is the mean
   six-performance flow (the serve-mix set-ups fit two). *)
let fit_metrics w (rounds : (Flows.fitted * float) list list) =
  let all = List.concat rounds in
  let total f =
    List.fold_left (fun s (x, scale) -> s +. (float_of_int (f x) *. scale)) 0. all *. 1e-9
  in
  let fits = List.length all in
  [
    ( "flow_s",
      total (fun (f : Flows.fitted) -> f.Flows.flow_ns)
      *. float_of_int (List.length (performances w))
      /. float_of_int fits,
      "s" );
    ( "evals_per_s",
      float_of_int (evals w * fits) /. total (fun (f : Flows.fitted) -> f.Flows.search_ns),
      "evaluations/s" );
  ]

(* Fits attempted and failed: a fit fails when its tradeoff is empty or
   non-finite, or when its fronts differ from its first round's. *)
let fit_counts (rounds : Flows.fitted list list) =
  let first = Array.of_list (List.hd rounds) in
  let same (a : Flows.fitted) (b : Flows.fitted) =
    Util.front_digest a.Flows.raw_front = Util.front_digest b.Flows.raw_front
    && Util.front_digest a.Flows.front = Util.front_digest b.Flows.front
  in
  let all = List.concat_map (List.mapi (fun u f -> (u, f))) rounds in
  let ok (u, f) = Flows.fitted_ok f && same f first.(u) in
  (List.length all, List.length (List.filter (fun x -> not (ok x)) all))

let ok_ratio ~attempted ~failed =
  ("ok_ratio", 1. -. (float_of_int failed /. float_of_int attempted), "share")

let pass_counts passes =
  List.fold_left
    (fun (a, f) ((p : Serving.pass), _) -> (a + p.Serving.attempted, f + p.Serving.failed))
    (0, 0) passes

(* Repeat [unit] until [deadline], at least [min] times, and return the
   results in order. *)
let repeat ~min ~deadline unit =
  let rec go acc =
    let result, ns = timed unit in
    let acc = (result, ns) :: acc in
    (* Start another only if a typical one still fits the budget. *)
    let typical = median_ns (List.map snd acc) in
    if List.length acc < min || Layers.now () + int_of_float typical <= deadline then go acc
    else List.rev_map fst acc
  in
  go []

(* Fewest fit rounds and replays of a run, whatever the host's speed:
   enough fits and reference samples for the means, and enough replays
   that the serving metrics rest on seconds of requests.  A flow
   workload's replay is a fraction of a second, a serve-mix one about a
   second. *)
let min_rounds = 2
let min_flow_replays = 20
let min_serve_replays = 8

(* The median set-up time.  A set-up is timed in parts, each part at its
   scale. *)
let setup_metric setups =
  let scaled parts =
    List.fold_left (fun s (ns, scale) -> s +. (float_of_int ns *. scale)) 0. parts
  in
  ("setup_s", Util.median (Array.of_list (List.map scaled setups)) *. 1e-9, "s")

(* The flow workloads serve their six fronts with the serve-mix request
   mix, in-process, switching front every [flow_window] requests.
   Switches come faster than a file's mtime is sure to tick, so each
   front is loaded afresh through [Registry.create] rather than by hot
   reload. *)
let flow_window = 20
let flow_windows = 60

(* serve-mix rewrites its front file every [serve_window] requests, an
   assumed cadence like the request mix itself; one replay is
   [serve_windows] windows. *)
let serve_window = 250
let serve_windows = 8

(* Share of a flow workload's seconds given to replays; fit rounds get
   the rest. *)
let serve_share = 0.35

(* paper-ota / wide-ota: set-ups, a first fit round, in-process replays,
   then more fit rounds.  A round fits every performance with every
   search seed.  The replays serve the first round's [reference_seed]
   fronts through [Server.handle_line], with no executor alive: under
   OCaml 5.1 idle pool domains still join every minor collection.
   Serving right after the first round keeps the heap it runs on the
   same in every run, whatever number of rounds the host's speed
   allows.  test_hv and peak_rss_mb come from the first round too:
   OCaml 5.1 never returns heap to the system, so a later peak would
   depend on how many rounds ran. *)
let flow_untraced w ~seed ~seconds =
  let setup_ref = Reference.create () in
  let setups =
    List.init (setup_repeats w) (fun _ ->
        Reference.around setup_ref (fun () -> timed (fun () -> make_data w)))
  in
  let data = fst (fst (List.hd setups)) in
  let setups = List.map (fun ((_, ns), scale) -> [ (ns, scale) ]) setups in
  let config = config w in
  let test_inputs = data.Flows.test_inputs in
  let start = Layers.now () in
  let fit_ref = Reference.create ~domains:(jobs w) () in
  let round executor =
    List.concat_map
      (fun s ->
        List.map
          (fun p -> Reference.around fit_ref (fun () -> Flows.fit ~executor ~seed:s config data p))
          (performances w))
      (search_seeds w)
  in
  let first_round = with_executor w round in
  let peak_rss = self_peak_rss_mb () in
  let first = List.map fst first_round in
  List.iteri
    (fun i s ->
      print_digests (Printf.sprintf "seed-%d" s)
        (List.filteri (fun j _ -> j / List.length (performances w) = i) first))
    (search_seeds w);
  let fronts =
    Serving.prepare_fronts ~dir:run_dir ~test_inputs
      (List.filteri
         (fun j _ -> j < List.length (performances w))
         (List.map (fun (f : Flows.fitted) -> f.Flows.front) first))
  in
  let session = Serving.per_front ~dir:run_dir ~test_inputs fronts in
  let steps =
    Serving.mix_sequence ~seed ~windows:flow_windows ~window:flow_window
      ~test_rows:(Array.length test_inputs) fronts
  in
  let serve_ref = Reference.create () in
  Gc.full_major ();
  let passes =
    let deadline = Layers.now () + int_of_float (float_of_int seconds *. serve_share *. 1e9) in
    repeat ~min:min_flow_replays ~deadline (fun () ->
        Reference.around serve_ref (fun () -> Serving.drive ~test_inputs ~fronts session steps))
  in
  Reference.restart fit_ref;
  let rounds =
    first_round
    :: with_executor w (fun executor ->
           repeat ~min:(min_rounds - 1)
             ~deadline:(start + (seconds * 1_000_000_000))
             (fun () -> round executor))
  in
  let fits = List.map (List.map fst) rounds in
  Printf.printf "rounds %d, replays %d\n" (List.length rounds) (List.length passes);
  let fit_attempted, fit_failed = fit_counts fits in
  let pass_attempted, pass_failed = pass_counts passes in
  let attempted = fit_attempted + pass_attempted and failed = fit_failed + pass_failed in
  let metrics setups rounds passes =
    (setup_metric setups :: fit_metrics w rounds) @ latency_metrics ~fronts steps passes
  in
  print_raw
    (metrics (List.map unscaled setups) (List.map unscaled rounds) (unscaled passes))
    [ ("setup", setup_ref); ("fit", fit_ref); ("serve", serve_ref) ];
  let scaled = metrics setups rounds passes in
  ( attempted,
    failed,
    List.filteri (fun i _ -> i < 3) scaled
    @ [
        ("test_hv", test_hv first, "unitless");
        ("peak_rss_mb", peak_rss, "MB");
        ok_ratio ~attempted ~failed;
      ]
    @ List.filteri (fun i _ -> i >= 3) scaled )

(* serve-mix set-up: sample, fit the served performances, write the
   last front (a replay starts by rewriting it) and start the server.
   Sampling, each fit and the server start are units of their own;
   writing the front files for the checks is not timed.  Returns the
   timed parts of the set-up, each with its scale. *)
let serve_setup w ~cli ~reference =
  let (data, sample_ns), sample_scale =
    Reference.around reference (fun () -> timed (fun () -> make_data w))
  in
  let fits =
    List.map
      (fun p ->
        Reference.around reference (fun () ->
            timed (fun () ->
                Flows.fit ~executor:Executor.sequential ~seed:reference_seed (config w) data p)))
      (performances w)
  in
  let fronts =
    Serving.prepare_fronts ~dir:run_dir ~test_inputs:data.Flows.test_inputs
      (List.map (fun ((f, _), _) -> f.Flows.front) fits)
  in
  let (child, start_ns), start_scale =
    Reference.around reference (fun () ->
        timed (fun () ->
            Serving.install ~dir:run_dir fronts.(Serving.initial fronts);
            Serving.start_server ~cli ~dir:run_dir))
  in
  let parts =
    ((sample_ns, sample_scale) :: List.map (fun ((_, ns), scale) -> (ns, scale)) fits)
    @ [ (start_ns, start_scale) ]
  in
  (data, List.map (fun ((f, _), scale) -> (f, scale)) fits, fronts, child, parts)

(* serve-mix: replays of one request sequence over the socket until the
   run's seconds are up.  Its flow metrics come from the fits of its
   set-ups, which repeat the same work. *)
let serve_untraced w ~cli ~seed ~seconds =
  let setup_ref = Reference.create () in
  let rec setups k acc =
    if k = 0 then acc
    else begin
      (match acc with (_, _, _, child, _) :: _ -> Serving.stop_server child | [] -> ());
      setups (k - 1) (serve_setup w ~cli ~reference:setup_ref :: acc)
    end
  in
  let all = List.rev (setups (setup_repeats w) []) in
  let _, _, _, child, _ = List.hd (List.rev all) in
  Fun.protect ~finally:(fun () -> Serving.stop_server child) @@ fun () ->
  let data, fits, fronts, _, _ = List.hd all in
  let fits = List.map fst fits in
  print_digests (Printf.sprintf "seed-%d" reference_seed) fits;
  let test_inputs = data.Flows.test_inputs in
  let steps =
    Serving.mix_sequence ~seed ~windows:serve_windows ~window:serve_window
      ~test_rows:(Array.length test_inputs) fronts
  in
  let session = Serving.over_socket ~dir:run_dir ~fronts child in
  let serve_ref = Reference.create () in
  let passes =
    repeat ~min:min_serve_replays
      ~deadline:(Layers.now () + (seconds * 1_000_000_000))
      (fun () ->
        Reference.around serve_ref (fun () -> Serving.drive ~test_inputs ~fronts session steps))
  in
  Printf.printf "replays %d\n" (List.length passes);
  let rss = Serving.vm_hwm_mb (string_of_int child.Serving.pid) in
  let rounds = List.map (fun (_, fits, _, _, _) -> fits) all in
  let setups = List.map (fun (_, _, _, _, parts) -> parts) all in
  let fit_attempted, fit_failed = fit_counts (List.map (List.map fst) rounds) in
  let pass_attempted, pass_failed = pass_counts passes in
  let attempted = fit_attempted + pass_attempted and failed = fit_failed + pass_failed in
  let metrics setups rounds passes =
    (setup_metric setups :: fit_metrics w rounds) @ latency_metrics ~fronts steps passes
  in
  print_raw
    (metrics (List.map unscaled setups) (List.map unscaled rounds) (unscaled passes))
    [ ("setup", setup_ref); ("serve", serve_ref) ];
  let scaled = metrics setups rounds passes in
  ( attempted,
    failed,
    List.filteri (fun i _ -> i < 3) scaled
    @ [
        ("test_hv", test_hv fits, "unitless");
        ("peak_rss_mb", rss, "MB");
        ok_ratio ~attempted ~failed;
      ]
    @ List.filteri (fun i _ -> i >= 3) scaled )

(* {2 Traced runs} *)

(* Fit every performance untraced and traced; the fronts must be
   bit-identical.  The two runs of a performance alternate which goes
   first, so heap growth and cache warm-up do not favour one side of the
   overhead ratio.  Returns the untraced fits, the mismatch count and
   both summed flow times. *)
let fits_twice layers w ~executor ~seed data =
  let config = config w in
  let pairs =
    List.mapi
      (fun i p ->
        let plain () =
          Layers.gc_around layers (fun () -> Flows.fit ~executor ~seed config data p)
        in
        let traced () = Flows.fit_traced layers ~executor ~seed config data p in
        if i mod 2 = 0 then
          let a = plain () in
          (a, traced ())
        else
          let b = traced () in
          (plain (), b))
      (performances w)
  in
  let plain = List.map fst pairs and traced = List.map snd pairs in
  print_digests "untraced" plain;
  print_digests "traced" traced;
  let mismatches =
    List.length
      (List.filter
         (fun ((a : Flows.fitted), (b : Flows.fitted)) ->
           Util.front_digest a.Flows.raw_front <> Util.front_digest b.Flows.raw_front
           || Util.front_digest a.Flows.front <> Util.front_digest b.Flows.front
           || not (Flows.fitted_ok a))
         pairs)
  in
  let total fits = List.fold_left (fun s (f : Flows.fitted) -> s + f.Flows.flow_ns) 0 fits in
  (plain, mismatches, total plain, total traced)

(* Drive [steps] in-process untraced and traced; every response must
   match the reference digests (the untraced pass's by default). *)
let serve_twice layers ~test_inputs ~fronts ~reference ~session ~steps =
  let pass ?layers () =
    timed (fun () -> Serving.drive ~test_inputs ~fronts (session ?layers ()) steps)
  in
  let plain, plain_ns = pass () in
  let traced, traced_ns = pass ~layers () in
  let reference = Option.value reference ~default:plain.Serving.digests in
  let mismatch (t : Serving.pass) = if t.Serving.digests = reference then 0 else 1 in
  let failed = plain.Serving.failed + traced.Serving.failed + mismatch plain + mismatch traced in
  (plain.Serving.attempted + traced.Serving.attempted, failed, plain_ns, traced_ns)

let traced_run w ~cli ~seed =
  let layers = Layers.create () in
  let data, sample_ns = timed (fun () -> make_data w) in
  layers.Layers.ota_sample_ns <- sample_ns;
  with_executor w @@ fun executor ->
  let fits, fit_mismatches, fit_plain_ns, fit_traced_ns =
    fits_twice layers w ~executor ~seed:reference_seed data
  in
  let test_inputs = data.Flows.test_inputs in
  let fronts =
    Serving.prepare_fronts ~dir:run_dir ~test_inputs
      (List.map (fun (f : Flows.fitted) -> f.Flows.front) fits)
  in
  let n_test = Array.length test_inputs in
  let attempted, failed, serve_plain_ns, serve_traced_ns =
    match w with
    | Paper_ota | Wide_ota ->
        serve_twice layers ~test_inputs ~fronts ~reference:None
          ~session:(fun ?layers () -> Serving.per_front ?layers ~dir:run_dir ~test_inputs fronts)
          ~steps:
            (Serving.mix_sequence ~seed ~windows:flow_windows ~window:flow_window ~test_rows:n_test
               fronts)
    | Serve_mix ->
        (* The same sequence first over the socket to the real server:
           its responses are the reference for both in-process passes. *)
        let steps =
          Serving.mix_sequence ~seed ~windows:traced_windows ~window:serve_window ~test_rows:n_test
            fronts
        in
        Serving.install ~dir:run_dir fronts.(Serving.initial fronts);
        let child = Serving.start_server ~cli ~dir:run_dir in
        let socket =
          Fun.protect
            ~finally:(fun () -> Serving.stop_server child)
            (fun () ->
              Serving.drive ~test_inputs ~fronts
                (Serving.over_socket ~dir:run_dir ~fronts child)
                steps)
        in
        let a, f, p, t =
          serve_twice layers ~test_inputs ~fronts ~reference:(Some socket.Serving.digests)
            ~session:(fun ?layers () -> Serving.reloading ?layers ~dir:run_dir ~test_inputs fronts)
            ~steps
        in
        (a + socket.Serving.attempted, f + socket.Serving.failed, p, t)
  in
  let overhead =
    float_of_int (fit_traced_ns + serve_traced_ns) /. float_of_int (fit_plain_ns + serve_plain_ns)
  in
  let n_perf = List.length (performances w) in
  ( n_perf + attempted,
    fit_mismatches + failed,
    Layers.metrics layers @ [ ("trace.overhead_ratio", overhead, "ratio") ] )

(* {2 Entry point} *)

let usage =
  "perfbench --workload paper-ota|wide-ota|serve-mix --seed N --seconds S --trace 0|1\n\
  \  [--cli PATH] [--commit HASH] [--nproc N]"

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let cli = ref "_build/default/bin/caffeine_cli.exe" and commit = ref "unknown" in
  let nproc = ref (Domain.recommended_domain_count ()) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S measurement time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--cli", Arg.Set_string cli, "PATH the caffeine CLI executable (serve-mix)");
      ("--commit", Arg.Set_string commit, "HASH the git commit, for the run envelope");
      ("--nproc", Arg.Set_int nproc, "N the host's cores, for the run envelope");
    ]
    (fun arg -> raise (Arg.Bad ("unexpected argument " ^ arg)))
    usage;
  let w =
    match !workload with
    | "paper-ota" -> Paper_ota
    | "wide-ota" -> Wide_ota
    | "serve-mix" -> Serve_mix
    | other ->
        prerr_endline ("unknown workload " ^ other ^ "\n" ^ usage);
        exit 2
  in
  if !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  if w = Serve_mix && not (Sys.file_exists !cli) then begin
    prerr_endline ("missing caffeine CLI at " ^ !cli);
    exit 2
  end;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  List.iter
    (fun dir -> try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
    [ run_root; run_dir ];
  print_envelope w ~commit:!commit ~nproc:!nproc ~seed:!seed ~seconds:!seconds ~trace:!trace;
  let attempted, failed, metrics =
    Fun.protect
      ~finally:(fun () ->
        (try Array.iter (fun f -> Sys.remove (Filename.concat run_dir f)) (Sys.readdir run_dir)
         with Sys_error _ -> ());
        List.iter
          (fun dir -> try Unix.rmdir dir with Unix.Unix_error _ -> ())
          [ run_dir; run_root ])
      (fun () ->
        if !trace = 1 then traced_run w ~cli:!cli ~seed:!seed
        else begin
          Reference.warm ();
          match w with
          | Paper_ota | Wide_ota -> flow_untraced w ~seed:!seed ~seconds:!seconds
          | Serve_mix -> serve_untraced w ~cli:!cli ~seed:!seed ~seconds:!seconds
        end)
  in
  let correct = failed = 0 in
  print_result ~correct ~attempted ~failed metrics;
  if not correct then exit 1
