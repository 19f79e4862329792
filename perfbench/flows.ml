(* Workload inputs and the CAFFEINE fit flow: sampling, then per
   performance Search.run → Sag.process_front → Sag.test_tradeoff. *)

module Rng = Caffeine_util.Rng
module Doe = Caffeine_doe.Doe
module Ota = Caffeine_ota.Ota
module Dataset = Caffeine_io.Dataset
module Executor = Caffeine_par.Executor
module Config = Caffeine.Config
module Model = Caffeine.Model
module Search = Caffeine.Search
module Sag = Caffeine.Sag
module Linfit = Caffeine_regress.Linfit
module Stats = Caffeine_util.Stats

type data = {
  train_inputs : float array array;
  train_outputs : float array array;  (** per row: the six performances *)
  test_inputs : float array array;
  test_outputs : float array array;
}

(* The paper's sampling plan: the 243-run orthogonal DOE at dx 0.10 for
   training and dx 0.03 for testing. *)
let paper_data () =
  let train = Ota.doe_dataset ~dx:0.10 and test = Ota.doe_dataset ~dx:0.03 in
  {
    train_inputs = train.Ota.inputs;
    train_outputs = train.Ota.outputs;
    test_inputs = test.Ota.inputs;
    test_outputs = test.Ota.outputs;
  }

(* Latin hypercube ±10% around the nominal point, simulated point by
   point; points the simulator rejects are dropped, as in the DOE. *)
let lhs_rows rng ~samples =
  let lo = Array.map (fun v -> 0.9 *. v) Ota.nominal
  and hi = Array.map (fun v -> 1.1 *. v) Ota.nominal in
  let points = Doe.map_unit_to_box ~lo ~hi (Doe.latin_hypercube rng ~samples ~dims:Ota.dims) in
  let kept =
    Array.to_list points
    |> List.filter_map (fun x ->
           match Ota.evaluate x with Ok outputs -> Some (x, outputs) | Error _ -> None)
  in
  (Array.of_list (List.map fst kept), Array.of_list (List.map snd kept))

let wide_train_rows = 4096
let wide_test_rows = 1024

let wide_data ~seed =
  let rng = Rng.create ~seed () in
  let train_inputs, train_outputs = lhs_rows rng ~samples:wide_train_rows in
  let test_inputs, test_outputs = lhs_rows rng ~samples:wide_test_rows in
  { train_inputs; train_outputs; test_inputs; test_outputs }

let performance_index p =
  let rec find i = function
    | [] -> invalid_arg "performance_index"
    | q :: rest -> if q = p then i else find (i + 1) rest
  in
  find 0 Ota.all_performances

let targets rows p =
  let i = performance_index p in
  Array.map (fun row -> Ota.modeling_target p row.(i)) rows

(* The search seed of one performance: a fixed function of the workload
   seed, so the library sees nothing but generated inputs. *)
let search_seed ~seed p = (seed * 16) + performance_index p + 1

(* Quality guard: the hypervolume of the (test error, complexity)
   tradeoff inside a box fixed by the data, not by the search: test error
   up to that of the constant (train-mean) model, complexity up to
   [hv_ref_complexity].  A share in [0, 1]. *)
let hv_ref_complexity = 150.

let constant_test_error ~train_targets ~test_targets =
  let mean = (Linfit.fit_constant ~targets:train_targets).Linfit.intercept in
  Stats.normalized_error test_targets (Array.make (Array.length test_targets) mean)

let tradeoff_hv ~ref_error (scored : Sag.scored list) =
  Util.hypervolume ~ref_x:ref_error ~ref_y:hv_ref_complexity
    (List.map
       (fun (s : Sag.scored) -> (s.Sag.test_error, s.Sag.model.Model.complexity))
       scored)

type fitted = {
  performance : Ota.performance;
  raw_front : Model.t list;  (** Search.run's front *)
  front : Model.t list;  (** after SAG: what [fit --out] would save *)
  scored : Sag.scored list;  (** the test-filtered tradeoff *)
  hv : float;  (** [tradeoff_hv] of [scored] *)
  search_ns : int;
  flow_ns : int;  (** search + SAG + test filter *)
}

(* A fit is correct when the tradeoff is non-empty and finite. *)
let fitted_ok f =
  f.scored <> []
  && List.for_all (fun (s : Sag.scored) -> Float.is_finite s.Sag.test_error) f.scored

let datasets data p =
  let train = Dataset.of_rows ~var_names:Ota.var_names data.train_inputs in
  let test = Dataset.of_rows ~var_names:Ota.var_names data.test_inputs in
  (train, targets data.train_outputs p, test, targets data.test_outputs p)

(* One performance through the flow, untraced, on fresh datasets (so no
   column or dot product is shared with an earlier fit). *)
let fit ~executor ~seed config data p =
  let train, train_targets, test, test_targets = datasets data p in
  let wb = config.Config.wb and wvc = config.Config.wvc in
  let start = Layers.now () in
  let outcome =
    Search.run ~seed:(search_seed ~seed p) ~executor config ~data:train ~targets:train_targets
  in
  let searched = Layers.now () in
  let front =
    Sag.process_front ~executor ~wb ~wvc outcome.Search.front ~data:train ~targets:train_targets
  in
  let scored = Sag.test_tradeoff front ~data:test ~targets:test_targets in
  let stop = Layers.now () in
  {
    performance = p;
    raw_front = outcome.Search.front;
    front;
    scored;
    hv = tradeoff_hv ~ref_error:(constant_test_error ~train_targets ~test_targets) scored;
    search_ns = searched - start;
    flow_ns = stop - start;
  }

(* The same flow with every layer timed into [layers]: the search is
   rebuilt by [Layers.search], SAG and the test filter are timed as whole
   calls. *)
let fit_traced layers ~executor ~seed config data p =
  let train, train_targets, test, test_targets = datasets data p in
  let wb = config.Config.wb and wvc = config.Config.wvc in
  let start = Layers.now () in
  let raw_front =
    Layers.search layers ~executor ~seed:(search_seed ~seed p) config ~data:train
      ~targets:train_targets
  in
  let searched = Layers.now () in
  let front, rounds =
    Layers.counting "linfit.forward_rounds" (fun () ->
        Sag.process_front ~executor ~wb ~wvc raw_front ~data:train ~targets:train_targets)
  in
  let selected = Layers.now () in
  let scored = Sag.test_tradeoff front ~data:test ~targets:test_targets in
  let stop = Layers.now () in
  layers.Layers.sag_select_ns <- layers.Layers.sag_select_ns + (selected - searched);
  layers.Layers.forward_rounds <- layers.Layers.forward_rounds + rounds;
  layers.Layers.test_filter_ns <- layers.Layers.test_filter_ns + (stop - selected);
  {
    performance = p;
    raw_front;
    front;
    scored;
    hv = tradeoff_hv ~ref_error:(constant_test_error ~train_targets ~test_targets) scored;
    search_ns = searched - start;
    flow_ns = stop - start;
  }
