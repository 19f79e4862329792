module Expr = Caffeine_expr.Expr
module Fused = Caffeine_expr.Fused
module Dataset = Caffeine_io.Dataset
module Linfit = Caffeine_regress.Linfit
module Stats = Caffeine_util.Stats

type t = {
  bases : Expr.basis array;
  intercept : float;
  weights : float array;
  train_error : float;
  complexity : float;
}

let complexity_of ~wb ~wvc bases =
  Array.fold_left
    (fun acc basis ->
      let vc_cost =
        List.fold_left
          (fun sum vc -> sum +. (wvc *. float_of_int (Array.fold_left (fun a e -> a + abs e) 0 vc)))
          0. (Expr.vcs_of_basis basis)
      in
      acc +. wb +. float_of_int (Expr.nnodes_basis basis) +. vc_cost)
    0. bases

let basis_columns bases data =
  let columns = Array.map (Dataset.basis_column data) bases in
  if Array.for_all Stats.is_finite_array columns then Some columns else None

let accept ~wb ~wvc bases fitted =
  if
    Float.is_finite fitted.Linfit.train_error
    && Float.is_finite fitted.Linfit.intercept
    && Stats.is_finite_array fitted.Linfit.weights
  then
    Some
      {
        bases;
        intercept = fitted.Linfit.intercept;
        weights = fitted.Linfit.weights;
        train_error = fitted.Linfit.train_error;
        complexity = complexity_of ~wb ~wvc bases;
      }
  else None

(* Out-of-core fit: the bordered Gram is accumulated (or served from the
   dot cache) in one pass over the chunks by [Dataset.gram], the solve is
   the same guarded Cholesky core as the dense path, and the prediction
   pass re-streams the chunks.  Every product and every prediction is
   bit-identical to the dense computation, so the two storage paths
   produce byte-identical fronts. *)
let fit_streamed ~wb ~wvc bases ~data ~targets =
  let g = Dataset.gram data bases ~targets in
  if not (Array.for_all Fun.id g.Dataset.finite_bases) then None
  else
    match
      Linfit.fit_stream
        ~dot:(fun i j -> g.Dataset.dots.(i).(j))
        ~dot_y:(fun i -> g.Dataset.dot_ys.(i))
        ~col_sum:(fun i -> g.Dataset.col_sums.(i))
        ~k:(Array.length bases) ~n:(Dataset.n_samples data)
        ~iter:(fun f -> Dataset.iter_basis_chunks data bases ~f)
        ~targets
    with
    | fitted -> accept ~wb ~wvc bases fitted
    | exception Caffeine_linalg.Decomp.Singular -> None

let fit ~wb ~wvc bases ~data ~targets =
  if Dataset.is_chunked data && Array.length bases > 0 then
    fit_streamed ~wb ~wvc bases ~data ~targets
  else
    match basis_columns bases data with
    | None -> None
    | Some columns -> (
        (* Per-individual fits go through the Gram fast path: every entry of
           the bordered Gram matrix is a dot product memoized on the dataset,
           so individuals whose bases recur across the population (the common
           case under set crossover) reuse cached products instead of
           refactorizing from scratch. *)
        match
          Linfit.fit_gram
            ~dot:(fun i j -> Dataset.dot data bases.(i) bases.(j))
            ~dot_y:(fun i -> Dataset.dot_target data bases.(i) ~targets)
            ~col_sum:(fun i -> Dataset.column_sum data bases.(i))
            ~basis_values:columns ~targets
        with
        | fitted -> accept ~wb ~wvc bases fitted
        | exception Caffeine_linalg.Decomp.Singular -> None)

let to_wsum model =
  {
    Expr.bias = model.intercept;
    terms = Array.to_list (Array.map2 (fun w b -> (w, b)) model.weights model.bases);
  }

(* [Fused.compile_wsums] lowers the model to a [Const intercept] node and
   one [Fma] per term, the same accumulation order as [predict].  Each call
   is a one-sample probe with its own scratch, so the closure may be shared
   between domains. *)
let evaluator model =
  let fused = Fused.compile_wsums [| to_wsum model |] in
  fun x ->
    let columns = Array.map (fun v -> [| v |]) x in
    (Fused.eval_probe fused ~columns ~indices:[| 0 |]).(0).(0)

let predict_point model x = evaluator model x

let predict model data =
  let n = Dataset.n_samples data in
  let predictions = Array.make n model.intercept in
  Array.iteri
    (fun j basis ->
      let column = Dataset.basis_column data basis in
      let w = model.weights.(j) in
      for i = 0 to n - 1 do
        predictions.(i) <- predictions.(i) +. (w *. column.(i))
      done)
    model.bases;
  predictions

let warm model data = ignore (Dataset.warm_columns data model.bases : Dataset.fuse_stats)

let warm_front front data =
  ignore
    (Dataset.warm_columns data (Array.concat (List.map (fun m -> m.bases) front))
      : Dataset.fuse_stats)

let error_on model ~data ~targets =
  let predictions = predict model data in
  if Stats.is_finite_array predictions then Stats.normalized_error targets predictions
  else Float.infinity

let num_bases model = Array.length model.bases

let to_string ~var_names model =
  let terms =
    Array.to_list (Array.mapi (fun j basis -> (model.weights.(j), basis)) model.bases)
  in
  let visible = List.filter (fun (w, _) -> w <> 0.) terms in
  Expr.wsum_to_string ~var_names { Expr.bias = model.intercept; terms = visible }

let simplify ~wb ~wvc model =
  let intercept = ref model.intercept in
  let kept = ref [] in
  Array.iteri
    (fun j basis ->
      let weight = model.weights.(j) in
      if weight <> 0. then begin
        let scale, simplified = Expr.simplify_basis basis in
        match simplified with
        | None -> intercept := !intercept +. (weight *. scale)
        | Some b ->
            let w = weight *. scale in
            if w <> 0. then kept := (w, b) :: !kept
      end)
    model.bases;
  let kept = List.rev !kept in
  let bases = Array.of_list (List.map snd kept) in
  let weights = Array.of_list (List.map fst kept) in
  {
    bases;
    intercept = !intercept;
    weights;
    train_error = model.train_error;
    complexity = complexity_of ~wb ~wvc bases;
  }
