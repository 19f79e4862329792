(* Tests for linear basis weighting, PRESS, and forward regression. *)

module Linfit = Caffeine_regress.Linfit
module Rng = Caffeine_util.Rng

let check_close ?(tol = 1e-7) msg expected actual =
  if Float.abs (expected -. actual) > tol *. Float.max 1. (Float.abs expected) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let test_fit_constant () =
  let fitted = Linfit.fit_constant ~targets:[| 2.; 4.; 6. |] in
  check_close "intercept is mean" 4. fitted.Linfit.intercept;
  Alcotest.(check int) "no weights" 0 (Array.length fitted.Linfit.weights)

let test_fit_recovers_linear_combination () =
  let rng = Rng.create ~seed:1 () in
  let n = 50 in
  let col1 = Array.init n (fun _ -> Rng.range rng (-2.) 2.) in
  let col2 = Array.init n (fun _ -> Rng.range rng (-2.) 2.) in
  let targets = Array.init n (fun i -> 1.5 +. (2. *. col1.(i)) -. (0.7 *. col2.(i))) in
  let fitted = Linfit.fit ~basis_values:[| col1; col2 |] ~targets in
  check_close "intercept" 1.5 fitted.Linfit.intercept;
  check_close "w1" 2. fitted.Linfit.weights.(0);
  check_close "w2" (-0.7) fitted.Linfit.weights.(1);
  check_close "zero training error" 0. fitted.Linfit.train_error

let test_fit_empty_basis_is_constant () =
  let fitted = Linfit.fit ~basis_values:[||] ~targets:[| 1.; 3. |] in
  check_close "mean model" 2. fitted.Linfit.intercept

let test_fit_rejects_nonfinite_columns () =
  Alcotest.(check bool) "nan column rejected" true
    (match Linfit.fit ~basis_values:[| [| 1.; Float.nan |] |] ~targets:[| 1.; 2. |] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_forward_select_rejects_empty_targets () =
  Alcotest.check_raises "names forward_select"
    (Invalid_argument "Linfit.forward_select: no targets") (fun () ->
      ignore (Linfit.forward_select ~basis_values:[| [||] |] ~targets:[||] () : int array))

let test_predict_matches_fit () =
  let col = [| 1.; 2.; 3.; 4. |] in
  let targets = [| 3.; 5.; 7.; 9. |] in
  let fitted = Linfit.fit ~basis_values:[| col |] ~targets in
  let predictions = Linfit.predict fitted ~basis_values:[| [| 10. |] |] in
  check_close "extrapolated" 21. predictions.(0)

let test_press_positive_and_above_rss () =
  (* PRESS is leave-one-out, so it is at least the in-sample RSS. *)
  let rng = Rng.create ~seed:2 () in
  let n = 30 in
  let col = Array.init n (fun _ -> Rng.range rng (-1.) 1.) in
  let targets = Array.init n (fun i -> col.(i) +. Rng.gaussian ~sigma:0.2 rng) in
  let press = Linfit.press ~basis_values:[| col |] ~targets in
  let fitted = Linfit.fit ~basis_values:[| col |] ~targets in
  let rss =
    Array.fold_left ( +. ) 0.
      (Array.mapi
         (fun i p ->
           let e = targets.(i) -. p in
           e *. e)
         fitted.Linfit.predictions)
  in
  Alcotest.(check bool) "press >= rss" true (press >= rss -. 1e-9);
  Alcotest.(check bool) "press positive" true (press > 0.)

let test_press_intercept_only () =
  let targets = [| 1.; 2.; 3. |] in
  (* Leave-one-out for the mean model: prediction of sample i is the mean of
     the others; PRESS shortcut with h = 1/n must agree. *)
  let explicit = ref 0. in
  for i = 0 to 2 do
    let others = List.filteri (fun j _ -> j <> i) (Array.to_list targets) in
    let mean = List.fold_left ( +. ) 0. others /. 2. in
    let e = targets.(i) -. mean in
    explicit := !explicit +. (e *. e)
  done;
  check_close "intercept-only press" !explicit (Linfit.press ~basis_values:[||] ~targets)

let test_forward_select_picks_true_predictors () =
  let rng = Rng.create ~seed:3 () in
  let n = 60 in
  let signal1 = Array.init n (fun _ -> Rng.range rng (-1.) 1.) in
  let signal2 = Array.init n (fun _ -> Rng.range rng (-1.) 1.) in
  let noise1 = Array.init n (fun _ -> Rng.range rng (-1.) 1.) in
  let noise2 = Array.init n (fun _ -> Rng.range rng (-1.) 1.) in
  let targets = Array.init n (fun i -> (3. *. signal1.(i)) -. (2. *. signal2.(i))) in
  let chosen =
    Linfit.forward_select ~basis_values:[| noise1; signal1; noise2; signal2 |] ~targets ()
  in
  let chosen = Array.to_list chosen in
  Alcotest.(check bool) "signal 1 selected" true (List.mem 1 chosen);
  Alcotest.(check bool) "signal 2 selected" true (List.mem 3 chosen);
  Alcotest.(check bool) "no more than 3 columns" true (List.length chosen <= 3)

let test_forward_select_respects_max_bases () =
  let rng = Rng.create ~seed:4 () in
  let n = 40 in
  let columns = Array.init 6 (fun _ -> Array.init n (fun _ -> Rng.range rng (-1.) 1.)) in
  let targets =
    Array.init n (fun i ->
        Array.fold_left ( +. ) 0. (Array.map (fun col -> col.(i)) columns))
  in
  let chosen = Linfit.forward_select ~max_bases:2 ~basis_values:columns ~targets () in
  Alcotest.(check bool) "cap respected" true (Array.length chosen <= 2)

let test_forward_select_skips_nonfinite_columns () =
  let good = [| 1.; 2.; 3.; 4. |] in
  let bad = [| 1.; Float.nan; 3.; 4. |] in
  let targets = [| 2.; 4.; 6.; 8. |] in
  let chosen = Linfit.forward_select ~basis_values:[| bad; good |] ~targets () in
  Array.iter (fun i -> Alcotest.(check int) "only the good column" 1 i) chosen

let test_forward_select_stops_on_noise () =
  (* Pure-noise columns should mostly be rejected by the PRESS criterion. *)
  let rng = Rng.create ~seed:5 () in
  let n = 50 in
  let columns = Array.init 5 (fun _ -> Array.init n (fun _ -> Rng.gaussian rng)) in
  let targets = Array.init n (fun _ -> Rng.gaussian rng) in
  let chosen = Linfit.forward_select ~basis_values:columns ~targets () in
  Alcotest.(check bool) "few noise columns admitted" true (Array.length chosen <= 2)

let test_design_matrix_shape () =
  let m = Linfit.design_matrix [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  Alcotest.(check int) "rows" 2 (Caffeine_linalg.Matrix.rows m);
  Alcotest.(check int) "cols = 1 + k" 3 (Caffeine_linalg.Matrix.cols m);
  Alcotest.(check (float 1e-12)) "ones column" 1. (Caffeine_linalg.Matrix.get m 1 0)

(* Scratch reference for the incremental engine: full Householder
   refactorization per score, as Linfit did before the updatable QR. *)
let reference_forward_select ?max_bases ?(tolerance = 1e-6) ~basis_values ~targets () =
  let module Matrix = Caffeine_linalg.Matrix in
  let module Decomp = Caffeine_linalg.Decomp in
  let total = Array.length basis_values in
  let cap = match max_bases with Some m -> Stdlib.min m total | None -> total in
  let n = Array.length targets in
  let usable = Array.map Caffeine_util.Stats.is_finite_array basis_values in
  let chosen_mask = Array.make total false in
  let chosen = ref [] in
  let chosen_columns = ref [||] in
  let press_of columns =
    let k = Array.length columns in
    let design = Matrix.init n (k + 1) (fun i j -> if j = 0 then 1. else columns.(j - 1).(i)) in
    Decomp.press design targets
  in
  let current_press = ref (Linfit.press ~basis_values:[||] ~targets) in
  let continue = ref true in
  while !continue && List.length !chosen < cap do
    let best = ref None in
    Array.iteri
      (fun candidate column ->
        if usable.(candidate) && not chosen_mask.(candidate) then begin
          let score =
            match press_of (Array.append !chosen_columns [| column |]) with
            | value -> value
            | exception Decomp.Singular -> Float.nan
          in
          if Float.is_finite score then
            match !best with
            | Some (_, best_score) when best_score <= score -> ()
            | Some _ | None -> best := Some (candidate, score)
        end)
      basis_values;
    match !best with
    | Some (candidate, score) when score < !current_press *. (1. -. tolerance) ->
        chosen_mask.(candidate) <- true;
        chosen := candidate :: !chosen;
        chosen_columns := Array.append !chosen_columns [| basis_values.(candidate) |];
        current_press := score
    | Some _ | None -> continue := false
  done;
  Array.of_list (List.rev !chosen)

(* --- the Gram fallback, word for word ---

   When the Gram guard declines, [fit_gram] and [fit_stream] fall back to
   the updatable QR and, when it rejects a column, solve from the Gram they
   already hold.  The oracle is the explicit scratch composition the
   fallback used to run — [design_matrix] → [Decomp.lstsq] →
   [Matrix.mul_vec] — or, for a set the updatable QR accepts, [fit]. *)

module Matrix = Caffeine_linalg.Matrix
module Decomp = Caffeine_linalg.Decomp
module Metrics = Caffeine_obs.Metrics
module Stats = Caffeine_util.Stats

let bits = Array.map Int64.bits_of_float

let fit_words (f : Linfit.t) =
  bits
    (Array.concat
       [ [| f.Linfit.intercept; f.Linfit.train_error |]; f.Linfit.weights; f.Linfit.predictions ])

let scratch_words columns targets =
  let design = Linfit.design_matrix columns in
  let coeffs = Decomp.lstsq design targets in
  let predictions = Matrix.mul_vec design coeffs in
  bits
    (Array.concat
       [
         [| coeffs.(0); Stats.normalized_error targets predictions |];
         Array.sub coeffs 1 (Array.length columns);
         predictions;
       ])

(* Row-order products from [0.], the ones [Dataset] supplies. *)
let row_dot a b =
  let acc = ref 0. in
  Array.iteri (fun i x -> acc := !acc +. (x *. b.(i))) a;
  !acc

let fallback_cases () =
  let rng = Rng.create ~seed:31 () in
  let col n = Array.init n (fun _ -> Rng.range rng (-2.) 2.) in
  let a = col 12 and b = col 12 and c = col 12 in
  let noise = Array.map (fun x -> 1e-5 *. x) c in
  (* name, columns, rejected by the updatable QR, solved by ridge *)
  [
    ("duplicated basis", [| a; b; a |], true, true);
    ("scaled copy", [| a; Array.map (fun x -> 3. *. x) b; b |], true, true);
    ("all-zero column", [| a; Array.make 12 0. |], true, true);
    ("constant column", [| a; Array.make 12 2.5 |], true, true);
    ("n < k+1", [| col 3; col 3; col 3; col 3 |], true, true);
    ("offset column, full rank after rejection", [| a; Array.map (fun x -> 1e12 +. x) b |], true,
      false);
    ("ill-conditioned, accepted by the QR", [| a; Array.map2 ( +. ) a noise |], false, false);
  ]

let test_gram_fallback_oracle () =
  let counter name = Metrics.counter Metrics.default name in
  let gram_fallbacks = counter "linfit.gram_fallbacks"
  and qr_fallbacks = counter "linfit.qr_fallbacks"
  and ridge_fallbacks = counter "linfit.ridge_fallbacks" in
  List.iter
    (fun (name, columns, rejected, ridge) ->
      let k = Array.length columns and n = Array.length columns.(0) in
      let targets = Array.init n (fun i -> Float.sin (float_of_int i) +. columns.(0).(i)) in
      let ones = Array.make n 1. in
      let dot i j = row_dot columns.(i) columns.(j)
      and dot_y i = row_dot columns.(i) targets
      and col_sum i = row_dot columns.(i) ones in
      let iter f =
        let lo = ref 0 in
        while !lo < n do
          let len = min 5 (n - !lo) in
          f ~row0:!lo ~len (Array.map (fun c -> Array.sub c !lo len) columns);
          lo := !lo + len
        done
      in
      let expected =
        if rejected then scratch_words columns targets
        else fit_words (Linfit.fit ~basis_values:columns ~targets)
      in
      let run label fit_once =
        let value c = Metrics.counter_value c in
        let g0 = value gram_fallbacks and q0 = value qr_fallbacks and r0 = value ridge_fallbacks in
        let fitted = fit_once () in
        let label = name ^ ", " ^ label in
        Alcotest.(check (array int64)) (label ^ ": words") expected (fit_words fitted);
        Alcotest.(check int) (label ^ ": gram_fallbacks") 1 (value gram_fallbacks - g0);
        Alcotest.(check int) (label ^ ": qr_fallbacks") (Bool.to_int rejected)
          (value qr_fallbacks - q0);
        Alcotest.(check int) (label ^ ": ridge_fallbacks") (Bool.to_int ridge)
          (value ridge_fallbacks - r0)
      in
      run "fit_gram" (fun () ->
          Linfit.fit_gram ~dot ~dot_y ~col_sum ~basis_values:columns ~targets);
      run "fit_stream" (fun () -> Linfit.fit_stream ~dot ~dot_y ~col_sum ~k ~n ~iter ~targets))
    (fallback_cases ())

let rel_vec_close tol a b =
  let norm v = sqrt (Array.fold_left (fun acc x -> acc +. (x *. x)) 0. v) in
  Array.length a = Array.length b
  &&
  let d = Array.mapi (fun i x -> x -. b.(i)) a in
  norm d <= tol *. Float.max 1. (Float.max (norm a) (norm b))

let property_tests =
  [
    QCheck.Test.make ~name:"fit residual error is within [0, constant-model error]" ~count:100
      QCheck.(pair small_int (int_range 5 40))
      (fun (seed, n) ->
        let rng = Rng.create ~seed () in
        let col = Array.init n (fun _ -> Rng.range rng (-2.) 2.) in
        let targets = Array.init n (fun _ -> Rng.range rng 1. 3.) in
        let fitted = Linfit.fit ~basis_values:[| col |] ~targets in
        let constant = Linfit.fit_constant ~targets in
        fitted.Linfit.train_error >= -1e-12
        && fitted.Linfit.train_error <= constant.Linfit.train_error +. 1e-9);
    QCheck.Test.make ~name:"fit agrees with scratch lstsq within 1e-8" ~count:200
      QCheck.(triple small_int (int_range 10 40) (int_range 1 5))
      (fun (seed, n, k) ->
        let rng = Rng.create ~seed () in
        let columns = Array.init k (fun _ -> Array.init n (fun _ -> Rng.range rng (-2.) 2.)) in
        let targets = Array.init n (fun _ -> Rng.range rng (-3.) 3.) in
        let fitted = Linfit.fit ~basis_values:columns ~targets in
        let coeffs =
          Caffeine_linalg.Decomp.lstsq (Linfit.design_matrix columns) targets
        in
        rel_vec_close 1e-8
          (Array.append [| fitted.Linfit.intercept |] fitted.Linfit.weights)
          coeffs);
    QCheck.Test.make ~name:"fit_gram agrees with the QR fit" ~count:200
      QCheck.(triple small_int (int_range 10 40) (int_range 1 5))
      (fun (seed, n, k) ->
        let rng = Rng.create ~seed () in
        let columns = Array.init k (fun _ -> Array.init n (fun _ -> Rng.range rng (-2.) 2.)) in
        let targets = Array.init n (fun _ -> Rng.range rng (-3.) 3.) in
        let dot_cols a b = Array.fold_left ( +. ) 0. (Array.mapi (fun i x -> x *. b.(i)) a) in
        let gram =
          Linfit.fit_gram
            ~dot:(fun i j -> dot_cols columns.(i) columns.(j))
            ~dot_y:(fun i -> dot_cols columns.(i) targets)
            ~col_sum:(fun i -> Array.fold_left ( +. ) 0. columns.(i))
            ~basis_values:columns ~targets
        in
        let fitted = Linfit.fit ~basis_values:columns ~targets in
        rel_vec_close 1e-8
          (Array.append [| gram.Linfit.intercept |] gram.Linfit.weights)
          (Array.append [| fitted.Linfit.intercept |] fitted.Linfit.weights)
        && rel_vec_close 1e-8 gram.Linfit.predictions fitted.Linfit.predictions);
    QCheck.Test.make ~name:"forward_select matches the scratch reference replay" ~count:60
      QCheck.(pair small_int (int_range 20 40))
      (fun (seed, n) ->
        let rng = Rng.create ~seed () in
        let total = 12 in
        let columns =
          Array.init total (fun _ -> Array.init n (fun _ -> Rng.range rng (-2.) 2.))
        in
        let targets =
          Array.init n (fun i ->
              (2. *. columns.(1).(i)) -. columns.(4).(i) +. Rng.gaussian ~sigma:0.3 rng)
        in
        Linfit.forward_select ~max_bases:5 ~basis_values:columns ~targets ()
        = reference_forward_select ~max_bases:5 ~basis_values:columns ~targets ());
  ]

let suite =
  [
    Alcotest.test_case "constant fit" `Quick test_fit_constant;
    Alcotest.test_case "recovers linear combination" `Quick test_fit_recovers_linear_combination;
    Alcotest.test_case "empty basis" `Quick test_fit_empty_basis_is_constant;
    Alcotest.test_case "non-finite rejected" `Quick test_fit_rejects_nonfinite_columns;
    Alcotest.test_case "predict on new data" `Quick test_predict_matches_fit;
    Alcotest.test_case "press >= rss" `Quick test_press_positive_and_above_rss;
    Alcotest.test_case "press intercept-only" `Quick test_press_intercept_only;
    Alcotest.test_case "forward select: true predictors" `Quick test_forward_select_picks_true_predictors;
    Alcotest.test_case "forward select: cap" `Quick test_forward_select_respects_max_bases;
    Alcotest.test_case "forward select: non-finite" `Quick test_forward_select_skips_nonfinite_columns;
    Alcotest.test_case "forward select: noise rejected" `Quick test_forward_select_stops_on_noise;
    Alcotest.test_case "forward select: empty targets" `Quick
      test_forward_select_rejects_empty_targets;
    Alcotest.test_case "design matrix shape" `Quick test_design_matrix_shape;
    Alcotest.test_case "gram fallback: scratch oracle and counters" `Quick
      test_gram_fallback_oracle;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) property_tests
