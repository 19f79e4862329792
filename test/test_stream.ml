(* Streaming ≡ dense equivalence.

   The chunked (out-of-core) storage path must be indistinguishable from
   dense storage on the same samples: every Gram product carries one
   scalar accumulator across chunk boundaries in row order, every fused
   chunk evaluation matches per-expression compilation, and the solve is
   the shared Cholesky core — so fits, probes, forward selection, and
   whole evolved fronts are pinned here to be BIT-identical, not merely
   close.  [Dataset.chunked_of_columns] is the in-memory stand-in for a
   Colstore file, so the properties run without touching disk. *)

module Dataset = Caffeine_io.Dataset
module Expr = Caffeine_expr.Expr
module Linfit = Caffeine_regress.Linfit
module Model = Caffeine.Model
module Search = Caffeine.Search
module Config = Caffeine.Config
module Opset = Caffeine.Opset
module Gen = Caffeine.Gen
module Rng = Caffeine_util.Rng
module Executor = Caffeine_par.Executor

(* NaN-safe exact comparison: two paths agreeing "bit for bit" must agree
   on the exact IEEE words, NaN payloads included. *)
let feq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
let farr_eq a b = Array.length a = Array.length b && Array.for_all2 feq a b

let wb = 1.0
let wvc = 0.5

(* Random columns, targets and structurally random bases (the full
   grammar: VCs, unaries, conditionals — whatever [Gen] produces). *)
let make_case ~seed ~n ~dims ~k =
  let rng = Rng.create ~seed () in
  let columns = Array.init dims (fun _ -> Array.init n (fun _ -> Rng.range rng (-2.) 2.)) in
  let targets = Array.init n (fun _ -> Rng.range rng (-3.) 3.) in
  let bases =
    Array.init k (fun _ -> Gen.random_basis rng Opset.default ~dims ~depth:3 ~max_vc_vars:2)
  in
  (columns, targets, bases)

let fit_eq a b =
  match (a, b) with
  | None, None -> true
  | Some (a : Model.t), Some (b : Model.t) ->
      feq a.Model.intercept b.Model.intercept
      && farr_eq a.Model.weights b.Model.weights
      && feq a.Model.train_error b.Model.train_error
      && a.Model.complexity = b.Model.complexity
  | _ -> false

let property_tests =
  [
    QCheck.Test.make ~name:"chunked gram is bit-identical to dense" ~count:150
      QCheck.(triple small_int (int_range 3 60) (int_range 1 70))
      (fun (seed, n, chunk_rows) ->
        let columns, targets, bases = make_case ~seed ~n ~dims:3 ~k:4 in
        let dense = Dataset.of_columns columns in
        let chunked = Dataset.chunked_of_columns ~chunk_rows columns in
        let gd = Dataset.gram dense bases ~targets in
        let gc = Dataset.gram chunked bases ~targets in
        gd.Dataset.finite_bases = gc.Dataset.finite_bases
        && Array.for_all2 farr_eq gd.Dataset.dots gc.Dataset.dots
        && farr_eq gd.Dataset.dot_ys gc.Dataset.dot_ys
        && farr_eq gd.Dataset.col_sums gc.Dataset.col_sums);
    QCheck.Test.make ~name:"Model.fit is bit-identical across storages and chunk sizes"
      ~count:150
      QCheck.(triple small_int (int_range 3 60) (int_range 1 70))
      (fun (seed, n, chunk_rows) ->
        let columns, targets, bases = make_case ~seed ~n ~dims:3 ~k:3 in
        let dense = Dataset.of_columns columns in
        let chunked = Dataset.chunked_of_columns ~chunk_rows columns in
        let other = Dataset.chunked_of_columns ~chunk_rows:(chunk_rows + 3) columns in
        let fit data = Model.fit ~wb ~wvc bases ~data ~targets in
        fit_eq (fit dense) (fit chunked)
        && fit_eq (fit chunked) (fit other)
        (* The empty individual routes through the constant fit on every
           storage. *)
        && fit_eq
             (Model.fit ~wb ~wvc [||] ~data:dense ~targets)
             (Model.fit ~wb ~wvc [||] ~data:chunked ~targets));
    QCheck.Test.make ~name:"fit_stream is bit-identical to fit_gram" ~count:150
      QCheck.(triple small_int (int_range 2 50) (int_range 1 60))
      (fun (seed, n, chunk) ->
        let rng = Rng.create ~seed () in
        let k = 1 + Rng.int rng 4 in
        let columns =
          Array.init k (fun _ -> Array.init n (fun _ -> Rng.range rng (-2.) 2.))
        in
        let targets = Array.init n (fun _ -> Rng.range rng (-3.) 3.) in
        (* The sequential dot products both entry points are specified
           against: one scalar accumulator in row order. *)
        let dot_cols a b =
          let acc = ref 0. in
          for i = 0 to n - 1 do
            acc := !acc +. (a.(i) *. b.(i))
          done;
          !acc
        in
        let ones = Array.make n 1. in
        let dot i j = dot_cols columns.(i) columns.(j) in
        let dot_y i = dot_cols columns.(i) targets in
        let col_sum i = dot_cols columns.(i) ones in
        let iter f =
          let lo = ref 0 in
          while !lo < n do
            let len = min chunk (n - !lo) in
            f ~row0:!lo ~len (Array.map (fun c -> Array.sub c !lo len) columns);
            lo := !lo + len
          done
        in
        let streamed = Linfit.fit_stream ~dot ~dot_y ~col_sum ~k ~n ~iter ~targets in
        let gram = Linfit.fit_gram ~dot ~dot_y ~col_sum ~basis_values:columns ~targets in
        feq streamed.Linfit.intercept gram.Linfit.intercept
        && farr_eq streamed.Linfit.weights gram.Linfit.weights
        && farr_eq streamed.Linfit.predictions gram.Linfit.predictions
        && feq streamed.Linfit.train_error gram.Linfit.train_error);
    QCheck.Test.make ~name:"probe and materialized columns are bit-identical" ~count:100
      QCheck.(triple small_int (int_range 3 40) (int_range 1 50))
      (fun (seed, n, chunk_rows) ->
        let columns, _, bases = make_case ~seed ~n ~dims:3 ~k:3 in
        let dense = Dataset.of_columns columns in
        let chunked = Dataset.chunked_of_columns ~chunk_rows columns in
        let rng = Rng.create ~seed:(seed + 1) () in
        let indices = Array.init (1 + Rng.int rng 6) (fun _ -> Rng.int rng n) in
        let probes = Dataset.probe_many dense bases ~indices in
        Array.for_all2 farr_eq probes (Dataset.probe_many chunked bases ~indices)
        && Array.for_all2
             (fun basis probe ->
               let column = Dataset.basis_column dense basis in
               farr_eq column (Dataset.basis_column chunked basis)
               && farr_eq probe (Array.map (fun i -> column.(i)) indices))
             bases probes);
    QCheck.Test.make ~name:"forward_select picks identical columns on both storages" ~count:75
      QCheck.(pair small_int (int_range 8 40))
      (fun (seed, n) ->
        let columns, targets, bases = make_case ~seed ~n ~dims:3 ~k:4 in
        let dense = Dataset.of_columns columns in
        let chunked = Dataset.chunked_of_columns ~chunk_rows:5 columns in
        let values data = Array.map (Dataset.basis_column data) bases in
        let select values =
          Linfit.forward_select ~basis_values:values ~targets ()
        in
        select (values dense) = select (values chunked))
  ]

(* A whole evolved front — search loop, NSGA-II, eval cache, SAG-ready
   models — must come out byte-for-byte the same whether the samples are
   resident or streamed, and regardless of the execution backend. *)
let test_front_identity () =
  let columns, targets, _ = make_case ~seed:7 ~n:64 ~dims:3 ~k:0 in
  let names = [| "a"; "b"; "c" |] in
  let dense = Dataset.of_columns ~var_names:names columns in
  let chunked = Dataset.chunked_of_columns ~var_names:names ~chunk_rows:7 columns in
  let config = Config.scaled ~pop_size:16 ~generations:3 Config.paper in
  let front data = (Search.run ~seed:23 config ~data ~targets).Search.front in
  let reference = front dense in
  Alcotest.(check bool) "front is non-trivial" true (List.length reference >= 1);
  let check_same label other =
    Alcotest.(check int) (label ^ ": front size") (List.length reference) (List.length other);
    List.iter2
      (fun (a : Model.t) (b : Model.t) ->
        Alcotest.(check string)
          (label ^ ": model text")
          (Model.to_string ~var_names:names a)
          (Model.to_string ~var_names:names b);
        Alcotest.(check bool) (label ^ ": intercept") true (feq a.Model.intercept b.Model.intercept);
        Alcotest.(check bool) (label ^ ": weights") true (farr_eq a.Model.weights b.Model.weights);
        Alcotest.(check bool)
          (label ^ ": train error")
          true
          (feq a.Model.train_error b.Model.train_error))
      reference other
  in
  check_same "chunked/seq" (front chunked);
  Executor.with_executor ~jobs:2 Executor.Domains (fun executor ->
      check_same "chunked/domains"
        (Search.run ~seed:23 ~executor config ~data:chunked ~targets).Search.front)

(* {2 Gram assembly}

   [Dataset.gram] hashes each basis once, looks up only the upper triangle
   and mirrors it.  Pinned here against the single-product API on both
   storages, on individuals with a duplicated basis, a structurally equal
   but physically distinct copy, and reversed order. *)

let gram_eq (a : Dataset.gram) (b : Dataset.gram) =
  a.Dataset.finite_bases = b.Dataset.finite_bases
  && Array.for_all2 farr_eq a.Dataset.dots b.Dataset.dots
  && farr_eq a.Dataset.dot_ys b.Dataset.dot_ys
  && farr_eq a.Dataset.col_sums b.Dataset.col_sums

let gram_of_api data bases ~targets =
  {
    Dataset.dots = Array.map (fun a -> Array.map (fun b -> Dataset.dot data a b) bases) bases;
    dot_ys = Array.map (fun b -> Dataset.dot_target data b ~targets) bases;
    col_sums = Array.map (Dataset.column_sum data) bases;
    finite_bases =
      Array.map (fun b -> Caffeine_util.Stats.is_finite_array (Dataset.basis_column data b)) bases;
  }

let distinct bases =
  Array.of_list
    (List.fold_left
       (fun acc b -> if List.exists (Expr.equal_basis b) acc then acc else acc @ [ b ])
       [] (Array.to_list bases))

(* A structurally equal basis that shares no memory with the original. *)
let deep_copy (b : Expr.basis) : Expr.basis = Marshal.from_string (Marshal.to_string b []) 0

let test_gram_assembly () =
  let fits_checked = ref 0 in
  for seed = 0 to 24 do
    let n = 23 in
    let columns, targets, raw = make_case ~seed ~n ~dims:3 ~k:4 in
    let bases = distinct raw in
    let k = Array.length bases in
    let copy = Array.map deep_copy bases in
    Alcotest.(check bool) "copies are physically distinct" true (copy.(0) != bases.(0));
    let individuals =
      [
        bases;
        Array.append bases [| bases.(0) |];
        Array.append bases copy;
        Array.of_list (List.rev (Array.to_list bases));
      ]
    in
    List.iter
      (fun ind ->
        let dense = Dataset.of_columns columns in
        let chunked = Dataset.chunked_of_columns ~chunk_rows:5 columns in
        let reference = gram_of_api (Dataset.of_columns columns) ind ~targets in
        let cold = Dataset.gram dense ind ~targets in
        let warm = Dataset.gram dense ind ~targets in
        Alcotest.(check bool) "cold dense gram = single products" true (gram_eq reference cold);
        Alcotest.(check bool) "warm dense gram = single products" true (gram_eq reference warm);
        Alcotest.(check bool) "single products from gram's entries" true
          (gram_eq reference (gram_of_api dense ind ~targets));
        Alcotest.(check bool) "chunked gram = dense gram" true
          (gram_eq cold (Dataset.gram chunked ind ~targets)))
      individuals;
    (* Warm lookups: the upper triangle plus one target and one column-sum
       product per basis, every one a hit. *)
    let data = Dataset.of_columns columns in
    let g = Dataset.gram data bases ~targets in
    let before = Dataset.stats data in
    ignore (Dataset.gram data bases ~targets : Dataset.gram);
    let after = Dataset.stats data in
    Alcotest.(check int) "warm hits" ((k * (k + 1) / 2) + (2 * k))
      (after.Dataset.dot_hits - before.Dataset.dot_hits);
    Alcotest.(check int) "warm misses" 0 (after.Dataset.dot_misses - before.Dataset.dot_misses);
    if Array.for_all Fun.id g.Dataset.finite_bases then begin
      incr fits_checked;
      let calls = ref 0 in
      let dot i j =
        incr calls;
        g.Dataset.dots.(i).(j)
      in
      let dot_y i = g.Dataset.dot_ys.(i) and col_sum i = g.Dataset.col_sums.(i) in
      let basis_values = Array.map (Dataset.basis_column data) bases in
      let via_gram = Linfit.fit_gram ~dot ~dot_y ~col_sum ~basis_values ~targets in
      Alcotest.(check int) "fit_gram reads the upper triangle" (k * (k + 1) / 2) !calls;
      let streamed =
        Linfit.fit_stream ~dot ~dot_y ~col_sum ~k ~n
          ~iter:(fun f -> Dataset.iter_basis_chunks data bases ~f)
          ~targets
      in
      Alcotest.(check bool) "fit_gram = fit_stream, word for word" true
        (feq via_gram.Linfit.intercept streamed.Linfit.intercept
        && farr_eq via_gram.Linfit.weights streamed.Linfit.weights
        && farr_eq via_gram.Linfit.predictions streamed.Linfit.predictions
        && feq via_gram.Linfit.train_error streamed.Linfit.train_error)
    end
  done;
  Alcotest.(check bool) "some individuals were finite" true (!fits_checked > 0)

let suite =
  Alcotest.test_case "evolved fronts are bit-identical across storages/backends" `Quick
    test_front_identity
  :: Alcotest.test_case "gram assembly: upper triangle, hashed keys" `Quick test_gram_assembly
  :: List.map QCheck_alcotest.to_alcotest property_tests
