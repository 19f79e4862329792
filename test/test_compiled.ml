(* Tests for evaluation fidelity and structural hashing: the fused engine —
   one basis at a time and as a set sharing subtrees — agrees with the tree
   interpreter bit for bit on random bases (NaN counted equal to NaN, ∞
   propagation included), and the full structural hash distinguishes deep
   bases that collide under the depth-bounded polymorphic [Hashtbl.hash]. *)

module Rng = Caffeine_util.Rng
module Expr = Caffeine_expr.Expr
module Op = Caffeine_expr.Op
module Compiled = Caffeine_expr.Compiled
module Fused = Caffeine_expr.Fused
module Dataset = Caffeine_io.Dataset
module Opset = Caffeine.Opset
module Gen = Caffeine.Gen

(* Bitwise agreement, with every NaN equal to every other NaN. *)
let agree expected actual =
  if Float.is_nan expected then Float.is_nan actual
  else Int64.equal (Int64.bits_of_float expected) (Int64.bits_of_float actual)

let check_agree msg expected actual =
  if not (agree expected actual) then
    Alcotest.failf "%s: interpreter %.17g (%h), fused %.17g (%h)" msg expected expected actual
      actual

let columns_of rows =
  Array.init (Array.length rows.(0)) (fun v -> Array.map (fun row -> row.(v)) rows)

(* Every fused path over [rows]: the dataset's one-root column, a one-root
   probe at every sample in reverse order, and [bases] as one shared set.
   Each result is checked against the interpreter at every sample. *)
let check_fused msg bases rows =
  let columns = columns_of rows in
  let n = Array.length rows in
  let set = Fused.eval_columns (Fused.compile bases) ~scratch:(Fused.scratch ()) ~columns ~n in
  let data = Dataset.of_rows rows in
  let reversed = Array.init n (fun j -> n - 1 - j) in
  Array.iteri
    (fun k basis ->
      let column = Dataset.eval_column basis data in
      let probe =
        (Fused.eval_probe (Fused.compile [| basis |]) ~columns ~indices:reversed).(0)
      in
      Array.iteri
        (fun i row ->
          let expected = Expr.eval_basis basis row in
          check_agree (Printf.sprintf "%s basis %d sample %d (column)" msg k i) expected column.(i);
          check_agree
            (Printf.sprintf "%s basis %d sample %d (probe)" msg k i)
            expected probe.(n - 1 - i);
          check_agree (Printf.sprintf "%s basis %d sample %d (set)" msg k i) expected set.(k).(i))
        rows)
    bases

(* --- property: fused = interpreted on random bases ---------------------- *)

let random_matrix rng ~n ~dims =
  Array.init n (fun _ ->
      Array.init dims (fun _ ->
          (* Mix benign magnitudes with zeros and negatives so that domain
             errors (ln of negatives, 0^-e, tan poles) actually occur. *)
          match Rng.int rng 8 with
          | 0 -> 0.
          | 1 -> -.Rng.range rng 0.1 3.0
          | _ -> Rng.range rng 0.05 4.0))

let test_random_bases_agree () =
  let rng = Rng.create ~seed:2026 () in
  for trial = 1 to 200 do
    let dims = 1 + Rng.int rng 6 in
    let depth = 2 + Rng.int rng 5 in
    let bases =
      Array.init 3 (fun _ -> Gen.random_basis rng Opset.default ~dims ~depth ~max_vc_vars:dims)
    in
    let n = 3 + Rng.int rng 15 in
    check_fused (Printf.sprintf "trial %d" trial) bases (random_matrix rng ~n ~dims)
  done

(* --- targeted NaN / ∞ cases --------------------------------------------- *)

let vc_basis exponents = Expr.{ vc = Some exponents; factors = [] }

(* The basis alone, then in a set with its factor list reversed: the set
   shares every factor subtree but folds the product in another order. *)
let check_all_evals msg basis point =
  check_fused msg [| basis |] [| point |];
  let reordered = { basis with Expr.factors = List.rev basis.Expr.factors } in
  check_fused (msg ^ " in a set") [| basis; reordered |] [| point |]

let test_negative_exponent_on_zero () =
  (* x0^-1 at x0 = 0 is nan (int_pow's convention), not an infinity. *)
  check_all_evals "0^-1" (vc_basis [| -1 |]) [| 0. |];
  check_all_evals "0^-3 * x1" (vc_basis [| -3; 1 |]) [| 0.; 2.5 |];
  (* Positive exponents at zero stay finite. *)
  check_all_evals "0^2" (vc_basis [| 2 |]) [| 0. |]

let test_lte_nan_propagation () =
  (* The conditional is NaN-strict in its test and threshold: if either is
     nan the whole factor is nan even when a branch is finite. *)
  let lte ~test_bias ~threshold =
    Expr.
      {
        vc = None;
        factors =
          [
            Lte
              {
                test = { bias = test_bias; terms = [ (1., vc_basis [| 1 |]) ] };
                threshold;
                less = Const 10.;
                otherwise = Const 20.;
              };
          ];
      }
  in
  (* NaN test: x0^-1 at 0 inside the test wsum. *)
  let nan_test =
    Expr.
      {
        vc = None;
        factors =
          [
            Lte
              {
                test = { bias = 0.; terms = [ (1., vc_basis [| -1 |]) ] };
                threshold = Const 1.;
                less = Const 10.;
                otherwise = Const 20.;
              };
          ];
      }
  in
  check_all_evals "nan test" nan_test [| 0. |];
  Alcotest.(check bool) "nan test is nan" true
    (Float.is_nan (Expr.eval_basis nan_test [| 0. |]));
  (* NaN threshold. *)
  let nan_threshold =
    lte ~test_bias:0. ~threshold:(Expr.Sum { bias = 0.; terms = [ (1., vc_basis [| -2 |]) ] })
  in
  check_all_evals "nan threshold" nan_threshold [| 0. |];
  (* Finite case selects per sample: both branches exercised in one column. *)
  let finite = lte ~test_bias:0. ~threshold:(Expr.Const 1.) in
  check_fused "select" [| finite |] [| [| 0.5 |]; [| 3. |]; [| 1. |] |]

let test_infinity_propagation () =
  (* exp10 of a large sum overflows to +∞; the enclosing product keeps it. *)
  let basis =
    Expr.
      {
        vc = Some [| 1 |];
        factors = [ Unary (Op.Exp10, { bias = 400.; terms = [] }) ];
      }
  in
  check_all_evals "inf product" basis [| 2. |];
  check_all_evals "0 * inf = nan" basis [| 0. |];
  (* ln of a negative constant is nan through any further operator. *)
  let nan_chain =
    Expr.
      {
        vc = None;
        factors =
          [
            Unary
              ( Op.Sqrt,
                {
                  bias = 0.;
                  terms =
                    [
                      ( 1.,
                        {
                          vc = None;
                          factors = [ Unary (Op.Log_e, { bias = -5.; terms = [] }) ];
                        } );
                    ];
                } );
          ];
      }
  in
  check_all_evals "nan chain" nan_chain [| 1. |]

let test_empty_vc_basis () =
  (* vc = None: the implicit leading factor is 1. *)
  let basis =
    Expr.{ vc = None; factors = [ Unary (Op.Square, { bias = 1.5; terms = [] }) ] }
  in
  check_all_evals "no-vc basis" basis [| 7. |];
  (* And with several factors, the product folds left in the same order. *)
  let multi =
    Expr.
      {
        vc = None;
        factors =
          [
            Unary (Op.Abs, { bias = -2.; terms = [] });
            Unary (Op.Inv, { bias = 4.; terms = [ (0.5, vc_basis [| 1 |]) ] });
          ];
      }
  in
  check_all_evals "multi-factor" multi [| 3. |]

(* --- structural hash vs the depth-bounded polymorphic hash -------------- *)

(* A chain of [depth] unary operators around a leaf monomial: deep enough
   that [Hashtbl.hash]'s bounded traversal never reaches the leaf. *)
let deep_chain ~depth leaf_exponent =
  let rec wrap d basis =
    if d = 0 then basis
    else wrap (d - 1) Expr.{ vc = None; factors = [ Unary (Op.Sqrt, { bias = 0.; terms = [ (1., basis) ] }) ] }
  in
  wrap depth (vc_basis [| leaf_exponent |])

let test_structural_hash_beats_polymorphic () =
  let a = deep_chain ~depth:25 1 in
  let b = deep_chain ~depth:25 2 in
  Alcotest.(check bool) "distinct bases" false (Expr.equal_basis a b);
  (* The regression: the polymorphic hash cannot see past its traversal
     bound, so the two deep bases collide... *)
  Alcotest.(check int) "polymorphic hash collides" (Hashtbl.hash a) (Hashtbl.hash b);
  (* ...while the full structural hash separates them. *)
  Alcotest.(check bool) "structural hash separates" false
    (Compiled.hash_basis a = Compiled.hash_basis b)

let test_hash_respects_equality () =
  let rng = Rng.create ~seed:7 () in
  for _ = 1 to 50 do
    let dims = 1 + Rng.int rng 4 in
    let basis = Gen.random_basis rng Opset.default ~dims ~depth:5 ~max_vc_vars:dims in
    (* Equal bases hash equally, and the hash is non-negative. *)
    let copy = Expr.{ vc = basis.vc; factors = basis.factors } in
    Alcotest.(check int) "hash of equal" (Compiled.hash_basis basis) (Compiled.hash_basis copy);
    Alcotest.(check bool) "non-negative" true (Compiled.hash_basis basis >= 0)
  done;
  (* Weights participate: a mutated inner weight is a different column. *)
  let with_weight w =
    Expr.{ vc = None; factors = [ Unary (Op.Sin, { bias = 0.; terms = [ (w, vc_basis [| 1 |]) ] }) ] }
  in
  Alcotest.(check bool) "weight changes hash" false
    (Compiled.hash_basis (with_weight 2.) = Compiled.hash_basis (with_weight 2.0000001))

let test_tbl_keys_deep_bases () =
  (* The hash-consing table keeps deep near-identical bases apart. *)
  let tbl = Compiled.Tbl.create 16 in
  let a = deep_chain ~depth:25 1 and b = deep_chain ~depth:25 2 in
  Compiled.Tbl.replace tbl a 1;
  Compiled.Tbl.replace tbl b 2;
  Alcotest.(check int) "two entries" 2 (Compiled.Tbl.length tbl);
  Alcotest.(check int) "a" 1 (Compiled.Tbl.find tbl a);
  Alcotest.(check int) "b" 2 (Compiled.Tbl.find tbl b)

(* --- fold-order fidelity ------------------------------------------------- *)

let test_fold_order_matches_interpreter () =
  (* Products and weighted sums are order-sensitive in floating point; the
     fused tape must reproduce the interpreter's association exactly, so
     [check_fused] compares bit for bit, not within a tolerance. *)
  let rng = Rng.create ~seed:99 () in
  for trial = 1 to 100 do
    let dims = 3 in
    let basis = Gen.random_basis rng Opset.default ~dims ~depth:6 ~max_vc_vars:3 in
    let point = Array.init dims (fun _ -> Rng.range rng 0.3 1.7) in
    check_all_evals (Printf.sprintf "trial %d" trial) basis point
  done

let suite =
  [
    Alcotest.test_case "random bases agree with interpreter" `Quick test_random_bases_agree;
    Alcotest.test_case "negative exponent on zero" `Quick test_negative_exponent_on_zero;
    Alcotest.test_case "Lte NaN propagation" `Quick test_lte_nan_propagation;
    Alcotest.test_case "infinity propagation" `Quick test_infinity_propagation;
    Alcotest.test_case "empty-vc bases" `Quick test_empty_vc_basis;
    Alcotest.test_case "structural hash vs polymorphic collision" `Quick
      test_structural_hash_beats_polymorphic;
    Alcotest.test_case "hash respects equality" `Quick test_hash_respects_equality;
    Alcotest.test_case "hash-consed table separates deep bases" `Quick test_tbl_keys_deep_bases;
    Alcotest.test_case "fold order is bit-identical" `Quick test_fold_order_matches_interpreter;
  ]
