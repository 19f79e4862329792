(* Unit tests of the benchmark's own helpers (perfbench/util.ml). *)

module Model = Caffeine.Model
module Expr = Caffeine_expr.Expr

let close = Alcotest.float 1e-12

let test_quantiles () =
  let xs = [| 5.; 1.; 4.; 2.; 3. |] in
  Alcotest.check close "median" 3. (Util.median xs);
  Alcotest.check close "first quartile" 2. (Util.quantile xs 0.25);
  Alcotest.check close "interpolated" 1.4 (Util.quantile xs 0.1);
  Alcotest.check close "maximum" 5. (Util.quantile xs 1.)

let test_percentile_support () =
  let samples n = Array.init n float_of_int in
  (* p99 needs ten samples beyond it: 1000 samples, not 999. *)
  Alcotest.(check bool) "999 samples" true (Util.percentile (samples 999) 0.99 = None);
  Alcotest.(check bool) "1000 samples" true (Util.percentile (samples 1000) 0.99 <> None);
  Alcotest.(check bool) "p50 of 20" true (Util.percentile (samples 20) 0.5 <> None);
  Alcotest.(check bool) "p50 of 19" true (Util.percentile (samples 19) 0.5 = None)

let test_hypervolume () =
  (* Box 4 x 4; the staircase through (1,3) (2,2) (3,1) covers
     3 + 2 + 1 = 6 of its 16 units. *)
  let front = [ (1., 3.); (2., 2.); (3., 1.) ] in
  Alcotest.check close "three points" 0.375 (Util.hypervolume ~ref_x:4. ~ref_y:4. front);
  Alcotest.check close "order, dominated and outside points" 0.375
    (Util.hypervolume ~ref_x:4. ~ref_y:4.
       ([ (3., 3.); (5., 0.); (0., 4.); (2., Float.nan) ] @ List.rev front));
  Alcotest.check close "empty" 0. (Util.hypervolume ~ref_x:4. ~ref_y:4. [])

let basis vc = { Expr.vc = Some vc; factors = [] }

let model ~weight ~error =
  {
    Model.bases = [| basis [| 1; 0 |]; basis [| 0; -1 |] |];
    intercept = 0.5;
    weights = [| weight; 2. |];
    train_error = error;
    complexity = 22.5;
  }

let test_front_digest () =
  let front = [ model ~weight:1. ~error:0.25; model ~weight:3. ~error:0.125 ] in
  let copy : Model.t list = Marshal.from_string (Marshal.to_string front []) 0 in
  let digest = Util.front_digest front in
  Alcotest.(check string) "repeatable" digest (Util.front_digest front);
  Alcotest.(check string) "structural copy" digest (Util.front_digest copy);
  (* Physically shared bases digest like unshared ones. *)
  let with_bases bases (m : Model.t) = { m with Model.bases = bases () } in
  let shared =
    let b = basis [| 1; 0 |] in
    List.map (with_bases (fun () -> [| b; b |])) front
  in
  let unshared = List.map (with_bases (fun () -> [| basis [| 1; 0 |]; basis [| 1; 0 |] |])) front in
  Alcotest.(check string) "sharing" (Util.front_digest shared) (Util.front_digest unshared);
  let moved = [ model ~weight:(Float.succ 1.) ~error:0.25; model ~weight:3. ~error:0.125 ] in
  Alcotest.(check bool) "one ulp" false (digest = Util.front_digest moved);
  Alcotest.(check bool) "order" false (digest = Util.front_digest (List.rev front))

let test_self_time () =
  Alcotest.(check int) "union" 20 (Util.union_length [ (0, 10); (5, 15); (20, 25) ]);
  Alcotest.(check int) "empty intervals" 0 (Util.union_length [ (3, 3); (5, 4) ]);
  (* Parent [0, 100): children cover [0, 5) [10, 40) [90, 100) = 45. *)
  Alcotest.(check int) "overlapping and clipped children" 55
    (Util.self_time ~start:0 ~stop:100 [ (10, 30); (20, 40); (90, 120); (-5, 5) ]);
  Alcotest.(check int) "no children" 100 (Util.self_time ~start:0 ~stop:100 []);
  Alcotest.(check int) "fully covered" 0 (Util.self_time ~start:0 ~stop:100 [ (0, 60); (50, 100) ])

let () =
  Alcotest.run "perfbench"
    [
      ( "util",
        [
          Alcotest.test_case "quantiles" `Quick test_quantiles;
          Alcotest.test_case "percentile sample support" `Quick test_percentile_support;
          Alcotest.test_case "hypervolume of a three-point front" `Quick test_hypervolume;
          Alcotest.test_case "front digest stability" `Quick test_front_digest;
          Alcotest.test_case "span self-time arithmetic" `Quick test_self_time;
        ] );
    ]
