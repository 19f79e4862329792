(* Tests for the fused multi-expression engine: hash-consing a set of bases
   into one DAG and evaluating it with tiled kernels must agree bit for bit
   with the tree interpreter — on random expression sets, on the probe edge
   cases (empty index set, single sample, repeated indices) for sets and
   single-root tapes, and through the dataset's warm-columns / probe-many entry
   points — and must refuse inputs its unchecked kernels would read out of
   bounds. *)

module Rng = Caffeine_util.Rng
module Expr = Caffeine_expr.Expr
module Op = Caffeine_expr.Op
module Fused = Caffeine_expr.Fused
module Dataset = Caffeine_io.Dataset
module Opset = Caffeine.Opset
module Gen = Caffeine.Gen

let bits = Int64.bits_of_float

(* Bit-identical, with every NaN equal to every other NaN. *)
let same a b = if Float.is_nan a then Float.is_nan b else Int64.equal (bits a) (bits b)

let check_row_bits msg (expected : float array) (actual : float array) =
  Alcotest.(check int) (msg ^ " length") (Array.length expected) (Array.length actual);
  Array.iteri
    (fun i e ->
      if not (same e actual.(i)) then
        Alcotest.failf "%s: sample %d: expected %.17g, fused %.17g" msg i e actual.(i))
    expected

let random_matrix rng ~n ~dims =
  Array.init n (fun _ ->
      Array.init dims (fun _ ->
          (* Mix benign magnitudes with zeros and negatives so domain errors
             (ln of negatives, 0^-e, division by zero) actually occur. *)
          match Rng.int rng 8 with
          | 0 -> 0.
          | 1 -> -.Rng.range rng 0.1 3.0
          | _ -> Rng.range rng 0.05 4.0))

let columns_of_rows dims rows = Array.init dims (fun v -> Array.map (fun row -> row.(v)) rows)

let random_bases rng ~count ~dims =
  Array.init count (fun _ ->
      Gen.random_basis rng Opset.default ~dims ~depth:(2 + Rng.int rng 4) ~max_vc_vars:dims)

(* Reference: the tree interpreter, one basis at one sample at a time. *)
let reference_probe bases ~columns ~indices =
  Array.map
    (fun b ->
      Array.map (fun i -> Expr.eval_basis b (Array.map (fun column -> column.(i)) columns)) indices)
    bases

let reference_columns bases ~columns ~n =
  reference_probe bases ~columns ~indices:(Array.init n Fun.id)

(* --- full-column agreement on random sets -------------------------------- *)

let test_random_sets_bit_identical () =
  let rng = Rng.create ~seed:2027 () in
  for trial = 1 to 50 do
    let dims = 1 + Rng.int rng 6 in
    let count = 1 + Rng.int rng 12 in
    let n = 1 + Rng.int rng 40 in
    let bases = random_bases rng ~count ~dims in
    let columns = columns_of_rows dims (random_matrix rng ~n ~dims) in
    let fused = Fused.compile bases in
    let rows = Fused.eval_columns fused ~scratch:(Fused.scratch ()) ~columns ~n in
    let expected = reference_columns bases ~columns ~n in
    Array.iteri
      (fun k row -> check_row_bits (Printf.sprintf "trial %d root %d" trial k) expected.(k) row)
      rows
  done

(* --- probe edge cases ----------------------------------------------------- *)

let test_probe_edge_cases () =
  let rng = Rng.create ~seed:31 () in
  let dims = 4 in
  let n = 12 in
  let bases = random_bases rng ~count:6 ~dims in
  let columns = columns_of_rows dims (random_matrix rng ~n ~dims) in
  let fused = Fused.compile bases in
  let cases =
    [
      ("empty index set", [||]);
      ("single sample", [| 7 |]);
      ("repeated indices", [| 3; 3; 0; 3; 11; 0 |]);
      ("all samples", Array.init n Fun.id);
    ]
  in
  List.iter
    (fun (name, indices) ->
      let fused_rows = Fused.eval_probe fused ~columns ~indices in
      let expected = reference_probe bases ~columns ~indices in
      Array.iteri
        (fun k row -> check_row_bits (Printf.sprintf "%s root %d" name k) expected.(k) row)
        fused_rows;
      (* The probe gathers the corresponding full-column entries. *)
      let full = Fused.eval_columns fused ~scratch:(Fused.scratch ()) ~columns ~n in
      Array.iteri
        (fun k row ->
          Array.iteri
            (fun j idx ->
              if not (Int64.equal (bits row.(j)) (bits full.(k).(idx))) then
                Alcotest.failf "%s: root %d index %d disagrees with the full column" name k idx)
            indices)
        fused_rows)
    cases

let test_compiled_probe_edge_cases () =
  (* The per-expression probe — one basis compiled to a single-root tape —
     honors the same contracts on its own. *)
  let rng = Rng.create ~seed:32 () in
  let dims = 3 in
  let n = 9 in
  let basis = Gen.random_basis rng Opset.default ~dims ~depth:4 ~max_vc_vars:dims in
  let columns = columns_of_rows dims (random_matrix rng ~n ~dims) in
  let compiled = Fused.compile [| basis |] in
  let full = (Fused.eval_columns compiled ~scratch:(Fused.scratch ()) ~columns ~n).(0) in
  check_row_bits "full" (reference_columns [| basis |] ~columns ~n).(0) full;
  let probe indices = (Fused.eval_probe compiled ~columns ~indices).(0) in
  Alcotest.(check int) "empty probe" 0 (Array.length (probe [||]));
  check_row_bits "single" [| full.(n - 1) |] (probe [| n - 1 |]);
  check_row_bits "repeated" [| full.(2); full.(2); full.(2) |] (probe [| 2; 2; 2 |])

(* --- input bounds ---------------------------------------------------------- *)

let test_inputs_bounds_checked () =
  (* The kernels read design columns and probe indices unchecked, so every
     entry point must refuse inputs that would read out of bounds. *)
  let basis = Expr.{ vc = Some [| 1; 1 |]; factors = [] } in
  let fused = Fused.compile [| basis |] in
  let full = [| [| 1.; 2.; 3. |]; [| 4.; 5.; 6. |] |] in
  let short = [| [| 1.; 2.; 3. |]; [| 4.; 5. |] |] in
  let refused name f =
    match f () with
    | _ -> Alcotest.failf "%s: accepted" name
    | exception Invalid_argument _ -> ()
  in
  let scratch = Fused.scratch () in
  refused "short column" (fun () -> Fused.eval_columns fused ~scratch ~columns:short ~n:3);
  refused "missing column" (fun () ->
      Fused.eval_columns fused ~scratch ~columns:[| full.(0) |] ~n:3);
  refused "short column (into)" (fun () ->
      Fused.eval_columns_into fused ~scratch ~columns:short ~n:3 ~out:[| Array.make 3 0. |]);
  refused "index past the end" (fun () ->
      Fused.eval_probe fused ~columns:full ~indices:[| 0; 3 |]);
  refused "negative index" (fun () -> Fused.eval_probe fused ~columns:full ~indices:[| -1 |]);
  refused "index past a short column" (fun () ->
      Fused.eval_probe fused ~columns:short ~indices:[| 2 |]);
  (* In-bounds calls still work, including a prefix of longer columns. *)
  check_row_bits "prefix" [| 4.; 10. |]
    (Fused.eval_columns fused ~scratch ~columns:short ~n:2).(0);
  check_row_bits "probe" [| 18. |] (Fused.eval_probe fused ~columns:full ~indices:[| 2 |]).(0)

(* --- single-sample evaluation -------------------------------------------- *)

let test_single_sample_columns () =
  let rng = Rng.create ~seed:33 () in
  let dims = 5 in
  let bases = random_bases rng ~count:8 ~dims in
  let columns = columns_of_rows dims (random_matrix rng ~n:1 ~dims) in
  let fused = Fused.compile bases in
  let rows = Fused.eval_columns fused ~scratch:(Fused.scratch ()) ~columns ~n:1 in
  let expected = reference_columns bases ~columns ~n:1 in
  Array.iteri (fun k row -> check_row_bits (Printf.sprintf "root %d" k) expected.(k) row) rows

(* --- hash-consing structure ----------------------------------------------- *)

let test_empty_set () =
  let fused = Fused.compile [||] in
  Alcotest.(check int) "no roots" 0 (Array.length (Fused.roots fused));
  Alcotest.(check int) "no nodes" 0 (Fused.nodes_out fused);
  let rows = Fused.eval_columns fused ~scratch:(Fused.scratch ()) ~columns:[| [| 1. |] |] ~n:1 in
  Alcotest.(check int) "no output rows" 0 (Array.length rows)

let test_duplicates_collapse () =
  let rng = Rng.create ~seed:34 () in
  let dims = 4 in
  let basis = Gen.random_basis rng Opset.default ~dims ~depth:4 ~max_vc_vars:dims in
  let alone = Fused.compile [| basis |] in
  let repeated = Fused.compile (Array.make 5 basis) in
  (* Five copies of one basis share every DAG node; only the roots differ. *)
  Alcotest.(check int) "same node count" (Fused.nodes_out alone) (Fused.nodes_out repeated);
  let roots = Fused.roots repeated in
  Alcotest.(check int) "five roots" 5 (Array.length roots);
  Array.iter (fun r -> Alcotest.(check int) "all roots share one node" roots.(0) r) roots;
  (* Each duplicate still gets its own output row. *)
  let columns = columns_of_rows dims (random_matrix rng ~n:7 ~dims) in
  let rows = Fused.eval_columns repeated ~scratch:(Fused.scratch ()) ~columns ~n:7 in
  Alcotest.(check int) "five rows" 5 (Array.length rows);
  Array.iter (fun row -> check_row_bits "duplicate row" rows.(0) row) rows

let test_cse_counters () =
  let rng = Rng.create ~seed:35 () in
  let dims = 4 in
  let bases = random_bases rng ~count:10 ~dims in
  let fused = Fused.compile bases in
  Alcotest.(check bool) "nodes_out positive" true (Fused.nodes_out fused > 0);
  Alcotest.(check bool) "sharing never inflates" true
    (Fused.nodes_out fused <= Fused.nodes_in fused);
  Alcotest.(check int) "nodes_out = |nodes|" (Array.length (Fused.nodes fused))
    (Fused.nodes_out fused);
  (* Duplicating the whole set doubles nodes_in but leaves nodes_out. *)
  let doubled = Fused.compile (Array.append bases bases) in
  Alcotest.(check int) "nodes_in doubles" (2 * Fused.nodes_in fused) (Fused.nodes_in doubled);
  Alcotest.(check int) "nodes_out unchanged" (Fused.nodes_out fused) (Fused.nodes_out doubled)

(* --- dataset integration --------------------------------------------------- *)

let test_warm_columns_bit_identical () =
  let rng = Rng.create ~seed:36 () in
  let dims = 5 in
  let n = 20 in
  let rows = random_matrix rng ~n ~dims in
  let bases = random_bases rng ~count:9 ~dims in
  (* Lazily computed columns on one dataset... *)
  let lazy_data = Dataset.of_rows rows in
  let lazy_columns = Array.map (Dataset.basis_column lazy_data) bases in
  (* ...must equal fused-warmed columns on a fresh dataset, bit for bit. *)
  let warmed_data = Dataset.of_rows rows in
  let stats = Dataset.warm_columns warmed_data bases in
  Alcotest.(check bool) "some bases fused" true (stats.Dataset.fused_bases > 0);
  Alcotest.(check bool) "warm CSE never inflates" true
    (stats.Dataset.nodes_out <= stats.Dataset.nodes_in);
  Array.iteri
    (fun k b ->
      check_row_bits
        (Printf.sprintf "basis %d" k)
        lazy_columns.(k)
        (Dataset.basis_column warmed_data b))
    bases;
  (* Re-warming finds every column cached: nothing left to fuse. *)
  let again = Dataset.warm_columns warmed_data bases in
  Alcotest.(check int) "second warm is a no-op" 0 again.Dataset.fused_bases

let test_probe_many_bit_identical () =
  let rng = Rng.create ~seed:37 () in
  let dims = 4 in
  let n = 16 in
  let rows = random_matrix rng ~n ~dims in
  let data = Dataset.of_rows rows in
  let columns = columns_of_rows dims rows in
  let bases = random_bases rng ~count:7 ~dims in
  let check_probes state =
    List.iter
      (fun indices ->
        let fused_rows = Dataset.probe_many data bases ~indices in
        let expected = reference_probe bases ~columns ~indices in
        Array.iteri
          (fun k row -> check_row_bits (Printf.sprintf "%s basis %d" state k) expected.(k) row)
          fused_rows)
      [ [||]; [| 0 |]; [| 5; 5; 1 |]; Array.init n Fun.id ]
  in
  (* Probes do not depend on the column cache: cold, warm, cleared. *)
  check_probes "cold";
  Array.iter (fun b -> ignore (Dataset.basis_column data b)) bases;
  check_probes "warm";
  Dataset.clear_cache data;
  check_probes "cleared"

(* --- qcheck property: fused ≡ per-expression ------------------------------ *)

let property_tests =
  [
    QCheck.Test.make ~name:"fused set evaluation matches the interpreter" ~count:100
      QCheck.small_int
      (fun seed ->
        let rng = Rng.create ~seed:(seed + 1) () in
        let dims = 1 + Rng.int rng 5 in
        let count = 1 + Rng.int rng 8 in
        let n = 1 + Rng.int rng 25 in
        let bases = random_bases rng ~count ~dims in
        let columns = columns_of_rows dims (random_matrix rng ~n ~dims) in
        let fused_rows =
          Fused.eval_columns (Fused.compile bases) ~scratch:(Fused.scratch ()) ~columns ~n
        in
        let expected = reference_columns bases ~columns ~n in
        Array.for_all2
          (fun e row -> Array.for_all2 same e row)
          expected fused_rows);
  ]

let suite =
  [
    Alcotest.test_case "random sets are bit-identical" `Quick test_random_sets_bit_identical;
    Alcotest.test_case "probe edge cases (fused)" `Quick test_probe_edge_cases;
    Alcotest.test_case "probe edge cases (compiled)" `Quick test_compiled_probe_edge_cases;
    Alcotest.test_case "inputs are bounds-checked" `Quick test_inputs_bounds_checked;
    Alcotest.test_case "single-sample columns" `Quick test_single_sample_columns;
    Alcotest.test_case "empty expression set" `Quick test_empty_set;
    Alcotest.test_case "duplicate bases collapse to one node" `Quick test_duplicates_collapse;
    Alcotest.test_case "CSE counters" `Quick test_cse_counters;
    Alcotest.test_case "warm_columns is bit-identical" `Quick test_warm_columns_bit_identical;
    Alcotest.test_case "probe_many is bit-identical" `Quick test_probe_many_bit_identical;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) property_tests
