(* Byte-identity oracle for the whole CAFFEINE flow: NSGA-II search, then
   SAG pruning, on the paper's OTA training DOE.  Each front is reduced to
   an MD5 of its exact words — the bit patterns of every objective,
   intercept and weight, plus the structural hash and printed form of
   every basis — and compared against digests recorded before the
   regression and dot-cache internals were last reworked.  Any change that
   moves a single IEEE word of a fit shows up here.  The search runs on
   the default executor, so the CI step that sets CAFFEINE_JOBS checks the
   same digests multi-domain. *)

module Ota = Caffeine_ota.Ota
module Config = Caffeine.Config
module Model = Caffeine.Model
module Search = Caffeine.Search
module Sag = Caffeine.Sag
module Dataset = Caffeine_io.Dataset
module Expr = Caffeine_expr.Expr
module Compiled = Caffeine_expr.Compiled

let front_digest front =
  let buf = Buffer.create 4096 in
  let word x = Buffer.add_string buf (Printf.sprintf "%Lx;" (Int64.bits_of_float x)) in
  List.iter
    (fun (m : Model.t) ->
      word m.train_error;
      word m.complexity;
      word m.intercept;
      Array.iter word m.weights;
      Array.iter
        (fun basis ->
          Buffer.add_string buf
            (Printf.sprintf "%x:%s;" (Compiled.hash_basis basis)
               (Expr.basis_to_string ~var_names:Ota.var_names basis)))
        m.bases;
      Buffer.add_char buf '\n')
    front;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let pinned_front perf () =
  let doe = Ota.doe_dataset ~dx:0.10 in
  let data = Dataset.of_rows ~var_names:Ota.var_names doe.Ota.inputs in
  let targets = Array.map (Ota.modeling_target perf) (Ota.targets doe perf) in
  let config = Config.scaled ~pop_size:30 ~generations:10 Config.default in
  let outcome = Search.run ~seed:17 config ~data ~targets in
  let pruned =
    Sag.process_front ~wb:config.Config.wb ~wvc:config.Config.wvc outcome.Search.front ~data
      ~targets
  in
  (front_digest outcome.Search.front, front_digest pruned)

let check_front perf ~search ~sag () =
  let got_search, got_sag = pinned_front perf () in
  let name = Ota.performance_name perf in
  Alcotest.(check string) (name ^ " search front digest") search got_search;
  Alcotest.(check string) (name ^ " SAG front digest") sag got_sag

let suite =
  [
    Alcotest.test_case "fu front is byte-identical" `Quick
      (check_front Ota.Fu ~search:"226bd96d0b12b9438be7e8f7a9ad4ac9"
         ~sag:"39f354c5d0b8b7c93a008c581ce98829");
    Alcotest.test_case "PM front is byte-identical" `Quick
      (check_front Ota.Pm ~search:"c5a235591505b91149d3613c15aed93a"
         ~sag:"f97b2ff099e28bcf4ede0088594ebba9");
  ]
