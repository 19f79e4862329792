let () =
  Alcotest.run "caffeine"
    [
      ("util", Test_util.suite);
      ("linalg", Test_linalg.suite);
      ("doe", Test_doe.suite);
      ("grammar", Test_grammar.suite);
      ("expr", Test_expr.suite);
      ("compiled", Test_compiled.suite);
      ("fused", Test_fused.suite);
      ("infix", Test_infix.suite);
      ("deriv", Test_deriv.suite);
      ("regress", Test_regress.suite);
      ("evo", Test_evo.suite);
      ("spice", Test_spice.suite);
      ("netlist", Test_netlist.suite);
      ("ota", Test_ota.suite);
      ("posyn", Test_posyn.suite);
      ("core", Test_core.suite);
      ("checkpoint", Test_checkpoint.suite);
      ("par", Test_par.suite);
      ("obs", Test_obs.suite);
      ("export", Test_export.suite);
      ("serve", Test_serve.suite);
      ("io", Test_io.suite);
      ("stream", Test_stream.suite);
      ("cli", Test_cli.suite);
      ("fronts", Test_fronts.suite);
    ]
