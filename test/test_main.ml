(* Test driver: one Alcotest run covering every subsystem of the stack. *)

let () =
  Tvm_graph.Std_ops.register_all ();
  Alcotest.run "tvm-repro"
    [
      ("obs", Test_obs.suite);
      ("tir", Test_tir.suite);
      ("te", Test_te.suite);
      ("schedule", Test_schedule.suite);
      ("lower", Test_lower.suite);
      ("vthread+vdla", Test_vthread.suite);
      ("graph", Test_graph.suite);
      ("memplan", Test_memplan.suite);
      ("layout", Test_layout.suite);
      ("autotune", Test_autotune.suite);
      ("par", Test_par.suite);
      ("cache", Test_cache.suite);
      ("golden", Test_golden.suite);
      ("validate", Test_validate.suite);
      ("faults", Test_faults.suite);
      ("sim", Test_sim.suite);
      ("e2e", Test_e2e.suite);
      ("experiments", Test_experiments.suite);
      ("serve", Test_serve.suite);
      ("model_server", Test_model_server.suite);
      ("fleet", Test_fleet.suite);
    ]
