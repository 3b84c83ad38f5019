(* Aggregates all suites into one alcotest binary (dune runtest). *)

let () =
  Alcotest.run "dt_dctcp"
    (Test_engine.suites @ Test_obs.suites @ Test_stats.suites
   @ Test_net.suites @ Test_tcp.suites @ Test_dctcp.suites
   @ Test_control.suites @ Test_fluid.suites @ Test_workloads.suites
   @ Test_exp.suites @ Test_fault.suites @ Test_lint.suites
   @ Test_typed_lint.suites @ Test_dead_modules.suites)
