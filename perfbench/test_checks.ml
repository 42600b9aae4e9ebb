(* Every per-op check of the benchmark counts a wrong answer as a
   failure, so [ok_frac = 1] cannot pass vacuously. *)

let () =
  Alcotest.run "perfbench-checks"
    [
      ( "checks",
        List.map
          (fun (name, caught) ->
            Alcotest.test_case name `Quick (fun () ->
                Alcotest.(check bool) name true caught))
          (Perfbench.Checks.self_test ()) );
    ]
