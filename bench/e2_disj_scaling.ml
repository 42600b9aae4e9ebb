(** E2 — Corollary 1 + Theorem 2: the communication complexity of
    [DISJ_{n,k}] is [Theta(n log k + k)].

    We run the three protocols (Section-5 batched, naive introduction
    protocol, trivial broadcast-everything) on hard disjoint instances
    (every coordinate has exactly one zero) across a sweep of [n] and
    [k], and report measured bits next to the paper's cost shapes. The
    "who wins" columns and the fitted constants are the reproduction of
    the paper's upper/lower bound story; the crossover sub-table shows
    where the naive protocol's [log n] loses to the batched protocol's
    [log k]. *)

let measure_one ~seed ~n ~k =
  let rng = Prob.Rng.of_int_seed seed in
  let inst = Protocols.Disj_common.random_disjoint_single_zero rng ~n ~k in
  let b = (Protocols.Disj_batched.solve inst).Protocols.Disj_batched.result in
  let nv = Protocols.Disj_naive.solve inst in
  let tv = Protocols.Disj_trivial.solve inst in
  assert (b.Protocols.Disj_common.answer
          && nv.Protocols.Disj_common.answer
          && tv.Protocols.Disj_common.answer);
  (b, nv, tv)

let run () =
  Exp_util.heading "E2"
    "DISJ_{n,k}: measured bits vs the Theta(n log k + k) shape (Thm 2 / Cor 1)";
  let configs =
    [
      (256, 4); (256, 16); (256, 64);
      (1024, 4); (1024, 16); (1024, 64); (1024, 256);
      (4096, 16); (4096, 64); (4096, 256);
      (16384, 16); (16384, 64); (16384, 1024);
    ]
  in
  (* Per-config runs are independent (each seeds its own instance);
     fan out and derive the fit/JSON/table sequentially afterwards. *)
  let data =
    Par.parallel_map
      (fun (n, k) ->
        let b, nv, tv = measure_one ~seed:((n * 13) + k) ~n ~k in
        let model = Protocols.Disj_batched.cost_model ~n ~k in
        (n, k, b, nv, tv, model))
      configs
  in
  let models = List.map (fun (_, _, _, _, _, m) -> m) data in
  let measured =
    List.map
      (fun (_, _, b, _, _, _) -> float_of_int b.Protocols.Disj_common.bits)
      data
  in
  let json_rows =
    List.map
      (fun (n, k, b, nv, tv, model) ->
        Obs.Jsonw.
          [
            ("n", Int n);
            ("k", Int k);
            ("batched_bits", Int b.Protocols.Disj_common.bits);
            ("naive_bits", Int nv.Protocols.Disj_common.bits);
            ("trivial_bits", Int tv.Protocols.Disj_common.bits);
            ("model_bits", Float model);
            ( "batched_over_model",
              Float (float_of_int b.Protocols.Disj_common.bits /. model) );
          ])
      data
  in
  let rows =
    List.map
      (fun (n, k, b, nv, tv, model) ->
        let winner =
          let bits =
            [
              ("batched", b.Protocols.Disj_common.bits);
              ("naive", nv.Protocols.Disj_common.bits);
              ("trivial", tv.Protocols.Disj_common.bits);
            ]
          in
          fst (List.hd (List.sort (fun (_, a) (_, b) -> compare a b) bits))
        in
        Exp_util.
          [
            I n;
            I k;
            I b.Protocols.Disj_common.bits;
            I nv.Protocols.Disj_common.bits;
            I tv.Protocols.Disj_common.bits;
            F2 (float_of_int b.Protocols.Disj_common.bits /. model);
            S winner;
          ])
      data
  in
  Exp_util.table
    ~header:
      [ "n"; "k"; "batched"; "naive"; "trivial"; "batched/(n lg k + k)"; "winner" ]
    rows;
  let c = Exp_util.fit_ratio models measured in
  Exp_util.record_rows "rows" json_rows;
  Exp_util.record_f "fitted_constant" c;
  Exp_util.note "Fitted constant: batched bits ~ %.2f * (n log2 k + k)." c;
  Exp_util.note
    "Expected: constant O(1) across the sweep; batched wins whenever log k << log n.";

  (* Crossover: at fixed k, find where batched overtakes naive. *)
  Exp_util.heading "E2b" "Crossover: batched vs naive as n grows (k = 16)";
  let rows =
    Par.parallel_map
      (fun n ->
        let b, nv, _ = measure_one ~seed:(n + 977) ~n ~k:16 in
        Exp_util.
          [
            I n;
            I b.Protocols.Disj_common.bits;
            I nv.Protocols.Disj_common.bits;
            F2
              (float_of_int nv.Protocols.Disj_common.bits
              /. float_of_int b.Protocols.Disj_common.bits);
          ])
      [ 64; 128; 256; 512; 1024; 4096; 16384; 65536 ]
  in
  Exp_util.table ~header:[ "n"; "batched"; "naive"; "naive/batched" ] rows;
  Exp_util.note
    "Expected: ratio grows like log n / log k once n >> k^2 (here k^2 = 256)."

(* E2S — the [n <= 1024] prefix of the E2 sweep, cheap enough to run on
   every CI push. Its rows are gated bit-for-bit against the committed
   benchmark baseline (see .github/workflows/ci.yml): any protocol or
   wire-representation change that moves a single measured bit fails the
   smoke job instead of silently shifting the paper tables. *)
let run_small () =
  Exp_util.heading "E2S"
    "DISJ_{n,k} smoke sweep (n <= 1024): bit-exact gate for CI";
  let configs =
    [ (256, 4); (256, 16); (256, 64); (1024, 4); (1024, 16); (1024, 64); (1024, 256) ]
  in
  let data =
    Par.parallel_map
      (fun (n, k) ->
        let b, nv, tv = measure_one ~seed:((n * 13) + k) ~n ~k in
        (n, k, b, nv, tv))
      configs
  in
  Exp_util.record_rows "rows"
    (List.map
       (fun (n, k, b, nv, tv) ->
         Obs.Jsonw.
           [
             ("n", Int n);
             ("k", Int k);
             ("batched_bits", Int b.Protocols.Disj_common.bits);
             ("naive_bits", Int nv.Protocols.Disj_common.bits);
             ("trivial_bits", Int tv.Protocols.Disj_common.bits);
           ])
       data);
  Exp_util.table
    ~header:[ "n"; "k"; "batched"; "naive"; "trivial" ]
    (List.map
       (fun (n, k, b, nv, tv) ->
         Exp_util.
           [
             I n;
             I k;
             I b.Protocols.Disj_common.bits;
             I nv.Protocols.Disj_common.bits;
             I tv.Protocols.Disj_common.bits;
           ])
       data);
  (* Compiled-VM gate: every registry entry's board run must be
     byte-identical to the flat-bytecode VM fed from the same streams.
     CI asserts this metric is 1 on every push (see
     .github/workflows/ci.yml). *)
  let identical = ref true in
  List.iter
    (fun entry ->
      List.iter
        (fun seed ->
          let t = Protocols.Registry.run_on_board entry ~seed in
          let c = Protocols.Registry.For_testing.run_compiled entry ~seed in
          if
            not
              (Blackboard.Board.equal t.Protocols.Registry.board
                 c.Protocols.Registry.board
              && t.Protocols.Registry.output = c.Protocols.Registry.output)
          then identical := false)
        [ 0; 1; 2 ])
    (Protocols.Registry.all ());
  Exp_util.record_i "compiled_identical_all" (if !identical then 1 else 0);
  Exp_util.note
    "Expected: rows byte-identical to the committed full-run baseline;";
  Exp_util.note
    "compiled_identical_all = 1 (VM bit-exact vs the hosted board run)."

let run_ablations () =
  Exp_util.heading "E2-abl1"
    "Ablation: phase-switch threshold (paper uses z < k^2), n=16384 k=16";
  let rng = Prob.Rng.of_int_seed 4242 in
  let inst = Protocols.Disj_common.random_disjoint_single_zero rng ~n:16384 ~k:16 in
  let rows =
    List.map
      (fun (label, threshold) ->
        let r = Protocols.Disj_batched.solve ~threshold inst in
        Exp_util.
          [
            S label;
            I threshold;
            I r.Protocols.Disj_batched.result.Protocols.Disj_common.bits;
            I r.Protocols.Disj_batched.result.Protocols.Disj_common.cycles;
          ])
      [
        ("k", 16);
        ("k^2/4", 64);
        ("k^2 (paper)", 256);
        ("4k^2", 1024);
        ("64k^2", 16384);
        ("always-naive", 1_000_000);
      ]
  in
  Exp_util.table ~header:[ "threshold"; "value"; "bits"; "cycles" ] rows;
  Exp_util.note
    "Expected: minimum around k^2; far smaller thresholds pay per-coordinate log z,";
  Exp_util.note "far larger ones skip batching entirely.";

  Exp_util.heading "E2-abl2"
    "Ablation: batch encoding — combinatorial subset code vs fixed-width coords";
  let rows =
    List.map
      (fun (n, k) ->
        let rng = Prob.Rng.of_int_seed ((n * 7) + k) in
        let inst = Protocols.Disj_common.random_disjoint_single_zero rng ~n ~k in
        let comb = (Protocols.Disj_batched.solve inst).Protocols.Disj_batched.result in
        let naive_enc =
          (Protocols.Disj_batched.solve ~encoding:Protocols.Disj_batched.NaiveFixed inst)
            .Protocols.Disj_batched.result
        in
        Exp_util.
          [
            I n;
            I k;
            I comb.Protocols.Disj_common.bits;
            I naive_enc.Protocols.Disj_common.bits;
            F2
              (float_of_int naive_enc.Protocols.Disj_common.bits
              /. float_of_int comb.Protocols.Disj_common.bits);
          ])
      [ (4096, 8); (16384, 16); (16384, 64) ]
  in
  Exp_util.table
    ~header:[ "n"; "k"; "combinatorial"; "fixed-width"; "ratio" ]
    rows;
  Exp_util.note
    "Expected: the subset code pays log(ek) per coordinate vs log z, ratio ~ log z / log ek."
