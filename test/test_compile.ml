(** Differential tests of the flat VM ({!Proto.Compile}) against the
    tree interpreter: the compiled scalar evaluator must consume the
    rng stream draw-for-draw like the reference walker, the bit-sliced
    batch evaluator must agree lane-for-lane on deterministic trees,
    and the registry's board run must be byte-identical to the VM fed
    from the same streams. *)

module T = Proto.Tree
module C = Proto.Compile
module Sem = Proto.Semantics
module D = Prob.Dist_exact
module R = Exact.Rational
open Test_util

let k = 3
let bit_domain = [| 0; 1 |]

(* Reference walker: a fresh sampler per visited node, one draw per
   node from one stream, recording (speaker, arity, msg) per message.
   The compiled [exec] must match it event-for-event from the same rng
   seed. *)
let reference_walk tree ~inputs ~rng =
  let events = ref [] in
  let sample law =
    Prob.Sampler.draw (Prob.Sampler.create (D.to_float_dist law)) rng
  in
  let rec walk = function
    | T.Output v -> v
    | T.Speak { speaker; emit; children } ->
        let msg = sample (emit inputs.(speaker)) in
        events := (speaker, Array.length children, msg) :: !events;
        walk children.(msg)
    | T.Chance { coin; children } -> walk children.(sample coin)
  in
  let out = walk tree in
  (out, List.rev !events)

let compiled_walk p ~input_indices ~rng =
  let events = ref [] in
  let on_msg ~speaker ~arity ~width:_ ~msg =
    events := (speaker, arity, msg) :: !events
  in
  let sample _ s = Prob.Sampler.draw s rng in
  let out = C.exec ~on_msg p ~sample ~input_indices in
  (out, List.rev !events)

let prop_scalar_differential =
  qtest "compiled exec == reference walker, draw for draw" ~count:150
    QCheck.small_nat (fun seed ->
      Test_random_trees.with_random_tree seed (fun tree ->
          let p = C.compile ~players:k ~domain:bit_domain tree in
          List.for_all
            (fun x ->
              let input_indices = x in
              let inputs = input_indices in
              List.for_all
                (fun run_seed ->
                  let r1 = Prob.Rng.of_int_seed run_seed in
                  let r2 = Prob.Rng.of_int_seed run_seed in
                  reference_walk tree ~inputs ~rng:r1
                  = compiled_walk p ~input_indices ~rng:r2)
                [ 1; 42; 9000 + seed ])
            (Sem.all_bit_inputs k)))

(* Deterministic random trees: point-mass emissions, no chance nodes. *)
let random_det_tree ~rng ~k ~depth =
  let rec go depth =
    if depth = 0 || Prob.Rng.int rng 4 = 0 then T.output (Prob.Rng.int rng 2)
    else begin
      let arity = 2 + Prob.Rng.int rng 2 in
      let children = Array.init arity (fun _ -> go (depth - 1)) in
      let speaker = Prob.Rng.int rng k in
      let m0 = Prob.Rng.int rng arity and m1 = Prob.Rng.int rng arity in
      T.speak_det ~speaker ~f:(fun b -> if b = 0 then m0 else m1) children
    end
  in
  go depth

let dummy_sample _ = Alcotest.fail "deterministic exec must still sample"

let det_exec p ~input_indices =
  (* Deterministic programs still draw once per node (to keep the rng
     stream aligned with the randomized path), so give exec a real
     rng here rather than [dummy_sample]. *)
  ignore dummy_sample;
  let rng = Prob.Rng.of_int_seed 7 in
  C.exec p ~sample:(fun _ s -> Prob.Sampler.draw s rng) ~input_indices

let prop_batch_lanes =
  qtest "exec_batch lanes == scalar exec, transcripts and bits too"
    ~count:150 QCheck.small_nat (fun seed ->
      let rng = Prob.Rng.of_int_seed seed in
      let tree = random_det_tree ~rng ~k ~depth:(2 + Prob.Rng.int rng 3) in
      let p = C.compile ~players:k ~domain:bit_domain tree in
      if not (C.deterministic p) then false
      else begin
        let profiles = Array.of_list (Sem.all_bit_inputs k) in
        let b = C.exec_batch p ~input_indices:profiles in
        let outs = C.outputs b in
        Array.length outs = Array.length profiles
        && Array.for_all Fun.id
             (Array.mapi
                (fun lane prof ->
                  let scalar = det_exec p ~input_indices:prof in
                  let tr = C.lane_transcript p b lane in
                  scalar = outs.(lane)
                  && T.output_of tree tr = outs.(lane)
                  && T.transcript_bits tree tr = C.lane_bits p b lane)
                profiles)
      end)

let prop_sweep_matches_batch =
  qtest "exec_sweep == lane-by-lane outputs, any length" ~count:80
    QCheck.small_nat (fun seed ->
      let rng = Prob.Rng.of_int_seed seed in
      let tree = random_det_tree ~rng ~k ~depth:3 in
      let p = C.compile ~players:k ~domain:bit_domain tree in
      (* 100 profiles forces two chunks through the 62-lane slicer *)
      let profiles =
        Array.init 100 (fun _ ->
            Array.init k (fun _ -> Prob.Rng.int rng 2))
      in
      let swept = C.exec_sweep p ~input_indices:profiles in
      swept
      = Array.map (fun prof -> det_exec p ~input_indices:prof) profiles)

module Reg = Protocols.Registry

let compiled (Reg.Entry e) =
  C.compile ~players:e.players ~domain:e.domain (Lazy.force e.tree)

let check_same_run what (r1 : Reg.run) (r2 : Reg.run) =
  if not (Blackboard.Board.equal r1.board r2.board) then
    Alcotest.failf "%s: boards differ" what;
  Alcotest.(check int) (what ^ " output") r1.output r2.output;
  Alcotest.(check (array int)) (what ^ " inputs") r1.input_indices
    r2.input_indices;
  Alcotest.(check int) (what ^ " rounds") r1.msg_rounds r2.msg_rounds

(* Registry differential: the hosted board run and the VM fed from the
   same streams must produce byte-identical boards on every entry,
   every seed. *)
let registry_boards_identical () =
  List.iter
    (fun entry ->
      List.iter
        (fun seed ->
          check_same_run
            (Printf.sprintf "%s seed %d" (Reg.name entry) seed)
            (Reg.run_on_board entry ~seed)
            (Reg.For_testing.run_compiled entry ~seed))
        [ 0; 1; 2; 3; 4 ])
    (Reg.all ())

(* One executor, one rng layout: [run_on_board] is the engine driving a
   fresh [hosted], on every entry — including the randomized ones
   (and/noisy, compress/xor-coin-sequential), where drawing coins and
   messages from one stream instead would write other boards. *)
let run_on_board_is_hosted () =
  List.iter
    (fun entry ->
      List.iter
        (fun seed ->
          let h = Reg.hosted entry ~seed in
          match
            Blackboard.Engine.run_result ~k:h.Reg.k ~schedule:h.Reg.schedule
              ~players:h.Reg.players ()
          with
          | Error e -> Alcotest.fail (Blackboard.Engine.error_message e)
          | Ok o ->
              check_same_run
                (Printf.sprintf "%s seed %d" (Reg.name entry) seed)
                (Reg.run_on_board entry ~seed)
                {
                  Reg.output = Option.get (h.Reg.output_of o.board);
                  board = o.board;
                  input_indices = h.Reg.input_indices;
                  msg_rounds = o.writes;
                })
        [ 0; 1; 2; 3; 4 ])
    (Reg.all ())

(* Two unregistered entries may share a name (the async experiments
   reuse one name across k); each must run its own tree, which a
   program cache keyed by name would not. *)
let same_name_entries_run_own_trees () =
  let x k =
    Reg.entry ~name:"x" ~players:k ~domain:[| 0; 1 |]
      (lazy (Protocols.And_protocols.sequential k))
  in
  List.iter
    (fun k ->
      let e = x k in
      List.iter
        (fun seed ->
          let r = Reg.run_on_board e ~seed in
          let what = Printf.sprintf "x (k = %d) seed %d" k seed in
          Alcotest.(check int) (what ^ " inputs") k
            (Array.length r.input_indices);
          Alcotest.(check int) (what ^ " output = AND")
            (Array.fold_left ( land ) 1 r.input_indices)
            r.output;
          check_same_run what r (Reg.For_testing.run_compiled e ~seed))
        [ 0; 1; 2; 3 ])
    [ 2; 5; 2 ]

let registry_sweep_matches_spec () =
  List.iter
    (fun entry ->
      let p = compiled entry in
      if C.deterministic p && Protocols.Registry.has_spec entry then begin
        let name = Protocols.Registry.name entry in
        let players = Protocols.Registry.players entry in
        let dsize = C.domain_size p in
        (* all input profiles, mixed-radix enumeration *)
        let total =
          int_of_float (float_of_int dsize ** float_of_int players)
        in
        let profiles =
          Array.init total (fun i ->
              let v = ref i in
              Array.init players (fun _ ->
                  let d = !v mod dsize in
                  v := !v / dsize;
                  d))
        in
        let swept = C.exec_sweep p ~input_indices:profiles in
        Array.iteri
          (fun i prof ->
            match
              Protocols.Registry.spec_output entry ~input_indices:prof
            with
            | Some expect ->
                if swept.(i) <> expect then
                  Alcotest.failf "%s: sweep disagrees with spec at %d" name i
            | None -> ())
          profiles
      end)
    (Protocols.Registry.all ())

(* Pinned bytecode golden: the flat program for and/sequential at
   k = 5. Catches accidental changes to node numbering, law interning
   or the disassembly format. *)
let golden_and_sequential () =
  match Protocols.Registry.find "and/sequential" with
  | None -> Alcotest.fail "and/sequential not registered"
  | Some entry ->
      let p = compiled entry in
      let expected =
        "players=5 domain=2 nodes=11 root=n10 det=true\n\
         n10: speak p0 w1 [0->L0 1->L1] kids[n0 n9]\n\
         n9: speak p1 w1 [0->L0 1->L1] kids[n1 n8]\n\
         n8: speak p2 w1 [0->L0 1->L1] kids[n2 n7]\n\
         n7: speak p3 w1 [0->L0 1->L1] kids[n3 n6]\n\
         n6: speak p4 w1 [0->L0 1->L1] kids[n4 n5]\n\
         n5: out 1\n\
         n4: out 0\n\
         n3: out 0\n\
         n2: out 0\n\
         n1: out 0\n\
         n0: out 0\n\
         L0: {0:1}\n\
         L1: {1:1}\n"
      in
      Alcotest.(check string) "pinned disassembly" expected (C.disassemble p)

let batch_rejects_randomized () =
  match Protocols.Registry.find "and/noisy" with
  | None -> Alcotest.fail "and/noisy not registered"
  | Some entry ->
      let p = compiled entry in
      Alcotest.(check bool) "noisy not deterministic" false
        (C.deterministic p);
      Alcotest.check_raises "exec_batch rejects"
        (Invalid_argument "Compile.exec_batch: deterministic programs only")
        (fun () ->
          ignore (C.exec_batch p ~input_indices:[| [| 0; 0; 0; 0 |] |]))

let suite =
  [
    prop_scalar_differential;
    prop_batch_lanes;
    prop_sweep_matches_batch;
    quick "registry: compiled boards byte-identical" registry_boards_identical;
    quick "registry: run_on_board = engine over hosted" run_on_board_is_hosted;
    quick "registry: same-name entries run their own trees"
      same_name_entries_run_own_trees;
    quick "registry: batched sweep matches specs" registry_sweep_matches_spec;
    quick "golden: and/sequential bytecode pinned" golden_and_sequential;
    quick "exec_batch rejects randomized programs" batch_rejects_randomized;
  ]
