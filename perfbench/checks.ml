(* The per-op correctness checks. Each returns [true] when the op's
   output is right; the runner counts a [false] (or an exception) as a
   failed op. They reuse the acceptance conditions of the experiments
   and the test suite; [test_checks.ml] feeds each one a wrong answer. *)

(* Two float evaluations of one exact quantity (orbit vs direct engine,
   engine vs closed form). *)
let ic_tolerance = 1e-12
let close ?(tol = ic_tolerance) a b = Float.abs (a -. b) <= tol

(* An exact value inside a certified [lo, hi] bracket; the slack only
   absorbs the final float rounding of the exact value. *)
let in_bracket ~lo ~hi v = lo -. 1e-12 <= v && v <= hi +. 1e-12

(* [truth] is [Disj_common.disjoint] of the instance, computed in set-up. *)
let disj_answer ~truth answer = answer = truth

let subset_roundtrip ~sent ~decoded = sent = decoded

let vm_outputs ~expected ~got = expected = got

(* Byte-identical boards: the netsim totality contract. *)
let same_board = Blackboard.Board.equal

(* [prefix] holds the first writes of [full], byte for byte. *)
let board_prefix ~prefix ~full =
  let rec go ps fs =
    match (ps, fs) with
    | [], _ -> true
    | _ :: _, [] -> false
    | (p : Blackboard.Board.write) :: ps', (f : Blackboard.Board.write) :: fs' ->
        p.player = f.player && p.label = f.label
        && Coding.Bitvec.equal p.vec f.vec
        && go ps' fs'
  in
  Blackboard.Board.players prefix = Blackboard.Board.players full
  && go (Blackboard.Board.writes prefix) (Blackboard.Board.writes full)

(* A copy of [board] with bit [bit] of write [index] flipped. *)
let flip_bit board ~index ~bit =
  let copy = Blackboard.Board.create ~k:(Blackboard.Board.players board) in
  List.iteri
    (fun i (w : Blackboard.Board.write) ->
      let vec =
        if i <> index then w.vec
        else begin
          let wr = Coding.Bitbuf.Writer.create () in
          for j = 0 to Coding.Bitvec.length w.vec - 1 do
            let b = Coding.Bitvec.get w.vec j in
            Coding.Bitbuf.Writer.add_bit wr (if j = bit then not b else b)
          done;
          Coding.Bitbuf.Writer.freeze wr
        end
      in
      Blackboard.Board.post_vec copy ~player:w.player ~label:w.label vec)
    (Blackboard.Board.writes board);
  copy

(* Each check fed a wrong answer must report a failure; otherwise a zero
   failure count would pass vacuously. Returns (name, check caught it). *)
let self_test () =
  let ic = 1.5 in
  let board =
    let b = Blackboard.Board.create ~k:3 in
    List.iter
      (fun (player, v) ->
        let w = Coding.Bitbuf.Writer.create () in
        Coding.Bitbuf.Writer.add_bits w v 3;
        Blackboard.Board.post b ~player w)
      [ (0, 5); (1, 2); (2, 7) ];
    b
  in
  let short =
    let b = Blackboard.Board.create ~k:3 in
    List.iteri
      (fun i (w : Blackboard.Board.write) ->
        if i < 2 then Blackboard.Board.post_vec b ~player:w.player ~label:w.label w.vec)
      (Blackboard.Board.writes board);
    b
  in
  let truth =
    Protocols.Disj_common.disjoint
      (Protocols.Disj_common.random_disjoint_single_zero (Prob.Rng.of_int_seed 1) ~n:32 ~k:4)
  in
  [
    ("perturbed-ic", not (close (ic +. 1e-9) ic));
    ("ic-out-of-bracket", not (in_bracket ~lo:1.0 ~hi:1.25 ic));
    ("flipped-board-bit", not (same_board board (flip_bit board ~index:1 ~bit:2)));
    ("flipped-prefix-bit",
     not (board_prefix ~prefix:(flip_bit short ~index:0 ~bit:0) ~full:board));
    ("longer-than-full", not (board_prefix ~prefix:board ~full:short));
    ("wrong-disj-answer", not (disj_answer ~truth (not truth)));
    ("wrong-subset", not (subset_roundtrip ~sent:[ 1; 4; 9 ] ~decoded:[ 1; 4; 8 ]));
    ("wrong-vm-output", not (vm_outputs ~expected:[| 0; 1; 1 |] ~got:[| 0; 1; 0 |]));
    (* and the right answers pass *)
    ("right-answers",
     close ic ic && in_bracket ~lo:1.0 ~hi:1.5 ic && same_board board board
     && board_prefix ~prefix:short ~full:board && disj_answer ~truth true);
  ]
