(** Tests for the blackboard runtime. *)

module B = Blackboard.Board
open Test_util

let writer_of_bits bits =
  let w = Coding.Bitbuf.Writer.create () in
  List.iter (Coding.Bitbuf.Writer.add_bit w) bits;
  w

let t_accounting () =
  let b = B.create ~k:3 in
  B.post b ~player:0 ~label:"a" (writer_of_bits [ true; false ]);
  B.post b ~player:1 (writer_of_bits [ true ]);
  B.post b ~player:0 (writer_of_bits [ false; false; false ]);
  Alcotest.(check int) "total" 6 (B.total_bits b);
  Alcotest.(check int) "writes" 3 (B.write_count b);
  Alcotest.(check int) "by player 0" 5 (B.bits_by b 0);
  Alcotest.(check int) "by player 1" 1 (B.bits_by b 1);
  Alcotest.(check int) "by player 2" 0 (B.bits_by b 2)

let t_order_and_labels () =
  let b = B.create ~k:2 in
  B.post b ~player:0 ~label:"first" (writer_of_bits [ true ]);
  B.post b ~player:1 ~label:"second" (writer_of_bits [ false ]);
  (match B.writes b with
  | [ w1; w2 ] ->
      Alcotest.(check string) "label 1" "first" w1.B.label;
      Alcotest.(check string) "label 2" "second" w2.B.label;
      Alcotest.(check int) "player order" 0 w1.B.player
  | _ -> Alcotest.fail "two writes expected");
  match B.last_write b with
  | Some w -> Alcotest.(check string) "last" "second" w.B.label
  | None -> Alcotest.fail "last exists"

let t_reread_write () =
  let b = B.create ~k:1 in
  let w = Coding.Bitbuf.Writer.create () in
  Coding.Intcode.write_gamma w 42;
  B.post b ~player:0 w;
  match B.last_write b with
  | None -> Alcotest.fail "write exists"
  | Some wr ->
      let r = B.reader_of_write wr in
      Alcotest.(check int) "decoded" 42 (Coding.Intcode.read_gamma r)

let t_bad_player () =
  let b = B.create ~k:2 in
  Alcotest.check_raises "player out of range"
    (Invalid_argument "Board.post: bad player") (fun () ->
      B.post b ~player:2 (writer_of_bits [ true ]))

(* The count is a field now, not [List.length]: a fork copies it, and
   later posts to either board move only that board's count. *)
let t_fork_counts () =
  let b = B.create ~k:2 in
  B.post b ~player:0 (writer_of_bits [ true ]);
  let f = B.uncharged_fork b in
  B.post f ~player:1 (writer_of_bits [ false; true ]);
  B.post b ~player:1 (writer_of_bits [ true ]);
  B.post b ~player:0 (writer_of_bits [ false ]);
  B.post f ~player:0 (writer_of_bits []);
  B.post f ~player:0 (writer_of_bits [ true ]);
  List.iter
    (fun (name, t, n) ->
      Alcotest.(check int) (name ^ ": count") n (B.write_count t);
      Alcotest.(check int)
        (name ^ ": count = length writes")
        (List.length (B.writes t)) (B.write_count t);
      Alcotest.(check bool)
        (name ^ ": rev_writes = rev writes")
        true
        (List.rev (B.rev_writes t) = B.writes t))
    [ ("board", b, 3); ("fork", f, 4) ];
  Alcotest.(check bool) "shared prefix is physical" true
    (List.nth (B.rev_writes b) 2 == List.nth (B.rev_writes f) 3);
  Alcotest.(check bool) "equal compares counts" false (B.equal b f)

let t_private_rngs_distinct () =
  let rngs = Blackboard.Runtime.private_rngs ~seed:1 ~k:4 in
  let draws = Array.map Prob.Rng.next_int64 rngs in
  let distinct =
    Array.to_list draws |> List.sort_uniq Int64.compare |> List.length
  in
  Alcotest.(check int) "all distinct" 4 distinct;
  (* reproducible *)
  let rngs' = Blackboard.Runtime.private_rngs ~seed:1 ~k:4 in
  Array.iteri
    (fun i r ->
      Alcotest.(check int64) "reproducible" draws.(i) (Prob.Rng.next_int64 r) |> ignore)
    rngs' |> ignore

let t_public_rng_differs_from_private () =
  let public = Blackboard.Runtime.public_rng ~seed:1 in
  let private0 = (Blackboard.Runtime.private_rngs ~seed:1 ~k:1).(0) in
  Alcotest.(check bool) "public <> private" true
    (not (Int64.equal (Prob.Rng.next_int64 public) (Prob.Rng.next_int64 private0)))

let t_turn_robin () =
  let visits = ref [] in
  let r =
    Blackboard.Runtime.turn_robin ~k:5 (fun i ->
        visits := i :: !visits;
        if i = 3 then Some "hit" else None)
  in
  Alcotest.(check (option string)) "found" (Some "hit") r;
  Alcotest.(check (list int)) "visited prefix" [ 0; 1; 2; 3 ] (List.rev !visits);
  let r2 = Blackboard.Runtime.turn_robin ~k:3 (fun _ -> None) in
  Alcotest.(check (option string)) "none" None r2

let suite =
  [
    quick "bit accounting" t_accounting;
    quick "order and labels" t_order_and_labels;
    quick "re-read a write" t_reread_write;
    quick "bad player rejected" t_bad_player;
    quick "fork: write_count = length writes" t_fork_counts;
    quick "private rngs distinct and reproducible" t_private_rngs_distinct;
    quick "public rng independent" t_public_rng_differs_from_private;
    quick "turn robin" t_turn_robin;
  ]
