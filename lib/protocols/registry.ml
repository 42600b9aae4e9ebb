(** Registry of shipped protocols, for linting and tooling.

    Every protocol tree the library ships self-registers here at a
    small, exactly-analyzable parameter point, together with the
    metadata the static analyzer needs: the player count, the domain of
    per-player inputs, and (when the module documents one) the declared
    worst-case bit cost to cross-check. The [lint] subcommand of
    [broadcast_cli] and the tier-1 registry sweep in
    [test/test_analysis.ml] both iterate [all ()], so a protocol added
    here is linted on every [dune runtest] and every CI push.

    The operational disjointness solvers ({!Disj_trivial},
    {!Disj_naive}, {!Disj_batched}) run on a blackboard, not a tree;
    they are represented by their exact tree models from {!Disj_trees}
    at small scale, as noted per entry.

    Downstream protocols register with {!register}. *)

type entry =
  | Entry : {
      name : string;
      players : int;
      domain : 'a array;  (** possible per-player inputs *)
      tree : 'a Proto.Tree.t Lazy.t;
      declared_cost : int option;
          (** documented worst-case bits, cross-checked by proto-lint *)
      spec : ('a array -> int) option;
          (** reference function on input profiles; deterministic
              entries that declare one are zero-error certified against
              it by proto-verify *)
      symmetry : Proto.Symmetry.t;
          (** declared player-permutation invariance of the {e output
              law} (not the transcript); licenses the orbit engine and
              is soundness-checked by {!symmetry_witness} in the test
              sweep. Defaults to trivial. *)
      note : string;
    }
      -> entry

let name (Entry e) = e.name
let players (Entry e) = e.players
let note (Entry e) = e.note
let declared_cost (Entry e) = e.declared_cost
let has_spec (Entry e) = Option.is_some e.spec
let symmetry (Entry e) = e.symmetry

let entry ~name ~players ?declared_cost ?spec ?(symmetry = Proto.Symmetry.Trivial)
    ?(note = "") ~domain tree =
  Entry { name; players; domain; tree; declared_cost; spec; symmetry; note }

(** Soundness check of the declared symmetry: [None] when the entry's
    output law is invariant under the whole declared group; otherwise a
    concrete witness input pair whose exact output laws differ, reported
    as per-player indices into the entry's domain (the inputs themselves
    are existentially typed). Exhaustive in the entry's domain —
    registry entries are small by construction. *)
let symmetry_witness (Entry { players; domain; tree; symmetry; _ }) =
  let index_of v =
    let n = Array.length domain in
    let rec go i =
      if i = n then -1
      else if Stdlib.compare domain.(i) v = 0 then i
      else go (i + 1)
    in
    go 0
  in
  Proto.Symmetry.check_tree symmetry ~players ~domain (Lazy.force tree)
  |> Option.map (fun (x, x') -> (Array.map index_of x, Array.map index_of x'))

(* Per-player input domains. *)
let bit_domain = [| 0; 1 |]

let vector_domain n =
  Array.of_list (Proto.Semantics.all_bit_inputs n)

(* Reference functions certified by proto-verify. The randomized
   entries (and/noisy, compress/xor-coin-sequential) declare none:
   zero-error certification covers deterministic trees only. *)
let and_of_coord c xs =
  Array.fold_left (fun acc x -> acc land x.(c)) 1 xs

let pack_vector x =
  Array.fold_left (fun acc b -> (2 * acc) + b) 0 x

let builtins =
  lazy
    [
      entry ~name:"and/sequential" ~players:5 ~declared_cost:5
        ~spec:Hard_dist.and_fn ~symmetry:Proto.Symmetry.Full
        ~note:"halt at the first zero; CC = k" ~domain:bit_domain
        (lazy (And_protocols.sequential 5));
      entry ~name:"and/broadcast-all" ~players:4 ~declared_cost:4
        ~spec:Hard_dist.and_fn ~symmetry:Proto.Symmetry.Full
        ~note:"everyone speaks; the maximally leaky baseline"
        ~domain:bit_domain
        (lazy (And_protocols.broadcast_all 4));
      entry ~name:"and/truncated" ~players:5 ~declared_cost:3
        ~spec:(fun x -> x.(0) land x.(1) land x.(2))
        ~symmetry:(Proto.Symmetry.Blocks [ [ 0; 1; 2 ]; [ 3; 4 ] ])
        ~note:"only the first m = 3 of k = 5 players speak (Lemma 6)"
        ~domain:bit_domain
        (lazy (And_protocols.truncated_sequential ~k:5 ~m:3));
      entry ~name:"and/noisy" ~players:4 ~declared_cost:4
        ~symmetry:Proto.Symmetry.Full
        ~note:"players lie with probability 1/10 (private randomness)"
        ~domain:bit_domain
        (lazy
          (And_protocols.noisy_sequential ~k:4
             ~noise:(Exact.Rational.of_ints 1 10)));
      entry ~name:"and/two-copy" ~players:3 ~declared_cost:6
        ~spec:(fun xs -> (2 * and_of_coord 0 xs) + and_of_coord 1 xs)
        ~symmetry:Proto.Symmetry.Full
        ~note:"two independent sequential copies (Theorem 4 witness)"
        ~domain:(vector_domain 2)
        (lazy (And_protocols.two_copy_sequential 3));
      entry ~name:"and/constant" ~players:4 ~declared_cost:0
        ~spec:(fun _ -> 1) ~symmetry:Proto.Symmetry.Full
        ~note:"ignores inputs; the zero-information point"
        ~domain:bit_domain
        (lazy (And_protocols.constant ~k:4 1));
      entry ~name:"compress/xor-coin-sequential" ~players:4 ~declared_cost:4
        ~symmetry:Proto.Symmetry.Full
        ~note:"output XORed with a free public coin (compression fixture)"
        ~domain:bit_domain
        (lazy (Proto.Combinators.xor_output_with_coin (And_protocols.sequential 4)));
      entry ~name:"compress/parallel-copies" ~players:3 ~declared_cost:6
        ~spec:(fun xs -> and_of_coord 0 xs lor (and_of_coord 1 xs lsl 1))
        ~symmetry:Proto.Symmetry.Full
        ~note:"Combinators.parallel_copies of sequential AND_3, 2 copies"
        ~domain:(vector_domain 2)
        (lazy
          (Proto.Combinators.parallel_copies (And_protocols.sequential 3)
             ~copies:2));
      entry ~name:"disj/trivial-tree" ~players:3 ~declared_cost:6
        ~spec:Hard_dist.disj_fn ~symmetry:Proto.Symmetry.Full
        ~note:"tree model of Disj_trivial: everyone announces its set"
        ~domain:(vector_domain 2)
        (lazy (Disj_trees.broadcast_all ~n:2 ~k:3));
      entry ~name:"disj/naive-tree" ~players:3 ~declared_cost:6
        ~spec:Hard_dist.disj_fn ~symmetry:Proto.Symmetry.Full
        ~note:"tree model of Disj_naive: coordinate-by-coordinate"
        ~domain:(vector_domain 2)
        (lazy (Disj_trees.sequential ~n:2 ~k:3));
      entry ~name:"disj/batched-tree" ~players:3 ~declared_cost:6
        ~spec:Hard_dist.disj_fn ~symmetry:Proto.Symmetry.Full
        ~note:"tree model of Disj_batched: shrinking-alphabet batches"
        ~domain:(vector_domain 2)
        (lazy (Disj_trees.batched ~n:2 ~k:3));
      entry ~name:"or/pointwise-tree" ~players:3 ~declared_cost:6
        ~spec:(fun xs ->
          Array.fold_left (fun acc x -> acc lor pack_vector x) 0 xs)
        ~symmetry:Proto.Symmetry.Full
        ~note:"pointwise-OR broadcast tree (output-entropy floor witness)"
        ~domain:(vector_domain 2)
        (lazy (Disj_trees.pointwise_or_broadcast ~n:2 ~k:3));
    ]

(* Engine-hosted form: the entry's tree as a board-driven schedule and
   speak/observe players, run unchanged by Blackboard.Engine.run or the
   Netsim asynchronous board emulation. *)

type hosted = {
  k : int;
  schedule : Blackboard.Board.t -> int option;
  players : Blackboard.Engine.player array;
  input_indices : int array;
  output_of : Blackboard.Board.t -> int option;
}

let spec_output (Entry { domain; spec; _ }) ~input_indices =
  Option.map
    (fun f -> f (Array.map (fun i -> domain.(i)) input_indices))
    spec

(* Inputs: the first [players] draws of [Rng.of_int_seed seed]. *)
let draw_inputs ~players ~domain ~seed =
  let rng = Prob.Rng.of_int_seed seed in
  Array.init players (fun _ -> Prob.Rng.int rng (Array.length domain))

let sample law rng =
  Prob.Sampler.draw (Prob.Sampler.create (Prob.Dist_exact.to_float_dist law)) rng

(* A message is its child index, written fixed-width in
   [ceil(log2 arity)] bits — the Section-3 charging
   {!Proto.Tree.communication_cost} assumes. *)
let read_msg w children =
  Coding.Intcode.read_fixed
    (Blackboard.Board.reader_of_write w)
    ~bound:(Array.length children)

(* The engine players over [locate], which maps a board to the node its
   writes lead to, with every chance coin on the way resolved. Each
   scheduled write samples once, from the speaker's private stream. *)
let host ~k ~domain ~seed locate =
  let input_indices = draw_inputs ~players:k ~domain ~seed in
  let inputs = Array.map (fun i -> domain.(i)) input_indices in
  let priv = Blackboard.Runtime.private_rngs ~seed ~k in
  let schedule board =
    match locate board with
    | Proto.Tree.Speak { speaker; _ } -> Some speaker
    | _ -> None
  in
  let speak p board =
    match locate board with
    | Proto.Tree.Speak { speaker; emit; children } when speaker = p ->
        let w = Coding.Bitbuf.Writer.create () in
        Coding.Intcode.write_fixed w ~bound:(Array.length children)
          (sample (emit inputs.(p)) priv.(p));
        w
    | _ -> invalid_arg "Registry.hosted: speak called out of turn"
  in
  let players =
    Array.init k (fun p ->
        { Blackboard.Engine.speak = speak p; observe = (fun _ -> ()) })
  in
  let output_of board =
    match locate board with Proto.Tree.Output v -> Some v | _ -> None
  in
  { k; schedule; players; input_indices; output_of }

(* Walk [node] past its chance nodes, drawing each coin from [coins]. *)
let rec settle node coins =
  match node with
  | Proto.Tree.Chance { coin; children } ->
      settle children.(sample coin coins) coins
  | _ -> node

(* A cursor: the node a write list leads to (a [Speak] or [Output]
   node, coins resolved) and the public coin stream just past the coins
   resolved on the way. [Output] absorbs further writes. *)
type 'a cursor = {
  writes : Blackboard.Board.write list;  (** newest first *)
  node : 'a Proto.Tree.t;
  coins : Prob.Rng.t;
}

(* Resume [c] over the writes [pending] (oldest first) that lead on to
   [writes], on a copy of its coins: the cached cursor stays intact. *)
let advance c pending writes =
  let coins = Prob.Rng.copy c.coins in
  let step node w =
    match node with
    | Proto.Tree.Speak { children; _ } ->
        settle children.(read_msg w children) coins
    | _ -> node
  in
  { writes; node = List.fold_left step c.node pending; coins }

(* The cursor resumes from the deepest cached prefix of a board's write
   list, so it draws the coins a replay from the root would, in walk
   order: it is a pure function of the board's writes. *)
let hosted (Entry { players = k; domain; tree; _ }) ~seed =
  let coins = Blackboard.Runtime.public_rng ~seed in
  let root = { writes = []; node = settle (Lazy.force tree) coins; coins } in
  (* The cursor last located at each write count. *)
  let cache = Hashtbl.create 64 in
  Hashtbl.replace cache 0 root;
  let locate board =
    let rec find n writes pending =
      match (Hashtbl.find_opt cache n, writes) with
      | Some c, _ when c.writes == writes -> (c, pending)
      | _, w :: older -> find (n - 1) older (w :: pending)
      | _, [] -> (root, pending)
    in
    let n = Blackboard.Board.write_count board in
    let writes = Blackboard.Board.rev_writes board in
    match find n writes [] with
    | c, [] -> c.node
    | c, pending ->
        let c = advance c pending writes in
        Hashtbl.replace cache n c;
        c.node
  in
  host ~k ~domain ~seed locate

type run = {
  output : int;
  board : Blackboard.Board.t;
  input_indices : int array;
      (** per-player index into the entry's input domain *)
  msg_rounds : int;  (** Speak nodes traversed (coins excluded) *)
}

(* Every write flows through [Board.post] inside the engine's rounds,
   so traced [Broadcast] bits equal the board's. *)
let run_on_board (Entry { name; _ } as e) ~seed =
  let h = hosted e ~seed in
  let o =
    Obs.Trace.with_span ("registry/" ^ name) (fun () ->
        Blackboard.Engine.run ~k:h.k ~schedule:h.schedule ~players:h.players ())
  in
  let board = o.Blackboard.Engine.board and rounds = o.Blackboard.Engine.writes in
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.bump "registry.runs" 1;
    Obs.Metrics.bump "registry.msg_rounds" rounds
  end;
  {
    output = Option.get (h.output_of board);
    board;
    input_indices = h.input_indices;
    msg_rounds = rounds;
  }

module For_testing = struct
  (* Every call re-walks the board from the root, drawing the coins
     from a fresh public stream. *)
  let hosted (Entry { players = k; domain; tree; _ }) ~seed =
    let tree = Lazy.force tree in
    host ~k ~domain ~seed (fun board ->
        let coins = Blackboard.Runtime.public_rng ~seed in
        let rec go node writes =
          match (node, writes) with
          | Proto.Tree.Chance { coin; children }, _ ->
              go children.(sample coin coins) writes
          | Proto.Tree.Speak { children; _ }, w :: rest ->
              go children.(read_msg w children) rest
          | _ -> node
        in
        go tree (Blackboard.Board.writes board))

  let run_compiled (Entry { players; domain; tree; _ }) ~seed =
    let p = Proto.Compile.compile ~players ~domain (Lazy.force tree) in
    let input_indices = draw_inputs ~players ~domain ~seed in
    let coins = Blackboard.Runtime.public_rng ~seed in
    let priv = Blackboard.Runtime.private_rngs ~seed ~k:players in
    let board = Blackboard.Board.create ~k:players in
    let on_msg ~speaker ~arity ~width:_ ~msg =
      let w = Coding.Bitbuf.Writer.create () in
      Coding.Intcode.write_fixed w ~bound:arity msg;
      Blackboard.Board.post board ~player:speaker w
    in
    let sample who s =
      Prob.Sampler.draw s (if who < 0 then coins else priv.(who))
    in
    let output = Proto.Compile.exec ~on_msg p ~sample ~input_indices in
    {
      output;
      board;
      input_indices;
      msg_rounds = Blackboard.Board.write_count board;
    }
end

let registered : entry list ref = ref []

let register e =
  let n = name e in
  if
    List.exists (fun e' -> name e' = n) (Lazy.force builtins)
    || List.exists (fun e' -> name e' = n) !registered
  then invalid_arg ("Registry.register: duplicate name " ^ n);
  registered := e :: !registered

let all () = Lazy.force builtins @ List.rev !registered
let names () = List.map name (all ())
let find n = List.find_opt (fun e -> name e = n) (all ())
