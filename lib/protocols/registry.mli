(** Registry of shipped protocols, for linting and tooling.

    Every protocol tree the library ships self-registers here at a
    small, exactly-analyzable parameter point; the [lint] subcommand of
    [broadcast_cli] and the tier-1 registry sweep both iterate
    {!all}. The operational disjointness solvers are represented by
    their exact tree models from {!Disj_trees}. Downstream protocols
    join the sweep via {!register}. *)

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
              it by proto-verify ({!Verify_registry}) *)
      symmetry : Proto.Symmetry.t;
          (** declared player-permutation invariance of the {e output
              law} (not the transcript); licenses the orbit engine and
              is soundness-checked by {!symmetry_witness} in the test
              sweep. Defaults to trivial. *)
      note : string;
    }
      -> entry

val entry :
  name:string ->
  players:int ->
  ?declared_cost:int ->
  ?spec:('a array -> int) ->
  ?symmetry:Proto.Symmetry.t ->
  ?note:string ->
  domain:'a array ->
  'a Proto.Tree.t Lazy.t ->
  entry

val name : entry -> string
val players : entry -> int
val note : entry -> string
val declared_cost : entry -> int option
val has_spec : entry -> bool

val symmetry : entry -> Proto.Symmetry.t
(** The declared output-law invariance group (default
    {!Proto.Symmetry.Trivial}). *)

val symmetry_witness : entry -> (int array * int array) option
(** Soundness check of the declared symmetry: [None] when the entry's
    exact output law is invariant under the whole declared group;
    otherwise a concrete witness pair of input profiles (as per-player
    indices into the entry's domain) whose output laws differ.
    Exhaustive in the entry's domain. *)

type hosted = {
  k : int;
  schedule : Blackboard.Board.t -> int option;
      (** board-driven: locates the tree node the writes so far lead to *)
  players : Blackboard.Engine.player array;
  input_indices : int array;
      (** the drawn per-player indices into the entry's domain *)
  output_of : Blackboard.Board.t -> int option;
      (** the tree's output once the board holds a complete transcript;
          [None] while the run is unfinished (e.g. a stalled async
          emulation) *)
}

val hosted : entry -> seed:int -> hosted
(** Engine-hosted form, the one board executor of registry trees,
    runnable unchanged under {!Blackboard.Engine.run} or the
    asynchronous [Netsim] board emulation. Inputs are the first
    [players] draws of [Rng.of_int_seed seed]; chance coins come from
    [Runtime.public_rng ~seed] in walk order, messages from the
    speaker's [Runtime.private_rngs ~seed] stream, each charged
    fixed-width [ceil(log2 arity)] bits. Two runtimes that call [speak]
    in the same order produce byte-identical boards.

    The schedule is a resumable cursor over the tree, cached per
    write-list prefix ({!Blackboard.Board.rev_writes}): a board that
    extends a cached prefix (the same board later, or an
    [uncharged_fork] of it) decodes only its new writes, so a step
    costs the same at every slot; any other board resumes from its
    deepest cached prefix. The players hold private-randomness state:
    one hosted value drives {e one} run.
    @raise Invalid_argument when [speak] is called out of turn. *)

type run = {
  output : int;
  board : Blackboard.Board.t;
  input_indices : int array;
      (** per-player index into the entry's input domain *)
  msg_rounds : int;  (** Speak nodes traversed (coins excluded) *)
}

val run_on_board : entry -> seed:int -> run
(** Trace run mode: {!hosted} driven by {!Blackboard.Engine.run} in a
    ["registry/<name>"] span, bumping the [registry.runs] and
    [registry.msg_rounds] metrics. Writes carry the engine's empty
    label; the summed traced [Broadcast] bits equal the board's. *)

(** Reference executors for differential tests. *)
module For_testing : sig
  val hosted : entry -> seed:int -> hosted
  (** The stateless reference form of {!hosted}: every call walks the
      board from the root with a fresh public stream. Same boards,
      quadratic in slots. *)

  val run_compiled : entry -> seed:int -> run
  (** {!run_on_board}'s run on {!Proto.Compile.exec}, compiled afresh
      and fed from the same streams; held {!Blackboard.Board.equal} to
      it by the E2S [compiled_identical_all] gate. *)
end

val spec_output : entry -> input_indices:int array -> int option
(** The entry's declared reference output on the input profile named by
    domain indices, when a spec is declared. *)

val register : entry -> unit
(** Add a protocol to the sweep.
    @raise Invalid_argument on a duplicate name. *)

val all : unit -> entry list
(** Built-in entries first, then registrations in order. *)

val names : unit -> string list
val find : string -> entry option
