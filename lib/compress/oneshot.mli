(** One-shot transcript compression — and why it cannot work in the
    broadcast model (Section 6, the [Omega(k / log k)] gap), measured.

    Both variants entropy-code each message against the external
    observer's next-message prior [nu] (which every party can compute),
    using the {!Coding.Arith} range coder:

    - {e interactive} — a legal broadcast protocol: each message is
      coded and flushed on the board so everyone can decode it before
      the protocol continues. The flush costs O(1) bits per message, so
      protocols with many low-information messages (sequential [AND_k])
      still pay [Theta(k)].
    - {e omniscient} — a single encoder who knows the whole transcript
      codes it as one stream, reaching [H(T) + O(1)]; not a legal
      protocol. The difference between the two is the paper's one-shot
      gap, made operational. *)

type run = {
  bits : int;
  messages : int;
  decoded_ok : bool;  (** decoder reproduced the exact message sequence *)
}

val interactive :
  seed:int ->
  tree:'a Proto.Tree.t ->
  mu:'a array Prob.Dist_exact.t ->
  inputs:'a array ->
  run
(** Run the protocol on [inputs] (messages and public coins sampled
    from the seed), coding each message in its own flushed stream. *)

val omniscient :
  seed:int ->
  tree:'a Proto.Tree.t ->
  mu:'a array Prob.Dist_exact.t ->
  inputs:'a array ->
  run

val expected_bits :
  (seed:int ->
  tree:'a Proto.Tree.t ->
  mu:'a array Prob.Dist_exact.t ->
  inputs:'a array ->
  run) ->
  seed:int ->
  tree:'a Proto.Tree.t ->
  mu:'a array Prob.Dist_exact.t ->
  samples:int ->
  float * bool
(** Monte-Carlo expectation of a variant's bits over inputs drawn from
    [mu]; the boolean is the conjunction of [decoded_ok]. *)

val expected_bits_exact :
  single_stream:bool -> tree:'a Proto.Tree.t -> mu:'a array Prob.Dist_exact.t -> float
(** Exact expectation: the coders are deterministic given the message
    sequence, so this is a finite sum over the transcript law
    ([single_stream = true] is the omniscient variant). At each [Speak]
    node the observer's prior is read off the same law as a ratio of
    prefix masses, [nu(m) = p(prefix . m) / p(prefix)] — the exact
    rational {!Observer.speak_view} computes, so the result is
    bit-identical to replaying an observer along every transcript. *)

(** The per-transcript observer replay that {!expected_bits_exact}
    superseded, kept as its differential reference, and the production
    events to hold against it. *)
module For_testing : sig
  val prefix_mass_events :
    tree:'a Proto.Tree.t ->
    mu:'a array Prob.Dist_exact.t ->
    (Proto.Tree.transcript * (float array * int) list) list
  (** Every transcript of the law (in [Dist_exact.to_alist] order) with
      the (prior, message) events {!expected_bits_exact} codes. *)

  val replay_events :
    tree:'a Proto.Tree.t ->
    mu:'a array Prob.Dist_exact.t ->
    Proto.Tree.transcript ->
    (float array * int) list
  (** The same events for one transcript, from a fresh {!Observer}
      replayed from the root. *)

  val expected_bits_replay :
    single_stream:bool ->
    tree:'a Proto.Tree.t ->
    mu:'a array Prob.Dist_exact.t ->
    float
  (** {!expected_bits_exact} by per-transcript observer replay. *)
end
