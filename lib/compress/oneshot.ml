(** One-shot transcript compression — and why it cannot work in the
    broadcast model (Section 6, the [Omega(k / log k)] gap), measured.

    Every party can compute the external observer's next-message prior
    [nu] (footnote 3), so a natural one-shot scheme is entropy coding:
    each speaker arithmetic-codes its message against [nu]. Two
    variants:

    - {e interactive} (a legal broadcast protocol): each message is
      coded and {e flushed} on the board so the other players can decode
      it before the protocol continues. The flush costs O(1) bits per
      message, so a protocol with many low-information messages — the
      sequential [AND_k], whose [k] messages carry [O(log k)] bits in
      total — still pays [Theta(k)]. This is the mechanism behind the
      impossibility: fractional bits cannot be pooled across speakers.
    - {e omniscient} (not a legal protocol): a single encoder who knows
      the whole transcript codes it as one arithmetic stream, reaching
      [H(T) + O(1)] bits — which for deterministic protocols equals
      [IC + O(1)]. The gap between the two variants is the paper's gap.

    Both variants are decoded and verified against the true message
    sequence. *)

module D = Prob.Dist_exact

type run = {
  bits : int;
  messages : int;
  decoded_ok : bool;  (** decoder reproduced the exact message sequence *)
}

(* Execute the protocol on [inputs], sampling randomized messages and
   public coins from [rng]; return the per-round (nu, message) pairs by
   driving an observer alongside. *)
let execute ~rng ~tree ~mu ~inputs =
  let events = ref [] in
  let obs = ref (Observer.create tree mu) in
  let continue = ref true in
  while !continue do
    match Observer.chance_view !obs with
    | Some law ->
        let c = Factored_sampler.sample_from rng law in
        obs := Observer.advance_coin !obs c
    | None -> (
        match Observer.speak_view !obs with
        | Some (speaker, _, nu) ->
            let eta = Observer.speaker_eta !obs inputs.(speaker) in
            let m = Factored_sampler.sample_from rng eta in
            events := (nu, m) :: !events;
            obs := Observer.advance_msg !obs m
        | None -> continue := false)
  done;
  List.rev !events

(** Interactive per-message coding: fresh arithmetic encoder per
    message, flushed immediately — a legal broadcast protocol. *)
let interactive ~seed ~tree ~mu ~inputs =
  let rng = Prob.Rng.of_int_seed seed in
  let events = execute ~rng ~tree ~mu ~inputs in
  let total = ref 0 in
  let ok = ref true in
  List.iter
    (fun (nu, m) ->
      let freqs = Coding.Arith.freqs_of_probs nu in
      let w = Coding.Bitbuf.Writer.create () in
      let enc = Coding.Arith.Encoder.create w in
      Coding.Arith.Encoder.encode enc ~freqs m;
      Coding.Arith.Encoder.finish enc;
      total := !total + Coding.Bitbuf.Writer.length w;
      let dec = Coding.Arith.Decoder.create (Coding.Bitbuf.Reader.of_writer w) in
      if Coding.Arith.Decoder.decode dec ~freqs <> m then ok := false)
    events;
  { bits = !total; messages = List.length events; decoded_ok = !ok }

(** Omniscient single-stream coding: one encoder over the whole
    transcript — reaches [H(T) + O(1)] but is not a broadcast
    protocol. *)
let omniscient ~seed ~tree ~mu ~inputs =
  let rng = Prob.Rng.of_int_seed seed in
  let events = execute ~rng ~tree ~mu ~inputs in
  let w = Coding.Bitbuf.Writer.create () in
  let enc = Coding.Arith.Encoder.create w in
  let tables =
    List.map
      (fun (nu, m) ->
        let freqs = Coding.Arith.freqs_of_probs nu in
        Coding.Arith.Encoder.encode enc ~freqs m;
        (freqs, m))
      events
  in
  Coding.Arith.Encoder.finish enc;
  let dec = Coding.Arith.Decoder.create (Coding.Bitbuf.Reader.of_writer w) in
  let ok =
    List.for_all
      (fun (freqs, m) -> Coding.Arith.Decoder.decode dec ~freqs = m)
      tables
  in
  { bits = Coding.Bitbuf.Writer.length w; messages = List.length events; decoded_ok = ok }

(** Expected bits of either variant under [mu], by averaging over
    sampled inputs. *)
let expected_bits variant ~seed ~tree ~mu ~samples =
  let sampler = Prob.Sampler.create (D.to_float_dist mu) in
  let rng = Prob.Rng.of_int_seed (seed lxor 0x9E3779B9) in
  let total = ref 0 in
  let all_ok = ref true in
  for i = 1 to samples do
    let inputs = Prob.Sampler.draw sampler rng in
    let r = variant ~seed:(seed + (i * 131)) ~tree ~mu ~inputs in
    total := !total + r.bits;
    if not r.decoded_ok then all_ok := false
  done;
  (float_of_int !total /. float_of_int samples, !all_ok)

module R = Exact.Rational
module T = Proto.Tree

let mismatch () = invalid_arg "Oneshot: transcript does not match tree"

(* The (nu, message) events of every transcript of [law], in one pass
   over the tree, returned in [D.to_alist law] order with each
   transcript and its probability.

   With p(prefix) the law's mass on the transcripts extending a prefix,
   the observer's prior at a [Speak] node is the prefix-mass ratio
   nu(m) = p(prefix . Msg m) / p(prefix). That is the same exact
   rational as {!Observer.speak_view}'s posterior mixture, whose
   weights differ from these masses only by the public-coin factors
   common to every child, so every float [nu] is the same too.

   The entries through a node are grouped by their next event and the
   walk returns the subtree's mass, so each node's masses are summed
   once, bottom up. A node's [nu] array is shared by every transcript
   through it and filled once its children's masses are known; the
   events are read only after the walk. *)
let events_of_law ~tree law =
  let entries = Array.of_list (D.to_alist law) in
  let events = Array.make (Array.length entries) [] in
  let group arity members key =
    let buckets = Array.make arity [] in
    List.iter
      (fun (i, rest) ->
        match rest with
        | e :: rest ->
            let c = key e in
            if c < 0 || c >= arity then mismatch ();
            buckets.(c) <- (i, rest) :: buckets.(c)
        | [] -> mismatch ())
      members;
    buckets
  in
  (* [members] are the entries through [node], each with the rest of
     its transcript; [rev_events] is the path's events, newest first.
     Returns the members' total mass. *)
  let rec walk node rev_events members =
    match node with
    | T.Output _ ->
        List.fold_left
          (fun acc (i, rest) ->
            if rest <> [] then mismatch ();
            events.(i) <- rev_events;
            R.add acc (snd entries.(i)))
          R.zero members
    | T.Chance { children; _ } ->
        let buckets =
          group (Array.length children) members (function
            | T.Coin c -> c
            | T.Msg _ -> mismatch ())
        in
        Array.fold_left R.add R.zero
          (Array.mapi (fun c b -> descend children.(c) rev_events b) buckets)
    | T.Speak { speaker; children; _ } ->
        let arity = Array.length children in
        let buckets =
          group arity members (function
            | T.Msg (s, m) when s = speaker -> m
            | _ -> mismatch ())
        in
        let nu = Array.make arity 0. in
        let mass =
          Array.mapi
            (fun m b -> descend children.(m) ((nu, m) :: rev_events) b)
            buckets
        in
        let total = Array.fold_left R.add R.zero mass in
        Array.iteri (fun m w -> nu.(m) <- R.to_float (R.div w total)) mass;
        total
  and descend child rev_events = function
    | [] -> R.zero
    | members -> walk child rev_events members
  in
  ignore
    (walk tree [] (Array.to_list (Array.mapi (fun i (t, _) -> (i, t)) entries)));
  Array.to_list
    (Array.mapi (fun i (t, p) -> (t, p, List.rev events.(i))) entries)

let code_events ~single_stream events =
  if single_stream then begin
    let w = Coding.Bitbuf.Writer.create () in
    let enc = Coding.Arith.Encoder.create w in
    List.iter
      (fun (nu, m) ->
        Coding.Arith.Encoder.encode enc ~freqs:(Coding.Arith.freqs_of_probs nu) m)
      events;
    Coding.Arith.Encoder.finish enc;
    Coding.Bitbuf.Writer.length w
  end
  else
    List.fold_left
      (fun acc (nu, m) ->
        let w = Coding.Bitbuf.Writer.create () in
        let enc = Coding.Arith.Encoder.create w in
        Coding.Arith.Encoder.encode enc
          ~freqs:(Coding.Arith.freqs_of_probs nu) m;
        Coding.Arith.Encoder.finish enc;
        acc + Coding.Bitbuf.Writer.length w)
      0 events

(** Exact expected bits of either variant under [mu]: the coders are
    deterministic given the message sequence, so the expectation is a
    finite sum over the transcript law — no sampling, no seed.
    [single_stream = true] is the omniscient variant, [false] the
    interactive one. The observer priors come from the law itself
    ({!events_of_law}); no {!Observer} is replayed. *)
let expected_bits_exact ~single_stream ~tree ~mu =
  let law = Proto.Semantics.transcript_law tree mu in
  List.fold_left
    (fun acc (_, p, events) ->
      acc
      +. R.to_float p *. float_of_int (code_events ~single_stream events))
    0. (events_of_law ~tree law)

module For_testing = struct
  let prefix_mass_events ~tree ~mu =
    List.map
      (fun (t, _, events) -> (t, events))
      (events_of_law ~tree (Proto.Semantics.transcript_law tree mu))

  (* Replay a fixed transcript through a fresh observer from the root,
     producing the (nu, message) event sequence the coders consume. *)
  let replay_events ~tree ~mu transcript =
    let obs = ref (Observer.create tree mu) in
    List.filter_map
      (fun event ->
        match event with
        | T.Coin c ->
            obs := Observer.advance_coin !obs c;
            None
        | T.Msg (_, m) ->
            let nu =
              match Observer.speak_view !obs with
              | Some (_, _, nu) -> nu
              | None -> mismatch ()
            in
            obs := Observer.advance_msg !obs m;
            Some (nu, m))
      transcript

  let expected_bits_replay ~single_stream ~tree ~mu =
    let law = Proto.Semantics.transcript_law tree mu in
    List.fold_left
      (fun acc (transcript, p) ->
        let events = replay_events ~tree ~mu transcript in
        acc
        +. R.to_float p
           *. float_of_int (code_events ~single_stream events))
      0. (D.to_alist law)
end
