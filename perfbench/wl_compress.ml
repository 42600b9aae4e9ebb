(* compress — Section 6 and Thm 3: one-shot versus amortized
   compression (E5/E6/E7/E12).

   Ops, in one pass:
   - [Oneshot.expected_bits_exact], interactive and omniscient, on E12's
     product law for sequential AND_k (each player holds 0 with
     probability 1/k), k = 2..11;
   - [Oneshot.interactive] / [omniscient] runs for k = 3, 6, 9 on one
     input per first-zero position, so every transcript length is
     coded;
   - literal [Amortized.compress_random] on sequential AND_4 under the
     hard mu, copies 1..16, and [compress_random_factored] up to 512
     copies; one op per copy count runs six (literal) or two (factored)
     seeds;
   - [Point_sampler.transmit] + [decode] rounds as E7 runs them (u = 256,
     eps = 0.01, a concentrated eta against a uniform nu); one op runs a
     round at each of E7's seven etas.

   Grouping several draws into one op keeps each op's cost from hinging
   on a single draw, so the latency percentiles hold across seeds.

   Checks: every coded expectation is at least H(T) (no uniquely
   decodable code beats the entropy; H(T) from the first-zero closed
   form); sampled runs report [decoded_ok]; literal amortized runs
   report [agreed]; every amortized copy outputs the AND of its inputs;
   the point-sampler decoder returns the sent symbol. [comm_bits] is
   the sum of coded bits of the sampled runs.

   The seed draws the sampled inputs, the amortized and factored seeds
   and the point-sampler streams. *)

module R = Exact.Rational
module O = Compress.Oneshot
module Am = Compress.Amortized
module Ps = Compress.Point_sampler

(* E12's product law: each of k players holds 0 with probability 1/k. *)
let product_mu k =
  Prob.Dist_exact.iid k
    (Prob.Dist_exact.of_weighted [ (0, R.of_ints 1 k); (1, R.of_ints (k - 1) k) ])

(* H(T) of sequential AND_k under [product_mu k]: T is the first zero,
   P[T = j] = q (1-q)^j for j < k, and (1-q)^k for no zero. *)
let entropy_closed k =
  let q = 1. /. float_of_int k in
  let h = ref 0. in
  let plogp p = if p > 0. then h := !h -. (p *. Float.log2 p) in
  for j = 0 to k - 1 do
    plogp (q *. ((1. -. q) ** float_of_int j))
  done;
  plogp ((1. -. q) ** float_of_int k);
  !h

let concentrated ~u ~p0 =
  let rest = (1. -. p0) /. float_of_int (u - 1) in
  Array.init u (fun i -> if i = 0 then p0 else rest)

let and_ok (run : Am.run) inputs =
  Array.length run.outputs = Array.length inputs
  && Array.for_all2
       (fun out x -> out = Protocols.Hard_dist.and_fn x)
       run.outputs inputs

let setup ~seed =
  let rng = Op.rng ~seed "compress" in
  let exact =
    List.concat_map
      (fun k ->
        let tree = Protocols.And_protocols.sequential k in
        let mu = product_mu k in
        let h = entropy_closed k in
        List.map
          (fun single_stream ->
            Op.make
              (Printf.sprintf "exact/%s/k=%d"
                 (if single_stream then "omniscient" else "interactive") k)
              (fun () ->
                let bits =
                  Layers.call "compress.oneshot_exact" (fun () ->
                      O.expected_bits_exact ~single_stream ~tree ~mu)
                in
                Op.outcome (Float.is_finite bits && bits >= h -. 1e-9)))
          [ false; true ])
      [ 2; 3; 4; 5; 6; 7; 8; 9; 10; 11 ]
  in
  let sampled =
    List.concat_map
      (fun k ->
        let tree = Protocols.And_protocols.sequential k in
        let mu = product_mu k in
        (* One input per first-zero position j (j = k: all ones), so
           every transcript length is coded; the seed draws the bits
           after the first zero. *)
        List.concat_map
          (fun j ->
            let inputs =
              Array.init k (fun i ->
                  if i < j then 1 else if i = j then 0 else Prob.Rng.int rng 2)
            in
            let s = Op.sub_seed ~seed ("oneshot", k, j) in
            List.map
              (fun (name, run) ->
                Op.make (Printf.sprintf "run/%s/k=%d/j=%d" name k j) (fun () ->
                    let r =
                      Layers.call "compress.oneshot_run" (fun () ->
                          run ~seed:s ~tree ~mu ~inputs)
                    in
                    Op.outcome ~bits:(float_of_int r.O.bits) r.O.decoded_ok))
              [ ("interactive", O.interactive); ("omniscient", O.omniscient) ])
          (List.init (k + 1) Fun.id))
      [ 3; 6; 9 ]
  in
  let k = 4 in
  let tree = Protocols.And_protocols.sequential k in
  let mu = Protocols.Hard_dist.mu_and ~k in
  (* One op per copy count, summing several seeds, so an op's cost does
     not hinge on one draw of inputs. *)
  let amortized_op ~layer ~name ~seeds ~copies compress check =
    Op.make (Printf.sprintf "%s/copies=%d" name copies) (fun () ->
        List.fold_left
          (fun (acc : Op.outcome) i ->
            let s = Op.sub_seed ~seed (name, copies, i) in
            let run, inputs =
              Layers.call layer (fun () -> compress ~seed:s ~tree ~mu ~copies)
            in
            Op.outcome
              ~bits:(acc.bits +. float_of_int run.Am.total_bits)
              (acc.ok && check run && and_ok run inputs))
          (Op.outcome true) (List.init seeds Fun.id))
  in
  let amortized =
    List.map
      (fun copies ->
        amortized_op ~layer:"compress.amortized" ~name:"amortized" ~seeds:6 ~copies
          (fun ~seed ~tree ~mu ~copies -> Am.compress_random ~seed ~tree ~mu ~copies ())
          (fun run -> run.agreed))
      [ 1; 2; 4; 8; 12; 16 ]
  in
  let factored =
    List.map
      (fun copies ->
        amortized_op ~layer:"compress.amortized_factored" ~name:"factored" ~seeds:2
          ~copies
          (fun ~seed ~tree ~mu ~copies ->
            Am.compress_random_factored ~seed ~tree ~mu ~copies ())
          (fun _ -> true))
      [ 16; 32; 64; 128; 256; 512 ]
  in
  let u = 256 and eps = 0.01 in
  let nu = Array.make u (1. /. float_of_int u) in
  let max_blocks = Ps.default_max_blocks eps in
  (* One op is one round at each eta of E7's sweep. *)
  let etas =
    List.map (fun p0 -> concentrated ~u ~p0) [ 0.01; 0.1; 0.3; 0.6; 0.9; 0.99; 0.9999 ]
  in
  let point =
    List.init 40 (fun i ->
        Op.make (Printf.sprintf "point/%d" i) (fun () ->
            List.fold_left
              (fun (acc : Op.outcome) (j, eta) ->
                let s = Op.sub_seed ~seed ("point", j, i) in
                let round = Prob.Rng.split (Prob.Rng.of_int_seed s) in
                let dec = Prob.Rng.copy round in
                let w = Coding.Bitbuf.Writer.create () in
                let res =
                  Layers.call "compress.point_sampler" (fun () ->
                      Ps.transmit ~rng:round ~eta ~nu ~eps w)
                in
                let decoded =
                  Layers.call "compress.point_sampler" (fun () ->
                      Ps.decode ~rng:dec ~nu ~u ~max_blocks
                        (Coding.Bitbuf.Reader.of_writer w))
                in
                Op.outcome
                  ~bits:(acc.bits +. float_of_int res.bits)
                  (acc.ok && decoded = res.sent))
              (Op.outcome true)
              (List.mapi (fun j eta -> (j, eta)) etas)))
  in
  exact @ sampled @ amortized @ factored @ point
