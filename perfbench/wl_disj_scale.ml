(* disj_scale — the operational side of Thm 2 (E2/E2S).

   Ops, in one pass:
   - [Disj_batched.solve], [Disj_naive.solve] and [Disj_trivial.solve]
     over E2's (n, k) grid up to n = 65536, each on one disjoint
     ([random_disjoint_single_zero]) and one intersecting
     ([random_intersecting]) instance;
   - [Subset_codec.write] / [read] round trips at the same sizes
     (z = n, m = ceil(n / k), the first batch of the Section-5
     protocol): two subsets per size, both written before either is
     read, so the first read misses the codec's one-slot decode memo
     and the second hits it, as in a protocol cycle;
   - [Compile.exec_sweep ~domains:1] over the full input cube of every
     deterministic registry tree with a spec, and of the n = 2 DISJ
     trees for k = 4..8.

   Checks: the answer equals [Disj_common.disjoint] of the instance
   (computed in set-up); [read] returns the subset written; VM outputs
   equal [Registry.spec_output] on every profile (also computed in
   set-up). [comm_bits] is the board bits of the solver runs.

   The seed draws the instances and the subsets. Set-up builds the
   instances, the subsets, the compiled programs, the input cubes and
   the reference outputs. E2's (16384, 1024) row is left out: its
   instance alone is 16M words. *)

module Dc = Protocols.Disj_common
module Reg = Protocols.Registry

let grid =
  [
    (256, 4); (256, 16); (256, 64);
    (1024, 4); (1024, 16); (1024, 64); (1024, 256);
    (4096, 16); (4096, 64); (4096, 256);
    (16384, 16); (16384, 64);
    (65536, 16);
  ]

let solvers =
  [
    ("batched", "protocols.disj_batched",
     fun inst -> (Protocols.Disj_batched.solve inst).Protocols.Disj_batched.result);
    ("naive", "protocols.disj_naive", Protocols.Disj_naive.solve);
    ("trivial", "protocols.disj_trivial", Protocols.Disj_trivial.solve);
  ]

(* A uniformly random m-subset of [0, z), increasing. *)
let random_subset rng ~z ~m =
  let a = Array.init z (fun i -> i) in
  for i = 0 to m - 1 do
    let j = i + Prob.Rng.int rng (z - i) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  List.sort compare (Array.to_list (Array.sub a 0 m))

(* Every profile of [players] inputs over a [d]-point domain. *)
let cube ~players ~d =
  let total = int_of_float (float_of_int d ** float_of_int players) in
  Array.init total (fun c ->
      let x = ref c in
      Array.init players (fun _ ->
          let v = !x mod d in
          x := !x / d;
          v))

let vm_entries () =
  let domain2 = Array.of_list (Proto.Semantics.all_bit_inputs 2) in
  let registry =
    List.filter
      (fun (Reg.Entry e) ->
        e.spec <> None
        && float_of_int (Array.length e.domain) ** float_of_int e.players <= 4096.)
      (Reg.all ())
  in
  let disj =
    List.concat_map
      (fun k ->
        List.map
          (fun (name, mk) ->
            Reg.entry ~name:(Printf.sprintf "%s/k=%d" name k) ~players:k
              ~spec:Protocols.Hard_dist.disj_fn ~domain:domain2
              (lazy (mk k)))
          [
            ("disj/seq", fun k -> Protocols.Disj_trees.sequential ~n:2 ~k);
            ("disj/bcast", fun k -> Protocols.Disj_trees.broadcast_all ~n:2 ~k);
          ])
      [ 4; 5; 6; 7 ]
  in
  registry @ disj

let setup ~seed =
  let rng = Op.rng ~seed "disj_scale" in
  let solve_ops =
    List.concat_map
      (fun (n, k) ->
        List.concat_map
          (fun (kind, inst) ->
            let truth = Dc.disjoint inst in
            List.map
              (fun (sname, layer, solve) ->
                Op.make (Printf.sprintf "%s/%s/n=%d/k=%d" sname kind n k) (fun () ->
                    let r = Layers.call layer (fun () -> solve inst) in
                    Op.outcome ~bits:(float_of_int r.Dc.bits)
                      (Checks.disj_answer ~truth r.Dc.answer)))
              solvers)
          [
            ("disjoint", Dc.random_disjoint_single_zero rng ~n ~k);
            ("intersecting", Dc.random_intersecting rng ~n ~k ~witnesses:(1 + Prob.Rng.int rng 4));
          ])
      grid
  in
  let codec_ops =
    List.concat_map
      (fun (n, k) ->
        let z = n and m = (n + k - 1) / k in
        let subsets = Array.init 2 (fun _ -> random_subset rng ~z ~m) in
        let written = Array.make 2 Coding.Bitvec.empty in
        let write i =
          Op.make (Printf.sprintf "codec/write/n=%d/k=%d/%d" n k i) (fun () ->
              let w = Coding.Bitbuf.Writer.create () in
              Layers.call "coding.subset_write" (fun () ->
                  Coding.Subset_codec.write w ~z subsets.(i));
              written.(i) <- Coding.Bitbuf.Writer.freeze w;
              Op.outcome (Coding.Bitvec.length written.(i) = Coding.Subset_codec.code_bits ~z ~m))
        in
        let read i =
          Op.make (Printf.sprintf "codec/read/n=%d/k=%d/%d" n k i) (fun () ->
              let decoded =
                Layers.call "coding.subset_read" (fun () ->
                    Coding.Subset_codec.read (Coding.Bitbuf.Reader.of_vec written.(i)) ~z ~m)
              in
              Op.outcome (Checks.subset_roundtrip ~sent:subsets.(i) ~decoded))
        in
        [ write 0; write 1; read 0; read 1 ])
      grid
  in
  let vm_ops =
    List.filter_map
      (fun (Reg.Entry e as entry) ->
        let tree = Lazy.force e.tree in
        let program =
          Layers.call "proto.compile" (fun () ->
              Proto.Compile.compile ~players:e.players ~domain:e.domain tree)
        in
        if not (Proto.Compile.deterministic program) then None
        else
          let input_indices = cube ~players:e.players ~d:(Array.length e.domain) in
          let expected =
            Array.map
              (fun ix -> Option.get (Reg.spec_output entry ~input_indices:ix))
              input_indices
          in
          Some
            (Op.make ("vm/" ^ Reg.name entry) (fun () ->
                 let got =
                   Layers.call "proto.exec_sweep" (fun () ->
                       Proto.Compile.exec_sweep ~domains:1 program ~input_indices)
                 in
                 Op.note "exec_sweep.profiles" (float_of_int (Array.length input_indices));
                 Op.outcome (Checks.vm_outputs ~expected ~got))))
      (vm_entries ())
  in
  solve_ops @ codec_ops @ vm_ops
