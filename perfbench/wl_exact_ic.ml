(* exact_ic — the paper's headline numbers (Thm 1, E1/E1b/E1c).

   Ops, in one pass:
   - direct engine ([Information.{external_ic,conditional_ic,
     transcript_entropy}], one fresh [Semantics.memo] per (protocol, k))
     for sequential, broadcast-all and noisy AND_k at k <= 10, and the
     E1b zero-probability ablation;
   - orbit engine ([*_orbit] on [Hard_dist.mu_and_orbit] /
     [mu_and_aux_slices], one fresh [Orbit.memo] per (protocol, k)) for
     k = 12..24, plus k = 6, 8, 10 where the direct engine also runs;
   - [Infoflow.analyze] on every enumerable registry entry, checked
     against the direct engine's IC under the same uniform product law.

   Checks: orbit equals direct within 1e-12 where both run, except
   that the sequential witness's IC = H(T) and CIC are held on both
   engines to E1c's first-zero closed forms instead; values with no reference lie in [0, CC]; every exact IC lies
   inside its Infoflow bracket. [comm_bits] is the sum of the
   information values computed (bits of information).

   The seed picks the noisy protocol's lie probability, the ablation's
   zero probability and the order of the query groups. Laws and trees
   are built in setup; memos are fresh per group, because a CLI user
   pays them on every invocation. *)

module R = Exact.Rational
module I = Proto.Information
module H = Protocols.Hard_dist
module A = Protocols.And_protocols

(* E1c closed forms for the sequential witness under mu (q = 1/k). *)
let plogp p = if R.is_zero p then 0.0 else -.R.to_float p *. R.log2 p

let ic_closed k =
  let q = R.of_ints 1 k in
  let r = R.sub R.one q in
  let acc = ref 0.0 in
  for j = 0 to k - 1 do
    let p_j =
      R.div_int (R.mul (R.pow r j) (R.add R.one (R.mul_int q (k - 1 - j)))) k
    in
    acc := !acc +. plogp p_j
  done;
  !acc

let cic_closed k =
  let q = R.of_ints 1 k in
  let r = R.sub R.one q in
  let acc = ref 0.0 in
  for z = 0 to k - 1 do
    let h = ref (plogp (R.pow r z)) in
    for j = 0 to z - 1 do
      h := !h +. plogp (R.mul q (R.pow r j))
    done;
    acc := !acc +. (!h /. float_of_int k)
  done;
  !acc

(* What a computed value is checked against. *)
type reference =
  | Closed of float  (** closed form *)
  | Engine of float option ref  (** the direct engine, earlier this pass *)
  | Range of float  (** only [0 <= v <= cc] is known *)

let check v = function
  | Closed r -> Op.outcome ~bits:v ~err:(Float.abs (v -. r)) (Checks.close v r)
  | Engine cell -> (
      match !cell with
      | None -> Op.outcome ~bits:v false
      | Some r ->
          cell := None;
          Op.outcome ~bits:v ~err:(Float.abs (v -. r)) (Checks.close v r))
  | Range cc ->
      Op.outcome ~bits:v
        (v >= -.Checks.ic_tolerance && v <= cc +. Checks.ic_tolerance)

type 'm query = {
  qname : string;
  eval : 'm -> float;
  reference : reference;
  publish : float option ref option;  (** hand the value to the other engine *)
}

(* One (protocol, k) group of queries sharing a memo that the group's
   first op creates; the last op records the memo's final size. *)
let group ~layer ~fresh ~size ~counter label queries =
  let memo = ref None in
  let last = List.length queries - 1 in
  List.mapi
    (fun i q ->
      Op.make (label ^ "/" ^ q.qname) (fun () ->
          if i = 0 then memo := Some (fresh ());
          let m = Option.get !memo in
          let v = Layers.call layer (fun () -> q.eval m) in
          Option.iter (fun c -> c := Some v) q.publish;
          if i = last then Op.note counter (float_of_int (size m));
          check v q.reference))
    queries

let shuffle rng l =
  let a = Array.of_list l in
  Prob.Rng.shuffle rng a;
  Array.to_list a

let direct_group = group ~layer:"proto.semantics_ic" ~fresh:Proto.Semantics.memo
    ~size:Proto.Semantics.memo_size ~counter:"proto.semantics_memo_entries"

let orbit_group = group ~layer:"proto.orbit_ic" ~fresh:Proto.Orbit.memo
    ~size:Proto.Orbit.memo_size ~counter:"proto.orbit_memo_states"

let setup ~seed =
  let rng = Op.rng ~seed "exact_ic" in
  let noise = R.of_ints 1 (45 + Prob.Rng.int rng 11) in
  let p_zero k = R.of_ints 1 (k + 1 + Prob.Rng.int rng 4) in
  let hard f = Layers.call "protocols.hard_dist" f in
  let cells = Hashtbl.create 64 in
  let cell key =
    match Hashtbl.find_opt cells key with
    | Some c -> c
    | None ->
        let c = ref None in
        Hashtbl.replace cells key c;
        c
  in
  let overlap = [ 6; 8; 10 ] in
  (* protocol, tree, direct k range, orbit k list *)
  let families =
    [
      ("seq", (fun k -> A.sequential k), 10, overlap @ [ 12; 14; 16; 20; 24 ]);
      ("bcast", (fun k -> A.broadcast_all k), 10, overlap);
      ("noisy", (fun k -> A.noisy_sequential ~k ~noise), 6, [ 6; 8; 10 ]);
    ]
  in
  let closed fam m k =
    match (fam, m) with
    | "seq", ("ic" | "h") -> Some (ic_closed k)
    | "seq", "cic" -> Some (cic_closed k)
    | _ -> None
  in
  let query ~engine fam k tree (m, eval) =
    let key = (fam, m, k) in
    let has_direct =
      List.exists (fun (f, _, kmax, _) -> f = fam && k <= kmax) families
    in
    let has_orbit =
      List.exists (fun (f, _, _, ks) -> f = fam && List.mem k ks) families
    in
    let range = Range (float_of_int (Proto.Tree.communication_cost tree)) in
    let reference, publish =
      match closed fam m k with
      | Some r -> (Closed r, None)
      | None when engine = `Direct && has_orbit -> (range, Some (cell key))
      | None when engine = `Orbit && has_direct -> (Engine (cell key), None)
      | None -> (range, None)
    in
    { qname = m; eval; reference; publish }
  in
  let direct =
    List.concat_map
      (fun (fam, mk, kmax, _) ->
        List.init (kmax - 1) (fun i ->
            let k = i + 2 in
            let tree = mk k in
            let mu = hard (fun () -> H.mu_and ~k) in
            let mu_aux = hard (fun () -> H.mu_and_with_aux ~k) in
            direct_group (Printf.sprintf "direct/%s/k=%d" fam k)
              (List.map (query ~engine:`Direct fam k tree)
                 [
                   ("ic", fun memo -> I.external_ic ~memo tree mu);
                   ("cic", fun memo -> I.conditional_ic ~memo tree mu_aux);
                   ("h", fun memo -> I.transcript_entropy ~memo tree mu);
                 ])))
      families
  in
  let orbit =
    List.concat_map
      (fun (fam, mk, _, ks) ->
        List.map
          (fun k ->
            let tree = mk k in
            let mu = hard (fun () -> H.mu_and_orbit ~k) in
            let slices = hard (fun () -> H.mu_and_aux_slices ~k) in
            orbit_group (Printf.sprintf "orbit/%s/k=%d" fam k)
              (List.map (query ~engine:`Orbit fam k tree)
                 [
                   ("ic", fun memo -> I.external_ic_orbit ~memo tree mu);
                   ("cic", fun memo -> I.conditional_ic_orbit ~memo tree slices);
                   ("h", fun memo -> I.transcript_entropy_orbit ~memo tree mu);
                 ]))
          ks)
      families
  in
  (* E1b ablation: CIC of the sequential witness under a zero
     probability other than the paper's 1/k, on both engines. *)
  let ablation =
    List.concat_map
      (fun k ->
        let tree = A.sequential k in
        let p_zero = p_zero k in
        let c = ref None in
        let cc = float_of_int k in
        let orbit_slices = hard (fun () -> H.mu_and_aux_slices_p ~k ~p_zero) in
        let orbit =
          orbit_group (Printf.sprintf "ablation/orbit/k=%d" k)
            [
              {
                qname = "cic";
                eval = (fun memo -> I.conditional_ic_orbit ~memo tree orbit_slices);
                reference = (if k <= 10 then Engine c else Range cc);
                publish = None;
              };
            ]
        in
        if k > 10 then [ orbit ]
        else
          let mu_aux = hard (fun () -> H.mu_and_with_aux_p ~k ~p_zero) in
          [
            direct_group (Printf.sprintf "ablation/direct/k=%d" k)
              [
                {
                  qname = "cic";
                  eval = (fun memo -> I.conditional_ic ~memo tree mu_aux);
                  reference = Range cc;
                  publish = Some c;
                };
              ];
            orbit;
          ])
      [ 4; 6; 8; 12; 16 ]
  in
  (* Infoflow brackets of the registry entries. *)
  let infoflow =
    List.filter_map
      (fun (Protocols.Registry.Entry e as entry) ->
        let d = Array.length e.domain in
        if float_of_int d ** float_of_int e.players > 4096. then None
        else
          let tree = Lazy.force e.tree in
          let mu =
            Prob.Dist_exact.product_array
              (Array.make e.players (Prob.Dist_exact.uniform (Array.to_list e.domain)))
          in
          let exact = ref None in
          let name = Protocols.Registry.name entry in
          Some
            (direct_group ("infoflow-ref/" ^ name)
               [
                 {
                   qname = "ic";
                   eval = (fun memo -> I.external_ic ~memo tree mu);
                   reference = Range (float_of_int (Proto.Tree.communication_cost tree));
                   publish = Some exact;
                 };
               ]
            @ [
                Op.make ("infoflow/" ^ name) (fun () ->
                    let a =
                      Layers.call "analysis.infoflow" (fun () ->
                          Analysis.Infoflow.analyze ~players:e.players ~domain:e.domain tree)
                    in
                    let lo = R.to_float a.Analysis.Infoflow.external_ic.lo
                    and hi = R.to_float a.external_ic.hi in
                    match !exact with
                    | None -> Op.outcome false
                    | Some v ->
                        exact := None;
                        Op.outcome (Checks.in_bracket ~lo ~hi v));
              ]))
      (Protocols.Registry.all ())
  in
  (* Direct groups run before the orbit groups they feed. *)
  List.concat (shuffle rng direct) @ List.concat (shuffle rng orbit)
  @ List.concat ablation @ List.concat infoflow
