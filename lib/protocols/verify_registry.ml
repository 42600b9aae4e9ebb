(** Proto-verify differential mode: cross-check every registry entry's
    certified guarantees against its executed and declared measures.

    For each entry the verifier runs the abstract interpreter
    ({!Analysis.Absint}) — and, when the entry declares a reference
    [spec], the zero-error certifier ({!Analysis.Certify}) — and then
    checks three independent derivations of the same quantity against
    each other:

    - the certified [\[min, max\]] reachable bit-cost interval must
      contain the bits an actual seeded run charges on the blackboard
      ([Registry.run_on_board], the sync engine driving the same
      [Registry.hosted] executor as the async emulation);
    - the certified worst case must equal the structural
      [Tree.communication_cost] (strictly below it only when proven-dead
      branches carry the structural maximum — reported as advisory);
    - the certified worst case must equal the declared paper bound when
      the entry documents one (e.g. the batched [DISJ] tree's
      Theorem-2-shaped cost).

    Findings are ordinary {!Analysis.Report} diagnostics under the
    [verify-*] rule ids, so the severity and exit policy are shared
    with proto-lint; a {e baseline} file can suppress known-advisory
    findings (demoting them to [Info]) so they do not break CI. *)

module An = Analysis
module Rep = Analysis.Report
module J = Obs.Jsonw

let id_observed_bits = "verify-observed-bits"
let id_cost_interval = "verify-cost-interval"
let id_declared_bound = "verify-declared-bound"
let id_spec = "verify-spec"
let id_inconclusive = "verify-inconclusive"
let id_no_spec = "verify-no-spec"
let id_ic_interval = "verify-ic-interval"
let id_ic_inconclusive = "verify-ic-inconclusive"
let id_ic_unsound = "verify-ic-unsound"
let id_sched_waves = "verify-sched-waves"
let id_sched_divergence = "verify-sched-divergence"
let id_sched_race = "verify-sched-race"
let id_sched_inconclusive = "verify-sched-inconclusive"

let all_rule_ids =
  [
    id_observed_bits;
    id_cost_interval;
    id_declared_bound;
    id_spec;
    id_inconclusive;
    id_no_spec;
    id_ic_interval;
    id_ic_inconclusive;
    id_ic_unsound;
    id_sched_waves;
    id_sched_divergence;
    id_sched_race;
    id_sched_inconclusive;
  ]

type ic_engine =
  zero_error_spec:(int array -> int) option ->
  An.Infoflow.t ->
  (string * Exact.Rational.t) list

type sched_result = {
  depgraph : An.Depgraph.t;
  pipelined_identical : bool option;
      (** fault-free pipelined async board byte-equal to [Engine.run];
          [None] when no certificate exists (nothing to pipeline) *)
  race : string option;  (** the {!Netsim.Hbcheck} failure, if any *)
}

type result = {
  entry : Registry.entry;
  summary : An.Absint.t;
  outcome : An.Certify.outcome option;  (** [None] when no spec *)
  ic : An.Certify.ic_outcome option;  (** [None] unless [~ic:true] *)
  sched : sched_result option;  (** [None] unless [~sched:true] *)
  checked_profiles : int;
  static_cc : int;
  observed_bits : int;
  seed : int;
  report : Rep.t;
  suppressed : int;  (** diagnostics demoted to [Info] by the baseline *)
}

let outcome_label = function
  | None -> "no-spec"
  | Some o -> An.Certify.outcome_label o

(* ------------------------------------------------------------------ *)
(* Baseline suppression                                                *)
(* ------------------------------------------------------------------ *)

let baseline_schema = "broadcast-ic/verify-baseline/v1"

type baseline = { suppress : (string * string) list }
    (* (protocol, rule) pairs; "*" is a wildcard on either side *)

let empty_baseline = { suppress = [] }

let baseline_of_json json =
  match J.member "schema" json with
  | Some (J.String s) when s = baseline_schema -> (
      match J.member "suppress" json with
      | None | Some (J.List []) -> Ok empty_baseline
      | Some (J.List items) ->
          let rec decode acc = function
            | [] -> Ok { suppress = List.rev acc }
            | item :: rest -> (
                match (J.member "protocol" item, J.member "rule" item) with
                | Some (J.String p), Some (J.String r) ->
                    decode ((p, r) :: acc) rest
                | _ ->
                    Error
                      "baseline: each suppress item needs string fields \
                       \"protocol\" and \"rule\"")
          in
          decode [] items
      | Some _ -> Error "baseline: \"suppress\" must be a list")
  | Some (J.String s) ->
      Error (Printf.sprintf "baseline: unknown schema %S (want %S)" s baseline_schema)
  | _ -> Error (Printf.sprintf "baseline: missing schema field (want %S)" baseline_schema)

let load_baseline path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> Error e
  | raw -> (
      match J.of_string raw with
      | Error e -> Error (Printf.sprintf "%s: invalid JSON: %s" path e)
      | Ok json -> baseline_of_json json)

(** Demote matched diagnostics to [Info] (annotated, never dropped:
    the finding stays visible in reports and artifacts, it just stops
    gating). Returns the rewritten report and the number suppressed. *)
let apply_baseline baseline ~protocol report =
  let matches d =
    List.exists
      (fun (p, r) ->
        (p = "*" || p = protocol) && (r = "*" || r = d.Rep.rule))
      baseline.suppress
  in
  let suppressed = ref 0 in
  let report' =
    List.map
      (fun d ->
        if d.Rep.severity <> Rep.Info && matches d then begin
          incr suppressed;
          { d with Rep.severity = Rep.Info;
            message = d.Rep.message ^ " [suppressed by baseline]" }
        end
        else d)
      (Rep.to_list report)
  in
  (Rep.of_list report', !suppressed)

(* ------------------------------------------------------------------ *)
(* Scheduling: pipelining certificate + differential oracle            *)
(* ------------------------------------------------------------------ *)

(** The {!Analysis.Depgraph} wave partition as the plain-array
    certificate {!Netsim.Board_emu} consumes (netsim does not depend on
    the analysis library, so this conversion lives here, where both are
    visible). [None] exactly when the analysis withholds it. *)
let sched_cert dg =
  Option.map
    (fun waves ->
      {
        Netsim.Hbcheck.slots = dg.An.Depgraph.slots;
        reads = Array.map Array.of_list dg.An.Depgraph.reads;
        waves;
      })
    (An.Depgraph.certificate dg)

(* The differential oracle behind [verify-sched-divergence]: a
   fault-free pipelined async run must rebuild the sync engine's board
   byte for byte, with the happens-before checker silent. *)
let sched_differential (Registry.Entry e as entry) ~seed ~cert =
  let f = if e.players > 3 then 1 else 0 in
  let sync_board =
    let h = Registry.hosted entry ~seed in
    match
      Blackboard.Engine.run_result ~k:h.Registry.k ~schedule:h.Registry.schedule
        ~players:h.Registry.players ()
    with
    | Ok o -> Ok o.Blackboard.Engine.board
    | Error err -> Error (Blackboard.Engine.error_message err)
  in
  let async_board =
    let h = Registry.hosted entry ~seed in
    match
      Netsim.Board_emu.run ~k:h.Registry.k ~schedule:h.Registry.schedule
        ~players:h.Registry.players ~cert
        ~config:
          { Netsim.Board_emu.f; seed = (31 * seed) + 7; faults = Netsim.Fault.none }
        ()
    with
    | Ok (Netsim.Board_emu.Delivered { board; _ }) -> Ok board
    | Ok (Netsim.Board_emu.Stalled { reason; delivered_slots; _ }) ->
        Error
          (Printf.sprintf "pipelined run stalled fault-free at slot %d (%s)"
             delivered_slots
             (match reason with
             | Netsim.Board_emu.Speaker_crashed -> "speaker-crashed"
             | Netsim.Board_emu.No_quorum -> "no-quorum"))
    | Error err -> Error (Netsim.Board_emu.error_message err)
    | exception Failure msg -> Error msg
  in
  match (sync_board, async_board) with
  | Ok sb, Ok ab ->
      if Blackboard.Board.equal sb ab then `Identical else `Divergent
  | _, Error msg when String.length msg >= 7 && String.sub msg 0 7 = "hbcheck" ->
      `Race msg
  | Error msg, _ | _, Error msg -> `Failed msg

(* ------------------------------------------------------------------ *)
(* Per-entry verification                                              *)
(* ------------------------------------------------------------------ *)

let verify_entry ?budget ?(seed = 1) ?(baseline = empty_baseline) ?(ic = false)
    ?(sched = false) ?ic_engine (Registry.Entry e as entry) =
  let tree = Lazy.force e.tree in
  let static_cc = Proto.Tree.communication_cost tree in
  let outcome, summary, checked_profiles =
    match e.spec with
    | Some spec ->
        let cert =
          An.Certify.certify ?budget ~players:e.players ~spec
            ~domain:e.domain tree
        in
        (Some cert.An.Certify.outcome, cert.An.Certify.summary,
         cert.An.Certify.checked_profiles)
    | None ->
        (None, An.Absint.analyze ?budget ~players:e.players ~domain:e.domain tree, 0)
  in
  let ic_outcome =
    if not ic then None
    else begin
      (* The rectangle-based lower-bound engines are only sound for a
         tree that provably computes its spec with zero error, so the
         spec is handed over (as a function of domain indices) exactly
         when this very sweep certified it. *)
      let zero_error_spec =
        match (e.spec, outcome) with
        | Some spec, Some An.Certify.Certified ->
            Some
              (fun idxs -> spec (Array.map (fun ix -> e.domain.(ix)) idxs))
        | _ -> None
      in
      let lower =
        match ic_engine with
        | Some engine -> fun flow -> engine ~zero_error_spec flow
        | None -> fun _ -> []
      in
      Some
        (An.Certify.certify_ic ?budget ~players:e.players ~lower
           ~domain:e.domain tree)
    end
  in
  let run = Registry.run_on_board entry ~seed in
  let observed_bits = Blackboard.Board.total_bits run.Registry.board in
  let cost = summary.An.Absint.cost in
  let root = An.Path.root in
  let err rule msg = Rep.diagnostic ~severity:Rep.Error ~rule ~path:root msg in
  let warn rule msg = Rep.diagnostic ~severity:Rep.Warning ~rule ~path:root msg in
  let info rule msg = Rep.diagnostic ~severity:Rep.Info ~rule ~path:root msg in
  let diags = ref [] in
  let push d = diags := d :: !diags in
  if not (An.Absint.mem_interval observed_bits cost) then
    push
      (err id_observed_bits
         (Printf.sprintf
            "executed run (seed %d) charged %d bits, outside the certified \
             interval %s"
            seed observed_bits (An.Absint.interval_to_string cost)));
  if summary.An.Absint.widened then
    push
      (warn id_inconclusive
         (Printf.sprintf
            "node budget exhausted after %d nodes (%d widenings); certified \
             bounds are widened and the output map is incomplete"
            summary.An.Absint.nodes summary.An.Absint.widenings))
  else begin
    if cost.An.Absint.hi > static_cc then
      push
        (err id_cost_interval
           (Printf.sprintf
              "certified worst case %d bits exceeds the structural \
               communication cost %d — the analyzer is unsound or the tree \
               changed underneath it"
              cost.An.Absint.hi static_cc));
    if cost.An.Absint.hi < static_cc then
      push
        (info id_cost_interval
           (Printf.sprintf
              "certified worst case %d bits is below the structural cost %d: \
               %d proven-dead branches carry the structural maximum"
              cost.An.Absint.hi static_cc
              (List.length summary.An.Absint.dead)));
    match e.declared_cost with
    | Some c when c <> cost.An.Absint.hi ->
        push
          (err id_declared_bound
             (Printf.sprintf
                "declared paper bound %d bits but certified worst case is %d"
                c cost.An.Absint.hi))
    | _ -> ()
  end;
  (match outcome with
  | None ->
      push
        (info id_no_spec
           "no reference spec declared; output correctness not certified")
  | Some An.Certify.Certified -> ()
  | Some (An.Certify.Refuted cex) ->
      push
        (Rep.diagnostic ~severity:Rep.Error ~rule:id_spec
           ~path:cex.An.Certify.at_leaf
           (Printf.sprintf "spec refuted: %s"
              (An.Certify.counterexample_to_string cex)))
  | Some (An.Certify.Inconclusive reason) ->
      push (warn id_inconclusive ("certification inconclusive: " ^ reason)));
  (match ic_outcome with
  | None -> ()
  | Some (An.Certify.Ic_certified c) ->
      let engines =
        match c.An.Certify.lower_bounds with
        | [] -> ""
        | lbs ->
            Printf.sprintf " (lower-bound engines: %s)"
              (String.concat ", "
                 (List.map
                    (fun (n, b) ->
                      Printf.sprintf "%s=%s" n (Exact.Rational.to_string b))
                    lbs))
      in
      push
        (info id_ic_interval
           (Printf.sprintf
              "external information cost certified in %s bits, internal in \
               %s%s"
              (An.Infoflow.bound_to_string c.An.Certify.ic_external)
              (An.Infoflow.bound_to_string c.An.Certify.ic_internal)
              engines))
  | Some (An.Certify.Ic_inconclusive { reason; inconsistent = true; _ }) ->
      push
        (err id_ic_unsound ("information-cost cross-check failed: " ^ reason))
  | Some (An.Certify.Ic_inconclusive { reason; inconsistent = false; _ }) ->
      push
        (warn id_ic_inconclusive
           ("information-cost certification inconclusive: " ^ reason)));
  let sched_outcome =
    if not sched then None
    else begin
      let dg =
        An.Depgraph.analyze ?budget ~players:e.players ~domain:e.domain tree
      in
      let pipelined_identical, race =
        match sched_cert dg with
        | None ->
            push
              (warn id_sched_inconclusive
                 (Printf.sprintf
                    "no pipelining certificate: dependency analysis %s \
                     (%d law failures); async runtime stays sequential"
                    (if dg.An.Depgraph.widened then "widened" else "saw bad laws")
                    dg.An.Depgraph.law_failures));
            (None, None)
        | Some cert -> (
            (match Netsim.Hbcheck.validate_cert cert with
            | Ok () -> ()
            | Error msg ->
                push
                  (err id_sched_race
                     ("certificate fails structural validation: " ^ msg)));
            match sched_differential entry ~seed ~cert with
            | `Identical -> (Some true, None)
            | `Divergent ->
                push
                  (err id_sched_divergence
                     (Printf.sprintf
                        "fault-free pipelined async run (seed %d) is not \
                         byte-identical to the sync engine's board"
                        seed));
                (Some false, None)
            | `Race msg ->
                push (err id_sched_race msg);
                (Some false, Some msg)
            | `Failed msg ->
                push
                  (err id_sched_divergence
                     ("pipelined differential failed: " ^ msg));
                (Some false, None))
      in
      push
        (info id_sched_waves
           (Printf.sprintf
              "slot-dependency analysis: %d slots in %d waves%s"
              dg.An.Depgraph.slots
              (An.Depgraph.wave_count dg)
              (match pipelined_identical with
              | Some true -> "; pipelined run byte-identical"
              | _ -> "")));
      Some { depgraph = dg; pipelined_identical; race }
    end
  in
  let report, suppressed =
    apply_baseline baseline ~protocol:e.name (Rep.of_list (List.rev !diags))
  in
  {
    entry;
    summary;
    outcome;
    ic = ic_outcome;
    sched = sched_outcome;
    checked_profiles;
    static_cc;
    observed_bits;
    seed;
    report;
    suppressed;
  }

(* Entries are independent, so the sweep fans out over a domain pool
   (sequential when only one domain is available). Results keep registry
   order; the shared state each entry touches — Obs metrics, Bitbuf
   counters — is thread-safe. *)
let verify_all ?budget ?seed ?baseline ?ic ?sched ?ic_engine ?domains () =
  Par.parallel_map ?domains
    (fun e -> verify_entry ?budget ?seed ?baseline ?ic ?sched ?ic_engine e)
    (Registry.all ())

(* ------------------------------------------------------------------ *)
(* Exit policy and JSON rendering                                      *)
(* ------------------------------------------------------------------ *)

(** 0 when every entry is certified (or advisory-only), 1 on any
    refutation or cross-check failure (error diagnostics), 3 when the
    worst finding is an inconclusive certification (warnings). *)
let exit_code results =
  let has p = List.exists (fun r -> p r.report) results in
  if has Rep.has_errors then 1
  else if has (fun rep -> Rep.count_severity Rep.Warning rep > 0) then 3
  else 0

let ic_outcome_to_json = function
  | An.Certify.Ic_certified c ->
      let module R = Exact.Rational in
      let bound_fields prefix (b : An.Infoflow.bound) =
        [
          (prefix ^ "_lo", J.String (R.to_string b.An.Infoflow.lo));
          (prefix ^ "_hi", J.String (R.to_string b.An.Infoflow.hi));
          (prefix ^ "_lo_float", J.Float (R.to_float b.An.Infoflow.lo));
          (prefix ^ "_hi_float", J.Float (R.to_float b.An.Infoflow.hi));
        ]
      in
      J.obj
        (("outcome", J.String "ic-certified")
         :: (bound_fields "external" c.An.Certify.ic_external
            @ bound_fields "internal" c.An.Certify.ic_internal
            @ [
                ( "engines",
                  J.List
                    (List.map
                       (fun (n, b) ->
                         J.obj
                           [
                             ("name", J.String n);
                             ("bound", J.String (R.to_string b));
                             ("bound_float", J.Float (R.to_float b));
                           ])
                       c.An.Certify.lower_bounds) );
              ]))
  | An.Certify.Ic_inconclusive { reason; inconsistent; _ } ->
      J.obj
        [
          ("outcome", J.String "ic-inconclusive");
          ("reason", J.String reason);
          ("inconsistent", J.Bool inconsistent);
        ]

let result_to_json r =
  let (Registry.Entry e) = r.entry in
  let s = r.summary in
  J.obj
    [
      ("protocol", J.String e.name);
      ("players", J.Int e.players);
      ("cost_min", J.Int s.An.Absint.cost.An.Absint.lo);
      ("cost_max", J.Int s.An.Absint.cost.An.Absint.hi);
      ("cc", J.Int r.static_cc);
      ( "declared_cost",
        match e.declared_cost with
        | Some c -> J.Int c
        | None -> J.Null );
      ("observed_bits", J.Int r.observed_bits);
      ("seed", J.Int r.seed);
      ("outcome", J.String (outcome_label r.outcome));
      ("deterministic", J.Bool s.An.Absint.deterministic);
      ("nodes", J.Int s.An.Absint.nodes);
      ("widened", J.Bool s.An.Absint.widened);
      ("widenings", J.Int s.An.Absint.widenings);
      ("law_failures", J.Int s.An.Absint.law_failures);
      ("dead_branches", J.Int (List.length s.An.Absint.dead));
      ("checked_profiles", J.Int r.checked_profiles);
      ("suppressed", J.Int r.suppressed);
      ( "ic",
        match r.ic with
        | None -> J.Null
        | Some o -> ic_outcome_to_json o );
      ( "sched",
        match r.sched with
        | None -> J.Null
        | Some s ->
            J.obj
              [
                ("slots", J.Int s.depgraph.An.Depgraph.slots);
                ("waves", J.Int (An.Depgraph.wave_count s.depgraph));
                ("certified", J.Bool (sched_cert s.depgraph <> None));
                ( "pipelined_identical",
                  match s.pipelined_identical with
                  | None -> J.Null
                  | Some b -> J.Bool b );
                ( "race",
                  match s.race with None -> J.Null | Some m -> J.String m );
              ] );
      ("diagnostics", Rep.to_json r.report);
    ]
