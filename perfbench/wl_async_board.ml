(* async_board — the blackboard emulated on a faulty asynchronous
   network (E14_FAULT/E15_PIPE).

   Cases: every registry entry, and the n = 2 DISJ trees
   ([Disj_trees.broadcast_all] and [sequential]) for k = 4..7, each with
   f = floor((k - 1) / 3). Each case runs a few times per pass, each
   time with its own input and network seeds, and every time in these
   ways, each a fresh [Registry.hosted]:
   - the sync reference, [Blackboard.Engine.run_result];
   - [Board_emu.run], sequential and fault-free;
   - [Board_emu.run ~cert], pipelined, with the certificate that
     [Verify_registry.sched_cert] derives from [Depgraph.analyze] in
     set-up;
   - when f >= 1, under a [crash:], a [drop:] and an [equiv:] plan.

   Checks: no run returns [Error]; fault-free and pipelined boards are
   byte-identical to the sync board; a run under the crash plan
   delivers a prefix of the sync board. Stalls under fault plans are
   outcomes, not failures. [comm_bits] is the wire bits of every
   emulated run.

   Size ceiling. Building and certifying [Disj_trees.broadcast_all
   ~n:2] grows fast: on a 2-core machine k = 10 took 1.1 s and a 68 MB
   top heap, k = 11 4.0 s and 270 MB, k = 12 13.6 s and 1.08 GB, and
   k = 13 ran out of memory; [Depgraph] already withholds the
   certificate from k = 8 on. So the DISJ cases stop at k = 7, the
   largest size at which the pipelined mode still runs, and the
   workload gets its volume from repetitions instead of size.

   With tracing on, the hosted form's [schedule], [speak], [observe]
   and [output_of] closures are wrapped as [protocols.hosted] spans, so
   the board replay they do on every call is attributed to that layer
   rather than to the engine or the emulator that calls them. *)

module Reg = Protocols.Registry
module Emu = Netsim.Board_emu
module B = Blackboard.Board

(* Each case runs [groups * runs_per_op] repetitions. One op runs one
   mode of one case for [runs_per_op] consecutive repetitions, each with
   its own seeds, so an op's cost does not hinge on one draw of inputs
   and the latency percentiles hold across seeds. *)
let groups = 6
let runs_per_op = 10

(* [rep r] is repetition [r]'s (mode, run) pairs in running order. *)
let batched_ops case rep =
  List.concat_map
    (fun g ->
      let reps = List.init runs_per_op (fun i -> rep ((g * runs_per_op) + i)) in
      List.map
        (fun (mode, _) ->
          Op.make (Printf.sprintf "%s/%s/%d" case mode g) (fun () ->
              List.fold_left
                (fun (acc : Op.outcome) runs ->
                  let (o : Op.outcome) = (List.assoc mode runs) () in
                  Op.outcome ~bits:(acc.bits +. o.bits) (acc.ok && o.ok))
                (Op.outcome true) reps))
        (List.hd reps))
    (List.init groups Fun.id)

let disj_entries () =
  let domain2 = Array.of_list (Proto.Semantics.all_bit_inputs 2) in
  List.concat_map
    (fun (name, mk, ks) ->
      List.map
        (fun k ->
          Reg.entry ~name:(Printf.sprintf "%s/k=%d" name k) ~players:k
            ~spec:Protocols.Hard_dist.disj_fn ~domain:domain2
            (lazy (mk k)))
        ks)
    [
      ("disj/bcast", (fun k -> Protocols.Disj_trees.broadcast_all ~n:2 ~k), [ 4; 5; 6 ]);
      ("disj/seq", (fun k -> Protocols.Disj_trees.sequential ~n:2 ~k), [ 4; 6; 8; 10; 13; 16 ]);
    ]

let hosted entry ~seed =
  let h = Layers.call "protocols.hosted" (fun () -> Reg.hosted entry ~seed) in
  if not !Layers.active then h
  else
    let w f x = Layers.call "protocols.hosted" (fun () -> f x) in
    {
      h with
      Reg.schedule = w h.Reg.schedule;
      players =
        Array.map
          (fun (p : Blackboard.Engine.player) ->
            { Blackboard.Engine.speak = w p.speak; observe = w p.observe })
          h.players;
      output_of = w h.output_of;
    }

let plan spec =
  match Netsim.Fault.parse spec with Ok p -> p | Error e -> invalid_arg e

let setup ~seed =
  let rng = Op.rng ~seed "async_board" in
  List.concat_map
    (fun (Reg.Entry e as entry) ->
      let k = e.players in
      let f = (k - 1) / 3 in
      let cert =
        Layers.call "analysis.depgraph" (fun () ->
            Protocols.Verify_registry.sched_cert
              (Analysis.Depgraph.analyze ~players:k ~domain:e.domain (Lazy.force e.tree)))
      in
      batched_ops (Reg.name entry) (fun r ->
          let in_seed = Op.sub_seed ~seed (Reg.name entry, r, "inputs") in
          let net_seed = Op.sub_seed ~seed (Reg.name entry, r, "net") in
          let sync = ref None in
          let emu ~layer ?cert faults check =
            let h = hosted entry ~seed:in_seed in
            let res =
              Layers.call layer (fun () ->
                  Emu.run ~k ~schedule:h.schedule ~players:h.players ?cert
                    ~config:{ Emu.f; seed = net_seed; faults }
                    ())
            in
            match (res, !sync) with
            | Error _, _ | _, None -> Op.outcome false
            | Ok outcome, Some sync_board ->
                let board, stats =
                  match outcome with
                  | Emu.Delivered { board; stats; _ } -> (board, stats)
                  | Emu.Stalled { board; stats; _ } -> (board, stats)
                in
                Op.outcome ~bits:(float_of_int stats.net_bits)
                  (check ~sync_board ~outcome ~board ~stats)
          in
          let fault_free ~sync_board ~outcome ~board ~(stats : Emu.stats) =
            match outcome with
            | Emu.Stalled _ -> false
            | Emu.Delivered { writes; _ } ->
                Op.note "emu.wire_bits" (float_of_int stats.net_bits);
                Op.note "emu.board_bits" (float_of_int (B.total_bits board));
                Op.note "emu.waves" (float_of_int stats.waves);
                Op.note "emu.slots" (float_of_int writes);
                Checks.same_board board sync_board
          in
          let completes ~sync_board:_ ~outcome:_ ~board:_ ~stats:_ = true in
          let prefix ~sync_board ~outcome:_ ~board ~stats:_ =
            Checks.board_prefix ~prefix:board ~full:sync_board
          in
          let base =
            [
              ("sync", fun () ->
                  let h = hosted entry ~seed:in_seed in
                  match
                    Layers.call "blackboard.engine_run" (fun () ->
                        Blackboard.Engine.run_result ~k ~schedule:h.schedule
                          ~players:h.players ())
                  with
                  | Ok o ->
                      sync := Some o.board;
                      Op.outcome true
                  | Error _ ->
                      sync := None;
                      Op.outcome false);
              ("seq", fun () ->
                  emu ~layer:"netsim.emu_seq" Netsim.Fault.none fault_free);
              ("pipe", fun () ->
                  match cert with
                  | None -> Op.outcome false
                  | Some cert -> emu ~layer:"netsim.emu_pipe" ~cert Netsim.Fault.none fault_free);
            ]
          in
          let faulty =
            if f = 0 then []
            else
              let victim = Prob.Rng.int rng k in
              let crash = plan (Printf.sprintf "crash:%d@%d" victim (Prob.Rng.int rng (4 * k))) in
              let drop = plan (Printf.sprintf "drop:0.0%d" (2 + Prob.Rng.int rng 4)) in
              let equiv = plan (Printf.sprintf "equiv:%d" (Prob.Rng.int rng k)) in
              [
                ("crash", fun () ->
                    emu ~layer:"netsim.emu_faulty" crash prefix);
                ("drop", fun () ->
                    emu ~layer:"netsim.emu_faulty" drop completes);
                ("equiv", fun () ->
                    emu ~layer:"netsim.emu_faulty" equiv completes);
              ]
          in
          base @ faulty))
    (Reg.all () @ disj_entries ())
