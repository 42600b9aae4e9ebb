(* The workloads, by the name the command line uses. Each joins two of
   the four op sets: [exact] the exact-rational ones (the IC engines and
   the compressors), [operational] the ones that run protocols on boards
   (the DISJ solvers, codec and VM, and the async emulation). Two longer
   runs instead of four shorter ones keep the timings steady on a host
   whose speed drifts over minutes. *)

let all : (string * (seed:int -> Op.t list)) list =
  let join a b ~seed = a ~seed @ b ~seed in
  [
    ("exact", join Wl_exact_ic.setup Wl_compress.setup);
    ("operational", join Wl_disj_scale.setup Wl_async_board.setup);
  ]

(* Per-layer rows: each yields [<prefix>.calls], [.total_s], [.self_s]
   and [.alloc_mw] in the traced run. *)
let layers =
  [
    "proto.semantics_ic"; "proto.orbit_ic"; "analysis.infoflow";
    "protocols.hard_dist"; "compress.oneshot_exact"; "compress.oneshot_run";
    "compress.amortized"; "compress.amortized_factored";
    "compress.point_sampler"; "protocols.disj_batched"; "protocols.disj_naive";
    "protocols.disj_trivial"; "coding.subset_write"; "coding.subset_read";
    "proto.compile"; "proto.exec_sweep"; "protocols.hosted";
    "blackboard.engine_run"; "netsim.emu_seq"; "netsim.emu_pipe";
    "netsim.emu_faulty"; "analysis.depgraph";
  ]
