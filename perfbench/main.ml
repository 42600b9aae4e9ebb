(* Benchmark runner.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   One workload per process, on one domain, as a closed loop with a
   single client: each op starts when the previous one returns. Set-up
   runs three to nine times and reports its median; then timed passes
   over the op list repeat until [S] seconds have passed (at least three). The
   last line of standard output is the result object. With [--trace 1]
   untraced and traced passes alternate, and the per-layer table of the
   traced ones is reported instead of the end-to-end metrics. *)

open Perfbench

(* Set-up repeats at least [min_setups] times, and up to [max_setups]
   while the repetitions total under [setup_budget_s]. *)
let min_setups = 3
let max_setups = 9
let setup_budget_s = 3.0
let min_passes = 3

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref false in
  let rec go = function
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; go rest
    | "--trace" :: v :: rest -> trace := (v = "1"); go rest
    | [] -> ()
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  (!workload, !seed, !seconds, !trace)

let now_s () = float_of_int (Layers.now_ns ()) *. 1e-9

type pass = {
  wall : float;
  alloc_w : float;
  attempted : int;
  passed : int;
  bits : float;
  err : float;
  p50 : float;  (** op latency percentiles within the pass, seconds *)
  p90 : float;
}

let run_pass ops =
  Hashtbl.reset Op.counters;
  let w0 = Layers.words () in
  let t0 = now_s () in
  let passed = ref 0 and bits = ref 0. and err = ref 0. in
  let lat = Float.Array.make (List.length ops) 0. in
  List.iteri
    (fun i (op : Op.t) ->
      let s = now_s () in
      let o =
        try op.run ()
        with e ->
          Printf.eprintf "op %s raised %s\n%!" op.label (Printexc.to_string e);
          Op.outcome false
      in
      Float.Array.set lat i (now_s () -. s);
      if o.ok then incr passed
      else Printf.eprintf "op %s failed its check\n%!" op.label;
      bits := !bits +. o.bits;
      err := Float.max !err o.err)
    ops;
  let wall = now_s () -. t0 in
  Float.Array.sort compare lat;
  {
    wall;
    alloc_w = Layers.words () -. w0;
    attempted = List.length ops;
    passed = !passed;
    bits = !bits;
    err = !err;
    p50 = Stats.quantile_sorted 0.5 lat;
    p90 = Stats.quantile_sorted 0.9 lat;
  }

let timed f =
  let t0 = now_s () in
  let v = f () in
  (v, now_s () -. t0)

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

let median = Stats.median

let end_to_end ~setup_times ~passes =
  let attempted = List.fold_left (fun a p -> a + p.attempted) 0 passes in
  let passed = List.fold_left (fun a p -> a + p.passed) 0 passes in
  let err = List.fold_left (fun a p -> Float.max a p.err) 0. passes in
  let top = (Gc.quick_stat ()).Gc.top_heap_words in
  [
    ("setup_s", "s", median setup_times);
    ("wall_s", "s", median (List.map (fun p -> p.wall) passes));
    ("ops_per_s", "1/s",
     median (List.map (fun p -> float_of_int p.passed /. p.wall) passes));
    ("op_p50_ms", "ms", 1e3 *. median (List.map (fun p -> p.p50) passes));
    ("op_p90_ms", "ms", 1e3 *. median (List.map (fun p -> p.p90) passes));
    ("alloc_mw", "Mw", median (List.map (fun p -> p.alloc_w) passes) /. 1e6);
    ("peak_heap_mb", "MB", float_of_int (top * (Sys.word_size / 8)) /. 1e6);
    ("ok_frac", "ratio", float_of_int passed /. float_of_int attempted);
    ("comm_bits", "bits", median (List.map (fun p -> p.bits) passes));
    ("accuracy_bits", "bits",
     if err <= 0. then 64. else Float.min 64. (-.Float.log2 err));
  ]

(* Counts read from the library's metrics registry and the runner's
   own counters, per traced pass. *)
let counts snap =
  let c name = float_of_int (Obs.Metrics.counter_value snap name) in
  let ratio a b = if b = 0. then 0. else a /. b in
  let transmissions = c "sampler.transmissions" in
  [
    ("blackboard.bits", "bits", c "board.bits");
    ("blackboard.messages", "count", c "board.messages");
    ("netsim.messages", "count", c "netsim.messages");
    ("netsim.wire_bits", "bits", c "netsim.bits");
    ("netsim.echoes", "count", c "netsim.echoes");
    ("netsim.readies", "count", c "netsim.readies");
    ("netsim.drops", "count", c "netsim.drops");
    ("netsim.wire_per_board_bit", "ratio",
     ratio (Op.counter "emu.wire_bits") (Op.counter "emu.board_bits"));
    ("netsim.waves_per_slot", "ratio",
     ratio (Op.counter "emu.waves") (Op.counter "emu.slots"));
    ("compress.sampler_transmissions", "count", transmissions);
    ("compress.sampler_bits", "bits", c "sampler.bits");
    ("compress.sampler_accept_ratio", "ratio",
     ratio (transmissions -. c "sampler.aborts") transmissions);
    ("compress.amortized_rounds", "count", c "amortized.rounds");
    ("proto.semantics_memo_entries", "count", Op.counter "proto.semantics_memo_entries");
    ("proto.orbit_memo_states", "count", Op.counter "proto.orbit_memo_states");
    ("analysis.infoflow_nodes", "count", c "infoflow.nodes");
    ("analysis.depgraph_nodes", "count", c "depgraph.nodes");
    ("proto.exec_sweep_ns_per_profile", "ns",
     ratio
       (float_of_int (Layers.total_of "proto.exec_sweep").t_total_ns)
       (Op.counter "exec_sweep.profiles"));
  ]

let layer_metrics totals =
  List.concat_map
    (fun (name, (t : Layers.total)) ->
      [
        (name ^ ".calls", "count", float_of_int t.t_calls);
        (name ^ ".total_s", "s", float_of_int t.t_total_ns *. 1e-9);
        (name ^ ".self_s", "s", float_of_int t.t_self_ns *. 1e-9);
        (name ^ ".alloc_mw", "Mw", t.t_alloc_w /. 1e6);
      ])
    totals

(* Element-wise median of per-pass metric lists with identical keys. *)
let median_metrics = function
  | [] -> []
  | first :: _ as all ->
      List.mapi
        (fun i (name, unit, _) ->
          (name, unit, median (List.map (fun l -> let _, _, v = List.nth l i in v) all)))
        first

let add_metrics a b =
  List.map2 (fun (n, u, x) (_, _, y) -> (n, u, x +. y)) a b

let print_layer_table label =
  let rows = Layers.rows () in
  List.iter
    (fun (r : Layers.row) ->
      Printf.printf
        "{\"layer_row\": %S, \"span\": %S, \"parent\": %S, \"clock\": %S, \
         \"calls\": %d, \"total_s\": %s, \"self_s\": %s, \"layer_self_s\": %s, \
         \"alloc_mw\": %s, \"cpu_s\": %s}\n"
        label r.span r.parent (Layers.clock_name r.clock) r.calls
        (json_number (float_of_int r.total_ns *. 1e-9))
        (json_number (float_of_int r.self_ns *. 1e-9))
        (json_number (float_of_int r.layer_self_ns *. 1e-9))
        (json_number (r.alloc_w /. 1e6))
        (json_number r.cpu_s))
    rows

let () =
  let workload, seed, seconds, trace = parse_args () in
  Unix.putenv "BROADCAST_PAR_DOMAINS" "1";
  let setup =
    match List.assoc_opt workload Workloads.all with
    | Some s -> s
    | None ->
        Printf.eprintf "unknown workload %S\n" workload;
        exit 2
  in
  let selftest = Checks.self_test () in
  List.iter
    (fun (name, ok) -> if not ok then Printf.eprintf "check self-test %s failed\n%!" name)
    selftest;
  let selftest_ok = List.for_all snd selftest in
  Printf.printf
    "{\"context\": {\"workload\": %S, \"seed\": %d, \"seconds\": %s, \"trace\": %b, \
     \"domains\": 1, \"nproc\": %d, \"ocaml\": %S}}\n%!"
    workload seed (json_number seconds) trace
    (Domain.recommended_domain_count ()) Sys.ocaml_version;
  Coding.Bitbuf.Writer.reset_stats ();
  let deadline_after start = start +. seconds in
  if not trace then begin
    let setup_times = ref [] and ops = ref [] in
    let spent () = List.fold_left ( +. ) 0. !setup_times in
    while
      let n = List.length !setup_times in
      n < min_setups || (n < max_setups && spent () < setup_budget_s)
    do
      ops := [];
      Gc.compact ();
      let o, t = timed (fun () -> setup ~seed) in
      ops := o;
      setup_times := t :: !setup_times
    done;
    let ops = !ops in
    let start = now_s () in
    let passes = ref [] in
    while List.length !passes < min_passes || now_s () < deadline_after start do
      passes := run_pass ops :: !passes
    done;
    let passes = List.rev !passes in
    let attempted = List.fold_left (fun a p -> a + p.attempted) 0 passes in
    let failed = attempted - List.fold_left (fun a p -> a + p.passed) 0 passes in
    print_result ~correct:(selftest_ok && failed = 0) ~attempted ~failed
      (end_to_end ~setup_times:!setup_times ~passes)
  end
  else begin
    let registry = Obs.Metrics.create () in
    let traced_run f =
      Layers.reset ();
      Obs.Metrics.clear registry;
      Obs.Metrics.install registry;
      let v = Layers.traced f in
      Obs.Metrics.uninstall ();
      v
    in
    let layer_totals () = List.map (fun n -> (n, Layers.total_of n)) Workloads.layers in
    let ops = traced_run (fun () -> setup ~seed) in
    print_layer_table "setup";
    let setup_layers = layer_metrics (layer_totals ()) in
    let setup_counts = counts (Obs.Metrics.snapshot registry) in
    let plain = ref [] and traced = ref [] in
    let start = now_s () in
    while List.length !traced < min_passes || now_s () < deadline_after start do
      plain := run_pass ops :: !plain;
      let p = traced_run (fun () -> run_pass ops) in
      let layers = layer_metrics (layer_totals ()) in
      let cs = counts (Obs.Metrics.snapshot registry) in
      let cover = float_of_int (Layers.top_level_ns ()) *. 1e-9 /. p.wall in
      if !traced = [] then print_layer_table "pass";
      traced := (p, layers, cs, cover) :: !traced
    done;
    let traced = List.rev !traced and plain = List.rev !plain in
    let wall l = median (List.map (fun p -> p.wall) l) in
    let tp = List.map (fun (p, _, _, _) -> p) traced in
    let all = plain @ tp in
    let attempted = List.fold_left (fun a p -> a + p.attempted) 0 all in
    let failed = attempted - List.fold_left (fun a p -> a + p.passed) 0 all in
    let layers = median_metrics (List.map (fun (_, l, _, _) -> l) traced) in
    let cs = median_metrics (List.map (fun (_, _, c, _) -> c) traced) in
    let metrics =
      add_metrics setup_layers layers
      @ add_metrics setup_counts cs
      @ [
          ("trace.overhead", "ratio", (wall tp /. wall plain) -. 1.);
          ("trace.coverage", "ratio", median (List.map (fun (_, _, _, c) -> c) traced));
        ]
    in
    print_result ~correct:(selftest_ok && failed = 0) ~attempted ~failed metrics
  end
