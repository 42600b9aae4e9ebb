(* Span recording for the traced run.

   Two sources feed one stack of open frames:
   - [call name f], the wrapper the workloads put around every call
     they make into a layer entry point;
   - the spans the library already emits ([engine.run], [netsim.run],
     [registry/*], ...), received through an [Obs] sink installed by
     {!with_program_spans}.

   Both are timed with the same monotonic clock, read when the frame is
   opened and closed, so a frame's self time is its duration minus the
   durations of the frames opened directly inside it. Allocation is the
   [Gc.counters] delta over the frame. The library's own span events
   carry a [Sys.time] duration as well; it is kept as [cpu_s] beside the
   monotonic figures. [self_ns] of a row is its duration minus every
   frame opened directly inside it; [layer_self_ns] subtracts only the
   nearest runner frames. All of this is sound on one domain only, which is
   how the benchmark runs. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Words allocated so far: minor + major - promoted. *)
let words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

type clock = Runner_monotonic | Sink_monotonic

let clock_name = function
  | Runner_monotonic -> "monotonic"
  | Sink_monotonic -> "monotonic-at-sink"

type row = {
  span : string;
  parent : string;
  clock : clock;
  mutable calls : int;
  mutable total_ns : int;
  mutable self_ns : int;
  mutable layer_self_ns : int;
  mutable alloc_w : float;
  mutable cpu_s : float;
}

type frame = {
  name : string;
  fclock : clock;
  t0 : int;
  w0 : float;
  mutable child_ns : int;  (** time in frames opened directly inside *)
  mutable layer_child_ns : int;
      (** time in the nearest runner frames inside, program frames
          between them looked through *)
}

let active = ref false
let stack : frame list ref = ref []
let table : (string * string, row) Hashtbl.t = Hashtbl.create 64

let reset () =
  stack := [];
  Hashtbl.reset table

let enter name fclock =
  stack :=
    { name; fclock; t0 = now_ns (); w0 = words (); child_ns = 0; layer_child_ns = 0 }
    :: !stack

let leave ?(cpu_s = 0.) () =
  match !stack with
  | [] -> ()
  | fr :: rest ->
      let d = now_ns () - fr.t0 in
      let w = words () -. fr.w0 in
      let parent =
        match rest with
        | p :: _ ->
            p.child_ns <- p.child_ns + d;
            p.name
        | [] -> ""
      in
      (if fr.fclock = Runner_monotonic then
         match List.find_opt (fun p -> p.fclock = Runner_monotonic) rest with
         | Some p -> p.layer_child_ns <- p.layer_child_ns + d
         | None -> ());
      let key = (fr.name, parent) in
      let row =
        match Hashtbl.find_opt table key with
        | Some r -> r
        | None ->
            let r =
              {
                span = fr.name; parent; clock = fr.fclock; calls = 0;
                total_ns = 0; self_ns = 0; layer_self_ns = 0; alloc_w = 0.;
                cpu_s = 0.;
              }
            in
            Hashtbl.replace table key r;
            r
      in
      row.calls <- row.calls + 1;
      row.total_ns <- row.total_ns + d;
      row.self_ns <- row.self_ns + (d - fr.child_ns);
      row.layer_self_ns <- row.layer_self_ns + (d - fr.layer_child_ns);
      row.alloc_w <- row.alloc_w +. w;
      row.cpu_s <- row.cpu_s +. cpu_s;
      stack := rest

(* The wrapper: one branch when tracing is off. *)
let call name f =
  if not !active then f ()
  else begin
    enter name Runner_monotonic;
    match f () with
    | v ->
        leave ();
        v
    | exception e ->
        leave ();
        raise e
  end

let program_sink =
  Obs.Sink.custom (fun ev ->
      match ev.Obs.Event.payload with
      | Obs.Event.Span_start { name } -> enter name Sink_monotonic
      | Obs.Event.Span_end { seconds; _ } -> leave ~cpu_s:seconds ()
      | _ -> ())

(* Run [f] with the wrappers live and the library's spans folded in. *)
let traced f =
  active := true;
  Fun.protect
    ~finally:(fun () -> active := false)
    (fun () -> Obs.Trace.with_sink program_sink f)

let rows () =
  Hashtbl.fold (fun _ r acc -> r :: acc) table []
  |> List.sort (fun a b -> compare (a.span, a.parent) (b.span, b.parent))

(* Totals per runner span name over every parent. Self time here is the
   layer's: the span minus the runner spans of other calls made inside
   it, so the library's own spans within a layer count as that layer's
   work. *)
type total = { t_calls : int; t_total_ns : int; t_self_ns : int; t_alloc_w : float }

let zero_total = { t_calls = 0; t_total_ns = 0; t_self_ns = 0; t_alloc_w = 0. }

let total_of name =
  Hashtbl.fold
    (fun _ r acc ->
      if r.span = name then
        {
          t_calls = acc.t_calls + r.calls;
          t_total_ns = acc.t_total_ns + r.total_ns;
          t_self_ns = acc.t_self_ns + r.layer_self_ns;
          t_alloc_w = acc.t_alloc_w +. r.alloc_w;
        }
      else acc)
    table zero_total

(* Time covered by frames opened at the top of the stack. *)
let top_level_ns () =
  Hashtbl.fold (fun _ r acc -> if r.parent = "" then acc + r.total_ns else acc) table 0
