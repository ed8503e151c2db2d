(* Sampled per-layer profile of one traced child, taken from outside
   the program: ITIMER_PROF fires at 1 kHz of process CPU time, the
   SIGPROF handler takes the OCaml call stack, and each sample is
   charged to layers by the source file of its frames.

   - self: the innermost frame under lib/ names the layer that gets the
     sample;
   - incl: every distinct layer anywhere on the stack gets it.

   A sample weighs the CPU time since the previous one (the kernel
   delivers ticks at its own granularity), so layer times sum to the
   sampled CPU time less the samples no lib/ frame claims.

   OCaml 5 runs signal handlers at poll points, so self time leans
   toward allocating and polling functions; incl time does not have
   that bias. GC time comes separately, from the runtime's own
   Runtime_events phase spans, and overlaps the layer times. *)

let layers =
  [|
    "engine";
    "net.link";
    "net.network";
    "net.routing";
    "net.faults";
    "multicast";
    "traffic";
    "discovery";
    "toposense.controller";
    "toposense.federation";
    "toposense.agent";
    "scenarios";
    "other";
  |]

let layer_index name =
  let rec find i = if layers.(i) = name then i else find (i + 1) in
  find 0

(* The layer -> module map; README.md carries the same table. *)
let layer_of_file file =
  match String.split_on_char '/' file with
  | "lib" :: dir :: base :: _ ->
      let m = Filename.remove_extension base in
      Some
        (layer_index
           (match (dir, m) with
           | "engine", _ -> "engine"
           | "net", ("link" | "queue_discipline" | "packet") -> "net.link"
           | "net", ("network" | "addr" | "flow_stats" | "packet_trace") ->
               "net.network"
           | "net", ("routing" | "topology") -> "net.routing"
           | "net", "faults" -> "net.faults"
           | "multicast", _ -> "multicast"
           | "traffic", _ -> "traffic"
           | "discovery", _ -> "discovery"
           | ( "toposense",
               ( "controller" | "algorithm" | "tree" | "congestion"
               | "bottleneck" | "capacity" | "fair_share" | "subscription"
               | "decision" | "probe_discovery" ) ) ->
               "toposense.controller"
           | "toposense", "federation" -> "toposense.federation"
           | "toposense", ("receiver_agent" | "protocol" | "backoff")
           | "reports", _ ->
               "toposense.agent"
           | "scenarios", _ -> "scenarios"
           | _ -> "other"))
  | _ -> None

(* Raw stack entries resolve to the layers of their (possibly inlined)
   frames, innermost first; the cache keeps the handler off the debug
   info after the first sight of each return address. *)
let entry_layers = Hashtbl.create 4096

let layers_of_entry e =
  match Hashtbl.find_opt entry_layers e with
  | Some ls -> ls
  | None ->
      let ls =
        match Printexc.backtrace_slots_of_raw_entry e with
        | None -> []
        | Some slots ->
            Array.to_list slots
            |> List.filter_map (fun slot ->
                   Option.bind (Printexc.Slot.location slot) (fun loc ->
                       layer_of_file loc.Printexc.filename))
      in
      Hashtbl.add entry_layers e ls;
      ls

type t = {
  self_ms : float array;
  incl_ms : float array;
  mutable samples : int;
  mutable covered : int;
  mutable cpu_ms : float;  (** CPU time the samples span *)
  mutable gc_minor_ms : float;
  mutable gc_major_ms : float;
  mutable gc_lost_events : int;
}

let cpu_ms () =
  let t = Unix.times () in
  1000.0 *. (t.Unix.tms_utime +. t.Unix.tms_stime)

(* GC spans: a minor collection is one EV_MINOR span; major work is the
   outermost major-family span outside any minor collection (slices,
   cycle finishes, explicit collections). Nested phases are not added
   twice. *)
let is_major_phase (p : Runtime_events.runtime_phase) =
  match p with
  | EV_MAJOR | EV_MAJOR_SLICE | EV_MAJOR_FINISH_CYCLE
  | EV_EXPLICIT_GC_MAJOR | EV_EXPLICIT_GC_FULL_MAJOR
  | EV_EXPLICIT_GC_MAJOR_SLICE | EV_EXPLICIT_GC_COMPACT ->
      true
  | _ -> false

let gc_callbacks p =
  let minor_depth = ref 0 and minor_t0 = ref 0L in
  let major_depth = ref 0 and major_t0 = ref 0L in
  let ms_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e6 in
  Runtime_events.Callbacks.create
    ~runtime_begin:(fun _ ts phase ->
      let ts = Runtime_events.Timestamp.to_int64 ts in
      if phase = Runtime_events.EV_MINOR then begin
        if !minor_depth = 0 then minor_t0 := ts;
        incr minor_depth
      end
      else if is_major_phase phase && !minor_depth = 0 then begin
        if !major_depth = 0 then major_t0 := ts;
        incr major_depth
      end)
    ~runtime_end:(fun _ ts phase ->
      let ts = Runtime_events.Timestamp.to_int64 ts in
      if phase = Runtime_events.EV_MINOR && !minor_depth > 0 then begin
        decr minor_depth;
        if !minor_depth = 0 then
          p.gc_minor_ms <- p.gc_minor_ms +. ms_between !minor_t0 ts
      end
      else if is_major_phase phase && !minor_depth = 0 && !major_depth > 0
      then begin
        decr major_depth;
        if !major_depth = 0 then
          p.gc_major_ms <- p.gc_major_ms +. ms_between !major_t0 ts
      end)
    ~lost_events:(fun _ n -> p.gc_lost_events <- p.gc_lost_events + n)
    ()

(* [profile f] runs [f] under the sampler and returns its result with
   the profile. The ring is drained from the handler, so it never
   wraps. *)
let profile f =
  let n = Array.length layers in
  let p =
    {
      self_ms = Array.make n 0.0;
      incl_ms = Array.make n 0.0;
      samples = 0;
      covered = 0;
      cpu_ms = 0.0;
      gc_minor_ms = 0.0;
      gc_major_ms = 0.0;
      gc_lost_events = 0;
    }
  in
  Runtime_events.start ();
  let cursor = Runtime_events.create_cursor None in
  let callbacks = gc_callbacks p in
  ignore (Runtime_events.read_poll cursor callbacks None);
  let seen = Array.make n (-1) in
  let start = cpu_ms () in
  let last = ref start in
  let on_sample _ =
    let now = cpu_ms () in
    let w = now -. !last in
    last := now;
    let stamp = p.samples in
    p.samples <- p.samples + 1;
    let self = ref (-1) in
    Array.iter
      (fun e ->
        List.iter
          (fun l ->
            if !self < 0 then self := l;
            if seen.(l) <> stamp then begin
              seen.(l) <- stamp;
              p.incl_ms.(l) <- p.incl_ms.(l) +. w
            end)
          (layers_of_entry e))
      (Printexc.raw_backtrace_entries (Printexc.get_callstack 1024));
    if !self >= 0 then begin
      p.covered <- p.covered + 1;
      p.self_ms.(!self) <- p.self_ms.(!self) +. w
    end;
    ignore (Runtime_events.read_poll cursor callbacks None)
  in
  let tick = { Unix.it_interval = 0.001; it_value = 0.001 } in
  let previous = Sys.signal Sys.sigprof (Sys.Signal_handle on_sample) in
  ignore (Unix.setitimer Unix.ITIMER_PROF tick);
  let stop () =
    ignore
      (Unix.setitimer Unix.ITIMER_PROF
         { Unix.it_interval = 0.0; it_value = 0.0 });
    Sys.set_signal Sys.sigprof previous;
    ignore (Runtime_events.read_poll cursor callbacks None);
    Runtime_events.free_cursor cursor;
    Runtime_events.pause ();
    p.cpu_ms <- !last -. start
  in
  let r = Fun.protect ~finally:stop f in
  (r, p)

let coverage p =
  if p.samples = 0 then 0.0
  else float_of_int p.covered /. float_of_int p.samples

let metrics p =
  List.concat
    (List.mapi
       (fun i name ->
         [
           (name ^ ".self_ms", p.self_ms.(i));
           (name ^ ".incl_ms", p.incl_ms.(i));
         ])
       (Array.to_list layers))
  @ [
      ("gc.minor_ms", p.gc_minor_ms);
      ("gc.major_ms", p.gc_major_ms);
      ("trace.samples", float_of_int p.samples);
      ("trace.coverage", coverage p);
      ("trace.cpu_ms", p.cpu_ms);
      ("trace.gc_lost_events", float_of_int p.gc_lost_events);
    ]
