(* Reading the spans the program already emits.

   A traced run installs the existing telemetry sink once, with wall
   stamps, and turns the allocation probe on (main.ml). Each unit of
   work a workload measures runs inside one of the benchmark's own
   spans, tagged with its accumulator; afterwards this module folds the
   events recorded inside each unit's span (an index range of the
   "main" track, where every domain's events land) into per-layer
   totals: the simulator's [round] and [sim.run] spans, and the
   [Phase_span] phases of lib/core (self time, i.e. minus nested
   phases). The probe's per-phase minor-word counters are taken as
   metric snapshot deltas around each unit.

   The sink keeps at most [event_limit] events over the whole traced
   run and drops the rest, so the record is a prefix in time. Events
   are folded one complete [sim.run] at a time: a unit cut off by the
   limit contributes its complete instances only, and every
   per-instance figure is normalised by the instances folded. *)

module Tel = Bap_telemetry.Telemetry

(* The events a traced run keeps in memory (a few hundred bytes each)
   before it writes them out. Kept low because live events cost major
   GC work: at 400,000 it stalled serve-small's traced paced phase past
   its lag gate in half the runs. *)
let event_limit = 100_000

(* The Phase_span names of lib/core that get a per-layer metric. *)
let phases = [ "classify"; "gc"; "gcs"; "bc"; "bb"; "conciliate"; "es" ]

type acc = {
  id : int;  (** tags this accumulator's unit spans *)
  mutable words_runs : int;  (** instances the probe's counters cover *)
  words : (string, float) Hashtbl.t;  (** phase -> self minor words *)
}

let next_id = ref 0

let create () =
  incr next_id;
  { id = !next_id; words_runs = 0; words = Hashtbl.create 8 }

let bump tbl k v =
  Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))

let counter (snap : Tel.Metrics.snap) k =
  Option.value ~default:0 (List.assoc_opt k snap.Tel.Metrics.counters)

(* Run [f] as one unit of [acc], inside a span named [name]. Returns
   [f]'s result and the seconds [f] took, so neither the span nor the
   counter snapshots are counted as tracing cost. Without a sink it only
   times [f]. *)
let unit_ acc name f =
  let before = Tel.Metrics.snapshot () in
  let v =
    Tel.span ~cat:"perfbench" ~attrs:(fun () -> [ ("acc", Tel.Int acc.id) ]) ~name (fun () ->
        Bcore.time f)
  in
  let after = Tel.Metrics.snapshot () in
  let delta k = counter after k - counter before k in
  acc.words_runs <- acc.words_runs + delta "alloc.spans/sim.run";
  List.iter (fun p -> bump acc.words p (float_of_int (delta ("alloc.minor_words/" ^ p)))) phases;
  v

(* Totals over folded instances. *)
type tally = {
  mutable runs : int;
  mutable msgs : int;  (** honest messages *)
  mutable rounds : int;
  mutable round_s : float;
  mutable round_words : float;
  self_s : (string, float) Hashtbl.t;  (** phase -> self seconds *)
  seen : (string, float) Hashtbl.t;  (** phase -> spans *)
}

let tally () =
  {
    runs = 0;
    msgs = 0;
    rounds = 0;
    round_s = 0.;
    round_words = 0.;
    self_s = Hashtbl.create 8;
    seen = Hashtbl.create 8;
  }

let add_into t p =
  t.runs <- t.runs + p.runs;
  t.msgs <- t.msgs + p.msgs;
  t.rounds <- t.rounds + p.rounds;
  t.round_s <- t.round_s +. p.round_s;
  t.round_words <- t.round_words +. p.round_words;
  Hashtbl.iter (bump t.self_s) p.self_s;
  Hashtbl.iter (bump t.seen) p.seen

let int_attr k (e : Tel.event) =
  match List.assoc_opt k e.Tel.attrs with Some (Tel.Int v) -> Some v | _ -> None

let wall (e : Tel.event) = Option.value ~default:0. e.Tel.wall_us *. 1e-6

(* Fold the recorded events inside [acc]'s unit spans. What one
   instance emits is kept pending until its sim.run ends. Core phases
   nest among themselves (process 0's fiber opens and closes them), so a
   stack of open core spans gives self time. *)
let fold acc =
  let total = tally () and pending = ref (tally ()) in
  (* perfbench spans open inside the current unit, the unit's own included *)
  let depth = ref 0 and round_begin = ref 0. in
  (* (name, begin wall, time spent in nested core spans) *)
  let stack = ref [] in
  List.iter
    (fun (e : Tel.event) ->
      let p = !pending in
      match (e.Tel.cat, e.Tel.ph) with
      | "perfbench", Tel.Begin when !depth > 0 -> incr depth
      | "perfbench", Tel.Begin when int_attr "acc" e = Some acc.id ->
        depth := 1;
        pending := tally ();
        stack := []
      | "perfbench", Tel.End when !depth > 0 -> decr depth
      | _ when !depth = 0 -> ()
      | "sim", Tel.Begin when e.Tel.name = "round" -> round_begin := wall e
      | "sim", Tel.End when e.Tel.name = "round" ->
        p.rounds <- p.rounds + 1;
        p.round_s <- p.round_s +. (wall e -. !round_begin);
        Option.iter
          (fun w -> p.round_words <- p.round_words +. float_of_int w)
          (int_attr "minor_words" e)
      | "sim", Tel.End when e.Tel.name = "sim.run" ->
        p.runs <- 1;
        p.msgs <- Option.value ~default:0 (int_attr "msgs" e);
        add_into total p;
        pending := tally ()
      | "core", Tel.Begin -> stack := (e.Tel.name, wall e, ref 0.) :: !stack
      | "core", Tel.End -> (
        match !stack with
        | (name, b, child) :: rest ->
          let d = wall e -. b in
          bump p.self_s name (d -. !child);
          bump p.seen name 1.;
          (match rest with (_, _, pc) :: _ -> pc := !pc +. d | [] -> ());
          stack := rest
        | [] -> ())
      | _ -> ())
    (List.filter (fun (e : Tel.event) -> e.Tel.track = "main") (Tel.events ()));
  total

(* The per-layer metrics [acc]'s units can back. Read them while the
   sink is still installed. A phase the traced work never entered is
   left out, so the caller can take it from the reference runs instead. *)
let metrics acc =
  let t = fold acc in
  let per_run x = x /. float_of_int (max 1 t.runs) in
  let per_words_run x = x /. float_of_int (max 1 acc.words_runs) in
  (if t.rounds > 0 then
     [
       ("sim.round_ms", t.round_s /. float_of_int t.rounds *. 1e3);
       ("sim.minor_words_per_round", t.round_words /. float_of_int t.rounds);
     ]
   else [])
  @ (if t.runs > 0 then [ ("sim.msgs_per_instance", per_run (float_of_int t.msgs)) ] else [])
  @ List.concat_map
      (fun p ->
        if Hashtbl.mem t.seen p then
          [
            ( "core." ^ p ^ "_ms",
              per_run (Option.value ~default:0. (Hashtbl.find_opt t.self_s p)) *. 1e3 );
            ( "core." ^ p ^ ".minor_words",
              per_words_run (Option.value ~default:0. (Hashtbl.find_opt acc.words p)) );
          ]
        else [])
      phases
