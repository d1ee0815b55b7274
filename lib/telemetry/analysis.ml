(* Offline analysis of JSONL traces: the engine behind bap_trace.

   The summary reconstructs the paper-facing accounting (rounds,
   messages, bits — per sub-protocol phase) from the trace alone. The
   simulator's round spans carry per-round message/bit counts; the core
   sub-protocol spans carry their round extent as begin/end attributes.
   A sub-protocol that starts when the process has consumed round [r0]
   first affects the wire in round [r0 + 1], so a core span with begin
   attribute [r0] and end attribute [r1] owns rounds [r0 + 1 .. r1];
   each round is attributed to the smallest enclosing extent (innermost
   sub-protocol wins), which mirrors how Stack.messages_by_component
   attributes costs from Wrapper.schedule. *)

module Tel = Telemetry

(* ---------- loading ---------- *)

let value_of_json = function
  | Json.Num f ->
    if Float.is_integer f && Float.abs f < 1e15 then Tel.Int (int_of_float f)
    else Tel.Float f
  | Json.Str s -> Tel.Str s
  | Json.Bool b -> Tel.Bool b
  | Json.Null | Json.List _ | Json.Obj _ -> Tel.Str "<composite>"

let ev_of_json j =
  let str k d = Option.value ~default:d (Json.to_string (Json.member k j)) in
  let ph =
    match str "ph" "i" with
    | "B" -> Tel.Begin
    | "E" -> Tel.End
    | _ -> Tel.Instant
  in
  let attrs =
    match Json.member "args" j with
    | Some (Json.Obj l) -> List.map (fun (k, v) -> (k, value_of_json v)) l
    | _ -> []
  in
  {
    Tel.name = str "name" "";
    cat = str "cat" "";
    ph;
    seq = Option.value ~default:0 (Json.to_int (Json.member "ts" j));
    track = str "track" "main";
    attrs;
    wall_us = Json.to_float (Json.member "wall_us" j);
  }

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go lineno acc =
        match In_channel.input_line ic with
        | None -> List.rev acc
        | Some "" -> go (lineno + 1) acc
        | Some line -> (
          match Json.parse line with
          | j -> go (lineno + 1) (ev_of_json j :: acc)
          | exception Json.Parse msg ->
            failwith (Printf.sprintf "%s:%d: %s" path lineno msg))
      in
      go 1 [])

let find_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then None
    else if String.sub hay i nn = needle then Some i
    else go (i + 1)
  in
  if nn = 0 then None else go 0

(* [wall_us] is always the final field of a line, so cutting from its
   comma to the closing brace removes every nondeterministic byte. *)
let strip_wall text =
  String.split_on_char '\n' text
  |> List.map (fun line ->
         match find_sub line ",\"wall_us\":" with
         | Some i -> String.sub line 0 i ^ "}"
         | None -> line)
  |> String.concat "\n"

(* ---------- tracks ---------- *)

let attr_int name attrs =
  match List.assoc_opt name attrs with
  | Some (Tel.Int i) -> Some i
  | Some (Tel.Float f) -> Some (int_of_float f)
  | _ -> None

let by_track evs =
  let sorted =
    List.stable_sort
      (fun a b ->
        let c = String.compare a.Tel.track b.Tel.track in
        if c <> 0 then c else Int.compare a.Tel.seq b.Tel.seq)
      evs
  in
  let rec split cur cur_name acc = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | e :: rest ->
      if String.equal e.Tel.track cur_name || cur = [] then
        split (e :: cur) e.Tel.track acc rest
      else split [ e ] e.Tel.track (List.rev cur :: acc) rest
  in
  split [] "" [] sorted

let group_by_name add l =
  let sorted = List.sort (fun (a, _) (b, _) -> String.compare a b) l in
  let rec go acc = function
    | [] -> List.rev acc
    | (k, v) :: rest -> (
      match acc with
      | (k', v') :: tl when String.equal k' k -> go ((k', add v' v) :: tl) rest
      | _ -> go ((k, v) :: acc) rest)
  in
  go [] sorted

(* ---------- round attribution ---------- *)

type interval = { iname : string; lo : int; hi : int; depth : int; order : int }

(* One finished sim.run: its End event, each round's End event paired
   with the phase that owns the round, and the names of the run's core
   spans. *)
type run = {
  run_end : Tel.event;
  owned_rounds : (string * Tel.event) list;
  span_names : string list;
}

(* The per-track walk both rollups fold over. Core spans open and close
   on a stack; each round goes to the smallest enclosing extent (deeper,
   then later-opened, on ties), or to "other". At each sim.run End the
   walk hands the run to [on_run] — spans that never closed (crashed
   cell) extend to the last observed round — and resets. Every event it
   does not consume goes to [on_event], in track order. *)
let walk_track ~on_run ~on_event track_evs =
  let round_ends = ref [] in
  let intervals = ref [] in
  let stack = ref [] in
  let cur_round = ref 0 in
  let order = ref 0 in
  let reset () =
    round_ends := [];
    intervals := [];
    stack := [];
    cur_round := 0
  in
  let close_interval (iname, lo0, depth, ord) hi =
    intervals := { iname; lo = lo0 + 1; hi; depth; order = ord } :: !intervals
  in
  let owner r =
    let best =
      List.fold_left
        (fun best iv ->
          if iv.lo <= r && r <= iv.hi then
            match best with
            | None -> Some iv
            | Some b ->
              let w iv = iv.hi - iv.lo in
              if
                w iv < w b
                || (w iv = w b
                   && (iv.depth > b.depth || (iv.depth = b.depth && iv.order > b.order)))
              then Some iv
              else Some b
          else best)
        None !intervals
    in
    match best with Some iv -> iv.iname | None -> "other"
  in
  let finish_run run_end =
    List.iter (fun sp -> close_interval sp !cur_round) !stack;
    on_run
      {
        run_end;
        owned_rounds = List.map (fun (r, e) -> (owner r, e)) !round_ends;
        span_names = List.map (fun iv -> iv.iname) !intervals;
      };
    reset ()
  in
  List.iter
    (fun e ->
      match (e.Tel.cat, e.Tel.name, e.Tel.ph) with
      | "sim", "sim.run", Tel.Begin -> reset ()
      | "sim", "sim.run", Tel.End -> finish_run e
      | "sim", "round", Tel.Begin ->
        Option.iter (fun r -> cur_round := r) (attr_int "round" e.Tel.attrs)
      | "sim", "round", Tel.End -> round_ends := (!cur_round, e) :: !round_ends
      | "core", name, Tel.Begin ->
        let r0 = Option.value ~default:!cur_round (attr_int "round" e.Tel.attrs) in
        stack := (name, r0, List.length !stack, !order) :: !stack;
        incr order
      | "core", name, Tel.End -> (
        let hi = Option.value ~default:!cur_round (attr_int "round" e.Tel.attrs) in
        match !stack with
        | (n, _, _, _) :: _ when not (String.equal n name) ->
          (* Mismatched close (should not happen): drop silently. *)
          ()
        | sp :: rest ->
          stack := rest;
          close_interval sp hi
        | [] -> ())
      | _ -> on_event e)
    track_evs

(* ---------- summary ---------- *)

type rollup = { spans : int; rounds : int; msgs : int; bits : int }

type summary_data = {
  events : int;
  tracks : int;
  runs : int;
  total_rounds : int;
  total_msgs : int;
  total_bits : int;
  adversary_msgs : int;
  phases : (string * rollup) list;
}

let zero = { spans = 0; rounds = 0; msgs = 0; bits = 0 }

let add_rollup a b =
  {
    spans = a.spans + b.spans;
    rounds = a.rounds + b.rounds;
    msgs = a.msgs + b.msgs;
    bits = a.bits + b.bits;
  }

let summarize evs =
  let runs = ref 0 in
  let total_rounds = ref 0 in
  let total_msgs = ref 0 in
  let total_bits = ref 0 in
  let adversary_msgs = ref 0 in
  let contribs = ref [] in
  let tracks = by_track evs in
  let on_run { run_end; owned_rounds; span_names } =
    let a e k = Option.value ~default:0 (attr_int k e.Tel.attrs) in
    incr runs;
    total_rounds := !total_rounds + a run_end "rounds";
    total_msgs := !total_msgs + a run_end "msgs";
    total_bits := !total_bits + a run_end "bits";
    adversary_msgs := !adversary_msgs + a run_end "adversary_msgs";
    List.iter
      (fun (name, e) ->
        contribs :=
          (name, { zero with rounds = 1; msgs = a e "msgs"; bits = a e "bits" })
          :: !contribs)
      owned_rounds;
    List.iter
      (fun name -> contribs := (name, { zero with spans = 1 }) :: !contribs)
      span_names
  in
  List.iter (walk_track ~on_run ~on_event:ignore) tracks;
  {
    events = List.length evs;
    tracks = List.length tracks;
    runs = !runs;
    total_rounds = !total_rounds;
    total_msgs = !total_msgs;
    total_bits = !total_bits;
    adversary_msgs = !adversary_msgs;
    phases = group_by_name add_rollup !contribs;
  }

let summary evs =
  let s = summarize evs in
  let head =
    Printf.sprintf
      "trace summary: %d events, %d tracks, %d runs\nrounds %d   messages %d   bits %d   adversary-messages %d\n"
      s.events s.tracks s.runs s.total_rounds s.total_msgs s.total_bits
      s.adversary_msgs
  in
  if s.phases = [] then head ^ "(no phase spans in trace)\n"
  else
    head ^ "\n"
    ^ Bap_stats.Table.render
        ~headers:[ "phase"; "spans"; "rounds"; "msgs"; "bits" ]
        (List.map
           (fun (name, r) ->
             [
               name;
               string_of_int r.spans;
               string_of_int r.rounds;
               string_of_int r.msgs;
               string_of_int r.bits;
             ])
           s.phases)
    ^ "\n"

(* ---------- diff ---------- *)

let diff evs_a evs_b =
  let a = summarize evs_a and b = summarize evs_b in
  let row name va vb =
    [ name; string_of_int va; string_of_int vb; Printf.sprintf "%+d" (vb - va) ]
  in
  let phase_names =
    List.sort_uniq String.compare
      (List.map fst a.phases @ List.map fst b.phases)
  in
  let phase_get phases name =
    Option.value ~default:zero (List.assoc_opt name phases)
  in
  let rows =
    [
      row "events" a.events b.events;
      row "runs" a.runs b.runs;
      row "rounds" a.total_rounds b.total_rounds;
      row "msgs" a.total_msgs b.total_msgs;
      row "bits" a.total_bits b.total_bits;
      row "adversary-msgs" a.adversary_msgs b.adversary_msgs;
    ]
    @ List.concat_map
        (fun name ->
          let ra = phase_get a.phases name and rb = phase_get b.phases name in
          [
            row (name ^ ".rounds") ra.rounds rb.rounds;
            row (name ^ ".msgs") ra.msgs rb.msgs;
          ])
        phase_names
  in
  Bap_stats.Table.render ~headers:[ "metric"; "a"; "b"; "delta" ] rows ^ "\n"

(* ---------- critical path ---------- *)

type cell_timing = { cid : string; dur_us : float; outcome : string }

let cell_timings evs =
  List.concat_map
    (fun track_evs ->
      let open_b = ref None in
      List.filter_map
        (fun e ->
          match (e.Tel.name, e.Tel.ph) with
          | "cell", Tel.Begin ->
            open_b := Some e;
            None
          | "cell", Tel.End -> (
            match !open_b with
            | Some b -> (
              open_b := None;
              match (b.Tel.wall_us, e.Tel.wall_us) with
              | Some w0, Some w1 ->
                let outcome =
                  match List.assoc_opt "outcome" e.Tel.attrs with
                  | Some (Tel.Str s) -> s
                  | _ -> "?"
                in
                Some { cid = e.Tel.track; dur_us = w1 -. w0; outcome }
              | _ -> None)
            | None -> None)
          | _ -> None)
        track_evs)
    (by_track evs)

(* ---------- allocation report ---------- *)

(* Reconstructs per-phase allocation from the [minor_words] attributes
   the memprobe adds to round / sim.run / cell / sweep End events.

   Attribution mirrors [summarize]: each round's words go to the
   innermost core span whose round extent contains it (or "other");
   what a run allocated outside its rounds (the spawn segment,
   inter-round bookkeeping) stays with "sim.run"; what a cell allocated
   outside its runs (advice construction, row assembly) stays with
   "cell"; and the sweep span's remainder — minus the cells, which run
   on the same domain only under an inline pool — is "harness". Every
   measured word lands in exactly one row, so the rows sum to the
   measured total and the named-span coverage is 1 - other/total. *)

type alloc_rollup = { a_spans : int; a_rounds : int; a_words : int }

type alloc_data = {
  a_events : int;
  a_tracks : int;
  a_runs : int;
  a_rounds : int;
  a_total_words : int;
  a_other_words : int;
  a_process_words : int option;
  a_rows : (string * alloc_rollup) list;  (** sorted by words, descending *)
  a_samples : (string * string * int) list;
      (** (site, phase, samples), descending by samples *)
}

let azero = { a_spans = 0; a_rounds = 0; a_words = 0 }

let add_arollup a b =
  {
    a_spans = a.a_spans + b.a_spans;
    a_rounds = a.a_rounds + b.a_rounds;
    a_words = a.a_words + b.a_words;
  }

let alloc_summarize evs =
  let contribs = ref [] in
  let runs = ref 0 in
  let rounds = ref 0 in
  let cells_words = ref 0 in
  let top_runs_words = ref 0 in
  let sweep_words = ref 0 in
  let process_words = ref None in
  let samples = ref [] in
  let mw e = attr_int "minor_words" e.Tel.attrs in
  let tracks = by_track evs in
  List.iter
    (fun track_evs ->
      (* Per-track cell scope. *)
      let in_cell = ref false in
      let cell_runs_words = ref 0 in
      let on_run { run_end; owned_rounds; span_names } =
        Option.iter
          (fun run_words ->
            incr runs;
            let rounds_words = ref 0 in
            List.iter
              (fun (name, e) ->
                Option.iter
                  (fun w ->
                    incr rounds;
                    rounds_words := !rounds_words + w;
                    contribs :=
                      (name, { azero with a_rounds = 1; a_words = w }) :: !contribs)
                  (mw e))
              owned_rounds;
            List.iter
              (fun name -> contribs := (name, { azero with a_spans = 1 }) :: !contribs)
              span_names;
            contribs :=
              ("sim.run", { azero with a_spans = 1; a_words = run_words - !rounds_words })
              :: !contribs;
            if !in_cell then cell_runs_words := !cell_runs_words + run_words
            else top_runs_words := !top_runs_words + run_words)
          (mw run_end)
      in
      let on_event e =
        match (e.Tel.cat, e.Tel.name, e.Tel.ph) with
        | "exec", "cell", Tel.Begin ->
          in_cell := true;
          cell_runs_words := 0
        | "exec", "cell", Tel.End ->
          in_cell := false;
          Option.iter
            (fun w ->
              cells_words := !cells_words + w;
              contribs :=
                ("cell", { azero with a_spans = 1; a_words = w - !cell_runs_words })
                :: !contribs)
            (mw e)
        | "exec", "sweep", Tel.End ->
          Option.iter (fun w -> sweep_words := !sweep_words + w) (mw e)
        | "alloc", "alloc.process", _ ->
          Option.iter (fun w -> process_words := Some w) (mw e)
        | "alloc", "alloc.sample", _ -> (
          let str k =
            match List.assoc_opt k e.Tel.attrs with
            | Some (Tel.Str s) -> Some s
            | _ -> None
          in
          match (str "site", str "phase", attr_int "samples" e.Tel.attrs) with
          | Some site, Some phase, Some n -> samples := (site, phase, n) :: !samples
          | _ -> ())
        | _ -> ()
      in
      walk_track ~on_run ~on_event track_evs)
    tracks;
  (* The sweep's own-domain words, minus the cells (same domain only
     under an inline pool — the subtraction makes the row ~0 under a
     parallel pool instead of double-counting) and minus any runs that
     executed outside cells. Clamped: never negative. *)
  let harness = max 0 (!sweep_words - !cells_words - !top_runs_words) in
  if harness > 0 then
    contribs := ("harness", { azero with a_spans = 1; a_words = harness }) :: !contribs;
  let rows =
    group_by_name add_arollup !contribs
    |> List.filter (fun (_, r) -> r.a_words > 0 || r.a_spans > 0 || r.a_rounds > 0)
    |> List.stable_sort (fun (_, a) (_, b) -> Int.compare b.a_words a.a_words)
  in
  let other_words =
    match List.assoc_opt "other" rows with Some r -> r.a_words | None -> 0
  in
  {
    a_events = List.length evs;
    a_tracks = List.length tracks;
    a_runs = !runs;
    a_rounds = !rounds;
    a_total_words = !cells_words + !top_runs_words + harness;
    a_other_words = other_words;
    a_process_words = !process_words;
    a_rows = rows;
    a_samples =
      List.stable_sort
        (fun (_, _, a) (_, _, b) -> Int.compare b a)
        (List.sort compare !samples);
  }

let alloc_report ?(top = 15) evs =
  let d = alloc_summarize evs in
  if d.a_total_words = 0 then
    "alloc: no allocation attributes in trace (record one with bap_tables \
     --alloc-out)\n"
  else
    let pct x = 100. *. float_of_int x /. float_of_int d.a_total_words in
    let head =
      Printf.sprintf
        "alloc: %d runs, %d rounds, %d minor words measured across %d tracks\n\
         attributed to named spans: %.1f%% (other %.1f%%)\n"
        d.a_runs d.a_rounds d.a_total_words d.a_tracks
        (pct (d.a_total_words - d.a_other_words))
        (pct d.a_other_words)
    in
    let head =
      match d.a_process_words with
      | Some p when p > 0 ->
        head
        ^ Printf.sprintf "process minor words: %d (span coverage %.1f%%)\n" p
            (100. *. float_of_int d.a_total_words /. float_of_int p)
      | _ -> head
    in
    let widest =
      List.fold_left (fun m (_, r) -> max m r.a_words) 1 d.a_rows
    in
    let bar w =
      let n = int_of_float (float_of_int w /. float_of_int widest *. 40.) in
      String.make (max (min n 40) 1) '#'
    in
    let table =
      Bap_stats.Table.render
        ~headers:[ "phase"; "spans"; "rounds"; "minor_words"; "w/round"; "share"; "" ]
        (List.map
           (fun (name, r) ->
             [
               name;
               string_of_int r.a_spans;
               string_of_int r.a_rounds;
               string_of_int r.a_words;
               (if r.a_rounds > 0 then
                  string_of_int (r.a_words / r.a_rounds)
                else "-");
               Printf.sprintf "%.1f%%" (pct r.a_words);
               bar r.a_words;
             ])
           d.a_rows)
    in
    let sites =
      match d.a_samples with
      | [] -> "(no sampled allocation sites in trace)\n"
      | all ->
        let shown = List.filteri (fun i _ -> i < top) all in
        let total = List.fold_left (fun acc (_, _, n) -> acc + n) 0 all in
        let widest = List.fold_left (fun m (_, _, n) -> max m n) 1 all in
        let sbar n =
          let w = int_of_float (float_of_int n /. float_of_int widest *. 40.) in
          String.make (max (min w 40) 1) '#'
        in
        Printf.sprintf "top sampled allocation sites (%d of %d, %d samples):\n"
          (List.length shown) (List.length all) total
        ^ Bap_stats.Table.render
            ~headers:[ "site"; "phase"; "samples"; "" ]
            (List.map
               (fun (site, phase, n) ->
                 [ site; phase; string_of_int n; sbar n ])
               shown)
        ^ "\n"
    in
    head ^ "\n" ^ table ^ "\n\n" ^ sites

(* Parse the table [alloc_report] renders back into (phase, words)
   rows — the round-trip bap_trace's own tests and scripts rely on.
   Columns are split on runs of two or more spaces (names and sites
   never contain those). *)
let parse_alloc_report text =
  let split_cols line =
    let n = String.length line in
    let out = ref [] and buf = Buffer.create 16 in
    let rec go i =
      if i >= n then begin
        if Buffer.length buf > 0 then out := Buffer.contents buf :: !out
      end
      else if
        line.[i] = ' ' && i + 1 < n && line.[i + 1] = ' '
      then begin
        if Buffer.length buf > 0 then out := Buffer.contents buf :: !out;
        Buffer.clear buf;
        let rec skip j = if j < n && line.[j] = ' ' then skip (j + 1) else j in
        go (skip i)
      end
      else begin
        Buffer.add_char buf line.[i];
        go (i + 1)
      end
    in
    go 0;
    List.rev !out
  in
  let lines = String.split_on_char '\n' text in
  let rec find_table = function
    | [] -> []
    | l :: rest -> (
      match split_cols l with
      | "phase" :: _ :: _ :: "minor_words" :: _ -> (
        match rest with _sep :: rows -> rows | [] -> [])
      | _ -> find_table rest)
  in
  let rec take acc = function
    | [] -> List.rev acc
    | l :: rest -> (
      if String.trim l = "" then List.rev acc
      else
        match split_cols l with
        | name :: _spans :: _rounds :: words :: _ -> (
          match int_of_string_opt words with
          | Some w -> take ((name, w) :: acc) rest
          | None -> take acc rest)
        | _ -> List.rev acc)
  in
  take [] (find_table lines)

let critpath ?(top = 15) evs =
  let cells =
    List.sort
      (fun a b -> Float.compare b.dur_us a.dur_us)
      (cell_timings evs)
  in
  match cells with
  | [] ->
    "critpath: no timed cell spans in trace (record with wall-clock enabled, \
     e.g. bap_tables --trace-out)\n"
  | slowest :: _ ->
    let total = List.fold_left (fun acc c -> acc +. c.dur_us) 0. cells in
    let shown = List.filteri (fun i _ -> i < top) cells in
    let bar c =
      let w = int_of_float (c.dur_us /. slowest.dur_us *. 40.) in
      String.make (max 1 w) '#'
    in
    Printf.sprintf
      "critical path: %d timed cells, %.1f ms total cell time; slowest %d:\n\n"
      (List.length cells) (total /. 1e3) (List.length shown)
    ^ Bap_stats.Table.render
        ~headers:[ "cell"; "ms"; "outcome"; "" ]
        (List.map
           (fun c ->
             [
               c.cid;
               Printf.sprintf "%.1f" (c.dur_us /. 1e3);
               c.outcome;
               bar c;
             ])
           shown)
    ^ "\n"
