(* The telemetry spine (lib/telemetry): spans and metrics must never
   perturb results, logical traces must not depend on --jobs, and the
   JSONL round-trip through Analysis must reproduce the simulator's own
   accounting exactly. *)

module Tel = Bap_telemetry.Telemetry
module Analysis = Bap_telemetry.Analysis
module Json = Bap_telemetry.Json
module Pool = Bap_exec.Pool
module Plan = Bap_exec.Plan
module Engine = Bap_exec.Engine
module Rng = Bap_sim.Rng
module V = Bap_core.Value.Int
module S = Bap_core.Stack.Make (V)

(* Unique per call without reading the clock (same idiom as test_exec). *)
let temp_seq = Atomic.make 0

let temp_file ext =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "bap-tel-test-%d-%d%s" (Unix.getpid ())
       (Atomic.fetch_and_add temp_seq 1)
       ext)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

(* One small but non-trivial execution of the full unauth stack:
   7 processes, one faulty, perfect advice. *)
let small_run () =
  let n = 7 in
  let t = 2 in
  let faulty = [| 3 |] in
  let rng = Rng.create 11 in
  let inputs = Array.init n (fun _ -> Rng.int rng 2) in
  let advice = Bap_prediction.Gen.perfect ~n ~faulty in
  S.run_unauth ~t ~faulty ~inputs ~advice ~adversary:Bap_sim.Adversary.silent ()

let with_tel ?wall mode f =
  Tel.install ?wall mode;
  Fun.protect ~finally:Tel.shutdown f

(* ---------- off by default ---------- *)

let test_off_by_default () =
  Alcotest.(check (list reject)) "no sink, no events" [] (Tel.events ());
  let bare = small_run () in
  let traced = with_tel Tel.Memory (fun () -> small_run ()) in
  Alcotest.(check bool) "tracing does not change decisions" true
    (bare.S.R.decisions = traced.S.R.decisions);
  Alcotest.(check int) "tracing does not change rounds" bare.S.R.rounds traced.S.R.rounds;
  Alcotest.(check int) "tracing does not change msgs" bare.S.R.honest_sent
    traced.S.R.honest_sent;
  Alcotest.(check (list reject)) "shutdown clears events" [] (Tel.events ())

(* ---------- logical determinism ---------- *)

let canonical_lines evs = List.mapi (fun i e -> Tel.to_json_line ~tid:i e) evs

let test_trace_reproducible () =
  let a = with_tel Tel.Memory (fun () -> ignore (small_run ()); Tel.events ()) in
  let b = with_tel Tel.Memory (fun () -> ignore (small_run ()); Tel.events ()) in
  Alcotest.(check bool) "events non-empty" true (a <> []);
  Alcotest.(check (list string)) "identical logical trace" (canonical_lines a)
    (canonical_lines b)

(* The engine gives every executing cell its own track, so the canonical
   event stream must be a pure function of the plan, not of --jobs or
   the steal schedule. *)
let sim_plan () =
  let cell seed =
    Plan.row_cell (Printf.sprintf "seed=%d" seed) (fun () ->
        let o = small_run () in
        ignore o;
        let rng = Rng.create seed in
        [ string_of_int (Rng.int rng 1000) ])
  in
  {
    Plan.exp_id = "TEL";
    scope = "unit";
    cells = List.map cell (List.init 8 (fun i -> 500 + i));
    render = ignore;
  }

let sweep_events ~jobs =
  with_tel Tel.Memory (fun () ->
      Pool.with_pool ~jobs (fun pool -> ignore (Engine.run ~pool [ sim_plan () ]));
      Tel.events ())

let test_trace_jobs_independent () =
  let serial = sweep_events ~jobs:1 in
  let par = sweep_events ~jobs:4 in
  Alcotest.(check bool) "events non-empty" true (serial <> []);
  Alcotest.(check (list string)) "--jobs 1 trace = --jobs 4 trace"
    (canonical_lines serial) (canonical_lines par)

(* ---------- JSONL round-trip ---------- *)

let test_jsonl_roundtrip () =
  let path = temp_file ".jsonl" in
  Tel.install ~wall:true (Tel.Jsonl path);
  let o = small_run () in
  Tel.shutdown ();
  let evs = Analysis.load path in
  let s = Analysis.summarize evs in
  Alcotest.(check int) "one run" 1 s.Analysis.runs;
  Alcotest.(check int) "rounds survive the round-trip" o.S.R.rounds
    s.Analysis.total_rounds;
  Alcotest.(check int) "msgs survive the round-trip" o.S.R.honest_sent
    s.Analysis.total_msgs;
  Alcotest.(check int) "bits survive the round-trip" o.S.R.honest_bits
    s.Analysis.total_bits;
  Alcotest.(check int) "adversary msgs survive" o.S.R.adversary_sent
    s.Analysis.adversary_msgs;
  let phase_msgs =
    List.fold_left (fun acc (_, r) -> acc + r.Analysis.msgs) 0 s.Analysis.phases
  in
  Alcotest.(check int) "every message attributed to a phase" o.S.R.honest_sent
    phase_msgs;
  (* The human-facing report carries the same headline numbers. *)
  let txt = Analysis.summary evs in
  let contains needle hay =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    nn = 0 || go 0
  in
  Alcotest.(check bool) "summary states the message total" true
    (contains (Printf.sprintf "messages %d" o.S.R.honest_sent) txt);
  Sys.remove path

(* Stripping wall_us is the canonical preparation for comparing traces:
   it must remove every stamp and leave the logical stream loadable and
   unchanged. *)
let test_strip_wall () =
  let path = temp_file ".jsonl" in
  Tel.install ~wall:true (Tel.Jsonl path);
  ignore (small_run ());
  Tel.shutdown ();
  let text = read_file path in
  let stripped = Analysis.strip_wall text in
  let contains needle hay =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    nn = 0 || go 0
  in
  Alcotest.(check bool) "wall stamps present before" true (contains "wall_us" text);
  Alcotest.(check bool) "wall stamps gone after" false (contains "wall_us" stripped);
  let path2 = temp_file ".jsonl" in
  write_file path2 stripped;
  let a = Analysis.summarize (Analysis.load path) in
  let b = Analysis.summarize (Analysis.load path2) in
  Alcotest.(check bool) "stripping preserves the logical stream" true (a = b);
  Sys.remove path;
  Sys.remove path2

(* ---------- metrics ---------- *)

let test_metrics_merge_hist () =
  let open Tel.Metrics in
  let h xs =
    List.fold_left
      (fun acc x ->
        {
          count = acc.count + 1;
          total = acc.total + x;
          min_v = min acc.min_v x;
          max_v = max acc.max_v x;
        })
      { count = 0; total = 0; min_v = max_int; max_v = min_int }
      xs
  in
  let a = h [ 3; 9; 1 ] and b = h [ 4 ] and c = h [ 7; 7 ] in
  let empty = h [] in
  Alcotest.(check bool) "associative" true
    (merge_hist (merge_hist a b) c = merge_hist a (merge_hist b c));
  Alcotest.(check bool) "commutative" true (merge_hist a b = merge_hist b a);
  Alcotest.(check bool) "empty is identity" true (merge_hist a empty = a);
  Alcotest.(check bool) "merge = concat" true (merge_hist a c = h [ 3; 9; 1; 7; 7 ])

let test_metrics_cross_domain () =
  with_tel Tel.Counters_only (fun () ->
      Pool.with_pool ~jobs:4 (fun pool ->
          let tasks =
            Array.init 100 (fun i () ->
                Tel.Metrics.counter "test.ticks" 1;
                Tel.Metrics.observe "test.size" i;
                Tel.Metrics.gauge_max "test.peak" i;
                i)
          in
          ignore (Pool.run_all pool tasks));
      let s = Tel.Metrics.snapshot () in
      Alcotest.(check (option int)) "counter sums across domains" (Some 100)
        (List.assoc_opt "test.ticks" s.Tel.Metrics.counters);
      Alcotest.(check (option int)) "gauge keeps the max" (Some 99)
        (List.assoc_opt "test.peak" s.Tel.Metrics.gauges);
      match List.assoc_opt "test.size" s.Tel.Metrics.hists with
      | None -> Alcotest.fail "histogram missing"
      | Some h ->
        Alcotest.(check int) "hist count" 100 h.Tel.Metrics.count;
        Alcotest.(check int) "hist total" (99 * 100 / 2) h.Tel.Metrics.total;
        Alcotest.(check int) "hist min" 0 h.Tel.Metrics.min_v;
        Alcotest.(check int) "hist max" 99 h.Tel.Metrics.max_v)

let jint j path =
  let v =
    List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j) path
  in
  match Json.to_int v with
  | Some n -> n
  | None -> Alcotest.failf "missing int field %s" (String.concat "." path)

let test_metrics_json_parses () =
  with_tel Tel.Counters_only (fun () ->
      Tel.Metrics.counter "a.b" 7;
      Tel.Metrics.observe "c.d" 3;
      let j = Json.parse (Tel.Metrics.to_json (Tel.Metrics.snapshot ())) in
      Alcotest.(check int) "counter round-trips" 7 (jint j [ "counters"; "a.b" ]);
      Alcotest.(check int) "hist count round-trips" 1 (jint j [ "hists"; "c.d"; "count" ]))

(* ---------- Engine.stats_json ---------- *)

let test_stats_json_parses () =
  let stats = Pool.with_pool ~jobs:2 (fun pool -> Engine.run ~pool [ sim_plan () ]) in
  let j = Json.parse (Engine.stats_json stats) in
  Alcotest.(check int) "total cells" 8 (jint j [ "total_cells" ]);
  Alcotest.(check int) "executed" 8 (jint j [ "executed" ]);
  Alcotest.(check int) "jobs" 2 (jint j [ "jobs" ]);
  match Json.to_list (Json.member "quarantined" j) with
  | Some [] -> ()
  | Some qs -> Alcotest.failf "unexpected quarantined cells: %d" (List.length qs)
  | None -> Alcotest.fail "quarantined field missing"

(* The signal exit path: a handler cannot take blocking locks, so the
   supervisor's SIGINT/SIGTERM route flushes through signal_shutdown.
   It must produce the same valid JSONL a normal shutdown writes when
   uncontended, and leave nothing installed behind it. *)
let test_signal_shutdown_flushes () =
  let path = temp_file ".jsonl" in
  Tel.install (Tel.Jsonl path);
  Tel.span ~cat:"t" ~name:"work" (fun () -> Tel.instant ~cat:"t" ~name:"mark" ());
  Tel.signal_shutdown ();
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  Alcotest.(check int) "span begin/end + instant" 3 (List.length !lines);
  List.iter (fun l -> ignore (Json.parse l)) !lines;
  (* The state handoff happened: the regular shutdown is now a no-op
     and does not rewrite the file. *)
  Sys.remove path;
  Tel.shutdown ();
  Alcotest.(check bool) "no double flush" false (Sys.file_exists path)

(* ---------- Json escape/parse ---------- *)

let qcheck_escape_roundtrip =
  QCheck2.Test.make ~count:500 ~name:"JSON: parse inverts escape on any bytes"
    QCheck2.Gen.(string_size ~gen:char (int_range 0 64))
    (fun s ->
      match Json.parse ("\"" ^ Json.escape s ^ "\"") with
      | Json.Str s' -> String.equal s s'
      | _ -> false)

let test_json_unicode_and_depth () =
  let str j = Json.to_string (Some (Json.parse j)) in
  Alcotest.(check (option string)) "escape output" (Some "a\001b\bc")
    (str ("\"" ^ Json.escape "a\001b\bc" ^ "\""));
  Alcotest.(check (option string)) "BMP to UTF-8" (Some "\xc3\xa9\xe2\x82\xac")
    (str {|"\u00e9\u20AC"|});
  List.iter
    (fun bad ->
      match Json.parse bad with
      | exception Json.Parse _ -> ()
      | _ -> Alcotest.failf "accepted %s" bad)
    [ {|"\u12"|}; {|"\u12g4"|}; {|"\ud83d\ude00"|}; {|"\ude00"|} ];
  let nest k = String.make k '[' ^ String.make k ']' in
  ignore (Json.parse (nest Json.max_depth));
  match Json.parse (nest (Json.max_depth + 1)) with
  | exception Json.Parse _ -> ()
  | _ -> Alcotest.fail "nesting past max_depth accepted"

let suite =
  [
    Alcotest.test_case "off by default, results identical" `Quick test_off_by_default;
    Alcotest.test_case "signal_shutdown: lock-free flush, single handoff" `Quick
      test_signal_shutdown_flushes;
    Alcotest.test_case "logical trace reproducible" `Quick test_trace_reproducible;
    Alcotest.test_case "trace independent of --jobs" `Quick test_trace_jobs_independent;
    Alcotest.test_case "JSONL round-trip matches simulator accounting" `Quick
      test_jsonl_roundtrip;
    Alcotest.test_case "strip_wall removes stamps only" `Quick test_strip_wall;
    Alcotest.test_case "histogram merge is exact" `Quick test_metrics_merge_hist;
    Alcotest.test_case "metrics merge across domains" `Quick test_metrics_cross_domain;
    Alcotest.test_case "metrics JSON parses" `Quick test_metrics_json_parses;
    Alcotest.test_case "stats JSON parses" `Quick test_stats_json_parses;
    QCheck_alcotest.to_alcotest qcheck_escape_roundtrip;
    Alcotest.test_case "JSON: unicode escapes and nesting bound" `Quick
      test_json_unicode_and_depth;
  ]
