(* The repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   runs one workload for about S seconds and prints, as its last line,
   one JSON object: {"correct", "attempted", "failed", "metrics"}. With
   --trace 0 the metrics are the end-to-end ones, from an untraced run.
   With --trace 1 they are the per-layer ones: the workload runs half
   the time untraced and half traced, then the layer suite runs
   untraced; the traced-vs-untraced difference is the tracing overhead.
   The traced half installs the telemetry sink once (wall stamps, the
   benchmark's own spans beside the program's, allocation probe on) and
   writes its events to _perfbench/spans-<workload>.jsonl at its end.

   Outputs are checked on every run; any wrong output makes "correct"
   false and the exit code 1. Unknown arguments exit 2 without a result.

   Options for the self-test: --size tiny shrinks every workload,
   --corrupt-pins perturbs the pinned fingerprints (the gate must trip),
   --print-pins NAME prints the fingerprint table of a pool. *)

let end_to_end =
  [
    ("throughput_per_s", "1/s");
    ("latency_p50_ms", "ms");
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
  ]

let per_layer =
  [
    ("sim.round_ms", "ms");
    ("sim.minor_words_per_round", "words");
    ("sim.msgs_per_instance", "count");
    ("sim.inbox_first_us", "us");
    ("sim.inbox_plurality_us", "us");
    ("sim.inbox_restrict_us", "us");
  ]
  @ List.concat_map
      (fun p -> [ ("core." ^ p ^ "_ms", "ms"); ("core." ^ p ^ ".minor_words", "words") ])
      Tel_an.phases
  @ [
      ("core.graded_unauth_ms", "ms");
      ("core.graded_auth_ms", "ms");
      ("crypto.sign_us", "us");
      ("crypto.verify_us", "us");
      ("crypto.encode_us", "us");
      ("wire.valid_echo_cert_us", "us");
      ("wire.valid_committee_cert_us", "us");
      ("wire.valid_chain_us", "us");
      ("wire.size_bits_ns", "ns");
      ("serve.frame_decode_us", "us");
      ("serve.parse_us", "us");
      ("serve.admission_us", "us");
      ("serve.execute_us", "us");
      ("serve.dispatch_overhead_us", "us");
      ("serve.response_encode_us", "us");
      ("serve.journal_accept_us", "us");
      ("serve.journal_respond_us", "us");
      ("serve.minor_words_per_instance", "words");
      ("serve.latency_p99_ms", "ms");
      ("serve.send_lag_p99_ms", "ms");
      ("serve.recovery_ms", "ms");
      ("exec.wal_append_us", "us");
      ("exec.wal_replay_ms", "ms");
      ("telemetry.json_parse_us", "us");
      ("check.leaf_us", "us");
      ("check.canon_key_us", "us");
      ("check.universe_enum_us", "us");
      ("chaos.engine_run_us", "us");
      ("check.states", "count");
      ("check.leaves", "count");
      ("check.symmetry_hits", "count");
      ("prediction.advice_ms", "ms");
      ("trace.overhead_pct", "%");
    ]

module Tel = Bap_telemetry.Telemetry
module Memprobe = Bap_telemetry.Memprobe

let workloads = [ "serve-small"; "wrapper-n2000"; "auth-n31"; "check-n4" ]

let usage () =
  prerr_endline
    "usage: main.exe --workload (serve-small|wrapper-n2000|auth-n31|check-n4) --seed N \
     --seconds S --trace 0|1 [--size tiny] [--corrupt-pins]";
  exit 2

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  tiny : bool;
  corrupt : bool;
}

let parse_args () =
  let a =
    ref { workload = ""; seed = -1; seconds = -1.; trace = false; tiny = false; corrupt = false }
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest when List.mem w workloads ->
      a := { !a with workload = w };
      go rest
    | "--seed" :: s :: rest when int_of_string_opt s <> None ->
      a := { !a with seed = int_of_string s };
      go rest
    | "--seconds" :: s :: rest when Option.fold ~none:false ~some:(fun x -> x > 0.) (float_of_string_opt s) ->
      a := { !a with seconds = float_of_string s };
      go rest
    | "--trace" :: (("0" | "1") as t) :: rest ->
      a := { !a with trace = t = "1" };
      go rest
    | "--size" :: (("tiny" | "full") as s) :: rest ->
      a := { !a with tiny = s = "tiny" };
      go rest
    | "--corrupt-pins" :: rest ->
      a := { !a with corrupt = true };
      go rest
    | [ "--print-pins"; w ] ->
      let p =
        match w with
        | "wrapper-n2000" -> (Wl_proto.wrapper_n2000, 24)
        | "auth-n31" -> (Wl_proto.auth_n31, 32)
        | "wrapper-tiny" -> (Wl_proto.wrapper_tiny, 8)
        | "auth-tiny" -> (Wl_proto.auth_tiny, 8)
        | _ -> usage ()
      in
      Wl_proto.print_pins (fst p) ~pool:(snd p);
      exit 0
    | arg :: _ ->
      Printf.eprintf "perfbench: unexpected argument %S\n" arg;
      usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  if !a.workload = "" || !a.seed < 0 || !a.seconds <= 0. then usage ();
  !a

let run_workload a ~budget_s =
  let corrupt = a.corrupt and seed = a.seed in
  match a.workload with
  | "serve-small" ->
    Wl_serve.run ~sizes:(if a.tiny then Wl_serve.tiny else Wl_serve.full) ~seed ~budget_s ~corrupt
  | "wrapper-n2000" ->
    Wl_proto.run
      (if a.tiny then Wl_proto.wrapper_tiny else Wl_proto.wrapper_n2000)
      ~seed ~budget_s ~corrupt
  | "auth-n31" ->
    Wl_proto.run
      (if a.tiny then Wl_proto.auth_tiny else Wl_proto.auth_n31)
      ~seed ~budget_s ~corrupt
  | _ -> Wl_check.run ~tiny_size:a.tiny ~budget_s ~corrupt

let json_number x = if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x else Printf.sprintf "%.17g" x

let () =
  let a = parse_args () in
  let table, values, attempted, failed =
    if not a.trace then begin
      let o = run_workload a ~budget_s:a.seconds in
      ( end_to_end,
        o.Outcome.e2e @ [ ("peak_rss_mb", Bcore.peak_rss_mb ()) ],
        o.Outcome.attempted,
        o.Outcome.failed )
    end
    else begin
      let half = a.seconds /. 2. in
      let u = run_workload a ~budget_s:half in
      let spans = Bcore.out_path (Printf.sprintf "spans-%s.jsonl" a.workload) in
      Tel.install ~wall:true ~limit:Tel_an.event_limit (Tel.Jsonl spans);
      Memprobe.enable ();
      let reference, t =
        Fun.protect
          ~finally:(fun () ->
            Memprobe.disable ();
            let kept = List.length (Tel.events ()) and dropped = Tel.dropped () in
            Tel.shutdown ();
            Printf.eprintf "perfbench: %d events written to %s, %d dropped\n%!" kept spans
              dropped)
          (fun () ->
            let reference = Layers.reference ~seed:a.seed in
            (reference, run_workload a ~budget_s:half))
      in
      let suite = Layers.run ~seed:a.seed ~tiny_size:a.tiny in
      let overhead = ((t.Outcome.primary_s /. u.Outcome.primary_s) -. 1.) *. 100. in
      ( per_layer,
        t.Outcome.layer @ suite.Layers.metrics @ reference @ [ ("trace.overhead_pct", overhead) ],
        u.Outcome.attempted + t.Outcome.attempted + suite.Layers.attempted,
        u.Outcome.failed + t.Outcome.failed + suite.Layers.failed )
    end
  in
  let missing = ref [] in
  let fields =
    List.map
      (fun (name, unit) ->
        match List.assoc_opt name values with
        | Some v when Float.is_finite v ->
          Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (json_number v) unit
        | _ ->
          missing := name :: !missing;
          Printf.sprintf "\"%s\": {\"value\": 0, \"unit\": \"%s\"}" name unit)
      table
  in
  if !missing <> [] then
    Printf.eprintf "perfbench: no measured value for %s\n" (String.concat ", " (List.rev !missing));
  let correct = failed = 0 && !missing = [] in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (max 1 attempted) failed (String.concat ", " fields);
  exit (if correct then 0 else 1)
