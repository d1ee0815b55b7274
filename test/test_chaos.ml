(* Chaos-layer regression tests: hand-picked hard fault schedules that
   must never violate the safety oracles, determinism of the whole
   fuzzing pipeline (same seed => same schedules, same verdicts, same
   campaign checksum), the ddmin shrinker, and the sabotage self-test
   that proves the oracles are live. *)

open Helpers
module Schedule = Bap_chaos.Schedule
module Shrink = Bap_chaos.Shrink
module Fuzz = Bap_chaos.Fuzz
module E = Fuzz.E

let violation = Alcotest.testable E.Oracle.pp_violation ( = )

let run_clean ~protocol ~t ~faulty ~inputs schedule =
  let n = Array.length inputs in
  let cfg =
    { E.protocol; t; faulty; inputs; advice = Gen.perfect ~n ~faulty; schedule }
  in
  let r = Fuzz.run_one cfg in
  Alcotest.(check (list violation))
    (Printf.sprintf "no violations (%s)" (E.protocol_name protocol))
    [] r.E.violations

(* Regression 1: crash + omission storm against the unauthenticated
   protocol at the n = 3t + 1 quorum boundary — both faulty processes
   stay half-alive, starving two honest receivers for the whole run. *)
let test_crash_omission_storm () =
  let schedule =
    Schedule.
      [
        Crash_at { proc = 0; round = 4 };
        Omit_to { proc = 3; dst = 1; first = 1; last = 60 };
        Omit_to { proc = 3; dst = 2; first = 1; last = 60 };
        Omit_to { proc = 0; dst = 4; first = 1; last = 3 };
        Drop { src = 3; dst = 4; round = 2 };
      ]
  in
  run_clean ~protocol:E.Unauth ~t:2 ~faulty:[| 0; 3 |]
    ~inputs:[| 1; 0; 1; 0; 1; 1; 0 |] schedule;
  run_clean ~protocol:E.Es_baseline ~t:2 ~faulty:[| 0; 3 |]
    ~inputs:[| 1; 0; 1; 0; 1; 1; 0 |] schedule

(* Regression 2: equivocation + payload corruption against the
   authenticated protocol at the n = 2t + 1 boundary — a sustained
   split-world sender plus bit-flips on the second traitor's edges. *)
let test_equivocation_corruption () =
  let schedule =
    Schedule.
      [
        Equivocate { proc = 1; first = 1; last = 40; salt = 5 };
        Corrupt { src = 4; dst = 0; round = 2; bit = 17 };
        Corrupt { src = 4; dst = 2; round = 3; bit = 999 };
        Advice_flip { proc = 4; bit = 0 };
        Reorder { src = 2; dst = 3; round = 1 };
      ]
  in
  run_clean ~protocol:E.Auth ~t:2 ~faulty:[| 1; 4 |] ~inputs:[| 0; 2; 0; 1; 2 |]
    schedule;
  run_clean ~protocol:E.Unauth ~t:2 ~faulty:[| 1; 4 |]
    ~inputs:[| 0; 2; 0; 1; 2; 1; 0 |] schedule

(* Regression 3: duplication and reordering on *honest* edges — the
   envelope-safe network faults — plus a first-round crash, checked on
   every protocol including both baselines. *)
let test_honest_edge_chaos () =
  let schedule =
    Schedule.
      [
        Duplicate { src = 0; dst = 1; round = 1 };
        Duplicate { src = 1; dst = 0; round = 2 };
        Reorder { src = 3; dst = 0; round = 1 };
        Reorder { src = 1; dst = 3; round = 3 };
        Advice_flip { proc = 2; bit = 1 };
        Crash_at { proc = 2; round = 1 };
      ]
  in
  List.iter
    (fun protocol ->
      run_clean ~protocol ~t:1 ~faulty:[| 2 |] ~inputs:[| 1; 1; 0; 1 |] schedule)
    Fuzz.all_protocols

(* Same seed => identical schedule values. *)
let test_schedule_gen_deterministic () =
  let gen seed =
    let rng = Rng.create seed in
    Schedule.gen rng ~n:9 ~faulty:[| 1; 5 |] ~rounds:30 ~count:12
  in
  Alcotest.(check bool) "same seed, same schedule" true
    (Schedule.equal (gen 42) (gen 42));
  Alcotest.(check bool) "different seed, different schedule" false
    (Schedule.equal (gen 42) (gen 43))

(* Generated schedules always stay within the model envelope, so the
   oracles must hold on every draw. *)
let prop_gen_within_envelope =
  qcheck ~count:60 ~name:"generated schedules stay within the envelope"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 4 + Rng.int rng 10 in
      let f = Rng.int rng (((n - 1) / 3) + 1) in
      let faulty = random_faulty rng ~n ~f in
      let is_faulty = is_faulty_array ~n faulty in
      Schedule.gen rng ~n ~faulty ~rounds:20 ~count:12
      |> List.for_all (Schedule.within_envelope ~is_faulty))

(* Same seed => same verdicts and same campaign checksum; and a clean
   campaign across all four protocols finds nothing. *)
let test_campaign_deterministic () =
  let go seed = Fuzz.campaign ~protocols:Fuzz.all_protocols ~runs:60 ~seed () in
  let c1 = go 7 and c2 = go 7 and c3 = go 8 in
  Alcotest.(check int) "no violations" 0 (List.length c1.Fuzz.counterexamples);
  Alcotest.(check int64) "same seed, same checksum" c1.Fuzz.checksum c2.Fuzz.checksum;
  Alcotest.(check bool) "different seed, different checksum" false
    (Int64.equal c1.Fuzz.checksum c3.Fuzz.checksum)

(* ddmin on a plain list: the minimum hitting both required elements. *)
let test_ddmin_minimal () =
  let check l = List.mem 3 l && List.mem 17 l in
  let shrunk = Shrink.minimize ~check (List.init 25 Fun.id) in
  Alcotest.(check (list int)) "exact minimum" [ 3; 17 ] (List.sort compare shrunk);
  Alcotest.(check (list int)) "empty stays empty" []
    (Shrink.minimize ~check:(fun _ -> true) [])

(* The intentionally-broken harness (sabotage tampers an honest decision
   whenever the schedule equivocates): the oracle must fire and the
   shrinker must strip the seven-fault schedule down to the single
   equivocation that triggers it. *)
let test_sabotage_caught_and_shrunk () =
  let schedule =
    Schedule.
      [
        Duplicate { src = 0; dst = 1; round = 1 };
        Crash_at { proc = 2; round = 5 };
        Omit_to { proc = 2; dst = 4; first = 2; last = 9 };
        Reorder { src = 4; dst = 3; round = 2 };
        Equivocate { proc = 2; first = 1; last = 6; salt = 11 };
        Drop { src = 2; dst = 1; round = 3 };
        Advice_flip { proc = 2; bit = 0 };
      ]
  in
  let cfg =
    {
      E.protocol = E.Unauth;
      t = 1;
      faulty = [| 2 |];
      inputs = [| 1; 1; 0; 1; 1 |];
      advice = Gen.perfect ~n:5 ~faulty:[| 2 |];
      schedule;
    }
  in
  let r = Fuzz.run_one ~sabotage:true cfg in
  Alcotest.(check bool) "oracle fires on sabotage" true (r.E.violations <> []);
  let shrunk = Fuzz.shrink ~sabotage:true cfg in
  Alcotest.(check int) "shrunk to the single trigger" 1 (Schedule.length shrunk);
  Alcotest.(check bool) "the trigger is the equivocation" true
    (List.exists (function Schedule.Equivocate _ -> true | _ -> false) shrunk);
  let replay = Fuzz.run_one ~sabotage:true { cfg with E.schedule = shrunk } in
  Alcotest.(check bool) "shrunk schedule still violates" true
    (replay.E.violations <> []);
  (* Without sabotage the very same schedule is harmless. *)
  Alcotest.(check (list violation)) "clean without sabotage" []
    (Fuzz.run_one cfg).E.violations

(* The checker's runs skip the delivery trace; the fuzzer's runs record
   it. Both must reach the same decisions, rounds and decision-level
   verdicts, on the generated schedule and on the same schedule with its
   edge faults removed (so no network hook is installed). *)
let prop_trace_free_matches_traced =
  qcheck ~count:40 ~name:"with_trace:false matches with_trace:true"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let cfg = Fuzz.gen_config (Rng.create seed) ~protocols:Fuzz.all_protocols in
      let no_edge_faults =
        List.filter
          (function
            | Schedule.Drop _ | Duplicate _ | Reorder _ | Corrupt _ -> false
            | _ -> true)
          cfg.E.schedule
      in
      let observe ~with_trace cfg =
        let r = E.run ~with_trace ~mutant:Fuzz.mutant cfg in
        ( r.E.decisions,
          r.E.rounds,
          List.filter
            (function E.Oracle.Monitor_unsound _ -> false | _ -> true)
            r.E.violations )
      in
      List.for_all
        (fun cfg -> observe ~with_trace:false cfg = observe ~with_trace:true cfg)
        [ cfg; { cfg with E.schedule = no_edge_faults } ])

let suite =
  [
    Alcotest.test_case "crash + omission storm is safe" `Quick
      test_crash_omission_storm;
    Alcotest.test_case "equivocation + corruption is safe" `Quick
      test_equivocation_corruption;
    Alcotest.test_case "honest-edge duplication/reorder is safe" `Quick
      test_honest_edge_chaos;
    Alcotest.test_case "schedule generation is deterministic" `Quick
      test_schedule_gen_deterministic;
    prop_gen_within_envelope;
    Alcotest.test_case "campaign is deterministic" `Quick test_campaign_deterministic;
    prop_trace_free_matches_traced;
    Alcotest.test_case "ddmin finds the exact minimum" `Quick test_ddmin_minimal;
    Alcotest.test_case "sabotage is caught and shrunk" `Quick
      test_sabotage_caught_and_shrunk;
  ]
