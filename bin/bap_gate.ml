(* CLI: the bench-regression gate.

   Runs a fixed, deterministic smoke sweep over both protocol stacks and
   the no-prediction baselines — every cell an independent job fanned
   out over the lib/exec domain pool — and compares the resulting
   rounds/messages metrics against a committed baseline
   (BENCH_BASELINE.json). Any drift in a correctness-bearing cell metric
   (decided round, total rounds, honest messages, agreement) FAILS the
   gate: the sweep is a pure function of the seeds, so a changed number
   means changed protocol behaviour, not noise.

   Around the cells sits one table of scalar metrics ([metrics] below):
   the sweep wall clock, the serve throughput, the n=1000 scale-probe
   time, the crash-restart recovery time and the allocation probe's
   minor words per round. A row names its JSON key, which direction is
   better, the relative tolerance past which a worse value warns, and
   its probe. The values are machine-dependent, so drift against the
   baseline or against the last point of the bench trajectory
   (BENCH_HISTORY.jsonl, one dated JSON line per run) only WARNS (as a
   GitHub Actions ::warning:: annotation when running in CI). A probe's
   own correctness failure — recovery losing instances, a scale-probe
   disagreement, the serve oracle, an alloc probe over 0 rounds — FAILS
   the gate like a drifted cell.

   Usage:
     dune exec bin/bap_gate.exe -- --write             # baseline + trajectory
     dune exec bin/bap_gate.exe -- --check --jobs 2    # CI gate
     dune exec bin/bap_gate.exe -- --check --history BENCH_HISTORY.jsonl *)

open Cmdliner
module Pool = Bap_exec.Pool
module Supervisor = Bap_exec.Supervisor
module Json = Bap_telemetry.Json
open Bap_experiments.Common

type cell = {
  id : string;
  decided : int; (* first decision round; -1 where not applicable *)
  rounds : int;
  msgs : int;
  ok : bool;
}

(* ---------- the probe sweep ---------- *)

let unauth_cell ~n ~f ~m () =
  let t = (n - 1) / 3 in
  let rng = Rng.create ((61 * f) + (7 * m) + n) in
  let w = make_workload ~rng ~n ~t ~f ~target_misclassified:m () in
  let adversary =
    Adv.adaptive_splitter ~n_minus_t:(n - t) ~junk:(fun r -> -1_000_000 - r)
  in
  let d, rounds, msgs, ok, _ = run_unauth ~adversary w in
  { id = Printf.sprintf "unauth,n=%d,f=%d,m=%d" n f m; decided = d; rounds; msgs; ok }

let auth_cell ~n ~f ~m () =
  let t = max 1 ((9 * n / 20) - 1) in
  let rng = Rng.create ((53 * f) + (11 * m) + n) in
  let w = make_workload ~rng ~n ~t ~f ~target_misclassified:m () in
  let adversary pki = Adv.prediction_attacker_auth ~pki ~v0:0 ~v1:1 in
  let d, rounds, msgs, ok, _ = run_auth ~adversary w in
  { id = Printf.sprintf "auth,n=%d,f=%d,m=%d" n f m; decided = d; rounds; msgs; ok }

let baseline_cell ~proto ~n ~f () =
  let t = (n - 1) / 3 in
  let rng = Rng.create (19 * n + f) in
  let w = make_workload ~rng ~n ~t ~f ~target_misclassified:0 () in
  let r =
    match proto with
    | `Es ->
      B.run_early_stopping ~t ~faulty:w.faulty ~inputs:w.inputs
        ~adversary:Bap_sim.Adversary.silent ()
    | `Pk ->
      B.run_phase_king ~t ~faulty:w.faulty ~inputs:w.inputs
        ~adversary:Bap_sim.Adversary.silent ()
  in
  {
    id =
      Printf.sprintf "%s,n=%d,f=%d" (match proto with `Es -> "es" | `Pk -> "pk") n f;
    decided = r.B.decided_round;
    rounds = r.B.rounds;
    msgs = r.B.messages;
    ok = r.B.agreement;
  }

let sweep_cells () =
  List.concat
    [
      List.concat_map
        (fun n ->
          let t = (n - 1) / 3 in
          List.concat_map
            (fun f -> List.map (fun m -> unauth_cell ~n ~f ~m) [ 0; 2 ])
            [ 0; t / 2; t ])
        [ 16; 25; 31 ];
      List.concat_map
        (fun n ->
          let t = max 1 ((9 * n / 20) - 1) in
          List.concat_map
            (fun f -> List.map (fun m -> auth_cell ~n ~f ~m) [ 0; 2 ])
            [ 0; t / 2 ])
        [ 11; 17 ];
      List.concat_map
        (fun proto ->
          List.map (fun f -> baseline_cell ~proto ~n:25 ~f) [ 0; 4 ])
        [ `Es; `Pk ];
    ]

(* Each probe cell runs supervised (one retry, no injection): a
   transient crash re-runs once, and a genuinely broken cell becomes a
   typed gate failure listing which probes died — exit 1 with the cells
   named, not a stack trace that hides how much of the sweep was fine. *)
let run_sweep ~jobs =
  let cells = Array.of_list (sweep_cells ()) in
  let t0 = Unix.gettimeofday () in
  let config = { Supervisor.default_config with retries = 1 } in
  let outcomes =
    Supervisor.with_supervisor config (fun sup ->
        let tasks =
          Array.mapi
            (fun i cell () ->
              Supervisor.supervise sup ~key:(Printf.sprintf "gate/%d" i) cell)
            cells
        in
        Pool.with_pool ~jobs (fun pool -> Pool.run_all pool tasks))
  in
  let wall_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  let results, failed =
    Array.to_list outcomes
    |> List.mapi (fun i r -> (i, r))
    |> List.partition_map (fun (i, r) ->
           match r with
           | Ok (Supervisor.Completed { value; _ }) -> Either.Left value
           | Ok (Supervisor.Quarantined { ledger }) ->
             Either.Right
               (Format.asprintf "probe cell gate/%d: %a" i
                  (fun ppf -> Supervisor.pp_ledger ppf)
                  ledger)
           | Error e ->
             Either.Right
               (Printf.sprintf "probe cell gate/%d: harness error %s" i
                  (Printexc.to_string e)))
  in
  (results, failed, wall_ms)

let cell_json m =
  Printf.sprintf
    "    {\"id\": %S, \"decided\": %d, \"rounds\": %d, \"msgs\": %d, \"ok\": %b}" m.id
    m.decided m.rounds m.msgs m.ok

let cells_of_json j =
  let open Json in
  match to_list (member "cells" j) with
  | None -> invalid_arg "baseline: missing cells"
  | Some cs ->
    List.map
      (fun c ->
        match
          ( to_string (member "id" c),
            to_int (member "decided" c),
            to_int (member "rounds" c),
            to_int (member "msgs" c),
            to_bool (member "ok" c) )
        with
        | Some id, Some decided, Some rounds, Some msgs, Some ok ->
          { id; decided; rounds; msgs; ok }
        | _ -> invalid_arg "baseline: malformed cell")
      cs

let cell_drift ~expected actual =
  let index = List.map (fun m -> (m.id, m)) actual in
  let key c = (c.decided, c.rounds, c.msgs, c.ok) in
  List.filter_map
    (fun e ->
      match List.assoc_opt e.id index with
      | None -> Some (Printf.sprintf "cell %s: missing from sweep" e.id)
      | Some a when key a <> key e ->
        Some
          (Printf.sprintf
             "cell %s: (decided,rounds,msgs,ok) = (%d,%d,%d,%b), baseline (%d,%d,%d,%b)"
             e.id a.decided a.rounds a.msgs a.ok e.decided e.rounds e.msgs e.ok)
      | Some _ -> None)
    expected
  @ List.filter_map
      (fun a ->
        if List.exists (fun e -> e.id = a.id) expected then None
        else Some (Printf.sprintf "cell %s: not in baseline (run --write?)" a.id))
      actual

(* ---------- the scalar probes ---------- *)

(* The serve probe: a quick in-process run of the service loop (one
   worker, 3000 pk instances at n=4) with the byte-identity oracle on. *)
let measure_serve () =
  let module Server = Bap_servelib.Server in
  let module Load = Bap_servelib.Load in
  let instances = 3000 in
  let config =
    { Server.default_config with
      Server.jobs = 1; queue_capacity = instances; batch = 256 }
  in
  let o =
    Load.run_inproc ~config ~instances ~families:[ Bap_servelib.Instance.Pk ] ~n:4 ()
  in
  match Load.failures o with
  | [] -> Ok o.Load.per_sec
  | fs -> Error ("serve oracle: " ^ String.concat "; " fs)

(* The scale probe: one n=1000 wrapper instance through the counted core. *)
let measure_scale () =
  let r = Scale_probe.run ~n:1000 ~f:0 () in
  if r.Scale_probe.agreement && r.Scale_probe.decided then Ok r.Scale_probe.wall_ms
  else
    Error
      (Printf.sprintf "scale probe n=1000 (agreement=%b decided=%b)"
         r.Scale_probe.agreement r.Scale_probe.decided)

(* The recovery probe: craft an instance journal holding accepted-but-
   unanswered instances, then time a --resume server recovering them
   over an immediately-EOF stream — the restart-to-ready cost of a
   SIGKILLed service, isolated from any client traffic. Recovery that
   loses or invents instances is a probe failure. *)
let measure_recovery () =
  let module Server = Bap_servelib.Server in
  let module SJournal = Bap_servelib.Journal in
  let module Load = Bap_servelib.Load in
  let k = 64 in
  let path = Filename.temp_file "bap_gate_recovery" ".journal" in
  let j = SJournal.open_ ~path () in
  List.iter
    (fun spec -> ignore (SJournal.accept j spec))
    (Load.plan_specs ~instances:k ~families:[ Bap_servelib.Instance.Pk ] ~n:4);
  SJournal.close j;
  let null_r, null_w = Unix.pipe () and out_r, out_w = Unix.pipe () in
  Unix.close null_w (* immediate EOF: wall time is pure recovery *);
  let cfg =
    {
      Server.default_config with
      Server.journal_path = Some path;
      resume = true;
      batch = 256;
      queue_capacity = k;
    }
  in
  let t0 = Unix.gettimeofday () in
  let stats = Server.serve_fds cfg ~in_fd:null_r ~out_fd:out_w in
  let ms = (Unix.gettimeofday () -. t0) *. 1000. in
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    [ null_r; out_r; out_w ];
  (try Sys.remove path with Sys_error _ -> ());
  let { Server.recovered; accepted; responded; _ } = stats in
  if recovered = k && accepted = k && responded = k then Ok ms
  else
    Error
      (Printf.sprintf
         "recovery probe recovered %d / accepted %d / responded %d of %d journaled \
          instance(s)"
         recovered accepted responded k)

(* The allocation probe: a pinned E1-style slice of the sweep, run
   inline on the calling domain so Gc.minor_words (via the memprobe's
   domain-local reader) counts exactly this work and nothing else.
   Minor words per round is a pure function of the compiled code:
   exactly reproducible on one machine and one compiler, but
   legitimately different across OCaml versions, hence warn-only. *)
let measure_alloc () =
  let module Memprobe = Bap_telemetry.Memprobe in
  let cells =
    [
      unauth_cell ~n:25 ~f:4 ~m:0;
      unauth_cell ~n:25 ~f:4 ~m:2;
      unauth_cell ~n:31 ~f:10 ~m:0;
    ]
  in
  let mw0 = Memprobe.domain_minor_words () in
  let rounds = List.fold_left (fun acc cell -> acc + (cell ()).rounds) 0 cells in
  let words = Memprobe.domain_minor_words () -. mw0 in
  if rounds <= 0 then Error "alloc probe simulated 0 rounds"
  else Ok (words /. float_of_int rounds)

(* ---------- the metric table ---------- *)

type better = Lower | Higher

type metric = {
  key : string;  (** JSON key in BENCH_BASELINE.json and BENCH_HISTORY.jsonl *)
  label : string;
  unit : string;
  decimals : int;  (** digits written to the JSON files *)
  better : better;
  tolerance : float;  (** warn when worse than the reference by more than this *)
  in_baseline : bool;  (** recorded in BENCH_BASELINE.json, not only the trajectory *)
  probe : float -> (float, string) result;  (** given the sweep's wall ms *)
}

(* Row order is the key order of the baseline and history lines. *)
let metrics =
  let measured f _sweep_ms = f () in
  [
    { key = "wall_ms"; label = "gate sweep"; unit = "ms"; decimals = 1;
      better = Lower; tolerance = 0.2; in_baseline = true;
      probe = Result.ok };
    { key = "serve_per_sec"; label = "serve throughput"; unit = "instances/s";
      decimals = 0; better = Higher; tolerance = 0.2; in_baseline = true;
      probe = measured measure_serve };
    { key = "scale_n1000_ms"; label = "scale probe (n=1000)"; unit = "ms";
      decimals = 1; better = Lower; tolerance = 0.2; in_baseline = false;
      probe = measured measure_scale };
    { key = "recovery_ms"; label = "crash-restart recovery"; unit = "ms";
      decimals = 1; better = Lower; tolerance = 0.5; in_baseline = false;
      probe = measured measure_recovery };
    { key = "alloc_minor_words_per_round"; label = "alloc probe";
      unit = "minor words/round"; decimals = 1; better = Lower; tolerance = 0.1;
      in_baseline = true; probe = measured measure_alloc };
  ]

(* Run the probes of [rows] in table order: the measured values, and one
   failure line naming each probe that failed its own check. *)
let measure rows ~sweep_ms =
  List.partition_map
    (fun m ->
      match m.probe sweep_ms with
      | Ok v -> Either.Left (m, v)
      | Error msg -> Either.Right (Printf.sprintf "probe %s: %s" m.key msg))
    rows

(* A reference is the row's key in a baseline or history object; a
   missing (or non-positive) one means "no reference yet". *)
let reference j m =
  match Json.to_float (Json.member m.key j) with
  | Some r when r > 0. -> Some r
  | _ -> None

let json_fields values =
  List.map (fun (m, v) -> Printf.sprintf "%S: %.*f" m.key m.decimals v) values

(* ---------- the gate ---------- *)

let in_ci () = Sys.getenv_opt "GITHUB_ACTIONS" = Some "true"

let warn fmt =
  Printf.ksprintf
    (fun msg ->
      if in_ci () then Printf.printf "::warning title=bench-regression::%s\n" msg
      else Printf.printf "WARNING: %s\n" msg)
    fmt

(* Warn when [v] is worse than [reference] by more than the row's
   tolerance; [against] names the reference in the message. *)
let warn_drift ~against m v = function
  | None -> ()
  | Some r ->
    let drift, dir =
      match m.better with
      | Lower -> ((v /. r) -. 1., "over")
      | Higher -> (1. -. (v /. r), "under")
    in
    if drift > m.tolerance then
      warn "%s %.0f %s is %.0f%% %s %s (%.0f %s)" m.label v m.unit (drift *. 100.) dir
        against r m.unit

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* ---------- the bench trajectory (BENCH_HISTORY.jsonl) ---------- *)

let today () =
  let tm = Unix.gmtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02d" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
    tm.Unix.tm_mday

let last_history_entry path =
  if not (Sys.file_exists path) then None
  else
    String.split_on_char '\n' (read_file path)
    |> List.filter (fun l -> String.trim l <> "")
    |> List.rev
    |> function
    | [] -> None
    | last :: _ -> ( try Some (Json.parse last) with Json.Parse _ -> None)

(* Warn against the previous trajectory point, then append the new one:
   the date and every row's value, in table order. *)
let record_history ~path values =
  (match last_history_entry path with
  | None ->
    Printf.printf
      "bap_gate: no prior trajectory point in %s; seeding the first one (drift \
       warnings begin with the next run)\n"
      path
  | Some prev ->
    let against =
      Printf.sprintf "the %s trajectory point"
        (Option.value ~default:"last" (Json.to_string (Json.member "date" prev)))
    in
    List.iter (fun (m, v) -> warn_drift ~against m v (reference prev m)) values);
  Out_channel.with_open_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path
    (fun oc ->
      Printf.fprintf oc "{%s}\n"
        (String.concat ", "
           (Printf.sprintf "\"date\": %S" (today ()) :: json_fields values)));
  Printf.printf "bap_gate: appended trajectory point to %s\n" path

let report_quarantined failed =
  List.iter (fun msg -> Printf.printf "QUARANTINED %s\n" msg) failed

let check ~baseline_file ~history ~jobs =
  let baseline = Json.parse (read_file baseline_file) in
  let expected = cells_of_json baseline in
  let actual, failed, sweep_ms = run_sweep ~jobs in
  if failed <> [] then begin
    report_quarantined failed;
    Printf.printf "FAILED: %d probe cell(s) died despite retry\n" (List.length failed)
  end;
  Printf.printf "bap_gate: %d cells in %.0f ms (--jobs %d), baseline %s\n"
    (List.length actual) sweep_ms jobs baseline_file;
  let rows = List.filter (fun m -> m.in_baseline || history <> None) metrics in
  let values, probe_failures = measure rows ~sweep_ms in
  List.iter
    (fun (m, v) ->
      if m.in_baseline then begin
        let r = reference baseline m in
        Printf.printf "bap_gate: %s %.0f %s (%s)\n" m.label v m.unit
          (match r with
          | Some r -> Printf.sprintf "baseline %.0f" r
          | None -> "no baseline yet — run --write to record one");
        warn_drift ~against:"the baseline" m v r
      end
      else Printf.printf "bap_gate: %s %.0f %s\n" m.label v m.unit)
    values;
  Option.iter
    (fun path ->
      if probe_failures = [] then record_history ~path values
      else Printf.printf "bap_gate: a probe failed; no trajectory point appended\n")
    history;
  match (cell_drift ~expected actual @ probe_failures, failed) with
  | [], [] ->
    Printf.printf "ok: all %d correctness metrics match the baseline\n"
      (List.length expected);
    0
  | ds, _ ->
    List.iter (fun d -> Printf.printf "DRIFT %s\n" d) ds;
    if ds <> [] then
      Printf.printf "FAILED: %d cell(s) or probe(s) drifted from %s\n" (List.length ds)
        baseline_file;
    1

let write ~baseline_file ~history ~jobs =
  let cells, failed, sweep_ms = run_sweep ~jobs in
  let values, probe_failures = measure metrics ~sweep_ms in
  if failed <> [] || probe_failures <> [] then begin
    report_quarantined failed;
    List.iter (fun d -> Printf.printf "FAILED %s\n" d) probe_failures;
    print_endline "refusing to write a baseline from a degraded sweep or a failed probe";
    1
  end
  else begin
    Out_channel.with_open_bin baseline_file (fun oc ->
        Printf.fprintf oc "{\n  \"version\": 1,\n%s  \"cells\": [\n%s\n  ]\n}\n"
          (String.concat ""
             (List.map
                (fun f -> "  " ^ f ^ ",\n")
                (json_fields (List.filter (fun (m, _) -> m.in_baseline) values))))
          (String.concat ",\n" (List.map cell_json cells)));
    Printf.printf "bap_gate: wrote %d cells to %s (%s)\n" (List.length cells)
      baseline_file
      (String.concat ", "
         (List.map (fun (m, v) -> Printf.sprintf "%s %.0f %s" m.label v m.unit) values));
    (* --write always extends the trajectory: a fresh baseline is exactly
       the moment a new point belongs on the curve. *)
    record_history ~path:(Option.value history ~default:"BENCH_HISTORY.jsonl") values;
    0
  end

(* ---------- the stats gate ---------- *)

(* Consume a bap_tables --stats-json report and mirror bap_tables' own
   exit discipline: 4 when the sweep was DEGRADED (quarantined cells),
   0 when clean. Lets CI gate on a sweep that ran elsewhere. *)
let check_stats ~stats_file =
  let open Json in
  match parse (read_file stats_file) with
  | exception Parse msg ->
    Printf.printf "bap_gate: %s: unparseable stats: %s\n" stats_file msg;
    1
  | j ->
    let field k = Option.value ~default:0 (to_int (member k j)) in
    let quarantined = Option.value ~default:[] (to_list (member "quarantined" j)) in
    Printf.printf
      "bap_gate: stats %s: %d cells (%d executed, %d cache hits, %d journal \
       hits) on %d job(s), %d retried\n"
      stats_file (field "total_cells") (field "executed") (field "cache_hits")
      (field "journal_hits") (field "jobs") (field "retried");
    if quarantined = [] then begin
      Printf.printf "ok: sweep clean\n";
      0
    end
    else begin
      List.iter
        (fun q ->
          Printf.printf "QUARANTINED %s/%s\n"
            (Option.value ~default:"?" (to_string (member "exp_id" q)))
            (Option.value ~default:"?" (to_string (member "key" q))))
        quarantined;
      Printf.printf "FAILED: sweep DEGRADED (%d cell(s) quarantined)\n"
        (List.length quarantined);
      4
    end

let run mode baseline_file history jobs stats_file =
  Supervisor.install_exit_handlers ();
  let jobs = max 1 jobs in
  match (stats_file, mode) with
  | Some stats_file, _ -> check_stats ~stats_file
  | None, `Write -> write ~baseline_file ~history ~jobs
  | None, `Check -> check ~baseline_file ~history ~jobs

let cmd =
  let mode =
    Arg.(
      value
      & vflag `Check
          [
            (`Check, info [ "check" ] ~doc:"Compare the sweep against the baseline (default).");
            (`Write, info [ "write" ] ~doc:"Regenerate the baseline file from this machine.");
          ])
  in
  let baseline =
    Arg.(
      value
      & opt string "BENCH_BASELINE.json"
      & info [ "baseline" ] ~docv:"FILE" ~doc:"Baseline file.")
  in
  let history =
    Arg.(
      value
      & opt (some string) None
      & info [ "history" ] ~docv:"FILE"
          ~doc:
            "Bench-trajectory file (JSONL, one dated entry per run). --write \
             always appends to it (default BENCH_HISTORY.jsonl); --check \
             appends only when this flag names a file. Drift against the \
             previous entry warns, never fails.")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N" ~doc:"Worker domains for the sweep.")
  in
  let stats_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "check-stats" ] ~docv:"FILE"
          ~doc:
            "Instead of sweeping, read a bap_tables --stats-json report and \
             exit 4 if that sweep was DEGRADED (quarantined cells), 0 if \
             clean.")
  in
  Cmd.v
    (Cmd.info "bap_gate"
       ~doc:"Bench-regression gate: deterministic smoke sweep vs committed baseline")
    Term.(const run $ mode $ baseline $ history $ jobs $ stats_file)

let () = exit (Cmd.eval' cmd)
