(* Supervised cell execution: the self-healing layer between the plans
   and the pool.

   Every attempt at a cell runs under an optional watchdog deadline;
   raises and timeouts are captured as typed [failure_kind]s instead of
   tearing down the pool; failed cells are retried up to a bounded
   budget with a deterministic (seeded, no wall-clock) backoff ledger;
   cells that exhaust the budget are quarantined and the sweep finishes
   DEGRADED instead of dying.

   Two deliberate asymmetries, both documented in DESIGN.md:

   - The watchdog is *cooperative*. OCaml domains cannot be killed, so
     cancellation is a flag the running cell observes at {!tick} (and
     which injected chaos hangs poll). A cell that never ticks cannot
     be interrupted — the deadline then bounds only cooperative and
     injected work. The watchdog's clock is real wall time, but the
     sweep's *output* never depends on it: a timeout only decides
     whether an attempt failed, and chaos schedules make that decision
     reproducible.

   - The backoff ledger is computed, not slept. Cells are deterministic
     in-process jobs, so re-running sooner cannot perturb them; the
     ledger records the exact schedule a multi-process or remote
     backend would honour, and re-runs of the same seed produce the
     same ledger byte for byte. *)

type injected = Inject_crash | Inject_hang

type failure_kind =
  | Crashed of string  (** the attempt raised; [Printexc.to_string] of it *)
  | Timed_out of float  (** the watchdog deadline (seconds) expired *)

type attempt_record = { attempt : int; kind : failure_kind; backoff_ms : int }

type 'a outcome =
  | Completed of { value : 'a; attempts : int; ledger : attempt_record list }
  | Quarantined of { ledger : attempt_record list }

type config = {
  retries : int;
  timeout_s : float option;
  seed : int;
  inject : (key:string -> attempt:int -> injected option) option;
}

let default_config = { retries = 2; timeout_s = None; seed = 0; inject = None }

exception Cell_timeout

(* ---------- the watchdog ---------- *)

type token = {
  deadline : float;
  cancelled : bool Atomic.t;
  finished : bool Atomic.t;
}

type watchdog = {
  wm : Mutex.t;
  mutable watched : token list;
  mutable wstop : bool;
  mutable dom : unit Domain.t option;
}

(* The running attempt's token, so arbitrarily deep cell code can reach
   its own cancellation flag without threading it through every call. *)
let current_token : token option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let watchdog_tick_s = 0.005

let rec watchdog_loop wd =
  Mutex.lock wd.wm;
  let stop = wd.wstop in
  if not stop then begin
    let now = Unix.gettimeofday () in
    wd.watched <- List.filter (fun tok -> not (Atomic.get tok.finished)) wd.watched;
    List.iter
      (fun tok -> if now > tok.deadline then Atomic.set tok.cancelled true)
      wd.watched
  end;
  Mutex.unlock wd.wm;
  if not stop then begin
    Unix.sleepf watchdog_tick_s;
    watchdog_loop wd
  end

let start_watchdog () =
  let wd = { wm = Mutex.create (); watched = []; wstop = false; dom = None } in
  wd.dom <- Some (Domain.spawn (fun () -> watchdog_loop wd));
  wd

let stop_watchdog wd =
  Mutex.lock wd.wm;
  wd.wstop <- true;
  Mutex.unlock wd.wm;
  match wd.dom with
  | Some d ->
    Domain.join d;
    wd.dom <- None
  | None -> ()

(* Run [f] (given its token) under a deadline. The token is published in
   domain-local storage for {!tick} and retired on every exit path. *)
let guard wd ~timeout f =
  let tok =
    {
      deadline = Unix.gettimeofday () +. timeout;
      cancelled = Atomic.make false;
      finished = Atomic.make false;
    }
  in
  Mutex.lock wd.wm;
  wd.watched <- tok :: wd.watched;
  Mutex.unlock wd.wm;
  Domain.DLS.set current_token (Some tok);
  let retire () =
    Atomic.set tok.finished true;
    Domain.DLS.set current_token None
  in
  match f tok with
  | v ->
    retire ();
    Ok v
  | exception Cell_timeout ->
    retire ();
    Error (Timed_out timeout)
  | exception e ->
    retire ();
    Error (Crashed (Printexc.to_string e))

let tick () =
  match Domain.DLS.get current_token with
  | Some tok when Atomic.get tok.cancelled -> raise Cell_timeout
  | _ -> ()

(* Injected hang: spin politely until the watchdog cancels us — the
   shape of a real hung cell, minus the infinite part. *)
let hang_until_cancelled tok =
  while not (Atomic.get tok.cancelled) do
    Unix.sleepf 0.001
  done;
  raise Cell_timeout

(* ---------- deterministic backoff ---------- *)

let backoff_ms ~seed ~key ~attempt =
  (* Exponential base with seeded jitter in [0, base): collision-free
     enough to spread a fleet, fully determined by (seed, key, attempt). *)
  let base = 25 * (1 lsl min attempt 6) in
  base + (Bap_stats.Hash.djb2 (Printf.sprintf "%d|%s|%d" seed key attempt) mod base)

(* ---------- the supervisor ---------- *)

type t = { config : config; watchdog : watchdog option }

let start config =
  {
    config;
    watchdog =
      (match config.timeout_s with
      | Some _ -> Some (start_watchdog ())
      | None -> None);
  }

let stop t = Option.iter stop_watchdog t.watchdog

let with_supervisor config f =
  let t = start config in
  Fun.protect ~finally:(fun () -> stop t) (fun () -> f t)

let run_attempt t ~key ~attempt f =
  let injected =
    match t.config.inject with None -> None | Some g -> g ~key ~attempt
  in
  match (injected, t.watchdog, t.config.timeout_s) with
  | Some Inject_crash, _, _ -> Error (Crashed "chaos: injected worker crash")
  | Some Inject_hang, Some wd, Some timeout ->
    guard wd ~timeout (fun tok -> hang_until_cancelled tok)
  | Some Inject_hang, _, _ ->
    (* No watchdog configured: the hang is detected degenerately, at
       once, so chaos schedules stay runnable in every configuration. *)
    Error (Timed_out 0.)
  | None, Some wd, Some timeout -> guard wd ~timeout (fun _tok -> f ())
  | None, _, _ -> (
    match f () with
    | v -> Ok v
    | exception Cell_timeout -> Error (Timed_out 0.)
    | exception e -> Error (Crashed (Printexc.to_string e)))

let supervise t ~key f =
  let module Tel = Bap_telemetry.Telemetry in
  let retries = max 0 t.config.retries in
  let rec go attempt ledger =
    match run_attempt t ~key ~attempt f with
    | Ok v -> Completed { value = v; attempts = attempt + 1; ledger = List.rev ledger }
    | Error kind ->
      let entry =
        { attempt; kind; backoff_ms = backoff_ms ~seed:t.config.seed ~key ~attempt }
      in
      let kind_name =
        match kind with Crashed _ -> "crashed" | Timed_out _ -> "timed_out"
      in
      Tel.Metrics.counter "supervisor.failed_attempts" 1;
      if attempt >= retries then begin
        Tel.instant ~cat:"exec" ~name:"quarantine"
          ~attrs:(fun () ->
            [
              ("key", Tel.Str key);
              ("attempt", Tel.Int attempt);
              ("kind", Tel.Str kind_name);
            ])
          ();
        Tel.Metrics.counter "supervisor.quarantined" 1;
        Quarantined { ledger = List.rev (entry :: ledger) }
      end
      else begin
        Tel.instant ~cat:"exec" ~name:"retry"
          ~attrs:(fun () ->
            [
              ("key", Tel.Str key);
              ("attempt", Tel.Int attempt);
              ("kind", Tel.Str kind_name);
              ("backoff_ms", Tel.Int entry.backoff_ms);
            ])
          ();
        Tel.Metrics.counter "supervisor.retries" 1;
        go (attempt + 1) (entry :: ledger)
      end
  in
  go 0 []

(* ---------- reporting ---------- *)

let pp_failure ppf = function
  | Crashed msg -> Format.fprintf ppf "crashed: %s" msg
  | Timed_out s -> Format.fprintf ppf "timed out after %.3gs" s

let pp_attempt ppf r =
  Format.fprintf ppf "attempt %d: %a (backoff %dms)" r.attempt pp_failure r.kind
    r.backoff_ms

let pp_ledger ppf ledger =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
    pp_attempt ppf ledger

(* ---------- signal handling for the sweep CLIs ---------- *)

let install_exit_handlers ?(on_signal = fun ~signal_name:_ -> ()) () =
  let handler name code =
    Sys.Signal_handle
      (fun _ ->
        on_signal ~signal_name:name;
        (* A JSONL trace of an interrupted run is the one most worth
           having; flush it with the signal-safe path before dying.
           Runs that exit normally flush via [shutdown] instead. *)
        Bap_telemetry.Telemetry.signal_shutdown ();
        exit code)
  in
  (* 128 + signal number, the shell convention for signal deaths. *)
  (try Sys.set_signal Sys.sigint (handler "SIGINT" 130)
   with Invalid_argument _ | Sys_error _ -> ());
  try Sys.set_signal Sys.sigterm (handler "SIGTERM" 143)
  with Invalid_argument _ | Sys_error _ -> ()
