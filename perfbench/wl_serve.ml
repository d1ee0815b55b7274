(* Workload serve-small: the agreement service in-process.

   [Server.serve_fds] runs on its own domain over a pipe pair with the
   default config except [jobs 1] and a journal in _perfbench/; the
   client is the main domain. Requests are pk and es instances at n=4
   whose spec seeds derive from --seed (distinct keys, so the journal
   never answers from a replay). Three phases:

   - paced: an open loop at a fixed rate. Latency runs from each
     request's *scheduled* send time to the moment its response is
     read, so a stalled generator shows as latency, and the generator's
     own lag is reported beside it;
   - burst: a fixed backlog sent as fast as the pipe takes it, with at
     most [window] requests outstanding so the admission queue (1024)
     never sheds; throughput is correct responses over first send to
     last read;
   - resume: a restart with [resume = true] over a journal pre-filled
     with accepted-but-unanswered records; recovery runs from the
     [serve_fds] call until it returns, i.e. until the last recovered
     answer is journaled.

   Every ok response is compared byte for byte with a serial
   [Instance.execute] recomputation; rejected, degraded, unanswered,
   duplicate and mismatched responses are failures. *)

module Server = Bap_servelib.Server
module Instance = Bap_servelib.Instance
module Journal = Bap_servelib.Journal
module Frame = Bap_servelib.Frame

type sizes = {
  rate : float;  (** paced requests per second *)
  window : int;  (** burst: most requests outstanding at once *)
  resume_k : int;  (** accepted-unanswered records per resume journal *)
  resume_reps : int;
}

let full = { rate = 8000.; window = 512; resume_k = 2000; resume_reps = 3 }
let tiny = { rate = 1000.; window = 64; resume_k = 50; resume_reps = 2 }

(* The burst backlog, per second of the burst's share of the run: fixed,
   so memory use does not depend on how fast it drains. *)
let backlog_rate = 16_000.

(* Id ranges keep the phases' requests apart. *)
let paced_base = 0
let burst_base = 1_000_000
let resume_base = 2_000_000
let warm_base = 3_000_000

let spec ~seed id : Instance.spec =
  let family = if id land 1 = 0 then Instance.Pk else Instance.Es in
  let t = Instance.t_of family ~n:4 in
  {
    Instance.id;
    family;
    n = 4;
    f = Bcore.mix seed (2 * id) mod (t + 1);
    m = Bcore.mix seed ((2 * id) + 1) mod 2;
    seed = (Bcore.mix seed 0x5e * 4096) + id;
  }

(* A request frame is shorter than PIPE_BUF (4096 bytes on Linux), so a
   write to the non-blocking request pipe takes all of it or none. *)
let plan ~seed ~base k =
  Array.init k (fun i ->
      let s = spec ~seed (base + i) in
      let frame = Frame.encode (Instance.request_json s) in
      if String.length frame >= 4096 then invalid_arg "Wl_serve.plan: frame exceeds PIPE_BUF";
      (s, frame))

let expected ~corrupt (s : Instance.spec) =
  let m = Instance.execute s in
  let m = if corrupt then { m with Instance.msgs = m.Instance.msgs + 1 } else m in
  Instance.response_to_json (Instance.Done { id = s.Instance.id; metrics = m })

let config ~journal ~resume =
  { Server.default_config with jobs = 1; journal_path = Some journal; resume }

(* ---------- one server incarnation and its client ---------- *)

type conn = { req_w : Unix.file_descr; resp_r : Unix.file_descr; dom : Server.stats Domain.t }

let start cfg =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  (* The client never blocks on a full request pipe: while blocked it
     would not read responses, the server would then block on the full
     response pipe and stop reading requests, and a paced phase that
     fell a few hundred requests behind would hang for good. *)
  Unix.set_nonblock req_w;
  let dom =
    Domain.spawn (fun () ->
        Fun.protect
          ~finally:(fun () ->
            Unix.close req_r;
            Unix.close resp_w)
          (fun () -> Server.serve_fds cfg ~in_fd:req_r ~out_fd:resp_w))
  in
  { req_w; resp_r; dom }

type exchange = {
  sent_at : float array;  (** NaN: never sent *)
  recv_at : float array;  (** first response; NaN: none *)
  payloads : string array;
  mutable duplicates : int;
  mutable stray : int;  (** responses whose id is not a request of ours *)
}

(* Drive one connection: send [frames] either at their scheduled times
   ([`Paced sched], absolute clock seconds) or back to back with at
   most [window] outstanding ([`Burst window]); read every
   response until the server closes its side. *)
let drive conn ~base frames mode =
  let n = Array.length frames in
  let x =
    {
      sent_at = Array.make n Float.nan;
      recv_at = Array.make n Float.nan;
      payloads = Array.make n "";
      duplicates = 0;
      stray = 0;
    }
  in
  let dec = Frame.decoder () in
  let buf = Bytes.create 65536 in
  let next = ref 0 and received = ref 0 and closed = ref false and eof = ref false in
  (* the request pipe was full at the last send *)
  let full = ref false in
  let close_requests () =
    if not !closed then begin
      Unix.close conn.req_w;
      closed := true
    end
  in
  let on_response now p =
    match Instance.response_id p with
    | Some id when id >= base && id - base < n ->
      let i = id - base in
      if Float.is_nan x.recv_at.(i) then begin
        x.recv_at.(i) <- now;
        x.payloads.(i) <- p;
        incr received
      end
      else x.duplicates <- x.duplicates + 1
    | _ -> x.stray <- x.stray + 1
  in
  while not !eof do
    let now = Bcore.now_s () in
    if not !closed then begin
      let due () =
        !next < n
        &&
        match mode with
        | `Paced sched -> sched.(!next) <= now
        | `Burst window -> !next - !received < window
      in
      full := false;
      while (not !full) && due () do
        let f = frames.(!next) in
        match Unix.write_substring conn.req_w f 0 (String.length f) with
        | _ ->
          x.sent_at.(!next) <- Bcore.now_s ();
          incr next
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> full := true
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      done;
      if !next = n then close_requests ()
    end;
    let timeout =
      if !closed || !full then 1.0
      else
        match mode with
        | `Paced sched -> Float.max 0. (sched.(!next) -. Bcore.now_s ())
        | `Burst window -> if !next - !received < window then 0. else 1.0
    in
    match Unix.select [ conn.resp_r ] (if !full then [ conn.req_w ] else []) [] timeout with
    | [], _, _ -> ()
    | _ -> (
      match Unix.read conn.resp_r buf 0 (Bytes.length buf) with
      | 0 -> eof := true
      | k ->
        let now = Bcore.now_s () in
        Frame.feed dec buf ~pos:0 ~len:k;
        let rec pull () =
          match Frame.next dec with
          | Frame.Frame p ->
            on_response now p;
            pull ()
          | Frame.Await | Frame.Oversized _ -> ()
        in
        pull ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  close_requests ();
  Unix.close conn.resp_r;
  (x, Domain.join conn.dom)

(* ---------- correctness ---------- *)

(* Send lag beyond this makes the paced phase invalid, not slow: the
   load was not offered at the rate the latency figures claim. *)
let max_lag_s = 0.02

type tally = { mutable attempted : int; mutable failed : int }

let fail tally fmt =
  tally.failed <- tally.failed + 1;
  Printf.ksprintf (fun m -> prerr_endline ("perfbench: serve " ^ m)) fmt

(* Audit the sent prefix of a phase: exactly one byte-identical ok
   response per sent request, and a clean server ledger. *)
let audit tally ~corrupt ~phase specs x (st : Server.stats) =
  let problems = ref 0 and correct = ref 0 in
  Array.iteri
    (fun i (s : Instance.spec) ->
      if not (Float.is_nan x.sent_at.(i)) then begin
        tally.attempted <- tally.attempted + 1;
        let p = x.payloads.(i) in
        if Float.is_nan x.recv_at.(i) || p <> expected ~corrupt s then begin
          incr problems;
          tally.failed <- tally.failed + 1
        end
        else incr correct
      end)
    specs;
  if !problems > 0 then
    prerr_endline
      (Printf.sprintf "perfbench: serve %s: %d response(s) missing, not ok or not byte-identical"
         phase !problems);
  if x.duplicates > 0 || x.stray > 0 then
    fail tally "%s: %d duplicate and %d stray response(s)" phase x.duplicates x.stray;
  if st.Server.degraded + st.Server.dropped_disconnect + st.Server.rejected_overload
     + st.Server.rejected_malformed + st.Server.rejected_invalid > 0
  then fail tally "%s: server ledger not clean:\n%s" phase (Server.report st);
  !correct

(* ---------- set-up ---------- *)

(* A journal and the flight dump the server writes beside it. *)
let cleanup journal =
  Bcore.remove_if_exists journal;
  Bcore.remove_if_exists (journal ^ ".flight")

(* Set-up builds the request plans, pre-fills one resume journal and
   starts a server far enough to answer one warm-up request. *)
let setup ~seed ~sizes ~paced_n ~burst_n ~journal ~rep =
  let paced = plan ~seed ~base:paced_base paced_n in
  let burst = plan ~seed ~base:burst_base burst_n in
  let resume_specs =
    Array.init sizes.resume_k (fun j -> spec ~seed (resume_base + (rep * sizes.resume_k) + j))
  in
  let j = Journal.open_ ~path:journal () in
  Array.iter (fun s -> ignore (Journal.accept j s)) resume_specs;
  Journal.close j;
  let warm_journal = Bcore.out_path "serve-warm.journal" in
  let conn = start (config ~journal:warm_journal ~resume:false) in
  let warm = plan ~seed ~base:(warm_base + rep) 1 in
  let x, _ = drive conn ~base:(warm_base + rep) (Array.map snd warm) (`Paced [| 0. |]) in
  cleanup warm_journal;
  (paced, burst, resume_specs, Float.is_nan x.recv_at.(0))

(* ---------- the workload ---------- *)

(* A restart over a pre-filled journal: the recovered instances are
   answered into the journal before the (empty) connection is served. *)
let resume_once journal =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  Unix.close in_w;
  Fun.protect
    ~finally:(fun () -> List.iter Unix.close [ in_r; out_r; out_w ])
    (fun () -> Server.serve_fds (config ~journal ~resume:true) ~in_fd:in_r ~out_fd:out_w)

let check_resumed tally ~corrupt ~journal specs (st : Server.stats) =
  let k = Array.length specs in
  if st.Server.recovered <> k then fail tally "resume: recovered %d of %d" st.Server.recovered k;
  let j = Journal.open_ ~resume:true ~path:journal () in
  let wrong =
    Array.fold_left
      (fun wrong (s : Instance.spec) ->
        match Journal.lookup j (Instance.key s) with
        | Some (Journal.Answered bytes) when bytes = expected ~corrupt s -> wrong
        | _ -> wrong + 1)
      0 specs
  in
  Journal.close j;
  tally.attempted <- tally.attempted + k;
  tally.failed <- tally.failed + wrong;
  if wrong > 0 then
    prerr_endline
      (Printf.sprintf "perfbench: serve resume: %d of %d recovered answers missing or not byte-identical"
         wrong k)

let run ~sizes ~seed ~budget_s ~corrupt =
  let tally = { attempted = 0; failed = 0 } in
  let acc = Tel_an.create () in
  let paced_s = 0.4 *. budget_s and burst_s = 0.4 *. budget_s in
  let paced_n = max 1 (int_of_float (sizes.rate *. paced_s)) in
  let burst_n = max 1 (int_of_float (backlog_rate *. burst_s)) in
  let journals =
    List.init sizes.resume_reps (fun r ->
        Bcore.out_path (Printf.sprintf "serve-resume-%d.journal" r))
  in
  (* Each set-up builds the plans; the first one's are used, the rest
     are dropped at once so they do not inflate the peak RSS. *)
  let cal = Bcore.Cal.start () in
  let plans = ref None in
  let setups =
    List.mapi
      (fun rep journal ->
        let (paced, burst, resume, lost), d =
          Bcore.span "setup.serve" (fun () ->
              setup ~seed ~sizes ~paced_n ~burst_n ~journal ~rep)
        in
        Bcore.Cal.tick cal;
        if lost then fail tally "warm-up request unanswered";
        if !plans = None then plans := Some (paced, burst);
        (resume, d))
      journals
  in
  let paced, burst = Option.get !plans in
  let live = Bcore.out_path "serve-live.journal" in
  let fresh () =
    cleanup live;
    start (config ~journal:live ~resume:false)
  in
  (* paced *)
  let sched = Array.init paced_n (fun i -> float_of_int i /. sizes.rate) in
  let (x, st), _ =
    Tel_an.unit_ acc "phase.paced" (fun () ->
        let conn = fresh () in
        (* 50 ms for the server domain to start: starting it stalled the
           client for up to 27 ms, which a short paced phase cannot
           absorb under its lag gate. *)
        let t0 = Bcore.now_s () +. 0.05 in
        Array.iteri (fun i s -> sched.(i) <- t0 +. s) sched;
        drive conn ~base:paced_base (Array.map snd paced) (`Paced sched))
  in
  Bcore.Cal.tick cal;
  ignore (audit tally ~corrupt ~phase:"paced" (Array.map fst paced) x st);
  let lat = ref [] and lag = ref [] in
  Array.iteri
    (fun i s ->
      if not (Float.is_nan x.recv_at.(i)) then lat := (x.recv_at.(i) -. s) :: !lat;
      if not (Float.is_nan x.sent_at.(i)) then lag := (x.sent_at.(i) -. s) :: !lag)
    sched;
  let lag_p99 = Bcore.quantile !lag 0.99 in
  if lag_p99 > max_lag_s then
    fail tally "paced: generator fell behind (send lag p99 %.3f ms); the run is invalid"
      (lag_p99 *. 1e3);
  (* burst *)
  let (x, st), _ =
    Tel_an.unit_ acc "phase.burst" (fun () ->
        let conn = fresh () in
        drive conn ~base:burst_base (Array.map snd burst) (`Burst sizes.window))
  in
  Bcore.Cal.tick cal;
  let ok = audit tally ~corrupt ~phase:"burst" (Array.map fst burst) x st in
  let over f init a = Array.fold_left (fun acc v -> if Float.is_nan v then acc else f acc v) init a in
  let first = over Float.min Float.infinity x.sent_at in
  let last = over Float.max first x.recv_at in
  let burst_wall = last -. first in
  cleanup live;
  (* resume *)
  let recoveries =
    List.map2
      (fun journal (specs, _) ->
        let st, d = Tel_an.unit_ acc "phase.resume" (fun () -> resume_once journal) in
        Bcore.Cal.tick cal;
        check_resumed tally ~corrupt ~journal specs st;
        cleanup journal;
        d)
      journals setups
  in
  let k = Bcore.Cal.factor cal in
  let lat = List.map (fun d -> d *. k) !lat in
  let throughput = float_of_int ok /. (burst_wall *. k) in
  {
    Outcome.attempted = tally.attempted;
    failed = tally.failed;
    e2e =
      [
        ("throughput_per_s", throughput);
        ("latency_p50_ms", Bcore.median lat *. 1e3);
        ("setup_s", Bcore.median (List.map snd setups) *. k);
      ];
    layer =
      Tel_an.metrics acc
      @ [
          ("serve.latency_p99_ms", Bcore.quantile lat 0.99 *. 1e3);
          ("serve.send_lag_p99_ms", lag_p99 *. 1e3);
          ("serve.recovery_ms", Bcore.median recoveries *. k *. 1e3);
        ];
    primary_s = 1. /. throughput;
  }
