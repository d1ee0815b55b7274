(* The load generator is also the oracle. It generates the workload
   deterministically, keeps its own record of exactly which bytes went
   onto the wire (including the chaos damage it inflicted), and then
   recomputes every spec serially to compare against what the service
   answered. The service under test never knows which of its clients
   is the auditor.

   Resilience (ISSUE 9): the socket client can reconnect with
   deterministic seeded backoff and retransmit unanswered requests by
   id — which is exactly what makes it the crash-restart oracle: a
   durable server that was SIGKILLed mid-load and resumed must answer
   the retransmits with bytes identical to a clean run, each id exactly
   once. *)

module Harness = Bap_chaos.Harness
module Json = Bap_telemetry.Json

type outcome = {
  sent : int;
  corrupted : int;
  disconnects : int;
  retransmits : int;  (* request frames sent again after a reconnect *)
  responses : int;
  ok : int;
  degraded : int;
  rejected : int;
  unanswered : int;
  duplicates : int;  (* extra responses for an already-answered id *)
  mismatches : int;
  per_sec : float;
  server : Server.stats option;
}

(* ---------- workload plan ---------- *)

let plan_specs ~instances ~families ~n =
  let families = if families = [] then [ Instance.Pk ] else families in
  let k = List.length families in
  List.init instances (fun i ->
      let family = List.nth families (i mod k) in
      let t = Instance.t_of family ~n in
      {
        Instance.id = i;
        family;
        n;
        f = i mod (t + 1);
        m = i mod 2;
        seed = (7 * i) + 1;
      })

type item = {
  spec : Instance.spec;
  wire : string;  (* frame bytes as they will hit the wire *)
  corrupt : bool;
  disconnect : bool;  (* close after a strict prefix of [wire] *)
  respond_disconnect : bool;
      (* send [wire] whole, then hang up before reading the response *)
}

let plan_items ?chaos ~instances ~families ~n () =
  plan_specs ~instances ~families ~n
  |> List.map (fun spec ->
         let payload = Instance.request_json spec in
         let key = string_of_int spec.Instance.id in
         let clean =
           {
             spec;
             wire = Frame.encode payload;
             corrupt = false;
             disconnect = false;
             respond_disconnect = false;
           }
         in
         match Option.map (fun h -> (h, Harness.frame_fault h ~key)) chaos with
         | None | Some (_, None) -> clean
         | Some (h, Some Harness.Corrupt_payload) ->
           let off, mask =
             Harness.corrupt_byte h ~key ~len:(String.length payload)
           in
           let b = Bytes.of_string payload in
           Bytes.set b off
             (Char.chr (Char.code (Bytes.get b off) lxor mask land 0xff));
           { clean with wire = Frame.encode (Bytes.to_string b); corrupt = true }
         | Some (_, Some Harness.Disconnect_mid_frame) ->
           { clean with disconnect = true }
         | Some (_, Some Harness.Disconnect_on_respond) ->
           { clean with respond_disconnect = true })

(* ---------- client-side IO ---------- *)

exception Server_gone

let rec write_all fd s pos len =
  if len > 0 then begin
    let k =
      try Unix.write_substring fd s pos len with
      | Unix.Unix_error (Unix.EINTR, _, _) -> 0
      | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _) ->
        raise Server_gone
    in
    write_all fd s (pos + k) (len - k)
  end

(* Read response frames until EOF. A client reader never trusts the
   server: garbage is absorbed by the codec and surfaces as counts. *)
let read_responses fd =
  let dec = Frame.decoder () in
  let buf = Bytes.create 65536 in
  let out = ref [] in
  let rec drain () =
    match Frame.next dec with
    | Frame.Frame p ->
      out := p :: !out;
      drain ()
    | Frame.Await | Frame.Oversized _ -> ()
  in
  let rec loop () =
    match Unix.read fd buf 0 (Bytes.length buf) with
    | 0 -> ()
    | k ->
      Frame.feed dec buf ~pos:0 ~len:k;
      drain ();
      loop ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EBADF), _, _) -> ()
  in
  loop ();
  List.rev !out

let ignore_sigpipe () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ | Sys_error _ -> ()

(* Deterministic seeded backoff: exponential base with a djb2 jitter,
   never a Random draw (D001). Same seed, same waits. *)
let backoff_s ~seed ~attempt =
  let base = 0.05 *. float_of_int (1 lsl min attempt 5) in
  let jitter =
    let h = Bap_stats.Hash.djb2 (Printf.sprintf "%d|backoff|%d" seed attempt) in
    float_of_int (h mod 50) /. 1000.
  in
  Float.min 1.6 base +. jitter

(* ---------- the oracle ---------- *)

let response_parts payload =
  match Json.parse payload with
  | j ->
    (Json.to_int (Json.member "id" j), Json.to_string (Json.member "status" j))
  | exception Json.Parse _ -> (None, None)

(* The reference result: what a serial batch run of this spec produces,
   rendered exactly as the service renders it. *)
let expected_ok spec =
  Instance.response_to_json
    (Instance.Done { id = spec.Instance.id; metrics = Instance.execute spec })

type audit = {
  a_ok : int;
  a_degraded : int;
  a_rejected : int;
  a_unanswered : int;
  a_duplicates : int;
  a_mismatches : int;
  a_responses : int;
}

let audit_responses ~sent_items ~payloads =
  let by_id = Hashtbl.create 997 in
  List.iter
    (fun p ->
      match response_parts p with
      | Some id, Some st -> Hashtbl.add by_id id (st, p)
      | _ -> Hashtbl.add by_id min_int ("unparseable", p))
    payloads;
  List.fold_left
    (fun a (it : item) ->
      if it.corrupt then a
      else
        match Hashtbl.find_all by_id it.spec.Instance.id with
        | [] -> { a with a_unanswered = a.a_unanswered + 1 }
        | entries ->
          let expect = lazy (expected_ok it.spec) in
          (* With chaos corruption on, a flipped id digit can alias a
             clean id: judge by the best entry, not every entry. *)
          let score (st, p) =
            match st with
            | "ok" when p = Lazy.force expect -> 3
            | "degraded" -> 2
            | "rejected" -> 1
            | _ -> 0
          in
          let best =
            List.fold_left
              (fun acc e -> if score e > score acc then e else acc)
              (List.hd entries) (List.tl entries)
          in
          let a =
            { a with a_duplicates = a.a_duplicates + List.length entries - 1 }
          in
          (match score best with
          | 3 -> { a with a_ok = a.a_ok + 1 }
          | 2 -> { a with a_degraded = a.a_degraded + 1 }
          | 1 -> { a with a_rejected = a.a_rejected + 1 }
          | _ -> { a with a_mismatches = a.a_mismatches + 1 }))
    {
      a_ok = 0;
      a_degraded = 0;
      a_rejected = 0;
      a_unanswered = 0;
      a_duplicates = 0;
      a_mismatches = 0;
      a_responses = List.length payloads;
    }
    sent_items

let outcome_of ~sent_items ~payloads ~disconnects ~retransmits ~per_sec ~server
    =
  let a = audit_responses ~sent_items ~payloads in
  {
    sent = List.length sent_items;
    corrupted = List.length (List.filter (fun i -> i.corrupt) sent_items);
    disconnects;
    retransmits;
    responses = a.a_responses;
    ok = a.a_ok;
    degraded = a.a_degraded;
    rejected = a.a_rejected;
    unanswered = a.a_unanswered;
    duplicates = a.a_duplicates;
    mismatches = a.a_mismatches;
    per_sec;
    server;
  }

let failures ?(chaos = false) ?(exactly_once = false) o =
  let fail = ref [] in
  let add fmt = Printf.ksprintf (fun s -> fail := s :: !fail) fmt in
  if o.mismatches > 0 then
    add "%d ok response(s) differ from the serial batch bytes" o.mismatches;
  if exactly_once then begin
    (* The crash-restart oracle: after reconnect + retransmit against a
       durable server, every clean instance is answered — exactly once.
       A duplicate can only be counted against a clean run (corruption
       can alias an innocent id). *)
    if o.unanswered > 0 then
      add "%d instance(s) never answered after retransmit" o.unanswered;
    if o.corrupted = 0 && o.duplicates > 0 then
      add "%d duplicate response(s) for already-answered id(s)" o.duplicates
  end;
  if not chaos then begin
    (* Completeness is only ours to assert in-process, where the server
       outlives the plan by construction. An external daemon may be
       drained mid-load (the CI smoke SIGTERMs it on purpose): frames
       still in flight at that moment were never accepted, and the
       server-side [dropped=0] line is the authority on the ones that
       were. *)
    if o.unanswered > 0 && o.server <> None then
      add "%d sent instance(s) never answered" o.unanswered;
    if o.degraded > 0 then
      add "%d instance(s) degraded without chaos injection" o.degraded;
    match o.server with
    | Some s ->
      if s.Server.dropped_disconnect > 0 then
        add "server dropped %d accepted instance(s)" s.Server.dropped_disconnect;
      if s.Server.accepted <> s.Server.responded then
        add "server accepted %d but responded %d" s.Server.accepted
          s.Server.responded
    | None -> ()
  end;
  List.rev !fail

let pp ppf o =
  Format.fprintf ppf
    "sent %d (corrupt %d, disconnects %d, retransmits %d) -> responses %d: ok \
     %d degraded %d rejected %d unanswered %d duplicates %d mismatches %d at \
     %.0f/s"
    o.sent o.corrupted o.disconnects o.retransmits o.responses o.ok o.degraded
    o.rejected o.unanswered o.duplicates o.mismatches o.per_sec

(* ---------- in-process mode ---------- *)

let run_inproc ?chaos ~config ~instances ~families ~n () =
  ignore_sigpipe ();
  let items = plan_items ?chaos ~instances ~families ~n () in
  let c2s_r, c2s_w = Unix.pipe ()
  and s2c_r, s2c_w = Unix.pipe () in
  (* Client halves run on their own domains; the server loop keeps the
     calling domain, exactly as in production. A chaos disconnect in
     pipe mode is a torn tail: the writer stops mid-frame and hangs
     up, which is all a pipe can express; a respond-disconnect sends
     its frame whole and then hangs up. *)
  let writer =
    Domain.spawn (fun () ->
        let sent = ref [] in
        let disconnects = ref 0 in
        (try
           List.iter
             (fun it ->
               if it.disconnect then begin
                 incr disconnects;
                 write_all c2s_w it.wire 0
                   (max 1 (String.length it.wire / 2));
                 raise Exit
               end
               else if it.respond_disconnect then begin
                 incr disconnects;
                 write_all c2s_w it.wire 0 (String.length it.wire);
                 sent := it :: !sent;
                 raise Exit
               end
               else begin
                 write_all c2s_w it.wire 0 (String.length it.wire);
                 sent := it :: !sent
               end)
             items
         with Exit | Server_gone -> ());
        (try Unix.close c2s_w with Unix.Unix_error _ -> ());
        (List.rev !sent, !disconnects))
  in
  let reader = Domain.spawn (fun () -> read_responses s2c_r) in
  let stats = Server.serve_fds config ~in_fd:c2s_r ~out_fd:s2c_w in
  (try Unix.close c2s_r with Unix.Unix_error _ -> ());
  (try Unix.close s2c_w with Unix.Unix_error _ -> ());
  let sent_items, disconnects = Domain.join writer in
  let payloads = Domain.join reader in
  (try Unix.close s2c_r with Unix.Unix_error _ -> ());
  outcome_of ~sent_items ~payloads ~disconnects ~retransmits:0
    ~per_sec:stats.Server.health.Health.per_sec ~server:(Some stats)

(* ---------- socket client mode ---------- *)

let run_socket ?chaos ?(reconnect = 0) ?(retransmit = 0) ?(seed = 0) ~path
    ~instances ~families ~n () =
  ignore_sigpipe ();
  let items = plan_items ?chaos ~instances ~families ~n () in
  let started = Unix.gettimeofday () in
  let collected = ref [] in
  let reader = ref None in
  let retransmits = ref 0 in
  let connect_once () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () ->
      reader := Some (Domain.spawn (fun () -> read_responses fd));
      fd
    | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e
  in
  (* Reconnects ride the seeded backoff: the server of a crash-resume
     run is allowed to be dead for a few hundred milliseconds while it
     restarts, and two runs of the same seed wait out the same
     schedule. *)
  let connect () =
    let rec go attempt =
      match connect_once () with
      | fd -> fd
      | exception
          Unix.Unix_error
            ((Unix.ECONNREFUSED | Unix.ENOENT | Unix.ECONNRESET), _, _)
        when attempt < reconnect ->
        Unix.sleepf (backoff_s ~seed ~attempt);
        go (attempt + 1)
    in
    go 0
  in
  (* The reader must be joined before its fd is closed: close would
     recycle the fd number under a domain still blocked in [read].
     Shutdown first — that is what wakes the blocked read. *)
  let join_reader () =
    match !reader with
    | None -> ()
    | Some d ->
      collected := Domain.join d @ !collected;
      reader := None
  in
  let sent = ref [] in
  let sent_ids = Hashtbl.create 997 in
  let disconnects = ref 0 in
  let fd = ref (connect ()) in
  let drop_conn ~how =
    (try Unix.shutdown !fd how with Unix.Unix_error _ -> ());
    join_reader ();
    try Unix.close !fd with Unix.Unix_error _ -> ()
  in
  let note_sent it =
    if not (Hashtbl.mem sent_ids it.spec.Instance.id) then begin
      Hashtbl.replace sent_ids it.spec.Instance.id ();
      sent := it :: !sent
    end
  in
  (* One frame, surviving mid-write server death when the reconnect
     budget allows: hang up, back off, reconnect, write the frame again
     from the start (the server sees the torn prefix as a torn stream;
     the durable server dedups the re-sent frame by key). *)
  let send_frame wire =
    let rec go attempt =
      try write_all !fd wire 0 (String.length wire)
      with Server_gone ->
        if attempt >= reconnect then raise Server_gone;
        drop_conn ~how:Unix.SHUTDOWN_ALL;
        Unix.sleepf (backoff_s ~seed ~attempt);
        fd := connect ();
        incr retransmits;
        go (attempt + 1)
    in
    go 0
  in
  (try
     List.iter
       (fun it ->
         if it.disconnect then begin
           (* A real mid-frame hangup: strict prefix, then a new
              connection for the rest of the plan. Without a journal,
              the frames the server had accepted but not answered
              become its dropped_disconnect count, not ours. *)
           incr disconnects;
           (try write_all !fd it.wire 0 (max 1 (String.length it.wire / 2))
            with Server_gone -> ());
           drop_conn ~how:Unix.SHUTDOWN_ALL;
           fd := connect ()
         end
         else if it.respond_disconnect then begin
           (* The frame arrives whole; the client is gone before the
              answer can be written. A durable server journals that
              answer and replays it to the retransmit. *)
           incr disconnects;
           (try write_all !fd it.wire 0 (String.length it.wire)
            with Server_gone -> ());
           note_sent it;
           drop_conn ~how:Unix.SHUTDOWN_ALL;
           fd := connect ()
         end
         else begin
           send_frame it.wire;
           note_sent it
         end)
       items;
     (* Half-close: the server sees EOF, flushes its backlog, and the
        reader domain still gets every response before its own EOF. *)
     drop_conn ~how:Unix.SHUTDOWN_SEND
   with Server_gone | Unix.Unix_error _ -> drop_conn ~how:Unix.SHUTDOWN_ALL);
  (* Retransmit rounds: resend every clean item whose id has no
     response yet, on a fresh connection each round. Against a durable
     server every round is answered from the journal (or by the
     recovered dispatch), so one round usually empties the set. *)
  (try
     let round = ref 0 in
     while !round < retransmit do
       incr round;
       let answered = Hashtbl.create 997 in
       List.iter
         (fun p ->
           match response_parts p with
           | Some id, Some _ -> Hashtbl.replace answered id ()
           | _ -> ())
         !collected;
       let missing =
         List.filter
           (fun (it : item) ->
             (not it.corrupt)
             && not (Hashtbl.mem answered it.spec.Instance.id))
           items
       in
       if missing = [] then round := retransmit
       else begin
         fd := connect ();
         List.iter
           (fun (it : item) ->
             let wire = Frame.encode (Instance.request_json it.spec) in
             send_frame wire;
             incr retransmits;
             note_sent it)
           missing;
         drop_conn ~how:Unix.SHUTDOWN_SEND
       end
     done
   with Server_gone | Unix.Unix_error _ -> drop_conn ~how:Unix.SHUTDOWN_ALL);
  let wall = Unix.gettimeofday () -. started in
  let payloads = !collected in
  let per_sec =
    if wall <= 0. then 0. else float_of_int (List.length payloads) /. wall
  in
  outcome_of ~sent_items:(List.rev !sent) ~payloads ~disconnects:!disconnects
    ~retransmits:!retransmits ~per_sec ~server:None
