(* The layer suite of a traced run: each per-layer metric that is not a
   reading of the workload's own spans is timed here, by calling the
   layer's public functions from the benchmark on inputs derived from
   --seed. The suite is the same for every workload, so these figures
   move only when the layer itself does.

   The suite runs after the traced half's sink is shut down. With the
   sink recording, the calls that make the program emit events (graded
   runs, explores, engine runs, dispatch) took 1.5 to 4.5 times as long,
   and the buffered events slowed every allocating call by up to 1.7
   times, so its figures would measure tracing rather than the layer.
   Only [reference] runs under the sink. *)

module C = Bap_experiments.Common
module S = C.S
module W = S.W
module Pki = Bap_crypto.Pki
module Inbox = Bap_sim.Inbox
module Bitset = Bap_sim.Bitset
module Decision = Bap_sim.Decision
module Json = Bap_telemetry.Json
module Memprobe = Bap_telemetry.Memprobe
module Wal = Bap_exec.Wal
module Pool = Bap_exec.Pool
module Supervisor = Bap_exec.Supervisor
module Instance = Bap_servelib.Instance
module Frame = Bap_servelib.Frame
module Admission = Bap_servelib.Admission
module Dispatch = Bap_servelib.Dispatch
module Journal = Bap_servelib.Journal
module Server = Bap_servelib.Server
module E = Bap_chaos.Fuzz.E
module Fuzz = Bap_chaos.Fuzz
module Explore = Bap_checklib.Explore
module Universe = Bap_checklib.Universe
module Canon = Bap_checklib.Canon

let opaque x = ignore (Sys.opaque_identity x)

type ctx = { seed : int; slice : float  (** seconds per timed metric *) }

(* ---------- sim: counted inboxes at n=2000 ---------- *)

let sim c =
  let n = 2000 and f = 166 in
  let split = (n / 2) + (Bcore.mix c.seed 1 mod 100) in
  let group lo hi = Bitset.init n (fun i -> i >= lo && i < hi) in
  let inbox =
    Inbox.counted ~n
      ~groups:[| ([ W.Gc_init (0, 0) ], group f split); ([ W.Gc_init (0, 1) ], group split n) |]
      ~direct:(Array.init f (fun i -> (i, [ W.Gc_init (0, Bcore.mix c.seed i land 1) ])))
  in
  let parse = function W.Gc_init (0, v) -> Some v | _ -> None in
  let votes = Inbox.first inbox ~f:parse in
  let keep = Bitset.init n (fun i -> Bcore.mix c.seed i land 3 <> 0) in
  [
    ( "sim.inbox_first_us",
      Bcore.per_call_us ~budget_s:c.slice (fun _ ->
          opaque (Inbox.first inbox ~f:parse)) );
    ( "sim.inbox_plurality_us",
      Bcore.per_call_us ~budget_s:c.slice (fun _ ->
          opaque (Inbox.plurality votes ~compare:Int.compare)) );
    ( "sim.inbox_restrict_us",
      Bcore.per_call_us ~budget_s:c.slice (fun _ ->
          opaque (Inbox.restrict votes ~keep)) );
  ]

(* ---------- core: standalone graded consensus at n=31 ---------- *)

let graded c =
  let n = 31 in
  let t = (n - 1) / 3 in
  let w =
    C.make_workload ~rng:(C.Rng.create (Bcore.mix c.seed 2)) ~n ~t ~f:(t / 2)
      ~target_misclassified:2 ()
  in
  let silent = C.Adversary.silent in
  [
    ( "core.graded_unauth_ms",
      Bcore.per_call_us ~budget_s:c.slice (fun _ ->
          opaque
            (S.R.run ~n ~faulty:w.C.faulty ~adversary:silent (fun ctx ->
                 S.Graded_unauth.run ctx ~t ~tag:0 w.C.inputs.(S.R.id ctx))))
      /. 1e3 );
    ( "core.graded_auth_ms",
      Bcore.per_call_us ~budget_s:c.slice (fun _ ->
          let pki = Pki.create ~n in
          opaque
            (S.R.run ~n ~faulty:w.C.faulty ~adversary:silent (fun ctx ->
                 let i = S.R.id ctx in
                 S.Graded_auth.run ctx ~pki ~key:(Pki.key pki i) ~t ~tag:0 w.C.inputs.(i))))
      /. 1e3 );
  ]

(* ---------- crypto and wire: certificates at auth-n31 sizes ---------- *)

let crypto_wire c =
  let n = 31 and t = 12 in
  let pki = Pki.create ~n in
  let key = Pki.key pki in
  let value i = Bcore.mix c.seed (100 + i) land 1 in
  let signed d =
    let v = value d in
    { W.sv_dealer = d; sv_value = v; sv_sig = Pki.sign (key d) (W.dealer_payload ~dealer:d v) }
  in
  let cert m =
    {
      W.cc_member = m;
      cc_sigs = List.init (t + 1) (fun j -> (j, Pki.sign (key j) (W.committee_payload m)));
    }
  in
  let echo_cert d =
    let sv = signed d in
    {
      W.ec_signed = sv;
      ec_echoes = List.init (n - t) (fun j -> (j, Pki.sign (key j) (W.echo_payload sv)));
    }
  in
  let chain_len = 4 in
  let chain s =
    let root_cert = cert s in
    let v = value s in
    let root =
      W.Chain_root { value = v; cert = root_cert; link_sig = Pki.sign (key s) (W.chain_root_payload v root_cert) }
    in
    let rec extend prev k =
      if k = chain_len then prev
      else
        let j = (s + k) mod n in
        let cc = cert j in
        extend
          (W.Chain_link { prev; signer = j; cert = cc; link_sig = Pki.sign (key j) (W.chain_link_payload prev cc) })
          (k + 1)
    in
    extend root 1
  in
  let dealers = Array.init 8 (fun i -> Bcore.mix c.seed (200 + i) mod n) in
  let payloads =
    Array.concat
      (Array.to_list
         (Array.map
            (fun d ->
              let sv = signed d in
              let ch = chain d in
              [|
                W.dealer_payload ~dealer:d (value d);
                W.echo_payload sv;
                W.committee_payload d;
                W.chain_root_payload (value d) (cert d);
                W.chain_link_payload ch (cert ((d + 1) mod n));
              |])
            dealers))
  in
  let np = Array.length payloads in
  let sigs = Array.mapi (fun i p -> Pki.sign (key (i mod n)) p) payloads in
  (* The protocol verifies against a payload it rebuilt, never the string
     it signed; a physically equal string would skip the byte compare. *)
  let rebuilt = Array.map (fun p -> Bytes.to_string (Bytes.of_string p)) payloads in
  let ecs = Array.map echo_cert dealers in
  let ccs = Array.map cert dealers in
  let chains = Array.map chain dealers in
  let valid_all =
    Array.for_all Fun.id
      (Array.mapi (fun k p -> Pki.verify pki ~signer:(k mod n) ~payload:p sigs.(k)) rebuilt)
    && Array.for_all (W.valid_echo_cert pki ~threshold:(n - t)) ecs
    && Array.for_all (W.valid_committee_cert pki ~quorum:(t + 1)) ccs
    && Array.for_all2
         (fun d ch -> W.valid_chain pki ~quorum:(t + 1) ~sender:d ~length:chain_len ch)
         dealers chains
  in
  let msgs =
    Array.concat
      (Array.to_list
         (Array.map
            (fun d ->
              let sv = signed d in
              [|
                W.Gc_init (d, value d);
                W.Gc_echo (d, value d);
                W.Conc (d, value d, List.init 10 (fun j -> (d + j) mod n));
                W.King (d, value d);
                W.Gcast_init (d, sv);
                W.Gcast_echo (d, [ { W.ge_signed = sv; ge_sig = Pki.sign (key 0) (W.echo_payload sv) } ]);
                W.Committee_vote (d, Pki.sign (key d) (W.committee_payload d));
                W.Bb_chain (d, d, chain d);
                W.Final_value (d, value d, cert d);
              |])
            dealers))
  in
  let nm = Array.length msgs and nd = Array.length dealers in
  let us = Bcore.per_call_us ~budget_s:c.slice in
  ( valid_all,
    [
      ("crypto.sign_us", us (fun i -> opaque (Pki.sign (key (i mod n)) payloads.(i mod np))));
      ( "crypto.verify_us",
        us (fun i ->
            let k = i mod np in
            opaque (Pki.verify pki ~signer:(k mod n) ~payload:rebuilt.(k) sigs.(k))) );
      ("crypto.encode_us", us (fun i -> opaque (Pki.encode sigs.(i mod np))));
      ( "wire.valid_echo_cert_us",
        us (fun i -> opaque (W.valid_echo_cert pki ~threshold:(n - t) ecs.(i mod nd))) );
      ( "wire.valid_committee_cert_us",
        us (fun i ->
            opaque (W.valid_committee_cert pki ~quorum:(t + 1) ccs.(i mod nd))) );
      ( "wire.valid_chain_us",
        us (fun i ->
            let k = i mod nd in
            opaque (W.valid_chain pki ~quorum:(t + 1) ~sender:dealers.(k) ~length:chain_len chains.(k))) );
      ( "wire.size_bits_ns",
        us (fun i -> opaque (W.size_bits msgs.(i mod nm))) *. 1e3 );
    ] )

(* ---------- serve stages, WAL and JSON on the paced stream ---------- *)

let serve_stages c ~requests =
  let plan = Wl_serve.plan ~seed:c.seed ~base:Wl_serve.paced_base requests in
  let journal_path = Bcore.out_path "layers-serve.journal" in
  let journal = Journal.open_ ~path:journal_path () in
  let adm = Admission.create ~capacity:1024 in
  let dec = Frame.decoder () in
  (* stage -> per-request durations, newest first *)
  let times = Hashtbl.create 8 in
  let stage name f =
    let v, d = Bcore.time f in
    Hashtbl.replace times name (d :: Option.value ~default:[] (Hashtbl.find_opt times name));
    v
  in
  let words = ref 0. and ok = ref true in
  let responses = Array.make requests "" in
  let scfg = { Supervisor.default_config with timeout_s = Server.default_config.Server.timeout_s } in
  Supervisor.with_supervisor scfg (fun sup ->
      Pool.with_pool ~jobs:1 (fun pool ->
          let disp = Dispatch.create ~pool ~supervisor:sup in
          Array.iteri
            (fun k ((spec : Instance.spec), frame) ->
              let id = spec.Instance.id in
              let w0 = Memprobe.domain_minor_words () in
              let payload =
                stage "frame_decode" (fun () ->
                    Frame.feed_string dec frame;
                    match Frame.next dec with Frame.Frame p -> p | _ -> "")
              in
              let parsed =
                stage "parse" (fun () ->
                    match Instance.parse_admin payload with
                    | Some _ -> None
                    | None -> Result.to_option (Instance.parse payload))
              in
              match parsed with
              | None -> ok := false
              | Some s ->
                let entries =
                  stage "admission" (fun () ->
                      ignore (Admission.offer adm ~now_us:0. s);
                      Admission.take_batch adm ~max:1)
                in
                ignore (stage "journal_accept" (fun () -> Journal.accept journal s));
                let resp =
                  match stage "dispatch" (fun () -> Dispatch.run disp entries) with
                  | [ (_, r) ] -> r
                  | _ -> Instance.Degraded { id; attempts = 0 }
                in
                let json =
                  stage "response_encode" (fun () ->
                      let j = Instance.response_to_json resp in
                      ignore (Sys.opaque_identity (Frame.encode j));
                      j)
                in
                stage "journal_respond" (fun () -> Journal.respond journal ~key:(Instance.key s) json);
                responses.(k) <- json;
                words := !words +. (Memprobe.domain_minor_words () -. w0);
                (* The bare compute, outside the server path, so dispatch
                   overhead = dispatch - execute. *)
                let m = stage "execute" (fun () -> Instance.execute s) in
                if json <> Instance.response_to_json (Instance.Done { id; metrics = m }) then ok := false)
            plan));
  Journal.close journal;
  Bcore.remove_if_exists journal_path;
  (* Medians over requests: a GC pause landing in one call does not
     move a stage's figure. Dispatch overhead is the median of the
     per-request differences between the supervised pool path and the
     bare computation of the same instance. *)
  let durations name = Option.value ~default:[] (Hashtbl.find_opt times name) in
  let per name = Bcore.median (durations name) *. 1e6 in
  let dispatch_overhead =
    Bcore.median (List.map2 ( -. ) (durations "dispatch") (durations "execute")) *. 1e6
  in
  let payloads = Array.map (fun (s, _) -> Instance.request_json s) plan in
  (* WAL appends at serve record sizes, alternating request/response. *)
  let wal_path = Bcore.out_path "layers.wal" in
  let wal = Wal.open_ ~magic:"perfbench-wal 1" ~path:wal_path ~fingerprint:"perfbench" () in
  let wal_append_us =
    Bcore.per_call_us ~budget_s:c.slice (fun i ->
        let k = i / 2 mod requests in
        if i land 1 = 0 then Wal.append wal ~tag:"accept" ~key:(string_of_int k) payloads.(k)
        else Wal.append wal ~tag:"respond" ~key:(string_of_int k) responses.(k))
  in
  Wal.close wal;
  Bcore.remove_if_exists wal_path;
  ( !ok,
    [
      ("serve.frame_decode_us", per "frame_decode");
      ("serve.parse_us", per "parse");
      ("serve.admission_us", per "admission");
      ("serve.execute_us", per "execute");
      ("serve.dispatch_overhead_us", dispatch_overhead);
      ("serve.response_encode_us", per "response_encode");
      ("serve.journal_accept_us", per "journal_accept");
      ("serve.journal_respond_us", per "journal_respond");
      ("serve.minor_words_per_instance", !words /. float_of_int requests);
      ("exec.wal_append_us", wal_append_us);
      ( "telemetry.json_parse_us",
        Bcore.per_call_us ~budget_s:c.slice (fun i ->
            opaque (Json.parse payloads.(i mod requests))) );
    ] )

(* Journal.open_ ~resume:true over a journal of [k] accepted records. *)
let wal_replay c ~k =
  let path = Bcore.out_path "layers-resume.journal" in
  let j = Journal.open_ ~path () in
  for i = 0 to k - 1 do
    ignore (Journal.accept j (Wl_serve.spec ~seed:c.seed (Wl_serve.resume_base + i)))
  done;
  Journal.close j;
  let ms =
    Bcore.per_call_us ~budget_s:c.slice (fun _ ->
        let j = Journal.open_ ~resume:true ~path () in
        if List.length (Journal.recovered j) <> k then failwith "wal replay lost records";
        Journal.close j)
    /. 1e3
  in
  Bcore.remove_if_exists path;
  [ ("exec.wal_replay_ms", ms) ]

(* ---------- check and chaos at n=4 ---------- *)

exception Enough

let check c =
  let unauth = Universe.default_params ~protocol:E.Unauth ~n:4 ~t:1 in
  let prefix = 2000 in
  let configs = ref [] and taken = ref 0 in
  (try
     Decision.iter
       (fun cfg ~path:_ ->
         configs := cfg :: !configs;
         incr taken;
         if !taken = prefix then raise Enough)
       (Universe.configs unauth)
   with Enough -> ());
  let configs = Array.of_list (List.rev !configs) in
  let nc = Array.length configs in
  let es_h1 =
    let p = Universe.default_params ~protocol:E.Es_baseline ~n:4 ~t:1 in
    { p with Universe.bounds = { p.Universe.bounds with Bap_chaos.Space.horizon = 1 } }
  in
  let last = ref None in
  let leaf_us =
    Bcore.per_call_us ~budget_s:c.slice (fun _ ->
        let r = Explore.run es_h1 in
        last := Some r.Explore.stats)
  in
  let stats = Option.get !last in
  let tree = Universe.configs es_h1 in
  [
    ("check.leaf_us", leaf_us /. float_of_int stats.Explore.leaves);
    ( "check.canon_key_us",
      Bcore.per_call_us ~budget_s:c.slice (fun i ->
          opaque (Canon.key (Canon.canonicalize configs.(i mod nc)))) );
    ( "check.universe_enum_us",
      Bcore.per_call_us ~budget_s:c.slice (fun _ ->
          Decision.iter (fun _ ~path:_ -> ()) tree)
      /. float_of_int stats.Explore.leaves );
    ( "chaos.engine_run_us",
      Bcore.per_call_us ~budget_s:c.slice (fun i ->
          opaque (E.run ~with_trace:false ~mutant:Fuzz.mutant configs.(i mod nc))) );
    ("check.states", float_of_int stats.Explore.states);
    ("check.leaves", float_of_int stats.Explore.leaves);
    ("check.symmetry_hits", float_of_int stats.Explore.symmetry_hits);
  ]

(* ---------- prediction: advice generation at n=2000 ---------- *)

let prediction c =
  let n = 2000 and f = 166 and m = 40 in
  let rng = C.Rng.create (Bcore.mix c.seed 3) in
  let faulty = Array.of_list (C.Rng.sample_without_replacement rng f n) in
  let per_target = max 1 (C.Classification.majority_threshold n - f) in
  let budget = C.budget_for_misclassified ~n ~f m in
  [
    ( "prediction.advice_ms",
      Bcore.per_call_us ~budget_s:c.slice (fun _ ->
          opaque (C.Gen.generate ~rng ~n ~faulty ~budget (C.Gen.Targeted per_target)))
      /. 1e3 );
  ]

(* ---------- reference runs ---------- *)

(* Traced reference instances that enter every Phase_span phase: the
   unauth wrapper at n=31 and the auth wrapper at n=10. A workload that
   never enters a phase reports that phase from here. Run under the
   traced half's sink, before the workload, so the event limit cannot
   have cut them off. *)
let reference ~seed =
  let acc = Tel_an.create () in
  List.iter
    (fun p ->
      let w = Wl_proto.workload p ~seed:(Bcore.mix seed 4) in
      ignore (Tel_an.unit_ acc "reference" (fun () -> Wl_proto.execute p w)))
    [ { Wl_proto.wrapper_tiny with n = 31; t = 10; f = 2 }; Wl_proto.auth_tiny ];
  Tel_an.metrics acc

type result = { metrics : (string * float) list; attempted : int; failed : int }

let run ~seed ~tiny_size =
  let c = { seed; slice = (if tiny_size then 0.01 else 0.12) } in
  let valid_certs, cw = crypto_wire c in
  let stages_ok, stages = serve_stages c ~requests:(if tiny_size then 50 else 1000) in
  (* A short serve run backs the serve metrics that only
     serve-small measures itself: p99 latency, generator lag, recovery. *)
  let serve_ref =
    Wl_serve.run ~sizes:{ Wl_serve.tiny with rate = (if tiny_size then 1000. else 3000.) }
      ~seed ~budget_s:(if tiny_size then 0.2 else 0.6) ~corrupt:false
  in
  let metrics =
    sim c @ graded c @ cw @ stages
    @ wal_replay c ~k:(if tiny_size then 50 else Wl_serve.full.Wl_serve.resume_k)
    @ check c @ prediction c
    @ List.filter (fun (k, _) -> String.starts_with ~prefix:"serve." k) serve_ref.Outcome.layer
  in
  let bad = (if valid_certs then 0 else 1) + if stages_ok then 0 else 1 in
  if bad > 0 then prerr_endline "perfbench: layer suite: a certificate or a replayed response was wrong";
  {
    metrics;
    attempted = 2 + serve_ref.Outcome.attempted;
    failed = bad + serve_ref.Outcome.failed;
  }
