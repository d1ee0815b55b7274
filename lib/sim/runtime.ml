module type MSG = sig
  type t
end

module type S = sig
  type msg
  type ctx

  val id : ctx -> int
  val n : ctx -> int
  val round : ctx -> int
  val exchange : ctx -> (int -> msg list) -> msg Inbox.t
  val broadcast_list : ctx -> msg list -> msg Inbox.t
  val broadcast : ctx -> msg -> msg Inbox.t
  val send_to : ctx -> (int * msg) list -> msg Inbox.t
  val silent_round : ctx -> msg Inbox.t
  val skip : ctx -> int -> unit

  type 'r outcome = {
    n : int;
    faulty : int array;
    decisions : 'r option array;
    decision_round : int array;
    rounds : int;
    honest_sent : int;
    honest_per_round : int array;
    honest_received : int array;
    honest_bits : int;
    adversary_sent : int;
  }

  exception Round_limit_exceeded of int

  type 'r runner =
    ?max_rounds:int ->
    ?trace:msg Trace.t ->
    ?msg_size:(msg -> int) ->
    ?network:(round:int -> src:int -> dst:int -> msg list -> msg list) ->
    n:int ->
    faulty:int array ->
    adversary:msg Adversary.t ->
    (ctx -> 'r) ->
    'r outcome

  val run : ?group_key:(msg -> string option) -> 'r runner
  val reference_run : 'r runner
  val honest_decisions : 'r outcome -> (int * 'r) list
end

(* Below this many processes [run] ignores [group_key]: keying every
   broadcast costs more than the per-sender entries it saves (the
   measured crossover is in DESIGN.md, "Scalable core"). *)
let keyed_min_n = 19

module Make (M : MSG) : S with type msg = M.t = struct
  module Tel = Bap_telemetry.Telemetry
  module Memprobe = Bap_telemetry.Memprobe

  type msg = M.t
  type ctx = { ctx_id : int; ctx_n : int; mutable ctx_round : int }

  let id c = c.ctx_id
  let n c = c.ctx_n
  let round c = c.ctx_round

  (* The two outbox shapes a fiber can yield. [Obroadcast] is the
     counted engine's native form: recipient-independent, so identical
     honest broadcasts aggregate into one (payload, sender-set) group.
     [Ofun] forces per-recipient materialisation. *)
  type outbox = Obroadcast of msg list | Ofun of (int -> msg list)

  type _ Effect.t += Exchange : outbox -> msg Inbox.t Effect.t

  let exchange _ctx f = Effect.perform (Exchange (Ofun f))
  let broadcast_list _ctx msgs = Effect.perform (Exchange (Obroadcast msgs))
  let broadcast ctx m = broadcast_list ctx [ m ]

  let send_to ctx pairs =
    let outbox j = List.filter_map (fun (dst, m) -> if dst = j then Some m else None) pairs in
    exchange ctx outbox

  let silent_round ctx = broadcast_list ctx []

  let skip ctx r =
    for _ = 1 to r do
      ignore (silent_round ctx)
    done

  type 'r outcome = {
    n : int;
    faulty : int array;
    decisions : 'r option array;
    decision_round : int array;
    rounds : int;
    honest_sent : int;
    honest_per_round : int array;
    honest_received : int array;
    honest_bits : int;
    adversary_sent : int;
  }

  exception Round_limit_exceeded of int

  type 'r runner =
    ?max_rounds:int ->
    ?trace:msg Trace.t ->
    ?msg_size:(msg -> int) ->
    ?network:(round:int -> src:int -> dst:int -> msg list -> msg list) ->
    n:int ->
    faulty:int array ->
    adversary:msg Adversary.t ->
    (ctx -> 'r) ->
    'r outcome

  (* A fiber is either finished with a result or suspended at an
     [exchange], holding its outbox and the continuation expecting the
     round's inbox. *)
  type 'r status =
    | Finished of 'r
    | Yielded of outbox * (msg Inbox.t, 'r status) Effect.Deep.continuation

  let spawn (body : unit -> 'r) : 'r status =
    Effect.Deep.match_with body ()
      {
        retc = (fun r -> Finished r);
        exnc = raise;
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Exchange ob ->
              Some
                (fun (k : (a, _) Effect.Deep.continuation) -> Yielded (ob, k))
            | _ -> None);
      }

  (* One execution's state, shared by the round loop and the round
     engine: the configuration, the fibers, and the accounting the
     outcome reports. *)
  type 'r exec = {
    n : int;
    faulty : int array;
    is_faulty : bool array;
    handlers : msg Adversary.handlers;
    trace : msg Trace.t option;
    msg_size : (msg -> int) option;
    network : (round:int -> src:int -> dst:int -> msg list -> msg list) option;
    mutable status : 'r status array;
    decisions : 'r option array;
    decision_round : int array;
    honest_received : int array;
    mutable round : int;
    mutable this_round : int;  (* honest messages delivered this round *)
    mutable honest_bits : int;
    mutable adversary_sent : int;
  }

  let size_sum ex msgs =
    match ex.msg_size with
    | None -> 0
    | Some size -> List.fold_left (fun acc m -> acc + size m) 0 msgs

  (* Count [msgs] as delivered on edge [src -> dst]; [sign] = -1 takes
     them back. Self-deliveries are never counted. *)
  let account ex ~sign ~src ~dst msgs =
    if src <> dst then begin
      let c = sign * List.length msgs in
      if ex.is_faulty.(src) then ex.adversary_sent <- ex.adversary_sent + c
      else begin
        ex.this_round <- ex.this_round + c;
        ex.honest_received.(dst) <- ex.honest_received.(dst) + c;
        ex.honest_bits <- ex.honest_bits + (sign * size_sum ex msgs)
      end
    end

  let record ex e = match ex.trace with Some t -> Trace.record t e | None -> ()

  let deliver ex ~src ~dst msgs =
    if Option.is_some ex.trace then
      let byzantine = ex.is_faulty.(src) in
      List.iter (fun msg -> record ex (Trace.Deliver { src; dst; msg; byzantine })) msgs

  (* The adversary's view of a round; [honest_out] must answer [] for
     faulty senders. *)
  let view ex honest_out =
    { Adversary.round = ex.round; n = ex.n; faulty = ex.faulty; honest_out }

  let bad_injection ex what id =
    invalid_arg
      (Printf.sprintf "Runtime.run: adversary injected %s %d (round %d)" what id ex.round)

  (* Reject bad injections loudly: silently accepting a send from an
     honest id would let a buggy adversary forge honest behaviour and
     corrupt every message-complexity metric. *)
  let validate_send ex { Adversary.src; dst; _ } =
    if src < 0 || src >= ex.n then bad_injection ex "from out-of-range source" src;
    if not ex.is_faulty.(src) then bad_injection ex "from non-faulty source" src;
    if dst < 0 || dst >= ex.n then bad_injection ex "to out-of-range destination" dst

  let note_finish ex i r =
    ex.decisions.(i) <- Some r;
    ex.decision_round.(i) <- ex.round;
    record ex (Trace.Decide { who = i; round = ex.round })

  let honest_running ex =
    let rec from i =
      i < ex.n
      &&
      match ex.status.(i) with
      | Yielded _ when not ex.is_faulty.(i) -> true
      | Finished _ | Yielded _ -> from (i + 1)
    in
    from 0

  (* Hand every suspended fiber its inbox, recipients ascending. *)
  let resume ex inbox_of =
    for i = 0 to ex.n - 1 do
      match ex.status.(i) with
      | Finished _ -> ()
      | Yielded (_, k) -> (
        let st = Effect.Deep.continue k (inbox_of i) in
        ex.status.(i) <- st;
        match st with Finished r -> note_finish ex i r | Yielded _ -> ())
    done

  (* -- the reference round: plain per-pair semantics -- *)

  (* Every (sender, recipient) pair gets its own list in two fresh n x n
     matrices: [out] holds the puppet outboxes, [eff] what is actually
     delivered. This is the semantics the counted round must reproduce,
     kept as the differential tests' oracle. *)
  let reference_round ex () =
    let n = ex.n in
    let out = Array.make_matrix n n [] in
    Array.iteri
      (fun src st ->
        match st with
        | Yielded (Obroadcast msgs, _) -> Array.fill out.(src) 0 n msgs
        | Yielded (Ofun f, _) ->
          for dst = 0 to n - 1 do
            out.(src).(dst) <- f dst
          done
        | Finished _ -> ())
      ex.status;
    let view =
      view ex (fun ~sender ~recipient ->
          if ex.is_faulty.(sender) then [] else out.(sender).(recipient))
    in
    let eff =
      Array.mapi
        (fun src row ->
          if ex.is_faulty.(src) then
            Array.init n (ex.handlers.Adversary.filter view ~src (Array.get row))
          else Array.copy row)
        out
    in
    List.iter
      (fun ({ Adversary.src; dst; payload } as send) ->
        validate_send ex send;
        eff.(src).(dst) <- eff.(src).(dst) @ [ payload ])
      (ex.handlers.Adversary.inject view);
    for src = 0 to n - 1 do
      for dst = 0 to n - 1 do
        (match ex.network with
        | Some perturb -> eff.(src).(dst) <- perturb ~round:ex.round ~src ~dst eff.(src).(dst)
        | None -> ());
        account ex ~sign:1 ~src ~dst eff.(src).(dst);
        deliver ex ~src ~dst eff.(src).(dst)
      done
    done;
    resume ex (fun i ->
        if ex.is_faulty.(i) then
          Inbox.concrete
            (Array.init n (fun src ->
                 ex.handlers.Adversary.filter_in view ~dst:i ~src eff.(src).(i)))
        else Inbox.concrete (Array.init n (fun src -> eff.(src).(i))))

  (* -- the counted round: aggregates identical honest broadcasts -- *)

  (* A sender's effective traffic shape on the counted path. *)
  type shape = RNone | RBroadcast of msg list | RRow of msg list array

  (* Injective key for a whole broadcast list: netstring-join of the
     per-message keys, [None] as soon as one message must not group. *)
  let key_of gk msgs =
    let rec go buf = function
      | [] -> Some (Buffer.contents buf)
      | m :: rest -> (
        match gk m with
        | None -> None
        | Some s ->
          Buffer.add_string buf (string_of_int (String.length s));
          Buffer.add_char buf ':';
          Buffer.add_string buf s;
          go buf rest)
    in
    go (Buffer.create 64) msgs

  let by_sender (a, _) (b, _) = Int.compare a b

  (* Allocates the per-round scratch once per run and returns the round
     function, which wipes it between rounds. *)
  let counted_round ?group_key ex =
    let n = ex.n in
    let group_key = if n < keyed_min_n then None else group_key in
    let is_faulty = ex.is_faulty and handlers = ex.handlers in
    let faulty_sorted =
      let a = Array.copy ex.faulty in
      Array.sort Int.compare a;
      a
    in
    let kind : shape array = Array.make n RNone in
    let ekind : shape array = Array.make n RNone in
    let grouped = Array.make n false in
    let own_len = Array.make n 0 in
    let inj_rev : (int * msg) list array = Array.make n [] in
    let group_tbl : (string, msg list * Bitset.t) Hashtbl.t = Hashtbl.create 64 in
    let per_edge = Option.is_some ex.trace || Option.is_some ex.network in
    let edge_ov : (int * msg list) list array = Array.make (if per_edge then n else 0) [] in
    let edges_ready = ref false in
    fun () ->
      edges_ready := false;
      Array.fill kind 0 n RNone;
      Array.fill ekind 0 n RNone;
      Array.fill grouped 0 n false;
      Array.fill own_len 0 n 0;
      (* 1. Materialise outboxes: same evaluation order and call counts
         as the reference round (function outboxes run once per
         recipient, destinations ascending, sources ascending). *)
      Array.iteri
        (fun src st ->
          match st with
          | Yielded (Obroadcast msgs, _) -> kind.(src) <- RBroadcast msgs
          | Yielded (Ofun f, _) -> kind.(src) <- RRow (Array.init n f)
          | Finished _ -> ())
        ex.status;
      let view =
        view ex (fun ~sender ~recipient ->
            if is_faulty.(sender) then []
            else
              match kind.(sender) with
              | RNone -> []
              | RBroadcast msgs -> msgs
              | RRow r -> r.(recipient))
      in
      (* 2. Honest senders: aggregate broadcast shapes into groups. *)
      Hashtbl.reset group_tbl;
      let groups_rev = ref [] in
      let base_honest_total = ref 0 in
      let bits_per_recipient = ref 0 in
      for src = 0 to n - 1 do
        if not is_faulty.(src) then
          match kind.(src) with
          | RNone | RBroadcast [] -> ()
          | RBroadcast msgs as k ->
            ekind.(src) <- k;
            let len = List.length msgs in
            base_honest_total := !base_honest_total + len;
            own_len.(src) <- len;
            bits_per_recipient := !bits_per_recipient + size_sum ex msgs;
            (match group_key with
            | None -> ()
            | Some gk -> (
              match key_of gk msgs with
              | None -> ()
              | Some key -> (
                grouped.(src) <- true;
                match Hashtbl.find_opt group_tbl key with
                | Some (_, set) -> Bitset.set set src
                | None ->
                  let set = Bitset.create n in
                  Bitset.set set src;
                  let entry = (msgs, set) in
                  Hashtbl.replace group_tbl key entry;
                  groups_rev := entry :: !groups_rev)))
          | RRow _ as k -> ekind.(src) <- k
      done;
      (* 3. Faulty senders, ascending (the reference round's filter-call
         order). The canonical combinators are recognised physically:
         they are pure, so skipping their calls is unobservable. *)
      Array.iter
        (fun src ->
          let pk = kind.(src) in
          if handlers.Adversary.filter == Adversary.mute_filter then ()
          else if handlers.Adversary.filter == Adversary.identity_filter then (
            match pk with RNone | RBroadcast [] -> () | k -> ekind.(src) <- k)
          else begin
            let puppet dst =
              match pk with RNone -> [] | RBroadcast msgs -> msgs | RRow r -> r.(dst)
            in
            ekind.(src) <-
              RRow (Array.init n (fun dst -> handlers.Adversary.filter view ~src puppet dst))
          end)
        faulty_sorted;
      (* 4. Injections, validated in order with the reference round's
         exact errors. *)
      let touched_dsts = ref [] in
      let inj_adv = ref 0 in
      List.iter
        (fun ({ Adversary.src; dst; payload } as send) ->
          validate_send ex send;
          if dst <> src then incr inj_adv;
          (match inj_rev.(dst) with [] -> touched_dsts := dst :: !touched_dsts | _ :: _ -> ());
          inj_rev.(dst) <- (src, payload) :: inj_rev.(dst))
        (handlers.Adversary.inject view);
      (* 5. Accounting: identical totals, computed per group / sender
         instead of per pair. *)
      ex.this_round <- ex.this_round + (!base_honest_total * (n - 1));
      ex.honest_bits <- ex.honest_bits + (!bits_per_recipient * (n - 1));
      for dst = 0 to n - 1 do
        ex.honest_received.(dst) <-
          ex.honest_received.(dst) + !base_honest_total - own_len.(dst)
      done;
      for src = 0 to n - 1 do
        match ekind.(src) with
        | RNone -> ()
        | RBroadcast msgs ->
          if is_faulty.(src) then
            ex.adversary_sent <- ex.adversary_sent + (List.length msgs * (n - 1))
        | RRow r ->
          for dst = 0 to n - 1 do
            account ex ~sign:1 ~src ~dst r.(dst)
          done
      done;
      ex.adversary_sent <- ex.adversary_sent + !inj_adv;
      (* 6. Assemble inboxes. With no function-shaped traffic, no
         injections and no edge rewritten by the network hook every
         recipient shares one immutable inbox. *)
      let groups_arr = Array.of_list (List.rev !groups_rev) in
      let shared_direct =
        let acc = ref [] in
        for src = n - 1 downto 0 do
          if not grouped.(src) then
            match ekind.(src) with
            | RBroadcast msgs -> acc := (src, msgs) :: !acc
            | RNone | RRow _ -> ()
        done;
        Array.of_list !acc
      in
      let rows_exist = Array.exists (function RRow _ -> true | _ -> false) ekind in
      let base_of src dst =
        match ekind.(src) with RNone -> [] | RBroadcast msgs -> msgs | RRow r -> r.(dst)
      in
      (* Recipient [i]'s per-sender overrides of the shared groups and
         direct entries, in no particular order: its row entries, then
         its injections appended in injection order. Once the edge pass
         has run, they also carry the network hook's rewrites. *)
      let overrides_for i =
        if !edges_ready then edge_ov.(i)
        else begin
          let ov = ref [] in
          if rows_exist then
            for src = 0 to n - 1 do
              match ekind.(src) with
              | RRow r -> (
                match r.(i) with [] -> () | msgs -> ov := (src, msgs) :: !ov)
              | RNone | RBroadcast _ -> ()
            done;
          List.iter
            (fun (src, payload) ->
              match List.assoc_opt src !ov with
              | Some cur -> ov := (src, cur @ [ payload ]) :: List.remove_assoc src !ov
              | None -> ov := (src, base_of src i @ [ payload ]) :: !ov)
            (List.rev inj_rev.(i));
          !ov
        end
      in
      (* 7. Per-edge observers, in the reference round's order (sources
         ascending, then recipients): the network hook rewrites an
         edge's list, a physically changed list becomes a direct entry
         for its recipient with the accounting moved onto it, and the
         trace records what each edge delivers. *)
      let rewritten = ref false in
      if per_edge then begin
        let pending = Array.init n (fun i -> List.sort by_sender (overrides_for i)) in
        Array.fill edge_ov 0 n [];
        for src = 0 to n - 1 do
          for dst = 0 to n - 1 do
            let pre, overridden =
              match pending.(dst) with
              | (s, msgs) :: rest when s = src ->
                pending.(dst) <- rest;
                (msgs, true)
              | _ -> (base_of src dst, false)
            in
            let post =
              match ex.network with
              | Some perturb -> perturb ~round:ex.round ~src ~dst pre
              | None -> pre
            in
            if post != pre then begin
              rewritten := true;
              account ex ~sign:(-1) ~src ~dst pre;
              account ex ~sign:1 ~src ~dst post
            end;
            if overridden || post != pre then edge_ov.(dst) <- (src, post) :: edge_ov.(dst);
            deliver ex ~src ~dst post
          done
        done;
        edges_ready := true
      end;
      let have_extras =
        rows_exist || !rewritten || (match !touched_dsts with [] -> false | _ :: _ -> true)
      in
      let shared_inbox =
        if have_extras then None
        else Some (Inbox.counted ~n ~groups:groups_arr ~direct:shared_direct)
      in
      let inbox_for i =
        match shared_inbox with
        | Some shared -> shared
        | None -> (
          match overrides_for i with
          | [] -> Inbox.counted ~n ~groups:groups_arr ~direct:shared_direct
          | ov ->
            let ov_sorted = List.sort by_sender ov in
            (* Keep the group/direct disjointness invariant: an
               overridden sender leaves its group for this recipient. *)
            let grouped_ov = List.filter (fun (src, _) -> grouped.(src)) ov_sorted in
            let groups_i =
              match grouped_ov with
              | [] -> groups_arr
              | _ :: _ ->
                Array.map
                  (fun (msgs, set) ->
                    if List.exists (fun (src, _) -> Bitset.get set src) grouped_ov then begin
                      let set' = Bitset.copy set in
                      List.iter
                        (fun (src, _) -> if Bitset.get set' src then Bitset.clear set' src)
                        grouped_ov;
                      (msgs, set')
                    end
                    else (msgs, set))
                  groups_arr
            in
            let rec merge acc ds ovs =
              match (ds, ovs) with
              | [], rest | rest, [] -> List.rev_append acc rest
              | ((s1, _) as d) :: ds', ((s2, _) as o) :: ovs' ->
                if s1 < s2 then merge (d :: acc) ds' ovs
                else if s1 > s2 then merge (o :: acc) ds ovs'
                else merge (o :: acc) ds' ovs'
            in
            let direct = Array.of_list (merge [] (Array.to_list shared_direct) ov_sorted) in
            Inbox.counted ~n ~groups:groups_i ~direct)
      in
      let skip_filter_in = handlers.Adversary.filter_in == Adversary.identity_in in
      resume ex (fun i ->
          if is_faulty.(i) && not skip_filter_in then begin
            let ov = overrides_for i in
            let slot src =
              match List.assoc_opt src ov with Some msgs -> msgs | None -> base_of src i
            in
            Inbox.concrete
              (Array.init n (fun src ->
                   handlers.Adversary.filter_in view ~dst:i ~src (slot src)))
          end
          else inbox_for i);
      List.iter (fun dst -> inj_rev.(dst) <- []) !touched_dsts

  (* Memprobe attribution of a span: [stamp] at its start, [minor_words]
     appended to its end attributes. Both are no-ops with the probe off,
     so probe-off traces keep their exact bytes. *)
  let stamp mw0 = if Memprobe.enabled () then mw0 := Memprobe.domain_minor_words ()

  let with_minor_words mw0 attrs =
    if Memprobe.enabled () then
      attrs
      @ [ ("minor_words", Tel.Int (int_of_float (Memprobe.domain_minor_words () -. !mw0))) ]
    else attrs

  let execute ~engine ?(max_rounds = 100_000) ?trace ?msg_size ?network ~n ~faulty
      ~adversary body =
    let is_faulty = Array.make n false in
    Array.iter
      (fun i ->
        if i < 0 || i >= n then invalid_arg "Runtime.run: faulty id out of range";
        is_faulty.(i) <- true)
      faulty;
    let ex =
      {
        n;
        faulty;
        is_faulty;
        handlers = adversary.Adversary.make ~n ~faulty;
        trace;
        msg_size;
        network;
        status = [||];
        decisions = Array.make n None;
        decision_round = Array.make n (-1);
        honest_received = Array.make n 0;
        round = 0;
        this_round = 0;
        honest_bits = 0;
        adversary_sent = 0;
      }
    in
    let ctxs = Array.init n (fun i -> { ctx_id = i; ctx_n = n; ctx_round = 0 }) in
    let honest_sent = ref 0 in
    let per_round = ref [] in
    (* The sim.run span covers the spawn too: the first segment of every
       protocol (up to its first exchange) runs inside [spawn], and any
       phase spans it opens must land inside this one.

       Allocation attribution rides the same span when the memprobe is
       on. The whole run is also a memprobe phase, which makes the
       protocols' nested [Phase_span] frames self-subtract from it in
       the metrics registry. *)
    let run_mw0 = ref 0. in
    Tel.span ~cat:"sim" ~name:"sim.run"
      ~attrs:(fun () ->
        stamp run_mw0;
        [ ("n", Tel.Int n); ("f", Tel.Int (Array.length faulty)) ])
      ~end_attrs:(fun () ->
        with_minor_words run_mw0
          [
            ("rounds", Tel.Int ex.round);
            ("msgs", Tel.Int !honest_sent);
            ("bits", Tel.Int ex.honest_bits);
            ("adversary_msgs", Tel.Int ex.adversary_sent);
          ])
      (fun () ->
    Memprobe.phase "sim.run" @@ fun () ->
    ex.status <- Array.init n (fun i -> spawn (fun () -> body ctxs.(i)));
    Array.iteri
      (fun i st -> match st with Finished r -> note_finish ex i r | Yielded _ -> ())
      ex.status;
    let step = engine ex in
    let bits0 = ref 0 in
    let mw0 = ref 0. in
    while honest_running ex do
      ex.round <- ex.round + 1;
      if ex.round > max_rounds then raise (Round_limit_exceeded max_rounds);
      record ex (Trace.Round_begin ex.round);
      ex.this_round <- 0;
      bits0 := ex.honest_bits;
      Tel.span ~cat:"sim" ~name:"round"
        ~attrs:(fun () ->
          stamp mw0;
          [ ("round", Tel.Int ex.round) ])
        ~end_attrs:(fun () ->
          with_minor_words mw0
            [ ("msgs", Tel.Int ex.this_round); ("bits", Tel.Int (ex.honest_bits - !bits0)) ])
        (fun () ->
          Array.iter (fun c -> c.ctx_round <- ex.round) ctxs;
          step ());
      honest_sent := !honest_sent + ex.this_round;
      per_round := ex.this_round :: !per_round;
      record ex (Trace.Round_end ex.round);
      Tel.Metrics.counter "sim.rounds" 1;
      Tel.Metrics.counter "sim.msgs" ex.this_round;
      Tel.Metrics.counter "sim.bits" (ex.honest_bits - !bits0);
      Tel.Metrics.observe "sim.round_msgs" ex.this_round
    done);
    {
      n;
      faulty;
      decisions = ex.decisions;
      decision_round = ex.decision_round;
      rounds = ex.round;
      honest_sent = !honest_sent;
      honest_per_round = Array.of_list (List.rev !per_round);
      honest_received = ex.honest_received;
      honest_bits = ex.honest_bits;
      adversary_sent = ex.adversary_sent;
    }

  let run ?group_key ?max_rounds ?trace ?msg_size ?network ~n ~faulty ~adversary body =
    execute ~engine:(counted_round ?group_key) ?max_rounds ?trace ?msg_size ?network ~n
      ~faulty ~adversary body

  let reference_run ?max_rounds ?trace ?msg_size ?network ~n ~faulty ~adversary body =
    execute ~engine:reference_round ?max_rounds ?trace ?msg_size ?network ~n ~faulty
      ~adversary body

  let honest_decisions (outcome : _ outcome) =
    let is_faulty = Array.make outcome.n false in
    Array.iter (fun i -> is_faulty.(i) <- true) outcome.faulty;
    let acc = ref [] in
    for i = outcome.n - 1 downto 0 do
      if not is_faulty.(i) then
        match outcome.decisions.(i) with Some v -> acc := (i, v) :: !acc | None -> ()
    done;
    !acc
end
