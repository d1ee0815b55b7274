(** Lock-step synchronous round runtime.

    The runtime executes one protocol function per process in
    round-lock-step, exactly matching the synchronous model of the paper:
    in each round every process sends messages, the (rushing) adversary
    fixes the faulty processes' messages after seeing the honest ones, and
    then every process receives the round's messages and computes.

    Protocol code is written in direct style: it calls {!S.exchange} once
    per round and otherwise is ordinary OCaml. Suspension is implemented
    with OCaml 5 effect handlers, so sub-protocols compose by plain
    function calls — Algorithm 1 of the paper is literally a [for] loop
    over function calls.

    Every run goes through the {e counted} round ({!S.run}): identical
    honest broadcasts aggregate into (payload, sender-bitset) groups and
    everything else becomes per-recipient direct entries. A [trace] or a
    [network] hook adds a pass over every edge, O(n{^ 2}) per round.
    {!S.reference_run} is the plain per-pair round, kept as the oracle of
    the differential tests, which assert that the two agree in every
    observable: decisions, rounds, message/bit accounting, trace events,
    adversary and hook call order, and raised exceptions. *)

module type MSG = sig
  type t
end

module type S = sig
  type msg

  type ctx
  (** Per-process handle: identity plus the current round. *)

  val id : ctx -> int
  val n : ctx -> int

  val round : ctx -> int
  (** Rounds start at 1; 0 before the first exchange. *)

  val exchange : ctx -> (int -> msg list) -> msg Inbox.t
  (** [exchange ctx outbox] ends the local computation for this round.
      [outbox j] is the list of messages sent to process [j] (the function
      is called exactly once per recipient, including the caller itself,
      and must be effect-free). The result is the round's inbox: slot [j]
      holds the messages received from process [j]. Messages to self are
      delivered but never counted in the message-complexity metrics.

      A function-shaped outbox forces per-recipient materialisation; use
      {!broadcast_list} when every recipient gets the same messages so
      the counted engine can aggregate. *)

  val broadcast_list : ctx -> msg list -> msg Inbox.t
  (** Send the same message list to everybody (including self). The
      counted engine's native shape: identical honest broadcasts
      collapse into one (payload, sender-set) group. *)

  val broadcast : ctx -> msg -> msg Inbox.t
  (** Send one message to everybody (including self). *)

  val send_to : ctx -> (int * msg) list -> msg Inbox.t
  (** Sparse unicast: send each [(recipient, msg)] pair. *)

  val silent_round : ctx -> msg Inbox.t
  (** Send nothing, still receive. *)

  val skip : ctx -> int -> unit
  (** [skip ctx r] spends [r] silent rounds, discarding the inboxes. Used
      to pad sub-protocols to a fixed duration. *)

  type 'r outcome = {
    n : int;
    faulty : int array;
    decisions : 'r option array;
        (** Return value of each process's protocol function. Faulty slots
            are the *puppet* results (the protocol code the adversary was
            rewriting) and carry no correctness meaning. *)
    decision_round : int array;  (** Round of return, [-1] if never. *)
    rounds : int;  (** Last round executed (= last honest return). *)
    honest_sent : int;
        (** Messages sent by honest processes to other processes (self
            deliveries excluded), i.e. the paper's message complexity. *)
    honest_per_round : int array;
    honest_received : int array;
        (** [honest_received.(j)] counts the messages process [j] received
            from honest senders (self-deliveries excluded); used by the
            Dolev-Reischuk message-lower-bound audit. *)
    honest_bits : int;
        (** Communication complexity: total size (in bits, as reported by
            [run]'s [msg_size]) of the honest messages; 0 when no
            [msg_size] was supplied. *)
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
  (** One execution's arguments, shared by {!run} and {!reference_run}. *)

  val run : ?group_key:(msg -> string option) -> 'r runner
  (** Execute one synchronous run. Every process (honest and faulty) runs
      the given function; faulty copies are puppets whose messages the
      adversary rewrites or replaces (see {!Adversary}). The run ends when
      every honest process has returned.

      [network] is the fault-injection hook of the chaos layer: after the
      adversary has fixed the round's traffic (filters, then injections),
      [network ~round ~src ~dst msgs] rewrites the messages in flight on
      every directed edge, sources ascending, then recipients (including
      self-delivery edges — leave those untouched to stay within the
      synchronous model). It runs before metric accounting and trace
      recording, so both reflect what was actually delivered. Returning
      the list physically unchanged keeps the edge on the aggregated
      path; any other result becomes a direct entry for that recipient.
      Perturbing honest-to-honest edges beyond reordering or duplication
      steps outside the paper's reliable-channel model; the chaos layer's
      schedule generator keeps inside it, but the hook itself is
      deliberately unrestricted so tests can probe the envelope.

      [trace] records [Round_begin]/[Round_end] around each round, one
      [Deliver] per delivered message in edge order (sources ascending,
      then recipients) and one [Decide] per returning process.

      [group_key] enables broadcast aggregation: it must be an
      {e injective} encoding of a message ([None] for messages that must
      not be grouped, e.g. signed ones — they then travel as per-sender
      entries). Below n = 19 it is ignored: keying every broadcast costs
      more than the per-sender entries it saves. Omitting it still avoids
      the n x n matrices but aggregates nothing. [msg_size] and
      [group_key] are called once per distinct payload, so both must be
      pure.

      @raise Round_limit_exceeded after [max_rounds] (default 100_000)
      rounds with honest processes still running.
      @raise Invalid_argument if a faulty id is out of range or the
      adversary injects a message from a non-faulty or out-of-range
      source, or to an out-of-range destination. *)

  val reference_run : 'r runner
  (** {!run}'s semantics through a per-pair round (two n x n matrices per
      round): the differential tests' oracle, not for running protocols. *)

  val honest_decisions : 'r outcome -> (int * 'r) list
  (** Decisions of the honest processes, as [(id, value)] pairs. *)
end

module Make (M : MSG) : S with type msg = M.t
