(** Unix/TCP backend for {!Transport}: one OS process per node.

    A live node binds a listening socket, dials every peer (outbound
    sockets carry this node's frames; accepted sockets carry the peers'),
    and exchanges {!Wire} frames.  Delivery order per directed link is
    FIFO — TCP gives the same per-channel guarantee the simulator does —
    but cross-channel interleaving is real wall-clock nondeterminism.

    Lifecycle of a node process:

    + {!bind} a listener (or inherit one pre-bound by the cluster harness),
    + {!create} the runtime, {!val-factory} → hand to the protocol registry,
    + {!wait_peers} — dial everyone, exchange [Hello] fingerprints,
    + run the node program against the protocol's API,
    + {!finish_program} — broadcast [Done],
    + {!drain} until the cluster has {e terminated} — every program has
      finished, late handler-to-handler traffic (acks, forwards, gossip
      hops) has all been delivered and nothing can start more — then
      snapshot results and {!close}.

    {b Termination.}  The run ends on a proof, not on a quiet spell.
    The lowest-numbered node's {!drain} runs Mattern's four-counter
    detection ({!Termination}): probe waves ([Probe]/[Report] control
    frames) collect every node's passivity and its data-frame counts,
    and two consecutive identical waves with every node passive and as
    many frames received as sent end the run with a [Halt].  Probes go
    out only once every node was last seen quiet, so a busy cluster
    carries no detection traffic.  Data frames are counted per link;
    each connection's [Hello] carries the sender's count so far, so the
    counts stay balanced across broken connections and respawned
    processes.

    The declared control/payload byte counts travel inside each frame
    header, so a live node's {!Transport} stats aggregate exactly the
    numbers the simulator would — encoding overhead never leaks into
    the accounting.

    {b Hot path.}  With a message codec (see {!Transport.factory}), a
    send emits its body straight into a pooled frame buffer (4-byte send
    timestamp + codec image; zero per-message allocation at steady
    state), frames queue per destination link, and each event-loop turn
    flushes a whole link in one [writev(2)] — with partial-write
    resumption and EINTR retry — before recycling the buffers.  Receives
    parse message bodies in place out of the streaming decoder
    ({!Wire.next_view}).  The poll set is persistent: the fd list fed to
    [select] changes only on accept/close, not per iteration.  Without a
    codec, bodies fall back to [Marshal] (still pooled and batched).

    {b Baseline arm.}  Setting [REPRO_LIVE_LEGACY=1] in the environment
    restores the pre-hotpath behaviour — marshalled bodies, one write
    per frame, per-iteration fd-list rebuild — so before/after load
    comparisons can run both arms from one binary.  The arm is stamped
    into the [Hello] fingerprint, so mixed-arm clusters fail the
    handshake instead of exchanging differently-encoded bodies. *)

type config = {
  self : int;  (** this process's node id, [0 <= self < n] *)
  n : int;
  peers : Unix.sockaddr array;
      (** length [n]; [peers.(self)] is ignored (self-sends never touch a
          socket — they go through the timer queue, like the simulator's
          no-synchronous-shortcut rule). *)
  fingerprint : string;
      (** Carried in [Hello] frames; any mismatch between two nodes'
          fingerprints (protocol, workload, size, seed) aborts the run
          instead of decoding foreign bytes. *)
  resilient : bool;
      (** When on, a broken peer link is survived instead of fatal: the
          frame in flight is dropped (counted in [stats.dropped]; a
          {!Session} layer above retransmits), the socket is redialed on a
          bounded exponential backoff with jitter, and a peer announcing a
          fresh incarnation gets our [Hello] (and [Done], if already sent)
          replayed so its restart barrier completes.  Off, behaviour is
          exactly the pre-chaos hard-abort semantics. *)
  incarnation : int;
      (** 0 for a first launch; a respawned node advertises its restart
          count in its [Hello] so peers refresh their outbound links. *)
  connect_timeout_ms : int;
      (** Watchdog cap on one reconnection episode: a resilient node stops
          redialing a dead peer after this many milliseconds (the next
          send to it opens a fresh episode).  [0] keeps the pre-watchdog
          behaviour — retry until the run timeout cuts the loop. *)
}

type t
(** The untyped runtime: sockets, streaming decoders, buffer pool, link
    out-queues, timer queue, counters.  The message type appears only in
    the {!Transport.t} view returned by {!val-factory}. *)

val bind : Unix.sockaddr -> Unix.file_descr
(** Socket + [SO_REUSEADDR] + bind + listen.  Bind to port 0 to let the
    kernel pick; recover the address with {!listen_addr}. *)

val listen_addr : Unix.file_descr -> Unix.sockaddr

val create : config -> listen_fd:Unix.file_descr -> t
(** Takes ownership of [listen_fd].  Ignores [SIGPIPE] process-wide (a
    dead peer must surface as a catchable error, not a kill).  Reads
    [REPRO_LIVE_LEGACY] here, once. *)

val factory : t -> Transport.factory
(** Single-use: the factory encodes at the frame boundary, so binding it
    to two different message types would alias the wire.  Second use
    raises [Invalid_argument]; so does [create ~n] with the wrong [n].
    The resulting transport has [scope = Node self]; its [send] refuses
    [src <> self] and its [set_handler] ignores installs for other nodes
    (whole-instance protocols install all [n] — only ours is live).
    A codec passed through the factory replaces [Marshal] for [Data]
    bodies; [REPRO_CODEC_ORACLE=1] additionally cross-checks every
    encoded body against a decode of itself (tests). *)

val wait_peers : t -> timeout_ms:int -> unit
(** Dial every peer, send [Hello], and pump until every peer's [Hello] has
    arrived.  Refused/reset connections are retried on a bounded
    exponential backoff with jitter (daemons may start in any order); any
    other [Unix_error] fails fast — waiting will not fix a bad address.
    @raise Failure on timeout or fingerprint mismatch. *)

val step : t -> block:bool -> bool
(** One turn of the event loop, in this order: flush whatever was queued
    between turns; [select], blocking at most ~1 ms when [block] and
    nothing is ready; accept, read and dispatch every ready connection;
    write the client replies that dispatch queued; fire due timers (the
    session layer's zero-delay flush, which encodes replication frames);
    then send one [writev] per dirty peer link.  Replies go first because
    a write returns once it is applied locally and propagates later: its
    reply waits on nothing the protocol waits on.  Every frame produced
    in a turn still leaves in that turn.  [true] when any timer fired or
    socket progressed. *)

val finish_program : ?ops:int -> t -> unit
(** Broadcast [Done]: this node's program (its workload slice) has
    finished issuing operations, [ops] of them (default 0).  Its handlers
    stay live.  Pending data frames are flushed first, so [Done] never
    overtakes them.  If every node's program recorded no operation, the
    cluster is driven by clients alone, and it cannot terminate before
    some node has served a client request. *)

val all_done : t -> bool
(** Every peer's [Done] has been seen. *)

val drain : t -> quiet_ms:int -> max_ms:int -> unit
(** Serve until the cluster has terminated: every node is {e passive}
    — it has called {!finish_program}, has no open client connection
    (an accepted connection whose first frame was not a [Hello]) and no
    client reply waiting to be written, and the predicate registered
    with {!set_passive} holds — and no data frame is in flight.  The
    lowest-numbered node detects this and sends [Halt]; every other
    node returns when the [Halt] arrives.  Once a node knows the
    cluster has halted, sends to peers that have already exited are
    non-fatal.  [quiet_ms] is ignored; it remains for callers written
    against the quiet-window drain this replaced.
    @raise Failure (message prefixed ["wedged:"]) when the cluster has
    not terminated [max_ms] after the call. *)

val set_passive : t -> on_probe:(unit -> unit) -> (unit -> bool) -> unit
(** Register the layer above's share of passivity: [pred ()] is [true]
    when that layer holds nothing it could still send without first
    receiving a frame (the session layer: no unacked segment).  Without
    it, the layer above is taken to be passive whenever the node is
    quiet — sound for reliable links, where whatever it sends later is
    only ever an answer.  [on_probe] runs when a probe wave reaches a
    quiet node, before [pred] is asked: the layer sends what it was
    holding back (the session layer's delayed acks), so that a delay
    meant to batch acks does not hold up termination. *)

val activity : t -> int
(** Frames written or dispatched so far (timer fires excluded). *)

val now_ms : t -> int
(** Milliseconds since {!create}. *)

val stats : t -> Repro_msgpass.Net.stats
(** Wire-level counters: frames sent/delivered, declared bytes, frames
    dropped on broken links ([dropped]) and [reconnects].  The factory's
    transport view reports the same record. *)

type reply =
  dst:int ->
  control_bytes:int ->
  payload_bytes:int ->
  body_len:int ->
  emit:(Bytes.t -> int -> int) ->
  unit
(** Send one [Cresp] frame back on the requesting connection: [emit] is
    handed a buffer and the body start offset and must return the offset
    past exactly [body_len] written bytes — the body goes straight into a
    pooled frame, no intermediate string.  Replies queue on the
    connection and flush batched (one [writev] per turn). *)

val set_client_handler : t -> (reply:reply -> Wire.view -> unit) -> unit
(** Install the client front door: every [Creq] frame read off any
    accepted connection is handed to the handler as a zero-copy
    {!Wire.view} (parse the body before returning — the view dies with
    the next decoder feed) together with a {!reply} that writes back on
    {e that} connection.  Client frames bypass the peer-id check (their
    [src] is a client id above the node range) and never enter the
    protocol transport, so peer-level accounting is untouched.  Without a
    handler, [Creq] frames are dropped.  Replies to vanished clients are
    discarded silently. *)

val client_reqs : t -> int
(** [Creq] frames dispatched so far. *)

(** {1 Membership control plane}

    Reconfiguration frames ([Join]/[Leave]/[Transfer]/[Epoch]/
    [Ping]/[Pong]) ride the same sockets as everything else but never
    enter the protocol transport or its accounting.  The epoch fence
    lives here, at the seam: every outgoing frame is stamped with
    {!current_epoch}, and an incoming [Data] or [Transfer] frame stamped
    older is dropped and counted in {!stale_epochs} — a node that missed
    a reconfiguration cannot corrupt post-change state.  The remaining
    control kinds cross epochs freely (they are how nodes {e learn} of a
    newer epoch). *)

type control_reply = kind:Wire.kind -> dst:int -> body:string -> unit
(** Send one control frame back on the connection the triggering frame
    arrived on — the supervisor's control channel is an inbound
    connection, not a peer link. *)

val set_control_handler :
  t -> (reply:control_reply -> Wire.view -> unit) -> unit
(** Install the membership runtime.  Without a handler, control frames
    are inert (static clusters).  As with the client front door, parse
    the view's body before returning. *)

val send_control : t -> dst:int -> kind:Wire.kind -> body:string -> unit
(** Queue a control frame to peer [dst] over the mesh (state transfer
    between members).  Not counted in protocol stats. *)

val set_epoch : t -> int -> unit
(** Raise this node's configuration epoch (monotonic: lowering is a
    no-op).  @raise Invalid_argument outside [0, 0xFFFF]. *)

val current_epoch : t -> int

val stale_epochs : t -> int
(** Frames rejected by the epoch fence so far. *)

val close : t -> unit
