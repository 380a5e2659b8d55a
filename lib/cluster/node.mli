(** One live replica: a whole protocol instance hosted in this process,
    with only node [self] active.

    Protocols allocate all-[n] state, but node [p]'s behaviour depends
    only on its own state slice plus incoming messages — so a process
    builds the full instance over a [Node self] transport, runs its
    workload slice as a fiber, and the other nodes' arrays simply stay
    at their initial values.

    The transport stack grows inward from the wire:
    [Live] backend → {!Repro_transport.Chaos} (when a plan is given) →
    {!Repro_transport.Session} (when [session], forced on under chaos) →
    protocol.  Chaos is injected {e below} the session layer, so injected
    drops and duplicates exercise the retransmission machinery exactly as
    wire faults would. *)

type result = {
  node : int;
  incarnation : int;  (** 0 first launch; [k] after the [k]-th respawn. *)
  ops : Repro_core.Runner.entry list;  (** program order *)
  finals : (int * Repro_history.Op.value) list;
      (** The workload's [final_vars], read after the drain. *)
  metrics : Repro_core.Memory.metrics;
      (** This node's share of the accounting: its sends, its deliveries,
          its declared control/payload bytes.  Under a session layer these
          are protocol-level numbers (first transmissions only);
          reliability traffic is in [metrics.overhead_bytes] and the
          [wire] counters. *)
  wire : Repro_msgpass.Net.stats;
      (** Wire-level view: injected drops/duplicates folded in, session
          retransmits / suppressed duplicates, live-link reconnects. *)
  session_stats : Repro_transport.Session.stats option;
      (** Full session-layer counters (frames, piggybacked acks,
          coalescing) when a session layer ran; [None] otherwise. *)
  client_ops : int;
      (** Operations served through the client front door (batch ops
          counted individually). *)
  wall_ms : int;
  wal_stats : Repro_durable.Wal.stats option;
      (** Append/sync/rotation counters when the durability tier ran. *)
  recovered_ops : int;
      (** Ops seeded by recovery (checkpoint + WAL tail); 0 on a first
          incarnation. *)
  recovered_digest : string option;
      (** On a respawned durable node: {!Oplog.digest} over the recovered
          prefix of [ops] as actually replayed — the supervisor compares it
          against an independent decode of the surviving WAL files. *)
}

exception Crash of string
(** Raised on timeout (peers missing, program stuck), protocol rejection
    (blocking protocols need a node for every fiber they suspend on),
    fingerprint mismatch, a corrupt stream, or replay divergence during
    crash recovery. *)

val run :
  self:int ->
  listen_fd:Unix.file_descr ->
  peers:Unix.sockaddr array ->
  protocol:Repro_core.Registry.spec ->
  workload:Workload_spec.t ->
  seed:int ->
  ?hello_timeout_ms:int ->
  ?run_timeout_ms:int ->
  ?quiet_ms:int ->
  ?connect_timeout_ms:int ->
  ?chaos:Repro_msgpass.Fault.Plan.t ->
  ?session:bool ->
  ?coalesce:int ->
  ?checkpoint:string ->
  ?checkpoint_every_ms:int ->
  ?incarnation:int ->
  ?gc_space_overhead:int ->
  ?durable:string * Repro_durable.Wal.fsync_policy ->
  unit ->
  result
(** Defaults: 10 s hello timeout, 60 s run timeout.  After its program
    the node serves until the cluster has terminated
    ({!Repro_transport.Live.drain}): every node's program has finished,
    no client is connected, every session segment has been acked and no
    frame is in flight.  A node whose program recorded no operation
    counts as idle only once it has served a client, so a cluster of
    empty programs waits for its clients however late they connect.
    Still unterminated [run_timeout_ms] after the program, the node
    fails with a ["wedged:"] error.  [quiet_ms] is ignored: it remains
    for callers written against the quiet-window drain this replaced.
    [connect_timeout_ms] caps each reconnection
    episode to a dead peer (0 = retry until the run timeout; see
    {!Repro_transport.Live.config}).  The [seed] stamps the fingerprint and seeds
    the session layer's jitter; workload scripts were already drawn when
    [workload] was built.  [coalesce > 1] sets the session layer's flush
    budget (forcing the session layer on); peers with different budgets
    still interoperate — the wire type is unchanged.

    Every node serves the client front door: [Creq] frames on any accepted
    connection are answered with [Cresp] on the same connection, reads and
    writes applied to this replica's memory.  Client traffic stays outside
    the peer mesh and its protocol-level accounting.

    [checkpoint] is a file path: the node writes a checkpoint there before
    opening traffic, every [checkpoint_every_ms] (default 100) after, and
    when its program finishes — each write followed by
    [Session.mark_stable], so peers' acks never cover state a crash would
    roll back.  With [incarnation > 0] the node restores from that file
    and replays its operation log (reads return logged values, writes are
    suppressed) until it reaches the crash point, then continues live.
    Requires a protocol with snapshot/restore support.

    [durable = (dir, policy)] engages the durability tier instead: every
    recorded op is appended to a write-ahead log in [dir] (fsynced per the
    group-commit [policy]) and checkpoints compact the log through the
    crash-safe rotation protocol ({!Repro_durable.Wal}).  Recovery rebuilds
    state as checkpoint + WAL-tail replay: tail reads return logged values,
    tail writes are re-applied to memory (their effects postdate the
    snapshot), and the first live op waits until session redeliveries reach
    the delivery watermark the last tail record logged.  When the chaos
    plan carries a [dcrash] schedule for this node, the named crash point
    is armed inside the WAL write path (first incarnation only).
    [durable] takes precedence over [checkpoint].

    A scheduled crash from the chaos plan escapes as
    {!Repro_transport.Chaos.Injected_crash}; the caller decides whether to
    respawn (the cluster harness maps it to exit code 42).

    [gc_space_overhead] sets [Gc.space_overhead] for this process before
    any traffic (the hot-path experiments' GC knob: lower = tighter heap +
    more collector work, higher = fewer collections).  Raises {!Crash}
    when < 1. *)
