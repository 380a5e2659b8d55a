(** Counting termination detection for live clusters: the pure half.

    A live run is over when no node will ever act again: every program
    has finished, no client is connected, no layer above the transport
    holds work it could still send, and no data frame is in flight.  No
    node can see the last condition locally, so the lowest-numbered node
    collects it in {e waves}: it sends a [Probe] to every peer, each peer
    answers with a [Report] of its state and its data-frame counters,
    and the wave completes when every node has answered.  Following
    Mattern's four-counter method ("Algorithms for distributed
    termination detection", Distributed Computing 2(3), 1987), the
    cluster has terminated when two consecutive waves return identical
    reports, all of them passive, whose sent and received counts balance.
    The detector then sends [Halt].

    This module holds what can be tested without sockets: the report
    record, the decision function over two waves, and the strict binary
    bodies of the three control frames.  {!Live} does the wiring. *)

type report = {
  inc : int;  (** the reporting node's incarnation *)
  quiet : bool;
      (** the node's program has finished ([Done] sent), it has no open
          client connection and no client reply waiting to be written *)
  passive : bool;
      (** [quiet], and the layer above the transport has nothing it
          could still send on its own (the session layer: no unacked
          segment).  Always [false] when [quiet] is. *)
  worked : bool;
      (** the node's program recorded an operation, or it has served a
          client request *)
  sent : int;  (** data frames this node has counted as sent, self-sends included *)
  recv : int;  (** data frames this node has counted as received *)
}

val balanced : report array -> bool
(** The wave's sent and received totals are equal. *)

val decide : prev:report array -> cur:report array -> bool
(** [true] iff the wave [cur], which completed after the wave [prev],
    proves termination: both waves hold one report per node and are
    identical, every node is passive, the sent and received totals are
    equal, and some node worked.  The last condition keeps a cluster
    driven only by clients (every program empty) alive until a client
    session has been served. *)

type tag = { detector : int; wave : int }
(** The detector's incarnation and the wave number, carried by every
    probe, report and halt so that a respawned detector ignores the
    answers to its predecessor's waves.  Waves count from 1; a report
    with wave 0 (and detector 0) is unsolicited: a node that answered a
    probe while busy tells the detector it has gone quiet. *)

val encode_probe : tag -> string
val decode_probe : string -> (tag, string) result
(** Exactly 8 bytes: detector incarnation, wave (i32 each, wave ≥ 1). *)

val encode_report : tag -> report -> string
val decode_report : string -> (tag * report, string) result
(** Exactly 29 bytes: the tag (wave ≥ 0), incarnation (i32), a flag
    byte (bit 0 quiet, bit 1 passive, bit 2 worked; other bits set, or
    passive without quiet, are rejected), sent and received (i64, not
    negative). *)

val encode_halt : tag -> string
val decode_halt : string -> (tag, string) result
(** Same layout as a probe: the wave that proved termination. *)
