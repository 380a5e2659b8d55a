(** Length-prefixed binary framing for the live (socket) transport.

    Every frame travels as a 4-byte big-endian length followed by a fixed
    header and an opaque body:

    {v
      offset 0   4 bytes  length L (bytes following the length field)
      offset 4   1 byte   magic 0xD5
      offset 5   1 byte   kind (0 = data, 1 = hello, 2 = done,
                                3 = client request, 4 = client response,
                                5 = join, 6 = leave, 7 = state transfer,
                                8 = epoch commit, 9 = ping, 10 = pong,
                                11 = termination probe, 12 = probe
                                report, 13 = halt)
      offset 6   2 bytes  src node id
      offset 8   2 bytes  dst node id
      offset 10  2 bytes  configuration epoch
      offset 12  4 bytes  declared control bytes
      offset 16  4 bytes  declared payload bytes
      offset 20  L-16 bytes  body
    v}

    The [control_bytes]/[payload_bytes] fields carry the {e declared}
    accounting sizes — the same numbers a protocol hands to
    {!Repro_msgpass.Net.send} — so the live backend counts exactly what the
    simulator counts, independent of the encoded body size.  [Data]
    bodies hold a protocol message (codec-encoded on the fast path,
    marshalled on the legacy arm); [Hello] bodies hold the cluster
    fingerprint (protocol, workload, size, seed) so mismatched daemons
    fail loudly instead of decoding garbage.  [Creq]/[Cresp] frames carry
    the client front door's RPC bodies ({!Rpc}).  Client ids live in
    [src]/[dst] above the node-id range, so a frame's addressing never
    collides with a peer's.

    The [epoch] field fences reconfiguration: every frame carries its
    sender's configuration epoch, and a live node drops (and counts)
    data-plane frames stamped with an older epoch than its own — a node
    that has not yet heard about a membership change cannot corrupt
    post-change state.  Static clusters carry epoch 0 forever.
    [Join]/[Leave] announce a new member set, [Transfer] carries
    migrated variable state, [Epoch] commits the new configuration, and
    [Ping]/[Pong] form the heartbeat used for failure detection and
    epoch-readiness polling (the membership runtime in [repro_cluster]).
    [Probe]/[Report]/[Halt] carry the live backend's termination
    detection ({!Termination}): they never enter the protocol transport
    or its accounting.

    {b Hot path.}  Frames are built in place: {!Pool.acquire} a buffer,
    emit the body at {!body_offset}, {!set_header}, hand the buffer to
    the batched link flush, {!Pool.release} after the write.  On receive,
    {!next_view} exposes a completed frame's body {e inside} the
    decoder's buffer so message parsing copies nothing. *)

type kind =
  | Data
  | Hello
  | Done
  | Creq
  | Cresp
  | Join
  | Leave
  | Transfer
  | Epoch
  | Ping
  | Pong
  | Probe
  | Report
  | Halt

type frame = {
  kind : kind;
  src : int;
  dst : int;
  epoch : int;
  control_bytes : int;
  payload_bytes : int;
  body : string;
}

val max_frame_bytes : int
(** Upper bound on the length field (16 MiB).  Longer declared frames are
    rejected as corrupt before any allocation. *)

val body_offset : int
(** Where a frame body starts in a buffer holding the full frame, length
    prefix included (20). *)

val set_header :
  ?epoch:int ->
  Bytes.t ->
  kind:kind ->
  src:int ->
  dst:int ->
  control_bytes:int ->
  payload_bytes:int ->
  body_len:int ->
  unit
(** Write the length prefix + header for a [body_len]-byte body into
    [buf.(0..body_offset-1)]; the caller emits the body at
    {!body_offset} (before or after — the regions are disjoint).  The
    whole frame then occupies [body_offset + body_len] bytes of [buf].
    @raise Invalid_argument when an id or byte count is out of range or
    the frame would exceed {!max_frame_bytes}. *)

val is_data : Bytes.t -> bool
(** The frame whose image starts at offset 0 of the buffer (length prefix
    included, as built by {!set_header}) is a [Data] frame. *)

val encode : frame -> bytes
(** Full wire representation in a fresh buffer, length prefix included
    (the legacy arm's per-frame path; the hot path uses {!set_header}
    into a pooled buffer).
    @raise Invalid_argument as {!set_header}. *)

val of_bytes : bytes -> (frame, string) result
(** Decode a buffer holding {e exactly} one frame.  Truncated input,
    trailing garbage, bad magic, unknown kinds and oversized/undersized
    declared lengths are all [Error]s. *)

(** {1 Buffer pool}

    Size-classed freelists so the steady-state encode→flush cycle
    performs no per-frame [Bytes.create]: acquire rounds up to a class
    (256 B … 64 KiB) and reuses a recycled buffer when one is free;
    release returns it.  Oversize requests fall back to a fresh
    allocation and are dropped on release. *)

module Pool : sig
  type t

  val create : unit -> t
  val acquire : t -> int -> Bytes.t  (** at least the requested size *)

  val release : t -> Bytes.t -> unit
  (** Return a buffer obtained from {!acquire}.  Releasing twice without
      re-acquiring aliases the pool — don't. *)
end

(** {1 Streaming decoder}

    TCP delivers byte runs, not frames; the decoder buffers partial input
    across {!feed} calls and yields frames as they complete. *)

type decoder

val decoder : unit -> decoder

val feed : decoder -> bytes -> int -> unit
(** [feed d buf len] appends the first [len] bytes of [buf]. *)

val next : decoder -> (frame option, string) result
(** [Ok None] when no complete frame is buffered yet; [Error _] on a
    corrupt stream (the decoder is then poisoned and keeps returning the
    error).  Copies the body out; the hot path uses {!next_view}. *)

(** {2 Zero-copy views} *)

type view = {
  v_kind : kind;
  v_src : int;
  v_dst : int;
  v_epoch : int;
  v_control_bytes : int;
  v_payload_bytes : int;
  v_buf : Bytes.t;  (** the decoder's internal buffer *)
  v_off : int;  (** body start within [v_buf] *)
  v_len : int;  (** body length *)
}
(** A completed frame whose body still lives in the decoder's buffer —
    valid only until the next {!feed} (which may move or replace the
    buffer).  Parse what you need before feeding again. *)

val next_view : decoder -> (view option, string) result
(** As {!next}, without materialising the body. *)

val view_body : view -> string
(** Copy the body out (control-plane frames, tests). *)

val frame_of_view : view -> frame

val pending : decoder -> int
(** Bytes buffered but not yet consumed — nonzero at connection EOF means
    the peer died mid-frame (a truncated frame). *)

(** {2 Buffer retention}

    A large frame grows the decoder's buffer; it no longer stays grown
    forever.  After {!shrink_after} consecutive feeds that would each
    have fit in the 4 KiB base capacity, the buffer compacts back to
    base size. *)

val capacity : decoder -> int
(** Current internal buffer size (observability for the shrink policy). *)

val base_capacity : int
(** Initial and post-shrink buffer size (4096). *)

val shrink_after : int
(** Consecutive small feeds before an oversized buffer shrinks (32). *)
