module Net = Repro_msgpass.Net
module Timeq = Repro_util.Timeq
module Ringbuf = Repro_util.Ringbuf
module Rng = Repro_util.Rng

type config = {
  self : int;
  n : int;
  peers : Unix.sockaddr array;
  fingerprint : string;
  resilient : bool;
  incarnation : int;
  connect_timeout_ms : int;
      (* cap on one reconnection episode's retries; 0 = keep trying until
         the run timeout cuts the loop (the pre-watchdog behaviour) *)
}

type reply =
  dst:int ->
  control_bytes:int ->
  payload_bytes:int ->
  body_len:int ->
  emit:(Bytes.t -> int -> int) ->
  unit

(* Reply on the connection a membership/heartbeat frame arrived on —
   the supervisor's control channel is an inbound connection, never part
   of the peer mesh. *)
type control_reply = kind:Wire.kind -> dst:int -> body:string -> unit

(* A queue of encoded frames awaiting one scatter-gather flush: chunks of
   (pooled buffer, offset, length), with the partial-write cursor as
   (first unsent chunk, bytes of it already written). *)
module Outq = struct
  type t = {
    mutable chunks : (Bytes.t * int * int) array;
    mutable len : int;
    mutable head : int;
    mutable skip : int;
  }

  let dummy = (Bytes.empty, 0, 0)

  let create () = { chunks = Array.make 16 dummy; len = 0; head = 0; skip = 0 }

  let is_empty q = q.head >= q.len

  let unsent q = q.len - q.head

  let push q chunk =
    if q.len = Array.length q.chunks then begin
      let bigger = Array.make (2 * q.len) dummy in
      Array.blit q.chunks 0 bigger 0 q.len;
      q.chunks <- bigger
    end;
    q.chunks.(q.len) <- chunk;
    q.len <- q.len + 1

  let advance q n =
    let n = ref n in
    while !n > 0 do
      let _, _, len = q.chunks.(q.head) in
      let left = len - q.skip in
      if !n >= left then begin
        n := !n - left;
        q.head <- q.head + 1;
        q.skip <- 0
      end
      else begin
        q.skip <- q.skip + !n;
        n := 0
      end
    done

  (* recycle every chunk buffer (flushed or dropped) and empty the queue *)
  let reset q pool =
    for i = 0 to q.len - 1 do
      let b, _, _ = q.chunks.(i) in
      Wire.Pool.release pool b;
      q.chunks.(i) <- dummy
    done;
    q.len <- 0;
    q.head <- 0;
    q.skip <- 0
end

type conn = {
  fd : Unix.file_descr;
  dec : Wire.decoder;
  mutable closed : bool;
  cq : Outq.t;  (* client replies awaiting flush on this connection *)
  mutable cq_dirty : bool;
  mutable peer : int;
      (* the node whose Hello opened this connection; -1 until one arrives
         (a client, or a peer whose Hello is still in flight) *)
  reply : reply;  (* client replies on this connection, built at accept *)
  control_reply : control_reply;  (* control replies, likewise *)
}

(* The lowest-numbered node runs the termination detector. *)
let detector = 0

type t = {
  cfg : config;
  legacy : bool;
      (* REPRO_LIVE_LEGACY: the pre-hotpath baseline arm — Marshal bodies,
         one write(2) per frame, per-iteration select rebuild.  Kept
         selectable so bench --load can record both arms. *)
  listen_fd : Unix.file_descr;
  epoch : float;
  out_fds : Unix.file_descr option array;
  outqs : Outq.t array;  (* per-peer frames awaiting one writev *)
  mutable dirty_peers : int list;  (* peers with a nonempty outq *)
  mutable dirty_conns : conn list;
  pool : Wire.Pool.t;
  mutable conns : conn list;
  mutable read_fds : Unix.file_descr list;
      (* persistent poll set: listen_fd + live conn fds, updated only on
         accept/close (the legacy arm rebuilds per iteration instead) *)
  timers : (unit -> unit) Timeq.t;  (* by due time; ties in schedule order *)
  mutable on_data_view : Wire.view -> unit;
  mutable on_client : (reply:reply -> Wire.view -> unit) option;
  mutable on_control : (reply:control_reply -> Wire.view -> unit) option;
  mutable client_reqs : int;
  mutable cur_epoch : int;  (* configuration epoch stamped into every frame *)
  mutable stale_epochs : int;  (* data-plane frames dropped for an old epoch *)
  hello_seen : bool array;
  done_seen : bool array;
  (* termination detection: data frames counted per link, self-link
     included.  A sender's count runs across its reconnections; each new
     outbound connection opens with a Hello carrying the count so far
     (the base), and the receiver restarts its count for that sender from
     the base of the newest connection, so frames lost with a broken
     connection or a crashed process drop out of both sides at once. *)
  link_sent : int array;
  link_recv : int array;
  out_gen : int array;  (* outbound connections dialed per peer *)
  in_link : (int * int) array;  (* newest (incarnation, generation) per peer *)
  in_conn : conn option array;  (* newest connection per peer: only its data frames count *)
  mutable open_clients : int;  (* open connections with no Hello *)
  mutable program_ops : int;
  mutable passive_pred : unit -> bool;
  mutable on_probe : unit -> unit;
  (* what this node last told the detector, and whether a change is owed *)
  mutable owe_notify : bool;
  mutable told_quiet : bool;
  mutable told_worked : bool;
  mutable halted : bool;
  (* detector state (node [detector] only, once it drains) *)
  mutable wave : int;
  mutable wave_due : int;
  mutable rewave_ms : int;
  mutable wave_reports : Termination.report option array;
  mutable wave_missing : int;  (* reports the open wave still lacks; 0: none open *)
  mutable prev_wave : Termination.report array option;
  known_quiet : bool array;
  known_worked : bool array;
  mutable sent : int;
  mutable delivered : int;
  mutable total_control_bytes : int;
  mutable total_payload_bytes : int;
  per_node_sent : int array;
  per_node_received : int array;
  mutable activity : int;  (* frames written or dispatched; timer fires excluded *)
  mutable factory_used : bool;
  mutable done_sent : bool;
  mutable reconnects : int;
  mutable dropped_frames : int;
  reconnect_pending : bool array;
  peer_inc : int array;  (* highest incarnation seen in a peer's Hello *)
  jrng : Rng.t;  (* backoff jitter; liveness only, never determinism *)
  rbuf : Bytes.t;
}

let now_ms t = int_of_float ((Unix.gettimeofday () -. t.epoch) *. 1000.)

let bind addr =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.setsockopt fd SO_REUSEADDR true;
  Unix.bind fd addr;
  Unix.listen fd 64;
  fd

let listen_addr fd = Unix.getsockname fd

let legacy_env () =
  match Sys.getenv_opt "REPRO_LIVE_LEGACY" with
  | Some ("" | "0") | None -> false
  | Some _ -> true

let create cfg ~listen_fd =
  if cfg.self < 0 || cfg.self >= cfg.n then invalid_arg "Live.create: bad self";
  if Array.length cfg.peers <> cfg.n then invalid_arg "Live.create: bad peers";
  (* a peer exiting first must surface as EPIPE, not kill the process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  Unix.set_nonblock listen_fd;
  let hello_seen = Array.make cfg.n false in
  let done_seen = Array.make cfg.n false in
  hello_seen.(cfg.self) <- true;
  done_seen.(cfg.self) <- true;
  {
    cfg;
    legacy = legacy_env ();
    listen_fd;
    epoch = Unix.gettimeofday ();
    out_fds = Array.make cfg.n None;
    outqs = Array.init cfg.n (fun _ -> Outq.create ());
    dirty_peers = [];
    dirty_conns = [];
    pool = Wire.Pool.create ();
    conns = [];
    read_fds = [ listen_fd ];
    timers = Timeq.create ();
    on_data_view = (fun _ -> ());
    on_client = None;
    on_control = None;
    client_reqs = 0;
    cur_epoch = 0;
    stale_epochs = 0;
    hello_seen;
    done_seen;
    link_sent = Array.make cfg.n 0;
    link_recv = Array.make cfg.n 0;
    out_gen = Array.make cfg.n 0;
    in_link = Array.make cfg.n (-1, -1);
    in_conn = Array.make cfg.n None;
    open_clients = 0;
    program_ops = 0;
    passive_pred = (fun () -> true);
    on_probe = (fun () -> ());
    owe_notify = false;
    told_quiet = false;
    told_worked = false;
    halted = false;
    wave = 0;
    wave_due = 0;
    rewave_ms = 0;
    wave_reports = [||];
    wave_missing = 0;
    prev_wave = None;
    known_quiet = Array.make cfg.n true;
    known_worked = Array.make cfg.n true;
    sent = 0;
    delivered = 0;
    total_control_bytes = 0;
    total_payload_bytes = 0;
    per_node_sent = Array.make cfg.n 0;
    per_node_received = Array.make cfg.n 0;
    activity = 0;
    factory_used = false;
    done_sent = false;
    reconnects = 0;
    dropped_frames = 0;
    reconnect_pending = Array.make cfg.n false;
    peer_inc = Array.make cfg.n 0;
    jrng = Rng.create ((cfg.self + 1) * (Unix.getpid () + 1));
    rbuf = Bytes.create 65536;
  }

(* The arm marker rides the fingerprint, so a legacy node and a fast node
   can never silently exchange differently-encoded bodies: the Hello
   barrier rejects the mix. *)
let arm_fingerprint t =
  if t.legacy then t.cfg.fingerprint ^ "+legacy" else t.cfg.fingerprint

let add_timer t ~delay f = Timeq.push t.timers (now_ms t + max delay 0) f

(* due time of the earliest timer; [max_int] when none is pending *)
let next_due t =
  if Timeq.is_empty t.timers then max_int else Timeq.min_time t.timers

let write_all t fd buf =
  let len = Bytes.length buf in
  let rec go off =
    if off < len then
      match Unix.write fd buf off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (EINTR, _, _) -> go off
  in
  try
    go 0;
    true
  with
  | Unix.Unix_error ((EPIPE | ECONNRESET | EBADF), _, _)
    when t.halted || t.cfg.resilient ->
    false

(* The satellite's error taxonomy, shared by the first dial and every
   reconnection: a refused or reset connection means the peer is not up
   (yet / anymore) — retry with backoff; anything else (bad address,
   unreachable network, permission) will not heal by waiting — fail fast. *)
let transient_connect_error = function
  | Unix.ECONNREFUSED | Unix.ECONNRESET | Unix.EINTR | Unix.EAGAIN -> true
  | _ -> false

(* The Hello body carries the config fingerprint plus the sender's
   incarnation, so peers can tell a respawned node from a fresh one, and
   the connection's generation and count base for termination counting. *)
let hello_body t dst =
  Printf.sprintf "%s\ninc=%d gen=%d base=%d" (arm_fingerprint t)
    t.cfg.incarnation t.out_gen.(dst) t.link_sent.(dst)

let split_hello body =
  match String.rindex_opt body '\n' with
  | Some i -> (
      let rest = String.sub body (i + 1) (String.length body - i - 1) in
      match
        Scanf.sscanf rest "inc=%u gen=%u base=%u%!" (fun a b c -> (a, b, c))
      with
      | inc, gen, base -> (String.sub body 0 i, inc, gen, base)
      | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) ->
          (body, 0, 0, 0))
  | None -> (body, 0, 0, 0)

let dial addr =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  match Unix.connect fd addr with
  | () ->
      (try Unix.setsockopt fd TCP_NODELAY true with Unix.Unix_error _ -> ());
      Ok fd
  | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error e

let hello_frame t dst =
  {
    Wire.kind = Wire.Hello;
    src = t.cfg.self;
    dst;
    epoch = t.cur_epoch;
    control_bytes = 0;
    payload_bytes = 0;
    body = hello_body t dst;
  }

(* A fresh outbound connection to peer [i]: the next generation, opened
   by a Hello that carries the count base. *)
let opened t i fd =
  t.out_fds.(i) <- Some fd;
  t.out_gen.(i) <- t.out_gen.(i) + 1

let done_frame t dst =
  { Wire.kind = Wire.Done; src = t.cfg.self; dst; epoch = t.cur_epoch;
    control_bytes = 0; payload_bytes = 0; body = "" }

(* --- batched link flushes -------------------------------------------------- *)

(* Drop whatever is still queued for peer [i] (its link just broke or is
   gone): the session layer above retransmits. *)
let drop_outq t i =
  let q = t.outqs.(i) in
  if not (Outq.is_empty q) then begin
    t.dropped_frames <- t.dropped_frames + Outq.unsent q;
    (* a data frame that never fully left was never sent *)
    for k = q.head to q.len - 1 do
      let b, _, _ = q.chunks.(k) in
      if Wire.is_data b then t.link_sent.(i) <- t.link_sent.(i) - 1
    done
  end;
  Outq.reset q t.pool

let rec flush_peer t i =
  let q = t.outqs.(i) in
  match t.out_fds.(i) with
  | None -> drop_outq t i
  | Some fd -> (
      match
        while not (Outq.is_empty q) do
          match
            Vecio.writev fd q.chunks ~start:q.head ~skip:q.skip
              ~count:(Outq.unsent q)
          with
          | n -> Outq.advance q n
          | exception Unix.Unix_error (EINTR, _, _) -> ()
        done
      with
      | () -> Outq.reset q t.pool
      | exception Unix.Unix_error ((EPIPE | ECONNRESET | EBADF), _, _)
        when t.halted || t.cfg.resilient ->
          drop_outq t i;
          if t.cfg.resilient && not t.halted then mark_peer_lost t i)

and mark_peer_lost t i =
  drop_outq t i;
  (match t.out_fds.(i) with
  | Some fd ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      t.out_fds.(i) <- None
  | None -> ());
  schedule_reconnect t i

(* Bounded exponential backoff with jitter.  With [connect_timeout_ms = 0]
   attempts continue until the node's own run timeout cuts the loop, so a
   slow restart is survived and a permanent failure still terminates; a
   positive cap abandons the episode instead (the frames already count as
   dropped, the membership layer's failure detector does the demoting),
   and a later send to the peer opens a fresh episode. *)
and schedule_reconnect t i =
  if not t.reconnect_pending.(i) then begin
    t.reconnect_pending.(i) <- true;
    let started = now_ms t in
    let rec attempt ~delay () =
      match dial t.cfg.peers.(i) with
      | Ok fd ->
          t.reconnect_pending.(i) <- false;
          opened t i fd;
          t.reconnects <- t.reconnects + 1;
          ignore (write_all t fd (Wire.encode (hello_frame t i)))
      | Error e when transient_connect_error e ->
          if
            t.cfg.connect_timeout_ms > 0
            && now_ms t - started >= t.cfg.connect_timeout_ms
          then t.reconnect_pending.(i) <- false
          else
            let delay = min 500 (delay * 2) in
            add_timer t ~delay:(delay + Rng.int t.jrng 20) (attempt ~delay)
      | Error e ->
          t.reconnect_pending.(i) <- false;
          if not t.halted then
            failwith
              (Printf.sprintf "live: reconnect to node %d failed: %s" i
                 (Unix.error_message e))
    in
    add_timer t ~delay:10 (attempt ~delay:10)
  end

(* Flush a connection's pending client replies.  Accepted sockets are
   nonblocking: EAGAIN leaves the rest queued (and the conn dirty) for the
   next step; a vanished client's backlog is discarded — its problem. *)
let flush_conn t c =
  let q = c.cq in
  let rec go () =
    if not (Outq.is_empty q) then
      match
        Vecio.writev c.fd q.chunks ~start:q.head ~skip:q.skip
          ~count:(Outq.unsent q)
      with
      | n ->
          Outq.advance q n;
          go ()
      | exception Unix.Unix_error (EINTR, _, _) -> go ()
      | exception Unix.Unix_error (EAGAIN, _, _) -> ()
      | exception Unix.Unix_error (_, _, _) -> Outq.reset q t.pool
  in
  go ();
  if Outq.is_empty q then begin
    Outq.reset q t.pool;
    c.cq_dirty <- false
  end

let flush_conns t =
  match t.dirty_conns with
  | [] -> ()
  | conns ->
      t.dirty_conns <- [];
      List.iter
        (fun c ->
          if not c.closed then begin
            flush_conn t c;
            if c.cq_dirty then t.dirty_conns <- c :: t.dirty_conns
          end
          else Outq.reset c.cq t.pool)
        conns

let flush_peers t =
  match t.dirty_peers with
  | [] -> ()
  | peers ->
      t.dirty_peers <- [];
      List.iter (flush_peer t) peers

let flush_all t =
  flush_conns t;
  flush_peers t

(* Queue one encoded frame (a pooled buffer holding the complete wire
   image) for peer [dst]; it leaves in the next writev flush. *)
let enqueue_peer t dst buf total =
  match t.out_fds.(dst) with
  | None ->
      Wire.Pool.release t.pool buf;
      if t.cfg.resilient then begin
        t.dropped_frames <- t.dropped_frames + 1;
        schedule_reconnect t dst
      end
      else if not t.halted then
        failwith (Printf.sprintf "live: no connection to node %d" dst)
  | Some _ ->
      let q = t.outqs.(dst) in
      if Outq.is_empty q then t.dirty_peers <- dst :: t.dirty_peers;
      Outq.push q (buf, 0, total);
      if Wire.is_data buf then t.link_sent.(dst) <- t.link_sent.(dst) + 1;
      t.activity <- t.activity + 1

(* Legacy arm: one blocking write per frame, exactly the pre-hotpath
   behaviour. *)
let send_frame_legacy t (fr : Wire.frame) =
  match t.out_fds.(fr.dst) with
  | None ->
      if t.cfg.resilient then begin
        t.dropped_frames <- t.dropped_frames + 1;
        schedule_reconnect t fr.dst
      end
      else if not t.halted then
        failwith (Printf.sprintf "live: no connection to node %d" fr.dst)
  | Some fd ->
      if write_all t fd (Wire.encode fr) then begin
        t.activity <- t.activity + 1;
        t.link_sent.(fr.dst) <- t.link_sent.(fr.dst) + 1
      end
      else if t.cfg.resilient && not t.halted then begin
        t.dropped_frames <- t.dropped_frames + 1;
        mark_peer_lost t fr.dst
      end

and refresh_peer t i =
  (* A peer announced a fresh incarnation: our outbound socket (if any)
     points at its dead predecessor.  Replace it and replay the handshake —
     including Done if our program already finished, which the respawned
     peer's barrier needs. *)
  drop_outq t i;
  (match t.out_fds.(i) with
  | Some fd ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      t.out_fds.(i) <- None
  | None -> ());
  (match dial t.cfg.peers.(i) with
  | Ok fd ->
      opened t i fd;
      t.reconnects <- t.reconnects + 1;
      ignore (write_all t fd (Wire.encode (hello_frame t i)))
  | Error e when transient_connect_error e -> schedule_reconnect t i
  | Error e ->
      failwith
        (Printf.sprintf "live: reconnect to node %d failed: %s" i
           (Unix.error_message e)));
  if t.done_sent then
    match t.out_fds.(i) with
    | Some fd -> ignore (write_all t fd (Wire.encode (done_frame t i)))
    | None -> ()

(* Build one client-reply frame into a pooled buffer and queue it on the
   requesting connection (legacy arm: write it immediately, per-frame). *)
let conn_reply t c ~dst ~control_bytes ~payload_bytes ~body_len ~emit =
  let total = Wire.body_offset + body_len in
  let buf =
    if t.legacy then Bytes.create total else Wire.Pool.acquire t.pool total
  in
  Wire.set_header buf ~kind:Wire.Cresp ~src:t.cfg.self ~dst ~control_bytes
    ~payload_bytes ~body_len;
  let off = emit buf Wire.body_offset in
  if off <> total then invalid_arg "live: reply emit size mismatch";
  if t.legacy then begin
    match write_all t c.fd (if Bytes.length buf = total then buf else Bytes.sub buf 0 total) with
    | ok -> if ok then t.activity <- t.activity + 1
    | exception Unix.Unix_error _ -> ()
  end
  else begin
    if not c.cq_dirty then begin
      c.cq_dirty <- true;
      t.dirty_conns <- c :: t.dirty_conns
    end;
    Outq.push c.cq (buf, 0, total);
    t.activity <- t.activity + 1
  end

(* Queue a control-plane frame (membership, heartbeat) on an inbound
   connection.  Low-rate traffic: a fresh pooled buffer per frame is fine. *)
let conn_control t c ~kind ~dst ~body =
  let body_len = String.length body in
  let total = Wire.body_offset + body_len in
  let buf =
    if t.legacy then Bytes.create total else Wire.Pool.acquire t.pool total
  in
  Wire.set_header buf ~kind ~src:t.cfg.self ~dst ~epoch:t.cur_epoch
    ~control_bytes:0 ~payload_bytes:0 ~body_len;
  Bytes.blit_string body 0 buf Wire.body_offset body_len;
  if t.legacy then begin
    match
      write_all t c.fd (if Bytes.length buf = total then buf else Bytes.sub buf 0 total)
    with
    | ok -> if ok then t.activity <- t.activity + 1
    | exception Unix.Unix_error _ -> ()
  end
  else begin
    if not c.cq_dirty then begin
      c.cq_dirty <- true;
      t.dirty_conns <- c :: t.dirty_conns
    end;
    Outq.push c.cq (buf, 0, total);
    t.activity <- t.activity + 1
  end

(* Same, over the peer mesh (a member pushing Transfer frames to a peer). *)
let send_control t ~dst ~kind ~body =
  if dst < 0 || dst >= t.cfg.n then invalid_arg "live: bad control dst";
  let body_len = String.length body in
  let total = Wire.body_offset + body_len in
  let buf = Wire.Pool.acquire t.pool total in
  Wire.set_header buf ~kind ~src:t.cfg.self ~dst ~epoch:t.cur_epoch
    ~control_bytes:0 ~payload_bytes:0 ~body_len;
  Bytes.blit_string body 0 buf Wire.body_offset body_len;
  enqueue_peer t dst buf total

(* --- termination detection ------------------------------------------------ *)

(* A node is quiet when its program has finished and no client can still
   make it act; passive when, besides, the layer above has nothing it
   could send on its own. *)
let quiet t = t.done_sent && t.open_clients = 0 && t.dirty_conns = []

let worked t = t.program_ops > 0 || t.client_reqs > 0

let sum = Array.fold_left ( + ) 0

(* the tag of an unsolicited report *)
let notice = { Termination.detector = 0; wave = 0 }

(* [probe]: a wave is asking, so the layer above first sends what it owes
   (the session layer its delayed acks) *)
let own_report t ~probe =
  let quiet = quiet t in
  if quiet && probe then t.on_probe ();
  {
    Termination.inc = t.cfg.incarnation;
    quiet;
    passive = quiet && t.passive_pred ();
    worked = worked t;
    sent = sum t.link_sent;
    recv = sum t.link_recv;
  }

let send_report t ~tag (r : Termination.report) =
  t.told_quiet <- r.Termination.quiet;
  t.told_worked <- r.Termination.worked;
  t.owe_notify <- not (r.Termination.quiet && r.Termination.worked);
  send_control t ~dst:detector ~kind:Wire.Report
    ~body:(Termination.encode_report tag r)

(* A node that answered a wave while busy (or before doing any work)
   tells the detector once it goes quiet, or once its first client
   session ends: the detector sends nothing until then. *)
let notify_if_owed t =
  if t.owe_notify && quiet t then
    let w = worked t in
    if (not t.told_quiet) || (w && not t.told_worked) then
      send_report t ~tag:notice (own_report t ~probe:false)

(* A wave that a lost report (a crashed peer, a broken link) keeps open
   is abandoned and replaced after this long. *)
let wave_retry_ms = 200

(* While every node is quiet but some are not yet passive (a segment
   awaits its ack), the detector re-probes — each probe releases the
   peers' delayed acks — after 1 ms, doubling up to this cap for as long
   as the waves come back unchanged (a retransmission timer, a
   partition): nodes only waiting on the network cost a few frames a
   second. *)
let rewave_max_ms = 64

let halt_cluster t tag =
  t.halted <- true;
  let body = Termination.encode_halt tag in
  for i = 0 to t.cfg.n - 1 do
    if i <> t.cfg.self then send_control t ~dst:i ~kind:Wire.Halt ~body
  done

let complete_wave t =
  let cur = Array.map Option.get t.wave_reports in
  match t.prev_wave with
  | Some prev when Termination.decide ~prev ~cur ->
      halt_cluster t { Termination.detector = t.cfg.incarnation; wave = t.wave }
  | prev ->
      t.prev_wave <- Some cur;
      let settled =
        Array.for_all (fun r -> r.Termination.passive) cur
        && Termination.balanced cur
      in
      (* a settled wave needs only its confirmation: send it at once *)
      t.rewave_ms <-
        (if settled then 0
         else if prev = Some cur then
           min rewave_max_ms (max 1 (2 * t.rewave_ms))
         else 1);
      t.wave_due <- now_ms t + t.rewave_ms

let launch_wave t =
  t.wave <- t.wave + 1;
  t.wave_due <- now_ms t + wave_retry_ms;
  let tag = { Termination.detector = t.cfg.incarnation; wave = t.wave } in
  t.wave_reports <- Array.make t.cfg.n None;
  t.wave_reports.(t.cfg.self) <- Some (own_report t ~probe:true);
  t.wave_missing <- t.cfg.n - 1;
  let body = Termination.encode_probe tag in
  for i = 0 to t.cfg.n - 1 do
    if i <> t.cfg.self then send_control t ~dst:i ~kind:Wire.Probe ~body
  done;
  if t.wave_missing = 0 then complete_wave t

(* Launch a wave only when every node was last seen quiet and one of
   them has worked: while any node is busy, the detector sends nothing. *)
let detector_tick t =
  let now = now_ms t in
  if now >= t.wave_due then
    if t.wave_missing > 0 then launch_wave t
    else if quiet t then begin
      let all_quiet = ref true and any_worked = ref (worked t) in
      for i = 0 to t.cfg.n - 1 do
        if i <> t.cfg.self then begin
          if not t.known_quiet.(i) then all_quiet := false;
          if t.known_worked.(i) then any_worked := true
        end
      done;
      if !all_quiet && !any_worked then launch_wave t
    end

let on_report t ~src body =
  match Termination.decode_report body with
  | Error e -> failwith ("live: corrupt termination report: " ^ e)
  | Ok (tag, r) ->
      t.known_quiet.(src) <- r.Termination.quiet;
      t.known_worked.(src) <- r.Termination.worked;
      if
        t.wave_missing > 0
        && tag.Termination.detector = t.cfg.incarnation
        && tag.Termination.wave = t.wave
        && t.wave_reports.(src) = None
      then begin
        t.wave_reports.(src) <- Some r;
        t.wave_missing <- t.wave_missing - 1;
        if t.wave_missing = 0 then complete_wave t
      end

let on_termination_frame t (v : Wire.view) =
  let src = v.Wire.v_src in
  match v.Wire.v_kind with
  | Wire.Probe -> (
      match Termination.decode_probe (Wire.view_body v) with
      | Error e -> failwith ("live: corrupt termination probe: " ^ e)
      | Ok tag -> send_report t ~tag (own_report t ~probe:true))
  | Wire.Report -> if t.cfg.self = detector then on_report t ~src (Wire.view_body v)
  | Wire.Halt -> (
      match Termination.decode_halt (Wire.view_body v) with
      | Error e -> failwith ("live: corrupt halt: " ^ e)
      | Ok _ -> t.halted <- true)
  | _ -> assert false

(* [c] is the connection the frame arrived on *)
let dispatch t c (v : Wire.view) =
  match v.Wire.v_kind with
  | Wire.Join | Wire.Leave | Wire.Transfer | Wire.Epoch | Wire.Ping
  | Wire.Pong -> (
      (* membership / heartbeat control plane: src may be the supervisor's
         sentinel id (outside the node range), and the reply goes back on
         the connection the frame arrived on.  A Transfer stamped with an
         epoch older than ours is a straggler from a superseded
         configuration: reject it here, at the seam, and count it.  The
         other control kinds must cross epochs — they are how a node
         {e learns} of a newer epoch (or how the supervisor spots a stale
         one), so they pass through and the handler decides. *)
      t.activity <- t.activity + 1;
      if v.Wire.v_kind = Wire.Transfer && v.Wire.v_epoch < t.cur_epoch then
        t.stale_epochs <- t.stale_epochs + 1
      else
        match t.on_control with
        | Some handler -> handler ~reply:c.control_reply v
        | None -> () (* static cluster: stray control frames are inert *))
  | Wire.Creq -> (
      (* client traffic: src is a client id, deliberately outside the node
         range, and the reply goes back on the connection the request came
         in on — never through the peer mesh *)
      t.activity <- t.activity + 1;
      t.client_reqs <- t.client_reqs + 1;
      match t.on_client with
      | Some handler -> handler ~reply:c.reply v
      | None -> () (* no front door installed: drop, the client times out *))
  | Wire.Cresp -> () (* nodes never consume responses; tolerate strays *)
  | Wire.Hello | Wire.Done | Wire.Data | Wire.Probe | Wire.Report | Wire.Halt
    ->
      if v.Wire.v_src < 0 || v.Wire.v_src >= t.cfg.n then
        failwith (Printf.sprintf "live: frame from unknown node %d" v.Wire.v_src);
      t.activity <- t.activity + 1;
      (match v.Wire.v_kind with
      | Wire.Creq | Wire.Cresp -> assert false
      | Wire.Hello ->
          let src = v.Wire.v_src in
          let fp, inc, gen, base = split_hello (Wire.view_body v) in
          if not (String.equal fp (arm_fingerprint t)) then
            failwith
              (Printf.sprintf "live: fingerprint mismatch with node %d (%S vs %S)"
                 src fp (arm_fingerprint t));
          if c.peer < 0 then begin
            c.peer <- src;
            t.open_clients <- t.open_clients - 1
          end;
          (* the newest connection from [src] takes over its count *)
          if compare (inc, gen) t.in_link.(src) > 0 then begin
            (* a respawned node has answered no probe yet: whatever its
               predecessor reported no longer holds *)
            if inc <> fst t.in_link.(src) then begin
              t.known_quiet.(src) <- true;
              t.known_worked.(src) <- true
            end;
            t.in_conn.(src) <- Some c;
            t.in_link.(src) <- (inc, gen);
            t.link_recv.(src) <- base
          end;
          t.hello_seen.(v.Wire.v_src) <- true;
          if t.cfg.resilient && inc > 0 && inc > t.peer_inc.(v.Wire.v_src) then begin
            t.peer_inc.(v.Wire.v_src) <- inc;
            refresh_peer t v.Wire.v_src
          end
      | Wire.Done -> t.done_seen.(v.Wire.v_src) <- true
      | Wire.Probe | Wire.Report | Wire.Halt -> on_termination_frame t v
      | Wire.Data ->
          (match t.in_conn.(v.Wire.v_src) with
          | Some cur when c == cur ->
              t.link_recv.(v.Wire.v_src) <- t.link_recv.(v.Wire.v_src) + 1
          | _ -> ());
          (* epoch fence: a data frame from a configuration older than
             ours (a peer that has not heard of the reconfiguration, or a
             crashed node recovering at its pre-crash epoch) is dropped
             and counted, never delivered *)
          if v.Wire.v_epoch < t.cur_epoch then
            t.stale_epochs <- t.stale_epochs + 1
          else t.on_data_view v
      | Wire.Join | Wire.Leave | Wire.Transfer | Wire.Epoch | Wire.Ping
      | Wire.Pong ->
          assert false)

let fire_due t =
  let rec loop fired =
    let due = next_due t in
    if due <> max_int && due <= now_ms t then begin
      (Timeq.pop_min t.timers) ();
      loop true
    end
    else fired
  in
  loop false

let rebuild_read_fds t =
  t.conns <- List.filter (fun c -> not c.closed) t.conns;
  t.read_fds <- t.listen_fd :: List.map (fun c -> c.fd) t.conns

let accept_ready t =
  let rec loop acted =
    match Unix.accept t.listen_fd with
    | fd, _ ->
        Unix.set_nonblock fd;
        (try Unix.setsockopt fd TCP_NODELAY true with Unix.Unix_error _ -> ());
        let dec = Wire.decoder () and cq = Outq.create () in
        let rec c =
          { fd; dec; closed = false; cq; cq_dirty = false; peer = -1;
            reply =
              (fun ~dst ~control_bytes ~payload_bytes ~body_len ~emit ->
                conn_reply t c ~dst ~control_bytes ~payload_bytes ~body_len
                  ~emit);
            control_reply =
              (fun ~kind ~dst ~body -> conn_control t c ~kind ~dst ~body) }
        in
        t.open_clients <- t.open_clients + 1;
        t.conns <- c :: t.conns;
        t.read_fds <- fd :: t.read_fds;
        loop true
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> acted
  in
  loop false

let service_conn t c =
  let nread =
    try Unix.read c.fd t.rbuf 0 (Bytes.length t.rbuf) with
    | Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> -1
    | Unix.Unix_error ((ECONNRESET | EPIPE), _, _) -> 0
  in
  if nread < 0 then false
  else if nread = 0 then begin
    c.closed <- true;
    if c.peer < 0 then t.open_clients <- t.open_clients - 1;
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    Outq.reset c.cq t.pool;
    rebuild_read_fds t;
    (* a resilient node treats a truncated stream like a lost frame: the
       peer crashed mid-write and the session layer will resend *)
    if Wire.pending c.dec > 0 && not t.halted && not t.cfg.resilient then
      failwith "live: peer closed mid-frame";
    true
  end
  else begin
    Wire.feed c.dec t.rbuf nread;
    (* each view is parsed before the next [next_view]/[feed], so bodies
       are consumed straight out of the decoder's buffer *)
    let rec pump () =
      match Wire.next_view c.dec with
      | Ok (Some v) ->
          dispatch t c v;
          pump ()
      | Ok None -> ()
      | Error msg -> failwith ("live: corrupt stream: " ^ msg)
    in
    pump ();
    true
  end

let step t ~block =
  (* anything queued outside the loop (program sends between steps) goes
     out before we wait on the poll set *)
  flush_all t;
  let timeout =
    if not block then 0.
    else
      Float.min 0.001
        (Float.max 0. (float_of_int (next_due t - now_ms t) /. 1000.))
  in
  let read_fds =
    if t.legacy then begin
      (* baseline arm: rebuild the fd list every iteration *)
      t.conns <- List.filter (fun c -> not c.closed) t.conns;
      t.listen_fd :: List.map (fun c -> c.fd) t.conns
    end
    else t.read_fds
  in
  let ready, _, _ =
    try Unix.select read_fds [] [] timeout
    with Unix.Unix_error (EINTR, _, _) -> ([], [], [])
  in
  let acted = ref false in
  if List.memq t.listen_fd ready then if accept_ready t then acted := true;
  List.iter
    (fun c ->
      if (not c.closed) && List.memq c.fd ready then
        if service_conn t c then acted := true)
    t.conns;
  (* replies first: a client's answer waits on nothing the protocol
     waits on — not the session flush timer, not the peer writevs *)
  flush_conns t;
  if fire_due t then acted := true;
  if t.owe_notify then notify_if_owed t;
  (* one writev per dirty link covers everything this step produced
     (and any reply a timer queued) *)
  flush_all t;
  !acted

(* First dial, at startup: daemons come up in any order, so refused/reset
   connections are retried on a bounded exponential backoff with jitter
   (starting at 10 ms, capped at 500 ms); any other error fails fast. *)
let connect_peer t ~deadline i =
  let rec attempt ~delay =
    match dial t.cfg.peers.(i) with
    | Ok fd -> fd
    | Error e when transient_connect_error e ->
        if now_ms t > deadline then
          failwith (Printf.sprintf "live: cannot connect to node %d" i);
        Unix.sleepf (float_of_int (delay + Rng.int t.jrng 10) /. 1000.);
        attempt ~delay:(min 500 (delay * 2))
    | Error e ->
        failwith
          (Printf.sprintf "live: cannot connect to node %d: %s" i
             (Unix.error_message e))
  in
  let fd = attempt ~delay:10 in
  opened t i fd;
  ignore (write_all t fd (Wire.encode (hello_frame t i)))

let all_hello t = Array.for_all Fun.id t.hello_seen

let all_done t = Array.for_all Fun.id t.done_seen

let wait_peers t ~timeout_ms =
  let deadline = now_ms t + timeout_ms in
  for i = 0 to t.cfg.n - 1 do
    if i <> t.cfg.self then connect_peer t ~deadline i
  done;
  while not (all_hello t) do
    if now_ms t > deadline then failwith "live: timed out waiting for hellos";
    ignore (step t ~block:true)
  done

let finish_program ?(ops = 0) t =
  t.program_ops <- ops;
  flush_all t;
  t.done_sent <- true;
  for i = 0 to t.cfg.n - 1 do
    if i <> t.cfg.self then
      match t.out_fds.(i) with
      | Some fd -> ignore (write_all t fd (Wire.encode (done_frame t i)))
      | None -> ()
  done

let drain t ~quiet_ms:(_ : int) ~max_ms =
  let started = now_ms t in
  while not t.halted do
    if now_ms t - started >= max_ms then
      failwith
        (Printf.sprintf "wedged: cluster not terminated after %d ms" max_ms);
    if t.cfg.self = detector then detector_tick t;
    ignore (step t ~block:true)
  done;
  flush_all t

let set_passive t ~on_probe pred =
  t.passive_pred <- pred;
  t.on_probe <- on_probe

let activity t = t.activity

let close t =
  flush_all t;
  let shut fd = try Unix.close fd with Unix.Unix_error _ -> () in
  Array.iter (Option.iter shut) t.out_fds;
  List.iter (fun c -> if not c.closed then shut c.fd) t.conns;
  t.conns <- [];
  t.read_fds <- [];
  shut t.listen_fd

let stats t : Net.stats =
  {
    sent = t.sent;
    delivered = t.delivered;
    dropped = t.dropped_frames;
    duplicated = 0;
    total_control_bytes = t.total_control_bytes;
    total_payload_bytes = t.total_payload_bytes;
    retransmits = 0;
    dups_suppressed = 0;
    reconnects = t.reconnects;
    overhead_bytes = 0;
    per_node_sent = Array.copy t.per_node_sent;
    per_node_received = Array.copy t.per_node_received;
  }

let set_client_handler t h = t.on_client <- Some h

let client_reqs t = t.client_reqs

let set_control_handler t h = t.on_control <- Some h

let set_epoch t e =
  if e < 0 || e > 0xFFFF then invalid_arg "Live.set_epoch";
  if e > t.cur_epoch then t.cur_epoch <- e

let current_epoch t = t.cur_epoch

let stale_epochs t = t.stale_epochs

(* Data bodies on the fast path: 4-byte send timestamp, then the
   codec-encoded message, parsed in place on receive.  Without a codec
   (tests, arbitrary message types) the body is the marshalled pair, as
   on the legacy arm. *)
let send_time_bytes = 4

let oracle_env () =
  match Sys.getenv_opt "REPRO_CODEC_ORACLE" with
  | Some ("" | "0") | None -> false
  | Some _ -> true

let factory t =
  {
    Transport.create =
      (fun (type msg) ?codec n : msg Transport.t ->
        if t.factory_used then invalid_arg "Live.factory: already used";
        if n <> t.cfg.n then
          invalid_arg
            (Printf.sprintf "Live.factory: protocol wants %d nodes, cluster has %d"
               n t.cfg.n);
        t.factory_used <- true;
        let self = t.cfg.self in
        let handler : (msg Net.envelope -> unit) ref = ref (fun _ -> ()) in
        let tracing = ref false in
        let trace_buf : msg Net.event Ringbuf.t = Ringbuf.create () in
        let oracle = oracle_env () in
        let codec = if t.legacy then None else codec in
        let deliver (env : msg Net.envelope) =
          t.delivered <- t.delivered + 1;
          t.per_node_received.(self) <- t.per_node_received.(self) + 1;
          if !tracing then Ringbuf.push_back trace_buf (Net.Delivered env);
          !handler env
        in
        t.on_data_view <-
          (fun v ->
            let send_time, msg =
              match codec with
              | Some c -> (
                  let limit = v.Wire.v_off + v.Wire.v_len in
                  match
                    let st, pos = Codec.get_i32 v.Wire.v_buf v.Wire.v_off limit in
                    let m, pos = c.Codec.parse v.Wire.v_buf pos limit in
                    if pos <> limit then raise (Codec.Bad "trailing bytes");
                    (st, m)
                  with
                  | r -> r
                  | exception Codec.Bad e ->
                      failwith ("live: corrupt data body: " ^ e))
              | None ->
                  let (st, (m : msg)) = Marshal.from_string (Wire.view_body v) 0 in
                  (st, m)
            in
            deliver
              {
                src = v.Wire.v_src;
                dst = v.Wire.v_dst;
                send_time;
                deliver_time = now_ms t;
                control_bytes = v.Wire.v_control_bytes;
                payload_bytes = v.Wire.v_payload_bytes;
                msg;
              });
        {
          Transport.n_nodes = t.cfg.n;
          scope = Transport.Node self;
          send =
            (fun ~src ~dst ~control_bytes ~payload_bytes msg ->
              if src <> self then
                invalid_arg
                  (Printf.sprintf "live: node %d cannot send as node %d" self
                     src);
              if dst < 0 || dst >= t.cfg.n then invalid_arg "live: bad dst";
              let now = now_ms t in
              t.sent <- t.sent + 1;
              t.total_control_bytes <- t.total_control_bytes + control_bytes;
              t.total_payload_bytes <- t.total_payload_bytes + payload_bytes;
              t.per_node_sent.(self) <- t.per_node_sent.(self) + 1;
              if !tracing then
                Ringbuf.push_back trace_buf
                  (Net.Sent
                     {
                       src;
                       dst;
                       send_time = now;
                       deliver_time = now;
                       control_bytes;
                       payload_bytes;
                       msg;
                     });
              match codec with
              | Some c ->
                  if dst = self then begin
                    (* self-sends take the timer queue, like the simulator:
                       no synchronous shortcut past messages in flight —
                       and with a codec, no serialization either *)
                    t.activity <- t.activity + 1;
                    t.link_sent.(self) <- t.link_sent.(self) + 1;
                    add_timer t ~delay:0 (fun () ->
                        t.activity <- t.activity + 1;
                        t.link_recv.(self) <- t.link_recv.(self) + 1;
                        deliver
                          {
                            src;
                            dst;
                            send_time = now;
                            deliver_time = now_ms t;
                            control_bytes;
                            payload_bytes;
                            msg;
                          })
                  end
                  else begin
                    let body_len = send_time_bytes + c.Codec.size msg in
                    let total = Wire.body_offset + body_len in
                    let buf = Wire.Pool.acquire t.pool total in
                    Wire.set_header buf ~kind:Wire.Data ~src ~dst
                      ~epoch:t.cur_epoch ~control_bytes ~payload_bytes ~body_len;
                    let off = Codec.put_i32 buf Wire.body_offset now in
                    let off = c.Codec.emit buf off msg in
                    if off <> total then
                      invalid_arg "live: codec emit size mismatch";
                    if oracle then begin
                      (* REPRO_CODEC_ORACLE: decode what we just encoded and
                         compare against the original, structurally *)
                      let m', p =
                        c.Codec.parse buf (Wire.body_offset + send_time_bytes)
                          total
                      in
                      if
                        p <> total
                        || not
                             (String.equal
                                (Marshal.to_string msg [])
                                (Marshal.to_string m' []))
                      then failwith "live: codec oracle mismatch"
                    end;
                    enqueue_peer t dst buf total
                  end
              | None ->
                  let body = Marshal.to_string (now, msg) [] in
                  let fr =
                    { Wire.kind = Wire.Data; src; dst; epoch = t.cur_epoch;
                      control_bytes; payload_bytes; body }
                  in
                  if dst = self then begin
                    t.activity <- t.activity + 1;
                    t.link_sent.(self) <- t.link_sent.(self) + 1;
                    add_timer t ~delay:0 (fun () ->
                        t.activity <- t.activity + 1;
                        t.link_recv.(self) <- t.link_recv.(self) + 1;
                        let (st, (m : msg)) = Marshal.from_string fr.body 0 in
                        deliver
                          {
                            src;
                            dst;
                            send_time = st;
                            deliver_time = now_ms t;
                            control_bytes;
                            payload_bytes;
                            msg = m;
                          })
                  end
                  else if t.legacy then send_frame_legacy t fr
                  else begin
                    let body_len = String.length body in
                    let total = Wire.body_offset + body_len in
                    let buf = Wire.Pool.acquire t.pool total in
                    Wire.set_header buf ~kind:Wire.Data ~src ~dst
                      ~epoch:t.cur_epoch ~control_bytes ~payload_bytes ~body_len;
                    Bytes.blit_string body 0 buf Wire.body_offset body_len;
                    enqueue_peer t dst buf total
                  end);
          set_handler = (fun node f -> if node = self then handler := f);
          schedule = (fun ~delay f -> add_timer t ~delay f);
          step = (fun () -> step t ~block:true);
          quiesce =
            (fun () ->
              while step t ~block:false do
                ()
              done);
          now = (fun () -> now_ms t);
          stats = (fun () -> stats t);
          set_tracing = (fun flag -> tracing := flag);
          trace = (fun () -> Ringbuf.to_list trace_buf);
        })
  }
