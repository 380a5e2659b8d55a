module Live = Repro_transport.Live
module Chaos = Repro_transport.Chaos
module Session = Repro_transport.Session
module Fault = Repro_msgpass.Fault
module Net = Repro_msgpass.Net
module Fiber = Repro_msgpass.Fiber
module Memory = Repro_core.Memory
module Registry = Repro_core.Registry
module Runner = Repro_core.Runner
module Op = Repro_history.Op

module Wire = Repro_transport.Wire
module Rpc = Repro_transport.Rpc
module Wal = Repro_durable.Wal
module Fsio = Repro_durable.Fsio

type result = {
  node : int;
  incarnation : int;
  ops : Runner.entry list;
  finals : (int * Repro_history.Op.value) list;
  metrics : Memory.metrics;
  wire : Net.stats;
  session_stats : Session.stats option;
  client_ops : int;
  wall_ms : int;
  wal_stats : Wal.stats option;
  recovered_ops : int;
  recovered_digest : string option;
}

exception Crash of string

let crashf fmt = Printf.ksprintf (fun s -> raise (Crash s)) fmt

(* On-disk checkpoint: protocol state, session state, and the operation log
   up to the checkpoint.  The log is what makes recovery exact — a respawned
   node replays its program against the logged read values until it reaches
   the cursor, so its control flow arrives at the crash point with the same
   local state it had, and only then starts touching the restored memory. *)
type checkpoint = {
  ck_node : int;
  ck_incarnation : int;
  ck_ops : Runner.entry list; (* program order *)
  ck_finished : bool;
  ck_proto : string;
  ck_session : string option;
}

(* Checkpoint files are self-describing durable blobs: magic, format
   version, (node, incarnation) in the meta slots, payload length + CRC in
   front of the marshalled record.  Written with the full atomic-replace
   fsync discipline — tmp, fsync file, rename, fsync directory — so the
   restore point survives power loss, not just a process kill. *)
let ck_magic = "RNCK"

let ck_version = 1

let save_checkpoint path (ck : checkpoint) =
  Fsio.Blob.write ~path ~magic:ck_magic ~version:ck_version
    ~meta:(ck.ck_node, ck.ck_incarnation)
    (Marshal.to_string ck [])

let load_checkpoint path : checkpoint =
  match Fsio.Blob.read ~path ~magic:ck_magic ~version:ck_version with
  | Error e -> crashf "checkpoint %s rejected: %s" path e
  | Ok ((node, _), payload) ->
      let ck : checkpoint = Marshal.from_string payload 0 in
      if ck.ck_node <> node then
        crashf "checkpoint %s: header says node %d, payload says node %d" path
          node ck.ck_node;
      ck

(* The WAL payload of a node checkpoint (the rotation blob) is the same
   marshalled record. *)
let ck_of_payload path payload : checkpoint =
  try (Marshal.from_string payload 0 : checkpoint)
  with _ -> crashf "WAL checkpoint in %s: unreadable payload" path

let kind_text = function Op.Read -> "read" | Op.Write -> "write"

let run ~self ~listen_fd ~peers ~protocol ~workload ~seed
    ?(hello_timeout_ms = 10_000) ?(run_timeout_ms = 60_000)
    ?quiet_ms:(_ : int option)
    ?(connect_timeout_ms = 0) ?chaos ?(session = false) ?(coalesce = 1)
    ?checkpoint ?(checkpoint_every_ms = 100) ?(incarnation = 0)
    ?gc_space_overhead ?durable () =
  Option.iter
    (fun so ->
      if so < 1 then crashf "gc space overhead must be >= 1, got %d" so;
      Gc.set { (Gc.get ()) with Gc.space_overhead = so })
    gc_space_overhead;
  if protocol.Registry.blocking then
    crashf "protocol %s has blocking operations; only non-blocking protocols run live"
      protocol.Registry.name;
  let n = workload.Workload_spec.n in
  let chaos =
    match chaos with Some p when Fault.Plan.is_none p -> None | c -> c
  in
  let session = session || chaos <> None || coalesce > 1 in
  let plan_text =
    match chaos with None -> "" | Some p -> Fault.Plan.to_string p
  in
  let fingerprint =
    Workload_spec.fingerprint ~chaos:plan_text ~session workload
      ~protocol:protocol.Registry.name ~seed
  in
  let lt =
    Live.create
      { Live.self; n; peers; fingerprint; resilient = chaos <> None;
        incarnation; connect_timeout_ms }
      ~listen_fd
  in
  let fail fmt =
    Printf.ksprintf
      (fun s ->
        Live.close lt;
        raise (Crash s))
      fmt
  in
  try
    let factory = Live.factory lt in
    let factory, chaos_ctl =
      match chaos with
      | None -> (factory, None)
      | Some plan ->
          let f, c = Chaos.wrap ~incarnation ~plan factory in
          (f, Some c)
    in
    let factory, sess =
      if session then begin
        let cfg =
          {
            Session.default with
            seed = seed + 1 + self;
            stable_acks = checkpoint <> None || durable <> None;
            coalesce;
          }
        in
        let f, c = Session.wrap ~config:cfg factory in
        (f, Some c)
      end
      else (factory, None)
    in
    let memory =
      protocol.Registry.make ~transport:factory
        ~dist:workload.Workload_spec.dist ~seed ()
    in
    (* a segment awaiting its ack may still be retransmitted: the node is
       not passive until the session window is empty *)
    Option.iter
      (fun c -> Live.set_passive lt ~on_probe:c.Session.flush_acks c.Session.idle)
      sess;
    if
      (checkpoint <> None || durable <> None)
      && memory.Memory.snapshot = None
    then
      fail "protocol %s has no snapshot/restore support; cannot checkpoint"
        protocol.Registry.name;
    (* durability tier: every recorded op is appended to a write-ahead log
       before the program proceeds, checkpoints compact it via the rotation
       protocol, and a seeded dcrash schedule may kill this process at a
       named point inside that write path *)
    let wal =
      Option.map
        (fun (dir, policy) ->
          Wal.open_ ~dir ~policy ~fresh:(incarnation = 0) ())
        durable
    in
    (match chaos with
    | Some plan when incarnation = 0 && wal <> None ->
        Option.iter
          (fun (c : Fault.Plan.dcrash) ->
            Fsio.Crashpoint.arm ~point:c.Fault.Plan.point
              ~after:c.Fault.Plan.after_hits ~powercut:c.Fault.Plan.powercut
              (fun () -> raise (Chaos.Injected_crash self)))
          (Fault.Plan.dcrash_for plan self)
    | _ -> ());
    (* client front door: serve Read/Write/Batch RPCs against this
       replica's memory.  Requests a partial replica cannot serve (a read
       of a variable it does not hold) come back [Failed] rather than
       killing the node — the client picked the wrong door. *)
    let client_ops = ref 0 in
    Live.set_client_handler lt (fun ~reply v ->
        match
          Rpc.decode_request_at v.Wire.v_buf ~pos:v.Wire.v_off ~len:v.Wire.v_len
        with
        | Error _ -> () (* corrupt request body: drop, never unmarshal on *)
        | Ok (id, req) ->
            let serve op =
              match op with
              | Rpc.Read { var } -> (
                  match memory.Memory.read ~proc:self ~var with
                  | Op.Init -> Rpc.Got None
                  | Op.Val v -> Rpc.Got (Some v)
                  | exception Invalid_argument msg -> Rpc.Failed msg)
              | Rpc.Write { var; value } -> (
                  match memory.Memory.write ~proc:self ~var (Op.Val value) with
                  | () -> Rpc.Stored
                  | exception Invalid_argument msg -> Rpc.Failed msg)
            in
            let outcomes = Array.map serve (Rpc.ops req) in
            client_ops := !client_ops + Array.length outcomes;
            (* the response is emitted straight into a pooled frame queued
               on this connection — no intermediate string *)
            reply ~dst:v.Wire.v_src ~control_bytes:0
              ~payload_bytes:(Rpc.response_payload_bytes outcomes)
              ~body_len:(Rpc.response_body_len outcomes)
              ~emit:(fun buf off -> Rpc.emit_response buf off ~id outcomes));
    let ops = ref [] in
    let finished = ref false in
    let restore_from (ck : checkpoint) =
      (match memory.Memory.restore with
      | Some restore -> restore ck.ck_proto
      | None -> fail "protocol %s cannot restore" protocol.Registry.name);
      (match (sess, ck.ck_session) with
      | Some c, Some blob -> c.Session.restore blob
      | _ -> ());
      finished := ck.ck_finished
    in
    (* Recovery seeding.  [replayed] pins control flow: until the cursor
       passes it, reads return logged values.  [n_reapply] marks the WAL
       tail — ops past the last checkpoint snapshot, whose write effects are
       NOT in the restored state and must be re-applied to memory.
       [watermark] is the session delivery count the last tail op observed:
       live operation may not start before redeliveries catch back up to it,
       or the first live read could see state older than the logged tail did
       (the replay-to-live barrier). *)
    let replayed, n_reapply, watermark, ck_payload_raw =
      match (wal, checkpoint) with
      | Some (_, recovered), _ when incarnation > 0 ->
          let ck_ops =
            match recovered.Wal.r_checkpoint with
            | None -> []
            | Some payload ->
                let ck = ck_of_payload (fst (Option.get durable)) payload in
                if ck.ck_node <> self then
                  fail "WAL checkpoint belongs to node %d, not %d" ck.ck_node
                    self;
                restore_from ck;
                ck.ck_ops
          in
          let tail, watermark =
            List.fold_left
              (fun (acc, _) (seq, payload) ->
                match Oplog.decode payload with
                | Ok (e, w) -> (e :: acc, w)
                | Error e -> fail "WAL record %d rejected: %s" seq e)
              ([], 0) recovered.Wal.r_entries
          in
          let tail = List.rev tail in
          let all = ck_ops @ tail in
          ops := List.rev all;
          ( Array.of_list all,
            List.length ck_ops,
            watermark,
            recovered.Wal.r_checkpoint )
      | _, Some path when incarnation > 0 && Sys.file_exists path ->
          let ck = load_checkpoint path in
          if ck.ck_node <> self then
            fail "checkpoint %s belongs to node %d, not %d" path ck.ck_node self;
          restore_from ck;
          ops := List.rev ck.ck_ops;
          (Array.of_list ck.ck_ops, List.length ck.ck_ops, 0, None)
      | _ -> ([||], 0, 0, None)
    in
    let write_ck =
      match memory.Memory.snapshot with
      | Some snap when wal <> None || checkpoint <> None ->
          Some
            (fun () ->
              let ck =
                {
                  ck_node = self;
                  ck_incarnation = incarnation;
                  ck_ops = List.rev !ops;
                  ck_finished = !finished;
                  ck_proto = snap ();
                  ck_session = Option.map (fun c -> c.Session.snapshot ()) sess;
                }
              in
              (match (wal, checkpoint) with
              | Some (w, _), _ ->
                  (* checkpoint-as-compaction: the rotation protocol makes
                     the blob durable and supersedes the logged tail *)
                  Wal.checkpoint w (Marshal.to_string ck [])
              | None, Some path -> save_checkpoint path ck
              | None, None -> assert false);
              (* only now may acks cover what we received: anything newer
                 would be lost by a crash, so senders must keep it *)
              Option.iter (fun c -> c.Session.mark_stable ()) sess)
      | _ -> None
    in
    (* initial checkpoint before any traffic, so a crash early in the run
       still finds a restore point; then a periodic timer that keeps firing
       through the drain phase (the ack floor must keep catching up) *)
    Option.iter (fun f -> f ()) write_ck;
    (match write_ck with
    | Some f ->
        let rec tick () =
          memory.Memory.schedule ~delay:checkpoint_every_ms (fun () ->
              f ();
              tick ())
        in
        tick ()
    | None -> ());
    Live.wait_peers lt ~timeout_ms:hello_timeout_ms;
    let record e =
      ops := e :: !ops;
      (* write-ahead: the op record reaches the log before the program can
         take another step on the strength of it; fsync follows the group
         commit policy *)
      match wal with
      | Some (w, _) ->
          let wm =
            match sess with Some c -> c.Session.delivered () | None -> 0
          in
          ignore (Wal.append w (Oplog.encode e ~watermark:wm) : int)
      | None -> ()
    in
    let raw = Runner.instrument memory ~proc:self ~record in
    let n_replay = Array.length replayed in
    let cursor = ref 0 in
    let barrier_passed = ref (watermark = 0) in
    let live_barrier () =
      if not !barrier_passed then begin
        barrier_passed := true;
        match sess with
        | Some c -> Fiber.await (fun () -> c.Session.delivered () >= watermark)
        | None -> ()
      end
    in
    let api =
      if n_replay = 0 then raw
      else begin
        (* message-logging replay: reads return logged values, pinning the
           program's control flow to its pre-crash path.  Writes are
           suppressed inside the checkpointed prefix (their effects are in
           the restored snapshot) but re-applied in the WAL-tail region,
           whose effects postdate the snapshot; the session layer's
           sequence numbers make the regenerated messages exactly-once at
           the receivers.  The first live op waits at [live_barrier]. *)
        let logged kind var =
          let k, v, value, _, _ = replayed.(!cursor) in
          if k <> kind || v <> var then
            crashf "node %d: replay divergence at op %d: log has %s x%d, program did %s x%d"
              self !cursor (kind_text k) v (kind_text kind) var;
          incr cursor;
          value
        in
        {
          raw with
          Runner.read =
            (fun var ->
              if !cursor < n_replay then logged Op.Read var
              else begin
                live_barrier ();
                raw.Runner.read var
              end);
          write =
            (fun var value ->
              if !cursor < n_replay then begin
                let in_tail = !cursor >= n_reapply in
                let logged_v = logged Op.Write var in
                if in_tail then memory.Memory.write ~proc:self ~var logged_v
              end
              else begin
                live_barrier ();
                raw.Runner.write var value
              end);
        }
      end
    in
    if not !finished then
      Fiber.spawn
        ~schedule:(fun ~delay f -> memory.Memory.schedule ~delay f)
        ~on_done:(fun () -> finished := true)
        (fun () -> workload.Workload_spec.programs.(self) api);
    while not !finished do
      if Live.now_ms lt > run_timeout_ms then
        fail "node %d: program still running after %d ms" self run_timeout_ms;
      ignore (Live.step lt ~block:true)
    done;
    (* make the finished flag durable before announcing it *)
    Option.iter (fun f -> f ()) write_ck;
    Live.finish_program ~ops:(List.length !ops) lt;
    (* peers may still be running their programs or producing
       handler-to-handler traffic (acks, gossip hops, retransmissions);
       serve until the cluster has terminated *)
    Live.drain lt ~quiet_ms:0 ~max_ms:run_timeout_ms;
    let finals =
      List.map
        (fun var -> (var, memory.Memory.read ~proc:self ~var))
        (workload.Workload_spec.final_vars self)
    in
    let metrics = memory.Memory.metrics () in
    let wire =
      let l = Live.stats lt in
      let l =
        match chaos_ctl with
        | None -> l
        | Some c ->
            let cs = c.Chaos.stats () in
            {
              l with
              Net.dropped = l.Net.dropped + cs.Chaos.drops;
              duplicated = l.Net.duplicated + cs.Chaos.duplicates;
            }
      in
      match sess with
      | None -> l
      | Some c ->
          let ss = c.Session.stats () in
          {
            l with
            Net.retransmits = ss.Session.retransmits;
            dups_suppressed = ss.Session.dups_suppressed;
            overhead_bytes = ss.Session.overhead_bytes;
          }
    in
    let session_stats = Option.map (fun c -> c.Session.stats ()) sess in
    let wall_ms = Live.now_ms lt in
    let wal_stats =
      Option.map
        (fun (w, _) ->
          let s = Wal.stats w in
          Wal.close w;
          s)
        wal
    in
    let final_ops = List.rev !ops in
    (* the digest half of the recovery oracle: re-encode the WAL-tail slice
       of the history this node actually reports, so the supervisor can
       compare it bit-for-bit against what survived on disk *)
    let recovered_digest =
      if wal <> None && incarnation > 0 then
        Some
          (Oplog.digest ~ck:ck_payload_raw
             ~entries:
               (List.filteri
                  (fun i _ -> i >= n_reapply && i < n_replay)
                  final_ops))
      else None
    in
    Live.close lt;
    { node = self; incarnation; ops = final_ops; finals; metrics; wire;
      session_stats; client_ops = !client_ops; wall_ms; wal_stats;
      recovered_ops = n_replay; recovered_digest }
  with
  | Crash _ as e -> raise e
  | Chaos.Injected_crash _ as e ->
      (* die abruptly, sockets and all — process exit closes the fds and
         peers observe a real connection reset *)
      raise e
  | Failure msg ->
      Live.close lt;
      raise (Crash msg)
