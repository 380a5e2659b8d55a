module Live = Repro_transport.Live
module Chaos = Repro_transport.Chaos
module Session = Repro_transport.Session
module Transport = Repro_transport.Transport
module Fault = Repro_msgpass.Fault
module Latency = Repro_msgpass.Latency
module Net = Repro_msgpass.Net
module History = Repro_history.History
module Checker = Repro_history.Checker
module Memory = Repro_core.Memory
module Registry = Repro_core.Registry
module Runner = Repro_core.Runner
module Wal = Repro_durable.Wal

type outcome = {
  protocol : string;
  workload : string;
  n : int;
  seed : int;
  history : History.t;
  criterion : Checker.criterion;
  verdict : Checker.verdict;
  history_checked : bool;
  finals : (unit, string) result;
  node_results : Node.result array;
  messages_sent : int;
  control_bytes : int;
  payload_bytes : int;
  overhead_bytes : int;
  retransmits : int;
  dups_suppressed : int;
  dropped_frames : int;
  reconnects : int;
  restarts : int;
  chaos : string;
  session : bool;
  wall_ms : int;
  durable : bool;
  wal_parity : bool;
  wal_dir : string option;
}

(* what travels over the child's pipe *)
type report = Finished of Node.result | Crashed of string

let loopback = Unix.inet_addr_loopback

let child_main ~self ~listen_fds ~peers ~protocol ~spec ~seed ~timeouts ~chaos
    ~session ~checkpoint ~checkpoint_every_ms ~incarnation ~gc_space_overhead
    ~durable wfd =
  let hello_timeout_ms, run_timeout_ms, connect_timeout_ms = timeouts in
  Array.iteri
    (fun i fd ->
      if i <> self then try Unix.close fd with Unix.Unix_error _ -> ())
    listen_fds;
  let report =
    try
      Finished
        (Node.run ~self ~listen_fd:listen_fds.(self) ~peers ~protocol
           ~workload:spec ~seed ?hello_timeout_ms ?run_timeout_ms
           ?connect_timeout_ms ?chaos ~session ?checkpoint
           ?checkpoint_every_ms ~incarnation ?gc_space_overhead ?durable ())
    with
    | Chaos.Injected_crash _ ->
        (* die like a real crash: no report, no cleanup — the supervisor
           recognizes the status and respawns from the checkpoint *)
        Unix._exit 42
    | Node.Crash msg -> Crashed msg
    | e -> Crashed (Printexc.to_string e)
  in
  (try
     let oc = Unix.out_channel_of_descr wfd in
     Marshal.to_channel oc (report : report) [];
     flush oc
   with _ -> ());
  Unix._exit (match report with Finished _ -> 0 | Crashed _ -> 1)

(* Supervisor bookkeeping for one node slot across respawns. *)
type slot = {
  mutable pid : int;
  mutable rfd : Unix.file_descr;
  buf : Buffer.t;
  mutable eof : bool;
  mutable status : Unix.process_status option;
  mutable incarnation : int;
  mutable restarts : int;
  mutable respawn_at : float option;
  mutable final : report option;
  mutable expected_digest : (string, string) result option;
      (* digest of the WAL contents that survived the crash, computed from
         a frozen copy before the respawn; the recovered node must
         reproduce it bit-for-bit *)
}

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      try Unix.rmdir path with Unix.Unix_error _ -> ()
    end
    else try Sys.remove path with Sys_error _ -> ()

(* Freeze a crashed node's WAL directory: byte-for-byte copies of exactly
   the files that survived, taken before the respawned child may touch
   them, and the digest oracle the recovered node must match. *)
let freeze_wal ~src ~dst =
  rm_rf dst;
  (try Unix.mkdir dst 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Array.iter
    (fun f ->
      let sp = Filename.concat src f in
      if not (Sys.is_directory sp) then begin
        let data = In_channel.with_open_bin sp In_channel.input_all in
        Out_channel.with_open_bin (Filename.concat dst f) (fun oc ->
            Out_channel.output_string oc data)
      end)
    (Sys.readdir src);
  match Wal.load ~dir:dst with
  | Error e -> Error (Printf.sprintf "surviving WAL unrecoverable: %s" e)
  | Ok r ->
      let entries =
        List.filter_map
          (fun (_, payload) ->
            match Oplog.decode payload with
            | Ok (e, _) -> Some e
            | Error _ -> None)
          r.Wal.r_entries
      in
      if List.length entries <> List.length r.Wal.r_entries then
        Error "surviving WAL holds undecodable op records"
      else Ok (Oplog.digest ~ck:r.Wal.r_checkpoint ~entries)

let run ~n ~protocol ~workload ~seed ?hello_timeout_ms ?run_timeout_ms
    ?connect_timeout_ms ?deadline_ms ?chaos ?(session = false)
    ?checkpoint_every_ms ?gc_space_overhead ?durable ?wal_dir () =
  let chaos =
    match chaos with Some p when Fault.Plan.is_none p -> None | c -> c
  in
  let session = session || chaos <> None in
  let plan_error =
    match chaos with
    | None -> None
    | Some p -> (
        try
          Fault.Plan.validate ~n p;
          if p.Fault.Plan.dcrashes <> [] && durable = None then
            Some
              "chaos plan: a dcrash schedule needs the durability tier \
               (pass a fsync policy)"
          else None
        with Invalid_argument msg -> Some ("chaos plan: " ^ msg))
  in
  match plan_error with
  | Some msg -> Error msg
  | None -> (
      match Workload_spec.make ~name:workload ~n ~seed with
      | Error _ as e -> e
      | Ok spec -> (
          if protocol.Registry.blocking then
            Error
              (Printf.sprintf
                 "protocol %s has blocking operations; only non-blocking \
                  protocols run live"
                 protocol.Registry.name)
          else
            try
              let listen_fds =
                Array.init n (fun _ -> Live.bind (Unix.ADDR_INET (loopback, 0)))
              in
              let peers = Array.map Live.listen_addr listen_fds in
              let timeouts =
                (hello_timeout_ms, run_timeout_ms, connect_timeout_ms)
              in
              let has_crashes =
                match chaos with
                | Some p ->
                    p.Fault.Plan.crashes <> [] || p.Fault.Plan.dcrashes <> []
                | None -> false
              in
              let ck_dir =
                if has_crashes && durable = None then begin
                  let dir =
                    Filename.concat
                      (Filename.get_temp_dir_name ())
                      (Printf.sprintf "repro-cluster-ck-%d" (Unix.getpid ()))
                  in
                  (try Unix.mkdir dir 0o700
                   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
                  Some dir
                end
                else None
              in
              let ck_path self =
                Option.map
                  (fun d ->
                    Filename.concat d (Printf.sprintf "node-%d.ck" self))
                  ck_dir
              in
              let wal_root =
                match durable with
                | None -> None
                | Some _ ->
                    let dir =
                      match wal_dir with
                      | Some d -> d
                      | None ->
                          Filename.concat
                            (Filename.get_temp_dir_name ())
                            (Printf.sprintf "repro-cluster-wal-%d"
                               (Unix.getpid ()))
                    in
                    (try Unix.mkdir dir 0o700
                     with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
                    Some dir
              in
              let node_wal self =
                Option.map
                  (fun d ->
                    Filename.concat d (Printf.sprintf "node-%d.wal" self))
                  wal_root
              in
              let node_durable self =
                match (durable, node_wal self) with
                | Some policy, Some dir -> Some (dir, policy)
                | _ -> None
              in
              let spawn self incarnation =
                (* children inherit OCaml's output buffers: flush now or
                   crash reports get double-printed *)
                flush stdout;
                flush stderr;
                let rfd, wfd = Unix.pipe () in
                match Unix.fork () with
                | 0 ->
                    Unix.close rfd;
                    child_main ~self ~listen_fds ~peers ~protocol ~spec ~seed
                      ~timeouts ~chaos ~session ~checkpoint:(ck_path self)
                      ~checkpoint_every_ms ~incarnation ~gc_space_overhead
                      ~durable:(node_durable self) wfd
                | pid ->
                    Unix.close wfd;
                    (pid, rfd)
              in
              let slots =
                Array.init n (fun self ->
                    let pid, rfd = spawn self 0 in
                    {
                      pid;
                      rfd;
                      buf = Buffer.create 4096;
                      eof = false;
                      status = None;
                      incarnation = 0;
                      restarts = 0;
                      respawn_at = None;
                      final = None;
                      expected_digest = None;
                    })
              in
              (* Under chaos the parent keeps the listeners open: a peer
                 redialing a crashed node must land in the backlog instead
                 of getting ECONNREFUSED forever, and the respawned child
                 re-inherits the very same socket. *)
              let keep_listeners = chaos <> None in
              if not keep_listeners then
                Array.iter
                  (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
                  listen_fds;
              let restart_delay self =
                match chaos with
                | None -> None
                | Some p -> (
                    match Fault.Plan.crash_for p self with
                    | Some c -> c.Fault.Plan.restart_after
                    | None -> (
                        match Fault.Plan.dcrash_for p self with
                        | Some c -> c.Fault.Plan.drestart_after
                        | None -> None))
              in
              (* watchdog: a wedged run (a child that neither reports nor
                 exits — stuck barrier, dead-peer redial loop) must fail in
                 bounded time, distinguishably from an ordinary crash *)
              let deadline =
                Unix.gettimeofday ()
                +.
                match deadline_ms with
                | Some d -> float d /. 1000.
                | None ->
                    (float (Option.value run_timeout_ms ~default:60_000)
                     /. 1000.)
                    +. 30.
              in
              let wedged = ref false in
              let all_final () =
                Array.for_all (fun s -> s.final <> None) slots
              in
              let chunk = Bytes.create 65536 in
              while (not (all_final ())) && Unix.gettimeofday () < deadline do
                (* 1. respawns that have come due *)
                let now = Unix.gettimeofday () in
                Array.iteri
                  (fun self s ->
                    match s.respawn_at with
                    | Some t when now >= t ->
                        s.respawn_at <- None;
                        s.incarnation <- s.incarnation + 1;
                        s.restarts <- s.restarts + 1;
                        let pid, rfd = spawn self s.incarnation in
                        s.pid <- pid;
                        s.rfd <- rfd;
                        Buffer.clear s.buf;
                        s.eof <- false;
                        s.status <- None
                    | _ -> ())
                  slots;
                (* 2. drain report pipes without ever blocking on one child
                   (a >pipe-buffer report would deadlock a blocking read
                   ordering) *)
                let live_slots =
                  Array.to_list slots
                  |> List.filter (fun s ->
                         s.final = None && s.respawn_at = None && not s.eof)
                in
                let timeout =
                  let next =
                    Array.fold_left
                      (fun acc s ->
                        match s.respawn_at with
                        | Some t -> Float.min acc t
                        | None -> acc)
                      infinity slots
                  in
                  if next = infinity then 0.2
                  else Float.max 0.01 (Float.min 0.2 (next -. now))
                in
                let ready =
                  match live_slots with
                  | [] ->
                      Unix.sleepf timeout;
                      []
                  | _ -> (
                      let fds = List.map (fun s -> s.rfd) live_slots in
                      match Unix.select fds [] [] timeout with
                      | ready, _, _ -> ready
                      | exception Unix.Unix_error (Unix.EINTR, _, _) -> [])
                in
                List.iter
                  (fun fd ->
                    match
                      List.find_opt (fun s -> s.rfd = fd) live_slots
                    with
                    | None -> ()
                    | Some s -> (
                        match Unix.read fd chunk 0 (Bytes.length chunk) with
                        | 0 ->
                            s.eof <- true;
                            (try Unix.close fd with Unix.Unix_error _ -> ())
                        | k -> Buffer.add_subbytes s.buf chunk 0 k
                        | exception Unix.Unix_error _ ->
                            s.eof <- true;
                            (try Unix.close fd with Unix.Unix_error _ -> ())))
                  ready;
                (* 3. reap exits *)
                Array.iter
                  (fun s ->
                    if s.final = None && s.respawn_at = None && s.status = None
                    then
                      match Unix.waitpid [ Unix.WNOHANG ] s.pid with
                      | 0, _ -> ()
                      | _, st -> s.status <- Some st
                      | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
                          s.status <- Some (Unix.WEXITED 255))
                  slots;
                (* 4. finalize slots whose pipe closed and process exited *)
                Array.iteri
                  (fun self s ->
                    if
                      s.final = None && s.respawn_at = None && s.eof
                      && s.status <> None
                    then
                      match s.status with
                      | Some (Unix.WEXITED 42) -> (
                          match restart_delay self with
                          | Some d when s.incarnation = 0 ->
                              (* durable tier: freeze exactly what the crash
                                 left on disk, before the respawn can touch
                                 it, and remember the digest the recovered
                                 node must reproduce *)
                              (match node_wal self with
                              | Some src when Sys.file_exists src ->
                                  s.expected_digest <-
                                    Some
                                      (freeze_wal ~src ~dst:(src ^ ".crash"))
                              | _ -> ());
                              s.respawn_at <-
                                Some
                                  (Unix.gettimeofday () +. (float d /. 1000.))
                          | _ ->
                              s.final <-
                                Some
                                  (Crashed
                                     "injected crash (no restart scheduled)"))
                      | Some st ->
                          let report =
                            try
                              (Marshal.from_string (Buffer.contents s.buf) 0
                                : report)
                            with _ ->
                              Crashed
                                (Printf.sprintf "exited without reporting (%s)"
                                   (match st with
                                   | Unix.WEXITED c ->
                                       Printf.sprintf "exit %d" c
                                   | Unix.WSIGNALED sg ->
                                       Printf.sprintf "signal %d" sg
                                   | Unix.WSTOPPED sg ->
                                       Printf.sprintf "stopped %d" sg))
                          in
                          s.final <- Some report
                      | None -> ())
                  slots
              done;
              (* deadline expiry: put the remaining children down *)
              Array.iter
                (fun s ->
                  if s.final = None then begin
                    wedged := true;
                    (try Unix.kill s.pid Sys.sigkill
                     with Unix.Unix_error _ -> ());
                    (try ignore (Unix.waitpid [] s.pid)
                     with Unix.Unix_error _ -> ());
                    (try Unix.close s.rfd with Unix.Unix_error _ -> ());
                    s.final <- Some (Crashed "supervisor watchdog expired")
                  end)
                slots;
              if keep_listeners then
                Array.iter
                  (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
                  listen_fds;
              Option.iter
                (fun d ->
                  Array.iteri
                    (fun self _ ->
                      let p = Filename.concat d (Printf.sprintf "node-%d.ck" self) in
                      List.iter
                        (fun f -> try Sys.remove f with Sys_error _ -> ())
                        [ p; p ^ ".tmp" ])
                    slots;
                  try Unix.rmdir d with Unix.Unix_error _ -> ())
                ck_dir;
              (* a caller-named WAL root is kept for post-mortem inspection
                 (repro wal); the anonymous tmp root is not *)
              if wal_dir = None then Option.iter rm_rf wal_root;
              let reports =
                Array.map (fun s -> Option.get s.final) slots
              in
              let crashes =
                Array.to_list reports
                |> List.mapi (fun i r ->
                       match r with
                       | Crashed msg -> Some (Printf.sprintf "node %d: %s" i msg)
                       | Finished _ -> None)
                |> List.filter_map Fun.id
              in
              (* a node that gave up waiting for termination is wedged
                 too, not crashed *)
              let node_wedged =
                Array.exists
                  (function
                    | Crashed msg -> String.starts_with ~prefix:"wedged:" msg
                    | Finished _ -> false)
                  reports
              in
              if crashes <> [] then
                Error
                  ((if !wedged || node_wedged then "wedged: " else "")
                  ^ String.concat "\n" crashes)
              else
                let node_results =
                  Array.map
                    (function Finished r -> r | Crashed _ -> assert false)
                    reports
                in
                let history =
                  History.of_lists
                    (Array.to_list node_results
                    |> List.map (fun r ->
                           List.map
                             (fun (kind, var, value, _, _) ->
                               (kind, var, value))
                             r.Node.ops))
                in
                let finals =
                  spec.Workload_spec.check_finals
                    (Array.map (fun r -> r.Node.finals) node_results)
                in
                let sum f =
                  Array.fold_left
                    (fun acc r -> acc + f r.Node.metrics)
                    0 node_results
                in
                let wsum f =
                  Array.fold_left
                    (fun acc r -> acc + f r.Node.wire)
                    0 node_results
                in
                Ok
                  {
                    protocol = protocol.Registry.name;
                    workload = spec.Workload_spec.name;
                    n;
                    seed;
                    history;
                    criterion = protocol.Registry.guarantees;
                    verdict = Checker.check protocol.Registry.guarantees history;
                    history_checked = spec.Workload_spec.differentiated;
                    finals;
                    node_results;
                    messages_sent = sum (fun m -> m.Memory.messages_sent);
                    control_bytes = sum (fun m -> m.Memory.control_bytes);
                    payload_bytes = sum (fun m -> m.Memory.payload_bytes);
                    overhead_bytes = wsum (fun w -> w.Net.overhead_bytes);
                    retransmits = wsum (fun w -> w.Net.retransmits);
                    dups_suppressed = wsum (fun w -> w.Net.dups_suppressed);
                    dropped_frames = wsum (fun w -> w.Net.dropped);
                    reconnects = wsum (fun w -> w.Net.reconnects);
                    restarts =
                      Array.fold_left (fun acc s -> acc + s.restarts) 0 slots;
                    chaos =
                      (match chaos with
                      | None -> ""
                      | Some p -> Fault.Plan.to_string p);
                    session;
                    wall_ms =
                      Array.fold_left
                        (fun acc r -> Stdlib.max acc r.Node.wall_ms)
                        0 node_results;
                    durable = durable <> None;
                    wal_parity =
                      Array.for_all Fun.id
                        (Array.mapi
                           (fun i s ->
                             match s.expected_digest with
                             | None -> true
                             | Some (Error _) -> false
                             | Some (Ok d) ->
                                 node_results.(i).Node.recovered_digest
                                 = Some d)
                           slots);
                    wal_dir =
                      (match wal_dir with
                      | Some _ -> wal_root
                      | None -> None);
                  }
            with Unix.Unix_error (err, fn, _) ->
              Error
                (Printf.sprintf "harness: %s failed: %s" fn
                   (Unix.error_message err))))

type baseline = { history : History.t; metrics : Memory.metrics }

let sim_baseline ?chaos ?(session = false) ~n ~protocol ~workload ~seed () =
  match Workload_spec.make ~name:workload ~n ~seed with
  | Error _ as e -> e
  | Ok spec ->
      let chaos =
        match chaos with Some p when Fault.Plan.is_none p -> None | c -> c
      in
      let session = session || chaos <> None in
      let memory =
        if (not session) && chaos = None then
          protocol.Registry.make ~dist:spec.Workload_spec.dist ~seed ()
        else begin
          (* same stack order as a live node: backend → chaos → session →
             protocol, so the same plan reproduces deterministically *)
          let factory = Transport.sim ~latency:Latency.lan ~seed () in
          let factory =
            match chaos with
            | None -> factory
            | Some plan -> fst (Chaos.wrap ~plan factory)
          in
          let factory =
            if session then
              fst
                (Session.wrap
                   ~config:{ Session.default with seed = seed + 1 }
                   factory)
            else factory
          in
          protocol.Registry.make ~transport:factory
            ~dist:spec.Workload_spec.dist ~seed ()
        end
      in
      let history = Runner.run memory ~programs:spec.Workload_spec.programs in
      Ok { history; metrics = memory.Memory.metrics () }
