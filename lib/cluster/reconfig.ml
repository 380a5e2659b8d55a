module Live = Repro_transport.Live
module Wire = Repro_transport.Wire
module Chaos = Repro_transport.Chaos
module Fault = Repro_msgpass.Fault
module Ring = Repro_sharegraph.Ring
module History = Repro_history.History
module Checker = Repro_history.Checker
module Op = Repro_history.Op
module Wal = Repro_durable.Wal

type event = {
  ev_epoch : int;
  ev_kind : string;
  ev_node : int;
  ev_members : int list;
  ev_keys_moved : int;
  ev_rebalance_ms : int;
}

type outcome = {
  n : int;
  k : int;
  vnodes : int;
  seed : int;
  n_vars : int;
  committed_epoch : int;
  members : int list;
  events : event list;
  history : History.t;
  verdict : Checker.verdict;
  pram : Checker.verdict;
  stale_epochs : int;
  restarts : int;
  salvaged : int list;
  keys_moved_total : int;
  max_keys_moved : int;
  moved_gate : int;
  moved_ok : bool;
  unavail_ms : int;
  transfers : int;
  init_fallbacks : int;
  writes_total : int;
  reads_total : int;
  node_results : Member.result array;
  chaos : string;
  wall_ms : int;
}

type report = Finished of Member.result | Crashed of string

let loopback = Unix.inet_addr_loopback

(* --- child side ------------------------------------------------------------ *)

let child_main ~(cfg : Member.config) ~listen_fds wfd =
  Array.iteri
    (fun i fd ->
      if i <> cfg.Member.self then
        try Unix.close fd with Unix.Unix_error _ -> ())
    listen_fds;
  let report =
    try Finished (Member.run cfg) with
    | Chaos.Injected_crash _ -> Unix._exit 42
    | Member.Crash msg -> Crashed msg
    | e -> Crashed (Printexc.to_string e)
  in
  (try
     let oc = Unix.out_channel_of_descr wfd in
     Marshal.to_channel oc (report : report) [];
     flush oc
   with _ -> ());
  Unix._exit (match report with Finished _ -> 0 | Crashed _ -> 1)

(* --- supervisor bookkeeping ------------------------------------------------ *)

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
}

(* One control connection: a dialed socket speaking Wire frames with the
   supervisor sentinel as src.  The parent keeps every listener open, so
   a dial lands in the backlog even while the child is down and the
   respawned child simply accepts it. *)
type ctl = {
  node : int;
  mutable fd : Unix.file_descr option;
  mutable dec : Wire.decoder;
  mutable redial_at : float;
  (* latest pong *)
  mutable p_at : float;  (** 0. until the first pong *)
  mutable p_epoch : int;
  mutable p_proposed : int;
  mutable p_ready : bool;
  mutable p_writes : int;
  mutable p_stale : int;
  mutable catchup_at : float;
  mutable p_pings : int;
      (** pings sent since the last pong: the silence detector only fires
          after enough probes were actually delivered attempts, so a
          starved supervisor cannot blame a node it never probed *)
}

type pending = {
  pd_epoch : int;
  pd_members : int list;
  pd_down : int list;
  pd_kind : string;
  pd_node : int;
  pd_keys_moved : int;
  pd_proposed_at : float;
  mutable pd_rebroadcast_at : float;
      (** while the commit is outstanding, the whole proposal is re-sent
          to every proposed member on this cadence — a lost frame or a
          node that was mid-restart cannot stall the epoch forever *)
}

let write_all fd buf =
  let len = Bytes.length buf in
  let rec go off =
    if off < len then
      match Unix.write fd buf off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (EINTR, _, _) -> go off
  in
  go 0

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      try Unix.rmdir path with Unix.Unix_error _ -> ()
    end
    else try Sys.remove path with Sys_error _ -> ()

let ints_to_string is = String.concat "," (List.map string_of_int is)

(* A dead node's externalized operations survive in its WAL (the member
   logs before it sends): decode them so the history stays closed under
   reads even when the process never reported. *)
let salvage ~node ~dir : Member.result option =
  match Wal.load ~dir with
  | Error _ -> None
  | Ok r -> (
      try
        let ops = ref [] in
        let w = ref 0 and rd = ref 0 and epoch = ref 0 in
        List.iter
          (fun (_, payload) ->
            match (Marshal.from_string payload 0 : Member.wal_entry) with
            | Member.W_write (x, _, v) ->
                ops := Op.write ~var:x (Op.Val v) :: !ops;
                incr w
            | Member.W_read (x, vo) ->
                ops :=
                  Op.read ~var:x
                    (match vo with Some v -> Op.Val v | None -> Op.Init)
                  :: !ops;
                incr rd
            | Member.W_epoch (e, _, _, true) -> epoch := e
            | _ -> ())
          r.Wal.r_entries;
        Some
          {
            Member.node;
            incarnation = 0;
            ops = List.rev !ops;
            writes_done = !w;
            reads_done = !rd;
            committed_epoch = !epoch;
            stale_epochs = 0;
            transfers_in = 0;
            transfers_out = 0;
            retries = 0;
            init_fallbacks = 0;
            unavail_ms = 0;
            recovered_ops = 0;
            wall_ms = 0;
          }
      with _ -> None)

let run ~n ~k ~vnodes ~n_vars ~seed ?(writes = 40) ?(write_period_ms = 5)
    ?(hello_timeout_ms = 10_000) ?(run_timeout_ms = 60_000)
    ?(connect_timeout_ms = 0) ?deadline_ms ?(demote_after_ms = 2_500) ?chaos
    ?wal_dir () : (outcome, string) result =
  let t_start = Unix.gettimeofday () in
  let chaos =
    match chaos with Some p when Fault.Plan.is_none p -> None | c -> c
  in
  let plan_error =
    match chaos with
    | None -> None
    | Some p -> (
        try
          Fault.Plan.validate ~n p;
          None
        with Invalid_argument msg -> Some ("chaos plan: " ^ msg))
  in
  let joiners =
    match chaos with
    | None -> []
    | Some p -> List.map (fun r -> r.Fault.Plan.rnode) p.Fault.Plan.joins
  in
  let initial_members =
    List.filter (fun p -> not (List.mem p joiners)) (List.init n Fun.id)
  in
  match plan_error with
  | Some msg -> Error msg
  | None ->
      if n < 1 || n > 0x7FFF then Error "reconfig: n out of range"
      else if initial_members = [] then
        Error "reconfig: every node is a scheduled joiner"
      else if k < 1 then Error "reconfig: k must be >= 1"
      else begin
        try
          let listen_fds =
            Array.init n (fun _ -> Live.bind (Unix.ADDR_INET (loopback, 0)))
          in
          let peers = Array.map Live.listen_addr listen_fds in
          let wal_root =
            match wal_dir with
            | Some d ->
                (try Unix.mkdir d 0o700
                 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
                d
            | None ->
                let d =
                  Filename.concat
                    (Filename.get_temp_dir_name ())
                    (Printf.sprintf "repro-reconfig-%d" (Unix.getpid ()))
                in
                (try Unix.mkdir d 0o700
                 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
                d
          in
          let node_wal self =
            Filename.concat wal_root (Printf.sprintf "node-%d.wal" self)
          in
          let spawn self incarnation =
            flush stdout;
            flush stderr;
            let rfd, wfd = Unix.pipe () in
            match Unix.fork () with
            | 0 ->
                Unix.close rfd;
                child_main
                  ~cfg:
                    {
                      Member.self;
                      n;
                      listen_fd = listen_fds.(self);
                      peers;
                      seed;
                      k;
                      vnodes;
                      n_vars;
                      initial_members;
                      writes_target = writes;
                      write_period_ms;
                      hello_timeout_ms;
                      run_timeout_ms;
                      connect_timeout_ms;
                      chaos;
                      wal_dir = Some (node_wal self);
                      incarnation;
                    }
                  ~listen_fds wfd
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
                })
          in
          let ctls =
            Array.init n (fun node ->
                {
                  node;
                  fd = None;
                  dec = Wire.decoder ();
                  redial_at = 0.;
                  p_at = 0.;
                  p_epoch = 0;
                  p_proposed = 0;
                  p_ready = false;
                  p_writes = 0;
                  p_stale = 0;
                  catchup_at = 0.;
                  p_pings = 0;
                })
          in
          let kill_ctl c =
            (match c.fd with
            | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
            | None -> ());
            c.fd <- None;
            c.dec <- Wire.decoder ();
            c.redial_at <- Unix.gettimeofday () +. 0.2
          in
          let dial_ctl c =
            let fd = Unix.socket PF_INET SOCK_STREAM 0 in
            match Unix.connect fd peers.(c.node) with
            | () ->
                (try Unix.setsockopt fd TCP_NODELAY true
                 with Unix.Unix_error _ -> ());
                c.fd <- Some fd;
                c.dec <- Wire.decoder ()
            | exception Unix.Unix_error _ ->
                (try Unix.close fd with Unix.Unix_error _ -> ());
                c.redial_at <- Unix.gettimeofday () +. 0.2
          in
          let committed_epoch = ref 0 in
          let members = ref initial_members in
          let send_ctl c ~kind ~body =
            match c.fd with
            | None -> ()
            | Some fd -> (
                let buf =
                  Wire.encode
                    {
                      Wire.kind;
                      src = Member.supervisor_id;
                      dst = c.node;
                      epoch = !committed_epoch;
                      control_bytes = 0;
                      payload_bytes = 0;
                      body;
                    }
                in
                try write_all fd buf
                with Unix.Unix_error _ -> kill_ctl c)
          in
          let broadcast ~kind ~body =
            Array.iter (fun c -> send_ctl c ~kind ~body) ctls
          in
          let pending : pending option ref = ref None in
          let events = ref [] in
          let demoted = ref [] in
          let down () = !demoted in
          let ring_of ms = Ring.make ~seed ~vnodes ~members:ms in
          let propose ~kind ~node new_members =
            let new_members = List.sort compare new_members in
            let e = (match !pending with
              | Some p -> p.pd_epoch
              | None -> !committed_epoch) + 1
            in
            let moved =
              Ring.moved ~before:(ring_of !members)
                ~after:(ring_of new_members) ~k ~n_vars
            in
            let body =
              Printf.sprintf "%d|%s|%s" e
                (ints_to_string new_members)
                (ints_to_string (down ()))
            in
            broadcast
              ~kind:(if kind = "join" then Wire.Join else Wire.Leave)
              ~body;
            pending :=
              Some
                {
                  pd_epoch = e;
                  pd_members = new_members;
                  pd_down = down ();
                  pd_kind = kind;
                  pd_node = node;
                  pd_keys_moved = moved;
                  pd_proposed_at = Unix.gettimeofday ();
                  pd_rebroadcast_at = Unix.gettimeofday () +. 1.5;
                }
          in
          (* scripted schedule, in time order *)
          let sched =
            (match chaos with
            | None -> []
            | Some p ->
                List.map
                  (fun r -> (r.Fault.Plan.at_ms, "join", r.Fault.Plan.rnode))
                  p.Fault.Plan.joins
                @ List.map
                    (fun r -> (r.Fault.Plan.at_ms, "leave", r.Fault.Plan.rnode))
                    p.Fault.Plan.leaves)
            |> List.sort compare
            |> ref
          in
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
          let deadline =
            t_start
            +. float (Option.value deadline_ms
                        ~default:(run_timeout_ms + 30_000))
               /. 1000.
          in
          let t0 = ref None in
          let last_ping = ref 0. in
          let finish_sent = ref false in
          let wedged = ref false in
          let chunk = Bytes.create 65536 in
          let rbuf = Bytes.create 65536 in
          let all_final () = Array.for_all (fun s -> s.final <> None) slots in
          let node_alive i = slots.(i).final = None in
          let keep_going () =
            if Unix.gettimeofday () < deadline then true
            else begin
              wedged := true;
              false
            end
          in
          while (not (all_final ())) && keep_going () do
            let now = Unix.gettimeofday () in
            (* respawns due *)
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
                    s.status <- None;
                    (* grace until the respawn's first pong: recovery time
                       must not count as silence *)
                    ctls.(self).p_at <- 0.;
                    ctls.(self).p_pings <- 0
                | _ -> ())
              slots;
            (* control connections: dial / redial *)
            Array.iter
              (fun c ->
                if c.fd = None && now >= c.redial_at && node_alive c.node then
                  dial_ctl c)
              ctls;
            (* heartbeats *)
            if now -. !last_ping >= 0.05 then begin
              last_ping := now;
              Array.iter
                (fun c ->
                  if c.fd <> None then begin
                    send_ctl c ~kind:Wire.Ping ~body:"";
                    c.p_pings <- c.p_pings + 1
                  end)
                ctls
            end;
            (* pump sockets and report pipes together *)
            let ctl_fds =
              Array.to_list ctls
              |> List.filter_map (fun c -> c.fd)
            in
            let pipe_slots =
              Array.to_list slots
              |> List.filter (fun s ->
                     s.final = None && s.respawn_at = None && not s.eof)
            in
            let pipe_fds = List.map (fun s -> s.rfd) pipe_slots in
            let ready =
              match Unix.select (ctl_fds @ pipe_fds) [] [] 0.02 with
              | r, _, _ -> r
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
            in
            (* control socket reads: pongs *)
            Array.iter
              (fun c ->
                match c.fd with
                | Some fd when List.memq fd ready -> (
                    match Unix.read fd rbuf 0 (Bytes.length rbuf) with
                    | exception
                        Unix.Unix_error
                          ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
                        ()
                    | exception Unix.Unix_error _ -> kill_ctl c
                    | 0 -> kill_ctl c
                    | nread -> (
                        Wire.feed c.dec rbuf nread;
                        let rec pump () =
                          match Wire.next c.dec with
                          | Ok (Some fr) ->
                              (match fr.Wire.kind with
                              | Wire.Pong ->
                                  List.iter
                                    (fun kv ->
                                      match String.split_on_char '=' kv with
                                      | [ "e"; x ] ->
                                          c.p_epoch <- int_of_string x
                                      | [ "p"; x ] ->
                                          c.p_proposed <- int_of_string x
                                      | [ "r"; x ] -> c.p_ready <- x = "1"
                                      | [ "w"; x ] ->
                                          c.p_writes <- int_of_string x
                                      | [ "s"; x ] ->
                                          c.p_stale <- int_of_string x
                                      | _ -> ())
                                    (String.split_on_char ';' fr.Wire.body);
                                  c.p_at <- Unix.gettimeofday ();
                                  c.p_pings <- 0
                              | _ -> ());
                              pump ()
                          | Ok None -> ()
                          | Error _ -> kill_ctl c
                        in
                        pump ()))
                | _ -> ())
              ctls;
            (* the schedule clock starts when the whole cluster has ponged *)
            if !t0 = None && Array.for_all (fun c -> c.p_at > 0.) ctls then
              t0 := Some (Unix.gettimeofday ());
            let run_ms =
              match !t0 with
              | None -> -1.
              | Some t -> (Unix.gettimeofday () -. t) *. 1000.
            in
            (* failure detector: a member whose process is gone for good is
               demoted as soon as the supervisor reaps it; a member still
               running but silent past the demotion window is demoted only
               after enough heartbeats were actually sent its way, so a
               starved box cannot produce spurious demotions *)
            (match !t0 with
            | Some _ when not !finish_sent ->
                Array.iter
                  (fun c ->
                    let s = slots.(c.node) in
                    let dead =
                      match s.final with Some (Crashed _) -> true | _ -> false
                    in
                    let silent =
                      c.p_at > 0.
                      && s.respawn_at = None
                      && (now -. c.p_at) *. 1000. > float demote_after_ms
                      && c.p_pings >= 8
                    in
                    let relevant =
                      List.mem c.node !members
                      || (match !pending with
                         | Some p -> List.mem c.node p.pd_members
                         | None -> false)
                    in
                    if (dead || silent) && relevant
                       && not (List.mem c.node !demoted)
                    then begin
                      demoted := List.sort compare (c.node :: !demoted);
                      (* supersede an in-flight proposal without losing its
                         membership change: drop the dead node from the
                         proposed set, not from the committed one *)
                      let base =
                        match !pending with
                        | Some p -> p.pd_members
                        | None -> !members
                      in
                      propose ~kind:"demote" ~node:c.node
                        (List.filter (fun p -> p <> c.node) base)
                    end)
                  ctls
            | _ -> ());
            (* scripted events fire only between transitions *)
            (match (!sched, !pending) with
            | (at, kind, node) :: rest, None when run_ms >= float at ->
                sched := rest;
                if List.mem node !demoted then ()
                else if kind = "join" && not (List.mem node !members) then
                  propose ~kind ~node (node :: !members)
                else if
                  kind = "leave" && List.mem node !members
                  && List.length !members > 1
                then
                  propose ~kind ~node
                    (List.filter (fun p -> p <> node) !members)
            | _ -> ());
            (* commit when every proposed member is ready for the epoch *)
            (match !pending with
            | Some p ->
                let ready_node m =
                  let c = ctls.(m) in
                  c.p_epoch >= p.pd_epoch
                  || (c.p_proposed = p.pd_epoch && c.p_ready
                      && c.p_at > p.pd_proposed_at)
                in
                if List.for_all ready_node p.pd_members then begin
                  broadcast ~kind:Wire.Epoch
                    ~body:
                      (Printf.sprintf "commit|%d|%s" p.pd_epoch
                         (ints_to_string p.pd_members));
                  committed_epoch := p.pd_epoch;
                  members := p.pd_members;
                  events :=
                    {
                      ev_epoch = p.pd_epoch;
                      ev_kind = p.pd_kind;
                      ev_node = p.pd_node;
                      ev_members = p.pd_members;
                      ev_keys_moved = p.pd_keys_moved;
                      ev_rebalance_ms =
                        int_of_float
                          ((Unix.gettimeofday () -. p.pd_proposed_at)
                          *. 1000.);
                    }
                    :: !events;
                  pending := None
                end
                else begin
                  (* straggler healing: re-send the proposal to nodes that
                     have not caught up (a respawned child recovers at its
                     pre-crash epoch and needs the proposal again) *)
                  List.iter
                    (fun m ->
                      let c = ctls.(m) in
                      if
                        (not (ready_node m))
                        && c.p_proposed < p.pd_epoch
                        && now -. c.catchup_at > 0.3
                      then begin
                        c.catchup_at <- now;
                        send_ctl c
                          ~kind:
                            (if p.pd_kind = "leave" then Wire.Leave
                             else Wire.Join)
                          ~body:
                            (Printf.sprintf "%d|%s|%s" p.pd_epoch
                               (ints_to_string p.pd_members)
                               (ints_to_string p.pd_down))
                      end)
                    p.pd_members;
                  (* belt and braces while a commit is outstanding: a
                     periodic full re-send costs one frame per member and
                     removes every lost-proposal stall from the state
                     space (members drop duplicates by epoch) *)
                  if now >= p.pd_rebroadcast_at then begin
                    p.pd_rebroadcast_at <- now +. 1.5;
                    broadcast
                      ~kind:
                        (if p.pd_kind = "leave" then Wire.Leave
                         else Wire.Join)
                      ~body:
                        (Printf.sprintf "%d|%s|%s" p.pd_epoch
                           (ints_to_string p.pd_members)
                           (ints_to_string p.pd_down))
                  end
                end
            | None ->
                (* catch-up for nodes behind the committed epoch *)
                Array.iter
                  (fun c ->
                    if
                      c.p_at > 0.
                      && c.p_epoch < !committed_epoch
                      && now -. c.catchup_at > 0.3
                    then begin
                      c.catchup_at <- now;
                      send_ctl c ~kind:Wire.Join
                        ~body:
                          (Printf.sprintf "%d|%s|%s" !committed_epoch
                             (ints_to_string !members)
                             (ints_to_string (down ())));
                      send_ctl c ~kind:Wire.Epoch
                        ~body:
                          (Printf.sprintf "commit|%d|%s" !committed_epoch
                             (ints_to_string !members))
                    end)
                  ctls);
            (* finish once the schedule is drained, nothing is in flight,
               and every reachable node has issued its writes *)
            if
              (not !finish_sent)
              && !sched = [] && !pending = None && !t0 <> None
              && Array.for_all
                   (fun c ->
                     (not (node_alive c.node))
                     || (c.p_at > 0. && c.p_writes >= writes)
                     || List.mem c.node !demoted)
                   ctls
            then begin
              finish_sent := true;
              broadcast ~kind:Wire.Epoch ~body:"finish"
            end;
            (* report pipes *)
            List.iter
              (fun s ->
                if List.memq s.rfd ready then
                  match Unix.read s.rfd chunk 0 (Bytes.length chunk) with
                  | 0 ->
                      s.eof <- true;
                      (try Unix.close s.rfd with Unix.Unix_error _ -> ())
                  | kk -> Buffer.add_subbytes s.buf chunk 0 kk
                  | exception Unix.Unix_error _ ->
                      s.eof <- true;
                      (try Unix.close s.rfd with Unix.Unix_error _ -> ()))
              pipe_slots;
            (* reap exits *)
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
            (* finalize *)
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
                          s.respawn_at <-
                            Some (Unix.gettimeofday () +. (float d /. 1000.))
                      | _ ->
                          s.final <-
                            Some
                              (Crashed "injected crash (no restart scheduled)"))
                  | Some st ->
                      let report =
                        try
                          (Marshal.from_string (Buffer.contents s.buf) 0
                            : report)
                        with _ ->
                          Crashed
                            (Printf.sprintf "exited without reporting (%s)"
                               (match st with
                               | Unix.WEXITED c -> Printf.sprintf "exit %d" c
                               | Unix.WSIGNALED sg ->
                                   Printf.sprintf "signal %d" sg
                               | Unix.WSTOPPED sg ->
                                   Printf.sprintf "stopped %d" sg))
                      in
                      s.final <- Some report
                  | None -> ())
              slots
          done;
          (* put down whatever is left *)
          Array.iter
            (fun s ->
              if s.final = None then begin
                (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
                (try ignore (Unix.waitpid [] s.pid)
                 with Unix.Unix_error _ -> ());
                (try Unix.close s.rfd with Unix.Unix_error _ -> ());
                s.final <-
                  Some
                    (Crashed
                       (if !wedged then "wedged (supervisor deadline)"
                        else "supervisor stop"))
              end)
            slots;
          Array.iter (fun c -> kill_ctl c) ctls;
          Array.iter
            (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
            listen_fds;
          if !wedged then begin
            let states =
              Array.to_list slots
              |> List.mapi (fun i s ->
                     Printf.sprintf "node %d: %s" i
                       (match s.final with
                       | Some (Finished _) -> "finished"
                       | Some (Crashed m) -> m
                       | None -> "running"))
              |> String.concat "; "
            in
            if wal_dir = None then rm_rf wal_root;
            Error
              (Printf.sprintf
                 "wedged: supervisor deadline expired (epoch %d, pending %s) \
                  — %s"
                 !committed_epoch
                 (match !pending with
                 | Some p -> Printf.sprintf "epoch %d" p.pd_epoch
                 | None -> "none")
                 states)
          end
          else begin
            (* a demoted node that never reported still has a WAL *)
            let salvaged = ref [] in
            let reports =
              Array.mapi
                (fun i s ->
                  match Option.get s.final with
                  | Finished r -> Ok r
                  | Crashed msg -> (
                      (* an injected crash with no restart leaves a WAL the
                         member logged before every send: its ops can be
                         reconstructed even though it never reported *)
                      let injected =
                        String.length msg >= 8 && String.sub msg 0 8 = "injected"
                      in
                      match salvage ~node:i ~dir:(node_wal i) with
                      | Some r when injected ->
                          salvaged := i :: !salvaged;
                          Ok r
                      | _ -> Error (Printf.sprintf "node %d: %s" i msg)))
                slots
            in
            let errors =
              Array.to_list reports
              |> List.filter_map (function Error e -> Some e | Ok _ -> None)
            in
            if wal_dir = None then rm_rf wal_root;
            if errors <> [] then Error (String.concat "\n" errors)
            else
              let node_results =
                Array.map
                  (function Ok r -> r | Error _ -> assert false)
                  reports
              in
              let history =
                History.of_lists
                  (Array.to_list node_results
                  |> List.map (fun r -> r.Member.ops))
              in
              let sum f =
                Array.fold_left (fun acc r -> acc + f r) 0 node_results
              in
              let events = List.rev !events in
              let moved_gate =
                let nm = Stdlib.max 1 (List.length initial_members) in
                2 * k * n_vars / nm
              in
              let max_moved =
                List.fold_left
                  (fun acc e -> Stdlib.max acc e.ev_keys_moved)
                  0 events
              in
              Ok
                {
                  n;
                  k;
                  vnodes;
                  seed;
                  n_vars;
                  committed_epoch = !committed_epoch;
                  members = !members;
                  events;
                  history;
                  verdict = Checker.check Checker.Cache history;
                  pram = Checker.check Checker.Pram history;
                  stale_epochs = sum (fun r -> r.Member.stale_epochs);
                  restarts =
                    Array.fold_left (fun acc s -> acc + s.restarts) 0 slots;
                  salvaged = List.sort compare !salvaged;
                  keys_moved_total =
                    List.fold_left (fun acc e -> acc + e.ev_keys_moved) 0 events;
                  max_keys_moved = max_moved;
                  moved_gate;
                  moved_ok = max_moved <= moved_gate;
                  unavail_ms =
                    Array.fold_left
                      (fun acc r -> Stdlib.max acc r.Member.unavail_ms)
                      0 node_results;
                  transfers = sum (fun r -> r.Member.transfers_in);
                  init_fallbacks = sum (fun r -> r.Member.init_fallbacks);
                  writes_total = sum (fun r -> r.Member.writes_done);
                  reads_total = sum (fun r -> r.Member.reads_done);
                  node_results;
                  chaos =
                    (match chaos with
                    | None -> ""
                    | Some p -> Fault.Plan.to_string p);
                  wall_ms =
                    int_of_float ((Unix.gettimeofday () -. t_start) *. 1000.);
                }
          end
        with Unix.Unix_error (err, fn, _) ->
          Error
            (Printf.sprintf "reconfig: %s failed: %s" fn
               (Unix.error_message err))
      end
