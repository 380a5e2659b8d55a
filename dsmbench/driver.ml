(* The load generator: one process, one thread, one connection to each
   front door.  It replays a {!Schedule.t} open loop — an op is sent when
   it is due, whatever is still outstanding — and times every op from its
   due time, so a generator that falls behind shows up in the latency and
   in the lateness it reports.  Requests due in the same turn are framed
   into one buffer per connection and leave in one write.  Every answer
   is checked on arrival: a read must return the initial value or a value
   this phase wrote to that variable, a write must be stored. *)

module Rpc = Repro_transport.Rpc
module Wire = Repro_transport.Wire

type conn = {
  fd : Unix.file_descr;
  dec : Wire.decoder;
  out : Bytes.t;
  mutable len : int;
  mutable alive : bool;
}

(* Op status bytes. *)
let st_pending = '\000'
let st_ok = 'o'
let st_failed = 'f'  (* the node answered [Failed] *)
let st_wrong = 'w'  (* an answer the schedule rules out *)

type result = {
  sched : Schedule.t;
  sent_ns : int array;  (** relative to [t0_ns]; -1 when never sent *)
  done_ns : int array;  (** relative to [t0_ns]; -1 when unanswered *)
  status : Bytes.t;
  t0_ns : int;
  last_reply_ns : int;  (** absolute *)
  aborted : bool;  (** sending stopped early: the generator fell behind *)
  flushes : int;  (** write syscalls carrying requests *)
  ops_written : int;
  cpu_s : float;
  spans : Trace.snapshot option;
}

let out_cap = 1 lsl 16
let frame_max = 64

(* Unanswered requests past which sending pauses.  Far above what the
   p99 limit allows in flight, it only bounds socket buffers when a
   trial overloads the cluster. *)
let window = 4096

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  { fd; dec = Wire.decoder (); out = Bytes.create out_cap; len = 0;
    alive = true }

let close c =
  if c.alive then begin
    c.alive <- false;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

let src = Repro_loadgen.Client.client_src 0
let frame_buf = Bytes.create frame_max

let queue c ~dst ~id req =
  let body_len = Rpc.request_body_len req in
  let payload = Rpc.request_payload_bytes req in
  Wire.set_header frame_buf ~kind:Wire.Creq ~src ~dst
    ~control_bytes:(body_len - payload) ~payload_bytes:payload ~body_len;
  let stop = Rpc.emit_request frame_buf Wire.body_offset ~id req in
  Bytes.blit frame_buf 0 c.out c.len stop;
  c.len <- c.len + stop

let flush c =
  if c.len > 0 then begin
    (if c.alive then
       try ignore (Unix.write c.fd c.out 0 c.len : int)
       with Unix.Unix_error _ -> close c);
    c.len <- 0
  end

let rbuf = Bytes.create (1 lsl 16)

(* Read what [c] has and hand each decoded reply to [on_reply]. *)
let service ~traced c on_reply =
  match Unix.read c.fd rbuf 0 (Bytes.length rbuf) with
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> close c
  | 0 -> close c
  | got ->
      Wire.feed c.dec rbuf got;
      let rec pump () =
        match Wire.next_view c.dec with
        | Ok (Some v) ->
            if v.Wire.v_kind = Wire.Cresp then begin
              if traced then Trace.enter ();
              let r =
                Rpc.decode_response_at v.Wire.v_buf ~pos:v.Wire.v_off
                  ~len:v.Wire.v_len
              in
              if traced then Trace.leave Trace.driver_decode;
              match r with
              | Ok (id, outcomes) -> on_reply id outcomes
              | Error _ -> close c
            end;
            if c.alive then pump ()
        | Ok None -> ()
        | Error _ -> close c
      in
      pump ()

let poll ~traced conns timeout on_reply =
  let fds =
    Array.fold_left (fun acc c -> if c.alive then c.fd :: acc else acc) [] conns
  in
  if fds = [] then Unix.sleepf timeout
  else
    match Unix.select fds [] [] timeout with
    | ready, _, _ ->
        Array.iter
          (fun c ->
            if c.alive && List.memq c.fd ready then service ~traced c on_reply)
          conns
    | exception Unix.Unix_error (EINTR, _, _) -> ()

(* Ids above any schedule index mark probes. *)
let probe_base = 0x7FFF_FF00

(* Send one read to every front door and wait for every answer; [true]
   when all came back within [timeout_s]. *)
let probe conns ~var ~timeout_s =
  let answered = Array.make (Array.length conns) false in
  Array.iteri
    (fun i c ->
      queue c ~dst:i ~id:(probe_base + i) (Rpc.Op (Rpc.Read { var }));
      flush c)
    conns;
  let deadline = Unix.gettimeofday () +. timeout_s in
  let on_reply id _ =
    let k = id - probe_base in
    if k >= 0 && k < Array.length answered then answered.(k) <- true
  in
  while
    (not (Array.for_all Fun.id answered))
    && Unix.gettimeofday () < deadline
    && Array.exists (fun c -> c.alive) conns
  do
    poll ~traced:false conns 0.001 on_reply
  done;
  Array.for_all Fun.id answered

let run ~conns ~(sched : Schedule.t) ~traced ~abort_late_ns ~grace_ns =
  let n = Schedule.length sched in
  let due = sched.Schedule.due_ns in
  let sent_ns = Array.make n (-1) and done_ns = Array.make n (-1) in
  let status = Bytes.make n st_pending in
  let outstanding = ref 0 and next = ref 0 in
  let flushes = ref 0 and ops_written = ref 0 and queued = ref 0 in
  let stopped = ref false and aborted = ref false in
  let last_reply = ref 0 in
  if traced then Trace.reset ();
  let cpu0 = Unix.times () in
  let t0 = Clock.now_ns () in
  let on_reply id outcomes =
    if id >= 0 && id < n && sent_ns.(id) >= 0 && done_ns.(id) < 0 then begin
      let now = Clock.now_ns () in
      last_reply := now;
      done_ns.(id) <- now - t0;
      decr outstanding;
      let write = Schedule.is_write sched id in
      let st =
        match outcomes with
        | [| Rpc.Stored |] when write -> st_ok
        | [| Rpc.Got None |] when not write -> st_ok
        | [| Rpc.Got (Some v) |] when not write ->
            (* the value must be one this phase wrote, to this variable,
               and already sent *)
            if
              v >= 1 && v <= n
              && sched.Schedule.value.(v - 1) = v
              && sched.Schedule.var.(v - 1) = sched.Schedule.var.(id)
              && sent_ns.(v - 1) >= 0
            then st_ok
            else st_wrong
        | [| Rpc.Failed _ |] -> st_failed
        | _ -> st_wrong
      in
      Bytes.set status id st
    end
  in
  let stop_at = ref max_int in
  let finished = ref false in
  while not !finished do
    let now = Clock.now_ns () - t0 in
    if (not !stopped) && !next < n && abort_late_ns > 0
       && now - due.(!next) > abort_late_ns
    then begin
      stopped := true;
      aborted := true
    end;
    let burst = ref false in
    while
      (not !stopped) && !next < n && due.(!next) <= now && !outstanding < window
    do
      let i = !next in
      let c = conns.(sched.Schedule.target.(i)) in
      if c.len + frame_max > out_cap then begin
        flush c;
        incr flushes
      end;
      let var = sched.Schedule.var.(i) in
      let req =
        if Schedule.is_write sched i then
          Rpc.Op (Rpc.Write { var; value = sched.Schedule.value.(i) })
        else Rpc.Op (Rpc.Read { var })
      in
      if traced then Trace.enter ();
      queue c ~dst:sched.Schedule.target.(i) ~id:i req;
      if traced then Trace.leave Trace.driver_encode;
      sent_ns.(i) <- now;
      incr outstanding;
      incr queued;
      incr next;
      burst := true
    done;
    if !burst then begin
      Array.iter
        (fun c ->
          if c.len > 0 then begin
            flush c;
            incr flushes
          end)
        conns;
      ops_written := !ops_written + !queued;
      queued := 0
    end;
    if (!stopped || !next >= n) && !stop_at = max_int then
      stop_at := Clock.now_ns () - t0;
    let timeout =
      if !burst then 0.0
      else if (not !stopped) && !next < n && !outstanding < window then
        float_of_int (min 1_000_000 (max 0 (due.(!next) - now))) /. 1e9
      else 0.001
    in
    poll ~traced conns timeout on_reply;
    let now = Clock.now_ns () - t0 in
    finished :=
      (!stopped || !next >= n)
      && (!outstanding = 0
         || now - !stop_at > grace_ns
         || not (Array.exists (fun c -> c.alive) conns))
  done;
  let cpu1 = Unix.times () in
  {
    sched;
    sent_ns;
    done_ns;
    status;
    t0_ns = t0;
    last_reply_ns = (if !last_reply = 0 then Clock.now_ns () else !last_reply);
    aborted = !aborted;
    flushes = !flushes;
    ops_written = !ops_written;
    cpu_s =
      cpu1.Unix.tms_utime -. cpu0.Unix.tms_utime
      +. (cpu1.Unix.tms_stime -. cpu0.Unix.tms_stime);
    spans = (if traced then Some (Trace.snapshot ()) else None);
  }
