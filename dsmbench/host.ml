(* One node process of a benchmark cluster.

   Untraced, the process is a real [Node.run].  Traced, it composes the
   same public layers [Node.run] composes for a client-driven workload —
   Live backend, session layer with coalescing, registry protocol, client
   front door — with benchmark-side timing wrappers between them and
   spans around [Live.step] and the front door's calls.  Either way the
   benchmark reads the layers' counters, [Unix.times], [Gc.quick_stat]
   and the peak RSS around the run and reports them to the driver. *)

module Live = Repro_transport.Live
module Session = Repro_transport.Session
module Transport = Repro_transport.Transport
module Rpc = Repro_transport.Rpc
module Wire = Repro_transport.Wire
module Net = Repro_msgpass.Net
module Memory = Repro_core.Memory
module Registry = Repro_core.Registry
module Node = Repro_cluster.Node
module Workload_spec = Repro_cluster.Workload_spec
module Op = Repro_history.Op

(* The [Live.step]s of a traced node from its first client request to its
   last activity; the idle steps of the closing quiet window are left
   out. *)
type serve = {
  wall_ns : int;  (** wall time in the steps, poll waits included *)
  cpu_ns : int;  (** thread CPU time in the steps *)
  self_ns : int;  (** [cpu_ns] minus the wall time of the spans inside *)
}

type report = {
  node : int;
  client_ops : int;
  messages_sent : int;
  messages_delivered : int;
  control_bytes : int;
  payload_bytes : int;
  overhead_bytes : int;
  wire_frames : int;  (** frames the Live backend sent to peers *)
  session : Session.stats option;
  utime : float;
  stime : float;
  minor_words : float;
  major_gcs : int;
  maxrss_kb : int;
  spans : Trace.snapshot option;  (** traced node only *)
  serve : serve option;  (** traced node only *)
}

let workload_spec () : Workload_spec.t =
  {
    Workload_spec.name = "dsmbench";
    n = Spec.n;
    dist = Spec.placement;
    programs = Array.make Spec.n (fun (_ : Repro_core.Runner.api) -> ());
    differentiated = false;
    final_vars = (fun _ -> []);
    check_finals = (fun _ -> Ok ());
  }

(* A transport wrapper that spans every send, every delivery to the layer
   above, and every timer the layer above schedules. *)
let timed ~send ~deliver ~timer (inner : Transport.factory) : Transport.factory
    =
  {
    Transport.create =
      (fun ?codec n ->
        let t = inner.Transport.create ?codec n in
        {
          t with
          Transport.send =
            (fun ~src ~dst ~control_bytes ~payload_bytes m ->
              Trace.enter ();
              t.Transport.send ~src ~dst ~control_bytes ~payload_bytes m;
              Trace.leave send);
          set_handler =
            (fun i h ->
              t.Transport.set_handler i (fun env ->
                  Trace.enter ();
                  h env;
                  Trace.leave deliver));
          schedule =
            (fun ~delay f ->
              t.Transport.schedule ~delay (fun () ->
                  Trace.enter ();
                  f ();
                  Trace.leave timer));
        });
  }

let spanned id f =
  Trace.enter ();
  match f () with
  | v ->
      Trace.leave id;
      v
  | exception e ->
      Trace.leave id;
      raise e

(* The traced composition of node [self]; mirrors Node.run for a node
   with an empty program, session layer on and no chaos or durability. *)
let run_traced ~self ~listen_fd ~peers ~(protocol : Registry.spec) ~workload
    ~seed ~run_timeout_ms =
  let fingerprint =
    Workload_spec.fingerprint ~chaos:"" ~session:true workload
      ~protocol:protocol.Registry.name ~seed
  in
  let lt =
    Live.create
      { Live.self; n = Spec.n; peers; fingerprint; resilient = false;
        incarnation = 0; connect_timeout_ms = 0 }
      ~listen_fd
  in
  let factory =
    timed ~send:Trace.live_send ~deliver:Trace.session_recv
      ~timer:Trace.session_timer (Live.factory lt)
  in
  let factory, sess =
    Session.wrap
      ~config:
        { Session.default with seed = seed + 1 + self; stable_acks = false;
          coalesce = Spec.coalesce }
      factory
  in
  let factory =
    timed ~send:Trace.session_send ~deliver:Trace.core_deliver
      ~timer:Trace.core_timer factory
  in
  let memory =
    protocol.Registry.make ~transport:factory ~dist:workload.Workload_spec.dist
      ~seed ()
  in
  let client_ops = ref 0 in
  Live.set_client_handler lt (fun ~reply v ->
      match
        spanned Trace.rpc_decode (fun () ->
            Rpc.decode_request_at v.Wire.v_buf ~pos:v.Wire.v_off
              ~len:v.Wire.v_len)
      with
      | Error _ -> ()
      | Ok (id, req) ->
          let serve = function
            | Rpc.Read { var } -> (
                match
                  spanned Trace.core_read (fun () ->
                      memory.Memory.read ~proc:self ~var)
                with
                | Op.Init -> Rpc.Got None
                | Op.Val v -> Rpc.Got (Some v)
                | exception Invalid_argument msg -> Rpc.Failed msg)
            | Rpc.Write { var; value } -> (
                match
                  spanned Trace.core_write (fun () ->
                      memory.Memory.write ~proc:self ~var (Op.Val value))
                with
                | () -> Rpc.Stored
                | exception Invalid_argument msg -> Rpc.Failed msg)
          in
          let outcomes = Array.map serve (Rpc.ops req) in
          client_ops := !client_ops + Array.length outcomes;
          spanned Trace.rpc_reply (fun () ->
              reply ~dst:v.Wire.v_src ~control_bytes:0
                ~payload_bytes:(Rpc.response_payload_bytes outcomes)
                ~body_len:(Rpc.response_body_len outcomes)
                ~emit:(fun buf off -> Rpc.emit_response buf off ~id outcomes)));
  Live.wait_peers lt ~timeout_ms:10_000;
  Live.finish_program lt;
  (* serve with a span around every step until the clients are gone and
     the node has been idle for the quiet window; the untimed Live.drain
     then settles the tail exactly as Node.run does.  A step blocks in
     the poll for up to 1 ms, so its span is timed in thread CPU: the
     wait is the step's wall time less its CPU time. *)
  let last_busy = ref (Clock.now_ns ()) in
  let activity () =
    let s = Live.stats lt in
    Live.client_reqs lt + s.Net.sent + s.Net.delivered
  in
  let seen = ref (activity ()) in
  let quiet_ns = Spec.quiet_ms * 1_000_000 in
  let id = Trace.live_step in
  let at () =
    { wall_ns = Trace.wall_ns.(id);
      cpu_ns = Trace.total_ns.(id); self_ns = Trace.self_ns.(id) }
  in
  (* step totals when serving began and at the last activity *)
  let first = ref None and last = ref None in
  (* a CPU clock read is a system call; a span reading it twice charges
     itself about one read, measured here and taken off every step *)
  let clock_ns =
    let a =
      Array.init 1001 (fun _ ->
          let c = Clock.thread_cpu_ns () in
          Clock.thread_cpu_ns () - c)
    in
    Array.sort compare a;
    a.(500)
  in
  let fin = ref false in
  while not !fin do
    if Live.now_ms lt > run_timeout_ms then
      failwith
        (Printf.sprintf "node %d: still serving after %d ms" self
           run_timeout_ms);
    Trace.enter ();
    let c0 = Clock.thread_cpu_ns () in
    let acted = Live.step lt ~block:true in
    Trace.leave_cpu id ~cpu_ns:(Clock.thread_cpu_ns () - c0 - clock_ns);
    (* frames and client requests are activity; bare timer fires are not *)
    let a = if acted then activity () else !seen in
    if a <> !seen then begin
      seen := a;
      last_busy := Clock.now_ns ();
      if Live.client_reqs lt > 0 then begin
        if !first = None then first := Some (at ());
        last := Some (at ())
      end
    end
    else if Live.all_done lt && Clock.now_ns () - !last_busy >= quiet_ns then
      fin := true
  done;
  let serve =
    match (!first, !last) with
    | Some a, Some b ->
        { wall_ns = b.wall_ns - a.wall_ns;
          cpu_ns = b.cpu_ns - a.cpu_ns; self_ns = b.self_ns - a.self_ns }
    | _ -> { wall_ns = 0; cpu_ns = 0; self_ns = 0 }
  in
  Live.drain lt ~quiet_ms:Spec.quiet_ms ~max_ms:run_timeout_ms;
  let m = memory.Memory.metrics () in
  let ss = sess.Session.stats () in
  let wire = Live.stats lt in
  Live.close lt;
  ( !client_ops,
    m,
    { wire with Net.overhead_bytes = ss.Session.overhead_bytes },
    Some ss,
    Some (Trace.snapshot ()),
    Some serve )

let run ~self ~listen_fd ~ports ~workload_name ~seed ~traced =
  let w =
    match Spec.find workload_name with
    | Some w -> w
    | None -> failwith ("unknown workload " ^ workload_name)
  in
  let protocol =
    match Registry.find w.Spec.protocol with
    | Some p -> p
    | None -> failwith ("unknown protocol " ^ w.Spec.protocol)
  in
  let peers =
    Array.map (fun p -> Unix.ADDR_INET (Unix.inet_addr_loopback, p)) ports
  in
  let workload = workload_spec () in
  let run_timeout_ms = 90_000 in
  let t0 = Unix.times () and g0 = Gc.quick_stat () in
  let client_ops, m, wire, session, spans, serve =
    if traced then
      run_traced ~self ~listen_fd ~peers ~protocol ~workload ~seed
        ~run_timeout_ms
    else
      let r =
        Node.run ~self ~listen_fd ~peers ~protocol ~workload ~seed
          ~session:true ~coalesce:Spec.coalesce ~quiet_ms:Spec.quiet_ms
          ~run_timeout_ms ()
      in
      (r.Node.client_ops, r.Node.metrics, r.Node.wire, r.Node.session_stats,
       None, None)
  in
  let t1 = Unix.times () and g1 = Gc.quick_stat () in
  {
    node = self;
    client_ops;
    messages_sent = m.Memory.messages_sent;
    messages_delivered = m.Memory.messages_delivered;
    control_bytes = m.Memory.control_bytes;
    payload_bytes = m.Memory.payload_bytes;
    overhead_bytes = wire.Net.overhead_bytes;
    wire_frames = wire.Net.sent;
    session;
    utime = t1.Unix.tms_utime -. t0.Unix.tms_utime;
    stime = t1.Unix.tms_stime -. t0.Unix.tms_stime;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
    maxrss_kb = Clock.maxrss_kb ();
    spans;
    serve;
  }
