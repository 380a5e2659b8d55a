(* Tests for Repro_transport: the wire codec (round-trip, rejection of
   corrupt frames, streaming reassembly) and the transport abstraction
   (fail-fast fault validation, sim-backend equivalence with the direct
   network construction). *)

module Wire = Repro_transport.Wire
module Transport = Repro_transport.Transport
module Live = Repro_transport.Live
module Termination = Repro_transport.Termination
module Fault = Repro_msgpass.Fault
module Latency = Repro_msgpass.Latency
module Distribution = Repro_sharegraph.Distribution
module Registry = Repro_core.Registry
module Memory = Repro_core.Memory
module Workload = Repro_core.Workload
module History = Repro_history.History
module Rng = Repro_util.Rng

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* --- frame round-trip ------------------------------------------------------ *)

let frame_gen =
  QCheck.Gen.(
    let* kind =
      oneofl
        [
          Wire.Data; Wire.Hello; Wire.Done; Wire.Creq; Wire.Cresp; Wire.Join;
          Wire.Leave; Wire.Transfer; Wire.Epoch; Wire.Ping; Wire.Pong;
          Wire.Probe; Wire.Report; Wire.Halt;
        ]
    in
    let* src = int_bound 0xFFFF in
    let* dst = int_bound 0xFFFF in
    let* epoch = int_bound 0xFFFF in
    let* control_bytes = int_bound 1_000_000 in
    let* payload_bytes = int_bound 1_000_000 in
    let* body = string_size (int_bound 512) in
    return { Wire.kind; src; dst; epoch; control_bytes; payload_bytes; body })

let frame_print (f : Wire.frame) =
  Printf.sprintf "{kind=%s src=%d dst=%d epoch=%d cb=%d pb=%d body=%S}"
    (match f.kind with
    | Data -> "data"
    | Hello -> "hello"
    | Done -> "done"
    | Creq -> "creq"
    | Cresp -> "cresp"
    | Join -> "join"
    | Leave -> "leave"
    | Transfer -> "transfer"
    | Epoch -> "epoch"
    | Ping -> "ping"
    | Pong -> "pong"
    | Probe -> "probe"
    | Report -> "report"
    | Halt -> "halt")
    f.src f.dst f.epoch f.control_bytes f.payload_bytes f.body

let frame_arb = QCheck.make ~print:frame_print frame_gen

let test_roundtrip =
  qcheck
    (QCheck.Test.make ~name:"wire_encode_decode_roundtrip" ~count:500 frame_arb
       (fun f -> Wire.of_bytes (Wire.encode f) = Ok f))

(* Protocol messages travel as marshalled bodies: a representative message
   value must survive encode -> decode -> unmarshal intact. *)
type fake_msg = Update of { var : int; value : int option; ts : int array }

let test_marshalled_message_roundtrip () =
  let msg = Update { var = 3; value = Some 42; ts = [| 7; 0; 9 |] } in
  let body = Marshal.to_string (123, msg) [] in
  let frame =
    { Wire.kind = Wire.Data; src = 1; dst = 2; epoch = 0; control_bytes = 24;
      payload_bytes = 8; body }
  in
  match Wire.of_bytes (Wire.encode frame) with
  | Error e -> Alcotest.failf "decode failed: %s" e
  | Ok f ->
      let (stamp, (Update u as m)) : int * fake_msg =
        Marshal.from_string f.Wire.body 0
      in
      check Alcotest.int "stamp" 123 stamp;
      check Alcotest.int "var" 3 u.var;
      check Alcotest.bool "msg equal" true (m = msg)

(* --- rejection of corrupt input -------------------------------------------- *)

let encoded () =
  Wire.encode
    { Wire.kind = Wire.Data; src = 1; dst = 0; epoch = 3; control_bytes = 8;
      payload_bytes = 8; body = "payload" }

let expect_error name input =
  match Wire.of_bytes input with
  | Ok _ -> Alcotest.failf "%s: decoded a corrupt frame" name
  | Error _ -> ()

let test_truncated_rejected () =
  let buf = encoded () in
  for len = 0 to Bytes.length buf - 1 do
    expect_error "truncation" (Bytes.sub buf 0 len)
  done

let test_trailing_garbage_rejected () =
  let buf = encoded () in
  expect_error "trailing garbage" (Bytes.cat buf (Bytes.make 1 'x'))

let test_bad_magic_rejected () =
  let buf = encoded () in
  Bytes.set_uint8 buf 4 0x00;
  expect_error "bad magic" buf

let test_unknown_kind_rejected () =
  let buf = encoded () in
  Bytes.set_uint8 buf 5 14;
  expect_error "unknown kind" buf

let test_oversized_rejected () =
  let buf = encoded () in
  Bytes.set_int32_be buf 0 (Int32.of_int (Wire.max_frame_bytes + 1));
  expect_error "oversized declared length" buf;
  let buf = encoded () in
  Bytes.set_int32_be buf 0 5l;
  (* below the fixed header size *)
  expect_error "undersized declared length" (Bytes.sub buf 0 9)

let test_negative_byte_count_rejected () =
  let buf = encoded () in
  Bytes.set_int32_be buf 12 (-1l);
  expect_error "negative control bytes" buf

let test_encode_validates () =
  let frame body src =
    { Wire.kind = Wire.Data; src; dst = 0; epoch = 0; control_bytes = 0;
      payload_bytes = 0; body }
  in
  (* validation lives in [set_header] now, shared with the zero-copy path *)
  Alcotest.check_raises "src out of range"
    (Invalid_argument "Wire.set_header: bad src") (fun () ->
      ignore (Wire.encode (frame "" 0x10000)));
  Alcotest.check_raises "body too large"
    (Invalid_argument "Wire.set_header: frame too large") (fun () ->
      ignore (Wire.encode (frame (String.make (Wire.max_frame_bytes + 1) 'x') 0)))

(* --- streaming decoder ------------------------------------------------------ *)

let test_streaming_reassembly =
  qcheck
    (QCheck.Test.make ~name:"wire_streaming_reassembly" ~count:100
       QCheck.(pair (list_of_size Gen.(int_range 1 8) frame_arb) (int_range 1 7))
       (fun (frames, chunk) ->
         let stream =
           Bytes.concat Bytes.empty (List.map Wire.encode frames)
         in
         let d = Wire.decoder () in
         let got = ref [] in
         let pos = ref 0 in
         let total = Bytes.length stream in
         let drain () =
           let rec go () =
             match Wire.next d with
             | Ok (Some f) ->
                 got := f :: !got;
                 go ()
             | Ok None -> ()
             | Error e -> Alcotest.failf "streaming decode error: %s" e
           in
           go ()
         in
         while !pos < total do
           let len = Stdlib.min chunk (total - !pos) in
           Wire.feed d (Bytes.sub stream !pos len) len;
           pos := !pos + len;
           drain ()
         done;
         List.rev !got = frames && Wire.pending d = 0))

let test_streaming_poisoned () =
  let d = Wire.decoder () in
  let buf = encoded () in
  Bytes.set_uint8 buf 4 0x00;
  Wire.feed d buf (Bytes.length buf);
  (match Wire.next d with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrupt stream not detected");
  (* poisoned for good: feeding valid bytes afterwards must not recover *)
  let ok = encoded () in
  Wire.feed d ok (Bytes.length ok);
  match Wire.next d with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "decoder recovered from poison"

(* --- client RPC codec -------------------------------------------------------- *)

module Rpc = Repro_transport.Rpc

let rpc_op_gen =
  QCheck.Gen.(
    let* var = int_bound 1_000_000 in
    oneof
      [
        return (Rpc.Read { var });
        (let* value = int in
         return (Rpc.Write { var; value }));
      ])

let rpc_request_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun op -> Rpc.Op op) rpc_op_gen;
        map (fun ops -> Rpc.Batch (Array.of_list ops))
          (list_size (int_bound 20) rpc_op_gen);
      ])

let rpc_request_print (id, req) =
  let op_str = function
    | Rpc.Read { var } -> Printf.sprintf "R x%d" var
    | Rpc.Write { var; value } -> Printf.sprintf "W x%d=%d" var value
  in
  Printf.sprintf "#%d %s" id
    (match req with
    | Rpc.Op op -> op_str op
    | Rpc.Batch ops ->
        "[" ^ String.concat "; " (Array.to_list (Array.map op_str ops)) ^ "]")

let test_rpc_request_roundtrip =
  qcheck
    (QCheck.Test.make ~name:"rpc_request_roundtrip" ~count:500
       (QCheck.make ~print:rpc_request_print
          QCheck.Gen.(pair (int_bound 0x7FFFFFFF) rpc_request_gen))
       (fun (id, req) ->
         Rpc.decode_request (Rpc.encode_request ~id req) = Ok (id, req)))

let rpc_outcome_gen =
  QCheck.Gen.(
    oneof
      [
        return (Rpc.Got None);
        map (fun v -> Rpc.Got (Some v)) int;
        return Rpc.Stored;
        map (fun s -> Rpc.Failed s) (string_size (int_bound 80));
      ])

let test_rpc_response_roundtrip =
  qcheck
    (QCheck.Test.make ~name:"rpc_response_roundtrip" ~count:500
       (QCheck.make
          QCheck.Gen.(
            pair (int_bound 0x7FFFFFFF)
              (map Array.of_list (list_size (int_bound 20) rpc_outcome_gen))))
       (fun (id, outcomes) ->
         Rpc.decode_response (Rpc.encode_response ~id outcomes)
         = Ok (id, outcomes)))

let test_rpc_truncation_rejected () =
  let reqs =
    [
      Rpc.Op (Rpc.Read { var = 7 });
      Rpc.Op (Rpc.Write { var = 3; value = -12345 });
      Rpc.Batch
        [| Rpc.Read { var = 0 }; Rpc.Write { var = 1; value = 99 };
           Rpc.Read { var = 2 } |];
    ]
  in
  List.iter
    (fun req ->
      let body = Rpc.encode_request ~id:42 req in
      for len = 0 to String.length body - 1 do
        match Rpc.decode_request (String.sub body 0 len) with
        | Ok _ -> Alcotest.failf "decoded a %d-byte truncation" len
        | Error _ -> ()
      done;
      match Rpc.decode_request (body ^ "\x00") with
      | Ok _ -> Alcotest.fail "decoded trailing garbage"
      | Error _ -> ())
    reqs;
  let resp = Rpc.encode_response ~id:7 [| Rpc.Got (Some 5); Rpc.Stored |] in
  for len = 0 to String.length resp - 1 do
    match Rpc.decode_response (String.sub resp 0 len) with
    | Ok _ -> Alcotest.failf "decoded a %d-byte response truncation" len
    | Error _ -> ()
  done

let test_rpc_corrupt_tags_rejected () =
  (* unknown request tag *)
  let body = Bytes.of_string (Rpc.encode_request ~id:1 (Rpc.Op (Rpc.Read { var = 0 }))) in
  Bytes.set_uint8 body 4 9;
  (match Rpc.decode_request (Bytes.to_string body) with
  | Ok _ -> Alcotest.fail "decoded unknown request tag"
  | Error _ -> ());
  (* unknown op tag inside a batch *)
  let body =
    Bytes.of_string
      (Rpc.encode_request ~id:1 (Rpc.Batch [| Rpc.Read { var = 0 } |]))
  in
  Bytes.set_uint8 body 7 9;
  (match Rpc.decode_request (Bytes.to_string body) with
  | Ok _ -> Alcotest.fail "decoded unknown op tag"
  | Error _ -> ());
  (* negative request id *)
  let body = Bytes.of_string (Rpc.encode_request ~id:1 (Rpc.Op (Rpc.Read { var = 0 }))) in
  Bytes.set_int32_be body 0 (-1l);
  (match Rpc.decode_request (Bytes.to_string body) with
  | Ok _ -> Alcotest.fail "decoded negative id"
  | Error _ -> ());
  (* unknown outcome tag *)
  let body = Bytes.of_string (Rpc.encode_response ~id:1 [| Rpc.Stored |]) in
  Bytes.set_uint8 body 6 9;
  match Rpc.decode_response (Bytes.to_string body) with
  | Ok _ -> Alcotest.fail "decoded unknown outcome tag"
  | Error _ -> ()

(* --- transport construction -------------------------------------------------- *)

let test_sim_validates_faults_fail_fast () =
  (* satellite: a bad fault probability must be rejected when the backend
     is configured, before any network exists or any message is sent *)
  let bad = { Fault.drop = 1.5; duplicate = 0.0; reorder = false } in
  match Transport.sim ~faults:bad ~latency:Latency.lan ~seed:1 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "Transport.sim accepted drop probability 1.5"

(* The default (no-factory) path and an explicit Transport.sim factory must
   produce byte-identical runs: same history, same accounting. *)
let test_sim_factory_equivalence () =
  let spec = Option.get (Registry.find "causal-partial") in
  let dist =
    Distribution.random (Rng.create 5) ~n_procs:4 ~n_vars:8 ~replicas_per_var:3
  in
  let seed = 42 in
  let run memory =
    let h = Workload.run_random ~seed:(seed + 1) memory in
    (History.to_string h, (memory.Memory.metrics ()).Memory.control_bytes)
  in
  let direct = run (spec.Registry.make ~dist ~seed ()) in
  let via_factory =
    run
      (spec.Registry.make
         ~transport:(Transport.sim ~latency:Latency.lan ~seed ())
         ~dist ~seed ())
  in
  check Alcotest.(pair string int) "identical run" direct via_factory

(* --- chaos + session stack --------------------------------------------------- *)

module Chaos = Repro_transport.Chaos
module Session = Repro_transport.Session

let plan_of text =
  match Fault.Plan.parse text with
  | Ok p -> p
  | Error msg -> Alcotest.failf "bad plan %S: %s" text msg

(* The same stack a live node runs, on the sim backend: backend -> chaos ->
   session.  Returns the reliable factory plus both control handles. *)
let chaos_stack ?(config = Session.default) ~plan ~seed () =
  let base = Transport.sim ~latency:(Latency.constant 3) ~seed () in
  let chaotic, cctl = Chaos.wrap ~plan base in
  let reliable, sctl =
    Session.wrap ~config:{ config with Session.seed = seed + 1 } chaotic
  in
  (reliable, cctl, sctl)

let drive ?config ~plan ~seed ~count () =
  let reliable, cctl, sctl = chaos_stack ?config ~plan ~seed () in
  let t = reliable.Transport.create 2 in
  let got = ref [] in
  t.Transport.set_handler 1 (fun e ->
      got := (e.Repro_msgpass.Net.msg, t.Transport.now ()) :: !got);
  for k = 1 to count do
    t.Transport.send ~src:0 ~dst:1 ~control_bytes:4 ~payload_bytes:0 k
  done;
  t.Transport.quiesce ();
  (List.rev !got, t.Transport.stats (), cctl.Chaos.stats (), sctl.Session.stats ())

(* The session-layer guarantee: over any finite-probability mix of drops,
   duplications and reorder delays, the receiver sees exactly the sent
   sequence, once each, in order — and the outer stats still count first
   transmissions only, so protocol-level accounting is chaos-invariant. *)
let test_session_exactly_once_in_order =
  qcheck
    (QCheck.Test.make ~name:"session_exactly_once_in_order" ~count:40
       QCheck.(
         quad (int_bound 40) (int_bound 40) (int_bound 40) (int_bound 1000))
       (fun (d, u, r, seed) ->
         let plan =
           plan_of
             (Printf.sprintf "seed=%d,drop=0.%02d,dup=0.%02d,reorder=0.%02d"
                (seed + 1) d u r)
         in
         let count = 25 in
         let got, stats, _, _ = drive ~plan ~seed ~count () in
         List.map fst got = List.init count (fun i -> i + 1)
         && stats.Repro_msgpass.Net.sent = count
         && stats.Repro_msgpass.Net.delivered = count
         && stats.Repro_msgpass.Net.total_control_bytes = 4 * count))

let test_chaos_stack_deterministic () =
  (* one plan, one seed: bit-identical delivery trace and counters, run
     after run — the property that makes a chaos experiment replayable *)
  let run () =
    let plan = plan_of "seed=9,drop=0.2,dup=0.1,reorder=0.3" in
    let got, _, c, s = drive ~plan ~seed:4 ~count:20 () in
    (got, c.Chaos.drops, c.Chaos.duplicates, s.Session.retransmits,
     s.Session.overhead_bytes)
  in
  let g1, d1, u1, r1, o1 = run () in
  let g2, d2, u2, r2, o2 = run () in
  check Alcotest.(list (pair int int)) "delivery trace reproducible" g1 g2;
  check Alcotest.int "drops reproducible" d1 d2;
  check Alcotest.int "duplicates reproducible" u1 u2;
  check Alcotest.int "retransmits reproducible" r1 r2;
  check Alcotest.int "overhead reproducible" o1 o2;
  check Alcotest.bool "the plan actually bit" true (d1 > 0 && r1 > 0)

let test_session_overhead_accounting () =
  (* on a clean link the session layer's cost is pure bookkeeping: segment
     headers plus acks, no retransmissions, no suppressed duplicates *)
  let got, stats, _, s = drive ~plan:Fault.Plan.none ~seed:2 ~count:10 () in
  check Alcotest.int "all delivered" 10 (List.length got);
  check Alcotest.int "no retransmits" 0 s.Session.retransmits;
  check Alcotest.int "no dups suppressed" 0 s.Session.dups_suppressed;
  check Alcotest.int "overhead = headers + acks"
    ((10 * Session.seg_header_bytes) + (s.Session.acks_sent * Session.ack_bytes))
    s.Session.overhead_bytes;
  check Alcotest.int "protocol lane untouched" 40
    stats.Repro_msgpass.Net.total_control_bytes

(* Acks ride on reverse-direction data segments for free (the segment
   header reserves the slot); a standalone Ack frame is the idle-link
   fallback.  Request/reply traffic must therefore piggyback. *)
let test_session_ack_piggyback () =
  let reliable, _, sctl = chaos_stack ~plan:Fault.Plan.none ~seed:3 () in
  let t = reliable.Transport.create 2 in
  t.Transport.set_handler 0 (fun _ -> ());
  t.Transport.set_handler 1 (fun e ->
      (* synchronous reply, exactly the front-door shape *)
      t.Transport.send ~src:1 ~dst:0 ~control_bytes:4 ~payload_bytes:0
        (1000 + e.Repro_msgpass.Net.msg));
  for k = 1 to 10 do
    t.Transport.send ~src:0 ~dst:1 ~control_bytes:4 ~payload_bytes:0 k
  done;
  t.Transport.quiesce ();
  let s = sctl.Session.stats () in
  check Alcotest.int "all delivered" 20
    (t.Transport.stats ()).Repro_msgpass.Net.delivered;
  check Alcotest.bool "acks piggybacked" true (s.Session.acks_piggybacked > 0);
  (* every piggybacked ack is a standalone Ack frame (and its bytes) saved *)
  check Alcotest.int "overhead = headers + standalone acks only"
    ((s.Session.segs_sent * Session.seg_header_bytes)
    + (s.Session.acks_sent * Session.ack_bytes))
    s.Session.overhead_bytes

(* Coalescing is invisible to the protocol lane: same deliveries in the
   same order, same first-transmission accounting — only the overhead
   lane (frames, headers, standalone acks) shrinks. *)
let test_coalescing_equivalence () =
  let run coalesce plan =
    let got, stats, _, s =
      drive
        ~config:{ Session.default with Session.coalesce }
        ~plan ~seed:11 ~count:30 ()
    in
    (List.map fst got, stats, s)
  in
  (* clean link: strict frame/overhead reduction *)
  let g1, st1, s1 = run 1 Fault.Plan.none in
  let g8, st8, s8 = run 8 Fault.Plan.none in
  check Alcotest.(list int) "same deliveries (clean)" g1 g8;
  check Alcotest.int "same msgs sent" st1.Repro_msgpass.Net.sent
    st8.Repro_msgpass.Net.sent;
  check Alcotest.int "same control bytes" st1.Repro_msgpass.Net.total_control_bytes
    st8.Repro_msgpass.Net.total_control_bytes;
  check Alcotest.int "same payload bytes" st1.Repro_msgpass.Net.total_payload_bytes
    st8.Repro_msgpass.Net.total_payload_bytes;
  check Alcotest.bool "fewer frames" true
    (s8.Session.frames_sent < s1.Session.frames_sent);
  check Alcotest.bool "less overhead" true
    (s8.Session.overhead_bytes < s1.Session.overhead_bytes);
  check Alcotest.int "same segments" s1.Session.segs_sent s8.Session.segs_sent;
  (* chaotic link: exactly-once in-order delivery and protocol accounting
     still agree across budgets *)
  let plan = plan_of "seed=7,drop=0.15,dup=0.05,reorder=0.2" in
  let g1, st1, _ = run 1 plan in
  let g8, st8, _ = run 8 plan in
  check Alcotest.(list int) "same deliveries (chaos)" g1 g8;
  check Alcotest.int "same msgs sent (chaos)" st1.Repro_msgpass.Net.sent
    st8.Repro_msgpass.Net.sent;
  check Alcotest.int "same control bytes (chaos)"
    st1.Repro_msgpass.Net.total_control_bytes
    st8.Repro_msgpass.Net.total_control_bytes

(* --- epoch fence at the live seam ------------------------------------------ *)

(* Two real Live endpoints over loopback (the peer forked, as in the
   cluster harness).  The peer emits a [Transfer] while still at epoch 0
   after this node has committed epoch 2 — the fence must drop and count
   it; its [Ping] crosses freely (control kinds are how nodes learn of a
   newer epoch), and a [Transfer] re-stamped at the current epoch is
   delivered. *)
let test_epoch_fence () =
  let fd0 = Live.bind (Unix.ADDR_INET (Unix.inet_addr_loopback, 0)) in
  let fd1 = Live.bind (Unix.ADDR_INET (Unix.inet_addr_loopback, 0)) in
  let peers = [| Live.listen_addr fd0; Live.listen_addr fd1 |] in
  let config self =
    {
      Live.self;
      n = 2;
      peers;
      fingerprint = "epoch-fence-test";
      resilient = false;
      incarnation = 0;
      connect_timeout_ms = 0;
    }
  in
  match Unix.fork () with
  | 0 ->
      (* the stale peer: node 1 sends while still at epoch 0 *)
      let code =
        try
          Unix.close fd0;
          let t = Live.create (config 1) ~listen_fd:fd1 in
          Live.wait_peers t ~timeout_ms:5_000;
          (* let the parent raise its epoch first *)
          Unix.sleepf 0.3;
          Live.send_control t ~dst:0 ~kind:Wire.Transfer ~body:"stale";
          Live.send_control t ~dst:0 ~kind:Wire.Ping ~body:"ping";
          Live.set_epoch t 2;
          Live.send_control t ~dst:0 ~kind:Wire.Transfer ~body:"fresh";
          let deadline = Live.now_ms t + 1_000 in
          while Live.now_ms t < deadline do
            ignore (Live.step t ~block:true)
          done;
          Live.close t;
          0
        with _ -> 1
      in
      Unix._exit code
  | child ->
      Unix.close fd1;
      let t = Live.create (config 0) ~listen_fd:fd0 in
      let seen = ref [] in
      Live.set_control_handler t (fun ~reply:_ v ->
          seen := (v.Wire.v_kind, Wire.view_body v) :: !seen);
      Live.wait_peers t ~timeout_ms:5_000;
      Live.set_epoch t 2;
      let got k body = List.mem (k, body) !seen in
      let deadline = Live.now_ms t + 5_000 in
      while
        not (got Wire.Ping "ping" && got Wire.Transfer "fresh")
        && Live.now_ms t < deadline
      do
        ignore (Live.step t ~block:true)
      done;
      check Alcotest.bool "ping crossed the fence" true (got Wire.Ping "ping");
      check Alcotest.bool "current-epoch transfer delivered" true
        (got Wire.Transfer "fresh");
      check Alcotest.bool "stale transfer never dispatched" false
        (got Wire.Transfer "stale");
      check Alcotest.int "stale frame counted" 1 (Live.stale_epochs t);
      Live.close t;
      let _, status = Unix.waitpid [] child in
      check Alcotest.bool "peer exited cleanly" true
        (status = Unix.WEXITED 0)

let loopback () = Live.bind (Unix.ADDR_INET (Unix.inet_addr_loopback, 0))

let write_bytes fd b =
  let n = Bytes.length b in
  let rec go off = if off < n then go (off + Unix.write fd b off (n - off)) in
  go 0

let readable fd ~timeout =
  match Unix.select [ fd ] [] [] timeout with [], _, _ -> false | _ -> true

(* One step serves a client request whose handler replies, queues a
   replication frame to a peer and schedules a zero-delay timer.  The
   reply must already be on the client's socket when the timer fires, and
   the peer frame must still leave within that step.  Node 1 is played by
   hand: two raw sockets, one carrying its Hello, one accepting node 0's
   outbound link. *)
let test_reply_before_replication () =
  let fd0 = loopback () and fd1 = loopback () in
  let peers = [| Live.listen_addr fd0; Live.listen_addr fd1 |] in
  let fingerprint = "reply-order-test" in
  let t =
    Live.create
      { Live.self = 0; n = 2; peers; fingerprint; resilient = false;
        incarnation = 0; connect_timeout_ms = 0 }
      ~listen_fd:fd0
  in
  let tr : string Transport.t = (Live.factory t).Transport.create 2 in
  let dial addr =
    let fd = Unix.socket PF_INET SOCK_STREAM 0 in
    Unix.connect fd addr;
    fd
  in
  let frame kind ~src body =
    Wire.encode
      { Wire.kind; src; dst = 0; epoch = 0; control_bytes = 0;
        payload_bytes = 0; body }
  in
  let to0 = dial peers.(0) in
  write_bytes to0
    (frame Wire.Hello ~src:1 (fingerprint ^ "\ninc=0 gen=1 base=0"));
  Live.wait_peers t ~timeout_ms:5_000;
  let from0, _ = Unix.accept fd1 in
  let client = dial peers.(0) in
  let reply_seen = ref None in
  Live.set_client_handler t (fun ~reply v ->
      reply ~dst:v.Wire.v_src ~control_bytes:0 ~payload_bytes:0 ~body_len:2
        ~emit:(fun buf off ->
          Bytes.blit_string "ok" 0 buf off 2;
          off + 2);
      tr.Transport.send ~src:0 ~dst:1 ~control_bytes:0 ~payload_bytes:0
        "update";
      tr.Transport.schedule ~delay:0 (fun () ->
          reply_seen := Some (readable client ~timeout:0.)));
  write_bytes client (frame Wire.Creq ~src:1000 "req");
  let deadline = Live.now_ms t + 5_000 in
  while Live.client_reqs t = 0 && Live.now_ms t < deadline do
    ignore (Live.step t ~block:true)
  done;
  check Alcotest.(option bool) "reply readable when the timer fired"
    (Some true) !reply_seen;
  (* no further step runs: whatever node 1 reads left in that one *)
  let dec = Wire.decoder () and buf = Bytes.create 4096 in
  let rec data_arrived () =
    match Wire.next_view dec with
    | Ok (Some v) -> v.Wire.v_kind = Wire.Data || data_arrived ()
    | Error e -> Alcotest.fail e
    | Ok None ->
        readable from0 ~timeout:1.
        &&
        let n = Unix.read from0 buf 0 (Bytes.length buf) in
        n > 0
        && begin
             Wire.feed dec buf n;
             data_arrived ()
           end
  in
  check Alcotest.bool "peer frame left in the same step" true (data_arrived ());
  Live.close t;
  List.iter Unix.close [ fd1; to0; from0; client ]

(* Timers with equal due times fire in the order they were scheduled. *)
let test_timer_fifo () =
  let fd = loopback () in
  let t =
    Live.create
      { Live.self = 0; n = 1; peers = [| Live.listen_addr fd |];
        fingerprint = "timer-fifo-test"; resilient = false; incarnation = 0;
        connect_timeout_ms = 0 }
      ~listen_fd:fd
  in
  let tr : unit Transport.t = (Live.factory t).Transport.create 1 in
  let fired = ref [] in
  let count = 1_000 in
  for i = 0 to count - 1 do
    tr.Transport.schedule ~delay:0 (fun () -> fired := i :: !fired)
  done;
  let deadline = Live.now_ms t + 5_000 in
  while List.length !fired < count && Live.now_ms t < deadline do
    ignore (Live.step t ~block:true)
  done;
  check Alcotest.(list int) "scheduling order" (List.init count Fun.id)
    (List.rev !fired);
  Live.close t

(* --- termination detection: the decision function and its bodies --------- *)

let report_gen =
  QCheck.Gen.(
    let* inc = int_bound 3 in
    let* quiet = bool in
    let* passive = if quiet then bool else return false in
    let* worked = bool in
    let* sent = int_bound 40 in
    let* recv = int_bound 40 in
    return { Termination.inc; quiet; passive; worked; sent; recv })

let total f = Array.fold_left (fun a r -> a + f r) 0

(* one wave of a terminated cluster: every node passive, one of them
   worked, as many frames received as sent *)
let settled_gen =
  QCheck.Gen.(
    let* n = int_range 1 6 in
    let* reports = array_repeat n report_gen in
    let* who = int_bound (n - 1) in
    let w =
      Array.mapi
        (fun i r ->
          { r with Termination.quiet = true; passive = true;
            worked = r.Termination.worked || i = who })
        reports
    in
    let gap =
      total (fun r -> r.Termination.sent) w
      - total (fun r -> r.Termination.recv) w
    in
    let r0 = w.(0) in
    w.(0) <-
      (if gap > 0 then { r0 with Termination.recv = r0.Termination.recv + gap }
       else { r0 with Termination.sent = r0.Termination.sent - gap });
    let* i = int_bound (n - 1) in
    let* k = int_range 1 5 in
    return (w, i, k))

let print_wave w =
  String.concat "; "
    (Array.to_list
       (Array.map
          (fun r ->
            Printf.sprintf "{inc=%d q=%b p=%b w=%b s=%d r=%d}" r.Termination.inc
              r.Termination.quiet r.Termination.passive r.Termination.worked
              r.Termination.sent r.Termination.recv)
          w))

let settled_arb =
  QCheck.make settled_gen ~print:(fun (w, i, k) ->
      Printf.sprintf "%s / node %d / %d" (print_wave w) i k)

let with_node w i f =
  let c = Array.copy w in
  c.(i) <- f c.(i);
  c

let test_decide_terminates =
  qcheck
    (QCheck.Test.make ~count:500
       ~name:"two identical balanced all-passive waves terminate" settled_arb
       (fun (w, _, _) -> Termination.decide ~prev:w ~cur:(Array.copy w)))

let test_decide_active_node =
  qcheck
    (QCheck.Test.make ~count:500 ~name:"never while a node is active"
       settled_arb (fun (w, i, _) ->
         let busy r = { r with Termination.passive = false } in
         let idle_busy r = { r with Termination.quiet = false; passive = false } in
         (not (Termination.decide ~prev:w ~cur:(with_node w i busy)))
         && (not (Termination.decide ~prev:(with_node w i busy) ~cur:(with_node w i busy)))
         && not
              (Termination.decide ~prev:(with_node w i idle_busy)
                 ~cur:(with_node w i idle_busy))))

let test_decide_unbalanced =
  qcheck
    (QCheck.Test.make ~count:500 ~name:"never while the sums differ"
       settled_arb (fun (w, i, k) ->
         let in_flight r = { r with Termination.sent = r.Termination.sent + k } in
         let lost r = { r with Termination.recv = r.Termination.recv + k } in
         let a = with_node w i in_flight and b = with_node w i lost in
         (not (Termination.decide ~prev:a ~cur:(Array.copy a)))
         && not (Termination.decide ~prev:b ~cur:(Array.copy b))))

let test_decide_changed =
  qcheck
    (QCheck.Test.make ~count:500
       ~name:"never when the counts changed between waves" settled_arb
       (fun (w, i, k) ->
         let moved r =
           { r with Termination.sent = r.Termination.sent + k;
             recv = r.Termination.recv + k }
         in
         let respawned r = { r with Termination.inc = r.Termination.inc + 1 } in
         (not (Termination.decide ~prev:w ~cur:(with_node w i moved)))
         && not (Termination.decide ~prev:w ~cur:(with_node w i respawned))))

let test_decide_sound =
  (* arbitrary wave pairs: a positive answer always has its reasons *)
  let wave = QCheck.Gen.(int_range 1 4 >>= fun n -> array_repeat n report_gen) in
  qcheck
    (QCheck.Test.make ~count:2000 ~name:"every termination is justified"
       (QCheck.make
          QCheck.Gen.(pair wave (oneof [ wave; return [||] ]))
          ~print:(fun (a, b) -> print_wave a ^ " / " ^ print_wave b))
       (fun (prev, cur) ->
         let cur = if cur = [||] then Array.copy prev else cur in
         (not (Termination.decide ~prev ~cur))
         || prev = cur
            && Array.for_all (fun r -> r.Termination.passive) cur
            && total (fun r -> r.Termination.sent) cur
               = total (fun r -> r.Termination.recv) cur
            && Array.exists (fun r -> r.Termination.worked) cur))

let test_decide_needs_work () =
  let r =
    { Termination.inc = 0; quiet = true; passive = true; worked = false;
      sent = 3; recv = 3 }
  in
  let w = [| r; { r with sent = 0; recv = 0 } |] in
  check Alcotest.bool "idle clients-only cluster keeps waiting" false
    (Termination.decide ~prev:w ~cur:(Array.copy w))

let test_termination_bodies =
  qcheck
    (QCheck.Test.make ~count:500 ~name:"report body round-trip"
       (QCheck.make
          QCheck.Gen.(triple (int_bound 9) (int_bound 1000) report_gen))
       (fun (detector, wave, r) ->
         let tag = { Termination.detector; wave } in
         Termination.decode_report (Termination.encode_report tag r)
         = Ok (tag, r)
         && (wave = 0
            || Termination.decode_probe (Termination.encode_probe tag) = Ok tag
               && Termination.decode_halt (Termination.encode_halt tag) = Ok tag)))

let test_termination_bodies_strict () =
  let tag = { Termination.detector = 1; wave = 2 } in
  let r =
    { Termination.inc = 0; quiet = true; passive = true; worked = true;
      sent = 5; recv = 5 }
  in
  let body = Termination.encode_report tag r in
  let rejected what = function
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s accepted" what
  in
  rejected "truncated report"
    (Termination.decode_report (String.sub body 0 (String.length body - 1)));
  rejected "report with trailing byte" (Termination.decode_report (body ^ "\000"));
  let with_flags f =
    let b = Bytes.of_string body in
    Bytes.set_uint8 b 12 f;
    Bytes.to_string b
  in
  rejected "unknown flag bit" (Termination.decode_report (with_flags 8));
  rejected "passive but not quiet" (Termination.decode_report (with_flags 2));
  let negative =
    let b = Bytes.of_string body in
    Bytes.set_int64_be b 13 (-1L);
    Bytes.to_string b
  in
  rejected "negative count" (Termination.decode_report negative);
  rejected "probe of wave 0"
    (Termination.decode_probe
       (Termination.encode_probe { tag with Termination.wave = 0 }));
  rejected "short halt" (Termination.decode_halt "\000\000\000")

let () =
  Alcotest.run "repro_transport"
    [
      ( "wire",
        [
          test_roundtrip;
          Alcotest.test_case "marshalled message round-trip" `Quick
            test_marshalled_message_roundtrip;
          Alcotest.test_case "truncated rejected" `Quick test_truncated_rejected;
          Alcotest.test_case "trailing garbage rejected" `Quick
            test_trailing_garbage_rejected;
          Alcotest.test_case "bad magic rejected" `Quick test_bad_magic_rejected;
          Alcotest.test_case "unknown kind rejected" `Quick
            test_unknown_kind_rejected;
          Alcotest.test_case "oversized/undersized rejected" `Quick
            test_oversized_rejected;
          Alcotest.test_case "negative byte count rejected" `Quick
            test_negative_byte_count_rejected;
          Alcotest.test_case "encode validates" `Quick test_encode_validates;
          test_streaming_reassembly;
          Alcotest.test_case "poisoned decoder stays poisoned" `Quick
            test_streaming_poisoned;
        ] );
      ( "rpc",
        [
          test_rpc_request_roundtrip;
          test_rpc_response_roundtrip;
          Alcotest.test_case "truncation rejected" `Quick
            test_rpc_truncation_rejected;
          Alcotest.test_case "corrupt tags rejected" `Quick
            test_rpc_corrupt_tags_rejected;
        ] );
      ( "transport",
        [
          Alcotest.test_case "sim validates faults fail-fast" `Quick
            test_sim_validates_faults_fail_fast;
          Alcotest.test_case "sim factory equals direct construction" `Quick
            test_sim_factory_equivalence;
        ] );
      ( "live",
        [
          Alcotest.test_case "epoch fence at the seam" `Quick test_epoch_fence;
          Alcotest.test_case "replies leave before replication" `Quick
            test_reply_before_replication;
          Alcotest.test_case "equal-due timers fire in order" `Quick
            test_timer_fifo;
        ] );
      ( "halting",
        [
          test_decide_terminates;
          test_decide_active_node;
          test_decide_unbalanced;
          test_decide_changed;
          test_decide_sound;
          Alcotest.test_case "no termination before any work" `Quick
            test_decide_needs_work;
          test_termination_bodies;
          Alcotest.test_case "bodies decode strictly" `Quick
            test_termination_bodies_strict;
        ] );
      ( "session",
        [
          test_session_exactly_once_in_order;
          Alcotest.test_case "chaos stack is deterministic" `Quick
            test_chaos_stack_deterministic;
          Alcotest.test_case "overhead accounted apart" `Quick
            test_session_overhead_accounting;
          Alcotest.test_case "acks piggyback on replies" `Quick
            test_session_ack_piggyback;
          Alcotest.test_case "coalescing equivalence" `Quick
            test_coalescing_equivalence;
        ] );
    ]
