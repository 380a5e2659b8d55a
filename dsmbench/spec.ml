(* The benchmark's fixed configuration: the cluster, the placement, the
   three workloads with their frozen rates and goodput grids, and the
   metric names each mode prints. *)

module Distribution = Repro_sharegraph.Distribution
module Mix = Repro_loadgen.Mix

let n = 3

(* Nodes 0 and 1 take client traffic; node 2 is a replica-only member. *)
let front_doors = [| 0; 1 |]

(* Session layer on with the flush budget `repro load` uses. *)
let coalesce = 8

(* Drain window of a node after its last frame (Node.run's default). *)
let quiet_ms = 150

(* 2-of-3 placement over 2n variables, as `repro load` builds it, but
   fixed and balanced rather than seed-drawn: each pair of nodes shares
   two variables, so every variable has a holder among the front doors
   and every node holds four. *)
let placement =
  Distribution.of_lists ~n_vars:(2 * n)
    [ [ 0; 1; 2; 3 ]; [ 0; 1; 4; 5 ]; [ 2; 3; 4; 5 ] ]

let placement_text = "x0,x1@{0,1} x2,x3@{0,2} x4,x5@{1,2}"

(* p99 latency limit, from due time, for the goodput search *)
let p99_limit_us = 5000.0

type workload = {
  name : string;
  protocol : string;  (** registry name *)
  mix : Mix.t;
  light : float;  (** ops/s, frozen *)
  busy : float;  (** ops/s, frozen *)
  grid_lo : float;  (** lowest goodput grid rate, ops/s *)
  grid_ratio : float;  (** consecutive grid rates differ by this factor *)
  grid_len : int;
  fanout : var:int -> int;
      (** protocol messages one client write of [var] must cause
          (Theorem 2: |C(x)|-1 for PRAM, n-1 for causal) *)
  why : string;
}

let pram_fanout ~var = List.length (Distribution.holders placement var) - 1
let causal_fanout ~var:_ = n - 1

let grid w =
  Array.init w.grid_len (fun k -> w.grid_lo *. (w.grid_ratio ** float_of_int k))

let workloads =
  [
    {
      name = "pram-read";
      protocol = "pram-partial";
      mix = Mix.read_heavy;
      light = 80_000.0;
      busy = 140_000.0;
      grid_lo = 140_000.0;
      grid_ratio = 1.04;
      grid_len = 60;
      fanout = pram_fanout;
      why =
        "pram-partial, 80/20 read-heavy: the front-door read path (RPC \
         decode, memory.read, reply emit, Live poll/writev) carries most of \
         the work";
    };
    {
      name = "pram-write";
      protocol = "pram-partial";
      mix = Mix.write_heavy;
      light = 45_000.0;
      busy = 110_000.0;
      grid_lo = 110_000.0;
      grid_ratio = 1.04;
      grid_len = 57;
      fanout = pram_fanout;
      why =
        "pram-partial, 20/80 write-heavy: the replication path (session \
         coalescing, codec, peer writev, remote apply) carries most of the \
         work";
    };
    {
      name = "causal-write";
      protocol = "causal-partial";
      mix = Mix.write_heavy;
      light = 45_000.0;
      busy = 110_000.0;
      grid_lo = 110_000.0;
      grid_ratio = 1.04;
      grid_len = 57;
      fanout = causal_fanout;
      why =
        "causal-partial on pram-write's placement and ops: vector clocks, \
         causal buffer and fan-out to non-holders, the paper's inefficient \
         case";
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) workloads

(* Printed with --trace 0: the end-to-end metrics, with unit and whether
   lower is better. *)
let end_to_end =
  [
    ("lat_calm_p50_us.light", "us", true);
    ("cpu_us_per_op", "us", true);
    ("net_bytes_per_op", "B", true);
    ("setup_s", "s", true);
    ("teardown_s", "s", true);
    ("node_rss_mb", "MB", true);
  ]

(* Printed with --trace 1: what a client sees with the host's noise in
   it, then the per-layer metrics, each with the client-facing metrics
   and workloads it is expected to move. *)
let per_layer =
  let all = "all workloads" in
  let rd = "pram-read" and wr = "pram-write, causal-write" in
  let validity =
    "validity of lat_* (high lateness: lat_* measure the generator)"
  in
  let loop = "cpu_us_per_op, goodput_ops_s" in
  let sess = "cpu_us_per_op, goodput_ops_s, lat_p99_us.busy" in
  let tracing = "none (cost of the traced run)" in
  let noisy = "what lat_calm_p50_us.light leaves out: the host's noise" in
  [
    ( "lat_calm_p50_us.busy", "us", true,
      "what lat_calm_p50_us.light leaves out: queueing at the busy rate", all );
    ("lat_p50_us.light", "us", true, noisy, all);
    ("lat_p99_us.light", "us", true, noisy, all);
    ("lat_p50_us.busy", "us", true, noisy, all);
    ("lat_p99_us.busy", "us", true, noisy, all);
    ("goodput_ops_s", "ops/s", false, noisy, all);
    ("driver.late_p50_us", "us", true, validity, all);
    ("driver.late_p99_us", "us", true, validity, all);
    ("driver.cpu_us_per_op", "us", true, validity, all);
    ("driver.ops_per_writev", "count", false, validity, all);
    ("driver.encode_ns_per_req", "ns", true, validity, all);
    ("driver.decode_ns_per_reply", "ns", true, validity, all);
    ( "rpc.decode_ns_per_req", "ns", true, "lat_calm_p50_us.*, cpu_us_per_op",
      rd );
    ( "rpc.reply_ns_per_req", "ns", true, "lat_calm_p50_us.*, cpu_us_per_op",
      rd );
    ("live.frames_per_op", "count", true, loop, all);
    ("live.step_self_ns_per_op", "ns", true, loop, all);
    ("live.idle_share", "ratio", false, loop, all);
    ("live.send_ns_per_frame", "ns", true, loop, wr);
    ("core.msgs_per_write", "count", true, "net_bytes_per_op", "causal-write");
    ("core.ctl_bytes_per_write", "B", true, "net_bytes_per_op", "causal-write");
    ( "core.payload_bytes_per_write", "B", true, "net_bytes_per_op",
      "causal-write" );
    ("core.read_ns", "ns", true, "cpu_us_per_op, lat_calm_p50_us.*", rd);
    ("core.write_self_ns", "ns", true, "cpu_us_per_op", "causal-write");
    ("core.deliver_self_ns", "ns", true, "cpu_us_per_op", "causal-write");
    ("session.segs_per_frame", "count", false, sess, wr);
    ( "session.acks_standalone_per_kop", "count", true,
      "cpu_us_per_op, net_bytes_per_op", wr );
    ("session.overhead_bytes_per_op", "B", true, "net_bytes_per_op", wr);
    ( "session.retransmits", "count", true,
      "lat_p99_us.busy (a phase with any is played again for the gate)", wr );
    ("session.send_self_ns", "ns", true, sess, wr);
    ("session.recv_self_ns", "ns", true, sess, wr);
    ("node.cpu_us_per_op.front", "us", true, loop, all);
    ( "node.cpu_us_per_op.replica", "us", true,
      "cpu_us_per_op (Theorem 2 on causal-write)", all );
    ("node.sys_share", "ratio", true, "cpu_us_per_op", all);
    ( "node.minor_words_per_op", "words", true,
      "cpu_us_per_op, lat_p99_us.busy", all );
    ( "node.major_gcs_per_kop", "count", true, "lat_p99_us.busy, node_rss_mb",
      all );
    ("trace.overhead.cpu_us_per_op", "ratio", true, tracing, all);
    ("trace.overhead.lat_p50_us.busy", "ratio", true, tracing, all);
  ]

let print_json () =
  let q = Printf.sprintf "%S" in
  let metric (name, unit_, lower) =
    Printf.sprintf "{\"name\": %s, \"unit\": %s, \"better\": %s}" (q name)
      (q unit_) (q (if lower then "lower" else "higher"))
  in
  let layer (name, unit_, lower, moves, on) =
    Printf.sprintf
      "{\"name\": %s, \"unit\": %s, \"better\": %s, \"moves\": %s, \"on\": %s}"
      (q name) (q unit_) (q (if lower then "lower" else "higher")) (q moves) (q on)
  in
  let workload w =
    Printf.sprintf
      "{\"name\": %s, \"protocol\": %s, \"mix\": %s, \"placement\": %s, \
       \"light_ops_s\": %.0f, \"busy_ops_s\": %.0f, \"grid\": {\"lo_ops_s\": \
       %.0f, \"ratio\": %g, \"points\": %d}, \"p99_limit_us\": %.0f, \"why\": %s}"
      (q w.name) (q w.protocol) (q (Mix.to_string w.mix)) (q placement_text) w.light
      w.busy w.grid_lo w.grid_ratio w.grid_len p99_limit_us (q w.why)
  in
  Printf.printf
    "{\"workloads\": [%s],\n \"end_to_end\": [%s],\n \"per_layer\": [%s]}\n"
    (String.concat ",\n  " (List.map workload workloads))
    (String.concat ",\n  " (List.map metric end_to_end))
    (String.concat ",\n  " (List.map layer per_layer))
