(* The DSM client benchmark.

     dsmbench --workload W --seed N --seconds S --trace 0|1

   With --trace 0 a run measures the end-to-end metrics: latency from due
   time at the workload's light rate while the shared host leaves the
   cluster alone, node CPU and network bytes per op at the busy rate,
   set-up and tear-down time and node peak RSS.  With --trace 1 it
   measures the client-facing figures the host moves too much to bound
   (latency at the busy rate, pooled p50 and p99, goodput under the p99
   limit on a fixed rate grid), then runs the busy rate twice on one
   schedule, untraced and with node 0 hosted by the traced composition,
   and prints the per-layer metrics.
   Every phase starts a fresh cluster and must pass the correctness gate;
   the last line of standard output is one JSON object, and a run whose
   gate fails exits 1.

   Internal modes: [node] (one cluster member, started by the driver),
   [schedule-digest], [routing] and [spec] (used by the tests). *)

(* What the run's result line needs of every phase it made. *)
type outcome = {
  ops : int;  (** scheduled *)
  sent : int;
  setup_s : float;
  teardown_s : float;
  mutable errors : string list;  (** correctness-gate failures *)
}

type phase = {
  sched : Schedule.t;
  drv : Driver.result;
  nodes : Host.report array;
  lat : float array;  (** sorted µs from due time, every answered op *)
  lat_tail : float array;  (** the same, ops due in the last third *)
  win50 : float array;  (** p50 from due time of each window of due times *)
  retransmits : int;  (** session retransmits, all nodes *)
  out : outcome;
}

(* Every phase a run made, goodput trials and repeats included. *)
let all_phases : outcome list ref = ref []

(* Fail [ph] with a gate error found after it ran. *)
let fail_phase ph msg = ph.out.errors <- ph.out.errors @ [ msg ]

let log fmt = Printf.ksprintf (fun s -> prerr_endline ("dsmbench: " ^ s)) fmt

(* --- statistics ------------------------------------------------------------ *)

(* Exact percentile with linear interpolation over a sorted array. *)
let pct sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let r = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float r in
    let hi = min (n - 1) (lo + 1) in
    let f = r -. float_of_int lo in
    sorted.(lo) +. ((sorted.(hi) -. sorted.(lo)) *. f)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

let median l = pct (sorted (Array.of_list l)) 50.0

(* Latencies from due time, in µs and sorted, of the answered ops due at
   or after [from_ns]. *)
let latencies (sched : Schedule.t) (drv : Driver.result) ~from_ns =
  let due = sched.Schedule.due_ns and done_ns = drv.Driver.done_ns in
  let keep i = done_ns.(i) >= 0 && due.(i) >= from_ns in
  let a = Array.make (Array.length due) nan and k = ref 0 in
  Array.iteri
    (fun i d ->
      if keep i then begin
        a.(!k) <- float (done_ns.(i) - d) /. 1e3;
        incr k
      end)
    due;
  sorted (Array.sub a 0 !k)

let completed ph =
  let c = ref 0 in
  Array.iter (fun t -> if t >= 0 then incr c) ph.drv.Driver.done_ns;
  !c

let per_op ph x = x /. float_of_int (max 1 (completed ph))
let sumf ph f = Array.fold_left (fun a r -> a +. f r) 0.0 ph.nodes
let sumi ph f = Array.fold_left (fun a r -> a + f r) 0 ph.nodes
let node_cpu (r : Host.report) = r.Host.utime +. r.Host.stime
let cpu_us_per_op ph = per_op ph (sumf ph node_cpu *. 1e6)

let net_bytes_per_op ph =
  per_op ph
    (float_of_int
       (sumi ph (fun r ->
            r.Host.control_bytes + r.Host.payload_bytes + r.Host.overhead_bytes)))

let rss_mb ph =
  float_of_int (Array.fold_left (fun a r -> max a r.Host.maxrss_kb) 0 ph.nodes)
  /. 1024.0

let sess ph f =
  sumi ph (fun r -> match r.Host.session with Some s -> f s | None -> 0)

(* p50 from due time of each window of due times: 2.5 ms, or longer so
   that a window expects at least 100 ops.  Ops are in due order, so a
   window is a contiguous run of them. *)
let window_p50s (sched : Schedule.t) (drv : Driver.result) ~rate ~duration_s =
  let n = Schedule.length sched in
  let due = sched.Schedule.due_ns and done_ns = drv.Driver.done_ns in
  let w_ns = int_of_float (Float.max 0.0025 (100.0 /. rate) *. 1e9) in
  let count = max 1 (int_of_float (duration_s *. 1e9) / w_ns) in
  let start = Array.make (count + 1) n in
  for i = n - 1 downto 0 do
    start.(min (count - 1) (due.(i) / w_ns)) <- i
  done;
  for w = count - 1 downto 0 do
    start.(w) <- min start.(w) start.(w + 1)
  done;
  (* nan marks an unanswered op and sorts last under Float.compare *)
  let lat =
    Array.init n (fun i ->
        if done_ns.(i) >= 0 then float (done_ns.(i) - due.(i)) /. 1e3 else nan)
  in
  Array.init count (fun w ->
      let a = sorted (Array.sub lat start.(w) (start.(w + 1) - start.(w))) in
      let k = ref (Array.length a) in
      while !k > 0 && Float.is_nan a.(!k - 1) do
        decr k
      done;
      pct (Array.sub a 0 !k) 50.0)
  |> Array.to_list
  |> List.filter (fun p -> not (Float.is_nan p))
  |> Array.of_list

(* [q]-percentile of the latencies of all answered ops of [phases],
   pooled *)
let pooled q phases =
  pct (sorted (Array.concat (List.map (fun ph -> ph.lat) phases))) q

(* The latency the cluster gives while the shared host leaves it alone:
   the first percentile, over every window of [phases], of the window's
   p50.  The host's interference only ever adds time, and it comes and
   goes within seconds, so the windows it spared read lowest; a cost the
   cluster pays on every op raises them all.  Short windows find more
   spared stretches. *)
let calm_p50 phases =
  pct (sorted (Array.concat (List.map (fun ph -> ph.win50) phases))) 1.0

(* The [k] phases of [phases] the host disturbed least: those with the
   lowest p50. *)
let calmest k phases =
  List.sort (fun a b -> Float.compare (pct a.lat 50.0) (pct b.lat 50.0)) phases
  |> List.filteri (fun i _ -> i < k)

(* --- one phase: fresh cluster, probe, schedule, reap, gate --------------- *)

let probes = Array.length Spec.front_doors

let run_phase (w : Spec.workload) ~seed ~rate ~duration_s ~traced ~abort =
  let sched =
    Schedule.make ~dist:Spec.placement ~mix:w.Spec.mix ~rate ~duration_s ~seed
  in
  let fleet = Fleet.start ~workload:w ~seed ~traced:(fun i -> traced && i = 0) in
  let conns =
    Array.map (fun d -> Driver.connect fleet.Fleet.ports.(d)) Spec.front_doors
  in
  if not (Driver.probe conns ~var:0 ~timeout_s:20.0) then
    failwith "front doors did not answer the set-up probe";
  let setup_s = float_of_int (Clock.now_ns () - fleet.Fleet.t_fork_ns) /. 1e9 in
  let drv =
    Driver.run ~conns ~sched ~traced
      ~abort_late_ns:(if abort then 200_000_000 else 0)
      ~grace_ns:10_000_000_000
  in
  Array.iter Driver.close conns;
  let nodes, reaped = Fleet.finish fleet in
  let teardown_s = float_of_int (reaped - drv.Driver.last_reply_ns) /. 1e9 in
  let n = Schedule.length sched in
  let count p =
    let c = ref 0 in
    for i = 0 to n - 1 do
      if p i then incr c
    done;
    !c
  in
  let sent i = drv.Driver.sent_ns.(i) >= 0 in
  let st i = Bytes.get drv.Driver.status i in
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let wrong = count (fun i -> st i = Driver.st_wrong) in
  let failed = count (fun i -> st i = Driver.st_failed) in
  let timeouts = count (fun i -> sent i && drv.Driver.done_ns.(i) < 0) in
  let unsent = count (fun i -> not (sent i)) in
  let completed = count (fun i -> drv.Driver.done_ns.(i) >= 0) in
  if wrong > 0 then err "%d reads returned a value never written there" wrong;
  if failed > 0 then err "%d ops answered Failed" failed;
  if timeouts > 0 then err "%d ops unanswered" timeouts;
  if unsent > 0 && not drv.Driver.aborted then err "%d ops never sent" unsent;
  let sum f = Array.fold_left (fun a r -> a + f r) 0 nodes in
  let expected_msgs =
    let m = ref 0 in
    for i = 0 to n - 1 do
      if sent i && Schedule.is_write sched i then
        m := !m + w.Spec.fanout ~var:sched.Schedule.var.(i)
    done;
    !m
  in
  let msgs = sum (fun r -> r.Host.messages_sent) in
  if msgs <> expected_msgs then
    err "protocol messages %d, Theorem-2 fan-out of the writes sent is %d" msgs
      expected_msgs;
  let delivered = sum (fun r -> r.Host.messages_delivered) in
  if delivered <> msgs then
    err "protocol messages delivered %d, sent %d (not exactly once)" delivered
      msgs;
  let retransmits =
    sum (fun r ->
        match r.Host.session with
        | Some s -> s.Repro_transport.Session.retransmits
        | None -> 0)
  in
  let served = sum (fun r -> r.Host.client_ops) in
  if served <> completed + probes then
    err "nodes served %d client ops, the driver completed %d (+%d probes)"
      served completed probes;
  let out =
    { ops = n; sent = count sent; setup_s; teardown_s;
      errors = List.rev !errors }
  in
  all_phases := out :: !all_phases;
  {
    sched; drv; nodes; retransmits; out;
    lat = latencies sched drv ~from_ns:0;
    win50 = window_p50s sched drv ~rate ~duration_s;
    lat_tail =
      latencies sched drv
        ~from_ns:(int_of_float (duration_s *. 1e9 *. 2.0 /. 3.0));
  }

(* --- goodput ------------------------------------------------------------- *)

(* The p99 from due time that judges a goodput trial: the larger of the
   whole trial's and its last third's, where a growing backlog shows.  A
   trial that failed the gate, retransmitted, was cut short or left an
   op unanswered is over any limit. *)
let trial_p99 ph =
  if
    ph.out.errors = []
    && ph.retransmits = 0
    && (not ph.drv.Driver.aborted)
    && completed ph = Schedule.length ph.sched
  then Float.max (pct ph.lat 99.0) (pct ph.lat_tail 99.0)
  else infinity

(* Goodput: the grid rate at which a trial's p99 from due time crosses
   the limit.  A staircase of [staircase] trials, each on a fresh
   schedule and cluster, steps the offered rate by the log-ratio of the
   limit to the trial's p99 (over [slope], about how steeply p99 climbs
   with the rate near saturation), at most [max_step], with a gain that
   falls as the trials go on.  The estimate is the geometric mean of the
   rates of the last half of the trials, rounded down to the grid.  A
   trial over the limit pulls the rate down as hard as one under it
   pushes it up, so the staircase settles where a trial is as likely to
   be over the limit as under it. *)
let staircase = 10
let slope = 3.0
let max_step = 0.2

let goodput (w : Spec.workload) trial =
  let grid = Spec.grid w in
  let lo = Float.log (grid.(0) /. w.Spec.grid_ratio)
  and hi = Float.log grid.(Array.length grid - 1) in
  let clamp a b x = Float.min b (Float.max a x) in
  let rate = ref (clamp lo hi (Float.log (3.0 *. w.Spec.busy))) in
  let tail = ref [] in
  for k = 0 to staircase - 1 do
    if 2 * k >= staircase then tail := !rate :: !tail;
    let p99 = trial (Float.exp !rate) in
    let p99 = if Float.is_nan p99 then infinity else p99 in
    let step =
      clamp (-.max_step) max_step (Float.log (Spec.p99_limit_us /. p99) /. slope)
    in
    rate := clamp lo hi (!rate +. (step *. 3.0 /. (3.0 +. float k)))
  done;
  let est =
    Float.exp (List.fold_left ( +. ) 0.0 !tail /. float (List.length !tail))
  in
  (* the highest grid rate at or below the estimate; one grid step under
     the grid when the estimate is below it *)
  Array.fold_left
    (fun g r -> if r <= est *. (1.0 +. 1e-9) then r else g)
    (grid.(0) /. w.Spec.grid_ratio)
    grid

(* --- runs ---------------------------------------------------------------- *)

let describe name ph =
  log "%s: %d ops, p50 %.1f us p99 %.1f us (last third %.1f us), \
       node cpu %.2f us/op, setup %.3f s, teardown %.3f s%s%s"
    name (Schedule.length ph.sched) (pct ph.lat 50.0) (pct ph.lat 99.0)
    (pct ph.lat_tail 99.0) (cpu_us_per_op ph) ph.out.setup_s
    ph.out.teardown_s
    (if ph.drv.Driver.aborted then ", cut short"
     else if ph.retransmits > 0 then
       Printf.sprintf ", %d session retransmits" ph.retransmits
     else "")
    (match ph.out.errors with
     | [] -> ""
     | es -> ", GATE: " ^ String.concat "; " es)

(* Measure one light or busy phase.  Session retransmissions on loopback
   are spurious: the receiver's standalone ack trails by [ack_delay]
   (20 ms) and the sender retransmits its whole window after 40 ms, so a
   host stall of 20 ms or more on the receiver resends thousands of
   segments.  A phase that retransmits keeps its place in the figures,
   stall and all, and the same schedule is played once more only to
   decide the gate: retransmissions in both plays fail it. *)
let measured w ~seed ~rate ~duration_s ~traced name =
  let go () =
    let ph = run_phase w ~seed ~rate ~duration_s ~traced ~abort:false in
    describe name ph;
    ph
  in
  let ph = go () in
  (if ph.out.errors = [] && ph.retransmits > 0 then
     let again = go () in
     if again.retransmits > 0 then
       fail_phase ph
         (Printf.sprintf "session retransmits in two plays (%d, %d)"
            ph.retransmits again.retransmits));
  ph

(* Light and busy phases of [phase_s] seconds each, [reps] of each,
   alternating, so that a noisy stretch of the shared host falls on both
   rather than on all phases of one; [phase] numbers their seeds. *)
let light_busy (w : Spec.workload) ~seed ~reps ~phase_s ~phase =
  let run rate name =
    incr phase;
    measured w ~seed:(Schedule.phase_seed ~seed ~phase:!phase) ~rate
      ~duration_s:phase_s ~traced:false name
  in
  let pairs =
    List.init reps (fun _ ->
        let l = run w.Spec.light "light" in
        (l, run w.Spec.busy "busy"))
  in
  (List.map fst pairs, List.map snd pairs)

let end_to_end (w : Spec.workload) ~seed ~seconds =
  let light, busy =
    light_busy w ~seed ~reps:20 ~phase_s:(seconds /. 40.0) ~phase:(ref 0)
  in
  let calm = calmest 3 busy in
  let all = !all_phases in
  let med f l = median (List.map f l) in
  [
    ("lat_calm_p50_us.light", calm_p50 light);
    ("cpu_us_per_op", med cpu_us_per_op calm);
    ("net_bytes_per_op", med net_bytes_per_op calm);
    ("setup_s", med (fun (o : outcome) -> o.setup_s) all);
    ("teardown_s", med (fun (o : outcome) -> o.teardown_s) all);
    ("node_rss_mb", med rss_mb busy);
  ]

let per_layer (w : Spec.workload) ~seed ~seconds =
  (* what a client sees with the host's noise in it: a few light and busy
     phases, pooled, then the goodput staircase, its trials twice as long
     as a phase so that one stall of the host delays a smaller share of
     their ops *)
  let phase = ref 0 and phase_s = seconds /. 40.0 in
  let light, busy = light_busy w ~seed ~reps:4 ~phase_s ~phase in
  let goodput =
    goodput w (fun rate ->
        incr phase;
        let ph =
          run_phase w ~seed:(Schedule.phase_seed ~seed ~phase:!phase) ~rate
            ~duration_s:(2.0 *. phase_s) ~traced:false ~abort:true
        in
        describe (Printf.sprintf "goodput %.0f" rate) ph;
        trial_p99 ph)
  in
  (* the layers: one busy schedule, untraced, then traced *)
  let seed = Schedule.phase_seed ~seed ~phase:0 in
  let run traced name =
    measured w ~seed ~rate:w.Spec.busy ~duration_s:(0.2 *. seconds) ~traced
      name
  in
  let u = run false "busy untraced" in
  let t = run true "busy traced" in
  let lane ph =
    ( sumi ph (fun r -> r.Host.messages_sent),
      sumi ph (fun r -> r.Host.control_bytes),
      sumi ph (fun r -> r.Host.payload_bytes) )
  in
  let (um, uc, up) = lane u and (tm, tc, tp) = lane t in
  if (um, uc, up) <> (tm, tc, tp) then
    ignore
      (fail_phase t
         (Printf.sprintf
            "traced protocol lane (%d msgs, %d ctl B, %d payload B) differs \
             from untraced (%d, %d, %d)"
            tm tc tp um uc up));
  let host = t.nodes.(0) in
  let hs = Option.get host.Host.spans in
  let ds = Option.get t.drv.Driver.spans in
  let serve = Option.get host.Host.serve in
  let self_per id = if hs.Trace.counts.(id) = 0 then 0.0
    else float hs.Trace.self_ns.(id) /. float hs.Trace.counts.(id) in
  let writes = ref 0 in
  Array.iteri
    (fun i s -> if s >= 0 && Schedule.is_write u.sched i then incr writes)
    u.drv.Driver.sent_ns;
  let per_write x = float x /. float (max 1 !writes) in
  let late =
    u.drv.Driver.sent_ns
    |> Array.to_list
    |> List.mapi (fun i sent -> (i, sent))
    |> List.filter_map (fun (i, sent) ->
           if sent < 0 then None
           else Some (float (sent - u.sched.Schedule.due_ns.(i)) /. 1e3))
    |> Array.of_list |> sorted
  in
  let cpu_of f = sumf u (fun r -> if f r.Host.node then node_cpu r else 0.0) in
  [
    ("lat_calm_p50_us.busy", calm_p50 (u :: busy));
    ("lat_p50_us.light", pooled 50.0 light);
    ("lat_p99_us.light", pooled 99.0 light);
    ("lat_p50_us.busy", pooled 50.0 busy);
    ("lat_p99_us.busy", pooled 99.0 busy);
    ("goodput_ops_s", goodput);
    ("driver.late_p50_us", pct late 50.0);
    ("driver.late_p99_us", pct late 99.0);
    ("driver.cpu_us_per_op", per_op u (u.drv.Driver.cpu_s *. 1e6));
    ( "driver.ops_per_writev",
      float u.drv.Driver.ops_written /. float (max 1 u.drv.Driver.flushes) );
    ("driver.encode_ns_per_req", Trace.mean_total ds Trace.driver_encode);
    ("driver.decode_ns_per_reply", Trace.mean_total ds Trace.driver_decode);
    ("rpc.decode_ns_per_req", Trace.mean_total hs Trace.rpc_decode);
    ("rpc.reply_ns_per_req", Trace.mean_total hs Trace.rpc_reply);
    ( "live.frames_per_op",
      per_op u (float (sumi u (fun r -> r.Host.wire_frames))) );
    ( "live.step_self_ns_per_op",
      float serve.Host.self_ns /. float (max 1 host.Host.client_ops) );
    ( "live.idle_share",
      float (serve.Host.wall_ns - serve.Host.cpu_ns)
      /. float (max 1 serve.Host.wall_ns) );
    ("live.send_ns_per_frame", Trace.mean_total hs Trace.live_send);
    ("core.msgs_per_write", per_write um);
    ("core.ctl_bytes_per_write", per_write uc);
    ("core.payload_bytes_per_write", per_write up);
    ("core.read_ns", Trace.mean_total hs Trace.core_read);
    ("core.write_self_ns", self_per Trace.core_write);
    ("core.deliver_self_ns", self_per Trace.core_deliver);
    ( "session.segs_per_frame",
      let open Repro_transport.Session in
      float (sess u (fun s -> s.segs_sent))
      /. float (max 1 (sess u (fun s -> s.frames_sent - s.acks_sent))) );
    ( "session.acks_standalone_per_kop",
      per_op u
        (1000.0 *. float (sess u (fun s -> s.Repro_transport.Session.acks_sent)))
    );
    ( "session.overhead_bytes_per_op",
      per_op u (float (sumi u (fun r -> r.Host.overhead_bytes))) );
    ( "session.retransmits",
      float (sess u (fun s -> s.Repro_transport.Session.retransmits)) );
    ( "session.send_self_ns",
      float
        (hs.Trace.self_ns.(Trace.session_send)
        + hs.Trace.self_ns.(Trace.session_timer))
      /. float (max 1 hs.Trace.counts.(Trace.session_send)) );
    ("session.recv_self_ns", self_per Trace.session_recv);
    ( "node.cpu_us_per_op.front",
      per_op u (1e6 *. cpu_of (fun i -> Array.mem i Spec.front_doors)) );
    ( "node.cpu_us_per_op.replica",
      per_op u (1e6 *. cpu_of (fun i -> not (Array.mem i Spec.front_doors))) );
    ( "node.sys_share",
      sumf u (fun r -> r.Host.stime) /. Float.max 1e-9 (sumf u node_cpu) );
    ("node.minor_words_per_op", per_op u (sumf u (fun r -> r.Host.minor_words)));
    ( "node.major_gcs_per_kop",
      per_op u (1000.0 *. float (sumi u (fun r -> r.Host.major_gcs))) );
    ("trace.overhead.cpu_us_per_op", cpu_us_per_op t /. cpu_us_per_op u);
    ( "trace.overhead.lat_p50_us.busy",
      pct t.lat 50.0 /. pct u.lat 50.0 );
  ]

(* --- output -------------------------------------------------------------- *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics units =
  let body =
    List.map
      (fun (name, unit_) ->
        let v = List.assoc name metrics in
        let v = if Float.is_finite v then v else -1.0 in
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v)
          unit_)
      units
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " body)

(* --- command line -------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: dsmbench --workload NAME --seed N --seconds S --trace 0|1 \
     [--rate-scale F]\n\
    \       dsmbench schedule-digest --workload NAME --seed N --rate R --seconds S\n\
    \       dsmbench routing --workload NAME --seed N\n\
    \       dsmbench spec";
  exit 2

let flags args =
  let rec go acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = go [] args in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let float_opt k ~default =
    match List.assoc_opt k kv with
    | None -> default
    | Some v -> (match float_of_string_opt v with Some f -> f | None -> usage ())
  in
  let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  let float k =
    match float_of_string_opt (get k) with Some v -> v | None -> usage ()
  in
  let workload () =
    match Spec.find (get "workload") with
    | Some w -> w
    | None ->
        Printf.eprintf "dsmbench: unknown workload %s (known: %s)\n"
          (get "workload")
          (String.concat ", " (List.map (fun w -> w.Spec.name) Spec.workloads));
        exit 2
  in
  (get, int, float, workload, float_opt)

let bench args =
  let _, int, float, workload, float_opt = flags args in
  let w = workload () and seed = int "seed" and seconds = float "seconds" in
  let trace = int "trace" in
  (* --rate-scale shrinks every rate of the workload (smoke tests) *)
  let scale = float_opt "rate-scale" ~default:1.0 in
  if seconds <= 0.0 || scale <= 0.0 || (trace <> 0 && trace <> 1) then usage ();
  let w =
    { w with Spec.light = w.Spec.light *. scale; busy = w.Spec.busy *. scale;
      grid_lo = w.Spec.grid_lo *. scale }
  in
  let run, units =
    if trace = 0 then
      (end_to_end, List.map (fun (n, u, _) -> (n, u)) Spec.end_to_end)
    else (per_layer, List.map (fun (n, u, _, _, _) -> (n, u)) Spec.per_layer)
  in
  let metrics = run w ~seed ~seconds in
  let phases = !all_phases in
  let attempted = List.fold_left (fun a o -> a + o.sent) 0 phases in
  (* every op of a phase that failed the gate counts as failed *)
  let failed =
    List.fold_left (fun a o -> if o.errors <> [] then a + o.ops else a) 0 phases
  in
  let correct = List.for_all (fun o -> o.errors = []) phases in
  print_result ~correct ~attempted ~failed metrics units;
  if not correct then exit 1

let () =
  at_exit Fleet.kill_all;
  match List.tl (Array.to_list Sys.argv) with
  | "node" :: args ->
      let get, int, _, _, _ = flags args in
      let ports =
        String.split_on_char ',' (get "ports")
        |> List.map int_of_string |> Array.of_list
      in
      Fleet.node_main ~workload_name:(get "workload") ~self:(int "self")
        ~seed:(int "seed") ~ports ~traced:(int "traced" = 1)
  | "schedule-digest" :: args ->
      let _, int, float, workload, _ = flags args in
      let w = workload () in
      let s =
        Schedule.make ~dist:Spec.placement ~mix:w.Spec.mix ~rate:(float "rate")
          ~duration_s:(float "seconds") ~seed:(int "seed")
      in
      Printf.printf "%s %d\n" (Schedule.digest s) (Schedule.length s)
  | "routing" :: args ->
      let _, int, _, workload, _ = flags args in
      let w = workload () in
      let s =
        Schedule.make ~dist:Spec.placement ~mix:w.Spec.mix ~rate:w.Spec.busy
          ~duration_s:1.0 ~seed:(int "seed")
      in
      let bad = ref 0 in
      for i = 0 to Schedule.length s - 1 do
        let t = s.Schedule.target.(i) in
        if
          (not (Array.mem t Spec.front_doors))
          || not
               (Repro_sharegraph.Distribution.holds Spec.placement ~proc:t
                  ~var:s.Schedule.var.(i))
        then incr bad
      done;
      Printf.printf "%d ops, %d misrouted\n" (Schedule.length s) !bad;
      if !bad > 0 then exit 1
  | [ "spec" ] -> Spec.print_json ()
  | args -> (
      try bench args
      with e ->
        Printf.eprintf "dsmbench: %s\n" (Printexc.to_string e);
        Fleet.kill_all ();
        exit 1)
