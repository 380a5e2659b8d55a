module Rng = Repro_util.Rng
module Timeq = Repro_util.Timeq
module Ringbuf = Repro_util.Ringbuf

type 'msg envelope = {
  src : int;
  dst : int;
  send_time : int;
  deliver_time : int;
  control_bytes : int;
  payload_bytes : int;
  msg : 'msg;
}

type 'msg event = Sent of 'msg envelope | Delivered of 'msg envelope | Dropped of 'msg envelope

type 'msg pending = Deliver of 'msg envelope | Timer of (unit -> unit)

type stats = {
  sent : int;
  delivered : int;
  dropped : int;
  duplicated : int;
  total_control_bytes : int;
  total_payload_bytes : int;
  retransmits : int;
  dups_suppressed : int;
  reconnects : int;
  overhead_bytes : int;
  per_node_sent : int array;
  per_node_received : int array;
}

type 'msg t = {
  n : int;
  latency : Latency.t;
  service_time : int;
  faults : Fault.t;
  rng : Rng.t;
  fault_rng : Rng.t;
      (* Dedicated stream for drop/duplicate decisions and duplicate-copy
         latencies, so enabling faults never perturbs the main stream's
         latency trajectory beyond the faults themselves. *)
  queue : 'msg pending Timeq.t;
      (* by delivery time; events due at the same time in push order *)
  mutable clock : int;
  handlers : ('msg envelope -> unit) array;
  fifo_horizon : int array array;
      (* fifo_horizon.(src).(dst): earliest delivery time that keeps the
         channel FIFO w.r.t. messages already scheduled. *)
  service_horizon : int array;
      (* service_horizon.(dst): earliest delivery time that respects the
         destination's service rate. *)
  (* accounting *)
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable control_bytes : int;
  mutable payload_bytes : int;
  node_sent : int array;
  node_received : int array;
  mutable tracing : bool;
  events : 'msg event Ringbuf.t;
}

let create ?(faults = Fault.none) ?(service_time = 0) ~n ~latency ~seed () =
  if n <= 0 then invalid_arg "Net.create: need at least one node";
  if service_time < 0 then invalid_arg "Net.create: negative service time";
  Fault.validate faults;
  let rng = Rng.create seed in
  {
    n;
    latency;
    service_time;
    faults;
    rng;
    fault_rng = Rng.split (Rng.copy rng);
    queue = Timeq.create ();
    clock = 0;
    handlers = Array.make n (fun _ -> ());
    fifo_horizon = Array.make_matrix n n 0;
    service_horizon = Array.make n 0;
    sent = 0;
    delivered = 0;
    dropped = 0;
    duplicated = 0;
    control_bytes = 0;
    payload_bytes = 0;
    node_sent = Array.make n 0;
    node_received = Array.make n 0;
    tracing = false;
    events = Ringbuf.create ();
  }

let n_nodes t = t.n

let now t = t.clock

let set_handler t node f =
  if node < 0 || node >= t.n then invalid_arg "Net.set_handler: bad node";
  t.handlers.(node) <- f

(* Call sites guard on [t.tracing] BEFORE building the event, so tracing
   costs one branch — no allocation — when off. *)
let record t event = Ringbuf.push_back t.events event

let schedule_delivery t envelope =
  let deliver_time =
    if t.faults.Fault.reorder then envelope.deliver_time
    else begin
      (* Clamp to the channel horizon so per-link delivery order matches
         send order, then advance the horizon past this message. *)
      let horizon = t.fifo_horizon.(envelope.src).(envelope.dst) in
      let time = Stdlib.max envelope.deliver_time horizon in
      t.fifo_horizon.(envelope.src).(envelope.dst) <- time + 1;
      time
    end
  in
  let deliver_time =
    if t.service_time = 0 then deliver_time
    else begin
      (* queue at the destination: one delivery per service interval *)
      let time = Stdlib.max deliver_time t.service_horizon.(envelope.dst) in
      t.service_horizon.(envelope.dst) <- time + t.service_time;
      time
    end
  in
  let envelope =
    if deliver_time = envelope.deliver_time then envelope
    else { envelope with deliver_time }
  in
  Timeq.push t.queue deliver_time (Deliver envelope)

let send t ~src ~dst ?(control_bytes = 0) ?(payload_bytes = 0) msg =
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
    invalid_arg "Net.send: bad endpoint";
  let latency = Latency.sample t.latency t.rng ~src ~dst in
  let envelope =
    {
      src;
      dst;
      send_time = t.clock;
      deliver_time = t.clock + latency;
      control_bytes;
      payload_bytes;
      msg;
    }
  in
  t.sent <- t.sent + 1;
  t.node_sent.(src) <- t.node_sent.(src) + 1;
  t.control_bytes <- t.control_bytes + control_bytes;
  t.payload_bytes <- t.payload_bytes + payload_bytes;
  if t.tracing then record t (Sent envelope);
  (* The drop/duplicate coins used to come from the main stream, one draw
     each, unconditionally.  Fault decisions now live on [fault_rng], but
     the two legacy draws are kept so the seeded latency trajectory — and
     with it every fault-free golden digest — stays byte-identical. *)
  let _ = Rng.float t.rng 1.0 in
  let _ = Rng.float t.rng 1.0 in
  if Rng.coin t.fault_rng t.faults.Fault.drop then begin
    t.dropped <- t.dropped + 1;
    if t.tracing then record t (Dropped envelope)
  end
  else begin
    schedule_delivery t envelope;
    if Rng.coin t.fault_rng t.faults.Fault.duplicate then begin
      t.duplicated <- t.duplicated + 1;
      let extra = Latency.sample t.latency t.fault_rng ~src ~dst in
      schedule_delivery t { envelope with deliver_time = t.clock + extra }
    end
  end

let at t ~delay f =
  if delay < 0 then invalid_arg "Net.at: negative delay";
  Timeq.push t.queue (t.clock + delay) (Timer f)

let dispatch t time pending =
  t.clock <- Stdlib.max t.clock time;
  match pending with
  | Timer f -> f ()
  | Deliver envelope ->
      t.delivered <- t.delivered + 1;
      t.node_received.(envelope.dst) <- t.node_received.(envelope.dst) + 1;
      if t.tracing then record t (Delivered envelope);
      t.handlers.(envelope.dst) envelope

let step t =
  if Timeq.is_empty t.queue then false
  else begin
    let time = Timeq.min_time t.queue in
    let pending = Timeq.pop_min t.queue in
    dispatch t time pending;
    true
  end

(* Earliest pending event time, or min_int when the queue is empty. *)
let next_time t =
  if Timeq.is_empty t.queue then min_int else Timeq.min_time t.queue

let run ?(max_events = 10_000_000) t =
  let rec loop budget =
    if budget = 0 then
      failwith "Net.run: event budget exhausted (livelock or unbounded polling?)"
    else if step t then loop (budget - 1)
  in
  loop max_events

let run_until ?(max_events = 10_000_000) t deadline =
  let rec loop budget =
    if next_time t <> min_int && next_time t <= deadline then begin
      if budget = 0 then
        failwith
          "Net.run_until: event budget exhausted (livelock or unbounded polling?)";
      ignore (step t);
      loop (budget - 1)
    end
  in
  loop max_events;
  t.clock <- Stdlib.max t.clock deadline

let stats t =
  {
    sent = t.sent;
    delivered = t.delivered;
    dropped = t.dropped;
    duplicated = t.duplicated;
    total_control_bytes = t.control_bytes;
    total_payload_bytes = t.payload_bytes;
    retransmits = 0;
    dups_suppressed = 0;
    reconnects = 0;
    overhead_bytes = 0;
    per_node_sent = Array.copy t.node_sent;
    per_node_received = Array.copy t.node_received;
  }

let set_tracing t flag = t.tracing <- flag

let trace t = Ringbuf.to_list t.events
