(* Spans the benchmark puts around calls into the layers' public
   functions.  A span is opened with [enter] and closed with [leave id];
   spans nest, and each closing span charges its whole duration to its
   parent's child time, so a span's self time is its duration minus the
   part of it its child spans cover.  Spans measure wall time, except
   those closed with [leave_cpu], whose duration is the thread CPU time
   the caller measured across them.  Aggregates live in preallocated
   arrays: entering and leaving a span allocates nothing. *)

let names =
  [|
    "live.step";
    "rpc.decode";
    "core.read";
    "core.write";
    "rpc.reply";
    "live.send";
    "session.recv";
    "session.timer";
    "session.send";
    "core.deliver";
    "core.timer";
    "driver.encode";
    "driver.decode";
  |]

let live_step = 0
let rpc_decode = 1
let core_read = 2
let core_write = 3
let rpc_reply = 4
let live_send = 5
let session_recv = 6
let session_timer = 7
let session_send = 8
let core_deliver = 9
let core_timer = 10
let driver_encode = 11
let driver_decode = 12
let n_ids = Array.length names

type snapshot = {
  counts : int array;  (** closed spans per id *)
  total_ns : int array;  (** summed durations *)
  self_ns : int array;  (** summed durations minus child time *)
}

let counts = Array.make n_ids 0
let total_ns = Array.make n_ids 0
let self_ns = Array.make n_ids 0
let wall_ns = Array.make n_ids 0
let max_depth = 64
let start_ns = Array.make max_depth 0
let child_ns = Array.make max_depth 0
let depth = ref 0

let reset () =
  Array.fill counts 0 n_ids 0;
  Array.fill total_ns 0 n_ids 0;
  Array.fill self_ns 0 n_ids 0;
  Array.fill wall_ns 0 n_ids 0;
  depth := 0

let enter () =
  let d = !depth in
  child_ns.(d) <- 0;
  depth := d + 1;
  start_ns.(d) <- Clock.now_ns ()

let close id ~dur ~wall =
  let d = !depth - 1 in
  depth := d;
  counts.(id) <- counts.(id) + 1;
  total_ns.(id) <- total_ns.(id) + dur;
  self_ns.(id) <- self_ns.(id) + dur - child_ns.(d);
  wall_ns.(id) <- wall_ns.(id) + wall;
  if d > 0 then child_ns.(d - 1) <- child_ns.(d - 1) + wall

let leave id =
  let wall = Clock.now_ns () - start_ns.(!depth - 1) in
  close id ~dur:wall ~wall

(* Close a span whose duration is [cpu_ns] of thread CPU time, so a wait
   in a poll or a spell descheduled inside it is not charged to it.  Its
   self time subtracts its children's wall time, which a descheduled
   spell inside a child inflates. *)
let leave_cpu id ~cpu_ns =
  let wall = Clock.now_ns () - start_ns.(!depth - 1) in
  close id ~dur:cpu_ns ~wall

let snapshot () =
  {
    counts = Array.copy counts;
    total_ns = Array.copy total_ns;
    self_ns = Array.copy self_ns;
  }

(* ns per closed span of [id] (0 when none closed) *)
let mean_total s id =
  if s.counts.(id) = 0 then 0.0
  else float_of_int s.total_ns.(id) /. float_of_int s.counts.(id)
