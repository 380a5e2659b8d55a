let time_bits = 31

let packed_limit = 1 lsl time_bits

let seq_mask = packed_limit - 1

type 'a t = {
  heap : 'a Intheap.t;  (* key: (time lsl 31) lor seq *)
  mutable wide : (int * int, 'a) Pqueue.t option;
      (* overflow fallback: explicit (time, seq) keys, same order *)
  mutable seq : int;
}

let create () = { heap = Intheap.create (); wide = None; seq = 0 }

let key_compare (t1, s1) (t2, s2) =
  let c = compare (t1 : int) t2 in
  if c <> 0 then c else compare (s1 : int) s2

let is_empty q =
  match q.wide with
  | None -> Intheap.is_empty q.heap
  | Some w -> Pqueue.is_empty w

let widen q =
  let w = Pqueue.create ~cmp:key_compare () in
  Intheap.iter q.heap (fun key v ->
      Pqueue.push w (key lsr time_bits, key land seq_mask) v);
  Intheap.clear q.heap;
  q.wide <- Some w;
  w

let push q time v =
  q.seq <- q.seq + 1;
  match q.wide with
  | Some w -> Pqueue.push w (time, q.seq) v
  | None ->
      if time < packed_limit && q.seq < packed_limit then
        Intheap.push q.heap ((time lsl time_bits) lor q.seq) v
      else Pqueue.push (widen q) (time, q.seq) v

let min_time q =
  match q.wide with
  | None -> Intheap.min_key q.heap lsr time_bits
  | Some w -> (
      match Pqueue.peek w with
      | Some ((time, _), _) -> time
      | None -> invalid_arg "Timeq.min_time: empty queue")

let pop_min q =
  match q.wide with
  | None -> Intheap.pop_min q.heap
  | Some w -> snd (Pqueue.pop_exn w)
