(* Open-loop Poisson schedules, built from a seed before any node exists.

   Op [i] is due [due_ns.(i)] after the phase starts and goes to front
   door [target.(i)], a holder of [var.(i)] among nodes 0 and 1.  A write
   stores [value.(i) = i + 1], so a read's answer names the write it saw;
   reads have [value.(i) = 0]. *)

module Distribution = Repro_sharegraph.Distribution
module Rng = Repro_util.Rng

type t = {
  due_ns : int array;
  target : int array;
  var : int array;
  value : int array;
}

let length s = Array.length s.due_ns
let is_write s i = s.value.(i) > 0

(* Front-door holders of each variable. *)
let doors dist =
  Array.init (Distribution.n_vars dist) (fun x ->
      let hs =
        List.filter
          (fun p -> Array.mem p Spec.front_doors)
          (Distribution.holders dist x)
      in
      if hs = [] then
        invalid_arg (Printf.sprintf "variable %d has no front-door holder" x);
      Array.of_list hs)

let make ~dist ~(mix : Repro_loadgen.Mix.t) ~rate ~duration_s ~seed =
  if rate <= 0.0 then invalid_arg "Schedule.make: rate must be positive";
  let ops = Rng.create seed in
  (* arrivals draw from their own stream, so a copy can count them first *)
  let arrivals = Rng.split ops in
  let doors = doors dist in
  let mean_ns = 1e9 /. rate and horizon = duration_s *. 1e9 in
  let n =
    let a = Rng.copy arrivals in
    let rec count k t =
      let t = t +. Rng.exponential a mean_ns in
      if t < horizon then count (k + 1) t else k
    in
    count 0 0.0
  in
  let due_ns = Array.make n 0 and target = Array.make n 0 in
  let var = Array.make n 0 and value = Array.make n 0 in
  let clock = ref 0.0 in
  for i = 0 to n - 1 do
    clock := !clock +. Rng.exponential arrivals mean_ns;
    let x = Rng.int ops (Array.length doors) in
    due_ns.(i) <- int_of_float !clock;
    var.(i) <- x;
    target.(i) <- Rng.pick ops doors.(x);
    if Rng.float ops 1.0 >= mix.Repro_loadgen.Mix.read then value.(i) <- i + 1
  done;
  { due_ns; target; var; value }

(* Seed of one phase of a run: distinct phases draw distinct streams. *)
let phase_seed ~seed ~phase = (seed * 1_000_003) + (phase * 7_919) + 17

let digest s =
  Digest.to_hex
    (Digest.string (Marshal.to_string (s.due_ns, s.target, s.var, s.value) []))
