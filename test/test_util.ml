(* Tests for Repro_util: rng, pqueue, bitset, union_find, stats, table,
   graph, flow. *)

module Rng = Repro_util.Rng
module Pqueue = Repro_util.Pqueue
module Intheap = Repro_util.Intheap
module Ringbuf = Repro_util.Ringbuf
module Bitset = Repro_util.Bitset
module Union_find = Repro_util.Union_find
module Stats = Repro_util.Stats
module Table = Repro_util.Table
module Graph = Repro_util.Graph
module Flow = Repro_util.Flow

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* --- rng ----------------------------------------------------------------- *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_different_seeds () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let different = ref false in
  for _ = 1 to 10 do
    if not (Int64.equal (Rng.next_int64 a) (Rng.next_int64 b)) then different := true
  done;
  check Alcotest.bool "streams differ" true !different

let test_rng_copy_independent () =
  let a = Rng.create 7 in
  let b = Rng.copy a in
  let va = Rng.next_int64 a in
  let vb = Rng.next_int64 b in
  check Alcotest.int64 "copy continues the same stream" va vb

let test_rng_split_changes_parent () =
  let a = Rng.create 7 and b = Rng.create 7 in
  let _child = Rng.split a in
  (* a advanced past b *)
  check Alcotest.bool "split advances parent" false
    (Int64.equal (Rng.next_int64 a) (Rng.next_int64 b))

let test_rng_int_bounds =
  qcheck
    (QCheck.Test.make ~name:"rng_int_in_bounds" ~count:500
       QCheck.(pair small_int (int_range 1 1000))
       (fun (seed, bound) ->
         let g = Rng.create seed in
         let v = Rng.int g bound in
         v >= 0 && v < bound))

let test_rng_int_in_bounds =
  qcheck
    (QCheck.Test.make ~name:"rng_int_in_inclusive" ~count:500
       QCheck.(triple small_int (int_range (-50) 50) (int_range 0 100))
       (fun (seed, lo, span) ->
         let g = Rng.create seed in
         let v = Rng.int_in g lo (lo + span) in
         v >= lo && v <= lo + span))

let test_rng_int_rejects () =
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int (Rng.create 0) 0))

let test_rng_uniformity () =
  (* crude chi-square-ish sanity: each of 8 buckets within 3x of expected *)
  let g = Rng.create 123 in
  let buckets = Array.make 8 0 in
  let draws = 8000 in
  for _ = 1 to draws do
    let v = Rng.int g 8 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iteri
    (fun i count ->
      if count < 700 || count > 1300 then
        Alcotest.failf "bucket %d has suspicious count %d" i count)
    buckets

let test_rng_shuffle_permutation () =
  let g = Rng.create 99 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check Alcotest.(array int) "permutation" (Array.init 50 Fun.id) sorted

let test_rng_sample_without_replacement =
  qcheck
    (QCheck.Test.make ~name:"sample_without_replacement" ~count:200
       QCheck.(triple small_int (int_range 0 20) (int_range 0 30))
       (fun (seed, k, extra) ->
         let n = k + extra in
         let g = Rng.create seed in
         let sample = Rng.sample_without_replacement g k n in
         List.length sample = k
         && List.sort_uniq compare sample = sample
         && List.for_all (fun v -> v >= 0 && v < n) sample))

let test_rng_coin_extremes () =
  let g = Rng.create 5 in
  for _ = 1 to 50 do
    check Alcotest.bool "p=0 never" false (Rng.coin g 0.0)
  done;
  for _ = 1 to 50 do
    check Alcotest.bool "p=1 always" true (Rng.coin g 1.0)
  done

(* --- pqueue -------------------------------------------------------------- *)

let test_pqueue_basic () =
  let q = Pqueue.create ~cmp:compare () in
  check Alcotest.bool "empty" true (Pqueue.is_empty q);
  Pqueue.push q 3 "c";
  Pqueue.push q 1 "a";
  Pqueue.push q 2 "b";
  check Alcotest.int "length" 3 (Pqueue.length q);
  check Alcotest.(option (pair int string)) "peek" (Some (1, "a")) (Pqueue.peek q);
  check Alcotest.(option (pair int string)) "pop1" (Some (1, "a")) (Pqueue.pop q);
  check Alcotest.(option (pair int string)) "pop2" (Some (2, "b")) (Pqueue.pop q);
  check Alcotest.(option (pair int string)) "pop3" (Some (3, "c")) (Pqueue.pop q);
  check Alcotest.(option (pair int string)) "pop empty" None (Pqueue.pop q)

let test_pqueue_pop_exn_empty () =
  let q : (int, unit) Pqueue.t = Pqueue.create ~cmp:compare () in
  Alcotest.check_raises "pop_exn" (Invalid_argument "Pqueue.pop_exn: empty queue")
    (fun () -> ignore (Pqueue.pop_exn q))

let test_pqueue_sorts =
  qcheck
    (QCheck.Test.make ~name:"pqueue_drains_sorted" ~count:300
       QCheck.(list int)
       (fun keys ->
         let q = Pqueue.create ~cmp:compare () in
         List.iter (fun k -> Pqueue.push q k k) keys;
         let rec drain acc =
           match Pqueue.pop q with None -> List.rev acc | Some (k, _) -> drain (k :: acc)
         in
         drain [] = List.sort compare keys))

let test_pqueue_to_sorted_list_preserves () =
  let q = Pqueue.create ~cmp:compare () in
  List.iter (fun k -> Pqueue.push q k k) [ 5; 1; 4; 2 ];
  let listed = Pqueue.to_sorted_list q in
  check Alcotest.int "queue untouched" 4 (Pqueue.length q);
  check
    Alcotest.(list (pair int int))
    "sorted"
    [ (1, 1); (2, 2); (4, 4); (5, 5) ]
    listed

let test_pqueue_stability_via_composite_keys () =
  (* the scheduler relies on (time, seq) keys for deterministic FIFO ties *)
  let q = Pqueue.create ~cmp:compare () in
  Pqueue.push q (5, 0) "first";
  Pqueue.push q (5, 1) "second";
  Pqueue.push q (5, 2) "third";
  check Alcotest.(option (pair (pair int int) string)) "tie order" (Some ((5, 0), "first"))
    (Pqueue.pop q);
  check Alcotest.(option (pair (pair int int) string)) "tie order" (Some ((5, 1), "second"))
    (Pqueue.pop q)

let test_pqueue_clear () =
  let q = Pqueue.create ~cmp:compare () in
  Pqueue.push q 1 ();
  Pqueue.clear q;
  check Alcotest.bool "cleared" true (Pqueue.is_empty q)

let test_pqueue_growth_and_clear () =
  let q = Pqueue.create ~cmp:compare () in
  for i = 49 downto 0 do
    Pqueue.push q i i
  done;
  check Alcotest.int "length after growth" 50 (Pqueue.length q);
  check
    Alcotest.(list (pair int int))
    "sorted across growth"
    (List.init 50 (fun i -> (i, i)))
    (Pqueue.to_sorted_list q);
  ignore (Pqueue.pop q);
  ignore (Pqueue.pop q);
  (* only live bindings are listed, not stale slots left by pops *)
  check Alcotest.int "after pops" 48 (List.length (Pqueue.to_sorted_list q));
  Pqueue.clear q;
  check Alcotest.(list (pair int int)) "cleared lists empty" []
    (Pqueue.to_sorted_list q);
  Pqueue.push q 9 9;
  check Alcotest.(option (pair int int)) "usable after clear" (Some (9, 9))
    (Pqueue.pop q)

(* --- intheap ------------------------------------------------------------- *)

let test_intheap_basic () =
  let h = Intheap.create () in
  check Alcotest.bool "empty" true (Intheap.is_empty h);
  check Alcotest.(option (pair int string)) "peek empty" None (Intheap.peek h);
  check Alcotest.(option (pair int string)) "pop empty" None (Intheap.pop h);
  Intheap.push h 3 "c";
  Intheap.push h 1 "a";
  Intheap.push h 2 "b";
  check Alcotest.int "length" 3 (Intheap.length h);
  check Alcotest.int "min_key" 1 (Intheap.min_key h);
  check Alcotest.(option (pair int string)) "peek" (Some (1, "a")) (Intheap.peek h);
  check Alcotest.string "pop1" "a" (Intheap.pop_min h);
  check Alcotest.(option (pair int string)) "pop2" (Some (2, "b")) (Intheap.pop h);
  check Alcotest.string "pop3" "c" (Intheap.pop_min h);
  check Alcotest.bool "drained" true (Intheap.is_empty h)

let test_intheap_growth_and_clear () =
  let h = Intheap.create () in
  for i = 99 downto 0 do
    Intheap.push h i i
  done;
  check Alcotest.int "length after growth" 100 (Intheap.length h);
  check
    Alcotest.(list (pair int int))
    "to_sorted_list"
    (List.init 100 (fun i -> (i, i)))
    (Intheap.to_sorted_list h);
  check Alcotest.int "to_sorted_list preserves" 100 (Intheap.length h);
  for i = 0 to 99 do
    check Alcotest.int "min_key in order" i (Intheap.min_key h);
    check Alcotest.int "pop_min in order" i (Intheap.pop_min h)
  done;
  Alcotest.check_raises "min_key empty"
    (Invalid_argument "Intheap.min_key: empty heap") (fun () ->
      ignore (Intheap.min_key h));
  Alcotest.check_raises "pop_min empty"
    (Invalid_argument "Intheap.pop_min: empty heap") (fun () ->
      ignore (Intheap.pop_min h));
  Intheap.push h 7 7;
  Intheap.push h 4 4;
  Intheap.clear h;
  check Alcotest.bool "cleared" true (Intheap.is_empty h);
  Intheap.push h 3 30;
  Intheap.push h 1 10;
  check Alcotest.int "usable after clear" 10 (Intheap.pop_min h)

(* The scheduler packs (time, seq) into (time lsl 31) lor seq; popping the
   packed keys from an Intheap must reproduce the order the generic Pqueue
   gives the unpacked tuples, including at the top of the packable time
   range where the Net engine switches to widened keys. *)
let test_intheap_matches_pqueue =
  qcheck
    (QCheck.Test.make ~name:"intheap_matches_tuple_pqueue" ~count:300
       QCheck.(list (pair bool (int_bound ((1 lsl 31) - 1))))
       (fun draws ->
         let times =
           List.map
             (fun (boundary, raw) ->
               if boundary then ((1 lsl 31) - 1) - (raw land 0x3) else raw)
             draws
         in
         let h = Intheap.create () in
         let q = Pqueue.create ~cmp:compare () in
         List.iteri
           (fun seq time ->
             Intheap.push h ((time lsl 31) lor seq) seq;
             Pqueue.push q (time, seq) seq)
           times;
         let rec drain_h acc =
           match Intheap.pop h with
           | None -> List.rev acc
           | Some (_, v) -> drain_h (v :: acc)
         in
         let rec drain_q acc =
           match Pqueue.pop q with
           | None -> List.rev acc
           | Some (_, v) -> drain_q (v :: acc)
         in
         drain_h [] = drain_q []))

(* Timeq drains as a stable sort by time, before and after the first time
   past 2^31 moves it off packed keys. *)
let test_timeq_stable_sort =
  qcheck
    (QCheck.Test.make ~name:"timeq_is_a_stable_sort_by_time" ~count:300
       QCheck.(list (pair (int_bound 2) (int_bound 7)))
       (fun draws ->
         let times =
           List.map
             (fun (range, raw) ->
               match range with
               | 0 -> raw
               | 1 -> (1 lsl 31) - 1 - (raw land 1)
               | _ -> (1 lsl 31) + raw)
             draws
         in
         let q = Repro_util.Timeq.create () in
         List.iteri (fun i time -> Repro_util.Timeq.push q time i) times;
         let rec drain acc =
           if Repro_util.Timeq.is_empty q then List.rev acc
           else
             let time = Repro_util.Timeq.min_time q in
             let i = Repro_util.Timeq.pop_min q in
             drain ((time, i) :: acc)
         in
         drain []
         = List.stable_sort
             (fun (a, _) (b, _) -> compare a b)
             (List.mapi (fun i time -> (time, i)) times)))

(* --- ringbuf ------------------------------------------------------------- *)

let test_ringbuf_fifo_growth () =
  let r = Ringbuf.create () in
  check Alcotest.bool "empty" true (Ringbuf.is_empty r);
  check Alcotest.(option int) "peek empty" None (Ringbuf.peek_front r);
  check Alcotest.(option int) "pop empty" None (Ringbuf.pop_front r);
  (* interleave pushes and pops so the window wraps across a grow *)
  for i = 0 to 4 do
    Ringbuf.push_back r i
  done;
  for i = 0 to 2 do
    check Alcotest.(option int) "fifo" (Some i) (Ringbuf.pop_front r)
  done;
  for i = 5 to 24 do
    Ringbuf.push_back r i
  done;
  check Alcotest.int "length" 22 (Ringbuf.length r);
  check Alcotest.(option int) "peek" (Some 3) (Ringbuf.peek_front r);
  check
    Alcotest.(list int)
    "order across wrap and growth"
    (List.init 22 (fun i -> i + 3))
    (Ringbuf.to_list r);
  Ringbuf.clear r;
  check Alcotest.bool "cleared" true (Ringbuf.is_empty r);
  Ringbuf.push_back r 99;
  check Alcotest.(option int) "usable after clear" (Some 99) (Ringbuf.pop_front r)

(* --- bitset -------------------------------------------------------------- *)

let test_bitset_basic () =
  let s = Bitset.create 70 in
  check Alcotest.bool "empty" true (Bitset.is_empty s);
  Bitset.add s 0;
  Bitset.add s 69;
  Bitset.add s 8;
  check Alcotest.bool "mem 0" true (Bitset.mem s 0);
  check Alcotest.bool "mem 69" true (Bitset.mem s 69);
  check Alcotest.bool "mem 1" false (Bitset.mem s 1);
  check Alcotest.int "cardinal" 3 (Bitset.cardinal s);
  Bitset.remove s 8;
  check Alcotest.bool "removed" false (Bitset.mem s 8);
  check Alcotest.(list int) "elements" [ 0; 69 ] (Bitset.elements s)

let test_bitset_bounds () =
  let s = Bitset.create 10 in
  Alcotest.check_raises "oob" (Invalid_argument "Bitset: index out of bounds") (fun () ->
      Bitset.add s 10)

let test_bitset_set_ops =
  qcheck
    (QCheck.Test.make ~name:"bitset_set_algebra" ~count:300
       QCheck.(pair (list (int_bound 63)) (list (int_bound 63)))
       (fun (xs, ys) ->
         let module IS = Set.Make (Int) in
         let sa = IS.of_list xs and sb = IS.of_list ys in
         let a = Bitset.of_list 64 xs and b = Bitset.of_list 64 ys in
         Bitset.elements (Bitset.union a b) = IS.elements (IS.union sa sb)
         && Bitset.elements (Bitset.inter a b) = IS.elements (IS.inter sa sb)
         && Bitset.subset a b = IS.subset sa sb
         && Bitset.disjoint a b = IS.disjoint sa sb
         && Bitset.cardinal a = IS.cardinal sa))

let test_bitset_diff () =
  let a = Bitset.of_list 16 [ 1; 2; 3; 4 ] in
  let b = Bitset.of_list 16 [ 2; 4; 8 ] in
  Bitset.diff_into ~dst:a b;
  check Alcotest.(list int) "diff" [ 1; 3 ] (Bitset.elements a)

let test_bitset_copy_independent () =
  let a = Bitset.of_list 8 [ 1 ] in
  let b = Bitset.copy a in
  Bitset.add b 2;
  check Alcotest.bool "original untouched" false (Bitset.mem a 2)

let test_bitset_capacity_mismatch () =
  let a = Bitset.create 8 and b = Bitset.create 9 in
  Alcotest.check_raises "mismatch" (Invalid_argument "Bitset: capacity mismatch")
    (fun () -> Bitset.union_into ~dst:a b)

(* --- union find ---------------------------------------------------------- *)

let test_union_find_basic () =
  let uf = Union_find.create 6 in
  check Alcotest.int "classes" 6 (Union_find.n_classes uf);
  Union_find.union uf 0 1;
  Union_find.union uf 2 3;
  Union_find.union uf 1 2;
  check Alcotest.bool "same 0 3" true (Union_find.same uf 0 3);
  check Alcotest.bool "not same 0 4" false (Union_find.same uf 0 4);
  check Alcotest.int "classes after" 3 (Union_find.n_classes uf);
  check
    Alcotest.(list (list int))
    "partition"
    [ [ 0; 1; 2; 3 ]; [ 4 ]; [ 5 ] ]
    (Union_find.classes uf)

let test_union_find_idempotent () =
  let uf = Union_find.create 3 in
  Union_find.union uf 0 1;
  Union_find.union uf 0 1;
  Union_find.union uf 1 0;
  check Alcotest.int "classes" 2 (Union_find.n_classes uf)

(* --- stats --------------------------------------------------------------- *)

let test_stats_basic () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  check Alcotest.int "count" 4 (Stats.count s);
  check (Alcotest.float 1e-9) "mean" 2.5 (Stats.mean s);
  check (Alcotest.float 1e-9) "total" 10.0 (Stats.total s);
  check (Alcotest.float 1e-9) "min" 1.0 (Stats.min s);
  check (Alcotest.float 1e-9) "max" 4.0 (Stats.max s);
  check (Alcotest.float 1e-6) "variance" (5.0 /. 3.0) (Stats.variance s);
  check (Alcotest.float 1e-9) "median" 2.5 (Stats.percentile s 50.0)

let test_stats_empty () =
  let s = Stats.create () in
  check (Alcotest.float 0.0) "mean of empty" 0.0 (Stats.mean s);
  Alcotest.check_raises "min empty" (Invalid_argument "Stats.min: empty accumulator")
    (fun () -> ignore (Stats.min s))

let test_stats_percentile_extremes () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 5.0; 1.0; 3.0 ];
  check (Alcotest.float 1e-9) "p0" 1.0 (Stats.percentile s 0.0);
  check (Alcotest.float 1e-9) "p100" 5.0 (Stats.percentile s 100.0)

let test_stats_merge =
  qcheck
    (QCheck.Test.make ~name:"stats_merge_matches_concat" ~count:200
       QCheck.(pair (list (float_bound_exclusive 100.0)) (list (float_bound_exclusive 100.0)))
       (fun (xs, ys) ->
         let build values =
           let s = Stats.create () in
           List.iter (Stats.add s) values;
           s
         in
         let merged = Stats.merge (build xs) (build ys) in
         let direct = build (xs @ ys) in
         Stats.count merged = Stats.count direct
         && abs_float (Stats.mean merged -. Stats.mean direct) < 1e-9))

let test_stats_welford_matches_naive () =
  let s = Stats.create () in
  let values = List.init 100 (fun i -> float_of_int ((i * 37 mod 19) - 9)) in
  List.iter (Stats.add s) values;
  let n = float_of_int (List.length values) in
  let mean = List.fold_left ( +. ) 0.0 values /. n in
  let var =
    List.fold_left (fun acc v -> acc +. ((v -. mean) ** 2.0)) 0.0 values /. (n -. 1.0)
  in
  check (Alcotest.float 1e-6) "variance" var (Stats.variance s)

(* --- table --------------------------------------------------------------- *)

let test_table_render () =
  let out =
    Table.render ~header:[ "name"; "n" ] ~rows:[ [ "a"; "1" ]; [ "long"; "22" ] ] ()
  in
  let lines = String.split_on_char '\n' out in
  check Alcotest.int "line count (incl. trailing)" 5 (List.length lines);
  check Alcotest.string "header" "name  n" (List.nth lines 0);
  check Alcotest.string "rule" "----  --" (List.nth lines 1);
  check Alcotest.string "row" "a     1" (List.nth lines 2)

let test_table_right_align () =
  let out =
    Table.render ~aligns:[ Table.Left; Table.Right ] ~header:[ "k"; "v" ]
      ~rows:[ [ "a"; "1" ]; [ "b"; "22" ] ]
      ()
  in
  check Alcotest.bool "right aligned" true
    (String.length out > 0
    &&
    let lines = String.split_on_char '\n' out in
    List.nth lines 2 = "a   1")

let test_table_ragged_rows () =
  let out = Table.render ~header:[ "a"; "b"; "c" ] ~rows:[ [ "1" ] ] () in
  check Alcotest.bool "no exception, padded" true (String.length out > 0)

let test_fmt_helpers () =
  check Alcotest.string "float" "3.14" (Table.fmt_float ~decimals:2 3.14159);
  check Alcotest.string "ratio" "2.00x" (Table.fmt_ratio 4.0 2.0);
  check Alcotest.string "ratio inf" "inf" (Table.fmt_ratio 4.0 0.0);
  check Alcotest.string "bytes small" "512 B" (Table.fmt_bytes 512);
  check Alcotest.string "bytes kib" "4.0 KiB" (Table.fmt_bytes 4096)

(* --- graph --------------------------------------------------------------- *)

let test_graph_basic () =
  let g = Graph.create 4 in
  Graph.add_edge g 0 1;
  Graph.add_edge g 1 2;
  Graph.add_edge g 0 1;
  (* duplicate ignored *)
  check Alcotest.int "edges" 2 (Graph.n_edges g);
  check Alcotest.bool "mem" true (Graph.mem_edge g 0 1);
  check Alcotest.bool "not mem" false (Graph.mem_edge g 1 0);
  check Alcotest.(list int) "succ" [ 1 ] (Graph.succ g 0)

let test_graph_closure () =
  let g = Graph.create 4 in
  Graph.add_edge g 0 1;
  Graph.add_edge g 1 2;
  Graph.add_edge g 2 3;
  let c = Graph.transitive_closure g in
  check Alcotest.bool "0->3" true (Graph.mem_edge c 0 3);
  check Alcotest.bool "3->0 absent" false (Graph.mem_edge c 3 0);
  check Alcotest.bool "0->0 absent" false (Graph.mem_edge c 0 0)

let test_graph_cycle_detection () =
  let g = Graph.create 3 in
  Graph.add_edge g 0 1;
  Graph.add_edge g 1 2;
  check Alcotest.bool "acyclic" true (Graph.is_acyclic g);
  Graph.add_edge g 2 0;
  check Alcotest.bool "cyclic" false (Graph.is_acyclic g);
  check Alcotest.(option (list int)) "no topo order" None (Graph.topological_sort g)

let test_graph_toposort_deterministic () =
  let g = Graph.create 5 in
  Graph.add_edge g 4 2;
  Graph.add_edge g 3 2;
  Graph.add_edge g 2 0;
  check
    Alcotest.(option (list int))
    "smallest-first order"
    (Some [ 1; 3; 4; 2; 0 ])
    (Graph.topological_sort g)

let test_graph_transitive_reduction () =
  let g = Graph.create 3 in
  Graph.add_edge g 0 1;
  Graph.add_edge g 1 2;
  Graph.add_edge g 0 2;
  (* redundant *)
  check
    Alcotest.(list (pair int int))
    "reduction drops 0->2"
    [ (0, 1); (1, 2) ]
    (Graph.transitive_reduction_edges g)

let test_graph_simple_paths () =
  let g = Graph.create 4 in
  Graph.add_edge g 0 1;
  Graph.add_edge g 1 3;
  Graph.add_edge g 0 2;
  Graph.add_edge g 2 3;
  let paths = Graph.simple_paths g ~src:0 ~dst:3 in
  check Alcotest.int "two paths" 2 (List.length paths);
  check Alcotest.bool "both end at 3" true
    (List.for_all (fun p -> List.nth p (List.length p - 1) = 3) paths)

let test_graph_simple_paths_cycle_self () =
  let g = Graph.create 3 in
  Graph.add_edge g 0 1;
  Graph.add_edge g 1 0;
  let paths = Graph.simple_paths g ~src:0 ~dst:0 in
  check Alcotest.(list (list int)) "cycle back to self" [ [ 0; 1; 0 ] ] paths

let test_graph_components () =
  let g = Graph.create 5 in
  Graph.add_undirected_edge g 0 1;
  Graph.add_undirected_edge g 2 3;
  check
    Alcotest.(list (list int))
    "components"
    [ [ 0; 1 ]; [ 2; 3 ]; [ 4 ] ]
    (Graph.components g)

let test_graph_closure_matches_paths =
  qcheck
    (QCheck.Test.make ~name:"closure_agrees_with_has_path" ~count:100
       QCheck.(list (pair (int_bound 7) (int_bound 7)))
       (fun edges ->
         let g = Graph.create 8 in
         List.iter (fun (u, v) -> Graph.add_edge g u v) edges;
         let c = Graph.transitive_closure g in
         List.for_all
           (fun u ->
             List.for_all
               (fun v -> Graph.mem_edge c u v = Graph.has_path g u v)
               (List.init 8 Fun.id))
           (List.init 8 Fun.id)))

let test_graph_union_mismatch () =
  Alcotest.check_raises "mismatch" (Invalid_argument "Graph.union: size mismatch")
    (fun () -> ignore (Graph.union (Graph.create 2) (Graph.create 3)))

let test_graph_reduction_cyclic () =
  let g = Graph.create 2 in
  Graph.add_edge g 0 1;
  Graph.add_edge g 1 0;
  Alcotest.check_raises "cyclic"
    (Invalid_argument "Graph.transitive_reduction_edges: cyclic") (fun () ->
      ignore (Graph.transitive_reduction_edges g))

let test_bitset_of_list_oob () =
  Alcotest.check_raises "oob" (Invalid_argument "Bitset: index out of bounds")
    (fun () -> ignore (Bitset.of_list 2 [ 5 ]))

let test_stats_percentile_range () =
  let s = Stats.create () in
  Stats.add s 1.0;
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Stats.percentile: p out of range") (fun () ->
      ignore (Stats.percentile s 101.0))

let test_rng_pick_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Rng.pick: empty array") (fun () ->
      ignore (Rng.pick (Rng.create 0) [||]))

(* --- flow ---------------------------------------------------------------- *)

let test_flow_simple () =
  let f = Flow.create 4 in
  Flow.add_edge f ~src:0 ~dst:1 ~cap:3;
  Flow.add_edge f ~src:0 ~dst:2 ~cap:2;
  Flow.add_edge f ~src:1 ~dst:3 ~cap:2;
  Flow.add_edge f ~src:2 ~dst:3 ~cap:3;
  check Alcotest.int "max flow" 4 (Flow.max_flow f ~source:0 ~sink:3)

let test_flow_bottleneck () =
  let f = Flow.create 3 in
  Flow.add_edge f ~src:0 ~dst:1 ~cap:10;
  Flow.add_edge f ~src:1 ~dst:2 ~cap:1;
  check Alcotest.int "bottleneck" 1 (Flow.max_flow f ~source:0 ~sink:2)

let test_flow_disconnected () =
  let f = Flow.create 3 in
  Flow.add_edge f ~src:0 ~dst:1 ~cap:5;
  check Alcotest.int "no path" 0 (Flow.max_flow f ~source:0 ~sink:2)

let test_flow_needs_residual () =
  (* classic case where an augmenting path must push flow back *)
  let f = Flow.create 4 in
  Flow.add_edge f ~src:0 ~dst:1 ~cap:1;
  Flow.add_edge f ~src:0 ~dst:2 ~cap:1;
  Flow.add_edge f ~src:1 ~dst:2 ~cap:1;
  Flow.add_edge f ~src:1 ~dst:3 ~cap:1;
  Flow.add_edge f ~src:2 ~dst:3 ~cap:1;
  check Alcotest.int "flow 2" 2 (Flow.max_flow f ~source:0 ~sink:3)

let () =
  Alcotest.run "repro_util"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "different seeds" `Quick test_rng_different_seeds;
          Alcotest.test_case "copy independent" `Quick test_rng_copy_independent;
          Alcotest.test_case "split advances parent" `Quick test_rng_split_changes_parent;
          test_rng_int_bounds;
          test_rng_int_in_bounds;
          Alcotest.test_case "int rejects bad bound" `Quick test_rng_int_rejects;
          Alcotest.test_case "uniformity" `Quick test_rng_uniformity;
          Alcotest.test_case "shuffle is a permutation" `Quick test_rng_shuffle_permutation;
          test_rng_sample_without_replacement;
          Alcotest.test_case "coin extremes" `Quick test_rng_coin_extremes;
          Alcotest.test_case "pick empty" `Quick test_rng_pick_empty;
        ] );
      ( "pqueue",
        [
          Alcotest.test_case "basic order" `Quick test_pqueue_basic;
          Alcotest.test_case "pop_exn empty" `Quick test_pqueue_pop_exn_empty;
          test_pqueue_sorts;
          Alcotest.test_case "to_sorted_list preserves" `Quick
            test_pqueue_to_sorted_list_preserves;
          Alcotest.test_case "composite keys break ties" `Quick
            test_pqueue_stability_via_composite_keys;
          Alcotest.test_case "clear" `Quick test_pqueue_clear;
          Alcotest.test_case "growth and clear bounds" `Quick
            test_pqueue_growth_and_clear;
        ] );
      ( "intheap",
        [
          Alcotest.test_case "basic order" `Quick test_intheap_basic;
          Alcotest.test_case "growth and clear bounds" `Quick
            test_intheap_growth_and_clear;
          test_intheap_matches_pqueue;
          test_timeq_stable_sort;
        ] );
      ( "ringbuf",
        [ Alcotest.test_case "fifo across growth" `Quick test_ringbuf_fifo_growth ] );
      ( "bitset",
        [
          Alcotest.test_case "basic" `Quick test_bitset_basic;
          Alcotest.test_case "bounds" `Quick test_bitset_bounds;
          test_bitset_set_ops;
          Alcotest.test_case "diff" `Quick test_bitset_diff;
          Alcotest.test_case "copy independent" `Quick test_bitset_copy_independent;
          Alcotest.test_case "capacity mismatch" `Quick test_bitset_capacity_mismatch;
          Alcotest.test_case "of_list out of bounds" `Quick test_bitset_of_list_oob;
        ] );
      ( "union_find",
        [
          Alcotest.test_case "basic" `Quick test_union_find_basic;
          Alcotest.test_case "idempotent" `Quick test_union_find_idempotent;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basic" `Quick test_stats_basic;
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "percentile extremes" `Quick test_stats_percentile_extremes;
          test_stats_merge;
          Alcotest.test_case "welford matches naive" `Quick test_stats_welford_matches_naive;
          Alcotest.test_case "percentile range" `Quick test_stats_percentile_range;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "right align" `Quick test_table_right_align;
          Alcotest.test_case "ragged rows" `Quick test_table_ragged_rows;
          Alcotest.test_case "format helpers" `Quick test_fmt_helpers;
        ] );
      ( "graph",
        [
          Alcotest.test_case "basic" `Quick test_graph_basic;
          Alcotest.test_case "closure" `Quick test_graph_closure;
          Alcotest.test_case "cycle detection" `Quick test_graph_cycle_detection;
          Alcotest.test_case "toposort deterministic" `Quick
            test_graph_toposort_deterministic;
          Alcotest.test_case "transitive reduction" `Quick test_graph_transitive_reduction;
          Alcotest.test_case "simple paths" `Quick test_graph_simple_paths;
          Alcotest.test_case "simple paths self cycle" `Quick
            test_graph_simple_paths_cycle_self;
          Alcotest.test_case "components" `Quick test_graph_components;
          test_graph_closure_matches_paths;
          Alcotest.test_case "union mismatch" `Quick test_graph_union_mismatch;
          Alcotest.test_case "reduction cyclic" `Quick test_graph_reduction_cyclic;
        ] );
      ( "flow",
        [
          Alcotest.test_case "simple" `Quick test_flow_simple;
          Alcotest.test_case "bottleneck" `Quick test_flow_bottleneck;
          Alcotest.test_case "disconnected" `Quick test_flow_disconnected;
          Alcotest.test_case "needs residual" `Quick test_flow_needs_residual;
        ] );
    ]
