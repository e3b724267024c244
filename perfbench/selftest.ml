(* Self-tests of the benchmark: determinism of its inputs and virtual
   time, tracing that does not perturb the simulation, and the span
   ledger's self-time arithmetic. Run with [dune test perfbench]. *)

open Perfbench

let ms = Simwl.ms

(* Shrunk copies of the workloads, so each repetition takes well under a
   second. *)
let small_partition = { Simwl.partition_heal with measure_ns = ms 400 }

let small_saturate =
  { Simwl.ring_saturate with rate = 200_000.0; warmup_ns = ms 2; measure_ns = ms 6 }

let small_sessions = { Simwl.kv_sessions with sessions_per_node = 20; measure_ns = ms 60 }

let counts (r : Simwl.rep) =
  let l = Option.get r.layers in
  [
    l.l_packets; l.l_switch_drops; l.l_client_deliveries; l.l_tokens_node0;
    l.l_retrans; l.l_bytes_sent; l.l_stack_msgs; l.l_kv_calls;
    l.l_formation_attempts; l.l_floods; l.l_dedup_saved; l.l_transfer_entries;
    l.l_rejected; l.l_merge_credits; l.l_merge_items; l.l_merge_blocked_peak;
    l.l_vt_ns; r.writes_applied; r.attempted; r.failed; r.queue_peak;
  ]

let test_schedule () =
  List.iter
    (fun spec ->
      let a = Simwl.schedule spec ~seed:7L and b = Simwl.schedule spec ~seed:7L in
      Alcotest.(check bool) (spec.Simwl.name ^ ": same seed, same schedule") true (a = b);
      Alcotest.(check bool)
        (spec.Simwl.name ^ ": other seed, other schedule")
        false
        (a = Simwl.schedule spec ~seed:8L))
    Simwl.specs

let test_same_seed spec () =
  let a = Simwl.run_rep ~traced:true spec ~seed:11L in
  let b = Simwl.run_rep ~traced:true spec ~seed:11L in
  Alcotest.(check bool) "identical vt results" true (a.vt = b.vt);
  Alcotest.(check (list int)) "identical layer counts" (counts a) (counts b);
  Alcotest.(check bool)
    "identical merge waits" true
    ((Option.get a.layers).l_merge_wait_us = (Option.get b.layers).l_merge_wait_us)

let test_trace_transparent spec () =
  let u = Simwl.run_rep ~traced:false spec ~seed:5L in
  let t = Simwl.run_rep ~traced:true spec ~seed:5L in
  Alcotest.(check bool) "traced vt = untraced vt" true (u.vt = t.vt);
  Alcotest.(check int) "same writes applied" u.writes_applied t.writes_applied;
  Alcotest.(check int) "nothing failed" 0 t.failed

(* A scripted clock drives the ledger through

     a [0, 100) ─┬─ b [10, 40) ── c [20, 25)
                 └─ c [50, 90)

   so a's self time is 100 - 30 - 40 = 30, b's is 30 - 5 = 25 and c's
   is 5 + 40 = 45. *)
let test_self_time () =
  let ticks = ref [ 0; 10; 20; 25; 40; 50; 90; 100 ] in
  let clock () =
    match !ticks with
    | t :: rest ->
        ticks := rest;
        t
    | [] -> Alcotest.fail "clock read too often"
  in
  let l = Ledger.create ~clock ~alloc:(fun () -> 0.0) [| "a"; "b"; "c" |] in
  let a = Ledger.layer l "a" and b = Ledger.layer l "b" and c = Ledger.layer l "c" in
  Ledger.span l a (fun () ->
      Ledger.span l b (fun () -> Ledger.span l c ignore);
      Ledger.span l c ignore);
  Alcotest.(check int) "a self" 30 (Ledger.self_ns l a);
  Alcotest.(check int) "b self" 25 (Ledger.self_ns l b);
  Alcotest.(check int) "c self" 45 (Ledger.self_ns l c);
  Alcotest.(check int) "self times sum to the root span" 100 (Ledger.total_self_ns l);
  Alcotest.(check int) "c calls" 2 (Ledger.calls l c)

let () =
  Alcotest.run "perfbench"
    [
      ( "determinism",
        [
          ("same seed, same arrival schedule", `Quick, test_schedule);
          ("partition-heal: same seed, same vt and counts", `Quick, test_same_seed small_partition);
          ("ring-saturate: same seed, same vt and counts", `Quick, test_same_seed small_saturate);
        ] );
      ( "tracing",
        [
          ("kv-sessions: traced vt = untraced", `Quick, test_trace_transparent small_sessions);
          ("partition-heal: traced vt = untraced", `Quick, test_trace_transparent small_partition);
          ("ring-saturate: traced vt = untraced", `Quick, test_trace_transparent small_saturate);
        ] );
      ("ledger", [ ("self time on a synthetic span tree", `Quick, test_self_time) ]);
    ]
