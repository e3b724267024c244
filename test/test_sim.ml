(* Simulator integration tests: determinism, delivery guarantees under
   simulated timing, loss recovery through the rtr mechanism, the
   accelerated protocol's observable effects, and fault hooks. *)

open Aring_wire
open Aring_ring
open Aring_sim

let check = Alcotest.check

let rid : Types.ring_id = { rep = 0; ring_seq = 1 }

(* A small simulated cluster of bare operational nodes. *)
type cluster = {
  sim : Netsim.t;
  nodes : Node.t array;
  delivered : (Types.pid * Types.seqno) list ref array;  (* newest first *)
  token_losses : int ref;
}

let make_cluster ?(n = 4) ?(net = Profile.gigabit) ?(tier = Profile.library)
    ?(params = Params.accelerated ()) ?(seed = 1L) () =
  let ring = Array.init n (fun i -> i) in
  let nodes =
    Array.init n (fun me -> Node.create ~params ~ring_id:rid ~ring ~me ())
  in
  let sim =
    Netsim.create ~net ~tiers:(Array.make n tier)
      ~participants:(Array.map Node.participant nodes)
      ~seed ()
  in
  let delivered = Array.init n (fun _ -> ref []) in
  let token_losses = ref 0 in
  Netsim.on_deliver sim (fun ~at ~now:_ (d : Message.data) ->
      delivered.(at) := (d.pid, d.seq) :: !(delivered.(at)));
  Netsim.on_token_loss sim (fun ~at:_ ~now:_ -> incr token_losses);
  { sim; nodes; delivered; token_losses }

let delivery_list c i = List.rev !(c.delivered.(i))

let submit_burst ?(spacing_ns = 100_000) c ~per_node ~payload_len =
  let n = Array.length c.nodes in
  for node = 0 to n - 1 do
    for i = 0 to per_node - 1 do
      Netsim.submit_at c.sim ~at:(i * spacing_ns) ~node Types.Agreed
        (Bytes.create payload_len)
    done
  done

let ms n = n * 1_000_000

let test_idle_token_circulates () =
  let c = make_cluster () in
  Netsim.run_until c.sim (ms 50);
  let rounds = (Engine.stats (Node.engine c.nodes.(0))).rounds in
  check Alcotest.bool "token circulated many times" true (rounds > 100)

let test_burst_fully_delivered () =
  let c = make_cluster () in
  submit_burst c ~per_node:100 ~payload_len:200;
  Netsim.run_until c.sim (ms 100);
  for i = 0 to 3 do
    check Alcotest.int
      (Printf.sprintf "node %d delivered all" i)
      400
      (List.length (delivery_list c i))
  done;
  (* Identical total order everywhere. *)
  let reference = delivery_list c 0 in
  for i = 1 to 3 do
    check Alcotest.bool
      (Printf.sprintf "node %d same order" i)
      true
      (delivery_list c i = reference)
  done

let test_deterministic_replay () =
  let run () =
    let c = make_cluster ~seed:99L () in
    submit_burst c ~per_node:50 ~payload_len:500;
    Netsim.run_until c.sim (ms 60);
    (delivery_list c 0, (Netsim.stats c.sim).packets_sent, Netsim.now c.sim)
  in
  let a = run () and b = run () in
  check Alcotest.bool "identical deliveries" true (a = b)

let test_no_spurious_retransmissions () =
  (* The accelerated token runs ahead of post-token data, yet the rtr cap
     (previous round's seq) must prevent any retransmission request on a
     lossless network. *)
  let c = make_cluster ~n:8 ~params:(Params.accelerated ()) () in
  submit_burst c ~per_node:200 ~payload_len:1342;
  Netsim.run_until c.sim (ms 200);
  Array.iteri
    (fun i node ->
      let s = Engine.stats (Node.engine node) in
      check Alcotest.int (Printf.sprintf "node %d no rtr requests" i) 0
        s.rtr_requested;
      check Alcotest.int (Printf.sprintf "node %d no retransmissions" i) 0
        s.retrans_sent)
    c.nodes

let test_loss_recovered_by_rtr () =
  let net = Profile.with_loss Profile.gigabit 0.02 in
  let c = make_cluster ~n:4 ~net () in
  submit_burst c ~per_node:100 ~payload_len:800;
  Netsim.run_until c.sim (ms 300);
  for i = 0 to 3 do
    check Alcotest.int
      (Printf.sprintf "node %d recovered all" i)
      400
      (List.length (delivery_list c i))
  done;
  let total_retrans =
    Array.fold_left
      (fun acc node -> acc + (Engine.stats (Node.engine node)).retrans_sent)
      0 c.nodes
  in
  check Alcotest.bool "retransmissions happened" true (total_retrans > 0);
  check Alcotest.bool "random losses happened" true
    ((Netsim.stats c.sim).random_losses > 0)

let test_accelerated_rotates_faster () =
  let rounds_of params =
    let c = make_cluster ~n:8 ~tier:Profile.spread ~params () in
    submit_burst c ~per_node:100 ~payload_len:1342;
    Netsim.run_until c.sim (ms 100);
    (Engine.stats (Node.engine c.nodes.(0))).rounds
  in
  let accel = rounds_of (Params.accelerated ()) in
  let orig = rounds_of Params.original in
  check Alcotest.bool
    (Printf.sprintf "accelerated (%d) rotates faster than original (%d)" accel
       orig)
    true (accel > orig)

let test_crash_triggers_token_loss () =
  let c = make_cluster ~n:4 () in
  Netsim.call_at c.sim ~at:(ms 10) (fun () -> Netsim.crash c.sim 2);
  Netsim.run_until c.sim (ms 300);
  check Alcotest.bool "token loss detected after crash" true
    (!(c.token_losses) > 0);
  check Alcotest.bool "crashed node is dead" false (Netsim.is_alive c.sim 2)

let test_partition_blocks_progress () =
  (* Cutting node 3 off entirely stalls it but the drop predicate is
     honoured (partition_drops counted). *)
  let c = make_cluster ~n:4 () in
  Netsim.set_drop c.sim (fun ~src ~dst _ -> src = 3 || dst = 3);
  submit_burst c ~per_node:20 ~payload_len:100;
  Netsim.run_until c.sim (ms 100);
  check Alcotest.bool "partition dropped packets" true
    ((Netsim.stats c.sim).partition_drops > 0);
  check Alcotest.int "isolated node delivered nothing" 0
    (List.length (delivery_list c 3))

let test_drop_until_auto_heals () =
  (* A timed partition window: node 3 is cut off from ms 5 to ms 20, then
     the saved predicate is restored automatically and retransmissions
     catch everyone up. *)
  let c = make_cluster ~n:4 () in
  Netsim.call_at c.sim ~at:(ms 5) (fun () ->
      Netsim.set_drop_until c.sim ~until:(ms 20) (fun ~src ~dst _ ->
          src = 3 || dst = 3));
  submit_burst c ~per_node:20 ~payload_len:100;
  Netsim.run_until c.sim (ms 400);
  check Alcotest.bool "packets dropped during the window" true
    ((Netsim.stats c.sim).partition_drops > 0);
  for i = 0 to 3 do
    check Alcotest.int
      (Printf.sprintf "node %d recovered after auto-heal" i)
      80
      (List.length (delivery_list c i))
  done

(* FNV-1a over every delivery callback, in callback order: receiving
   node, virtual time, sender and sequence number. *)
let hash_deliveries c =
  let h = ref 0xCBF29CE484222325L in
  let mix v =
    h := Int64.mul (Int64.logxor !h (Int64.of_int v)) 0x100000001B3L
  in
  Netsim.on_deliver c.sim (fun ~at ~now (d : Message.data) ->
      c.delivered.(at) := (d.pid, d.seq) :: !(c.delivered.(at));
      mix at;
      mix now;
      mix d.pid;
      mix d.seq);
  h

let test_tiny_switch_buffer_drops_and_recovers () =
  let net = { Profile.gigabit with switch_port_buffer = 16 * 1024 } in
  let c = make_cluster ~n:8 ~net () in
  let hash = hash_deliveries c in
  (* An instantaneous burst: every pending queue fills at t=0, so adjacent
     senders' post-token overlap floods the switch ports. *)
  submit_burst ~spacing_ns:0 c ~per_node:150 ~payload_len:1342;
  Netsim.run_until c.sim (ms 2000);
  check Alcotest.bool "switch dropped packets" true
    ((Netsim.stats c.sim).switch_drops > 0);
  (* Exact pins: a change to when a port releases its bytes, or to the
     order of events, moves these. *)
  check Alcotest.int "switch drops pinned" 22921 (Netsim.stats c.sim).switch_drops;
  check Alcotest.string "delivery stream hash pinned" "ba1f525538f6cb85"
    (Printf.sprintf "%016Lx" !hash);
  (* Retransmissions heal the overflow loss. *)
  for i = 0 to 7 do
    check Alcotest.int
      (Printf.sprintf "node %d recovered" i)
      1200
      (List.length (delivery_list c i))
  done



(* A switch port releases a packet's bytes at the instant the packet
   leaves, ordered like an event scheduled when the packet was accepted:
   an event at that very instant sees the bytes released only if it was
   scheduled after the packet. Node 0 sends one packet into a port that
   holds exactly one, and a timer sends a second at [offset] ns from the
   instant the first leaves the port; returns the switch drops. *)
type Participant.timer += Send_again

let port_tie_drops ~arm_first ~offset =
  let msg =
    Message.Join { j_pid = 0; proc_set = []; fail_set = []; join_seq = 0 }
  in
  let size = Message.wire_size msg in
  let net = { Profile.gigabit with switch_port_buffer = size } in
  let tier = Profile.library in
  (* One serialization out of the NIC, one out of the switch port. *)
  let leaves = tier.send_op_ns + (2 * Profile.tx_ns net size) in
  let send = Participant.Unicast (1, msg) in
  let start =
    if arm_first then [ Participant.Arm_timer (Send_again, leaves + offset); send ]
    else [ send; Participant.Arm_timer (Send_again, leaves + offset - tier.send_op_ns) ]
  in
  let participant pid ~start ~fire : Participant.t =
    {
      pid;
      submit = (fun _ _ -> ());
      receive = (fun _ -> `Queued);
      has_work = (fun () -> false);
      take_next = (fun () -> None);
      process = (fun _ -> []);
      fire_timer = (fun _ -> fire);
      start = (fun () -> start);
    }
  in
  let sim =
    Netsim.create ~net ~tiers:[| tier; tier |]
      ~participants:
        [| participant 0 ~start ~fire:[ send ]; participant 1 ~start:[] ~fire:[] |]
      ()
  in
  Netsim.run_until sim (ms 1);
  (Netsim.stats sim).switch_drops

let test_port_release_tie () =
  check Alcotest.int "timer scheduled first: port still full" 1
    (port_tie_drops ~arm_first:true ~offset:0);
  check Alcotest.int "timer scheduled second: port already free" 0
    (port_tie_drops ~arm_first:false ~offset:0);
  check Alcotest.int "1 ns later: free" 0 (port_tie_drops ~arm_first:true ~offset:1);
  check Alcotest.int "1 ns earlier: full" 1
    (port_tie_drops ~arm_first:false ~offset:(-1))

(* Every [call_at] callback runs at max(at, now when scheduled), ties
   broken by scheduling order, so the execution order is a stable sort of
   the schedule records by clamped time. The draw has many exact ties,
   times in the past, callbacks that schedule callbacks, and well over the
   queue's initial 256 slots pending at once. *)
let prop_call_order =
  let batch lo hi =
    QCheck.(list_of_size Gen.(int_range lo hi) (pair (int_bound 40) (int_bound 3)))
  in
  QCheck.Test.make ~name:"call_at runs in (clamped time, insertion) order"
    ~count:100 (QCheck.pair (batch 100 700) (batch 0 100))
    (fun (first, second) ->
      let sim =
        Netsim.create ~net:Profile.gigabit ~tiers:[||] ~participants:[||] ()
      in
      let scheduled = ref 0 in
      let ran = ref [] in (* (clamped at, insertion, now when run) *)
      let rec schedule at kids =
        let ins = !scheduled in
        incr scheduled;
        let clamped = max at (Netsim.now sim) in
        Netsim.call_at sim ~at (fun () ->
            let now = Netsim.now sim in
            ran := (clamped, ins, now) :: !ran;
            (* Children land up to 2 µs in the past or the future. *)
            for k = 1 to kids do
              schedule (now + ((((ins + k) mod 5) - 2) * 1_000)) (kids - 1)
            done)
      in
      List.iter (fun (t, kids) -> schedule (t * 1_000) kids) first;
      Netsim.run_until sim 20_000;
      (* Half of this batch is due before now and must be clamped. *)
      List.iter (fun (t, kids) -> schedule (t * 1_000) kids) second;
      Netsim.run_until sim max_int;
      let ran = List.rev !ran in
      let keys = List.map (fun (at, ins, _) -> (at, ins)) ran in
      List.length ran = !scheduled
      && List.for_all (fun (at, _, now) -> at = now) ran
      && keys = List.stable_sort compare keys)

(* -------------------------------------------------------------------- *)
(* Causality: the total order respects potential causality. If a node
   submits m' after having delivered m, then every node delivers m before
   m' (Agreed delivery, Section II). *)

let test_total_order_respects_causality () =
  let c = make_cluster ~n:4 () in
  (* Node 1 reacts to each delivery of node 0's messages by submitting a
     reply; the reply must always follow the original everywhere. *)
  let sim = c.sim in
  let replied = Hashtbl.create 16 in
  Netsim.on_deliver sim (fun ~at ~now:_ (d : Message.data) ->
      c.delivered.(at) := (d.pid, d.seq) :: !(c.delivered.(at));
      if at = 1 && d.pid = 0 && not (Hashtbl.mem replied d.seq) then begin
        Hashtbl.replace replied d.seq ();
        Netsim.submit_now sim ~node:1 Types.Agreed
          (Bytes.of_string (Printf.sprintf "reply-%d" d.seq))
      end);
  for k = 0 to 19 do
    Netsim.submit_at c.sim ~at:(k * 500_000) ~node:0 Types.Agreed
      (Bytes.create 64)
  done;
  Netsim.run_until c.sim (ms 100);
  (* Check at every node: each reply (from node 1) appears after the
     corresponding original (by its position in the stream). *)
  for node = 0 to 3 do
    let stream = delivery_list c node in
    let position (pid, seq) =
      let rec find i = function
        | [] -> None
        | x :: rest -> if x = (pid, seq) then Some i else find (i + 1) rest
      in
      find 0 stream
    in
    (* Node 0 sent 20 originals; node 1 replied to each. Replies carry
       increasing seqs; map i-th reply to i-th original by send order. *)
    let originals = List.filter (fun (pid, _) -> pid = 0) stream in
    let replies = List.filter (fun (pid, _) -> pid = 1) stream in
    check Alcotest.int "all originals" 20 (List.length originals);
    check Alcotest.int "all replies" 20 (List.length replies);
    List.iteri
      (fun i orig ->
        let reply = List.nth replies i in
        match (position orig, position reply) with
        | Some po, Some pr ->
            if po >= pr then
              Alcotest.failf "node %d: reply %d delivered before original" node i
        | _ -> Alcotest.fail "missing message")
      originals
  done

(* -------------------------------------------------------------------- *)
(* Profile cost model                                                    *)

let test_profile_tx_ns () =
  (* 1500 bytes at 1 Gbps = 12 us; at 10 Gbps = 1.2 us. *)
  check Alcotest.int "1G serialization" 12_000 (Profile.tx_ns Profile.gigabit 1500);
  check Alcotest.int "10G serialization" 1_200
    (Profile.tx_ns Profile.ten_gigabit 1500)

let test_profile_frag_cost () =
  let tier = Profile.library in
  let one = Profile.data_proc_cost tier ~mtu:1500 ~wire_bytes:1400 in
  let six = Profile.data_proc_cost tier ~mtu:1500 ~wire_bytes:8900 in
  check Alcotest.int "single fragment" (tier.Profile.data_proc_ns + tier.Profile.frag_ns) one;
  check Alcotest.int "six fragments"
    (tier.Profile.data_proc_ns + (6 * tier.Profile.frag_ns))
    six;
  (* Jumbo frames collapse the same datagram to one fragment. *)
  let jumbo = Profile.data_proc_cost tier ~mtu:9000 ~wire_bytes:8900 in
  check Alcotest.int "jumbo single fragment" one jumbo

let test_profile_modifiers () =
  let lossy = Profile.with_loss Profile.gigabit 0.25 in
  check (Alcotest.float 1e-9) "loss set" 0.25 lossy.Profile.loss_prob;
  let jumbo = Profile.with_jumbo_frames Profile.ten_gigabit in
  check Alcotest.int "jumbo mtu" 9000 jumbo.Profile.mtu;
  check Alcotest.string "jumbo name" "10GbE+jumbo" jumbo.Profile.net_name;
  check Alcotest.int "original untouched" 1500 Profile.ten_gigabit.Profile.mtu

let test_spread_fits_one_mtu () =
  (* Spread's 1350-byte message plus its headers must fill exactly one
     standard MTU (the paper's design point). *)
  let wire =
    Aring_wire.Message.data_wire_size ~payload_len:1350
    + Profile.spread.Profile.extra_data_header
  in
  check Alcotest.int "exactly one MTU" 1500 wire

(* -------------------------------------------------------------------- *)
(* Scenario harness                                                      *)

let test_scenario_throughput_sane () =
  let open Aring_harness in
  let spec =
    {
      Scenario.default_spec with
      offered_mbps = 150.0;
      warmup_ns = ms 50;
      measure_ns = ms 150;
    }
  in
  let r = Scenario.run spec in
  check Alcotest.bool "delivered within 3% of offered" true
    (abs_float (r.delivered_mbps -. 150.0) < 4.5);
  check Alcotest.bool "latency positive" true
    (Aring_util.Stats.mean r.latency_us > 0.0);
  check Alcotest.bool "collected samples" true (r.deliveries > 1000)

let test_scenario_accel_beats_original_under_load () =
  let open Aring_harness in
  let run params =
    Scenario.run
      {
        Scenario.default_spec with
        tier = Profile.spread;
        params;
        offered_mbps = 700.0;
        warmup_ns = ms 50;
        measure_ns = ms 200;
      }
  in
  let accel = run (Params.accelerated ()) in
  let orig = run Params.original in
  check Alcotest.bool "both sustain 700 Mbps" true
    (accel.delivered_mbps > 680.0 && orig.delivered_mbps > 680.0);
  check Alcotest.bool
    (Printf.sprintf "accel latency (%.0f) < original (%.0f)"
       (Aring_util.Stats.mean accel.latency_us)
       (Aring_util.Stats.mean orig.latency_us))
    true
    (Aring_util.Stats.mean accel.latency_us
    < Aring_util.Stats.mean orig.latency_us)

(* -------------------------------------------------------------------- *)
(* Asymmetric links and latency tiers                                    *)

(* Run a 4-node burst with per-node delivery counts and first/last
   delivery times, under an arbitrary link configuration. *)
let run_with_times ~configure ~per_node ~payload_len ~horizon =
  let c = make_cluster ~n:4 ~seed:5L () in
  configure c.sim;
  let count = Array.make 4 0 in
  let first = Array.make 4 max_int in
  let last = Array.make 4 0 in
  Netsim.on_deliver c.sim (fun ~at ~now (_ : Message.data) ->
      count.(at) <- count.(at) + 1;
      if now < first.(at) then first.(at) <- now;
      if now > last.(at) then last.(at) <- now);
  submit_burst c ~per_node ~payload_len;
  Netsim.run_until c.sim horizon;
  (count, first, last)

let test_asym_explicit_defaults_identical () =
  (* Setting every link rate to the profile rate and the extra latency
     to zero must reproduce the untouched schedule exactly — the
     regression wall for the symmetric fast path. *)
  let run configure =
    let c = make_cluster ~n:4 ~seed:42L () in
    configure c.sim;
    submit_burst c ~per_node:40 ~payload_len:700;
    Netsim.run_until c.sim (ms 80);
    ( List.init 4 (delivery_list c),
      (Netsim.stats c.sim).packets_sent,
      Netsim.now c.sim )
  in
  let a = run (fun _ -> ()) in
  let b =
    run (fun sim ->
        for node = 0 to 3 do
          Netsim.set_link_rates sim ~node ~up_bps:1_000_000_000
            ~down_bps:1_000_000_000 ()
        done;
        Netsim.set_extra_latency sim (fun ~src:_ ~dst:_ -> 0))
  in
  check Alcotest.bool "explicit defaults are byte-identical" true (a = b)

let test_asym_downlink_honored () =
  (* Starve one receiver's downlink by 20x: its deliveries must stretch
     out by the serialization arithmetic while healthy receivers keep
     their fast completion — head-of-line isolation at the switch. *)
  let base =
    run_with_times ~configure:(fun _ -> ()) ~per_node:50 ~payload_len:1000
      ~horizon:(ms 400)
  in
  let slow =
    run_with_times
      ~configure:(fun sim ->
        Netsim.set_link_rates sim ~node:3 ~down_bps:50_000_000 ())
      ~per_node:50 ~payload_len:1000 ~horizon:(ms 400)
  in
  let bc, _, blast = base and sc, _, slast = slow in
  Array.iteri
    (fun i c -> check Alcotest.int (Printf.sprintf "base node %d all" i) 200 c)
    bc;
  Array.iteri
    (fun i c -> check Alcotest.int (Printf.sprintf "slow node %d all" i) 200 c)
    sc;
  (* 150 foreign ~1KB packets over a 50 Mbps downlink serialize for
     >20 ms; the symmetric run finishes far earlier. *)
  check Alcotest.bool "slow downlink stretches its receiver" true
    (slast.(3) > blast.(3) + ms 10);
  check Alcotest.bool "healthy receiver finishes first" true
    (slast.(1) + ms 10 < slast.(3))

let test_asym_uplink_honored () =
  (* Choking one sender's uplink delays everything it originates (its
     packets serialize 20x slower at its own NIC) without starving what
     others send. *)
  let base =
    run_with_times ~configure:(fun _ -> ()) ~per_node:30 ~payload_len:1000
      ~horizon:(ms 400)
  in
  let slow =
    run_with_times
      ~configure:(fun sim ->
        Netsim.set_link_rates sim ~node:0 ~up_bps:50_000_000 ())
      ~per_node:30 ~payload_len:1000 ~horizon:(ms 400)
  in
  let bc, _, blast = base and sc, _, slast = slow in
  Array.iteri
    (fun i c -> check Alcotest.int (Printf.sprintf "base node %d all" i) 120 c)
    bc;
  Array.iteri
    (fun i c -> check Alcotest.int (Printf.sprintf "slow node %d all" i) 120 c)
    sc;
  (* Node 0 contributes 30 of the 120 ordered messages; its slow NIC
     gates the total order's completion everywhere. *)
  check Alcotest.bool "slow uplink delays cluster completion" true
    (slast.(1) > blast.(1) + ms 2)

let test_latency_classes_honored () =
  (* Two sites, 500 us of extra one-way WAN latency between them. A
     cross-site packet must pay at least the extra latency; and the
     total order must stay identical at every node. *)
  let wan = 500_000 in
  let run extra =
    let c = make_cluster ~n:4 ~seed:9L () in
    if extra > 0 then
      Netsim.set_latency_classes c.sim ~classes:[| 0; 0; 1; 1 |]
        ~matrix:[| [| 0; extra |]; [| extra; 0 |] |];
    let first = Array.make 4 max_int in
    Netsim.on_deliver c.sim (fun ~at ~now (_ : Message.data) ->
        if now < first.(at) then first.(at) <- now);
    Netsim.submit_at c.sim ~at:(ms 2) ~node:0 Types.Agreed (Bytes.create 600);
    Netsim.run_until c.sim (ms 200);
    first
  in
  let lan = run 0 and geo = run wan in
  check Alcotest.bool "cross-site delivery pays the WAN latency" true
    (geo.(3) >= lan.(3) + wan);
  check Alcotest.bool "lan run delivered" true (lan.(3) < max_int);
  check Alcotest.bool "geo run delivered" true (geo.(3) < max_int)

let test_asym_deterministic_replay () =
  (* Determinism re-pinned under the asymmetric code paths. *)
  let run () =
    let c = make_cluster ~n:4 ~seed:77L () in
    Netsim.set_link_rates c.sim ~node:2 ~up_bps:200_000_000
      ~down_bps:100_000_000 ();
    Netsim.set_latency_classes c.sim ~classes:[| 0; 1; 1; 0 |]
      ~matrix:[| [| 0; 90_000 |]; [| 110_000; 0 |] |];
    submit_burst c ~per_node:40 ~payload_len:900;
    Netsim.run_until c.sim (ms 150);
    ( List.init 4 (delivery_list c),
      (Netsim.stats c.sim).packets_sent,
      Netsim.now c.sim )
  in
  let a = run () and b = run () in
  check Alcotest.bool "asymmetric schedule replays identically" true (a = b)

let test_asym_validation () =
  let c = make_cluster ~n:4 () in
  Alcotest.check_raises "zero rate rejected"
    (Invalid_argument "Netsim.set_link_rates: rate must be positive")
    (fun () -> Netsim.set_link_rates c.sim ~node:0 ~up_bps:0 ());
  Alcotest.check_raises "node out of range"
    (Invalid_argument "Netsim.set_link_rates: node out of range") (fun () ->
      Netsim.set_link_rates c.sim ~node:9 ~down_bps:1 ());
  Alcotest.check_raises "classes must cover nodes"
    (Invalid_argument "Netsim.set_latency_classes: classes must cover every node")
    (fun () ->
      Netsim.set_latency_classes c.sim ~classes:[| 0 |] ~matrix:[| [| 0 |] |]);
  Alcotest.check_raises "class out of range"
    (Invalid_argument "Netsim.set_latency_classes: class out of range")
    (fun () ->
      Netsim.set_latency_classes c.sim ~classes:[| 0; 0; 0; 7 |]
        ~matrix:[| [| 0 |] |]);
  Alcotest.check_raises "matrix must be square"
    (Invalid_argument "Netsim.set_latency_classes: matrix must be square")
    (fun () ->
      Netsim.set_latency_classes c.sim ~classes:[| 0; 0; 0; 0 |]
        ~matrix:[| [| 0; 1 |] |])

let suite =
  [
    ("idle token circulates", `Quick, test_idle_token_circulates);
    ("burst fully delivered in order", `Quick, test_burst_fully_delivered);
    ("deterministic replay", `Quick, test_deterministic_replay);
    ("no spurious retransmissions", `Slow, test_no_spurious_retransmissions);
    ("loss recovered by rtr", `Slow, test_loss_recovered_by_rtr);
    ("accelerated rotates faster", `Slow, test_accelerated_rotates_faster);
    ("crash triggers token loss", `Quick, test_crash_triggers_token_loss);
    ("partition blocks isolated node", `Quick, test_partition_blocks_progress);
    ("set_drop_until auto-heals", `Quick, test_drop_until_auto_heals);
    ("switch overflow drops and recovers", `Slow,
      test_tiny_switch_buffer_drops_and_recovers);
    ("total order respects causality", `Quick, test_total_order_respects_causality);
    ("port release ties like an event", `Quick, test_port_release_tie);
    QCheck_alcotest.to_alcotest prop_call_order;
    ("profile tx_ns", `Quick, test_profile_tx_ns);
    ("profile fragment cost", `Quick, test_profile_frag_cost);
    ("profile modifiers", `Quick, test_profile_modifiers);
    ("spread message fits one MTU", `Quick, test_spread_fits_one_mtu);
    ("scenario throughput sane", `Slow, test_scenario_throughput_sane);
    ("scenario accel beats original", `Slow,
      test_scenario_accel_beats_original_under_load);
    ("asym explicit defaults byte-identical", `Quick,
      test_asym_explicit_defaults_identical);
    ("asym downlink rate honored", `Quick, test_asym_downlink_honored);
    ("asym uplink rate honored", `Quick, test_asym_uplink_honored);
    ("latency classes honored", `Quick, test_latency_classes_honored);
    ("asym deterministic replay", `Quick, test_asym_deterministic_replay);
    ("asym validation", `Quick, test_asym_validation);
  ]
