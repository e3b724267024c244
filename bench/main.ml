(* Full reproduction harness: regenerates every figure of the paper's
   evaluation (Section IV) plus the headline numbers, the related-work
   comparison (Section V) and the ablations; named suites (hotpath, kv,
   obs, ...) run one gated benchmark each.

   Usage: dune exec bench/main.exe          (full run)
          dune exec bench/main.exe -- quick (coarser grids, for development)

   The output is organized per experiment; EXPERIMENTS.md records a
   paper-vs-measured summary of a full run. Absolute numbers come from a
   calibrated simulator (see DESIGN.md); the shapes — who wins, by what
   factor, where the knees and crossovers fall — are the reproduction
   target. *)

open Aring_wire
open Aring_ring
open Aring_sim
open Aring_harness
module Stats = Aring_util.Stats

let quick = Array.exists (fun a -> a = "quick") Sys.argv
let mode_hotpath = Array.exists (fun a -> a = "hotpath") Sys.argv
let mode_adaptive = Array.exists (fun a -> a = "adaptive") Sys.argv
let mode_kv = Array.exists (fun a -> a = "kv") Sys.argv
let mode_obs = Array.exists (fun a -> a = "obs") Sys.argv
let mode_recovery = Array.exists (fun a -> a = "recovery") Sys.argv
let mode_load = Array.exists (fun a -> a = "load") Sys.argv
let mode_multiring = Array.exists (fun a -> a = "multiring") Sys.argv

let ms n = n * 1_000_000

(* Tuned flow-control windows, per network (paper methodology: smallest
   personal window reaching maximum throughput, accelerated window giving
   the best throughput at that personal window). *)
let params_for net protocol =
  let pw, gw, aw =
    if net.Profile.bandwidth_bps > 2_000_000_000 then (80, 600, 30)
    else (50, 400, 20)
  in
  match protocol with
  | `Original -> { Params.original with personal_window = pw; global_window = gw }
  | `Accelerated ->
      Params.accelerated ~personal_window:pw ~global_window:gw
        ~accelerated_window:aw ()

let protocol_name = function `Original -> "original" | `Accelerated -> "accelerated"

let spec ~net ~tier ~protocol ~service ~payload ~rate =
  {
    Scenario.default_spec with
    label =
      Printf.sprintf "%s/%s" tier.Profile.tier_name (protocol_name protocol);
    net;
    tier;
    params = params_for net protocol;
    payload;
    service;
    offered_mbps = rate;
    warmup_ns = (if net == Profile.gigabit then ms 100 else ms 60);
    measure_ns = (if quick then ms 120 else ms 250);
  }

let row r =
  let open Scenario in
  Printf.printf "  %-10s %-12s %-7s %8.0f %10.1f %10.1f %10.1f %10.1f\n%!"
    r.spec.tier.Profile.tier_name
    (Params.is_original r.spec.params |> fun o -> if o then "original" else "accelerated")
    (Types.service_to_string r.spec.service)
    r.spec.offered_mbps r.delivered_mbps (Stats.mean r.latency_us)
    (Stats.median r.latency_us)
    (Stats.percentile r.latency_us 99.0)

let header title expectation =
  Printf.printf "\n=== %s ===\n%s\n" title expectation;
  Printf.printf "  %-10s %-12s %-7s %8s %10s %10s %10s %10s\n" "tier" "protocol"
    "service" "offered" "delivered" "mean_us" "p50_us" "p99_us"

let thin l = if quick then List.filteri (fun i _ -> i mod 2 = 0) l else l

let sweep ~title ~expectation ~net ~service ~payload combos =
  header title expectation;
  List.iter
    (fun (tier, protocol, rates) ->
      List.iter
        (fun rate ->
          row (Scenario.run (spec ~net ~tier ~protocol ~service ~payload ~rate)))
        (thin rates);
      print_newline ())
    combos

(* Offered-load grids per tier (clean payload Mbps). *)
let rates_1g = [ 100.; 200.; 300.; 400.; 500.; 600.; 700.; 800.; 900. ]

let rates_10g tier =
  match tier.Profile.tier_name with
  | "library" -> [ 250.; 500.; 1000.; 1500.; 2000.; 2500.; 3000.; 3500.; 4000.; 4500. ]
  | "daemon" -> [ 250.; 500.; 1000.; 1500.; 2000.; 2500.; 3000.; 3200. ]
  | _ -> [ 250.; 500.; 750.; 1000.; 1250.; 1500.; 1750.; 2000.; 2150. ]

let rates_10g_jumbo tier =
  match tier.Profile.tier_name with
  | "library" -> [ 1000.; 2000.; 3000.; 4000.; 5000.; 6000.; 6800. ]
  | "daemon" -> [ 1000.; 2000.; 3000.; 4000.; 5000.; 6000.; 6300. ]
  | _ -> [ 1000.; 2000.; 3000.; 4000.; 5000.; 5500. ]

let both_protocols tier rates =
  [ (tier, `Original, rates); (tier, `Accelerated, rates) ]

let fig1 () =
  sweep ~title:"Figure 1: Agreed delivery latency vs throughput, 1-gigabit"
    ~expectation:
      "Paper: original knee ~500-800 Mbps with latency climbing steeply;\n\
       accelerated sustains >900 Mbps with flat latency; Spread-original has\n\
       distinctly higher latency than the prototypes (delivery on the\n\
       critical path)."
    ~net:Profile.gigabit ~service:Types.Agreed ~payload:1350
    (List.concat_map (fun tier -> both_protocols tier rates_1g) Profile.all_tiers)

(* The paper's Section IV instruments, measured with the trace-driven
   rotation profiler at Figure 1 operating points: rotation time, messages
   per round and the post-token overlap fraction explain WHY acceleration
   moves the latency/throughput curve — the token no longer waits for the
   data it announces. *)
let rotation_profile () =
  Printf.printf
    "\n=== Token-rotation profile at Figure 1 operating points (daemon, 1G) ===\n\
     Paper Section IV: acceleration shortens rotations (the token is not\n\
     delayed behind each burst) and moves most data sends after the token.\n";
  Printf.printf "  %-12s %8s | %9s %12s %12s %10s %10s %10s\n" "protocol"
    "offered" "rotations" "rot_mean_us" "rot_p99_us" "msgs/rnd" "aru/rnd"
    "post_tok";
  List.iter
    (fun protocol ->
      List.iter
        (fun rate ->
          let s =
            {
              (spec ~net:Profile.gigabit ~tier:Profile.daemon ~protocol
                 ~service:Types.Agreed ~payload:1350 ~rate)
              with
              profile_rotation = true;
            }
          in
          let r = Scenario.run s in
          match r.Scenario.rotation with
          | None -> ()
          | Some rot ->
              let open Aring_obs.Rotation in
              Printf.printf
                "  %-12s %8.0f | %9d %12.1f %12.1f %10.1f %10.1f %9.1f%%\n%!"
                (protocol_name protocol) rate rot.rotations
                (Stats.mean rot.rotation_us)
                (Stats.percentile rot.rotation_us 99.0)
                (Stats.mean rot.msgs_per_round)
                (Stats.mean rot.aru_per_round)
                (100.0 *. rot.post_token_fraction))
        (thin [ 300.; 600.; 800. ]);
      print_newline ())
    [ `Original; `Accelerated ]

let fig2 () =
  sweep ~title:"Figure 2: Safe delivery latency vs throughput, 1-gigabit"
    ~expectation:
      "Paper: same pattern as Fig. 1 with higher latencies for the stronger\n\
       service; original supports ~600 Mbps before the sharp rise;\n\
       accelerated reaches >900 Mbps."
    ~net:Profile.gigabit ~service:Types.Safe ~payload:1350
    (List.concat_map (fun tier -> both_protocols tier rates_1g) Profile.all_tiers)

let fig3 () =
  sweep ~title:"Figure 3: Agreed delivery latency vs throughput, 10-gigabit"
    ~expectation:
      "Paper: processing-bound; implementation overhead now separates the\n\
       tiers (library > daemon > Spread in max throughput); accelerated\n\
       improves both axes ~10-40% per tier."
    ~net:Profile.ten_gigabit ~service:Types.Agreed ~payload:1350
    (List.concat_map (fun tier -> both_protocols tier (rates_10g tier)) Profile.all_tiers)

let fig5 () =
  sweep ~title:"Figure 5: Safe delivery latency vs throughput, 10-gigabit"
    ~expectation:
      "Paper: like Fig. 3 with higher latency for the stronger service and\n\
       slightly higher maximum throughputs (delivery off the critical path)."
    ~net:Profile.ten_gigabit ~service:Types.Safe ~payload:1350
    (List.concat_map (fun tier -> both_protocols tier (rates_10g tier)) Profile.all_tiers)

let fig46 service title expectation =
  header title expectation;
  List.iter
    (fun tier ->
      List.iter
        (fun (payload, rates) ->
          List.iter
            (fun rate ->
              row
                (Scenario.run
                   (spec ~net:Profile.ten_gigabit ~tier ~protocol:`Accelerated
                      ~service ~payload ~rate)))
            (thin rates);
          print_newline ())
        [ (1350, rates_10g tier); (8850, rates_10g_jumbo tier) ])
    Profile.all_tiers

let fig4 () =
  fig46 Types.Agreed
    "Figure 4: Agreed delivery, 1350 B vs 8850 B payloads, 10-gigabit (accelerated)"
    "Paper: larger UDP datagrams amortize per-message processing; maxima\n\
     rise from 4.6/3.2/2.1 Gbps to 7.3/6/5.3 Gbps (library/daemon/Spread)."

let fig6 () =
  fig46 Types.Safe
    "Figure 6: Safe delivery, 1350 B vs 8850 B payloads, 10-gigabit (accelerated)"
    "Paper: improvements similar to Fig. 4 for Safe delivery."

let fig7 () =
  sweep ~title:"Figure 7: Safe delivery latency at low throughput, 10-gigabit (Spread)"
    ~expectation:
      "Paper: the crossover — at very low load the original protocol has\n\
       LOWER Safe latency (the accelerated aru can cost an extra round:\n\
       ~520 vs ~620 us at 100 Mbps); the accelerated protocol wins once\n\
       load reaches a few percent of capacity."
    ~net:Profile.ten_gigabit ~service:Types.Safe ~payload:1350
    (both_protocols Profile.spread [ 100.; 200.; 300.; 400.; 500.; 700.; 1000. ])

(* ------------------------------------------------------------------ *)
(* Headline maxima                                                     *)

let find_max ~net ~tier ~protocol ~payload ~hi =
  let s =
    {
      (spec ~net ~tier ~protocol ~service:Types.Agreed ~payload ~rate:100.)
      with
      warmup_ns = ms 50;
      measure_ns = ms 150;
    }
  in
  Scenario.find_max_throughput ~lo_mbps:100. ~hi_mbps:hi ~tolerance_mbps:50. s

let headline () =
  Printf.printf "\n=== Headline: maximum sustained throughput (Agreed, Mbps) ===\n";
  Printf.printf
    "Paper: 1G/1350B Spread-accelerated >920 (saturation; original ~800 after\n\
     tuning, with very high latency). 10G/1350B maxima: library 4600,\n\
     daemon 3300, Spread 2300 (accelerated) vs Spread 1700 (original).\n\
     10G/8850B: library 7300, daemon 6000, Spread 5300.\n\n";
  Printf.printf "  %-8s %-10s %-12s %8s | %10s %12s\n" "net" "tier" "protocol"
    "payload" "max_mbps" "lat_mean_us";
  let combos =
    List.concat_map
      (fun tier ->
        [
          (Profile.gigabit, tier, `Original, 1350, 1200.);
          (Profile.gigabit, tier, `Accelerated, 1350, 1200.);
          (Profile.ten_gigabit, tier, `Original, 1350, 6000.);
          (Profile.ten_gigabit, tier, `Accelerated, 1350, 6000.);
          (Profile.ten_gigabit, tier, `Accelerated, 8850, 12000.);
        ])
      Profile.all_tiers
  in
  List.iter
    (fun (net, tier, protocol, payload, hi) ->
      let r = find_max ~net ~tier ~protocol ~payload ~hi in
      Printf.printf "  %-8s %-10s %-12s %8d | %10.0f %12.1f\n%!"
        net.Profile.net_name tier.Profile.tier_name (protocol_name protocol)
        payload r.Scenario.delivered_mbps
        (Stats.mean r.Scenario.latency_us))
    combos

(* ------------------------------------------------------------------ *)
(* Related work: fixed-sequencer baseline (Section V)                  *)

let related () =
  header "Related work: fixed-sequencer total order (JGroups-style), 1-gigabit"
    "Paper measured JGroups total ordering at ~650 Mbps on the same 1G\n\
     cluster (1350 B). Our fixed-sequencer baseline shows the classic\n\
     profile: competitive raw throughput, latency concentrated at the\n\
     sequencer, and no Safe/EVS semantics (see DESIGN.md).";
  let tier = Profile.daemon in
  List.iter
    (fun rate ->
      let s =
        {
          (spec ~net:Profile.gigabit ~tier ~protocol:`Accelerated
             ~service:Types.Agreed ~payload:1350 ~rate)
          with
          label = "sequencer";
        }
      in
      let participants =
        Array.init s.Scenario.n_nodes (fun me ->
            Aring_baselines.Sequencer.participant
              (Aring_baselines.Sequencer.create ~me ~n:s.Scenario.n_nodes ()))
      in
      let r = Scenario.run_custom s ~participants in
      Printf.printf "  %-10s %-12s %-7s %8.0f %10.1f %10.1f %10.1f %10.1f\n%!"
        tier.Profile.tier_name "sequencer" "agreed" rate
        r.Scenario.delivered_mbps
        (Stats.mean r.Scenario.latency_us)
        (Stats.median r.Scenario.latency_us)
        (Stats.percentile r.Scenario.latency_us 99.0))
    (thin rates_1g)

let related_ring_paxos () =
  header "Related work: Ring Paxos (simplified, Section V)"
    "Paper measured U-Ring Paxos at >750 Mbps on 1G (1350 B, batching) with\n\
     a latency profile similar to the original Ring protocol's Safe\n\
     delivery, and ~1.5 Gbps on 10G. Our simplified Ring Paxos (no\n\
     batching, fast path only) is measured on the same profiles. Note the\n\
     semantics gap the paper stresses: no Safe-equivalent cheap service,\n\
     no partitionable membership.";
  let run_paxos net tier rate =
    let s =
      {
        (spec ~net ~tier ~protocol:`Accelerated ~service:Types.Agreed
           ~payload:1350 ~rate)
        with
        label = "ring-paxos";
      }
    in
    let participants =
      Array.init s.Scenario.n_nodes (fun me ->
          Aring_baselines.Ring_paxos.participant
            (Aring_baselines.Ring_paxos.create ~me ~n:s.Scenario.n_nodes ()))
    in
    let r = Scenario.run_custom s ~participants in
    Printf.printf "  %-10s %-12s %-7s %8.0f %10.1f %10.1f %10.1f %10.1f\n%!"
      (tier.Profile.tier_name ^ "/" ^ net.Profile.net_name)
      "ring-paxos" "agreed" rate r.Scenario.delivered_mbps
      (Stats.mean r.Scenario.latency_us)
      (Stats.median r.Scenario.latency_us)
      (Stats.percentile r.Scenario.latency_us 99.0)
  in
  List.iter (run_paxos Profile.gigabit Profile.daemon) (thin [ 100.; 300.; 500.; 700.; 800. ]);
  print_newline ();
  List.iter (run_paxos Profile.ten_gigabit Profile.daemon)
    (thin [ 500.; 1000.; 1500.; 2000.; 2500. ])

(* ------------------------------------------------------------------ *)
(* Ablations: the design choices behind the headline result            *)

let ablation_spec ~params ~rate ~net ~tier =
  {
    (spec ~net ~tier ~protocol:`Accelerated ~service:Types.Agreed ~payload:1350
       ~rate)
    with
    params;
  }

let ablation_accel_window () =
  header "Ablation: accelerated window size (Spread tier, 1G)"
    "The single new knob of the paper. 0 = original protocol. At 800 Mbps\n\
     a small window already collapses latency (faster rotations mean small\n\
     per-round batches); at 950 Mbps only accelerated configurations\n\
     sustain the load at all. The paper tunes aw per deployment.";
  List.iter
    (fun aw ->
      let params =
        if aw = 0 then { Params.original with personal_window = 50; global_window = 400 }
        else
          Params.accelerated ~personal_window:50 ~global_window:400
            ~accelerated_window:aw ()
      in
      let r800 =
        Scenario.run
          (ablation_spec ~params ~rate:800. ~net:Profile.gigabit
             ~tier:Profile.spread)
      in
      let r950 =
        Scenario.run
          (ablation_spec ~params ~rate:950. ~net:Profile.gigabit
             ~tier:Profile.spread)
      in
      Printf.printf
        "  aw=%-3d @800: lat=%8.1f us rounds=%4d | @950: delivered=%7.1f Mbps lat=%9.1f us\n%!"
        aw
        (Stats.mean r800.Scenario.latency_us)
        r800.Scenario.token_rounds r950.Scenario.delivered_mbps
        (Stats.mean r950.Scenario.latency_us))
    [ 0; 5; 10; 20; 35; 50 ]

let ablation_priority_method () =
  header "Ablation: token-priority switching method (daemon tier, 10G)"
    "Method 1 (aggressive) maximizes token speed; method 2 (conservative)\n\
     slows it slightly to bound data backlog — identical to the original\n\
     protocol when the accelerated window is 0 (paper Section III-C).";
  List.iter
    (fun (name, prio) ->
      List.iter
        (fun rate ->
          let params =
            Params.accelerated ~personal_window:80 ~global_window:600
              ~accelerated_window:30 ~priority_method:prio ()
          in
          let r =
            Scenario.run
              (ablation_spec ~params ~rate ~net:Profile.ten_gigabit
                 ~tier:Profile.daemon)
          in
          Printf.printf
            "  %-13s rate=%5.0f delivered=%7.1f Mbps  latency mean=%8.1f us p99=%8.1f us\n%!"
            name rate r.Scenario.delivered_mbps
            (Stats.mean r.Scenario.latency_us)
            (Stats.percentile r.Scenario.latency_us 99.0))
        [ 1000.; 2000.; 3000. ];
      print_newline ())
    [ ("aggressive", Params.Aggressive); ("conservative", Params.Conservative) ]

let ablation_personal_window () =
  header "Ablation: personal window (Spread tier, 1G, accelerated, 700 Mbps)"
    "Paper methodology: pick the smallest personal window that still\n\
     reaches the target throughput. Tiny windows (2-3) starve the rotation\n\
     budget and collapse; beyond the sustaining point, growing the window\n\
     changes nothing at this load.";
  List.iter
    (fun pw ->
      let params =
        Params.accelerated ~personal_window:pw ~global_window:(8 * pw)
          ~accelerated_window:(min 20 pw) ()
      in
      let r =
        Scenario.run
          (ablation_spec ~params ~rate:700. ~net:Profile.gigabit
             ~tier:Profile.spread)
      in
      Printf.printf "  pw=%-4d delivered=%7.1f Mbps  latency mean=%8.1f us p99=%8.1f us\n%!"
        pw r.Scenario.delivered_mbps
        (Stats.mean r.Scenario.latency_us)
        (Stats.percentile r.Scenario.latency_us 99.0))
    [ 2; 3; 5; 15; 60; 200 ]

let ablation_loss_resilience () =
  header "Ablation: random packet loss (daemon tier, 1G, 500 Mbps, accelerated)"
    "Flow control plus the rtr mechanism absorb loss: throughput holds\n\
     while retransmissions climb, at the cost of in-order delivery stalls\n\
     (a gap blocks delivery until the rtr round trip completes).\n\
     Delivered can transiently exceed offered as recovered backlog drains\n\
     into the measurement window.";
  List.iter
    (fun loss ->
      let s =
        {
          (spec ~net:(Profile.with_loss Profile.gigabit loss)
             ~tier:Profile.daemon ~protocol:`Accelerated ~service:Types.Agreed
             ~payload:1350 ~rate:500.)
          with
          label = Printf.sprintf "loss=%.3f" loss;
        }
      in
      let r = Scenario.run s in
      Printf.printf
        "  loss=%4.1f%% delivered=%7.1f Mbps  latency mean=%8.1f us p99=%9.1f us retrans=%d\n%!"
        (loss *. 100.) r.Scenario.delivered_mbps
        (Stats.mean r.Scenario.latency_us)
        (Stats.percentile r.Scenario.latency_us 99.0)
        r.Scenario.retransmissions)
    [ 0.0; 0.001; 0.005; 0.02 ]

let ablation_jumbo_frames () =
  header "Extension: jumbo frames (paper future work), 8850 B payloads, 10G"
    "The paper deliberately avoids jumbo frames for applicability but\n\
     conjectures they would improve the large-datagram runs further: a\n\
     9000-byte MTU turns six kernel fragments into one.";
  List.iter
    (fun (name, net) ->
      List.iter
        (fun rate ->
          let r =
            Scenario.run
              (spec ~net ~tier:Profile.spread ~protocol:`Accelerated
                 ~service:Types.Agreed ~payload:8850 ~rate)
          in
          Printf.printf
            "  %-12s rate=%6.0f delivered=%8.1f Mbps  latency mean=%8.1f us p99=%8.1f us\n%!"
            name rate r.Scenario.delivered_mbps
            (Stats.mean r.Scenario.latency_us)
            (Stats.percentile r.Scenario.latency_us 99.0))
        (thin [ 2000.; 5500.; 7000.; 8500. ]);
      print_newline ())
    [
      ("mtu=1500", Profile.ten_gigabit);
      ("mtu=9000", Profile.with_jumbo_frames Profile.ten_gigabit);
    ]

(* Small-message packing: a daemon cluster where every client message is
   120 bytes — Spread's packing coalesces them into full protocol packets. *)
let ablation_packing () =
  header "Extension: Spread-style message packing (120 B messages, 1G, daemon)"
    "Spread packs small messages into one protocol packet (Section\n\
     IV-A.3). Packed runs move far fewer protocol packets for the same\n\
     client-message rate, lifting the achievable small-message rate.";
  let open Aring_ring in
  let open Aring_daemon in
  let run_packing ~packing ~rate_kmsgs =
    let n = 8 in
    let ring = Array.init n (fun i -> i) in
    let members =
      Array.init n (fun me ->
          Member.create ~params:(params_for Profile.gigabit `Accelerated) ~me
            ~initial_ring:ring ())
    in
    let daemons =
      Array.map (fun m -> Daemon.create ~packing ~member:m ()) members
    in
    let sim =
      Netsim.create ~net:Profile.gigabit
        ~tiers:(Array.make n Profile.daemon)
        ~participants:(Array.map Daemon.participant daemons)
        ~seed:5L ()
    in
    let lat = Stats.create () in
    let delivered = ref 0 in
    let warmup = ms 100 and t_end = ms 300 in
    let sessions =
      Array.init n (fun i ->
          let cb =
            {
              Daemon.on_message =
                (fun ~sender:_ ~groups:_ _service payload ->
                  let now = Netsim.now sim in
                  if now >= warmup && now < t_end then begin
                    incr delivered;
                    let sent = Int64.to_int (Bytes.get_int64_be payload 0) in
                    Stats.add lat (float_of_int (now - sent) /. 1e3)
                  end);
              on_group_view = (fun ~group:_ ~members:_ -> ());
            }
          in
          let s = Daemon.connect daemons.(i) ~name:(Printf.sprintf "c%d" i) cb in
          Daemon.join daemons.(i) s "bench";
          s)
    in
    let interval_ns = 1_000_000_000 * n / (rate_kmsgs * 1000) / n in
    for node = 0 to n - 1 do
      let rec tick () =
        let now = Netsim.now sim in
        if now < t_end then begin
          let payload = Bytes.create 120 in
          Bytes.set_int64_be payload 0 (Int64.of_int now);
          Daemon.multicast daemons.(node) sessions.(node) ~groups:[ "bench" ]
            payload;
          Netsim.call_at sim ~at:(now + (interval_ns * n)) tick
        end
      in
      Netsim.call_at sim ~at:(ms 5 + (node * interval_ns)) tick
    done;
    Netsim.run_until sim t_end;
    let rate_meas =
      float_of_int !delivered /. float_of_int n
      /. (float_of_int (t_end - warmup) /. 1e9)
    in
    let packs =
      Array.fold_left (fun acc d -> acc + (Daemon.stats d).packs_sent) 0 daemons
    in
    Printf.printf
      "  packing=%-5b offered=%3dk msg/s delivered=%8.0f msg/s  latency mean=%8.1f us p99=%8.1f us packs=%d\n%!"
      packing rate_kmsgs rate_meas (Stats.mean lat)
      (Stats.percentile lat 99.0)
      packs
  in
  List.iter
    (fun rate_kmsgs ->
      run_packing ~packing:false ~rate_kmsgs;
      run_packing ~packing:true ~rate_kmsgs;
      print_newline ())
    (thin [ 50; 150; 250; 350 ])

let ablations () =
  ablation_accel_window ();
  ablation_priority_method ();
  ablation_personal_window ();
  ablation_loss_resilience ();
  ablation_jumbo_frames ();
  ablation_packing ()

(* ------------------------------------------------------------------ *)
(* Hot-path allocation benchmark (`-- hotpath [quick]`)                 *)
(* Emits BENCH_hotpath.json and fails (exit 1) if allocation per        *)
(* delivered message exceeds the committed budget in                    *)
(* bench/hotpath_budget.json. Schema documented in EXPERIMENTS.md.      *)

module Json = Aring_obs.Json

(* A committed budget file, read fail-closed: an unreadable or
   unparsable file, a missing or mistyped key, or a key outside [keys]
   (besides "schema" and "comment") exits 1, so a typo in a budget can
   never switch its gate off. *)
type budget = { budget_path : string; budget_doc : Json.t }

let budget_error path fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.printf "BUDGET ERROR: %s: %s\n%!" path msg;
      exit 1)
    fmt

let load_budget budget_path keys =
  match In_channel.with_open_bin budget_path In_channel.input_all with
  | s -> (
      match Json.of_string s with
      | Json.Obj fields as budget_doc ->
          List.iter
            (fun (k, _) ->
              if not (List.mem k ("schema" :: "comment" :: keys)) then
                budget_error budget_path "unknown key %S" k)
            fields;
          { budget_path; budget_doc }
      | _ -> budget_error budget_path "not a JSON object"
      | exception Json.Parse_error msg -> budget_error budget_path "%s" msg)
  | exception Sys_error msg -> budget_error budget_path "%s" msg

let budget_float b key =
  match Json.member key b.budget_doc with
  | Some (Json.Float v) -> v
  | Some (Json.Int i) -> float_of_int i
  | _ -> budget_error b.budget_path "missing or non-numeric key %S" key

let budget_bool b key =
  match Json.member key b.budget_doc with
  | Some (Json.Bool v) -> v
  | _ -> budget_error b.budget_path "missing or non-boolean key %S" key

(* Every suite's gate: write [doc] to [file], print a BUDGET FAIL line
   for each failing [(ok, message)] check, in order, then run [on_fail]
   and exit 1 if any check failed. *)
let gate ?(on_fail = ignore) ~file doc checks =
  let oc = open_out file in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n%!" file;
  let failed = List.filter (fun (ok, _) -> not ok) checks in
  List.iter (fun (_, msg) -> Printf.printf "BUDGET FAIL: %s\n%!" msg) failed;
  if failed <> [] then begin
    on_fail ();
    exit 1
  end

(* Post-mortem for the CI artifact, mirroring the fuzz steps. *)
let flight_dump file () =
  Aring_obs.Flight.dump_jsonl_file file;
  Printf.printf "flight dump written to %s\n%!" file

(* Allocated bytes per call of [f], measured with [Gc.allocated_bytes]
   (precise: counts minor allocations, independent of GC timing). *)
let alloc_per_call ~iters f =
  for _ = 1 to 1_000 do f () done;
  let before = Gc.allocated_bytes () in
  for _ = 1 to iters do f () done;
  let after = Gc.allocated_bytes () in
  (after -. before) /. float_of_int iters

let hotpath () =
  Printf.printf "=== Hot-path allocation benchmark%s ===\n%!"
    (if quick then " [QUICK MODE]" else "");
  let iters = if quick then 20_000 else 200_000 in
  let rid : Types.ring_id = { rep = 0; ring_seq = 1 } in
  let data_msg =
    Message.Data
      {
        d_ring = rid;
        seq = 42;
        pid = 3;
        d_round = 7;
        post_token = false;
        service = Types.Agreed;
        payload = Bytes.create 1350;
      }
  in
  let token_msg =
    Message.Token
      {
        t_ring = rid;
        token_id = 17;
        t_round = 9;
        t_seq = 4096;
        aru = 4080;
        aru_id = Some 3;
        fcc = 55;
        rtr = [ 4081; 4085; 4090 ];
      }
  in
  (* Codec: the Buffer-based reference path (the pre-pool encoder, kept
     verbatim) vs the pooled scratch/cursor path, same messages. *)
  let pool = Message.Pool.create () in
  let data_frame = Message.encode data_msg in
  let token_frame = Message.encode token_msg in
  let enc_ref =
    alloc_per_call ~iters (fun () ->
        ignore (Message.encode data_msg);
        ignore (Message.encode token_msg))
  in
  let enc_pool =
    alloc_per_call ~iters (fun () ->
        ignore (Message.Pool.encode_view pool data_msg);
        ignore (Message.Pool.encode_view pool token_msg))
  in
  let dec_ref =
    alloc_per_call ~iters (fun () ->
        ignore (Message.decode data_frame);
        ignore (Message.decode token_frame))
  in
  let dec_pool =
    alloc_per_call ~iters (fun () ->
        ignore (Message.Pool.decode pool data_frame);
        ignore (Message.Pool.decode pool token_frame))
  in
  (* Per message-pair above; normalize to per message. *)
  let enc_ref = enc_ref /. 2. and enc_pool = enc_pool /. 2. in
  let dec_ref = dec_ref /. 2. and dec_pool = dec_pool /. 2. in
  let roundtrip_ref = enc_ref +. dec_ref in
  let roundtrip_pooled = enc_pool +. dec_pool in
  let codec_reduction =
    100. *. (1. -. (roundtrip_pooled /. roundtrip_ref))
  in
  Printf.printf
    "codec (bytes allocated per message, 1350B data + token):\n\
    \  encode   reference %8.1f   pooled %8.1f\n\
    \  decode   reference %8.1f   pooled %8.1f\n\
    \  roundtrip reduction %.1f%%\n%!"
    enc_ref enc_pool dec_ref dec_pool codec_reduction;
  (* Pipeline: the paper's 10G library-tier Agreed workload, run once
     untraced to measure allocation and wall rate, once with the rotation
     profiler (whose trace sink itself allocates) for rotation latency. *)
  let pipeline_spec =
    {
      (spec ~net:Profile.ten_gigabit ~tier:Profile.library
         ~protocol:`Accelerated ~service:Types.Agreed ~payload:1350
         ~rate:2000.)
      with
      label = "hotpath";
      warmup_ns = ms 50;
      measure_ns = (if quick then ms 100 else ms 250);
    }
  in
  let cpu0 = Sys.time () in
  let before = Gc.allocated_bytes () in
  let r = Scenario.run pipeline_spec in
  let after = Gc.allocated_bytes () in
  let cpu_s = Sys.time () -. cpu0 in
  let deliveries = r.Scenario.deliveries in
  let alloc_per_msg =
    if deliveries = 0 then infinity
    else (after -. before) /. float_of_int deliveries
  in
  let msgs_per_sec =
    if cpu_s <= 0. then 0. else float_of_int deliveries /. cpu_s
  in
  let rot = Scenario.run { pipeline_spec with profile_rotation = true } in
  let rotation_p50, rotation_p99, rotation_p999 =
    match rot.Scenario.rotation with
    | Some prof ->
        ( Stats.median prof.Aring_obs.Rotation.rotation_us,
          Stats.percentile prof.Aring_obs.Rotation.rotation_us 99.0,
          Stats.percentile prof.Aring_obs.Rotation.rotation_us 99.9 )
    | None -> (0., 0., 0.)
  in
  Printf.printf
    "pipeline (10G library tier, Agreed, 1350B, %.0f Mbps offered):\n\
    \  deliveries %d  delivered %.1f Mbps  msgs/sec (host CPU) %.0f\n\
    \  allocated bytes per delivered message %.1f\n\
    \  rotation p50 %.1f us  p99 %.1f us\n%!"
    pipeline_spec.Scenario.offered_mbps deliveries r.Scenario.delivered_mbps
    msgs_per_sec alloc_per_msg rotation_p50 rotation_p99;
  (* Committed budget gate. *)
  let budget =
    load_budget "bench/hotpath_budget.json"
      [ "max_pipeline_alloc_bytes_per_msg"; "min_codec_reduction_percent" ]
  in
  let max_alloc = budget_float budget "max_pipeline_alloc_bytes_per_msg" in
  let min_reduction = budget_float budget "min_codec_reduction_percent" in
  let checks =
    [
      ( alloc_per_msg <= max_alloc,
        Printf.sprintf "%.1f allocated bytes/msg exceeds budget %.1f"
          alloc_per_msg max_alloc );
      ( codec_reduction >= min_reduction,
        Printf.sprintf "codec reduction %.1f%% below required %.1f%%"
          codec_reduction min_reduction );
    ]
  in
  let doc =
    Json.Obj
      [
        ("schema", Json.String "aring.bench.hotpath/1");
        ("mode", Json.String (if quick then "quick" else "full"));
        ( "workload",
          Json.Obj
            [
              ("net", Json.String "10g");
              ("tier", Json.String "library");
              ("service", Json.String "agreed");
              ("payload_bytes", Json.Int 1350);
              ("offered_mbps", Json.Float pipeline_spec.Scenario.offered_mbps);
            ] );
        ( "pipeline",
          Json.Obj
            [
              ("deliveries", Json.Int deliveries);
              ("delivered_mbps", Json.Float r.Scenario.delivered_mbps);
              ("msgs_per_sec", Json.Float msgs_per_sec);
              ("alloc_bytes_per_msg", Json.Float alloc_per_msg);
              ("rotation_p50_us", Json.Float rotation_p50);
              ("rotation_p99_us", Json.Float rotation_p99);
              ("rotation_p999_us", Json.Float rotation_p999);
            ] );
        ( "codec",
          Json.Obj
            [
              ("iters", Json.Int iters);
              ("encode_ref_bytes_per_msg", Json.Float enc_ref);
              ("encode_pooled_bytes_per_msg", Json.Float enc_pool);
              ("decode_ref_bytes_per_msg", Json.Float dec_ref);
              ("decode_pooled_bytes_per_msg", Json.Float dec_pool);
              ("roundtrip_reduction_percent", Json.Float codec_reduction);
            ] );
        ( "budget",
          Json.Obj
            [
              ("max_pipeline_alloc_bytes_per_msg", Json.Float max_alloc);
              ("min_codec_reduction_percent", Json.Float min_reduction);
              ("pass", Json.Bool (List.for_all fst checks));
            ] );
      ]
  in
  gate ~file:"BENCH_hotpath.json" doc checks

(* ------------------------------------------------------------------ *)
(* Adaptive accelerated-window sweep (`-- adaptive [quick]`)            *)
(* Step workload on the 1G Spread tier: the offered load jumps          *)
(* 100 -> 900 -> 100 Mbps mid-run. Every static accelerated window is   *)
(* swept against the AIMD controller on the same schedule; per-phase    *)
(* latencies go to BENCH_adaptive.json and the committed                *)
(* bench/adaptive_budget.json gates the adaptive-vs-static ratios.      *)

module Controller = Aring_control.Controller

let adaptive_params aw =
  if aw = 0 then { Params.original with personal_window = 50; global_window = 400 }
  else
    Params.accelerated ~personal_window:50 ~global_window:400
      ~accelerated_window:aw ()

let adaptive () =
  Printf.printf "=== Adaptive accelerated-window benchmark%s ===\n%!"
    (if quick then " [QUICK MODE]" else "");
  let warmup = ms 100 in
  let phase_ns = if quick then ms 80 else ms 150 in
  let low = 100. and high = 900. in
  let statics = [ 0; 5; 10; 20; 35; 50 ] in
  let spec_for ~label ~aw ~controller =
    {
      Scenario.default_spec with
      label;
      net = Profile.gigabit;
      tier = Profile.spread;
      params = adaptive_params aw;
      payload = 1350;
      service = Types.Agreed;
      offered_mbps = low;
      load =
        Scenario.step_load ~low ~high ~at_ns:(warmup + phase_ns)
          ~until_ns:(warmup + (2 * phase_ns));
      warmup_ns = warmup;
      measure_ns = 3 * phase_ns;
      controller;
    }
  in
  (* A phase that fails to keep up with the offered load scores infinity:
     under open-loop overload the backlog (and so the latency) grows for
     as long as the phase lasts, so the mean alone already separates the
     configurations that sustain the load from those that collapse. *)
  let score (p : Scenario.phase) =
    if p.Scenario.p_delivered_mbps < 0.90 *. p.Scenario.p_offered_mbps then
      infinity
    else Stats.mean p.Scenario.p_latency_us
  in
  let print_run name (r : Scenario.result) =
    Printf.printf "  %-10s" name;
    List.iter
      (fun (p : Scenario.phase) ->
        Printf.printf " | %4.0f Mbps: del=%6.1f lat=%8.1f us"
          p.Scenario.p_offered_mbps p.Scenario.p_delivered_mbps
          (Stats.mean p.Scenario.p_latency_us))
      r.Scenario.phases;
    print_newline ()
  in
  Printf.printf
    "step workload: %.0f -> %.0f -> %.0f Mbps (%d ms per phase), Spread tier, 1G, Agreed\n%!"
    low high low (phase_ns / 1_000_000);
  let static_runs =
    List.map
      (fun aw ->
        let r =
          Scenario.run
            (spec_for ~label:(Printf.sprintf "static/aw=%d" aw) ~aw
               ~controller:None)
        in
        print_run (Printf.sprintf "aw=%d" aw) r;
        (aw, r))
      statics
  in
  let r_adaptive =
    Scenario.run
      (spec_for ~label:"adaptive" ~aw:20
         ~controller:(Some (Controller.default_config ~aw_max:50 ())))
  in
  print_run "adaptive" r_adaptive;
  let m = r_adaptive.Scenario.metrics in
  Printf.printf
    "  controller: %d decisions (%d up, %d down, %d congestion signals), last window %.0f\n%!"
    (Aring_obs.Metrics.counter_value m "control.decisions")
    (Aring_obs.Metrics.counter_value m "control.increases")
    (Aring_obs.Metrics.counter_value m "control.decreases")
    (Aring_obs.Metrics.counter_value m "control.congestions")
    (match List.assoc_opt "control.window" (Aring_obs.Metrics.gauges m) with
    | Some w -> w
    | None -> nan);
  (* Per-phase comparison: the adaptive run against the best and worst
     static window for that phase. *)
  let phase_stats =
    List.mapi
      (fun i (ap : Scenario.phase) ->
        let static_scores =
          List.map (fun (aw, r) -> (aw, score (List.nth r.Scenario.phases i)))
            static_runs
        in
        let best_aw, best =
          List.fold_left
            (fun (ba, bs) (aw, s) -> if s < bs then (aw, s) else (ba, bs))
            (-1, infinity) static_scores
        in
        let worst_aw, worst =
          List.fold_left
            (fun (wa, ws) (aw, s) -> if s > ws then (aw, s) else (wa, ws))
            (-1, neg_infinity) static_scores
        in
        let a = score ap in
        let ratio = if Float.is_finite best then a /. best else nan in
        (i, ap, a, (best_aw, best), (worst_aw, worst), ratio))
      r_adaptive.Scenario.phases
  in
  Printf.printf "\nper-phase summary (mean latency, us; inf = failed to sustain):\n";
  List.iter
    (fun (i, (p : Scenario.phase), a, (best_aw, best), (worst_aw, worst), ratio) ->
      Printf.printf
        "  phase %d (%4.0f Mbps): adaptive %8.1f | best static aw=%-2d %8.1f \
         (ratio %.2f) | worst static aw=%-2d %s\n%!"
        (i + 1) p.Scenario.p_offered_mbps a best_aw best ratio worst_aw
        (if Float.is_finite worst then Printf.sprintf "%8.1f" worst
         else "collapsed"))
    phase_stats;
  (* Committed budget gate. *)
  let budget =
    load_budget "bench/adaptive_budget.json"
      [ "max_ratio_vs_best_static"; "require_beats_worst_static" ]
  in
  let max_ratio = budget_float budget "max_ratio_vs_best_static" in
  let beats_worst_req = budget_bool budget "require_beats_worst_static" in
  let checks =
    [
      ( List.for_all (fun (_, _, _, _, _, ratio) -> ratio <= max_ratio) phase_stats,
        Printf.sprintf
          "adaptive/best-static latency ratio exceeds %.2f in some phase"
          max_ratio );
      ( (not beats_worst_req)
        || List.for_all (fun (_, _, a, _, (_, worst), _) -> a < worst) phase_stats,
        "adaptive does not beat the worst static window in every phase" );
    ]
  in
  let json_score s = if Float.is_finite s then Json.Float s else Json.Null in
  let phase_json (i, (p : Scenario.phase), a, (best_aw, best), (worst_aw, worst), ratio) =
    Json.Obj
      [
        ("index", Json.Int i);
        ("offered_mbps", Json.Float p.Scenario.p_offered_mbps);
        ("adaptive_lat_us", json_score a);
        ( "adaptive_lat_p999_us",
          json_score (Stats.percentile p.Scenario.p_latency_us 99.9) );
        ("adaptive_delivered_mbps", Json.Float p.Scenario.p_delivered_mbps);
        ("best_static_aw", Json.Int best_aw);
        ("best_static_lat_us", json_score best);
        ("worst_static_aw", Json.Int worst_aw);
        ("worst_static_lat_us", json_score worst);
        ("ratio_vs_best", json_score ratio);
      ]
  in
  let static_json (aw, (r : Scenario.result)) =
    Json.Obj
      [
        ("aw", Json.Int aw);
        ( "phases",
          Json.List
            (List.map
               (fun (p : Scenario.phase) ->
                 Json.Obj
                   [
                     ("offered_mbps", Json.Float p.Scenario.p_offered_mbps);
                     ("delivered_mbps", Json.Float p.Scenario.p_delivered_mbps);
                     ( "lat_mean_us",
                       json_score (Stats.mean p.Scenario.p_latency_us) );
                     ( "lat_p99_us",
                       json_score (Stats.percentile p.Scenario.p_latency_us 99.0)
                     );
                     ( "lat_p999_us",
                       json_score (Stats.percentile p.Scenario.p_latency_us 99.9)
                     );
                   ])
               r.Scenario.phases) );
      ]
  in
  let doc =
    Json.Obj
      [
        ("schema", Json.String "aring.bench.adaptive/1");
        ("mode", Json.String (if quick then "quick" else "full"));
        ( "workload",
          Json.Obj
            [
              ("net", Json.String "1g");
              ("tier", Json.String "spread");
              ("service", Json.String "agreed");
              ("payload_bytes", Json.Int 1350);
              ("low_mbps", Json.Float low);
              ("high_mbps", Json.Float high);
              ("phase_ms", Json.Int (phase_ns / 1_000_000));
            ] );
        ("phases", Json.List (List.map phase_json phase_stats));
        ("statics", Json.List (List.map static_json static_runs));
        ( "controller",
          Json.Obj
            [
              ( "decisions",
                Json.Int (Aring_obs.Metrics.counter_value m "control.decisions")
              );
              ( "increases",
                Json.Int (Aring_obs.Metrics.counter_value m "control.increases")
              );
              ( "decreases",
                Json.Int (Aring_obs.Metrics.counter_value m "control.decreases")
              );
              ( "congestions",
                Json.Int
                  (Aring_obs.Metrics.counter_value m "control.congestions") );
            ] );
        ( "budget",
          Json.Obj
            [
              ("max_ratio_vs_best_static", Json.Float max_ratio);
              ("require_beats_worst_static", Json.Bool beats_worst_req);
              ("pass", Json.Bool (List.for_all fst checks));
            ] );
      ]
  in
  gate ~file:"BENCH_adaptive.json" doc checks

(* ------------------------------------------------------------------ *)
(* Replicated KV store benchmark (`-- kv [quick]`)                      *)
(* Steady-state op throughput and latency of the daemon-hosted KV       *)
(* replicas, the same workload across a partition + state transfer,     *)
(* and a state-transfer cost sweep vs store size. Every run carries     *)
(* the end-to-end consistency oracle: a violation or a failure to       *)
(* re-converge is a hard failure regardless of the budget file.         *)
(* Emits BENCH_kv.json, gated by bench/kv_budget.json.                  *)

module Load = Aring_multiring.Load

let applied_ratio (r : Load.result) =
  if r.Load.writes_offered = 0 then 0.0
  else float_of_int r.Load.writes_applied /. float_of_int r.Load.writes_offered

(* The one JSON shape of a [Load.result] in the kv and load suites.
   [latency_stages] decomposes the write latency into token ordering,
   delivery and replica apply, from the run's span histograms. *)
let load_run_json label (r : Load.result) =
  let p99 s = Stats.percentile s 99.0 in
  let stage (s : Aring_obs.Span.stage_report) =
    Json.Obj
      [
        ("stage", Json.String s.Aring_obs.Span.stage);
        ("count", Json.Int s.Aring_obs.Span.count);
        ("p50_us", Json.Float s.Aring_obs.Span.p50_us);
        ("p99_us", Json.Float s.Aring_obs.Span.p99_us);
        ("p999_us", Json.Float s.Aring_obs.Span.p999_us);
      ]
  in
  ( label,
    Json.Obj
      [
        ("sessions_started", Json.Int r.Load.sessions_started);
        ("sessions_peak", Json.Int r.Load.sessions_peak);
        ("reconnects", Json.Int r.Load.reconnects);
        ("ops_offered", Json.Int r.Load.ops_offered);
        ("ops_skipped", Json.Int r.Load.ops_skipped);
        ("writes_offered", Json.Int r.Load.writes_offered);
        ("writes_applied", Json.Int r.Load.writes_applied);
        ("offered_write_rate", Json.Float r.Load.offered_write_rate);
        ("applied_write_rate", Json.Float r.Load.applied_write_rate);
        ("applied_offered_ratio", Json.Float (applied_ratio r));
        ("write_p50_us", Json.Float (Stats.median r.Load.write_latency_us));
        ("write_p99_us", Json.Float (p99 r.Load.write_latency_us));
        ("write_p999_us", Json.Float (Stats.p999 r.Load.write_latency_us));
        ("sync_read_p50_us", Json.Float (Stats.median r.Load.sync_read_latency_us));
        ("sync_read_p99_us", Json.Float (p99 r.Load.sync_read_latency_us));
        ("queue_depth_peak", Json.Int r.Load.queue_depth_peak);
        ("queue_depth_end", Json.Int r.Load.queue_depth_end);
        ("slow_inbox_peak", Json.Int r.Load.slow_inbox_peak);
        ("storm_steady_rate", Json.Float r.Load.storm_steady_rate);
        ("storm_rate", Json.Float r.Load.storm_rate);
        ("storm_degradation", Json.Float r.Load.storm_degradation);
        ("storm_recovered_ms", Json.Float r.Load.storm_recovered_ms);
        ("storm_all_reconnected", Json.Bool r.Load.storm_all_reconnected);
        ("installs", Json.Int r.Load.installs);
        ("oracle_violations", Json.Int r.Load.oracle_violations);
        ("converged", Json.Bool r.Load.converged);
        ( "latency_stages",
          Json.List
            (List.map stage (Aring_obs.Span.report_of_metrics r.Load.metrics))
        );
      ] )

let correctness_ok (r : Load.result) =
  r.Load.oracle_violations = 0 && r.Load.converged

let bench_kv () =
  Printf.printf "=== Replicated KV store benchmark%s ===\n%!"
    (if quick then " [QUICK MODE]" else "");
  (* One periodic session per daemon on one ring: the replicated
     store's throughput and latency, not the session tables'. *)
  let value_bytes = 128 in
  let spec =
    {
      Load.default_spec with
      sessions_per_node = 1;
      n_groups = 1;
      arrival = Load.Periodic;
      ops_per_sec = 20_000.0;
      key_space = 64;
      value_mix = [ (value_bytes, 1) ];
      warmup_ns = ms 50;
      seed = 11L;
    }
  in
  let steady =
    Load.run
      {
        spec with
        label = "kv-steady";
        measure_ns = (if quick then ms 150 else ms 400);
      }
  in
  let partitioned =
    Load.run
      {
        spec with
        label = "kv-partition";
        measure_ns = (if quick then ms 200 else ms 400);
        partition =
          Some
            {
              Load.part_at_ns = ms 60;
              heal_at_ns = ms (if quick then 140 else 220);
              island = [ spec.Load.n_nodes - 1 ];
            };
      }
  in
  let pp_run r = Printf.printf "%s\n%!" (Format.asprintf "%a" Load.pp_result r) in
  pp_run steady;
  pp_run partitioned;
  (* State-transfer cost vs store size. *)
  let sweep_sizes =
    if quick then [ 100; 1_000; 5_000 ] else [ 100; 1_000; 5_000; 20_000 ]
  in
  let sweep =
    List.map
      (fun entries ->
        let t = Load.measure_transfer ~store_entries:entries in
        Printf.printf
          "  transfer: %6d entries  %8d bytes  %9.0f us to re-sync\n%!"
          t.Load.entries_transferred t.Load.bytes_transferred t.Load.xfer_us;
        (entries, t))
      sweep_sizes
  in
  (* Committed budget gate. *)
  let budget =
    load_budget "bench/kv_budget.json"
      [
        "min_steady_write_ops_per_sec";
        "max_steady_write_p50_us";
        "max_steady_sync_read_p50_us";
        "max_transfer_us_per_entry";
      ]
  in
  let bound = budget_float budget in
  let min_ops = bound "min_steady_write_ops_per_sec" in
  let max_p50 = bound "max_steady_write_p50_us" in
  let max_sync_p50 = bound "max_steady_sync_read_p50_us" in
  let max_xfer_per_entry = bound "max_transfer_us_per_entry" in
  let write_p50 = Stats.median steady.Load.write_latency_us in
  let sync_p50 = Stats.median steady.Load.sync_read_latency_us in
  (* Amortized transfer cost, judged at the largest sweep point (fixed
     per-transfer overhead dominates the small ones). *)
  let last_entries, last_t = List.nth sweep (List.length sweep - 1) in
  let xfer_per_entry =
    last_t.Load.xfer_us /. float_of_int (max 1 last_entries)
  in
  let checks =
    [
      ( correctness_ok steady && correctness_ok partitioned,
        "consistency oracle violated or replicas failed to converge" );
      ( steady.Load.applied_write_rate >= min_ops,
        Printf.sprintf "%.0f write ops/s below required %.0f"
          steady.Load.applied_write_rate min_ops );
      ( write_p50 <= max_p50,
        Printf.sprintf "write p50 %.0f us above budget %.0f" write_p50 max_p50 );
      ( sync_p50 <= max_sync_p50,
        Printf.sprintf "sync-read p50 %.0f us above budget %.0f" sync_p50
          max_sync_p50 );
      ( xfer_per_entry <= max_xfer_per_entry,
        Printf.sprintf "transfer %.2f us/entry above budget %.2f" xfer_per_entry
          max_xfer_per_entry );
    ]
  in
  let doc =
    Json.Obj
      [
        ("schema", Json.String "aring.bench.kv/2");
        ("mode", Json.String (if quick then "quick" else "full"));
        ( "workload",
          Json.Obj
            [
              ("nodes", Json.Int spec.Load.n_nodes);
              ("net", Json.String "1g");
              ("sessions_per_node", Json.Int spec.Load.sessions_per_node);
              ("ops_per_sec_offered", Json.Float spec.Load.ops_per_sec);
              ("value_bytes", Json.Int value_bytes);
              ("key_space", Json.Int spec.Load.key_space);
              ("zipf_theta", Json.Float spec.Load.zipf_theta);
            ] );
        load_run_json "steady" steady;
        load_run_json "partitioned" partitioned;
        ( "transfer_sweep",
          Json.List
            (List.map
               (fun (entries, t) ->
                 Json.Obj
                   [
                     ("store_entries", Json.Int entries);
                     ("entries_transferred", Json.Int t.Load.entries_transferred);
                     ("bytes_transferred", Json.Int t.Load.bytes_transferred);
                     ("xfer_us", Json.Float t.Load.xfer_us);
                     ("total_installs", Json.Int t.Load.total_installs);
                   ])
               sweep) );
        ( "budget",
          Json.Obj
            [
              ("min_steady_write_ops_per_sec", Json.Float min_ops);
              ("max_steady_write_p50_us", Json.Float max_p50);
              ("max_steady_sync_read_p50_us", Json.Float max_sync_p50);
              ("max_transfer_us_per_entry", Json.Float max_xfer_per_entry);
              ("transfer_us_per_entry", Json.Float xfer_per_entry);
              ("pass", Json.Bool (List.for_all fst checks));
            ] );
      ]
  in
  gate ~file:"BENCH_kv.json" doc checks

(* ------------------------------------------------------------------ *)
(* Observability overhead benchmark (`-- obs [quick]`)                  *)
(* The flight recorder is always on in every run, so its per-event      *)
(* cost IS protocol overhead: measure ns/event and allocated            *)
(* bytes/event in steady state (after the per-node rings exist), the     *)
(* same with the health watchdog subscribed, the disabled recorder and  *)
(* the detached span hook (a single ref read). Emits BENCH_obs.json,    *)
(* gated by bench/obs_budget.json.                                      *)

let bench_obs () =
  let module Flight = Aring_obs.Flight in
  let module Span = Aring_obs.Span in
  let module Health = Aring_obs.Health in
  Printf.printf "=== Observability overhead benchmark%s ===\n%!"
    (if quick then " [QUICK MODE]" else "");
  let iters = if quick then 2_000_000 else 10_000_000 in
  let nodes = 8 in
  (* Warm the recorder: the per-node rings allocate lazily on first
     record; steady state is six int stores into a flat array. *)
  Flight.reset ();
  for node = 0 to nodes - 1 do
    for i = 0 to 1023 do
      Flight.record ~node ~code:Flight.ev_deliver ~a:i ~b:0 ~c:0 ~d:0
    done
  done;
  let time_per_call ~iters f =
    for _ = 1 to 10_000 do
      f ()
    done;
    let t0 = Sys.time () in
    for _ = 1 to iters do
      f ()
    done;
    (Sys.time () -. t0) *. 1e9 /. float_of_int iters
  in
  let i = ref 0 in
  let record_event () =
    incr i;
    Flight.record ~node:(!i land 7) ~code:Flight.ev_data_recv ~a:!i ~b:3 ~c:0
      ~d:0
  in
  let flight_ns = time_per_call ~iters record_event in
  let flight_alloc = alloc_per_call ~iters record_event in
  Flight.set_enabled false;
  let disabled_ns = time_per_call ~iters record_event in
  let disabled_alloc = alloc_per_call ~iters record_event in
  Flight.set_enabled true;
  (* The health watchdog reads the recorder: attached, every record is
     also handed to its subscriber. *)
  let watched_ns, watched_alloc =
    Health.with_health (Health.create ~n:nodes ()) (fun () ->
        let ns = time_per_call ~iters record_event in
        (ns, alloc_per_call ~iters record_event))
  in
  (* The span hook sits on the engine hot path but is opt-in: detached
     (the default outside sim/fuzz runs) it is one ref read. *)
  let span_hook () = ignore (Span.submit_stamp ()) in
  let span_ns = time_per_call ~iters span_hook in
  let span_alloc = alloc_per_call ~iters span_hook in
  Printf.printf
    "flight recorder (enabled, warm): %7.1f ns/event  %5.2f bytes/event\n\
     flight recorder (watchdog):      %7.1f ns/event  %5.2f bytes/event\n\
     flight recorder (disabled):      %7.1f ns/event  %5.2f bytes/event\n\
     span hook (detached):            %7.1f ns/call   %5.2f bytes/call\n%!"
    flight_ns flight_alloc watched_ns watched_alloc disabled_ns disabled_alloc
    span_ns span_alloc;
  (* Committed budget gate. *)
  let budget =
    load_budget "bench/obs_budget.json"
      [
        "max_flight_ns_per_event";
        "max_flight_alloc_bytes_per_event";
        "max_disabled_ns_per_event";
        "max_detached_hook_ns";
      ]
  in
  let bound = budget_float budget in
  let max_flight_ns = bound "max_flight_ns_per_event" in
  let max_flight_alloc = bound "max_flight_alloc_bytes_per_event" in
  let max_disabled_ns = bound "max_disabled_ns_per_event" in
  let max_detached_ns = bound "max_detached_hook_ns" in
  let checks =
    [
      ( flight_ns <= max_flight_ns,
        Printf.sprintf "flight %.1f ns/event above budget %.1f" flight_ns
          max_flight_ns );
      ( flight_alloc <= max_flight_alloc,
        Printf.sprintf "flight %.2f allocated bytes/event above budget %.2f"
          flight_alloc max_flight_alloc );
      ( watched_ns <= max_flight_ns,
        Printf.sprintf "flight with watchdog %.1f ns/event above budget %.1f"
          watched_ns max_flight_ns );
      ( watched_alloc <= max_flight_alloc,
        Printf.sprintf
          "flight with watchdog %.2f allocated bytes/event above budget %.2f"
          watched_alloc max_flight_alloc );
      ( disabled_ns <= max_disabled_ns,
        Printf.sprintf "disabled recorder %.1f ns/event above budget %.1f"
          disabled_ns max_disabled_ns );
      ( span_ns <= max_detached_ns,
        Printf.sprintf "detached span hook %.1f ns above budget %.1f" span_ns
          max_detached_ns );
    ]
  in
  let doc =
    Json.Obj
      [
        ("schema", Json.String "aring.bench.obs/2");
        ("mode", Json.String (if quick then "quick" else "full"));
        ("iters", Json.Int iters);
        ( "flight",
          Json.Obj
            [
              ("ns_per_event", Json.Float flight_ns);
              ("alloc_bytes_per_event", Json.Float flight_alloc);
              ("watched_ns_per_event", Json.Float watched_ns);
              ("watched_alloc_bytes_per_event", Json.Float watched_alloc);
              ("disabled_ns_per_event", Json.Float disabled_ns);
              ("disabled_alloc_bytes_per_event", Json.Float disabled_alloc);
              ("capacity_per_node", Json.Int (Flight.capacity ()));
            ] );
        ( "hooks_detached",
          Json.Obj
            [
              ("span_ns_per_call", Json.Float span_ns);
              ("span_alloc_bytes_per_call", Json.Float span_alloc);
            ] );
        ( "budget",
          Json.Obj
            [
              ("max_flight_ns_per_event", Json.Float max_flight_ns);
              ("max_flight_alloc_bytes_per_event", Json.Float max_flight_alloc);
              ("max_disabled_ns_per_event", Json.Float max_disabled_ns);
              ("max_detached_hook_ns", Json.Float max_detached_ns);
              ("pass", Json.Bool (List.for_all fst checks));
            ] );
      ]
  in
  gate ~file:"BENCH_obs.json" doc checks

(* ==================================================================== *)
(* Recovery-exchange scaling: one member of a bootstrapped N-ring       *)
(* crashes with traffic in flight; we measure simulated                 *)
(* crash-to-operational time (detection + gather + exchange + install)  *)
(* and the recovery-traffic counters — exchange floods actually sent,   *)
(* sends avoided by designated-holder dedup, paced bursts, nack-driven  *)
(* resends — per ring size. Emits BENCH_recovery.json, gated by         *)
(* bench/recovery_budget.json.                                          *)

type recovery_row = {
  rr_nodes : int;
  rr_reform_ms : float;
  rr_attempts : int;
  rr_floods : int;
  rr_dedup_saved : int;
  rr_dedup_ratio : float;
  rr_bursts : int;
  rr_resend_reqs : int;
  rr_resends : int;
}

let bench_recovery () =
  let module Health = Aring_obs.Health in
  Printf.printf "=== Recovery-exchange scaling benchmark%s ===\n%!"
    (if quick then " [QUICK MODE]" else "");
  let sizes = if quick then [ 4; 8; 16 ] else [ 4; 8; 16; 32; 64 ] in
  (* Short membership timeouts (as in the membership test suite) keep the
     detection share of reform time at 50 ms across sizes, so scaling in
     the measurement is scaling of gather + exchange + install. *)
  let params =
    {
      (Params.accelerated ()) with
      token_loss_ns = ms 50;
      token_retransmit_ns = ms 10;
      join_retransmit_ns = ms 20;
      consensus_timeout_ns = ms 100;
      merge_probe_ns = ms 80;
    }
  in
  let crash_ns = ms 8 in
  let deadline_ns = ms 5000 in
  let run_size n =
    let members =
      Array.init n (fun me ->
          Member.create ~params ~me ~initial_ring:(Array.init n (fun i -> i))
            ())
    in
    let sim =
      Netsim.create ~net:Profile.gigabit
        ~tiers:(Array.make n Profile.library)
        ~participants:(Array.map Member.participant members)
        ~seed:7L ()
    in
    (* Dense multicast traffic right up to the crash, with the
       highest-numbered node starved of the last 3 ms of multicasts (a
       deterministic straggler — there is no retransmission path once
       the token dies with the crash), leaves the exchange a real
       backlog at every size. *)
    for k = 1 to 160 do
      Netsim.call_at sim ~at:(k * 50_000) (fun () ->
          Member.submit members.(k mod n) Types.Agreed
            (Bytes.of_string (Printf.sprintf "r%d" k)))
    done;
    Netsim.call_at sim ~at:(ms 5) (fun () ->
        Netsim.set_drop sim (fun ~src:_ ~dst -> function
          | Message.Data _ -> dst = n - 1
          | _ -> false));
    Netsim.call_at sim ~at:crash_ns (fun () ->
        Netsim.crash sim 1;
        Netsim.set_drop sim (fun ~src:_ ~dst:_ _ -> false));
    let h = Health.create ~n () in
    let reformed () =
      let ok = ref true in
      for i = 0 to n - 1 do
        if i <> 1 then
          ok :=
            !ok
            && Member.state_name members.(i) = "operational"
            && Member.installs members.(i) >= 2
      done;
      !ok
    in
    let reform_ns = ref (-1) in
    Health.with_health h (fun () ->
        let t = ref (ms 10) in
        while !reform_ns < 0 && !t <= deadline_ns do
          Netsim.run_until sim !t;
          if reformed () then reform_ns := !t;
          t := !t + ms 1
        done);
    if !reform_ns < 0 then begin
      Printf.printf "FAIL: %d-node ring did not re-form within %d ms\n%!" n
        (deadline_ns / ms 1);
      exit 1
    end;
    let report = Health.report h ~now:!reform_ns in
    let sum f = List.fold_left (fun a nr -> a + f nr) 0 report.Health.r_nodes in
    let floods = sum (fun (nr : Health.node_report) -> nr.nr_flood_total) in
    let saved = sum (fun (nr : Health.node_report) -> nr.nr_dedup_saved) in
    let attempts =
      List.fold_left
        (fun a (nr : Health.node_report) -> max a nr.nr_max_attempts)
        0 report.Health.r_nodes
    in
    {
      rr_nodes = n;
      rr_reform_ms = float_of_int (!reform_ns - crash_ns) /. 1e6;
      rr_attempts = attempts;
      rr_floods = floods;
      rr_dedup_saved = saved;
      rr_dedup_ratio =
        (if floods + saved = 0 then 0.
         else float_of_int saved /. float_of_int (floods + saved));
      rr_bursts = sum (fun (nr : Health.node_report) -> nr.nr_bursts);
      rr_resend_reqs = sum (fun (nr : Health.node_report) -> nr.nr_resend_reqs);
      rr_resends = sum (fun (nr : Health.node_report) -> nr.nr_resend_total);
    }
  in
  Printf.printf
    "nodes  reform_ms  attempts  floods  dedup_saved  ratio  bursts  nacks  \
     resends\n%!";
  let rows = List.map run_size sizes in
  List.iter
    (fun r ->
      Printf.printf "%5d  %9.1f  %8d  %6d  %11d  %5.2f  %6d  %5d  %7d\n%!"
        r.rr_nodes r.rr_reform_ms r.rr_attempts r.rr_floods r.rr_dedup_saved
        r.rr_dedup_ratio r.rr_bursts r.rr_resend_reqs r.rr_resends)
    rows;
  (* Committed budget gate. *)
  let budget =
    load_budget "bench/recovery_budget.json"
      [
        "max_reform_ms";
        "max_formation_attempts";
        "min_dedup_savings_ratio_largest";
      ]
  in
  let bound = budget_float budget in
  let max_reform = bound "max_reform_ms" in
  let max_attempts = bound "max_formation_attempts" in
  let min_ratio = bound "min_dedup_savings_ratio_largest" in
  let worst_reform =
    List.fold_left (fun a r -> Float.max a r.rr_reform_ms) 0. rows
  in
  let worst_attempts =
    List.fold_left (fun a r -> max a r.rr_attempts) 0 rows
  in
  let largest = List.nth rows (List.length rows - 1) in
  let checks =
    [
      ( worst_reform <= max_reform,
        Printf.sprintf "worst reform %.1f ms above budget %.1f" worst_reform
          max_reform );
      ( float_of_int worst_attempts <= max_attempts,
        Printf.sprintf "%d formation attempts above budget %.0f" worst_attempts
          max_attempts );
      ( largest.rr_dedup_ratio >= min_ratio,
        Printf.sprintf "dedup savings ratio %.2f at %d nodes below budget %.2f"
          largest.rr_dedup_ratio largest.rr_nodes min_ratio );
    ]
  in
  let doc =
    Json.Obj
      [
        ("schema", Json.String "aring.bench.recovery/1");
        ("mode", Json.String (if quick then "quick" else "full"));
        ( "sizes",
          Json.List
            (List.map
               (fun r ->
                 Json.Obj
                   [
                     ("nodes", Json.Int r.rr_nodes);
                     ("reform_ms", Json.Float r.rr_reform_ms);
                     ("formation_attempts", Json.Int r.rr_attempts);
                     ("floods", Json.Int r.rr_floods);
                     ("dedup_saved", Json.Int r.rr_dedup_saved);
                     ("dedup_ratio", Json.Float r.rr_dedup_ratio);
                     ("bursts", Json.Int r.rr_bursts);
                     ("resend_reqs", Json.Int r.rr_resend_reqs);
                     ("resends", Json.Int r.rr_resends);
                   ])
               rows) );
        ( "budget",
          Json.Obj
            [
              ("max_reform_ms", Json.Float max_reform);
              ("max_formation_attempts", Json.Float max_attempts);
              ("min_dedup_savings_ratio_largest", Json.Float min_ratio);
              ("pass", Json.Bool (List.for_all fst checks));
            ] );
      ]
  in
  gate ~file:"BENCH_recovery.json" doc checks

(* ------------------------------------------------------------------ *)
(* Production workload benchmark (`-- load [quick]`)                    *)
(* Open-loop sessions at scale: 2000 concurrent daemon sessions offer   *)
(* a Zipf-skewed KV mix at a fixed aggregate rate, decoupled from       *)
(* completions. A steady run (with slow receivers riding along) gates   *)
(* p99/p99.9 write latency and the applied/offered ratio; a reconnect-  *)
(* storm run gates applied-rate degradation and post-storm recovery.    *)
(* Emits BENCH_load.json, gated by bench/load_budget.json. On a budget  *)
(* failure the flight recorder's tail is dumped for the CI artifact.    *)

let bench_load () =
  Printf.printf "=== Production workload benchmark%s ===\n%!"
    (if quick then " [QUICK MODE]" else "");
  let steady =
    Load.run
      {
        Load.default_spec with
        label = "load-steady";
        measure_ns = ms (if quick then 150 else 300);
        slow = Some { Load.slow_per_node = 2; drain_per_sec = 2_000.0 };
      }
  in
  let storm_at = if quick then 180 else 200 in
  let storm =
    Load.run
      {
        Load.default_spec with
        label = "load-storm";
        measure_ns = ms (if quick then 200 else 300);
        churn =
          Some
            {
              Load.mean_lifetime_ns = 0;
              reconnect_delay_ns = ms 5;
              storm =
                Some
                  {
                    Load.storm_at_ns = ms storm_at;
                    storm_sessions = 400;
                    storm_window_ns = ms 20;
                  };
            };
      }
  in
  let pp_run r = Printf.printf "%s\n%!" (Format.asprintf "%a" Load.pp_result r) in
  pp_run steady;
  pp_run storm;
  let p99 s = Stats.percentile s 99.0 in
  (* Committed budget gate. *)
  let budget =
    load_budget "bench/load_budget.json"
      [
        "min_concurrent_sessions";
        "max_steady_write_p99_us";
        "max_steady_write_p999_us";
        "min_applied_offered_ratio";
        "max_storm_degradation";
        "max_storm_recovery_ms";
      ]
  in
  let bound = budget_float budget in
  let min_sessions = bound "min_concurrent_sessions" in
  let max_p99 = bound "max_steady_write_p99_us" in
  let max_p999 = bound "max_steady_write_p999_us" in
  let min_ratio = bound "min_applied_offered_ratio" in
  let max_degradation = bound "max_storm_degradation" in
  let max_recovery = bound "max_storm_recovery_ms" in
  let checks =
    [
      ( correctness_ok steady && correctness_ok storm,
        "consistency oracle violated or replicas failed to converge" );
      ( float_of_int steady.Load.sessions_peak >= min_sessions
        && float_of_int storm.Load.sessions_peak >= min_sessions
        (* The 2000-session floor is unconditional, whatever the budget
           file says. *)
        && steady.Load.sessions_peak >= 2000,
        Printf.sprintf
          "peak concurrent sessions (steady %d, storm %d) below the required \
           floor"
          steady.Load.sessions_peak storm.Load.sessions_peak );
      ( p99 steady.Load.write_latency_us <= max_p99,
        Printf.sprintf "steady write p99 %.0f us above budget %.0f"
          (p99 steady.Load.write_latency_us)
          max_p99 );
      ( Stats.p999 steady.Load.write_latency_us <= max_p999,
        Printf.sprintf "steady write p99.9 %.0f us above budget %.0f"
          (Stats.p999 steady.Load.write_latency_us)
          max_p999 );
      ( applied_ratio steady >= min_ratio,
        Printf.sprintf "applied/offered ratio %.3f below budget %.3f"
          (applied_ratio steady) min_ratio );
      ( storm.Load.storm_degradation <= max_degradation,
        Printf.sprintf "storm degradation %.0f%% above budget %.0f%%"
          (100.0 *. storm.Load.storm_degradation)
          (100.0 *. max_degradation) );
      ( storm.Load.storm_recovered_ms >= 0.0
        && storm.Load.storm_recovered_ms <= max_recovery
        && storm.Load.storm_all_reconnected,
        Printf.sprintf
          "storm recovery %.1f ms (all reconnected: %b) misses budget %.1f ms"
          storm.Load.storm_recovered_ms storm.Load.storm_all_reconnected
          max_recovery );
    ]
  in
  let doc =
    Json.Obj
      [
        ("schema", Json.String "aring.bench.load/1");
        ("mode", Json.String (if quick then "quick" else "full"));
        ( "workload",
          Json.Obj
            [
              ("nodes", Json.Int Load.default_spec.Load.n_nodes);
              ( "sessions",
                Json.Int
                  (Load.default_spec.Load.n_nodes
                  * Load.default_spec.Load.sessions_per_node) );
              ("groups", Json.Int Load.default_spec.Load.n_groups);
              ("ops_per_sec_offered", Json.Float Load.default_spec.Load.ops_per_sec);
              ("zipf_theta", Json.Float Load.default_spec.Load.zipf_theta);
              ("key_space", Json.Int Load.default_spec.Load.key_space);
              ("storm_sessions", Json.Int 400);
            ] );
        load_run_json "steady" steady;
        load_run_json "storm" storm;
        ( "budget",
          Json.Obj
            [
              ("min_concurrent_sessions", Json.Float min_sessions);
              ("max_steady_write_p99_us", Json.Float max_p99);
              ("max_steady_write_p999_us", Json.Float max_p999);
              ("min_applied_offered_ratio", Json.Float min_ratio);
              ("max_storm_degradation", Json.Float max_degradation);
              ("max_storm_recovery_ms", Json.Float max_recovery);
              ("pass", Json.Bool (List.for_all fst checks));
            ] );
      ]
  in
  gate ~on_fail:(flight_dump "BENCH_load_flight.jsonl") ~file:"BENCH_load.json"
    doc checks

(* -------------------------------------------------------------------- *)
(* Multi-ring sharded ordering: ring-scaling benchmark                  *)
(* The same saturating write-heavy open-loop workload against 1, 2 and  *)
(* 4 rings of 4 nodes, keys sharded across rings and a deterministic    *)
(* learner merge reassembling one total order. Netsim gives every ring  *)
(* instance its own simulated host (CPU, NIC, switch port), so R rings  *)
(* run on R x 4 hosts, not on 4 shared ones. The                        *)
(* gates: aggregate merged throughput at 4 rings must scale >= the      *)
(* committed factor over single-ring, and the merge-added p99 (ring     *)
(* apply -> merged emergence) must stay within budget. Emits            *)
(* BENCH_multiring.json, gated by bench/multiring_budget.json.          *)

let bench_multiring () =
  Printf.printf "=== Multi-ring sharded ordering benchmark%s ===\n%!"
    (if quick then " [QUICK MODE]" else "");
  (* Write-only mix at an offered rate far past single-ring capacity
     (~290k writes/s on this profile): open-loop, so the saturated
     single ring queues while extra rings add real ordered throughput.
     Two deliberate choices isolate ring scaling:

     - Uniform keys, not Zipf. The round-robin merge emits at
       [rings x slowest-shard rate] — skips cover *idle* rings, not
       busy-but-slower ones — so shard skew caps aggregate throughput at
       the coldest shard's pace (with the default Zipf 0.99 mix the
       coldest of 4 shards draws ~20% of the load and scaling tops out
       near 0.8x). That skew ceiling is a property worth knowing, but it
       is the sharding function's story; the scaling gate uses uniform
       keys so it measures the rings.
     - No mcas in the sweep. A cross-shard cas parks its shard for a
       decide round-trip, which measures the mcas protocol, not ring
       scaling; a separate mcas run keeps that path hot and is gated on
       consistency. *)
  let spec rings =
    {
      Load.default_spec with
      label = Printf.sprintf "multiring-%dr" rings;
      rings;
      sessions_per_node = 100;
      ops_per_sec = 1_000_000.0;
      zipf_theta = 0.0;
      read_permille = 0;
      sync_read_permille = 0;
      cas_permille = 50;
      del_permille = 50;
      mcas_permille = 0;
      measure_ns = ms (if quick then 150 else 300);
      drain_ns = ms 2_000;
    }
  in
  let runs = List.map (fun r -> Load.run (spec r)) [ 1; 2; 4 ] in
  let mcas_run =
    Load.run
      {
        (spec 4) with
        label = "multiring-4r-mcas";
        ops_per_sec = 30_000.0;
        mcas_permille = 10;
      }
  in
  List.iter
    (fun r -> Printf.printf "%s\n%!" (Format.asprintf "%a" Load.pp_result r))
    (runs @ [ mcas_run ]);
  let find rings =
    List.find (fun r -> r.Load.spec.Load.rings = rings) runs
  in
  let r1 = find 1 and r2 = find 2 and r4 = find 4 in
  let p99 s = Stats.percentile s 99.0 in
  let speedup (r : Load.result) =
    if r1.Load.applied_write_rate <= 0.0 then 0.0
    else r.Load.applied_write_rate /. r1.Load.applied_write_rate
  in
  (* Committed budget gate. *)
  let budget =
    load_budget "bench/multiring_budget.json"
      [ "min_speedup_4r"; "min_speedup_2r"; "max_merge_wait_p99_us" ]
  in
  let bound = budget_float budget in
  let min_speedup_4r = bound "min_speedup_4r" in
  let min_speedup_2r = bound "min_speedup_2r" in
  let max_merge_p99 = bound "max_merge_wait_p99_us" in
  let merge_p99_worst = Float.max (p99 r2.Load.merge_wait_us) (p99 r4.Load.merge_wait_us) in
  let checks =
    [
      ( List.for_all correctness_ok (runs @ [ mcas_run ]),
        "consistency oracle violated or a run failed to converge" );
      ( speedup r4 >= min_speedup_4r
        && speedup r2 >= min_speedup_2r
        (* The 4-ring floor is unconditional: 4 rings must deliver at
           least 3x single-ring aggregate applied throughput, budget
           file or not. *)
        && speedup r4 >= 3.0,
        Printf.sprintf
          "ring scaling 2r=%.2fx 4r=%.2fx misses the committed floors (4r \
           floor is 3.0x unconditionally)"
          (speedup r2) (speedup r4) );
      ( merge_p99_worst <= max_merge_p99,
        Printf.sprintf "merge-added p99 %.0f us above budget %.0f"
          merge_p99_worst max_merge_p99 );
    ]
  in
  let run_json ?name (r : Load.result) =
    ( (match name with
      | Some n -> n
      | None -> Printf.sprintf "rings_%d" r.Load.spec.Load.rings),
      Json.Obj
        [
          ("rings", Json.Int r.Load.spec.Load.rings);
          ("ops_offered", Json.Int r.Load.ops_offered);
          ("writes_offered", Json.Int r.Load.writes_offered);
          ("writes_applied", Json.Int r.Load.writes_applied);
          ("offered_write_rate", Json.Float r.Load.offered_write_rate);
          ("applied_write_rate", Json.Float r.Load.applied_write_rate);
          ("speedup_vs_1r", Json.Float (speedup r));
          ("write_p50_us", Json.Float (Stats.median r.Load.write_latency_us));
          ("write_p99_us", Json.Float (p99 r.Load.write_latency_us));
          ("merge_wait_p50_us", Json.Float (Stats.median r.Load.merge_wait_us));
          ("merge_wait_p99_us", Json.Float (p99 r.Load.merge_wait_us));
          ( "per_ring_applied",
            Json.List
              (Array.to_list
                 (Array.map (fun n -> Json.Int n) r.Load.per_ring_applied)) );
          ("mcas_submitted", Json.Int r.Load.mcas_submitted);
          ("mcas_commits", Json.Int r.Load.mcas_commits);
          ("mcas_aborts", Json.Int r.Load.mcas_aborts);
          ("mcas_retries", Json.Int r.Load.mcas_retries);
          ("skip_credits_spent", Json.Int r.Load.skip_credits_spent);
          ("queue_depth_peak", Json.Int r.Load.queue_depth_peak);
          ("queue_depth_end", Json.Int r.Load.queue_depth_end);
          ("oracle_violations", Json.Int r.Load.oracle_violations);
          ("converged", Json.Bool r.Load.converged);
        ] )
  in
  let doc =
    Json.Obj
      ([
         ("schema", Json.String "aring.bench.multiring/1");
         ("mode", Json.String (if quick then "quick" else "full"));
         ( "workload",
           Json.Obj
             [
               ("nodes_per_ring", Json.Int (spec 1).Load.n_nodes);
               ("sessions_per_node", Json.Int (spec 1).Load.sessions_per_node);
               ("ops_per_sec_offered", Json.Float (spec 1).Load.ops_per_sec);
               ("zipf_theta", Json.Float (spec 1).Load.zipf_theta);
               ("key_space", Json.Int (spec 1).Load.key_space);
               ("mcas_permille", Json.Int mcas_run.Load.spec.Load.mcas_permille);
             ] );
       ]
      @ List.map (fun r -> run_json r) runs
      @ [
          run_json ~name:"rings_4_mcas" mcas_run;
        ]
      @ [
          ( "budget",
            Json.Obj
              [
                ("min_speedup_4r", Json.Float min_speedup_4r);
                ("min_speedup_2r", Json.Float min_speedup_2r);
                ("max_merge_wait_p99_us", Json.Float max_merge_p99);
                ("pass", Json.Bool (List.for_all fst checks));
              ] );
        ])
  in
  gate ~on_fail:(flight_dump "BENCH_multiring_flight.jsonl")
    ~file:"BENCH_multiring.json" doc checks

let () =
  if mode_multiring then begin
    bench_multiring ();
    exit 0
  end;
  if mode_load then begin
    bench_load ();
    exit 0
  end;
  if mode_recovery then begin
    bench_recovery ();
    exit 0
  end;
  if mode_obs then begin
    bench_obs ();
    exit 0
  end;
  if mode_kv then begin
    bench_kv ();
    exit 0
  end;
  if mode_hotpath then begin
    hotpath ();
    exit 0
  end;
  if mode_adaptive then begin
    adaptive ();
    exit 0
  end;
  Printf.printf
    "Accelerated Ring reproduction benchmarks%s\n\
     8 nodes; calibrated simulator profiles (see DESIGN.md / EXPERIMENTS.md)\n"
    (if quick then " [QUICK MODE]" else "");
  fig1 ();
  rotation_profile ();
  fig2 ();
  fig3 ();
  fig4 ();
  fig5 ();
  fig6 ();
  fig7 ();
  headline ();
  related ();
  related_ring_paxos ();
  ablations ();
  Printf.printf "\nDone.\n"
