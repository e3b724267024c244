module Prng = Aring_util.Prng
module Fnv = Aring_util.Fnv
module Checker = Aring_obs.Checker
module Trace = Aring_obs.Trace
module Trace_json = Aring_obs.Trace_json
module Flight = Aring_obs.Flight
module Health = Aring_obs.Health
module Kv = Aring_app.Kv
module Oracle = Aring_app.Oracle
module Cluster = Aring_multiring.Cluster
open Aring_wire
open Aring_ring
open Aring_sim

type app = App_none | App_kv

let app_of_string = function
  | "none" -> Ok App_none
  | "kv" -> Ok App_kv
  | s -> Error (Printf.sprintf "unknown app %S" s)

type failure =
  | Invariant of Checker.verdict
  | No_merge of { states : (int * string) list }
  | No_convergence of { missing : (int * string) list }
  | Kv_violation of { total : int; messages : string list }
  | Kv_unsettled of { nodes : (int * string) list }
  | Mcas_divergence of { id : string; decisions : (int * int * bool) list }
  | Health_stall of { report : Health.report }
  | Run_exception of string

type outcome = {
  schedule : Schedule.t;
  failure : failure option;
  verdict : Checker.verdict;
  deliveries : int;
  views : int;
  trace_hash : int64;
  end_ns : int;
  health : Health.report;
      (* End-of-run watchdog report, also on passing runs: tests assert
         convergence quality (peak formation attempts, dedup savings),
         not just convergence. *)
}

let passed o = o.failure = None

let failure_label = function
  | Invariant _ -> "invariant"
  | No_merge _ -> "no_merge"
  | No_convergence _ -> "no_convergence"
  | Kv_violation _ -> "kv_violation"
  | Kv_unsettled _ -> "kv_unsettled"
  | Health_stall _ -> "health_stall"
  | Mcas_divergence _ -> "mcas_divergence"
  | Run_exception _ -> "exception"

let ms n = n * 1_000_000

let probe_payload node = Printf.sprintf "probe:%d" node

(* One static drop predicate closing over the simulated clock handles
   arbitrarily overlapping fault windows (the LIFO-scoped
   [Netsim.set_drop_until] cannot). Burst losses consume a dedicated PRNG;
   predicate evaluation order is deterministic, so the draw stream is
   too. Partitions and blackouts carry a ring scope (-1 = every ring,
   the only value single-ring schedules carry); islands are physical, so
   a scoped partition cuts the same physical nodes but only inside one
   ring's multicast domain. Crashes are physical: [crash node] kills the
   node in every ring. *)
let install_faults sim ~crash (s : Schedule.t) =
  let n = s.config.Schedule.n_nodes in
  let partitions =
    List.filter_map
      (function
        | Schedule.Partition { at_ns; until_ns; island; ring } ->
            let inside = Array.make n false in
            List.iter
              (fun i -> if i >= 0 && i < n then inside.(i) <- true)
              island;
            Some (at_ns, until_ns, inside, ring)
        | _ -> None)
      s.faults
  in
  let bursts =
    List.filter_map
      (function
        | Schedule.Loss_burst { at_ns; until_ns; permille } ->
            Some (at_ns, until_ns, permille)
        | _ -> None)
      s.faults
  in
  let blackouts =
    List.filter_map
      (function
        | Schedule.Token_blackout { at_ns; until_ns; ring } ->
            Some (at_ns, until_ns, ring)
        | _ -> None)
      s.faults
  in
  let burst_prng = Prng.create ~seed:(Int64.logxor s.seed 0x6275727374L) in
  Netsim.set_drop sim (fun ~src ~dst msg ->
      let now = Netsim.now sim in
      let active at until = now >= at && now < until in
      (* Domains prune cross-ring traffic before this predicate runs, so
         src and dst always share a ring. *)
      let in_ring ring = ring < 0 || src / n = ring in
      List.exists
        (fun (at, until, inside, ring) ->
          active at until && in_ring ring
          && inside.(src mod n) <> inside.(dst mod n))
        partitions
      || (match msg with
         | Message.Token _ | Message.Commit _ ->
             List.exists
               (fun (at, until, ring) -> active at until && in_ring ring)
               blackouts
         | _ -> false)
      ||
      let permille =
        List.fold_left
          (fun acc (at, until, p) -> if active at until then max acc p else acc)
          0 bursts
      in
      permille > 0 && Prng.int burst_prng 1000 < permille);
  List.iter
    (function
      | Schedule.Crash { at_ns; node } ->
          if node >= 0 && node < n then
            Netsim.call_at sim ~at:at_ns (fun () -> crash node)
      | _ -> ())
    s.faults

let install_workload sim (s : Schedule.t) (members : Member.t array) =
  let c = s.config in
  let n = c.Schedule.n_nodes in
  let wl_prng = Prng.create ~seed:(Int64.logxor s.seed 0x776F726BL) in
  let pad tag =
    let len = max (String.length tag) c.Schedule.payload in
    let b = Bytes.make len '.' in
    Bytes.blit_string tag 0 b 0 (String.length tag);
    b
  in
  for node = 0 to n - 1 do
    let counter = ref 0 in
    let rec tick () =
      if Netsim.now sim < c.Schedule.horizon_ns && Netsim.is_alive sim node
      then begin
        incr counter;
        let service =
          if
            c.Schedule.safe_permille > 0
            && Prng.int wl_prng 1000 < c.Schedule.safe_permille
          then Types.Safe
          else Types.Agreed
        in
        Member.submit members.(node) service
          (pad (Printf.sprintf "m:%d:%d" node !counter));
        Netsim.call_at sim
          ~at:(Netsim.now sim + c.Schedule.submit_gap_ns)
          tick
      end
    in
    (* Stagger the start so nodes do not tick in lockstep. *)
    Netsim.call_at sim ~at:(ms 1 + (node * 97_000)) tick
  done

(* KV workload: every node issues a skewed read/write mix at the
   schedule's submission rate, routed through the cluster's shard map;
   above one ring a slice of it is cross-shard mcas, half of those
   carrying a check read from the local replica so both the commit and
   abort paths run. The schedule's safe-permille knob doubles as the
   sync-read fraction (sync reads are the Safe-service traffic of the
   app layer). Value padding follows the schedule's payload knob but is
   capped: full-MTU values on top of the per-op envelope framing would
   turn every membership-recovery exchange into a switch-buffer
   endurance test (the raw-member workload already covers full-size
   payloads); the kv suite is after consistency bugs, not congestion
   collapse. *)
let kv_key_space = 64
let kv_hot_keys = 8
let kv_max_value = 160

let install_kv_workload cluster (s : Schedule.t) =
  let c = s.config in
  let n = c.Schedule.n_nodes in
  let sim = Cluster.sim cluster in
  let wl_prng = Prng.create ~seed:(Int64.logxor s.seed 0x6B76776CL) in
  let pad tag =
    let len =
      max (String.length tag) (min c.Schedule.payload kv_max_value)
    in
    let b = Bytes.make len '.' in
    Bytes.blit_string tag 0 b 0 (String.length tag);
    Bytes.to_string b
  in
  let key_j () =
    if Prng.int wl_prng 1000 < 800 then Prng.int wl_prng kv_hot_keys
    else kv_hot_keys + Prng.int wl_prng (kv_key_space - kv_hot_keys)
  in
  let key () = Printf.sprintf "k%02d" (key_j ()) in
  (* A pair of distinct keys, preferably on different rings; after 8
     failed draws settle for a same-shard (still multi-key) mcas. *)
  let cross_pair () =
    let j1 = key_j () in
    let k1 = Printf.sprintf "k%02d" j1 in
    let s1 = Cluster.shard_of_key cluster k1 in
    let rec go tries =
      let j = key_j () in
      let k = Printf.sprintf "k%02d" j in
      if j <> j1 && Cluster.shard_of_key cluster k <> s1 then k
      else if tries = 0 then Printf.sprintf "k%02d" ((j1 + 1) mod kv_key_space)
      else go (tries - 1)
    in
    (k1, go 8)
  in
  for node = 0 to n - 1 do
    let counter = ref 0 in
    let rec tick () =
      if Netsim.now sim < c.Schedule.horizon_ns && Cluster.alive cluster ~node
      then begin
        incr counter;
        let key = key () in
        if
          c.Schedule.safe_permille > 0
          && Prng.int wl_prng 1000 < c.Schedule.safe_permille
        then
          Kv.sync_read
            (Cluster.kv cluster
               ~ring:(Cluster.shard_of_key cluster key)
               ~node)
            ~key
            ~on_result:(fun _ ~token:_ -> ())
        else begin
          let r = Prng.int wl_prng 1000 in
          if r < 250 then ignore (Cluster.read cluster ~node ~key)
          else if r < 320 then Cluster.del cluster ~node ~key
          else if r < 420 then
            (* CAS against the local view: sometimes stale, so both the
               success and failure paths execute at every replica. *)
            let expect, _ = Cluster.read cluster ~node ~key in
            Cluster.cas cluster ~node ~key ~expect
              ~value:(pad (Printf.sprintf "c:%d:%d" node !counter))
          else if c.Schedule.rings > 1 && r < 480 then begin
            let k1, k2 = cross_pair () in
            let checks =
              if Prng.bool wl_prng then
                [ (k1, fst (Cluster.read cluster ~node ~key:k1)) ]
              else []
            in
            Cluster.mcas cluster ~node
              ~id:(Printf.sprintf "fm:%d:%d" node !counter)
              ~checks
              ~writes:
                [
                  (k1, pad (Printf.sprintf "x:%d:%d:a" node !counter));
                  (k2, pad (Printf.sprintf "x:%d:%d:b" node !counter));
                ]
          end
          else
            Cluster.put cluster ~node ~key
              ~value:(pad (Printf.sprintf "v:%d:%d" node !counter))
        end;
        Netsim.call_at sim
          ~at:(Netsim.now sim + c.Schedule.submit_gap_ns)
          tick
      end
    in
    Netsim.call_at sim ~at:(ms 1 + (node * 97_000)) tick
  done

(* The formation-cycle threshold must scale with the schedule: a
   membership attempt rides token circuits of ~2n hops, so under
   sustained per-hop loss p each attempt fails with probability about
   1 - (1-p)^(2n) from loss alone -- at 27 nodes and 19 permille that is
   ~65%, and runs of 8+ consecutive loss-killed attempts are routine,
   not a livelock. Pick the smallest k that bounds the false-positive
   odds of k consecutive legitimate failures below ~1e-4; a true
   livelock (which never succeeds) still trips it, and the deadline
   oracles keep judging final convergence regardless. *)
let health_config (c : Schedule.config) =
  let base = Health.default_config in
  let p = float_of_int c.Schedule.base_loss_permille /. 1000. in
  let attempt_fail =
    1. -. ((1. -. p) ** float_of_int (2 * c.Schedule.n_nodes))
  in
  if attempt_fail <= 0. || attempt_fail >= 1. then base
  else
    let k = int_of_float (ceil (log 1e-4 /. log attempt_fail)) in
    { base with Health.k_formation = max base.Health.k_formation k }

(* What a schedule runs on. [App_none] at one ring is the only stack
   without daemons: raw members, whose payloads the probes need. Every
   other run is a {!Cluster} hosting the KV app. *)
type stack = Members of Member.t array | Cluster of Cluster.t

let run ?(bug = Bug.Clean) ?(adaptive = false) ?(app = App_none) ?extra_sink
    (s : Schedule.t) =
  let c = s.config in
  let n = c.Schedule.n_nodes in
  let rings = c.Schedule.rings in
  let raw = app = App_none && rings = 1 in
  if bug = Bug.Recovery_flood && not raw then
    invalid_arg
      "Runner.run: Bug.Recovery_flood needs raw members (app none, one ring)";
  let params = Schedule.params c in
  let net = Schedule.net c in
  let tiers =
    Array.of_list (List.map Schedule.tier c.Schedule.tier_ids)
  in
  (* One controller per member: the adaptive window is node-local state, so
     each node learns independently. The controller draws no entropy of its
     own, so runs stay deterministic per schedule. *)
  let controller () =
    if adaptive then
      Some
        (Aring_control.Controller.create
           ~config:
             (Aring_control.Controller.default_config
                ~aw_max:params.Params.personal_window ())
           ~init:params.Params.accelerated_window ())
    else None
  in
  (* Fourth judge: the recovery/stall health watchdog, attached for the
     whole run and fed by Member/Engine through the global instrument.
     The flight recorder restarts empty so a post-mortem dump shows only
     this run. Neither touches the hashed trace stream. *)
  Flight.reset ();
  let health = Health.create ~config:(health_config c) ~n:(rings * n) () in
  Health.attach health;
  (* The injected bug wraps every participant (with the kv app, the
     daemon participant: the full stack); app-layer bugs are planted
     inside ring 0's replica. *)
  let stack, sim =
    if raw then
      let initial_ring = Array.init n Fun.id in
      let members =
        Array.init n (fun me ->
            Member.create ~params ~me ~initial_ring ?controller:(controller ())
              ~legacy_flood:(bug = Bug.Recovery_flood) ())
      in
      let participants =
        Array.mapi (fun i m -> Bug.wrap bug ~node:i (Member.participant m)) members
      in
      (Members members, Netsim.create ~net ~tiers ~participants ~seed:s.seed ())
    else
      let kv_bug ~ring ~node =
        match bug with
        | Bug.Kv_skip_apply { node = bn; every } when bn = node && ring = 0 ->
            Some (Kv.Bug_skip_apply { every })
        | _ -> None
      in
      let cl =
        Cluster.create ~params ~net ~tiers ~seed:s.seed
          ~controller:(fun ~pid:_ -> controller ())
          ~wrap:(fun ~pid p -> Bug.wrap bug ~node:pid p)
          ~kv_bug ~rings ~nodes:n ()
      in
      (Cluster cl, Cluster.sim cl)
  in
  let member ~ring ~node =
    match stack with
    | Members members -> members.(node)
    | Cluster cl -> Cluster.member cl ~ring ~node
  in
  let pid ~ring ~node = (ring * n) + node in
  let all_rings = List.init rings Fun.id in
  let checker = Checker.create () in
  (* FNV-1a, 64-bit, over the JSONL rendering of each trace event. *)
  let hash = ref Fnv.offset in
  let hash_sink =
    Trace.fn_sink (fun ev ->
        hash := Fnv.string (Fnv.string !hash (Trace_json.to_line ev)) "\n")
  in
  let deliveries = ref 0 in
  let views = ref 0 in
  (* (node, probe payload) pairs actually delivered (raw members only). *)
  let got : (int * string, unit) Hashtbl.t = Hashtbl.create 64 in
  Netsim.on_deliver sim (fun ~at:node ~now:_ (d : Message.data) ->
      incr deliveries;
      if raw then
        let p = Bytes.to_string d.Message.payload in
        if String.length p >= 6 && String.sub p 0 6 = "probe:" then
          Hashtbl.replace got (node, p) ());
  Netsim.on_view sim (fun ~at:_ ~now:_ _ -> incr views);
  (* Netsim.crash records the crash, so the watchdog never flags a dead
     node as stuck. *)
  let crash node =
    match stack with
    | Members _ -> Netsim.crash sim node
    | Cluster cl -> Cluster.crash cl ~node
  in
  install_faults sim ~crash s;
  (match (stack, app) with
  | Members members, _ -> install_workload sim s members
  | Cluster cl, App_kv -> install_kv_workload cl s
  | Cluster _, App_none -> ());
  (* A crash kills a node in every ring, so ring 0 speaks for all. *)
  let alive () = List.filter (Netsim.is_alive sim) (List.init n Fun.id) in
  (* Liveness stage 1, per ring: all survivors operational in one common
     regular view whose membership is exactly the ring's survivor pids.
     A run only counts as merged when every ring has re-formed — an idle
     or slow ring must not be vacuously skipped. All fault windows close
     inside the horizon and crashes are permanent, so once reached this
     is stable (absent real liveness bugs). The state_name check is
     load-bearing: [current_view] reports the last *installed* view, so a
     node mid-formation still answers with a stale view — without the
     check, probes can be submitted while nodes are re-forming, land in
     client_pending, and get sequenced in whichever (possibly partial)
     ring installs next, never reaching the full membership. *)
  let merged () =
    match alive () with
    | [] -> true
    | survivors ->
        let ring_ok ring =
          List.for_all
            (fun node -> Member.state_name (member ~ring ~node) = "operational")
            survivors
          &&
          let pids = List.map (fun node -> pid ~ring ~node) survivors in
          let views =
            List.map (fun node -> Member.current_view (member ~ring ~node)) survivors
          in
          List.for_all
            (function
              | Some v ->
                  (not v.Participant.transitional)
                  && List.sort compare v.Participant.members = pids
              | None -> false)
            views
          &&
          match views with
          | Some v0 :: rest ->
              List.for_all
                (function
                  | Some v ->
                      Types.ring_id_equal v.Participant.view_id
                        v0.Participant.view_id
                  | None -> false)
                rest
          | _ -> true
        in
        List.for_all ring_ok all_rings
  in
  (* Liveness stage 2 opens once the survivors merge after the horizon.
     Raw members then get one probe per survivor: EVS allows a message
     sequenced in a pre-merge configuration to be delivered only within
     it, so probing earlier would flag correct behavior. Raw ring
     payloads are never state-transferred across a later merge, and the
     KV app's per-view traffic makes post-horizon membership changes
     routine, so a cluster is instead judged on replica equality (which
     state transfer does guarantee) and merge quiescence. *)
  let stage2 = ref false in
  let probes = ref [] in
  let open_stage2 () =
    stage2 := true;
    match stack with
    | Members members ->
        probes := List.map probe_payload (alive ());
        List.iter
          (fun node ->
            Member.submit members.(node) Types.Agreed
              (Bytes.of_string (probe_payload node)))
          (alive ())
    | Cluster _ -> ()
  in
  let missing_probes () =
    List.concat_map
      (fun node ->
        List.filter_map
          (fun p ->
            if Hashtbl.mem got (node, p) then None else Some (node, p))
          !probes)
      (alive ())
  in
  let app_settled () =
    match stack with
    | Members _ -> missing_probes () = []
    | Cluster cl ->
        merged () && Cluster.kv_converged cl && Cluster.merge_settled cl
  in
  let converged () = !stage2 && app_settled () in
  let kv_violation_failure cl =
    let messages =
      List.concat_map (fun ring -> Oracle.messages (Cluster.oracle cl ~ring)) all_rings
    in
    let keep = List.filteri (fun i _ -> i < 8) messages in
    Kv_violation { total = Cluster.oracle_violations cl; messages = keep }
  in
  (* Cross-shard atomicity: every decision observation for one mcas id —
     any node, any ring, any time — must carry the same commit bit. *)
  let mcas_divergence () =
    match stack with
    | Members _ -> None
    | Cluster cl ->
        List.find_map
          (fun (id, _, _) ->
            match Cluster.decisions_for cl id with
            | [] -> None
            | (_, _, c0) :: rest ->
                if List.exists (fun (_, _, c) -> c <> c0) rest then
                  let decisions =
                    List.filteri (fun i _ -> i < 12) (Cluster.decisions_for cl id)
                  in
                  Some (Mcas_divergence { id; decisions })
                else None)
          (Cluster.mcas_ids cl)
  in
  let safety_failure () =
    if Checker.violation_count checker > 0 then
      Some (Invariant (Checker.verdict checker))
    else
      match stack with
      | Cluster cl when Cluster.oracle_violations cl > 0 ->
          Some (kv_violation_failure cl)
      | _ -> mcas_divergence ()
  in
  let per_ring_pid f =
    List.concat_map
      (fun ring -> List.map (fun node -> (pid ~ring ~node, f ~ring ~node)) (alive ()))
      all_rings
  in
  let kv_states cl =
    per_ring_pid (fun ~ring ~node ->
        let kv = Cluster.kv cl ~ring ~node in
        let m = member ~ring ~node in
        Printf.sprintf
          "ring=%d node=%d applied=%d digest=%016Lx synced=%b settled=%b \
           parked=%b merge_blocked=%d state=%s view=%s"
          ring node (Kv.applied kv) (Kv.digest kv) (Kv.synced kv)
          (Kv.settled kv) (Kv.mcas_parked kv)
          (Cluster.merge_blocked cl ~node ~ring)
          (Member.state_name m)
          (match Member.current_view m with
          | None -> "-"
          | Some v ->
              Format.asprintf "%a[%s]" Types.pp_ring_id v.Participant.view_id
                (String.concat "," (List.map string_of_int v.Participant.members))))
  in
  (* The liveness verdict at the drain deadline. Once stage 2 is open, a
     raw run can only be missing probes, and a cluster run has no probes
     to miss. *)
  let liveness_failure () =
    let no_merge () =
      No_merge
        {
          states =
            per_ring_pid (fun ~ring ~node ->
                Member.state_name (member ~ring ~node));
        }
    in
    if not !stage2 then no_merge ()
    else
      match List.sort compare (missing_probes ()) with
      | _ :: _ as missing -> No_convergence { missing }
      | [] -> (
          match stack with
          | Cluster cl when merged () -> Kv_unsettled { nodes = kv_states cl }
          | _ -> no_merge ())
  in
  let deadline = c.Schedule.horizon_ns + c.Schedule.drain_ns in
  let chunk = ms 25 in
  (* Chunked execution: stop at the first chunk boundary with a violation
     (fast failure) or with full convergence (fast success). Chunk
     boundaries and the stage-2 point depend only on the schedule and
     the trace so far, so stopping early keeps the trace hash
     reproducible. *)
  let failure = ref None in
  let finished = ref false in
  let sink =
    Trace.tee
      ([ Checker.as_sink checker; hash_sink ]
      @ Option.to_list extra_sink)
  in
  (try
     Trace.with_sink sink (fun () ->
         let t = ref 0 in
         while not !finished do
           t := min deadline (!t + chunk);
           Netsim.run_until sim !t;
           match safety_failure () with
           | Some f ->
               failure := Some f;
               finished := true
           | None ->
               if (not !stage2) && !t > c.Schedule.horizon_ns && merged ()
               then open_stage2 ();
               if c.Schedule.liveness && converged () then finished := true
               else if
                 c.Schedule.liveness && Health.check health ~now:!t <> []
               then begin
                 (* Stalled: stop now with an explanation instead of
                    burning the rest of the drain budget to a timeout. *)
                 failure :=
                   Some (Health_stall { report = Health.report health ~now:!t });
                 finished := true
               end
               else if !t >= deadline then begin
                 if c.Schedule.liveness then
                   failure := Some (liveness_failure ());
                 finished := true
               end
         done)
   with e -> failure := Some (Run_exception (Printexc.to_string e)));
  let health_report = Health.report health ~now:(Netsim.now sim) in
  Health.detach ();
  (* Final oracle pass: end-of-run convergence (survivor stores equal and
     byte-identical to their shadows) plus any violation recorded after
     the last chunk boundary. *)
  (match (!failure, stack) with
  | None, Cluster cl ->
      if c.Schedule.liveness then Cluster.check_convergence cl;
      if Cluster.oracle_violations cl > 0 then
        failure := Some (kv_violation_failure cl)
      else failure := mcas_divergence ()
  | _ -> ());
  {
    schedule = s;
    failure = !failure;
    verdict = Checker.verdict checker;
    deliveries = !deliveries;
    views = !views;
    trace_hash = !hash;
    end_ns = Netsim.now sim;
    health = health_report;
  }

let pp_failure ppf = function
  | Invariant v ->
      Format.fprintf ppf "invariant violations (%d):" v.Checker.violation_total;
      List.iteri
        (fun i viol ->
          if i < 5 then
            Format.fprintf ppf "@,  %s" (Checker.violation_message viol))
        v.Checker.recorded
  | No_merge { states } ->
      Format.fprintf ppf "survivors never merged into one view:";
      List.iter
        (fun (node, st) -> Format.fprintf ppf "@,  node %d: %s" node st)
        states
  | No_convergence { missing } ->
      Format.fprintf ppf "no convergence; %d missing probe deliveries:"
        (List.length missing);
      List.iteri
        (fun i (node, p) ->
          if i < 8 then Format.fprintf ppf "@,  node %d never saw %s" node p)
        missing
  | Kv_violation { total; messages } ->
      Format.fprintf ppf "kv consistency violations (%d):" total;
      List.iter (fun m -> Format.fprintf ppf "@,  %s" m) messages
  | Kv_unsettled { nodes } ->
      Format.fprintf ppf "kv replicas never converged:";
      List.iter
        (fun (node, st) -> Format.fprintf ppf "@,  node %d: %s" node st)
        nodes
  | Health_stall { report } ->
      Format.fprintf ppf "health watchdog stall:@,%a" Health.pp_report report
  | Mcas_divergence { id; decisions } ->
      Format.fprintf ppf "cross-shard mcas %s decided differently:" id;
      List.iteri
        (fun i (node, ring, commit) ->
          if i < 12 then
            Format.fprintf ppf "@,  node %d ring %d: %s" node ring
              (if commit then "commit" else "abort"))
        decisions
  | Run_exception e -> Format.fprintf ppf "exception: %s" e

let pp_outcome ppf o =
  match o.failure with
  | None ->
      Format.fprintf ppf
        "@[<v>PASS deliveries=%d views=%d end=%dms hash=%016Lx@]" o.deliveries
        o.views
        (o.end_ns / ms 1)
        o.trace_hash
  | Some f ->
      Format.fprintf ppf "@[<v>FAIL (%s) deliveries=%d views=%d end=%dms@,%a@]"
        (failure_label f) o.deliveries o.views
        (o.end_ns / ms 1)
        pp_failure f
