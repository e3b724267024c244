(* Health watchdog: per-node membership-phase accounting (time-in-state,
   entry counters, exchange-recheck and recovery-flood volume) plus a
   stall detector. Two triggers:

   - Formation_cycle: a node has started [k_formation] gather phases
     since it last reached operational, while *no* node anywhere has
     completed a formation for [stall_ns] of virtual time — the
     signature of the recovery-flood livelock, where every formation
     attempt dies in the exchange/recheck loop and re-gathers forever.
     The no-install gate is load-bearing: under sustained loss a ring
     churns through formations with a few unlucky nodes legitimately
     burning long runs of attempts, but as long as configurations keep
     installing somewhere (dozens of views per second in such runs),
     that is retry behavior working, not a livelock. Delivery idleness
     would be the wrong gate — in the post-horizon drain an already
     drained ring delivers nothing while it churns toward the final
     merge.
   - No_progress: no message delivered anywhere for [stall_ns] of
     virtual time while some live node is stuck outside operational.

   Like Trace and Span, the watchdog is a global attach/detach
   instrument, but it has no feed of its own: attaching it subscribes it
   to the flight recorder, and it updates its counters from the records
   Member, Engine and Netsim already write there (one [Flight.record]
   per event). With no watchdog attached a record pays one ref read for
   the empty subscriber slot. It emits no trace events — pinned corpus
   hashes cannot see it. *)

type config = { k_formation : int; stall_ns : int }

let default_config = { k_formation = 8; stall_ns = 1_000_000_000 }

(* ------------------------------------------------------------------ *)
(* Phase codes (shared with Flight's ev_phase argument)                *)

let phase_operational = 0
let phase_gather = 1
let phase_commit = 2
let phase_recover = 3
let n_phases = 4

(* Past the four phases: the state of a node after its crash record. *)
let phase_crashed = 4

let phase_name = function
  | 0 -> "operational"
  | 1 -> "gather"
  | 2 -> "commit"
  | 3 -> "recover"
  | 4 -> "crashed"
  | _ -> "unknown"

type node_state = {
  mutable ns_phase : int;  (* current phase code; phase_crashed once dead *)
  mutable ns_phase_since : int;
  ns_time_in : int array;  (* ns accumulated per phase, length n_phases *)
  ns_entries : int array;  (* lifetime phase entries, length n_phases *)
  mutable ns_attempts : int;  (* gather entries since last operational *)
  mutable ns_max_attempts : int;  (* peak ns_attempts over the node's lifetime *)
  mutable ns_rechecks : int;  (* recheck fires since last operational *)
  mutable ns_giveups : int;  (* recheck give-ups since last operational *)
  mutable ns_floods : int;  (* recovery messages flooded since last operational *)
  mutable ns_resends : int;  (* nack-triggered resends since last operational *)
  (* Lifetime recovery-traffic counters (never reset): the dedup/pacing
     efficiency measures the recovery bench gates on. *)
  mutable ns_flood_total : int;  (* exchange messages multicast, incl. resends *)
  mutable ns_dedup_saved : int;  (* sends avoided by designated-holder dedup *)
  mutable ns_bursts : int;  (* paced flood bursts fired *)
  mutable ns_resend_reqs : int;  (* cumulative nacks multicast *)
  mutable ns_resend_total : int;  (* messages re-sent answering nacks *)
}

type t = {
  cfg : config;
  nodes : node_state array;
  mutable last_delivery_ns : int;
  mutable last_operational_ns : int;
  mutable deliveries : int;
}

let create ?(config = default_config) ~n () =
  if n <= 0 then invalid_arg "Health.create: n must be > 0";
  {
    cfg = config;
    nodes =
      Array.init n (fun _ ->
          {
            ns_phase = -1;
            ns_phase_since = 0;
            ns_time_in = Array.make n_phases 0;
            ns_entries = Array.make n_phases 0;
            ns_attempts = 0;
            ns_max_attempts = 0;
            ns_rechecks = 0;
            ns_giveups = 0;
            ns_floods = 0;
            ns_resends = 0;
            ns_flood_total = 0;
            ns_dedup_saved = 0;
            ns_bursts = 0;
            ns_resend_reqs = 0;
            ns_resend_total = 0;
          });
    last_delivery_ns = 0;
    last_operational_ns = 0;
    deliveries = 0;
  }

(* ------------------------------------------------------------------ *)
(* The flight-record subscriber                                        *)

let close_phase ns now =
  if ns.ns_phase >= 0 && ns.ns_phase < n_phases then
    ns.ns_time_in.(ns.ns_phase) <-
      ns.ns_time_in.(ns.ns_phase) + max 0 (now - ns.ns_phase_since)

let enter_phase t ns phase now =
  if ns.ns_phase <> phase_crashed then begin
    close_phase ns now;
    ns.ns_phase <- phase;
    ns.ns_phase_since <- now;
    if phase >= 0 && phase < n_phases then
      ns.ns_entries.(phase) <- ns.ns_entries.(phase) + 1;
    if phase = phase_gather then begin
      ns.ns_attempts <- ns.ns_attempts + 1;
      ns.ns_max_attempts <- max ns.ns_max_attempts ns.ns_attempts
    end;
    if phase = phase_operational then begin
      t.last_operational_ns <- now;
      ns.ns_attempts <- 0;
      ns.ns_rechecks <- 0;
      ns.ns_giveups <- 0;
      ns.ns_floods <- 0;
      ns.ns_resends <- 0
    end
  end

(* Record arguments as documented in flight.mli. Deliveries count from
   any node; everything else is per node and ignored outside [0, n). *)
let on_record t ~node ~code ~a ~b:_ ~c ~d:_ ~now =
  if code = Flight.ev_deliver then begin
    t.last_delivery_ns <- now;
    t.deliveries <- t.deliveries + 1
  end
  else if node < Array.length t.nodes then begin
    let ns = t.nodes.(node) in
    if code = Flight.ev_phase then enter_phase t ns a now
    else if code = Flight.ev_recheck then ns.ns_rechecks <- ns.ns_rechecks + 1
    else if code = Flight.ev_recheck_giveup then
      ns.ns_giveups <- ns.ns_giveups + 1
    else if code = Flight.ev_burst then begin
      ns.ns_bursts <- ns.ns_bursts + 1;
      ns.ns_floods <- ns.ns_floods + a;
      ns.ns_flood_total <- ns.ns_flood_total + a
    end
    else if code = Flight.ev_dedup then
      ns.ns_dedup_saved <- ns.ns_dedup_saved + c
    else if code = Flight.ev_nack then
      ns.ns_resend_reqs <- ns.ns_resend_reqs + 1
    else if code = Flight.ev_resend then begin
      ns.ns_resends <- ns.ns_resends + a;
      ns.ns_resend_total <- ns.ns_resend_total + a
    end
    else if code = Flight.ev_crash then begin
      close_phase ns now;
      ns.ns_phase <- phase_crashed;
      ns.ns_phase_since <- now
    end
  end

let attach t = Flight.set_watch (Some (on_record t))
let detach () = Flight.set_watch None

let with_health t f =
  attach t;
  Fun.protect ~finally:detach f

(* ------------------------------------------------------------------ *)
(* Stall detection                                                     *)

type stall =
  | Formation_cycle of {
      fc_node : int;
      fc_attempts : int;
      fc_rechecks : int;
      fc_giveups : int;
      fc_floods : int;
    }
  | No_progress of { np_idle_ns : int; np_stuck : (int * string) list }

let check t ~now =
  let no_install = now - t.last_operational_ns > t.cfg.stall_ns in
  let cycles =
    Array.to_list t.nodes
    |> List.mapi (fun node ns -> (node, ns))
    |> List.filter_map (fun (node, ns) ->
           if
             ns.ns_phase <> phase_crashed
             && ns.ns_attempts >= t.cfg.k_formation
             && no_install
           then
             Some
               (Formation_cycle
                  {
                    fc_node = node;
                    fc_attempts = ns.ns_attempts;
                    fc_rechecks = ns.ns_rechecks;
                    fc_giveups = ns.ns_giveups;
                    fc_floods = ns.ns_floods;
                  })
           else None)
  in
  let idle = now - t.last_delivery_ns in
  let stuck =
    Array.to_list t.nodes
    |> List.mapi (fun node ns -> (node, ns))
    |> List.filter_map (fun (node, ns) ->
           if
             ns.ns_phase >= 0
             && ns.ns_phase <> phase_crashed
             && ns.ns_phase <> phase_operational
             && now - ns.ns_phase_since > t.cfg.stall_ns
           then Some (node, phase_name ns.ns_phase)
           else None)
  in
  let progress =
    if idle > t.cfg.stall_ns && stuck <> [] then
      [ No_progress { np_idle_ns = idle; np_stuck = stuck } ]
    else []
  in
  cycles @ progress

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)

type node_report = {
  nr_node : int;
  nr_phase : string;
  nr_attempts : int;
  nr_max_attempts : int;
  nr_rechecks : int;
  nr_giveups : int;
  nr_floods : int;
  nr_resends : int;
  nr_flood_total : int;
  nr_dedup_saved : int;
  nr_bursts : int;
  nr_resend_reqs : int;
  nr_resend_total : int;
  nr_entries : (string * int) list;
  nr_time_in_ms : (string * float) list;
  nr_trail : string list;  (* oldest first, run-length compressed *)
}

type report = {
  r_now_ns : int;
  r_deliveries : int;
  r_stalls : stall list;
  r_nodes : node_report list;
}

(* The node's last [trail_capacity] membership moments, oldest first,
   read back from its flight records. *)
let trail_capacity = 64

let trail_names node =
  let name (r : Flight.record_view) =
    if r.r_code = Flight.ev_phase then Some (phase_name r.r_a)
    else if r.r_code = Flight.ev_recheck then Some "exchange-recheck"
    else if r.r_code = Flight.ev_recheck_giveup then Some "recheck-giveup"
    else if r.r_code = Flight.ev_crash then Some "crashed"
    else None
  in
  let names = List.filter_map name (Flight.node_records node) in
  let skip = List.length names - trail_capacity in
  List.filteri (fun i _ -> i >= skip) names

(* "gather, recheck, recheck, recheck" -> ["gather"; "recheck x3"]. *)
let compress_trail names =
  let rec go = function
    | [] -> []
    | name :: rest ->
        let rec span n = function
          | c :: tl when c = name -> span (n + 1) tl
          | tl -> (n, tl)
        in
        let n, rest = span 1 rest in
        (if n = 1 then name else Printf.sprintf "%s x%d" name n) :: go rest
  in
  go names

let report t ~now =
  let nodes =
    Array.to_list t.nodes
    |> List.mapi (fun node ns ->
           let label i = phase_name i in
           {
             nr_node = node;
             nr_phase = phase_name ns.ns_phase;
             nr_attempts = ns.ns_attempts;
             nr_max_attempts = ns.ns_max_attempts;
             nr_rechecks = ns.ns_rechecks;
             nr_giveups = ns.ns_giveups;
             nr_floods = ns.ns_floods;
             nr_resends = ns.ns_resends;
             nr_flood_total = ns.ns_flood_total;
             nr_dedup_saved = ns.ns_dedup_saved;
             nr_bursts = ns.ns_bursts;
             nr_resend_reqs = ns.ns_resend_reqs;
             nr_resend_total = ns.ns_resend_total;
             nr_entries =
               List.init n_phases (fun i -> (label i, ns.ns_entries.(i)));
             nr_time_in_ms =
               List.init n_phases (fun i ->
                   let extra =
                     if ns.ns_phase = i then max 0 (now - ns.ns_phase_since)
                     else 0
                   in
                   (label i,
                    float_of_int (ns.ns_time_in.(i) + extra) /. 1e6));
             nr_trail = compress_trail (trail_names node);
           })
  in
  {
    r_now_ns = now;
    r_deliveries = t.deliveries;
    r_stalls = check t ~now;
    r_nodes = nodes;
  }

let pp_stall ppf = function
  | Formation_cycle { fc_node; fc_attempts; fc_rechecks; fc_giveups; fc_floods } ->
      Format.fprintf ppf
        "node %d: repeated gather→exchange→recheck cycling — %d formation \
         attempts without reaching operational (%d exchange-recheck timeouts, \
         %d recheck give-ups, %d recovery floods)"
        fc_node fc_attempts fc_rechecks fc_giveups fc_floods
  | No_progress { np_idle_ns; np_stuck } ->
      Format.fprintf ppf
        "no delivery progress for %dms; nodes stuck outside operational:%s"
        (np_idle_ns / 1_000_000)
        (String.concat ""
           (List.map
              (fun (n, p) -> Printf.sprintf " %d(%s)" n p)
              np_stuck))

let pp_report ppf r =
  Format.fprintf ppf "@[<v>health verdict at %dms (%d deliveries):"
    (r.r_now_ns / 1_000_000) r.r_deliveries;
  List.iter (fun s -> Format.fprintf ppf "@,  stall: %a" pp_stall s) r.r_stalls;
  List.iter
    (fun nr ->
      Format.fprintf ppf
        "@,  node %d: phase=%s attempts=%d rechecks=%d giveups=%d floods=%d \
         resends=%d"
        nr.nr_node nr.nr_phase nr.nr_attempts nr.nr_rechecks nr.nr_giveups
        nr.nr_floods nr.nr_resends;
      Format.fprintf ppf
        "@,    recovery traffic: peak-attempts=%d floods=%d dedup-saved=%d \
         bursts=%d nacks=%d resent=%d"
        nr.nr_max_attempts nr.nr_flood_total nr.nr_dedup_saved nr.nr_bursts
        nr.nr_resend_reqs nr.nr_resend_total;
      Format.fprintf ppf "@,    entries:%s time:%s"
        (String.concat ""
           (List.map (fun (p, n) -> Printf.sprintf " %s=%d" p n) nr.nr_entries))
        (String.concat ""
           (List.map
              (fun (p, ms) -> Printf.sprintf " %s=%.1fms" p ms)
              nr.nr_time_in_ms));
      Format.fprintf ppf "@,    trail: %s" (String.concat " → " nr.nr_trail))
    r.r_nodes;
  Format.fprintf ppf "@]"
