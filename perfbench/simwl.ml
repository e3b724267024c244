(* The three simulated workloads. The benchmark owns its inputs: the
   arrival schedule is drawn here from the run's seed, and the stack is
   driven only through public calls (Cluster, Kv, Daemon, Netsim), so a
   change to the library's own load generators cannot change what is
   offered. Load is open loop: every arrival is a Netsim event at its due
   time, and latency runs from that due time. *)

open Aring_wire
open Aring_ring
open Aring_sim
module Cluster = Aring_multiring.Cluster
module Merge = Aring_multiring.Merge
module Daemon = Aring_daemon.Daemon
module Kv = Aring_app.Kv
module Op = Aring_app.Op
module Prng = Aring_util.Prng
module Health = Aring_obs.Health

type kind = Read | Sync_read | Cas | Del | Put

type spec = {
  name : string;
  rings : int;
  nodes : int;
  sessions_per_node : int;
  groups : int;
  rate : float;  (** Offered ops/s, all clients together. *)
  keys : int;
  zipf : float option;  (** [None]: uniform keys. *)
  read_pm : int;
  sync_pm : int;
  cas_pm : int;
  del_pm : int;  (** The rest of the mix is puts. *)
  value_mix : (int * int) list;  (** [(bytes, weight)]. *)
  clients : int list;  (** Nodes whose replicas receive client ops. *)
  warmup_ns : int;
  measure_ns : int;
  cut : (int * int * int) option;
      (** [(node, from, until)]: node cut off over this span of the
          run, offsets from the start of the load. *)
}

let ms n = n * 1_000_000

(* Load.default_spec's mix and skew, rebuilt here so the library's load
   module can change freely. Clients on every node. *)
let kv_sessions =
  {
    name = "kv-sessions";
    rings = 1;
    nodes = 4;
    sessions_per_node = 500;
    groups = 16;
    rate = 12_000.0;
    keys = 512;
    zipf = Some 0.99;
    read_pm = 250;
    sync_pm = 50;
    cas_pm = 100;
    del_pm = 70;
    value_mix = [ (64, 6); (256, 3); (1024, 1) ];
    clients = [ 0; 1; 2; 3 ];
    warmup_ns = ms 20;
    measure_ns = ms 400;
    cut = None;
  }

(* Write-only puts at about 1.4x the two rings' capacity: applied/s in
   the window reads capacity directly, without a rate search. *)
let ring_saturate =
  {
    name = "ring-saturate";
    rings = 2;
    nodes = 4;
    sessions_per_node = 25;
    groups = 16;
    rate = 800_000.0;
    keys = 4096;
    zipf = None;
    read_pm = 0;
    sync_pm = 0;
    cas_pm = 0;
    del_pm = 0;
    value_mix = [ (64, 1) ];
    clients = [ 0; 1; 2; 3 ];
    warmup_ns = ms 10;
    measure_ns = ms 40;
    cut = None;
  }

(* Node 3 is cut off mid-run and healed; clients sit on the majority
   side, so every op is due while the ring reforms and must still
   complete — none is refused by the minority gate. *)
let partition_heal =
  {
    name = "partition-heal";
    rings = 1;
    nodes = 4;
    sessions_per_node = 10;
    groups = 4;
    rate = 10_000.0;
    keys = 512;
    zipf = Some 0.99;
    read_pm = 250;
    sync_pm = 50;
    cas_pm = 100;
    del_pm = 70;
    value_mix = [ (64, 6); (256, 3); (1024, 1) ];
    clients = [ 0; 1; 2 ];
    warmup_ns = ms 20;
    measure_ns = ms 600;
    cut = Some (3, ms 120, ms 320);
  }

let specs = [ kv_sessions; ring_saturate; partition_heal ]

(* ---------------------------------------------------------------- *)
(* Arrival schedule *)

type arrival = { due : int; node : int; kind : kind; key : int; bytes : int }

let schedule spec ~seed =
  let prng = Prng.create ~seed in
  let zipf =
    Option.map (fun theta -> Prng.zipf_table ~n:spec.keys ~theta) spec.zipf
  in
  let clients = Array.of_list spec.clients in
  let weight_total = List.fold_left (fun a (_, w) -> a + w) 0 spec.value_mix in
  let bytes () =
    let r = Prng.int prng weight_total in
    let rec pick acc = function
      | [] -> assert false
      | (b, w) :: rest -> if r < acc + w then b else pick (acc + w) rest
    in
    pick 0 spec.value_mix
  in
  let horizon = float_of_int (spec.warmup_ns + spec.measure_ns) in
  let mean = 1e9 /. spec.rate in
  let out = ref [] in
  let t = ref (Prng.exponential prng ~mean) in
  while !t < horizon do
    let node = clients.(Prng.int prng (Array.length clients)) in
    let r = Prng.int prng 1000 in
    let kind =
      if r < spec.read_pm then Read
      else if r < spec.read_pm + spec.sync_pm then Sync_read
      else if r < spec.read_pm + spec.sync_pm + spec.cas_pm then Cas
      else if r < spec.read_pm + spec.sync_pm + spec.cas_pm + spec.del_pm then
        Del
      else Put
    in
    let key =
      match zipf with
      | Some z -> Prng.zipf prng z
      | None -> Prng.int prng spec.keys
    in
    out := { due = int_of_float !t; node; kind; key; bytes = bytes () } :: !out;
    t := !t +. Prng.exponential prng ~mean
  done;
  Array.of_list (List.rev !out)

(* ---------------------------------------------------------------- *)
(* Results *)

(* Virtual-time results: for a given seed these repeat exactly. *)
type vt = {
  write_lat_us : float list;  (** Due → applied at the submitting node. *)
  sync_lat_us : float list;  (** Due → sync read answered. *)
  applied_in_window : int;  (** Writes merged at node 0 in the window. *)
  window_ns : int;
  unavailable_ns : int;  (** Longest gap without a write applied at node 0. *)
  catchup_ns : int;  (** Heal → cut replica synced and equal; -1: no cut. *)
}

(* Layer counts and times from a traced run. *)
type layers = {
  l_sim_self_ns : int;
  l_stack_self_ns : int;
  l_stack_bytes : float;
  l_stack_msgs : int;
  l_gen_ns : int;  (** Generator self time. *)
  l_kv_ns : int;
  l_kv_calls : int;
  l_cb_ns : int;  (** The benchmark's own callbacks inside the stack. *)
  l_join_ns : int;
  l_sessions : int;
  l_packets : int;
  l_switch_drops : int;
  l_client_deliveries : int;
  l_packs : int;
  l_envelopes_packed : int;
  l_tokens_node0 : int;  (** Token messages processed by node 0, all rings. *)
  l_retrans : int;
  l_bytes_sent : int;
  l_reform_ns : int;
  l_formation_attempts : int;
  l_floods : int;
  l_dedup_saved : int;
  l_transfer_entries : int;
  l_rejected : int;
  l_merge_wait_us : float list;
  l_merge_blocked_peak : int;
  l_merge_credits : int;
  l_merge_items : int;
  l_merge_replay_ns : int;
  l_vt_ns : int;  (** Virtual time at the end of the repetition. *)
  l_datagrams : int;  (** Sends on a unicast fan-out transport. *)
  l_captured : Message.t array;  (** Sent messages, up to [capture_limit]. *)
  l_measured_ns : int;  (** Wall time from set-up start to drained. *)
}

type rep = {
  setup_s : float;  (** Wall time: build, sessions joined, KV settled. *)
  cpu_s : float;  (** Process CPU time of the measured phase. *)
  writes_applied : int;  (** Writes merged at node 0 over the measured phase. *)
  attempted : int;
  failed : int;
  queue_peak : int;
  vt : vt;
  layers : layers option;
}

exception Incorrect of string

let fail fmt = Printf.ksprintf (fun s -> raise (Incorrect s)) fmt

(* ---------------------------------------------------------------- *)
(* Tracing context *)

let layer_names = [| "sim"; "stack"; "gen"; "kv"; "cb"; "daemon"; "merge" |]

type tracer = {
  ledger : Ledger.t;
  sim_l : int;
  stack_l : int;
  gen_l : int;
  kv_l : int;
  cb_l : int;
  daemon_l : int;
  merge_l : int;
  mutable msgs : int;
  mutable bytes_sent : int;
  mutable datagrams : int;
  mutable captured : Message.t list;
  mutable n_captured : int;
  tokens : int array;  (* per global pid *)
}

let make_tracer total =
  let ledger = Ledger.create layer_names in
  let l = Ledger.layer ledger in
  {
    ledger;
    sim_l = l "sim";
    stack_l = l "stack";
    gen_l = l "gen";
    kv_l = l "kv";
    cb_l = l "cb";
    daemon_l = l "daemon";
    merge_l = l "merge";
    msgs = 0;
    bytes_sent = 0;
    datagrams = 0;
    captured = [];
    n_captured = 0;
    tokens = Array.make total 0;
  }

(* Messages kept per traced repetition for the wire and transport
   replays. *)
let capture_limit = 20_000

(* [fanout]: datagrams one multicast costs on a unicast transport. *)
let count_sends tr ~fanout actions =
  let sent m =
    tr.bytes_sent <- tr.bytes_sent + Message.wire_size m;
    if tr.n_captured < capture_limit then begin
      tr.n_captured <- tr.n_captured + 1;
      tr.captured <- m :: tr.captured
    end
  in
  List.iter
    (function
      | Participant.Unicast (_, m) ->
          tr.datagrams <- tr.datagrams + 1;
          sent m
      | Participant.Multicast m ->
          tr.datagrams <- tr.datagrams + fanout;
          sent m
      | _ -> ())
    actions

(* Wrap a participant so each call into it is a [stack] span. The
   wrapper only observes: it returns exactly what the participant
   returned, so virtual time is unchanged (the self-test checks it). *)
let wrap tr ~fanout ~pid (p : Participant.t) : Participant.t =
  let span f = Ledger.span tr.ledger tr.stack_l f in
  let acted f =
    let acts = span f in
    count_sends tr ~fanout acts;
    acts
  in
  {
    p with
    submit = (fun s b -> span (fun () -> p.submit s b));
    receive = (fun m -> span (fun () -> p.receive m));
    take_next = (fun () -> span p.take_next);
    process =
      (fun m ->
        tr.msgs <- tr.msgs + 1;
        (match m with
        | Message.Token _ -> tr.tokens.(pid) <- tr.tokens.(pid) + 1
        | _ -> ());
        acted (fun () -> p.process m));
    fire_timer = (fun tm -> acted (fun () -> p.fire_timer tm));
    start = (fun () -> acted p.start);
  }

(* ---------------------------------------------------------------- *)
(* One repetition *)

let no_callbacks =
  {
    Daemon.on_message = (fun ~sender:_ ~groups:_ _ _ -> ());
    on_group_view = (fun ~group:_ ~members:_ -> ());
  }

let now_wall = Unix.gettimeofday

let pad tag bytes =
  let len = max (String.length tag) bytes in
  let b = Bytes.make len '.' in
  Bytes.blit_string tag 0 b 0 (String.length tag);
  Bytes.to_string b

let key_name i = Printf.sprintf "k%05d" i

(* Order-sensitive hash of a node's merged stream. *)
let mix h x = (h * 1_000_003) lxor x land max_int

let run_rep ?(traced = false) spec ~seed =
  let total = spec.rings * spec.nodes in
  let tr = if traced then Some (make_tracer total) else None in
  let span layer f =
    match tr with None -> f () | Some tr -> Ledger.span tr.ledger (layer tr) f
  in
  let health = if traced then Some (Health.create ~n:total ()) else None in
  Option.iter Health.attach health;
  Fun.protect ~finally:(fun () -> if traced then Health.detach ())
  @@ fun () ->
  let arrivals = schedule spec ~seed in
  (* ---------------- set-up ---------------- *)
  let w0 = now_wall () and m0 = Ledger.monotonic_ns () in
  let wrap = Option.map (fun tr ~pid p -> wrap tr ~fanout:(spec.nodes - 1) ~pid p) tr in
  let cluster =
    Cluster.create ?wrap ~seed ~rings:spec.rings ~nodes:spec.nodes ()
  in
  let sim = Cluster.sim cluster in
  let run_to t = span (fun tr -> tr.sim_l) (fun () -> Netsim.run_until sim t) in
  let n_sessions = spec.nodes * spec.sessions_per_node in
  let expected = Hashtbl.create 64 in
  for node = 0 to spec.nodes - 1 do
    Netsim.call_at sim ~at:500_000 (fun () ->
        for j = 0 to spec.sessions_per_node - 1 do
          let id = (j * spec.nodes) + node in
          let ring = id / spec.nodes mod spec.rings in
          let group = Printf.sprintf "g%03d" (id mod spec.groups) in
          let d = Cluster.daemon cluster ~ring ~node in
          span
            (fun tr -> tr.daemon_l)
            (fun () ->
              let s = Daemon.connect d ~name:(Printf.sprintf "s%05d" id) no_callbacks in
              Daemon.join d s group);
          let k = (ring, group) in
          Hashtbl.replace expected k
            (1 + Option.value ~default:0 (Hashtbl.find_opt expected k))
        done)
  done;
  let joined () =
    Hashtbl.fold
      (fun (ring, group) n ok ->
        ok
        && List.length
             (Daemon.group_members (Cluster.daemon cluster ~ring ~node:0) group)
           = n)
      expected true
  in
  let settle_deadline = ms 3_000 in
  let t = ref 500_000 in
  while not (Hashtbl.length expected > 0 && joined () && Cluster.kv_converged cluster) do
    if !t >= settle_deadline then fail "%s: set-up did not settle" spec.name;
    t := !t + ms 1;
    run_to !t
  done;
  let setup_s = now_wall () -. w0 in
  (* ---------------- load ---------------- *)
  let t0 = !t in
  let ws = t0 + spec.warmup_ns and we = t0 + spec.warmup_ns + spec.measure_ns in
  let in_flight : (string, int * int) Hashtbl.t = Hashtbl.create 4096 in
  let queue_peak = ref 0 in
  let write_lat = ref [] and sync_lat = ref [] in
  let merge_wait = ref [] in
  let sync_pending = ref 0 in
  let dels_sent = ref 0 and dels_seen = ref 0 in
  let applied_window = ref 0 and applied_total = ref 0 in
  let last_apply = ref ws and max_gap = ref 0 in
  let blocked_peak = ref 0 in
  let stream_hash = Array.make spec.nodes 0 in
  Cluster.on_merged cluster (fun ~node ~ring it ->
      span
        (fun tr -> tr.cb_l)
        (fun () ->
          let now = Netsim.now sim in
          stream_hash.(node) <-
            mix (mix stream_hash.(node) ring) (Hashtbl.hash it.Cluster.mi_op);
          (match it.mi_op with
          | Op.Put { value; _ } | Op.Cas { value; _ } -> (
              match Hashtbl.find_opt in_flight value with
              | Some (due, sub) when sub = node ->
                  Hashtbl.remove in_flight value;
                  if due >= ws && due < we then
                    write_lat := float_of_int (now - due) /. 1e3 :: !write_lat
              | _ -> ())
          | Op.Del _ -> if node = 0 then incr dels_seen
          | _ -> ());
          if node = 0 then begin
            incr applied_total;
            if now >= ws && now < we then begin
              incr applied_window;
              max_gap := max !max_gap (now - !last_apply);
              last_apply := now;
              if traced then begin
                merge_wait :=
                  float_of_int (now - it.mi_applied_at) /. 1e3 :: !merge_wait;
                let b = ref 0 in
                for r = 0 to spec.rings - 1 do
                  b := !b + Cluster.merge_blocked cluster ~node:0 ~ring:r
                done;
                blocked_peak := max !blocked_peak !b
              end
            end
          end));
  (* Node 0's per-ring merge inputs, replayed through a standalone merge
     afterwards to time the merge layer alone. *)
  let merge_inputs = Array.make spec.rings [] in
  if traced then
    for ring = 0 to spec.rings - 1 do
      Kv.add_observer (Cluster.kv cluster ~ring ~node:0) (function
        | Kv.Applied _ -> merge_inputs.(ring) <- Merge.Item () :: merge_inputs.(ring)
        | Kv.Skipped { credits } ->
            merge_inputs.(ring) <- Merge.Skip credits :: merge_inputs.(ring)
        | _ -> ())
    done;
  let transfer_entries = ref 0 in
  for ring = 0 to spec.rings - 1 do
    for node = 0 to spec.nodes - 1 do
      Kv.add_observer (Cluster.kv cluster ~ring ~node) (function
        | Kv.Installed { entries; _ } ->
            transfer_entries := !transfer_entries + List.length entries
        | _ -> ())
    done
  done;
  let counter = ref 0 in
  let fire (a : arrival) () =
    span
      (fun tr -> tr.gen_l)
      (fun () ->
        let due = t0 + a.due in
        let key = key_name a.key in
        let kv_call f = span (fun tr -> tr.kv_l) f in
        incr counter;
        let track value =
          Hashtbl.replace in_flight value (due, a.node);
          queue_peak := max !queue_peak (Hashtbl.length in_flight)
        in
        match a.kind with
        | Read -> ignore (kv_call (fun () -> Cluster.read cluster ~node:a.node ~key))
        | Sync_read ->
            incr sync_pending;
            let kv = Cluster.kv cluster ~ring:(Cluster.shard_of_key cluster key) ~node:a.node in
            kv_call (fun () ->
                Kv.sync_read kv ~key ~on_result:(fun _ ~token:_ ->
                    decr sync_pending;
                    if due >= ws && due < we then
                      sync_lat := float_of_int (Netsim.now sim - due) /. 1e3 :: !sync_lat))
        | Cas ->
            let value = pad (Printf.sprintf "c%d:" !counter) a.bytes in
            track value;
            kv_call (fun () ->
                let expect, _ = Cluster.read cluster ~node:a.node ~key in
                Cluster.cas cluster ~node:a.node ~key ~expect ~value)
        | Del ->
            incr dels_sent;
            kv_call (fun () -> Cluster.del cluster ~node:a.node ~key)
        | Put ->
            let value = pad (Printf.sprintf "w%d:" !counter) a.bytes in
            track value;
            kv_call (fun () -> Cluster.put cluster ~node:a.node ~key ~value))
  in
  Array.iter (fun a -> Netsim.call_at sim ~at:(t0 + a.due) (fire a)) arrivals;
  let heal_at =
    match spec.cut with
    | None -> -1
    | Some (cut_node, from, until) ->
        let p = Cluster.pid cluster ~ring:0 ~node:cut_node in
        Netsim.call_at sim ~at:(t0 + from) (fun () ->
            Netsim.set_drop_until sim ~until:(t0 + until) (fun ~src ~dst _ ->
                (src = p) <> (dst = p)));
        t0 + until
  in
  let caught_up () =
    match spec.cut with
    | None -> true
    | Some (cut_node, _, _) ->
        let a = Cluster.kv cluster ~ring:0 ~node:0
        and b = Cluster.kv cluster ~ring:0 ~node:cut_node in
        Kv.synced b && Kv.settled b
        && Kv.applied a = Kv.applied b
        && Kv.digest a = Kv.digest b
  in
  let c0 = Sys.time () in
  let catchup = ref (-1) in
  let step () =
    if heal_at >= 0 && !catchup < 0 && !t >= heal_at then 100_000 else ms 1
  in
  while !t < we do
    t := min we (!t + step ());
    run_to !t;
    if heal_at >= 0 && !catchup < 0 && !t >= heal_at && caught_up () then
      catchup := !t - heal_at
  done;
  max_gap := max !max_gap (we - !last_apply);
  (* Drain: every offered op must complete and every replica converge. *)
  let drain_deadline = we + ms 3_000 in
  let finished () =
    Hashtbl.length in_flight = 0
    && !sync_pending = 0 && !dels_seen = !dels_sent
    && Cluster.kv_converged cluster && Cluster.merge_settled cluster
    && caught_up ()
  in
  while not (finished ()) && !t < drain_deadline do
    t := !t + step ();
    run_to !t;
    if heal_at >= 0 && !catchup < 0 && !t >= heal_at && caught_up () then
      catchup := !t - heal_at
  done;
  let cpu_s = Sys.time () -. c0 in
  let measured_ns = Ledger.monotonic_ns () - m0 in
  (* ---------------- correctness ---------------- *)
  Cluster.check_convergence cluster;
  let violations = Cluster.oracle_violations cluster in
  if violations > 0 then fail "%s: %d KV-oracle violations" spec.name violations;
  if not (Cluster.kv_converged cluster) then fail "%s: replicas did not converge" spec.name;
  if not (Cluster.merge_settled cluster) then fail "%s: merge not settled" spec.name;
  if heal_at >= 0 && !catchup < 0 then fail "%s: cut replica never caught up" spec.name;
  (* Nodes that saw every delivery must have merged identical streams. *)
  let full = List.filter (fun n -> match spec.cut with Some (c, _, _) -> n <> c | None -> true)
      (List.init spec.nodes Fun.id) in
  List.iter
    (fun n ->
      if stream_hash.(n) <> stream_hash.(0) then
        fail "%s: merged stream of node %d differs from node 0" spec.name n)
    full;
  let failed =
    Hashtbl.length in_flight + !sync_pending + max 0 (!dels_sent - !dels_seen)
  in
  let vt =
    {
      write_lat_us = List.rev !write_lat;
      sync_lat_us = List.rev !sync_lat;
      applied_in_window = !applied_window;
      window_ns = spec.measure_ns;
      unavailable_ns = !max_gap;
      catchup_ns = !catchup;
    }
  in
  let layers =
    match tr with
    | None -> None
    | Some tr ->
        let st = Netsim.stats sim in
        let sum_daemons f =
          let s = ref 0 in
          for ring = 0 to spec.rings - 1 do
            for node = 0 to spec.nodes - 1 do
              s := !s + f (Daemon.stats (Cluster.daemon cluster ~ring ~node))
            done
          done;
          !s
        in
        let retrans = ref 0 and rejected = ref 0 in
        for ring = 0 to spec.rings - 1 do
          for node = 0 to spec.nodes - 1 do
            (match Member.node (Cluster.member cluster ~ring ~node) with
            | Some nd -> retrans := !retrans + (Engine.stats (Node.engine nd)).retrans_sent
            | None -> ());
            rejected :=
              !rejected + (Kv.stats (Cluster.kv cluster ~ring ~node)).rejected_writes
          done
        done;
        let report = Health.report (Option.get health) ~now:(Netsim.now sim) in
        let reform = ref 0.0 and attempts = ref 0 and floods = ref 0 and saved = ref 0 in
        List.iter
          (fun (nr : Health.node_report) ->
            let out_of_op =
              List.fold_left
                (fun a (ph, ms) -> if ph = "operational" then a else a +. ms)
                0.0 nr.nr_time_in_ms
            in
            reform := Float.max !reform out_of_op;
            attempts :=
              !attempts
              + Option.value ~default:0 (List.assoc_opt "gather" nr.nr_entries);
            floods := !floods + nr.nr_flood_total;
            saved := !saved + nr.nr_dedup_saved)
          report.r_nodes;
        (* Merge replay: node 0's per-ring streams through a fresh merge. *)
        let m = Merge.create ~rings:spec.rings in
        let inputs = Array.map List.rev merge_inputs in
        let items = ref 0 in
        Ledger.span tr.ledger tr.merge_l (fun () ->
            Array.iteri (fun ring l -> List.iter (Merge.push m ~ring) l) inputs;
            items := List.length (Merge.pop_all m));
        let tokens0 = ref 0 in
        for ring = 0 to spec.rings - 1 do
          tokens0 := !tokens0 + tr.tokens.(Cluster.pid cluster ~ring ~node:0)
        done;
        let l = tr.ledger in
        Some
          {
            l_sim_self_ns = Ledger.self_ns l tr.sim_l;
            l_stack_self_ns = Ledger.self_ns l tr.stack_l;
            l_stack_bytes = Ledger.self_bytes l tr.stack_l;
            l_stack_msgs = tr.msgs;
            l_gen_ns = Ledger.self_ns l tr.gen_l;
            l_kv_ns = Ledger.self_ns l tr.kv_l;
            l_kv_calls = Ledger.calls l tr.kv_l;
            l_cb_ns = Ledger.self_ns l tr.cb_l;
            l_join_ns = Ledger.self_ns l tr.daemon_l;
            l_sessions = n_sessions;
            l_packets = st.packets_sent;
            l_switch_drops = st.switch_drops;
            l_client_deliveries = sum_daemons (fun s -> s.client_deliveries);
            l_packs = sum_daemons (fun s -> s.packs_sent);
            l_envelopes_packed = sum_daemons (fun s -> s.envelopes_packed);
            l_tokens_node0 = !tokens0;
            l_retrans = !retrans;
            l_bytes_sent = tr.bytes_sent;
            l_reform_ns = int_of_float (!reform *. 1e6);
            l_formation_attempts = !attempts;
            l_floods = !floods;
            l_dedup_saved = !saved;
            l_transfer_entries = !transfer_entries;
            l_rejected = !rejected;
            l_merge_wait_us = !merge_wait;
            l_merge_blocked_peak = !blocked_peak;
            l_merge_credits = Merge.credits_spent m;
            l_merge_items = !items;
            l_merge_replay_ns = Ledger.self_ns l tr.merge_l;
            l_vt_ns = Netsim.now sim;
            l_datagrams = tr.datagrams;
            l_captured = Array.of_list (List.rev tr.captured);
            l_measured_ns = measured_ns;
          }
  in
  {
    setup_s;
    cpu_s;
    writes_applied = !applied_total;
    attempted = Array.length arrivals;
    failed;
    queue_peak = !queue_peak;
    vt;
    layers;
  }
