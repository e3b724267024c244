(* The real-socket workload: four nodes of Member + Daemon + Kv on
   Udp_runtime over 127.0.0.1, polled in turn by this one thread
   ([run ~duration_s:1e-6] per node), so no scheduler sits between the
   nodes and the only injected delay is the loopback path. A sub-knee
   phase at a fixed rate gives latency; an overload phase gives
   capacity. Every time here is wall clock. *)

open Aring_wire
open Aring_ring
open Aring_transport
module Daemon = Aring_daemon.Daemon
module Kv = Aring_app.Kv
module Op = Aring_app.Op
module Oracle = Aring_app.Oracle
module Prng = Aring_util.Prng

let nodes = 4
let rate = 10_000.0 (* sub-knee phase, puts/s *)
let rate_s = 2.5
let over_rate = 100_000.0 (* overload phase, puts/s offered *)
let over_s = 0.3
let value_bytes = 64

type layers = {
  u_self_ns : int;  (** Runtime self time: sockets, select, codec. *)
  u_packets : int;
  u_decode_errors : int;
  u_stack_self_ns : int;
  u_stack_bytes : float;
  u_stack_msgs : int;
  u_kv_ns : int;
  u_kv_calls : int;
  u_gen_ns : int;
  u_cb_ns : int;
  u_bytes_sent : int;
  u_tokens_node0 : int;
  u_client_deliveries : int;
  u_wire_msgs : int;
  u_encode_ns : int;
  u_decode_ns : int;
  u_wire_bytes : float;
  u_retrans : int;
  u_rejected : int;
  u_measured_ns : int;
}

type rep = {
  setup_s : float;
  cpu_s : float;
  writes_applied : int;  (** At node 0 over both phases. *)
  lat_us : float list;  (** Due → applied at the submitting node, sub-knee phase. *)
  over_per_s : float;  (** Applied/s at node 0 during the overload phase. *)
  attempted : int;
  failed : int;
  late_max_us : float;  (** Worst generator lateness. *)
  queue_peak : int;
  unavailable_ms : float;  (** Longest gap without an apply at node 0. *)
  layers : layers option;
}

let layer_names = [| "udp"; "stack"; "kv"; "gen"; "cb" |]
let capture_limit = 20_000

let now_ns () = Ledger.monotonic_ns ()

(* Arrival offsets (ns from phase start), open loop, Poisson. *)
let arrivals prng ~rate ~seconds =
  let mean = 1e9 /. rate and horizon = seconds *. 1e9 in
  let out = ref [] and t = ref (Prng.exponential prng ~mean) in
  while !t < horizon do
    out := int_of_float !t :: !out;
    t := !t +. Prng.exponential prng ~mean
  done;
  Array.of_list (List.rev !out)

let peers ~base n =
  List.init n (fun pid ->
      {
        Udp_runtime.pid;
        host = "127.0.0.1";
        data_port = base + (2 * pid);
        token_port = base + (2 * pid) + 1;
      })

(* Bind all nodes on a free port range; retry elsewhere if one is taken. *)
let rec bind_all ~attempt ~nodes make =
  let base = 20_000 + (Random.int 2_000 * 16) in
  let made = ref [] in
  match
    Array.init nodes (fun me ->
        let rt = make ~me ~peers:(peers ~base nodes) in
        made := rt :: !made;
        rt)
  with
  | rts -> rts
  | exception (Unix.Unix_error (Unix.EADDRINUSE, _, _) as e) ->
      List.iter Udp_runtime.close !made;
      if attempt >= 20 then raise e else bind_all ~attempt:(attempt + 1) ~nodes make

(* Wire layer alone: pooled encode, then decode, of a captured message
   mix. Returns (encode ns, decode ns, allocated bytes). *)
let wire_cost msgs =
  let pool = Message.Pool.create ~initial_capacity:65536 () in
  let encoded = Array.map Message.encode msgs in
  let w0 = Gc.minor_words () in
  let e0 = now_ns () in
  Array.iter (fun m -> ignore (Message.Pool.encode_view pool m)) msgs;
  let e1 = now_ns () in
  Array.iter (fun b -> ignore (Message.Pool.decode pool b)) encoded;
  let e2 = now_ns () in
  (e1 - e0, e2 - e1, (Gc.minor_words () -. w0) *. float_of_int (Sys.word_size / 8))

type Participant.timer += Replay_tick

let idle pid : Participant.t =
  {
    pid;
    submit = (fun _ _ -> ());
    receive = (fun _ -> `Dropped);
    has_work = (fun () -> false);
    take_next = (fun () -> None);
    process = (fun _ -> []);
    fire_timer = (fun _ -> []);
    start = (fun () -> []);
  }

(* Transport layer alone: send a captured message mix from one
   Udp_runtime to another over loopback, at most [window] datagrams
   ahead of the receiver so socket buffers do not overflow. Returns
   (ns until the last datagram arrived, datagrams received, decode
   errors). *)
let transport_replay msgs =
  let window = 32 in
  let len = Array.length msgs in
  let next = ref 0 and received = ref 0 and last_rx = ref 0 in
  let batch () =
    let stop = min len (max !next (!received + window)) in
    (* A 1 us re-arm returns control to the loop between batches. *)
    let acts = ref (if stop < len then [ Participant.Arm_timer (Replay_tick, 1_000) ] else []) in
    for i = stop - 1 downto !next do
      acts := Participant.Unicast (1, msgs.(i)) :: !acts
    done;
    next := stop;
    !acts
  in
  let sender =
    { (idle 0) with start = batch; fire_timer = (function Replay_tick -> batch () | _ -> []) }
  in
  let receiver =
    {
      (idle 1) with
      receive =
        (fun _ ->
          incr received;
          last_rx := now_ns ();
          `Dropped);
    }
  in
  let rts =
    bind_all ~attempt:0 ~nodes:2 (fun ~me ~peers ->
        Udp_runtime.create ~me ~peers ~participant:(if me = 0 then sender else receiver) ())
  in
  Fun.protect ~finally:(fun () -> Array.iter Udp_runtime.close rts) @@ fun () ->
  let t0 = now_ns () in
  (* After the last send, poll a little longer for datagrams in flight;
     any still missing were lost. *)
  let finish = ref infinity in
  while !received < len && Unix.gettimeofday () < !finish do
    Array.iter (fun rt -> Udp_runtime.run rt ~duration_s:1e-6) rts;
    if !next >= len && !finish = infinity then finish := Unix.gettimeofday () +. 0.2
  done;
  (!last_rx - t0, !received, Udp_runtime.decode_errors rts.(1))

let run_rep ?(traced = false) ~seed () =
  let n = nodes in
  let ledger = Ledger.create layer_names in
  let l = Ledger.layer ledger in
  let udp_l = l "udp" and stack_l = l "stack" and kv_l = l "kv" in
  let gen_l = l "gen" and cb_l = l "cb" in
  let span layer f = if traced then Ledger.span ledger layer f else f () in
  let prng = Prng.create ~seed in
  let phase1 = arrivals prng ~rate ~seconds:rate_s in
  let phase2 = arrivals prng ~rate:over_rate ~seconds:over_s in
  let submitters =
    Array.init (Array.length phase1 + Array.length phase2) (fun _ -> Prng.int prng n)
  in
  (* ---------------- set-up ---------------- *)
  let w0 = Unix.gettimeofday () in
  let params = Aring_app.Kv_scenario.snappy_params () in
  let ring = Array.init n Fun.id in
  let members = Array.init n (fun me -> Member.create ~params ~me ~initial_ring:ring ()) in
  let daemons = Array.map (fun m -> Daemon.create ~member:m ()) members in
  let kvs = Array.map (fun d -> Kv.create ~cluster_size:n ~daemon:d ()) daemons in
  let oracle = Oracle.create () in
  Array.iter (Oracle.attach oracle) kvs;
  let msgs = ref 0 and bytes_sent = ref 0 and tokens0 = ref 0 in
  let captured = ref [] and n_captured = ref 0 in
  let observe_sends acts =
    List.iter
      (function
        | Participant.Unicast (_, m) | Participant.Multicast m ->
            bytes_sent := !bytes_sent + Message.wire_size m;
            if !n_captured < capture_limit then begin
              incr n_captured;
              captured := m :: !captured
            end
        | _ -> ())
      acts
  in
  let wrap me (p : Participant.t) : Participant.t =
    if not traced then p
    else
      let st f = Ledger.span ledger stack_l f in
      let acted f =
        let acts = st f in
        observe_sends acts;
        acts
      in
      {
        p with
        submit = (fun s b -> st (fun () -> p.submit s b));
        receive = (fun m -> st (fun () -> p.receive m));
        take_next = (fun () -> st p.take_next);
        process =
          (fun m ->
            incr msgs;
            (match m with Message.Token _ when me = 0 -> incr tokens0 | _ -> ());
            acted (fun () -> p.process m));
        fire_timer = (fun tm -> acted (fun () -> p.fire_timer tm));
        start = (fun () -> acted p.start);
      }
  in
  let rts =
    bind_all ~attempt:0 ~nodes:n (fun ~me ~peers ->
        Udp_runtime.create ~me ~peers ~participant:(wrap me (Daemon.participant daemons.(me))) ())
  in
  Fun.protect ~finally:(fun () -> Array.iter Udp_runtime.close rts) @@ fun () ->
  let poll () =
    Array.iter (fun rt -> span udp_l (fun () -> Udp_runtime.run rt ~duration_s:1e-6)) rts
  in
  let settled () =
    Array.for_all
      (fun m ->
        match Member.current_view m with
        | Some v -> List.length v.Participant.members = n
        | None -> false)
      members
    && Array.for_all (fun k -> Kv.synced k && Kv.settled k) kvs
  in
  let until_wall deadline cond what =
    while not (cond ()) do
      if Unix.gettimeofday () > deadline then raise (Simwl.Incorrect ("udp-loopback: " ^ what));
      poll ()
    done
  in
  until_wall (w0 +. 10.0) settled "set-up did not settle";
  let setup_s = Unix.gettimeofday () -. w0 in
  (* ---------------- load ---------------- *)
  let in_flight : (string, int * int) Hashtbl.t = Hashtbl.create 4096 in
  let queue_peak = ref 0 in
  let lat = ref [] in
  let applied0 = ref 0 and over_applied = ref 0 in
  let in_over = ref false and in_rate = ref false in
  let stream = Array.make n 0 in
  let last_apply = ref 0 and max_gap = ref 0 in
  Array.iteri
    (fun node kv ->
      Kv.add_observer kv (function
        | Kv.Applied { index; op; _ } ->
            span cb_l (fun () ->
                let now = now_ns () in
                stream.(node) <- Simwl.mix (Simwl.mix stream.(node) index) (Hashtbl.hash op);
                if node = 0 then begin
                  incr applied0;
                  if !in_over then incr over_applied;
                  if !in_rate || !in_over then begin
                    if !last_apply > 0 then max_gap := max !max_gap (now - !last_apply);
                    last_apply := now
                  end
                end;
                match op with
                | Op.Put { value; _ } -> (
                    match Hashtbl.find_opt in_flight value with
                    | Some (due, sub) when sub = node ->
                        Hashtbl.remove in_flight value;
                        if !in_rate then lat := float_of_int (now - due) /. 1e3 :: !lat
                    | _ -> ())
                | _ -> ())
        | _ -> ()))
    kvs;
  let late_max = ref 0 in
  let counter = ref 0 in
  let c0 = Sys.time () and m0 = now_ns () in
  let run_phase offsets =
    let start = now_ns () in
    let next = ref 0 in
    let len = Array.length offsets in
    while !next < len do
      let now = now_ns () in
      span gen_l (fun () ->
          while !next < len && start + offsets.(!next) <= now do
            let due = start + offsets.(!next) in
            late_max := max !late_max (now - due);
            let node = submitters.(!counter) in
            let value = Printf.sprintf "u%d:" !counter in
            let value = value ^ String.make (max 0 (value_bytes - String.length value)) '.' in
            Hashtbl.replace in_flight value (due, node);
            queue_peak := max !queue_peak (Hashtbl.length in_flight);
            span kv_l (fun () ->
                Kv.put kvs.(node) ~key:(Printf.sprintf "k%03d" (!counter land 255)) ~value);
            incr counter;
            incr next
          done);
      poll ()
    done
  in
  in_rate := true;
  run_phase phase1;
  (* Let the sub-knee phase's last writes land before overload starts. *)
  until_wall (Unix.gettimeofday () +. 5.0) (fun () -> Hashtbl.length in_flight = 0)
    "sub-knee writes not applied";
  in_rate := false;
  in_over := true;
  let o0 = now_ns () in
  run_phase phase2;
  let over_ns = now_ns () - o0 in
  in_over := false;
  let converged () =
    Hashtbl.length in_flight = 0
    && Array.for_all
         (fun k ->
           Kv.settled k && Kv.synced k
           && Kv.applied k = Kv.applied kvs.(0)
           && Kv.digest k = Kv.digest kvs.(0))
         kvs
  in
  until_wall (Unix.gettimeofday () +. 20.0) converged "replicas did not converge";
  let cpu_s = Sys.time () -. c0 in
  let measured_ns = now_ns () - m0 in
  (* ---------------- correctness ---------------- *)
  Oracle.check_convergence oracle (Array.to_list kvs);
  let violations = Oracle.violation_count oracle in
  if violations > 0 then
    raise (Simwl.Incorrect (Printf.sprintf "udp-loopback: %d KV-oracle violations" violations));
  Array.iteri
    (fun i h ->
      if h <> stream.(0) then
        raise (Simwl.Incorrect (Printf.sprintf "udp-loopback: node %d delivery stream differs" i)))
    stream;
  let decode_errors = Array.fold_left (fun a rt -> a + Udp_runtime.decode_errors rt) 0 rts in
  let layers =
    if not traced then None
    else begin
      let msgs_arr = Array.of_list (List.rev !captured) in
      let encode_ns, decode_ns, wire_bytes = wire_cost msgs_arr in
      let clients =
        Array.fold_left (fun a d -> a + (Daemon.stats d).client_deliveries) 0 daemons
      in
      Some
        {
          u_self_ns = Ledger.self_ns ledger udp_l;
          u_packets = Array.fold_left (fun a rt -> a + Udp_runtime.packets_received rt) 0 rts;
          u_decode_errors = decode_errors;
          u_stack_self_ns = Ledger.self_ns ledger stack_l;
          u_stack_bytes = Ledger.self_bytes ledger stack_l;
          u_stack_msgs = !msgs;
          u_kv_ns = Ledger.self_ns ledger kv_l;
          u_kv_calls = Ledger.calls ledger kv_l;
          u_gen_ns = Ledger.self_ns ledger gen_l;
          u_cb_ns = Ledger.self_ns ledger cb_l;
          u_bytes_sent = !bytes_sent;
          u_tokens_node0 = !tokens0;
          u_client_deliveries = clients;
          u_wire_msgs = Array.length msgs_arr;
          u_encode_ns = encode_ns;
          u_decode_ns = decode_ns;
          u_wire_bytes = wire_bytes;
          u_retrans =
            Array.fold_left
              (fun a mb ->
                match Member.node mb with
                | Some nd -> a + (Engine.stats (Node.engine nd)).retrans_sent
                | None -> a)
              0 members;
          u_rejected = Array.fold_left (fun a k -> a + (Kv.stats k).rejected_writes) 0 kvs;
          u_measured_ns = measured_ns;
        }
    end
  in
  {
    setup_s;
    cpu_s;
    writes_applied = !applied0;
    lat_us = List.rev !lat;
    over_per_s = float_of_int !over_applied /. (float_of_int over_ns /. 1e9);
    attempted = !counter;
    failed = Hashtbl.length in_flight;
    late_max_us = float_of_int !late_max /. 1e3;
    queue_peak = !queue_peak;
    unavailable_ms = float_of_int !max_gap /. 1e6;
    layers;
  }
