open Aring_wire
open Aring_ring
module Span = Aring_obs.Span
module Deque = Aring_util.Deque
module Stbl = Aring_util.Stbl
module SSet = Set.Make (String)

type callbacks = {
  on_message :
    sender:string -> groups:string list -> Types.service -> bytes -> unit;
  on_group_view : group:string -> members:string list -> unit;
}

type session = {
  s_name : string;
  s_member : string;  (* canonical "#name#daemon" identity *)
  s_callbacks : callbacks;
  mutable s_joined : string list;  (* local record, for re-announcement *)
  mutable s_open : bool;
  (* Slow-receiver mode: [Some q] parks delivered messages in [q]
     instead of invoking [on_message]; the client drains with {!pump} at
     its own pace, off the daemon's delivery path. *)
  mutable s_inbox : (string * string list * Types.service * bytes) Deque.t option;
}

(* One group's routing index: the names of the local sessions that union
   routing sends the group's messages to. *)
type route = {
  joined : SSet.t;  (* sessions whose [s_joined] holds the group *)
  in_table : SSet.t;  (* local sessions whose member name is in the
                         delivered group table *)
  (* Memoised recipients: the connected sessions named in
     [joined ∪ in_table], ascending by name. Valid while [memo_gen]
     equals the daemon's [session_gen]; every route update stores a
     record with [memo_gen = -1]. *)
  mutable memo : session list;
  mutable memo_gen : int;
}

let empty_route =
  { joined = SSet.empty; in_table = SSet.empty; memo = []; memo_gen = -1 }

type stats = {
  mutable client_deliveries : int;
  mutable group_notifications : int;
  mutable packs_sent : int;
  mutable envelopes_packed : int;
}

type t = {
  member : Member.t;
  me : Types.pid;
  groups : Groups.t;
  sessions : session Stbl.t;
  (* Bumped by every connect and disconnect, invalidating every route's
     memoised recipients. *)
  mutable session_gen : int;
  (* Group -> route, kept up to date wherever membership changes (the
     local join/leave/disconnect calls and every applied Join, Leave or
     prune), so routing never scans the sessions. Groups with an empty
     route are absent. *)
  routes : route Stbl.t;
  (* "#<me>": the suffix of every member name this daemon hosts. *)
  member_suffix : string;
  stats : stats;
  packing : bool;
  pack_threshold : int;
  (* Packing buffer: envelopes awaiting the next flush, oldest first, all
     of [pack_service]. A service change flushes to preserve order. *)
  mutable pack_buffer : Envelope.t list;
  mutable pack_bytes : int;
  mutable pack_service : Types.service;
  (* Span stamps parallel to [pack_buffer] (newest first); 0 when no
     span collector was attached at buffering time. *)
  mutable pack_stamps : int list;
  (* Application-layer hook: every delivered configuration (transitional
     and regular), invoked after the daemon's own pruning and
     re-announcement so anything the hook submits is ordered after the
     daemon's re-announced Joins. *)
  mutable on_view : (Participant.view -> unit) option;
}

let create ?(packing = false) ?(pack_threshold = 1300) ~member () =
  let me = Member.me member in
  {
    member;
    me;
    groups = Groups.create ();
    sessions = Stbl.create 8;
    session_gen = 0;
    routes = Stbl.create 16;
    member_suffix = Printf.sprintf "#%d" me;
    stats =
      {
        client_deliveries = 0;
        group_notifications = 0;
        packs_sent = 0;
        envelopes_packed = 0;
      };
    packing;
    pack_threshold;
    pack_buffer = [];
    pack_bytes = 0;
    pack_service = Types.Agreed;
    pack_stamps = [];
    on_view = None;
  }

let stats t = t.stats
let pid t = t.me
let set_view_handler t f = t.on_view <- Some f

let record_metrics ?(prefix = "") t reg =
  let module Metrics = Aring_obs.Metrics in
  let c name v = Metrics.add (Metrics.counter reg (prefix ^ name)) v in
  c "daemon.client_deliveries" t.stats.client_deliveries;
  c "daemon.group_notifications" t.stats.group_notifications;
  c "daemon.packs_sent" t.stats.packs_sent;
  c "daemon.envelopes_packed" t.stats.envelopes_packed;
  match Member.node t.member with
  | Some node -> Engine.record_metrics ~prefix (Node.engine node) reg
  | None -> ()

let group_members t group = Groups.members t.groups group
let session_member_name _t s = s.s_member

let find_route t group =
  Option.value ~default:empty_route (Stbl.find_opt t.routes group)

let update_route t group f =
  let r = f (find_route t group) in
  if SSet.is_empty r.joined && SSet.is_empty r.in_table then
    Stbl.remove t.routes group
  else begin
    r.memo_gen <- -1;
    Stbl.replace t.routes group r
  end

let update_joined t group f name =
  update_route t group (fun r -> { r with joined = f name r.joined })

let update_in_table t group f name =
  update_route t group (fun r -> { r with in_table = f name r.in_table })

(* The session name behind [member] when it is a member name this daemon
   hosts ("#name#<me>", see {!Envelope.member_name}). *)
let local_session_name t member =
  let n = String.length member and k = String.length t.member_suffix in
  if n > k && member.[0] = '#' && String.ends_with ~suffix:t.member_suffix member
  then Some (String.sub member 1 (n - k - 1))
  else None

(* The connected sessions behind [names], in ascending name order. *)
let sessions_of t names =
  List.filter_map (Stbl.find_opt t.sessions) (SSet.elements names)

(* The sessions union routing sends [r]'s group to, resolved once per
   route update or session-table change. *)
let route_recipients t r =
  if r.memo_gen <> t.session_gen then begin
    r.memo <- sessions_of t (SSet.union r.joined r.in_table);
    r.memo_gen <- t.session_gen
  end;
  r.memo

let connect t ~name callbacks =
  if Stbl.mem t.sessions name then
    invalid_arg (Printf.sprintf "Daemon.connect: session %S already exists" name);
  let s =
    {
      s_name = name;
      s_member = Envelope.member_name ~daemon:t.me ~session:name;
      s_callbacks = callbacks;
      s_joined = [];
      s_open = true;
      s_inbox = None;
    }
  in
  Stbl.replace t.sessions name s;
  t.session_gen <- t.session_gen + 1;
  s

let set_slow_receiver _t s slow =
  if slow then begin
    match s.s_inbox with
    | Some _ -> ()
    | None -> s.s_inbox <- Some (Deque.create ())
  end
  else begin
    (* Reverting to direct delivery hands over anything still parked,
       in arrival order, so no message is lost or reordered. *)
    (match s.s_inbox with
    | Some q ->
        Deque.iter
          (fun (sender, groups, service, payload) ->
            s.s_callbacks.on_message ~sender ~groups service payload)
          q
    | None -> ());
    s.s_inbox <- None
  end

let inbox_depth _t s =
  match s.s_inbox with None -> 0 | Some q -> Deque.length q

let pump _t s ~max =
  match s.s_inbox with
  | None -> 0
  | Some q ->
      let n = ref 0 in
      let continue = ref true in
      while !continue && !n < max do
        match Deque.pop_front q with
        | None -> continue := false
        | Some (sender, groups, service, payload) ->
            incr n;
            s.s_callbacks.on_message ~sender ~groups service payload
      done;
      !n

let submit_plain t service env =
  Member.submit t.member service (Envelope.encode env)

(* Flush the packing buffer as one Batch (or a plain envelope when it
   holds a single entry). *)
let note_packed t =
  List.iter
    (fun submit_ns -> if submit_ns > 0 then Span.note_packed ~submit_ns)
    t.pack_stamps;
  t.pack_stamps <- []

let flush t =
  match t.pack_buffer with
  | [] -> ()
  | [ env ] ->
      note_packed t;
      submit_plain t t.pack_service env;
      t.pack_buffer <- [];
      t.pack_bytes <- 0
  | entries ->
      t.stats.packs_sent <- t.stats.packs_sent + 1;
      t.stats.envelopes_packed <- t.stats.envelopes_packed + List.length entries;
      note_packed t;
      submit_plain t t.pack_service (Envelope.Batch (List.rev entries));
      t.pack_buffer <- [];
      t.pack_bytes <- 0

let submit_envelope t service env =
  if not t.packing then submit_plain t service env
  else begin
    let size = Envelope.encoded_size env in
    if
      (t.pack_buffer <> [] && not (Types.service_equal service t.pack_service))
      || t.pack_bytes + size > t.pack_threshold
    then flush t;
    if size >= t.pack_threshold then submit_plain t service env
    else begin
      t.pack_service <- service;
      t.pack_buffer <- env :: t.pack_buffer;
      t.pack_stamps <- Span.submit_stamp () :: t.pack_stamps;
      t.pack_bytes <- t.pack_bytes + size
    end
  end

let join t s group =
  if s.s_open then begin
    if not (List.mem group s.s_joined) then begin
      s.s_joined <- group :: s.s_joined;
      update_joined t group SSet.add s.s_name
    end;
    submit_envelope t Types.Agreed (Envelope.Join { member = s.s_member; group })
  end

(* Leaving a group the session never joined is an idempotent no-op: no
   Leave envelope rides the ring, so remote daemons never process a
   spurious membership change. *)
let leave t s group =
  if s.s_open && List.mem group s.s_joined then begin
    s.s_joined <- List.filter (fun g -> g <> group) s.s_joined;
    update_joined t group SSet.remove s.s_name;
    submit_envelope t Types.Agreed (Envelope.Leave { member = s.s_member; group })
  end

let disconnect t s =
  if s.s_open then begin
    List.iter
      (fun group ->
        update_joined t group SSet.remove s.s_name;
        submit_envelope t Types.Agreed
          (Envelope.Leave { member = s.s_member; group }))
      s.s_joined;
    s.s_joined <- [];
    s.s_open <- false;
    (* Undrained slow-receiver messages die with the connection. *)
    (match s.s_inbox with Some q -> Deque.clear q | None -> ());
    Stbl.remove t.sessions s.s_name;
    t.session_gen <- t.session_gen + 1
  end

let multicast t s ?(service = Types.Agreed) ~groups payload =
  if s.s_open then
    submit_envelope t service
      (Envelope.App { sender = s.s_member; groups; payload })

(* Tell the local sessions in [group]'s delivered table (the [in_table]
   route, which the caller has already updated) about its new view. *)
let notify_group_view t group members =
  List.iter
    (fun s ->
      t.stats.group_notifications <- t.stats.group_notifications + 1;
      s.s_callbacks.on_group_view ~group ~members)
    (sessions_of t (find_route t group).in_table)

(* Apply one totally-ordered envelope. Returns one [Deliver] action per
   local recipient so a driving runtime charges per-client delivery cost. *)
let rec apply_envelope t (d : Message.data) env =
  match env with
  | Envelope.Batch entries ->
      List.concat_map (fun entry -> apply_envelope t d entry) entries
  | Envelope.App { sender; groups; payload } ->
      (* Route to a local session when either its locally-requested
         membership ([s_joined], effective from the join call — so a
         rejoining session never misses a message ordered before its
         re-announced Join lands) or the delivered-join table (effective
         until the ordered Leave lands) says it belongs. The routes hold
         exactly those names; a single-group envelope (every KV op) reads
         its route's memoised recipients. *)
      let recipients =
        match groups with
        | [ g ] -> (
            match Stbl.find_opt t.routes g with
            | Some r -> route_recipients t r
            | None -> [])
        | _ ->
            sessions_of t
              (List.fold_left
                 (fun acc g ->
                   let r = find_route t g in
                   SSet.union acc (SSet.union r.joined r.in_table))
                 SSet.empty groups)
      in
      List.map
        (fun s ->
          t.stats.client_deliveries <- t.stats.client_deliveries + 1;
          (* A slow receiver parks the message; the daemon's routing work
             (and the Deliver action's CPU charge) happens either way, so
             one stalled client never blocks the others. *)
          (match s.s_inbox with
          | Some q -> Deque.push_back q (sender, groups, d.service, payload)
          | None -> s.s_callbacks.on_message ~sender ~groups d.service payload);
          Participant.Deliver d)
        recipients
  | Envelope.Join { member; group } ->
      (match Groups.join t.groups ~group ~member with
      | Some members ->
          Option.iter
            (update_in_table t group SSet.add)
            (local_session_name t member);
          notify_group_view t group members
      | None -> ());
      []
  | Envelope.Leave { member; group } ->
      (match Groups.leave t.groups ~group ~member with
      | Some members ->
          Option.iter
            (update_in_table t group SSet.remove)
            (local_session_name t member);
          notify_group_view t group members
      | None -> ());
      []

let handle_delivery t (d : Message.data) =
  match Envelope.decode d.payload with
  | env -> (
      match apply_envelope t d env with
      | [] ->
          (* Daemon-internal traffic (Join/Leave, or an App envelope with
             no local recipient) still consumed its slot in the total
             order — surface one delivery so the driving runtime charges
             it and trace invariants see a gap-free sequence. *)
          [ Participant.Deliver d ]
      | actions -> actions)
  | exception Codec.Decode_error _ ->
      (* Not daemon traffic (e.g. a recovery flood of a foreign payload);
         surface it unchanged. *)
      [ Participant.Deliver d ]

(* A new regular configuration: prune members of departed daemons, tell
   affected local clients, and re-announce our own sessions so daemons that
   merged in can rebuild their view of us. *)
let handle_view t (v : Participant.view) =
  if not v.transitional then begin
    let keep pid = List.mem pid v.members in
    let changed = Groups.prune t.groups ~keep in
    List.iter
      (fun (group, members) ->
        (* Every member behind an [in_table] route is hosted here, so the
           prune dropped them all or none. *)
        if not (keep t.me) then
          update_route t group (fun r -> { r with in_table = SSet.empty });
        notify_group_view t group members)
      changed;
    Stbl.iter
      (fun _ s ->
        List.iter
          (fun group ->
            submit_envelope t Types.Agreed
              (Envelope.Join { member = s.s_member; group }))
          s.s_joined)
      t.sessions
  end;
  match t.on_view with None -> () | Some f -> f v

let transform_actions t actions =
  List.concat_map
    (fun action ->
      match action with
      | Participant.Deliver d -> handle_delivery t d
      | Participant.Deliver_config v ->
          handle_view t v;
          [ action ]
      | Participant.Unicast _ | Participant.Multicast _
      | Participant.Arm_timer _ | Participant.Rearm_timer _
      | Participant.Token_loss_detected ->
          [ action ])
    actions

let participant t : Participant.t =
  let inner = Member.participant t.member in
  {
    inner with
    process =
      (fun msg ->
        (* Submissions accumulate until a token is about to be handled —
           they wait for the token anyway, so packing across a rotation
           costs no extra latency. *)
        (match msg with
        | Message.Token _ | Message.Commit _ -> flush t
        | Message.Data _ | Message.Join _ -> ());
        transform_actions t (inner.process msg));
    fire_timer =
      (fun timer ->
        (* Runs only for timers the runtime fires, and a runtime that
           honours [Rearm_timer] skips superseded token timers: with
           packing on, buffered envelopes then wait for the next token
           or live timer. With packing off the flush is a no-op. *)
        flush t;
        transform_actions t (inner.fire_timer timer));
    start = (fun () -> transform_actions t (inner.start ()));
  }
