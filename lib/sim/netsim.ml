open Aring_wire
open Aring_ring
module Prng = Aring_util.Prng
module Trace = Aring_obs.Trace
module Metrics = Aring_obs.Metrics
module Flight = Aring_obs.Flight

(* The event queue is allocation-free in steady state. Each pending event
   is keyed by (timestamp clamped to now, monotonic insertion seq), and
   the key lives inline in a 4-ary min-heap of flat int triples
   [at; seq; slot]: a comparison is int loads from one array, with no
   closure call and no pointer chase. [slot] indexes the payload arrays
   (kind, node, message, timer, thunk); freed slots are recycled through
   an index stack. Scheduling a packet arrival touches no closure, no
   tuple and no variant cell — it writes a recycled slot.

   There are two such heaps. The near tier holds every event due less
   than [near_horizon] after the instant it is queued: packet arrivals,
   CPU runs, loopbacks. The far tier holds the rest, chiefly a workload
   driver's pre-scheduled [call_at] arrivals (thousands at once) and the
   token timeouts. A near event therefore sifts through a heap of tens,
   not through the driver's whole schedule. Dispatch pops whichever root
   has the smaller (at, seq) key, and an event never moves between
   tiers, so the dispatch order is exactly the one-heap order: every
   seq, requeue key and port release key is unchanged. The horizon only
   decides where an event waits. 1 ms sits well above one hop plus CPU
   work (about 50 µs) and well below the token timeouts (20 and 200 ms);
   100 µs and 10 ms measured the same.

   Both heaps live in the one array [q], which holds a triple per payload
   slot: the near heap grows up from triple 0 and the far heap down from
   the last triple. Every queued event holds a slot, so the two can never
   meet, and the split costs no memory over one heap.

   Superseding timers ([Participant.Rearm_timer]) keep one queued event
   per (node, timer slot) instead of one per arm; see [rearm_timer]. *)

type Participant.timer += No_timer
(* Placeholder stored in freed slots so they retain no live timer. Never
   dispatched. *)

type ev_kind = Free | Arrival | Cpu_run | Timer | Slot_timer | Call

let dummy_msg =
  Message.Join { j_pid = -1; proc_set = []; fail_set = []; join_seq = 0 }

(* A drop-tail switch output port. [bytes] counts the packets accepted
   and not yet serialized out. [fifo] is a ring of (done, seq, size) int
   triples, one per such packet, oldest at [head]: [done] is the instant
   the packet leaves the port and [seq] the event seq its release takes.
   Keys (done, seq) increase along the ring, because the port serializes
   in acceptance order and seqs are handed out in order. *)
type port = {
  mutable free_at : int;  (* instant the port finishes its last packet *)
  mutable bytes : int;
  mutable fifo : int array;
  mutable head : int;
  mutable len : int;
}

type stats = {
  mutable packets_sent : int;
  mutable switch_drops : int;
  mutable random_losses : int;
  mutable partition_drops : int;
  mutable timers_fired : int;
  mutable timers_superseded : int;
  mutable near_pushes : int;
  mutable far_pushes : int;
}

type t = {
  net : Profile.net;
  tiers : Profile.tier array;
  parts : Participant.t array;
  mutable q : int array;  (* both tiers' [at; seq; slot] triples *)
  mutable near_len : int;  (* near heap position k: triple k *)
  mutable far_len : int;  (* far heap position k: triple (slots - 1 - k) *)
  (* Event payloads by slot, each array as long as [q] has triples. *)
  mutable kinds : ev_kind array;
  mutable nodes : int array;  (* Slot_timer: the timer-slot index [r] *)
  mutable msgs : Message.t array;  (* Arrival *)
  mutable timers : Participant.timer array;  (* Timer *)
  mutable fns : (unit -> unit) array;  (* Call *)
  mutable free_stack : int array;
  mutable free_top : int;
  mutable event_seq : int;
  mutable now : int;
  mutable cur_seq : int;  (* seq of the event being dispatched *)
  (* Timer slots, indexed [r = node * Participant.timer_slots + slot]:
     whether the slot has a [Slot_timer] event queued, and the key and
     timer of the slot's latest arm. *)
  slot_queued : bool array;
  slot_at : int array;
  slot_seq : int array;
  slot_timer : Participant.timer array;
  prng : Prng.t;
  nic_free : int array;
  ports : port array;
  cpu_busy : int array;
  cpu_scheduled : bool array;
  alive : bool array;
  (* Per-node link rates, both defaulting to [net.bandwidth_bps]:
     [up_bps] paces the node's NIC egress serialization, [down_bps]
     paces the switch output port feeding the node. *)
  up_bps : int array;
  down_bps : int array;
  (* Additional one-way latency per (src, dst) pair, on top of
     [net.latency_ns] — the WAN/geo hook. Defaults to zero. *)
  mutable extra_latency : src:int -> dst:int -> int;
  (* Multicast domains: a node's multicasts fan out only to nodes in the
     same domain (multi-ring isolation). [None] = one flat domain — the
     filter is never consulted, so defaults stay byte-identical. *)
  mutable domains : int array option;
  mutable drop : src:int -> dst:int -> Message.t -> bool;
  mutable deliver_cb : at:int -> now:int -> Message.data -> unit;
  mutable view_cb : at:int -> now:int -> Participant.view -> unit;
  mutable token_loss_cb : at:int -> now:int -> unit;
  stats : stats;
}

let now t = t.now
let stats t = t.stats
let participant t i = t.parts.(i)
let on_deliver t f = t.deliver_cb <- f
let on_view t f = t.view_cb <- f
let on_token_loss t f = t.token_loss_cb <- f
let set_drop t f = t.drop <- f
let is_alive t i = t.alive.(i)

(* [Stdlib.max] compares polymorphically; the hot paths only need ints. *)
let imax (a : int) b = if a >= b then a else b

(* (a, s) < (b, u) in key order, with int-typed comparisons only. *)
let[@inline] key_lt (a : int) (s : int) (b : int) (u : int) =
  a < b || (a = b && s < u)

(* ------------------------------------------------------------------ *)
(* Event queue                                                          *)

(* Events due less than this long after the instant they are queued go
   to the near tier (see the header). *)
let near_horizon = 1_000_000

(* A tier's heap position [k] is the triple at [q.(base + stride * k)]:
   [base = 0], [stride = 3] for the near tier and [base = 3 * (slots - 1)],
   [stride = -3] for the far tier. Fields keep their order within a
   triple either way. *)

(* Move the hole at heap position [i] up past every parent whose key
   exceeds (at, seq); returns where the hole stops. *)
let rec hole_up (q : int array) base stride i at seq =
  if i = 0 then 0
  else
    let p = (i - 1) / 4 in
    let pi = base + (stride * p) in
    let pa = q.(pi) and ps = q.(pi + 1) in
    if key_lt at seq pa ps then begin
      let hi = base + (stride * i) in
      q.(hi) <- pa;
      q.(hi + 1) <- ps;
      q.(hi + 2) <- q.(pi + 2);
      hole_up q base stride p at seq
    end
    else i

(* Move the hole at heap position [i], in a heap of [n] triples, down past
   every smallest child whose key is below (at, seq); returns where the
   hole stops. *)
let rec hole_down (q : int array) base stride n i at seq =
  let c = (4 * i) + 1 in
  if c >= n then i
  else begin
    let last = if c + 3 < n then c + 3 else n - 1 in
    let ci = base + (stride * c) in
    let m = ref c and mi = ref ci and ma = ref q.(ci) and ms = ref q.(ci + 1) in
    for k = c + 1 to last do
      let ki = base + (stride * k) in
      let ka = q.(ki) and ks = q.(ki + 1) in
      if key_lt ka ks !ma !ms then begin
        m := k;
        mi := ki;
        ma := ka;
        ms := ks
      end
    done;
    if key_lt !ma !ms at seq then begin
      let hi = base + (stride * i) in
      q.(hi) <- !ma;
      q.(hi + 1) <- !ms;
      q.(hi + 2) <- q.(!mi + 2);
      hole_down q base stride n !m at seq
    end
    else i
  end

(* Insert (at, seq, i) into the tier heap of [n] triples; the caller
   bumps the length. *)
let heap_push q base stride n at seq i =
  let h = base + (stride * hole_up q base stride n at seq) in
  q.(h) <- at;
  q.(h + 1) <- seq;
  q.(h + 2) <- i

(* Drop the root of the tier heap that holds [n + 1] triples, filling its
   hole with the last triple. *)
let heap_pop_root q base stride n =
  if n > 0 then begin
    let li = base + (stride * n) in
    let at = q.(li) and seq = q.(li + 1) in
    let h = base + (stride * hole_down q base stride n 0 at seq) in
    q.(h) <- at;
    q.(h + 1) <- seq;
    q.(h + 2) <- q.(li + 2)
  end

(* The queue and the payload arrays grow together, so a push never needs
   a check: every queued event holds one allocated slot. *)
let grow_slots t =
  let old_n = Array.length t.kinds in
  let n = 2 * old_n in
  let extend a fill =
    let b = Array.make n fill in
    Array.blit a 0 b 0 old_n;
    b
  in
  t.kinds <- extend t.kinds Free;
  t.nodes <- extend t.nodes (-1);
  t.msgs <- extend t.msgs dummy_msg;
  t.timers <- extend t.timers No_timer;
  t.fns <- extend t.fns ignore;
  let q = Array.make (3 * n) 0 in
  Array.blit t.q 0 q 0 (3 * t.near_len);
  let far = 3 * t.far_len in
  Array.blit t.q ((3 * old_n) - far) q ((3 * n) - far) far;
  t.q <- q;
  let stack = Array.make n 0 in
  Array.blit t.free_stack 0 stack 0 t.free_top;
  t.free_stack <- stack;
  for i = old_n to n - 1 do
    t.free_stack.(t.free_top) <- i;
    t.free_top <- t.free_top + 1
  done

let alloc_slot t =
  if t.free_top = 0 then grow_slots t;
  t.free_top <- t.free_top - 1;
  t.free_stack.(t.free_top)

(* Queue slot [i] at key (at, seq), [at] already clamped to [now]. *)
let push t at seq i =
  if at - t.now < near_horizon then begin
    heap_push t.q 0 3 t.near_len at seq i;
    t.near_len <- t.near_len + 1;
    t.stats.near_pushes <- t.stats.near_pushes + 1
  end
  else begin
    heap_push t.q (Array.length t.q - 3) (-3) t.far_len at seq i;
    t.far_len <- t.far_len + 1;
    t.stats.far_pushes <- t.stats.far_pushes + 1
  end

let enqueue t at i =
  let at = if at < t.now then t.now else at in
  t.event_seq <- t.event_seq + 1;
  push t at t.event_seq i

let sched_arrival t at node msg =
  let i = alloc_slot t in
  t.kinds.(i) <- Arrival;
  t.nodes.(i) <- node;
  t.msgs.(i) <- msg;
  enqueue t at i

let sched_cpu t at node =
  let i = alloc_slot t in
  t.kinds.(i) <- Cpu_run;
  t.nodes.(i) <- node;
  enqueue t at i

let sched_timer t at node timer =
  let i = alloc_slot t in
  t.kinds.(i) <- Timer;
  t.nodes.(i) <- node;
  t.timers.(i) <- timer;
  enqueue t at i

(* A [Rearm_timer] draws its key (clamped deadline, next seq) exactly as
   [sched_timer] would. The slot's first pending arm queues one
   [Slot_timer] event; a later arm whose deadline is not earlier only
   overwrites the slot's latest key and timer, superseding the arm
   before it. When the queued event pops at an older key, [step] puts it
   back at the latest key without drawing a seq, so the surviving timer
   fires at exactly the key its own event would have had and every other
   event keeps its order. An arm with an earlier deadline cannot move
   the queued event forward: it becomes a plain [Timer] event, and the
   queued event still fires the timer it supersedes — a no-op by the
   [Rearm_timer] contract. *)
let rearm_timer t at node slot timer =
  if slot < 0 || slot >= Participant.timer_slots then
    invalid_arg "Netsim: Rearm_timer slot out of range";
  let r = (node * Participant.timer_slots) + slot in
  let at = imax at t.now in
  if not t.slot_queued.(r) then begin
    let i = alloc_slot t in
    t.kinds.(i) <- Slot_timer;
    t.nodes.(i) <- r;
    t.slot_queued.(r) <- true;
    t.event_seq <- t.event_seq + 1;
    t.slot_at.(r) <- at;
    t.slot_seq.(r) <- t.event_seq;
    t.slot_timer.(r) <- timer;
    push t at t.event_seq i
  end
  else if at >= t.slot_at.(r) then begin
    t.stats.timers_superseded <- t.stats.timers_superseded + 1;
    t.event_seq <- t.event_seq + 1;
    t.slot_at.(r) <- at;
    t.slot_seq.(r) <- t.event_seq;
    t.slot_timer.(r) <- timer
  end
  else sched_timer t at node timer

let sched_call t at fn =
  let i = alloc_slot t in
  t.kinds.(i) <- Call;
  t.fns.(i) <- fn;
  enqueue t at i

(* ------------------------------------------------------------------ *)
(* Switch ports                                                         *)

(* Release the bytes of every packet that has left [p] before the event
   being dispatched. Each release carries a key (done, seq) drawn like an
   event's when its packet was accepted, so a release event in the queue
   would have been popped by now exactly when its key is below
   (now, cur_seq): the queue pops in key order, and everything scheduled
   from here on gets a larger key. [bytes] therefore reads as if every
   release were an event, timestamp ties included, with none queued. *)
let port_retire t p =
  let fifo = p.fifo in
  let cap = Array.length fifo / 3 in
  while
    p.len > 0
    && key_lt fifo.(3 * p.head) fifo.((3 * p.head) + 1) t.now t.cur_seq
  do
    p.bytes <- p.bytes - fifo.((3 * p.head) + 2);
    p.head <- (if p.head + 1 = cap then 0 else p.head + 1);
    p.len <- p.len - 1
  done

(* Accept [size] bytes that leave [p] at [done_at]. The release takes an
   event seq and clamps like [enqueue], so the seqs of all real events
   are the same as if it were queued. *)
let port_accept t p ~done_at size =
  let cap = Array.length p.fifo / 3 in
  if p.len = cap then begin
    let fifo = Array.make (6 * cap) 0 in
    for k = 0 to cap - 1 do
      let j = (p.head + k) mod cap in
      Array.blit p.fifo (3 * j) fifo (3 * k) 3
    done;
    p.fifo <- fifo;
    p.head <- 0
  end;
  let cap = Array.length p.fifo / 3 in
  let k = p.head + p.len in
  let k = if k >= cap then k - cap else k in
  t.event_seq <- t.event_seq + 1;
  p.fifo.(3 * k) <- imax done_at t.now;
  p.fifo.((3 * k) + 1) <- t.event_seq;
  p.fifo.((3 * k) + 2) <- size;
  p.len <- p.len + 1;
  p.bytes <- p.bytes + size;
  p.free_at <- done_at

(* ------------------------------------------------------------------ *)

(* Packet size on the wire: base format plus the sending tier's extra
   protocol headers on data messages. *)
let packet_size t src msg =
  Message.wire_size msg
  +
  match msg with
  | Message.Data _ -> t.tiers.(src).Profile.extra_data_header
  | Message.Token _ | Message.Join _ | Message.Commit _ -> 0

(* Kick the destination CPU if it is idle. *)
let wake_cpu t dst =
  if t.alive.(dst) && not t.cpu_scheduled.(dst) && t.parts.(dst).has_work ()
  then begin
    t.cpu_scheduled.(dst) <- true;
    sched_cpu t (imax t.now t.cpu_busy.(dst)) dst
  end

(* Serialization delay of [size] bytes at a per-link rate. Identical
   arithmetic to [Profile.tx_ns], so configurations that leave every link
   at [net.bandwidth_bps] schedule byte-identical event streams. *)
let link_tx_ns bps size = size * 8 * 1_000_000_000 / bps

(* Replicate an already-serialized packet into [dst]'s output-port queue,
   dropping on overflow. [at_switch] comes from the one NIC serialization
   shared by every destination (IP-multicast); the port drain is paced by
   the receiver's downlink rate. *)
let port_enqueue t ~at_switch ~size ~src ~dst msg =
  if not t.alive.(dst) then ()
  else if t.drop ~src ~dst msg then begin
    t.stats.partition_drops <- t.stats.partition_drops + 1;
    if Trace.enabled () then Trace.emit ~node:dst (Drop { reason = "partition"; size })
  end
  else if t.net.loss_prob > 0.0 && Prng.bernoulli t.prng t.net.loss_prob
  then begin
    t.stats.random_losses <- t.stats.random_losses + 1;
    if Trace.enabled () then Trace.emit ~node:dst (Drop { reason = "random"; size })
  end
  else begin
    let p = t.ports.(dst) in
    port_retire t p;
    if p.bytes + size > t.net.switch_port_buffer then begin
      t.stats.switch_drops <- t.stats.switch_drops + 1;
      if Trace.enabled () then Trace.emit ~node:dst (Drop { reason = "switch"; size })
    end
    else begin
      let tx = link_tx_ns t.down_bps.(dst) size in
      let port_done = imax at_switch p.free_at + tx in
      port_accept t p ~done_at:port_done size;
      sched_arrival t
        (port_done + t.net.latency_ns + t.extra_latency ~src ~dst)
        dst msg
    end
  end

(* Serialize [msg] out of [src]'s NIC no earlier than [at]; returns the
   instant the packet reaches the switch, having advanced the NIC clock. *)
let nic_serialize t ~at src size =
  t.stats.packets_sent <- t.stats.packets_sent + 1;
  let tx = link_tx_ns t.up_bps.(src) size in
  let nic_start = imax at t.nic_free.(src) in
  let at_switch = nic_start + tx in
  t.nic_free.(src) <- at_switch;
  at_switch

let transmit_unicast t ~at src msg dst =
  let size = packet_size t src msg in
  let at_switch = nic_serialize t ~at src size in
  port_enqueue t ~at_switch ~size ~src ~dst msg

(* Fan out to every live participant but the source, in pid order — the
   same destination order the seed built as an explicit list. *)
let transmit_multicast t ~at src msg =
  let size = packet_size t src msg in
  let at_switch = nic_serialize t ~at src size in
  let n = Array.length t.parts in
  match t.domains with
  | None ->
      for dst = 0 to n - 1 do
        if dst <> src then port_enqueue t ~at_switch ~size ~src ~dst msg
      done
  | Some dom ->
      (* Cross-domain destinations are pruned before [port_enqueue]: no
         PRNG draw, no drop counter, no trace event — a domain switch
         never perturbs same-domain event streams. *)
      for dst = 0 to n - 1 do
        if dst <> src && dom.(dst) = dom.(src) then
          port_enqueue t ~at_switch ~size ~src ~dst msg
      done

(* Interpret a participant's actions, advancing a CPU cursor so that each
   send and each delivery occupies the CPU serially in action order.
   Explicit recursion: no fold closure per call. *)
let rec interpret t node actions ~cursor =
  match actions with
  | [] -> cursor
  | action :: rest ->
      let tier = t.tiers.(node) in
      let cursor =
        match action with
        | Participant.Unicast (dst, msg) ->
            let cursor = cursor + tier.Profile.send_op_ns in
            if dst = node then
              (* Loopback (e.g. handing oneself the initial token). *)
              sched_arrival t (cursor + 1_000) dst msg
            else transmit_unicast t ~at:cursor node msg dst;
            cursor
        | Participant.Multicast msg ->
            let cursor = cursor + tier.Profile.send_op_ns in
            transmit_multicast t ~at:cursor node msg;
            cursor
        | Participant.Deliver d ->
            let cursor = cursor + tier.Profile.deliver_ns in
            if Trace.enabled () then
              Trace.emit_at ~t_ns:cursor ~node
                (Deliver
                   {
                     ring = d.d_ring;
                     seq = d.seq;
                     sender = d.pid;
                     service = Types.service_to_string d.service;
                   });
            t.deliver_cb ~at:node ~now:cursor d;
            cursor
        | Participant.Deliver_config v ->
            let cursor = cursor + tier.Profile.deliver_ns in
            if Trace.enabled () then
              Trace.emit_at ~t_ns:cursor ~node
                (View_install
                   {
                     ring = v.view_id;
                     members = v.members;
                     transitional = v.transitional;
                   });
            t.view_cb ~at:node ~now:cursor v;
            cursor
        | Participant.Arm_timer (timer, delay) ->
            sched_timer t (cursor + delay) node timer;
            cursor
        | Participant.Rearm_timer (slot, timer, delay) ->
            rearm_timer t (cursor + delay) node slot timer;
            cursor
        | Participant.Token_loss_detected ->
            t.token_loss_cb ~at:node ~now:cursor;
            cursor
      in
      interpret t node rest ~cursor

let proc_cost t node msg =
  let tier = t.tiers.(node) in
  match msg with
  | Message.Token _ | Message.Commit _ -> tier.Profile.token_proc_ns
  | Message.Data d ->
      let wire_bytes =
        Message.data_wire_size ~payload_len:(Bytes.length d.payload)
        + tier.Profile.extra_data_header
      in
      Profile.data_proc_cost tier ~mtu:t.net.Profile.mtu ~wire_bytes
  | Message.Join _ -> tier.Profile.token_proc_ns

let fire t node timer =
  if t.alive.(node) then begin
    t.stats.timers_fired <- t.stats.timers_fired + 1;
    let actions = t.parts.(node).fire_timer timer in
    if actions <> [] then begin
      let cursor = imax t.now t.cpu_busy.(node) + 500 in
      let busy = interpret t node actions ~cursor in
      t.cpu_busy.(node) <- busy
    end
  end

let dispatch t kind node msg timer fn =
  match kind with
  | Arrival ->
      if t.alive.(node) then begin
        ignore (t.parts.(node).receive msg);
        wake_cpu t node
      end
  | Cpu_run ->
      t.cpu_scheduled.(node) <- false;
      if t.alive.(node) then begin
        match t.parts.(node).take_next () with
        | None -> ()
        | Some msg ->
            let cursor = t.now + proc_cost t node msg in
            let actions = t.parts.(node).process msg in
            let busy = interpret t node actions ~cursor in
            t.cpu_busy.(node) <- busy;
            wake_cpu t node
      end
  | Timer -> fire t node timer
  | Call -> fn ()
  | Slot_timer | Free -> assert false

let free_slot t i =
  t.kinds.(i) <- Free;
  t.free_stack.(t.free_top) <- i;
  t.free_top <- t.free_top + 1

(* Pop the minimum event, copy its fields out, recycle the slot, then
   dispatch — handlers may schedule into (and reuse) the freed slot. The
   minimum is the near root unless the far heap's root has a smaller
   key. A [Slot_timer] popped at a key older than its slot's latest arm
   goes straight back into the queue at that arm's key, keeping its
   payload slot. The caller ensures the queue is not empty. *)
let step t =
  let q = t.q in
  let fb = Array.length q - 3 in
  let i =
    if
      t.near_len > 0
      && (t.far_len = 0 || key_lt q.(0) q.(1) q.(fb) q.(fb + 1))
    then begin
      t.now <- q.(0);
      t.cur_seq <- q.(1);
      let i = q.(2) in
      t.near_len <- t.near_len - 1;
      heap_pop_root q 0 3 t.near_len;
      i
    end
    else begin
      t.now <- q.(fb);
      t.cur_seq <- q.(fb + 1);
      let i = q.(fb + 2) in
      t.far_len <- t.far_len - 1;
      heap_pop_root q fb (-3) t.far_len;
      i
    end
  in
  let kind = t.kinds.(i) and node = t.nodes.(i) in
  match kind with
  | Slot_timer ->
      let r = node in
      if t.slot_seq.(r) <> t.cur_seq then
        push t t.slot_at.(r) t.slot_seq.(r) i
      else begin
        let timer = t.slot_timer.(r) in
        t.slot_timer.(r) <- No_timer;
        t.slot_queued.(r) <- false;
        free_slot t i;
        fire t (r / Participant.timer_slots) timer
      end
  | Arrival | Cpu_run | Timer | Call | Free ->
      let msg = t.msgs.(i) and timer = t.timers.(i) and fn = t.fns.(i) in
      (* Only the kind's own payload can hold a live value. *)
      (match kind with
      | Arrival -> t.msgs.(i) <- dummy_msg
      | Timer -> t.timers.(i) <- No_timer
      | Call -> t.fns.(i) <- ignore
      | Cpu_run | Slot_timer | Free -> ());
      free_slot t i;
      dispatch t kind node msg timer fn

let initial_slots = 256

let create ~net ~tiers ~participants ?(seed = 1L) () =
  let n = Array.length participants in
  if Array.length tiers <> n then
    invalid_arg "Netsim.create: tiers and participants must align";
  let t =
    {
      net;
      tiers;
      parts = participants;
      q = Array.make (3 * initial_slots) 0;
      near_len = 0;
      far_len = 0;
      kinds = Array.make initial_slots Free;
      nodes = Array.make initial_slots (-1);
      msgs = Array.make initial_slots dummy_msg;
      timers = Array.make initial_slots No_timer;
      fns = Array.make initial_slots ignore;
      free_stack = Array.init initial_slots (fun i -> i);
      free_top = initial_slots;
      event_seq = 0;
      now = 0;
      cur_seq = 0;
      slot_queued = Array.make (n * Participant.timer_slots) false;
      slot_at = Array.make (n * Participant.timer_slots) 0;
      slot_seq = Array.make (n * Participant.timer_slots) 0;
      slot_timer = Array.make (n * Participant.timer_slots) No_timer;
      prng = Prng.create ~seed;
      nic_free = Array.make n 0;
      ports =
        Array.init n (fun _ ->
            {
              free_at = 0;
              bytes = 0;
              fifo = Array.make (3 * 16) 0;
              head = 0;
              len = 0;
            });
      cpu_busy = Array.make n 0;
      cpu_scheduled = Array.make n false;
      alive = Array.make n true;
      up_bps = Array.make n net.Profile.bandwidth_bps;
      down_bps = Array.make n net.Profile.bandwidth_bps;
      extra_latency = (fun ~src:_ ~dst:_ -> 0);
      domains = None;
      drop = (fun ~src:_ ~dst:_ _ -> false);
      deliver_cb = (fun ~at:_ ~now:_ _ -> ());
      view_cb = (fun ~at:_ ~now:_ _ -> ());
      token_loss_cb = (fun ~at:_ ~now:_ -> ());
      stats =
        {
          packets_sent = 0;
          switch_drops = 0;
          random_losses = 0;
          partition_drops = 0;
          timers_fired = 0;
          timers_superseded = 0;
          near_pushes = 0;
          far_pushes = 0;
        };
    }
  in
  (* Trace timestamps follow the simulated clock while this simulator is
     the active runtime. *)
  Trace.set_clock (fun () -> t.now);
  Array.iteri
    (fun i p ->
      sched_call t 0 (fun () ->
          ignore (interpret t i (p.Participant.start ()) ~cursor:t.now)))
    participants;
  t

let submit_now t ~node service payload =
  if t.alive.(node) then begin
    let tier = t.tiers.(node) in
    t.cpu_busy.(node) <- imax t.now t.cpu_busy.(node) + tier.Profile.submit_ns;
    t.parts.(node).submit service payload;
    (* Some protocols (e.g. the sequencer baseline) emit work directly on
       submission rather than waiting for a token visit. *)
    wake_cpu t node
  end

let submit_at t ~at ~node service payload =
  sched_call t at (fun () -> submit_now t ~node service payload)

let call_at t ~at f = sched_call t at f

let set_drop_until t ~until f =
  let prev = t.drop in
  t.drop <- (fun ~src ~dst msg -> f ~src ~dst msg || prev ~src ~dst msg);
  sched_call t until (fun () -> t.drop <- prev)

let set_link_rates t ~node ?up_bps ?down_bps () =
  if node < 0 || node >= Array.length t.parts then
    invalid_arg "Netsim.set_link_rates: node out of range";
  let set arr = function
    | None -> ()
    | Some bps ->
        if bps <= 0 then
          invalid_arg "Netsim.set_link_rates: rate must be positive";
        arr.(node) <- bps
  in
  set t.up_bps up_bps;
  set t.down_bps down_bps

let set_extra_latency t f = t.extra_latency <- f

let set_domains t dom =
  if Array.length dom <> Array.length t.parts then
    invalid_arg "Netsim.set_domains: domains must cover every node";
  t.domains <- Some (Array.copy dom)

let set_latency_classes t ~classes ~matrix =
  let n = Array.length t.parts in
  if Array.length classes <> n then
    invalid_arg "Netsim.set_latency_classes: classes must cover every node";
  let k = Array.length matrix in
  Array.iter
    (fun row ->
      if Array.length row <> k then
        invalid_arg "Netsim.set_latency_classes: matrix must be square")
    matrix;
  Array.iter
    (fun c ->
      if c < 0 || c >= k then
        invalid_arg "Netsim.set_latency_classes: class out of range")
    classes;
  (* Copy so later caller mutation cannot desynchronize a running sim. *)
  let classes = Array.copy classes in
  let matrix = Array.map Array.copy matrix in
  t.extra_latency <- (fun ~src ~dst -> matrix.(classes.(src)).(classes.(dst)))

let crash t node =
  t.alive.(node) <- false;
  Flight.record ~node ~code:Flight.ev_crash ~a:0 ~b:0 ~c:0 ~d:0;
  if Trace.enabled () then Trace.emit ~node Crash

let record_metrics t reg =
  let c name v = Metrics.add (Metrics.counter reg name) v in
  c "netsim.packets_sent" t.stats.packets_sent;
  c "netsim.switch_drops" t.stats.switch_drops;
  c "netsim.random_losses" t.stats.random_losses;
  c "netsim.partition_drops" t.stats.partition_drops;
  c "netsim.timers_fired" t.stats.timers_fired;
  c "netsim.timers_superseded" t.stats.timers_superseded;
  c "netsim.near_pushes" t.stats.near_pushes;
  c "netsim.far_pushes" t.stats.far_pushes

(* Whether some queued event is due at or before [horizon]: then the
   smaller root, which [step] pops, is too. *)
let due t horizon =
  let q = t.q in
  (t.near_len > 0 && q.(0) <= horizon)
  || (t.far_len > 0 && q.(Array.length q - 3) <= horizon)

let run_until t horizon =
  while due t horizon do
    step t
  done;
  t.now <- imax t.now horizon
