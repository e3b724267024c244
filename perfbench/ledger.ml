(* Outside-in span ledger: every span is opened by the benchmark around a
   call into one layer's public functions. A layer's self time is its
   span durations minus the part of them its child spans cover; the
   same holds for minor-heap allocation. The stack is preallocated so
   that timing adds no allocation of its own to the layers it measures. *)

type t = {
  names : string array;
  clock : unit -> int;  (* ns *)
  alloc : unit -> float;  (* words *)
  self_ns : int array;
  self_words : float array;
  calls : int array;
  stk_layer : int array;
  stk_t0 : int array;
  stk_w0 : float array;
  stk_child_ns : int array;
  stk_child_w : float array;
  mutable depth : int;
}

let max_depth = 32

let monotonic_ns () = Int64.to_int (Monotonic_clock.now ())

let create ?(clock = monotonic_ns) ?(alloc = Gc.minor_words) names =
  let n = Array.length names in
  {
    names;
    clock;
    alloc;
    self_ns = Array.make n 0;
    self_words = Array.make n 0.0;
    calls = Array.make n 0;
    stk_layer = Array.make max_depth 0;
    stk_t0 = Array.make max_depth 0;
    stk_w0 = Array.make max_depth 0.0;
    stk_child_ns = Array.make max_depth 0;
    stk_child_w = Array.make max_depth 0.0;
    depth = 0;
  }

let layer t name =
  let rec find i =
    if i >= Array.length t.names then invalid_arg ("Ledger.layer: " ^ name)
    else if t.names.(i) = name then i
    else find (i + 1)
  in
  find 0

let enter t layer =
  let d = t.depth in
  if d >= max_depth then failwith "Ledger.enter: spans nested too deep";
  t.stk_layer.(d) <- layer;
  t.stk_child_ns.(d) <- 0;
  t.stk_child_w.(d) <- 0.0;
  t.depth <- d + 1;
  t.stk_w0.(d) <- t.alloc ();
  t.stk_t0.(d) <- t.clock ()

let leave t =
  let now = t.clock () in
  let words = t.alloc () in
  let d = t.depth - 1 in
  if d < 0 then failwith "Ledger.leave: no open span";
  t.depth <- d;
  let layer = t.stk_layer.(d) in
  let dur = now - t.stk_t0.(d) in
  let w = words -. t.stk_w0.(d) in
  t.self_ns.(layer) <- t.self_ns.(layer) + dur - t.stk_child_ns.(d);
  t.self_words.(layer) <- t.self_words.(layer) +. w -. t.stk_child_w.(d);
  t.calls.(layer) <- t.calls.(layer) + 1;
  if d > 0 then begin
    t.stk_child_ns.(d - 1) <- t.stk_child_ns.(d - 1) + dur;
    t.stk_child_w.(d - 1) <- t.stk_child_w.(d - 1) +. w
  end

let span t layer f =
  enter t layer;
  match f () with
  | v ->
      leave t;
      v
  | exception e ->
      leave t;
      raise e

let self_ns t layer = t.self_ns.(layer)
let self_bytes t layer = t.self_words.(layer) *. float_of_int (Sys.word_size / 8)
let calls t layer = t.calls.(layer)
let total_self_ns t = Array.fold_left ( + ) 0 t.self_ns
