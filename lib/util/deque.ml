type 'a t = {
  mutable data : 'a array;
  mutable head : int; (* index of front element when size > 0 *)
  mutable size : int;
}

let create () = { data = [||]; head = 0; size = 0 }

let length d = d.size

let is_empty d = d.size = 0

let capacity d = Array.length d.data

(* A cell that holds no element holds the immediate 0, which references
   nothing, so the buffer keeps no popped or cleared element reachable;
   0 is a valid cell of any array of boxed values. A flat float array (a
   float deque's buffer) holds no pointers and cannot store an
   immediate, so its cells are left as they are. *)
let boxed d = Obj.tag (Obj.repr d.data) <> Obj.double_array_tag

let vacate d i = if boxed d then d.data.(i) <- Obj.magic 0

let vacate_range d pos len =
  if boxed d then Array.fill d.data pos len (Obj.magic 0)

(* Grow to double capacity, re-packing elements at offset 0. [seed] only
   gives the new buffer its representation; the unused cells are then
   vacated so they do not keep [seed] alive. *)
let grow d seed =
  let old_cap = capacity d in
  let cap = max 16 (2 * old_cap) in
  let data = Array.make cap seed in
  for i = 0 to d.size - 1 do
    data.(i) <- d.data.((d.head + i) mod old_cap)
  done;
  d.data <- data;
  d.head <- 0;
  vacate_range d d.size (cap - d.size)

let push_back d x =
  if d.size >= capacity d then grow d x;
  d.data.((d.head + d.size) mod capacity d) <- x;
  d.size <- d.size + 1

let push_front d x =
  if d.size >= capacity d then grow d x;
  d.head <- (d.head - 1 + capacity d) mod capacity d;
  d.data.(d.head) <- x;
  d.size <- d.size + 1

let pop_front d =
  if d.size = 0 then None
  else begin
    let x = d.data.(d.head) in
    vacate d d.head;
    d.head <- (d.head + 1) mod capacity d;
    d.size <- d.size - 1;
    Some x
  end

let pop_back d =
  if d.size = 0 then None
  else begin
    let i = (d.head + d.size - 1) mod capacity d in
    let x = d.data.(i) in
    vacate d i;
    d.size <- d.size - 1;
    Some x
  end

let peek_front d = if d.size = 0 then None else Some d.data.(d.head)

let peek_back d =
  if d.size = 0 then None
  else Some d.data.((d.head + d.size - 1) mod capacity d)

let clear d =
  let first = min d.size (capacity d - d.head) in
  vacate_range d d.head first;
  vacate_range d 0 (d.size - first);
  d.head <- 0;
  d.size <- 0

let iter f d =
  for i = 0 to d.size - 1 do
    f d.data.((d.head + i) mod capacity d)
  done

let fold f init d =
  let acc = ref init in
  iter (fun x -> acc := f !acc x) d;
  !acc

let to_list d = List.rev (fold (fun acc x -> x :: acc) [] d)

let exists p d =
  let rec loop i =
    if i >= d.size then false
    else if p d.data.((d.head + i) mod capacity d) then true
    else loop (i + 1)
  in
  loop 0
