type 'a t = {
  cmp : 'a -> 'a -> int;
  mutable data : 'a array;
  mutable size : int;
}

let create ~cmp = { cmp; data = [||]; size = 0 }

let length h = h.size

let is_empty h = h.size = 0

(* The backing array doubles on demand; slot 0 is the root. *)
let ensure_capacity h =
  if h.size >= Array.length h.data then begin
    let cap = max 16 (2 * Array.length h.data) in
    let data = Array.make cap h.data.(0) in
    Array.blit h.data 0 data 0 h.size;
    h.data <- data
  end

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if h.cmp h.data.(i) h.data.(parent) < 0 then begin
      let tmp = h.data.(i) in
      h.data.(i) <- h.data.(parent);
      h.data.(parent) <- tmp;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < h.size && h.cmp h.data.(l) h.data.(!smallest) < 0 then smallest := l;
  if r < h.size && h.cmp h.data.(r) h.data.(!smallest) < 0 then smallest := r;
  if !smallest <> i then begin
    let tmp = h.data.(i) in
    h.data.(i) <- h.data.(!smallest);
    h.data.(!smallest) <- tmp;
    sift_down h !smallest
  end

let push h x =
  if h.size = 0 && Array.length h.data = 0 then h.data <- Array.make 16 x
  else ensure_capacity h;
  h.data.(h.size) <- x;
  h.size <- h.size + 1;
  sift_up h (h.size - 1)

let peek h = if h.size = 0 then None else Some h.data.(0)

let pop_exn h =
  if h.size = 0 then invalid_arg "Heap.pop_exn: empty heap";
  let root = h.data.(0) in
  h.size <- h.size - 1;
  if h.size > 0 then begin
    h.data.(0) <- h.data.(h.size);
    sift_down h 0
  end;
  root

let pop h = if h.size = 0 then None else Some (pop_exn h)

let clear h = h.size <- 0

let to_list h =
  let rec loop i acc = if i < 0 then acc else loop (i - 1) (h.data.(i) :: acc) in
  loop (h.size - 1) []
