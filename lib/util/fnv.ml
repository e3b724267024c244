let offset = 0xCBF29CE484222325L
let prime = 0x100000001B3L

(* A for loop over a local ref keeps the running hash unboxed; folding
   with [String.iter] would capture the ref in a closure and box an
   [Int64] twice per byte. *)
let string h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        prime
  done;
  !h
