open Aring_wire

type t =
  | App of { sender : string; groups : string list; payload : bytes }
  | Join of { member : string; group : string }
  | Leave of { member : string; group : string }
  | Batch of t list

let tag_app = 1
let tag_join = 2
let tag_leave = 3
let tag_batch = 4

let write_string e s = Codec.write_bytes e (Bytes.unsafe_of_string s)
let read_string d = Bytes.unsafe_to_string (Codec.read_bytes d)

let rec write_one e t =
  match t with
  | App { sender; groups; payload } ->
      Codec.write_u8 e tag_app;
      write_string e sender;
      Codec.write_list e (write_string e) groups;
      Codec.write_bytes e payload
  | Join { member; group } ->
      Codec.write_u8 e tag_join;
      write_string e member;
      write_string e group
  | Leave { member; group } ->
      Codec.write_u8 e tag_leave;
      write_string e member;
      write_string e group
  | Batch entries ->
      Codec.write_u8 e tag_batch;
      Codec.write_list e
        (fun entry ->
          match entry with
          | Batch _ -> invalid_arg "Envelope.encode: nested batch"
          | entry -> write_one e entry)
        entries

let encode t =
  let e = Codec.encoder () in
  write_one e t;
  Codec.to_bytes e

(* Mirrors [write_one] field by field: a u8 tag, and an i32 length (or
   count) before every string, byte string and list. *)
let string_size s = 4 + String.length s

let rec encoded_size t =
  match t with
  | App { sender; groups; payload } ->
      1 + string_size sender
      + List.fold_left (fun acc g -> acc + string_size g) 4 groups
      + 4 + Bytes.length payload
  | Join { member; group } | Leave { member; group } ->
      1 + string_size member + string_size group
  | Batch entries ->
      List.fold_left
        (fun acc entry ->
          match entry with
          | Batch _ -> invalid_arg "Envelope.encode: nested batch"
          | entry -> acc + encoded_size entry)
        5 entries

let rec read_one ~nested d =
  let tag = Codec.read_u8 d in
  if tag = tag_app then begin
    let sender = read_string d in
    let groups = Codec.read_list d (fun () -> read_string d) in
    let payload = Codec.read_bytes d in
    App { sender; groups; payload }
  end
  else if tag = tag_join then begin
    let member = read_string d in
    let group = read_string d in
    Join { member; group }
  end
  else if tag = tag_leave then begin
    let member = read_string d in
    let group = read_string d in
    Leave { member; group }
  end
  else if tag = tag_batch && not nested then
    Batch (Codec.read_list d (fun () -> read_one ~nested:true d))
  else raise (Codec.Decode_error (Printf.sprintf "unknown envelope tag %d" tag))

let decode buf =
  let d = Codec.decoder buf in
  let t = read_one ~nested:false d in
  Codec.expect_end d;
  t

let member_name ~daemon ~session = Printf.sprintf "#%s#%d" session daemon

let rec pp ppf = function
  | App { sender; groups; payload } ->
      Format.fprintf ppf "app(%s -> %s, %d bytes)" sender
        (String.concat "," groups) (Bytes.length payload)
  | Join { member; group } -> Format.fprintf ppf "join(%s -> %s)" member group
  | Leave { member; group } -> Format.fprintf ppf "leave(%s -> %s)" member group
  | Batch entries ->
      Format.fprintf ppf "batch(%a)"
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ") pp)
        entries
