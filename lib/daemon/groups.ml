module S = Set.Make (String)

(* Each group keeps its members twice: as a balanced set for O(log n)
   membership tests and updates, and as the sorted list {!members} hands
   out (rebuilt only when the group changes, and returned by [join] /
   [leave] anyway). *)
type group = { set : S.t; sorted : string list }
type t = (string, group) Hashtbl.t

let create () = Hashtbl.create 16

let members t group =
  match Hashtbl.find_opt t group with Some g -> g.sorted | None -> []

let group_names t = Hashtbl.fold (fun g _ acc -> g :: acc) t []

let set_of t group =
  match Hashtbl.find_opt t group with Some g -> g.set | None -> S.empty

(* Store [set] and return its sorted view. *)
let store t group set =
  if S.is_empty set then begin
    Hashtbl.remove t group;
    []
  end
  else begin
    let sorted = S.elements set in
    Hashtbl.replace t group { set; sorted };
    sorted
  end

let daemon_of_member name =
  match String.rindex_opt name '#' with
  | None -> None
  | Some i -> int_of_string_opt (String.sub name (i + 1) (String.length name - i - 1))

let valid_member_name name = Option.is_some (daemon_of_member name)

(* Malformed names are rejected at the door rather than silently vanishing
   in [prune]: the table invariant is that every stored member name parses
   with [daemon_of_member], so a configuration change can always decide
   whether the member's hosting daemon survived. *)
let join t ~group ~member =
  if not (valid_member_name member) then None
  else
    let current = set_of t group in
    if S.mem member current then None
    else Some (store t group (S.add member current))

let leave t ~group ~member =
  let current = set_of t group in
  if not (S.mem member current) then None
  else Some (store t group (S.remove member current))

let prune t ~keep =
  let changed = ref [] in
  let names = group_names t in
  List.iter
    (fun group ->
      let current = set_of t group in
      let kept =
        S.filter
          (fun m ->
            (* [join] rejects unparsable names, so the [None] branch is
               unreachable on a well-formed table; kept as defense in
               depth (an unparsable member could never be pruned by
               daemon death, so dropping it here is the safe choice). *)
            match daemon_of_member m with Some d -> keep d | None -> false)
          current
      in
      (* [S.filter] returns [current] itself when nothing was removed. *)
      if kept != current then changed := (group, store t group kept) :: !changed)
    names;
  !changed
