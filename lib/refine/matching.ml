open Bgp
module Net = Simulator.Net
module Engine = Simulator.Engine
module Decision = Simulator.Decision

type verdict = Rib_out | Potential_rib_out | Rib_in | No_rib_in

let verdict_to_string = function
  | Rib_out -> "RIB-Out match"
  | Potential_rib_out -> "potential RIB-Out match"
  | Rib_in -> "RIB-In match"
  | No_rib_in -> "no RIB-In match"

let verdict_rank = function
  | Rib_out -> 0
  | Potential_rib_out -> 1
  | Rib_in -> 2
  | No_rib_in -> 3

let nodes_selecting net st asn tail =
  List.filter
    (fun n ->
      match Engine.best st n with
      | Some r -> Simulator.Rattr.same_path r.Simulator.Rattr.path tail
      | None -> false)
    (Net.nodes_of_as net asn)

(* Compare a best path against the suffix [arr.(off) ..] in place: the
   suffix walk of [Verify.blocking_as] probes every position of a path,
   and slicing the tail out per position would cost O(n²) allocation. *)
let path_matches_at (p : int array) arr ~off =
  let n = Array.length arr - off in
  Array.length p = n
  &&
  let rec go i = i >= n || (p.(i) = arr.(off + i) && go (i + 1)) in
  go 0

let nodes_selecting_at net st asn arr ~tail_at =
  List.filter
    (fun n ->
      match Engine.best st n with
      | Some r -> path_matches_at r.Simulator.Rattr.path arr ~off:tail_at
      | None -> false)
    (Net.nodes_of_as net asn)

let nodes_receiving net st asn tail =
  List.filter_map
    (fun n ->
      let sessions =
        List.filter_map
          (fun (s, r) ->
            if Simulator.Rattr.same_path r.Simulator.Rattr.path tail then Some s
            else None)
          (Engine.rib_in st n)
      in
      (* The originated route counts as "received" only through RIB-In
         semantics when some session carries it; origination itself is
         handled by the callers via empty tails. *)
      if sessions = [] then None else Some (n, sessions))
    (Net.nodes_of_as net asn)

let best_elimination net st asn tail =
  let steps = Net.decision_steps net in
  let med_scope = Net.med_scope net in
  (* Step positions (later = closer to selection, hence a better grade
     for the observed route) and the final step are fixed for the whole
     fold: compute them once instead of rescanning the step list for
     every candidate node. *)
  let positions = List.mapi (fun i s -> (s, i)) steps in
  let position s =
    match List.assoc_opt s positions with Some i -> i | None -> -1
  in
  let last_pos = List.length steps - 1 in
  let last_step = lazy (List.nth steps last_pos) in
  let target (r : Simulator.Rattr.t) =
    Simulator.Rattr.same_path r.Simulator.Rattr.path tail
  in
  List.fold_left
    (fun acc n ->
      (* Most nodes never held the observed route at all: screen with
         the allocation-free candidate fold and only materialize the
         candidate list for the nodes classify has to grade. *)
      let present =
        Engine.fold_candidates st net n ~init:false ~f:(fun acc r ->
            acc || target r)
      in
      let verdict =
        if not present then Decision.Not_present
        else
          Decision.classify ~med_scope steps ~target
            (Engine.candidates st net n)
      in
      match (verdict, acc) with
      | Decision.Selected, _ -> `Selected
      | _, `Selected -> `Selected
      | Decision.Eliminated_at step, `Eliminated best ->
          if position step > position best then `Eliminated step
          else `Eliminated best
      | Decision.Eliminated_at step, `None -> `Eliminated step
      | Decision.Tied_not_chosen, `Eliminated best ->
          (* Losing an in-order tie is as close as losing the last
             step. *)
          if position best < last_pos then `Eliminated (Lazy.force last_step)
          else `Eliminated best
      | Decision.Tied_not_chosen, `None -> `Eliminated (Lazy.force last_step)
      | Decision.Not_present, acc -> acc)
    `None (Net.nodes_of_as net asn)

let classify net st path =
  let arr = Aspath.to_array path in
  match Array.length arr with
  | 0 -> No_rib_in
  | 1 ->
      (* The observing AS originates the prefix: matched by
         definition. *)
      if nodes_selecting net st arr.(0) [||] <> [] then Rib_out else No_rib_in
  | _ -> (
      let asn = arr.(0) in
      let tail = Array.sub arr 1 (Array.length arr - 1) in
      if nodes_selecting net st asn tail <> [] then Rib_out
      else
        match best_elimination net st asn tail with
        | `Selected -> Rib_out
        | `Eliminated Decision.Lowest_ip -> Potential_rib_out
        | `Eliminated _ -> Rib_in
        | `None -> No_rib_in)

let eliminated_at net st path =
  let arr = Aspath.to_array path in
  if Array.length arr < 2 then None
  else
    let asn = arr.(0) in
    let tail = Array.sub arr 1 (Array.length arr - 1) in
    match best_elimination net st asn tail with
    | `Eliminated step -> Some step
    | `Selected | `None -> None
