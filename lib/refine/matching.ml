open Bgp
module Net = Simulator.Net
module Qrmodel = Asmodel.Qrmodel
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

(* Does [n]'s best route have path [tail]?  Read without boxing the
   best route in an option, as the suffix walks call this per node. *)
let selects st tail n =
  let r = Engine.best_route st n in
  Simulator.Rattr.is_route r && Simulator.Rattr.same_path r.path tail

let nodes_selecting net st asn tail =
  List.filter (selects st tail) (Net.nodes_of_as net asn)

(* Compare a best path against the suffix [arr.(off) ..] in place: the
   suffix walk of [blocking_as] probes every position of a path,
   and slicing the tail out per position would cost O(n²) allocation. *)
let path_matches_at (p : int array) (arr : int array) ~off =
  let n = Array.length arr - off in
  Array.length p = n
  &&
  let i = ref 0 in
  while !i < n && p.(!i) = arr.(off + !i) do
    incr i
  done;
  !i = n

let rec selects_in st arr ~tail_at = function
  | [] -> false
  | n :: rest ->
      let r = Engine.best_route st n in
      (Simulator.Rattr.is_route r && path_matches_at r.path arr ~off:tail_at)
      || selects_in st arr ~tail_at rest

let selects_at net st asn arr ~tail_at =
  selects_in st arr ~tail_at (Net.nodes_of_as net asn)

(* The sessions of [n]'s RIB-In whose route has path [tail], read from
   the slots' paths without building the routes. *)
let sessions_carrying st n tail =
  let sessions = ref [] in
  Engine.iter_rib_in_paths st n (fun s path ->
      if Simulator.Rattr.same_path path tail then sessions := s :: !sessions);
  List.rev !sessions

let nodes_receiving net st asn tail =
  List.filter_map
    (fun n ->
      (* The originated route counts as "received" only through RIB-In
         semantics when some session carries it; origination itself is
         handled by the callers via empty tails. *)
      match sessions_carrying st n tail with
      | [] -> None
      | sessions -> Some (n, sessions))
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
      (* Most nodes never held the observed route at all: screen on the
         candidates' paths alone (the originated route's is empty) and
         only build the candidate list for the nodes classify has to
         grade. *)
      let present =
        sessions_carrying st n tail <> []
        || (Array.length tail = 0 && List.mem n (Engine.originating st))
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

(* The AS closest to the origin whose suffix of [arr] is selected by no
   quasi-router: walking from the origin, the first place the model
   diverges from the observation.  The walk probes every suffix of one
   array, so it matches in place instead of slicing a tail per step. *)
let blocking_as net st arr =
  let rec walk i =
    if i < 0 then None
    else if not (selects_at net st arr.(i) arr ~tail_at:(i + 1)) then
      Some arr.(i)
    else walk (i - 1)
  in
  walk (Array.length arr - 2)

type grade = {
  verdict : verdict;
  eliminated_at : Decision.step option;
  blocking_as : Asn.t option;
}

let matched = { verdict = Rib_out; eliminated_at = None; blocking_as = None }

let grade net st (path : Aspath.t) =
  let arr = (path :> int array) in
  let missed verdict eliminated_at =
    { verdict; eliminated_at; blocking_as = blocking_as net st arr }
  in
  let n = Array.length arr in
  (* A single-hop path is matched when the observing AS selects its
     own originated route. *)
  if n = 0 then missed No_rib_in None
  else if selects_at net st arr.(0) arr ~tail_at:1 then matched
  else if n = 1 then missed No_rib_in None
  else
    match best_elimination net st arr.(0) (Array.sub arr 1 (n - 1)) with
    | `Selected -> matched
    | `Eliminated Decision.Lowest_ip ->
        missed Potential_rib_out (Some Decision.Lowest_ip)
    | `Eliminated step -> missed Rib_in (Some step)
    | `None -> missed No_rib_in None

(* -- the grading walk -- *)

type outcome = Graded of grade | Unresolved | Unmodelled

type observed = { path : Aspath.t; entries : int; outcome : outcome }

type walk = {
  prefixes : (Prefix.t * observed list) list;
  pool : Simulator.Pool.stats;
}

(* Each prefix's distinct paths, each with the number of entries that
   carry it, in reverse order of their first entry. *)
let distinct data =
  let counts = Hashtbl.create 256 and groups = Hashtbl.create 64 in
  List.iter
    (fun (e : Rib.entry) ->
      let key = (e.Rib.prefix, e.Rib.path) in
      match Hashtbl.find_opt counts key with
      | Some n -> incr n
      | None ->
          let n = ref 1 in
          Hashtbl.add counts key n;
          let firsts = Hashtbl.find_opt groups e.Rib.prefix in
          Hashtbl.replace groups e.Rib.prefix
            ((e.Rib.path, n) :: Option.value ~default:[] firsts))
    (Rib.entries data);
  groups

let walk model ~states data =
  let net = model.Qrmodel.net in
  let groups = distinct data in
  (* The prefix's paths in the order of their first entry. *)
  let observe p outcome =
    List.rev_map
      (fun (path, n) -> { path; entries = !n; outcome = outcome path })
      (Hashtbl.find groups p)
  in
  (* A truncated or diverged state answers nothing about a path: grading
     against its partial RIBs would report false mismatches. *)
  let grade_in p st =
    if Engine.converged st then
      observe p (fun path -> Graded (grade net st path))
    else observe p (fun _ -> Unresolved)
  in
  let prefixes =
    List.sort Prefix.compare (Hashtbl.fold (fun p _ acc -> p :: acc) groups [])
  in
  let missing =
    List.filter
      (fun p ->
        (not (Hashtbl.mem states p)) && Qrmodel.origin_of model p <> None)
      prefixes
  in
  (* Runs in pool worker domains, which only read [groups]: the task
     grades its prefix inside the scoped run, so no state outlives it. *)
  let sim p =
    Engine.with_cold net ~prefix:p ~originators:(Qrmodel.originators model p)
      (fun st -> (grade_in p st, (Engine.outcome st, Engine.events st)))
  in
  let results, pool = Simulator.Pool.simulate_result ~sim ~run:snd missing in
  let scoped = Hashtbl.of_seq (List.to_seq results) in
  let graded p =
    match (Hashtbl.find_opt states p, Hashtbl.find_opt scoped p) with
    | Some st, _ -> grade_in p st
    | None, Some (Ok (observed, _)) -> observed
    | None, Some (Error _) -> observe p (fun _ -> Unresolved)
    | None, None -> observe p (fun _ -> Unmodelled)
  in
  { prefixes = List.map (fun p -> (p, graded p)) prefixes; pool }
