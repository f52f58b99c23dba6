type step = Local_pref | Path_length | Med | Prefer_ebgp | Igp_cost | Lowest_ip

let step_to_string = function
  | Local_pref -> "local-pref"
  | Path_length -> "as-path length"
  | Med -> "med"
  | Prefer_ebgp -> "prefer-ebgp"
  | Igp_cost -> "igp cost"
  | Lowest_ip -> "lowest neighbor IP"

let model_steps = [ Local_pref; Path_length; Med; Lowest_ip ]

let full_steps = [ Local_pref; Path_length; Med; Prefer_ebgp; Igp_cost; Lowest_ip ]

type med_scope = Always_compare | Same_neighbor

(* Keep candidates minimizing [key]; single pass to find the minimum,
   second to filter.  Order is preserved. *)
let keep_min key candidates =
  match candidates with
  | [] | [ _ ] -> candidates
  | first :: rest ->
      let best =
        List.fold_left (fun acc r -> min acc (key r)) (key first) rest
      in
      List.filter (fun r -> key r = best) candidates

(* The neighbouring AS a route with [path] was learned from; originated
   routes form their own group (RFC 4271 compares MED only between
   routes "received from the same neighboring AS"). *)
let neighbor_of_path (path : int array) =
  if Array.length path = 0 then -1 else path.(0)

let neighbor_as (r : Rattr.t) = neighbor_of_path r.Rattr.path

(* The [Prefer_ebgp] key: iBGP-learned routes rank after the rest. *)
let learned_key (r : Rattr.t) =
  match r.Rattr.learned with From_ibgp -> 1 | Originated | From_ebgp -> 0

(* RFC 4271 §9.1.2.2 MED: a candidate survives unless another candidate
   from the same neighbouring AS has a strictly lower MED.  Candidate
   lists are small (a node's RIB-In), so the quadratic scan is fine. *)
let med_survivors_scoped candidates =
  match candidates with
  | [] | [ _ ] -> candidates
  | _ ->
      List.filter
        (fun r ->
          not
            (List.exists
               (fun r' ->
                 neighbor_as r' = neighbor_as r && r'.Rattr.med < r.Rattr.med)
               candidates))
        candidates

let survivors ?(med_scope = Always_compare) step candidates =
  match step with
  | Local_pref -> keep_min (fun r -> -r.Rattr.lpref) candidates
  | Med -> (
      match med_scope with
      | Always_compare -> keep_min (fun r -> r.Rattr.med) candidates
      | Same_neighbor -> med_survivors_scoped candidates)
  | Path_length -> keep_min (fun r -> Array.length r.Rattr.path) candidates
  | Prefer_ebgp -> keep_min learned_key candidates
  | Igp_cost -> keep_min (fun r -> r.Rattr.igp) candidates
  | Lowest_ip -> keep_min (fun r -> r.Rattr.from_ip) candidates

let step_key step (r : Rattr.t) =
  match step with
  | Local_pref -> -r.Rattr.lpref
  | Path_length -> Array.length r.Rattr.path
  | Med -> r.Rattr.med
  | Prefer_ebgp -> learned_key r
  | Igp_cost -> r.Rattr.igp
  | Lowest_ip -> r.Rattr.from_ip

let compare_routes steps a b =
  let rec go = function
    | [] -> 0
    | step :: rest ->
        let c = Stdlib.compare (step_key step a) (step_key step b) in
        if c <> 0 then c else go rest
  in
  go steps

(* One closure per step, each tail-calling the next: the step list is
   walked once here, not on every comparison.  The keys are
   [step_key]'s, compared as [compare_routes] compares them, so the
   result is [compare_routes steps a b] exactly. *)
let comparator steps =
  let link step (next : Rattr.t -> Rattr.t -> int) : Rattr.t -> Rattr.t -> int
      =
    match step with
    | Local_pref ->
        fun a b ->
          let c = Int.compare (-a.Rattr.lpref) (-b.Rattr.lpref) in
          if c <> 0 then c else next a b
    | Path_length ->
        fun a b ->
          let c =
            Int.compare (Array.length a.Rattr.path) (Array.length b.Rattr.path)
          in
          if c <> 0 then c else next a b
    | Med ->
        fun a b ->
          let c = Int.compare a.Rattr.med b.Rattr.med in
          if c <> 0 then c else next a b
    | Prefer_ebgp ->
        fun a b ->
          let c = Int.compare (learned_key a) (learned_key b) in
          if c <> 0 then c else next a b
    | Igp_cost ->
        fun a b ->
          let c = Int.compare a.Rattr.igp b.Rattr.igp in
          if c <> 0 then c else next a b
    | Lowest_ip ->
        fun a b ->
          let c = Int.compare a.Rattr.from_ip b.Rattr.from_ip in
          if c <> 0 then c else next a b
  in
  List.fold_right link steps (fun _ _ -> 0)

let select ?(med_scope = Always_compare) steps candidates =
  let rec run steps candidates =
    match (steps, candidates) with
    | _, [] -> None
    | _, [ r ] -> Some r
    | [], r :: _ -> Some r
    | step :: rest, candidates -> run rest (survivors ~med_scope step candidates)
  in
  run steps candidates

(* Where a RIB-In slot's provenance comes from; see the interface. *)
type sessions = { kinds : int array; peer : int array; ips : int array }

(* [comparator]'s chain with slot [ka]'s keys on the left and [kb]'s on
   the right: [Prefer_ebgp] reads the slot's session kind (1 = iBGP, as
   [learned_key] ranks it) and [Lowest_ip] the address of its peer. *)
let slot_comparator steps { kinds; peer; ips } =
  let link step (next : Rattr.import -> int -> Rattr.import -> int -> int) :
      Rattr.import -> int -> Rattr.import -> int -> int =
    match step with
    | Local_pref ->
        fun a ka b kb ->
          let c = Int.compare (-a.lpref) (-b.lpref) in
          if c <> 0 then c else next a ka b kb
    | Path_length ->
        fun a ka b kb ->
          let c = Int.compare (Array.length a.path) (Array.length b.path) in
          if c <> 0 then c else next a ka b kb
    | Med ->
        fun a ka b kb ->
          let c = Int.compare a.med b.med in
          if c <> 0 then c else next a ka b kb
    | Prefer_ebgp ->
        fun a ka b kb ->
          let c = Int.compare kinds.(ka) kinds.(kb) in
          if c <> 0 then c else next a ka b kb
    | Igp_cost ->
        fun a ka b kb ->
          let c = Int.compare a.igp b.igp in
          if c <> 0 then c else next a ka b kb
    | Lowest_ip ->
        fun a ka b kb ->
          let c = Int.compare ips.(peer.(ka)) ips.(peer.(kb)) in
          if c <> 0 then c else next a ka b kb
  in
  List.fold_right link steps (fun _ _ _ _ -> 0)

let slot_route_comparator steps { kinds; peer; ips } =
  let link step (next : Rattr.import -> int -> Rattr.t -> int) :
      Rattr.import -> int -> Rattr.t -> int =
    match step with
    | Local_pref ->
        fun a ka b ->
          let c = Int.compare (-a.lpref) (-b.lpref) in
          if c <> 0 then c else next a ka b
    | Path_length ->
        fun a ka b ->
          let c = Int.compare (Array.length a.path) (Array.length b.path) in
          if c <> 0 then c else next a ka b
    | Med ->
        fun a ka b ->
          let c = Int.compare a.med b.med in
          if c <> 0 then c else next a ka b
    | Prefer_ebgp ->
        fun a ka b ->
          let c = Int.compare kinds.(ka) (learned_key b) in
          if c <> 0 then c else next a ka b
    | Igp_cost ->
        fun a ka b ->
          let c = Int.compare a.igp b.igp in
          if c <> 0 then c else next a ka b
    | Lowest_ip ->
        fun a ka b ->
          let c = Int.compare ips.(peer.(ka)) b.from_ip in
          if c <> 0 then c else next a ka b
  in
  List.fold_right link steps (fun _ _ _ -> 0)

(* The import of candidate [id]: slot [id]'s, at [slots.(id + shift)],
   or the originated route's when [id] is negative. *)
let[@inline] import_at (slots : Rattr.import array) shift id =
  if id < 0 then Rattr.originated_import else slots.(id + shift)

(* In-place counterpart of [survivors] for [select_slots]: keep the
   candidates [ids.(0 .. m-1)] minimizing [step_key] of their routes (a
   negative id standing for the originated route, at address [own_ip]),
   compacted to the front, order preserved.  Returns the survivor count.
   [keys] is caller-provided scratch: one pass computes each candidate's
   key, without a call per candidate, and a second keeps the minimal
   ones.  Only ints move, so no write pays the heap's write barrier. *)
let keep_min_slots step { kinds; peer; ips } ~own_ip slots shift ids keys m =
  (match step with
  | Local_pref ->
      for i = 0 to m - 1 do
        keys.(i) <- -(import_at slots shift ids.(i)).lpref
      done
  | Path_length ->
      for i = 0 to m - 1 do
        keys.(i) <- Array.length (import_at slots shift ids.(i)).path
      done
  | Med ->
      for i = 0 to m - 1 do
        keys.(i) <- (import_at slots shift ids.(i)).med
      done
  | Prefer_ebgp ->
      for i = 0 to m - 1 do
        let id = ids.(i) in
        keys.(i) <- (if id < 0 then 0 else kinds.(id))
      done
  | Igp_cost ->
      for i = 0 to m - 1 do
        keys.(i) <- (import_at slots shift ids.(i)).igp
      done
  | Lowest_ip ->
      for i = 0 to m - 1 do
        let id = ids.(i) in
        keys.(i) <- (if id < 0 then own_ip else ips.(peer.(id)))
      done);
  let best = ref keys.(0) in
  for i = 1 to m - 1 do
    if keys.(i) < !best then best := keys.(i)
  done;
  let k = ref 0 in
  for i = 0 to m - 1 do
    if keys.(i) = !best then begin
      ids.(!k) <- ids.(i);
      incr k
    end
  done;
  !k

(* In-place scoped-MED survivors.  Checking dominance against the
   already-compacted survivors plus the untouched tail is equivalent to
   checking against the full original set: domination by an eliminated
   candidate implies domination by the minimum-MED survivor of the same
   neighbour group (strictly smaller MED, same group).  [keys] caches
   each candidate's neighbour AS so the quadratic scan compares ints
   before it reads a MED; the compacted prefix keeps its entries
   aligned (writes land at [!k <= i], and the tail scan only reads
   positions [> i], still original). *)
let scoped_med_slots slots shift ids keys m =
  for i = 0 to m - 1 do
    keys.(i) <- neighbor_of_path (import_at slots shift ids.(i)).path
  done;
  let k = ref 0 in
  for i = 0 to m - 1 do
    let id = ids.(i) in
    let na = keys.(i) in
    let med = (import_at slots shift id).med in
    let dominated = ref false in
    for j = 0 to !k - 1 do
      if keys.(j) = na && (import_at slots shift ids.(j)).med < med then
        dominated := true
    done;
    for j = i + 1 to m - 1 do
      if keys.(j) = na && (import_at slots shift ids.(j)).med < med then
        dominated := true
    done;
    if not !dominated then begin
      ids.(!k) <- id;
      keys.(!k) <- na;
      incr k
    end
  done;
  !k

let select_slots ~med_scope steps s ~own_ip slots ~shift ~ids ~keys m =
  if m <= 0 then invalid_arg "Decision.select_slots: no candidate";
  let m = ref m in
  let steps = ref steps in
  while !m > 1 && match !steps with [] -> false | _ :: _ -> true do
    match !steps with
    | [] -> ()
    | step :: rest ->
        steps := rest;
        m :=
          (match (step, med_scope) with
          | Med, Same_neighbor -> scoped_med_slots slots shift ids keys !m
          | _ -> keep_min_slots step s ~own_ip slots shift ids keys !m)
  done;
  ids.(0)

type verdict = Selected | Eliminated_at of step | Tied_not_chosen | Not_present

let classify ?(med_scope = Always_compare) steps ~target candidates =
  if not (List.exists target candidates) then Not_present
  else
    let rec run steps candidates =
      match steps with
      | [] -> (
          match candidates with
          | r :: _ when target r -> Selected
          | _ -> Tied_not_chosen)
      | step :: rest ->
          let remaining = survivors ~med_scope step candidates in
          if List.exists target remaining then run rest remaining
          else Eliminated_at step
    in
    run steps candidates
