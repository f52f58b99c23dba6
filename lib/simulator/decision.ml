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

(* The neighbouring AS a route was learned from; originated routes form
   their own group (RFC 4271 compares MED only between routes "received
   from the same neighboring AS"). *)
let neighbor_as (r : Rattr.t) =
  if Array.length r.Rattr.path = 0 then -1 else r.Rattr.path.(0)

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
  | Prefer_ebgp ->
      keep_min
        (fun r -> match r.Rattr.learned with From_ibgp -> 1 | Originated | From_ebgp -> 0)
        candidates
  | Igp_cost -> keep_min (fun r -> r.Rattr.igp) candidates
  | Lowest_ip -> keep_min (fun r -> r.Rattr.from_ip) candidates

let step_key step (r : Rattr.t) =
  match step with
  | Local_pref -> -r.Rattr.lpref
  | Path_length -> Array.length r.Rattr.path
  | Med -> r.Rattr.med
  | Prefer_ebgp -> (
      match r.Rattr.learned with From_ibgp -> 1 | Originated | From_ebgp -> 0)
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
        let key (r : Rattr.t) =
          match r.Rattr.learned with From_ibgp -> 1 | Originated | From_ebgp -> 0
        in
        fun a b ->
          let c = Int.compare (key a) (key b) in
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

(* In-place counterpart of [survivors] for [select_into]: keep the
   entries of [buf.(0 .. m-1)] minimizing [step_key], compacted to the
   front, order preserved.  Returns the survivor count.  [keys] is
   caller-provided scratch so each candidate's key is computed once,
   not once per pass. *)
let keep_min_into step (buf : Rattr.t array) (keys : int array) m =
  let k0 = step_key step buf.(0) in
  keys.(0) <- k0;
  let best = ref k0 in
  for i = 1 to m - 1 do
    let k = step_key step buf.(i) in
    keys.(i) <- k;
    if k < !best then best := k
  done;
  let k = ref 0 in
  for i = 0 to m - 1 do
    if keys.(i) = !best then begin
      buf.(!k) <- buf.(i);
      incr k
    end
  done;
  !k

(* In-place scoped-MED survivors.  Checking dominance against the
   already-compacted survivors plus the untouched tail is equivalent to
   checking against the full original set: domination by an eliminated
   candidate implies domination by the minimum-MED survivor of the same
   neighbour group (strictly smaller MED, same group).  [keys] caches
   each candidate's neighbour AS so the quadratic scan reads ints; the
   compacted prefix keeps its entries aligned (writes land at [!k <= i],
   and the tail scan only reads positions [> i], still original). *)
let scoped_med_into (buf : Rattr.t array) (keys : int array) m =
  for i = 0 to m - 1 do
    keys.(i) <- neighbor_as buf.(i)
  done;
  let k = ref 0 in
  for i = 0 to m - 1 do
    let r = buf.(i) in
    let na = keys.(i) in
    let med = r.Rattr.med in
    let dominated = ref false in
    for j = 0 to !k - 1 do
      if keys.(j) = na && buf.(j).Rattr.med < med then dominated := true
    done;
    for j = i + 1 to m - 1 do
      if keys.(j) = na && buf.(j).Rattr.med < med then dominated := true
    done;
    if not !dominated then begin
      buf.(!k) <- r;
      keys.(!k) <- na;
      incr k
    end
  done;
  !k

let select_into ~med_scope steps (buf : Rattr.t array) ~(keys : int array) m =
  if m = 0 then Rattr.no_route
  else begin
    let m = ref m in
    let steps = ref steps in
    while !m > 1 && match !steps with [] -> false | _ :: _ -> true do
      match !steps with
      | [] -> ()
      | step :: rest ->
          steps := rest;
          m :=
            (match (step, med_scope) with
            | Med, Same_neighbor -> scoped_med_into buf keys !m
            | _ -> keep_min_into step buf keys !m)
    done;
    buf.(0)
  end

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
