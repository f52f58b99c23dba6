open Bgp
module Qrmodel = Asmodel.Qrmodel
module Asgraph = Topology.Asgraph

let edges_array (model : Qrmodel.t) =
  Array.of_list (Asgraph.edges model.Qrmodel.graph)

let ases_array (model : Qrmodel.t) =
  Array.of_list (Asgraph.nodes model.Qrmodel.graph)

(* Sample [k] distinct indices of [arr] by a partial Fisher-Yates
   shuffle on an index array: deterministic in the rng state and O(n)
   regardless of k. *)
let sample rng arr k =
  let n = Array.length arr in
  let k = min k n in
  let idx = Array.init n Fun.id in
  for i = 0 to k - 1 do
    let j = i + Random.State.int rng (n - i) in
    let t = idx.(i) in
    idx.(i) <- idx.(j);
    idx.(j) <- t
  done;
  List.init k (fun i -> arr.(idx.(i)))

let sort_stream events =
  List.stable_sort (fun (x : Event.t) y -> Int.compare x.ts_ms y.ts_ms) events

let flap_storm ?(sessions = 4) ?(flaps = 3) ?(period_ms = 100) model rng =
  let edges = edges_array model in
  let chosen = sample rng edges sessions in
  let half = max 1 (period_ms / 2) in
  List.concat_map
    (fun (a, b) ->
      let phase = Random.State.int rng half in
      List.concat
        (List.init flaps (fun f ->
             let t = phase + (f * period_ms) in
             [
               Event.make ~ts_ms:t (Event.Session_down { a; b });
               Event.make ~ts_ms:(t + half) (Event.Session_up { a; b });
             ])))
    chosen
  |> sort_stream

(* The two best-connected adjacent ASes (highest degree, lowest ASN on
   ties — the model's "tier-1s") de-peer: every session between them
   fails, then restores [outage_ms] later. *)
let tier1_depeering ?(outage_ms = 1000) model rng =
  let graph = model.Qrmodel.graph in
  let ranked =
    List.sort
      (fun a b ->
        match Int.compare (Asgraph.degree graph b) (Asgraph.degree graph a) with
        | 0 -> Asn.compare a b
        | c -> c)
      (Asgraph.nodes graph)
  in
  (* The best-connected AS plus its best-connected neighbor: the model's
     tier-1 peering.  The rng only jitters the failure instant. *)
  let pair =
    match ranked with
    | [] -> None
    | top :: _ ->
        List.find_opt (fun other -> Asgraph.mem_edge graph top other) ranked
        |> Option.map (fun other -> (top, other))
  in
  match pair with
  | None -> []
  | Some (a, b) ->
      let t0 = Random.State.int rng 50 in
      [
        Event.make ~ts_ms:t0 (Event.Link_fail { a; b });
        Event.make ~ts_ms:(t0 + outage_ms) (Event.Link_restore { a; b });
      ]

let hijack_events ~sub ?(victims = 1) ?(duration_ms = 500) model rng =
  let prefixes = Array.of_list model.Qrmodel.prefixes in
  let ases = ases_array model in
  if Array.length prefixes = 0 || Array.length ases < 2 then []
  else
    sample rng prefixes victims
    |> List.concat_map (fun (victim_pfx, victim_as) ->
           let rec pick_attacker () =
             let a = ases.(Random.State.int rng (Array.length ases)) in
             if a = victim_as then pick_attacker () else a
           in
           let attacker = pick_attacker () in
           let prefix =
             if sub then
               Prefix.make (Prefix.network victim_pfx)
                 (min 32 (Prefix.length victim_pfx + 1))
             else victim_pfx
           in
           let t0 = Random.State.int rng 100 in
           [
             Event.make ~ts_ms:t0 (Event.Hijack { prefix; attacker });
             Event.make ~ts_ms:(t0 + duration_ms)
               (Event.Hijack_end { prefix; attacker });
           ])
    |> sort_stream

(* Targeted sub-prefix hijack: for [victims] random model prefixes, a
   random other AS announces a one-bit-longer more-specific,
   withdrawing it [duration_ms] later. *)
let subprefix_hijack ?victims ?duration_ms model rng =
  hijack_events ~sub:true ?victims ?duration_ms model rng

(* MOAS-conflict hijack: like [subprefix_hijack] but the attacker
   announces the victim's exact prefix, splitting its catchment. *)
let moas_conflict ?victims ?duration_ms model rng =
  hijack_events ~sub:false ?victims ?duration_ms model rng

let mixed ?(events = 32) model rng =
  let edges = edges_array model in
  let prefixes = Array.of_list model.Qrmodel.prefixes in
  let ases = ases_array model in
  if Array.length edges = 0 || Array.length prefixes = 0 then []
  else begin
    let out = ref [] in
    let t = ref 0 in
    let emitted = ref 0 in
    let emit gap action =
      t := !t + 1 + Random.State.int rng gap;
      out := Event.make ~ts_ms:!t action :: !out;
      incr emitted
    in
    while !emitted < events do
      match Random.State.int rng 5 with
      | 0 ->
          let a, b = edges.(Random.State.int rng (Array.length edges)) in
          emit 40 (Event.Session_down { a; b });
          emit 40 (Event.Session_up { a; b })
      | 1 ->
          let p, o = prefixes.(Random.State.int rng (Array.length prefixes)) in
          emit 40 (Event.Withdraw { prefix = p; origin = o });
          emit 40 (Event.Announce { prefix = p; origin = o })
      | 2 ->
          let a, b = edges.(Random.State.int rng (Array.length edges)) in
          emit 40 (Event.Link_fail { a; b });
          emit 40 (Event.Link_restore { a; b })
      | 3 when Array.length ases > 1 ->
          let p, v = prefixes.(Random.State.int rng (Array.length prefixes)) in
          let rec attacker () =
            let a = ases.(Random.State.int rng (Array.length ases)) in
            if a = v then attacker () else a
          in
          let atk = attacker () in
          let sub =
            Prefix.make (Prefix.network p) (min 32 (Prefix.length p + 1))
          in
          emit 40 (Event.Hijack { prefix = sub; attacker = atk });
          emit 40 (Event.Hijack_end { prefix = sub; attacker = atk })
      | _ when Array.length ases > 1 ->
          let p, v = prefixes.(Random.State.int rng (Array.length prefixes)) in
          let rec attacker () =
            let a = ases.(Random.State.int rng (Array.length ases)) in
            if a = v then attacker () else a
          in
          let atk = attacker () in
          emit 40 (Event.Hijack { prefix = p; attacker = atk });
          emit 40 (Event.Hijack_end { prefix = p; attacker = atk })
      | _ ->
          let a, b = edges.(Random.State.int rng (Array.length edges)) in
          emit 40 (Event.Session_down { a; b });
          emit 40 (Event.Session_up { a; b })
    done;
    List.rev !out
  end

let scenario_names = [ "flap-storm"; "depeering"; "hijack"; "moas"; "mixed" ]

let of_name = function
  | "flap-storm" ->
      Some
        (fun ~events model rng ->
          flap_storm ~sessions:(max 1 (events / 6)) model rng)
  | "depeering" -> Some (fun ~events:_ model rng -> tier1_depeering model rng)
  | "hijack" ->
      Some
        (fun ~events model rng ->
          subprefix_hijack ~victims:(max 1 (events / 2)) model rng)
  | "moas" ->
      Some
        (fun ~events model rng ->
          moas_conflict ~victims:(max 1 (events / 2)) model rng)
  | "mixed" -> Some (fun ~events model rng -> mixed ~events model rng)
  | _ -> None
