open Bgp
module Net = Simulator.Net
module Engine = Simulator.Engine
module Intern = Simulator.Intern
module Qrmodel = Asmodel.Qrmodel

type mismatch = {
  prefix : Prefix.t;
  path : Aspath.t;
  verdict : Matching.verdict;
  blocking_as : Asn.t option;
}

type report = { checked : int; exact : int; mismatches : mismatch list }

(* The AS closest to the origin whose suffix of [path] is selected by no
   quasi-router: walking from the origin, the first place the model
   diverges from the observation.  The walk probes every suffix of one
   array, so it matches in place instead of slicing a tail per step. *)
let blocking_as net st path =
  let arr = Aspath.to_array path in
  let rec walk i =
    if i < 0 then None
    else if Matching.nodes_selecting_at net st arr.(i) arr ~tail_at:(i + 1) = []
    then Some arr.(i)
    else walk (i - 1)
  in
  walk (Array.length arr - 2)

(* Dedup of observed (prefix, path) pairs.  Paths compare structurally
   and hash with [Intern.path_hash], a full-width fold over the whole
   path ([Hashtbl.hash] would truncate a long one). *)
module Seen = Hashtbl.Make (struct
  type t = Prefix.t * int array

  let equal (p1, a1) (p2, a2) =
    Simulator.Rattr.same_path a1 a2 && Prefix.equal p1 p2

  let hash (p, a) = (Prefix.hash p * 65599) lxor Intern.path_hash a
end)

let verify model ~states data =
  let net = model.Qrmodel.net in
  let state_of p =
    match Hashtbl.find_opt states p with
    | Some st -> Some st
    | None -> (
        match Qrmodel.origin_of model p with
        | None -> None
        | Some _ ->
            let st = Qrmodel.simulate model p in
            Hashtbl.replace states p st;
            Some st)
  in
  let checked = ref 0 and exact = ref 0 in
  let mismatches = ref [] in
  let seen = Seen.create 1024 in
  List.iter
    (fun (e : Rib.entry) ->
      let key = (e.Rib.prefix, (e.Rib.path :> int array)) in
      if not (Seen.mem seen key) then begin
        Seen.add seen key ();
        match state_of e.Rib.prefix with
        | None ->
            incr checked;
            mismatches :=
              {
                prefix = e.Rib.prefix;
                path = e.Rib.path;
                verdict = Matching.No_rib_in;
                blocking_as = Aspath.origin e.Rib.path;
              }
              :: !mismatches
        | Some st -> (
            incr checked;
            match Matching.classify net st e.Rib.path with
            | Matching.Rib_out -> incr exact
            | verdict ->
                mismatches :=
                  {
                    prefix = e.Rib.prefix;
                    path = e.Rib.path;
                    verdict;
                    blocking_as = blocking_as net st e.Rib.path;
                  }
                  :: !mismatches)
      end)
    (Rib.entries data);
  let mismatches =
    List.sort
      (fun a b ->
        let c =
          Stdlib.compare
            (Matching.verdict_rank b.verdict)
            (Matching.verdict_rank a.verdict)
        in
        if c <> 0 then c else Prefix.compare a.prefix b.prefix)
      !mismatches
  in
  { checked = !checked; exact = !exact; mismatches }

let is_exact r = r.exact = r.checked

let pp ppf r =
  Format.fprintf ppf "verified %d distinct (prefix, path) pairs: %d exact, %d mismatches@."
    r.checked r.exact
    (List.length r.mismatches);
  List.iteri
    (fun i m ->
      if i < 20 then
        Format.fprintf ppf "  %a %a: %s%s@." Prefix.pp m.prefix Aspath.pp
          m.path
          (Matching.verdict_to_string m.verdict)
          (match m.blocking_as with
          | Some a -> Printf.sprintf " (diverges at AS%d)" a
          | None -> ""))
    r.mismatches;
  if List.length r.mismatches > 20 then
    Format.fprintf ppf "  ... (%d more)@." (List.length r.mismatches - 20)
