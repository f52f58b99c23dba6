open Bgp

type mismatch = {
  prefix : Prefix.t;
  path : Aspath.t;
  verdict : Matching.verdict;
  blocking_as : Asn.t option;
}

type report = {
  checked : int;
  exact : int;
  unresolved : int;
  mismatches : mismatch list;
}

let of_walk (w : Matching.walk) =
  let checked = ref 0 and exact = ref 0 and unresolved = ref 0 in
  let mismatches = ref [] in
  let miss prefix path verdict blocking_as =
    mismatches := { prefix; path; verdict; blocking_as } :: !mismatches
  in
  List.iter
    (fun (prefix, observed) ->
      List.iter
        (fun (o : Matching.observed) ->
          incr checked;
          match o.Matching.outcome with
          | Matching.Graded { Matching.verdict = Matching.Rib_out; _ } ->
              incr exact
          | Matching.Graded g ->
              miss prefix o.Matching.path g.Matching.verdict
                g.Matching.blocking_as
          | Matching.Unresolved -> incr unresolved
          | Matching.Unmodelled ->
              miss prefix o.Matching.path Matching.No_rib_in
                (Aspath.origin o.Matching.path))
        observed)
    w.Matching.prefixes;
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
  { checked = !checked; exact = !exact; unresolved = !unresolved; mismatches }

let verify model ~states data = of_walk (Matching.walk model ~states data)

let is_exact r = r.exact = r.checked

let pp ppf r =
  Format.fprintf ppf
    "verified %d distinct (prefix, path) pairs: %d exact, %d mismatches"
    r.checked r.exact
    (List.length r.mismatches);
  if r.unresolved > 0 then
    Format.fprintf ppf ", %d unresolved (no converged sim)" r.unresolved;
  Format.fprintf ppf "@.";
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
