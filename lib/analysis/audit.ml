module Net = Simulator.Net
module Engine = Simulator.Engine
module Decision = Simulator.Decision
module Rattr = Simulator.Rattr
module Intern = Simulator.Intern
open Bgp

(* Structural auditor: cross-validate the frozen fast-path structures
   (the CSR session index, engine state slabs, intern tables) against
   the mutable ground truth they were derived from.  The CSR arrays are
   compared against the live [Net] record accessors — those read the
   node records directly, never the index, so agreement is a real
   round-trip and not the index validating itself.  Pure reads: an
   audit never mutates the net or the state. *)

(* Finding accumulator with a per-rule cap.  Audits run over every slot
   of every node; a systematically broken structure must surface as a
   bounded report, not tens of thousands of identical findings. *)

let per_rule_cap = 25

type acc = {
  mutable fs : Report.finding list;  (* newest first *)
  counts : (string, int) Hashtbl.t;
}

let acc () = { fs = []; counts = Hashtbl.create 8 }

let add a severity rule location message hint =
  let n = Option.value ~default:0 (Hashtbl.find_opt a.counts rule) in
  Hashtbl.replace a.counts rule (n + 1);
  if n < per_rule_cap then
    a.fs <- { Report.severity; rule; location; message; hint } :: a.fs

let close a =
  let extra =
    Hashtbl.fold
      (fun rule n acc ->
        if n <= per_rule_cap then acc
        else
          {
            Report.severity = Report.Error;
            rule;
            location = Report.Network;
            message =
              Printf.sprintf "%d further [%s] findings suppressed (cap %d)"
                (n - per_rule_cap) rule per_rule_cap;
            hint = "fix the reported instances first; the rest are alike";
          }
          :: acc)
      a.counts []
  in
  List.rev_append a.fs extra

let err a = add a Report.Error

let warn a = add a Report.Warn

(* -- CSR index vs live net ------------------------------------------- *)

let csr_hint =
  "the CSR index disagrees with the node records it was built from — \
   either a mutator bypassed the generation bump (see RD_CHECK=on) or \
   a caller wrote into the shared CSR arrays"

let csr net =
  let a = acc () in
  let c = Net.csr net in
  let nc = Net.node_count net in
  let sc = Net.session_count net in
  if Net.Csr.generation c <> Net.generation net then
    err a "audit-csr-generation" Report.Network
      (Printf.sprintf "CSR generation %d but net generation %d"
         (Net.Csr.generation c) (Net.generation net))
      "Net.csr must rebuild on generation mismatch; this cache is stale";
  if Net.Csr.node_count c <> nc then
    err a "audit-csr-shape" Report.Network
      (Printf.sprintf "CSR has %d nodes, net has %d" (Net.Csr.node_count c) nc)
      csr_hint;
  if Net.Csr.slot_count c <> sc then
    err a "audit-csr-shape" Report.Network
      (Printf.sprintf "CSR has %d slots, net counts %d half-sessions"
         (Net.Csr.slot_count c) sc)
      csr_hint;
  let off = Net.Csr.off c
  and peer = Net.Csr.peer c
  and rev = Net.Csr.rev c
  and rev_local = Net.Csr.reverse_local c
  and kinds = Net.Csr.kinds c
  and classes = Net.Csr.classes c
  and lprefs = Net.Csr.lprefs c
  and carries = Net.Csr.carries c
  and rrs = Net.Csr.rr_clients c
  and asns = Net.Csr.asns c
  and ips = Net.Csr.ips c
  and igps = Net.Csr.igp_costs c in
  let nodes = min nc (Net.Csr.node_count c) in
  if Array.length off <> Net.Csr.node_count c + 1 || off.(0) <> 0 then
    err a "audit-csr-offsets" Report.Network
      "offset array malformed (wrong length or off.(0) <> 0)" csr_hint;
  for n = 0 to nodes - 1 do
    let width = off.(n + 1) - off.(n) in
    if width < 0 then
      err a "audit-csr-offsets" (Report.Node n)
        (Printf.sprintf "offsets not monotone at node %d" n)
        csr_hint
    else if width <> Net.session_count_of net n then
      err a "audit-csr-offsets" (Report.Node n)
        (Printf.sprintf "node %d has %d sessions but a CSR slot range of %d" n
           (Net.session_count_of net n) width)
        csr_hint;
    if asns.(n) <> Net.asn_of net n then
      err a "audit-csr-node" (Report.Node n)
        (Printf.sprintf "node %d: CSR ASN %d, net ASN %d" n asns.(n)
           (Net.asn_of net n))
        csr_hint;
    if ips.(n) <> Ipv4.to_int (Net.ip_of net n) then
      err a "audit-csr-node" (Report.Node n)
        (Printf.sprintf "node %d: CSR address %d, net address %d" n ips.(n)
           (Ipv4.to_int (Net.ip_of net n)))
        csr_hint;
    let base = off.(n) in
    for s = 0 to min width (Net.session_count_of net n) - 1 do
      let k = base + s in
      let loc = Report.Session (n, s) in
      let slot what got want =
        if got <> want then
          err a "audit-csr-slot" loc
            (Printf.sprintf "node %d session %d: CSR %s %d, net %s %d" n s
               what got what want)
            csr_hint
      in
      slot "peer" peer.(k) (Net.session_peer net n s);
      slot "kind" kinds.(k)
        (match Net.session_kind net n s with Net.Ebgp -> 0 | Net.Ibgp -> 1);
      slot "class" classes.(k) (Net.session_class net n s);
      slot "lpref" lprefs.(k)
        (match Net.import_lpref net n s with
        | Some v -> v
        | None -> Net.Csr.no_lpref);
      slot "carry" carries.(k) (if Net.carry_lpref net n s then 1 else 0);
      slot "rr-client" rrs.(k) (if Net.rr_client net n s then 1 else 0);
      let r = Net.session_reverse net n s in
      slot "reverse-local" rev_local.(k) r;
      let p = peer.(k) in
      slot "igp-cost" igps.(k)
        (match Net.session_kind net n s with
        | Net.Ibgp when p >= 0 && p < nc -> Net.igp_cost net n p
        | Net.Ibgp | Net.Ebgp -> 0);
      if r < 0 || p < 0 || p >= Net.Csr.node_count c then begin
        if rev.(k) <> -1 then
          err a "audit-csr-rev" loc
            (Printf.sprintf
               "node %d session %d is dangling but CSR rev is %d (want -1)" n
               s rev.(k))
            csr_hint
      end
      else if rev.(k) <> off.(p) + r then
        err a "audit-csr-rev" loc
          (Printf.sprintf
             "node %d session %d: CSR rev %d, expected slot %d (= off %d + \
              reverse %d at peer %d)"
             n s rev.(k) (off.(p) + r) off.(p) r p)
          csr_hint
      else if
        rev.(k) >= 0
        && rev.(k) < Array.length rev
        && rev.(rev.(k)) <> k
      then
        err a "audit-csr-rev" loc
          (Printf.sprintf
             "node %d session %d: rev round-trip broken (rev(rev(%d)) = %d)" n
             s k
             rev.(rev.(k)))
          csr_hint
    done
  done;
  (* The export table, entry by entry, against the live matrix. *)
  let cw = Net.Csr.export_width c and table = Net.Csr.export_table c in
  let want_cw =
    let m = ref 0 in
    for n = 0 to nc - 1 do
      for s = 0 to Net.session_count_of net n - 1 do
        m := max !m (Net.session_class net n s)
      done
    done;
    !m + 2
  in
  if cw <> want_cw || Array.length table <> cw * cw then
    err a "audit-csr-export" Report.Network
      (Printf.sprintf
         "export table is %d entries of width %d; the net's classes need \
          width %d"
         (Array.length table) cw want_cw)
      csr_hint
  else
    for lc = -1 to cw - 2 do
      for tc = -1 to cw - 2 do
        let want = Net.export_matrix net ~learned_class:lc ~to_class:tc in
        if table.(((lc + 1) * cw) + tc + 1) <> want then
          err a "audit-csr-export" Report.Network
            (Printf.sprintf
               "export table says %b for learned class %d to class %d; the \
                matrix says %b"
               (not want) lc tc want)
            csr_hint
      done
    done;
  close a

(* -- engine state slab vs net and decision process ------------------- *)

let state_hint =
  "the frozen state disagrees with the net it claims to model — a \
   mutation slipped past the generation/touched bookkeeping (run under \
   RD_CHECK=on to find the unordered writer)"

(* A slot whose import attributes mirror [no_import]'s absurd values is
   almost certainly a structural copy of the sentinel — the exact bug
   the [==]-only discipline exists to prevent.  A RIB-In route carries
   its slot's import attributes unchanged. *)
let sentinel_clone (r : Rattr.t) =
  r.lpref = min_int && r.med = min_int && r.igp = min_int

let path_mem path asn = Array.exists (fun x -> x = asn) path

let pp_path path =
  if Array.length path = 0 then "<empty>"
  else
    String.concat " " (Array.to_list (Array.map string_of_int path))

let state net st =
  let a = acc () in
  let pfx = Engine.prefix st in
  if Engine.generation st <> Net.generation net then begin
    warn a "audit-stale-state" (Report.Prefix_loc pfx)
      (Printf.sprintf
         "state for %s was computed at generation %d; net is at %d — \
          skipping the structural audit"
         (Format.asprintf "%a" Prefix.pp pfx)
         (Engine.generation st) (Net.generation net))
      "re-simulate (or warm-resume) before auditing";
    close a
  end
  else begin
    let policy_stale = Net.touched_nodes net pfx <> [] in
    if policy_stale then
      warn a "audit-stale-policy" (Report.Prefix_loc pfx)
        (Printf.sprintf
           "per-prefix policy for %s changed since this state converged — \
            policy-dependent checks skipped"
           (Format.asprintf "%a" Prefix.pp pfx))
        "re-simulate before auditing, or clear the touched set";
    let converged = Engine.converged st && not policy_stale in
    let nc = Net.node_count net in
    for n = 0 to nc - 1 do
      (* Slab shape: every live slot must describe a route genuinely
         received over that session, whatever the policies say. *)
      List.iter
        (fun (s, r) ->
          let loc = Report.Session_prefix (n, s, pfx) in
          if sentinel_clone r then
            err a "audit-sentinel-clone" loc
              (Printf.sprintf
                 "node %d session %d holds a structural copy of \
                  Rattr.no_import that is not the sentinel"
                 n s)
              "never rebuild no_import field-by-field; reuse the sentinel \
               so [==] identifies it"
          else if s < 0 || s >= Net.session_count_of net n then
            err a "audit-slab-session" (Report.Node_prefix (n, pfx))
              (Printf.sprintf "node %d RIB-In names session %d out of range"
                 n s)
              state_hint
          else begin
            if r.Rattr.from_session <> s then
              err a "audit-slab-session" loc
                (Printf.sprintf
                   "node %d session %d: route says from_session %d" n s
                   r.Rattr.from_session)
                state_hint;
            let u = Net.session_peer net n s in
            if r.Rattr.from_node <> u then
              err a "audit-slab-session" loc
                (Printf.sprintf
                   "node %d session %d: route says from_node %d, session \
                    peers %d"
                   n s r.Rattr.from_node u)
                state_hint
            else begin
              if r.Rattr.from_ip <> Ipv4.to_int (Net.ip_of net u) then
                err a "audit-slab-session" loc
                  (Printf.sprintf
                     "node %d session %d: announcing address %d but peer %d \
                      has address %d"
                     n s r.Rattr.from_ip u
                     (Ipv4.to_int (Net.ip_of net u)))
                  state_hint;
              let kind = Net.session_kind net n s in
              (match (kind, r.Rattr.learned) with
              | Net.Ebgp, Rattr.From_ebgp | Net.Ibgp, Rattr.From_ibgp -> ()
              | _ ->
                  err a "audit-slab-learned" loc
                    (Printf.sprintf
                       "node %d session %d: learned tag does not match the \
                        session kind"
                       n s)
                    state_hint);
              if r.Rattr.learned_class <> Net.session_class net n s then
                err a "audit-slab-learned" loc
                  (Printf.sprintf
                     "node %d session %d: learned_class %d, session class %d"
                     n s r.Rattr.learned_class (Net.session_class net n s))
                  state_hint;
              (match kind with
              | Net.Ebgp ->
                  if Array.length r.Rattr.path = 0 then
                    err a "audit-slab-path" loc
                      (Printf.sprintf
                         "node %d session %d: eBGP-learned route with an \
                          empty AS-path"
                         n s)
                      state_hint
                  else if r.Rattr.path.(0) <> Net.asn_of net u then
                    err a "audit-slab-path" loc
                      (Printf.sprintf
                         "node %d session %d: path starts with AS %d but \
                          the announcing peer is AS %d"
                         n s r.Rattr.path.(0) (Net.asn_of net u))
                      state_hint;
                  if path_mem r.Rattr.path (Net.asn_of net n) then
                    err a "audit-slab-path" loc
                      (Printf.sprintf
                         "node %d session %d: own AS %d appears in the \
                          received path %s (loop-check bypassed)"
                         n s (Net.asn_of net n)
                         (pp_path r.Rattr.path))
                      state_hint;
                  if r.Rattr.igp <> 0 then
                    err a "audit-slab-path" loc
                      (Printf.sprintf
                         "node %d session %d: eBGP-learned route carries \
                          IGP cost %d (want 0)"
                         n s r.Rattr.igp)
                      state_hint
              | Net.Ibgp -> ());
              (* Exporter consistency: at convergence a live slot must
                 be exactly what the peer's current best route exports
                 over this session under the live policies. *)
              if converged then begin
                let su = Net.session_reverse net n s in
                match Engine.best st u with
                | None ->
                    err a "audit-slab-export" loc
                      (Printf.sprintf
                         "node %d holds a route from %d, but %d selects no \
                          best route"
                         n u u)
                      state_hint
                | Some b ->
                    if b.Rattr.from_node = n then
                      err a "audit-slab-export" loc
                        (Printf.sprintf
                           "node %d holds a route from %d whose best came \
                            from %d itself (split horizon bypassed)"
                           n u n)
                        state_hint;
                    if su >= 0 && Net.export_denied net u su pfx then
                      err a "audit-slab-export" loc
                        (Printf.sprintf
                           "node %d holds a route from %d over a session \
                            whose export of %s is denied"
                           n u
                           (Format.asprintf "%a" Prefix.pp pfx))
                        state_hint;
                    let want_path =
                      match kind with
                      | Net.Ibgp -> b.Rattr.path
                      | Net.Ebgp ->
                          Array.append [| Net.asn_of net u |] b.Rattr.path
                    in
                    if not (Rattr.same_path r.Rattr.path want_path) then
                      err a "audit-slab-export" loc
                        (Printf.sprintf
                           "node %d session %d: stored path %s, but peer \
                            %d's best exports %s"
                           n s (pp_path r.Rattr.path) u (pp_path want_path))
                        state_hint;
                    (match kind with
                    | Net.Ibgp ->
                        if
                          r.Rattr.lpref <> b.Rattr.lpref
                          || r.Rattr.med <> b.Rattr.med
                        then
                          err a "audit-slab-export" loc
                            (Printf.sprintf
                               "node %d session %d: iBGP attributes \
                                (lpref %d, med %d) differ from the \
                                exporter's (lpref %d, med %d)"
                               n s r.Rattr.lpref r.Rattr.med b.Rattr.lpref
                               b.Rattr.med)
                            state_hint
                    | Net.Ebgp ->
                        let want_lpref =
                          match Net.import_lpref_for net n s pfx with
                          | Some v -> v
                          | None ->
                              if Net.carry_lpref net n s then b.Rattr.lpref
                              else
                                Option.value ~default:100
                                  (Net.import_lpref net n s)
                        in
                        let want_med =
                          Option.value
                            ~default:(Net.default_med net)
                            (Net.import_med net n s pfx)
                        in
                        if r.Rattr.lpref <> want_lpref then
                          err a "audit-slab-export" loc
                            (Printf.sprintf
                               "node %d session %d: import LOCAL_PREF %d, \
                                policy derives %d"
                               n s r.Rattr.lpref want_lpref)
                            state_hint;
                        if r.Rattr.med <> want_med then
                          err a "audit-slab-export" loc
                            (Printf.sprintf
                               "node %d session %d: import MED %d, policy \
                                derives %d"
                               n s r.Rattr.med want_med)
                            state_hint)
              end
            end
          end)
        (Engine.rib_in st n);
      (* Best-route consistency: the engine's incremental selection
         must agree with the reference decision process over the
         node's current candidates. *)
      if converged then begin
        let want =
          Decision.select
            ~med_scope:(Net.med_scope net)
            (Net.decision_steps net)
            (Engine.candidates st net n)
        in
        if not (Rattr.same_advertisement (Engine.best st n) want) then
          err a "audit-best" (Report.Node_prefix (n, pfx))
            (Printf.sprintf
               "node %d: the engine's best route differs from \
                Decision.select over its own candidates"
               n)
            "the incremental best-route maintenance diverged from the \
             reference elimination — compare Engine.best at this node \
             with Decision.select over Engine.candidates"
      end
    done;
    close a
  end

(* -- intern-table integrity ------------------------------------------ *)

let intern_integrity net =
  let a = acc () in
  let hint =
    "Intern must return the memoized array for a structurally equal \
     prepend within a domain and scope, and never leak another \
     domain's table"
  in
  let sample = [| 64500; 64496; 65001 |] in
  let scope = Intern.scope () in
  let t = Intern.tables scope in
  let q1 = Intern.prepend t ~own_as:64499 sample in
  let q2 = Intern.prepend t ~own_as:64499 (Array.copy sample) in
  if q1 != q2 then
    err a "audit-intern-share" Report.Network
      "prepending the same AS to equal paths twice returned distinct \
       arrays"
      hint;
  if q1 <> Array.append [| 64499 |] sample then
    err a "audit-intern-share" Report.Network
      "prepend did not place the AS at the head of the path" hint;
  if Intern.path_hash q1 <> Intern.path_hash (Array.copy q1) then
    err a "audit-intern-share" Report.Network
      "path_hash differs between a memoized path and its copy" hint;
  (* DLS isolation: another domain must prepend into its own table for
     the same scope — this domain's array must not be handed across. *)
  let foreign =
    Domain.join
      (Domain.spawn (fun () ->
           Intern.prepend (Intern.tables scope) ~own_as:64499 sample))
  in
  if foreign == q1 then
    err a "audit-intern-domain" Report.Network
      "a fresh domain's prepend memo returned the parent domain's array \
       (DLS table crossed domains)"
      hint
  else if foreign <> q1 then
    err a "audit-intern-domain" Report.Network
      "a fresh domain prepended the same path to different contents" hint;
  let size = Intern.size (Intern.tables (Net.intern_scope net)) in
  if size > Intern.table_cap then
    err a "audit-intern-cap" Report.Network
      (Printf.sprintf
         "the net's prepend memo holds %d entries, over its cap (%d)" size
         Intern.table_cap)
      "the table_cap admission check is being bypassed";
  close a

(* -- aggregates ------------------------------------------------------ *)

let net n = csr n

let model (m : Asmodel.Qrmodel.t) = csr m.Asmodel.Qrmodel.net
