module Asgraph = Topology.Asgraph

type summary = {
  nodes : int;
  edges : int;
  avg_degree : float;
  max_degree : int;
  degree_ccdf : (int * float) list;
  powerlaw_alpha : float;
  assortativity : float;
  clustering : float;
  rich_club : float;
  rich_club_k : int;
  coreness : (int * int) list;
  max_core : int;
  betweenness_deciles : float array;
  betweenness_samples : int;
  spectrum : float array;
}

type metric = { name : string; a : float; b : float; similarity : float }

type report = { metrics : metric list; score : float }

(* ------------------------------------------------------------------ *)
(* Dense working view: nodes 0..n-1 with int-array adjacency.  The
   battery is O(n * d^2 + samples * (n + m) + spectrum_k * iters * m),
   comfortably sub-second at the 5k-AS scale the generator reaches. *)

type view = { n : int; adj : int array array; deg : int array }

let view_of_graph g =
  let nodes = Array.of_list (Asgraph.nodes g) in
  let n = Array.length nodes in
  let idx = Hashtbl.create (max 16 n) in
  Array.iteri (fun i a -> Hashtbl.replace idx a i) nodes;
  let adj =
    Array.map
      (fun a ->
        Bgp.Asn.Set.fold
          (fun b acc -> Hashtbl.find idx b :: acc)
          (Asgraph.neighbors g a) []
        |> List.rev |> Array.of_list)
      nodes
  in
  { n; adj; deg = Array.map Array.length adj }

(* ------------------------------------------------------------------ *)
(* Individual metrics *)

let degree_ccdf_of v =
  (* (d, fraction of nodes with degree >= d) for observed degrees. *)
  if v.n = 0 then []
  else begin
    let hist = Hashtbl.create 64 in
    Array.iter
      (fun d ->
        Hashtbl.replace hist d (1 + Option.value ~default:0 (Hashtbl.find_opt hist d)))
      v.deg;
    let ds = Hashtbl.fold (fun d c acc -> (d, c) :: acc) hist [] in
    let ds = List.sort (fun (a, _) (b, _) -> Stdlib.compare b a) ds in
    (* Walk degrees descending, accumulating the >= count. *)
    let _, ccdf =
      List.fold_left
        (fun (above, acc) (d, c) ->
          let above = above + c in
          (above, (d, float_of_int above /. float_of_int v.n) :: acc))
        (0, []) ds
    in
    ccdf
  end

(* Clauset-Shalizi-Newman discrete MLE with x_min = 1:
   alpha = 1 + n / sum (ln (d / (x_min - 1/2))) over positive degrees. *)
let powerlaw_alpha_of v =
  let count = ref 0 and lsum = ref 0.0 in
  Array.iter
    (fun d ->
      if d >= 1 then begin
        incr count;
        lsum := !lsum +. log (float_of_int d /. 0.5)
      end)
    v.deg;
  if !count = 0 || !lsum <= 0.0 then 0.0
  else 1.0 +. (float_of_int !count /. !lsum)

let assortativity_of v =
  (* Pearson correlation of the degrees at the two ends of each edge
     (Newman 2002), counting each undirected edge in both directions. *)
  let m = ref 0.0 in
  let sxy = ref 0.0 and sx = ref 0.0 and sx2 = ref 0.0 in
  Array.iteri
    (fun u nbrs ->
      let du = float_of_int v.deg.(u) in
      Array.iter
        (fun w ->
          let dw = float_of_int v.deg.(w) in
          m := !m +. 1.0;
          sxy := !sxy +. (du *. dw);
          sx := !sx +. du;
          sx2 := !sx2 +. (du *. du))
        nbrs)
    v.adj;
  if !m = 0.0 then 0.0
  else
    let mean = !sx /. !m in
    let num = (!sxy /. !m) -. (mean *. mean) in
    let den = (!sx2 /. !m) -. (mean *. mean) in
    if Float.abs den < 1e-12 then 0.0 else num /. den

let clustering_of v =
  (* Average local clustering; degree-<2 nodes contribute 0. *)
  if v.n = 0 then 0.0
  else begin
    let neighbor_sets =
      Array.map
        (fun nbrs ->
          let h = Hashtbl.create (Array.length nbrs) in
          Array.iter (fun w -> Hashtbl.replace h w ()) nbrs;
          h)
        v.adj
    in
    let total = ref 0.0 in
    Array.iteri
      (fun u nbrs ->
        let d = Array.length nbrs in
        if d >= 2 then begin
          let closed = ref 0 in
          for i = 0 to d - 1 do
            for j = i + 1 to d - 1 do
              if Hashtbl.mem neighbor_sets.(nbrs.(i)) nbrs.(j) then incr closed
            done
          done;
          total :=
            !total
            +. (2.0 *. float_of_int !closed /. float_of_int (d * (d - 1)));
          ignore u
        end)
      v.adj;
    !total /. float_of_int v.n
  end

let rich_club_of v ~k =
  (* Edge density among the k highest-degree nodes (paper: the tier-1
     clique has density 1.0). *)
  let k = min k v.n in
  if k < 2 then 0.0
  else begin
    let order = Array.init v.n (fun i -> i) in
    Array.sort
      (fun a b ->
        match Stdlib.compare v.deg.(b) v.deg.(a) with
        | 0 -> Stdlib.compare a b
        | c -> c)
      order;
    let top = Hashtbl.create k in
    for i = 0 to k - 1 do
      Hashtbl.replace top order.(i) ()
    done;
    let inside = ref 0 in
    Hashtbl.iter
      (fun u () ->
        Array.iter
          (fun w -> if u < w && Hashtbl.mem top w then incr inside)
          v.adj.(u))
      top;
    2.0 *. float_of_int !inside /. float_of_int (k * (k - 1))
  end

let coreness_of v =
  (* Standard O(m) peeling (Batagelj-Zaversnik): repeatedly strip the
     minimum-degree node; its degree at removal is its coreness. *)
  if v.n = 0 then [||]
  else begin
    let deg = Array.copy v.deg in
    let core = Array.make v.n 0 in
    let removed = Array.make v.n false in
    let module Pq = Set.Make (struct
      type t = int * int

      let compare = Stdlib.compare
    end) in
    let pq = ref Pq.empty in
    Array.iteri (fun i d -> pq := Pq.add (d, i) !pq) deg;
    let current = ref 0 in
    while not (Pq.is_empty !pq) do
      let ((d, u) as e) = Pq.min_elt !pq in
      pq := Pq.remove e !pq;
      if not removed.(u) then begin
        current := max !current d;
        core.(u) <- !current;
        removed.(u) <- true;
        Array.iter
          (fun w ->
            if not removed.(w) then begin
              pq := Pq.remove (deg.(w), w) !pq;
              deg.(w) <- deg.(w) - 1;
              pq := Pq.add (deg.(w), w) !pq
            end)
          v.adj.(u)
      end
    done;
    core
  end

let coreness_hist core =
  let h = Hashtbl.create 16 in
  Array.iter
    (fun k -> Hashtbl.replace h k (1 + Option.value ~default:0 (Hashtbl.find_opt h k)))
    core;
  Hashtbl.fold (fun k c acc -> (k, c) :: acc) h [] |> List.sort Stdlib.compare

(* Brandes betweenness from a deterministic sample of BFS sources
   (every ceil(n/samples)-th node in index order), max-normalized so
   two worlds compare on the shape of the centrality distribution. *)
let betweenness_of v ~samples =
  if v.n = 0 then [||]
  else begin
    let bc = Array.make v.n 0.0 in
    let samples = max 1 (min samples v.n) in
    let step = max 1 (v.n / samples) in
    let dist = Array.make v.n (-1) in
    let sigma = Array.make v.n 0.0 in
    let delta = Array.make v.n 0.0 in
    let order = Array.make v.n 0 in
    let preds = Array.make v.n [] in
    let s = ref 0 in
    while !s < v.n do
      let src = !s in
      Array.fill dist 0 v.n (-1);
      Array.fill sigma 0 v.n 0.0;
      Array.fill delta 0 v.n 0.0;
      Array.fill preds 0 v.n [];
      dist.(src) <- 0;
      sigma.(src) <- 1.0;
      let head = ref 0 and tail = ref 0 in
      order.(!tail) <- src;
      incr tail;
      while !head < !tail do
        let u = order.(!head) in
        incr head;
        Array.iter
          (fun w ->
            if dist.(w) < 0 then begin
              dist.(w) <- dist.(u) + 1;
              order.(!tail) <- w;
              incr tail
            end;
            if dist.(w) = dist.(u) + 1 then begin
              sigma.(w) <- sigma.(w) +. sigma.(u);
              preds.(w) <- u :: preds.(w)
            end)
          v.adj.(u)
      done;
      for i = !tail - 1 downto 0 do
        let w = order.(i) in
        List.iter
          (fun u ->
            delta.(u) <-
              delta.(u) +. (sigma.(u) /. sigma.(w) *. (1.0 +. delta.(w))))
          preds.(w);
        if w <> src then bc.(w) <- bc.(w) +. delta.(w)
      done;
      s := !s + step
    done;
    let mx = Array.fold_left Float.max 0.0 bc in
    if mx > 0.0 then Array.map (fun x -> x /. mx) bc else bc
  end

let deciles values =
  let n = Array.length values in
  if n = 0 then Array.make 11 0.0
  else begin
    let sorted = Array.copy values in
    Array.sort Stdlib.compare sorted;
    Array.init 11 (fun i ->
        let pos = i * (n - 1) / 10 in
        sorted.(pos))
  end

(* Top-k adjacency eigenvalues: power iteration with Gram-Schmidt
   deflation against previously found eigenvectors.  We iterate on the
   shifted matrix A + sigma*I with sigma = 1 + max_degree: A's
   spectrum lies in [-max_degree, max_degree], so the shift makes
   every eigenvalue positive and — crucially — breaks the +/-lambda
   tie of bipartite graphs, where plain power iteration oscillates
   between the two dominant eigenvectors and its Rayleigh quotient
   converges to a meaningless mixture.  Deterministic start vectors
   (index-hash perturbation), so equal graphs yield byte-equal
   spectra. *)
let spectrum_of v ~k =
  let k = min k v.n in
  if k = 0 then [||]
  else begin
    let sigma =
      1.0 +. float_of_int (Array.fold_left (fun m d -> max m d) 0 v.deg)
    in
    let matvec x =
      let y = Array.make v.n 0.0 in
      Array.iteri
        (fun u nbrs ->
          y.(u) <- sigma *. x.(u);
          Array.iter (fun w -> y.(u) <- y.(u) +. x.(w)) nbrs)
        v.adj;
      y
    in
    let dot a b =
      let s = ref 0.0 in
      Array.iteri (fun i x -> s := !s +. (x *. b.(i))) a;
      !s
    in
    let norm a = sqrt (dot a a) in
    let found = ref [] in
    let eigs = ref [] in
    for comp = 0 to k - 1 do
      let x =
        Array.init v.n (fun i ->
            1.0 +. (float_of_int (((i * 7919) + (comp * 104729)) mod 1000) /. 1000.0))
      in
      let orthogonalize x =
        List.iter
          (fun vprev ->
            let c = dot x vprev in
            Array.iteri (fun i xv -> x.(i) <- xv -. (c *. vprev.(i))) x)
          !found
      in
      let x = ref x in
      let lambda = ref 0.0 in
      (try
         for _ = 1 to 200 do
           orthogonalize !x;
           let nx = norm !x in
           if nx < 1e-12 then raise Exit;
           Array.iteri (fun i xv -> !x.(i) <- xv /. nx) !x;
           let y = matvec !x in
           let l = dot !x y in
           let converged = Float.abs (l -. !lambda) < 1e-9 *. (1.0 +. Float.abs l) in
           lambda := l;
           x := y;
           if converged then raise Exit
         done
       with Exit -> ());
      let nx = norm !x in
      if nx > 1e-12 then begin
        Array.iteri (fun i xv -> !x.(i) <- xv /. nx) !x;
        found := !x :: !found
      end;
      eigs := (!lambda -. sigma) :: !eigs
    done;
    let arr = Array.of_list (List.rev !eigs) in
    (* Magnitude-descending order for stable cross-world comparison;
       ties (the +/-lambda pairs of bipartite graphs) break toward the
       positive eigenvalue so the order is deterministic. *)
    Array.sort
      (fun a b ->
        match Stdlib.compare (Float.abs b) (Float.abs a) with
        | 0 -> Stdlib.compare b a
        | c -> c)
      arr;
    arr
  end

(* ------------------------------------------------------------------ *)

let summarize ?(betweenness_samples = 64) ?(spectrum_k = 5) ?(rich_club_k = 10)
    g =
  let v = view_of_graph g in
  let core = coreness_of v in
  {
    nodes = v.n;
    edges = Asgraph.num_edges g;
    avg_degree =
      (if v.n = 0 then 0.0
       else float_of_int (Array.fold_left ( + ) 0 v.deg) /. float_of_int v.n);
    max_degree = Array.fold_left max 0 v.deg;
    degree_ccdf = degree_ccdf_of v;
    powerlaw_alpha = powerlaw_alpha_of v;
    assortativity = assortativity_of v;
    clustering = clustering_of v;
    rich_club = rich_club_of v ~k:rich_club_k;
    rich_club_k;
    coreness = coreness_hist core;
    max_core = Array.fold_left max 0 core;
    betweenness_deciles = deciles (betweenness_of v ~samples:betweenness_samples);
    betweenness_samples;
    spectrum = spectrum_of v ~k:spectrum_k;
  }

(* ------------------------------------------------------------------ *)
(* Similarities: every component maps to [0,1] with the property that
   comparing a summary with itself gives exactly 1.0. *)

(* Kolmogorov-Smirnov distance between two discrete distributions given
   as (value, count-or-mass) histograms. *)
let ks_distance hist_a hist_b =
  let total h = List.fold_left (fun acc (_, c) -> acc +. c) 0.0 h in
  let ta = total hist_a and tb = total hist_b in
  if ta = 0.0 && tb = 0.0 then 0.0
  else if ta = 0.0 || tb = 0.0 then 1.0
  else begin
    let support =
      List.sort_uniq Stdlib.compare
        (List.map fst hist_a @ List.map fst hist_b)
    in
    let cum h t =
      (* value -> cumulative fraction <= value *)
      let tbl = Hashtbl.create 32 in
      let acc = ref 0.0 in
      List.iter
        (fun v ->
          (match List.assoc_opt v h with
          | Some c -> acc := !acc +. c
          | None -> ());
          Hashtbl.replace tbl v (!acc /. t))
        support;
      tbl
    in
    let sorted h = List.sort Stdlib.compare h in
    let ca = cum (sorted hist_a) ta and cb = cum (sorted hist_b) tb in
    List.fold_left
      (fun acc v ->
        Float.max acc (Float.abs (Hashtbl.find ca v -. Hashtbl.find cb v)))
      0.0 support
  end

let sim_abs ?(range = 1.0) a b = Float.max 0.0 (1.0 -. (Float.abs (a -. b) /. range))

let sim_rel a b =
  let d = Float.abs (a -. b) in
  if d = 0.0 then 1.0
  else Float.max 0.0 (1.0 -. Float.min 1.0 (d /. Float.max (Float.abs a) (Float.abs b)))

let degree_hist_of_summary s =
  (* Recover (degree, mass) pairs from the stored CCDF steps. *)
  let rec go = function
    | [] -> []
    | [ (d, frac) ] -> [ (d, frac) ]
    | (d, frac) :: ((_, frac') :: _ as rest) -> (d, frac -. frac') :: go rest
  in
  go s.degree_ccdf

let spectral_similarity sa sb =
  (* Compare eigenvalue magnitudes: on (near-)bipartite worlds the
     dominant eigenvalue comes with its negative partner and power
     iteration may land on either sign, so signed comparison would
     penalize structurally identical graphs. *)
  let la = Array.length sa and lb = Array.length sb in
  let k = max la lb in
  if k = 0 then 1.0
  else begin
    let get arr i = if i < Array.length arr then Float.abs arr.(i) else 0.0 in
    let scale = Float.max 1e-9 (Float.max (get sa 0) (get sb 0)) in
    let total = ref 0.0 in
    for i = 0 to k - 1 do
      total := !total +. Float.abs (get sa i -. get sb i)
    done;
    Float.max 0.0 (1.0 -. Float.min 1.0 (!total /. float_of_int k /. scale))
  end

let deciles_similarity da db =
  let k = max (Array.length da) (Array.length db) in
  if k = 0 then 1.0
  else begin
    let get arr i = if i < Array.length arr then arr.(i) else 0.0 in
    let total = ref 0.0 in
    for i = 0 to k - 1 do
      total := !total +. Float.abs (get da i -. get db i)
    done;
    Float.max 0.0 (1.0 -. (!total /. float_of_int k))
  end

let compare a b =
  let fl (d, c) = (d, float_of_int c) in
  let metrics =
    [
      {
        name = "degree_ccdf_ks";
        a = a.avg_degree;
        b = b.avg_degree;
        similarity =
          1.0
          -. ks_distance
               (degree_hist_of_summary a |> List.map (fun (d, m) -> (d, m)))
               (degree_hist_of_summary b);
      };
      {
        name = "powerlaw_alpha";
        a = a.powerlaw_alpha;
        b = b.powerlaw_alpha;
        similarity = sim_rel a.powerlaw_alpha b.powerlaw_alpha;
      };
      {
        name = "assortativity";
        a = a.assortativity;
        b = b.assortativity;
        similarity = sim_abs ~range:2.0 a.assortativity b.assortativity;
      };
      {
        name = "clustering";
        a = a.clustering;
        b = b.clustering;
        similarity = sim_abs a.clustering b.clustering;
      };
      {
        name = "rich_club";
        a = a.rich_club;
        b = b.rich_club;
        similarity = sim_abs a.rich_club b.rich_club;
      };
      {
        name = "coreness_ks";
        a = float_of_int a.max_core;
        b = float_of_int b.max_core;
        similarity =
          1.0 -. ks_distance (List.map fl a.coreness) (List.map fl b.coreness);
      };
      {
        name = "betweenness";
        a =
          (if Array.length a.betweenness_deciles > 5 then
             a.betweenness_deciles.(5)
           else 0.0);
        b =
          (if Array.length b.betweenness_deciles > 5 then
             b.betweenness_deciles.(5)
           else 0.0);
        similarity =
          deciles_similarity a.betweenness_deciles b.betweenness_deciles;
      };
      {
        name = "spectral";
        a = (if Array.length a.spectrum > 0 then a.spectrum.(0) else 0.0);
        b = (if Array.length b.spectrum > 0 then b.spectrum.(0) else 0.0);
        similarity = spectral_similarity a.spectrum b.spectrum;
      };
    ]
  in
  let score =
    List.fold_left (fun acc m -> acc +. m.similarity) 0.0 metrics
    /. float_of_int (List.length metrics)
  in
  { metrics; score }

let pp_summary ppf s =
  Format.fprintf ppf
    "n=%d m=%d avg_deg=%.2f max_deg=%d alpha=%.2f assort=%+.3f clust=%.3f \
     rich_club(%d)=%.2f max_core=%d lambda1=%.2f"
    s.nodes s.edges s.avg_degree s.max_degree s.powerlaw_alpha s.assortativity
    s.clustering s.rich_club_k s.rich_club s.max_core
    (if Array.length s.spectrum > 0 then s.spectrum.(0) else 0.0)

let pp_report ppf r =
  Format.fprintf ppf "@[<v>%-16s %10s %10s %6s@," "metric" "A" "B" "sim";
  List.iter
    (fun m ->
      Format.fprintf ppf "%-16s %10.3f %10.3f %6.3f@," m.name m.a m.b
        m.similarity)
    r.metrics;
  Format.fprintf ppf "%-16s %21s %6.3f@]" "similarity" "" r.score
