type t = {
  env : Pktset.t;
  atoms : Bdd.t array;
  (* per (from, to, index in out_edges) the atom bitset of its predicate *)
  edge_atoms : (int * int * int, Bytes.t) Hashtbl.t;
}

type refusal = Transformation_edges | Atom_cap of int

exception Refused of refusal

let refusal_to_string = function
  | Transformation_edges -> "the forwarding graph has transformation (NAT) edges"
  | Atom_cap n -> Printf.sprintf "refinement exceeded the cap of %d atoms" n

let rec filter_of g fn =
  let man = Pktset.man g.Fgraph.env in
  match fn with
  | Fgraph.Filter f -> f
  | Fgraph.Seq fns -> List.fold_left (fun acc fn -> Bdd.band man acc (filter_of g fn)) Bdd.top fns
  | Fgraph.Set_extra _ | Fgraph.Erase_extra _ ->
    Bdd.top (* extra bits are outside the APT header space *)
  | Fgraph.Transform _ -> raise (Refused Transformation_edges)

let bitset_empty n = Bytes.make ((n + 7) / 8) '\000'

let bitset_set b i =
  Bytes.set b (i / 8) (Char.chr (Char.code (Bytes.get b (i / 8)) lor (1 lsl (i mod 8))))

let bitset_mem b i = Char.code (Bytes.get b (i / 8)) land (1 lsl (i mod 8)) <> 0

(* The first [Some] that [f] returns over the members of [b], in order. *)
let bitset_find_map b f =
  let rec go i =
    if i >= 8 * Bytes.length b then None
    else if i land 7 = 0 && Bytes.get b (i / 8) = '\000' then go (i + 8)
    else if bitset_mem b i then match f i with None -> go (i + 1) | r -> r
    else go (i + 1)
  in
  go 0

let bitset_union a b =
  let out = Bytes.copy a in
  for i = 0 to Bytes.length a - 1 do
    Bytes.set out i (Char.chr (Char.code (Bytes.get a i) lor Char.code (Bytes.get b i)))
  done;
  out

let bitset_inter a b =
  let out = Bytes.copy a in
  for i = 0 to Bytes.length a - 1 do
    Bytes.set out i (Char.chr (Char.code (Bytes.get a i) land Char.code (Bytes.get b i)))
  done;
  out

let bitset_equal = Bytes.equal

type relation = Disjoint | Inside | Overlaps

(* Refinement, one predicate at a time, over atoms labelled with the set of
   predicates already refined that contain them (a child inherits its
   parent's label when an atom splits). Against predicate [p_j] an atom is
   settled from its label when some [p_k] holding it is disjoint from or
   inside [p_j] (a lazily memoized predicate-pair relation), and otherwise
   by the non-allocating [Bdd.intersects]/[Bdd.leq]; [band]/[bdiff] run
   only on atoms that really split. On a pair that does not split they
   would have returned the atom, its cofactors or ⊥, so the manager
   creates exactly the nodes, in exactly the order, of the plain
   every-atom-against-every-predicate refinement. Each predicate's atom
   set is then read off the labels. *)
let build_capped ~max_atoms g =
  let env = g.Fgraph.env in
  let man = Pktset.man env in
  (* all distinct predicates, numbered in table order *)
  let predicates = Hashtbl.create 64 in
  Array.iter
    (fun edges ->
      List.iter
        (fun (e : Fgraph.edge) -> Hashtbl.replace predicates (filter_of g e.e_fn) ())
        edges)
    g.Fgraph.out_edges;
  let preds =
    Array.of_list (List.rev (Hashtbl.fold (fun p () acc -> p :: acc) predicates []))
  in
  let relation a b =
    if not (Bdd.intersects man a b) then Disjoint
    else if Bdd.leq man a b then Inside
    else Overlaps
  in
  let pair_relations = Hashtbl.create 256 in
  let pair_relation k j =
    match Hashtbl.find_opt pair_relations (k, j) with
    | Some r -> r
    | None ->
      let r = relation preds.(k) preds.(j) in
      Hashtbl.add pair_relations (k, j) r;
      r
  in
  let atoms = ref [ (Bdd.top, bitset_empty (Array.length preds)) ] in
  let count = ref 1 in
  Array.iteri
    (fun j p ->
      (* a ⊤ or ⊥ predicate settles every atom without a split *)
      atoms :=
        List.concat_map
          (fun ((a, label) as atom) ->
            let settled =
              bitset_find_map label (fun k ->
                  match pair_relation k j with Overlaps -> None | r -> Some r)
            in
            match (match settled with Some r -> r | None -> relation a p) with
            | Disjoint -> [ atom ]
            | Inside ->
              bitset_set label j;
              [ atom ]
            | Overlaps ->
              let inside = Bdd.band man a p in
              let outside = Bdd.bdiff man a p in
              let label_in = Bytes.copy label in
              bitset_set label_in j;
              incr count;
              [ (inside, label_in); (outside, label) ])
          !atoms;
      (* refinement at worst doubles per predicate; bail out before the
         partition becomes more expensive than what it is meant to save *)
      if !count > max_atoms then raise (Refused (Atom_cap max_atoms)))
    preds;
  let labels = Array.of_list (List.map snd !atoms) in
  let atoms = Array.of_list (List.map fst !atoms) in
  let n = Array.length atoms in
  (* each predicate's atom set, read off the labels *)
  let pred_sets = Hashtbl.create 64 in
  Array.iteri
    (fun j p ->
      let b = bitset_empty n in
      Array.iteri (fun i label -> if bitset_mem label j then bitset_set b i) labels;
      Hashtbl.add pred_sets p b)
    preds;
  let edge_atoms = Hashtbl.create 256 in
  Array.iteri
    (fun v edges ->
      List.iteri
        (fun k (e : Fgraph.edge) ->
          Hashtbl.replace edge_atoms (v, e.e_to, k) (Hashtbl.find pred_sets (filter_of g e.e_fn)))
        edges)
    g.Fgraph.out_edges;
  { env; atoms; edge_atoms }

let build g = build_capped ~max_atoms:max_int g

let try_build ?(max_atoms = 4096) g =
  match build_capped ~max_atoms g with
  | t -> Ok t
  | exception Refused why -> Error why

let atom_count t = Array.length t.atoms

let fold_edge_atoms t f init =
  Hashtbl.fold (fun key bits acc -> f key bits acc) t.edge_atoms init

let atoms_to_bdd t b =
  let man = Pktset.man t.env in
  let acc = ref Bdd.bot in
  Array.iteri (fun i a -> if bitset_mem b i then acc := Bdd.bor man !acc a) t.atoms;
  !acc

let reach t g ~src ~targets =
  let n = Fgraph.n_locs g in
  let atoms_n = Array.length t.atoms in
  let full = bitset_empty atoms_n in
  for i = 0 to atoms_n - 1 do
    bitset_set full i
  done;
  let sets = Array.make n (bitset_empty atoms_n) in
  let queue = Queue.create () in
  let queued = Array.make n false in
  let enqueue v =
    if not queued.(v) then begin
      queued.(v) <- true;
      Queue.add v queue
    end
  in
  List.iter
    (fun v ->
      sets.(v) <- full;
      enqueue v)
    targets;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    queued.(v) <- false;
    List.iter
      (fun (e : Fgraph.edge) ->
        (* position of e in out_edges of its source *)
        let k =
          let rec find i = function
            | [] -> -1
            | x :: rest -> if x == e then i else find (i + 1) rest
          in
          find 0 g.Fgraph.out_edges.(e.e_from)
        in
        let pred = Hashtbl.find t.edge_atoms (e.e_from, e.e_to, k) in
        let contribution = bitset_inter pred sets.(v) in
        let united = bitset_union sets.(e.e_from) contribution in
        if not (bitset_equal united sets.(e.e_from)) then begin
          sets.(e.e_from) <- united;
          enqueue e.e_from
        end)
      g.Fgraph.in_edges.(v)
  done;
  atoms_to_bdd t sets.(src)
