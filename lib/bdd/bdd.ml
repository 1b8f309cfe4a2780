(* Nodes live in parallel int arrays indexed by node id; ids 0 and 1 are the
   terminals. The unique table is an open-addressing array of (id + 1) values
   keyed by (var, lo, hi), so BDDs are canonical and equality is integer
   equality. A single 2-way set-associative cache serves all operations,
   keyed by an operation code that embeds auxiliary ids (variable sets,
   renamings): entry slots [2s] (MRU way) and [2s+1] (victim way) form set
   [s], so two hot keys hashing to the same set coexist instead of evicting
   each other — direct mapping left the op cache at ~12% hit rate under the
   all-pairs workload. *)

type t = int

type varset = { vs_id : int; vs_mem : bool array }
type perm = { pm_id : int; pm_map : int array }

type man = {
  mutable var : int array;
  mutable lo : int array;
  mutable hi : int array;
  mutable n : int;
  mutable buckets : int array;
  mutable bmask : int;
  nvars : int;
  mutable ck_op : int array;
  mutable ck_a : int array;
  mutable ck_b : int array;
  mutable cv : int array;
  mutable cmask : int;
  cmask_max : int;
  mutable filled : int;
  mutable hits : int;
  mutable misses : int;
  mutable win_hits : int;
  mutable win_misses : int;
  mutable next_aux : int;
  mutable identity : perm option;
}

let bot = 0
let top = 1
let equal (a : t) (b : t) = a = b
let is_bot a = a = 0
let is_top a = a = 1
let nvars m = m.nvars
let node_count m = m.n
let stats m = (m.n, m.hits, m.misses)
let cache_size m = m.cmask + 1

type cache_stats = {
  cs_hits : int;
  cs_misses : int;
  cs_entries : int;
  cs_filled : int;
}

let cache_stats m =
  { cs_hits = m.hits; cs_misses = m.misses; cs_entries = m.cmask + 1;
    cs_filled = m.filled }

(* Process-wide registry of live managers, weakly held so per-domain worker
   managers can still be collected when their domain dies. Lets the bench
   harness report total resident BDD nodes across every manager (main +
   worker-resident), not just the one it can see. *)
let registry = ref (Weak.create 16)
let registry_used = ref 0
let registry_mutex = Mutex.create ()

let register_manager m =
  Mutex.lock registry_mutex;
  let r = !registry in
  let slot =
    let rec find i =
      if i >= Weak.length r then None
      else if Weak.check r i then find (i + 1)
      else Some i
    in
    find 0
  in
  (match slot with
  | Some i ->
    Weak.set r i (Some m);
    registry_used := max !registry_used (i + 1)
  | None ->
    let bigger = Weak.create (2 * Weak.length r) in
    Weak.blit r 0 bigger 0 (Weak.length r);
    Weak.set bigger (Weak.length r) (Some m);
    registry_used := Weak.length r + 1;
    registry := bigger);
  Mutex.unlock registry_mutex

let create ?(cache_bits = 18) ?(max_cache_bits = 22) ~nvars () =
  let cap = 1024 in
  (* the 2-way layout needs at least one full set (two entries) *)
  let cache_bits = max 1 cache_bits in
  let max_cache_bits = max cache_bits max_cache_bits in
  let m =
    { var = Array.make cap 0; lo = Array.make cap 0; hi = Array.make cap 0;
      n = 2;
      buckets = Array.make 4096 0; bmask = 4095;
      nvars;
      ck_op = Array.make (1 lsl cache_bits) (-1);
      ck_a = Array.make (1 lsl cache_bits) 0;
      ck_b = Array.make (1 lsl cache_bits) 0;
      cv = Array.make (1 lsl cache_bits) 0;
      cmask = (1 lsl cache_bits) - 1;
      cmask_max = (1 lsl max_cache_bits) - 1;
      filled = 0;
      hits = 0; misses = 0; win_hits = 0; win_misses = 0;
      next_aux = 0; identity = None }
  in
  (* Terminals sit below every real variable. *)
  m.var.(0) <- nvars;
  m.var.(1) <- nvars;
  register_manager m;
  m

let global_stats () =
  Mutex.lock registry_mutex;
  let r = !registry in
  let managers = ref 0 and nodes = ref 0 in
  for i = 0 to !registry_used - 1 do
    match Weak.get r i with
    | Some m ->
      incr managers;
      nodes := !nodes + m.n
    | None -> ()
  done;
  Mutex.unlock registry_mutex;
  (!managers, !nodes)

let uhash v l h mask =
  let x = (v * 0x9E3779B1) lxor (l * 0x85EBCA77) lxor (h * 0xC2B2AE3F) in
  (x lxor (x lsr 16)) land mask

let rehash m =
  let nmask = (m.bmask * 2) + 1 in
  let nb = Array.make (nmask + 1) 0 in
  for id = 2 to m.n - 1 do
    let j = ref (uhash m.var.(id) m.lo.(id) m.hi.(id) nmask) in
    while nb.(!j) <> 0 do
      j := (!j + 1) land nmask
    done;
    nb.(!j) <- id + 1
  done;
  m.buckets <- nb;
  m.bmask <- nmask

let grow m =
  let cap = Array.length m.var in
  let ncap = cap * 2 in
  let extend a = Array.append a (Array.make cap 0) in
  m.var <- extend m.var;
  m.lo <- extend m.lo;
  m.hi <- extend m.hi;
  ignore ncap

let mk m v l h =
  if l = h then l
  else begin
    if m.n * 4 > (m.bmask + 1) * 3 then rehash m;
    let j = ref (uhash v l h m.bmask) in
    let result = ref (-1) in
    while !result < 0 do
      let b = m.buckets.(!j) in
      if b = 0 then begin
        if m.n >= Array.length m.var then grow m;
        let id = m.n in
        m.n <- id + 1;
        m.var.(id) <- v;
        m.lo.(id) <- l;
        m.hi.(id) <- h;
        m.buckets.(!j) <- id + 1;
        result := id
      end
      else begin
        let id = b - 1 in
        if m.var.(id) = v && m.lo.(id) = l && m.hi.(id) = h then result := id
        else j := (!j + 1) land m.bmask
      end
    done;
    !result
  end

let var m v =
  if v < 0 || v >= m.nvars then invalid_arg "Bdd.var";
  mk m v 0 1

let nvar m v =
  if v < 0 || v >= m.nvars then invalid_arg "Bdd.nvar";
  mk m v 1 0

let ite_raw m v l h =
  assert (v < m.var.(l) && v < m.var.(h));
  mk m v l h

(* Operation codes for the shared cache. Auxiliary ids (varsets, perms) are
   packed into high bits so distinct quantifications never collide. *)
let op_and = 0
let op_or = 1
let op_xor = 2
let op_diff = 3
let op_not = 4
let op_exists = 5
let op_replace = 6
let op_andex = 7
let op_transform = 8
let op_restrict = 9
let op_compose = 10
let op_intersects = 11
let op_leq = 12

(* When the set-associative cache thrashes (a full capacity's worth of
   lookups with a poor hit rate), double it up to [cmask_max], rehashing the
   warm entries into the new table. Growth only changes what is recomputed,
   never what is computed: results are canonical node ids either way. *)

(* Insert into set [s] of the new arrays with MRU-way preference: way 0 is
   demoted to way 1 before the incoming entry takes way 0. *)
let cache_insert_raw ck_op ck_a ck_b cv s op a b r =
  let i0 = s * 2 and i1 = (s * 2) + 1 in
  let delta = (if ck_op.(i1) >= 0 then 0 else 1) in
  if ck_op.(i0) >= 0 then begin
    ck_op.(i1) <- ck_op.(i0);
    ck_a.(i1) <- ck_a.(i0);
    ck_b.(i1) <- ck_b.(i0);
    cv.(i1) <- cv.(i0);
    ck_op.(i0) <- op;
    ck_a.(i0) <- a;
    ck_b.(i0) <- b;
    cv.(i0) <- r;
    delta
  end
  else begin
    ck_op.(i0) <- op;
    ck_a.(i0) <- a;
    ck_b.(i0) <- b;
    cv.(i0) <- r;
    1
  end

let cache_grow m =
  let nmask = (m.cmask * 2) + 1 in
  let ck_op = Array.make (nmask + 1) (-1) in
  let ck_a = Array.make (nmask + 1) 0 in
  let ck_b = Array.make (nmask + 1) 0 in
  let cv = Array.make (nmask + 1) 0 in
  let smask = nmask lsr 1 in
  let filled = ref 0 in
  (* Re-insert victim ways first and MRU ways second, so entries that were
     recently used land in the MRU way of their new set. *)
  List.iter
    (fun way ->
      let i = ref way in
      while !i <= m.cmask do
        let op = m.ck_op.(!i) in
        if op >= 0 then begin
          let s = uhash op m.ck_a.(!i) m.ck_b.(!i) smask in
          filled :=
            !filled
            + cache_insert_raw ck_op ck_a ck_b cv s op m.ck_a.(!i) m.ck_b.(!i)
                m.cv.(!i)
        end;
        i := !i + 2
      done)
    [ 1; 0 ];
  m.ck_op <- ck_op;
  m.ck_a <- ck_a;
  m.ck_b <- ck_b;
  m.cv <- cv;
  m.cmask <- nmask;
  m.filled <- !filled

let cache_pressure_check m =
  let window = m.win_hits + m.win_misses in
  if window > m.cmask then begin
    (* miss rate over the window above ~60% means the working set no longer
       fits: entries are evicted before they can be re-used *)
    if m.cmask < m.cmask_max && m.win_misses * 5 > window * 3 then cache_grow m;
    m.win_hits <- 0;
    m.win_misses <- 0
  end

let cache_find m op a b =
  let s = uhash op a b (m.cmask lsr 1) in
  let i0 = s * 2 in
  if m.ck_op.(i0) = op && m.ck_a.(i0) = a && m.ck_b.(i0) = b then begin
    m.hits <- m.hits + 1;
    m.win_hits <- m.win_hits + 1;
    m.cv.(i0)
  end
  else begin
    let i1 = i0 + 1 in
    if m.ck_op.(i1) = op && m.ck_a.(i1) = a && m.ck_b.(i1) = b then begin
      m.hits <- m.hits + 1;
      m.win_hits <- m.win_hits + 1;
      let r = m.cv.(i1) in
      (* promote: swap ways so a re-used entry survives the next store *)
      m.ck_op.(i1) <- m.ck_op.(i0);
      m.ck_a.(i1) <- m.ck_a.(i0);
      m.ck_b.(i1) <- m.ck_b.(i0);
      m.cv.(i1) <- m.cv.(i0);
      m.ck_op.(i0) <- op;
      m.ck_a.(i0) <- a;
      m.ck_b.(i0) <- b;
      m.cv.(i0) <- r;
      r
    end
    else begin
      m.misses <- m.misses + 1;
      m.win_misses <- m.win_misses + 1;
      if m.win_misses land 0xFFF = 0 then cache_pressure_check m;
      -1
    end
  end

let cache_store m op a b r =
  let s = uhash op a b (m.cmask lsr 1) in
  m.filled <- m.filled + cache_insert_raw m.ck_op m.ck_a m.ck_b m.cv s op a b r

let rec bnot m a =
  if a = 0 then 1
  else if a = 1 then 0
  else
    let r = cache_find m op_not a 0 in
    if r >= 0 then r
    else begin
      let res = mk m m.var.(a) (bnot m m.lo.(a)) (bnot m m.hi.(a)) in
      cache_store m op_not a 0 res;
      res
    end

(* Generic binary apply for and/or/xor/diff. Commutative ops normalize the
   operand order to improve cache hit rates. *)
let rec apply m op a b =
  let shortcut =
    if op = op_and then
      if a = 0 || b = 0 then 0
      else if a = 1 then b
      else if b = 1 then a
      else if a = b then a
      else -1
    else if op = op_or then
      if a = 1 || b = 1 then 1
      else if a = 0 then b
      else if b = 0 then a
      else if a = b then a
      else -1
    else if op = op_xor then
      if a = b then 0
      else if a = 0 then b
      else if b = 0 then a
      else if a = 1 then bnot m b
      else if b = 1 then bnot m a
      else -1
    else if a = 0 || b = 1 || a = b then 0 (* diff *)
    else if b = 0 then a
    else if a = 1 then bnot m b
    else -1
  in
  if shortcut >= 0 then shortcut
  else begin
    let a, b = if op <> op_diff && a > b then (b, a) else (a, b) in
    let r = cache_find m op a b in
    if r >= 0 then r
    else begin
      let va = m.var.(a) and vb = m.var.(b) in
      let v = if va < vb then va else vb in
      let a0, a1 = if va = v then (m.lo.(a), m.hi.(a)) else (a, a) in
      let b0, b1 = if vb = v then (m.lo.(b), m.hi.(b)) else (b, b) in
      let r0 = apply m op a0 b0 in
      let r1 = apply m op a1 b1 in
      let res = mk m v r0 r1 in
      cache_store m op a b res;
      res
    end
  end

(* Conjunction and disjunction dominate the verification hot path (filters,
   FIB cells, fixed-point unions), so they get dedicated recursions: the
   bot/top short-circuits sit first and no per-call operation dispatch runs.
   They share cache codes with [apply], so mixed use stays coherent. *)
let rec band_rec m a b =
  if a = 0 || b = 0 then 0
  else if a = 1 then b
  else if b = 1 then a
  else if a = b then a
  else begin
    let a, b = if a > b then (b, a) else (a, b) in
    let r = cache_find m op_and a b in
    if r >= 0 then r
    else begin
      let va = m.var.(a) and vb = m.var.(b) in
      let v = if va < vb then va else vb in
      let a0, a1 = if va = v then (m.lo.(a), m.hi.(a)) else (a, a) in
      let b0, b1 = if vb = v then (m.lo.(b), m.hi.(b)) else (b, b) in
      let r0 = band_rec m a0 b0 in
      let r1 = band_rec m a1 b1 in
      let res = mk m v r0 r1 in
      cache_store m op_and a b res;
      res
    end
  end

let rec bor_rec m a b =
  if a = 1 || b = 1 then 1
  else if a = 0 then b
  else if b = 0 then a
  else if a = b then a
  else begin
    let a, b = if a > b then (b, a) else (a, b) in
    let r = cache_find m op_or a b in
    if r >= 0 then r
    else begin
      let va = m.var.(a) and vb = m.var.(b) in
      let v = if va < vb then va else vb in
      let a0, a1 = if va = v then (m.lo.(a), m.hi.(a)) else (a, a) in
      let b0, b1 = if vb = v then (m.lo.(b), m.hi.(b)) else (b, b) in
      let r0 = bor_rec m a0 b0 in
      let r1 = bor_rec m a1 b1 in
      let res = mk m v r0 r1 in
      cache_store m op_or a b res;
      res
    end
  end

(* Relation tests: the same cofactor recursion as [band_rec], but the
   result is a boolean cached as 0/1 under its own op code and no node is
   built, so the first witness ends the walk. *)
let rec intersects m a b =
  if a = 0 || b = 0 then false
  else if a = 1 || b = 1 || a = b then true
  else begin
    let a, b = if a > b then (b, a) else (a, b) in
    let r = cache_find m op_intersects a b in
    if r >= 0 then r = 1
    else begin
      let va = m.var.(a) and vb = m.var.(b) in
      let v = if va < vb then va else vb in
      let a0, a1 = if va = v then (m.lo.(a), m.hi.(a)) else (a, a) in
      let b0, b1 = if vb = v then (m.lo.(b), m.hi.(b)) else (b, b) in
      let res = intersects m a0 b0 || intersects m a1 b1 in
      cache_store m op_intersects a b (Bool.to_int res);
      res
    end
  end

let rec leq m a b =
  if a = 0 || b = 1 || a = b then true
  else if a = 1 || b = 0 then false
  else begin
    let r = cache_find m op_leq a b in
    if r >= 0 then r = 1
    else begin
      let va = m.var.(a) and vb = m.var.(b) in
      let v = if va < vb then va else vb in
      let a0, a1 = if va = v then (m.lo.(a), m.hi.(a)) else (a, a) in
      let b0, b1 = if vb = v then (m.lo.(b), m.hi.(b)) else (b, b) in
      let res = leq m a0 b0 && leq m a1 b1 in
      cache_store m op_leq a b (Bool.to_int res);
      res
    end
  end

let band m a b = band_rec m a b
let bor m a b = bor_rec m a b
let bxor m a b = apply m op_xor a b
let bdiff m a b = apply m op_diff a b
let bimplies m a b = bor m (bnot m a) b
let ite m f g h = bor m (band m f g) (band m (bnot m f) h)
let conj m l = List.fold_left (band m) top l
let disj m l = List.fold_left (bor m) bot l

let fresh_aux m =
  let id = m.next_aux in
  m.next_aux <- id + 1;
  id

let varset m levels =
  let vs_mem = Array.make m.nvars false in
  List.iter
    (fun v ->
      if v < 0 || v >= m.nvars then invalid_arg "Bdd.varset";
      vs_mem.(v) <- true)
    levels;
  { vs_id = fresh_aux m; vs_mem }

let varset_mem vs v = vs.vs_mem.(v)

let perm m pairs =
  let pm_map = Array.init m.nvars (fun i -> i) in
  List.iter
    (fun (a, b) ->
      if a < 0 || a >= m.nvars || b < 0 || b >= m.nvars then invalid_arg "Bdd.perm";
      pm_map.(a) <- b)
    pairs;
  { pm_id = fresh_aux m; pm_map }

let rec exists_rec m code vs a =
  if a <= 1 then a
  else begin
    let r = cache_find m code a 0 in
    if r >= 0 then r
    else begin
      let v = m.var.(a) in
      let r0 = exists_rec m code vs m.lo.(a) in
      let res =
        if vs.vs_mem.(v) && r0 = 1 then 1
        else
          let r1 = exists_rec m code vs m.hi.(a) in
          if vs.vs_mem.(v) then bor m r0 r1 else mk m v r0 r1
      in
      cache_store m code a 0 res;
      res
    end
  end

let exists m vs a = exists_rec m (op_exists lor (vs.vs_id lsl 4)) vs a

let rec replace_rec m code pm a =
  if a <= 1 then a
  else begin
    let r = cache_find m code a 0 in
    if r >= 0 then r
    else begin
      let res =
        mk m pm.pm_map.(m.var.(a)) (replace_rec m code pm m.lo.(a))
          (replace_rec m code pm m.hi.(a))
      in
      cache_store m code a 0 res;
      res
    end
  end

let replace m pm a = replace_rec m (op_replace lor (pm.pm_id lsl 4)) pm a

(* Relational product with an optional fused renaming: computes
   rename(exists vs (a ∧ b)) in one traversal. [pm] may be the identity. *)
let rec andex_rec m code vs pm a b =
  if a = 0 || b = 0 then 0
  else if a = 1 && b = 1 then 1
  else begin
    let a, b = if a > b then (b, a) else (a, b) in
    let r = cache_find m code a b in
    if r >= 0 then r
    else begin
      let va = m.var.(a) and vb = m.var.(b) in
      let v = if va < vb then va else vb in
      let a0, a1 = if va = v then (m.lo.(a), m.hi.(a)) else (a, a) in
      let b0, b1 = if vb = v then (m.lo.(b), m.hi.(b)) else (b, b) in
      let r0 = andex_rec m code vs pm a0 b0 in
      let res =
        if vs.vs_mem.(v) then
          if r0 = 1 then 1 else bor m r0 (andex_rec m code vs pm a1 b1)
        else mk m pm.pm_map.(v) r0 (andex_rec m code vs pm a1 b1)
      in
      cache_store m code a b res;
      res
    end
  end

let identity_perm m =
  match m.identity with
  | Some pm -> pm
  | None ->
    let pm = { pm_id = -1; pm_map = Array.init m.nvars (fun i -> i) } in
    m.identity <- Some pm;
    pm

let and_exists m vs a b =
  andex_rec m (op_andex lor (vs.vs_id lsl 4)) vs (identity_perm m) a b

let transform m ~rel ~quant ~rename a =
  let code = op_transform lor (quant.vs_id lsl 4) lor (rename.pm_id lsl 20) in
  andex_rec m code quant rename a rel

let transform_unfused m ~rel ~quant ~rename a =
  replace m rename (exists m quant (band m a rel))

(* Variable substitution valid for ARBITRARY permutations (including
   order-violating ones like src/dst swaps): rebuild bottom-up with full ite
   instead of mk. Slower than [replace], but correct regardless of order. *)
let rec compose_rec m code pm a =
  if a <= 1 then a
  else begin
    let r = cache_find m code a 0 in
    if r >= 0 then r
    else begin
      let v' = pm.pm_map.(m.var.(a)) in
      let lo = compose_rec m code pm m.lo.(a) in
      let hi = compose_rec m code pm m.hi.(a) in
      let x = mk m v' 0 1 in
      (* ite x hi lo *)
      let res = apply m op_or (apply m op_and x hi) (apply m op_diff lo x) in
      cache_store m code a 0 res;
      res
    end
  end

let compose_perm m pm a = compose_rec m (op_compose lor (pm.pm_id lsl 4)) pm a

let rec restrict_rec m code v b a =
  if a <= 1 then a
  else if m.var.(a) > v then a
  else begin
    let r = cache_find m code a 0 in
    if r >= 0 then r
    else begin
      let res =
        if m.var.(a) = v then if b then m.hi.(a) else m.lo.(a)
        else mk m m.var.(a) (restrict_rec m code v b m.lo.(a)) (restrict_rec m code v b m.hi.(a))
      in
      cache_store m code a 0 res;
      res
    end
  end

let restrict m v b a =
  restrict_rec m (op_restrict lor (((v * 2) + Bool.to_int b) lsl 4)) v b a

let iter_nodes m root f =
  let seen = Hashtbl.create 64 in
  let rec go a =
    if not (Hashtbl.mem seen a) then begin
      Hashtbl.add seen a ();
      f a;
      if a > 1 then begin
        go m.lo.(a);
        go m.hi.(a)
      end
    end
  in
  go root

let support m a =
  let levels = Hashtbl.create 16 in
  iter_nodes m a (fun n -> if n > 1 then Hashtbl.replace levels m.var.(n) ());
  List.sort Int.compare (Hashtbl.fold (fun v () acc -> v :: acc) levels [])

let size m a =
  let c = ref 0 in
  iter_nodes m a (fun _ -> incr c);
  !c

let sat_count m a =
  (* Satisfaction probability under uniform assignment; level skips cancel
     because both cofactors are weighted 1/2. *)
  let memo = Hashtbl.create 64 in
  let rec prob a =
    if a = 0 then 0.0
    else if a = 1 then 1.0
    else
      match Hashtbl.find_opt memo a with
      | Some p -> p
      | None ->
        let p = 0.5 *. (prob m.lo.(a) +. prob m.hi.(a)) in
        Hashtbl.add memo a p;
        p
  in
  prob a *. (2.0 ** float_of_int m.nvars)

let any_sat m a =
  if a = 0 then None
  else
    let rec go a acc =
      if a = 1 then List.rev acc
      else
        let v = m.var.(a) in
        if m.lo.(a) <> 0 then go m.lo.(a) ((v, false) :: acc)
        else go m.hi.(a) ((v, true) :: acc)
    in
    Some (go a [])

let eval m a assign =
  let rec go a = if a <= 1 then a = 1 else go (if assign m.var.(a) then m.hi.(a) else m.lo.(a)) in
  go a

let pick_preferred m a prefs =
  List.fold_left
    (fun acc p ->
      let refined = band m acc p in
      if refined = 0 then acc else refined)
    a prefs

(* --- manager-independent export/import --------------------------------- *)

(* An exported BDD set is a compact node table in child-before-parent order:
   references 0 and 1 are the terminals, reference k+2 is table row k. Node
   ids in a manager are allocated children-first (mk requires both cofactors
   to exist), so sorting reachable ids ascending yields a valid row order.
   Importing into any manager over at least as many variables rebuilds the
   same canonical structure, so the imported roots denote exactly the same
   boolean functions — the basis for re-materializing a forwarding graph
   into a private per-domain manager. *)
type exported = {
  ex_var : int array;
  ex_lo : int array;
  ex_hi : int array;
  ex_roots : int array;
}

let export m roots =
  (* Post-order DFS numbering: children precede parents (what {!import}
     needs) and the table is a pure function of the BDD structure and root
     order — two managers holding the same functions export byte-identical
     tables regardless of allocation history. *)
  let seen = Hashtbl.create 256 in
  let rev_post = ref [] in
  let rec go a =
    if a > 1 && not (Hashtbl.mem seen a) then begin
      Hashtbl.add seen a ();
      go m.lo.(a);
      go m.hi.(a);
      rev_post := a :: !rev_post
    end
  in
  List.iter go roots;
  let arr = Array.of_list (List.rev !rev_post) in
  let index = Hashtbl.create (max 16 (Array.length arr)) in
  Array.iteri (fun i id -> Hashtbl.add index id i) arr;
  let ref_of a = if a <= 1 then a else Hashtbl.find index a + 2 in
  { ex_var = Array.map (fun id -> m.var.(id)) arr;
    ex_lo = Array.map (fun id -> ref_of m.lo.(id)) arr;
    ex_hi = Array.map (fun id -> ref_of m.hi.(id)) arr;
    ex_roots = Array.of_list (List.map ref_of roots) }

let import m ex =
  let n = Array.length ex.ex_var in
  let ids = Array.make (n + 2) 0 in
  ids.(1) <- 1;
  for i = 0 to n - 1 do
    let v = ex.ex_var.(i) in
    if v < 0 || v >= m.nvars then invalid_arg "Bdd.import: variable out of range";
    ids.(i + 2) <- mk m v ids.(ex.ex_lo.(i)) ids.(ex.ex_hi.(i))
  done;
  List.map (fun r -> ids.(r)) (Array.to_list ex.ex_roots)

let exported_nodes ex = Array.length ex.ex_var
