(* Storage is three packed tables of native-endian 32-bit values in [Bytes],
   read and written through [Bytes.get_int32_ne]/[set_int32_ne], which
   ocamlopt compiles to plain loads and stores without boxing. The GC never
   scans a [Bytes] block, so a large manager costs the major marker nothing.

   - Nodes: one [(var, lo, hi)] triple per id, 12 bytes, so a probe
     usually reads one cache line. Ids 0 and 1 are the terminals.
   - Unique table: open addressing over 4-byte buckets holding [id + 1]
     (0 = empty), keyed by [(var, lo, hi)] and probed linearly, so BDDs are
     canonical and equality is integer equality.
   - Op cache: one table of 16-byte [(op, a, b, result)] entries (op -1 =
     empty) serving every operation, keyed by an operation code that embeds
     auxiliary ids (variable sets, renamings). It is 2-way set-associative:
     entries [2s] (MRU way) and [2s+1] (victim way) form set [s], 32
     contiguous bytes, so two hot keys hashing to the same set coexist
     instead of evicting each other — direct mapping left the op cache at
     ~12% hit rate under the all-pairs workload.

   Every stored value is a node id, a variable level or an op code, each
   kept below 2^31; reaching a limit raises [Invalid_argument], never wraps.

   Node ids and the cache counters are fixed by policy, never by layout:
   [uhash] and the linear-probe order, id assignment in [mk], the cache set
   hash with MRU promotion and victim demotion, the 0xFFF pressure window
   with its 60% growth rule, [cache_grow]'s victim-then-MRU re-insertion,
   and every apply recursion. A storage change must leave all of them as
   they are; the benchmark digests pin [bdd.nodes] per op. *)

type t = int

type varset = { vs_id : int; vs_mem : bool array }
type perm = { pm_id : int; pm_map : int array }

type man = {
  mutable nodes : Bytes.t;
  mutable n : int;
  mutable buckets : Bytes.t;
  mutable bmask : int;
  nvars : int;
  mutable cache : Bytes.t;
  mutable cmask : int;
  cmask_max : int;
  mutable filled : int;
  mutable hits : int;
  mutable misses : int;
  mutable win_hits : int;
  mutable win_misses : int;
  mutable next_aux : int;
  transform_ids : (int, int) Hashtbl.t;
  mutable identity : perm option;
}

let[@inline] get32 b off = Int32.to_int (Bytes.get_int32_ne b off)
let[@inline] set32 b off x = Bytes.set_int32_ne b off (Int32.of_int x)

let node_bytes = 12
let entry_bytes = 16

(* ids and levels are stored as non-negative int32 (and buckets hold
   [id + 1]), so both stay below 2^31 - 1 *)
let max_nodes = 0x7FFF_FFFF

(* An op code is a 4-bit op kind below a 27-bit auxiliary id, so every
   code fits the 31 bits of an entry's op field and two codes are equal only
   if kind and id both are. The ids are varset/perm ids, restrict literals
   [2v + b] (hence the level bound) and interned transform pairs. *)
let aux_bits = 27
let max_aux = 1 lsl aux_bits
let max_levels = 1 lsl (aux_bits - 1)
let[@inline] op_code kind id = kind lor (id lsl 4)

let[@inline] level m id = get32 m.nodes (id * node_bytes)
let[@inline] low m id = get32 m.nodes ((id * node_bytes) + 4)
let[@inline] high m id = get32 m.nodes ((id * node_bytes) + 8)

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

(* An empty op-cache table: every byte 0xFF, so every op field reads -1. *)
let empty_cache entries = Bytes.make (entries * entry_bytes) '\xff'

let create ?(cache_bits = 18) ?(max_cache_bits = 22) ~nvars () =
  if nvars < 0 || nvars > max_levels then invalid_arg "Bdd.create: nvars";
  let cap = 1024 in
  (* the 2-way layout needs at least one full set (two entries) *)
  let cache_bits = max 1 cache_bits in
  let max_cache_bits = max cache_bits max_cache_bits in
  let m =
    { nodes = Bytes.make (cap * node_bytes) '\000';
      n = 2;
      buckets = Bytes.make (4096 * 4) '\000'; bmask = 4095;
      nvars;
      cache = empty_cache (1 lsl cache_bits);
      cmask = (1 lsl cache_bits) - 1;
      cmask_max = (1 lsl max_cache_bits) - 1;
      filled = 0;
      hits = 0; misses = 0; win_hits = 0; win_misses = 0;
      next_aux = 0; transform_ids = Hashtbl.create 8; identity = None }
  in
  (* Terminals sit below every real variable. *)
  set32 m.nodes 0 nvars;
  set32 m.nodes node_bytes nvars;
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
  let nb = Bytes.make ((nmask + 1) * 4) '\000' in
  for id = 2 to m.n - 1 do
    let j = ref (uhash (level m id) (low m id) (high m id) nmask) in
    while get32 nb (!j * 4) <> 0 do
      j := (!j + 1) land nmask
    done;
    set32 nb (!j * 4) (id + 1)
  done;
  m.buckets <- nb;
  m.bmask <- nmask

(* The appended half is left uninitialized: only ids below [m.n] are read. *)
let grow m = m.nodes <- Bytes.extend m.nodes 0 (Bytes.length m.nodes)

let mk m v l h =
  if l = h then l
  else begin
    if m.n * 4 > (m.bmask + 1) * 3 then rehash m;
    let j = ref (uhash v l h m.bmask) in
    let result = ref (-1) in
    while !result < 0 do
      let b = get32 m.buckets (!j * 4) in
      if b = 0 then begin
        let id = m.n in
        if id >= max_nodes then invalid_arg "Bdd: node table full (2^31 - 1 ids)";
        if id * node_bytes >= Bytes.length m.nodes then grow m;
        m.n <- id + 1;
        let off = id * node_bytes in
        set32 m.nodes off v;
        set32 m.nodes (off + 4) l;
        set32 m.nodes (off + 8) h;
        set32 m.buckets (!j * 4) (id + 1);
        result := id
      end
      else begin
        let id = b - 1 in
        if level m id = v && low m id = l && high m id = h then result := id
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
  assert (v < level m l && v < level m h);
  mk m v l h

(* Op kinds for the shared cache; see [op_code]. *)
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

(* Entry [i] of a cache table starts at byte [16 * i]: op, a, b, result. *)
let[@inline] write_entry c off op a b r =
  set32 c off op;
  set32 c (off + 4) a;
  set32 c (off + 8) b;
  set32 c (off + 12) r

(* Copy a whole 16-byte entry as two 64-bit words. *)
let[@inline] copy_entry c src dst =
  Bytes.set_int64_ne c dst (Bytes.get_int64_ne c src);
  Bytes.set_int64_ne c (dst + 8) (Bytes.get_int64_ne c (src + 8))

(* Insert into set [s] of table [c] with MRU-way preference: way 0 is
   demoted to way 1 before the incoming entry takes way 0. Returns how many
   empty entries the insert filled. *)
let cache_insert_raw c s op a b r =
  let o0 = s * 2 * entry_bytes in
  let o1 = o0 + entry_bytes in
  let delta = (if get32 c o1 >= 0 then 0 else 1) in
  if get32 c o0 >= 0 then begin
    copy_entry c o0 o1;
    write_entry c o0 op a b r;
    delta
  end
  else begin
    write_entry c o0 op a b r;
    1
  end

let cache_grow m =
  let nmask = (m.cmask * 2) + 1 in
  let c = empty_cache (nmask + 1) in
  let smask = nmask lsr 1 in
  let old = m.cache in
  let filled = ref 0 in
  (* Re-insert victim ways first and MRU ways second, so entries that were
     recently used land in the MRU way of their new set. *)
  List.iter
    (fun way ->
      let i = ref way in
      while !i <= m.cmask do
        let off = !i * entry_bytes in
        let op = get32 old off in
        if op >= 0 then begin
          let a = get32 old (off + 4) and b = get32 old (off + 8) in
          let s = uhash op a b smask in
          filled := !filled + cache_insert_raw c s op a b (get32 old (off + 12))
        end;
        i := !i + 2
      done)
    [ 1; 0 ];
  m.cache <- c;
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
  let c = m.cache in
  let o0 = uhash op a b (m.cmask lsr 1) * 2 * entry_bytes in
  if get32 c o0 = op && get32 c (o0 + 4) = a && get32 c (o0 + 8) = b then begin
    m.hits <- m.hits + 1;
    m.win_hits <- m.win_hits + 1;
    get32 c (o0 + 12)
  end
  else begin
    let o1 = o0 + entry_bytes in
    if get32 c o1 = op && get32 c (o1 + 4) = a && get32 c (o1 + 8) = b then begin
      m.hits <- m.hits + 1;
      m.win_hits <- m.win_hits + 1;
      let r = get32 c (o1 + 12) in
      (* promote: swap ways so a re-used entry survives the next store *)
      copy_entry c o0 o1;
      write_entry c o0 op a b r;
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
  m.filled <- m.filled + cache_insert_raw m.cache s op a b r

let rec bnot m a =
  if a = 0 then 1
  else if a = 1 then 0
  else
    let r = cache_find m op_not a 0 in
    if r >= 0 then r
    else begin
      let res = mk m (level m a) (bnot m (low m a)) (bnot m (high m a)) in
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
      let va = level m a and vb = level m b in
      let v = if va < vb then va else vb in
      let a0, a1 = if va = v then (low m a, high m a) else (a, a) in
      let b0, b1 = if vb = v then (low m b, high m b) else (b, b) in
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
      let va = level m a and vb = level m b in
      let v = if va < vb then va else vb in
      let a0, a1 = if va = v then (low m a, high m a) else (a, a) in
      let b0, b1 = if vb = v then (low m b, high m b) else (b, b) in
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
      let va = level m a and vb = level m b in
      let v = if va < vb then va else vb in
      let a0, a1 = if va = v then (low m a, high m a) else (a, a) in
      let b0, b1 = if vb = v then (low m b, high m b) else (b, b) in
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
      let va = level m a and vb = level m b in
      let v = if va < vb then va else vb in
      let a0, a1 = if va = v then (low m a, high m a) else (a, a) in
      let b0, b1 = if vb = v then (low m b, high m b) else (b, b) in
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
      let va = level m a and vb = level m b in
      let v = if va < vb then va else vb in
      let a0, a1 = if va = v then (low m a, high m a) else (a, a) in
      let b0, b1 = if vb = v then (low m b, high m b) else (b, b) in
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
  if id >= max_aux then invalid_arg "Bdd: varset/perm ids exhausted (2^27)";
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
      let v = level m a in
      let r0 = exists_rec m code vs (low m a) in
      let res =
        if vs.vs_mem.(v) && r0 = 1 then 1
        else
          let r1 = exists_rec m code vs (high m a) in
          if vs.vs_mem.(v) then bor m r0 r1 else mk m v r0 r1
      in
      cache_store m code a 0 res;
      res
    end
  end

let exists m vs a = exists_rec m (op_code op_exists vs.vs_id) vs a

let rec replace_rec m code pm a =
  if a <= 1 then a
  else begin
    let r = cache_find m code a 0 in
    if r >= 0 then r
    else begin
      let res =
        mk m pm.pm_map.(level m a) (replace_rec m code pm (low m a))
          (replace_rec m code pm (high m a))
      in
      cache_store m code a 0 res;
      res
    end
  end

let replace m pm a = replace_rec m (op_code op_replace pm.pm_id) pm a

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
      let va = level m a and vb = level m b in
      let v = if va < vb then va else vb in
      let a0, a1 = if va = v then (low m a, high m a) else (a, a) in
      let b0, b1 = if vb = v then (low m b, high m b) else (b, b) in
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
  andex_rec m (op_code op_andex vs.vs_id) vs (identity_perm m) a b

(* A transform is keyed by its (quant, rename) pair, interned into a dense
   per-manager id: packing both ids into one code would not fit 27 bits. *)
let transform_id m quant rename =
  let key = (quant.vs_id lsl aux_bits) lor rename.pm_id in
  match Hashtbl.find_opt m.transform_ids key with
  | Some id -> id
  | None ->
    let id = Hashtbl.length m.transform_ids in
    if id >= max_aux then invalid_arg "Bdd.transform: pair ids exhausted (2^27)";
    Hashtbl.add m.transform_ids key id;
    id

let transform m ~rel ~quant ~rename a =
  let code = op_code op_transform (transform_id m quant rename) in
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
      let v' = pm.pm_map.(level m a) in
      let lo = compose_rec m code pm (low m a) in
      let hi = compose_rec m code pm (high m a) in
      let x = mk m v' 0 1 in
      (* ite x hi lo *)
      let res = apply m op_or (apply m op_and x hi) (apply m op_diff lo x) in
      cache_store m code a 0 res;
      res
    end
  end

let compose_perm m pm a = compose_rec m (op_code op_compose pm.pm_id) pm a

let rec restrict_rec m code v b a =
  if a <= 1 then a
  else if level m a > v then a
  else begin
    let r = cache_find m code a 0 in
    if r >= 0 then r
    else begin
      let res =
        if level m a = v then if b then high m a else low m a
        else mk m (level m a) (restrict_rec m code v b (low m a)) (restrict_rec m code v b (high m a))
      in
      cache_store m code a 0 res;
      res
    end
  end

let restrict m v b a =
  if v < 0 || v >= m.nvars then invalid_arg "Bdd.restrict";
  restrict_rec m (op_code op_restrict ((v * 2) + Bool.to_int b)) v b a

let iter_nodes m root f =
  let seen = Hashtbl.create 64 in
  let rec go a =
    if not (Hashtbl.mem seen a) then begin
      Hashtbl.add seen a ();
      f a;
      if a > 1 then begin
        go (low m a);
        go (high m a)
      end
    end
  in
  go root

let support m a =
  let levels = Hashtbl.create 16 in
  iter_nodes m a (fun n -> if n > 1 then Hashtbl.replace levels (level m n) ());
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
        let p = 0.5 *. (prob (low m a) +. prob (high m a)) in
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
        let v = level m a in
        if low m a <> 0 then go (low m a) ((v, false) :: acc)
        else go (high m a) ((v, true) :: acc)
    in
    Some (go a [])

let eval m a assign =
  let rec go a = if a <= 1 then a = 1 else go (if assign (level m a) then high m a else low m a) in
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
      go (low m a);
      go (high m a);
      rev_post := a :: !rev_post
    end
  in
  List.iter go roots;
  let arr = Array.of_list (List.rev !rev_post) in
  let index = Hashtbl.create (max 16 (Array.length arr)) in
  Array.iteri (fun i id -> Hashtbl.add index id i) arr;
  let ref_of a = if a <= 1 then a else Hashtbl.find index a + 2 in
  { ex_var = Array.map (level m) arr;
    ex_lo = Array.map (fun id -> ref_of (low m id)) arr;
    ex_hi = Array.map (fun id -> ref_of (high m id)) arr;
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

let aux_count m = m.next_aux
