(* Tests for the BDD engine: semantics against brute-force truth tables,
   canonicity, quantification, renaming, and the fused transform. *)

let nv = 8 (* brute force over 2^8 assignments *)

(* Random boolean expressions, evaluated both directly and via BDDs. *)
type expr =
  | Evar of int
  | Enot of expr
  | Eand of expr * expr
  | Eor of expr * expr
  | Exor of expr * expr

let rec eval_expr env = function
  | Evar i -> env i
  | Enot e -> not (eval_expr env e)
  | Eand (a, b) -> eval_expr env a && eval_expr env b
  | Eor (a, b) -> eval_expr env a || eval_expr env b
  | Exor (a, b) -> eval_expr env a <> eval_expr env b

let rec build m = function
  | Evar i -> Bdd.var m i
  | Enot e -> Bdd.bnot m (build m e)
  | Eand (a, b) -> Bdd.band m (build m a) (build m b)
  | Eor (a, b) -> Bdd.bor m (build m a) (build m b)
  | Exor (a, b) -> Bdd.bxor m (build m a) (build m b)

let expr_gen =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        if n <= 0 then map (fun i -> Evar i) (int_bound (nv - 1))
        else
          frequency
            [ (1, map (fun i -> Evar i) (int_bound (nv - 1)));
              (2, map (fun e -> Enot e) (self (n / 2)));
              (2, map2 (fun a b -> Eand (a, b)) (self (n / 2)) (self (n / 2)));
              (2, map2 (fun a b -> Eor (a, b)) (self (n / 2)) (self (n / 2)));
              (1, map2 (fun a b -> Exor (a, b)) (self (n / 2)) (self (n / 2))) ]))

let rec expr_print = function
  | Evar i -> Printf.sprintf "x%d" i
  | Enot e -> Printf.sprintf "!(%s)" (expr_print e)
  | Eand (a, b) -> Printf.sprintf "(%s & %s)" (expr_print a) (expr_print b)
  | Eor (a, b) -> Printf.sprintf "(%s | %s)" (expr_print a) (expr_print b)
  | Exor (a, b) -> Printf.sprintf "(%s ^ %s)" (expr_print a) (expr_print b)

let expr_arb = QCheck.make ~print:expr_print expr_gen

let env_of_int a i = (a lsr i) land 1 = 1

let all_assignments f =
  let rec go a = a >= 1 lsl nv || (f a && go (a + 1)) in
  go 0

let qtest ?(count = 200) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

let semantics =
  qtest "bdd matches truth table" expr_arb (fun e ->
      let m = Bdd.create ~nvars:nv () in
      let t = build m e in
      all_assignments (fun a ->
          Bdd.eval m t (env_of_int a) = eval_expr (env_of_int a) e))

let canonicity =
  qtest "equivalent functions share a node" (QCheck.pair expr_arb expr_arb)
    (fun (e1, e2) ->
      let m = Bdd.create ~nvars:nv () in
      let t1 = build m e1 and t2 = build m e2 in
      let equiv =
        all_assignments (fun a -> eval_expr (env_of_int a) e1 = eval_expr (env_of_int a) e2)
      in
      Bdd.equal t1 t2 = equiv)

let de_morgan =
  qtest "de morgan" (QCheck.pair expr_arb expr_arb) (fun (e1, e2) ->
      let m = Bdd.create ~nvars:nv () in
      let a = build m e1 and b = build m e2 in
      Bdd.equal
        (Bdd.bnot m (Bdd.band m a b))
        (Bdd.bor m (Bdd.bnot m a) (Bdd.bnot m b)))

let double_negation =
  qtest "double negation" expr_arb (fun e ->
      let m = Bdd.create ~nvars:nv () in
      let a = build m e in
      Bdd.equal a (Bdd.bnot m (Bdd.bnot m a)))

let diff_is_and_not =
  qtest "diff = and-not" (QCheck.pair expr_arb expr_arb) (fun (e1, e2) ->
      let m = Bdd.create ~nvars:nv () in
      let a = build m e1 and b = build m e2 in
      Bdd.equal (Bdd.bdiff m a b) (Bdd.band m a (Bdd.bnot m b)))

(* The relation kernels agree with the allocating operations and create no
   node. Each kernel runs before its reference operation, and the three
   random pairs come first, while none of their conjunctions exists yet.
   The derived pairs that follow make the true cases common: [a ∧ b ≤ a],
   and [a ∧ b] is disjoint from [a ∧ ¬b]. *)
let kernel_agrees kernel reference (e1, e2, e3) =
  let m = Bdd.create ~nvars:nv () in
  let a = build m e1 and b = build m e2 and c = build m e3 in
  let agrees (x, y) =
    let before = Bdd.node_count m in
    let r = kernel m x y in
    Bdd.node_count m = before && r = reference m x y
  in
  List.for_all agrees [ (a, b); (b, c); (c, a) ]
  &&
  let ab = Bdd.band m a b and a_b = Bdd.bdiff m a b in
  List.for_all agrees
    [ (ab, a); (a, ab); (ab, a_b); (a_b, ab); (a, a); (a, Bdd.bot); (Bdd.top, a) ]

let expr_triple = QCheck.triple expr_arb expr_arb expr_arb

let intersects_is_and =
  qtest "intersects = and is not bot" expr_triple
    (kernel_agrees Bdd.intersects (fun m x y -> not (Bdd.is_bot (Bdd.band m x y))))

let leq_is_diff =
  qtest "leq = diff is bot" expr_triple
    (kernel_agrees Bdd.leq (fun m x y -> Bdd.is_bot (Bdd.bdiff m x y)))

let exists_semantics =
  qtest "exists = or of cofactors" expr_arb (fun e ->
      let m = Bdd.create ~nvars:nv () in
      let a = build m e in
      let vs = Bdd.varset m [ 0; 2; 5 ] in
      let q = Bdd.exists m vs a in
      all_assignments (fun asn ->
          let expected =
            (* or over the 8 combinations of quantified vars *)
            List.exists
              (fun combo ->
                let env i =
                  match i with
                  | 0 -> combo land 1 = 1
                  | 2 -> combo land 2 = 2
                  | 5 -> combo land 4 = 4
                  | _ -> env_of_int asn i
                in
                eval_expr env e)
              [ 0; 1; 2; 3; 4; 5; 6; 7 ]
          in
          Bdd.eval m q (env_of_int asn) = expected))

let exists_removes_support =
  qtest "exists removes quantified vars from support" expr_arb (fun e ->
      let m = Bdd.create ~nvars:nv () in
      let a = build m e in
      let vs = Bdd.varset m [ 1; 3 ] in
      let q = Bdd.exists m vs a in
      List.for_all (fun v -> v <> 1 && v <> 3) (Bdd.support m q))

let and_exists_fusion =
  qtest "and_exists = exists . and" (QCheck.pair expr_arb expr_arb)
    (fun (e1, e2) ->
      let m = Bdd.create ~nvars:nv () in
      let a = build m e1 and b = build m e2 in
      let vs = Bdd.varset m [ 0; 4; 7 ] in
      Bdd.equal (Bdd.and_exists m vs a b) (Bdd.exists m vs (Bdd.band m a b)))

(* Renaming: build over even vars, shift up to odd vars. *)
let replace_shift =
  qtest "replace shifts assignments" expr_arb (fun e ->
      let m = Bdd.create ~nvars:(2 * nv) () in
      let rec remap = function
        | Evar i -> Evar (2 * i)
        | Enot x -> Enot (remap x)
        | Eand (x, y) -> Eand (remap x, remap y)
        | Eor (x, y) -> Eor (remap x, remap y)
        | Exor (x, y) -> Exor (remap x, remap y)
      in
      let e = remap e in
      let a = build m e in
      let pm = Bdd.perm m (List.init nv (fun k -> (2 * k, (2 * k) + 1))) in
      let shifted = Bdd.replace m pm a in
      all_assignments (fun asn ->
          (* original reads var 2k; shifted must read var 2k+1 *)
          let env_orig i = if i mod 2 = 0 then env_of_int asn (i / 2) else false in
          let env_shift i = if i mod 2 = 1 then env_of_int asn (i / 2) else false in
          Bdd.eval m a env_orig = Bdd.eval m shifted env_shift))

(* Fused transform vs the three separate steps, on an interleaved layout. *)
let transform_fused_matches_unfused =
  qtest "transform fused = unfused" (QCheck.pair expr_arb expr_arb)
    (fun (e_set, e_guard) ->
      let m = Bdd.create ~nvars:(2 * nv) () in
      let rec to_unprimed_expr = function
        | Evar i -> Evar (2 * i)
        | Enot x -> Enot (to_unprimed_expr x)
        | Eand (x, y) -> Eand (to_unprimed_expr x, to_unprimed_expr y)
        | Eor (x, y) -> Eor (to_unprimed_expr x, to_unprimed_expr y)
        | Exor (x, y) -> Exor (to_unprimed_expr x, to_unprimed_expr y)
      in
      let set = build m (to_unprimed_expr e_set) in
      let guard = build m (to_unprimed_expr e_guard) in
      (* rel: guard on inputs; outputs x'k = xk for k >= 2; x'0, x'1 free. *)
      let identity k =
        Bdd.bnot m (Bdd.bxor m (Bdd.var m (2 * k)) (Bdd.var m ((2 * k) + 1)))
      in
      let rel =
        Bdd.conj m (guard :: List.init (nv - 2) (fun k -> identity (k + 2)))
      in
      let quant = Bdd.varset m (List.init nv (fun k -> 2 * k)) in
      let rename = Bdd.perm m (List.init nv (fun k -> ((2 * k) + 1, 2 * k))) in
      Bdd.equal
        (Bdd.transform m ~rel ~quant ~rename set)
        (Bdd.transform_unfused m ~rel ~quant ~rename set))

let sat_count_matches =
  qtest "sat_count = brute count" expr_arb (fun e ->
      let m = Bdd.create ~nvars:nv () in
      let t = build m e in
      let count = ref 0 in
      for a = 0 to (1 lsl nv) - 1 do
        if eval_expr (env_of_int a) e then incr count
      done;
      abs_float (Bdd.sat_count m t -. float_of_int !count) < 0.5)

let any_sat_satisfies =
  qtest "any_sat satisfies" expr_arb (fun e ->
      let m = Bdd.create ~nvars:nv () in
      let t = build m e in
      match Bdd.any_sat m t with
      | None -> Bdd.is_bot t
      | Some assignment ->
        let env i =
          match List.assoc_opt i assignment with
          | Some b -> b
          | None -> false
        in
        Bdd.eval m t env)

let restrict_semantics =
  qtest "restrict fixes a variable" expr_arb (fun e ->
      let m = Bdd.create ~nvars:nv () in
      let t = build m e in
      let r1 = Bdd.restrict m 3 true t in
      let r0 = Bdd.restrict m 3 false t in
      all_assignments (fun a ->
          let env = env_of_int a in
          let env_with v i = if i = 3 then v else env i in
          Bdd.eval m r1 env = eval_expr (env_with true) e
          && Bdd.eval m r0 env = eval_expr (env_with false) e))

let pick_preferred_subset =
  qtest "pick_preferred returns nonempty subset" (QCheck.pair expr_arb expr_arb)
    (fun (e, p) ->
      let m = Bdd.create ~nvars:nv () in
      let t = build m e and pref = build m p in
      QCheck.assume (not (Bdd.is_bot t));
      let picked = Bdd.pick_preferred m t [ pref; Bdd.var m 0 ] in
      (not (Bdd.is_bot picked)) && Bdd.is_bot (Bdd.bdiff m picked t))

let units () =
  let m = Bdd.create ~nvars:4 () in
  Alcotest.check Alcotest.bool "top is top" true (Bdd.is_top Bdd.top);
  Alcotest.check Alcotest.bool "x and !x = bot" true
    (Bdd.is_bot (Bdd.band m (Bdd.var m 1) (Bdd.nvar m 1)));
  Alcotest.check Alcotest.bool "x or !x = top" true
    (Bdd.is_top (Bdd.bor m (Bdd.var m 1) (Bdd.nvar m 1)));
  Alcotest.check Alcotest.bool "ite(x,1,0) = x" true
    (Bdd.equal (Bdd.ite m (Bdd.var m 2) Bdd.top Bdd.bot) (Bdd.var m 2));
  Alcotest.check Alcotest.int "var size" 3 (Bdd.size m (Bdd.var m 0));
  Alcotest.check Alcotest.bool "implies" true
    (Bdd.is_top (Bdd.bimplies m (Bdd.band m (Bdd.var m 0) (Bdd.var m 1)) (Bdd.var m 0)));
  let x0 = Bdd.var m 0 in
  Alcotest.check Alcotest.bool "sat_count of one var" true
    (Bdd.sat_count m x0 = 8.0);
  Alcotest.check (Alcotest.list Alcotest.int) "support" [ 0; 3 ]
    (Bdd.support m (Bdd.band m (Bdd.var m 0) (Bdd.var m 3)))

let node_growth () =
  (* Force unique-table resizes and array growth. *)
  let m = Bdd.create ~nvars:24 () in
  let acc = ref Bdd.bot in
  for i = 0 to 4000 do
    let v1 = Bdd.var m (i mod 24) and v2 = Bdd.var m ((i * 7) mod 24) in
    acc := Bdd.bor m !acc (Bdd.band m v1 (Bdd.bxor m v2 !acc))
  done;
  let nodes, hits, misses = Bdd.stats m in
  Alcotest.check Alcotest.bool "many nodes" true (nodes > 1000);
  Alcotest.check Alcotest.bool "cache used" true (hits > 0 && misses > 0)

(* --- storage limits and cache shape --------------------------------- *)

(* Transform op codes once or-ed a 16-bit varset field under the perm id,
   so varset 2^16 with perm 2 (its spill bit or-ed into perm bit 0) aliased
   varset 0 with perm 3, and the second transform returned the first one's
   cached result. Varsets and perms draw ids from one counter: 0 is
   [vs_small], 1 a spacer, 2 [p0], 3 [p1], and [vs_big] is 2^16. *)
let transform_codes_injective () =
  let m = Bdd.create ~nvars:4 () in
  let vs_small = Bdd.varset m [] in
  ignore (Bdd.perm m []);
  let p0 = Bdd.perm m [] in
  let p1 = Bdd.perm m [] in
  for _ = 1 to 65532 do
    ignore (Bdd.varset m [])
  done;
  let vs_big = Bdd.varset m [ 0 ] in
  let a = Bdd.var m 0 in
  let r_small = Bdd.transform m ~rel:Bdd.top ~quant:vs_small ~rename:p1 a in
  Alcotest.check Alcotest.int "nothing quantified" a r_small;
  let expected = Bdd.transform_unfused m ~rel:Bdd.top ~quant:vs_big ~rename:p0 a in
  Alcotest.check Alcotest.int "x0 quantified" Bdd.top expected;
  Alcotest.check Alcotest.int "fused = unfused past 2^16 varsets" expected
    (Bdd.transform m ~rel:Bdd.top ~quant:vs_big ~rename:p0 a)

(* Levels are stored in 32 bits and restrict literals [2v + b] in 27, so a
   manager over more than 2^26 variables is refused up front. (The 2^31 node
   id limit is not exercised: reaching it takes a 24 GB node table.) *)
let limits_refused () =
  Alcotest.check_raises "too many variables"
    (Invalid_argument "Bdd.create: nvars") (fun () ->
      ignore (Bdd.create ~nvars:((1 lsl 26) + 1) ()));
  let m = Bdd.create ~nvars:4 () in
  Alcotest.check_raises "restrict level out of range"
    (Invalid_argument "Bdd.restrict") (fun () ->
      ignore (Bdd.restrict m 4 true (Bdd.var m 0)))

(* A random program over registers holding functions of the unprimed
   (even) levels of an interleaved layout, so every operation's
   preconditions hold. Operand indices are taken modulo the register
   count. *)
type instr =
  | Iand of int * int
  | Ior of int * int
  | Ixor of int * int
  | Idiff of int * int
  | Inot of int
  | Iexists of int * int
  | Ireplace of int
  | Itransform of int * int * int
  | Irestrict of int * bool * int
  | Icompose of int

let ks = 6 (* unprimed levels 0, 2, .., 10; primed 1, 3, .., 11 *)

let instr_gen =
  QCheck.Gen.(
    let r = int_bound 63 in
    frequency
      [ (3, map2 (fun a b -> Iand (a, b)) r r);
        (3, map2 (fun a b -> Ior (a, b)) r r);
        (2, map2 (fun a b -> Ixor (a, b)) r r);
        (2, map2 (fun a b -> Idiff (a, b)) r r);
        (1, map (fun a -> Inot a) r);
        (1, map2 (fun v a -> Iexists (v, a)) (int_bound 2) r);
        (1, map (fun a -> Ireplace a) r);
        (2, map3 (fun x y a -> Itransform (x, y, a)) r r r);
        (1, map3 (fun k b a -> Irestrict (k, b, a)) (int_bound (ks - 1)) bool r);
        (1, map (fun a -> Icompose a) r) ])

let instr_print = function
  | Iand (a, b) -> Printf.sprintf "and %d %d" a b
  | Ior (a, b) -> Printf.sprintf "or %d %d" a b
  | Ixor (a, b) -> Printf.sprintf "xor %d %d" a b
  | Idiff (a, b) -> Printf.sprintf "diff %d %d" a b
  | Inot a -> Printf.sprintf "not %d" a
  | Iexists (v, a) -> Printf.sprintf "exists vs%d %d" v a
  | Ireplace a -> Printf.sprintf "replace %d" a
  | Itransform (x, y, a) -> Printf.sprintf "transform %d %d %d" x y a
  | Irestrict (k, b, a) -> Printf.sprintf "restrict x%d=%b %d" (2 * k) b a
  | Icompose a -> Printf.sprintf "compose %d" a

let program_arb =
  QCheck.make
    ~print:(fun l -> String.concat "; " (List.map instr_print l))
    QCheck.Gen.(list_size (int_range 1 80) instr_gen)

(* Runs a program in a fresh manager and returns every intermediate
   result in order, plus the final node count. *)
let run_program ~cache_bits prog =
  let m = Bdd.create ~cache_bits ~nvars:(2 * ks) () in
  let unprimed = List.init ks (fun k -> 2 * k) in
  let quants =
    [| Bdd.varset m [ 0; 2 ]; Bdd.varset m [ 4; 8; 10 ]; Bdd.varset m unprimed |]
  in
  let to_primed = Bdd.perm m (List.map (fun u -> (u, u + 1)) unprimed) in
  let to_unprimed = Bdd.perm m (List.map (fun u -> (u + 1, u)) unprimed) in
  let swap = Bdd.perm m [ (0, 6); (6, 0); (2, 4); (4, 2) ] in
  let regs = ref (Array.of_list (List.map (Bdd.var m) unprimed)) in
  let reg i = !regs.(i mod Array.length !regs) in
  let step = function
    | Iand (a, b) -> Bdd.band m (reg a) (reg b)
    | Ior (a, b) -> Bdd.bor m (reg a) (reg b)
    | Ixor (a, b) -> Bdd.bxor m (reg a) (reg b)
    | Idiff (a, b) -> Bdd.bdiff m (reg a) (reg b)
    | Inot a -> Bdd.bnot m (reg a)
    | Iexists (v, a) -> Bdd.exists m quants.(v) (reg a)
    | Ireplace a -> Bdd.replace m to_unprimed (Bdd.replace m to_primed (reg a))
    | Itransform (x, y, a) ->
      let rel = Bdd.band m (reg x) (Bdd.replace m to_primed (reg y)) in
      Bdd.transform m ~rel ~quant:quants.(2) ~rename:to_unprimed (reg a)
    | Irestrict (k, b, a) -> Bdd.restrict m (2 * k) b (reg a)
    | Icompose a -> Bdd.compose_perm m swap (reg a)
  in
  let results =
    List.map
      (fun i ->
        let r = step i in
        regs := Array.append !regs [| r |];
        r)
      prog
  in
  (results, Bdd.node_count m)

(* Node ids are a function of the operation sequence alone: the op cache
   decides only what is recomputed, and a recomputation finds every node
   it builds already in the unique table. *)
let node_ids_cache_independent =
  qtest "node ids independent of cache size" program_arb (fun prog ->
      run_program ~cache_bits:1 prog = run_program ~cache_bits:16 prog)

(* Random functions over 16 levels, built from truth tables, push a manager
   past four node-table doublings (1024 -> 16384 slots) and several
   unique-table rehashes (4096 buckets at 3/4 load). Both cache shapes must
   build the same nodes, export the same bytes, and agree with the tables. *)
let growth_identical_across_cache_shapes () =
  let nv = 16 in
  let rng = Random.State.make [| 18 |] in
  let tf = Array.init (1 lsl nv) (fun _ -> Random.State.bool rng) in
  let tg = Array.init (1 lsl nv) (fun _ -> Random.State.bool rng) in
  let rec of_table m t lvl off =
    if lvl = nv then if t.(off) then Bdd.top else Bdd.bot
    else
      let half = 1 lsl (nv - 1 - lvl) in
      Bdd.ite_raw m lvl (of_table m t (lvl + 1) off) (of_table m t (lvl + 1) (off + half))
  in
  let build cache_bits =
    let m = Bdd.create ~cache_bits ~nvars:nv () in
    let f = of_table m tf 0 0 and g = of_table m tg 0 0 in
    let roots =
      [ f; g; Bdd.band m f g; Bdd.bxor m f g; Bdd.bor m f (Bdd.bnot m g);
        Bdd.bdiff m g f ]
    in
    (m, roots)
  in
  let m1, roots1 = build 1 and m16, roots16 = build 16 in
  Alcotest.check Alcotest.bool "past four node-table doublings" true
    (Bdd.node_count m1 > 8192);
  Alcotest.check (Alcotest.list Alcotest.int) "same root ids" roots16 roots1;
  Alcotest.check Alcotest.int "same node count" (Bdd.node_count m16) (Bdd.node_count m1);
  Alcotest.check Alcotest.string "export byte-identical"
    (Marshal.to_string (Bdd.export m16 roots16) [])
    (Marshal.to_string (Bdd.export m1 roots1) []);
  let expected =
    [ (fun a -> tf.(a)); (fun a -> tg.(a)); (fun a -> tf.(a) && tg.(a));
      (fun a -> tf.(a) <> tg.(a)); (fun a -> tf.(a) || not tg.(a));
      (fun a -> tg.(a) && not tf.(a)) ]
  in
  let agree m roots =
    List.for_all2
      (fun root truth ->
        let ok = ref true in
        for a = 0 to (1 lsl nv) - 1 do
          let env lvl = (a lsr (nv - 1 - lvl)) land 1 = 1 in
          if Bdd.eval m root env <> truth a then ok := false
        done;
        !ok)
      roots expected
  in
  Alcotest.check Alcotest.bool "cache_bits 1 matches truth tables" true (agree m1 roots1);
  Alcotest.check Alcotest.bool "cache_bits 16 matches truth tables" true
    (agree m16 roots16)

let suites =
  [ ( "bdd.core",
      [ Alcotest.test_case "units" `Quick units;
        Alcotest.test_case "growth" `Quick node_growth;
        semantics; canonicity; de_morgan; double_negation; diff_is_and_not;
        intersects_is_and; leq_is_diff ] );
    ( "bdd.quantify",
      [ exists_semantics; exists_removes_support; and_exists_fusion;
        replace_shift; transform_fused_matches_unfused;
        Alcotest.test_case "transform codes are injective" `Quick
          transform_codes_injective ] );
    ( "bdd.storage",
      [ Alcotest.test_case "limits are refused" `Quick limits_refused;
        node_ids_cache_independent;
        Alcotest.test_case "growth identical across cache shapes" `Quick
          growth_identical_across_cache_shapes ] );
    ( "bdd.sat",
      [ sat_count_matches; any_sat_satisfies; restrict_semantics;
        pick_preferred_subset ] ) ]
