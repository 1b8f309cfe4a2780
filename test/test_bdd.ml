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

let suites =
  [ ( "bdd.core",
      [ Alcotest.test_case "units" `Quick units;
        Alcotest.test_case "growth" `Quick node_growth;
        semantics; canonicity; de_morgan; double_negation; diff_is_and_not;
        intersects_is_and; leq_is_diff ] );
    ( "bdd.quantify",
      [ exists_semantics; exists_removes_support; and_exists_fusion;
        replace_shift; transform_fused_matches_unfused ] );
    ( "bdd.sat",
      [ sat_count_matches; any_sat_satisfies; restrict_semantics;
        pick_preferred_subset ] ) ]
