
type order = Paper_order | Reversed_fields | Lsb_first

type t = {
  man : Bdd.man;
  order : order;
  flevels : (Field.t, int array) Hashtbl.t;  (* MSB first *)
  fprimed : (Field.t, int array) Hashtbl.t;
  extra_base : int;
  extra_count : int;
  level_field : (Field.t * int) option array;  (* level -> (field, msb-index) *)
  quant_unprimed : Bdd.varset;
  quant_primed : Bdd.varset;
  to_unprimed : Bdd.perm;
  to_primed : Bdd.perm;
  identity_cache : (Field.t, Bdd.t) Hashtbl.t;
  mutable swap_perm : Bdd.perm option;
  extra_varsets : (int list, Bdd.varset) Hashtbl.t;  (* keyed by levels *)
}

let field_sequence order =
  match order with
  | Paper_order | Lsb_first -> Field.all
  | Reversed_fields -> List.rev Field.all

let create ?(order = Paper_order) ?(extra_bits = 8) () =
  let nvars = Field.total_vars + extra_bits in
  let man = Bdd.create ~nvars () in
  let flevels = Hashtbl.create 16 in
  let fprimed = Hashtbl.create 8 in
  let level_field = Array.make nvars None in
  let off = ref 0 in
  let assign f =
    let bits = Field.bits f in
    if Field.transformable f then begin
      let base = !off in
      Hashtbl.add flevels f (Array.init bits (fun i -> base + (2 * i)));
      Hashtbl.add fprimed f (Array.init bits (fun i -> base + (2 * i) + 1));
      off := base + (2 * bits)
    end
    else begin
      Hashtbl.add flevels f (Array.init bits (fun i -> !off + i));
      off := !off + bits
    end
  in
  let seq = field_sequence order in
  (* Transformable fields keep their interleaved pairs in every order; the
     order variants permute fields and (for Lsb_first) bit significance. *)
  List.iter (fun f -> if Field.transformable f then assign f) seq;
  List.iter (fun f -> if not (Field.transformable f) then assign f) seq;
  assert (!off = Field.total_vars);
  (if order = Lsb_first then
     let flip tbl =
       Hashtbl.iter
         (fun f arr ->
           Hashtbl.replace tbl f (Array.init (Array.length arr) (fun i -> arr.(Array.length arr - 1 - i))))
         (Hashtbl.copy tbl)
     in
     flip flevels;
     flip fprimed);
  Hashtbl.iter
    (fun f arr -> Array.iteri (fun i lvl -> level_field.(lvl) <- Some (f, i)) arr)
    flevels;
  let unprimed_levels =
    List.concat_map
      (fun f -> if Field.transformable f then Array.to_list (Hashtbl.find flevels f) else [])
      Field.all
  and primed_levels =
    List.concat_map
      (fun f -> if Field.transformable f then Array.to_list (Hashtbl.find fprimed f) else [])
      Field.all
  in
  let pairs = List.combine unprimed_levels primed_levels in
  { man; order; flevels; fprimed;
    extra_base = Field.total_vars; extra_count = extra_bits;
    level_field;
    quant_unprimed = Bdd.varset man unprimed_levels;
    quant_primed = Bdd.varset man primed_levels;
    to_unprimed = Bdd.perm man (List.map (fun (u, p) -> (p, u)) pairs);
    to_primed = Bdd.perm man pairs;
    identity_cache = Hashtbl.create 8; swap_perm = None;
    extra_varsets = Hashtbl.create 8 }

let man env = env.man
let order env = env.order
let levels env f = Hashtbl.find env.flevels f
let primed env f = Hashtbl.find env.fprimed f
let extra_count env = env.extra_count

(* A fresh environment with its own private manager but the same variable
   layout (order + extra bits). Since the layout is a pure function of those
   two parameters, BDD levels mean the same thing in both environments, so
   BDDs exported from one manager can be imported into the other. *)
let clone_empty env = create ~order:env.order ~extra_bits:env.extra_count ()

let extra_level env i =
  if i < 0 || i >= env.extra_count then invalid_arg "Pktset.extra_level";
  env.extra_base + i

let extra env i = Bdd.var env.man (extra_level env i)

(* Varsets over extra bits are built on first use and kept for the life of
   the environment (and so of its manager): a varset minted per call — or
   per forwarding graph — would take a fresh manager id each time, for good,
   and never hit the op cache on a repeated query. *)
let extra_varset env bits =
  let levels = List.map (extra_level env) bits in
  match Hashtbl.find_opt env.extra_varsets levels with
  | Some vs -> vs
  | None ->
    let vs = Bdd.varset env.man levels in
    Hashtbl.add env.extra_varsets levels vs;
    vs

let strip_extra env i set = Bdd.exists env.man (extra_varset env [ i ]) set

let strip_extras env set =
  Bdd.exists env.man (extra_varset env (List.init env.extra_count Fun.id)) set

let value_on env lvls v =
  let bits = Array.length lvls in
  let acc = ref Bdd.top in
  for i = bits - 1 downto 0 do
    let lit =
      if (v lsr (bits - 1 - i)) land 1 = 1 then Bdd.var env.man lvls.(i)
      else Bdd.nvar env.man lvls.(i)
    in
    acc := Bdd.band env.man lit !acc
  done;
  !acc

let value env f v = value_on env (levels env f) v

let prefix_on env lvls p =
  let len = Prefix.length p and net = Prefix.network p in
  let acc = ref Bdd.top in
  for i = len - 1 downto 0 do
    let lit =
      if Ipv4.bit net i then Bdd.var env.man lvls.(i) else Bdd.nvar env.man lvls.(i)
    in
    acc := Bdd.band env.man lit !acc
  done;
  !acc

let ip_prefix env f p = prefix_on env (levels env f) p
let dst_prefix env p = ip_prefix env Field.Dst_ip p
let src_prefix env p = ip_prefix env Field.Src_ip p

let range_on env lvls lo hi =
  let bits = Array.length lvls in
  let rec ge i =
    (* x(i..) >= lo(i..) *)
    if i = bits then Bdd.top
    else if (lo lsr (bits - 1 - i)) land 1 = 1 then
      Bdd.band env.man (Bdd.var env.man lvls.(i)) (ge (i + 1))
    else Bdd.bor env.man (Bdd.var env.man lvls.(i)) (ge (i + 1))
  in
  let rec le i =
    if i = bits then Bdd.top
    else if (hi lsr (bits - 1 - i)) land 1 = 0 then
      Bdd.band env.man (Bdd.nvar env.man lvls.(i)) (le (i + 1))
    else Bdd.bor env.man (Bdd.nvar env.man lvls.(i)) (le (i + 1))
  in
  Bdd.band env.man (ge 0) (le 0)

let range env f lo hi =
  let maxv = (1 lsl Field.bits f) - 1 in
  if lo > hi || lo < 0 || hi > maxv then invalid_arg "Pktset.range";
  if lo = 0 && hi = maxv then Bdd.top
  else if lo = hi then value env f lo
  else range_on env (levels env f) lo hi

let tcp_flag env mask =
  let k =
    let rec log2 m i = if m <= 1 then i else log2 (m lsr 1) (i + 1) in
    log2 mask 0
  in
  if mask <> 1 lsl k || k > 7 then invalid_arg "Pktset.tcp_flag";
  let lvls = levels env Field.Tcp_flags in
  Bdd.var env.man lvls.(7 - k)

let of_packet env pkt =
  List.fold_left
    (fun acc f -> Bdd.band env.man acc (value env f (Field.value_of_packet pkt f)))
    Bdd.top Field.all

let mem env set pkt =
  Bdd.eval env.man set (fun lvl ->
      match env.level_field.(lvl) with
      | Some (f, i) ->
        let v = Field.value_of_packet pkt f in
        (v lsr (Field.bits f - 1 - i)) land 1 = 1
      | None -> false)

(* Packet transformations ---------------------------------------------- *)

type rewrite = Set_value of int | Set_prefix of Prefix.t | Set_range of int * int

let identity_rel env f =
  match Hashtbl.find_opt env.identity_cache f with
  | Some id -> id
  | None ->
    let u = levels env f and p = primed env f in
    let acc = ref Bdd.top in
    for i = Array.length u - 1 downto 0 do
      let eq =
        Bdd.bnot env.man (Bdd.bxor env.man (Bdd.var env.man u.(i)) (Bdd.var env.man p.(i)))
      in
      acc := Bdd.band env.man eq !acc
    done;
    Hashtbl.add env.identity_cache f !acc;
    !acc

let rel env ~guard rewrites =
  List.iter
    (fun (f, _) -> if not (Field.transformable f) then invalid_arg "Pktset.rel")
    rewrites;
  let rewritten f = List.mem_assoc f rewrites in
  let constraint_for (f, rw) =
    let p = primed env f in
    match rw with
    | Set_value v -> value_on env p v
    | Set_prefix pre -> prefix_on env p pre
    | Set_range (lo, hi) -> range_on env p lo hi
  in
  let keep =
    List.filter_map
      (fun f -> if Field.transformable f && not (rewritten f) then Some (identity_rel env f) else None)
      Field.all
  in
  Bdd.conj env.man (guard :: (List.map constraint_for rewrites @ keep))

let apply_rel env r set =
  Bdd.transform env.man ~rel:r ~quant:env.quant_unprimed ~rename:env.to_unprimed set

let apply_rel_unfused env r set =
  Bdd.transform_unfused env.man ~rel:r ~quant:env.quant_unprimed ~rename:env.to_unprimed set

let apply_rel_reverse env r out_set =
  let shifted = Bdd.replace env.man env.to_primed out_set in
  Bdd.and_exists env.man env.quant_primed r shifted

(* Return-flow matching for bidirectional reachability: swap the source and
   destination fields (addresses and ports). Uses the arbitrary-permutation
   compose, since the swap violates the variable order. The permutation is
   built once per environment. *)
let swap_perm_of env =
  let pairs a b =
    let la = levels env a and lb = levels env b in
    Array.to_list (Array.mapi (fun i l -> (l, lb.(i))) la)
    @ Array.to_list (Array.mapi (fun i l -> (l, la.(i))) lb)
  in
  Bdd.perm env.man (pairs Field.Src_ip Field.Dst_ip @ pairs Field.Src_port Field.Dst_port)

let swap_src_dst env set =
  let pm =
    match env.swap_perm with
    | Some pm -> pm
    | None ->
      let pm = swap_perm_of env in
      env.swap_perm <- Some pm;
      pm
  in
  Bdd.compose_perm env.man pm set

(* Example extraction ---------------------------------------------------- *)

let standard_prefs env ?src_prefix:sp ?dst_prefix:dp () =
  let v = value env in
  let base =
    [ v Field.Protocol Packet.Proto.tcp;
      v Field.Dst_port 80;
      v Field.Tcp_flags Packet.Tcp_flags.syn;
      range env Field.Src_port 49152 65535;
      v Field.Dscp 0; v Field.Ecn 0; v Field.Fragment_offset 0;
      v Field.Packet_length 512 ]
  in
  let hint f = function
    | Some p -> [ ip_prefix env f p ]
    | None -> []
  in
  hint Field.Src_ip sp @ hint Field.Dst_ip dp @ base
  @ [ v Field.Protocol Packet.Proto.udp; v Field.Protocol Packet.Proto.icmp ]

let to_packet env ?(prefs = []) set =
  let set = Bdd.pick_preferred env.man set prefs in
  match Bdd.any_sat env.man set with
  | None -> None
  | Some assignment ->
    let values = Array.make Field.count 0 in
    List.iter
      (fun (lvl, b) ->
        match env.level_field.(lvl) with
        | Some (f, i) when b ->
          let k = Field.index f in
          values.(k) <- values.(k) lor (1 lsl (Field.bits f - 1 - i))
        | Some _ | None -> ())
      assignment;
    let g f = values.(Field.index f) in
    Some
      { Packet.src_ip = g Field.Src_ip; dst_ip = g Field.Dst_ip;
        protocol = g Field.Protocol; src_port = g Field.Src_port;
        dst_port = g Field.Dst_port; icmp_type = g Field.Icmp_type;
        icmp_code = g Field.Icmp_code; tcp_flags = g Field.Tcp_flags;
        dscp = g Field.Dscp; ecn = g Field.Ecn;
        fragment_offset = g Field.Fragment_offset;
        packet_length = g Field.Packet_length }
