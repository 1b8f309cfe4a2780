(** Synthetic network generator.

    Stands in for the paper's 11 proprietary real networks (Table 1): each
    profile deterministically emits {e vendor configuration text} (Cisco-IOS,
    Arista-EOS and Junos flavours) plus an environment of external BGP
    announcements, so the entire pipeline — parsing, VI conversion,
    simulation, verification — runs exactly as it would on real configs. *)

type network = {
  n_name : string;
  n_type : string;  (** Table 1 "type" column *)
  n_configs : (string * string) list;  (** (filename, config text) *)
  n_env : Dp_env.t;
}

val device_count : network -> int

(** Total configuration lines (Table 1 "LoC"). *)
val config_lines : network -> int

(** {2 Topology families} *)

(** Two-tier leaf-spine eBGP fabric (RFC 7938 style), ECMP, host subnets on
    leaves, ACL-protected edge. *)
val clos : name:string -> spines:int -> leaves:int -> unit -> network

(** Three-tier fabric: superspines, per-pod spines, leaves. *)
val clos3 : name:string -> pods:int -> pod_spines:int -> pod_leaves:int -> superspines:int -> unit -> network

(** Enterprise: OSPF backbone + areas, iBGP route reflectors over loopbacks,
    dual borders with eBGP to ISPs, NAT, a zone-based firewall, route maps
    with communities/prefix lists, one Junos site. *)
val enterprise : name:string -> sites:int -> unit -> network

(** Service-provider WAN: OSPF ring + chords, route reflectors, customers as
    external peers with community-based policy. *)
val wan : name:string -> pops:int -> unit -> network

(** Campus: multi-area OSPF, building routers (some Junos), static routes. *)
val campus : name:string -> buildings:int -> unit -> network

(** Two fabrics providing backup connectivity to each other. *)
val paired_dc : name:string -> spines:int -> leaves:int -> unit -> network

(** HA ToR-group fabric: [slots] redundancy groups of [members]
    template-stamped ToRs behind [spines]. Each member carries [ports]
    identically-configured access interfaces (default 1); the standbys are
    configuration-identical clones of the active sharing its addressing
    (VRRP/MLAG style), with deterministic first-owner gateway resolution
    electing the active, so all-pairs can share one pass across a device's
    access ports.
    Static routing throughout. *)
val clos_ha :
  ?ports:int ->
  name:string -> spines:int -> slots:int -> members:int -> unit -> network

(** The two Figure 1(b) border routers (mutual-export pattern). *)
val fig1b : unit -> network

(** {2 The benchmark profiles (Table 1 stand-ins)}

    NET1..NET11 mirror the paper's Table 1; NET12/NET13 are scale-sweep
    fabrics. NET12 is the HA ToR-group clos ([clos_ha]) reaching ~500
    devices at scale 4 and ~1000 at scale 8 (the grouping
    benchmark shape); NET13 is the 3-tier variant. [scale] multiplies
    device counts (1.0 = the default laptop-friendly sizes; larger values
    approach the paper's). *)

type profile = {
  p_name : string;
  p_type : string;
  p_vendors : string;
  p_protocols : string;
  p_make : float -> network;
}

val profiles : profile list
