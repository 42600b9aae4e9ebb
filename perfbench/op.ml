(* One benchmark operation: a call (or query) into a layer plus the
   check of its output. *)

type outcome = {
  ok : bool;  (** the output passed its check *)
  bits : float;  (** contribution to the workload's [comm_bits] *)
  err : float;  (** absolute deviation from a float reference *)
}

let outcome ?(bits = 0.) ?(err = 0.) ok = { ok; bits; err }

type t = { label : string; run : unit -> outcome }

let make label run = { label; run }

(* Runner-side counters read by the traced run: memo sizes, profile
   counts, network ratios. Reset before every pass. *)
let counters : (string, float) Hashtbl.t = Hashtbl.create 16

let note name v =
  Hashtbl.replace counters name
    (v +. Option.value ~default:0. (Hashtbl.find_opt counters name))

let counter name = Option.value ~default:0. (Hashtbl.find_opt counters name)

(* Independent sub-seeds of the workload seed, one per named stream. *)
let rng ~seed salt = Prob.Rng.of_int_seed (Hashtbl.hash (seed, salt))
let sub_seed ~seed salt = Hashtbl.hash (seed, salt) land 0x3fff_ffff
