(** The shared blackboard of the broadcast model (Section 3).

    An append-only log of bit-string writes. Every player can read the
    whole board for free; writing is charged per bit. The experiment
    harnesses read the communication cost of a run straight off the
    board, so no protocol can under-count its own communication.

    Messages are stored packed: a posted write holds the
    {!Coding.Bitvec.t} frozen out of the writer (zero-copy), never a
    boxed per-bit structure. *)

type t

type write = {
  player : int;  (** who wrote *)
  vec : Coding.Bitvec.t;  (** the payload, packed, in board order *)
  label : string;  (** free-form tag for traces ("pass", "batch", ...) *)
}

val create : k:int -> t
(** A fresh board for [k] players. *)

val players : t -> int

val uncharged_fork : t -> t
(** A copy holding the same writes, in O(k): later posts to either board
    do not show on the other. Posts to the fork emit no [Broadcast]
    trace event and bump no ["board.*"] metric, so it can hold
    speculative writes (the pipelined [Netsim.Board_emu] computes a
    wave's payloads on one) without charging them twice. *)

val post : t -> player:int -> ?label:string -> Coding.Bitbuf.Writer.t -> unit
(** Append a write, freezing the writer in O(1) (it cannot be appended
    to afterwards). @raise Invalid_argument for an out-of-range
    player. *)

val post_vec : t -> player:int -> ?label:string -> Coding.Bitvec.t -> unit
(** Append an already-frozen payload. *)

val writes : t -> write list
(** All writes, oldest first. *)

val rev_writes : t -> write list
(** All writes, newest first, in O(1). The list is immutable, so the
    board's list at [n] writes stays, physically ([==]), the tail of
    every later list of the board and of its forks. *)

val total_bits : t -> int

val write_count : t -> int
(** The number of writes, in O(1). *)

val bits_by : t -> int -> int
(** Bits contributed by one player. *)

val last_write : t -> write option

val equal : t -> t -> bool
(** Byte-identical boards: same player count and the same sequence of
    writes (speaker, packed payload, label). This is the totality
    check's notion of "the emulation delivered the same board". *)

val reader_of_write : write -> Coding.Bitbuf.Reader.t
(** Re-read a write's payload (what the other players do). Zero-copy:
    a cursor over the stored packed vector. *)

val pp : Format.formatter -> t -> unit
