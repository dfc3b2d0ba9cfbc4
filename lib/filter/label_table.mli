(** Bounded table of expiring flow-label entries.

    The paper gives each gateway two per-flow stores (§IV-B): nv = R1·Ttmp
    wire-speed filters and mv = R1·T DRAM shadow entries. Both are bounded
    sets of flow labels that expire; they differ only in lifetime, memory
    and the data each entry carries. This is that one table: {!Filter_table}
    is built on it, and the gateway keeps its shadow of filtering requests
    in it directly.

    Capacity is fixed at creation; inserts of new labels beyond it fail (and
    are counted). Each entry has exactly one pending expiry event. Lookup is
    one hash probe per exact host-pair label plus a scan of the few wildcard
    entries, most-specific-first. *)

open Aitf_net

type 'a t

type 'a entry

val create :
  ?on_remove:('a entry -> unit) ->
  Aitf_engine.Sim.t ->
  capacity:int ->
  expiry_label:string ->
  'a t
(** [capacity] must be positive. [expiry_label] names the expiry events in
    the simulator's profile. [on_remove] runs exactly once per entry,
    however it leaves (removal, expiry or eviction), after it is unlinked. *)

val insert :
  'a t -> Flow_label.t -> expires_at:float -> 'a -> ('a entry, [ `Full ]) result
(** Remember a label, with its data, until [expires_at]. A live entry with
    the same label is refreshed instead: its expiry moves to the later of
    the two deadlines and is re-armed, and the entry is returned with its
    own data ([data] is dropped). Both count as an insert. A new label on a
    full table is refused and counted as rejected. *)

val extend : 'a t -> 'a entry -> expires_at:float -> unit
(** Push a live entry's expiry out to [expires_at] and re-arm it; a no-op
    when that would not extend it. *)

val remove : 'a t -> 'a entry -> unit
(** Drop now; idempotent, harmless after expiry. *)

val find : 'a t -> Flow_label.t -> 'a entry option
(** Live entry with exactly this label. *)

val match_packet : 'a t -> Packet.t -> 'a entry option
(** The live entry that acts on the packet: an exact host-pair label (any
    protocol, then the packet's protocol), else the first matching wildcard
    in most-specific-first order, ties broken by {!Flow_label.compare} — so
    the answer never depends on insertion order. *)

val select : 'a t -> ('a entry -> bool) -> 'a entry list
(** Live entries satisfying the predicate, sorted by label. *)

val live_entries : 'a t -> 'a entry list
(** Every live entry, sorted by label. *)

val sim : 'a t -> Aitf_engine.Sim.t
val data : 'a entry -> 'a
val label : 'a entry -> Flow_label.t
val inserted_at : 'a entry -> float
val expires_at : 'a entry -> float
val live : 'a entry -> bool

val occupancy : 'a t -> int
val capacity : 'a t -> int
val peak_occupancy : 'a t -> int

val inserts : 'a t -> int
(** Successful inserts, refreshes by {!insert} included. *)

val rejected : 'a t -> int
