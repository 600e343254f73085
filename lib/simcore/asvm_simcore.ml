(** Discrete-event simulation core for the ASVM reproduction.

    Everything above this layer — mesh network, transports, the Mach VM
    model, XMM and ASVM — is written against one [Engine], so a whole
    multicomputer run is a deterministic, single-threaded event loop. *)

module Event_queue = Event_queue
module Engine = Engine
module Station = Station
module Rng = Rng
module Stats = Stats
module Int_table = Int_table
