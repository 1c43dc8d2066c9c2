//! Typed per-node round executors: the backend-independent protocol
//! surface.
//!
//! A [`RoundExecuter`] binds one node's [`Protocol`] state to its private
//! RNG stream and exposes the round phases as *typed message I/O*: every
//! phase method consumes plain data (a [`Scan`], a payload) and returns
//! plain data (a [`Tag`], an [`Action`], an acceptance index). Nothing in
//! this module knows how rounds are scheduled — that is a backend's job —
//! so the same executors drive both
//!
//! * the **lockstep backend** ([`crate::Engine`]): global synchronized
//!   rounds, batched over struct-of-arrays state for the hot path; and
//! * the **event backend** ([`crate::event::EventEngine`]): a discrete-event
//!   simulation with per-link latencies and no global round clock, which
//!   owns a `Vec<RoundExecuter<P>>` and calls these methods one event at a
//!   time.
//!
//! The split follows tofn's `RoundExecuter`/`ProtocolBuilder` idiom
//! (SNIPPETS.md §2–3): protocol logic produces and consumes messages as
//! values; the engine that moves those messages is swappable.
//!
//! # RNG binding is part of the determinism contract
//!
//! [`ExecutorSet::spawn`] is the **single definition** of the node↔stream
//! binding: node `u` executes on `stream_rng(seed, u)`, and every random
//! choice a node makes — advertise, act, the acceptance draw when it
//! listens — comes from its own executor's stream. Backends may not draw
//! node randomness from anywhere else. The lockstep engine's recorded
//! tables depend on the exact draw order within a round (see the
//! [`crate::engine`] module docs); the event backend interleaves the same
//! per-node streams in event order instead, which is its own recorded
//! semantics.

use mtm_graph::NodeId;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::model::Tag;
use crate::protocol::{Action, Protocol, Scan};

/// The uniform acceptance draw shared by every backend: a listener with
/// `k ≥ 1` buffered proposals accepts index `gen_range(0..k)` from its own
/// stream — except that `k = 1` consumes **no** randomness (part of the
/// recorded RNG contract; both engine paths and the trace-equivalence
/// reference implement exactly this rule).
#[inline]
pub fn uniform_accept_index(rng: &mut SmallRng, k: usize) -> usize {
    debug_assert!(k >= 1, "acceptance draw over an empty proposal set");
    if k == 1 {
        0
    } else {
        rng.gen_range(0..k)
    }
}

/// One node's typed round executor: protocol state + its private RNG
/// stream, with each phase exposed as data-in/data-out.
pub struct RoundExecuter<P: Protocol> {
    proto: P,
    rng: SmallRng,
}

impl<P: Protocol> RoundExecuter<P> {
    /// Split back into `(protocol, rng)` — the lockstep engine stores the
    /// two halves in parallel arrays so its phase loops stream linearly.
    pub fn into_parts(self) -> (P, SmallRng) {
        (self.proto, self.rng)
    }

    /// Phase 1: choose this round's advertising tag (out-message: the tag
    /// posted to the whole neighborhood).
    #[inline]
    pub fn advertise(&mut self, local_round: u64) -> Tag {
        self.proto.advertise(local_round, &mut self.rng)
    }

    /// Phase 3: act on a scan — the out-message is either one proposal
    /// ([`Action::Propose`]) or the decision to listen.
    #[inline]
    pub fn act(&mut self, scan: &Scan<'_>) -> Action {
        self.proto.act(scan, &mut self.rng)
    }

    /// Phase 4 (listener side): resolve `k` buffered proposals to the index
    /// of the accepted one, drawing from this node's own stream (see
    /// [`uniform_accept_index`]).
    #[inline]
    pub fn accept_index(&mut self, k: usize) -> usize {
        uniform_accept_index(&mut self.rng, k)
    }

    /// Phase 4 (listener side, §VI selection-permutation device): shuffle
    /// the candidate neighbor list with this node's stream; the caller
    /// accepts the buffered proposer that ranks first.
    #[inline]
    pub fn shuffle_candidates(&mut self, candidates: &mut [NodeId]) {
        candidates.shuffle(&mut self.rng);
    }

    /// Phase 4a: the payload this node attaches to a connection
    /// (out-message data; computed before any delivery of the round).
    #[inline]
    pub fn payload(&self) -> P::Payload {
        self.proto.payload()
    }

    /// Phase 4b: take delivery of a peer's payload (in-message data).
    #[inline]
    pub fn deliver(&mut self, peer: &P::Payload) {
        self.proto.on_connect(peer, &mut self.rng);
    }

    /// Phase 5: end-of-round bookkeeping.
    #[inline]
    pub fn end_round(&mut self, local_round: u64) {
        self.proto.end_round(local_round, &mut self.rng);
    }

    /// The node's durable-state digest (see
    /// [`Protocol::state_fingerprint`]).
    #[inline]
    pub fn fingerprint(&self) -> Option<u64> {
        self.proto.state_fingerprint()
    }

    /// Read access to the protocol state.
    #[inline]
    pub fn protocol(&self) -> &P {
        &self.proto
    }

    /// Consume the executor, returning the protocol state.
    pub fn into_protocol(self) -> P {
        self.proto
    }
}

/// The full network's executors — the analog of tofn's `ProtocolBuilder`:
/// constructed once from `(protocols, seed)`, then handed to a backend.
/// Backends derive their *non-node* randomness (loss coins, latency draws)
/// from dedicated sub-streams of the same seed, so node streams are never
/// perturbed.
pub struct ExecutorSet<P: Protocol> {
    execs: Vec<RoundExecuter<P>>,
}

impl<P: Protocol> ExecutorSet<P> {
    /// Spawn one executor per protocol instance. Node `u` is bound to RNG
    /// stream `stream_rng(seed, u)` — the canonical binding every backend
    /// inherits by construction.
    pub fn spawn(protocols: Vec<P>, seed: u64) -> Self {
        let execs = protocols
            .into_iter()
            .enumerate()
            .map(|(u, proto)| RoundExecuter {
                proto,
                rng: mtm_graph::rng::stream_rng(seed, u as u64),
            })
            .collect();
        ExecutorSet { execs }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.execs.len()
    }

    /// True iff the set is empty.
    pub fn is_empty(&self) -> bool {
        self.execs.is_empty()
    }

    /// The per-node executors, consuming the set.
    pub fn into_executors(self) -> Vec<RoundExecuter<P>> {
        self.execs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::PayloadCost;
    use rand::SeedableRng;

    struct Probe {
        best: u64,
        ended: u64,
    }

    #[derive(Clone)]
    struct P64(u64);
    impl PayloadCost for P64 {
        fn uid_count(&self) -> u32 {
            1
        }
        fn extra_bits(&self) -> u32 {
            0
        }
    }

    impl Protocol for Probe {
        type Payload = P64;
        fn advertise(&mut self, _lr: u64, _rng: &mut SmallRng) -> Tag {
            Tag::EMPTY
        }
        fn act(&mut self, scan: &Scan<'_>, _rng: &mut SmallRng) -> Action {
            if scan.is_empty() {
                Action::Listen
            } else {
                Action::Propose(scan.neighbors[0])
            }
        }
        fn payload(&self) -> P64 {
            P64(self.best)
        }
        fn on_connect(&mut self, peer: &P64, _rng: &mut SmallRng) {
            self.best = self.best.min(peer.0);
        }
        fn end_round(&mut self, _lr: u64, _rng: &mut SmallRng) {
            self.ended += 1;
        }
    }

    #[test]
    fn executor_routes_phases_to_protocol() {
        let set = ExecutorSet::spawn(vec![Probe { best: 9, ended: 0 }], 7);
        assert_eq!(set.len(), 1);
        let mut ex = set.into_executors().pop().expect("one executor was spawned");
        assert_eq!(ex.advertise(1), Tag::EMPTY);
        let nbrs = [3u32];
        let scan = Scan { neighbors: &nbrs, tags: &[], round: 1, local_round: 1 };
        assert_eq!(ex.act(&scan), Action::Propose(3));
        ex.deliver(&P64(4));
        ex.end_round(1);
        assert_eq!(ex.payload().0, 4);
        let proto = ex.into_protocol();
        assert_eq!(proto.ended, 1);
    }

    #[test]
    fn spawn_binds_canonical_streams() {
        // The executor's stream must be exactly stream_rng(seed, u): draws
        // from the two must coincide.
        let set =
            ExecutorSet::spawn(vec![Probe { best: 0, ended: 0 }, Probe { best: 1, ended: 0 }], 42);
        for (u, ex) in set.into_executors().into_iter().enumerate() {
            let (_, mut rng) = ex.into_parts();
            let mut reference = mtm_graph::rng::stream_rng(42, u as u64);
            for _ in 0..8 {
                assert_eq!(rng.gen::<u64>(), reference.gen::<u64>());
            }
        }
    }

    #[test]
    fn accept_index_draw_rule() {
        // k = 1 consumes no randomness; k > 1 draws gen_range(0..k).
        let mut a = SmallRng::seed_from_u64(5);
        let mut b = SmallRng::seed_from_u64(5);
        assert_eq!(uniform_accept_index(&mut a, 1), 0);
        assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "k = 1 must not advance the stream");
        let mut c = SmallRng::seed_from_u64(9);
        let mut d = SmallRng::seed_from_u64(9);
        assert_eq!(uniform_accept_index(&mut c, 5), d.gen_range(0..5));
    }
}
