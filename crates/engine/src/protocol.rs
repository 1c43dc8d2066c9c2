//! The [`Protocol`] trait: what a distributed algorithm looks like to the
//! round executor.
//!
//! One `Protocol` value is the local state of one node. The engine drives
//! all nodes through the per-round phases described in the crate docs; all
//! randomness flows through the per-node RNG the engine passes in, which
//! keeps trials deterministic and lets the analysis-style independence
//! arguments (every node flips its own coins) hold by construction.

use mtm_graph::NodeId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::model::Tag;

/// What a node sees after scanning in a round: its *active* neighbors and
/// their advertised tags, plus round counters.
pub struct Scan<'a> {
    /// Active neighbors in this round's topology, ascending id order.
    /// Inactive (not-yet-activated) nodes are invisible, matching §VIII's
    /// activation semantics.
    pub neighbors: &'a [NodeId],
    /// `tags[i]` is the tag advertised by `neighbors[i]` this round. Empty
    /// slice when the model has `b = 0`.
    pub tags: &'a [Tag],
    /// Global engine round, 1-based. Only protocols that assume
    /// synchronized starts may key behaviour on this.
    pub round: u64,
    /// Rounds since this node activated, 1-based: the only counter
    /// available to asynchronous-activation protocols (§VIII).
    pub local_round: u64,
}

impl<'a> Scan<'a> {
    /// Tag of the `i`-th visible neighbor ([`Tag::EMPTY`] when `b = 0`).
    #[inline]
    pub fn tag_of(&self, i: usize) -> Tag {
        if self.tags.is_empty() {
            Tag::EMPTY
        } else {
            self.tags[i]
        }
    }

    /// Number of visible neighbors.
    #[inline]
    pub fn len(&self) -> usize {
        self.neighbors.len()
    }

    /// True iff no neighbor is visible.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.neighbors.is_empty()
    }
}

/// A node's decision after scanning.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// Send a connection proposal to this neighbor (must be visible in the
    /// scan). The node forfeits its ability to receive this round.
    Propose(NodeId),
    /// Receive: accept an incoming proposal per the model's policy.
    Listen,
}

/// Budget accounting for connection payloads. The engine debug-asserts each
/// exchanged payload against [`crate::model::ModelParams`]'s budget,
/// enforcing the problem statement's "O(1) UIDs and O(polylog N) additional
/// bits per connection".
pub trait PayloadCost {
    /// Number of UIDs this payload carries.
    fn uid_count(&self) -> u32;
    /// Non-UID payload bits.
    fn extra_bits(&self) -> u32;
}

/// The local algorithm run by each node.
pub trait Protocol: Send {
    /// Data exchanged over one connection (both directions symmetrically).
    type Payload: Clone + PayloadCost;

    /// Phase 1: choose this round's advertising tag. Must fit the model's
    /// `b` bits (engine-enforced). `local_round` is 1-based.
    fn advertise(&mut self, local_round: u64, rng: &mut SmallRng) -> Tag;

    /// Phase 3: act on the scan — propose to one visible neighbor or
    /// listen.
    fn act(&mut self, scan: &Scan<'_>, rng: &mut SmallRng) -> Action;

    /// Phase 4a: produce the payload to send if a connection forms this
    /// round. Called at most once per round, before any `on_connect`.
    fn payload(&self) -> Self::Payload;

    /// Phase 4b: receive the peer's payload over an established connection.
    /// Under the classical policy a node may receive several of these in
    /// one round.
    fn on_connect(&mut self, peer: &Self::Payload, rng: &mut SmallRng);

    /// Phase 5: end-of-round bookkeeping (e.g. bit-convergence nodes adopt
    /// pending ID pairs at phase boundaries). Default: nothing.
    fn end_round(&mut self, _local_round: u64, _rng: &mut SmallRng) {}

    /// A digest of this node's *durable* state, or `None` (the default)
    /// when the protocol does not support progress tracking.
    ///
    /// Consumed by the engine's stuck-run detector (see
    /// [`Engine::enable_stuck_detection`]): a window of rounds in which no
    /// node's fingerprint changes is evidence the run can no longer make
    /// progress. The digest must cover exactly the state whose change
    /// constitutes progress (e.g. the smallest ID pair seen so far) and
    /// must *exclude* per-round scratch that is re-randomized without
    /// reflecting progress (e.g. which bit position a node happens to be
    /// advertising this group) — including such scratch would make a
    /// deadlocked network look permanently busy. Build the digest with
    /// [`crate::fingerprint::of_words`]. Support must be constant over a
    /// node's lifetime: return `Some` always or `None` always.
    ///
    /// [`Engine::enable_stuck_detection`]: crate::Engine::enable_stuck_detection
    fn state_fingerprint(&self) -> Option<u64> {
        None
    }

    // ─── Model-checking interface (consumed by `mtm-check`) ──────────────
    //
    // The checker (crates/check) explores the protocol × topology product
    // automaton exhaustively: instead of letting `advertise`/`act` draw
    // from the per-node RNG, it enumerates every alternative the protocol
    // could randomize over and branches on each. A protocol that opts in
    // must satisfy two structural requirements the checker relies on:
    //
    // * `on_connect` and `end_round` are *deterministic* — they may not
    //   read their RNG argument (true of every protocol in `crates/core`);
    // * all `advertise`/`act` randomness is captured by the enumerations
    //   below, i.e. replaying an enumerated (choice, action) pair with
    //   `apply_choice`/`apply_action` reaches exactly the state the random
    //   implementation could have reached.

    /// True iff this protocol implements the model-checking interface
    /// (`enumerate_choices` / `apply_choice` / `enumerate_actions` /
    /// `apply_action` / `state_words`) and meets its determinism
    /// requirements. Default: not checkable.
    fn supports_check(&self) -> bool {
        false
    }

    /// Every alternative the advertise phase (phase 1) can randomize over
    /// this round. Most protocols advertise deterministically and return
    /// the single choice `[0]` (the default); `NonSyncBitConvergence`
    /// returns one entry per tag-bit position at local group starts.
    /// Protocols whose `advertise` draws randomness MUST override both
    /// this and [`Protocol::apply_choice`].
    fn enumerate_choices(&self, _local_round: u64) -> Vec<u32> {
        vec![0]
    }

    /// Deterministic advertise: apply `choice` (an element of
    /// [`Protocol::enumerate_choices`]) and return the advertised tag,
    /// performing exactly the state updates `advertise` would. The default
    /// forwards to `advertise` with a throwaway RNG and is only correct
    /// for protocols whose advertise phase draws no randomness.
    fn apply_choice(&mut self, local_round: u64, _choice: u32) -> Tag {
        let mut rng = SmallRng::seed_from_u64(0);
        self.advertise(local_round, &mut rng)
    }

    /// Every action the act phase (phase 3) can randomize over, given this
    /// scan. Coin-flip protocols return `Listen` plus one `Propose` per
    /// visible neighbor; forced-propose protocols (PPUSH, bit convergence
    /// on a 0-bit) return only their eligible proposals, with `Listen`
    /// offered *only* when no neighbor is eligible — the checker must not
    /// be able to schedule an action the protocol cannot take. The default
    /// returns an empty set (unsupported; see
    /// [`Protocol::supports_check`]).
    fn enumerate_actions(&self, _scan: &Scan<'_>) -> Vec<Action> {
        Vec::new()
    }

    /// Deterministic act: record that this node takes `action` (an element
    /// of [`Protocol::enumerate_actions`]) this round, performing exactly
    /// the side effects `act` would — e.g. `MaintainedGossip` latches
    /// whether it saw neighbors, the rumor ablations set their per-round
    /// receptivity flags. Default: no side effects.
    fn apply_action(&mut self, _scan: &Scan<'_>, _action: Action) {}

    /// Push this node's *exact* durable state onto `out`, as words. Unlike
    /// [`Protocol::state_fingerprint`] (a hash, collisions tolerable) the
    /// checker keys its visited-state set on these words, so they must
    /// determine all future behaviour together with the round counter
    /// modulo the protocol's period — include durable counters the
    /// fingerprint elides (e.g. maintenance age/grace, the non-synchronized
    /// protocol's current bit position) and exclude per-round scratch that
    /// is rewritten before use. Default: pushes nothing (unsupported).
    fn state_words(&self, _out: &mut Vec<u64>) {}
}

/// Read access to a leader-election protocol's current `leader` variable.
///
/// The leader election problem (Section IV): every node maintains `leader`
/// (initially its own UID); the system is *stabilized* once every node's
/// `leader` holds the same UID forever after.
pub trait LeaderView {
    /// The UID currently stored in this node's `leader` variable.
    fn leader(&self) -> u64;

    /// This node's own UID.
    fn uid(&self) -> u64;
}

/// Read access to an epoch-numbered leadership-maintenance protocol's term
/// counter (service mode — see [`crate::service`]).
///
/// Terms are totally ordered: state tagged with a higher epoch always
/// supersedes state from a lower epoch, and within one epoch the ordinary
/// min-UID election rule applies. A protocol starts every node in epoch 0
/// and bumps the epoch exactly when its failure detector declares the
/// current leader dead.
pub trait EpochView {
    /// The leadership term this node currently participates in.
    fn epoch(&self) -> u64;
}

/// Read access to a rumor-spreading protocol's informed flag.
pub trait RumorView {
    /// True iff this node knows the rumor.
    fn informed(&self) -> bool;
}

/// The per-node RNG streams of a trial: node `u` executes on
/// `stream_rng(seed, u)`. Both backends build their node streams here and
/// nowhere else, and every random choice a node makes — advertise, act,
/// the acceptance draw when it listens, `on_connect`, `end_round` — comes
/// from its own stream. Non-node randomness (loss coins, latency draws)
/// uses dedicated sub-streams far outside the node range.
pub(crate) fn node_streams(seed: u64, n: usize) -> Vec<SmallRng> {
    (0..n as u64).map(|u| mtm_graph::rng::stream_rng(seed, u)).collect()
}

/// The uniform acceptance draw shared by both backends: a listener with
/// `k ≥ 1` buffered proposals accepts index `gen_range(0..k)` from its own
/// stream — except that `k = 1` consumes **no** randomness (part of the
/// recorded RNG contract; the trace-equivalence reference implements the
/// same rule).
#[inline]
pub(crate) fn uniform_accept_index(rng: &mut SmallRng, k: usize) -> usize {
    debug_assert!(k >= 1, "acceptance draw over an empty proposal set");
    if k == 1 {
        0
    } else {
        rng.gen_range(0..k)
    }
}

/// The leader every node reports, or `None` if any two disagree. An empty
/// node set has no leader to agree on, not a vacuous agreement. Shared by
/// both backends' `leaders_agree`.
pub(crate) fn agreed_leader<P: LeaderView>(nodes: &[P]) -> Option<u64> {
    let (first, rest) = nodes.split_first()?;
    let first = first.leader();
    rest.iter().all(|p| p.leader() == first).then_some(first)
}

/// Number of nodes that know the rumor. Shared by both backends'
/// `informed_count`.
pub(crate) fn informed_count<P: RumorView>(nodes: &[P]) -> usize {
    nodes.iter().filter(|p| p.informed()).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ActivationSchedule, Engine, EventEngine, LatencyModel, ModelParams};
    use mtm_graph::{gen, StaticTopology};

    /// Records the first value it draws from its stream, at its first
    /// advertise; otherwise listens silently.
    struct FirstDraw(Option<u64>);

    #[derive(Clone)]
    struct NoPayload;
    impl PayloadCost for NoPayload {
        fn uid_count(&self) -> u32 {
            0
        }
        fn extra_bits(&self) -> u32 {
            0
        }
    }

    impl Protocol for FirstDraw {
        type Payload = NoPayload;
        fn advertise(&mut self, _lr: u64, rng: &mut SmallRng) -> Tag {
            self.0.get_or_insert_with(|| rng.gen());
            Tag::EMPTY
        }
        fn act(&mut self, _scan: &Scan<'_>, _rng: &mut SmallRng) -> Action {
            Action::Listen
        }
        fn payload(&self) -> NoPayload {
            NoPayload
        }
        fn on_connect(&mut self, _peer: &NoPayload, _rng: &mut SmallRng) {}
    }

    #[test]
    fn both_backends_bind_node_u_to_stream_u() {
        let (n, seed) = (5, 42);
        let probes = || (0..n).map(|_| FirstDraw(None)).collect::<Vec<_>>();
        let mut lockstep = Engine::new(
            StaticTopology::new(gen::cycle(n)),
            ModelParams::mobile(0),
            ActivationSchedule::synchronized(n),
            probes(),
            seed,
        );
        lockstep.step();
        // Zero spread: every node starts, and so advertises, at tick 0.
        let mut event = EventEngine::new(
            gen::cycle(n),
            ModelParams::mobile(0),
            probes(),
            seed,
            LatencyModel::multipeer(0),
        );
        assert_eq!(event.run_until(0, |_| false), None);
        for u in 0..n {
            let expected = mtm_graph::rng::stream_rng(seed, u as u64).gen::<u64>();
            assert_eq!(lockstep.node(u).0, Some(expected), "lockstep node {u}");
            assert_eq!(event.node(u).0, Some(expected), "event node {u}");
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

    #[test]
    fn scan_tag_of_handles_b0() {
        let neighbors = [1u32, 2, 3];
        let scan = Scan { neighbors: &neighbors, tags: &[], round: 1, local_round: 1 };
        assert_eq!(scan.tag_of(0), Tag::EMPTY);
        assert_eq!(scan.tag_of(2), Tag::EMPTY);
        assert_eq!(scan.len(), 3);
        assert!(!scan.is_empty());
    }

    #[test]
    fn scan_tag_of_indexes_parallel_slice() {
        let neighbors = [5u32, 9];
        let tags = [Tag(1), Tag(0)];
        let scan = Scan { neighbors: &neighbors, tags: &tags, round: 3, local_round: 2 };
        assert_eq!(scan.tag_of(0), Tag(1));
        assert_eq!(scan.tag_of(1), Tag(0));
    }
}
