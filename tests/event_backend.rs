//! Event-backend determinism and correctness with the *real* protocol
//! stack (the unit tests in `crates/engine/src/event.rs` use a local toy
//! protocol; these pin the paper's algorithms).
//!
//! The determinism contract (DESIGN.md): every latency draw is a pure
//! counter-based function of the seed, ties resolve by `(time, node id,
//! sequence number)`, so the full event trace — not just the outcome — is
//! a function of `(graph, params, protocols, seed, latency model)`.

use mobile_telephone::graph::rng::derive_seed;
use mobile_telephone::prelude::*;

fn election_engine(n: usize, seed: u64, spread: u64) -> EventEngine<BlindGossip> {
    let g = GraphFamily::Expander8.build(n, derive_seed(seed, 0));
    let uids = UidPool::random(g.node_count(), derive_seed(seed, 1));
    EventEngine::new(
        g,
        ModelParams::mobile(0),
        BlindGossip::spawn(&uids),
        derive_seed(seed, 11),
        LatencyModel::multipeer(spread),
    )
}

#[test]
fn blind_gossip_elects_min_uid_without_a_round_clock() {
    let g = GraphFamily::Expander8.build(64, derive_seed(3, 0));
    let uids = UidPool::random(g.node_count(), derive_seed(3, 1));
    let mut e = EventEngine::new(
        g,
        ModelParams::mobile(0),
        BlindGossip::spawn(&uids),
        derive_seed(3, 11),
        LatencyModel::multipeer(8),
    );
    let out = e.run_to_stabilization(10_000_000);
    assert_eq!(out.winner, Some(uids.min_uid()), "asynchrony must not change the winner");
    assert!(out.completed_at.is_some());
}

#[test]
fn same_seed_same_trace_across_protocols() {
    // Elections.
    let (mut a, mut b) = (election_engine(64, 5, 16), election_engine(64, 5, 16));
    a.enable_event_trace();
    b.enable_event_trace();
    let (ra, rb) = (a.run_to_stabilization(10_000_000), b.run_to_stabilization(10_000_000));
    assert_eq!(ra.completed_at, rb.completed_at);
    assert_eq!(ra.winner, rb.winner);
    assert_eq!(a.event_trace(), b.event_trace(), "election event traces must replay");
    assert!(!a.event_trace().is_empty());

    // Rumor spreading.
    let mk = || {
        let g = GraphFamily::Expander8.build(64, derive_seed(5, 0));
        let n = g.node_count();
        EventEngine::new(
            g,
            ModelParams::mobile(0),
            PushPull::spawn(n, 1),
            derive_seed(5, 11),
            LatencyModel::multipeer(16),
        )
    };
    let (mut c, mut d) = (mk(), mk());
    c.enable_event_trace();
    d.enable_event_trace();
    let (rc, rd) = (c.run_to_full_information(10_000_000), d.run_to_full_information(10_000_000));
    assert_eq!(rc.completed_at, rd.completed_at);
    assert_eq!(c.event_trace(), d.event_trace(), "rumor event traces must replay");
}

#[test]
fn latency_spread_changes_timing_but_not_the_winner() {
    let tight = election_engine(64, 9, 0).run_to_stabilization(10_000_000);
    let loose = election_engine(64, 9, 64).run_to_stabilization(10_000_000);
    assert!(tight.completed_at.is_some() && loose.completed_at.is_some());
    assert_eq!(tight.winner, loose.winner, "latency is a schedule, not an adversary on safety");
    assert_ne!(
        tight.completed_at, loose.completed_at,
        "spread 0 vs 64 should not land on the same tick"
    );
}

#[test]
fn bit_convergence_stabilizes_under_the_event_backend() {
    // b = 1 exercises tag advertisement through the async scan path. Note
    // what is *not* asserted: the synchronized variant's min-UID guarantee
    // rests on the global round clock aligning everyone's bit groups — the
    // very assumption the event backend removes (and the motivation for
    // the paper's non-synchronized variant). Under drifting local rounds
    // the network still converges to *a* single leader; which one depends
    // on how the groups happened to interleave.
    let g = GraphFamily::Expander8.build(32, derive_seed(2, 0));
    let n = g.node_count();
    let uids = UidPool::random(n, derive_seed(2, 1));
    let config = TagConfig::for_network(n, g.max_degree());
    let mut e = EventEngine::new(
        g,
        ModelParams::mobile(1),
        BitConvergence::spawn(&uids, config, derive_seed(2, 7)),
        derive_seed(2, 11),
        LatencyModel::multipeer(8),
    );
    let out = e.run_to_stabilization(50_000_000);
    assert!(out.completed_at.is_some(), "bit convergence must still reach agreement");
    assert!(out.winner.is_some(), "stabilization means a single agreed leader");
    assert!(uids.as_slice().contains(&out.winner.expect("checked above")));
}

#[test]
fn unresolved_proposals_are_bounded_by_one_per_node() {
    // `run_until` returns at the first delivery that satisfies the
    // predicate, mid-flight: proposals already sent may still be in
    // transit or buffered in an open listen window. Each proposer has at
    // most one outstanding, so the resolved count trails by at most n.
    // A lossy run exercises the dropped column too.
    let mut e = election_engine(256, 13, 16);
    e.set_proposal_loss(0.1);
    let out = e.run_to_stabilization(10_000_000);
    assert!(out.winner.is_some(), "the election must finish");
    let m = out.metrics;
    let resolved = m.connections + m.rejected_proposals + m.dropped_proposals;
    let n = e.node_count() as u64;
    assert!(m.dropped_proposals > 0, "10% loss must drop something");
    assert!(resolved <= m.proposals, "{m:?} resolves more proposals than were sent");
    assert!(m.proposals <= resolved + n, "{m:?} has more than one open proposal per node");
}
