//! Property tests for the round executor and its supporting types.
//!
//! Cases are generated deterministically by `mtm-testkit` (the offline
//! replacement for proptest).

use mtm_engine::runner::run_trials;
use mtm_engine::{ActivationSchedule, Engine, ModelParams, PayloadCost, Protocol, Scan, Tag};
use mtm_graph::{gen, StaticTopology};
use mtm_testkit::{run_cases, Rng, SmallRng};

/// A minimal min-spreading protocol used to exercise engine mechanics.
#[derive(Clone)]
struct Spread {
    best: u64,
}

#[derive(Clone)]
struct Val(u64);
impl PayloadCost for Val {
    fn uid_count(&self) -> u32 {
        1
    }
    fn extra_bits(&self) -> u32 {
        0
    }
}

impl Protocol for Spread {
    type Payload = Val;
    fn advertise(&mut self, _l: u64, _r: &mut SmallRng) -> Tag {
        Tag::EMPTY
    }
    fn act(&mut self, scan: &Scan<'_>, rng: &mut SmallRng) -> mtm_engine::Action {
        if scan.is_empty() || !rng.gen_bool(0.5) {
            return mtm_engine::Action::Listen;
        }
        mtm_engine::Action::Propose(scan.neighbors[rng.gen_range(0..scan.len())])
    }
    fn payload(&self) -> Val {
        Val(self.best)
    }
    fn on_connect(&mut self, peer: &Val, _r: &mut SmallRng) {
        self.best = self.best.min(peer.0);
    }
}

#[test]
fn engine_deterministic_for_any_seed() {
    run_cases(0xE701, 24, |_case, rng| {
        let seed = rng.gen::<u64>();
        let run = |seed: u64| {
            let n = 12;
            let nodes: Vec<Spread> = (0..n as u64).map(|u| Spread { best: u + 7 }).collect();
            let mut e = Engine::new(
                StaticTopology::new(gen::random_regular(n, 3, 5)),
                ModelParams::mobile(0),
                ActivationSchedule::synchronized(n),
                nodes,
                seed,
            );
            e.run_rounds(150);
            (e.metrics(), e.nodes().iter().map(|p| p.best).collect::<Vec<_>>())
        };
        assert_eq!(run(seed), run(seed));
    });
}

/// For any random (topology, activation, loss, seed) configuration, a
/// same-seed rerun yields the same traces, metrics, and final protocol
/// state, and every proposal is accounted exactly once.
#[test]
fn random_configs_replay_and_conserve_proposals() {
    run_cases(0x5AAD, 16, |_case, rng| {
        let seed = rng.gen::<u64>();
        let n = 2 * rng.gen_range(5..20usize);
        let degree = rng.gen_range(2..5usize);
        let graph = gen::random_regular(n, degree, rng.gen::<u64>());
        let loss = if rng.gen_bool(0.5) { rng.gen_range(0.05..0.4) } else { 0.0 };
        let sched = if rng.gen_bool(0.5) {
            ActivationSchedule::synchronized(n)
        } else {
            ActivationSchedule::explicit((0..n).map(|_| rng.gen_range(1..20u64)).collect())
        };
        let run = || {
            let nodes: Vec<Spread> = (0..n as u64).map(|u| Spread { best: u + 3 }).collect();
            let mut e = Engine::new(
                StaticTopology::new(graph.clone()),
                ModelParams::mobile(0),
                sched.clone(),
                nodes,
                seed,
            );
            if loss > 0.0 {
                e.set_proposal_loss(loss);
            }
            e.enable_tracing();
            e.run_rounds(60);
            (e.metrics(), e.traces().to_vec(), e.nodes().iter().map(|p| p.best).collect::<Vec<_>>())
        };
        let (m, traces, bests) = run();
        assert_eq!(run(), (m, traces, bests), "same-seed run diverged");
        assert_eq!(m.proposals, m.connections + m.rejected_proposals + m.dropped_proposals);
    });
}

#[test]
fn conservation_under_arbitrary_activation() {
    run_cases(0xE702, 24, |_case, rng| {
        let seed = rng.gen::<u64>();
        let activations: Vec<u64> = (0..10).map(|_| rng.gen_range(1..60u64)).collect();
        let n = activations.len();
        let nodes: Vec<Spread> = (0..n as u64).map(|u| Spread { best: u }).collect();
        let mut e = Engine::new(
            StaticTopology::new(gen::clique(n)),
            ModelParams::mobile(0),
            ActivationSchedule::explicit(activations.clone()),
            nodes,
            seed,
        );
        e.enable_tracing();
        e.enable_connection_log();
        e.run_rounds(80);
        let m = e.metrics();
        assert_eq!(m.proposals, m.connections + m.rejected_proposals);
        assert_eq!(e.connection_log().len() as u64, m.connections);
        // No connection may involve a node before its activation round.
        for &(round, u, v) in e.connection_log() {
            assert!(round >= activations[u as usize]);
            assert!(round >= activations[v as usize]);
        }
        // Traced active counts are non-decreasing (activations only).
        let actives: Vec<u64> = e.traces().iter().map(|t| t.active).collect();
        assert!(actives.windows(2).all(|w| w[0] <= w[1]));
    });
}

#[test]
fn min_never_lost_nor_invented() {
    run_cases(0xE703, 24, |_case, rng| {
        let seed = rng.gen::<u64>();
        let n = 10;
        let nodes: Vec<Spread> = (0..n as u64).map(|u| Spread { best: u * 13 + 3 }).collect();
        let initial_min = 3u64;
        let mut e = Engine::new(
            StaticTopology::new(gen::cycle(n)),
            ModelParams::mobile(0),
            ActivationSchedule::synchronized(n),
            nodes,
            seed,
        );
        for _ in 0..200 {
            e.step();
            let values: Vec<u64> = e.nodes().iter().map(|p| p.best).collect();
            assert_eq!(
                *values.iter().min().expect("n > 0"),
                initial_min,
                "global min must be preserved"
            );
            for &v in &values {
                assert_eq!((v - 3) % 13, 0, "invented value {v}");
            }
        }
    });
}

#[test]
fn trial_runner_order_and_determinism() {
    run_cases(0xE704, 24, |_case, rng| {
        let trials = rng.gen_range(0..24usize);
        let threads = rng.gen_range(1..5usize);
        let base_seed = rng.gen::<u64>();
        let f = |t: usize, seed: u64| (t, seed.wrapping_mul(3));
        let a = run_trials(trials, base_seed, threads, f);
        let b = run_trials(trials, base_seed, 1, f);
        assert_eq!(a.len(), trials);
        assert_eq!(a, b, "results must not depend on thread count");
    });
}

#[test]
fn activation_schedule_local_rounds_consistent() {
    run_cases(0xE705, 24, |_case, rng| {
        let rounds: Vec<u64> =
            (0..rng.gen_range(1..20usize)).map(|_| rng.gen_range(1..50u64)).collect();
        let probe = rng.gen_range(50..100u64);
        let sched = ActivationSchedule::explicit(rounds.clone());
        for (u, &act) in rounds.iter().enumerate() {
            assert!(sched.is_active(u, probe));
            assert_eq!(sched.local_round(u, probe), probe - act + 1);
            assert!(!sched.is_active(u, act - 1) || act == 1);
        }
        assert_eq!(sched.last_activation(), *rounds.iter().max().expect("nonempty"));
    });
}

/// Same-seed executions must produce byte-identical `RoundTrace` sequences
/// across topologies — the determinism contract the audit subsystem checks
/// (see `mtm_engine::audit`); here it is exercised for the raw engine
/// across several graph families and both connection policies.
#[test]
fn same_seed_traces_identical_across_topologies() {
    let topologies: &[fn(usize) -> mtm_graph::Graph] =
        &[gen::clique, gen::cycle, gen::path, gen::star];
    run_cases(0xE706, 16, |case, rng| {
        let seed = rng.gen::<u64>();
        let build = |params: ModelParams, seed: u64| {
            let n = 9;
            let g = topologies[case as usize % topologies.len()](n);
            let nodes: Vec<Spread> = (0..n as u64).map(|u| Spread { best: u + 1 }).collect();
            let mut e = Engine::new(
                StaticTopology::new(g),
                params,
                ActivationSchedule::synchronized(n),
                nodes,
                seed,
            );
            e.enable_tracing();
            e.run_rounds(120);
            (e.metrics(), e.traces().to_vec())
        };
        for params in [ModelParams::mobile(0), ModelParams::classical()] {
            let (ma, ta) = build(params, seed);
            let (mb, tb) = build(params, seed);
            assert_eq!(ma, mb, "metrics must be a pure function of (seed, config)");
            assert_eq!(ta, tb, "round traces must be a pure function of (seed, config)");
        }
    });
}
