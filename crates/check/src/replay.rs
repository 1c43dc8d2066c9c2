//! Cross-validation of checker schedules against the real executor.
//!
//! Any state the explorer reaches carries a shortest adversary schedule
//! (crashes + fully resolved [`mtm_engine::RoundScript`]s). Replaying that
//! schedule through [`mtm_engine::Engine::step_scripted`] — the production
//! round executor with the adversary's choices substituted for the random
//! ones — must land on exactly the state the checker predicted, word for
//! word and fingerprint for fingerprint. This closes the loop between the
//! abstract transition relation the checker enumerates and the concrete one
//! the simulator executes.

use mtm_engine::{fingerprint, ActivationSchedule, Engine};
use mtm_graph::faults::ScheduledCrashes;
use mtm_graph::{Graph, NodeId, StaticTopology};

use crate::explore::{raw_words, Exploration, RoundSchedule};
use crate::spec::CheckSpec;

/// End state of a scripted Engine replay.
pub struct ReplayOutcome {
    /// `Engine::network_fingerprint()` after the last scripted round (`None`
    /// for protocols without a state fingerprint).
    pub fingerprint: Option<u64>,
    /// Concatenated per-node raw state words after the last scripted round.
    pub words: Vec<u64>,
    /// Rounds executed.
    pub rounds: u64,
}

/// Replay `schedule` through a real [`Engine`] on `graph`.
///
/// Crashes in the schedule become permanent [`ScheduledCrashes`] outages
/// starting at their round; every round is then driven by
/// [`Engine::step_scripted`], so the engine's own audit layer (tag widths,
/// proposal visibility, matching shape, payload budget) validates the
/// checker's schedule as a side effect.
pub fn replay<S: CheckSpec>(spec: &S, graph: &Graph, schedule: &[RoundSchedule]) -> ReplayOutcome {
    let n = graph.node_count();
    let mut outages: Vec<(NodeId, u64, u64)> = Vec::new();
    for (i, rs) in schedule.iter().enumerate() {
        let from = u64::try_from(i).expect("round fits u64") + 1;
        for &u in &rs.crashes {
            outages.push((u, from, u64::MAX));
        }
    }
    let topology = ScheduledCrashes::new(StaticTopology::new(graph.clone()), outages);
    let mut engine = Engine::new(
        topology,
        spec.params(),
        ActivationSchedule::synchronized(n),
        spec.initial(),
        0,
    );
    for rs in schedule {
        engine.step_scripted(&rs.script);
    }
    ReplayOutcome {
        fingerprint: engine.network_fingerprint(),
        words: raw_words(engine.nodes()),
        rounds: engine.round(),
    }
}

/// Replay the shortest schedule to state `target` and compare the Engine's
/// end state against the checker's stored representative.
///
/// Returns the matching outcome, or a description of the first divergence.
pub fn replay_state<S: CheckSpec>(
    spec: &S,
    graph: &Graph,
    ex: &Exploration<S::P>,
    target: u32,
) -> Result<ReplayOutcome, String> {
    let schedule = ex.witness(target);
    let outcome = replay(spec, graph, &schedule);
    let expected = raw_words(ex.nodes_of(target));
    if outcome.words != expected {
        return Err(format!(
            "replay diverged from checker at state {target}: engine words {:?}, checker words {expected:?}",
            outcome.words
        ));
    }
    let expected_fp = fingerprint::of_nodes(ex.nodes_of(target));
    if outcome.fingerprint != expected_fp {
        return Err(format!(
            "replay fingerprint mismatch at state {target}: engine {:?}, checker {expected_fp:?}",
            outcome.fingerprint
        ));
    }
    Ok(outcome)
}
