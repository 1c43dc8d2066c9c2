//! The four workloads and their trials.
//!
//! A trial turns a seed into a topology, a UID pool, protocol instances and
//! an engine (`setup`), then makes the one call a user makes to get the
//! result (`solve`). Every seed stream matches the experiment harness: 0 =
//! graph, 10 = UID pool, 11 = engine, 12 = bit-convergence tags, 13 = fault
//! chains. The *plain* copy of a trial makes exactly the user's calls; the
//! *traced* copy replays the same trial through the layers' public
//! functions one call at a time and times each (see the crate docs).

use std::hint::black_box;
use std::time::Instant;

use mtm_core::{
    BitConvergence, BlindGossip, MaintainedGossip, MaintenanceConfig, TagConfig, UidPool,
};
use mtm_engine::{
    ActivationSchedule, Engine, EventEngine, LatencyModel, LeaderView, Metrics, ModelParams,
    Protocol, ServiceConfig, ServiceOutcome, ServiceStatus,
};
use mtm_graph::rng::derive_seed;
use mtm_graph::{DynamicTopology, FaultConfig, FaultyTopology, Graph, GraphFamily, StaticTopology};

/// Round budget of a lockstep election; F9 stabilizes these sizes in
/// under 2,100 rounds.
pub const ELECT_ROUND_BUDGET: u64 = 1_000_000;
/// Tick budget of an event-backend election (AS1's full-scale budget).
pub const EVENT_TICK_BUDGET: u64 = 100_000_000;
/// Spread knob of [`LatencyModel::multipeer`] on the event workload.
pub const EVENT_SPREAD: u64 = 16;
/// Rounds one service run executes.
pub const SERVE_HORIZON: u64 = 1_000;
/// Maintenance staleness timeout (C4's).
pub const SERVE_TIMEOUT: u64 = 256;
/// Wedge-diagnosis window: longer than the timeout, as the service docs
/// require.
pub const SERVE_WEDGE_WINDOW: u64 = 4 * SERVE_TIMEOUT;
/// Per-round crash probability of the churn workload (C4's scale block).
pub const SERVE_CRASH: f64 = 1e-3;
/// Per-round recovery probability of the churn workload.
pub const SERVE_RECOVER: f64 = 2e-3;

/// One benchmark workload. See the crate docs for why each exists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Blind gossip (`b = 0`) on an 8-regular expander, synchronized,
    /// lockstep.
    BlindExpander,
    /// Synchronized bit convergence (`b = 1`) on an 8-regular expander.
    BitconvExpander,
    /// Blind gossip on the discrete-event backend.
    EventExpander,
    /// Maintained gossip under `run_service` with crash/recover churn.
    ServeChurnExpander,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::BlindExpander,
        Workload::BitconvExpander,
        Workload::EventExpander,
        Workload::ServeChurnExpander,
    ];

    /// The name `--workload` takes and `BENCHMARK.json` lists.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BlindExpander => "elect-blind-expander",
            Workload::BitconvExpander => "elect-bitconv-expander",
            Workload::EventExpander => "elect-event-expander",
            Workload::ServeChurnExpander => "serve-churn-expander",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Node count the benchmark runs at.
    pub fn default_n(self) -> usize {
        match self {
            Workload::BlindExpander => 1 << 14,
            Workload::ServeChurnExpander => 1 << 13,
            Workload::BitconvExpander | Workload::EventExpander => 1 << 12,
        }
    }

    /// Distinct inputs (trial seeds) a run measures: few enough that each
    /// repeats four or more times in a 28-second untraced run.
    pub fn default_inputs(self) -> usize {
        match self {
            Workload::BlindExpander | Workload::BitconvExpander => 12,
            Workload::EventExpander => 16,
            Workload::ServeChurnExpander => 6,
        }
    }
}

/// Start a wall-clock span. Timing stays in the benchmark, around calls
/// into the library; no simulation input ever reads it.
#[allow(clippy::disallowed_methods)]
fn start() -> Instant {
    Instant::now()
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// Contiguous wall-clock laps: each lap ends where the next begins, so
/// the laps of a setup sum to its span.
struct Laps(Instant);

impl Laps {
    fn start() -> Laps {
        Laps(start())
    }

    fn lap(&mut self) -> f64 {
        let lap = secs(self.0);
        self.0 = start();
        lap
    }

    /// Restart without charging the time since the last lap to anyone
    /// (benchmark bookkeeping between two timed calls).
    fn skip(&mut self) {
        self.0 = start();
    }
}

/// Setup split by layer.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Setup {
    /// `GraphFamily::build`.
    pub gen_s: f64,
    /// `UidPool::random` and the protocol's `spawn`.
    pub spawn_s: f64,
    /// `Engine::new` / `EventEngine::new`, with the topology wrappers the
    /// engine takes.
    pub new_s: f64,
}

impl Setup {
    /// Seconds from a topology spec to a built engine.
    pub fn total(&self) -> f64 {
        self.gen_s + self.spawn_s + self.new_s
    }
}

/// What a run produced — compared between the plain and traced copies.
#[derive(Clone, Debug, PartialEq)]
pub struct Observed {
    /// Stabilization round (lockstep), completion tick (event) or rounds
    /// executed (service); `None` when the budget ran out.
    pub finished: Option<u64>,
    /// The agreed leader UID (the last agreed leader for a service run).
    pub winner: Option<u64>,
    /// Engine counters for the whole run.
    pub metrics: Metrics,
    /// Node-rounds executed: `n ×` rounds for lockstep runs, the sum of
    /// local rounds for the event backend.
    pub node_rounds: f64,
    /// Events processed (event backend only).
    pub events: u64,
    /// The full service outcome (service runs only).
    pub service: Option<ServiceOutcome>,
}

/// Per-layer timings of one traced trial. A layer a workload does not run
/// reads 0.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Layers {
    /// The traced copy's setup split.
    pub setup: Setup,
    /// Process `VmHWM` right after the traced copy's graph build, in MB.
    pub gen_hwm_mb: f64,
    /// Wall time of the traced copy from topology spec to result, timers
    /// included (the numerator of the trace overhead).
    pub total_s: f64,
    /// `Engine::step` calls of the lockstep replay.
    pub step_s: f64,
    /// `Engine::leaders_agree` calls of the lockstep replay.
    pub predicate_s: f64,
    /// Number of `Engine::leaders_agree` calls.
    pub predicate_calls: u64,
    /// `EventEngine::run_until` including its predicate.
    pub event_run_s: f64,
    /// `EventEngine::leaders_agree` calls made by the predicate closure.
    pub event_predicate_s: f64,
    /// Number of predicate closure calls.
    pub event_predicate_calls: u64,
    /// `Engine::run_service`.
    pub service_run_s: f64,
    /// A twin engine doing `step()` × horizon.
    pub step_only_s: f64,
    /// `FaultyTopology::graph_at(1..=horizon)` on a twin topology.
    pub graph_at_s: f64,
}

/// The traced copy of a trial.
#[derive(Clone, Debug, PartialEq)]
pub struct Traced {
    /// What the traced replay produced.
    pub observed: Observed,
    /// Its timings.
    pub layers: Layers,
    /// Counters of the step-only twin (service runs only).
    pub twin_metrics: Option<Metrics>,
}

/// One trial: its plain run, and its traced copy in a traced run.
#[derive(Clone, Debug, PartialEq)]
pub struct Trial {
    /// Which of the run's inputs this trial repeats.
    pub input: usize,
    /// The trial seed every input was derived from.
    pub seed: u64,
    /// Actual node count.
    pub n: usize,
    /// The plain run's setup split.
    pub setup: Setup,
    /// Seconds from a built engine to the result.
    pub solve_s: f64,
    /// CSR bytes of the (base) graph per node, from `Graph::csr_parts`.
    pub csr_bytes_per_node: f64,
    /// The leader the run must elect: the min UID for blind gossip, the
    /// min (tag, uid) pair's UID for bit convergence; `None` for service
    /// runs, whose leader changes with churn.
    pub expected_winner: Option<u64>,
    /// What the plain run produced.
    pub observed: Observed,
    /// The traced copy, in a traced run.
    pub traced: Option<Traced>,
    /// A repeat of this input produced another outcome than its first
    /// trial, though the same seed must give the same run.
    pub differs_from_first: bool,
}

impl Trial {
    /// Why this trial failed, or `None` if it passed every check.
    pub fn failure(&self) -> Option<String> {
        let o = &self.observed;
        if o.finished.is_none() {
            return Some("did not stabilize within its budget".to_string());
        }
        if let Some(ServiceOutcome { status: ServiceStatus::Wedged(report), .. }) = &o.service {
            return Some(format!("service run wedged at round {}", report.detected_round));
        }
        if let Some(expected) = self.expected_winner {
            if o.winner != Some(expected) {
                return Some(format!("elected {:?}, expected {expected}", o.winner));
            }
        }
        // Every proposal ends connected, rejected or dropped. A lockstep run
        // stops between rounds, when all have ended. The event backend stops
        // at the instant the predicate holds, when some proposals are still
        // in flight or buffered; a proposer waits for its answer before it
        // proposes again, so at most one per node is unresolved.
        let m = &o.metrics;
        let resolved = m.connections + m.rejected_proposals + m.dropped_proposals;
        let in_flight = if o.events > 0 { self.n as u64 } else { 0 };
        if m.proposals < resolved || m.proposals > resolved + in_flight {
            return Some(format!(
                "proposals != connections + rejected + dropped (+ at most {in_flight} in flight) in {m:?}"
            ));
        }
        if self.differs_from_first {
            return Some("a repeat of this input disagrees with its first trial".to_string());
        }
        if let Some(traced) = &self.traced {
            if traced.observed != *o {
                return Some("traced replay disagrees with the untraced run".to_string());
            }
            if traced.twin_metrics.is_some_and(|twin| twin != *m) {
                return Some("step-only twin's Metrics differ from run_service's".to_string());
            }
        }
        None
    }
}

/// Engine and inputs after setup, before the solving call.
struct Built<E> {
    engine: E,
    n: usize,
    expected_winner: Option<u64>,
    setup: Setup,
    csr_bytes_per_node: f64,
    gen_hwm_mb: f64,
}

fn csr_bytes_per_node(g: &Graph) -> f64 {
    let (offsets, adjacency) = g.csr_parts();
    (std::mem::size_of_val(offsets) + std::mem::size_of_val(adjacency)) as f64
        / g.node_count() as f64
}

/// Set a trial up, one timed lap per layer: the graph build, then the UID
/// pool and `spawn`, then `new` (the engine and the topology wrappers it
/// takes). `expect` is the benchmark's own oracle and runs untimed. With
/// `probe`, the process high-water mark is read after the graph build,
/// also untimed.
fn setup<N, E>(
    n: usize,
    seed: u64,
    probe: bool,
    spawn: impl FnOnce(&Graph, &UidPool) -> N,
    expect: impl FnOnce(&UidPool, &N) -> Option<u64>,
    new: impl FnOnce(Graph, N) -> E,
) -> Built<E> {
    let mut laps = Laps::start();
    let g = GraphFamily::Expander8.build(n, derive_seed(seed, 0));
    let gen_s = laps.lap();
    let gen_hwm_mb = if probe { crate::proc::vm_hwm_mb().unwrap_or(0.0) } else { 0.0 };
    let n = g.node_count();
    let csr_bytes_per_node = csr_bytes_per_node(&g);
    laps.skip();
    let uids = UidPool::random(n, derive_seed(seed, 10));
    let nodes = spawn(&g, &uids);
    let spawn_s = laps.lap();
    let expected_winner = expect(&uids, &nodes);
    laps.skip();
    let engine = new(g, nodes);
    let new_s = laps.lap();
    Built {
        engine,
        n,
        expected_winner,
        setup: Setup { gen_s, spawn_s, new_s },
        csr_bytes_per_node,
        gen_hwm_mb,
    }
}

fn min_uid<N>(uids: &UidPool, _: &N) -> Option<u64> {
    Some(uids.min_uid())
}

fn lockstep<P: Protocol>(g: Graph, nodes: Vec<P>, b: u32, seed: u64) -> Engine<P, StaticTopology> {
    let n = g.node_count();
    Engine::new(
        StaticTopology::new(g),
        ModelParams::mobile(b),
        ActivationSchedule::synchronized(n),
        nodes,
        derive_seed(seed, 11),
    )
}

fn build_blind(n: usize, seed: u64, probe: bool) -> Built<Engine<BlindGossip, StaticTopology>> {
    setup(
        n,
        seed,
        probe,
        |_, uids| BlindGossip::spawn(uids),
        min_uid,
        |g, nodes| lockstep(g, nodes, 0, seed),
    )
}

fn build_bitconv(
    n: usize,
    seed: u64,
    probe: bool,
) -> Built<Engine<BitConvergence, StaticTopology>> {
    setup(
        n,
        seed,
        probe,
        |g, uids| {
            let config = TagConfig::for_network(g.node_count(), g.max_degree());
            BitConvergence::spawn(uids, config, derive_seed(seed, 12))
        },
        |_, nodes| nodes.iter().map(BitConvergence::active_pair).min().map(|pair| pair.uid),
        |g, nodes| lockstep(g, nodes, 1, seed),
    )
}

fn build_event(n: usize, seed: u64, probe: bool) -> Built<EventEngine<BlindGossip>> {
    setup(
        n,
        seed,
        probe,
        |_, uids| BlindGossip::spawn(uids),
        min_uid,
        |g, nodes| {
            let latency = LatencyModel::multipeer(EVENT_SPREAD);
            EventEngine::new(g, ModelParams::mobile(0), nodes, derive_seed(seed, 11), latency)
        },
    )
}

type ServeTopology = FaultyTopology<StaticTopology>;

fn serve_topology(g: Graph, seed: u64) -> ServeTopology {
    FaultyTopology::new(
        StaticTopology::new(g),
        FaultConfig::crashes(SERVE_CRASH, SERVE_RECOVER),
        derive_seed(seed, 13),
    )
}

fn serve_nodes(uids: &UidPool) -> Vec<MaintainedGossip> {
    MaintainedGossip::spawn(uids, MaintenanceConfig::new(SERVE_TIMEOUT))
}

fn serve_engine(
    g: Graph,
    nodes: Vec<MaintainedGossip>,
    seed: u64,
) -> Engine<MaintainedGossip, ServeTopology> {
    let n = g.node_count();
    Engine::new(
        serve_topology(g, seed),
        ModelParams::mobile(0),
        ActivationSchedule::synchronized(n),
        nodes,
        derive_seed(seed, 11),
    )
}

fn build_serve(n: usize, seed: u64, probe: bool) -> Built<Engine<MaintainedGossip, ServeTopology>> {
    setup(
        n,
        seed,
        probe,
        |_, uids| serve_nodes(uids),
        |_, _| None,
        |g, nodes| serve_engine(g, nodes, seed),
    )
}

fn service_config() -> ServiceConfig {
    ServiceConfig::rounds(SERVE_HORIZON).with_wedge_window(SERVE_WEDGE_WINDOW)
}

fn lockstep_observed<P: Protocol, T: DynamicTopology>(
    e: &Engine<P, T>,
    finished: Option<u64>,
    winner: Option<u64>,
) -> Observed {
    let metrics = e.metrics();
    Observed {
        finished,
        winner,
        metrics,
        node_rounds: e.node_count() as f64 * metrics.rounds as f64,
        events: 0,
        service: None,
    }
}

fn event_observed<P: Protocol>(
    e: &EventEngine<P>,
    finished: Option<u64>,
    winner: Option<u64>,
) -> Observed {
    Observed {
        finished,
        winner,
        metrics: e.metrics(),
        node_rounds: e.mean_local_rounds() * e.node_count() as f64,
        events: e.events_processed(),
        service: None,
    }
}

fn service_observed(n: usize, out: ServiceOutcome) -> Observed {
    Observed {
        finished: Some(out.rounds),
        winner: out.final_leader,
        metrics: out.metrics,
        node_rounds: n as f64 * out.rounds as f64,
        events: 0,
        service: Some(out),
    }
}

fn trial<E>(seed: u64, built: &Built<E>, solve_s: f64, observed: Observed) -> Trial {
    Trial {
        input: 0,
        seed,
        n: built.n,
        setup: built.setup,
        solve_s,
        csr_bytes_per_node: built.csr_bytes_per_node,
        expected_winner: built.expected_winner,
        observed,
        traced: None,
        differs_from_first: false,
    }
}

/// Run one trial exactly as a user would: set up, then make the one
/// solving call.
pub fn plain_trial(w: Workload, n: usize, seed: u64) -> Trial {
    match w {
        Workload::BlindExpander => plain_lockstep(seed, build_blind(n, seed, false)),
        Workload::BitconvExpander => plain_lockstep(seed, build_bitconv(n, seed, false)),
        Workload::EventExpander => {
            let mut b = build_event(n, seed, false);
            let t = start();
            let out = b.engine.run_to_stabilization(EVENT_TICK_BUDGET);
            let solve_s = secs(t);
            let observed = event_observed(&b.engine, out.completed_at, out.winner);
            trial(seed, &b, solve_s, observed)
        }
        Workload::ServeChurnExpander => {
            let mut b = build_serve(n, seed, false);
            let t = start();
            let out = b.engine.run_service(&service_config());
            let solve_s = secs(t);
            trial(seed, &b, solve_s, service_observed(b.n, out))
        }
    }
}

fn plain_lockstep<P, T>(seed: u64, mut b: Built<Engine<P, T>>) -> Trial
where
    P: Protocol + LeaderView,
    T: DynamicTopology,
{
    let t = start();
    let out = b.engine.run_to_stabilization(ELECT_ROUND_BUDGET);
    let solve_s = secs(t);
    let observed = lockstep_observed(&b.engine, out.stabilized_round, out.winner);
    trial(seed, &b, solve_s, observed)
}

/// Run the traced copy of a trial: the same inputs, with every layer call
/// timed on its own.
pub fn traced_trial(w: Workload, n: usize, seed: u64) -> Traced {
    let t = start();
    let mut traced = match w {
        Workload::BlindExpander => traced_lockstep(build_blind(n, seed, true)),
        Workload::BitconvExpander => traced_lockstep(build_bitconv(n, seed, true)),
        Workload::EventExpander => traced_event(build_event(n, seed, true)),
        Workload::ServeChurnExpander => return traced_serve(n, seed, t),
    };
    traced.layers.total_s = secs(t);
    traced
}

/// Replay `run_to_stabilization` as `leaders_agree()` + `step()` calls —
/// exactly the `run_until` contract: the predicate runs before the first
/// step and after every step, until it holds or the budget is spent.
fn traced_lockstep<P, T>(mut b: Built<Engine<P, T>>) -> Traced
where
    P: Protocol + LeaderView,
    T: DynamicTopology,
{
    let mut layers = Layers { setup: b.setup, gen_hwm_mb: b.gen_hwm_mb, ..Layers::default() };
    let e = &mut b.engine;
    let (finished, winner) = loop {
        let t = start();
        let agreed = e.leaders_agree();
        layers.predicate_s += secs(t);
        layers.predicate_calls += 1;
        if agreed.is_some() {
            break (Some(e.round()), agreed);
        }
        if e.round() >= ELECT_ROUND_BUDGET {
            break (None, None);
        }
        let t = start();
        e.step();
        layers.step_s += secs(t);
    };
    Traced { observed: lockstep_observed(e, finished, winner), layers, twin_metrics: None }
}

/// Replay `run_to_stabilization` on the event backend with the predicate
/// closure passed to `run_until` timed on every call.
fn traced_event<P: Protocol + LeaderView>(mut b: Built<EventEngine<P>>) -> Traced {
    let mut layers = Layers { setup: b.setup, gen_hwm_mb: b.gen_hwm_mb, ..Layers::default() };
    let e = &mut b.engine;
    let mut predicate_s = 0.0;
    let mut predicate_calls = 0u64;
    let t = start();
    let finished = e.run_until(EVENT_TICK_BUDGET, |e| {
        let t = start();
        let agreed = e.leaders_agree().is_some();
        predicate_s += secs(t);
        predicate_calls += 1;
        agreed
    });
    layers.event_run_s = secs(t);
    let t = start();
    let winner = finished.and_then(|_| e.leaders_agree());
    let winner_s = secs(t);
    layers.event_run_s += winner_s;
    layers.event_predicate_s = predicate_s + winner_s;
    layers.event_predicate_calls = predicate_calls + u64::from(finished.is_some());
    Traced { observed: event_observed(e, finished, winner), layers, twin_metrics: None }
}

/// Time `run_service`, then a step-only twin engine and a `graph_at` twin
/// topology, both built untimed from the same seed.
fn traced_serve(n: usize, seed: u64, began: Instant) -> Traced {
    let mut b = build_serve(n, seed, true);
    let mut layers = Layers { setup: b.setup, gen_hwm_mb: b.gen_hwm_mb, ..Layers::default() };
    let t = start();
    let out = b.engine.run_service(&service_config());
    layers.service_run_s = secs(t);
    layers.total_s = secs(began);

    let g = GraphFamily::Expander8.build(n, derive_seed(seed, 0));
    let mut topo = serve_topology(g.clone(), seed);
    let t = start();
    for round in 1..=SERVE_HORIZON {
        black_box(topo.graph_at(round));
    }
    layers.graph_at_s = secs(t);

    let nodes = serve_nodes(&UidPool::random(g.node_count(), derive_seed(seed, 10)));
    let mut twin = serve_engine(g, nodes, seed);
    let t = start();
    for _ in 0..SERVE_HORIZON {
        twin.step();
    }
    layers.step_only_s = secs(t);

    Traced { observed: service_observed(b.n, out), layers, twin_metrics: Some(twin.metrics()) }
}

/// A benchmark run's settings.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Target node count.
    pub n: usize,
    /// Workload seed; input `i` uses the trial seed `derive_seed(seed, i)`.
    pub seed: u64,
    /// Distinct inputs the run measures, each at least once.
    pub inputs: usize,
    /// Start no trial that would end after this many seconds, once every
    /// input has run.
    pub seconds: f64,
    /// Also run every trial's traced copy.
    pub trace: bool,
}

/// The trials of a run, and the process's memory high-water mark.
#[derive(Clone, Debug)]
pub struct Run {
    /// Every trial, in order.
    pub trials: Vec<Trial>,
    /// `VmHWM` in MB once the first trial has finished: one trial's
    /// footprint in a fresh process. Later trials reuse freed memory, so
    /// they only add allocator fragmentation that varies run to run.
    pub peak_rss_mb: Option<f64>,
}

/// Run the inputs round-robin: one pass over all of them, then further
/// passes while the next trial, if it takes as long as the last one, ends
/// within `cfg.seconds`. Every repeat must reproduce its input's first
/// trial. In a traced run every trial also runs its traced copy; the two
/// alternate which goes first so neither always inherits a warmer heap,
/// and the first trial's traced copy goes first so the graph
/// high-water-mark probe sees a fresh process.
pub fn run(cfg: &RunConfig) -> Run {
    let began = start();
    let inputs = cfg.inputs.max(1);
    let mut run = Run { trials: Vec::new(), peak_rss_mb: None };
    let mut last_s = 0.0;
    loop {
        let i = run.trials.len();
        if i >= inputs && secs(began) + last_s > cfg.seconds {
            break run;
        }
        let t = start();
        let input = i % inputs;
        let seed = derive_seed(cfg.seed, input as u64);
        let (w, n) = (cfg.workload, cfg.n);
        let mut trial = if !cfg.trace {
            plain_trial(w, n, seed)
        } else if i.is_multiple_of(2) {
            let traced = traced_trial(w, n, seed);
            Trial { traced: Some(traced), ..plain_trial(w, n, seed) }
        } else {
            let plain = plain_trial(w, n, seed);
            Trial { traced: Some(traced_trial(w, n, seed)), ..plain }
        };
        trial.input = input;
        if let Some(first) = run.trials.get(input) {
            trial.differs_from_first = trial.observed != first.observed;
        }
        run.trials.push(trial);
        if i == 0 {
            run.peak_rss_mb = crate::proc::vm_hwm_mb();
        }
        last_s = secs(t);
    }
}
