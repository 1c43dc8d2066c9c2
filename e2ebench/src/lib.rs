//! End-to-end and per-layer benchmark of the election and service paths.
//!
//! Users run this simulator to learn how many rounds an election takes, so
//! what they wait for is building the graph plus stepping an engine until
//! every node agrees. The benchmark measures that wait end to end, and in a
//! separate traced run splits it by layer. It times calls into each layer's
//! public functions from outside; no timer runs inside the simulator.
//!
//! # Running
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- compare OLD NEW
//! ```
//!
//! A run measures a fixed set of inputs, six to sixteen per workload: input
//! `i` derives its graph, UID, tag, fault and engine seeds from
//! `derive_seed(seed, i)`, so a seed fixes every input. Trials run the
//! inputs round-robin, one after another in one single-threaded process
//! (every engine keeps its default of one thread): one full pass, then
//! more passes while the next trial should end within `--seconds`. Each
//! repeat must reproduce its input's first trial exactly. `--workload all`
//! runs each workload in a child process of its own, so a workload's
//! `peak_rss_mb` is never a high-water mark left by another.
//!
//! Every timing is the median over the inputs of each input's fastest
//! repeat. On a small shared host the same trial's time swings by half or
//! more within seconds, as neighbours come and go, and a median over all
//! trials moves with them. Interference only adds time, so the fastest
//! repeat of an input is the steadiest estimate of what the program itself
//! costs, and the median over inputs is that of a typical input. Swings of
//! the whole host that last minutes remain: on a 2-core shared Xeon, ten
//! runs of the same code with ten seeds spread by 7 to 23% of their
//! median (interquartile range) on `solve_s`, and the medians of two such
//! sets differed by up to a fifth, all workloads slowing and recovering
//! together.
//!
//! A run prints a human report on stderr, then two lines on stdout: a
//! record (settings, host block, failures, `failed_frac`, the per-trial
//! and per-input-fastest samples, metrics) and last the result
//! `{"correct", "attempted", "failed", "metrics"}`; `attempted` counts
//! every trial, repeats included. With
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
//! per-layer ones. `compare` reads saved outputs back and flags every row
//! whose two host blocks name different machines; `baseline.jsonl` holds
//! the records of `--workload all --seed 1 --seconds 28` at both trace
//! settings, measured on the tree that added this benchmark.
//!
//! # End-to-end metrics (`--trace 0`)
//!
//! * `setup_s`: seconds from a topology spec to a built engine: graph
//!   generation, UID pool, protocol spawn, engine construction.
//! * `solve_s`: seconds from a built engine to the result, by the call
//!   users make: `run_to_stabilization` on either backend, or
//!   `run_service` over the horizon.
//! * `mnode_rounds_per_s`: node-rounds over `setup + solve` time (each
//!   input's fastest repeat), summed over the inputs, in millions.
//!   Node-rounds are `n ×` executed rounds; on the event backend, the sum
//!   of local rounds.
//! * `peak_rss_mb`: the process's `VmHWM` once its first trial has
//!   finished, i.e. one trial's footprint in a fresh process.
//! * `failed_frac`: failed trials over attempted trials. It is reported in
//!   the record and the human report, and as the result's `failed` and
//!   `attempted`. A trial fails when it does not stabilize within its
//!   budget, elects another leader than the min UID (blind gossip) or the
//!   min (tag, uid) pair (bit convergence), breaks `proposals =
//!   connections + rejected + dropped`, has a traced copy that disagrees
//!   with it on rounds, winner or `Metrics`, or is a service run that
//!   wedged or whose step-only twin's `Metrics` differ. A failed trial is
//!   counted, never panicked on.
//!
//! # Per-layer metrics (`--trace 1`)
//!
//! Each trial also runs a traced copy from the same seed; the metrics come
//! from each input's fastest traced copy, medians over inputs. The lockstep
//! copy replays `run_to_stabilization` as `leaders_agree()` + `step()`
//! calls, which is exactly the `run_until` contract; the event copy wraps
//! the predicate closure passed to `run_until`. A layer a workload does not
//! run reads 0. Which end-to-end metric each should move, on which
//! workload:
//!
//! | metric | layer timed | moves | on |
//! |---|---|---|---|
//! | `graph.gen_s` | `GraphFamily::build` | `setup_s` | blind (most), all |
//! | `graph.gen_peak_rss_mb` | `VmHWM` after the first build | `peak_rss_mb` | blind |
//! | `graph.csr_bytes_per_node` | `Graph::csr_parts` sizes | `peak_rss_mb` | all |
//! | `graph.faults.graph_at_s` | `FaultyTopology::graph_at(1..=horizon)`, twin topology | `solve_s` | serve |
//! | `core.spawn_s` | `UidPool::random` + `spawn` | `setup_s` | all |
//! | `engine.new_s` | `Engine::new` / `EventEngine::new` | `setup_s` | all |
//! | `engine.step_s`, `engine.step_ns_per_node_round` | `Engine::step` | `solve_s` | bitconv (most), blind |
//! | `engine.predicate_s`, `engine.predicate_calls` | `Engine::leaders_agree` | `solve_s` | blind, bitconv |
//! | `engine.rounds`, `.proposals`, `.connections`, `.rejected`, `.dropped`, `.connect_ratio` | `Metrics` counts | explain `solve_s` changes from a semantics bump | all |
//! | `event.run_self_s`, `event.events`, `event.events_per_s` | `EventEngine::run_until` minus the predicate | `solve_s` | event |
//! | `event.predicate_s`, `event.predicate_calls` | the `run_until` predicate | `solve_s` | event |
//! | `event.mean_local_rounds` | `EventEngine::mean_local_rounds` | `mnode_rounds_per_s` | event |
//! | `service.run_s` | `Engine::run_service` | `solve_s` | serve |
//! | `service.step_only_s` | a twin engine's `step()` × horizon | `solve_s` | serve |
//! | `service.survey_s` | `run_s - step_only_s` | `solve_s` | serve |
//! | `service.re_elections`, `.stable_rounds`, `.leaderless_rounds`, `.epochs` | `ServiceOutcome` counts | explain `solve_s` | serve |
//! | `bench.trace_overhead_frac` | traced over untraced total, minus 1 | — | all |
//!
//! The split accounts for the totals: `graph.gen_s + core.spawn_s +
//! engine.new_s ≈ setup_s` everywhere, `engine.step_s +
//! engine.predicate_s ≈ solve_s` on the lockstep elections, and
//! `event.run_self_s + event.predicate_s ≈ solve_s` on the event workload,
//! each within `bench.trace_overhead_frac`.
//!
//! # Why each workload exists
//!
//! * `elect-blind-expander`: blind gossip, `b = 0`, 8-regular expander,
//!   n = 16,384, synchronized, lockstep. Graph generation is most of the
//!   wall time and the step is the `b = 0` scan fast path, so a
//!   graph-generation change must show here and a step change barely can.
//! * `elect-bitconv-expander`: bit convergence, `b = 1`, n = 4,096. About
//!   1,300 rounds, so the step is most of the wall time, on the
//!   tag-gathering path of the same `Engine::step`: a `b = 0` fast-path
//!   gain that costs `b = 1` shows here.
//! * `elect-event-expander`: `EventEngine`, blind gossip,
//!   `LatencyModel::multipeer(16)`, n = 4,096, about 1.2 M events. The
//!   lockstep engine is bypassed entirely, so a lockstep change must read
//!   no change here; it is the only bench of the asynchronous backend.
//! * `serve-churn-expander`: `MaintainedGossip` under `run_service` on a
//!   `FaultyTopology` with crash 10⁻³ / recover 2·10⁻³, n = 8,192, 1,000
//!   rounds: C4's regime at a benchable size, and the only workload where
//!   the topology is rebuilt every round and service surveys run.
//!
//! The sizes are a quarter to a half of those of the experiments (65,536
//! for blind gossip, 16,384 for the rest) so that a 28-second run repeats
//! each of its inputs four or more times, enough for the fastest repeat to
//! escape the host's busy spells, which last five to twenty seconds. The
//! larger graphs also made the timings swing more: a trial's working set
//! beyond the core's own cache lives in the cache the host shares with its
//! neighbours. At n = 16,384 blind gossip still spends about three
//! quarters of a trial building the graph.
//!
//! # What is not measured
//!
//! The sharded executor (`Engine::set_threads` above 1) is not measured:
//! on a small shared host a multi-thread run measures the scheduler and
//! the neighbours' load, not the executor, and whether the executor stays
//! is settled by its own multi-core evidence. `mtm-check` is not measured
//! either: it explores n ≤ 6 exhaustively, which is neither what users
//! wait for when they elect nor any layer of these paths.

pub mod host;
pub mod proc;
pub mod report;
pub mod workload;

pub use host::Host;
pub use report::Metric;
pub use workload::{Run, RunConfig, Trial, Workload};
