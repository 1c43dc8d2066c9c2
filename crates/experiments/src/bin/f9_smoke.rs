//! CI smoke for the F9 scaling path: one giant blind-gossip cell at
//! `n = 2^22`.
//!
//! This is the cheapest configuration that still exercises everything the
//! full F9 sweep depends on past the direct-CSR threshold: the cycle-union
//! expander builder and the struct-of-arrays engine state at multi-million
//! node counts. It asserts the run stabilizes and prints the wall clock so
//! CI logs show throughput drift; any panic or timeout fails the job.
//!
//! ```text
//! f9_smoke [--seed N]
//! ```

use mtm_experiments::harness::{blind_gossip_rounds, TopoSpec};
use mtm_experiments::opts::ExpOpts;
use mtm_experiments::perf::{RssSampler, Stopwatch};
use mtm_graph::GraphFamily;

const SMOKE_N: usize = 1 << 22;
const MAX_ROUNDS: u64 = 1_000_000;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seed = match args.as_slice() {
        [] => ExpOpts::default().seed,
        [flag, value] if flag == "--seed" => value.parse().unwrap_or_else(|e| {
            eprintln!("error: --seed: {e}");
            std::process::exit(2);
        }),
        _ => {
            eprintln!("usage: f9_smoke [--seed N]");
            std::process::exit(2);
        }
    };
    let spec = TopoSpec::Static { family: GraphFamily::Expander8, n: SMOKE_N };
    let sampler = RssSampler::start(50);
    let sw = Stopwatch::start();
    // Single trial: the giant-cell routing the full sweep uses past
    // DIRECT_CSR_THRESHOLD.
    let results = blind_gossip_rounds(&spec, 1, seed, 1, MAX_ROUNDS);
    let wall = sw.elapsed_secs();
    let rss = sampler.stop();
    let rounds = results[0].unwrap_or_else(|| {
        eprintln!("f9_smoke: blind gossip failed to stabilize within {MAX_ROUNDS} rounds");
        std::process::exit(1);
    });
    let rss_mb = rss.map_or(-1.0, |b| b as f64 / (1024.0 * 1024.0));
    println!("f9_smoke ok: n={SMOKE_N} rounds={rounds} wall_s={wall:.2} peak_rss_mb={rss_mb:.1}");
}
