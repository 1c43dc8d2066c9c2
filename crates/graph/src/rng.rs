//! Deterministic seed derivation.
//!
//! Experiments fan hundreds of trials out across threads; each trial, and
//! each node within a trial, needs an independent RNG stream that is a pure
//! function of `(experiment seed, trial index, node id)` so results are
//! exactly reproducible regardless of thread scheduling. SplitMix64 is the
//! standard mixer for this purpose (it is the seeding function recommended
//! by the xoshiro authors); we use it only to *derive* seeds — simulation
//! randomness itself comes from `rand`'s `SmallRng` seeded with the derived
//! value.

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// One step of the SplitMix64 sequence: returns the mixed output for `state`.
#[inline]
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Derive a child seed from a parent seed and a stream index.
#[inline]
pub fn derive_seed(parent: u64, stream: u64) -> u64 {
    // Mix the stream index through two rounds so adjacent indices land far
    // apart; a single xor would correlate low bits across streams.
    splitmix64(parent ^ splitmix64(stream.wrapping_add(0xA076_1D64_78BD_642F)))
}

/// A `SmallRng` for `(parent seed, stream index)`.
#[inline]
pub fn stream_rng(parent: u64, stream: u64) -> SmallRng {
    // this IS the sanctioned stream constructor. mtm-lint: allow(smallrng-outside-engine)
    SmallRng::seed_from_u64(derive_seed(parent, stream))
}

/// A counter-based uniform draw in `[0, 1)`: a pure function of
/// `(seed, a, b)` with no sequential RNG state.
///
/// Unlike a stream RNG, the draw for one counter pair never depends on how
/// many other draws happened or in what order, so it can be evaluated in
/// any order — e.g. by the event backend, whose processing order is not
/// node order. The engine keys its per-proposal loss coins on
/// `(loss seed, round, proposer)` through this function.
///
/// The output has 53 uniform mantissa bits (the full precision of an `f64`
/// in `[0, 1)`), derived by double-mixing the counters through
/// [`derive_seed`] and one extra [`splitmix64`] round.
#[inline]
pub fn counter_coin(seed: u64, a: u64, b: u64) -> f64 {
    let z = splitmix64(derive_seed(derive_seed(seed, a), b));
    // Top 53 bits → [0, 1) with the standard 2^-53 grid.
    (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn splitmix_is_deterministic() {
        assert_eq!(splitmix64(0), splitmix64(0));
        assert_eq!(splitmix64(42), splitmix64(42));
        assert_ne!(splitmix64(0), splitmix64(1));
    }

    #[test]
    fn derived_seeds_differ_across_streams() {
        let s: Vec<u64> = (0..100).map(|i| derive_seed(7, i)).collect();
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 100, "collision in derived seeds");
    }

    #[test]
    fn derived_seeds_differ_across_parents() {
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
    }

    #[test]
    fn stream_rng_reproducible() {
        let mut a = stream_rng(123, 4);
        let mut b = stream_rng(123, 4);
        for _ in 0..32 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn counter_coin_in_unit_interval_and_deterministic() {
        for a in 0..50u64 {
            for b in 0..50u64 {
                let x = counter_coin(7, a, b);
                assert!((0.0..1.0).contains(&x), "coin({a},{b}) = {x} out of [0,1)");
                assert_eq!(x, counter_coin(7, a, b));
            }
        }
        assert_ne!(counter_coin(7, 1, 2), counter_coin(8, 1, 2));
        assert_ne!(counter_coin(7, 1, 2), counter_coin(7, 2, 1));
    }

    #[test]
    fn counter_coin_is_roughly_uniform() {
        // 10k draws: the mean of U[0,1) concentrates near 1/2.
        let n = 10_000u64;
        let sum: f64 = (0..n).map(|i| counter_coin(42, i, i ^ 0xABCD)).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} far from 0.5");
    }

    #[test]
    fn stream_rng_streams_diverge() {
        let mut a = stream_rng(123, 4);
        let mut b = stream_rng(123, 5);
        let va: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_ne!(va, vb);
    }
}
