//! Seeded randomness with reproducible sub-streams.
//!
//! Every simulation is driven by one `u64` seed; per-purpose sub-seeds
//! (one per peer, one per experiment arm, …) are derived with SplitMix64
//! so that changing one consumer's draw pattern cannot perturb another's.

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The RNG used throughout the simulator: `SmallRng` (xoshiro256++),
/// chosen because availability toggling and pool sampling draw hundreds
/// of millions of variates per run and we need speed, not cryptographic
/// strength.
pub type SimRng = SmallRng;

/// Creates the simulation RNG for a seed.
pub fn sim_rng(seed: u64) -> SimRng {
    SimRng::seed_from_u64(seed)
}

/// Derives an independent sub-seed from `(seed, stream)` using the
/// SplitMix64 finalizer — the standard way to fan one seed out into many
/// decorrelated streams.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Maps a derived seed to a uniform draw in `[0, 1)` from its top 53
/// bits, without touching any RNG stream: for choices that must be a
/// pure function of a seed (a slot's adversary role, an incident
/// schedule), identical at every worker and shard count.
pub fn unit_draw(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_seed_same_stream() {
        let mut a = sim_rng(42);
        let mut b = sim_rng(42);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = sim_rng(42);
        let mut b = sim_rng(43);
        let same = (0..100)
            .filter(|_| a.gen::<u64>() == b.gen::<u64>())
            .count();
        assert_eq!(same, 0);
    }

    #[test]
    fn derived_seeds_are_distinct_and_stable() {
        let s1 = derive_seed(7, 0);
        let s2 = derive_seed(7, 1);
        let s3 = derive_seed(8, 0);
        assert_ne!(s1, s2);
        assert_ne!(s1, s3);
        // Deterministic across calls.
        assert_eq!(derive_seed(7, 0), s1);
    }

    #[test]
    fn derived_streams_decorrelate() {
        let mut a = sim_rng(derive_seed(1, 10));
        let mut b = sim_rng(derive_seed(1, 11));
        let same = (0..1000)
            .filter(|_| a.gen::<u64>() == b.gen::<u64>())
            .count();
        assert_eq!(same, 0);
    }
}
