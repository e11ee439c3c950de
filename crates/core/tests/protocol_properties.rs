//! Property-based tests of the protocol kernels: the acceptance
//! function's §3.2 contract, selection-strategy invariants, and
//! config-fuzzed mini-simulations that must never panic.

use peerback_core::{
    acceptance_probability, run_simulation, Candidate, MaintenancePolicy, SelectionStrategy,
    SimConfig,
};
use peerback_sim::sim_rng;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn acceptance_respects_all_three_paper_properties(
        own in 0u64..10_000,
        cand in 0u64..10_000,
        clamp in 1u64..5_000,
    ) {
        let p = acceptance_probability(own, cand, clamp);
        // 1. "The result is never zero … its minimum is 1/L."
        prop_assert!(p >= 1.0 / clamp as f64 - 1e-12);
        prop_assert!(p <= 1.0);
        // 2. "The result is always one if peer p2 is older than peer p1."
        if cand >= own {
            prop_assert_eq!(p, 1.0);
        }
        // 3. Asymmetry below the clamp: if both under L and different,
        //    the two directions disagree.
        let q = acceptance_probability(cand, own, clamp);
        if own < clamp && cand < clamp && own != cand {
            prop_assert_ne!(p, q, "asymmetry lost for {} vs {}", own, cand);
        }
        // Beyond the clamp both directions saturate to 1.
        if own >= clamp && cand >= clamp {
            prop_assert_eq!(p, 1.0);
            prop_assert_eq!(q, 1.0);
        }
    }

    #[test]
    fn acceptance_monotone_in_candidate_age(
        own in 0u64..5_000,
        cand in 0u64..4_999,
        clamp in 2u64..5_000,
    ) {
        let younger = acceptance_probability(own, cand, clamp);
        let older = acceptance_probability(own, cand + 1, clamp);
        prop_assert!(older >= younger - 1e-12);
    }

    #[test]
    fn selection_preserves_pool_membership_and_size(
        seed in any::<u64>(),
        len in 0usize..60,
        d in 0usize..80,
        strategy_idx in 0usize..SelectionStrategy::ALL.len(),
    ) {
        let strategy = SelectionStrategy::ALL[strategy_idx];
        let pool: Vec<Candidate> = (0..len as u32)
            .map(|i| Candidate {
                id: i,
                age: (i as u64).wrapping_mul(seed % 97),
                uptime: ((i as f64) * 0.137).fract(),
                estimated_remaining: (i as u64).wrapping_mul(17) % 5_000,
                true_remaining: (i as u64).wrapping_mul(31) % 10_000,
            })
            .collect();
        let mut chosen = pool.clone();
        let mut rng = sim_rng(seed);
        strategy.choose(&mut rng, &mut chosen, d);
        // Size is min(d, len); every pick came from the pool, unique ids.
        prop_assert_eq!(chosen.len(), d.min(len));
        let mut ids: Vec<u32> = chosen.iter().map(|c| c.id).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), chosen.len(), "duplicate picks");
        for c in &chosen {
            prop_assert!(pool.iter().any(|p| p.id == c.id));
        }
    }
}

/// Config-fuzz: random (valid) configurations simulate a few hundred
/// rounds without panicking, and their accounting stays conserved.
#[test]
fn fuzzed_configurations_never_panic() {
    let mut rng_seed = 0x5eed_0001u64;
    for case in 0..25 {
        rng_seed = rng_seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let pick = |range: std::ops::Range<u64>, salt: u64| -> u64 {
            let x = rng_seed.wrapping_mul(salt | 1);
            range.start + (x >> 16) % (range.end - range.start)
        };

        let k = pick(2..12, 3) as u16;
        let m = pick(1..12, 5) as u16;
        let n = (k + m) as u32;
        let archives = pick(1..3, 7) as u16;
        let mut cfg = SimConfig::paper(pick(30..150, 11) as usize, pick(50..600, 13), rng_seed);
        cfg.k = k;
        cfg.m = m;
        cfg.archives_per_peer = archives;
        cfg.quota = n * archives as u32 + pick(0..64, 17) as u32;
        cfg.offline_timeout = pick(0..48, 19);
        cfg.mutual_acceptance = pick(0..2, 29) == 0;
        cfg.acceptance_enabled = pick(0..2, 31) == 0;
        cfg.refresh_on_repair = pick(0..2, 37) == 0;
        cfg.strategy = SelectionStrategy::ALL[pick(0..5, 41) as usize];
        cfg.maintenance = match pick(0..3, 43) {
            0 => MaintenancePolicy::Reactive {
                threshold: k + pick(1..(m as u64 + 1), 47) as u16,
            },
            1 => MaintenancePolicy::Proactive {
                tick_rounds: pick(1..72, 53),
            },
            _ => MaintenancePolicy::Adaptive {
                base: k + m.max(2) / 2,
                floor_margin: 1,
                step: 1,
            },
        };
        if pick(0..2, 59) == 0 {
            cfg = cfg.with_paper_observers();
        }
        cfg.validate()
            .unwrap_or_else(|e| panic!("case {case}: invalid fuzz config: {e}"));

        let peers = cfg.n_peers as u64;
        let rounds = cfg.rounds;
        let metrics = run_simulation(cfg);
        assert_eq!(metrics.rounds, rounds, "case {case} stopped early");
        // Census conservation holds in every sample.
        for s in &metrics.samples {
            let total: u64 = s.census.iter().sum();
            assert!(total <= peers, "case {case}: census {total} > {peers}");
        }
    }
}
