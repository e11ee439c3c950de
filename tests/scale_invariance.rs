//! Normalised metrics must be stable across population scales — the
//! property that justifies running the paper's experiments on reduced
//! populations (the paper's own §4.1 claim that "results should [be]
//! the same for bigger systems").

use peerback::{run_simulation, AgeCategory, SimConfig};

fn config(peers: usize, seed: u64) -> SimConfig {
    let mut cfg = SimConfig::paper(peers, 8_000, seed);
    cfg.k = 8;
    cfg.m = 8;
    cfg.quota = 48;
    cfg.with_threshold(10)
}

#[test]
fn per_peer_rates_are_stable_across_population_size() {
    let small = run_simulation(config(400, 2));
    let large = run_simulation(config(1_200, 2));

    for cat in [AgeCategory::Newcomer, AgeCategory::Young] {
        let a = small
            .repair_rate_per_1000(cat)
            .expect("rate at small scale");
        let b = large
            .repair_rate_per_1000(cat)
            .expect("rate at large scale");
        let ratio = a.max(b) / a.min(b);
        assert!(
            ratio < 2.0,
            "{}: normalised rates should agree across scales (got {a:.4} vs {b:.4})",
            cat.name()
        );
    }
}

#[test]
fn departure_rate_scales_linearly_with_population() {
    let small = run_simulation(config(400, 4));
    let large = run_simulation(config(1_200, 4));
    let per_peer_small = small.diag.departures as f64 / 400.0;
    let per_peer_large = large.diag.departures as f64 / 1_200.0;
    let ratio = per_peer_small.max(per_peer_large) / per_peer_small.min(per_peer_large);
    assert!(
        ratio < 1.25,
        "departures per peer should be scale-free: {per_peer_small:.3} vs {per_peer_large:.3}"
    );
}
