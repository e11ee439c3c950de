//! One-call simulation running.

use peerback_sim::{Engine, WorkerPool};

use crate::config::SimConfig;
use crate::metrics::Metrics;
use crate::world::BackupWorld;

/// Runs one simulation to completion and returns its metrics.
///
/// The run is a pure function of the configuration (including its seed).
///
/// # Panics
///
/// Panics if the configuration fails [`SimConfig::validate`].
pub fn run_simulation(cfg: SimConfig) -> Metrics {
    let rounds = cfg.rounds;
    let seed = cfg.seed;
    let mut world = BackupWorld::new(cfg);
    let mut engine = Engine::new(seed);
    engine.run(&mut world, rounds);
    world.into_metrics()
}

/// Runs a set of simulations on worker threads (one per configuration,
/// bounded by the parallelism available). Results come back in input
/// order.
pub fn run_sweep(configs: Vec<SimConfig>) -> Vec<Metrics> {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    run_sweep_with_threads(configs, threads)
}

/// As [`run_sweep`] with an explicit worker count.
///
/// # Panics
///
/// Re-raises the panic of a configuration's run, such as one that fails
/// [`SimConfig::validate`].
pub fn run_sweep_with_threads(configs: Vec<SimConfig>, threads: usize) -> Vec<Metrics> {
    let mut results: Vec<Option<Metrics>> = configs.iter().map(|_| None).collect();
    let pool = WorkerPool::new(threads.min(configs.len()));
    pool.run_tasks(pool.width(), true, &mut results, |i, out| {
        *out = Some(run_simulation(configs[i].clone()));
    });
    results
        .into_iter()
        .map(|m| m.expect("every config ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MaintenancePolicy;

    fn tiny(seed: u64, rounds: u64) -> SimConfig {
        let mut cfg = SimConfig::paper(40, rounds, seed);
        cfg.k = 4;
        cfg.m = 4;
        cfg.quota = 24;
        cfg.maintenance = MaintenancePolicy::Reactive { threshold: 5 };
        cfg
    }

    #[test]
    fn run_simulation_is_deterministic() {
        let a = run_simulation(tiny(5, 300));
        let b = run_simulation(tiny(5, 300));
        assert_eq!(a.repairs, b.repairs);
        assert_eq!(a.diag, b.diag);
    }

    #[test]
    fn sweep_matches_individual_runs_in_order() {
        let configs: Vec<SimConfig> = (0..4).map(|s| tiny(s, 200)).collect();
        let individual: Vec<Metrics> = configs.iter().cloned().map(run_simulation).collect();
        let swept = run_sweep_with_threads(configs, 2);
        assert_eq!(swept.len(), individual.len());
        for (a, b) in swept.iter().zip(&individual) {
            assert_eq!(a.repairs, b.repairs);
            assert_eq!(a.losses, b.losses);
            assert_eq!(a.diag, b.diag);
        }
    }

    #[test]
    #[should_panic(expected = "invalid simulation config")]
    fn sweep_reraises_a_config_panic() {
        let mut bad = tiny(1, 100);
        bad.n_peers = 0;
        run_sweep_with_threads(vec![tiny(0, 100), bad, tiny(2, 100)], 2);
    }

    #[test]
    fn sweep_with_more_threads_than_jobs() {
        let swept = run_sweep_with_threads(vec![tiny(1, 100)], 8);
        assert_eq!(swept.len(), 1);
    }
}
