//! Failure injection: hostile configurations and degenerate populations
//! must degrade gracefully — losses and shortfalls are acceptable,
//! panics and invariant violations are not.

use peerback::churn::{LifetimeSpec, Profile, ProfileMix};
use peerback::{run_simulation, MaintenancePolicy, SimConfig};

fn base(peers: usize, rounds: u64, seed: u64) -> SimConfig {
    let mut cfg = SimConfig::paper(peers, rounds, seed);
    cfg.k = 8;
    cfg.m = 8;
    cfg.quota = 48;
    cfg.with_threshold(10)
}

#[test]
fn all_erratic_population_survives_or_loses_cleanly() {
    // Every peer is erratic: 33% availability, 1-3 month lifetimes.
    let mut cfg = base(300, 6_000, 1);
    cfg.profiles = ProfileMix::new(vec![(
        Profile::new(
            "OnlyErratic",
            LifetimeSpec::Uniform {
                low: 720,
                high: 2160,
            },
            0.33,
        ),
        1.0,
    )]);
    let metrics = run_simulation(cfg);
    // Mass churn: the network is barely viable, but the simulation must
    // complete with consistent accounting.
    assert!(metrics.diag.departures > 200);
    assert!(metrics.diag.partner_timeouts > 0);
    assert_eq!(metrics.rounds, 6_000);
}

#[test]
fn almost_never_online_population_does_not_hang() {
    let mut cfg = base(200, 2_000, 2);
    cfg.profiles = ProfileMix::new(vec![(
        Profile::new("Ghost", LifetimeSpec::Unlimited, 0.05),
        1.0,
    )]);
    let metrics = run_simulation(cfg);
    // Ghost peers overlap rarely; the archives they do manage to place
    // bleed away through timeouts. Losses are expected — crashes and
    // accounting drift are not.
    assert_eq!(metrics.rounds, 2_000);
    let pr: u64 = metrics.peer_rounds.iter().sum();
    assert_eq!(pr, 200 * 2_000, "census must stay conserved");
}

#[test]
fn always_online_immortals_never_repair_after_joining() {
    let mut cfg = base(200, 4_000, 3);
    cfg.profiles = ProfileMix::new(vec![(
        Profile::new("Titan", LifetimeSpec::Unlimited, 1.0),
        1.0,
    )]);
    let metrics = run_simulation(cfg);
    assert_eq!(metrics.diag.departures, 0);
    assert_eq!(metrics.diag.partner_timeouts, 0);
    assert_eq!(
        metrics.total_repairs(),
        0,
        "no churn means no maintenance at all"
    );
    assert_eq!(metrics.diag.joins_completed, 200);
}

#[test]
fn quota_starvation_yields_shortfalls_not_panics() {
    // Quota exactly n: the market has zero slack.
    let mut cfg = base(300, 4_000, 4);
    cfg.quota = 16;
    let metrics = run_simulation(cfg);
    assert!(
        metrics.diag.pool_shortfalls > 0,
        "a zero-slack market must starve sometimes"
    );
    assert_eq!(metrics.rounds, 4_000);
}

#[test]
fn zero_timeout_disables_write_offs() {
    let mut cfg = base(300, 4_000, 5);
    cfg.offline_timeout = 0;
    let metrics = run_simulation(cfg);
    assert_eq!(metrics.diag.partner_timeouts, 0);
}

#[test]
fn aggressive_timeout_churns_but_survives() {
    let mut cfg = base(300, 4_000, 6);
    cfg.offline_timeout = 2; // two hours: nearly every disconnection kills
    let metrics = run_simulation(cfg);
    assert!(metrics.diag.partner_timeouts > 1_000);
    assert!(metrics.total_repairs() > 0);
    assert_eq!(metrics.rounds, 4_000);
}

#[test]
fn proactive_policy_full_run() {
    let mut cfg = base(300, 4_000, 7);
    cfg.maintenance = MaintenancePolicy::Proactive { tick_rounds: 24 };
    let metrics = run_simulation(cfg);
    assert!(metrics.total_repairs() > 0);
    assert_eq!(metrics.rounds, 4_000);
}

#[test]
fn tiny_population_smaller_than_n_cannot_join_but_never_panics() {
    // 10 peers cannot supply 16 distinct partners each.
    let cfg = base(10, 1_000, 9);
    let metrics = run_simulation(cfg);
    assert_eq!(metrics.diag.joins_completed, 0, "joins cannot complete");
    assert!(metrics.diag.pool_shortfalls > 0);
    assert_eq!(metrics.total_losses(), 0, "unjoined peers cannot lose");
}

#[test]
fn single_round_simulation_is_valid() {
    let cfg = base(100, 1, 10);
    let metrics = run_simulation(cfg);
    assert_eq!(metrics.rounds, 1);
}

#[test]
fn mixed_extreme_profiles() {
    // Two-profile world: immortal saints and mayflies.
    let mut cfg = base(400, 6_000, 11);
    cfg.profiles = ProfileMix::new(vec![
        (Profile::new("Saint", LifetimeSpec::Unlimited, 0.99), 0.3),
        (Profile::new("Mayfly", LifetimeSpec::Fixed(72), 0.5), 0.7),
    ]);
    let metrics = run_simulation(cfg);
    // Mayflies die every 3 days; each replacement re-draws a profile,
    // so the population drains into the immortal absorbing state while
    // the replacement machinery runs hot.
    assert!(
        metrics.diag.departures > 500,
        "expected a burst of mayfly deaths, got {}",
        metrics.diag.departures
    );
    assert_eq!(metrics.rounds, 6_000);
}
