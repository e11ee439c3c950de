//! The fabric ↔ simulator cross-check (the tentpole's acceptance test).
//!
//! * Faults **off**: over a 200-round run, the fabric's byte-level
//!   restorability equals the simulator's predicted restorability for
//!   every audited archive — zero audit mismatches — and the wrapped
//!   simulator's metrics are identical to a plain run.
//! * Faults **on**: every data-loss event the auditor reports comes
//!   from a decode attempt with fewer than `k` intact shards, and the
//!   whole run is deterministic under a fixed seed.

use peerback_core::{
    run_simulation, AdaptiveRedundancy, FailureDomainConfig, MaintenancePolicy, SelectionStrategy,
    SimConfig,
};
use peerback_fabric::{run_fabric, FabricConfig, FabricReport, FaultProfile};

/// A small but churn-rich world: 48 peers, 4+4 blocks, tight threshold.
fn sim_config(seed: u64, rounds: u64) -> SimConfig {
    let mut cfg = SimConfig::paper(48, rounds, seed);
    cfg.k = 4;
    cfg.m = 4;
    cfg.quota = 24;
    cfg.maintenance = MaintenancePolicy::Reactive { threshold: 5 };
    cfg
}

fn run(seed: u64, rounds: u64, faults: FaultProfile) -> FabricReport {
    let fabric_cfg = FabricConfig {
        faults,
        ..FabricConfig::default()
    };
    run_fabric(sim_config(seed, rounds), fabric_cfg).expect("valid configs")
}

#[test]
fn faults_off_byte_restorability_equals_simulator_prediction() {
    let report = run(42, 200, FaultProfile::NONE);

    // The run actually exercised the plane…
    assert!(report.stats.transfers_attempted > 100, "{:?}", report.stats);
    assert!(report.stats.joins >= 48, "{:?}", report.stats);
    assert!(report.audit.checks > 1_000, "{:?}", report.audit);
    assert!(report.audit.decode_attempts > 0);

    // …with a perfect transfer record (no faults)…
    assert_eq!(
        report.stats.transfers_attempted,
        report.stats.transfers_delivered
    );
    assert_eq!(report.stats.duplicate_frames, 0);
    assert_eq!(report.stats.bitrot_events, 0);
    assert_eq!(report.stats.repair_decode_fallbacks, 0);

    // …and exact agreement between the two halves, every archive,
    // every audited round.
    assert_eq!(
        report.audit.mismatches, 0,
        "notes: {:?}",
        report.audit.notes
    );
    assert_eq!(report.audit.fault_induced_losses, 0);
    assert_eq!(report.audit.consistent, report.audit.checks);

    // Simulator-declared losses (if any at this seed) were all verified
    // against real bytes: fewer than k intact shards at loss time.
    assert_eq!(report.stats.losses_observed, report.losses.len() as u64);
    for loss in &report.losses {
        assert!(
            loss.intact_shards < loss.k,
            "loss at round {} had {} intact shards",
            loss.round,
            loss.intact_shards
        );
    }
}

#[test]
fn wrapping_the_world_does_not_perturb_the_simulation() {
    let plain = run_simulation(sim_config(7, 200));
    let fabric = run(7, 200, FaultProfile::NONE);
    assert_eq!(plain.repairs, fabric.metrics.repairs);
    assert_eq!(plain.losses, fabric.metrics.losses);
    assert_eq!(plain.diag, fabric.metrics.diag);
    assert_eq!(
        plain.total_losses(),
        fabric.stats.losses_observed,
        "every simulator loss must be replayed byte-side"
    );
}

#[test]
fn faults_on_every_loss_event_has_fewer_than_k_intact_shards() {
    let report = run(42, 300, FaultProfile::uniform(0.08));

    // Faults actually fired, in several shapes.
    let failed = report.stats.transfers_corrupted
        + report.stats.transfers_truncated
        + report.stats.transfers_flapped;
    assert!(
        failed > 0,
        "no transfer failures at 8% rates: {:?}",
        report.stats
    );
    assert!(report.stats.duplicate_frames > 0);
    assert!(
        report.stats.transfers_delivered < report.stats.transfers_attempted,
        "some transfers must fail"
    );

    // The contract survives the noise: no mismatches, and every
    // auditor-reported data loss traces to a decode attempt with fewer
    // than k intact shards.
    assert_eq!(
        report.audit.mismatches, 0,
        "notes: {:?}",
        report.audit.notes
    );
    assert!(!report.losses.is_empty(), "8% faults should cost something");
    for loss in &report.losses {
        assert!(
            loss.intact_shards < loss.k,
            "loss at round {} owner {} had {} intact shards (k = {})",
            loss.round,
            loss.owner,
            loss.intact_shards,
            loss.k
        );
    }
}

#[test]
fn fabric_runs_are_deterministic_under_a_fixed_seed() {
    for faults in [FaultProfile::NONE, FaultProfile::uniform(0.08)] {
        let a = run(11, 150, faults);
        let b = run(11, 150, faults);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.audit, b.audit);
        assert_eq!(a.losses, b.losses);
        assert_eq!(a.metrics.repairs, b.metrics.repairs);
        assert_eq!(a.metrics.diag, b.metrics.diag);
    }
    let c = run(12, 150, FaultProfile::uniform(0.08));
    let d = run(11, 150, FaultProfile::uniform(0.08));
    assert_ne!(c.stats, d.stats, "different seeds must diverge");
}

#[test]
fn sharded_fabric_replay_is_identical_and_audits_cleanly() {
    // The simulator's determinism contract extends through the byte
    // plane: the fabric replays the same event stream whatever the
    // worker count, so every byte-level counter matches too. A larger
    // population than the other tests so the peer table actually splits
    // into several logical shards.
    let mk = |shards: usize| {
        let mut cfg = SimConfig::paper(300, 80, 21);
        cfg.k = 4;
        cfg.m = 4;
        cfg.quota = 24;
        cfg.maintenance = MaintenancePolicy::Reactive { threshold: 5 };
        cfg.shards = shards;
        run_fabric(cfg, FabricConfig::default()).expect("valid configs")
    };
    let single = mk(1);
    let sharded = mk(4);
    assert!(single.stats.transfers_attempted > 100);
    assert_eq!(single.audit.mismatches, 0, "{:?}", single.audit.notes);
    assert_eq!(sharded.audit.mismatches, 0, "{:?}", sharded.audit.notes);
    assert_eq!(single.metrics, sharded.metrics);
    assert_eq!(single.stats, sharded.stats);
    assert_eq!(single.audit, sharded.audit);
    assert_eq!(single.losses, sharded.losses);
}

#[test]
fn sharded_faulty_replay_is_identical_and_retries_repair_transfers() {
    // Combined-mode determinism with the full machinery engaged: fault
    // injection (per-transfer derived RNG streams), the retry/backoff
    // path, and the sharded parallel replay must all produce the same
    // report at every worker count.
    let mk = |shards: usize| {
        let mut cfg = SimConfig::paper(300, 120, 21);
        cfg.k = 4;
        cfg.m = 4;
        cfg.quota = 24;
        cfg.maintenance = MaintenancePolicy::Reactive { threshold: 5 };
        cfg.shards = shards;
        let fabric_cfg = FabricConfig {
            faults: FaultProfile::uniform(0.06),
            ..FabricConfig::default()
        };
        run_fabric(cfg, fabric_cfg).expect("valid configs")
    };
    let single = mk(1);
    let sharded = mk(4);
    assert_eq!(single.metrics, sharded.metrics);
    assert_eq!(single.stats, sharded.stats);
    assert_eq!(single.audit, sharded.audit);
    assert_eq!(single.losses, sharded.losses);

    // The retry path actually ran and actually repaired transfers.
    assert!(
        single.stats.transfers_retried > 0,
        "no retries at 6% fault rates: {:?}",
        single.stats
    );
    assert!(
        single.stats.retry_deliveries > 0,
        "retries never delivered: {:?}",
        single.stats
    );
    // Retried frames are a subset of attempted frames.
    assert!(single.stats.transfers_retried <= single.stats.transfers_attempted);
}

#[test]
fn combined_mode_arena_recycling_is_invisible() {
    // The executor's recycled round arenas must not leak state into the
    // combined mode either: the same faulty, sharded scenario with
    // fresh per-round buffers produces the identical full report.
    let mk = |recycle: bool| {
        let mut cfg = SimConfig::paper(300, 120, 21);
        cfg.k = 4;
        cfg.m = 4;
        cfg.quota = 24;
        cfg.maintenance = MaintenancePolicy::Reactive { threshold: 5 };
        cfg.shards = 4;
        let fabric_cfg = FabricConfig {
            faults: FaultProfile::uniform(0.06),
            ..FabricConfig::default()
        };
        let mut fabric = peerback_fabric::Fabric::new(cfg, fabric_cfg).expect("valid configs");
        fabric.set_arena_recycling(recycle);
        fabric.run()
    };
    let recycled = mk(true);
    let fresh = mk(false);
    assert!(recycled.stats.transfers_attempted > 100);
    assert_eq!(recycled.metrics, fresh.metrics);
    assert_eq!(recycled.stats, fresh.stats);
    assert_eq!(recycled.audit, fresh.audit);
    assert_eq!(recycled.losses, fresh.losses);
}

#[test]
fn faults_off_transfers_never_retry() {
    let report = run(13, 150, FaultProfile::NONE);
    assert_eq!(report.stats.transfers_retried, 0);
    assert_eq!(report.stats.retry_deliveries, 0);
    assert_eq!(report.stats.retries_abandoned, 0);
    assert_eq!(report.stats.scrub_checked, 0, "scrubbing defaults to off");
}

#[test]
fn scrubbing_sweeps_detect_and_repair_bitrot() {
    // Bitrot-only profile: every transfer delivers, but stored bytes
    // rot at ingest. Scrubbing sweeps must catch the rot at rest and
    // drain the repair backlog through the retry machinery by run end.
    let mk = |scrub_interval: u64, shards: usize| {
        let mut cfg = SimConfig::paper(96, 300, 33);
        cfg.k = 4;
        cfg.m = 4;
        cfg.quota = 24;
        cfg.maintenance = MaintenancePolicy::Reactive { threshold: 5 };
        cfg.shards = shards;
        let fabric_cfg = FabricConfig {
            faults: FaultProfile {
                bitrot_rate: 0.05,
                ..FaultProfile::NONE
            },
            scrub_interval,
            ..FabricConfig::default()
        };
        run_fabric(cfg, fabric_cfg).expect("valid configs")
    };

    let scrubbed = mk(4, 1);
    assert!(scrubbed.stats.bitrot_events > 0, "{:?}", scrubbed.stats);
    assert!(scrubbed.stats.scrub_checked > 0, "{:?}", scrubbed.stats);
    assert!(scrubbed.stats.scrub_detected > 0, "{:?}", scrubbed.stats);
    assert!(scrubbed.stats.scrub_repaired > 0, "{:?}", scrubbed.stats);
    // Every detection ends repaired or provably moot: with in-flight
    // faults off, a scheduled re-ship cannot fail.
    assert_eq!(scrubbed.stats.scrub_unrepaired(), 0, "{:?}", scrubbed.stats);
    // A detection is one rotten block, and a block rots (at most once)
    // only at ingest.
    assert!(scrubbed.stats.scrub_detected <= scrubbed.stats.bitrot_events);
    assert_eq!(scrubbed.audit.mismatches, 0, "{:?}", scrubbed.audit.notes);

    // The scrubbing machinery obeys the sharded-determinism contract.
    let sharded = mk(4, 4);
    assert_eq!(scrubbed.stats, sharded.stats);
    assert_eq!(scrubbed.audit, sharded.audit);
    assert_eq!(scrubbed.losses, sharded.losses);

    // Scrubbing repairs rot before the auditor has to count it: the
    // same world unscrubbed can only do worse (or equal).
    let unscrubbed = mk(0, 1);
    assert_eq!(unscrubbed.stats.scrub_checked, 0);
    assert!(
        scrubbed.audit.fault_induced_losses <= unscrubbed.audit.fault_induced_losses,
        "scrubbed {} > unscrubbed {}",
        scrubbed.audit.fault_induced_losses,
        unscrubbed.audit.fault_induced_losses
    );
}

#[test]
fn sampled_audit_covers_a_deterministic_subset() {
    let mk = |period: u64, shards: usize| {
        let mut cfg = SimConfig::paper(300, 80, 21);
        cfg.k = 4;
        cfg.m = 4;
        cfg.quota = 24;
        cfg.maintenance = MaintenancePolicy::Reactive { threshold: 5 };
        cfg.shards = shards;
        let fabric_cfg = FabricConfig {
            audit_sample_period: period,
            ..FabricConfig::default()
        };
        run_fabric(cfg, fabric_cfg).expect("valid configs")
    };

    let full = mk(1, 1);
    let sampled = mk(8, 1);

    // Roughly one cell in eight is decoded (loose band; the subset is
    // a seeded hash, not a stride).
    assert!(sampled.audit.checks > 0);
    assert!(
        sampled.audit.checks > full.audit.checks / 16
            && sampled.audit.checks < full.audit.checks / 4,
        "sampled {} of {} checks",
        sampled.audit.checks,
        full.audit.checks
    );
    // The covered subset still cross-checks perfectly…
    assert_eq!(sampled.audit.mismatches, 0, "{:?}", sampled.audit.notes);
    assert_eq!(sampled.audit.consistent, sampled.audit.checks);
    // …and sampling is observational: the wrapped simulation and the
    // transfer plane are untouched.
    assert_eq!(full.metrics, sampled.metrics);
    assert_eq!(full.stats, sampled.stats);

    // The subset is a pure function of (round, owner, archive): the
    // same cells at any shard/worker partition.
    let sharded = mk(8, 4);
    assert_eq!(sampled.audit, sharded.audit);
    assert_eq!(sampled.stats, sharded.stats);
    assert_eq!(sampled.losses, sharded.losses);
}

#[test]
fn age_misreporting_peers_do_not_break_the_restorability_audit() {
    // Adversarial peers that inflate their claimed age skew *who gets
    // selected* — for the age-trusting strategies, exactly the input an
    // attacker controls — but placement, transfers and the byte plane
    // must stay coherent: zero audit mismatches, every simulator loss
    // verified, and the sharded determinism contract intact with the
    // axis enabled.
    for strategy in [SelectionStrategy::AgeBased, SelectionStrategy::LearnedAge] {
        let mk = |shards: usize| {
            let mut cfg = SimConfig::paper(300, 120, 17)
                .with_strategy(strategy)
                .with_misreport(0.5);
            cfg.k = 4;
            cfg.m = 4;
            cfg.quota = 24;
            cfg.maintenance = MaintenancePolicy::Reactive { threshold: 5 };
            cfg.shards = shards;
            run_fabric(cfg, FabricConfig::default()).expect("valid configs")
        };
        let single = mk(1);
        assert!(
            single.stats.transfers_attempted > 100,
            "{strategy:?}: {:?}",
            single.stats
        );
        assert_eq!(
            single.audit.mismatches, 0,
            "{strategy:?}: {:?}",
            single.audit.notes
        );
        assert_eq!(single.audit.consistent, single.audit.checks);
        for loss in &single.losses {
            assert!(loss.intact_shards < loss.k, "{strategy:?}: {loss:?}");
        }
        let sharded = mk(4);
        assert_eq!(single.metrics, sharded.metrics, "{strategy:?}");
        assert_eq!(single.stats, sharded.stats, "{strategy:?}");
        assert_eq!(single.audit, sharded.audit, "{strategy:?}");
    }
}

#[test]
fn adaptive_and_proactive_policies_also_cross_check_cleanly() {
    for maintenance in [
        MaintenancePolicy::Adaptive {
            base: 6,
            floor_margin: 1,
            step: 1,
        },
        MaintenancePolicy::Proactive { tick_rounds: 12 },
    ] {
        let mut cfg = sim_config(5, 200);
        cfg.maintenance = maintenance;
        let report = run_fabric(cfg, FabricConfig::default()).expect("valid configs");
        assert_eq!(
            report.audit.mismatches, 0,
            "{maintenance:?}: {:?}",
            report.audit.notes
        );
        assert!(report.stats.transfers_delivered > 0);
    }
}

#[test]
fn trimmed_archives_rejoin_at_their_target_width() {
    // Adaptive redundancy trims archives below `n`; one that loses its
    // copy in the regional outage re-joins at its trimmed `target_n`,
    // so the fabric's mirror holds fewer than `n` filled slots at join
    // time. The join check must compare against the placed count the
    // simulator reports, not against `n`.
    let mut cfg = SimConfig::paper(256, 400, 7)
        .with_adaptive_n(AdaptiveRedundancy::tuned(4))
        .with_failure_domains(FailureDomainConfig {
            domains: 8,
            outage_rate: 0.002,
            outage_rounds: 20,
            outage_at: 150,
            ..FailureDomainConfig::default()
        });
    cfg.k = 8;
    cfg.m = 8;
    cfg.quota = 48;
    cfg.maintenance = MaintenancePolicy::Proactive { tick_rounds: 24 };
    let fabric_cfg = FabricConfig {
        audit_interval: 2,
        scrub_interval: 16,
        ..FabricConfig::default()
    };
    let report = run_fabric(cfg, fabric_cfg).expect("valid configs");
    assert!(
        report.metrics.diag.redundancy_narrowed > 0,
        "nothing trimmed"
    );
    assert_eq!(
        report.audit.mismatches, 0,
        "notes: {:#?}",
        report.audit.notes
    );
}

#[test]
fn observers_cross_check_cleanly() {
    let cfg = sim_config(9, 200).with_paper_observers();
    let report = run_fabric(cfg, FabricConfig::default()).expect("valid configs");
    assert_eq!(report.audit.mismatches, 0, "{:?}", report.audit.notes);
    assert_eq!(report.metrics.observers.len(), 5);
}

#[test]
fn invalid_configurations_are_refused() {
    // Geometry the GF(2^8) codec cannot express.
    let mut cfg = SimConfig::paper(48, 10, 1).with_threshold(300);
    cfg.k = 200;
    cfg.m = 200;
    cfg.quota = 1200;
    assert!(run_fabric(cfg, FabricConfig::default())
        .unwrap_err()
        .contains("erasure geometry"));

    // Out-of-range fault rate.
    let bad_faults = FabricConfig {
        faults: FaultProfile {
            corrupt_rate: 2.0,
            ..FaultProfile::NONE
        },
        ..FabricConfig::default()
    };
    assert!(run_fabric(sim_config(1, 10), bad_faults)
        .unwrap_err()
        .contains("probability"));

    // Zero audit interval.
    let bad_interval = FabricConfig {
        audit_interval: 0,
        ..FabricConfig::default()
    };
    assert!(run_fabric(sim_config(1, 10), bad_interval)
        .unwrap_err()
        .contains("audit interval"));

    // Zero audit sample period (1 is the full scan; 0 is a mistake).
    let bad_period = FabricConfig {
        audit_sample_period: 0,
        ..FabricConfig::default()
    };
    assert!(run_fabric(sim_config(1, 10), bad_period)
        .unwrap_err()
        .contains("sample period"));
}

#[test]
fn scrub_reships_abandoned_at_the_attempt_cap_are_not_unrepaired() {
    // Heavy in-flight damage: some scrub re-ships are damaged on every
    // attempt and given up at the attempt cap, like any other retry.
    // Each such detection counts as `scrub_abandoned`, which closes it:
    // every detection ends repaired, moot or abandoned by run end.
    let mk = |shards: usize| {
        let mut cfg = SimConfig::paper(96, 240, 11);
        cfg.k = 4;
        cfg.m = 4;
        cfg.quota = 24;
        cfg.maintenance = MaintenancePolicy::Reactive { threshold: 5 };
        cfg.shards = shards;
        let fabric_cfg = FabricConfig {
            faults: FaultProfile {
                corrupt_rate: 0.3,
                truncate_rate: 0.3,
                bitrot_rate: 0.05,
                ..FaultProfile::NONE
            },
            scrub_interval: 4,
            ..FabricConfig::default()
        };
        run_fabric(cfg, fabric_cfg).expect("valid configs")
    };
    let report = mk(1);
    let s = &report.stats;
    assert!(s.scrub_abandoned > 0, "no scrub re-ship hit the cap: {s:?}");
    assert!(s.scrub_abandoned <= s.retries_abandoned, "{s:?}");
    assert_eq!(s.scrub_unrepaired(), 0, "{s:?}");
    assert_eq!(report.audit.mismatches, 0, "{:?}", report.audit.notes);
    assert_eq!(report.stats, mk(4).stats);
}
