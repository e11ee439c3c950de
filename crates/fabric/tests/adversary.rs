//! The adversary plane's contract:
//!
//! * free-riding hosts are caught by challenge-response probes and
//!   quarantined through the world's reputation ledger;
//! * selectively-honest hosts (rotters) are caught by the scrubbing
//!   sweep and feed the same ledger;
//! * an all-honest run passes every challenge and the probes perturb
//!   nothing;
//! * loss-deadline escalation reorders the transfer queue without
//!   perturbing the wrapped simulation;
//! * the retry machinery's edge cases — abandonment when a placement
//!   vanishes mid-partition, duplicate delivery inside a retry window,
//!   backoff jitter — stay deterministic at every worker count;
//! * the whole adversarial combined mode is byte-identical across
//!   worker counts.

use peerback_core::{FailureDomainConfig, MaintenancePolicy, SimConfig};
use peerback_fabric::{
    run_fabric, AdversaryConfig, FabricConfig, FabricReport, FaultProfile, ScheduleConfig,
};

/// A churn-rich world: 4+4 blocks, tight threshold.
fn sim_config(peers: usize, seed: u64, rounds: u64) -> SimConfig {
    let mut cfg = SimConfig::paper(peers, rounds, seed);
    cfg.k = 4;
    cfg.m = 4;
    cfg.quota = 24;
    cfg.maintenance = MaintenancePolicy::Reactive { threshold: 5 };
    cfg
}

/// Frequent full-coverage challenges: every placement probed every
/// five rounds.
fn challenges() -> AdversaryConfig {
    AdversaryConfig {
        challenge_interval: 5,
        challenge_sample_period: 1,
        ..AdversaryConfig::default()
    }
}

#[test]
fn free_riders_are_detected_and_quarantined() {
    let cfg = sim_config(120, 97, 300).with_quarantine_threshold(2);
    let fabric_cfg = FabricConfig {
        adversary: AdversaryConfig {
            free_rider_fraction: 0.12,
            ..challenges()
        },
        ..FabricConfig::default()
    };
    let report = run_fabric(cfg, fabric_cfg).expect("valid configs");

    // Riders intercepted real shipments, challenges caught the holes…
    assert!(report.stats.adversary_drops > 0, "{:?}", report.stats);
    assert!(report.stats.challenges_issued > 0, "{:?}", report.stats);
    assert!(report.stats.challenge_failures > 0, "{:?}", report.stats);
    // …and the ledger pushed targeted riders into quarantine. Every
    // quarantined host must actually have been shipped to.
    assert!(!report.quarantined.is_empty());
    assert!(!report.free_riders_targeted.is_empty());
    let caught = report
        .free_riders_targeted
        .iter()
        .filter(|id| report.quarantined.iter().any(|&(q, _)| q == **id))
        .count();
    // Detection coverage: most targeted riders end up quarantined (the
    // stragglers were targeted only near the end of the run).
    assert!(
        caught * 10 >= report.free_riders_targeted.len() * 8,
        "caught {caught} of {} targeted free riders",
        report.free_riders_targeted.len()
    );
    // The world's side of the ledger agrees with the report.
    assert_eq!(
        report.metrics.diag.hosts_quarantined,
        report.quarantined.len() as u64
    );
    assert!(report.metrics.diag.quarantine_evictions > 0);
}

#[test]
fn rotters_feed_scrub_detections_into_the_ledger() {
    let cfg = sim_config(120, 23, 300).with_quarantine_threshold(3);
    let fabric_cfg = FabricConfig {
        scrub_interval: 6,
        adversary: AdversaryConfig {
            rot_fraction: 0.15,
            ..AdversaryConfig::default()
        },
        ..FabricConfig::default()
    };
    let report = run_fabric(cfg, fabric_cfg).expect("valid configs");

    // Rotters corrupted accepted frames; scrubbing caught them and the
    // repeat offenders crossed the strike threshold.
    assert!(report.stats.adversary_corruptions > 0, "{:?}", report.stats);
    assert!(report.stats.scrub_detected > 0, "{:?}", report.stats);
    assert!(!report.quarantined.is_empty(), "{:?}", report.stats);
    assert!(report.metrics.diag.hosts_quarantined > 0);
}

/// A scheduled scrub re-ship whose placement is dropped while its bytes
/// stream is cancelled, and the detection is moot — counted obsolete,
/// exactly as on the unscheduled retry path, never left unrepaired.
#[test]
fn scheduled_scrub_repairs_of_rotten_blocks_all_resolve() {
    let cfg = sim_config(120, 23, 300).with_quarantine_threshold(3);
    let fabric_cfg = FabricConfig {
        scrub_interval: 6,
        schedule: Some(ScheduleConfig {
            link_cap: Some(40),
            ..ScheduleConfig::default()
        }),
        adversary: AdversaryConfig {
            rot_fraction: 0.15,
            ..AdversaryConfig::default()
        },
        ..FabricConfig::default()
    };
    let report = run_fabric(cfg, fabric_cfg).expect("valid configs");
    let s = &report.stats;
    assert!(s.scrub_detected > 0, "{s:?}");
    assert!(s.transfers_cancelled > 0, "{s:?}");
    assert!(s.scrub_obsolete > 0, "{s:?}");
    assert_eq!(s.scrub_unrepaired(), 0, "{s:?}");
    assert_eq!(report.audit.mismatches, 0, "{:?}", report.audit.notes);
}

#[test]
fn honest_runs_pass_every_challenge_and_stay_unperturbed() {
    let probed_cfg = FabricConfig {
        adversary: challenges(),
        ..FabricConfig::default()
    };
    let probed = run_fabric(
        sim_config(96, 7, 200).with_quarantine_threshold(2),
        probed_cfg,
    )
    .expect("valid configs");
    assert!(probed.stats.challenges_issued > 0, "{:?}", probed.stats);
    assert_eq!(probed.stats.challenge_failures, 0, "{:?}", probed.stats);
    assert!(probed.quarantined.is_empty());

    // Probing every placement changed nothing observable.
    let quiet = run_fabric(sim_config(96, 7, 200), FabricConfig::default()).expect("valid configs");
    assert_eq!(quiet.metrics, probed.metrics);
    assert_eq!(quiet.losses, probed.losses);
}

#[test]
fn loss_deadline_escalation_reorders_without_perturbing_the_simulation() {
    let mk = |margin: u32| {
        let fabric_cfg = FabricConfig {
            faults: FaultProfile {
                flap_rate: 0.25,
                ..FaultProfile::NONE
            },
            schedule: Some(ScheduleConfig {
                link_cap: Some(30),
                escalate_margin: margin,
                ..ScheduleConfig::default()
            }),
            ..FabricConfig::default()
        };
        run_fabric(sim_config(96, 42, 250), fabric_cfg).expect("valid configs")
    };
    let base = mk(0);
    let escalated = mk(2);
    assert_eq!(base.stats.escalated_transfer_rounds, 0);
    assert!(
        escalated.stats.escalated_transfer_rounds > 0,
        "{:?}",
        escalated.stats
    );
    // Escalation reorders bytes, never decisions.
    assert_eq!(base.metrics, escalated.metrics);
    // Conservation still holds under the reordered queue.
    assert_eq!(
        escalated.stats.transfers_attempted + escalated.stats.transfers_cancelled,
        escalated.stats.transfers_queued
    );
}

/// Satellite: retries pending when their placement is torn away by a
/// regional outage mid-partition are abandoned, not leaked.
#[test]
fn retries_abandon_when_the_placement_vanishes_mid_partition() {
    let fd = FailureDomainConfig {
        domains: 4,
        outage_rate: 0.01,
        outage_rounds: 25,
        partition_rate: 0.01,
        partition_rounds: 20,
        ..FailureDomainConfig::default()
    };
    let cfg = sim_config(120, 61, 300).with_failure_domains(fd);
    let fabric_cfg = FabricConfig {
        faults: FaultProfile {
            flap_rate: 0.3,
            ..FaultProfile::NONE
        },
        ..FabricConfig::default()
    };
    let report = run_fabric(cfg, fabric_cfg).expect("valid configs");
    assert!(
        report.metrics.diag.outages_started > 0,
        "{:?}",
        report.metrics.diag
    );
    assert!(report.stats.transfers_retried > 0, "{:?}", report.stats);
    // Outage-driven write-offs tore placements out from under pending
    // retries; every one was abandoned cleanly.
    assert!(report.stats.retries_abandoned > 0, "{:?}", report.stats);
    assert_eq!(report.audit.mismatches, 0, "{:?}", report.audit.notes);
}

/// Satellite: a duplicate delivery inside a retry window is refused by
/// the store, never double-counted as a repair.
#[test]
fn duplicate_delivery_during_a_retry_window_is_refused() {
    let fabric_cfg = FabricConfig {
        faults: FaultProfile {
            flap_rate: 0.2,
            duplicate_rate: 0.3,
            ..FaultProfile::NONE
        },
        ..FabricConfig::default()
    };
    let report = run_fabric(sim_config(96, 13, 250), fabric_cfg).expect("valid configs");
    assert!(report.stats.duplicate_frames > 0, "{:?}", report.stats);
    assert!(report.stats.transfers_retried > 0, "{:?}", report.stats);
    assert!(report.stats.retry_deliveries > 0, "{:?}", report.stats);
    // Duplicates never inflate the delivered count past the attempts
    // that succeeded.
    assert!(report.stats.transfers_delivered <= report.stats.transfers_attempted);
    assert_eq!(report.audit.mismatches, 0, "{:?}", report.audit.notes);
}

/// Satellite: backoff jitter is drawn from per-transfer streams, so the
/// retry timetable is identical at every worker count.
#[test]
fn backoff_jitter_is_deterministic_across_shard_counts() {
    let mk = |shards: usize| {
        let mut cfg = sim_config(150, 29, 200);
        cfg.shards = shards;
        let fabric_cfg = FabricConfig {
            faults: FaultProfile {
                flap_rate: 0.35,
                ..FaultProfile::NONE
            },
            ..FabricConfig::default()
        };
        run_fabric(cfg, fabric_cfg).expect("valid configs")
    };
    let single = mk(1);
    assert!(single.stats.transfers_retried > 100, "{:?}", single.stats);
    for shards in [2, 8] {
        let sharded = mk(shards);
        assert_eq!(single.stats, sharded.stats, "shards={shards}");
        assert_eq!(single.metrics, sharded.metrics, "shards={shards}");
    }
}

#[test]
fn adversarial_combined_mode_is_byte_identical_across_shards() {
    // Everything at once: free riders, rotters, challenges, quarantine,
    // a scheduled regional outage, partitions, faults, scrubbing, a
    // capped scheduler with escalation and a flash wave.
    let mk = |shards: usize| -> FabricReport {
        let fd = FailureDomainConfig {
            domains: 6,
            outage_at: 80,
            outage_rounds: 25,
            partition_rate: 0.005,
            partition_rounds: 15,
            ..FailureDomainConfig::default()
        };
        let mut cfg = sim_config(240, 21, 160)
            .with_failure_domains(fd)
            .with_quarantine_threshold(2);
        cfg.shards = shards;
        let fabric_cfg = FabricConfig {
            faults: FaultProfile::uniform(0.03),
            scrub_interval: 8,
            adversary: AdversaryConfig {
                free_rider_fraction: 0.08,
                rot_fraction: 0.05,
                challenge_interval: 6,
                challenge_sample_period: 2,
            },
            schedule: Some(ScheduleConfig {
                link_cap: Some(40),
                flash_restore: Some(100),
                escalate_margin: 1,
            }),
            ..FabricConfig::default()
        };
        run_fabric(cfg, fabric_cfg).expect("valid configs")
    };
    let reference = mk(1);
    assert!(reference.stats.adversary_drops > 0, "{:?}", reference.stats);
    assert!(
        reference.stats.challenge_failures > 0,
        "{:?}",
        reference.stats
    );
    assert!(!reference.quarantined.is_empty());
    assert!(
        reference.metrics.diag.outages_started > 0,
        "{:?}",
        reference.metrics.diag
    );
    for shards in [2, 4, 8] {
        let run = mk(shards);
        let tag = format!("shards={shards}");
        assert_eq!(reference.metrics, run.metrics, "{tag}");
        assert_eq!(reference.stats, run.stats, "{tag}");
        assert_eq!(reference.audit, run.audit, "{tag}");
        assert_eq!(reference.losses, run.losses, "{tag}");
        assert_eq!(reference.quarantined, run.quarantined, "{tag}");
        assert_eq!(reference.restore_durations, run.restore_durations, "{tag}");
        assert_eq!(
            reference.free_riders_targeted, run.free_riders_targeted,
            "{tag}"
        );
    }
}
