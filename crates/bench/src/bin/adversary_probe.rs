//! The adversary & failure-domain acceptance gate.
//!
//! Two combined-mode runs of the same seeded world, identical down to
//! the failure-domain landscape (the same regional outage hits both),
//! differing **only** in whether any host is adversarial:
//!
//! * **clean** — every host honest: the loss baseline;
//! * **adversarial** — a fraction of hosts free-ride (ack placements,
//!   drop the bytes), challenge-response sweeps probe placements, and
//!   the reputation ledger quarantines repeat offenders.
//!
//! Sharing the outage between the arms isolates the quantity under
//! test: the marginal damage of the *attack* once detection and
//! quarantine re-enter the repair machinery, not the damage of the
//! correlated outage itself (which no reputation system can prevent).
//!
//! The probe then enforces the robustness contract (non-zero exit on
//! violation):
//!
//! * `--min-quarantine-rate F` (default 0.9) — at least `F` of the
//!   free-rider hosts that were actually shipped to must be quarantined
//!   **before half the run** is over, i.e. detection keeps pace with
//!   the attack instead of trailing it;
//! * `--max-loss-factor F` (default 2.0) — verified archive losses
//!   under attack must stay within `F ×` the clean baseline (floored at
//!   one loss), i.e. quarantine + repair degrade gracefully.
//!
//! The shared `--adversary`, `--domains`/`--outage-*`/`--partition-*`,
//! `--quarantine-threshold` and scheduler flags override the canonical
//! scenario; with none given the probe defaults to 10% free-riders,
//! eight domains with one forced outage at `rounds / 2 - rounds / 4`,
//! challenge sweeps every 8 rounds at 1/2 coverage, and a two-strike
//! quarantine threshold.
//!
//! `--stable-json` drops host facts and timings so same-seed runs at
//! different `--shards` settings must diff byte-for-byte (the CI
//! determinism gate).
//!
//! ```text
//! cargo run --release -p peerback-bench --bin adversary_probe -- \
//!     --peers 4096 --rounds 2000 --json --stable-json
//! ```

use std::process::ExitCode;
use std::time::Instant;

use peerback_bench::{Cli, HarnessArgs};
use peerback_core::{FailureDomainConfig, MaintenancePolicy, SimConfig};
use peerback_fabric::{run_fabric, AdversaryConfig, FabricConfig, FabricReport};

const CLI: Cli = Cli {
    binary: "adversary_probe",
    synopsis: "[options]",
    groups: &[
        "scale",
        "execution",
        "json",
        "stable-json",
        "world",
        "fabric",
        "adversary-gates",
    ],
};

/// The shared world both arms run in: the fabric integration tests'
/// churn-rich 4+4 geometry, tight reactive threshold.
fn base_config(args: &HarnessArgs) -> SimConfig {
    let mut cfg = args.base_config();
    cfg.k = 4;
    cfg.m = 4;
    cfg.quota = 24;
    cfg.maintenance = MaintenancePolicy::Reactive { threshold: 5 };
    cfg
}

/// The attack, unless the shared flags override each axis: 10%
/// free-riders, challenges every 8 rounds at half coverage, eight
/// failure domains with one forced regional outage in the first half
/// (so detection and repair both face it before the deadline), two
/// integrity strikes to quarantine.
fn adversary_of(args: &HarnessArgs) -> AdversaryConfig {
    if args.adversary.any_hostile() || args.adversary.challenge_interval > 0 {
        args.adversary
    } else {
        AdversaryConfig {
            free_rider_fraction: 0.10,
            challenge_interval: 8,
            challenge_sample_period: 2,
            ..AdversaryConfig::default()
        }
    }
}

/// The shared landscape both arms face: failure domains + the forced
/// outage, and the quarantine threshold (inert without integrity
/// failures, so it changes nothing in the clean arm).
fn scenario_config(args: &HarnessArgs) -> SimConfig {
    let domains = if args.failure_domains.domains > 0 {
        args.failure_domains
    } else {
        FailureDomainConfig {
            domains: 8,
            outage_at: args.rounds / 4,
            outage_rounds: 50,
            ..FailureDomainConfig::default()
        }
    };
    let threshold = if args.quarantine_threshold > 0 {
        args.quarantine_threshold
    } else {
        2
    };
    base_config(args)
        .with_failure_domains(domains)
        .with_quarantine_threshold(threshold)
}

/// The fabric side of one arm; the clean arm passes the inert default
/// adversary.
fn fabric_config(args: &HarnessArgs, adversary: AdversaryConfig) -> FabricConfig {
    FabricConfig {
        audit_interval: (args.rounds / 200).max(1),
        scrub_interval: if adversary.rot_fraction > 0.0 {
            (args.rounds / 100).max(4)
        } else {
            0
        },
        schedule: args.schedule(),
        adversary,
        ..FabricConfig::default()
    }
}

/// Counts how many of the free-rider hosts that real shipments targeted
/// were quarantined strictly before `deadline`.
fn quarantined_by(report: &FabricReport, deadline: u64) -> usize {
    report
        .free_riders_targeted
        .iter()
        .filter(|id| {
            report
                .quarantined
                .iter()
                .any(|&(q, round)| q == **id && round < deadline)
        })
        .count()
}

fn main() -> ExitCode {
    let args = HarnessArgs::parse(&CLI);
    let min_quarantine_rate = args.min_quarantine_rate.unwrap_or(0.9);
    let max_loss_factor = args.max_loss_factor.unwrap_or(2.0);
    if !args.json {
        eprintln!(
            "adversary probe: clean vs attacked at {} peers x {} rounds (seed {}) ...",
            args.peers, args.rounds, args.seed
        );
    }
    let start = Instant::now();
    let cfg = scenario_config(&args);
    let clean = run_fabric(
        cfg.clone(),
        fabric_config(&args, AdversaryConfig::default()),
    )
    .expect("clean config is valid");
    let attacked = run_fabric(cfg, fabric_config(&args, adversary_of(&args)))
        .expect("adversarial config is valid");
    let elapsed = start.elapsed();

    let half = args.rounds / 2;
    let targeted = attacked.free_riders_targeted.len();
    let caught_by_half = quarantined_by(&attacked, half);
    let quarantine_rate = caught_by_half as f64 / targeted.max(1) as f64;
    let clean_losses = clean.losses.len() as u64;
    let attacked_losses = attacked.losses.len() as u64;
    // Floor the baseline: a loss-free clean run must not demand a
    // loss-free attacked run.
    let loss_factor = attacked_losses as f64 / clean_losses.max(1) as f64;
    let stats = &attacked.stats;

    if args.json {
        let report = args
            .report_head("probe", "adversary_probe", elapsed, |telemetry| telemetry)
            .num("clean_losses", clean_losses)
            .num("attacked_losses", attacked_losses)
            .float("loss_factor", loss_factor)
            .num("free_riders_targeted", targeted as u64)
            .num("quarantined_by_half", caught_by_half as u64)
            .float("quarantine_rate", quarantine_rate)
            .num("hosts_quarantined", attacked.metrics.diag.hosts_quarantined)
            .num(
                "quarantine_evictions",
                attacked.metrics.diag.quarantine_evictions,
            )
            .num("outages_started", attacked.metrics.diag.outages_started)
            .num(
                "outage_disconnects",
                attacked.metrics.diag.outage_disconnects,
            )
            .num("adversary_drops", stats.adversary_drops)
            .num("adversary_corruptions", stats.adversary_corruptions)
            .num("challenges_issued", stats.challenges_issued)
            .num("challenge_failures", stats.challenge_failures)
            .num("scrub_detected", stats.scrub_detected)
            .num("escalated_transfer_rounds", stats.escalated_transfer_rounds)
            .num("audit_mismatches", attacked.audit.mismatches)
            .render();
        println!("{report}");
    } else {
        println!(
            "clean:    {clean_losses} verified losses\nattacked: {attacked_losses} verified \
             losses (factor {loss_factor:.2}), {} drops by free riders, {} challenge failures \
             over {} challenges",
            stats.adversary_drops, stats.challenge_failures, stats.challenges_issued
        );
        println!(
            "ledger:   {caught_by_half}/{targeted} targeted free riders quarantined before \
             round {half} ({:.0}%), {} evictions, {} regional outage(s)",
            quarantine_rate * 100.0,
            attacked.metrics.diag.quarantine_evictions,
            attacked.metrics.diag.outages_started,
        );
    }

    let mut failed = false;
    if attacked.audit.mismatches > 0 || clean.audit.mismatches > 0 {
        eprintln!(
            "FAIL: {} audit mismatch(es) — the byte plane and the simulator disagree",
            attacked.audit.mismatches + clean.audit.mismatches
        );
        failed = true;
    }
    if quarantine_rate < min_quarantine_rate {
        eprintln!(
            "FAIL: only {caught_by_half} of {targeted} targeted free riders quarantined before \
             round {half} ({:.0}% < {:.0}%)",
            quarantine_rate * 100.0,
            min_quarantine_rate * 100.0
        );
        failed = true;
    }
    if loss_factor > max_loss_factor {
        eprintln!(
            "FAIL: attacked losses ({attacked_losses}) exceed {:.1}x the clean baseline \
             ({clean_losses})",
            max_loss_factor
        );
        failed = true;
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(extra: &[&str]) -> HarnessArgs {
        HarnessArgs::parse_from(&CLI, extra.iter().map(|s| s.to_string()))
    }

    #[test]
    fn gate_flags_parse_beside_the_shared_ones() {
        let args = parse(&[
            "--peers",
            "128",
            "--min-quarantine-rate",
            "0.8",
            "--max-loss-factor",
            "3",
            "--escalate-margin",
            "1",
        ]);
        assert_eq!(args.min_quarantine_rate, Some(0.8));
        assert_eq!(args.max_loss_factor, Some(3.0));
        assert_eq!((args.peers, args.escalate_margin), (128, 1));
    }

    #[test]
    fn canonical_scenario_is_valid_and_hostile() {
        let args = parse(&["--peers", "256", "--rounds", "400"]);
        let cfg = scenario_config(&args);
        assert!(cfg.validate().is_ok());
        assert!(adversary_of(&args).any_hostile());
        assert_eq!(cfg.failure_domains.domains, 8);
        assert_eq!(cfg.failure_domains.outage_at, 100);
        assert_eq!(cfg.quarantine_threshold, 2);
    }

    #[test]
    fn shared_flags_override_the_canonical_attack() {
        let args = parse(&[
            "--adversary",
            "rot=0.05,challenge=4,sample=1",
            "--domains",
            "3",
            "--quarantine-threshold",
            "5",
        ]);
        let adversary = adversary_of(&args);
        assert_eq!(adversary.rot_fraction, 0.05);
        assert_eq!(adversary.free_rider_fraction, 0.0);
        let fabric_cfg = fabric_config(&args, adversary);
        assert!(fabric_cfg.scrub_interval > 0, "rotters engage scrubbing");
        let cfg = scenario_config(&args);
        assert_eq!(cfg.failure_domains.domains, 3);
        assert_eq!(cfg.quarantine_threshold, 5);
    }
}
