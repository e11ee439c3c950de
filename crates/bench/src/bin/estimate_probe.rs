//! The learned-lifetime ablation: oracle vs learned vs uniform.
//!
//! Closes the loop on the paper's core claim. Three runs of the same
//! seeded world, differing only in the partner-selection strategy:
//!
//! * **oracle** ([`SelectionStrategy::OracleLifetime`]) — ranks by true
//!   remaining lifetime, the upper bound no estimator can beat;
//! * **learned** ([`SelectionStrategy::LearnedAge`]) — ranks by the
//!   online survival model of `peerback-estimate`, fed only from death
//!   events the run itself observed;
//! * **uniform** ([`SelectionStrategy::Random`]) — no lifetime
//!   information at all, the paper's strawman baseline.
//!
//! The gated scenario is deliberately churn-rich (heavy-tailed
//! lifetimes of days-to-weeks, not the paper's years) so the model
//! observes enough deaths *within* a CI-scale run to activate; at the
//! paper's real lifetime laws a 2,000-round window is shorter than
//! almost every peer's life and all three strategies are
//! indistinguishable. The `--misreport` / `--shift-round` axes from
//! the shared harness apply to all three runs alike.
//!
//! Acceptance gates (both optional, both exit non-zero on violation):
//!
//! * `--max-loss-factor F` — learned losses must stay within `F ×`
//!   oracle losses (oracle floored at one loss so a perfect oracle
//!   does not demand perfection);
//! * `--require-beat-uniform` — learned losses must be strictly below
//!   uniform losses.
//!
//! ```text
//! cargo run --release -p peerback-bench --bin estimate_probe -- \
//!     --peers 4096 --rounds 2000 --json --max-loss-factor 3 \
//!     --require-beat-uniform
//! ```

use std::process::ExitCode;
use std::time::Instant;

use peerback_bench::{gated_churn_config, json, Cli, HarnessArgs};
use peerback_core::{run_sweep_with_threads, Metrics, SelectionStrategy, SimConfig};

const CLI: Cli = Cli {
    binary: "estimate_probe",
    synopsis: "[options]",
    groups: &[
        "scale",
        "sweep",
        "execution",
        "json",
        "stable-json",
        "world",
        "estimate-gates",
    ],
};

/// The three ablation arms, in report order. All run in
/// [`gated_churn_config`], the churn-rich scenario.
const ARMS: [(&str, SelectionStrategy); 3] = [
    ("oracle", SelectionStrategy::OracleLifetime),
    ("learned", SelectionStrategy::LearnedAge),
    ("uniform", SelectionStrategy::Random),
];

fn arm_json(name: &str, metrics: &Metrics) -> String {
    let mut obj = json::Object::new()
        .str("strategy", name)
        .num("losses", metrics.total_losses())
        .num("repairs", metrics.total_repairs())
        .num("blocks_uploaded", metrics.diag.blocks_uploaded)
        .num("blocks_downloaded", metrics.diag.blocks_downloaded)
        .num("departures", metrics.diag.departures)
        .num("partner_timeouts", metrics.diag.partner_timeouts)
        .num("pool_shortfalls", metrics.diag.pool_shortfalls)
        .float(
            "mean_restorability",
            metrics.mean_restorability().unwrap_or(f64::NAN),
        );
    if let Some(report) = &metrics.estimator {
        obj = obj.raw(
            "estimator",
            json::Object::new()
                .num("active", u64::from(report.active))
                .num("deaths_observed", report.deaths_observed)
                .num("refreshes", report.refreshes)
                .float("calibration_mae", report.calibration_mae)
                .float("legacy_mae", report.legacy_mae)
                .num("calibration_samples", report.calibration_samples)
                .nums(
                    "class_curve_active",
                    report.class_curve_active.map(u64::from),
                )
                .render(),
        );
    }
    obj.render()
}

fn main() -> ExitCode {
    let args = HarnessArgs::parse(&CLI);
    if !args.json {
        eprintln!(
            "estimate ablation: oracle/learned/uniform at {} peers x {} rounds (seed {}) ...",
            args.peers, args.rounds, args.seed
        );
    }
    let start = Instant::now();
    let configs: Vec<SimConfig> = ARMS
        .iter()
        .map(|&(_, s)| gated_churn_config(&args, s))
        .collect();
    let results = run_sweep_with_threads(configs, args.thread_count());
    let elapsed = start.elapsed();

    let losses_of = |name: &str| -> u64 {
        ARMS.iter()
            .zip(&results)
            .find(|((n, _), _)| *n == name)
            .map(|(_, m)| m.total_losses())
            .expect("arm present")
    };
    let oracle_losses = losses_of("oracle");
    let learned_losses = losses_of("learned");
    let uniform_losses = losses_of("uniform");
    // Floor the denominator: a perfect-oracle run must not force the
    // learned arm to be perfect too.
    let loss_factor = learned_losses as f64 / oracle_losses.max(1) as f64;

    if args.json {
        let report = args
            .report_head("probe", "estimate_probe", elapsed, |telemetry| telemetry)
            .raw(
                "strategies",
                json::array(
                    ARMS.iter()
                        .zip(&results)
                        .map(|((name, _), m)| arm_json(name, m)),
                ),
            )
            .float("loss_factor_learned_vs_oracle", loss_factor)
            .num(
                "learned_beats_uniform",
                u64::from(learned_losses < uniform_losses),
            )
            .render();
        println!("{report}");
    } else {
        println!(
            "{:<8} {:>8} {:>8} {:>10} {:>12} {:>8}",
            "strategy", "losses", "repairs", "uploads", "downloads", "restor"
        );
        for ((name, _), m) in ARMS.iter().zip(&results) {
            println!(
                "{:<8} {:>8} {:>8} {:>10} {:>12} {:>8.4}",
                name,
                m.total_losses(),
                m.total_repairs(),
                m.diag.blocks_uploaded,
                m.diag.blocks_downloaded,
                m.mean_restorability().unwrap_or(f64::NAN),
            );
        }
        if let Some(report) = ARMS
            .iter()
            .zip(&results)
            .find(|((n, _), _)| *n == "learned")
            .and_then(|(_, m)| m.estimator.as_ref())
        {
            println!(
                "learned model: active={}, {} deaths observed, {} refreshes, calibration MAE \
                 {:.1} over {} back-tests (global-curve-x-factor path: {:.1})",
                report.active,
                report.deaths_observed,
                report.refreshes,
                report.calibration_mae,
                report.calibration_samples,
                report.legacy_mae,
            );
            let active: Vec<&str> = ["reliable", "diurnal", "flaky"]
                .iter()
                .zip(report.class_curve_active)
                .filter(|&(_, on)| on)
                .map(|(name, _)| *name)
                .collect();
            println!(
                "per-class survival curves active: {}",
                if active.is_empty() {
                    "none (each class needs its own 64 windowed deaths)".to_string()
                } else {
                    active.join(", ")
                }
            );
        }
        println!(
            "loss factor learned/oracle = {loss_factor:.2}, learned beats uniform: {} \
             ({learned_losses} vs {uniform_losses})",
            learned_losses < uniform_losses
        );
    }

    let mut failed = false;
    if let Some(max) = args.max_loss_factor {
        if loss_factor > max {
            eprintln!(
                "FAIL: learned losses ({learned_losses}) exceed {max:.1}x oracle losses \
                 ({oracle_losses}) — loss factor {loss_factor:.2}"
            );
            failed = true;
        }
    }
    if args.require_beat_uniform && learned_losses >= uniform_losses {
        eprintln!(
            "FAIL: learned losses ({learned_losses}) do not beat uniform selection \
             ({uniform_losses})"
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

    fn parse(args: &[&str]) -> HarnessArgs {
        HarnessArgs::parse_from(&CLI, args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn gate_flags_parse_beside_the_shared_ones() {
        let args = parse(&[
            "--peers",
            "100",
            "--max-loss-factor",
            "3",
            "--require-beat-uniform",
            "--seed",
            "7",
        ]);
        assert_eq!(args.max_loss_factor, Some(3.0));
        assert!(args.require_beat_uniform);
        assert_eq!((args.peers, args.seed), (100, 7));
        let ungated = parse(&[]);
        assert_eq!(ungated.max_loss_factor, None);
        assert!(!ungated.require_beat_uniform);
    }

    #[test]
    fn gated_scenario_is_valid_and_strategy_specific() {
        let args = parse(&[]);
        for (_, strategy) in ARMS {
            let cfg = gated_churn_config(&args, strategy);
            assert_eq!(cfg.strategy, strategy);
            assert!(cfg.validate().is_ok());
        }
    }
}
