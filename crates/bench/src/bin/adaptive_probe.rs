//! The adaptive-redundancy ablation: static width vs adaptive width.
//!
//! Two runs of the same seeded world, differing only in whether the
//! per-archive redundancy policy is active:
//!
//! * **static** — every archive keeps the configured `n = k + m`
//!   placements for its whole life, the paper's fixed-width baseline;
//! * **adaptive** — [`AdaptiveRedundancy`] rescoring trims archives
//!   whose hosts the learned lifetime model predicts will survive the
//!   horizon comfortably, and widens (with a preemptive repair episode)
//!   archives whose predicted durability has sagged.
//!
//! Both arms select partners with `LearnedAge`, so the learned model is
//! held constant and only the *width policy* varies. The scenario is
//! the same churn-rich gated mix as `estimate_probe`: heavy-tailed
//! Pareto lifetimes so the model trains inside a CI-scale run.
//!
//! Block counts alone undersell the result, so the report also prices
//! both arms through the §2.2.4 link-cost model
//! ([`peerback_analysis::costs`]): maintenance seconds per peer per
//! day at the paper's DSL line, the unit its feasibility argument is
//! stated in.
//!
//! Acceptance gates (both optional, both exit non-zero on violation):
//!
//! * `--max-upload-ratio F` — adaptive uploads must stay within `F ×`
//!   static uploads (the issue's headline gate uses `0.9`);
//! * `--require-no-extra-loss` — adaptive losses must not exceed
//!   static losses.
//!
//! ```text
//! cargo run --release -p peerback-bench --bin adaptive_probe -- \
//!     --peers 4096 --rounds 2000 --json --max-upload-ratio 0.9 \
//!     --require-no-extra-loss
//! ```

use std::process::ExitCode;
use std::time::Instant;

use peerback_analysis::{ObservedTraffic, PricedTraffic};
use peerback_bench::{gated_churn_config, json, Cli, HarnessArgs};
use peerback_core::{
    run_sweep_with_threads, AdaptiveRedundancy, Metrics, SelectionStrategy, SimConfig,
};
use peerback_net::{ArchiveGeometry, LinkModel, RepairCostModel};

const CLI: Cli = Cli {
    binary: "adaptive_probe",
    synopsis: "[options]",
    groups: &[
        "scale",
        "sweep",
        "execution",
        "json",
        "stable-json",
        "world",
        "adaptive-gates",
    ],
};

/// Width the adaptive arm may trim: 8 blocks off a 16+16 code leaves a
/// floor of 24 placements, comfortably above the reactive threshold of
/// 18 so a freshly narrowed archive is never already due for repair.
const MAX_TRIM: u16 = 8;

/// One arm of the gated scenario: [`gated_churn_config`] (the
/// churn-rich 16+16 world `estimate_probe` also runs in) with
/// `LearnedAge` selection, so the lifetime model that feeds the
/// redundancy policy is trained by the run itself.
fn gated_config(args: &HarnessArgs, adaptive: bool) -> SimConfig {
    let cfg = gated_churn_config(args, SelectionStrategy::LearnedAge);
    if adaptive {
        cfg.with_adaptive_n(AdaptiveRedundancy::tuned(MAX_TRIM))
    } else {
        cfg
    }
}

/// The §2.2.4 pricing model for this scenario: the gated 16+16
/// geometry at the paper's archive size, over the paper's DSL line.
fn cost_model() -> RepairCostModel {
    RepairCostModel::new(
        LinkModel::DSL_2009,
        ArchiveGeometry::new(128.0 * 1024.0 * 1024.0, 16, 16),
    )
}

/// An arm's block traffic priced through [`cost_model`].
fn priced(args: &HarnessArgs, m: &Metrics) -> PricedTraffic {
    let traffic = ObservedTraffic {
        blocks_uploaded: m.diag.blocks_uploaded,
        blocks_downloaded: m.diag.blocks_downloaded,
        peers: args.peers as u64,
        rounds: args.rounds,
    };
    traffic.price(&cost_model())
}

fn arm_json(name: &str, args: &HarnessArgs, m: &Metrics) -> String {
    let priced = priced(args, m);
    json::Object::new()
        .str("policy", name)
        .num("losses", m.total_losses())
        .num("repairs", m.total_repairs())
        .num("blocks_uploaded", m.diag.blocks_uploaded)
        .num("blocks_downloaded", m.diag.blocks_downloaded)
        .num("redundancy_widened", m.diag.redundancy_widened)
        .num("redundancy_narrowed", m.diag.redundancy_narrowed)
        .num("preemptive_repairs", m.diag.preemptive_repairs)
        .num("placements_released", m.diag.placements_released)
        .float(
            "mean_restorability",
            m.mean_restorability().unwrap_or(f64::NAN),
        )
        .float("maintenance_secs_per_peer_day", priced.secs_per_peer_day)
        .float(
            "repairs_equiv_per_peer_day",
            priced.repairs_equiv_per_peer_day,
        )
        .render()
}

fn main() -> ExitCode {
    let args = HarnessArgs::parse(&CLI);
    if !args.json {
        eprintln!(
            "adaptive ablation: static/adaptive width at {} peers x {} rounds (seed {}) ...",
            args.peers, args.rounds, args.seed
        );
    }
    let start = Instant::now();
    let configs = vec![gated_config(&args, false), gated_config(&args, true)];
    let results = run_sweep_with_threads(configs, args.thread_count());
    let elapsed = start.elapsed();
    let (stat, adap) = (&results[0], &results[1]);

    let upload_ratio = adap.diag.blocks_uploaded as f64 / stat.diag.blocks_uploaded.max(1) as f64;
    let static_losses = stat.total_losses();
    let adaptive_losses = adap.total_losses();

    if args.json {
        let report = args
            .report_head("probe", "adaptive_probe", elapsed, |telemetry| telemetry)
            .num("max_trim", MAX_TRIM as u64)
            .raw(
                "policies",
                json::array(
                    [("static", stat), ("adaptive", adap)]
                        .iter()
                        .map(|(name, m)| arm_json(name, &args, m)),
                ),
            )
            .float("upload_ratio_adaptive_vs_static", upload_ratio)
            .num(
                "adaptive_within_static_losses",
                u64::from(adaptive_losses <= static_losses),
            )
            .render();
        println!("{report}");
    } else {
        println!(
            "{:<9} {:>8} {:>8} {:>10} {:>12} {:>8} {:>12}",
            "policy", "losses", "repairs", "uploads", "downloads", "restor", "secs/peer/d"
        );
        for (name, m) in [("static", stat), ("adaptive", adap)] {
            println!(
                "{:<9} {:>8} {:>8} {:>10} {:>12} {:>8.4} {:>12.1}",
                name,
                m.total_losses(),
                m.total_repairs(),
                m.diag.blocks_uploaded,
                m.diag.blocks_downloaded,
                m.mean_restorability().unwrap_or(f64::NAN),
                priced(&args, m).secs_per_peer_day,
            );
        }
        println!(
            "adaptive policy: {} widened ({} preemptive repairs), {} narrowed \
             ({} placements released)",
            adap.diag.redundancy_widened,
            adap.diag.preemptive_repairs,
            adap.diag.redundancy_narrowed,
            adap.diag.placements_released,
        );
        println!(
            "upload ratio adaptive/static = {upload_ratio:.3}, losses {adaptive_losses} vs \
             {static_losses} (adaptive within static: {})",
            adaptive_losses <= static_losses
        );
    }

    let mut failed = false;
    if let Some(max) = args.max_upload_ratio {
        if upload_ratio > max {
            eprintln!(
                "FAIL: adaptive uploads ({}) exceed {max:.2}x static uploads ({}) — ratio \
                 {upload_ratio:.3}",
                adap.diag.blocks_uploaded, stat.diag.blocks_uploaded
            );
            failed = true;
        }
    }
    if args.require_no_extra_loss && adaptive_losses > static_losses {
        eprintln!(
            "FAIL: adaptive losses ({adaptive_losses}) exceed the static baseline \
             ({static_losses})"
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
            "--max-upload-ratio",
            "0.9",
            "--require-no-extra-loss",
            "--seed",
            "7",
        ]);
        assert_eq!(args.max_upload_ratio, Some(0.9));
        assert!(args.require_no_extra_loss);
        assert_eq!((args.peers, args.seed), (100, 7));
    }

    #[test]
    fn gated_scenario_is_valid_and_arm_specific() {
        let args = parse(&[]);
        let stat = gated_config(&args, false);
        assert!(stat.validate().is_ok());
        assert!(!stat.adaptive_n.enabled);
        let adap = gated_config(&args, true);
        assert!(adap.validate().is_ok());
        assert!(adap.adaptive_n.enabled);
        assert_eq!(adap.adaptive_n.max_trim, MAX_TRIM);
        // The narrowed floor must stay above the reactive threshold so a
        // freshly trimmed archive is not instantly due for repair.
        assert!(adap.k + adap.m - MAX_TRIM > 18);
    }
}
