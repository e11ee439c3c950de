//! Pins the paper: the TSV text of Figures 1–4, byte for byte, against
//! the files committed under `tests/golden/` — the reports are pure
//! functions of scale and seed, so any drift in a curve is a diff here.
//! The reports run in-process through `peerback_bench::reports::run`;
//! nothing is written.
//!
//! The goldens are what the binary writes at the same scale and seed
//! (the three static tables have no TSV; their golden is the text the
//! binary prints). After an intended change to the simulation, from the
//! repository root:
//!
//! ```sh
//! golden=crates/bench/tests/golden
//! cargo run --release -p peerback-bench --bin paper_report -- \
//!     fig1_repairs_by_threshold fig2_loss_by_threshold fig3_observers fig4_cumulative_loss \
//!     --peers 300 --rounds 840 --seed 5 --out-dir $golden
//! for t in table_params table_profiles table_repair_cost; do
//!     cargo run --release -p peerback-bench --bin paper_report -- $t > $golden/$t.txt
//! done
//! ```
//!
//! and review the diff of the goldens like any other change.
//!
//! Scale: paper geometry needs more than `n = 256` peers, and a debug
//! run at 300 peers costs about a second for its join wave plus one
//! per 1,200 rounds, so the 20 simulations here fit tier-1's budget at
//! 35 simulated days. Seed 5 is one where that short window already
//! holds archive losses (at `k' = 132`, 136 and in Figure 4's stressed
//! `k' = 133` run), so Figures 2 and 4 pin more than a page of zeros.
//! The ablations and the extension cost another 28 runs; tier-1 only
//! checks their shape (below), CI runs them in a release build.

use std::path::Path;

use peerback_bench::reports::{self, Report, Run};
use peerback_bench::{Cli, HarnessArgs};

/// `paper_report`'s command line.
const CLI: Cli = Cli {
    binary: "paper_report",
    synopsis: "",
    groups: &["scale", "sweep", "output", "execution", "world"],
};

fn golden(file: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The reports whose slug starts with `prefix`, in `ALL` order.
fn reports_named(prefix: &str) -> Vec<&'static Report> {
    let named = reports::ALL.iter().filter(|r| r.slug.starts_with(prefix));
    named.collect()
}

/// Runs `reports` at the golden scale plus `execution` flags and
/// compares every TSV with its golden; returns the simulations run.
fn assert_golden(reports: Vec<&'static Report>, execution: &[&str]) -> usize {
    let scale = ["--peers", "300", "--rounds", "840", "--seed", "5"];
    let flags = scale.iter().chain(execution).map(|s| s.to_string());
    let args = HarnessArgs::parse_from(&CLI, flags);
    reports::run(reports, &args, |report, rendered| {
        assert!(!rendered.tsvs.is_empty(), "{} wrote nothing", report.slug);
        for tsv in &rendered.tsvs {
            assert!(tsv.file.starts_with(report.slug), "{}", tsv.file);
            let text = peerback_analysis::tsv_text(&tsv.header, &tsv.rows);
            assert!(
                text == golden(&tsv.file),
                "{} at {execution:?} differs from tests/golden/{}:\n{}",
                report.slug,
                tsv.file,
                text
            );
        }
    })
}

#[test]
fn figures_1_to_4_match_their_goldens() {
    let figures = reports_named("fig");
    assert_eq!(figures.len(), 4);
    // Figures 1 and 2 share the 13-threshold sweep; 3 has one run, 4 two.
    assert_eq!(assert_golden(figures, &["--threads", "2"]), 13 + 1 + 2);
}

/// The determinism contract, extended to the figures: the goldens came
/// from the default execution (all sweep workers, one shard worker), so
/// matching them single-threaded at eight shard workers covers both
/// axes. (CI diffs every report across the same two settings in a
/// release build.)
#[test]
fn figures_do_not_depend_on_sweep_threads_or_shard_workers() {
    let mut over_time = reports_named("fig3");
    over_time.extend(reports_named("fig4"));
    assert_eq!(over_time.len(), 2);
    assert_golden(over_time, &["--threads", "1", "--shards", "8"]);
}

/// Shape, not values: every report beyond the paper declares valid,
/// distinctly labelled variants and renders them into one TSV named
/// after it whose rows all have the header's width — checked on one
/// real run standing in for every variant, so it costs one simulation.
#[test]
fn ablations_and_extension_render_one_well_formed_tsv_each() {
    let mut beyond = reports_named("ablation_");
    beyond.extend(reports_named("ext_"));
    assert_eq!(beyond.len(), 6);
    let flags = ["--peers", "300", "--rounds", "240"].map(String::from);
    let args = HarnessArgs::parse_from(&CLI, flags);
    let metrics = peerback_core::run_simulation(args.base_config());
    for report in beyond {
        let as_run = |(label, config): (String, peerback_core::SimConfig)| {
            let valid = config.validate();
            valid.unwrap_or_else(|e| panic!("{} {label:?}: {e}", report.slug));
            let metrics = metrics.clone();
            Run {
                label,
                config,
                metrics,
            }
        };
        let runs: Vec<Run> = (report.variants)(&args).into_iter().map(as_run).collect();
        let mut labels: Vec<&str> = runs.iter().map(|r| r.label.as_str()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(
            labels.len(),
            runs.len(),
            "{}: duplicate labels",
            report.slug
        );

        let rendered = (report.render)(&runs);
        assert!(rendered.table.contains(&runs[0].label), "{}", report.slug);
        let [tsv] = &rendered.tsvs[..] else {
            panic!("{} wrote {} TSVs", report.slug, rendered.tsvs.len());
        };
        assert_eq!(tsv.file, format!("{}.tsv", report.slug));
        assert!(tsv.rows.len() >= runs.len(), "{}", report.slug);
        for row in &tsv.rows {
            assert_eq!(row.len(), tsv.header.len(), "{}: {row:?}", report.slug);
            assert!(
                labels.contains(&row[0].as_str()),
                "{}: {row:?}",
                report.slug
            );
        }
    }
}

#[test]
fn static_tables_match_their_goldens() {
    let tables = reports_named("table_");
    assert_eq!(tables.len(), 3);
    let args = HarnessArgs::parse_from(&CLI, []);
    let simulations = reports::run(tables, &args, |table, out| {
        assert!(out.tsvs.is_empty() && out.chart.is_empty());
        // `paper_report <slug>` prints the text and a newline.
        assert!(
            format!("{}\n", out.table) == golden(&format!("{}.txt", table.slug)),
            "{} differs from its golden:\n{}",
            table.slug,
            out.table
        );
    });
    assert_eq!(simulations, 0);
}

#[test]
fn slugs_are_unique() {
    let mut slugs: Vec<&str> = reports::ALL.iter().map(|r| r.slug).collect();
    slugs.sort_unstable();
    slugs.dedup();
    assert_eq!(slugs.len(), reports::ALL.len());
}
