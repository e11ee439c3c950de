//! Regenerates the paper's figures and tables, and the ablations beyond
//! them: one runner over the reports of [`peerback_bench::reports`].
//!
//! Each report prints a text table (and an ASCII chart where the paper
//! has a figure) and writes its TSV file(s), named after the report,
//! under `--out-dir`. `all` runs every report; Figures 1 and 2 share
//! their threshold sweep. `--check` exits 1 on a failed report check.
//!
//! ```text
//! cargo run --release -p peerback-bench --bin paper_report -- fig3_observers
//! cargo run --release -p peerback-bench --bin paper_report -- all --smoke --out-dir out
//! cargo run --release -p peerback-bench --bin paper_report -- \
//!     ablation_learned ablation_width --peers 4096 --rounds 2000 --shards 8 --check
//! ```

use std::process::ExitCode;

use peerback_bench::reports::{self, Report};
use peerback_bench::{Cli, HarnessArgs};

const CLI: Cli = Cli {
    binary: "paper_report",
    synopsis: "<report>...|all [options]
  reports: fig1_repairs_by_threshold fig2_loss_by_threshold fig3_observers
           fig4_cumulative_loss table_params table_profiles table_repair_cost
           ablation_strategies ablation_acceptance ablation_proactive
           ablation_adaptive ablation_archives ablation_learned ablation_width
           ext_restorability",
    groups: &["scale", "sweep", "output", "execution", "world", "check"],
};

/// The reports the leading operands name.
fn select(names: &[String]) -> Result<Vec<&'static Report>, String> {
    let find = |name: &String| {
        let report = reports::ALL.iter().find(|r| r.slug == name);
        report.ok_or_else(|| format!("no report named {name:?}"))
    };
    match names {
        [] => Err("name at least one report, or `all`".to_string()),
        [all] if all == "all" => Ok(reports::ALL.iter().collect()),
        names => names.iter().map(find).collect(),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let options = argv.iter().position(|a| a.starts_with('-'));
    let (names, options) = argv.split_at(options.unwrap_or(argv.len()));
    let args = HarnessArgs::parse_from(&CLI, options.to_vec());
    let selected = match select(names) {
        Ok(selected) => selected,
        Err(message) => {
            eprintln!("{message}\n{}", CLI.usage());
            return ExitCode::from(2);
        }
    };

    let (mut first, mut failed) = (true, false);
    reports::run(selected, &args.sim, args.thread_count(), |report, runs| {
        let rendered = (report.render)(runs);
        if !std::mem::take(&mut first) {
            println!();
        }
        println!("{}", rendered.table);
        if !rendered.chart.is_empty() {
            println!("{}", rendered.chart);
        }
        for tsv in &rendered.tsvs {
            let path = args.out_path(&tsv.file);
            peerback_analysis::write_tsv(&path, &tsv.header, &tsv.rows).expect("write TSV");
            println!("wrote {}", path.display());
        }
        if args.check {
            for violation in (report.check)(runs) {
                eprintln!("FAIL {}: {violation}", report.slug);
                failed = true;
            }
        }
    });
    ExitCode::from(u8::from(failed))
}
