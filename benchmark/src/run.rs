//! `run`: every workload, each repeat a fresh `measure` child process
//! run one at a time (so peak memory is per repeat and nothing warm
//! carries over), summarised as median, quartiles and count per metric.

use std::path::PathBuf;
use std::process::Command;

use crate::host;
use crate::json::Value;
use crate::measure::DETAIL_PREFIX;
use crate::spec::{END_TO_END, LAYERS, RUN_SECONDS};
use crate::stats::Summary;
use crate::workloads::Workload;

/// Arguments of `run`.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workloads to run, in order.
    pub workloads: Vec<Workload>,
    /// Input seed.
    pub seed: u64,
    /// Children per workload (untraced pass).
    pub repeats: usize,
    /// Run the traced pass (one child per workload) instead.
    pub traced: bool,
    /// Where to write the result set.
    pub out: Option<PathBuf>,
}

/// What one `measure` child reported.
struct Child {
    /// `(metric, value)` in the child's order.
    metrics: Vec<(String, f64)>,
    digest: String,
    attempted: u64,
    failed: u64,
}

impl Child {
    fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |&(_, v)| v)
    }
}

/// Runs one `measure` child to completion — exactly the command the
/// outside driver runs — and parses its report.
fn measure_child(workload: Workload, seed: u64, traced: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["measure", "--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &RUN_SECONDS.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a measure child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("");
    for line in lines.iter().filter(|l| l.starts_with("CHECK FAILED")) {
        println!("  {line}");
    }
    let report = Value::parse(last)
        .map_err(|e| format!("{}: child printed no result ({e})", workload.name()))?;
    // Untraced, the line before the last carries every metric of the
    // workload; traced, the last line already does.
    let detail = lines
        .iter()
        .find_map(|l| l.strip_prefix(DETAIL_PREFIX))
        .and_then(|d| Value::parse(d).ok())
        .unwrap_or_else(|| report.clone());
    let count = |key: &str| report.get(key).and_then(Value::num).unwrap_or(0.0) as u64;
    Ok(Child {
        metrics: detail
            .get("metrics")
            .map_or(&[][..], Value::members)
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.num()?)))
            .collect(),
        digest: detail.text("sim_digest").to_string(),
        attempted: count("attempted"),
        // A child that exited non-zero without counting a failure
        // still failed.
        failed: count("failed").max(u64::from(!output.status.success())),
    })
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(LAYERS.iter().map(|l| (l.name, l.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

/// The shares the traced pass prints so a reader can confirm each
/// workload still stresses the layer it was chosen for. The base is
/// the traced window rebuilt from its own spans.
fn stress_shares(workload: Workload, child: &Child) -> Vec<String> {
    let window: f64 = match workload {
        Workload::BytePlane => [
            "core.backup.backup.total_s",
            "core.backup.regenerate.total_s",
            "core.restore.restore_with.total_s",
        ]
        .iter()
        .map(|n| child.get(n))
        .sum(),
        Workload::CombinedBytes => {
            child.get("core.world.round_start.total_s") + child.get("fabric.replay.total_s")
        }
        _ => {
            child.get("core.world.round_start.total_s") + child.get("core.world.round_end.total_s")
        }
    };
    let share = |name: &str, expect: &str| {
        format!(
            "{name} = {:.1}% of the traced window ({expect})",
            child.get(name) / window * 100.0
        )
    };
    match workload {
        Workload::JoinWave => vec![share("core.world.round0.s", "expected >= 75%")],
        Workload::SteadyChurn => vec![
            share("core.world.round_start.total_s", "the round pipeline"),
            share("core.redundancy.extra_total_s", "expected absent"),
        ],
        Workload::LearnedAdaptive => {
            vec![share("core.redundancy.extra_total_s", "expected >= 50%")]
        }
        Workload::CombinedBytes => vec![
            share("fabric.replay.total_s", "expected >= 85%"),
            share("core.world.round_start.total_s", "expected <= 10%"),
        ],
        Workload::BytePlane => vec![
            share("core.backup.backup.total_s", "encode"),
            share("core.backup.regenerate.total_s", "decode + re-encode"),
            share("core.restore.restore_with.total_s", "decode"),
        ],
    }
}

/// Runs one workload's children and prints its summary. Returns the
/// result-set entry and whether every check passed.
fn run_workload(workload: Workload, args: &Args) -> Result<(Value, bool), String> {
    println!("\n== {} — {}", workload.name(), workload.why());
    let mut children = Vec::new();
    for i in 1..=if args.traced { 1 } else { args.repeats.max(1) } {
        let child = measure_child(workload, args.seed, args.traced)?;
        if !args.traced {
            println!(
                "  repeat {i}: setup {:.4} s, run {:.4} s, peak {:.1} MiB, digest {}",
                child.get("setup_s"),
                child.get("run_s"),
                child.get("peak_rss_mib"),
                child.digest
            );
        }
        children.push(child);
    }

    let attempted: u64 = children.iter().map(|c| c.attempted).sum();
    let mut failed: u64 = children.iter().map(|c| c.failed).sum();
    if children.iter().any(|c| c.digest != children[0].digest) {
        println!("  CHECK FAILED: sim_digest differs between repeats");
        failed += 1;
    }

    let mut metrics = Vec::new();
    println!(
        "  {:<44} {:<7} {:>16} {:>16} {:>16} {:>3}",
        "metric", "unit", "median", "q1", "q3", "n"
    );
    for (name, _) in &children[0].metrics {
        let values: Vec<f64> = if name == "ops_failed_share" {
            // Over the whole set, not a median of per-child shares.
            vec![failed as f64 / attempted.max(1) as f64]
        } else {
            children.iter().map(|c| c.get(name)).collect()
        };
        let s = Summary::of(&values);
        let unit = unit_of(name);
        println!(
            "  {name:<44} {unit:<7} {:>16.6} {:>16.6} {:>16.6} {:>3}",
            s.median, s.q1, s.q3, s.n
        );
        metrics.push(
            Value::obj()
                .with("name", name.as_str())
                .with("unit", unit)
                .with("values", &values[..]),
        );
    }
    if args.traced {
        for line in stress_shares(workload, &children[0]) {
            println!("  {line}");
        }
        println!(
            "  trace_overhead_pct = {:.2}%",
            children[0].get("trace_overhead_pct")
        );
    } else {
        println!("  sim_digest {}", children[0].digest);
    }
    let entry = Value::obj()
        .with("name", workload.name())
        .with("sim_digest", children[0].digest.as_str())
        .with("attempted", attempted)
        .with("failed", failed)
        .with("metrics", metrics);
    Ok((entry, failed == 0))
}

/// Runs the pass and prints the summary. Returns whether every output
/// check in every child passed.
pub fn run(args: &Args) -> Result<bool, String> {
    host::check_build_parity()?;
    let header = host::provenance(args.seed, host::default_workers());
    println!("# {}", header.render());
    let mut all_correct = true;
    let mut sets = Vec::new();
    for &workload in &args.workloads {
        let (entry, correct) = run_workload(workload, args)?;
        sets.push(entry);
        all_correct &= correct;
    }
    if let Some(path) = &args.out {
        let doc = Value::obj()
            .with("header", header)
            .with("traced", args.traced)
            .with("workloads", sets);
        std::fs::write(path, doc.render() + "\n")
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("\n# result set written to {}", path.display());
    }
    if !all_correct {
        println!("\nFAILED: at least one output check failed (see CHECK FAILED lines)");
    }
    Ok(all_correct)
}
