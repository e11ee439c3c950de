//! `measure`: one run of one workload in this process — the command
//! the outside driver calls, and the child `run` spawns per repeat.
//!
//! Untraced, a run is a fixed number of identical repeats (same seed,
//! same inputs, fresh set-up each time) and reports medians over them.
//! Traced, it alternates untraced and traced repeats, adds one-worker
//! repeats where the worker count matters, and runs the isolated
//! drivers.

use std::collections::BTreeMap;

use crate::host;
use crate::json::Value;
use crate::layers;
use crate::span::{self_times_ns, Tracer};
use crate::spec::{END_TO_END, LAYERS};
use crate::stats::median;
use crate::workloads::{Checks, Outcome, Workload};

/// A run never reports a median over fewer repeats than this.
pub const MIN_REPEATS: usize = 3;

/// Dedicated set-up samples a run takes where one costs a millisecond.
const SETUP_SAMPLES: usize = 31;

/// Prefix of the line that carries everything a repeat measured, for
/// `run` to parse. The line after it — the last — is the driver's.
pub const DETAIL_PREFIX: &str = "DETAIL ";

/// Arguments of `measure`.
#[derive(Debug, Clone)]
pub struct Args {
    /// What to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Seconds of measured window the run is sized for.
    pub seconds: f64,
    /// Traced pass instead of the end-to-end pass.
    pub trace: bool,
}

fn metric(value: f64, unit: &str) -> Value {
    Value::obj().with("value", value).with("unit", unit)
}

/// Runs the workload and prints the result; the last line of standard
/// output is the driver's JSON object. Returns whether every output
/// check passed.
pub fn measure(args: &Args) -> Result<bool, String> {
    host::check_build_parity()?;
    let workers = if args.workload.threaded() {
        host::default_workers()
    } else {
        1
    };
    let header = host::provenance(args.seed, workers).with("workload", args.workload.name());
    println!("# {}", header.render());
    if args.trace {
        traced(args, workers, header)
    } else {
        untraced(args, workers)
    }
}

/// Median over `outcomes` of one number each.
fn median_of(outcomes: &[Outcome], of: fn(&Outcome) -> f64) -> f64 {
    median(&outcomes.iter().map(of).collect::<Vec<_>>())
}

/// Median over `outcomes` of each named value `of` selects.
fn medians_by_name(
    outcomes: &[Outcome],
    of: fn(&Outcome) -> &[(&'static str, f64)],
) -> impl Iterator<Item = (&'static str, f64)> + '_ {
    of(&outcomes[0]).iter().map(move |&(name, _)| {
        let samples: Vec<f64> = outcomes
            .iter()
            .flat_map(|o| of(o).iter().filter(|(n, _)| *n == name).map(|&(_, v)| v))
            .collect();
        (name, median(&samples))
    })
}

fn describe(label: &str, o: &Outcome) {
    println!(
        "{label}: setup {:.4} s, run {:.4} s, cpu {:.3} s, digest {:016x}, checks {}/{}",
        o.setup_s,
        o.window.wall,
        o.window.cpu,
        o.digest,
        o.checks.attempted - o.checks.failed,
        o.checks.attempted
    );
}

fn untraced(args: &Args, workers: usize) -> Result<bool, String> {
    let mut checks = Checks::default();
    let mut outcomes: Vec<Outcome> = Vec::new();
    // The repeat count follows from `--seconds` and a fixed per-workload
    // constant, not from how fast this commit runs: both sides of a
    // comparison do the same work.
    let repeats =
        MIN_REPEATS.max((args.seconds / args.workload.nominal_window_s()).ceil() as usize);
    for i in 1..=repeats {
        let outcome = args.workload.repeat(args.seed, workers, None);
        describe(&format!("repeat {i}"), &outcome);
        checks.absorb(outcome.checks);
        checks.add(
            outcomes
                .first()
                .is_none_or(|first| first.digest == outcome.digest),
            "a repeat's digest differs from the first repeat's",
        );
        outcomes.push(outcome);
    }
    let mut setups: Vec<f64> = (0..SETUP_SAMPLES)
        .map_while(|_| args.workload.setup_only(args.seed, workers))
        .collect();
    if setups.is_empty() {
        setups = outcomes.iter().map(|o| o.setup_s).collect();
    }
    for (what, passed) in args.workload.run_checks(args.seed, workers) {
        if passed {
            println!("check ok: {what}");
        }
        checks.add(passed, &what);
    }

    let run_s = median_of(&outcomes, |o| o.window.wall);
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    values.insert("setup_s", median(&setups));
    values.insert("run_s", run_s);
    values.insert("cpu_s", median_of(&outcomes, |o| o.window.cpu));
    values.insert("work_per_s", outcomes[0].work / run_s);
    values.insert("peak_rss_mib", host::peak_rss_mib());
    for &(name, work) in &outcomes[0].rates {
        values.insert(name, work / run_s);
    }
    values.extend(medians_by_name(&outcomes, |o| &o.values));
    values.insert(
        "ops_failed_share",
        checks.failed as f64 / checks.attempted as f64,
    );

    let mut detail = Value::obj();
    let mut driver = Value::obj();
    for m in END_TO_END.iter() {
        if let Some(&value) = values.get(m.name) {
            println!("{:<28} {:>16.6} {}", m.name, value, m.unit);
            detail = detail.with(m.name, metric(value, m.unit));
            if m.every_workload {
                driver = driver.with(m.name, metric(value, m.unit));
            }
        }
    }
    println!(
        "{DETAIL_PREFIX}{}",
        Value::obj()
            .with("workload", args.workload.name())
            .with("repeats", outcomes.len() as u64)
            .with("sim_digest", format!("{:016x}", outcomes[0].digest))
            .with("attempted", checks.attempted)
            .with("failed", checks.failed)
            .with("metrics", detail)
            .render()
    );
    Ok(finish(&checks, driver))
}

/// Prints the driver's line and says whether the run was correct.
fn finish(checks: &Checks, metrics: Value) -> bool {
    let correct = checks.failed == 0;
    println!(
        "{}",
        Value::obj()
            .with("correct", correct)
            .with("attempted", checks.attempted)
            .with("failed", checks.failed)
            .with("metrics", metrics)
            .render()
    );
    correct
}

fn traced(args: &Args, workers: usize, header: Value) -> Result<bool, String> {
    let (workload, seed) = (args.workload, args.seed);
    let mut checks = Checks::default();
    // Untraced and traced repeats alternate, so that a slow phase of
    // the host falls on both sides; half the seconds go to each.
    let pairs = ((args.seconds / 2.0 / workload.nominal_window_s()).round() as usize).max(1);
    let (mut plain, mut spanned): (Vec<Outcome>, Vec<Outcome>) = (Vec::new(), Vec::new());
    let mut tracer = Tracer::new();
    for pair in 1..=pairs {
        let reference = workload.repeat(seed, workers, None);
        describe(&format!("pair {pair} untraced"), &reference);
        // Spans of the last traced repeat are the ones written out.
        tracer = Tracer::new();
        let traced = workload.repeat(seed, workers, Some(&mut tracer));
        describe(&format!("pair {pair} traced"), &traced);
        checks.absorb(reference.checks);
        checks.absorb(traced.checks);
        checks.add(
            traced.sim_digest == reference.sim_digest,
            "the traced repeat's simulated results differ from the untraced repeat's",
        );
        plain.push(reference);
        spanned.push(traced);
    }

    // A per-layer value is the median over the traced repeats.
    let mut layer_values: BTreeMap<&str, f64> = medians_by_name(&spanned, |o| &o.layers).collect();
    let plain_s = median_of(&plain, |o| o.window.wall);
    layer_values.insert(
        "trace_overhead_pct",
        (median_of(&spanned, |o| o.window.wall) / plain_s - 1.0) * 100.0,
    );

    // How much the second worker buys, on the workloads whose wall
    // time it is meant to cut. (Churn rounds are too cheap to split;
    // their worker-count check is the small cross-check.)
    if matches!(workload, Workload::JoinWave | Workload::CombinedBytes) && workers == 2 {
        let single: Vec<Outcome> = (0..pairs).map(|_| workload.repeat(seed, 1, None)).collect();
        for outcome in &single {
            describe("one worker", outcome);
            checks.absorb(outcome.checks);
            checks.add(
                outcome.digest == plain[0].digest,
                "results at one worker differ from results at two",
            );
        }
        layer_values.insert(
            "sim.exec.speedup_2w",
            median_of(&single, |o| o.window.wall) / plain_s,
        );
    }

    layer_values.extend(layers::run_all(seed, &mut tracer));
    let dispatch_us = layer_values
        .get("sim.exec.dispatch.us")
        .copied()
        .unwrap_or(0.0);
    layer_values.insert(
        "sim.exec.dispatch_total_s",
        dispatch_us * spanned[0].dispatches as f64 / 1e6,
    );

    let mut metrics = Value::obj();
    println!(
        "{:<44} {:>18} {:<7} better",
        "per-layer metric", "value", "unit"
    );
    for l in LAYERS.iter() {
        let value = layer_values.get(l.name).copied().unwrap_or(0.0);
        println!(
            "{:<44} {:>18.6} {:<7} {}",
            l.name,
            value,
            l.unit,
            l.better.name()
        );
        metrics = metrics.with(l.name, metric(value, l.unit));
    }
    write_trace(workload, &header, &tracer, &metrics)?;
    Ok(finish(&checks, metrics))
}

/// Writes `out/trace-<workload>.json` inside the benchmark's directory.
fn write_trace(
    workload: Workload,
    header: &Value,
    tracer: &Tracer,
    layers: &Value,
) -> Result<(), String> {
    let spans = tracer.spans();
    let own = self_times_ns(spans);
    let rendered: Vec<Value> = spans
        .iter()
        .zip(own)
        .map(|(s, self_ns)| {
            Value::obj()
                .with("name", s.name)
                .with("start_ns", s.start_ns)
                .with("end_ns", s.end_ns)
                .with("self_ns", self_ns)
                .with(
                    "parent",
                    s.parent.map_or(Value::Null, |p| (p as u64).into()),
                )
                .with("round", s.round.map_or(Value::Null, Value::from))
        })
        .collect();
    let doc = Value::obj()
        .with("header", header.clone())
        .with("layers", layers.clone())
        .with("spans", rendered);
    let dir = host::package_dir().join("out");
    let path = dir.join(format!("trace-{}.json", workload.name()));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, doc.render()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("# {} spans written to {}", spans.len(), path.display());
    Ok(())
}
