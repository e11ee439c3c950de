//! The paper's evaluation as data: every figure, table and ablation is
//! a [`Report`] — a slug, a set of configuration variants over the one
//! simulator, a renderer from the finished runs to a text table, an
//! ASCII chart and TSV files (for gnuplot), and a check of the claim
//! the runs must bear out. [`run`] executes any selection of them; the
//! `paper_report` binary is its command line (`--check` turns a failed
//! check into exit status 1) and `tests/paper_reports.rs` pins its
//! output against golden files.
//!
//! Each renderer's doc comment states the shape the paper reports for
//! it (§4.2) — with `PAPER.md` carrying only the abstract, these are
//! the in-tree reference for what a figure should look like.

use peerback_analysis::{
    render_table, AsciiChart, ObservedTraffic, PricedTraffic, Scale, Series, TableBuilder,
};
use peerback_churn::{paper_profiles, LifetimeSpec, Profile, ProfileMix, SessionSampler};
use peerback_core::{
    run_sweep_with_threads, AdaptiveRedundancy, AgeCategory, EstimatorReport, MaintenancePolicy,
    Metrics, ObserverSpec, SelectionStrategy, SimConfig,
};
use peerback_net::{ArchiveGeometry, LinkModel, RepairCostModel};
use peerback_sim::sim_rng;

use crate::fmt_rate;

/// The labelled configurations one report compares, as deltas over the
/// command line's scenario ([`HarnessArgs::sim`](crate::HarnessArgs::sim)).
/// Empty for the static tables.
pub type Variants = fn(&SimConfig) -> Vec<(String, SimConfig)>;

/// One finished variant.
#[derive(Debug, Clone)]
pub struct Run {
    /// The variant's label (a table cell, a legend entry).
    pub label: String,
    /// What was simulated.
    pub config: SimConfig,
    /// What came out.
    pub metrics: Metrics,
}

/// One TSV file of a report.
#[derive(Debug, Clone, PartialEq)]
pub struct Tsv {
    /// File name under `--out-dir`.
    pub file: String,
    /// Column names (written as a `# ` comment line).
    pub header: Vec<&'static str>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

/// A report's output.
#[derive(Debug, Clone, PartialEq)]
pub struct Rendered {
    /// Heading, text tables and any commentary lines around them.
    pub table: String,
    /// The ASCII chart(s); empty for reports without one.
    pub chart: String,
    /// The data files.
    pub tsvs: Vec<Tsv>,
}

/// One artefact of the evaluation.
#[derive(Debug)]
pub struct Report {
    /// Name on the `paper_report` command line; also the stem of the
    /// TSV file(s) it writes.
    pub slug: &'static str,
    /// The runs it needs.
    pub variants: Variants,
    /// From the finished runs (in `variants` order) to the output.
    pub render: fn(&[Run]) -> Rendered,
    /// From the same runs to the claim's violations, one sentence each;
    /// empty when the claim holds or the report makes none.
    pub check: fn(&[Run]) -> Vec<String>,
}

/// A report that checks no claim.
const fn report(slug: &'static str, variants: Variants, render: fn(&[Run]) -> Rendered) -> Report {
    Report {
        slug,
        variants,
        render,
        check: no_check,
    }
}

fn no_check(_: &[Run]) -> Vec<String> {
    Vec::new()
}

/// Every report, in the order `paper_report all` runs them: the paper's
/// four figures, its tables, then the ablations and the extension.
pub static ALL: [Report; 15] = [
    report("fig1_repairs_by_threshold", threshold_sweep, fig1),
    report("fig2_loss_by_threshold", threshold_sweep, fig2),
    report("fig3_observers", focus_with_observers, fig3),
    report("fig4_cumulative_loss", focus_and_stressed, fig4),
    report("table_params", no_simulation, table_params),
    report("table_profiles", no_simulation, table_profiles),
    report("table_repair_cost", no_simulation, table_repair_cost),
    report("ablation_strategies", every_strategy, ablation_strategies),
    report(
        "ablation_acceptance",
        acceptance_variants,
        ablation_acceptance,
    ),
    report(
        "ablation_proactive",
        maintenance_policies,
        ablation_proactive,
    ),
    report("ablation_adaptive", threshold_policies, ablation_adaptive),
    report("ablation_archives", archive_counts, ablation_archives),
    Report {
        slug: "ablation_learned",
        variants: learned_arms,
        render: ablation_learned,
        check: learned_check,
    },
    Report {
        slug: "ablation_width",
        variants: width_arms,
        render: ablation_width,
        check: width_check,
    },
    report(
        "ext_restorability",
        restorability_policies,
        ext_restorability,
    ),
];

/// Runs `reports` in order over `base` on `threads` sweep workers,
/// handing each report and its finished runs to `sink` as soon as they
/// are done; returns the number of simulations run. Reports that name
/// the same [`Variants`] function (Figures 1 and 2) share one sweep.
pub fn run<'a>(
    reports: impl IntoIterator<Item = &'a Report>,
    base: &SimConfig,
    threads: usize,
    mut sink: impl FnMut(&Report, &[Run]),
) -> usize {
    let mut sweeps: Vec<(Variants, Vec<Run>)> = Vec::new();
    for report in reports {
        // Function addresses may be merged (identical bodies) or, in
        // principle, duplicated; either way every report renders the
        // runs of its own variants, at worst simulated twice.
        let same = |(v, _): &(Variants, _)| std::ptr::fn_addr_eq(*v, report.variants);
        let sweep = sweeps.iter().position(same).unwrap_or_else(|| {
            let (labels, configs): (Vec<String>, Vec<SimConfig>) =
                (report.variants)(base).into_iter().unzip();
            if !configs.is_empty() {
                let (n, peers, rounds) = (configs.len(), base.n_peers, base.rounds);
                let slug = report.slug;
                eprintln!("{slug}: {n} simulation(s) at {peers} peers x {rounds} rounds ...");
            }
            let metrics = run_sweep_with_threads(configs.clone(), threads);
            let runs = labels.into_iter().zip(configs).zip(metrics);
            let runs = runs.map(|((label, config), metrics)| Run {
                label,
                config,
                metrics,
            });
            sweeps.push((report.variants, runs.collect()));
            sweeps.len() - 1
        });
        sink(report, &sweeps[sweep].1);
    }
    sweeps.iter().map(|(_, runs)| runs.len()).sum()
}

// ---------------------------------------------------------------------
// Shared pieces.

/// `base` with `tweak` applied, labelled.
fn variant(
    base: &SimConfig,
    label: impl Into<String>,
    tweak: impl FnOnce(&mut SimConfig),
) -> (String, SimConfig) {
    let mut cfg = base.clone();
    tweak(&mut cfg);
    (label.into(), cfg)
}

fn reactive(threshold: u16) -> impl Fn(&mut SimConfig) {
    move |c| c.maintenance = MaintenancePolicy::Reactive { threshold }
}

fn proactive(tick_rounds: u64) -> impl Fn(&mut SimConfig) {
    move |c| c.maintenance = MaintenancePolicy::Proactive { tick_rounds }
}

fn no_simulation(_: &SimConfig) -> Vec<(String, SimConfig)> {
    Vec::new()
}

/// One column of a tabular report: its heading in the text table, its
/// name in the TSV header, and a run's cell.
#[derive(Clone, Copy)]
struct Column(&'static str, &'static str, fn(&Run) -> String);

fn label(run: &Run) -> String {
    run.label.clone()
}

fn repair_rate<const CATEGORY: usize>(run: &Run) -> String {
    fmt_rate(run.metrics.repair_rate_per_1000(AgeCategory::ALL[CATEGORY]))
}

fn loss_rate<const CATEGORY: usize>(run: &Run) -> String {
    fmt_rate(run.metrics.loss_rate_per_1000(AgeCategory::ALL[CATEGORY]))
}

fn repairs(run: &Run) -> String {
    run.metrics.total_repairs().to_string()
}

fn losses(run: &Run) -> String {
    run.metrics.total_losses().to_string()
}

fn uploads(run: &Run) -> String {
    run.metrics.diag.blocks_uploaded.to_string()
}

fn downloads(run: &Run) -> String {
    run.metrics.diag.blocks_downloaded.to_string()
}

/// The four age categories' TSV column names, in `AgeCategory::ALL`
/// order (the text tables and legends use `AgeCategory::name`).
const CATEGORY_COLUMNS: [&str; 4] = ["newcomers", "young", "old", "elder"];

const REPAIR_RATES: [Column; 4] = [
    Column("Newcomers", CATEGORY_COLUMNS[0], repair_rate::<0>),
    Column("Young peers", CATEGORY_COLUMNS[1], repair_rate::<1>),
    Column("Old peers", CATEGORY_COLUMNS[2], repair_rate::<2>),
    Column("Elder peers", CATEGORY_COLUMNS[3], repair_rate::<3>),
];

const LOSS_RATES: [Column; 4] = [
    Column("Newcomers", CATEGORY_COLUMNS[0], loss_rate::<0>),
    Column("Young peers", CATEGORY_COLUMNS[1], loss_rate::<1>),
    Column("Old peers", CATEGORY_COLUMNS[2], loss_rate::<2>),
    Column("Elder peers", CATEGORY_COLUMNS[3], loss_rate::<3>),
];

fn table_of(header: &[&str], rows: &[Vec<String>]) -> String {
    let rows = rows.iter().map(|row| row.iter().map(String::as_str));
    render_table(header.iter().copied(), rows)
}

/// `title`, one table row per run, and the same cells as `<slug>.tsv`.
fn tabulate(slug: &str, title: &str, columns: &[&[Column]], runs: &[Run]) -> Rendered {
    let columns = columns.concat();
    let cells = |run: &Run| columns.iter().map(|c| c.2(run)).collect();
    let rows: Vec<Vec<String>> = runs.iter().map(cells).collect();
    let headings: Vec<&str> = columns.iter().map(|c| c.0).collect();
    Rendered {
        table: format!("{title}\n\n{}", table_of(&headings, &rows)),
        chart: String::new(),
        tsvs: vec![Tsv {
            file: format!("{slug}.tsv"),
            header: columns.iter().map(|c| c.1).collect(),
            rows,
        }],
    }
}

/// [`tabulate`] plus a last column: each run's `count` over the first
/// run's, the baseline the report measures the others against.
fn tabulate_against_first(
    slug: &str,
    title: &str,
    columns: &[Column],
    (heading, name, count): (&'static str, &'static str, fn(&Metrics) -> u64),
    runs: &[Run],
) -> Rendered {
    let mut out = tabulate(slug, title, &[columns], runs);
    let baseline = count(&runs[0].metrics);
    let tsv = &mut out.tsvs[0];
    tsv.header.push(name);
    for (row, run) in tsv.rows.iter_mut().zip(runs) {
        row.push(fixed(floored_ratio(count(&run.metrics), baseline)));
    }
    let headings: Vec<&str> = columns.iter().map(|c| c.0).chain([heading]).collect();
    out.table = format!("{title}\n\n{}", table_of(&headings, &tsv.rows));
    out
}

/// A float cell at six decimals; `n/a` for NaN.
fn fixed(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "n/a".to_string()
    }
}

/// `numerator / max(denominator, 1)`: a perfect baseline must not
/// demand perfection of the arm under test.
fn floored_ratio(numerator: u64, denominator: u64) -> f64 {
    numerator as f64 / denominator.max(1) as f64
}

/// A report that is text only.
fn text_only(table: String) -> Rendered {
    Rendered {
        table,
        chart: String::new(),
        tsvs: Vec::new(),
    }
}

fn days(round: u64) -> f64 {
    round as f64 / 24.0
}

/// `chart` with one series per age category.
fn category_chart(chart: AsciiChart, series: [Vec<(f64, f64)>; 4]) -> String {
    let named = AgeCategory::ALL.iter().zip(series);
    let add = |chart: AsciiChart, (cat, points): (&AgeCategory, _)| {
        chart.series(Series::new(cat.name(), points))
    };
    named.fold(chart, add).render()
}

/// The paper's wording for an observer's frozen age (§4.2.2).
fn frozen_age_label(rounds: u64) -> String {
    match rounds {
        1 => "1 hour".to_string(),
        24 => "1 day".to_string(),
        168 => "1 week".to_string(),
        720 => "1 month".to_string(),
        2160 => "3 months".to_string(),
        other => format!("{other} rounds"),
    }
}

// ---------------------------------------------------------------------
// Figures 1 and 2: the threshold sweep.

/// The paper's §4.2.1 sweep: one simulation per threshold from 132 to
/// 180 in steps of 4, identical parameters otherwise.
fn threshold_sweep(base: &SimConfig) -> Vec<(String, SimConfig)> {
    let labelled = |t: u16| variant(base, t.to_string(), reactive(t));
    (132..=180).step_by(4).map(labelled).collect()
}

/// A per-category rate against the threshold. A category that never had
/// any population plots at `unpopulated`, or not at all.
fn threshold_chart(
    chart: AsciiChart,
    runs: &[Run],
    rate: fn(&Metrics, AgeCategory) -> Option<f64>,
    unpopulated: Option<f64>,
) -> String {
    let point = |run: &Run, cat| {
        let threshold: f64 = run.label.parse().expect("threshold labels are numbers");
        Some((threshold, rate(&run.metrics, cat).or(unpopulated)?))
    };
    let over_runs = |cat| runs.iter().filter_map(|run| point(run, cat)).collect();
    category_chart(chart, AgeCategory::ALL.map(over_runs))
}

/// **Figure 1** — "Average rate of repairs for the four categories of
/// peers depending of the repair threshold."
///
/// Sweeps the repair threshold `k'` over 132–180 (the paper's range) and
/// reports, for each age category, the average number of repairs per
/// 1000 peers per round, on a log scale.
///
/// Expected shape (paper §4.2.1): repair rates increase with the
/// threshold — super-linearly towards 180 — and stratify by age:
/// Newcomers ≫ Young ≫ Old ≫ Elder.
fn fig1(runs: &[Run]) -> Rendered {
    let chart = AsciiChart::new(
        "Repairs by Threshold (log scale, cf. paper Figure 1)",
        "repair threshold k'",
        "repairs per 1000 peers per round",
    );
    let chart = chart.size(64, 18).scale(Scale::Log10);
    Rendered {
        chart: threshold_chart(chart, runs, Metrics::repair_rate_per_1000, None),
        ..tabulate(
            "fig1_repairs_by_threshold",
            "Figure 1: average repairs per 1000 peers per round, by repair threshold",
            &[&[Column("threshold", "threshold", label)], &REPAIR_RATES],
            runs,
        )
    }
}

/// **Figure 2** — "Average rate of data lost for the four categories of
/// peers depending of the repair threshold."
///
/// Same sweep as Figure 1 (one set of runs serves both), reporting
/// archive-loss rates per 1000 peers per round.
///
/// Expected shape (paper §4.2.1): losses concentrate at *small*
/// thresholds (the archive can slip below `k` before a repair fires) and
/// fall almost entirely on Newcomers; at the compromise threshold 148
/// losses are near zero.
fn fig2(runs: &[Run]) -> Rendered {
    let chart = AsciiChart::new(
        "Archives Lost by Threshold (cf. paper Figure 2)",
        "repair threshold k'",
        "losses per 1000 peers per round",
    );
    let chart = chart.size(64, 16).scale(Scale::Linear);
    Rendered {
        chart: threshold_chart(chart, runs, Metrics::loss_rate_per_1000, Some(0.0)),
        ..tabulate(
            "fig2_loss_by_threshold",
            "Figure 2: average archives lost per 1000 peers per round, by repair threshold",
            &[
                &[Column("threshold", "threshold", label)],
                &LOSS_RATES,
                &[Column("total losses", "total", losses)],
            ],
            runs,
        )
    }
}

// ---------------------------------------------------------------------
// Figures 3 and 4: the focus threshold over time.

fn focus_with_observers(base: &SimConfig) -> Vec<(String, SimConfig)> {
    let observed = |c: &mut SimConfig| c.observers = ObserverSpec::paper_set();
    vec![variant(base, "k'=148", observed)]
}

/// **Figure 3** — "Total number of repairs done by observers."
///
/// Runs the focus configuration (`k' = 148`) with the paper's five
/// frozen-age observers (Elder 3 months, Senior 1 month, Adult 1 week,
/// Teenager 1 day, Baby 1 hour) and plots each observer's cumulative
/// repair count over time (in days, like the paper), log scale.
///
/// Expected shape (paper §4.2.2): cumulative repairs order strictly by
/// frozen age — the Baby repairs the most, Senior/Elder the least —
/// because a peer's *negotiation age* controls the quality of the
/// partner sets it can assemble.
fn fig3(runs: &[Run]) -> Rendered {
    let observers = &runs[0].metrics.observers;
    let mut table = TableBuilder::new().header(["observer", "frozen age", "repairs", "losses"]);
    let mut chart = AsciiChart::new(
        "Cumulative number of repairs for Observers (log scale, cf. paper Figure 3)",
        "days",
        "cumulative repairs",
    )
    .size(64, 18)
    .scale(Scale::Log10);
    for obs in observers {
        table.row([
            obs.name.to_string(),
            frozen_age_label(obs.frozen_age),
            obs.total_repairs.to_string(),
            obs.losses.to_string(),
        ]);
        let points = obs.points.iter().map(|&(round, n)| (days(round), n as f64));
        chart = chart.series(Series::new(obs.name, points.collect()));
    }
    // One row per sample, every observer a column.
    let samples = observers.first().map_or(&[][..], |first| &first.points[..]);
    let row = |(i, &(round, _)): (usize, &(u64, u64))| {
        let cells = observers.iter().map(|obs| obs.points[i].1.to_string());
        std::iter::once(format!("{:.1}", days(round)))
            .chain(cells)
            .collect()
    };
    let names = observers.iter().map(|obs| obs.name);
    Rendered {
        table: format!(
            "Figure 3: cumulative repairs by observer (k' = 148)\n\n{}",
            table.render()
        ),
        chart: chart.render(),
        tsvs: vec![Tsv {
            file: "fig3_observers.tsv".to_string(),
            header: std::iter::once("days").chain(names).collect(),
            rows: samples.iter().enumerate().map(row).collect(),
        }],
    }
}

fn focus_and_stressed(base: &SimConfig) -> Vec<(String, SimConfig)> {
    [148, 133]
        .map(|t| variant(base, t.to_string(), reactive(t)))
        .into()
}

/// **Figure 4** — "Evolution of the cumulative number of lost archives
/// for the four categories of peers."
///
/// Runs the focus threshold (`k' = 148`) and, because this simulator's
/// loss onset lies at lower thresholds than the paper's, also a
/// stressed variant near the loss boundary (`k' = 133`) so the curve
/// shapes are visible. Reports cumulative losses per average concurrent
/// peer of each category over time: one table, chart and TSV per
/// threshold.
///
/// Expected shape (paper §4.2.2): losses fall almost entirely on
/// Newcomers, with a start-up bump caused by the whole initial
/// population sharing one age, then a much flatter steady-state slope.
fn fig4(runs: &[Run]) -> Rendered {
    let mut out = text_only(String::new());
    for Run { label, metrics, .. } in runs {
        let last = metrics.samples.last().expect("at least one sample");
        let summary = AgeCategory::ALL.map(|cat| {
            vec![
                cat.name().to_string(),
                metrics.losses[cat.index()].to_string(),
                format!("{:.4}", metrics.cumulative_loss_per_peer(last, cat)),
            ]
        });
        out.table.push_str(&format!(
            "Figure 4 (k' = {label}): cumulative lost archives per peer, by category\n\n{}\n",
            table_of(
                &["category", "total losses", "losses/peer (end of run)"],
                &summary
            )
        ));

        let mut rows = Vec::new();
        let mut series = [const { Vec::new() }; 4];
        for sample in &metrics.samples {
            let day = days(sample.round);
            let mut row = vec![format!("{day:.1}")];
            for cat in AgeCategory::ALL {
                let v = metrics.cumulative_loss_per_peer(sample, cat);
                series[cat.index()].push((day, v));
                row.push(format!("{v:.6}"));
            }
            rows.push(row);
        }
        let chart = AsciiChart::new(
            format!("Cumulative number of lost archives (k' = {label}, cf. paper Figure 4)"),
            "days",
            "cumulative losses per peer",
        );
        let chart = chart.size(64, 16).scale(Scale::Linear);
        out.chart.push_str(&category_chart(chart, series));
        out.tsvs.push(Tsv {
            file: format!("fig4_cumulative_loss_k{label}.tsv"),
            header: std::iter::once("days").chain(CATEGORY_COLUMNS).collect(),
            rows,
        });
    }
    out
}

// ---------------------------------------------------------------------
// The static tables (no simulation).

/// **Tables T1, T4, T5** — the paper's parameter tables: the backup
/// system parameters (§2.2.4), the age categories (§4.2.1), and the
/// observer set (§4.2.2), as realised by this implementation's defaults.
fn table_params(_: &[Run]) -> Rendered {
    let cfg = SimConfig::paper_full_scale(0);
    let geometry = ArchiveGeometry::paper_default();

    let mut t1 = TableBuilder::new().header(["parameter", "value"]);
    t1.row(["Archive Size", "128 MB"]);
    t1.row(["k (initial blocks)", &cfg.k.to_string()]);
    t1.row(["m (added blocks)", &cfg.m.to_string()]);
    t1.row(["n = k + m", &cfg.n_blocks().to_string()]);
    let block_mb = geometry.block_bytes() / (1024.0 * 1024.0);
    t1.row(["block size", &format!("{block_mb:.0} MB")]);
    let expansion = geometry.expansion();
    t1.row(["storage expansion", &format!("{expansion:.1}x")]);
    t1.row(["quota (blocks hosted)", &cfg.quota.to_string()]);
    t1.row(["repair threshold k' (focus)", "148"]);
    t1.row(["threshold sweep", "132 - 180"]);
    t1.row(["population", &cfg.n_peers.to_string()]);
    t1.row(["rounds (1 round = 1 hour)", &cfg.rounds.to_string()]);
    t1.row(["acceptance clamp L", "90 days (2160 rounds)"]);
    let timeout = cfg.offline_timeout;
    t1.row(["offline write-off timeout", &format!("{timeout} rounds")]);

    let mut t4 = TableBuilder::new().header(["category", "age"]);
    t4.row(["Elder peers", "> 18 months"]);
    t4.row(["Old peers", "6 - 18 months"]);
    t4.row(["Young peers", "3 - 6 months"]);
    t4.row(["Newcomers", "< 3 months"]);

    let mut t5 = TableBuilder::new().header(["observer", "age", "rounds"]);
    for obs in ObserverSpec::paper_set() {
        let mut age = frozen_age_label(obs.frozen_age);
        if obs.frozen_age == cfg.acceptance_clamp {
            age.push_str(" = the age limit");
        }
        t5.row([obs.name, &age, &obs.frozen_age.to_string()]);
    }
    text_only(format!(
        "T1: backup system parameters (paper §2.2.4 / §4.1)\n\n{}\n\
         T4: age categories (paper §4.2.1)\n\n{}\n\
         category boundaries in rounds: {:?}\n\n\
         T5: observers (paper §4.2.2)\n\n{}",
        t1.render(),
        t4.render(),
        AgeCategory::BOUNDARIES,
        t5.render()
    ))
}

/// **Table T3** — the §4.1.1 peer-profile table, verified empirically.
///
/// Prints the configured profile mix and then samples a population to
/// confirm that realised proportions, lifetimes and long-run
/// availabilities match the table.
fn table_profiles(_: &[Run]) -> Rendered {
    let mix = paper_profiles();
    let mut rng = sim_rng(2009);
    let percent = |fraction: f64, digits| format!("{:.*}%", digits, fraction * 100.0);
    let months = |rounds: f64| format!("{:.1}", rounds / 720.0);

    let mut configured =
        TableBuilder::new().header(["profile", "proportion", "life expectancy", "availability"]);
    for (i, p) in mix.profiles().iter().enumerate() {
        let life = match p.lifetime {
            LifetimeSpec::Unlimited => "unlimited".to_string(),
            LifetimeSpec::Uniform { low, high } => {
                format!("{} - {} months", months(low as f64), months(high as f64))
            }
            other => format!("{other:?}"),
        };
        let (weight, availability) = (percent(mix.weight(i), 0), percent(p.availability, 0));
        configured.row([p.name.to_string(), weight, life, availability]);
    }

    // Empirical verification over a sampled population.
    const N: usize = 200_000;
    let mut counts = vec![0usize; mix.len()];
    let mut lifetime_sums = vec![0.0f64; mix.len()];
    let mut lifetime_counts = vec![0usize; mix.len()];
    for _ in 0..N {
        let id = mix.sample(&mut rng);
        counts[id] += 1;
        if let Some(l) = mix.profile(id).lifetime.sample(&mut rng) {
            lifetime_sums[id] += l as f64;
            lifetime_counts[id] += 1;
        }
    }
    let mut sampled = TableBuilder::new().header([
        "profile",
        "realised proportion",
        "mean sampled lifetime (months)",
        "realised availability (simulated sessions)",
    ]);
    for (i, p) in mix.profiles().iter().enumerate() {
        let sampler = SessionSampler::new(p.availability, 24.0);
        // Simulate ~50k rounds of sessions to measure availability.
        let (mut online_rounds, mut total) = (0u64, 0u64);
        let mut online = sampler.initial_online(&mut rng);
        while total < 50_000 {
            let d = if online {
                sampler.online_duration(&mut rng)
            } else {
                sampler.offline_duration(&mut rng)
            };
            if online {
                online_rounds += d;
            }
            total += d;
            online = !online;
        }
        let mean_life = match lifetime_counts[i] {
            0 => "∞".to_string(),
            n => months(lifetime_sums[i] / n as f64),
        };
        sampled.row([
            p.name.to_string(),
            percent(counts[i] as f64 / N as f64, 1),
            mean_life,
            percent(online_rounds as f64 / total as f64, 1),
        ]);
    }
    text_only(format!(
        "T3: peer profiles (paper §4.1.1)\n\n{}\nempirical check over {N} sampled peers:\n\n{}\
         population mean availability: {} (profile-weighted)\n",
        configured.render(),
        sampled.render(),
        percent(mix.mean_availability(), 1)
    ))
}

/// **Table T2** — the §2.2.4 repair-cost analysis.
///
/// Reproduces every number in the paper's feasibility argument:
///
/// * `Δdownload > 512 s` (128 blocks at 256 kB/s),
/// * `Δupload > d x 32 s` (1 MB blocks at 32 kB/s),
/// * the 77-minute worst-case repair (`d = 128`),
/// * "no more than 20 repair operations … per day",
/// * "with 32 archives (4 GB), the repair rate should be less than one
///   per month approximatively",
///
/// and extends the table to the modern-DSL (4x) and FTTH links the paper
/// mentions. Rendering asserts the headline numbers, so a drift in the
/// cost model fails the report rather than printing a wrong table.
fn table_repair_cost(_: &[Run]) -> Rendered {
    let geometry = ArchiveGeometry::paper_default();
    let mut by_blocks = TableBuilder::new().header([
        "link",
        "d",
        "download (s)",
        "upload (s)",
        "total",
        "minutes",
    ]);
    let mut feasibility = TableBuilder::new().header([
        "link",
        "max repairs/day (link saturated)",
        "initial backup (h)",
        "restore (min)",
    ]);
    for link in [LinkModel::DSL_2009, LinkModel::DSL_MODERN, LinkModel::FTTH] {
        let model = RepairCostModel::new(link, geometry);
        for d in [1usize, 16, 64, 128] {
            let c = model.repair_cost(d);
            by_blocks.row([
                link.name.to_string(),
                d.to_string(),
                format!("{:.0}", c.download_secs),
                format!("{:.0}", c.upload_secs),
                format!("{:.0} s", c.total_secs),
                format!("{:.1}", c.total_secs / 60.0),
            ]);
        }
        feasibility.row([
            link.to_string(),
            format!("{:.1}", model.max_repairs_per_day()),
            format!("{:.1}", model.initial_backup_cost().total_secs / 3600.0),
            format!("{:.1}", model.restore_cost().total_secs / 60.0),
        ]);
    }

    // The paper's 32-archive example, and its headline numbers.
    let model = RepairCostModel::new(LinkModel::DSL_2009, geometry);
    let budget = model.feasibility(32, 77.0 * 60.0 / 86_400.0);
    let per_archive = budget.repairs_per_day_per_archive;
    let worst = model.repair_cost(128);
    let near = |secs: f64, expected: f64| (secs - expected).abs() < 1e-6;
    assert!(near(worst.download_secs, 512.0), "Δdownload must be 512 s");
    assert!(near(worst.upload_secs, 4096.0), "Δupload must be 4096 s");
    let minutes = worst.total_secs / 60.0;
    assert!(
        (76.0..78.0).contains(&minutes),
        "worst case must be ~77 min"
    );
    assert!(model.max_repairs_per_day() < 20.0);
    text_only(format!(
        "T2a: repair cost by regenerated blocks d (archive 128 MB, k = 128)\n\n{}\n\
         T2b: feasibility (worst-case repairs, d = m = 128)\n\n{}\n\
         paper example: 32 archives (4 GB) on 2009 DSL, one worst-case repair per day budget:\n  \
         sustainable repairs/day/archive = {per_archive:.4}  (one repair per {:.1} days per \
         archive)\n  => the repair rate must stay below ~one per month, as the paper \
         concludes.\n\nall §2.2.4 headline numbers verified.\n",
        by_blocks.render(),
        feasibility.render(),
        1.0 / per_archive
    ))
}

// ---------------------------------------------------------------------
// Ablations and extensions beyond the paper.

fn every_strategy(base: &SimConfig) -> Vec<(String, SimConfig)> {
    let with = |&s: &SelectionStrategy| variant(base, s.name(), |c| c.strategy = s);
    SelectionStrategy::ALL.iter().map(with).collect()
}

/// **Ablation A1** — partner-selection strategies at the focus
/// threshold.
///
/// Compares the paper's age-based ranking against a random baseline (a
/// system with no lifetime estimation), an adversarial youngest-first
/// ranking, an uptime-weighted heuristic, the learned-age strategy (the
/// online survival model of `peerback-estimate`), and an oracle that
/// sees true remaining lifetimes (the upper bound on any estimator).
/// Reports per-category repair rates plus total maintenance traffic.
///
/// Expected: age-based beats random on elder-peer maintenance cost and
/// approaches the oracle; youngest-first is the worst; learned-age
/// lands between age-based and the oracle once the model has data (see
/// `ablation_learned` for the checked oracle/learned/uniform ablation).
fn ablation_strategies(runs: &[Run]) -> Rendered {
    tabulate(
        "ablation_strategies",
        "Ablation A1: repair rate per 1000 peers per round, by selection strategy (k'=148)",
        &[
            &[Column("strategy", "strategy", label)],
            &REPAIR_RATES,
            &[
                Column("total repairs", "repairs", repairs),
                Column("losses", "losses", losses),
                Column("blocks uploaded", "uploads", uploads),
            ],
        ],
        runs,
    )
}

fn acceptance_variants(base: &SimConfig) -> Vec<(String, SimConfig)> {
    vec![
        variant(base, "mutual L=90d (paper)", |_| {}),
        variant(base, "one-sided", |c| c.mutual_acceptance = false),
        variant(base, "disabled", |c| c.acceptance_enabled = false),
        variant(base, "mutual L=30d", |c| c.acceptance_clamp = 30 * 24),
        variant(base, "mutual L=180d", |c| c.acceptance_clamp = 180 * 24),
        variant(base, "no refresh (ratchet)", |c| {
            c.refresh_on_repair = false
        }),
    ]
}

/// **Ablation A2** — what the acceptance function contributes.
///
/// Varies the §3.2 acceptance machinery at the focus threshold:
///
/// * `mutual` — the paper's default ("both peers must agree");
/// * `one-sided` — only the owner tests the candidate;
/// * `disabled` — no acceptance test at all (pure ranking);
/// * clamp sweep — `L` of 30/90/180 days (mutual);
/// * `no refresh` — partner sets are not re-ranked on repair.
///
/// The candidate-side test is the mechanism that reserves stable hosts
/// for stable owners, so removing it should flatten the Elder/Newcomer
/// stratification.
fn ablation_acceptance(runs: &[Run]) -> Rendered {
    fn stratification(run: &Run) -> String {
        let rate = |cat| run.metrics.repair_rate_per_1000(cat);
        match (rate(AgeCategory::Newcomer), rate(AgeCategory::Elder)) {
            (Some(n), Some(e)) if e > 0.0 => format!("{:.1}x", n / e),
            _ => "n/a".to_string(),
        }
    }
    tabulate(
        "ablation_acceptance",
        "Ablation A2: repair rates per 1000 peers per round, acceptance variants (k'=148)",
        &[
            &[Column("variant", "variant", label)],
            &REPAIR_RATES,
            &[
                Column(
                    "stratification (new/elder)",
                    "stratification",
                    stratification,
                ),
                Column("losses", "losses", losses),
            ],
        ],
        runs,
    )
}

fn maintenance_policies(base: &SimConfig) -> Vec<(String, SimConfig)> {
    vec![
        variant(base, "reactive k'=148 (paper)", |_| {}),
        variant(base, "reactive k'=164", reactive(164)),
        variant(base, "proactive tick=24h", proactive(24)),
        variant(base, "proactive tick=72h", proactive(72)),
        variant(base, "proactive tick=1wk", proactive(168)),
    ]
}

/// **Ablation A3** — reactive threshold repair vs proactive top-up.
///
/// The paper's related work (Duminuco et al. \[10\]) replaces threshold
/// monitoring with proactive block creation at the measured churn rate.
/// This ablation compares the paper's reactive `k' = 148` policy against
/// proactive top-up at several tick intervals, measuring maintenance
/// traffic (repair episodes, blocks moved) and safety (losses).
///
/// Expected: proactive maintenance trades more frequent-but-smaller
/// repairs for a higher redundancy floor; reactive batches work but
/// rides closer to the threshold.
fn ablation_proactive(runs: &[Run]) -> Rendered {
    tabulate(
        "ablation_proactive",
        "Ablation A3: maintenance policy comparison",
        &[&[
            Column("policy", "policy", label),
            Column("repair episodes", "episodes", repairs),
            Column("blocks downloaded", "downloads", downloads),
            Column("blocks uploaded", "uploads", uploads),
            Column("losses", "losses", losses),
        ]],
        runs,
    )
}

fn threshold_policies(base: &SimConfig) -> Vec<(String, SimConfig)> {
    let adaptive = MaintenancePolicy::Adaptive {
        base: 148,
        floor_margin: 4,
        step: 2,
    };
    vec![
        variant(base, "fixed 148, quota 384", |_| {}),
        variant(base, "adaptive, quota 384", |c| c.maintenance = adaptive),
        variant(base, "fixed 148, quota 256 (starved)", |c| c.quota = 256),
        variant(base, "adaptive, quota 256 (starved)", |c| {
            c.quota = 256;
            c.maintenance = adaptive;
        }),
    ]
}

/// **Ablation A4** — the paper's future-work adaptive threshold.
///
/// §6 of the paper: "the repair threshold might be changed depending on
/// the peer context, its difficulties to find partners". This ablation
/// compares the fixed `k' = 148` against per-peer adaptive thresholds
/// (backing off on pool shortfalls), in both a comfortable market
/// (quota 384) and a deliberately starved one (quota 256 = zero slack).
///
/// Expected: with ample quota the adaptive policy is a no-op; under
/// starvation it trades a little safety margin for markedly fewer
/// shortfall-stalled episodes.
fn ablation_adaptive(runs: &[Run]) -> Rendered {
    fn shortfalls(run: &Run) -> String {
        run.metrics.diag.pool_shortfalls.to_string()
    }
    fn adjustments(run: &Run) -> String {
        run.metrics.diag.threshold_adjustments.to_string()
    }
    tabulate(
        "ablation_adaptive",
        "Ablation A4: fixed vs adaptive repair thresholds",
        &[&[
            Column("variant", "variant", label),
            Column("repair episodes", "episodes", repairs),
            Column("pool shortfalls", "shortfalls", shortfalls),
            Column("threshold adjustments", "adjustments", adjustments),
            Column("losses", "losses", losses),
        ]],
        runs,
    )
}

fn archive_counts(base: &SimConfig) -> Vec<(String, SimConfig)> {
    let with_archives = |a: u16| {
        variant(base, a.to_string(), |c| {
            c.archives_per_peer = a;
            c.quota = 384 * a as u32; // the paper's 3x-own-volume rule
        })
    };
    [1, 2, 4].map(with_archives).into()
}

/// **Ablation A5** — the §4.1 linear-scaling claim.
///
/// "We only consider one archive per peer … However, we claim that these
/// results should scale linearly when the number of archives of a peer
/// is increasing, since they can be handled independently."
///
/// Runs 1, 2 and 4 archives per peer (quota scaled with demand, as the
/// paper's 3× rule prescribes) and reports maintenance volume per
/// archive — if the claim holds, the per-archive column is flat.
fn ablation_archives(runs: &[Run]) -> Rendered {
    fn per_archive(run: &Run, count: u64) -> f64 {
        count as f64 / (run.config.archives_per_peer as f64 * run.config.n_peers as f64)
    }
    fn episodes(run: &Run) -> f64 {
        per_archive(run, run.metrics.total_repairs())
    }
    fn uploads_per_archive(run: &Run) -> String {
        format!("{:.1}", per_archive(run, run.metrics.diag.blocks_uploaded))
    }
    let mut out = tabulate(
        "ablation_archives",
        "Ablation A5: does maintenance scale linearly with archives? (k'=148)",
        &[&[
            Column("archives/peer", "archives", label),
            Column("repair episodes", "episodes", repairs),
            Column("episodes per archive", "episodes_per_archive", |r| {
                format!("{:.3}", episodes(r))
            }),
            Column(
                "blocks uploaded per archive",
                "uploads_per_archive",
                uploads_per_archive,
            ),
            Column("losses", "losses", losses),
        ]],
        runs,
    );
    let spread = runs.iter().map(episodes).fold(f64::NEG_INFINITY, f64::max)
        / runs.iter().map(episodes).fold(f64::INFINITY, f64::min);
    out.table.push_str(&format!(
        "per-archive episode spread across configurations: {spread:.2}x \
         (1.0x = perfectly linear scaling, the paper's claim)\n"
    ));
    out
}

// ---------------------------------------------------------------------
// The checked ablations: the churn-rich scenario CI holds to a claim.

/// The churn-rich scenario both checked ablations run in: the paper's
/// geometry scaled to a 16+16 code with a heavy-tailed short-lifetime
/// mix, so deaths (the survival model's training signal) and losses
/// (the metric under test) both occur by the hundreds within a
/// 2,000-round run; at the paper's real lifetime laws such a window is
/// shorter than almost every peer's life. The reactive threshold sits
/// two blocks above `k`: that thin repair margin is what makes partner
/// *survival* — the quantity estimation improves — decide the loss
/// count, rather than raw repair throughput.
fn gated_churn_config(base: &SimConfig, strategy: SelectionStrategy) -> SimConfig {
    let mut cfg = base.clone().with_strategy(strategy);
    cfg.k = 16;
    cfg.m = 16;
    cfg.quota = 72;
    cfg.maintenance = MaintenancePolicy::Reactive { threshold: 18 };
    // All three laws are Pareto — the paper's measured reality, and the
    // regime where its core claim (age predicts remaining lifetime)
    // actually holds. A bounded law in the mix would make old peers of
    // that class the *worst* partners and punish any age-trusting
    // strategy for reasons unrelated to estimation quality.
    let pareto = |x_min, alpha| LifetimeSpec::Pareto { x_min, alpha };
    cfg.profiles = ProfileMix::new(vec![
        (Profile::new("Flash", pareto(30.0, 1.5), 0.33), 0.5),
        (Profile::new("Transient", pareto(120.0, 1.9), 0.75), 0.3),
        (Profile::new("Seasonal", pareto(400.0, 2.4), 0.9), 0.2),
    ]);
    cfg
}

fn restorability(run: &Run) -> String {
    fixed(run.metrics.mean_restorability().unwrap_or(f64::NAN))
}

/// The most the learned arm may lose, as a multiple of the oracle's
/// losses (floored at one).
const LEARNED_MAX_LOSS_FACTOR: f64 = 3.0;

fn learned_arms(base: &SimConfig) -> Vec<(String, SimConfig)> {
    let arms = [
        ("oracle", SelectionStrategy::OracleLifetime),
        ("learned", SelectionStrategy::LearnedAge),
        ("uniform", SelectionStrategy::Random),
    ];
    let arm = |(label, s): (&str, _)| (label.to_string(), gated_churn_config(base, s));
    arms.map(arm).into()
}

/// A learned-model cell of `run`; `n/a` for an arm without a model.
fn model(run: &Run, cell: impl FnOnce(&EstimatorReport) -> String) -> String {
    run.metrics.estimator.as_ref().map_or("n/a".into(), cell)
}

/// **Ablation A6** — the paper's core claim, closed-loop: three runs of
/// [`gated_churn_config`] differing only in partner selection. The
/// oracle ranks by true remaining lifetime (the bound no estimator can
/// beat), learned by the online survival model trained on the deaths
/// the run itself observed, uniform by nothing (the paper's strawman).
/// The columns from `model` on describe the learned model;
/// `class_curves` reads which of the reliable/diurnal/flaky classes
/// answer from their own curve.
///
/// Expected ([`learned_check`]): learned loses at most
/// [`LEARNED_MAX_LOSS_FACTOR`] times the oracle's losses and strictly
/// fewer than uniform. At a few hundred peers the model sees too few
/// deaths to act and the ordering is noise.
fn ablation_learned(runs: &[Run]) -> Rendered {
    tabulate_against_first(
        "ablation_learned",
        "Ablation A6: oracle / learned / uniform selection (churn-rich 16+16 scenario)",
        &[
            Column("strategy", "strategy", label),
            Column("losses", "losses", losses),
            Column("repairs", "repairs", repairs),
            Column("uploads", "uploads", uploads),
            Column("downloads", "downloads", downloads),
            Column("departures", "departures", |r| {
                r.metrics.diag.departures.to_string()
            }),
            Column("timeouts", "partner_timeouts", |r| {
                r.metrics.diag.partner_timeouts.to_string()
            }),
            Column("shortfalls", "pool_shortfalls", |r| {
                r.metrics.diag.pool_shortfalls.to_string()
            }),
            Column("restorability", "mean_restorability", restorability),
            Column("model", "model_active", |r| {
                model(r, |m| u8::from(m.active).to_string())
            }),
            Column("deaths", "deaths_observed", |r| {
                model(r, |m| m.deaths_observed.to_string())
            }),
            Column("refreshes", "refreshes", |r| {
                model(r, |m| m.refreshes.to_string())
            }),
            Column("MAE", "calibration_mae", |r| {
                model(r, |m| fixed(m.calibration_mae))
            }),
            Column("legacy MAE", "legacy_mae", |r| {
                model(r, |m| fixed(m.legacy_mae))
            }),
            Column("back-tests", "calibration_samples", |r| {
                model(r, |m| m.calibration_samples.to_string())
            }),
            Column("class curves", "class_curves", |r| {
                model(r, |m| {
                    m.class_curve_active
                        .map(|on| u8::from(on).to_string())
                        .join("/")
                })
            }),
        ],
        ("x oracle", "loss_factor_vs_oracle", Metrics::total_losses),
        runs,
    )
}

/// [`ablation_learned`]'s claim.
fn learned_check(runs: &[Run]) -> Vec<String> {
    let [oracle, learned, uniform] = [0, 1, 2].map(|i| runs[i].metrics.total_losses());
    let factor = floored_ratio(learned, oracle);
    let mut violations = Vec::new();
    if factor > LEARNED_MAX_LOSS_FACTOR {
        violations.push(format!(
            "learned losses ({learned}) exceed {LEARNED_MAX_LOSS_FACTOR:.1}x oracle losses \
             ({oracle}): loss factor {factor:.2}"
        ));
    }
    if learned >= uniform {
        violations.push(format!(
            "learned losses ({learned}) do not beat uniform selection ({uniform})"
        ));
    }
    violations
}

/// Width the adaptive arm may trim: 8 blocks off a 16+16 code leaves a
/// floor of 24 placements, comfortably above the reactive threshold of
/// 18 so a freshly narrowed archive is never already due for repair.
const MAX_TRIM: u16 = 8;

/// The most the adaptive arm may upload, as a share of the static
/// arm's uploads.
const WIDTH_MAX_UPLOAD_RATIO: f64 = 0.9;

fn width_arms(base: &SimConfig) -> Vec<(String, SimConfig)> {
    let stat = gated_churn_config(base, SelectionStrategy::LearnedAge);
    let trimmed = AdaptiveRedundancy::tuned(MAX_TRIM);
    let adaptive = stat.clone().with_adaptive_n(trimmed);
    vec![("static".into(), stat), ("adaptive".into(), adaptive)]
}

/// A run's block traffic priced through the §2.2.4 cost model: the
/// gated 16+16 geometry at the paper's archive size, over the paper's
/// DSL line.
fn priced(run: &Run) -> PricedTraffic {
    let geometry = ArchiveGeometry::new(128.0 * 1024.0 * 1024.0, 16, 16);
    let traffic = ObservedTraffic {
        blocks_uploaded: run.metrics.diag.blocks_uploaded,
        blocks_downloaded: run.metrics.diag.blocks_downloaded,
        peers: run.config.n_peers as u64,
        rounds: run.config.rounds,
    };
    traffic.price(&RepairCostModel::new(LinkModel::DSL_2009, geometry))
}

/// **Ablation A7** — static vs adaptive per-archive width: two runs of
/// [`gated_churn_config`] under learned selection, differing only in
/// whether [`AdaptiveRedundancy::tuned`] may trim up to [`MAX_TRIM`]
/// blocks off archives the model predicts durable (and widen, with a
/// preemptive repair, those whose prediction sags). Both runs are also
/// priced through the §2.2.4 link-cost model: maintenance seconds per
/// peer per day on the paper's DSL line, and the same in worst-case
/// repairs.
///
/// Expected ([`width_check`]): adaptive uploads at most
/// [`WIDTH_MAX_UPLOAD_RATIO`] of the static uploads, at no more
/// losses.
fn ablation_width(runs: &[Run]) -> Rendered {
    tabulate_against_first(
        "ablation_width",
        "Ablation A7: static vs adaptive redundancy width, learned selection (churn-rich 16+16)",
        &[
            Column("policy", "policy", label),
            Column("max trim", "max_trim", |r| {
                r.config.adaptive_n.max_trim.to_string()
            }),
            Column("losses", "losses", losses),
            Column("repairs", "repairs", repairs),
            Column("uploads", "uploads", uploads),
            Column("downloads", "downloads", downloads),
            Column("widened", "widened", |r| {
                r.metrics.diag.redundancy_widened.to_string()
            }),
            Column("narrowed", "narrowed", |r| {
                r.metrics.diag.redundancy_narrowed.to_string()
            }),
            Column("preemptive", "preemptive_repairs", |r| {
                r.metrics.diag.preemptive_repairs.to_string()
            }),
            Column("released", "placements_released", |r| {
                r.metrics.diag.placements_released.to_string()
            }),
            Column("restorability", "mean_restorability", restorability),
            Column("s/peer/day", "maintenance_secs_per_peer_day", |r| {
                fixed(priced(r).secs_per_peer_day)
            }),
            Column("repairs/peer/day", "repairs_equiv_per_peer_day", |r| {
                fixed(priced(r).repairs_equiv_per_peer_day)
            }),
        ],
        ("x static uploads", "upload_ratio_vs_static", |m| {
            m.diag.blocks_uploaded
        }),
        runs,
    )
}

/// [`ablation_width`]'s claim.
fn width_check(runs: &[Run]) -> Vec<String> {
    let [stat, adaptive] = [0, 1].map(|i| &runs[i].metrics);
    let [uploads, adaptive_uploads] = [stat, adaptive].map(|m| m.diag.blocks_uploaded);
    let [losses, adaptive_losses] = [stat, adaptive].map(Metrics::total_losses);
    let ratio = floored_ratio(adaptive_uploads, uploads);
    let mut violations = Vec::new();
    if ratio > WIDTH_MAX_UPLOAD_RATIO {
        violations.push(format!(
            "adaptive uploads ({adaptive_uploads}) exceed {WIDTH_MAX_UPLOAD_RATIO:.2}x static \
             uploads ({uploads}): ratio {ratio:.3}"
        ));
    }
    if adaptive_losses > losses {
        violations.push(format!(
            "adaptive losses ({adaptive_losses}) exceed the static baseline ({losses})"
        ));
    }
    violations
}

fn restorability_policies(base: &SimConfig) -> Vec<(String, SimConfig)> {
    vec![
        variant(base, "reactive k'=132", reactive(132)),
        variant(base, "reactive k'=148", |_| {}),
        variant(base, "reactive k'=180", reactive(180)),
        variant(base, "proactive tick=24h", proactive(24)),
    ]
}

/// **Extension E1** — instant restorability over time.
///
/// The paper argues durability beats availability for backup ("the users
/// are likely to prefer security … even if it takes more time", §2.2.3).
/// This experiment quantifies the flip side: at any instant, what
/// fraction of archives could start a full restore *right now* (≥ k
/// blocks on currently-online partners)? Reported for the reactive
/// threshold sweep endpoints and the proactive policy.
fn ext_restorability(runs: &[Run]) -> Rendered {
    let mut table = TableBuilder::new().header([
        "policy",
        "mean instant-restorability",
        "min over run",
        "repair episodes",
    ]);
    let mut chart = AsciiChart::new(
        "Instant restorability over time",
        "days",
        "fraction of archives restorable now",
    )
    .size(64, 14)
    .scale(Scale::Linear);
    let mut rows = Vec::new();
    for Run { label, metrics, .. } in runs {
        let restorable = metrics.restorability.iter();
        let series: Vec<(f64, f64)> = restorable.map(|&(round, f)| (days(round), f)).collect();
        let min = series.iter().map(|&(_, f)| f).fold(1.0f64, f64::min);
        table.row([
            label.clone(),
            format!("{:.4}", metrics.mean_restorability().unwrap_or(0.0)),
            format!("{min:.4}"),
            metrics.total_repairs().to_string(),
        ]);
        let row = |&(day, f)| vec![label.clone(), format!("{day:.1}"), format!("{f:.5}")];
        rows.extend(series.iter().map(row));
        chart = chart.series(Series::new(label.clone(), series));
    }
    Rendered {
        table: format!(
            "Extension E1: instantaneous restorability (availability despite churn)\n\n{}",
            table.render()
        ),
        chart: chart.render(),
        tsvs: vec![Tsv {
            file: "ext_restorability.tsv".to_string(),
            header: vec!["policy", "days", "fraction"],
            rows,
        }],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observer_ages_read_as_the_paper_words_them() {
        let ages = ObserverSpec::paper_set().into_iter().map(|o| o.frozen_age);
        let labels: Vec<String> = ages.map(frozen_age_label).collect();
        assert_eq!(labels, ["3 months", "1 month", "1 week", "1 day", "1 hour"]);
        assert_eq!(frozen_age_label(5), "5 rounds");
    }

    /// A finished run with only the totals the checks read.
    fn run(label: &str, losses: u64, uploads: u64) -> Run {
        let mut metrics = Metrics::default();
        (metrics.losses[0], metrics.diag.blocks_uploaded) = (losses, uploads);
        let (label, config) = (label.to_string(), SimConfig::paper(300, 10, 1));
        Run {
            label,
            config,
            metrics,
        }
    }

    fn learned(oracle: u64, learned: u64, uniform: u64) -> Vec<String> {
        let runs = [
            ("oracle", oracle),
            ("learned", learned),
            ("uniform", uniform),
        ];
        learned_check(&runs.map(|(label, losses)| run(label, losses, 0)))
    }

    fn width(stat: (u64, u64), adaptive: (u64, u64)) -> Vec<String> {
        let runs = [("static", stat), ("adaptive", adaptive)];
        width_check(&runs.map(|(label, (losses, uploads))| run(label, losses, uploads)))
    }

    /// The scenario every report runs over by default.
    fn default_base() -> SimConfig {
        let cli = crate::Cli {
            binary: "paper_report",
            synopsis: "",
            groups: &["scale"],
        };
        crate::HarnessArgs::parse_from(&cli, []).sim
    }

    #[test]
    fn learned_arms_are_valid_and_strategy_specific() {
        use SelectionStrategy::{LearnedAge, OracleLifetime, Random};
        let arms = learned_arms(&default_base());
        let strategies: Vec<_> = arms.iter().map(|(_, cfg)| cfg.strategy).collect();
        assert_eq!(strategies, [OracleLifetime, LearnedAge, Random]);
        for (label, cfg) in &arms {
            assert!(cfg.validate().is_ok(), "{label}");
        }
    }

    #[test]
    fn width_arms_are_valid_and_arm_specific() {
        let arms = width_arms(&default_base());
        let (stat, adaptive) = (&arms[0].1, &arms[1].1);
        assert!(stat.validate().is_ok() && adaptive.validate().is_ok());
        assert!(!stat.adaptive_n.enabled);
        assert!(adaptive.adaptive_n.enabled);
        assert_eq!(adaptive.adaptive_n.max_trim, MAX_TRIM);
        assert_eq!(adaptive.strategy, stat.strategy);
        // The narrowed floor must stay above the reactive threshold so a
        // freshly trimmed archive is not instantly due for repair.
        assert!(adaptive.n_blocks() - u32::from(MAX_TRIM) > 18);
    }

    #[test]
    fn learned_check_holds_learned_between_oracle_and_uniform() {
        assert!(learned(162, 446, 476).is_empty());
        let both = [
            "learned losses (301) exceed 3.0x oracle losses (100): loss factor 3.01",
            "learned losses (301) do not beat uniform selection (300)",
        ];
        assert_eq!(learned(100, 301, 300), both);
        assert_eq!(learned(10, 20, 20).len(), 1, "a tie does not beat uniform");
        // A perfect oracle counts as one loss.
        assert!(learned(0, 3, 4).is_empty());
        assert_eq!(learned(0, 4, 5).len(), 1);
    }

    #[test]
    fn width_check_holds_uploads_down_at_no_extra_loss() {
        assert!(width((446, 2_039_754), (261, 1_763_581)).is_empty());
        let both = [
            "adaptive uploads (91) exceed 0.90x static uploads (100): ratio 0.910",
            "adaptive losses (11) exceed the static baseline (10)",
        ];
        assert_eq!(width((10, 100), (11, 91)), both);
        assert!(width((10, 100), (10, 90)).is_empty());
        // No static uploads count as one.
        assert!(width((0, 0), (0, 0)).is_empty());
        assert_eq!(width((0, 0), (0, 1)).len(), 1);
    }
}
