//! The three simulator-only workloads: `join_wave`, `steady_churn`,
//! `learned_adaptive`.

use peerback_core::{
    AdaptiveRedundancy, AgeCategory, BackupWorld, MemoryBreakdown, Metrics, SelectionStrategy,
    SimConfig,
};
use peerback_sim::Engine;

use super::{
    advance, maybe_span, p99_with_caution, round_secs, timed, Outcome, Timing, Workload,
    WORLD_SPANS,
};
use crate::digest::digest_of;
use crate::host::peak_rss_mib;
use crate::span::Tracer;
use crate::stats::{class_extra, median, percentile};

/// Rounds `steady_churn` runs before its window opens, so the join
/// wave and the first offline-timeout cycles (18 rounds) land in
/// set-up, not in the measurement.
const WARMUP_ROUNDS: u64 = 600;

/// `learned_adaptive` warms up twice as long: until about round 1000
/// the first cohort's die-off keeps plain rounds so dear (4-6 ms at
/// 8192 peers) that redundancy scoring, the layer this workload exists
/// to stress, is under half of the window; from round 1200 it is well
/// over half. Rounds 600-1200 are also the dearest of the run, so the
/// workload pays for them with half the population.
const LEARNED_WARMUP_ROUNDS: u64 = 1200;
const LEARNED_PEERS: usize = 4096;

/// Population of `join_wave` and `steady_churn`: the join wave measured
/// alone is the one `steady_churn` sets up with.
const PEERS: usize = 8192;

/// One simulator workload, fully sized: the configuration the program
/// receives plus the split of its rounds into set-up and window.
#[derive(Debug, Clone)]
pub struct SimPlan {
    /// The generated configuration.
    pub cfg: SimConfig,
    /// Rounds run during set-up.
    pub warmup: u64,
    /// Rounds in the measured window.
    pub window: u64,
}

/// Sizes `workload` for `seed`. Window lengths are fixed here and are
/// the same on every commit.
pub fn plan(workload: Workload, seed: u64, workers: usize) -> SimPlan {
    let sized = |peers, warmup, window| sized(workload, seed, workers, peers, warmup, window);
    match workload {
        // The whole population joins in round 0; five more rounds let
        // the fallback waves settle.
        Workload::JoinWave => sized(PEERS, 0, 6),
        Workload::SteadyChurn => sized(PEERS, WARMUP_ROUNDS, 1300),
        Workload::LearnedAdaptive => sized(LEARNED_PEERS, LEARNED_WARMUP_ROUNDS, 1280),
        other => panic!("{} is not a simulator-only workload", other.name()),
    }
}

fn sized(
    workload: Workload,
    seed: u64,
    workers: usize,
    peers: usize,
    warmup: u64,
    window: u64,
) -> SimPlan {
    let mut cfg = SimConfig::paper(peers, warmup + window, seed)
        .with_paper_observers()
        .with_shards(workers);
    if workload == Workload::LearnedAdaptive {
        cfg = cfg
            .with_strategy(SelectionStrategy::LearnedAge)
            .with_adaptive_n(AdaptiveRedundancy::tuned(8));
    }
    SimPlan {
        cfg,
        warmup,
        window,
    }
}

/// Everything one drive of a plan yields.
struct Driven {
    setup_s: f64,
    window: Timing,
    /// `Metrics` when the window opened.
    before: Metrics,
    /// `Metrics` at the end of the run.
    metrics: Metrics,
    mem: MemoryBreakdown,
    /// Pool wake-ups during the window.
    dispatches: u64,
}

fn drive(plan: &SimPlan, tracer: &mut Option<&mut Tracer>) -> Driven {
    let seed = plan.cfg.seed;
    let ((mut world, mut engine), setup) = timed(|| {
        let mut world = maybe_span(tracer, "core.world.new", || {
            BackupWorld::new(plan.cfg.clone())
        });
        let mut engine = Engine::new(seed);
        advance(&mut engine, &mut world, plan.warmup, tracer, WORLD_SPANS);
        (world, engine)
    });
    let before = world.metrics().clone();
    let dispatches_before = world.stage_dispatches();
    let ((), window) = timed(|| advance(&mut engine, &mut world, plan.window, tracer, WORLD_SPANS));
    let dispatches = world.stage_dispatches() - dispatches_before;
    let mem = world.memory_breakdown();
    let metrics = maybe_span(tracer, "core.world.into_metrics", || world.into_metrics());
    Driven {
        setup_s: setup.wall,
        window,
        before,
        metrics,
        mem,
        dispatches,
    }
}

fn total(by_category: &[u64; 4]) -> f64 {
    by_category.iter().sum::<u64>() as f64
}

/// Runs one repeat of a simulator-only workload.
pub fn repeat(
    workload: Workload,
    seed: u64,
    workers: usize,
    mut tracer: Option<&mut Tracer>,
) -> Outcome {
    let plan = plan(workload, seed, workers);
    let d = drive(&plan, &mut tracer);
    let (m, b) = (&d.metrics, &d.before);
    let peer_rounds = plan.cfg.n_peers as f64 * plan.window as f64;
    let kpr = (total(&m.peer_rounds) - total(&b.peer_rounds)) / 1000.0;
    let joins = (m.diag.joins_completed - b.diag.joins_completed) as f64;
    let repairs = total(&m.repairs) - total(&b.repairs);
    let uploaded = (m.diag.blocks_uploaded - b.diag.blocks_uploaded) as f64;

    let digest = digest_of(m);
    let mut out = Outcome {
        setup_s: d.setup_s,
        window: d.window,
        digest,
        sim_digest: digest,
        dispatches: d.dispatches,
        ..Outcome::default()
    };
    out.values.push(("bytes_per_peer", d.mem.total()));
    if workload == Workload::JoinWave {
        out.work = joins;
        out.rates.push(("joins_per_s", joins));
        out.checks.add(joins > 0.0, "no peer completed its join");
    } else {
        out.work = peer_rounds;
        out.rates.push(("peer_rounds_per_s", peer_rounds));
        out.values.push(("sim_repairs_per_kpr", repairs / kpr));
        out.values
            .push(("sim_blocks_uploaded_per_kpr", uploaded / kpr));
        out.checks.add(repairs > 0.0, "no repair in the window");
    }
    if let Some(tracer) = tracer {
        out.layers = layer_values(&plan, &d, tracer);
    }
    out
}

/// Set-up alone, for the workload whose set-up is only
/// `BackupWorld::new`: milliseconds, so a run samples it many times.
pub fn setup_only(workload: Workload, seed: u64, workers: usize) -> f64 {
    let plan = plan(workload, seed, workers);
    timed(|| BackupWorld::new(plan.cfg)).1.wall
}

/// The paper's effect, and the smoke signal that the protocol still
/// works: newcomers cost more repairs per peer-round than young peers.
/// Nobody is young before round 2160, so this needs a run of its own,
/// longer than any window. At 2048 peers x 4600 rounds the ratio of
/// the two rates measured 1.25 +/- 0.08 over 30 seeds (least 1.10);
/// the check runs at twice that population, where chance does not
/// bring it under 1. (Old peers exist for the last 280 rounds only and
/// do not order reliably at this length.)
pub fn older_is_cheaper_check(seed: u64, workers: usize) -> (String, bool) {
    let plan = sized(Workload::SteadyChurn, seed, workers, 4096, 0, 4600);
    let metrics = drive(&plan, &mut None).metrics;
    let rate = |cat| metrics.repair_rate_per_1000(cat).unwrap_or(f64::NAN);
    let (newcomer, young) = (rate(AgeCategory::Newcomer), rate(AgeCategory::Young));
    (
        format!(
            "older = cheaper at 4096x4600: newcomers {newcomer:.4} repairs/kpr exceed young peers' {young:.4}"
        ),
        newcomer > young,
    )
}

/// Same seed, one worker against two, at a size that takes a fraction
/// of a second: the simulated results must not depend on the worker
/// count.
pub fn worker_count_cross_check(workload: Workload, seed: u64) -> (String, bool) {
    let digest = |workers| {
        let plan = sized(workload, seed, workers, 1024, 0, 200);
        digest_of(&drive(&plan, &mut None).metrics)
    };
    (
        format!(
            "{}: 1024x200 digest at 1 worker equals 2 workers",
            workload.name()
        ),
        digest(1) == digest(2),
    )
}

/// The per-layer view of one traced drive: span statistics plus the
/// program's own public counters over the window.
fn layer_values(plan: &SimPlan, d: &Driven, tracer: &Tracer) -> Vec<(&'static str, f64)> {
    let (m, b) = (&d.metrics, &d.before);
    let window = plan.warmup..plan.warmup + plan.window;
    let rounds = plan.window as f64;
    let starts = round_secs(tracer, WORLD_SPANS.0, window.clone());
    let start_secs: Vec<f64> = starts.iter().map(|&(_, s)| s).collect();
    let start_ms: Vec<f64> = start_secs.iter().map(|s| s * 1e3).collect();
    let start_total: f64 = start_secs.iter().sum();
    let end_total: f64 = round_secs(tracer, WORLD_SPANS.1, window.clone())
        .iter()
        .map(|&(_, s)| s)
        .sum();
    let round0 = round_secs(tracer, "round", 0..1)
        .first()
        .map_or(0.0, |&(_, s)| s);

    let delta = |f: fn(&Metrics) -> u64| (f(m) - f(b)) as f64;
    let joins = delta(|m| m.diag.joins_completed);
    let departures = delta(|m| m.diag.departures);
    let toggles = delta(|m| m.diag.session_toggles);
    let timeouts = delta(|m| m.diag.partner_timeouts);
    let repairs = total(&m.repairs) - total(&b.repairs);
    let uploaded = delta(|m| m.diag.blocks_uploaded);
    let shortfalls = delta(|m| m.diag.pool_shortfalls);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let mut v = vec![
        ("core.world.new.s", tracer.total_secs("core.world.new")),
        ("core.world.round_start.total_s", start_total),
        ("core.world.round_start.ms_p50", median(&start_ms)),
        (
            "core.world.round_start.ms_p99",
            p99_with_caution("core.world.round_start.ms_p99", &start_ms),
        ),
        (
            "core.world.round_start.ms_max",
            percentile(&start_ms, 100.0),
        ),
        ("core.world.round_end.total_s", end_total),
        ("core.world.round0.s", round0),
        (
            "core.world.into_metrics.s",
            tracer.total_secs("core.world.into_metrics"),
        ),
        (
            "core.world.stage_dispatches_per_round",
            d.dispatches as f64 / rounds,
        ),
        (
            "core.world.events_per_round",
            (departures + toggles + timeouts) / rounds,
        ),
        ("core.world.joins", joins),
        ("core.world.departures", departures),
        ("core.world.session_toggles", toggles),
        ("core.world.partner_timeouts", timeouts),
        ("core.world.repairs", repairs),
        ("core.world.blocks_uploaded", uploaded),
        ("core.world.pool_shortfalls", shortfalls),
        (
            "core.world.pool_shortfall_ratio",
            ratio(shortfalls, joins + repairs),
        ),
        (
            "core.world.ns_per_placement",
            ratio(start_total * 1e9, uploaded),
        ),
        ("core.world.mem.peer_table_b", d.mem.peer_table),
        ("core.world.mem.online_index_b", d.mem.online_index),
        ("core.world.mem.hosted_ledgers_b", d.mem.hosted_ledgers),
        ("core.world.mem.archive_states_b", d.mem.archive_states),
        ("core.world.mem.partner_lists_b", d.mem.partner_lists),
        (
            "core.world.peak_rss_per_peer_b",
            peak_rss_mib() * 1024.0 * 1024.0 / plan.cfg.n_peers as f64,
        ),
    ];

    // Redundancy scoring runs inside `round_start` every
    // `check_interval`-th round; classed from outside by round number.
    let ar = plan.cfg.adaptive_n;
    if ar.enabled {
        let is_check = |r: u64| r != 0 && r.is_multiple_of(ar.check_interval);
        let class = |want: bool| -> Vec<f64> {
            starts
                .iter()
                .filter(|&&(r, _)| is_check(r) == want)
                .map(|&(_, s)| s)
                .collect()
        };
        let (check, plain) = (class(true), class(false));
        let ms = |secs: &[f64]| median(secs) * 1e3;
        v.extend([
            ("core.redundancy.check_round.ms_p50", ms(&check)),
            ("core.redundancy.plain_round.ms_p50", ms(&plain)),
            (
                "core.redundancy.extra_total_s",
                class_extra(&check, &plain, check.len()),
            ),
            (
                "core.redundancy.widened",
                delta(|m| m.diag.redundancy_widened),
            ),
            (
                "core.redundancy.narrowed",
                delta(|m| m.diag.redundancy_narrowed),
            ),
            (
                "core.redundancy.preemptive_repairs",
                delta(|m| m.diag.preemptive_repairs),
            ),
        ]);
    }
    if let Some(est) = &m.estimator {
        v.extend([
            ("estimate.deaths_observed", est.deaths_observed as f64),
            ("estimate.calibration_mae", est.calibration_mae),
        ]);
    }
    v
}
