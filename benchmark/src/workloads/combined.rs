//! `combined_bytes`: the simulator bound to the byte-level fabric with
//! every plane switched on.

use peerback_core::{BackupWorld, MaintenancePolicy, SimConfig};
use peerback_fabric::{
    AdversaryConfig, Fabric, FabricConfig, FabricReport, FaultProfile, ScheduleConfig,
};
use peerback_sim::Engine;

use super::{advance, maybe_span, p99_with_caution, round_secs, timed, Outcome, MIB};
use crate::digest::digest_of;
use crate::span::Tracer;
use crate::stats::{class_extra, median};

const PEERS: usize = 2048;
const ROUNDS: u64 = 1000;

/// Span names of the fabric's two per-round calls: `round_start`
/// delegates to the world; `round_end` is the world's (cheap) round
/// end followed by the lane replay.
const FABRIC_SPANS: (&str, &str) = ("core.world.round_start", "fabric.replay");

/// The generated configuration pair.
pub fn configs(seed: u64, workers: usize) -> (SimConfig, FabricConfig) {
    let mut cfg = SimConfig::paper(PEERS, ROUNDS, seed)
        .with_shards(workers)
        .with_quarantine_threshold(3);
    cfg.k = 8;
    cfg.m = 8;
    cfg.quota = 48;
    cfg.maintenance = MaintenancePolicy::Adaptive {
        base: 12,
        floor_margin: 1,
        step: 1,
    };
    let fabric = FabricConfig {
        payload_bytes: 16384,
        faults: FaultProfile::uniform(0.02),
        audit_interval: 8,
        audit_sample_period: 16,
        scrub_interval: 64,
        schedule: Some(ScheduleConfig {
            link_cap: Some(8192),
            ..ScheduleConfig::default()
        }),
        adversary: AdversaryConfig {
            free_rider_fraction: 0.05,
            rot_fraction: 0.01,
            challenge_interval: 16,
            challenge_sample_period: 4,
        },
        ..FabricConfig::default()
    };
    (cfg, fabric)
}

/// Per-peer table bytes of this configuration. `Fabric::run` consumes
/// the world, so the figure is read off a bare world of the same
/// configuration after its join round — the table is fixed-stride, so
/// it does not change afterwards.
fn bytes_per_peer(cfg: &SimConfig) -> f64 {
    let mut world = BackupWorld::new(cfg.clone());
    Engine::new(cfg.seed).run(&mut world, 1);
    world.memory_breakdown().total()
}

/// Set-up alone (`Fabric::new`): well under a millisecond, so a run
/// samples it many times.
pub fn setup_only(seed: u64, workers: usize) -> f64 {
    let (cfg, fcfg) = configs(seed, workers);
    timed(|| Fabric::new(cfg, fcfg).expect("the combined_bytes configuration is valid"))
        .1
        .wall
}

/// Runs one repeat. Untraced, the window is `Fabric::run()`; traced,
/// it is a manual drive of `Engine::step` followed by `finish()`,
/// which skips the overtime retry drain — so the traced counters may
/// fall short of the untraced ones while `Metrics` must not differ.
pub fn repeat(seed: u64, workers: usize, mut tracer: Option<&mut Tracer>) -> Outcome {
    let (cfg, fcfg) = configs(seed, workers);
    let (fabric, setup) = timed(|| {
        maybe_span(&mut tracer, "fabric.new", || {
            Fabric::new(cfg.clone(), fcfg).expect("the combined_bytes configuration is valid")
        })
    });
    let mut dispatches = 0;
    let (report, window) = timed(|| match tracer {
        None => fabric.run(),
        Some(_) => {
            let mut fabric = fabric;
            let mut engine = Engine::new(seed);
            advance(&mut engine, &mut fabric, ROUNDS, &mut tracer, FABRIC_SPANS);
            dispatches = fabric.world().stage_dispatches();
            fabric.finish()
        }
    });

    let shipped_mib = report.stats.bytes_shipped as f64 / MIB;
    let peer_rounds = PEERS as f64 * ROUNDS as f64;
    let kpr = report.metrics.peer_rounds.iter().sum::<u64>() as f64 / 1000.0;
    let mut out = Outcome {
        setup_s: setup.wall,
        window,
        work: shipped_mib,
        rates: vec![
            ("shipped_mib_per_s", shipped_mib),
            ("peer_rounds_per_s", peer_rounds),
        ],
        values: vec![
            ("bytes_per_peer", bytes_per_peer(&cfg)),
            (
                "sim_blocks_uploaded_per_kpr",
                report.metrics.diag.blocks_uploaded as f64 / kpr,
            ),
        ],
        digest: digest_of(&(&report.metrics, &report.stats, &report.audit)),
        sim_digest: digest_of(&report.metrics),
        dispatches,
        ..Outcome::default()
    };
    // Every audit check and every recorded loss is one output check: a
    // mismatch is the byte plane contradicting the simulator, and a
    // loss recorded while k intact shards existed is a false loss.
    // (`scrub_unrepaired` is not a failure: with adversaries on,
    // abandoned retries legitimately leave detections unrepaired.)
    let false_losses = report
        .losses
        .iter()
        .filter(|l| l.intact_shards >= l.k)
        .count() as u64;
    out.checks.add_many(
        report.audit.checks + report.losses.len() as u64,
        report.audit.mismatches + false_losses,
        &format!(
            "{} audit mismatches, {false_losses} losses with k intact shards",
            report.audit.mismatches
        ),
    );
    out.checks.add(
        report.stats.transfers_delivered > 0,
        "no transfer was delivered",
    );
    if let Some(tracer) = tracer {
        out.layers = layer_values(&cfg, &fcfg, &report, tracer);
    }
    out
}

fn layer_values(
    cfg: &SimConfig,
    fcfg: &FabricConfig,
    report: &FabricReport,
    tracer: &Tracer,
) -> Vec<(&'static str, f64)> {
    let all = 0..ROUNDS;
    let replay = round_secs(tracer, FABRIC_SPANS.1, all.clone());
    let replay_secs: Vec<f64> = replay.iter().map(|&(_, s)| s).collect();
    let replay_ms: Vec<f64> = replay_secs.iter().map(|s| s * 1e3).collect();
    let replay_total: f64 = replay_secs.iter().sum();
    let start_total: f64 = round_secs(tracer, FABRIC_SPANS.0, all)
        .iter()
        .map(|&(_, s)| s)
        .sum();

    // The periodic planes nest: every scrub round is also a challenge
    // round, every challenge round also an audit round. Class each
    // round by the dearest plane that runs in it.
    let (audit, challenge, scrub) = (
        fcfg.audit_interval,
        fcfg.adversary.challenge_interval,
        fcfg.scrub_interval,
    );
    let class_of = |r: u64| {
        if r.is_multiple_of(scrub) {
            3
        } else if r.is_multiple_of(challenge) {
            2
        } else if r.is_multiple_of(audit) {
            1
        } else {
            0
        }
    };
    let class = |c: u8| -> Vec<f64> {
        replay
            .iter()
            .filter(|&&(r, _)| class_of(r) == c)
            .map(|&(_, s)| s)
            .collect()
    };
    let (plain, audit_only, challenge_only, scrub_rounds) =
        (class(0), class(1), class(2), class(3));
    let audit_extra = class_extra(
        &audit_only,
        &plain,
        audit_only.len() + challenge_only.len() + scrub_rounds.len(),
    );
    let challenge_extra = class_extra(
        &challenge_only,
        &audit_only,
        challenge_only.len() + scrub_rounds.len(),
    );
    let scrub_extra = class_extra(&scrub_rounds, &challenge_only, scrub_rounds.len());

    let s = &report.stats;
    let a = &report.audit;
    let ms = |secs: &[f64]| median(secs) * 1e3;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let failed = s.transfers_corrupted + s.transfers_truncated + s.transfers_flapped;
    let shard_len = (fcfg.payload_bytes / cfg.k as usize) as f64;
    vec![
        ("fabric.new.s", tracer.total_secs("fabric.new")),
        ("core.world.round_start.total_s", start_total),
        ("fabric.replay.total_s", replay_total),
        ("fabric.replay.ms_p50", median(&replay_ms)),
        (
            "fabric.replay.ms_p99",
            p99_with_caution("fabric.replay.ms_p99", &replay_ms),
        ),
        ("fabric.plain_round.ms_p50", ms(&plain)),
        ("fabric.audit_round.ms_p50", ms(&audit_only)),
        ("fabric.scrub_round.ms_p50", ms(&scrub_rounds)),
        ("fabric.challenge_round.ms_p50", ms(&challenge_only)),
        ("fabric.audit.extra_total_s", audit_extra),
        ("fabric.scrub.extra_total_s", scrub_extra),
        ("fabric.challenge.extra_total_s", challenge_extra),
        (
            "fabric.scrub.mib_s",
            ratio(s.scrub_checked as f64 * shard_len / MIB, scrub_extra),
        ),
        (
            "fabric.audit.decodes_per_s",
            ratio(a.decode_attempts as f64, audit_extra),
        ),
        (
            "fabric.us_per_transfer",
            ratio(replay_total * 1e6, s.transfers_attempted as f64),
        ),
        ("fabric.transfers_attempted", s.transfers_attempted as f64),
        ("fabric.transfers_delivered", s.transfers_delivered as f64),
        ("fabric.transfers_failed", failed as f64),
        ("fabric.transfers_retried", s.transfers_retried as f64),
        ("fabric.retries_abandoned", s.retries_abandoned as f64),
        ("fabric.transfers_queued", s.transfers_queued as f64),
        ("fabric.transfers_carried", s.transfers_carried as f64),
        ("fabric.bytes_shipped", s.bytes_shipped as f64),
        ("fabric.repair_decodes", s.repair_decodes as f64),
        ("fabric.audit_checks", a.checks as f64),
        ("fabric.audit_decode_attempts", a.decode_attempts as f64),
        ("fabric.scrub_checked", s.scrub_checked as f64),
        ("fabric.scrub_detected", s.scrub_detected as f64),
        ("fabric.scrub_unrepaired", s.scrub_unrepaired() as f64),
        ("fabric.challenges_issued", s.challenges_issued as f64),
        ("fabric.challenge_failures", s.challenge_failures as f64),
        ("fabric.quarantined", report.quarantined.len() as f64),
        (
            "fabric.delivery_ratio",
            ratio(s.transfers_delivered as f64, s.transfers_attempted as f64),
        ),
        (
            "fabric.carry_ratio",
            ratio(s.transfers_carried as f64, s.transfers_queued as f64),
        ),
        // Computed, not measured: k x m shard folds per code word
        // encoded, one code word per join and per repair decode.
        (
            "gf256.mul_add.computed_bytes",
            cfg.k as f64 * cfg.m as f64 * shard_len * (s.joins + s.repair_decodes) as f64,
        ),
    ]
}
