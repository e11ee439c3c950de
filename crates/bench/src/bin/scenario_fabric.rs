//! Fabric end-to-end scenario: fault rates × repair policies, with the
//! restorability auditor cross-checking bytes against the simulator in
//! every cell.
//!
//! Opens the fault-injection workload family: each cell runs the full
//! combined mode (simulate placement, move real bytes through the
//! fault plane) and reports transfer outcomes, verified data losses
//! and the audit ledger. The zero-fault column doubles as a continuous
//! integration check — byte-level restorability must equal the
//! simulator's prediction exactly, so the process exits non-zero if
//! any cell reports an audit mismatch, **or** if a scrubbing sweep
//! detected at-rest corruption that was never repaired by run end. A
//! scrub re-ship damaged in flight on every attempt is given up at the
//! attempt cap like any other retry; it is reported as
//! `scrub_abandoned` and does not fail the run.
//!
//! With `--paper-scale` the sweep is replaced by **one** combined-mode
//! run at the paper's §4.1 geometry, with the sampled auditor and
//! periodic scrubbing enabled — the configuration the SIMD gf256
//! backend exists to make affordable. Its JSON report carries the
//! byte-plane headline numbers (`gf256_backend`, `encode_mib_s`,
//! `scrub_detected`, `scrub_repaired`).
//!
//! Both modes' `--json` telemetry header carries, summed over the
//! cells and never under `--stable-json`, `replay_work`
//! ([`Fabric::replay_work`]: rounds skipped, decodes, blocks gathered,
//! and the `plain` and `sweep` rounds' rows in `perf_probe`'s
//! `stage_work` shape) and `stages`, the replay profile
//! ([`Fabric::replay_profile`]): seconds of wall time per lane stage
//! and driver step.
//!
//! ```text
//! cargo run --release -p peerback-bench --bin scenario_fabric -- --peers 64 --rounds 50 --json
//! cargo run --release -p peerback-bench --bin scenario_fabric -- --paper-scale --json
//! ```

use std::time::Instant;

use peerback_bench::{json, rs_bench, Cli, HarnessArgs};
use peerback_core::{MaintenancePolicy, SimConfig};
use peerback_fabric::{
    Fabric, FabricConfig, FabricReport, FaultProfile, ReplayProfile, ReplayWork,
};

const CLI: Cli = Cli {
    binary: "scenario_fabric",
    synopsis: "[options]",
    groups: &[
        "scale",
        "execution",
        "json",
        "stable-json",
        "world",
        "fabric",
    ],
};

/// In-flight fault rates swept (0 = the cross-check column).
const FAULT_RATES: [f64; 3] = [0.0, 0.02, 0.08];

/// Repair policies swept (names + constructors sized for k = 8).
const POLICIES: [(&str, MaintenancePolicy); 3] = [
    ("reactive", MaintenancePolicy::Reactive { threshold: 10 }),
    (
        "adaptive",
        MaintenancePolicy::Adaptive {
            base: 12,
            floor_margin: 1,
            step: 1,
        },
    ),
    (
        "proactive",
        MaintenancePolicy::Proactive { tick_rounds: 24 },
    ),
];

/// The scenario's simulation config: a small 8+8 geometry so byte-level
/// decodes stay cheap at any population.
fn cell_config(args: &HarnessArgs, maintenance: MaintenancePolicy) -> SimConfig {
    let mut cfg = args.base_config();
    cfg.k = 8;
    cfg.m = 8;
    cfg.quota = 48;
    cfg.maintenance = maintenance;
    cfg
}

struct Cell {
    policy: &'static str,
    fault_rate: f64,
    report: FabricReport,
    work: ReplayWork,
    profile: ReplayProfile,
}

/// Prints the audit notes of a failing cell to stderr, one per line
/// under the cell's label, so a failure names its first mismatches.
fn print_notes(label: &str, notes: &[String]) {
    for note in notes {
        eprintln!("  {label}: {note}");
    }
}

/// The `replay_work` object of the unstable header, summed over
/// `runs`. Execution telemetry — the rows depend on `--shards`.
fn replay_work_json<'a>(runs: impl IntoIterator<Item = &'a ReplayWork>) -> String {
    let mut total = ReplayWork::default();
    for w in runs {
        total.rounds_skipped += w.rounds_skipped;
        total.plain += w.plain;
        total.sweep += w.sweep;
        total.decodes += w.decodes;
        total.survivor_blocks_gathered += w.survivor_blocks_gathered;
    }
    json::Object::new()
        .num("rounds_skipped", total.rounds_skipped)
        .stage_work([("plain", total.plain), ("sweep", total.sweep)])
        .num("decodes", total.decodes)
        .num("survivor_blocks_gathered", total.survivor_blocks_gathered)
        .render()
}

/// The `stages` object of the unstable header: seconds of replay wall
/// time per lane stage and driver step ([`Fabric::replay_profile`]),
/// summed over `runs`.
fn stages_json<'a>(runs: impl IntoIterator<Item = &'a ReplayProfile>) -> String {
    let mut total = ReplayProfile::default();
    for profile in runs {
        total.accumulate(profile);
    }
    total
        .rows()
        .into_iter()
        .fold(json::Object::new(), |obj, (name, secs)| {
            obj.float(name, secs)
        })
        .render()
}

fn run_cell(
    args: &HarnessArgs,
    policy: &'static str,
    maintenance: MaintenancePolicy,
    rate: f64,
) -> Cell {
    let fabric_cfg = FabricConfig {
        faults: FaultProfile::uniform(rate),
        // Audit every round at smoke scales, sparser on long runs.
        audit_interval: (args.rounds / 200).max(1),
        // Scrub often enough that every cell exercises the detect →
        // repair loop (and the unrepaired-corruption exit check has
        // teeth at smoke scales).
        scrub_interval: (args.rounds / 25).max(4),
        // `--link-cap` / `--flash-restore` switch every cell onto the
        // per-link transfer scheduler.
        schedule: args.schedule(),
        adversary: args.adversary,
        ..FabricConfig::default()
    };
    let (report, work, profile) = Fabric::new(cell_config(args, maintenance), fabric_cfg)
        .expect("scenario configuration is valid")
        .run_with_telemetry();
    Cell {
        policy,
        fault_rate: rate,
        report,
        work,
        profile,
    }
}

/// The fields both modes report alike, in the order both report them:
/// the scheduler's queueing and restore percentiles, then the audit
/// ledger.
fn scheduler_and_audit(out: json::Object, report: &FabricReport) -> json::Object {
    let (stats, audit) = (&report.stats, &report.audit);
    // Rounds-to-restore percentiles over every scheduler-tracked restore
    // (all zero when no flash wave / restores ran).
    let (p50, p95, p99) =
        peerback_fabric::restore_percentiles(&report.restore_durations).unwrap_or((0, 0, 0));
    out.num("transfers_queued", stats.transfers_queued)
        .num("transfers_carried", stats.transfers_carried)
        .num("transfers_cancelled", stats.transfers_cancelled)
        .num("flash_restores", stats.flash_restores)
        .num("flash_restore_failures", stats.flash_restore_failures)
        .num("restores_completed", report.restore_durations.len() as u64)
        .num("restore_p50_rounds", p50)
        .num("restore_p95_rounds", p95)
        .num("restore_p99_rounds", p99)
        .num("audit_skipped_in_flight", audit.skipped_in_flight)
        .num("sim_losses", report.metrics.total_losses())
        .num("verified_losses", report.losses.len() as u64)
        .num("audit_checks", audit.checks)
        .num("audit_consistent", audit.consistent)
        .num("fault_induced_losses", audit.fault_induced_losses)
        .num("audit_mismatches", audit.mismatches)
        .num("decode_attempts", audit.decode_attempts)
        .num("decode_successes", audit.decode_successes)
}

fn cell_json(cell: &Cell) -> String {
    let stats = &cell.report.stats;
    let failed = stats.transfers_corrupted + stats.transfers_truncated + stats.transfers_flapped;
    let cell_stats = json::Object::new()
        .str("policy", cell.policy)
        .float("fault_rate", cell.fault_rate)
        .num("transfers_attempted", stats.transfers_attempted)
        .num("transfers_delivered", stats.transfers_delivered)
        .num("transfers_failed", failed)
        .num("duplicate_frames", stats.duplicate_frames)
        .num("bitrot_events", stats.bitrot_events)
        .num("bytes_shipped", stats.bytes_shipped)
        .float("upload_secs", stats.upload_secs)
        .float("download_secs", stats.download_secs)
        .num("joins", stats.joins)
        .num("episodes", stats.episodes)
        .num("repair_decodes", stats.repair_decodes)
        .num("repair_decode_fallbacks", stats.repair_decode_fallbacks)
        .num("transfers_retried", stats.transfers_retried)
        .num("retry_deliveries", stats.retry_deliveries)
        .num("retries_abandoned", stats.retries_abandoned)
        .num("scrub_checked", stats.scrub_checked)
        .num("scrub_detected", stats.scrub_detected)
        .num("scrub_repaired", stats.scrub_repaired)
        .num("scrub_obsolete", stats.scrub_obsolete)
        .num("scrub_abandoned", stats.scrub_abandoned);
    scheduler_and_audit(cell_stats, &cell.report).render()
}

/// The `--paper-scale` single-run mode: combined mode at the paper's
/// §4.1 geometry with the sampled auditor and periodic scrubbing — the
/// workload the SIMD gf256 backend makes affordable on one host.
fn run_paper_scale(args: &HarnessArgs) {
    let start = Instant::now();
    let maintenance = MaintenancePolicy::Adaptive {
        base: 12,
        floor_margin: 1,
        step: 1,
    };
    let fabric_cfg = FabricConfig {
        faults: FaultProfile::uniform(0.02),
        // A full-ledger decode pass per round is what made paper scale
        // unaffordable; the sampled auditor decodes ~1/64 of joined
        // archives per pass instead, keeping round-level coverage of
        // the whole ledger with a bounded per-round bill.
        audit_interval: (args.rounds / 500).max(1),
        audit_sample_period: 64,
        // At-rest scrubbing: sweep the stores a few hundred times per
        // run; every detection must be repaired (or obsoleted by
        // churn) before the run ends, or the process exits non-zero.
        scrub_interval: (args.rounds / 250).max(4),
        schedule: args.schedule(),
        ..FabricConfig::default()
    };
    if !args.json {
        eprintln!(
            "running paper-scale combined mode: {} peers x {} rounds ...",
            args.peers, args.rounds
        );
    }
    let (report, work, profile) = Fabric::new(cell_config(args, maintenance), fabric_cfg)
        .expect("paper-scale configuration is valid")
        .run_with_telemetry();
    let elapsed = start.elapsed();
    let encode_mib_s = rs_bench::encode_mib_s();

    let stats = &report.stats;
    let audit = &report.audit;
    let unverified_losses = report
        .losses
        .iter()
        .filter(|l| l.intact_shards >= l.k)
        .count();
    let scrub_unrepaired = stats.scrub_unrepaired();
    let failed = stats.transfers_corrupted + stats.transfers_truncated + stats.transfers_flapped;
    let (p50, p95, p99) =
        peerback_fabric::restore_percentiles(&report.restore_durations).unwrap_or((0, 0, 0));

    if args.json {
        let out = args
            .report_head("scenario", "fabric-paper-scale", elapsed, |telemetry| {
                telemetry
                    .str("gf256_backend", peerback_gf256::active_backend().name())
                    .float("encode_mib_s", encode_mib_s)
                    .raw("replay_work", replay_work_json([&work]))
                    .raw("stages", stages_json([&profile]))
            })
            .num("transfers_attempted", stats.transfers_attempted)
            .num("transfers_delivered", stats.transfers_delivered)
            .num("transfers_failed", failed)
            .num("bitrot_events", stats.bitrot_events)
            .num("bytes_shipped", stats.bytes_shipped)
            .num("scrub_checked", stats.scrub_checked)
            .num("scrub_detected", stats.scrub_detected)
            .num("scrub_repaired", stats.scrub_repaired)
            .num("scrub_obsolete", stats.scrub_obsolete)
            .num("scrub_abandoned", stats.scrub_abandoned)
            .num("scrub_unrepaired", scrub_unrepaired);
        let out = scheduler_and_audit(out, &report)
            .num("unverified_losses", unverified_losses as u64)
            .render();
        println!("{out}");
    } else {
        println!(
            "paper scale: {} peers x {} rounds in {:.1}s ({} backend, {encode_mib_s:.0} MiB/s \
             encode)",
            args.peers,
            args.rounds,
            elapsed.as_secs_f64(),
            peerback_gf256::active_backend().name(),
        );
        println!(
            "  transfers: {} attempted, {} delivered, {failed} failed, {} bitrot",
            stats.transfers_attempted, stats.transfers_delivered, stats.bitrot_events
        );
        println!(
            "  scrub: {} checked, {} detected, {} repaired, {} obsolete, {} abandoned, \
             {scrub_unrepaired} unrepaired",
            stats.scrub_checked,
            stats.scrub_detected,
            stats.scrub_repaired,
            stats.scrub_obsolete,
            stats.scrub_abandoned
        );
        if !report.restore_durations.is_empty() {
            println!(
                "  restores: {} completed, rounds-to-restore p50/p95/p99 = {p50}/{p95}/{p99}",
                report.restore_durations.len()
            );
        }
        println!(
            "  audit: {} checks, {} mismatches, {unverified_losses} unverified losses",
            audit.checks, audit.mismatches
        );
    }

    if audit.mismatches > 0 || unverified_losses > 0 || scrub_unrepaired > 0 {
        eprintln!(
            "FAIL: {} audit mismatch(es), {unverified_losses} unverified loss(es), \
             {scrub_unrepaired} scrub detection(s) never repaired",
            audit.mismatches
        );
        print_notes("paper scale", &audit.notes);
        std::process::exit(1);
    }
}

fn main() {
    let args = HarnessArgs::parse(&CLI);
    if args.paper_scale {
        run_paper_scale(&args);
        return;
    }
    let start = Instant::now();
    let mut cells = Vec::new();
    for (name, maintenance) in POLICIES {
        for rate in FAULT_RATES {
            if !args.json {
                eprintln!("running {name} @ fault rate {rate} ...");
            }
            cells.push(run_cell(&args, name, maintenance, rate));
        }
    }

    let mismatches: u64 = cells.iter().map(|c| c.report.audit.mismatches).sum();
    let unverified_losses: usize = cells
        .iter()
        .flat_map(|c| &c.report.losses)
        .filter(|l| l.intact_shards >= l.k)
        .count();
    let scrub_unrepaired: u64 = cells
        .iter()
        .map(|c| c.report.stats.scrub_unrepaired())
        .sum();
    let scrub_abandoned: u64 = cells.iter().map(|c| c.report.stats.scrub_abandoned).sum();

    if args.json {
        // Timing and host facts stay out of the stable form so shard
        // counts diff byte-for-byte (the CI combined-mode determinism
        // gate).
        let report = args
            .report_head("scenario", "fabric", start.elapsed(), |telemetry| {
                telemetry
                    .raw(
                        "replay_work",
                        replay_work_json(cells.iter().map(|c| &c.work)),
                    )
                    .raw("stages", stages_json(cells.iter().map(|c| &c.profile)))
            })
            .raw("cells", json::array(cells.iter().map(cell_json)))
            .num("audit_mismatches", mismatches)
            .num("unverified_losses", unverified_losses as u64)
            .num("scrub_abandoned", scrub_abandoned)
            .num("scrub_unrepaired", scrub_unrepaired)
            .render();
        println!("{report}");
    } else {
        println!(
            "{:<10} {:>6} {:>9} {:>9} {:>7} {:>7} {:>7} {:>9} {:>10}",
            "policy",
            "fault",
            "shipped",
            "delivered",
            "failed",
            "dups",
            "losses",
            "audits",
            "mismatches"
        );
        for cell in &cells {
            let s = &cell.report.stats;
            let failed = s.transfers_corrupted + s.transfers_truncated + s.transfers_flapped;
            println!(
                "{:<10} {:>6} {:>9} {:>9} {:>7} {:>7} {:>7} {:>9} {:>10}",
                cell.policy,
                format!("{:.0}%", cell.fault_rate * 100.0),
                s.transfers_attempted,
                s.transfers_delivered,
                failed,
                s.duplicate_frames,
                cell.report.losses.len(),
                cell.report.audit.checks,
                cell.report.audit.mismatches,
            );
        }
        println!("total audit mismatches: {mismatches}");
        println!("scrub re-ships abandoned at the attempt cap: {scrub_abandoned}");
    }

    if mismatches > 0 || unverified_losses > 0 || scrub_unrepaired > 0 {
        eprintln!(
            "FAIL: {mismatches} audit mismatch(es), {unverified_losses} unverified loss(es), \
             {scrub_unrepaired} scrub detection(s) never repaired — the byte plane and the \
             simulator disagree"
        );
        for cell in &cells {
            let label = format!("{} @ {:.0}%", cell.policy, cell.fault_rate * 100.0);
            print_notes(&label, &cell.report.audit.notes);
        }
        std::process::exit(1);
    }
}
