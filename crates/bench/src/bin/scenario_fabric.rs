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
//! With `--paper-scale` the sweep shrinks to **one** cell at the
//! paper's §4.1 geometry: the adaptive policy at 2% faults, with the
//! sampled auditor (every `rounds / 500` rounds, 1/64 of the archives)
//! and scrubbing every `rounds / 250` rounds — the configuration the
//! SIMD gf256 backend exists to make affordable. It runs, reports and
//! exits like any sweep; its report is named `fabric-paper-scale`, and
//! its telemetry header adds the byte-plane headline numbers
//! (`gf256_backend`, `encode_mib_s`).
//!
//! The `--json` telemetry header carries, summed over the cells and
//! never under `--stable-json`, `replay_work` ([`Fabric::replay_work`]:
//! rounds skipped, the `plain` and `sweep` rounds' rows in
//! `perf_probe`'s `stage_work` shape, decodes — loss verifications and
//! flash restores; audits and episode starts are judged by slot sums —,
//! blocks gathered, `store_probes`, the store lookups the gathers made,
//! the plane's resident bytes at the end of the run — `owner_bytes`,
//! the ciphertext owners hold, and `stored_bytes`, the blocks at rest —
//! and `block_sums`, the whole-block sums run by site: `encode`,
//! `shipment`, `damage` and their `total`) and
//! `stages`, the replay profile ([`Fabric::replay_profile`]): seconds
//! of wall time per lane stage and driver step.
//!
//! ```text
//! cargo run --release -p peerback-bench --bin scenario_fabric -- --peers 64 --rounds 50 --json
//! cargo run --release -p peerback-bench --bin scenario_fabric -- --paper-scale --json
//! ```

use std::time::Instant;

use peerback_bench::{json, rs_bench, Cli, HarnessArgs};
use peerback_core::{MaintenancePolicy, SimConfig};
use peerback_fabric::{
    BlockSums, Fabric, FabricConfig, FabricReport, FaultProfile, ReplayProfile, ReplayWork,
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
    let mut cfg = args.sim.clone();
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
        total.store_probes += w.store_probes;
        total.owner_bytes += w.owner_bytes;
        total.stored_bytes += w.stored_bytes;
        total.block_sums += w.block_sums;
    }
    json::Object::new()
        .num("rounds_skipped", total.rounds_skipped)
        .stage_work([("plain", total.plain), ("sweep", total.sweep)])
        .num("decodes", total.decodes)
        .num("survivor_blocks_gathered", total.survivor_blocks_gathered)
        .num("store_probes", total.store_probes)
        .num("owner_bytes", total.owner_bytes)
        .num("stored_bytes", total.stored_bytes)
        .raw("block_sums", block_sums_json(&total.block_sums))
        .render()
}

/// The `block_sums` object of `replay_work`: sums by site, then their
/// total.
fn block_sums_json(sums: &BlockSums) -> String {
    json::Object::new()
        .num("encode", sums.encode)
        .num("shipment", sums.shipment)
        .num("damage", sums.damage)
        .num("total", sums.total())
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

/// One cell: a repair policy (its name and itself) at an in-flight
/// fault rate.
type CellSpec = (&'static str, MaintenancePolicy, f64);

/// The cells to run, and the fabric they share: the command line's,
/// with this mode's audit and scrub intervals.
fn plan(args: &HarnessArgs) -> (Vec<CellSpec>, FabricConfig) {
    let rounds = args.sim.rounds;
    if args.paper_scale {
        // The adaptive 12/1/1 policy at 2% faults.
        let (name, adaptive) = POLICIES[1];
        let fabric = FabricConfig {
            // A full-ledger decode pass per round is what made paper
            // scale unaffordable; the sampled auditor decodes ~1/64 of
            // joined archives per pass instead, keeping round-level
            // coverage of the whole ledger with a bounded per-round bill.
            audit_interval: (rounds / 500).max(1),
            audit_sample_period: 64,
            // Sweep the stores a few hundred times per run.
            scrub_interval: (rounds / 250).max(4),
            ..args.fabric
        };
        return (vec![(name, adaptive, 0.02)], fabric);
    }
    let cells = POLICIES
        .iter()
        .flat_map(|&(name, policy)| FAULT_RATES.map(|rate| (name, policy, rate)))
        .collect();
    let fabric = FabricConfig {
        // Audit every round at smoke scales, sparser on long runs.
        audit_interval: (rounds / 200).max(1),
        // Scrub often enough that every cell exercises the detect →
        // repair loop (and the unrepaired-corruption exit check has
        // teeth at smoke scales).
        scrub_interval: (rounds / 25).max(4),
        ..args.fabric
    };
    (cells, fabric)
}

fn run_cell(args: &HarnessArgs, fabric: FabricConfig, spec: CellSpec) -> Cell {
    let (policy, maintenance, fault_rate) = spec;
    let fabric_cfg = FabricConfig {
        faults: FaultProfile::uniform(fault_rate),
        ..fabric
    };
    let (report, work, profile) = Fabric::new(cell_config(args, maintenance), fabric_cfg)
        .expect("scenario configuration is valid")
        .run_with_telemetry();
    Cell {
        policy,
        fault_rate,
        report,
        work,
        profile,
    }
}

fn cell_json(cell: &Cell) -> String {
    let (report, stats, audit) = (&cell.report, &cell.report.stats, &cell.report.audit);
    let failed = stats.transfers_corrupted + stats.transfers_truncated + stats.transfers_flapped;
    // Rounds-to-restore percentiles over every scheduler-tracked restore
    // (all zero when no flash wave / restores ran).
    let (p50, p95, p99) =
        peerback_fabric::restore_percentiles(&report.restore_durations).unwrap_or((0, 0, 0));
    json::Object::new()
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
        .num("scrub_abandoned", stats.scrub_abandoned)
        .num("transfers_queued", stats.transfers_queued)
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
        .render()
}

fn main() {
    let args = HarnessArgs::parse(&CLI);
    let start = Instant::now();
    let (specs, fabric) = plan(&args);
    let cells: Vec<Cell> = specs
        .into_iter()
        .map(|spec @ (name, _, rate)| {
            if !args.json {
                eprintln!("running {name} @ fault rate {rate} ...");
            }
            run_cell(&args, fabric, spec)
        })
        .collect();

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
        let name = if args.paper_scale {
            "fabric-paper-scale"
        } else {
            "fabric"
        };
        let report = args
            .report_head("scenario", name, start.elapsed(), |telemetry| {
                let telemetry = if args.paper_scale {
                    telemetry
                        .str("gf256_backend", peerback_gf256::active_backend().name())
                        .float("encode_mib_s", rs_bench::encode_mib_s())
                } else {
                    telemetry
                };
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
