//! Scaling-knee sweep: wall-clock over the `shards` (worker count) ×
//! `shard_slots` (partition granularity) × work-stealing grid, at a
//! fixed scenario, to locate the multi-core knee — the worker count
//! past which adding cores stops paying.
//!
//! Every cell simulates the identical world (`shards` is execution-only
//! and `--stable-json` runs diff byte-for-byte across the whole grid at
//! equal `shard_slots`), so the grid is a pure scheduling measurement.
//! The shard axis is derived from the host: powers of two up to
//! 2×CPUs (capped at 32), so the sweep stays cheap on a laptop and
//! covers the knee on a many-core runner.
//!
//! With `--json`, output is JSON Lines: one flat object per cell
//! (`probe: "knee_cell"`), then one `probe: "knee_sweep"` summary line
//! recording the knee — the largest worker count that still improved
//! the default-partition stealing column by ≥10% — ready for upload as
//! a CI artifact. Without `--json`, a human-readable table.
//!
//! The knee is only meaningful when `host_cpus > 1`; single-CPU hosts
//! still produce the artifact (the knee degenerates to 1 worker), which
//! is why the CI upload is gated on the runner's CPU count instead of
//! this binary refusing to run.

use std::time::Instant;

use peerback_bench::{json, Cli, HarnessArgs};
use peerback_core::BackupWorld;
use peerback_sim::Engine;

/// One measured grid cell.
struct Cell {
    shards: usize,
    shard_slots: usize,
    steal: bool,
    elapsed: f64,
}

/// The grid owns `--shards`, `--shard-slots` and `--no-steal` (it
/// sweeps them), and its JSON Lines carry timings by design, so there
/// is no `--stable-json`.
const CLI: Cli = Cli {
    binary: "knee_sweep",
    synopsis: "[options]",
    groups: &["scale", "json", "world"],
};

fn main() {
    let args = HarnessArgs::parse(&CLI);
    let host_cpus = HarnessArgs::host_cpus() as usize;

    let mut shard_axis = vec![1usize];
    while let Some(&last) = shard_axis.last() {
        let next = last * 2;
        if next > (2 * host_cpus).min(32) {
            break;
        }
        shard_axis.push(next);
    }
    let slots_axis = [32usize, 64, 128];

    let mut cells = Vec::new();
    for &shard_slots in &slots_axis {
        for &shards in &shard_axis {
            for steal in [true, false] {
                let cfg = args
                    .base_config()
                    .with_shards(shards)
                    .with_shard_slots(shard_slots)
                    .with_work_stealing(steal);
                let seed = cfg.seed;
                let rounds = cfg.rounds;
                let mut world = BackupWorld::new(cfg);
                let mut engine = Engine::new(seed);
                let start = Instant::now();
                engine.run(&mut world, rounds);
                let elapsed = start.elapsed().as_secs_f64();
                if !args.json {
                    println!(
                        "shards={shards:<3} slots={shard_slots:<4} steal={} {elapsed:>8.3}s \
                         ({:>10.0} peer-rounds/s)",
                        if steal { "on " } else { "off" },
                        args.peers as f64 * args.rounds as f64 / elapsed,
                    );
                }
                cells.push(Cell {
                    shards,
                    shard_slots,
                    steal,
                    elapsed,
                });
            }
        }
    }

    // The knee: walk the default-partition stealing column in worker
    // order; the knee is the last worker count that still bought a
    // ≥10% improvement over the previous one.
    let mut column: Vec<&Cell> = cells
        .iter()
        .filter(|c| c.shard_slots == 64 && c.steal)
        .collect();
    column.sort_by_key(|c| c.shards);
    let mut knee = column.first().map_or(1, |c| c.shards);
    let mut best = column.first().map_or(f64::INFINITY, |c| c.elapsed);
    for c in column.iter().skip(1) {
        if c.elapsed < best * 0.9 {
            knee = c.shards;
            best = c.elapsed;
        } else {
            break;
        }
    }

    if args.json {
        for c in &cells {
            let line = json::Object::new()
                .str("probe", "knee_cell")
                .num("peers", args.peers as u64)
                .num("rounds", args.rounds)
                .num("seed", args.seed)
                .num("shards", c.shards as u64)
                .num("shard_slots", c.shard_slots as u64)
                .num("work_stealing", u64::from(c.steal))
                .num("host_cpus", host_cpus as u64)
                .float("elapsed_secs", c.elapsed)
                .float(
                    "peer_rounds_per_sec",
                    args.peers as f64 * args.rounds as f64 / c.elapsed,
                );
            println!("{}", line.render());
        }
        let summary = json::Object::new()
            .str("probe", "knee_sweep")
            .num("peers", args.peers as u64)
            .num("rounds", args.rounds)
            .num("seed", args.seed)
            .num("host_cpus", host_cpus as u64)
            .num("cells", cells.len() as u64)
            .num("knee_shards", knee as u64)
            .float("knee_elapsed_secs", best);
        println!("{}", summary.render());
    } else {
        println!(
            "knee: {knee} worker(s) on a {host_cpus}-CPU host ({best:.3}s at shard_slots 64, \
             stealing on){}",
            if host_cpus == 1 {
                " — single-CPU host, the knee is degenerate; rerun on a multi-core machine"
            } else {
                ""
            }
        );
    }
}
