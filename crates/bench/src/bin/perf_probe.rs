//! Internal throughput probe: how fast does one simulation run?
//!
//! Not a paper artefact — used to pick harness scale defaults and to
//! catch performance regressions by hand:
//!
//! ```text
//! cargo run --release -p peerback-bench --bin perf_probe -- --smoke
//! ```
//!
//! With `--json` the probe emits one machine-readable object on stdout
//! (timing, throughput, headline counters) for `perf_gate`, which
//! gates only exact counts and ratios between samples from one host —
//! speed across commits is the `benchmark/` package's job, not this
//! probe's; `--stable-json` drops the timing fields so
//! two same-seed runs (e.g. `--shards 1` vs `--shards 8`) must diff
//! byte-for-byte — the CI determinism gate.
//!
//! ## Steady-state overhead counters
//!
//! The probe drives the engine in two halves and reports, for the
//! **second** half only (after the join wave and other ramp effects):
//!
//! * `stage_dispatches_per_round` — worker-pool wake-ups per round
//!   (single-worker inline stages cost no wake-up and are excluded);
//! * `allocs_per_round` — heap allocations per round, present only
//!   when the binary was built with `--features count-allocs` (the
//!   counting global allocator; see `peerback_bench::alloc_probe`).
//!
//! Both are execution telemetry — they vary with `--shards` and the
//! host — so they are omitted from `--stable-json` output, as is
//! `peak_rss_bytes`, the process's resident-set high-water mark
//! (`VmHWM`; 0 where `/proc` is unavailable). Against `bytes_per_peer`
//! it shows the join wave's transient: `perf_gate mem
//! --rss-fail-above` gates it per peer. The telemetry block also
//! carries exact, seed-determined figures that are kept out of the
//! stable form only because they describe the execution rather than
//! the simulated network:
//!
//! * `bytes_per_peer`, the per-slot heap footprint
//!   ([`BackupWorld::memory_breakdown`]) with its per-component
//!   layout. Every component is a fixed-size column or slab, so the
//!   figure does not depend on the allocator; it feeds the perf gate's
//!   **hard** memory budget (`perf_gate mem --fail-above 3330`).
//! * `redundancy_passes` / `redundancy_host_evals` /
//!   `redundancy_pairs_gathered`, the whole-run work counters of the
//!   adaptive-redundancy scoring stage
//!   ([`BackupWorld::redundancy_work`]; all zero without
//!   `--adaptive-n`).
//! * `placement_*`, the whole-run work counters of the placement
//!   pipeline ([`BackupWorld::placement_work`]: pools built, candidates
//!   sampled and accepted, ranks claimed and granted, messages routed),
//!   `candidates_sampled_per_grant`, the measured number of
//!   candidates scanned per granted partner, and `ns_per_candidate`,
//!   the `proposals` stage's busy time (summed over workers) per
//!   candidate sampled.
//! * `wheel_scheduled` / `wheel_fired` / `wheel_stale`, the whole-run
//!   counters of the shards' timing wheels ([`BackupWorld::wheel_work`]:
//!   events armed, events fired, and fired events dropped as stale).
//!
//! Last in the telemetry block, `stages` is the round profile
//! ([`BackupWorld::round_profile`]): seconds of wall time per stage of
//! the staged round over the whole run, in pipeline order, with the
//! `commit.*` rows breaking down `commit`. After it, `stage_work` has
//! one object per dispatched stage, named after the `stages` row it
//! runs in ([`RoundProfile::work_rows`](peerback_core::RoundProfile::work_rows)):
//!
//! * `items` — what the stage's width rule was given: peers
//!   initialised (`ramp`), messages applied (`deliver`,
//!   `commit.apply`), slots scanned (`redundancy`, two stages a pass),
//!   actors (`proposals`), claims (`commit.grant`, and `commit.wave_b`
//!   with its staging counted by wave-A denials) and proposals
//!   (`commit.owner`); `local_events` is always wide and counts none;
//! * `busy_s` — seconds its workers spent inside it, summed over
//!   workers, so `busy_s / items` is the measured cost per item and
//!   `busy_s` over the row's wall time is how many workers were busy;
//! * `inline` / `wide` — dispatches that ran on the calling thread
//!   alone or woke the worker pool.
//!
//! Wide dispatches summed over the whole run differ from
//! `stage_dispatches_per_round`, which covers the second half only.

use std::time::Instant;

use peerback_bench::{alloc_probe, json, Cli, HarnessArgs};
use peerback_core::BackupWorld;
use peerback_sim::Engine;

/// One run, no sweep, no files, no fabric.
const CLI: Cli = Cli {
    binary: "perf_probe",
    synopsis: "[options]",
    groups: &["scale", "execution", "json", "stable-json", "world"],
};

fn main() {
    let args = HarnessArgs::parse(&CLI);
    let cfg = args.sim.clone().with_paper_observers();
    let (peers, rounds, seed) = (cfg.n_peers, cfg.rounds, cfg.seed);
    if !args.json {
        println!(
            "running {peers} peers x {rounds} rounds (seed {seed}, {} shard workers) ...",
            cfg.shards,
        );
    }
    let mut world = BackupWorld::new(cfg);
    let mut engine = Engine::new(seed);
    let start = Instant::now();
    // Two halves: the second is the steady-state window the overhead
    // counters cover (ramp effects — the join wave, first-touch buffer
    // growth — land in the first half). The split changes nothing about
    // the results: the engine's round counter carries across.
    let ramp_rounds = rounds / 2;
    engine.run(&mut world, ramp_rounds);
    let allocs_before = alloc_probe::allocations();
    let dispatches_before = world.stage_dispatches();
    engine.run(&mut world, rounds - ramp_rounds);
    let steady_rounds = (rounds - ramp_rounds).max(1);
    let allocs_per_round =
        (alloc_probe::allocations() - allocs_before) as f64 / steady_rounds as f64;
    let dispatches_per_round =
        (world.stage_dispatches() - dispatches_before) as f64 / steady_rounds as f64;
    let mem = world.memory_breakdown();
    let bytes_per_peer = mem.total();
    let redundancy = world.redundancy_work();
    let placement = world.placement_work();
    let wheel = world.wheel_work();
    let profile = world.round_profile();
    let metrics = world.into_metrics();
    let elapsed = start.elapsed();
    if args.json {
        // Worker knobs, throughput and the exact work counters describe
        // the execution, not the simulated network, so they ride in the
        // telemetry block and shard counts diff byte-for-byte without it.
        let report = args
            .report_head("probe", "perf_probe", elapsed, |telemetry| {
                let telemetry = telemetry
                    .str("gf256_backend", peerback_gf256::active_backend().name())
                    .float(
                        "peer_rounds_per_sec",
                        (peers as f64 * rounds as f64) / elapsed.as_secs_f64(),
                    )
                    .float("stage_dispatches_per_round", dispatches_per_round)
                    .float("bytes_per_peer", bytes_per_peer)
                    // The layout behind the total, so the perf gate's
                    // memory budget can name the collection that grew.
                    .float("bytes_peer_table", mem.peer_table)
                    .float("bytes_online_index", mem.online_index)
                    .float("bytes_hosted_ledgers", mem.hosted_ledgers)
                    .float("bytes_archive_states", mem.archive_states)
                    .float("bytes_partner_lists", mem.partner_lists)
                    .num("redundancy_passes", redundancy.passes)
                    .num("redundancy_host_evals", redundancy.host_evals)
                    .num("redundancy_pairs_gathered", redundancy.pairs_gathered)
                    .num("placement_pool_builds", placement.pool_builds)
                    .num("placement_candidates_sampled", placement.candidates_sampled)
                    .num(
                        "placement_candidates_accepted",
                        placement.candidates_accepted,
                    )
                    .num("placement_claims", placement.claims)
                    .num("placement_grants", placement.grants)
                    .num("placement_msgs_routed", placement.msgs_routed)
                    .float(
                        "candidates_sampled_per_grant",
                        placement.candidates_sampled as f64 / placement.grants.max(1) as f64,
                    )
                    .float(
                        "ns_per_candidate",
                        profile.proposals_work.busy.as_secs_f64() * 1e9
                            / placement.candidates_sampled.max(1) as f64,
                    )
                    .num("wheel_scheduled", wheel.scheduled)
                    .num("wheel_fired", wheel.fired)
                    .num("wheel_stale", wheel.stale)
                    .num("peak_rss_bytes", peerback_bench::peak_rss_bytes());
                let telemetry = if alloc_probe::ENABLED {
                    telemetry.float("allocs_per_round", allocs_per_round)
                } else {
                    telemetry
                };
                let stages = profile
                    .rows()
                    .into_iter()
                    .fold(json::Object::new(), |obj, (name, secs)| {
                        obj.float(name, secs)
                    });
                let stage_work = json::Object::new().stage_work(profile.work_rows());
                telemetry
                    .raw("stages", stages.render())
                    .raw("stage_work", stage_work.render())
            })
            .nums("repairs", metrics.repairs)
            .nums("losses", metrics.losses)
            .nums("peer_rounds", metrics.peer_rounds)
            .num("departures", metrics.diag.departures)
            .num("session_toggles", metrics.diag.session_toggles)
            .num("joins_completed", metrics.diag.joins_completed)
            .num("partner_timeouts", metrics.diag.partner_timeouts)
            .num("pool_shortfalls", metrics.diag.pool_shortfalls)
            .num("blocks_uploaded", metrics.diag.blocks_uploaded)
            .num("blocks_downloaded", metrics.diag.blocks_downloaded)
            .float(
                "mean_restorability",
                metrics.mean_restorability().unwrap_or(f64::NAN),
            );
        println!("{}", report.render());
        return;
    }
    println!(
        "done in {:.2}s  ({:.0} peer-rounds/s)",
        elapsed.as_secs_f64(),
        (peers as f64 * rounds as f64) / elapsed.as_secs_f64()
    );
    println!(
        "steady state: {dispatches_per_round:.2} pool dispatches/round{}, \
         {bytes_per_peer:.0} bytes/peer",
        if alloc_probe::ENABLED {
            format!(", {allocs_per_round:.1} allocs/round")
        } else {
            String::new()
        }
    );
    println!(
        "repairs={:?} losses={:?} departures={} toggles={} joins={} timeouts={} shortfalls={}",
        metrics.repairs,
        metrics.losses,
        metrics.diag.departures,
        metrics.diag.session_toggles,
        metrics.diag.joins_completed,
        metrics.diag.partner_timeouts,
        metrics.diag.pool_shortfalls,
    );
    println!("peer_rounds={:?}", metrics.peer_rounds);
    for cat in peerback_core::AgeCategory::ALL {
        println!(
            "  {:<12} repair_rate/1000 = {:>10}   loss_rate/1000 = {:>10}",
            cat.name(),
            peerback_bench::fmt_rate(metrics.repair_rate_per_1000(cat)),
            peerback_bench::fmt_rate(metrics.loss_rate_per_1000(cat)),
        );
    }
    for obs in &metrics.observers {
        println!(
            "  observer {:<9} (age {:>5}h): {} repairs, {} losses",
            obs.name, obs.frozen_age, obs.total_repairs, obs.losses
        );
    }
}
