//! The metric tables: every name the benchmark reports, with its unit,
//! which direction is better and — for end-to-end metrics — the bound
//! by which its median may worsen before that counts as a regression.
//! `BENCHMARK.json` repeats the driver-facing part of these tables; a
//! unit test keeps the two in step.

/// Seconds of measured window one run is sized for (`BENCHMARK.json`'s
/// `run_seconds`, and what `run` passes to its children).
pub const RUN_SECONDS: u64 = 10;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (0 = any worsening counts).
    pub bound: f64,
    /// Whether every workload reports it — the set the outside driver
    /// reads (`BENCHMARK.json`'s `end_to_end`). The rest apply to some
    /// workloads only and are reported by `run` and judged by
    /// `compare`.
    pub every_workload: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    every_workload: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        every_workload,
    }
}

use Better::{Higher, Lower};

/// Every end-to-end metric, in reporting order.
pub const END_TO_END: [EndToEnd; 15] = [
    // Timing bounds are three times the run-to-run spread measured on
    // the reference container (a shared 2-CPU VM whose speed wanders by
    // a sixth for minutes at a time), capped at the contract's 0.25 —
    // not the size of change one would like to see. See README.md.
    e2e("setup_s", "s", Lower, 0.25, true),
    e2e("run_s", "s", Lower, 0.25, true),
    e2e("cpu_s", "s", Lower, 0.25, true),
    // The workload's primary throughput in its own unit of work:
    // joins (join_wave), peer-rounds (steady_churn, learned_adaptive),
    // MiB shipped (combined_bytes), MiB of archive payload through
    // backup + repair + restore (byte_plane).
    e2e("work_per_s", "work/s", Higher, 0.25, true),
    e2e("peak_rss_mib", "MiB", Lower, 0.20, true),
    e2e("peer_rounds_per_s", "1/s", Higher, 0.25, false),
    e2e("joins_per_s", "1/s", Higher, 0.25, false),
    e2e("shipped_mib_per_s", "MiB/s", Higher, 0.25, false),
    e2e("backup_mib_per_s", "MiB/s", Higher, 0.25, false),
    e2e("repair_mib_per_s", "MiB/s", Higher, 0.25, false),
    e2e("restore_mib_per_s", "MiB/s", Higher, 0.25, false),
    e2e("bytes_per_peer", "B", Lower, 0.01, false),
    e2e("sim_repairs_per_kpr", "1/kpr", Lower, 0.10, false),
    e2e("sim_blocks_uploaded_per_kpr", "1/kpr", Lower, 0.10, false),
    e2e("ops_failed_share", "share", Lower, 0.0, false),
];

impl EndToEnd {
    /// The least change, in the metric's own unit, that `compare`
    /// takes notice of: 0.05 s for timings, so that a set-up of a
    /// fifth of a millisecond cannot flap while half a second of work
    /// moved into set-up still shows.
    pub fn floor(&self) -> f64 {
        if self.unit == "s" {
            0.05
        } else {
            0.0
        }
    }
}

/// Looks an end-to-end metric up by name.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// One per-layer metric (no bound: layers explain, they do not gate).
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    /// Metric name; the prefix up to the last-but-one dot is the layer.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer { name, unit, better }
}

/// Every per-layer metric, grouped by layer. A workload that does not
/// exercise a layer reports 0 for that layer's span and counter
/// metrics; the isolated-driver metrics read the same on every
/// workload.
pub const LAYERS: [Layer; 104] = [
    // core.world — spans around BackupWorld::new / round_start /
    // round_end / into_metrics, and the world's public counters.
    layer("core.world.new.s", "s", Lower),
    layer("core.world.round_start.total_s", "s", Lower),
    layer("core.world.round_start.ms_p50", "ms", Lower),
    layer("core.world.round_start.ms_p99", "ms", Lower),
    layer("core.world.round_start.ms_max", "ms", Lower),
    layer("core.world.round_end.total_s", "s", Lower),
    layer("core.world.round0.s", "s", Lower),
    layer("core.world.into_metrics.s", "s", Lower),
    layer("core.world.stage_dispatches_per_round", "count", Lower),
    layer("core.world.events_per_round", "count", Higher),
    layer("core.world.joins", "count", Higher),
    layer("core.world.departures", "count", Higher),
    layer("core.world.session_toggles", "count", Higher),
    layer("core.world.partner_timeouts", "count", Higher),
    layer("core.world.repairs", "count", Lower),
    layer("core.world.blocks_uploaded", "count", Lower),
    layer("core.world.pool_shortfalls", "count", Lower),
    layer("core.world.pool_shortfall_ratio", "share", Lower),
    layer("core.world.ns_per_placement", "ns", Lower),
    layer("core.world.mem.peer_table_b", "B", Lower),
    layer("core.world.mem.online_index_b", "B", Lower),
    layer("core.world.mem.hosted_ledgers_b", "B", Lower),
    layer("core.world.mem.archive_states_b", "B", Lower),
    layer("core.world.mem.partner_lists_b", "B", Lower),
    layer("core.world.peak_rss_per_peer_b", "B", Lower),
    // core.redundancy — rounds classed from outside by check_interval.
    layer("core.redundancy.check_round.ms_p50", "ms", Lower),
    layer("core.redundancy.plain_round.ms_p50", "ms", Lower),
    layer("core.redundancy.extra_total_s", "s", Lower),
    layer("core.redundancy.widened", "count", Lower),
    layer("core.redundancy.narrowed", "count", Higher),
    layer("core.redundancy.preemptive_repairs", "count", Lower),
    // core.select — isolated, pool 512 → d 256.
    layer("core.select.choose_age.ns_per_candidate", "ns", Lower),
    layer("core.select.age_index.ns_per_insert", "ns", Lower),
    // estimate — isolated model, plus the run's EstimatorReport.
    layer("estimate.estimate.ns", "ns", Lower),
    layer("estimate.refresh_classed.us", "us", Lower),
    layer("estimate.observe_death.ns", "ns", Lower),
    layer("estimate.deaths_observed", "count", Higher),
    layer("estimate.calibration_mae", "rounds", Lower),
    // sim — isolated wheel, worker pool, arena, engine.
    layer("sim.wheel.ns_per_entry", "ns", Lower),
    layer("sim.wheel.touches_per_entry", "count", Lower),
    layer("sim.exec.dispatch.us", "us", Lower),
    layer("sim.exec.dispatch_total_s", "s", Lower),
    layer("sim.exec.speedup_2w", "x", Higher),
    layer("sim.arena.take_put.ns", "ns", Lower),
    layer("sim.engine.step_overhead.ns", "ns", Lower),
    // churn — isolated samplers.
    layer("churn.lifetime_sample.ns", "ns", Lower),
    layer("churn.session_sample.ns", "ns", Lower),
    // fabric — spans around Fabric::new and every round_end (rounds
    // classed from outside), FabricStats / AuditReport counters, and
    // isolated frame / store / fault-plane drivers.
    layer("fabric.new.s", "s", Lower),
    layer("fabric.replay.total_s", "s", Lower),
    layer("fabric.replay.ms_p50", "ms", Lower),
    layer("fabric.replay.ms_p99", "ms", Lower),
    layer("fabric.plain_round.ms_p50", "ms", Lower),
    layer("fabric.audit_round.ms_p50", "ms", Lower),
    layer("fabric.scrub_round.ms_p50", "ms", Lower),
    layer("fabric.challenge_round.ms_p50", "ms", Lower),
    layer("fabric.audit.extra_total_s", "s", Lower),
    layer("fabric.scrub.extra_total_s", "s", Lower),
    layer("fabric.challenge.extra_total_s", "s", Lower),
    layer("fabric.scrub.mib_s", "MiB/s", Higher),
    layer("fabric.audit.decodes_per_s", "1/s", Higher),
    layer("fabric.us_per_transfer", "us", Lower),
    layer("fabric.transfers_attempted", "count", Lower),
    layer("fabric.transfers_delivered", "count", Higher),
    layer("fabric.transfers_failed", "count", Lower),
    layer("fabric.transfers_retried", "count", Lower),
    layer("fabric.retries_abandoned", "count", Lower),
    layer("fabric.transfers_queued", "count", Lower),
    layer("fabric.transfers_carried", "count", Lower),
    layer("fabric.bytes_shipped", "B", Lower),
    layer("fabric.repair_decodes", "count", Lower),
    layer("fabric.audit_checks", "count", Higher),
    layer("fabric.audit_decode_attempts", "count", Higher),
    layer("fabric.scrub_checked", "count", Higher),
    layer("fabric.scrub_detected", "count", Higher),
    layer("fabric.scrub_unrepaired", "count", Lower),
    layer("fabric.challenges_issued", "count", Higher),
    layer("fabric.challenge_failures", "count", Higher),
    layer("fabric.quarantined", "count", Higher),
    layer("fabric.delivery_ratio", "share", Higher),
    layer("fabric.carry_ratio", "share", Lower),
    layer("fabric.frame.to_bytes.ns", "ns", Lower),
    layer("fabric.frame.from_bytes.ns", "ns", Lower),
    layer("fabric.frame.checksum.mib_s", "MiB/s", Higher),
    layer("fabric.store.ingest.ns", "ns", Lower),
    layer("fabric.faults.transit.ns", "ns", Lower),
    // core byte modules — spans in byte_plane, isolated archive/cipher.
    layer("core.backup.backup.total_s", "s", Lower),
    layer("core.backup.regenerate.total_s", "s", Lower),
    layer("core.restore.restore_with.total_s", "s", Lower),
    layer("core.archive.to_bytes.mib_s", "MiB/s", Higher),
    layer("core.archive.from_bytes.mib_s", "MiB/s", Higher),
    layer("core.archive.split_join.mib_s", "MiB/s", Higher),
    layer("core.crypt.xor.mib_s", "MiB/s", Higher),
    // erasure — isolated codec at both workload geometries.
    layer("erasure.encode_8x8_2k.mib_s", "MiB/s", Higher),
    layer("erasure.encode_128x128_64k.mib_s", "MiB/s", Higher),
    layer("erasure.reconstruct_8x8_2k.mib_s", "MiB/s", Higher),
    layer("erasure.reconstruct_128x128_64k.mib_s", "MiB/s", Higher),
    layer("erasure.decode_plan_8.us", "us", Lower),
    layer("erasure.decode_plan_128.us", "us", Lower),
    layer("erasure.shard_at_8x8_2k.us", "us", Lower),
    // gf256 — isolated kernels; computed_bytes is not measured but
    // computed from k · m · shard_len · code words encoded.
    layer("gf256.mul_add_2k.mib_s", "MiB/s", Higher),
    layer("gf256.mul_add_64k.mib_s", "MiB/s", Higher),
    layer("gf256.add_assign_64k.mib_s", "MiB/s", Higher),
    layer("gf256.mul_add.computed_bytes", "B", Lower),
    // The cost of looking: traced window vs the untraced one beside it.
    layer("trace_overhead_pct", "%", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;
    use crate::workloads::Workload;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_stay_inside_the_contract_charset() {
        assert!(valid_name("core.world.round0.s") && valid_name("a-b_c.9"));
        assert!(!valid_name(".hidden") && !valid_name("has space") && !valid_name(""));
        for w in Workload::ALL {
            assert!(valid_name(w.name()), "{}", w.name());
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
        }
        for m in &END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!((0.0..=0.25).contains(&m.bound), "{}", m.name);
        }
        for l in &LAYERS {
            assert!(valid_name(l.name) && valid_unit(l.unit), "{}", l.name);
        }
    }

    #[test]
    fn every_name_is_used_once_and_the_counts_fit_the_limits() {
        let mut names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(LAYERS.iter().map(|l| l.name));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!((2..=8).contains(&Workload::ALL.len()));
        let driver_facing = END_TO_END.iter().filter(|m| m.every_workload).count();
        assert!((1..=16).contains(&driver_facing));
        assert!((1..=128).contains(&LAYERS.len()));
    }

    /// `BENCHMARK.json` must say exactly what these tables say.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = crate::host::package_dir().join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let doc = Value::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let workloads = doc.list("workloads");
        assert_eq!(workloads.len(), Workload::ALL.len());
        for (entry, w) in workloads.iter().zip(Workload::ALL) {
            assert_eq!(entry.members().len(), 2);
            assert_eq!(entry.text("name"), w.name());
            assert_eq!(entry.text("why"), w.why());
        }

        let driver: Vec<&EndToEnd> = END_TO_END.iter().filter(|m| m.every_workload).collect();
        let listed = doc.list("end_to_end");
        assert_eq!(listed.len(), driver.len());
        for (entry, m) in listed.iter().zip(driver) {
            assert_eq!(entry.members().len(), 4);
            assert_eq!(entry.text("name"), m.name);
            assert_eq!(entry.text("unit"), m.unit);
            assert_eq!(entry.text("better"), m.better.name());
            assert_eq!(entry.get("bound").and_then(Value::num), Some(m.bound));
        }
        assert!(listed.iter().any(|e| e.text("name") == "setup_s"));

        let listed = doc.list("per_layer");
        assert_eq!(listed.len(), LAYERS.len());
        for (entry, l) in listed.iter().zip(&LAYERS) {
            assert_eq!(entry.members().len(), 3);
            assert_eq!(entry.text("name"), l.name);
            assert_eq!(entry.text("unit"), l.unit);
            assert_eq!(entry.text("better"), l.better.name());
        }

        let seconds = doc.get("run_seconds").and_then(Value::num).unwrap();
        assert!((1..=60).contains(&RUN_SECONDS) && seconds == RUN_SECONDS as f64);
        assert_eq!(doc.list("paths"), [Value::Str("benchmark".into())]);
    }
}
