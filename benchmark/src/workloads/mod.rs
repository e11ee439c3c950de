//! The five workloads. Each runs one **repeat**: set up from the seed,
//! run a fixed measured window, check the outputs.

pub mod byte_plane;
pub mod combined;
pub mod sim;

use std::time::Instant;

use peerback_sim::{Engine, World};

use crate::host::cpu_seconds;
use crate::span::{Spanned, Tracer};
use crate::stats::{percentile, top_percentile};

/// Bytes in a MiB.
pub const MIB: f64 = 1024.0 * 1024.0;

/// SplitMix64: the input generator (the program under test never sees
/// the seed, only the bytes).
pub struct SplitMix(pub u64);

impl SplitMix {
    /// Next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// `len` random bytes.
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&self.next().to_le_bytes());
        }
        out.truncate(len);
        out
    }

    /// A seeded choice of `keep` distinct values out of `range`.
    pub fn choose(&mut self, range: std::ops::Range<usize>, keep: usize) -> Vec<usize> {
        let mut pool: Vec<usize> = range.collect();
        for i in 0..keep.min(pool.len()) {
            let j = i + (self.next() % (pool.len() - i) as u64) as usize;
            pool.swap(i, j);
        }
        pool.truncate(keep);
        pool.sort_unstable();
        pool
    }
}

/// A workload, by its normative name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A whole population joining at once.
    JoinWave,
    /// Long-run churn under the paper's age-based selection.
    SteadyChurn,
    /// Churn with the learned estimator and adaptive redundancy.
    LearnedAdaptive,
    /// The simulator bound to the byte-level fabric, every plane on.
    CombinedBytes,
    /// The data plane alone at the paper's RS(128,128) geometry.
    BytePlane,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 5] = [
        Workload::JoinWave,
        Workload::SteadyChurn,
        Workload::LearnedAdaptive,
        Workload::CombinedBytes,
        Workload::BytePlane,
    ];

    /// The normative name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::JoinWave => "join_wave",
            Workload::SteadyChurn => "steady_churn",
            Workload::LearnedAdaptive => "learned_adaptive",
            Workload::CombinedBytes => "combined_bytes",
            Workload::BytePlane => "byte_plane",
        }
    }

    /// Parses a [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (one line; also in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::JoinWave => {
                "A whole population joins at once: candidate-pool building, proposals and the \
                 two-phase commit do nearly all the work; wheel, estimator and fabric are idle."
            }
            Workload::SteadyChurn => {
                "Long-run churn after warm-up: wheel firing, session toggles, two-hop teardown and \
                 threshold repairs dominate; a join-path change must show nothing here."
            }
            Workload::LearnedAdaptive => {
                "steady_churn with the learned survival model ranking pools and adaptive \
                 redundancy scoring every 8th round: the paper's idea running closed-loop."
            }
            Workload::CombinedBytes => {
                "Simulator plus byte fabric with every plane on (RS on 2 KiB shards, scheduler, \
                 scrub, challenge, audit): lane replay is most of the wall time, the simulator little."
            }
            Workload::BytePlane => {
                "Single-thread backup, repair and restore of 8 MiB archives at RS(128,128) with \
                 64 KiB shards, where the gf256 kernels are compute-bound; no simulator."
            }
        }
    }

    /// Whether the workload honours the worker count (the byte plane is
    /// single-threaded by construction).
    pub fn threaded(self) -> bool {
        self != Workload::BytePlane
    }

    /// Runs one repeat. With a tracer, calls into the layers are
    /// recorded as spans and the per-layer values are filled in.
    pub fn repeat(self, seed: u64, workers: usize, tracer: Option<&mut Tracer>) -> Outcome {
        match self {
            Workload::JoinWave | Workload::SteadyChurn | Workload::LearnedAdaptive => {
                sim::repeat(self, seed, workers, tracer)
            }
            Workload::CombinedBytes => combined::repeat(seed, workers, tracer),
            Workload::BytePlane => byte_plane::repeat(seed, tracer),
        }
    }

    /// Checks made once per run rather than once per repeat: `(what,
    /// passed)` pairs.
    pub fn run_checks(self, seed: u64, workers: usize) -> Vec<(String, bool)> {
        match self {
            Workload::JoinWave | Workload::LearnedAdaptive => {
                vec![sim::worker_count_cross_check(self, seed)]
            }
            Workload::SteadyChurn => vec![
                sim::worker_count_cross_check(self, seed),
                sim::older_is_cheaper_check(seed, workers),
            ],
            Workload::CombinedBytes | Workload::BytePlane => Vec::new(),
        }
    }

    /// One sample of set-up alone, where set-up is so short (a
    /// millisecond or less) that a run needs many samples taken under
    /// like conditions for a steady median; `None` where set-up takes
    /// long enough for the repeats' own samples to serve.
    pub fn setup_only(self, seed: u64, workers: usize) -> Option<f64> {
        match self {
            Workload::JoinWave => Some(sim::setup_only(self, seed, workers)),
            Workload::CombinedBytes => Some(combined::setup_only(seed, workers)),
            _ => None,
        }
    }

    /// Wall time of one measured window on the reference container
    /// (2-CPU Xeon 2.1 GHz). It only decides how many repeats
    /// `--seconds` buys, so that the repeat count — and with it the
    /// work done — is the same on every commit and every host.
    pub fn nominal_window_s(self) -> f64 {
        match self {
            Workload::JoinWave => 0.75,
            Workload::SteadyChurn => 3.4,
            Workload::LearnedAdaptive => 3.4,
            Workload::CombinedBytes => 4.9,
            Workload::BytePlane => 2.1,
        }
    }
}

/// Wall and CPU seconds of one timed stretch.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Timing {
    /// Wall time.
    pub wall: f64,
    /// Process CPU time (user + system, all threads).
    pub cpu: f64,
}

/// Output checks made and failed. A failure is printed where it is
/// found; the counts travel up to the run's result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Checks failed.
    pub failed: u64,
}

impl Checks {
    /// Records one check.
    pub fn add(&mut self, passed: bool, what: &str) {
        self.add_many(1, u64::from(!passed), what);
    }

    /// Records `attempted` checks of one kind, `failed` of them failed.
    pub fn add_many(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            println!("CHECK FAILED: {what}");
        }
    }

    /// Adds another tally to this one.
    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// What one repeat produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Set-up time: everything between the generated inputs and the
    /// start of the measured window.
    pub setup_s: f64,
    /// The measured window.
    pub window: Timing,
    /// Units of the workload's primary work done in the window (joins,
    /// peer-rounds, MiB shipped, MiB of archive payload): `work_per_s`
    /// reads `work / run_s`.
    pub work: f64,
    /// Work done in the window, by named throughput metric: the metric
    /// reads `work / run_s`.
    pub rates: Vec<(&'static str, f64)>,
    /// The workload's other end-to-end metrics, by name: exact values
    /// and rates over a sub-window of their own.
    pub values: Vec<(&'static str, f64)>,
    /// Digest of every checked output (compared between repeats).
    pub digest: u64,
    /// Digest of the simulator's `Metrics` alone (compared between a
    /// traced and an untraced repeat, and across worker counts); 0 for
    /// the byte plane.
    pub sim_digest: u64,
    /// Output checks made and failed.
    pub checks: Checks,
    /// Per-layer values (traced repeats only).
    pub layers: Vec<(&'static str, f64)>,
    /// Worker-pool wake-ups during the window (traced repeats only).
    pub dispatches: u64,
}

/// Wall and CPU time of `f`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Timing) {
    let cpu = cpu_seconds();
    let wall = Instant::now();
    let out = f();
    let timing = Timing {
        wall: wall.elapsed().as_secs_f64(),
        cpu: cpu_seconds() - cpu,
    };
    (out, timing)
}

/// Times `f` as a span when tracing, plainly otherwise.
pub fn maybe_span<T>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(t) => t.span(name, None, f),
        None => f(),
    }
}

/// Advances `world` by `rounds`. Untraced, this is `Engine::run` on the
/// bare world; traced, every round is one `round` span over
/// `Engine::step` on the [`Spanned`] wrapper.
pub fn advance<W: World>(
    engine: &mut Engine,
    world: &mut W,
    rounds: u64,
    tracer: &mut Option<&mut Tracer>,
    (start_name, end_name): (&'static str, &'static str),
) {
    match tracer {
        None => {
            engine.run(world, rounds);
        }
        Some(tracer) => {
            let mut spanned = Spanned::new(world, tracer, start_name, end_name);
            for _ in 0..rounds {
                let round = engine.current_round().index();
                spanned.tracer.enter("round", Some(round));
                engine.step(&mut spanned);
                spanned.tracer.exit();
            }
        }
    }
}

/// Nearest-rank p99 of `ms`, with a printed caution when the sample is
/// too small for it: a percentile with fewer than ten samples beyond
/// it is a statement about a handful of rounds.
pub fn p99_with_caution(name: &str, ms: &[f64]) -> f64 {
    let supported = top_percentile(ms.len());
    if supported.is_none_or(|p| p < 99.0) {
        println!(
            "# {name}: {} samples {}; read the p99 with care",
            ms.len(),
            supported.map_or("are too few for any percentile".to_string(), |p| format!(
                "support p{p} at most"
            )),
        );
    }
    percentile(ms, 99.0)
}

/// The two per-round span names of a bare simulated world.
pub const WORLD_SPANS: (&str, &str) = ("core.world.round_start", "core.world.round_end");

/// Per-round durations (seconds) of the spans called `name` whose
/// round lies in `rounds`.
pub fn round_secs(tracer: &Tracer, name: &str, rounds: std::ops::Range<u64>) -> Vec<(u64, f64)> {
    tracer
        .named(name)
        .filter_map(|s| Some((s.round?, s.secs())))
        .filter(|(r, _)| rounds.contains(r))
        .collect()
}
