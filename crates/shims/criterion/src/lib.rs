//! Offline stand-in for the `criterion` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors the subset of criterion's API that the `benches/` targets
//! use: [`Criterion`], [`BenchmarkGroup`], [`Bencher::iter`] /
//! [`Bencher::iter_batched`], [`Throughput`], [`black_box`], and the
//! [`criterion_group!`] / [`criterion_main!`] macros.
//!
//! Measurement is deliberately simple — min/median/max over several
//! timed batches after a short warm-up, printed as `ns/iter` with the
//! observed range, its half-width as a share of the median, and derived
//! throughput. The shim only reports: there is no statistical
//! regression analysis, no saved baseline and no HTML report.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// How many measured batches contribute to the reported median.
const BATCHES: usize = 7;

/// Target wall-clock time for one measured batch.
const BATCH_TARGET: Duration = Duration::from_millis(20);

/// Units-per-iteration annotation for derived throughput lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Abstract elements processed per iteration.
    Elements(u64),
}

/// How `iter_batched` amortises setup cost. The shim always re-runs the
/// setup per iteration, so the variants only document intent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small inputs: setup per batch in real criterion.
    SmallInput,
    /// Large inputs: fewer iterations per batch.
    LargeInput,
    /// Setup re-runs before every single iteration.
    PerIteration,
}

/// Per-iteration timing summary over the measured batches: the minimal
/// noise model the shim keeps instead of criterion's full distribution.
#[derive(Debug, Clone, Copy, Default)]
struct Stats {
    /// Fastest batch, ns/iter.
    min: f64,
    /// Median batch, ns/iter — the headline number.
    median: f64,
    /// Slowest batch, ns/iter.
    max: f64,
}

impl Stats {
    fn from_sorted(samples: &[f64; BATCHES]) -> Stats {
        Stats {
            min: samples[0],
            median: samples[BATCHES / 2],
            max: samples[BATCHES - 1],
        }
    }

    /// Observed run-to-run spread as a percentage of the median — the
    /// half-width of the min..max range.
    fn spread_percent(&self) -> f64 {
        if self.median > 0.0 {
            (self.max - self.min) / (2.0 * self.median) * 100.0
        } else {
            0.0
        }
    }
}

/// The timing context handed to benchmark closures.
pub struct Bencher {
    /// Timing summary measured for the current benchmark.
    stats: Stats,
}

impl Bencher {
    /// Times repeated calls of `routine`.
    pub fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
        // Warm up and estimate a batch size that lasts ~BATCH_TARGET.
        let mut n: u64 = 1;
        loop {
            let start = Instant::now();
            for _ in 0..n {
                black_box(routine());
            }
            let elapsed = start.elapsed();
            if elapsed >= Duration::from_millis(2) || n >= 1 << 30 {
                let per_iter = elapsed.as_nanos().max(1) as f64 / n as f64;
                n = ((BATCH_TARGET.as_nanos() as f64 / per_iter).ceil() as u64).max(1);
                break;
            }
            n *= 4;
        }

        let mut samples = [0.0f64; BATCHES];
        for sample in &mut samples {
            let start = Instant::now();
            for _ in 0..n {
                black_box(routine());
            }
            *sample = start.elapsed().as_nanos() as f64 / n as f64;
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
        self.stats = Stats::from_sorted(&samples);
    }

    /// Times `routine` over fresh `setup` outputs; setup time is
    /// excluded from the measurement.
    pub fn iter_batched<I, O>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> O,
        _size: BatchSize,
    ) {
        // One input is built right before its timed call, so at most a
        // single setup output is live at a time (real criterion's
        // BatchSize exists to bound exactly this; the per-call timing
        // adds ~20 ns of Instant overhead per iteration, acceptable for
        // the setup-dominated routines iter_batched is meant for).
        let mut timed_batch = |n: u64| -> Duration {
            let mut total = Duration::ZERO;
            for _ in 0..n {
                let input = setup();
                let start = Instant::now();
                black_box(routine(input));
                total += start.elapsed();
            }
            total
        };

        let mut n: u64 = 1;
        loop {
            let elapsed = timed_batch(n);
            if elapsed >= Duration::from_millis(2) || n >= 1 << 20 {
                let per_iter = elapsed.as_nanos().max(1) as f64 / n as f64;
                n = ((BATCH_TARGET.as_nanos() as f64 / per_iter).ceil() as u64).clamp(1, 1 << 20);
                break;
            }
            n *= 4;
        }

        let mut samples = [0.0f64; BATCHES];
        for sample in &mut samples {
            *sample = timed_batch(n).as_nanos() as f64 / n as f64;
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
        self.stats = Stats::from_sorted(&samples);
    }
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

fn report(name: &str, stats: Stats, throughput: Option<Throughput>) {
    let ns_per_iter = stats.median;
    let time = format_ns(ns_per_iter);
    let range = format!("[{} .. {}]", format_ns(stats.min), format_ns(stats.max));
    let extra = match throughput {
        Some(Throughput::Bytes(bytes)) => {
            let gib = bytes as f64 / ns_per_iter; // bytes/ns == GB/s
            format!("  ({gib:.3} GB/s)")
        }
        Some(Throughput::Elements(elems)) => {
            let meps = elems as f64 / ns_per_iter * 1e3;
            format!("  ({meps:.3} Melem/s)")
        }
        None => String::new(),
    };
    let spread = stats.spread_percent();
    println!("bench: {name:<52} {time:>12}/iter {range:<28} ±{spread:.1}%{extra}");
}

/// The benchmark harness entry point.
#[derive(Debug, Default)]
pub struct Criterion {}

impl Criterion {
    /// Runs one stand-alone benchmark.
    pub fn bench_function(&mut self, name: &str, mut f: impl FnMut(&mut Bencher)) -> &mut Self {
        let mut bencher = Bencher {
            stats: Stats::default(),
        };
        f(&mut bencher);
        report(name, bencher.stats, None);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _criterion: self,
            name: name.into(),
            throughput: None,
        }
    }
}

/// A group of related benchmarks sharing a name prefix and throughput
/// annotation.
pub struct BenchmarkGroup<'c> {
    _criterion: &'c mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Sets the throughput annotation for subsequent benchmarks.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Accepted for API compatibility; the shim's batch count is fixed.
    pub fn sample_size(&mut self, _samples: usize) -> &mut Self {
        self
    }

    /// Runs one benchmark within the group.
    pub fn bench_function(
        &mut self,
        id: impl std::fmt::Display,
        mut f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let mut bencher = Bencher {
            stats: Stats::default(),
        };
        f(&mut bencher);
        report(
            &format!("{}/{id}", self.name),
            bencher.stats,
            self.throughput,
        );
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// Bundles benchmark functions into one group runner.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        #[doc = "Runs this group's benchmark functions."]
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Emits `main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_is_the_half_range_over_the_median() {
        let stats = Stats {
            min: 90.0,
            median: 100.0,
            max: 130.0,
        };
        // (130 - 90) / (2 * 100) = 20%.
        assert!((stats.spread_percent() - 20.0).abs() < 1e-9);
        assert_eq!(Stats::default().spread_percent(), 0.0);
    }

    #[test]
    fn bench_function_measures_something() {
        let mut c = Criterion::default();
        c.bench_function("noop", |b| b.iter(|| black_box(1 + 1)));
    }

    #[test]
    fn groups_run_and_finish() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("g");
        group.throughput(Throughput::Bytes(8));
        group.sample_size(10);
        group.bench_function("sum", |b| {
            b.iter(|| (0..64u64).sum::<u64>());
        });
        group.bench_function("batched", |b| {
            b.iter_batched(|| vec![1u8; 64], |v| v.len(), BatchSize::PerIteration);
        });
        group.finish();
    }
}
