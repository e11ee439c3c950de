//! Protocol hot-path kernels: the acceptance test and partner ranking,
//! which run hundreds of times per repair episode — and the stand-in
//! cipher's keystream pass, which every backup and restore crosses.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use peerback_core::select::{AgeOrderedIndex, KeyedSample};
use peerback_core::{
    acceptance_probability, accepts, Candidate, Cipher, SelectionStrategy, XorKeystream,
};
use peerback_sim::{sim_rng, HierarchicalWheel, Round, TimingWheel};
use rand::Rng;

fn acceptance(c: &mut Criterion) {
    let mut group = c.benchmark_group("acceptance");
    group.bench_function("probability_grid", |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for own in (0..2400u64).step_by(100) {
                for cand in (0..2400u64).step_by(100) {
                    acc += acceptance_probability(black_box(own), black_box(cand), 2160);
                }
            }
            acc
        })
    });
    group.bench_function("sampled_decisions_1k", |b| {
        let mut rng = sim_rng(7);
        b.iter(|| {
            let mut yes = 0u32;
            for _ in 0..1000 {
                let own = rng.gen_range(0..3000u64);
                let cand = rng.gen_range(0..3000u64);
                if accepts(&mut rng, own, cand, 2160) {
                    yes += 1;
                }
            }
            yes
        })
    });
    group.finish();
}

fn selection(c: &mut Criterion) {
    let mut group = c.benchmark_group("selection");
    let pool: Vec<Candidate> = (0..512u32)
        .map(|i| Candidate {
            id: i,
            age: (i as u64 * 37) % 5000,
            uptime: (i % 100) as f64 / 100.0,
            estimated_remaining: (i as u64 * 53) % 15_000,
            true_remaining: (i as u64 * 61) % 20_000,
        })
        .collect();
    for strategy in SelectionStrategy::ALL {
        group.bench_function(format!("{}_512_pick_256", strategy.name()), |b| {
            let mut rng = sim_rng(11);
            b.iter(|| {
                let mut p = pool.clone();
                strategy.choose(&mut rng, &mut p, 256);
                p.len()
            })
        });
    }
    group.finish();
}

/// The AgeBased pool-build kernel, three ways: candidates stream in
/// one at a time;
///
/// * `legacy_rank` collects full candidates until the pool is full and
///   shuffle-sorts at the end;
/// * `maintained_index` keeps a bounded ordered pool in an
///   [`AgeOrderedIndex`], pre-screens candidates that cannot improve it
///   — skipping the acceptance draws they would otherwise cost — and
///   stops after 32 consecutive screen misses. (A streaming design the
///   world no longer runs; the index is its ranking oracle now.)
/// * `keyed_sample` is what `world::partners::build_pool` does today:
///   stop at a full sample, push 16-byte `(key, tie, id)` entries into
///   a recycled [`KeyedSample`], sort once, keep the ids.
///
/// Two stream shapes: `converged` is the steady-state case (heavy-
/// tailed lifetimes: most online peers young, a small old tail — where
/// the screen pays); `scattered` is the adversarial uniform-age case
/// (maximum insertion churn, the index's worst case).
fn age_pool_build(c: &mut Criterion) {
    /// An age distribution shaping the candidate stream.
    type AgeShape = Box<dyn Fn(u32) -> u64>;
    let mut group = c.benchmark_group("age_pool_build");
    const CAP: usize = 256;
    let shapes: [(&str, AgeShape); 2] = [
        (
            "converged",
            Box::new(|i| {
                let h = (i as u64).wrapping_mul(2654435761) % 100;
                if h < 90 {
                    h
                } else {
                    100 + (i as u64).wrapping_mul(40503) % 4900
                }
            }),
        ),
        (
            "scattered",
            Box::new(|i| (i as u64).wrapping_mul(2654435761) % 5000),
        ),
    ];
    for (shape, age_of) in shapes {
        let stream: Vec<Candidate> = (0..1536u32)
            .map(|i| Candidate {
                id: i,
                age: age_of(i),
                uptime: (i % 100) as f64 / 100.0,
                estimated_remaining: 0,
                true_remaining: 0,
            })
            .collect();

        group.bench_function(format!("legacy_rank_{shape}_1536_to_256"), |b| {
            let mut rng = sim_rng(13);
            b.iter(|| {
                let mut pool = Vec::with_capacity(2 * CAP);
                for cand in &stream {
                    if pool.len() >= 2 * CAP {
                        break;
                    }
                    // Acceptance draws for every collected candidate.
                    if accepts(&mut rng, 2000, cand.age, 2160) {
                        pool.push(*cand);
                    }
                }
                SelectionStrategy::AgeBased.choose(&mut rng, &mut pool, CAP);
                black_box(pool.len())
            })
        });

        group.bench_function(format!("maintained_index_{shape}_1536_to_256"), |b| {
            let mut rng = sim_rng(13);
            b.iter(|| {
                let mut index = AgeOrderedIndex::new(2 * CAP);
                let mut misses = 0u32;
                for cand in &stream {
                    if !index.admits(cand.age) {
                        misses += 1;
                        if misses >= 32 {
                            break;
                        }
                        continue; // no acceptance draws spent
                    }
                    if accepts(&mut rng, 2000, cand.age, 2160) {
                        index.insert(cand.age, *cand);
                        misses = 0;
                    }
                }
                let mut pool = index.into_ranked();
                pool.truncate(CAP);
                black_box(pool.len())
            })
        });

        group.bench_function(format!("keyed_sample_{shape}_1536_to_512"), |b| {
            let mut rng = sim_rng(13);
            let mut sample = KeyedSample::new();
            let mut pool: Vec<u32> = Vec::with_capacity(2 * CAP);
            b.iter(|| {
                pool.clear();
                for cand in &stream {
                    if sample.len() >= 2 * CAP {
                        break;
                    }
                    if accepts(&mut rng, 2000, cand.age, 2160) {
                        sample.push(cand.age, cand.id);
                    }
                }
                sample.drain_ranked_into(&mut pool);
                black_box(pool.len())
            })
        });
    }
    group.finish();
}

/// The shard-wheel kernel: schedule peer lifetimes spanning multiple
/// simulated years, then advance a 4096-round window — the workload
/// where the old flat 2048-bucket wheel recirculates every far event
/// once per lap while the two-level hierarchy touches it at most twice
/// (cascade + fire). The printed touch count is the hierarchy's own
/// diagnostic ([`HierarchicalWheel::touches`]); the flat wheel's
/// equivalent is `Σ due/2048` extra touches over the same window.
fn wheel_touches(c: &mut Criterion) {
    const EVENTS: u64 = 4096;
    const SPAN: u64 = 105_000; // ~12 simulated years of lifetimes
    const WINDOW: u64 = 4096; // rounds advanced per iteration
    let dues: Vec<u64> = (0..EVENTS)
        .map(|i| i.wrapping_mul(2654435761) % SPAN + 1)
        .collect();

    // One-shot touch-count report (not a timing): how often each wheel
    // examines the far events while sweeping the window.
    let mut hier: HierarchicalWheel<u64> = HierarchicalWheel::new(512, 512);
    for &d in &dues {
        hier.schedule(Round(d), d);
    }
    for r in 0..=WINDOW {
        hier.advance(Round(r), |_| {});
    }
    let flat_touches: u64 = dues.iter().map(|d| d.min(&WINDOW) / 2048 + 1).sum();
    println!(
        "wheel_touches: {EVENTS} events over {WINDOW} rounds -> hierarchical {} touches, \
         flat-2048 {flat_touches} touches",
        hier.touches()
    );

    let mut group = c.benchmark_group("wheel_touches");
    group.bench_function("flat_2048_advance_4096", |b| {
        b.iter(|| {
            let mut w: TimingWheel<u64> = TimingWheel::new(2048);
            for &d in &dues {
                w.schedule(Round(d), d);
            }
            let mut fired = 0u32;
            for r in 0..=WINDOW {
                w.advance(Round(r), |_| fired += 1);
            }
            black_box(fired)
        })
    });
    group.bench_function("hier_512x512_advance_4096", |b| {
        b.iter(|| {
            let mut w: HierarchicalWheel<u64> = HierarchicalWheel::new(512, 512);
            for &d in &dues {
                w.schedule(Round(d), d);
            }
            let mut fired = 0u32;
            for r in 0..=WINDOW {
                w.advance(Round(r), |_| fired += 1);
            }
            black_box(fired)
        })
    });
    group.finish();
}

/// The steady-state round-overhead kernel: a small, fully joined
/// population stepped round by round. After the warm-up ramp the
/// measured loop is exactly what the zero-allocation rebuild targets —
/// recycled arenas instead of per-round `Vec::new()`s, pool epoch
/// bumps instead of thread spawns, claims staged per owner shard
/// instead of per-rank messages. The printed dispatch rate is the pool's own counter;
/// build with `--features count-allocs` to see the allocation rate via
/// `perf_probe` instead (a global allocator cannot be swapped per
/// bench).
fn round_overhead(c: &mut Criterion) {
    use peerback_core::{BackupWorld, SimConfig};
    use peerback_sim::Engine;

    let mk = |shards: usize| {
        let mut cfg = SimConfig::paper(2048, u64::MAX, 7);
        cfg.k = 8;
        cfg.m = 8;
        cfg.quota = 48;
        cfg.maintenance = peerback_core::MaintenancePolicy::Reactive { threshold: 10 };
        cfg.rounds = 1 << 20; // the bench steps manually; never reached
        cfg.shards = shards;
        let mut world = BackupWorld::new(cfg);
        let mut engine = Engine::new(7);
        // Warm-up: past the join wave and first-touch buffer growth.
        engine.run(&mut world, 400);
        (world, engine)
    };

    let (mut world, mut engine) = mk(1);
    let before = world.stage_dispatches();
    let mut group = c.benchmark_group("round_overhead");
    group.bench_function("steady_round_2048_peers_1w", |b| {
        b.iter(|| {
            engine.step(&mut world);
            black_box(world.metrics().rounds)
        })
    });
    println!(
        "round_overhead: {} pool dispatches across the measured single-worker rounds \
         (inline stages wake nothing)",
        world.stage_dispatches() - before
    );

    let (mut world, mut engine) = mk(4);
    group.bench_function("steady_round_2048_peers_4w", |b| {
        b.iter(|| {
            engine.step(&mut world);
            black_box(world.metrics().rounds)
        })
    });
    group.finish();
}

/// The stand-in cipher's keystream pass at the two sizes the byte
/// pipelines feed it: a fabric archive (16 KiB payload) and a
/// `byte_plane` archive (8 MiB).
fn xor_keystream(c: &mut Criterion) {
    let mut group = c.benchmark_group("xor_keystream");
    let cipher = XorKeystream::new(0xdead_beef);
    for (name, len) in [("16k", 16 << 10), ("8m", 8 << 20)] {
        let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        group.throughput(Throughput::Bytes(len as u64));
        group.bench_function(name, |b| b.iter(|| cipher.encrypt(black_box(&data))));
    }
    group.finish();
}

criterion_group!(
    benches,
    acceptance,
    selection,
    age_pool_build,
    wheel_touches,
    round_overhead,
    xor_keystream
);
criterion_main!(benches);
