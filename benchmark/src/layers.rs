//! Isolated drivers: small fixed loops that time one public function
//! of one layer, away from any workload. They size the per-call cost
//! that a workload's span totals are made of.

use std::hint::black_box;
use std::time::Instant;

use peerback_churn::{paper_profiles, SessionSampler};
use peerback_core::archive::Entry;
use peerback_core::select::AgeOrderedIndex;
use peerback_core::{Archive, Candidate, Cipher, SelectionStrategy, XorKeystream};
use peerback_erasure::ReedSolomon;
use peerback_estimate::{DeathRecord, EstimateParams, OnlineSurvivalModel};
use peerback_fabric::{checksum, BlockFrame, BlockStore, FaultPlane, FaultProfile};
use peerback_gf256::{add_assign_slice, mul_add_slice};
use peerback_sim::{sim_rng, BufPool, Engine, HierarchicalWheel, Round, SimRng, WorkerPool, World};

use crate::span::Tracer;
use crate::stats::median;
use crate::workloads::{SplitMix, MIB};

/// Median over `batches` timed batches (after one discarded warm-up
/// batch) of the time one call of `f` takes, in nanoseconds.
fn call_ns(batches: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let mut batch = || {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        start.elapsed().as_nanos() as f64 / iters as f64
    };
    batch();
    let samples: Vec<f64> = (0..batches).map(|_| batch()).collect();
    median(&samples)
}

/// MiB/s of a call that processes `bytes` bytes in `ns` nanoseconds.
fn mib_s(bytes: usize, ns: f64) -> f64 {
    bytes as f64 / MIB / (ns / 1e9)
}

type Values = Vec<(&'static str, f64)>;

/// Runs every isolated driver, one span per layer.
pub fn run_all(seed: u64, tracer: &mut Tracer) -> Values {
    type Driver = fn(u64) -> Values;
    let layers: [(&'static str, Driver); 8] = [
        ("isolated.core.select", select),
        ("isolated.estimate", estimate),
        ("isolated.sim", sim),
        ("isolated.churn", churn),
        ("isolated.fabric", fabric),
        ("isolated.core.bytes", core_bytes),
        ("isolated.erasure", erasure),
        ("isolated.gf256", gf256),
    ];
    tracer.enter("isolated", None);
    let mut values = Values::new();
    for (name, driver) in layers {
        values.extend(tracer.span(name, None, || driver(seed)));
    }
    tracer.exit();
    values
}

/// Pool 512 → d 256, the paper's geometry (n = 256 partners drawn from
/// a pool of twice that).
fn select(seed: u64) -> Values {
    const POOL: usize = 512;
    const D: usize = 256;
    let mut gen = SplitMix(seed);
    let template: Vec<Candidate> = (0..POOL as u32)
        .map(|id| Candidate {
            id,
            age: gen.next() % 20_000,
            uptime: 0.75,
            true_remaining: u64::MAX,
            estimated_remaining: 0,
        })
        .collect();
    let mut rng = sim_rng(seed);
    let mut pool = Vec::with_capacity(POOL);
    let choose = call_ns(5, 200, || {
        pool.clone_from(&template);
        SelectionStrategy::AgeBased.choose(&mut rng, &mut pool, D);
        black_box(&pool);
    });
    let mut index = AgeOrderedIndex::new(D);
    let mut ranked = Vec::with_capacity(D);
    let insert = call_ns(5, 200, || {
        index.reset(D);
        for cand in &template {
            index.insert(cand.age, *cand);
        }
        ranked.clear();
        index.drain_ranked_into(&mut ranked);
        black_box(&ranked);
    });
    vec![
        (
            "core.select.choose_age.ns_per_candidate",
            choose / POOL as f64,
        ),
        ("core.select.age_index.ns_per_insert", insert / POOL as f64),
    ]
}

/// A survival model fed a seeded death stream drawn from the paper's
/// profile mix, refreshed against a census of 8192 living peers — the
/// population of the churn workloads.
fn estimate(seed: u64) -> Values {
    const LIVING: usize = 8192;
    let mix = paper_profiles();
    let mut rng = sim_rng(seed);
    let mut deaths = Vec::new();
    while deaths.len() < 8192 {
        let profile = mix.profile(mix.sample(&mut rng));
        if let Some(lifetime) = profile.lifetime.sample(&mut rng) {
            deaths.push(DeathRecord {
                lifetime,
                uptime: profile.availability,
                sessions: 20,
            });
        }
    }
    let mut gen = SplitMix(seed);
    let living: Vec<(u64, f64)> = (0..LIVING)
        .map(|_| (gen.next() % 4000, (gen.next() % 100) as f64 / 100.0))
        .collect();

    let mut model = OnlineSurvivalModel::new(EstimateParams::default());
    let (fed, rest) = deaths.split_at(4096);
    fed.iter().for_each(|&d| model.observe_death(d));
    let refresh = call_ns(5, 3, || model.refresh_classed(living.iter().copied()));
    let mut next = 0;
    let observe = call_ns(5, 2048, || {
        model.observe_death(rest[next % rest.len()]);
        next += 1;
    });
    let mut at = 0;
    let estimate = call_ns(5, 8192, || {
        let (age, uptime) = living[at % LIVING];
        black_box(model.estimate(age, uptime, 20));
        at += 1;
    });
    vec![
        ("estimate.estimate.ns", estimate),
        ("estimate.refresh_classed.us", refresh / 1e3),
        ("estimate.observe_death.ns", observe),
    ]
}

/// A world in which nothing happens: what is left is the engine.
pub struct Idle;

impl World for Idle {
    fn round_start(&mut self, _: Round, _: &mut SimRng) {}
    fn collect_actors(&mut self, _: Round, _: &mut Vec<usize>) {}
    fn activate(&mut self, _: Round, _: usize, _: &mut SimRng) {}
    fn round_end(&mut self, _: Round, _: &mut SimRng) {}
}

fn sim(seed: u64) -> Values {
    // The world's per-shard wheel geometry (512 × 512), fed a mix of
    // near (session) and far (lifetime) events, then run dry.
    const ENTRIES: usize = 100_000;
    const HORIZON: u64 = 20_000;
    let mut gen = SplitMix(seed);
    let dues: Vec<u64> = (0..ENTRIES)
        .map(|i| 1 + gen.next() % if i % 4 == 0 { HORIZON } else { 48 })
        .collect();
    let mut touches = 0;
    let wheel_pass = call_ns(3, 1, || {
        let mut wheel = HierarchicalWheel::<u32>::new(512, 512);
        let mut fired = 0usize;
        for (i, &due) in dues.iter().enumerate() {
            wheel.schedule(Round(due), i as u32);
        }
        for round in 0..=HORIZON {
            wheel.advance(Round(round), |_| fired += 1);
        }
        assert_eq!(fired, ENTRIES, "the wheel fires every entry exactly once");
        touches = wheel.touches();
    });

    let pool = WorkerPool::new(2);
    let mut states = [0u64; 8];
    let dispatch = call_ns(5, 2000, || {
        pool.run_tasks(2, true, &mut states, |_, s| *s = s.wrapping_add(1));
    });

    let mut arena = BufPool::<u64>::new();
    arena.put(Vec::with_capacity(64));
    let take_put = call_ns(5, 100_000, || {
        let mut buf = arena.take();
        buf.push(1);
        arena.put(black_box(buf));
    });

    let mut engine = Engine::new(seed);
    let step = call_ns(5, 100_000, || {
        black_box(engine.step(&mut Idle));
    });
    vec![
        ("sim.wheel.ns_per_entry", wheel_pass / ENTRIES as f64),
        (
            "sim.wheel.touches_per_entry",
            touches as f64 / ENTRIES as f64,
        ),
        ("sim.exec.dispatch.us", dispatch / 1e3),
        ("sim.arena.take_put.ns", take_put),
        ("sim.engine.step_overhead.ns", step),
    ]
}

fn churn(seed: u64) -> Values {
    let mix = paper_profiles();
    let mut rng = sim_rng(seed);
    let lifetime = call_ns(5, 100_000, || {
        let profile = mix.profile(mix.sample(&mut rng));
        black_box(profile.lifetime.sample(&mut rng));
    });
    let sampler = SessionSampler::new(0.75, 24.0);
    let session = call_ns(5, 100_000, || {
        black_box(sampler.online_duration(&mut rng));
        black_box(sampler.offline_duration(&mut rng));
    });
    vec![
        ("churn.lifetime_sample.ns", lifetime),
        ("churn.session_sample.ns", session / 2.0),
    ]
}

/// Frame, store and fault plane at `combined_bytes`' 2 KiB shard size.
fn fabric(seed: u64) -> Values {
    const SHARD: usize = 2048;
    const FRAMES: u32 = 2048;
    let mut gen = SplitMix(seed);
    let frame = BlockFrame {
        owner: 7,
        archive: 0,
        shard_index: 3,
        payload: gen.bytes(SHARD),
    };
    let to_bytes = call_ns(5, 5000, || {
        black_box(frame.to_bytes());
    });
    let wire = frame.to_bytes();
    let from_bytes = call_ns(5, 5000, || {
        black_box(BlockFrame::from_bytes(&wire).expect("an undamaged frame decodes"));
    });
    let checksum_ns = call_ns(5, 5000, || {
        black_box(checksum(black_box(&frame.payload)));
    });

    // One frame per (host, owner) cell: every ingest stores a new block.
    let wires: Vec<Vec<u8>> = (0..FRAMES)
        .map(|owner| {
            BlockFrame {
                owner,
                ..frame.clone()
            }
            .to_bytes()
        })
        .collect();
    let ingest = call_ns(5, 1, || {
        let mut store = BlockStore::new();
        for (owner, wire) in wires.iter().enumerate() {
            store
                .ingest(owner as u32 % 64, wire)
                .expect("a fresh cell accepts its frame");
        }
        black_box(store.total_blocks());
    });

    let plane = FaultPlane::new(FaultProfile::uniform(0.02));
    let mut rng = sim_rng(seed);
    let mut in_flight = wire.clone();
    let transit = call_ns(5, 20_000, || {
        if plane
            .transit(&mut rng, &mut in_flight, 0.75)
            .damage
            .is_some()
        {
            in_flight.clone_from(&wire);
        }
    });
    vec![
        ("fabric.frame.to_bytes.ns", to_bytes),
        ("fabric.frame.from_bytes.ns", from_bytes),
        ("fabric.frame.checksum.mib_s", mib_s(SHARD, checksum_ns)),
        ("fabric.store.ingest.ns", ingest / f64::from(FRAMES)),
        ("fabric.faults.transit.ns", transit),
    ]
}

/// The archive and cipher steps of `byte_plane`, at its 8 MiB archive.
fn core_bytes(seed: u64) -> Values {
    const LEN: usize = 8 << 20;
    let payload = SplitMix(seed).bytes(LEN);
    let archive = Archive::from_entries(
        1,
        false,
        vec![Entry {
            name: "bench/archive.bin".into(),
            data: payload.clone().into(),
        }],
    );
    let to_bytes = call_ns(3, 2, || {
        black_box(archive.to_bytes());
    });
    let wire = archive.to_bytes();
    let from_bytes = call_ns(3, 2, || {
        black_box(Archive::from_bytes(&wire).expect("a serialised archive parses"));
    });
    let split_join = call_ns(3, 2, || {
        let (blocks, len) = Archive::split_into_blocks(&wire, 128);
        black_box(Archive::join_blocks(&blocks, len));
    });
    let cipher = XorKeystream::new(seed);
    let xor = call_ns(3, 2, || {
        black_box(cipher.encrypt(&payload));
    });
    vec![
        ("core.archive.to_bytes.mib_s", mib_s(LEN, to_bytes)),
        ("core.archive.from_bytes.mib_s", mib_s(LEN, from_bytes)),
        ("core.archive.split_join.mib_s", mib_s(LEN, split_join)),
        ("core.crypt.xor.mib_s", mib_s(LEN, xor)),
    ]
}

/// Encode and worst-case (all-parity survivors) reconstruct at the two
/// geometries the workloads use: 8+8 on 2 KiB shards (`combined_bytes`)
/// and 128+128 on 64 KiB shards (`byte_plane`). Rates are per MiB of
/// archive data.
fn erasure(seed: u64) -> Values {
    struct Geometry {
        encode_mib_s: f64,
        reconstruct_mib_s: f64,
        plan_us: f64,
        shard_at_us: f64,
    }
    let run = |k: usize, shard_len: usize, batches: usize, iters: usize| {
        let rs = ReedSolomon::new(k, k).expect("k + k shards fit in GF(2^8)");
        let mut gen = SplitMix(seed);
        let data: Vec<Vec<u8>> = (0..k).map(|_| gen.bytes(shard_len)).collect();
        let mut parity = vec![Vec::new(); k];
        let encode = call_ns(batches, iters, || {
            rs.encode_into(&data, &mut parity)
                .expect("well-formed data");
        });
        let survivors: Vec<(usize, Vec<u8>)> = parity
            .iter()
            .enumerate()
            .map(|(i, p)| (k + i, p.clone()))
            .collect();
        let mut recovered = Vec::new();
        let reconstruct = call_ns(batches, iters, || {
            rs.reconstruct_data_into(&survivors, shard_len, &mut recovered)
                .expect("k parity shards decode");
        });
        assert_eq!(recovered, data, "reconstruction returns the data shards");
        let indices: Vec<usize> = (k..2 * k).collect();
        let plan = call_ns(batches, iters, || {
            black_box(rs.decode_plan(&indices).expect("a valid survivor set"));
        });
        let shard_at = call_ns(batches, iters, || {
            black_box(rs.shard_at(&data, k + k / 2).expect("index in range"));
        });
        Geometry {
            encode_mib_s: mib_s(k * shard_len, encode),
            reconstruct_mib_s: mib_s(k * shard_len, reconstruct),
            plan_us: plan / 1e3,
            shard_at_us: shard_at / 1e3,
        }
    };
    let small = run(8, 2048, 5, 300);
    let paper = run(128, 65536, 3, 1);
    vec![
        ("erasure.encode_8x8_2k.mib_s", small.encode_mib_s),
        ("erasure.encode_128x128_64k.mib_s", paper.encode_mib_s),
        ("erasure.reconstruct_8x8_2k.mib_s", small.reconstruct_mib_s),
        (
            "erasure.reconstruct_128x128_64k.mib_s",
            paper.reconstruct_mib_s,
        ),
        ("erasure.decode_plan_8.us", small.plan_us),
        ("erasure.decode_plan_128.us", paper.plan_us),
        ("erasure.shard_at_8x8_2k.us", small.shard_at_us),
    ]
}

fn gf256(seed: u64) -> Values {
    let mut gen = SplitMix(seed);
    let run = |len: usize, iters: usize, gen: &mut SplitMix| {
        let src = gen.bytes(len);
        let mut dst = gen.bytes(len);
        let mul_add = call_ns(5, iters, || {
            mul_add_slice(black_box(&mut dst), black_box(&src), 0x57);
        });
        let add = call_ns(5, iters, || {
            add_assign_slice(black_box(&mut dst), black_box(&src));
        });
        (mib_s(len, mul_add), mib_s(len, add))
    };
    let (mul_add_2k, _) = run(2048, 20_000, &mut gen);
    let (mul_add_64k, add_64k) = run(65536, 1000, &mut gen);
    vec![
        ("gf256.mul_add_2k.mib_s", mul_add_2k),
        ("gf256.mul_add_64k.mib_s", mul_add_64k),
        ("gf256.add_assign_64k.mib_s", add_64k),
    ]
}
