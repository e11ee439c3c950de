//! Reed–Solomon codec throughput: encoding and repair at the paper's
//! geometry (k = m = 128, 1 MB blocks scaled down) and smaller ones.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use peerback_erasure::ReedSolomon;

fn data(k: usize, len: usize) -> Vec<Vec<u8>> {
    (0..k)
        .map(|i| (0..len).map(|j| ((i * 31 + j) % 251) as u8).collect())
        .collect()
}

fn encode(c: &mut Criterion) {
    let mut group = c.benchmark_group("rs_encode");
    for (k, m, shard) in [
        (4usize, 2usize, 64 * 1024),
        (16, 16, 16 * 1024),
        (128, 128, 4 * 1024),
    ] {
        let rs = ReedSolomon::new(k, m).unwrap();
        let blocks = data(k, shard);
        group.throughput(Throughput::Bytes((k * shard) as u64));
        group.bench_function(format!("k{k}_m{m}_{shard}B"), |b| {
            b.iter(|| rs.encode(black_box(&blocks)).unwrap())
        });
    }
    group.finish();
}

fn reconstruct(c: &mut Criterion) {
    let mut group = c.benchmark_group("rs_reconstruct");
    group.sample_size(20);
    for (k, m, shard) in [(16usize, 16usize, 16 * 1024), (128, 128, 1024)] {
        let rs = ReedSolomon::new(k, m).unwrap();
        let blocks = data(k, shard);
        let parity = rs.encode(&blocks).unwrap();
        let mut all = blocks;
        all.extend(parity);
        // Adversarial survivor pattern: every second shard.
        let survivors: Vec<(usize, Vec<u8>)> = (0..k + m)
            .step_by(2)
            .take(k)
            .map(|i| (i, all[i].clone()))
            .collect();
        group.throughput(Throughput::Bytes((k * shard) as u64));
        group.bench_function(format!("data_k{k}_m{m}_{shard}B"), |b| {
            b.iter(|| rs.reconstruct_data(black_box(&survivors), shard).unwrap())
        });
        // Repairing d = 8 missing shards (decode + re-encode).
        let wanted: Vec<usize> = (1..=15).step_by(2).collect();
        group.bench_function(format!("repair8_k{k}_m{m}_{shard}B"), |b| {
            b.iter(|| {
                rs.reconstruct_shards(black_box(&survivors), shard, &wanted)
                    .unwrap()
            })
        });
    }
    group.finish();
}

/// The matrix kernel alone, at the two workload geometries: every
/// codec product is one of these calls (dense coefficients, so every
/// row takes the register-blocked path).
fn matrix_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("mul_matrix");
    for (k, shard) in [(8usize, 2 * 1024), (128, 64 * 1024)] {
        let srcs = data(k, shard);
        let coeffs: Vec<u8> = (0..k * k).map(|i| (i * 7 + 3) as u8 | 1).collect();
        let mut outs = vec![vec![0u8; shard]; k];
        group.throughput(Throughput::Bytes((k * shard) as u64));
        group.bench_function(format!("{k}x{k}_{}k", shard / 1024), |b| {
            b.iter(|| peerback_gf256::mul_matrix(black_box(&coeffs), black_box(&srcs), &mut outs))
        });
    }
    group.finish();
}

fn matrix_inversion(c: &mut Criterion) {
    use peerback_erasure::Matrix;
    let mut group = c.benchmark_group("rs_matrix");
    for size in [16usize, 64, 128] {
        let m = Matrix::vandermonde(size, size);
        group.bench_function(format!("invert_{size}"), |b| {
            b.iter(|| black_box(&m).inverse().unwrap())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    encode,
    reconstruct,
    matrix_kernel,
    matrix_inversion
);
criterion_main!(benches);
