//! Property-based equivalence of the SIMD backends against scalar.
//!
//! The determinism contract requires every backend to produce bytes
//! identical to the scalar reference for every kernel, length,
//! alignment, and coefficient. Lengths range past several vector widths
//! so the 32-byte, 16-byte, and scalar-tail paths are all exercised,
//! and the slices are offset sub-slices of a larger buffer so unaligned
//! starts are covered too. The matrix kernel is checked the same way
//! against the per-pair products it replaces, over shapes and lengths
//! that hit every column tile, register block and tail boundary.

use peerback_gf256::{active_backend, Backend, BACKEND_ENV};
use proptest::prelude::*;

/// Buffer headroom so `offset + len` stays in bounds.
const MAX_LEN: usize = 200;
const MAX_OFFSET: usize = 33;

fn available_backends() -> Vec<Backend> {
    Backend::ALL.into_iter().filter(|b| b.available()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn all_kernels_match_scalar_byte_for_byte(
        data in proptest::collection::vec(any::<u8>(), (MAX_LEN + MAX_OFFSET)..(MAX_LEN + MAX_OFFSET + 1)),
        base in proptest::collection::vec(any::<u8>(), (MAX_LEN + MAX_OFFSET)..(MAX_LEN + MAX_OFFSET + 1)),
        len in 0..MAX_LEN,
        offset in 0..MAX_OFFSET,
        c in any::<u8>(),
    ) {
        let src = &data[offset..offset + len];
        let dst = &base[offset..offset + len];

        for backend in available_backends() {
            let mut expect = dst.to_vec();
            Backend::Scalar.mul_add_slice(&mut expect, src, c);
            let mut got = dst.to_vec();
            backend.mul_add_slice(&mut got, src, c);
            prop_assert_eq!(&got, &expect, "mul_add_slice {} c={}", backend.name(), c);

            let mut expect = dst.to_vec();
            Backend::Scalar.mul_slice(&mut expect, src, c);
            let mut got = dst.to_vec();
            backend.mul_slice(&mut got, src, c);
            prop_assert_eq!(&got, &expect, "mul_slice {} c={}", backend.name(), c);

            let mut expect = src.to_vec();
            Backend::Scalar.mul_slice_in_place(&mut expect, c);
            let mut got = src.to_vec();
            backend.mul_slice_in_place(&mut got, c);
            prop_assert_eq!(&got, &expect, "mul_slice_in_place {} c={}", backend.name(), c);

            let mut expect = dst.to_vec();
            Backend::Scalar.add_assign_slice(&mut expect, src);
            let mut got = dst.to_vec();
            backend.add_assign_slice(&mut got, src);
            prop_assert_eq!(&got, &expect, "add_assign_slice {}", backend.name());
        }
    }

    /// The in-place multiply must agree with the two-slice multiply on
    /// every backend (the SIMD kernels share the table path but not the
    /// loop body).
    #[test]
    fn in_place_matches_two_slice_per_backend(
        data in proptest::collection::vec(any::<u8>(), 0..MAX_LEN),
        c in any::<u8>(),
    ) {
        for backend in available_backends() {
            let mut in_place = data.clone();
            backend.mul_slice_in_place(&mut in_place, c);
            let mut out = vec![0u8; data.len()];
            backend.mul_slice(&mut out, &data, c);
            prop_assert_eq!(&in_place, &out, "{} c={}", backend.name(), c);
        }
    }
}

/// Exhaustive over all 256 coefficients at a vector-width-straddling
/// length — proptest samples coefficients, this nails down the full
/// table.
#[test]
fn every_coefficient_matches_scalar_at_mixed_length() {
    let src: Vec<u8> = (0..77u32).map(|i| (i * 37 + 11) as u8).collect();
    let base: Vec<u8> = (0..77u32).map(|i| (i * 53 + 29) as u8).collect();
    for backend in available_backends() {
        for c in 0u16..=255 {
            let c = c as u8;
            let mut expect = base.clone();
            Backend::Scalar.mul_add_slice(&mut expect, &src, c);
            let mut got = base.clone();
            backend.mul_add_slice(&mut got, &src, c);
            assert_eq!(got, expect, "mul_add {} c={c}", backend.name());
        }
    }
}

/// `(outputs, sources)`: the products of the codec geometries (1,1),
/// (1,255), (3,2), (8,8), (16,16) and (128,128) — encode is `m × k`,
/// decode `k × k` — plus a shape with partial register blocks.
const SHAPES: [(usize, usize); 8] = [
    (1, 1),
    (255, 1),
    (2, 3),
    (3, 3),
    (8, 8),
    (16, 16),
    (9, 17),
    (128, 128),
];
/// Around the 32/64-byte vector widths, the 2 KiB column tile, and one
/// 64 KiB shard.
const LENGTHS: [usize; 11] = [0, 1, 31, 32, 33, 63, 64, 65, 2048, 2048 + 17, 65536];
/// Cap on `outputs · sources · len` per case (debug-build cost): the
/// wide shapes get the short lengths.
const PAIR_BYTES: usize = 1 << 21;

/// The per-pair product `mul_matrix` replaces, on the scalar kernels.
fn mul_matrix_reference(coeffs: &[u8], srcs: &[&[u8]], outputs: usize, len: usize) -> Vec<Vec<u8>> {
    let mut outs = vec![vec![0u8; len]; outputs];
    for (out, row) in outs.iter_mut().zip(coeffs.chunks(srcs.len().max(1))) {
        for (src, &c) in srcs.iter().zip(row) {
            Backend::Scalar.mul_add_slice(out, src, c);
        }
    }
    outs
}

/// A seeded coefficient matrix mixing every row kind the kernel
/// special-cases — zero rows, unit rows, single scaled coefficients —
/// with dense rows, and zeroing whole columns.
fn coefficients(outputs: usize, sources: usize, seed: u64) -> Vec<u8> {
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    let zero_columns: Vec<bool> = (0..sources).map(|_| next() % 5 == 0).collect();
    let mut coeffs = vec![0u8; outputs * sources];
    for row in coeffs.chunks_mut(sources.max(1)) {
        match next() % 8 {
            0 => {}
            1 => row[next() % sources] = 1,
            2 => row[next() % sources] = next() as u8,
            _ => {
                for (c, &zero) in row.iter_mut().zip(&zero_columns) {
                    *c = if zero { 0 } else { next() as u8 };
                }
            }
        }
    }
    coeffs
}

/// `mul_matrix` on every available backend against the per-pair
/// reference, with the sources at `offset` into their buffers and the
/// outputs pre-filled with garbage (the kernel overwrites).
fn check_mul_matrix(outputs: usize, sources: usize, len: usize, offset: usize, seed: u64) {
    let buffers: Vec<Vec<u8>> = (0..sources)
        .map(|j| {
            (0..len + offset)
                .map(|i| (i as u64 * 131 + j as u64 * 29 + seed) as u8)
                .collect()
        })
        .collect();
    let srcs: Vec<&[u8]> = buffers.iter().map(|b| &b[offset..]).collect();
    let coeffs = coefficients(outputs, sources, seed);
    let expect = mul_matrix_reference(&coeffs, &srcs, outputs, len);
    for backend in available_backends() {
        let mut outs = vec![vec![0xC3u8; len]; outputs];
        backend.mul_matrix(&coeffs, &srcs, &mut outs);
        assert!(
            outs == expect,
            "mul_matrix {} {outputs}x{sources} len {len} offset {offset} seed {seed}",
            backend.name()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn mul_matrix_matches_per_pair_products_on_every_backend(
        shape in 0..SHAPES.len(),
        length in 0..LENGTHS.len(),
        offset in 0..3usize,
        seed in any::<u64>(),
    ) {
        let (outputs, sources) = SHAPES[shape];
        prop_assume!(outputs * sources * LENGTHS[length] <= PAIR_BYTES);
        check_mul_matrix(outputs, sources, LENGTHS[length], offset, seed);
    }
}

/// The grid the property test samples, walked exhaustively.
#[test]
fn mul_matrix_matches_per_pair_products_across_the_grid() {
    for (outputs, sources) in SHAPES {
        for len in LENGTHS {
            if outputs * sources * len <= PAIR_BYTES {
                check_mul_matrix(outputs, sources, len, len % 3, (outputs * 7 + len) as u64);
            }
        }
    }
}

/// Names the backend this process dispatches to. CI runs the suites
/// once per `PEERBACK_GF256_BACKEND` value and prints this line, so a
/// runner without the requested backend shows its clamp instead of
/// passing silently.
#[test]
fn report_active_backend() {
    let requested = std::env::var(BACKEND_ENV).unwrap_or_else(|_| "(unset)".into());
    println!(
        "gf256 backend: {} ({BACKEND_ENV}={requested})",
        active_backend().name()
    );
}
