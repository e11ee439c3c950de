//! The matrix kernel: every Reed–Solomon product in one call.
//!
//! Encoding, decoding and repair are all `outs = C × srcs` for a small
//! coefficient matrix `C` over whole shards. Running that as one
//! `mul_add_slice` per (output, source) pair re-streams every output
//! buffer once per source; [`mul_matrix`] instead
//!
//! * tiles the columns ([`TILE`] bytes, so the `k` source tiles stay in
//!   L2 while every output row consumes them),
//! * blocks the rows: up to [`BLOCK_ROWS`] outputs accumulate in
//!   registers across all `k` sources and each output tile is stored
//!   once (AVX2 split-nibble shuffles, or one GFNI affine instruction
//!   per 64 bytes),
//! * turns all-zero rows into a fill and single-coefficient rows (the
//!   unit rows a decode plan has for every surviving data shard) into a
//!   copy or one scaled copy.
//!
//! Scalar and SSSE3 have no blocked kernel; they run the same tiled loop
//! over their own slice kernels, as does every backend's sub-vector
//! column remainder. Field arithmetic is exact, so every backend and
//! every evaluation order produce the same bytes.

use crate::simd::{active_backend, Backend, BLOCK_ROWS, MAX_SHARDS};

/// Column tile width: with `k = 128` sources the source tiles total
/// 256 KiB, which stays in L2 while every row block consumes them.
const TILE: usize = 2048;

/// Stack-table capacity for products with at most this many sources and
/// outputs (every `k ≤ 16` code): a call on short shards then does not
/// spend longer filling 256-entry tables than multiplying.
const SMALL: usize = 16;

/// `outs[r] = Σ_j coeffs[r·k + j] · srcs[j]` for every output `r`, where
/// `k = srcs.len()` (the outputs are overwritten, not accumulated into),
/// on the active backend.
///
/// # Panics
///
/// Panics if there are more than 256 sources or outputs, if
/// `coeffs.len() != outs.len() * srcs.len()`, or if the slices do not
/// all have the same length.
#[inline]
pub fn mul_matrix<S: AsRef<[u8]>, O: AsMut<[u8]>>(coeffs: &[u8], srcs: &[S], outs: &mut [O]) {
    active_backend().mul_matrix(coeffs, srcs, outs);
}

impl Backend {
    /// [`mul_matrix`] on this backend.
    ///
    /// # Panics
    ///
    /// As [`mul_matrix`], or if the backend is unavailable on this CPU.
    pub fn mul_matrix<S: AsRef<[u8]>, O: AsMut<[u8]>>(
        self,
        coeffs: &[u8],
        srcs: &[S],
        outs: &mut [O],
    ) {
        let k = srcs.len();
        assert!(
            k <= MAX_SHARDS && outs.len() <= MAX_SHARDS,
            "mul_matrix takes at most {MAX_SHARDS} sources and outputs"
        );
        assert_eq!(
            coeffs.len(),
            outs.len() * k,
            "coefficient matrix must be outputs × sources"
        );
        if k <= SMALL && outs.len() <= SMALL {
            self.product::<SMALL, S, O>(coeffs, srcs, outs);
        } else {
            self.product::<MAX_SHARDS, S, O>(coeffs, srcs, outs);
        }
    }

    /// [`mul_matrix`] with stack tables of `N` entries (`N` ≥ the source
    /// and output counts, checked by the caller).
    fn product<const N: usize, S: AsRef<[u8]>, O: AsMut<[u8]>>(
        self,
        coeffs: &[u8],
        srcs: &[S],
        outs: &mut [O],
    ) {
        let k = srcs.len();
        let mut src_table: [&[u8]; N] = [&[]; N];
        for (slot, src) in src_table.iter_mut().zip(srcs) {
            *slot = src.as_ref();
        }
        let srcs = &src_table[..k];
        let Some(len) = srcs.first().map(|s| s.len()) else {
            for out in outs {
                out.as_mut().fill(0);
            }
            return;
        };
        assert!(srcs.iter().all(|s| s.len() == len), "slice length mismatch");

        // Zero and single-coefficient rows are a fill or one slice
        // operation; the rest go to the tiled, row-blocked loop.
        let mut dense_outs: [&mut [u8]; N] = core::array::from_fn(|_| Default::default());
        let mut dense_rows: [&[u8]; N] = [&[]; N];
        let mut dense = 0;
        for (row, out) in coeffs.chunks_exact(k).zip(outs.iter_mut()) {
            let out = out.as_mut();
            assert_eq!(out.len(), len, "slice length mismatch");
            let mut nonzero = row.iter().enumerate().filter(|(_, &c)| c != 0);
            match (nonzero.next(), nonzero.next()) {
                (None, _) => out.fill(0),
                (Some((j, &c)), None) => self.mul_slice(out, srcs[j], c),
                _ => {
                    dense_outs[dense] = out;
                    dense_rows[dense] = row;
                    dense += 1;
                }
            }
        }
        let (dense_outs, dense_rows) = (&mut dense_outs[..dense], &dense_rows[..dense]);

        for start in (0..len).step_by(TILE) {
            let end = (start + TILE).min(len);
            for (outs, rows) in dense_outs
                .chunks_mut(BLOCK_ROWS)
                .zip(dense_rows.chunks(BLOCK_ROWS))
            {
                let done = self.dot_block_prefix::<N>(rows, srcs, outs, start, end);
                if done < end {
                    self.dot_block_sliced(rows, srcs, outs, done..end);
                }
            }
        }
    }

    /// The generic block loop: each output's `cols` is the product of its
    /// first nonzero coefficient, then accumulates the rest.
    fn dot_block_sliced(
        self,
        rows: &[&[u8]],
        srcs: &[&[u8]],
        outs: &mut [&mut [u8]],
        cols: core::ops::Range<usize>,
    ) {
        for (row, out) in rows.iter().zip(outs.iter_mut()) {
            let out = &mut out[cols.clone()];
            let mut terms = row.iter().zip(srcs).filter(|(&c, _)| c != 0);
            match terms.next() {
                Some((&c, src)) => self.mul_slice(out, &src[cols.clone()], c),
                None => out.fill(0),
            }
            for (&c, src) in terms {
                self.mul_add_slice(out, &src[cols.clone()], c);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Gf256;

    /// The definition, one byte at a time.
    fn reference(coeffs: &[u8], srcs: &[Vec<u8>], rows: usize, len: usize) -> Vec<Vec<u8>> {
        let k = srcs.len();
        (0..rows)
            .map(|r| {
                (0..len)
                    .map(|i| {
                        (0..k).fold(Gf256::ZERO, |acc, j| {
                            acc + Gf256(coeffs[r * k + j]) * Gf256(srcs[j][i])
                        })
                    })
                    .map(Gf256::value)
                    .collect()
            })
            .collect()
    }

    fn bytes(len: usize, seed: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 131 + seed * 29 + 7) as u8).collect()
    }

    #[test]
    fn every_backend_matches_the_definition_on_mixed_rows() {
        // Rows: zero, unit, scaled single, dense x 9 (one full block and
        // a partial one); column 2 is zero everywhere.
        let (k, rows, len) = (5, 12, TILE + 64 + 33);
        let srcs: Vec<Vec<u8>> = (0..k).map(|j| bytes(len, j)).collect();
        let mut coeffs = vec![0u8; rows * k];
        coeffs[k + 3] = 1;
        coeffs[2 * k] = 0x53;
        for r in 3..rows {
            for j in [0, 1, 3, 4] {
                coeffs[r * k + j] = (r * 17 + j * 5 + 1) as u8;
            }
        }
        let expect = reference(&coeffs, &srcs, rows, len);
        for backend in Backend::ALL.into_iter().filter(|b| b.available()) {
            let mut outs = vec![vec![0xEEu8; len]; rows];
            backend.mul_matrix(&coeffs, &srcs, &mut outs);
            assert_eq!(outs, expect, "{}", backend.name());
        }
    }

    #[test]
    fn no_sources_means_zero_outputs() {
        let mut outs = vec![vec![9u8; 4]; 2];
        mul_matrix::<&[u8], _>(&[], &[], &mut outs);
        assert_eq!(outs, vec![vec![0u8; 4]; 2]);
    }

    #[test]
    #[should_panic(expected = "outputs × sources")]
    fn wrong_coefficient_count_panics() {
        mul_matrix(
            &[1, 2, 3],
            &[vec![0u8; 4], vec![0u8; 4]],
            &mut [vec![0u8; 4]],
        );
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn ragged_outputs_panic() {
        mul_matrix(&[1, 2], &[vec![0u8; 4]], &mut [vec![0u8; 4], vec![0u8; 3]]);
    }
}
