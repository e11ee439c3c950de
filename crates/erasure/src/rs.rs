//! The systematic Reed–Solomon encoder/decoder.
//!
//! Every product here — encode, decode, single-shard and repair — is one
//! [`mul_matrix`] call: a coefficient matrix (parity rows, a decode
//! plan, or wanted rows × decode rows) applied to the shards at once.

use std::sync::Arc;

use peerback_gf256::mul_matrix;

use crate::{ErasureError, Matrix};

/// A Reed–Solomon codec for a fixed geometry of `k` data shards and `m`
/// parity shards (`n = k + m` total, `n <= 256` over GF(2^8)).
///
/// The encoding matrix is the standard systematic construction: an
/// `n × k` Vandermonde matrix multiplied by the inverse of its own top
/// `k × k` block, so rows `0..k` form the identity (data shards pass
/// through unchanged) and any `k` rows remain linearly independent.
///
/// The matrix and its flattened coefficient bytes live behind an
/// `Arc`, so cloning a codec is two reference-count bumps — cheap enough
/// to hand one to every worker or pipeline instead of rebuilding the
/// Vandermonde construction per code word. The type is immutable after
/// construction and freely shareable between threads.
#[derive(Debug, Clone)]
pub struct ReedSolomon {
    data_shards: usize,
    parity_shards: usize,
    /// Full `n × k` encoding matrix (top block = identity).
    encode_matrix: Arc<Matrix>,
    /// `encode_matrix` as raw bytes (`n × k`, row-major) — the form the
    /// matrix kernel consumes without per-call conversion.
    rows: Arc<[u8]>,
}

impl ReedSolomon {
    /// Creates a codec for `k` data + `m` parity shards.
    ///
    /// # Errors
    ///
    /// * [`ErasureError::ZeroDataShards`] if `k == 0`.
    /// * [`ErasureError::TooManyShards`] if `k + m > 256`.
    pub fn new(data_shards: usize, parity_shards: usize) -> Result<Self, ErasureError> {
        if data_shards == 0 {
            return Err(ErasureError::ZeroDataShards);
        }
        let total = data_shards + parity_shards;
        if total > 256 {
            return Err(ErasureError::TooManyShards { requested: total });
        }
        let vandermonde = Matrix::vandermonde(total, data_shards);
        let top = vandermonde.submatrix(0..data_shards, 0..data_shards);
        let top_inv = top
            .inverse()
            .expect("top Vandermonde block is always invertible");
        let encode_matrix = vandermonde.multiply(&top_inv);
        let rows = encode_matrix.to_bytes().into();
        Ok(ReedSolomon {
            data_shards,
            parity_shards,
            encode_matrix: Arc::new(encode_matrix),
            rows,
        })
    }

    /// Creates the paper's headline geometry: `k = 128`, `m = 128`.
    pub fn paper_default() -> Self {
        ReedSolomon::new(128, 128).expect("128 + 128 fits in GF(2^8)")
    }

    /// Number of data shards `k`.
    pub fn data_shards(&self) -> usize {
        self.data_shards
    }

    /// Number of parity shards `m`.
    pub fn parity_shards(&self) -> usize {
        self.parity_shards
    }

    /// Total shard count `n = k + m`.
    pub fn total_shards(&self) -> usize {
        self.data_shards + self.parity_shards
    }

    /// The row of the encoding matrix for shard `index`, as raw bytes.
    fn row(&self, index: usize) -> &[u8] {
        &self.rows[index * self.data_shards..(index + 1) * self.data_shards]
    }

    fn check_data(&self, data: &[impl AsRef<[u8]>]) -> Result<usize, ErasureError> {
        if data.len() != self.data_shards {
            return Err(ErasureError::WrongShardCount {
                expected: self.data_shards,
                actual: data.len(),
            });
        }
        let len = data[0].as_ref().len();
        if data.iter().any(|s| s.as_ref().len() != len) {
            return Err(ErasureError::ShardLengthMismatch);
        }
        Ok(len)
    }

    /// Encodes `k` data shards into `m` parity shards.
    ///
    /// The data shards themselves are shards `0..k` of the code word; the
    /// returned vector holds shards `k..n`.
    ///
    /// # Errors
    ///
    /// [`ErasureError::WrongShardCount`] or
    /// [`ErasureError::ShardLengthMismatch`] on malformed input.
    pub fn encode(&self, data: &[impl AsRef<[u8]>]) -> Result<Vec<Vec<u8>>, ErasureError> {
        let mut parity = vec![Vec::new(); self.parity_shards];
        self.encode_into(data, &mut parity)?;
        Ok(parity)
    }

    /// Streaming encode into caller-supplied parity buffers.
    ///
    /// Each buffer in `parity` (one per parity shard) is resized to the
    /// shard length, reusing its existing capacity — a steady-state
    /// caller recycling the same buffers allocates nothing — and
    /// overwritten with one [`mul_matrix`] call over the precomputed
    /// parity rows.
    ///
    /// # Errors
    ///
    /// [`ErasureError::WrongShardCount`] (for `data` or `parity` of the
    /// wrong length) or [`ErasureError::ShardLengthMismatch`].
    pub fn encode_into(
        &self,
        data: &[impl AsRef<[u8]>],
        parity: &mut [Vec<u8>],
    ) -> Result<(), ErasureError> {
        let len = self.check_data(data)?;
        if parity.len() != self.parity_shards {
            return Err(ErasureError::WrongShardCount {
                expected: self.parity_shards,
                actual: parity.len(),
            });
        }
        for out in parity.iter_mut() {
            out.resize(len, 0);
        }
        let k = self.data_shards;
        mul_matrix(&self.rows[k * k..], data, parity);
        Ok(())
    }

    /// Computes the single shard at `index` directly from the data shards
    /// (used by the repair path to regenerate exactly the missing blocks).
    ///
    /// # Errors
    ///
    /// Same input validation as [`encode`](Self::encode), plus
    /// [`ErasureError::IndexOutOfRange`].
    pub fn shard_at(
        &self,
        data: &[impl AsRef<[u8]>],
        index: usize,
    ) -> Result<Vec<u8>, ErasureError> {
        let mut out = vec![0u8; data.first().map_or(0, |d| d.as_ref().len())];
        self.shard_at_into(data, index, &mut out)?;
        Ok(out)
    }

    /// [`shard_at`](Self::shard_at) into `out`, which it overwrites: a
    /// caller that keeps only the data shards encodes one parity shard
    /// on demand into a recycled buffer, or straight into place.
    ///
    /// # Errors
    ///
    /// As [`shard_at`](Self::shard_at), plus
    /// [`ErasureError::ShardLengthMismatch`] when `out` is not one shard
    /// long.
    pub fn shard_at_into(
        &self,
        data: &[impl AsRef<[u8]>],
        index: usize,
        out: &mut [u8],
    ) -> Result<(), ErasureError> {
        let len = self.check_data(data)?;
        if index >= self.total_shards() {
            return Err(ErasureError::IndexOutOfRange {
                index,
                total: self.total_shards(),
            });
        }
        if out.len() != len {
            return Err(ErasureError::ShardLengthMismatch);
        }
        mul_matrix(self.row(index), data, &mut [out]);
        Ok(())
    }

    fn validate_survivors(
        &self,
        shards: &[(usize, impl AsRef<[u8]>)],
        shard_len: usize,
    ) -> Result<(), ErasureError> {
        if shards.len() < self.data_shards {
            return Err(ErasureError::NotEnoughShards {
                available: shards.len(),
                needed: self.data_shards,
            });
        }
        let mut seen = [false; 256];
        for (index, shard) in shards {
            if *index >= self.total_shards() {
                return Err(ErasureError::IndexOutOfRange {
                    index: *index,
                    total: self.total_shards(),
                });
            }
            if seen[*index] {
                return Err(ErasureError::DuplicateIndex { index: *index });
            }
            seen[*index] = true;
            if shard.as_ref().len() != shard_len {
                return Err(ErasureError::ShardLengthMismatch);
            }
        }
        Ok(())
    }

    /// Reconstructs the `k` original data shards from **any** `k` (or
    /// more) surviving shards, supplied as `(shard_index, bytes)` pairs in
    /// any order, into caller-supplied buffers. Exactly the first `k`
    /// supplied shards are used.
    ///
    /// `out` is resized to `k` buffers of `shard_len` bytes, reusing
    /// capacity. Equivalent to building a [`DecodePlan`] for these
    /// survivors and applying it once; callers decoding the same
    /// survivor set repeatedly should build the plan themselves and
    /// amortise the matrix inversion.
    ///
    /// # Errors
    ///
    /// [`ErasureError::NotEnoughShards`] when fewer than `k` survive,
    /// [`ErasureError::IndexOutOfRange`] or
    /// [`ErasureError::DuplicateIndex`] for bad survivor indices, plus
    /// the validation errors of [`encode`](Self::encode).
    pub fn reconstruct_data_into(
        &self,
        shards: &[(usize, impl AsRef<[u8]>)],
        shard_len: usize,
        out: &mut Vec<Vec<u8>>,
    ) -> Result<(), ErasureError> {
        self.validate_survivors(shards, shard_len)?;
        let plan = self.decode_plan_validated(shards)?;
        plan.apply_to_shards(shards, shard_len, out);
        Ok(())
    }

    /// [`reconstruct_data_into`](Self::reconstruct_data_into) with the
    /// `k` data shards written back to back into one buffer: `out` is
    /// resized to `k × shard_len` bytes, reusing capacity, and every
    /// byte of it is overwritten. A caller that joins the data shards
    /// anyway (a restore) decodes straight into its joined form, and a
    /// recycled `out` makes the decode allocate nothing.
    ///
    /// # Errors
    ///
    /// As [`reconstruct_data_into`](Self::reconstruct_data_into).
    pub fn reconstruct_contiguous_into(
        &self,
        shards: &[(usize, impl AsRef<[u8]>)],
        shard_len: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), ErasureError> {
        self.validate_survivors(shards, shard_len)?;
        let plan = self.decode_plan_validated(shards)?;
        plan.apply_contiguous(shards, shard_len, out);
        Ok(())
    }

    /// Builds a reusable decode plan for a survivor set, given as the
    /// shard indices that will be supplied (in the same order). The
    /// plan's matrix inversion happens once here; applying the plan is
    /// pure streaming coefficient work.
    ///
    /// # Errors
    ///
    /// As [`reconstruct_data_into`](Self::reconstruct_data_into) (not-enough /
    /// out-of-range / duplicate indices, a singular decode matrix).
    pub fn decode_plan(&self, survivors: &[usize]) -> Result<DecodePlan, ErasureError> {
        if survivors.len() < self.data_shards {
            return Err(ErasureError::NotEnoughShards {
                available: survivors.len(),
                needed: self.data_shards,
            });
        }
        let mut seen = [false; 256];
        for &index in survivors {
            if index >= self.total_shards() {
                return Err(ErasureError::IndexOutOfRange {
                    index,
                    total: self.total_shards(),
                });
            }
            if seen[index] {
                return Err(ErasureError::DuplicateIndex { index });
            }
            seen[index] = true;
        }
        self.build_plan(&survivors[..self.data_shards])
    }

    /// Plan construction for already-validated survivors.
    fn decode_plan_validated(
        &self,
        shards: &[(usize, impl AsRef<[u8]>)],
    ) -> Result<DecodePlan, ErasureError> {
        let sources: Vec<usize> = shards[..self.data_shards].iter().map(|(i, _)| *i).collect();
        self.build_plan(&sources)
    }

    fn build_plan(&self, sources: &[usize]) -> Result<DecodePlan, ErasureError> {
        let k = self.data_shards;
        // Fast path: the k survivors are all data shards (necessarily a
        // permutation of 0..k once validated distinct) — reconstruction
        // is a reordered copy, no matrix work at all.
        if sources.iter().all(|&i| i < k) {
            return Ok(DecodePlan {
                data_shards: k,
                sources: sources.to_vec(),
                rows: Vec::new(),
                passthrough: true,
            });
        }
        Ok(DecodePlan {
            data_shards: k,
            sources: sources.to_vec(),
            rows: self
                .encode_matrix
                .select_rows(sources)
                .inverse()?
                .to_bytes(),
            passthrough: false,
        })
    }

    /// Regenerates the shards at `wanted` indices from any `k` survivors:
    /// the repair operation of the paper's §2.2.3 (download `k` blocks,
    /// decode, re-encode the `d` missing blocks).
    ///
    /// Decode and re-encode fold into one product: the wanted encode rows
    /// times the survivors' decode rows (a `|wanted| × k` matrix, built
    /// once per call) applied to the survivors, so only the wanted shards
    /// are computed — never the `k` data shards in between.
    ///
    /// # Errors
    ///
    /// As [`reconstruct_data_into`](Self::reconstruct_data_into), plus
    /// [`ErasureError::IndexOutOfRange`] for bad `wanted` indices.
    pub fn reconstruct_shards(
        &self,
        shards: &[(usize, impl AsRef<[u8]>)],
        shard_len: usize,
        wanted: &[usize],
    ) -> Result<Vec<Vec<u8>>, ErasureError> {
        for &w in wanted {
            if w >= self.total_shards() {
                return Err(ErasureError::IndexOutOfRange {
                    index: w,
                    total: self.total_shards(),
                });
            }
        }
        self.validate_survivors(shards, shard_len)?;
        let plan = self.decode_plan_validated(shards)?;
        let coeffs = self.rows_from_sources(&plan, wanted);
        let mut out = vec![vec![0u8; shard_len]; wanted.len()];
        mul_matrix(&coeffs, &source_table(shards)[..self.data_shards], &mut out);
        Ok(out)
    }

    /// The coefficient rows producing the `wanted` shards straight from
    /// `plan`'s sources: `row(w) × decode`, where the decode matrix of a
    /// passthrough plan is the permutation its sources spell.
    fn rows_from_sources(&self, plan: &DecodePlan, wanted: &[usize]) -> Vec<u8> {
        let k = self.data_shards;
        let mut coeffs = vec![0u8; wanted.len() * k];
        if plan.passthrough {
            for (out, &w) in coeffs.chunks_exact_mut(k).zip(wanted) {
                let row = self.row(w);
                for (c, &source) in out.iter_mut().zip(&plan.sources) {
                    *c = row[source];
                }
            }
        } else {
            let wanted_rows: Vec<u8> = wanted.iter().flat_map(|&w| self.row(w)).copied().collect();
            let decode_rows: Vec<&[u8]> = plan.rows.chunks_exact(k).collect();
            let mut outs: Vec<&mut [u8]> = coeffs.chunks_exact_mut(k).collect();
            mul_matrix(&wanted_rows, &decode_rows, &mut outs);
        }
        coeffs
    }
}

/// A precomputed reconstruction: the inverse of the survivor-row matrix
/// for one fixed survivor set, flattened to raw coefficient bytes.
///
/// Built once by [`ReedSolomon::decode_plan`] (or internally per call by
/// [`ReedSolomon::reconstruct_data_into`] and
/// [`ReedSolomon::reconstruct_contiguous_into`]); applying it is one
/// [`mul_matrix`] call over the supplied shards — no matrix algebra, no
/// temporaries, and with recycled output buffers no allocation. Rows for
/// surviving data shards are unit rows, which the kernel turns into
/// copies.
#[derive(Debug, Clone)]
pub struct DecodePlan {
    data_shards: usize,
    /// The `k` shard indices this plan consumes, in supply order.
    sources: Vec<usize>,
    /// `k × k` row-major decode coefficients; empty when `passthrough`.
    rows: Vec<u8>,
    /// All sources are data shards: reconstruction is a reordered copy.
    passthrough: bool,
}

impl DecodePlan {
    /// The shard indices this plan consumes, in the order the shards
    /// must be supplied to [`reconstruct_into`](Self::reconstruct_into).
    pub fn sources(&self) -> &[usize] {
        &self.sources
    }

    /// Whether the plan is a pure copy (all sources are data shards).
    pub fn is_passthrough(&self) -> bool {
        self.passthrough
    }

    /// Reconstructs the `k` data shards into `out`, resizing it to `k`
    /// buffers of `shard_len` bytes (capacity is reused).
    ///
    /// # Errors
    ///
    /// [`ErasureError::ShardLengthMismatch`] if a consumed shard is not
    /// `shard_len` bytes.
    ///
    /// # Panics
    ///
    /// Panics if the first `k` entries of `shards` do not carry exactly
    /// the indices the plan was built for, in the same order — a plan is
    /// only valid for its own survivor set.
    pub fn reconstruct_into(
        &self,
        shards: &[(usize, impl AsRef<[u8]>)],
        shard_len: usize,
        out: &mut Vec<Vec<u8>>,
    ) -> Result<(), ErasureError> {
        let k = self.data_shards;
        assert!(
            shards.len() >= k
                && shards[..k]
                    .iter()
                    .map(|(i, _)| *i)
                    .eq(self.sources.iter().copied()),
            "decode plan applied to a different survivor set than it was built for"
        );
        if shards[..k]
            .iter()
            .any(|(_, s)| s.as_ref().len() != shard_len)
        {
            return Err(ErasureError::ShardLengthMismatch);
        }
        self.apply_to_shards(shards, shard_len, out);
        Ok(())
    }

    /// [`DecodePlan::apply`] into `k` shard buffers, each resized to
    /// `shard_len`.
    fn apply_to_shards(
        &self,
        shards: &[(usize, impl AsRef<[u8]>)],
        shard_len: usize,
        out: &mut Vec<Vec<u8>>,
    ) {
        out.resize_with(self.data_shards, Vec::new);
        out.truncate(self.data_shards);
        for buf in out.iter_mut() {
            buf.resize(shard_len, 0);
        }
        self.apply(shards, out);
    }

    /// [`DecodePlan::apply`] into one buffer resized to `k × shard_len`
    /// bytes, data shard `i` at `i × shard_len`.
    fn apply_contiguous(
        &self,
        shards: &[(usize, impl AsRef<[u8]>)],
        shard_len: usize,
        out: &mut Vec<u8>,
    ) {
        out.resize(self.data_shards * shard_len, 0);
        let mut table: [&mut [u8]; 256] = core::array::from_fn(|_| <&mut [u8]>::default());
        if shard_len > 0 {
            for (slot, chunk) in table.iter_mut().zip(out.chunks_exact_mut(shard_len)) {
                *slot = chunk;
            }
        }
        self.apply(shards, &mut table[..self.data_shards]);
    }

    /// The decode core; inputs are already validated and `outs` holds
    /// `k` buffers of one shard length each, whose old bytes are all
    /// overwritten: data shard `i` lands in `outs[i]`.
    fn apply<O: AsMut<[u8]>>(&self, shards: &[(usize, impl AsRef<[u8]>)], outs: &mut [O]) {
        if self.passthrough {
            for (&source, (_, shard)) in self.sources.iter().zip(shards) {
                outs[source].as_mut().copy_from_slice(shard.as_ref());
            }
            return;
        }
        mul_matrix(&self.rows, &source_table(shards)[..self.data_shards], outs);
    }
}

/// The supplied shards' bytes in supply order, as the matrix kernel's
/// source table — on the stack, since a code word has at most 256.
fn source_table<T: AsRef<[u8]>>(shards: &[(usize, T)]) -> [&[u8]; 256] {
    let mut table: [&[u8]; 256] = [&[]; 256];
    for (slot, (_, shard)) in table.iter_mut().zip(shards) {
        *slot = shard.as_ref();
    }
    table
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    use peerback_gf256::{mul_add_slice, set_backend, Backend};
    use proptest::prelude::*;

    use super::*;
    use crate::matrix::tests::inverse_reference;

    /// The per-pair `encode_into` that `mul_matrix` replaced: one
    /// `mul_add_slice` per (data shard, parity shard).
    fn encode_reference(rs: &ReedSolomon, data: &[Vec<u8>]) -> Vec<Vec<u8>> {
        let k = rs.data_shards();
        let mut parity = vec![vec![0u8; data[0].len()]; rs.parity_shards()];
        for (c, src) in data.iter().enumerate() {
            for (p, out) in parity.iter_mut().enumerate() {
                mul_add_slice(out, src, rs.row(k + p)[c]);
            }
        }
        parity
    }

    /// The per-pair `shard_at`.
    fn shard_at_reference(rs: &ReedSolomon, data: &[Vec<u8>], index: usize) -> Vec<u8> {
        let mut out = vec![0u8; data[0].len()];
        for (c, src) in data.iter().enumerate() {
            mul_add_slice(&mut out, src, rs.row(index)[c]);
        }
        out
    }

    /// `build_plan` on the scalar reference inverse.
    fn plan_reference(rs: &ReedSolomon, sources: &[usize]) -> Result<DecodePlan, ErasureError> {
        let k = rs.data_shards();
        let passthrough = sources.iter().all(|&i| i < k);
        let rows = if passthrough {
            Vec::new()
        } else {
            inverse_reference(&rs.encode_matrix.select_rows(sources))?.to_bytes()
        };
        Ok(DecodePlan {
            data_shards: k,
            sources: sources.to_vec(),
            rows,
            passthrough,
        })
    }

    /// The per-pair `DecodePlan::apply`.
    fn apply_reference(plan: &DecodePlan, shards: &[(usize, Vec<u8>)], len: usize) -> Vec<Vec<u8>> {
        let k = plan.data_shards;
        let mut out = vec![vec![0u8; len]; k];
        for (c, (index, src)) in shards[..k].iter().enumerate() {
            if plan.passthrough {
                out[*index].clone_from(src);
                continue;
            }
            for (r, buf) in out.iter_mut().enumerate() {
                mul_add_slice(buf, src, plan.rows[r * k + c]);
            }
        }
        out
    }

    /// The decode-everything-then-`shard_at` repair.
    fn reconstruct_shards_reference(
        rs: &ReedSolomon,
        plan: &DecodePlan,
        shards: &[(usize, Vec<u8>)],
        len: usize,
        wanted: &[usize],
    ) -> Vec<Vec<u8>> {
        let data = apply_reference(plan, shards, len);
        wanted
            .iter()
            .map(|&w| shard_at_reference(rs, &data, w))
            .collect()
    }

    /// Serialises the tests that repoint the process-wide gf256 backend,
    /// so each comparison runs on the backend it names.
    static BACKEND: Mutex<()> = Mutex::new(());

    /// Geometries and shard lengths the oracle comparison draws from:
    /// every length straddles a vector width, a 2 KiB column tile, or a
    /// register block.
    const GEOMETRIES: [(usize, usize); 6] =
        [(1, 1), (1, 255), (3, 2), (8, 8), (16, 16), (128, 128)];
    const LENGTHS: [usize; 11] = [0, 1, 31, 32, 33, 63, 64, 65, 2048, 2048 + 17, 65536];
    /// Cap on `n · k · len` per case, so the debug-build oracles stay
    /// fast: the wide geometries get the short lengths.
    const PAIR_BYTES: usize = 1 << 21;

    /// One seeded codec exercise: the data, the survivors (shuffled, with
    /// extras past `k`), the wanted shards and one `shard_at` index.
    struct Case {
        rs: ReedSolomon,
        len: usize,
        data: Vec<Vec<u8>>,
        all: Vec<Vec<u8>>,
        survivors: Vec<(usize, Vec<u8>)>,
        wanted: Vec<usize>,
        index: usize,
    }

    /// What every entry point returns for a [`Case`].
    #[derive(Debug, PartialEq)]
    struct Results {
        parity: Vec<Vec<u8>>,
        shard: Vec<u8>,
        plan_rows: Vec<u8>,
        decoded: Vec<Vec<u8>>,
        joined: Vec<u8>,
        repaired: Vec<Vec<u8>>,
    }

    impl Case {
        fn new(k: usize, m: usize, len: usize, seed: u64) -> Case {
            let rs = ReedSolomon::new(k, m).unwrap();
            let n = k + m;
            let mut state = seed | 1;
            let mut next = move || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as usize
            };
            let data: Vec<Vec<u8>> = (0..k)
                .map(|_| (0..len).map(|_| next() as u8).collect())
                .collect();
            let mut all = data.clone();
            all.extend(encode_reference(&rs, &data));
            let mut order: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                order.swap(i, next() % (i + 1));
            }
            let supplied = k + next() % (m + 1);
            let survivors = order[..supplied]
                .iter()
                .map(|&i| (i, all[i].clone()))
                .collect();
            let wanted = (0..next() % 9).map(|_| next() % n).collect();
            let index = next() % n;
            Case {
                rs,
                len,
                data,
                all,
                survivors,
                wanted,
                index,
            }
        }

        fn sources(&self) -> Vec<usize> {
            self.survivors.iter().map(|(i, _)| *i).collect()
        }

        /// The per-pair oracles (the scalar reference inverse included).
        fn expected(&self) -> Results {
            let plan = plan_reference(&self.rs, &self.sources()[..self.rs.data_shards()]).unwrap();
            let decoded = apply_reference(&plan, &self.survivors, self.len);
            Results {
                parity: self.all[self.rs.data_shards()..].to_vec(),
                shard: shard_at_reference(&self.rs, &self.data, self.index),
                joined: decoded.concat(),
                decoded,
                repaired: reconstruct_shards_reference(
                    &self.rs,
                    &plan,
                    &self.survivors,
                    self.len,
                    &self.wanted,
                ),
                plan_rows: plan.rows,
            }
        }

        /// The entry points on the active backend, into recycled buffers
        /// of the wrong shape where they take any.
        fn actual(&self) -> Results {
            let (rs, len) = (&self.rs, self.len);
            let mut parity: Vec<Vec<u8>> = (0..rs.parity_shards())
                .map(|p| vec![0xA5; p % 3 * len / 2])
                .collect();
            rs.encode_into(&self.data, &mut parity).unwrap();
            assert_eq!(
                parity,
                rs.encode(&self.data).unwrap(),
                "encode vs encode_into"
            );
            let plan = rs.decode_plan(&self.sources()).unwrap();
            let mut decoded = vec![vec![0x5A; len / 3]; self.wanted.len() + 1];
            plan.reconstruct_into(&self.survivors, len, &mut decoded)
                .unwrap();
            let mut shards = vec![vec![0x3C; len + 1]];
            rs.reconstruct_data_into(&self.survivors, len, &mut shards)
                .unwrap();
            let mut joined = vec![0xC3; 2 * len + 5];
            rs.reconstruct_contiguous_into(&self.survivors, len, &mut joined)
                .unwrap();
            assert_eq!(
                joined,
                shards.concat(),
                "contiguous decode vs reconstruct_data_into"
            );
            Results {
                parity,
                shard: rs.shard_at(&self.data, self.index).unwrap(),
                plan_rows: plan.rows,
                decoded,
                joined,
                repaired: rs
                    .reconstruct_shards(&self.survivors, len, &self.wanted)
                    .unwrap(),
            }
        }
    }

    /// Every codec entry point against its per-pair oracle under every
    /// available backend; also checks the oracles decode the data.
    fn check_on_every_backend(
        k: usize,
        m: usize,
        len: usize,
        seed: u64,
    ) -> Result<(), TestCaseError> {
        let _serial = BACKEND.lock().unwrap_or_else(|e| e.into_inner());
        let case = Case::new(k, m, len, seed);
        let expect = case.expected();
        prop_assert_eq!(&expect.decoded, &case.data);
        for (shard, &w) in expect.repaired.iter().zip(&case.wanted) {
            prop_assert_eq!(shard, &case.all[w]);
        }
        for backend in Backend::ALL.into_iter().filter(|b| b.available()) {
            let previous = set_backend(backend);
            let got = case.actual();
            set_backend(previous);
            prop_assert_eq!(
                &got,
                &expect,
                "({}, {}) len {} on {}",
                k,
                m,
                len,
                backend.name()
            );
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn entry_points_match_per_pair_oracles_on_every_backend(
            geometry in 0..GEOMETRIES.len(),
            length in 0..LENGTHS.len(),
            seed in any::<u64>(),
        ) {
            let (k, m) = GEOMETRIES[geometry];
            prop_assume!((k + m) * k * LENGTHS[length] <= PAIR_BYTES);
            check_on_every_backend(k, m, LENGTHS[length], seed)?;
        }
    }

    /// The grid the property test samples, walked exhaustively: every
    /// geometry at every length within the cost cap.
    #[test]
    fn entry_points_match_per_pair_oracles_across_the_grid() {
        for (k, m) in GEOMETRIES {
            for len in LENGTHS
                .into_iter()
                .filter(|len| (k + m) * k * len <= PAIR_BYTES)
            {
                check_on_every_backend(k, m, len, (k * 1000 + len) as u64).unwrap();
            }
        }
    }

    #[test]
    fn paper_survivor_sets_plan_like_the_reference_inverse() {
        // The byte_plane pattern (half data, half parity survivors) and
        // all-parity survivors, at the paper geometry.
        let rs = ReedSolomon::paper_default();
        let half: Vec<usize> = (0..128).step_by(2).chain((128..256).step_by(2)).collect();
        let parity: Vec<usize> = (128..256).rev().collect();
        for sources in [half, parity] {
            let plan = rs.decode_plan(&sources).unwrap();
            let expect = plan_reference(&rs, &sources).unwrap();
            assert_eq!(plan.rows, expect.rows);
        }
    }

    fn sample_data(k: usize, len: usize) -> Vec<Vec<u8>> {
        (0..k)
            .map(|i| {
                (0..len)
                    .map(|j| ((i * 31 + j * 7 + 13) % 251) as u8)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn geometry_validation() {
        assert_eq!(
            ReedSolomon::new(0, 4).unwrap_err(),
            ErasureError::ZeroDataShards
        );
        assert_eq!(
            ReedSolomon::new(200, 100).unwrap_err(),
            ErasureError::TooManyShards { requested: 300 }
        );
        assert!(ReedSolomon::new(128, 128).is_ok());
        assert!(ReedSolomon::new(256, 0).is_ok());
        assert!(ReedSolomon::new(1, 255).is_ok());
    }

    #[test]
    fn encoding_matrix_is_systematic() {
        let rs = ReedSolomon::new(5, 3).unwrap();
        for r in 0..5 {
            for c in 0..5 {
                assert_eq!(rs.row(r)[c], u8::from(r == c));
            }
        }
    }

    #[test]
    fn round_trip_with_all_data_shards() {
        let rs = ReedSolomon::new(4, 2).unwrap();
        let data = sample_data(4, 32);
        let survivors: Vec<(usize, Vec<u8>)> = data.iter().cloned().enumerate().collect();
        let mut out = Vec::new();
        rs.reconstruct_data_into(&survivors, 32, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn round_trip_with_parity_only() {
        let rs = ReedSolomon::new(3, 3).unwrap();
        let data = sample_data(3, 16);
        let parity = rs.encode(&data).unwrap();
        let survivors: Vec<(usize, Vec<u8>)> = parity
            .iter()
            .cloned()
            .enumerate()
            .map(|(i, s)| (i + 3, s))
            .collect();
        let mut out = Vec::new();
        rs.reconstruct_data_into(&survivors, 16, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn every_k_subset_recovers_small_geometry() {
        let rs = ReedSolomon::new(3, 2).unwrap();
        let data = sample_data(3, 8);
        let parity = rs.encode(&data).unwrap();
        let mut all: Vec<Vec<u8>> = data.clone();
        all.extend(parity);

        let n = rs.total_shards();
        for a in 0..n {
            for b in (a + 1)..n {
                for c in (b + 1)..n {
                    let survivors = vec![
                        (a, all[a].clone()),
                        (b, all[b].clone()),
                        (c, all[c].clone()),
                    ];
                    let mut out = Vec::new();
                    rs.reconstruct_data_into(&survivors, 8, &mut out).unwrap();
                    assert_eq!(out, data, "subset {a},{b},{c}");
                }
            }
        }
    }

    #[test]
    fn paper_geometry_survives_m_failures() {
        // k = 128, m = 128: losing any 128 shards must be recoverable.
        let rs = ReedSolomon::paper_default();
        let data = sample_data(128, 4);
        let parity = rs.encode(&data).unwrap();
        let mut all = data.clone();
        all.extend(parity);

        // Take an adversarial survivor pattern: every second shard.
        let survivors: Vec<(usize, Vec<u8>)> =
            (0..256).step_by(2).map(|i| (i, all[i].clone())).collect();
        assert_eq!(survivors.len(), 128);
        let mut out = Vec::new();
        rs.reconstruct_data_into(&survivors, 4, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn shard_at_matches_encode() {
        let rs = ReedSolomon::new(4, 3).unwrap();
        let data = sample_data(4, 24);
        let parity = rs.encode(&data).unwrap();
        for i in 0..4 {
            assert_eq!(rs.shard_at(&data, i).unwrap(), data[i], "data shard {i}");
        }
        for (p, expect) in parity.iter().enumerate() {
            assert_eq!(&rs.shard_at(&data, 4 + p).unwrap(), expect, "parity {p}");
        }
        assert!(matches!(
            rs.shard_at(&data, 7),
            Err(ErasureError::IndexOutOfRange { index: 7, total: 7 })
        ));
        // `shard_at_into` overwrites whatever the buffer held, and takes
        // only a buffer one shard long.
        let mut out = vec![0xA5; 24];
        rs.shard_at_into(&data, 5, &mut out).unwrap();
        assert_eq!(out, parity[1]);
        assert!(matches!(
            rs.shard_at_into(&data, 5, &mut [0; 23]),
            Err(ErasureError::ShardLengthMismatch)
        ));
    }

    #[test]
    fn reconstruct_shards_regenerates_missing_blocks() {
        let rs = ReedSolomon::new(4, 4).unwrap();
        let data = sample_data(4, 12);
        let parity = rs.encode(&data).unwrap();
        let mut all = data.clone();
        all.extend(parity.clone());

        // Lose shards 1, 5, 6; repair from {0, 2, 3, 7}.
        let survivors = vec![
            (0usize, all[0].clone()),
            (2, all[2].clone()),
            (3, all[3].clone()),
            (7, all[7].clone()),
        ];
        let repaired = rs.reconstruct_shards(&survivors, 12, &[1, 5, 6]).unwrap();
        assert_eq!(repaired[0], all[1]);
        assert_eq!(repaired[1], all[5]);
        assert_eq!(repaired[2], all[6]);
    }

    #[test]
    fn input_validation_errors() {
        let rs = ReedSolomon::new(4, 2).unwrap();
        let bad_count = sample_data(3, 8);
        assert!(matches!(
            rs.encode(&bad_count),
            Err(ErasureError::WrongShardCount {
                expected: 4,
                actual: 3
            })
        ));

        let mut bad_len = sample_data(4, 8);
        bad_len[2].pop();
        assert!(matches!(
            rs.encode(&bad_len),
            Err(ErasureError::ShardLengthMismatch)
        ));

        let too_few: Vec<(usize, Vec<u8>)> = vec![(0, vec![0; 8]); 1];
        assert!(matches!(
            rs.reconstruct_data_into(&too_few, 8, &mut Vec::new()),
            Err(ErasureError::NotEnoughShards {
                available: 1,
                needed: 4
            })
        ));

        let dup: Vec<(usize, Vec<u8>)> = vec![
            (0, vec![0; 8]),
            (0, vec![0; 8]),
            (1, vec![0; 8]),
            (2, vec![0; 8]),
        ];
        assert!(matches!(
            rs.reconstruct_data_into(&dup, 8, &mut Vec::new()),
            Err(ErasureError::DuplicateIndex { index: 0 })
        ));

        let out_of_range: Vec<(usize, Vec<u8>)> = vec![
            (0, vec![0; 8]),
            (1, vec![0; 8]),
            (2, vec![0; 8]),
            (9, vec![0; 8]),
        ];
        assert!(matches!(
            rs.reconstruct_data_into(&out_of_range, 8, &mut Vec::new()),
            Err(ErasureError::IndexOutOfRange { index: 9, total: 6 })
        ));
    }

    #[test]
    fn zero_length_shards_round_trip() {
        let rs = ReedSolomon::new(2, 2).unwrap();
        let data = vec![vec![], vec![]];
        let parity = rs.encode(&data).unwrap();
        assert_eq!(parity, vec![Vec::<u8>::new(), Vec::new()]);
        let survivors: Vec<(usize, Vec<u8>)> = vec![(2, vec![]), (3, vec![])];
        let mut out = Vec::new();
        rs.reconstruct_data_into(&survivors, 0, &mut out).unwrap();
        assert_eq!(out, data);
        let mut joined = vec![7u8; 3];
        rs.reconstruct_contiguous_into(&survivors, 0, &mut joined)
            .unwrap();
        assert!(joined.is_empty());
    }

    #[test]
    fn encode_into_reuses_buffers_and_matches_encode() {
        let rs = ReedSolomon::new(4, 3).unwrap();
        let data = sample_data(4, 40);
        let fresh = rs.encode(&data).unwrap();

        // Recycled buffers with stale contents and excess capacity.
        let mut parity: Vec<Vec<u8>> = (0..3).map(|_| vec![0xAAu8; 100]).collect();
        let caps: Vec<usize> = parity.iter().map(Vec::capacity).collect();
        rs.encode_into(&data, &mut parity).unwrap();
        assert_eq!(parity, fresh);
        for (p, cap) in parity.iter().zip(caps) {
            assert_eq!(p.capacity(), cap, "capacity must be reused");
        }

        // Wrong parity buffer count is rejected.
        let mut short = vec![Vec::new(); 2];
        assert!(matches!(
            rs.encode_into(&data, &mut short),
            Err(ErasureError::WrongShardCount {
                expected: 3,
                actual: 2
            })
        ));
    }

    #[test]
    fn decode_plan_reconstructs_and_is_reusable() {
        let rs = ReedSolomon::new(4, 4).unwrap();
        let data = sample_data(4, 24);
        let parity = rs.encode(&data).unwrap();
        let mut all = data.clone();
        all.extend(parity);

        // A mixed survivor set, deliberately out of order.
        let survivors: Vec<(usize, Vec<u8>)> = [6usize, 0, 5, 3]
            .iter()
            .map(|&i| (i, all[i].clone()))
            .collect();
        let indices: Vec<usize> = survivors.iter().map(|(i, _)| *i).collect();
        let plan = rs.decode_plan(&indices).unwrap();
        assert!(!plan.is_passthrough());
        assert_eq!(plan.sources(), &indices[..]);

        let mut out = vec![vec![0xEEu8; 3]; 7]; // wrong shape: gets normalised
        plan.reconstruct_into(&survivors, 24, &mut out).unwrap();
        assert_eq!(out, data);

        // Reuse the plan on different bytes with the same survivor set.
        let data2 = sample_data(4, 24)
            .into_iter()
            .map(|mut s| {
                for b in &mut s {
                    *b ^= 0x5f;
                }
                s
            })
            .collect::<Vec<_>>();
        let parity2 = rs.encode(&data2).unwrap();
        let mut all2 = data2.clone();
        all2.extend(parity2);
        let survivors2: Vec<(usize, Vec<u8>)> = [6usize, 0, 5, 3]
            .iter()
            .map(|&i| (i, all2[i].clone()))
            .collect();
        plan.reconstruct_into(&survivors2, 24, &mut out).unwrap();
        assert_eq!(out, data2);
    }

    #[test]
    fn decode_plan_passthrough_for_all_data_survivors() {
        let rs = ReedSolomon::new(3, 2).unwrap();
        let data = sample_data(3, 9);
        let survivors: Vec<(usize, Vec<u8>)> = [2usize, 0, 1]
            .iter()
            .map(|&i| (i, data[i].clone()))
            .collect();
        let plan = rs.decode_plan(&[2, 0, 1]).unwrap();
        assert!(plan.is_passthrough());
        let mut out = Vec::new();
        plan.reconstruct_into(&survivors, 9, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    #[should_panic(expected = "different survivor set")]
    fn decode_plan_rejects_other_survivors() {
        let rs = ReedSolomon::new(2, 2).unwrap();
        let plan = rs.decode_plan(&[0, 2]).unwrap();
        let wrong: Vec<(usize, Vec<u8>)> = vec![(0, vec![0; 4]), (3, vec![0; 4])];
        let _ = plan.reconstruct_into(&wrong, 4, &mut Vec::new());
    }

    #[test]
    fn decode_plan_validation_errors() {
        let rs = ReedSolomon::new(3, 2).unwrap();
        assert!(matches!(
            rs.decode_plan(&[0, 1]),
            Err(ErasureError::NotEnoughShards {
                available: 2,
                needed: 3
            })
        ));
        // A repair from the two parity shards alone is refused the same way.
        let parity_only: Vec<(usize, Vec<u8>)> = vec![(3, vec![0; 4]), (4, vec![0; 4])];
        assert!(matches!(
            rs.reconstruct_shards(&parity_only, 4, &[0, 1, 2]),
            Err(ErasureError::NotEnoughShards {
                available: 2,
                needed: 3
            })
        ));
        assert!(matches!(
            rs.decode_plan(&[0, 1, 9]),
            Err(ErasureError::IndexOutOfRange { index: 9, total: 5 })
        ));
        assert!(matches!(
            rs.decode_plan(&[0, 1, 1]),
            Err(ErasureError::DuplicateIndex { index: 1 })
        ));
    }

    #[test]
    fn pure_replication_geometry_k1() {
        // k = 1 degenerates to replication: every shard equals the data.
        let rs = ReedSolomon::new(1, 3).unwrap();
        let data = vec![vec![1u8, 2, 3]];
        let parity = rs.encode(&data).unwrap();
        for p in &parity {
            assert_eq!(p, &data[0]);
        }
    }
}
