//! Runtime-dispatched SIMD backends for the bulk slice kernels.
//!
//! GF(2^8) multiplication by a constant `c` factors through the two
//! nibbles of each source byte: `c·s = c·(s & 0x0f) ⊕ c·(s >> 4 << 4)`.
//! Both halves range over only 16 values, so a pair of 16-byte lookup
//! tables per constant turns the whole product into two byte shuffles
//! and a XOR — the classic `PSHUFB` formulation used by every fast RS
//! coder. The tables are derived at compile time from the same exp/log
//! tables the scalar path uses, so SIMD output is **byte-identical** to
//! scalar and the workspace's determinism contract is untouched.
//!
//! GFNI goes one step further: `vgf2p8affineqb` applies an 8×8 bit
//! matrix to every byte, and multiplication by a constant is linear over
//! GF(2), so one `const`-built 64-bit matrix per constant (`AFFINE`)
//! turns a 64-byte product into a single instruction. That backend only
//! changes the matrix kernel ([`crate::mul_matrix`]); its single-slice
//! operations run the AVX2 code.
//!
//! The backend is picked once per process (first use) from CPU feature
//! detection, and can be pinned with the `PEERBACK_GF256_BACKEND`
//! environment variable (`scalar`, `ssse3`, `avx2`, or `gfni`) for tests,
//! CI matrices, and benchmarks. A requested backend the host cannot run
//! is clamped down the chain (`gfni → avx2 → ssse3 → scalar`) so CI can
//! iterate all four values unconditionally; an unrecognised value panics.
//!
//! The intrinsics require `unsafe`; every kernel is a `#[target_feature]`
//! function whose contract is "the CPU supports the feature" (which
//! [`Backend::available`] checks before dispatch) plus, for the matrix
//! kernels, in-bounds column ranges, which their one safe caller asserts.
#![allow(unsafe_code)]

use core::sync::atomic::{AtomicU8, Ordering};

use crate::tables::{EXP, LOG};

/// Environment variable that pins the kernel backend for the process.
pub const BACKEND_ENV: &str = "PEERBACK_GF256_BACKEND";

/// Which kernel implementation the `slice` operations run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Portable table-lookup loops; the reference implementation.
    Scalar,
    /// 16-byte split-nibble shuffles (`PSHUFB`), x86-64 with SSSE3.
    Ssse3,
    /// 32-byte split-nibble shuffles, x86-64 with AVX2.
    Avx2,
    /// 64-byte `vgf2p8affineqb` matrix kernel, x86-64 with AVX-512BW and
    /// GFNI; single-slice operations run the AVX2 kernels.
    Gfni,
}

/// The selected backend, encoded as `Backend as u8 + 1`; `0` = not yet
/// chosen. Relaxed ordering suffices: every value written is valid and
/// selection is idempotent.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

impl Backend {
    /// All backends, slowest first.
    pub const ALL: [Backend; 4] = [
        Backend::Scalar,
        Backend::Ssse3,
        Backend::Avx2,
        Backend::Gfni,
    ];

    /// The backend's canonical lowercase name (the `PEERBACK_GF256_BACKEND`
    /// spelling).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Ssse3 => "ssse3",
            Backend::Avx2 => "avx2",
            Backend::Gfni => "gfni",
        }
    }

    /// Parses a canonical backend name.
    pub fn from_name(name: &str) -> Option<Backend> {
        match name {
            "scalar" => Some(Backend::Scalar),
            "ssse3" => Some(Backend::Ssse3),
            "avx2" => Some(Backend::Avx2),
            "gfni" => Some(Backend::Gfni),
            _ => None,
        }
    }

    /// Whether the running CPU can execute this backend.
    pub fn available(self) -> bool {
        match self {
            Backend::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Backend::Ssse3 => std::arch::is_x86_feature_detected!("ssse3"),
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Backend::Gfni => {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512bw")
                    && std::arch::is_x86_feature_detected!("gfni")
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// The next backend down the fallback chain
    /// (`gfni → avx2 → ssse3 → scalar`).
    fn downgrade(self) -> Backend {
        match self {
            Backend::Gfni => Backend::Avx2,
            Backend::Avx2 => Backend::Ssse3,
            _ => Backend::Scalar,
        }
    }

    /// Clamps to the nearest available backend at or below `self`.
    fn clamp_available(mut self) -> Backend {
        while !self.available() {
            self = self.downgrade();
        }
        self
    }

    /// Picks the backend for this process: the `PEERBACK_GF256_BACKEND`
    /// override when set (clamped to what the CPU supports), otherwise
    /// the fastest available.
    ///
    /// # Panics
    ///
    /// Panics if the environment variable holds an unrecognised value —
    /// a misspelled CI matrix entry should fail loudly, not silently
    /// benchmark the wrong kernel.
    pub fn detect() -> Backend {
        if let Ok(name) = std::env::var(BACKEND_ENV) {
            let requested = Backend::from_name(name.trim()).unwrap_or_else(|| {
                panic!("{BACKEND_ENV}={name:?} is not one of: scalar, ssse3, avx2, gfni")
            });
            return requested.clamp_available();
        }
        Backend::Gfni.clamp_available()
    }
}

/// The backend the `slice` kernels currently dispatch to, selecting one
/// via [`Backend::detect`] on first use.
pub fn active_backend() -> Backend {
    match ACTIVE.load(Ordering::Relaxed) {
        0 => {
            let picked = Backend::detect();
            ACTIVE.store(picked as u8 + 1, Ordering::Relaxed);
            picked
        }
        1 => Backend::Scalar,
        2 => Backend::Ssse3,
        3 => Backend::Avx2,
        _ => Backend::Gfni,
    }
}

/// Repoints the process-wide dispatch at `backend` and returns the
/// previously active one. A test/bench knob: production code lets
/// [`Backend::detect`] choose once. All backends produce identical
/// bytes, so switching mid-run never changes results — only speed.
///
/// # Panics
///
/// Panics if `backend` is not available on this CPU.
pub fn set_backend(backend: Backend) -> Backend {
    assert!(
        backend.available(),
        "backend {} is not available on this CPU",
        backend.name()
    );
    let previous = active_backend();
    ACTIVE.store(backend as u8 + 1, Ordering::Relaxed);
    previous
}

/// Compile-time GF(2^8) product (for the table builders below).
const fn gf_mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        return 0;
    }
    EXP[LOG[a as usize] as usize + LOG[b as usize] as usize]
}

const fn build_mul_lo() -> [[u8; 16]; 256] {
    let mut t = [[0u8; 16]; 256];
    let mut c = 0;
    while c < 256 {
        let mut x = 0;
        while x < 16 {
            t[c][x] = gf_mul(c as u8, x as u8);
            x += 1;
        }
        c += 1;
    }
    t
}

const fn build_mul_hi() -> [[u8; 16]; 256] {
    let mut t = [[0u8; 16]; 256];
    let mut c = 0;
    while c < 256 {
        let mut x = 0;
        while x < 16 {
            t[c][x] = gf_mul(c as u8, (x << 4) as u8);
            x += 1;
        }
        c += 1;
    }
    t
}

/// `MUL_LO[c][x] = c · x` for `x < 16` — the low-nibble product table.
static MUL_LO: [[u8; 16]; 256] = build_mul_lo();

/// `MUL_HI[c][x] = c · (x << 4)` — the high-nibble product table.
static MUL_HI: [[u8; 16]; 256] = build_mul_hi();

/// The GF(2) bit matrix of "multiply by `c`", in `vgf2p8affineqb`'s
/// layout: output bit `i` of `c · x` is the parity of `x & row_i`, and
/// row `i` lives in byte `7 - i` of the matrix. Row `i` has bit `j` set
/// when bit `i` of `c · 2^j` is — multiplication by `c` is linear over
/// GF(2), so the products of the eight basis bytes determine it.
const fn build_affine() -> [u64; 256] {
    let mut t = [0u64; 256];
    let mut c = 0;
    while c < 256 {
        let mut matrix = 0u64;
        let mut i = 0;
        while i < 8 {
            let mut row = 0u64;
            let mut j = 0;
            while j < 8 {
                row |= (((gf_mul(c as u8, 1 << j) >> i) & 1) as u64) << j;
                j += 1;
            }
            matrix |= row << (8 * (7 - i));
            i += 1;
        }
        t[c] = matrix;
        c += 1;
    }
    t
}

/// `AFFINE[c]` — the `vgf2p8affineqb` matrix multiplying a byte by `c`.
static AFFINE: [u64; 256] = build_affine();

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The vector kernels proper. Each slice kernel processes whole
    //! 16/32-byte chunks and hands the remainder to the scalar tail; the
    //! matrix kernels cover whole 32/64-byte columns and return where
    //! they stopped. All loads and stores are the unaligned variants, so
    //! sub-slices at any offset are fine.

    use core::arch::x86_64::*;

    use super::{AFFINE, MUL_HI, MUL_LO};
    use crate::slice::{scalar_add_assign, scalar_mul, scalar_mul_add, scalar_mul_in_place};

    /// `dst[i] ^= src[i] * c` over 16-byte chunks.
    ///
    /// # Safety
    ///
    /// The CPU must support SSSE3. Caller guarantees `dst.len() == src.len()`.
    #[target_feature(enable = "ssse3")]
    pub unsafe fn mul_add_ssse3(dst: &mut [u8], src: &[u8], c: u8) {
        // SAFETY: table rows are 16 bytes; unaligned loads read exactly
        // 16 bytes from each.
        let (lo_tbl, hi_tbl) = unsafe {
            (
                _mm_loadu_si128(MUL_LO[c as usize].as_ptr().cast()),
                _mm_loadu_si128(MUL_HI[c as usize].as_ptr().cast()),
            )
        };
        let mask = _mm_set1_epi8(0x0f);
        let mut d = dst.chunks_exact_mut(16);
        let mut s = src.chunks_exact(16);
        for (dc, sc) in (&mut d).zip(&mut s) {
            // SAFETY: both chunks are exactly 16 bytes; loads/stores are
            // the unaligned variants.
            unsafe {
                let sv = _mm_loadu_si128(sc.as_ptr().cast());
                let lo = _mm_and_si128(sv, mask);
                let hi = _mm_and_si128(_mm_srli_epi64::<4>(sv), mask);
                let prod =
                    _mm_xor_si128(_mm_shuffle_epi8(lo_tbl, lo), _mm_shuffle_epi8(hi_tbl, hi));
                let dv = _mm_loadu_si128(dc.as_ptr().cast());
                _mm_storeu_si128(dc.as_mut_ptr().cast(), _mm_xor_si128(dv, prod));
            }
        }
        scalar_mul_add(d.into_remainder(), s.remainder(), c);
    }

    /// `dst[i] = src[i] * c` over 16-byte chunks.
    ///
    /// # Safety
    ///
    /// The CPU must support SSSE3. Caller guarantees `dst.len() == src.len()`.
    #[target_feature(enable = "ssse3")]
    pub unsafe fn mul_ssse3(dst: &mut [u8], src: &[u8], c: u8) {
        // SAFETY: table rows are 16 bytes.
        let (lo_tbl, hi_tbl) = unsafe {
            (
                _mm_loadu_si128(MUL_LO[c as usize].as_ptr().cast()),
                _mm_loadu_si128(MUL_HI[c as usize].as_ptr().cast()),
            )
        };
        let mask = _mm_set1_epi8(0x0f);
        let mut d = dst.chunks_exact_mut(16);
        let mut s = src.chunks_exact(16);
        for (dc, sc) in (&mut d).zip(&mut s) {
            // SAFETY: both chunks are exactly 16 bytes.
            unsafe {
                let sv = _mm_loadu_si128(sc.as_ptr().cast());
                let lo = _mm_and_si128(sv, mask);
                let hi = _mm_and_si128(_mm_srli_epi64::<4>(sv), mask);
                let prod =
                    _mm_xor_si128(_mm_shuffle_epi8(lo_tbl, lo), _mm_shuffle_epi8(hi_tbl, hi));
                _mm_storeu_si128(dc.as_mut_ptr().cast(), prod);
            }
        }
        scalar_mul(d.into_remainder(), s.remainder(), c);
    }

    /// `data[i] *= c` over 16-byte chunks.
    ///
    /// # Safety
    ///
    /// The CPU must support SSSE3.
    #[target_feature(enable = "ssse3")]
    pub unsafe fn mul_in_place_ssse3(data: &mut [u8], c: u8) {
        // SAFETY: table rows are 16 bytes.
        let (lo_tbl, hi_tbl) = unsafe {
            (
                _mm_loadu_si128(MUL_LO[c as usize].as_ptr().cast()),
                _mm_loadu_si128(MUL_HI[c as usize].as_ptr().cast()),
            )
        };
        let mask = _mm_set1_epi8(0x0f);
        let mut d = data.chunks_exact_mut(16);
        for dc in &mut d {
            // SAFETY: the chunk is exactly 16 bytes.
            unsafe {
                let sv = _mm_loadu_si128(dc.as_ptr().cast());
                let lo = _mm_and_si128(sv, mask);
                let hi = _mm_and_si128(_mm_srli_epi64::<4>(sv), mask);
                let prod =
                    _mm_xor_si128(_mm_shuffle_epi8(lo_tbl, lo), _mm_shuffle_epi8(hi_tbl, hi));
                _mm_storeu_si128(dc.as_mut_ptr().cast(), prod);
            }
        }
        scalar_mul_in_place(d.into_remainder(), c);
    }

    /// `dst[i] ^= src[i]` over 16-byte chunks (plain XOR, no tables).
    ///
    /// # Safety
    ///
    /// The CPU must support SSE2 (any x86-64; gated on SSSE3 to share
    /// the dispatch arm). Caller guarantees `dst.len() == src.len()`.
    #[target_feature(enable = "ssse3")]
    pub unsafe fn add_assign_ssse3(dst: &mut [u8], src: &[u8]) {
        let mut d = dst.chunks_exact_mut(16);
        let mut s = src.chunks_exact(16);
        for (dc, sc) in (&mut d).zip(&mut s) {
            // SAFETY: both chunks are exactly 16 bytes.
            unsafe {
                let sv = _mm_loadu_si128(sc.as_ptr().cast());
                let dv = _mm_loadu_si128(dc.as_ptr().cast());
                _mm_storeu_si128(dc.as_mut_ptr().cast(), _mm_xor_si128(dv, sv));
            }
        }
        scalar_add_assign(d.into_remainder(), s.remainder());
    }

    /// Broadcasts a 16-byte table row into both lanes of a 256-bit
    /// register.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2; `row` is a 16-byte table row.
    #[target_feature(enable = "avx2")]
    unsafe fn broadcast_row(row: &[u8; 16]) -> __m256i {
        // SAFETY: the row is exactly 16 bytes; the load is unaligned.
        unsafe { _mm256_broadcastsi128_si256(_mm_loadu_si128(row.as_ptr().cast())) }
    }

    /// `dst[i] ^= src[i] * c` over 32-byte chunks.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2. Caller guarantees `dst.len() == src.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn mul_add_avx2(dst: &mut [u8], src: &[u8], c: u8) {
        // SAFETY: AVX2 is enabled for this function.
        let (lo_tbl, hi_tbl) = unsafe {
            (
                broadcast_row(&MUL_LO[c as usize]),
                broadcast_row(&MUL_HI[c as usize]),
            )
        };
        let mask = _mm256_set1_epi8(0x0f);
        let mut d = dst.chunks_exact_mut(32);
        let mut s = src.chunks_exact(32);
        for (dc, sc) in (&mut d).zip(&mut s) {
            // SAFETY: both chunks are exactly 32 bytes; loads/stores are
            // the unaligned variants.
            unsafe {
                let sv = _mm256_loadu_si256(sc.as_ptr().cast());
                let lo = _mm256_and_si256(sv, mask);
                let hi = _mm256_and_si256(_mm256_srli_epi64::<4>(sv), mask);
                let prod = _mm256_xor_si256(
                    _mm256_shuffle_epi8(lo_tbl, lo),
                    _mm256_shuffle_epi8(hi_tbl, hi),
                );
                let dv = _mm256_loadu_si256(dc.as_ptr().cast());
                _mm256_storeu_si256(dc.as_mut_ptr().cast(), _mm256_xor_si256(dv, prod));
            }
        }
        // SAFETY: AVX2 implies SSSE3; the remainder is < 32 bytes.
        unsafe { mul_add_ssse3(d.into_remainder(), s.remainder(), c) }
    }

    /// `dst[i] = src[i] * c` over 32-byte chunks.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2. Caller guarantees `dst.len() == src.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn mul_avx2(dst: &mut [u8], src: &[u8], c: u8) {
        // SAFETY: AVX2 is enabled for this function.
        let (lo_tbl, hi_tbl) = unsafe {
            (
                broadcast_row(&MUL_LO[c as usize]),
                broadcast_row(&MUL_HI[c as usize]),
            )
        };
        let mask = _mm256_set1_epi8(0x0f);
        let mut d = dst.chunks_exact_mut(32);
        let mut s = src.chunks_exact(32);
        for (dc, sc) in (&mut d).zip(&mut s) {
            // SAFETY: both chunks are exactly 32 bytes.
            unsafe {
                let sv = _mm256_loadu_si256(sc.as_ptr().cast());
                let lo = _mm256_and_si256(sv, mask);
                let hi = _mm256_and_si256(_mm256_srli_epi64::<4>(sv), mask);
                let prod = _mm256_xor_si256(
                    _mm256_shuffle_epi8(lo_tbl, lo),
                    _mm256_shuffle_epi8(hi_tbl, hi),
                );
                _mm256_storeu_si256(dc.as_mut_ptr().cast(), prod);
            }
        }
        // SAFETY: AVX2 implies SSSE3; the remainder is < 32 bytes.
        unsafe { mul_ssse3(d.into_remainder(), s.remainder(), c) }
    }

    /// `data[i] *= c` over 32-byte chunks.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn mul_in_place_avx2(data: &mut [u8], c: u8) {
        // SAFETY: AVX2 is enabled for this function.
        let (lo_tbl, hi_tbl) = unsafe {
            (
                broadcast_row(&MUL_LO[c as usize]),
                broadcast_row(&MUL_HI[c as usize]),
            )
        };
        let mask = _mm256_set1_epi8(0x0f);
        let mut d = data.chunks_exact_mut(32);
        for dc in &mut d {
            // SAFETY: the chunk is exactly 32 bytes.
            unsafe {
                let sv = _mm256_loadu_si256(dc.as_ptr().cast());
                let lo = _mm256_and_si256(sv, mask);
                let hi = _mm256_and_si256(_mm256_srli_epi64::<4>(sv), mask);
                let prod = _mm256_xor_si256(
                    _mm256_shuffle_epi8(lo_tbl, lo),
                    _mm256_shuffle_epi8(hi_tbl, hi),
                );
                _mm256_storeu_si256(dc.as_mut_ptr().cast(), prod);
            }
        }
        // SAFETY: AVX2 implies SSSE3; the remainder is < 32 bytes.
        unsafe { mul_in_place_ssse3(d.into_remainder(), c) }
    }

    /// `dst[i] ^= src[i]` over 32-byte chunks.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2. Caller guarantees `dst.len() == src.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn add_assign_avx2(dst: &mut [u8], src: &[u8]) {
        let mut d = dst.chunks_exact_mut(32);
        let mut s = src.chunks_exact(32);
        for (dc, sc) in (&mut d).zip(&mut s) {
            // SAFETY: both chunks are exactly 32 bytes.
            unsafe {
                let sv = _mm256_loadu_si256(sc.as_ptr().cast());
                let dv = _mm256_loadu_si256(dc.as_ptr().cast());
                _mm256_storeu_si256(dc.as_mut_ptr().cast(), _mm256_xor_si256(dv, sv));
            }
        }
        // SAFETY: AVX2 implies SSSE3; the remainder is < 32 bytes.
        unsafe { add_assign_ssse3(d.into_remainder(), s.remainder()) }
    }

    /// Register-blocked matrix product over whole 32-byte columns of
    /// `start..end`: `outs[g][o] = Σ_j rows[g][j] · srcs[j][o]`. Each
    /// column of the `G` outputs accumulates in registers across every
    /// source (one source load and nibble split shared by all `G` rows)
    /// and is stored once. Returns the end of the covered prefix; the
    /// caller finishes the sub-32-byte remainder.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2. Caller guarantees `rows.len() ==
    /// outs.len() == G`, `srcs.len() <= N`, every row holds `srcs.len()`
    /// coefficients, and every source and output is at least `end` bytes
    /// long.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_avx2<const G: usize, const N: usize>(
        rows: &[&[u8]],
        srcs: &[&[u8]],
        outs: &mut [&mut [u8]],
        start: usize,
        end: usize,
    ) -> usize {
        // The block's coefficients, source-major, so the inner loop reads
        // them at fixed offsets.
        let mut coeffs = [[0u8; G]; N];
        for (g, row) in rows.iter().enumerate() {
            for (c, &coeff) in coeffs.iter_mut().zip(&row[..srcs.len()]) {
                c[g] = coeff;
            }
        }
        let mask = _mm256_set1_epi8(0x0f);
        let stop = start + (end - start) / 32 * 32;
        for o in (start..stop).step_by(32) {
            let mut acc = [_mm256_setzero_si256(); G];
            for (c, src) in coeffs.iter().zip(srcs) {
                // SAFETY: `o + 32 <= end <= src.len()`; unaligned load.
                let sv = unsafe { _mm256_loadu_si256(src.as_ptr().add(o).cast()) };
                let lo = _mm256_and_si256(sv, mask);
                let hi = _mm256_and_si256(_mm256_srli_epi64::<4>(sv), mask);
                for (a, &c) in acc.iter_mut().zip(c) {
                    // SAFETY: AVX2 is enabled for this function.
                    let (lo_tbl, hi_tbl) = unsafe {
                        (
                            broadcast_row(&MUL_LO[c as usize]),
                            broadcast_row(&MUL_HI[c as usize]),
                        )
                    };
                    let prod = _mm256_xor_si256(
                        _mm256_shuffle_epi8(lo_tbl, lo),
                        _mm256_shuffle_epi8(hi_tbl, hi),
                    );
                    *a = _mm256_xor_si256(*a, prod);
                }
            }
            for (a, out) in acc.iter().zip(outs.iter_mut()) {
                // SAFETY: `o + 32 <= end <= out.len()`; unaligned store.
                unsafe { _mm256_storeu_si256(out.as_mut_ptr().add(o).cast(), *a) };
            }
        }
        stop
    }

    /// [`dot_avx2`] over 64-byte columns with one `vgf2p8affineqb` and
    /// one XOR per (row, source) pair.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F/BW and GFNI; the slice contract is
    /// [`dot_avx2`]'s.
    #[target_feature(enable = "avx512f,avx512bw,gfni")]
    pub unsafe fn dot_gfni<const G: usize, const N: usize>(
        rows: &[&[u8]],
        srcs: &[&[u8]],
        outs: &mut [&mut [u8]],
        start: usize,
        end: usize,
    ) -> usize {
        // The block's matrices, source-major, so the inner loop is one
        // broadcast-operand affine and one XOR per pair.
        let mut matrices = [[0u64; G]; N];
        for (g, row) in rows.iter().enumerate() {
            for (m, &c) in matrices.iter_mut().zip(&row[..srcs.len()]) {
                m[g] = AFFINE[c as usize];
            }
        }
        let stop = start + (end - start) / 64 * 64;
        for o in (start..stop).step_by(64) {
            let mut acc = [_mm512_setzero_si512(); G];
            for (m, src) in matrices.iter().zip(srcs) {
                // SAFETY: `o + 64 <= end <= src.len()`; unaligned load.
                let sv = unsafe { _mm512_loadu_si512(src.as_ptr().add(o).cast()) };
                for (a, &matrix) in acc.iter_mut().zip(m) {
                    let matrix = _mm512_set1_epi64(matrix as i64);
                    *a = _mm512_xor_si512(*a, _mm512_gf2p8affine_epi64_epi8::<0>(sv, matrix));
                }
            }
            for (a, out) in acc.iter().zip(outs.iter_mut()) {
                // SAFETY: `o + 64 <= end <= out.len()`; unaligned store.
                unsafe { _mm512_storeu_si512(out.as_mut_ptr().add(o).cast(), *a) };
            }
        }
        stop
    }
}

/// Rows per register block of the matrix kernels: eight accumulators
/// plus the shared source, nibble and table registers fit AVX2's 16
/// vector registers (GFNI has 32, but measured no faster at sixteen).
pub(crate) const BLOCK_ROWS: usize = 8;

/// Most sources or outputs one matrix product takes — a GF(2^8) code
/// word's shard count, which sizes the stack tables.
pub(crate) const MAX_SHARDS: usize = 256;

/// Calls `x86::$kernel::<G, N>(args)` with `G` = the runtime block
/// height.
#[cfg(target_arch = "x86_64")]
macro_rules! with_block_rows {
    ($rows:expr, $kernel:ident::<N>, $($arg:expr),*) => {
        match $rows {
            2 => x86::$kernel::<2, N>($($arg),*),
            3 => x86::$kernel::<3, N>($($arg),*),
            4 => x86::$kernel::<4, N>($($arg),*),
            5 => x86::$kernel::<5, N>($($arg),*),
            6 => x86::$kernel::<6, N>($($arg),*),
            7 => x86::$kernel::<7, N>($($arg),*),
            8 => x86::$kernel::<8, N>($($arg),*),
            _ => unreachable!("register blocks hold 2..=BLOCK_ROWS rows"),
        }
    };
}

impl Backend {
    /// `dst[i] ^= src[i] * c` on this backend.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths or the backend is
    /// unavailable on this CPU.
    pub fn mul_add_slice(self, dst: &mut [u8], src: &[u8], c: u8) {
        assert_eq!(dst.len(), src.len(), "slice length mismatch");
        match c {
            0 => {}
            1 => self.add_assign_slice(dst, src),
            _ => match self.checked() {
                Backend::Scalar => crate::slice::scalar_mul_add(dst, src, c),
                #[cfg(target_arch = "x86_64")]
                // SAFETY: `checked` verified the CPU feature; lengths
                // were asserted equal above.
                Backend::Ssse3 => unsafe { x86::mul_add_ssse3(dst, src, c) },
                #[cfg(target_arch = "x86_64")]
                // SAFETY: as above, for AVX2 (GFNI hosts have it too).
                Backend::Avx2 | Backend::Gfni => unsafe { x86::mul_add_avx2(dst, src, c) },
                #[cfg(not(target_arch = "x86_64"))]
                _ => unreachable!("checked() only returns Scalar off x86-64"),
            },
        }
    }

    /// `dst[i] = src[i] * c` on this backend.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths or the backend is
    /// unavailable on this CPU.
    pub fn mul_slice(self, dst: &mut [u8], src: &[u8], c: u8) {
        assert_eq!(dst.len(), src.len(), "slice length mismatch");
        match c {
            0 => dst.fill(0),
            1 => dst.copy_from_slice(src),
            _ => match self.checked() {
                Backend::Scalar => crate::slice::scalar_mul(dst, src, c),
                #[cfg(target_arch = "x86_64")]
                // SAFETY: `checked` verified the CPU feature; lengths
                // were asserted equal above.
                Backend::Ssse3 => unsafe { x86::mul_ssse3(dst, src, c) },
                #[cfg(target_arch = "x86_64")]
                // SAFETY: as above, for AVX2 (GFNI hosts have it too).
                Backend::Avx2 | Backend::Gfni => unsafe { x86::mul_avx2(dst, src, c) },
                #[cfg(not(target_arch = "x86_64"))]
                _ => unreachable!("checked() only returns Scalar off x86-64"),
            },
        }
    }

    /// `data[i] *= c` on this backend.
    ///
    /// # Panics
    ///
    /// Panics if the backend is unavailable on this CPU.
    pub fn mul_slice_in_place(self, data: &mut [u8], c: u8) {
        match c {
            0 => data.fill(0),
            1 => {}
            _ => match self.checked() {
                Backend::Scalar => crate::slice::scalar_mul_in_place(data, c),
                #[cfg(target_arch = "x86_64")]
                // SAFETY: `checked` verified the CPU feature.
                Backend::Ssse3 => unsafe { x86::mul_in_place_ssse3(data, c) },
                #[cfg(target_arch = "x86_64")]
                // SAFETY: as above, for AVX2 (GFNI hosts have it too).
                Backend::Avx2 | Backend::Gfni => unsafe { x86::mul_in_place_avx2(data, c) },
                #[cfg(not(target_arch = "x86_64"))]
                _ => unreachable!("checked() only returns Scalar off x86-64"),
            },
        }
    }

    /// `dst[i] ^= src[i]` on this backend.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths or the backend is
    /// unavailable on this CPU.
    pub fn add_assign_slice(self, dst: &mut [u8], src: &[u8]) {
        assert_eq!(dst.len(), src.len(), "slice length mismatch");
        match self.checked() {
            Backend::Scalar => crate::slice::scalar_add_assign(dst, src),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `checked` verified the CPU feature; lengths were
            // asserted equal above.
            Backend::Ssse3 => unsafe { x86::add_assign_ssse3(dst, src) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above, for AVX2 (GFNI hosts have it too).
            Backend::Avx2 | Backend::Gfni => unsafe { x86::add_assign_avx2(dst, src) },
            #[cfg(not(target_arch = "x86_64"))]
            _ => unreachable!("checked() only returns Scalar off x86-64"),
        }
    }

    /// Runs this backend's register-blocked matrix kernel over the
    /// widest prefix of `start..end` it covers — `outs[g][o] = Σ_j
    /// rows[g][j] · srcs[j][o]` — and returns where it stopped. Scalar
    /// and SSSE3 have no blocked kernel, and a single row has no source
    /// load to share (it streams faster through the slice kernels): those
    /// cover nothing, and the caller finishes with the slice kernels.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= rows.len() == outs.len() <= BLOCK_ROWS`,
    /// `srcs.len() <= N`, every row holds `srcs.len()` coefficients,
    /// every slice reaches `end`, and the backend is available.
    pub(crate) fn dot_block_prefix<const N: usize>(
        self,
        rows: &[&[u8]],
        srcs: &[&[u8]],
        outs: &mut [&mut [u8]],
        start: usize,
        end: usize,
    ) -> usize {
        assert!(
            (1..=BLOCK_ROWS).contains(&rows.len()) && rows.len() == outs.len(),
            "a register block holds 1..={BLOCK_ROWS} rows, one output each"
        );
        assert!(start <= end, "column range runs backwards");
        assert!(
            srcs.len() <= N
                && rows.iter().all(|r| r.len() == srcs.len())
                && srcs.iter().all(|s| s.len() >= end)
                && outs.iter().all(|o| o.len() >= end),
            "matrix block shape mismatch"
        );
        if rows.len() == 1 {
            return start;
        }
        match self.checked() {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `checked` verified AVX2; the asserts above are the
            // kernel's slice contract.
            Backend::Avx2 => unsafe {
                with_block_rows!(rows.len(), dot_avx2::<N>, rows, srcs, outs, start, end)
            },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above, for AVX-512BW + GFNI.
            Backend::Gfni => unsafe {
                with_block_rows!(rows.len(), dot_gfni::<N>, rows, srcs, outs, start, end)
            },
            _ => start,
        }
    }

    /// Guards the unsafe dispatch arms: panics on x86-64 if the feature
    /// is missing (calling a `#[target_feature]` function without it
    /// would be UB), and collapses the SIMD variants to scalar on other
    /// architectures where the kernels do not exist.
    #[inline]
    fn checked(self) -> Backend {
        #[cfg(target_arch = "x86_64")]
        {
            assert!(
                self.available(),
                "backend {} is not available on this CPU",
                self.name()
            );
            self
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            Backend::Scalar
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nibble_tables_agree_with_field_multiplication() {
        for c in 0..256usize {
            for x in 0..16usize {
                let lo = (crate::Gf256::new(c as u8) * crate::Gf256::new(x as u8)).value();
                let hi = (crate::Gf256::new(c as u8) * crate::Gf256::new((x << 4) as u8)).value();
                assert_eq!(MUL_LO[c][x], lo, "lo c={c} x={x}");
                assert_eq!(MUL_HI[c][x], hi, "hi c={c} x={x}");
            }
        }
    }

    #[test]
    fn names_round_trip() {
        for b in Backend::ALL {
            assert_eq!(Backend::from_name(b.name()), Some(b));
        }
        assert_eq!(Backend::from_name("sse9"), None);
    }

    #[test]
    fn scalar_is_always_available() {
        assert!(Backend::Scalar.available());
        assert_eq!(Backend::Ssse3.downgrade(), Backend::Scalar);
        assert_eq!(Backend::Avx2.downgrade(), Backend::Ssse3);
        assert_eq!(Backend::Gfni.downgrade(), Backend::Avx2);
    }

    /// `vgf2p8affineqb` on one byte: output bit `i` is the parity of
    /// `x & matrix.byte[7 - i]`.
    fn affine_byte(matrix: u64, x: u8) -> u8 {
        (0..8).fold(0u8, |acc, i| {
            let row = (matrix >> (8 * (7 - i))) as u8;
            acc | ((((row & x).count_ones() & 1) as u8) << i)
        })
    }

    #[test]
    fn affine_matrices_agree_with_field_multiplication() {
        for c in 0..=255u8 {
            for x in 0..=255u8 {
                assert_eq!(
                    affine_byte(AFFINE[c as usize], x),
                    (crate::Gf256::new(c) * crate::Gf256::new(x)).value(),
                    "c={c} x={x}"
                );
            }
        }
    }

    /// The instruction itself, where the host has it: every byte value
    /// times every constant, through a two-row block whose second
    /// source is zero (so the first output is `c · x`).
    #[test]
    fn gfni_kernel_agrees_with_field_multiplication() {
        if !Backend::Gfni.available() {
            return;
        }
        let src: Vec<u8> = (0..=255u8).collect();
        let zero = [0u8; 256];
        for c in 0..=255u8 {
            let (mut product, mut copy) = (vec![0xAAu8; 256], vec![0x55u8; 256]);
            let rows: [&[u8]; 2] = [&[c, 1], &[1, c]];
            let end = Backend::Gfni.dot_block_prefix::<2>(
                &rows,
                &[&src, &zero],
                &mut [&mut product, &mut copy],
                0,
                256,
            );
            assert_eq!(end, 256);
            assert_eq!(copy, src, "c={c}");
            for (x, &got) in product.iter().enumerate() {
                let expect = (crate::Gf256::new(c) * crate::Gf256::new(x as u8)).value();
                assert_eq!(got, expect, "c={c} x={x}");
            }
        }
    }

    #[test]
    fn set_backend_round_trips() {
        let original = active_backend();
        let previous = set_backend(Backend::Scalar);
        assert_eq!(previous, original);
        assert_eq!(active_backend(), Backend::Scalar);
        set_backend(original);
        assert_eq!(active_backend(), original);
    }

    #[test]
    fn every_available_backend_matches_scalar_on_a_smoke_input() {
        let src: Vec<u8> = (0..1000u32).map(|i| (i * 31 + 7) as u8).collect();
        let base: Vec<u8> = (0..1000u32).map(|i| (i * 17 + 3) as u8).collect();
        for backend in Backend::ALL {
            if !backend.available() {
                continue;
            }
            for c in [0u8, 1, 2, 0x1d, 0x80, 0xff] {
                let mut expect = base.clone();
                Backend::Scalar.mul_add_slice(&mut expect, &src, c);
                let mut got = base.clone();
                backend.mul_add_slice(&mut got, &src, c);
                assert_eq!(got, expect, "mul_add {} c={c}", backend.name());
            }
        }
    }
}
