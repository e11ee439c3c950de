//! Arithmetic over the Galois field GF(2^8).
//!
//! This crate is the lowest layer of the `peerback` workspace: it provides
//! the finite-field arithmetic that the Reed–Solomon codec in
//! `peerback-erasure` is built on.
//!
//! The field is realised as `GF(2)[x] / (x^8 + x^4 + x^3 + x^2 + 1)`
//! (primitive polynomial `0x11d`, the one used by QR codes and most storage
//! systems), with `x` (= `2`) as the multiplicative generator. Exp/log
//! tables are computed at compile time, so multiplication and division are
//! two table lookups and an addition.
//!
//! Bulk work has two entry points. The slice kernels (`mul_add_slice`
//! and friends) run one constant over one buffer; [`mul_matrix`] runs a
//! whole coefficient matrix over a set of shards — column-tiled,
//! register-blocked, with zero and unit rows short-cut — and is what
//! every Reed–Solomon product in `peerback-erasure` goes through. Both
//! dispatch at runtime to the fastest [`Backend`] the CPU has (scalar,
//! SSSE3, AVX2, or AVX-512 + GFNI) and produce identical bytes on all
//! of them.
//!
//! # Quickstart
//!
//! ```
//! use peerback_gf256::Gf256;
//!
//! let a = Gf256::new(0x53);
//! let b = Gf256::new(0xca);
//! let product = a * b;
//! assert_eq!(product / b, a);
//! assert_eq!(a + a, Gf256::ZERO); // characteristic 2: addition is XOR
//! ```

mod field;
mod matrix;
mod poly;
pub mod simd;
mod slice;
mod tables;

pub use field::Gf256;
pub use matrix::mul_matrix;
pub use poly::Poly;
pub use simd::{active_backend, set_backend, Backend, BACKEND_ENV};
pub use slice::{add_assign_slice, mul_add_slice, mul_slice, mul_slice_in_place};
pub use tables::{EXP_TABLE, LOG_TABLE, PRIMITIVE_POLY};
