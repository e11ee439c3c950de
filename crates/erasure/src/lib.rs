//! Systematic Reed–Solomon erasure coding over GF(2^8).
//!
//! The backup system described by Bernard & Le Fessant (2009) stores each
//! archive as `n = k + m` blocks such that **any** `k` of them reconstruct
//! the original data (§2.1 of the paper, with the headline configuration
//! `k = 128`, `m = 128`). This crate provides that codec:
//!
//! * [`ReedSolomon`] — a reusable encoder/decoder for a fixed `(k, m)`
//!   geometry. The code is *systematic*: the first `k` shards are the
//!   original data blocks, matching the paper's description of
//!   Reed–Solomon ("the k first blocks are the original ones"). Every
//!   product it computes — encode, [`DecodePlan`] application, single
//!   shards, and repair (wanted rows × decode rows, so only the missing
//!   shards are ever computed) — is one `peerback_gf256::mul_matrix`
//!   call.
//! * [`Matrix`] — dense matrix algebra over GF(2^8) (construction,
//!   multiplication, Gauss–Jordan inversion with SIMD row operations)
//!   used to build the encoding matrix and to invert shard subsets
//!   during reconstruction.
//!
//! # Quickstart
//!
//! ```
//! use peerback_erasure::ReedSolomon;
//!
//! let rs = ReedSolomon::new(4, 2).unwrap();
//! let data: Vec<Vec<u8>> = (0..4).map(|i| vec![i as u8; 16]).collect();
//! let mut shards: Vec<Vec<u8>> = data.clone();
//! shards.extend(rs.encode(&data).unwrap());
//!
//! // Lose any two shards...
//! let survivors = vec![
//!     (5usize, shards[5].clone()),
//!     (2, shards[2].clone()),
//!     (0, shards[0].clone()),
//!     (4, shards[4].clone()),
//! ];
//! let mut recovered = Vec::new();
//! rs.reconstruct_data_into(&survivors, 16, &mut recovered).unwrap();
//! assert_eq!(recovered, data);
//! ```

mod error;
mod matrix;
mod rs;

pub use error::ErasureError;
pub use matrix::Matrix;
pub use rs::{DecodePlan, ReedSolomon};
