//! Error type for the erasure codec.

use core::fmt;

/// Errors returned by the Reed–Solomon codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ErasureError {
    /// `k` must be at least 1.
    ZeroDataShards,
    /// `n = k + m` may not exceed the field size (256 for GF(2^8)).
    TooManyShards {
        /// Requested total shard count.
        requested: usize,
    },
    /// Encoding/decoding input had the wrong number of shards.
    WrongShardCount {
        /// Number of shards expected by the codec geometry.
        expected: usize,
        /// Number of shards actually supplied.
        actual: usize,
    },
    /// Supplied shards have inconsistent lengths.
    ShardLengthMismatch,
    /// A shard index is outside `0..n`.
    IndexOutOfRange {
        /// The offending index.
        index: usize,
        /// Total shard count `n`.
        total: usize,
    },
    /// The same shard index was supplied twice.
    DuplicateIndex {
        /// The duplicated index.
        index: usize,
    },
    /// Fewer than `k` shards are available: the data is unrecoverable.
    NotEnoughShards {
        /// Shards available.
        available: usize,
        /// Shards needed (`k`).
        needed: usize,
    },
    /// Matrix inversion failed; with distinct Vandermonde evaluation points
    /// this indicates corrupted input rather than a geometry problem.
    SingularMatrix,
}

impl fmt::Display for ErasureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ErasureError::ZeroDataShards => write!(f, "k (data shards) must be at least 1"),
            ErasureError::TooManyShards { requested } => write!(
                f,
                "total shard count {requested} exceeds field size 256 of GF(2^8)"
            ),
            ErasureError::WrongShardCount { expected, actual } => {
                write!(f, "expected {expected} shards, got {actual}")
            }
            ErasureError::ShardLengthMismatch => write!(f, "shards have inconsistent lengths"),
            ErasureError::IndexOutOfRange { index, total } => {
                write!(f, "shard index {index} out of range for {total} shards")
            }
            ErasureError::DuplicateIndex { index } => {
                write!(f, "shard index {index} supplied more than once")
            }
            ErasureError::NotEnoughShards { available, needed } => write!(
                f,
                "only {available} shards available but {needed} are needed to decode"
            ),
            ErasureError::SingularMatrix => write!(f, "decoding matrix is singular"),
        }
    }
}

impl std::error::Error for ErasureError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let cases: Vec<(ErasureError, &str)> = vec![
            (ErasureError::ZeroDataShards, "at least 1"),
            (ErasureError::TooManyShards { requested: 300 }, "300"),
            (
                ErasureError::WrongShardCount {
                    expected: 4,
                    actual: 3,
                },
                "expected 4",
            ),
            (ErasureError::ShardLengthMismatch, "inconsistent"),
            (
                ErasureError::IndexOutOfRange { index: 9, total: 6 },
                "index 9",
            ),
            (ErasureError::DuplicateIndex { index: 2 }, "index 2"),
            (
                ErasureError::NotEnoughShards {
                    available: 3,
                    needed: 4,
                },
                "only 3",
            ),
            (ErasureError::SingularMatrix, "singular"),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg:?} should contain {needle:?}");
        }
    }
}
