//! The restore pipeline (paper §2.2.2): retrieved blocks → archive.
//!
//! "To download an archive, the peer must reach at least k of its
//! partners for that archive. Once k blocks have been downloaded, the k
//! original blocks are decoded from these k blocks, and the content of
//! the archive becomes available."

use core::fmt;

use peerback_erasure::{ErasureError, ReedSolomon};

use crate::archive::Archive;
use crate::crypt::Cipher;
use crate::master::ArchiveDescriptor;
use crate::wire::WireError;

/// Restore failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// Codec-level failure (not enough shards, bad indices, …).
    Erasure(ErasureError),
    /// The decoded bytes did not parse as an archive — wrong session key
    /// or corrupted shards.
    Malformed(WireError),
    /// The decoded archive id does not match the descriptor.
    IdMismatch {
        /// Id recorded in the descriptor.
        expected: u64,
        /// Id found in the decoded archive.
        actual: u64,
    },
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::Erasure(e) => write!(f, "erasure decoding failed: {e}"),
            RestoreError::Malformed(e) => {
                write!(f, "decoded bytes are not a valid archive: {e}")
            }
            RestoreError::IdMismatch { expected, actual } => {
                write!(
                    f,
                    "archive id mismatch: descriptor {expected}, decoded {actual}"
                )
            }
        }
    }
}

impl std::error::Error for RestoreError {}

impl From<ErasureError> for RestoreError {
    fn from(e: ErasureError) -> Self {
        RestoreError::Erasure(e)
    }
}

impl From<WireError> for RestoreError {
    fn from(e: WireError) -> Self {
        RestoreError::Malformed(e)
    }
}

/// Decodes archives from any `k` retrieved blocks.
#[derive(Debug)]
pub struct RestorePipeline<C: Cipher> {
    cipher: C,
}

impl<C: Cipher> RestorePipeline<C> {
    /// Creates a restore pipeline with the session cipher.
    pub fn new(cipher: C) -> Self {
        RestorePipeline { cipher }
    }

    /// Restores one archive from `(shard_index, bytes)` pairs (any `k`
    /// or more of the `n` blocks, any order).
    ///
    /// Builds a fresh codec per call; hot loops decoding many archives
    /// of one geometry should use [`restore_with`](Self::restore_with)
    /// and share a codec instead.
    ///
    /// # Errors
    ///
    /// [`RestoreError`] when decoding fails or the result is not the
    /// archive the descriptor promised.
    pub fn restore(
        &self,
        descriptor: &ArchiveDescriptor,
        blocks: &[(usize, impl AsRef<[u8]>)],
    ) -> Result<Archive, RestoreError> {
        let rs = ReedSolomon::new(descriptor.k as usize, descriptor.m as usize)?;
        self.restore_with(&rs, descriptor, blocks, &mut Vec::new())
    }

    /// Restores one archive through a caller-shared codec and recycled
    /// data-shard scratch buffers — the steady-state path: no
    /// per-code-word Vandermonde rebuild, and decode output lands in
    /// `data_scratch`'s reused capacity.
    ///
    /// # Errors
    ///
    /// As [`restore`](Self::restore).
    ///
    /// # Panics
    ///
    /// Panics if the codec geometry does not match the descriptor's
    /// `(k, m)`.
    pub fn restore_with(
        &self,
        rs: &ReedSolomon,
        descriptor: &ArchiveDescriptor,
        blocks: &[(usize, impl AsRef<[u8]>)],
        data_scratch: &mut Vec<Vec<u8>>,
    ) -> Result<Archive, RestoreError> {
        assert!(
            rs.data_shards() == descriptor.k as usize
                && rs.parity_shards() == descriptor.m as usize,
            "codec geometry ({}, {}) does not match descriptor ({}, {})",
            rs.data_shards(),
            rs.parity_shards(),
            descriptor.k,
            descriptor.m
        );
        let shard_len = blocks.first().map_or(0, |(_, b)| b.as_ref().len());
        rs.reconstruct_data_into(blocks, shard_len, data_scratch)?;
        let ciphertext = Archive::join_blocks(data_scratch, descriptor.payload_len);
        let plaintext = self.cipher.decrypt(&ciphertext);
        let archive = Archive::from_bytes(&plaintext)?;
        if archive.id != descriptor.archive_id {
            return Err(RestoreError::IdMismatch {
                expected: descriptor.archive_id,
                actual: archive.id,
            });
        }
        Ok(archive)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archive::Entry;
    use crate::backup::BackupPipeline;
    use crate::crypt::{NoCipher, XorKeystream};

    fn archive(id: u64) -> Archive {
        Archive::from_entries(
            id,
            false,
            vec![Entry {
                name: "data".into(),
                data: (0..200u8).collect(),
            }],
        )
    }

    fn backup_plan(id: u64) -> (crate::backup::PlacementPlan, ReedSolomon) {
        let rs = ReedSolomon::new(4, 2).unwrap();
        let pipeline = BackupPipeline::new(rs.clone(), XorKeystream::new(77), 77);
        let partners: Vec<u64> = (0..6).collect();
        (pipeline.backup(&archive(id), &partners).unwrap(), rs)
    }

    #[test]
    fn restore_from_exactly_k_mixed_shards() {
        let (plan, _) = backup_plan(5);
        let restore = RestorePipeline::new(XorKeystream::new(77));
        // Use shards 1, 3, 4, 5 (two data, two parity).
        let blocks: Vec<(usize, Vec<u8>)> = [1usize, 3, 4, 5]
            .iter()
            .map(|&i| (i, plan.blocks[i].bytes.clone()))
            .collect();
        let restored = restore.restore(&plan.descriptor, &blocks).unwrap();
        assert_eq!(restored, archive(5));
    }

    #[test]
    fn restore_with_wrong_key_fails_cleanly() {
        let (plan, _) = backup_plan(5);
        let restore = RestorePipeline::new(XorKeystream::new(78)); // wrong key
        let blocks: Vec<(usize, Vec<u8>)> = plan
            .blocks
            .iter()
            .take(4)
            .map(|b| (b.shard_index as usize, b.bytes.clone()))
            .collect();
        let err = restore.restore(&plan.descriptor, &blocks).unwrap_err();
        assert!(matches!(err, RestoreError::Malformed(_)), "{err}");
    }

    #[test]
    fn restore_with_too_few_blocks_fails() {
        let (plan, _) = backup_plan(5);
        let restore = RestorePipeline::new(XorKeystream::new(77));
        let blocks: Vec<(usize, Vec<u8>)> = plan
            .blocks
            .iter()
            .take(3)
            .map(|b| (b.shard_index as usize, b.bytes.clone()))
            .collect();
        assert!(matches!(
            restore.restore(&plan.descriptor, &blocks),
            Err(RestoreError::Erasure(ErasureError::NotEnoughShards { .. }))
        ));
    }

    #[test]
    fn id_mismatch_is_detected() {
        let (plan, _) = backup_plan(5);
        let mut descriptor = plan.descriptor.clone();
        descriptor.archive_id = 99;
        let restore = RestorePipeline::new(XorKeystream::new(77));
        let blocks: Vec<(usize, Vec<u8>)> = plan
            .blocks
            .iter()
            .take(4)
            .map(|b| (b.shard_index as usize, b.bytes.clone()))
            .collect();
        assert!(matches!(
            restore.restore(&descriptor, &blocks),
            Err(RestoreError::IdMismatch {
                expected: 99,
                actual: 5
            })
        ));
    }

    #[test]
    fn no_cipher_round_trip() {
        let rs = ReedSolomon::new(3, 3).unwrap();
        let pipeline = BackupPipeline::new(rs, NoCipher, 0);
        let partners: Vec<u64> = (0..6).collect();
        let plan = pipeline.backup(&archive(1), &partners).unwrap();
        let restore = RestorePipeline::new(NoCipher);
        // Parity-only restore.
        let blocks: Vec<(usize, Vec<u8>)> = [3usize, 4, 5]
            .iter()
            .map(|&i| (i, plan.blocks[i].bytes.clone()))
            .collect();
        assert_eq!(
            restore.restore(&plan.descriptor, &blocks).unwrap(),
            archive(1)
        );
    }

    #[test]
    fn corrupted_shard_yields_error_not_wrong_data() {
        let (plan, _) = backup_plan(5);
        let restore = RestorePipeline::new(XorKeystream::new(77));
        let mut blocks: Vec<(usize, Vec<u8>)> = plan
            .blocks
            .iter()
            .take(4)
            .map(|b| (b.shard_index as usize, b.bytes.clone()))
            .collect();
        blocks[2].1[0] ^= 0xff; // flip one byte
        match restore.restore(&plan.descriptor, &blocks) {
            Err(_) => {}
            Ok(archive) => {
                // If parsing happened to succeed, the content must differ
                // from the original (we do not do silent corruption).
                assert_ne!(archive, crate::restore::tests::archive(5));
            }
        }
    }
}
