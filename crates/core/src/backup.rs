//! The backup pipeline: archive bytes → encrypted, erasure-coded,
//! placed blocks (paper §2.2.1).

use peerback_erasure::{ErasureError, ReedSolomon};

use crate::archive::Archive;
use crate::crypt::Cipher;
use crate::master::{ArchiveDescriptor, BlockPlacement};

/// A block ready for upload to one partner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacedBlock {
    /// Shard index within the code word.
    pub shard_index: u32,
    /// Destination partner.
    pub partner: u64,
    /// Shard payload.
    pub bytes: Vec<u8>,
}

/// The output of backing up one archive: blocks to upload plus the
/// descriptor to record in the master block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementPlan {
    /// One block per partner, in shard order.
    pub blocks: Vec<PlacedBlock>,
    /// The master-block entry for this archive.
    pub descriptor: ArchiveDescriptor,
}

/// Encodes archives into placed blocks.
#[derive(Debug)]
pub struct BackupPipeline<C: Cipher> {
    rs: ReedSolomon,
    cipher: C,
    session_key_id: u64,
}

impl<C: Cipher> BackupPipeline<C> {
    /// Creates a pipeline for a codec geometry and cipher.
    pub fn new(rs: ReedSolomon, cipher: C, session_key_id: u64) -> Self {
        BackupPipeline {
            rs,
            cipher,
            session_key_id,
        }
    }

    /// The codec.
    pub fn codec(&self) -> &ReedSolomon {
        &self.rs
    }

    /// Backs up `archive` onto `partners` (one block each, shard order).
    ///
    /// # Errors
    ///
    /// [`ErasureError::WrongShardCount`] if `partners.len() != n`, or any
    /// codec validation error.
    pub fn backup(
        &self,
        archive: &Archive,
        partners: &[u64],
    ) -> Result<PlacementPlan, ErasureError> {
        let n = self.rs.total_shards();
        if partners.len() != n {
            return Err(ErasureError::WrongShardCount {
                expected: n,
                actual: partners.len(),
            });
        }
        let plaintext = archive.to_bytes();
        let ciphertext = self.cipher.encrypt(&plaintext);
        let (data_blocks, payload_len) =
            Archive::split_into_blocks(&ciphertext, self.rs.data_shards());
        let parity = self.rs.encode(&data_blocks)?;

        let mut blocks = Vec::with_capacity(n);
        for (i, bytes) in data_blocks.into_iter().chain(parity).enumerate() {
            blocks.push(PlacedBlock {
                shard_index: i as u32,
                partner: partners[i],
                bytes,
            });
        }
        let placements = blocks
            .iter()
            .map(|b| BlockPlacement {
                shard_index: b.shard_index,
                partner: b.partner,
            })
            .collect();
        Ok(PlacementPlan {
            descriptor: ArchiveDescriptor {
                archive_id: archive.id,
                payload_len,
                k: self.rs.data_shards() as u16,
                m: self.rs.parity_shards() as u16,
                is_metadata: archive.is_metadata,
                session_key: self.session_key_id.to_le_bytes().to_vec(),
                placements,
            },
            blocks,
        })
    }

    /// Regenerates the blocks at `missing` shard indices from any `k`
    /// surviving blocks and assigns them to `new_partners` — the repair
    /// operation of §2.2.3.
    ///
    /// # Errors
    ///
    /// Codec validation errors; notably
    /// [`ErasureError::NotEnoughShards`] when fewer than `k` survive.
    ///
    /// # Panics
    ///
    /// Panics if `missing` and `new_partners` lengths differ.
    pub fn regenerate(
        &self,
        survivors: &[(usize, Vec<u8>)],
        missing: &[usize],
        new_partners: &[u64],
    ) -> Result<Vec<PlacedBlock>, ErasureError> {
        assert_eq!(
            missing.len(),
            new_partners.len(),
            "one new partner per regenerated block"
        );
        let shard_len = survivors.first().map_or(0, |(_, b)| b.len());
        let regenerated = self.rs.reconstruct_shards(survivors, shard_len, missing)?;
        Ok(regenerated
            .into_iter()
            .zip(missing)
            .zip(new_partners)
            .map(|((bytes, &shard_index), &partner)| PlacedBlock {
                shard_index: shard_index as u32,
                partner,
                bytes,
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archive::Entry;
    use crate::crypt::{NoCipher, XorKeystream};

    fn archive() -> Archive {
        Archive::from_entries(
            3,
            false,
            vec![
                Entry {
                    name: "a.txt".into(),
                    data: vec![7u8; 100].into(),
                },
                Entry {
                    name: "b.bin".into(),
                    data: (0..=255u8).collect(),
                },
            ],
        )
    }

    #[test]
    fn backup_produces_one_block_per_partner() {
        let rs = ReedSolomon::new(4, 2).unwrap();
        let pipeline = BackupPipeline::new(rs, NoCipher, 1);
        let partners: Vec<u64> = (100..106).collect();
        let plan = pipeline.backup(&archive(), &partners).unwrap();
        assert_eq!(plan.blocks.len(), 6);
        for (i, b) in plan.blocks.iter().enumerate() {
            assert_eq!(b.shard_index, i as u32);
            assert_eq!(b.partner, partners[i]);
        }
        assert_eq!(plan.descriptor.archive_id, 3);
        assert_eq!(plan.descriptor.k, 4);
        assert_eq!(plan.descriptor.m, 2);
        assert_eq!(plan.descriptor.placements.len(), 6);
        // All blocks the same length.
        let len = plan.blocks[0].bytes.len();
        assert!(plan.blocks.iter().all(|b| b.bytes.len() == len));
    }

    #[test]
    fn wrong_partner_count_is_rejected() {
        let rs = ReedSolomon::new(4, 2).unwrap();
        let pipeline = BackupPipeline::new(rs, NoCipher, 1);
        let partners: Vec<u64> = (0..5).collect();
        assert!(matches!(
            pipeline.backup(&archive(), &partners),
            Err(ErasureError::WrongShardCount {
                expected: 6,
                actual: 5
            })
        ));
    }

    #[test]
    fn encryption_changes_blocks_but_not_structure() {
        let rs = ReedSolomon::new(4, 2).unwrap();
        let partners: Vec<u64> = (0..6).collect();
        let plain = BackupPipeline::new(rs.clone(), NoCipher, 1)
            .backup(&archive(), &partners)
            .unwrap();
        let encrypted = BackupPipeline::new(rs, XorKeystream::new(55), 1)
            .backup(&archive(), &partners)
            .unwrap();
        assert_ne!(plain.blocks[0].bytes, encrypted.blocks[0].bytes);
        assert_eq!(
            plain.descriptor.payload_len,
            encrypted.descriptor.payload_len
        );
    }

    #[test]
    fn regenerate_matches_original_blocks() {
        let rs = ReedSolomon::new(4, 3).unwrap();
        let pipeline = BackupPipeline::new(rs, NoCipher, 1);
        let partners: Vec<u64> = (0..7).collect();
        let plan = pipeline.backup(&archive(), &partners).unwrap();

        // Lose shards 2 and 5; repair from shards {0, 1, 3, 6}.
        let survivors: Vec<(usize, Vec<u8>)> = [0usize, 1, 3, 6]
            .iter()
            .map(|&i| (i, plan.blocks[i].bytes.clone()))
            .collect();
        let repaired = pipeline
            .regenerate(&survivors, &[2, 5], &[900, 901])
            .unwrap();
        assert_eq!(repaired[0].bytes, plan.blocks[2].bytes);
        assert_eq!(repaired[0].partner, 900);
        assert_eq!(repaired[1].bytes, plan.blocks[5].bytes);
        assert_eq!(repaired[1].partner, 901);
    }

    #[test]
    fn regenerate_with_too_few_survivors_fails() {
        let rs = ReedSolomon::new(4, 3).unwrap();
        let pipeline = BackupPipeline::new(rs, NoCipher, 1);
        let partners: Vec<u64> = (0..7).collect();
        let plan = pipeline.backup(&archive(), &partners).unwrap();
        let survivors: Vec<(usize, Vec<u8>)> = [0usize, 1]
            .iter()
            .map(|&i| (i, plan.blocks[i].bytes.clone()))
            .collect();
        assert!(matches!(
            pipeline.regenerate(&survivors, &[2], &[900]),
            Err(ErasureError::NotEnoughShards { .. })
        ));
    }
}
