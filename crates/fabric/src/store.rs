//! The per-host block store: where shipped shards actually live.
//!
//! Each simulated peer gets a real store; a block exists here only if
//! its frame survived the fault plane and decoded cleanly. The store
//! keeps the ingest-time [`block_sum`] of the payload next to the bytes
//! so at-rest damage (bitrot) is detectable later — an audit or repair
//! that reads a rotten block sees it as *not intact* rather than
//! decoding garbage. Scrub sweeps, challenges and audit gathers all
//! re-sum whole blocks through [`StoredBlock::intact`], which is why
//! the sum is the fast one (see [`crate::frame`] for the two sums).
//!
//! `BTreeMap`s keep iteration deterministic; the whole fabric is a
//! pure function of its seeds.

use std::collections::BTreeMap;

use core::fmt;

use peerback_core::PeerId;

use crate::frame::{block_sum, BlockFrame, FrameError};

/// One stored shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredBlock {
    /// Shard index within the code word.
    pub shard_index: u32,
    /// The shard bytes as they sit on disk (bitrot mutates these).
    pub bytes: Vec<u8>,
    /// Payload [`block_sum`] recorded at ingest, before any at-rest
    /// damage.
    pub ingest_checksum: u64,
}

impl StoredBlock {
    /// True if the bytes still match their ingest-time sum.
    pub fn intact(&self) -> bool {
        block_sum(&self.bytes) == self.ingest_checksum
    }
}

/// Why an ingest was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestError {
    /// The frame failed to decode or verify.
    Frame(FrameError),
    /// The host already holds a block of this archive — duplicate
    /// delivery (retransmission) is surfaced, not silently merged.
    DuplicateFrame {
        /// Owning peer slot.
        owner: PeerId,
        /// Archive index within the owner.
        archive: u8,
        /// Shard index of the already-stored block.
        stored_shard: u32,
    },
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Frame(e) => write!(f, "frame rejected: {e}"),
            IngestError::DuplicateFrame {
                owner,
                archive,
                stored_shard,
            } => write!(
                f,
                "duplicate frame for {owner}/{archive}: shard {stored_shard} already stored"
            ),
        }
    }
}

impl std::error::Error for IngestError {}

impl From<FrameError> for IngestError {
    fn from(e: FrameError) -> Self {
        IngestError::Frame(e)
    }
}

/// All blocks, host by host.
#[derive(Debug, Default)]
pub struct BlockStore {
    /// `host → (owner, archive) → block`. One block per archive per
    /// host, mirroring the simulator's one-partner-one-block rule.
    hosts: BTreeMap<PeerId, BTreeMap<(PeerId, u8), StoredBlock>>,
}

impl BlockStore {
    /// An empty store.
    pub fn new() -> Self {
        BlockStore::default()
    }

    /// Decodes, verifies and stores one received frame on `host`.
    ///
    /// # Errors
    ///
    /// [`IngestError::Frame`] when the frame is damaged;
    /// [`IngestError::DuplicateFrame`] when the host already holds a
    /// block of the same archive.
    pub fn ingest(&mut self, host: PeerId, frame_bytes: &[u8]) -> Result<(), IngestError> {
        let frame = BlockFrame::from_bytes(frame_bytes)?;
        let key = (frame.owner, frame.archive);
        let shelf = self.hosts.entry(host).or_default();
        if let Some(existing) = shelf.get(&key) {
            return Err(IngestError::DuplicateFrame {
                owner: frame.owner,
                archive: frame.archive,
                stored_shard: existing.shard_index,
            });
        }
        let ingest_checksum = block_sum(&frame.payload);
        shelf.insert(
            key,
            StoredBlock {
                shard_index: frame.shard_index,
                bytes: frame.payload,
                ingest_checksum,
            },
        );
        Ok(())
    }

    /// Removes the block `host` holds for `(owner, archive)`, if any.
    /// Returns whether a block was actually stored (a transfer that
    /// failed in flight leaves nothing to remove).
    pub fn drop_block(&mut self, host: PeerId, owner: PeerId, archive: u8) -> bool {
        self.hosts
            .get_mut(&host)
            .is_some_and(|shelf| shelf.remove(&(owner, archive)).is_some())
    }

    /// The block `host` holds for `(owner, archive)`, if any.
    pub fn block(&self, host: PeerId, owner: PeerId, archive: u8) -> Option<&StoredBlock> {
        self.hosts.get(&host).and_then(|s| s.get(&(owner, archive)))
    }

    /// Mutable access (the fault plane's bitrot path).
    pub fn block_mut(
        &mut self,
        host: PeerId,
        owner: PeerId,
        archive: u8,
    ) -> Option<&mut StoredBlock> {
        self.hosts
            .get_mut(&host)
            .and_then(|s| s.get_mut(&(owner, archive)))
    }

    /// Scrubbing primitive: re-sums every stored block, pushing
    /// `(host, owner, archive)` of each rotten one onto `out` (in
    /// deterministic `BTreeMap` order). Returns how many blocks were
    /// checked.
    pub fn collect_rotten(&self, out: &mut Vec<(PeerId, PeerId, u8)>) -> usize {
        let mut checked = 0;
        for (&host, shelf) in &self.hosts {
            for (&(owner, archive), block) in shelf {
                checked += 1;
                if !block.intact() {
                    out.push((host, owner, archive));
                }
            }
        }
        checked
    }

    /// Drops everything `host` stores (slot recycled). Returns how many
    /// blocks vanished.
    pub fn clear_host(&mut self, host: PeerId) -> usize {
        self.hosts.remove(&host).map_or(0, |shelf| shelf.len())
    }

    /// Total blocks stored across all hosts.
    pub fn total_blocks(&self) -> usize {
        self.hosts.values().map(BTreeMap::len).sum()
    }

    /// Blocks `host` currently stores.
    pub fn host_blocks(&self, host: PeerId) -> usize {
        self.hosts.get(&host).map_or(0, BTreeMap::len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peerback_core::wire::WireError;

    fn frame_bytes(owner: PeerId, archive: u8, shard: u32) -> Vec<u8> {
        BlockFrame {
            owner,
            archive,
            shard_index: shard,
            payload: vec![shard as u8; 40],
        }
        .to_bytes()
    }

    #[test]
    fn ingest_then_lookup() {
        let mut store = BlockStore::new();
        store.ingest(5, &frame_bytes(1, 0, 3)).unwrap();
        let b = store.block(5, 1, 0).unwrap();
        assert_eq!(b.shard_index, 3);
        assert!(b.intact());
        assert_eq!(store.total_blocks(), 1);
        assert_eq!(store.host_blocks(5), 1);
        assert!(store.block(5, 2, 0).is_none());
    }

    #[test]
    fn duplicate_delivery_is_a_typed_error_not_a_merge() {
        let mut store = BlockStore::new();
        store.ingest(5, &frame_bytes(1, 0, 3)).unwrap();
        let err = store.ingest(5, &frame_bytes(1, 0, 3)).unwrap_err();
        assert_eq!(
            err,
            IngestError::DuplicateFrame {
                owner: 1,
                archive: 0,
                stored_shard: 3
            }
        );
        assert_eq!(store.total_blocks(), 1, "duplicate must not double-store");
    }

    #[test]
    fn damaged_frames_are_refused_and_store_nothing() {
        let mut store = BlockStore::new();
        let mut truncated = frame_bytes(1, 0, 3);
        truncated.truncate(6); // mid-header
        assert!(matches!(
            store.ingest(5, &truncated),
            Err(IngestError::Frame(FrameError::Wire(
                WireError::UnexpectedEof { .. }
            )))
        ));
        let mut flipped = frame_bytes(1, 0, 3);
        let len = flipped.len();
        flipped[len / 2] ^= 0x01;
        assert!(matches!(
            store.ingest(5, &flipped),
            Err(IngestError::Frame(_))
        ));
        assert_eq!(store.total_blocks(), 0);
    }

    #[test]
    fn bitrot_breaks_intactness() {
        let mut store = BlockStore::new();
        store.ingest(5, &frame_bytes(1, 0, 3)).unwrap();
        let b = store.block_mut(5, 1, 0).unwrap();
        b.bytes[7] ^= 0x40;
        assert!(!store.block(5, 1, 0).unwrap().intact());
    }

    #[test]
    fn drop_and_clear() {
        let mut store = BlockStore::new();
        store.ingest(5, &frame_bytes(1, 0, 3)).unwrap();
        store.ingest(5, &frame_bytes(2, 0, 1)).unwrap();
        store.ingest(6, &frame_bytes(1, 1, 0)).unwrap();
        assert!(store.drop_block(5, 1, 0));
        assert!(!store.drop_block(5, 1, 0), "already gone");
        assert_eq!(store.clear_host(5), 1);
        assert_eq!(store.clear_host(5), 0);
        assert_eq!(store.total_blocks(), 1);
    }

    #[test]
    fn one_host_may_store_different_archives_of_one_owner() {
        let mut store = BlockStore::new();
        store.ingest(5, &frame_bytes(1, 0, 3)).unwrap();
        store.ingest(5, &frame_bytes(1, 1, 4)).unwrap();
        assert_eq!(store.host_blocks(5), 2);
    }
}
