//! The per-host block store: where shipped shards actually live.
//!
//! Each simulated peer gets a real store; a block exists here only if
//! its frame survived the fault plane and decoded cleanly. The store
//! keeps the ingest-time [`block_sum`] of the payload next to the bytes
//! so at-rest damage (bitrot) is detectable later — an audit or repair
//! that reads a rotten block sees it as *not intact* rather than
//! decoding garbage. Scrub sweeps, challenges and restore gathers all
//! re-sum whole blocks through [`StoredBlock::intact`], which is why
//! the sum is the fast one (see [`crate::frame`] for the two sums). A
//! restore gather reads an archive's blocks in slot order and stops at
//! the `k`th intact one, so a restorable archive costs `k` sums however
//! many blocks it has at rest; only a restore that fails goes on to
//! count (and re-sum) the rest.
//!
//! ## Layout
//!
//! All the blocks of one store sit in one slab of fixed-stride slots.
//! The stride is the length of the first block ingested — the codec's
//! shard length, which every shard of a run shares — and the slab grows
//! a page of `PAGE_SLOTS` slots at a time: each page is allocated once
//! at its full size and filled by appending, so growth never
//! reallocates or zero-fills. Beside the slab sit a metadata vector
//! (each slot's `(host, owner, archive)` key, shard index and ingest
//! sum; `None` for a free slot), one sorted index from key to slot, and
//! a free list that recycles the slots drops leave behind. A lookup is
//! one index probe returning a view borrowed from the slab; a scrub
//! walks the slab in slot order. Every ordered output follows the
//! sorted index, so the whole fabric stays a pure function of its
//! seeds.

use std::collections::btree_map::{Entry, Range};
use std::collections::BTreeMap;

use core::fmt;

use peerback_core::PeerId;

use crate::frame::{block_sum, BlockFrame, FrameError};

/// Slots per slab page (64 KiB pages at the fabric's 2 KiB shards).
const PAGE_SLOTS: usize = 32;

/// Where a block is stored: `(host, owner, archive)`.
type BlockKey = (PeerId, PeerId, u8);

/// One stored shard, borrowed from its store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoredBlock<'a> {
    /// Shard index within the code word.
    pub shard_index: u32,
    /// The shard bytes as they sit on disk (bitrot mutates these).
    pub bytes: &'a [u8],
    /// Payload [`block_sum`] recorded at ingest, before any at-rest
    /// damage.
    pub ingest_checksum: u64,
}

impl StoredBlock<'_> {
    /// True if the bytes still match their ingest-time sum.
    pub fn intact(&self) -> bool {
        block_sum(self.bytes) == self.ingest_checksum
    }
}

/// One stored shard, mutably borrowed (the fault plane's bitrot path).
#[derive(Debug)]
pub struct StoredBlockMut<'a> {
    /// Shard index within the code word.
    pub shard_index: u32,
    /// The shard bytes as they sit on disk.
    pub bytes: &'a mut [u8],
    /// Payload [`block_sum`] recorded at ingest.
    pub ingest_checksum: u64,
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
    /// The payload's length differs from the store's stride, the length
    /// of the first block it ingested (every shard of a run has the
    /// same length, so the fabric never ships such a frame).
    WrongLength {
        /// Bytes per slot.
        stride: usize,
        /// Bytes in the refused payload.
        len: usize,
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
            IngestError::WrongLength { stride, len } => write!(
                f,
                "a {len}-byte block does not fit this store's {stride}-byte slots"
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

/// What a live slot holds besides its bytes.
#[derive(Debug, Clone, Copy)]
struct SlotMeta {
    key: BlockKey,
    shard_index: u32,
    ingest_checksum: u64,
}

/// All blocks, host by host: one slab of fixed-stride slots (see the
/// module docs). One block per archive per host, mirroring the
/// simulator's one-partner-one-block rule.
#[derive(Debug, Default)]
pub struct BlockStore {
    /// Bytes per slot, set by the first ingest.
    stride: usize,
    /// The slab: page `p` holds slots `p * PAGE_SLOTS ..`, each page
    /// allocated at `PAGE_SLOTS * stride` bytes and never grown past it.
    pages: Vec<Vec<u8>>,
    /// Per-slot metadata, `None` while the slot is free.
    meta: Vec<Option<SlotMeta>>,
    /// `(host, owner, archive)` → slot, for every live slot.
    index: BTreeMap<BlockKey, usize>,
    /// Free slots, reused last-freed first.
    free: Vec<usize>,
}

impl BlockStore {
    /// An empty store.
    pub fn new() -> Self {
        BlockStore::default()
    }

    /// Decodes, verifies and stores one received frame on `host`: the
    /// frame is parsed in place and its payload copied straight into a
    /// slot.
    ///
    /// # Errors
    ///
    /// [`IngestError::Frame`] when the frame is damaged;
    /// [`IngestError::DuplicateFrame`] when the host already holds a
    /// block of the same archive; [`IngestError::WrongLength`] when the
    /// payload does not fit the store's slots.
    pub fn ingest(&mut self, host: PeerId, frame_bytes: &[u8]) -> Result<(), IngestError> {
        let frame = BlockFrame::parse(frame_bytes)?;
        let payload = frame.payload;
        let vacant = match self.index.entry((host, frame.owner, frame.archive)) {
            Entry::Occupied(stored) => {
                return Err(IngestError::DuplicateFrame {
                    owner: frame.owner,
                    archive: frame.archive,
                    stored_shard: self.meta[*stored.get()]
                        .expect("indexed slots are live")
                        .shard_index,
                })
            }
            Entry::Vacant(vacant) => vacant,
        };
        if self.meta.is_empty() {
            self.stride = payload.len();
        } else if payload.len() != self.stride {
            return Err(IngestError::WrongLength {
                stride: self.stride,
                len: payload.len(),
            });
        }
        let meta = Some(SlotMeta {
            key: *vacant.key(),
            shard_index: frame.shard_index,
            ingest_checksum: block_sum(payload),
        });
        let slot = match self.free.pop() {
            Some(slot) => {
                let at = slot % PAGE_SLOTS * self.stride;
                self.pages[slot / PAGE_SLOTS][at..at + self.stride].copy_from_slice(payload);
                self.meta[slot] = meta;
                slot
            }
            None => {
                let slot = self.meta.len();
                if slot.is_multiple_of(PAGE_SLOTS) {
                    self.pages
                        .push(Vec::with_capacity(PAGE_SLOTS * self.stride));
                }
                let page = self.pages.last_mut().expect("a page with room exists");
                page.extend_from_slice(payload);
                self.meta.push(meta);
                slot
            }
        };
        vacant.insert(slot);
        Ok(())
    }

    /// The bytes of `slot`.
    fn slot_bytes(&self, slot: usize) -> &[u8] {
        let at = slot % PAGE_SLOTS * self.stride;
        &self.pages[slot / PAGE_SLOTS][at..at + self.stride]
    }

    /// Marks `slot` free (its key already left the index).
    fn release(&mut self, slot: usize) {
        self.meta[slot] = None;
        self.free.push(slot);
    }

    /// Removes the block `host` holds for `(owner, archive)`, if any.
    /// Returns whether a block was actually stored (a transfer that
    /// failed in flight leaves nothing to remove).
    pub fn drop_block(&mut self, host: PeerId, owner: PeerId, archive: u8) -> bool {
        let slot = self.index.remove(&(host, owner, archive));
        if let Some(slot) = slot {
            self.release(slot);
        }
        slot.is_some()
    }

    /// The block `host` holds for `(owner, archive)`, if any.
    pub fn block(&self, host: PeerId, owner: PeerId, archive: u8) -> Option<StoredBlock<'_>> {
        let slot = *self.index.get(&(host, owner, archive))?;
        let meta = self.meta[slot].expect("indexed slots are live");
        Some(StoredBlock {
            shard_index: meta.shard_index,
            bytes: self.slot_bytes(slot),
            ingest_checksum: meta.ingest_checksum,
        })
    }

    /// Mutable access (the fault plane's bitrot path).
    pub fn block_mut(
        &mut self,
        host: PeerId,
        owner: PeerId,
        archive: u8,
    ) -> Option<StoredBlockMut<'_>> {
        let slot = *self.index.get(&(host, owner, archive))?;
        let meta = self.meta[slot].expect("indexed slots are live");
        let at = slot % PAGE_SLOTS * self.stride;
        Some(StoredBlockMut {
            shard_index: meta.shard_index,
            bytes: &mut self.pages[slot / PAGE_SLOTS][at..at + self.stride],
            ingest_checksum: meta.ingest_checksum,
        })
    }

    /// Scrubbing primitive: re-sums every stored block, walking the slab
    /// in slot order, and pushes `(host, owner, archive)` of each rotten
    /// one onto `out`, sorted (host-major, like every other ordered
    /// output of the store). Returns how many blocks were checked.
    pub fn collect_rotten(&self, out: &mut Vec<BlockKey>) -> usize {
        let first = out.len();
        for (slot, meta) in self.meta.iter().enumerate() {
            if let Some(meta) = meta {
                if block_sum(self.slot_bytes(slot)) != meta.ingest_checksum {
                    out.push(meta.key);
                }
            }
        }
        out[first..].sort_unstable();
        self.index.len()
    }

    /// The index entries of every block `host` stores.
    fn host_range(&self, host: PeerId) -> Range<'_, BlockKey, usize> {
        self.index
            .range((host, 0, 0)..=(host, PeerId::MAX, u8::MAX))
    }

    /// Drops everything `host` stores (slot recycled). Returns how many
    /// blocks vanished.
    pub fn clear_host(&mut self, host: PeerId) -> usize {
        let hosted: Vec<(BlockKey, usize)> = self
            .host_range(host)
            .map(|(&key, &slot)| (key, slot))
            .collect();
        for &(key, slot) in &hosted {
            self.index.remove(&key);
            self.release(slot);
        }
        hosted.len()
    }

    /// Total blocks stored across all hosts.
    pub fn total_blocks(&self) -> usize {
        self.index.len()
    }

    /// Bytes of the blocks at rest: blocks stored × the slab's stride
    /// (free slots not counted).
    pub(crate) fn stored_bytes(&self) -> usize {
        self.index.len() * self.stride
    }

    /// Blocks `host` currently stores.
    pub fn host_blocks(&self, host: PeerId) -> usize {
        self.host_range(host).count()
    }

    /// Every stored block's `(host, owner, archive)`, in index order.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn keys(&self) -> impl Iterator<Item = BlockKey> + '_ {
        self.index.keys().copied()
    }

    /// Panics unless the index, the slot metadata, the free list and
    /// the pages agree: every index entry names a live slot holding its
    /// key, every live slot is indexed, the free list holds exactly the
    /// free slots once each, and every page still has the capacity it
    /// was allocated with.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn check_invariants(&self) {
        for (&key, &slot) in &self.index {
            assert_eq!(
                self.meta[slot].map(|m| m.key),
                Some(key),
                "index entry {key:?} names slot {slot}, which does not hold it"
            );
        }
        let live = self.meta.iter().filter(|m| m.is_some()).count();
        assert_eq!(live, self.index.len(), "live slots missing from the index");
        let mut free = self.free.clone();
        free.sort_unstable();
        free.dedup();
        assert_eq!(
            free.len(),
            self.free.len(),
            "a slot is on the free list twice"
        );
        assert!(
            free.iter().all(|&slot| self.meta[slot].is_none()),
            "a live slot is on the free list"
        );
        assert_eq!(live + free.len(), self.meta.len(), "a free slot was lost");
        assert_eq!(self.pages.len(), self.meta.len().div_ceil(PAGE_SLOTS));
        let bytes: usize = self.pages.iter().map(Vec::len).sum();
        assert_eq!(bytes, self.meta.len() * self.stride);
        assert!(
            self.pages
                .iter()
                .all(|page| page.capacity() == PAGE_SLOTS * self.stride),
            "a page grew past its allocation"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peerback_core::wire::WireError;
    use proptest::prelude::*;

    /// Payload bytes of every test block: one 32-byte stripe of
    /// [`block_sum`] plus a tail.
    const PAYLOAD: usize = 40;

    fn frame_bytes(owner: PeerId, archive: u8, shard: u32) -> Vec<u8> {
        BlockFrame {
            owner,
            archive,
            shard_index: shard,
            payload: (0..PAYLOAD as u32)
                .map(|i| (i * 31 + owner * 7 + u32::from(archive) * 3 + shard) as u8)
                .collect(),
        }
        .to_bytes()
    }

    /// The nested-map store the slab replaced, kept as its oracle:
    /// `host → (owner, archive) → (shard index, bytes, ingest sum)`,
    /// each block its own `Vec`.
    #[derive(Default)]
    struct NestedStore {
        hosts: BTreeMap<PeerId, Shelf>,
    }

    /// One host's blocks in the oracle.
    type Shelf = BTreeMap<(PeerId, u8), (u32, Vec<u8>, u64)>;

    impl NestedStore {
        fn ingest(&mut self, host: PeerId, frame_bytes: &[u8]) -> Result<(), IngestError> {
            let frame = BlockFrame::from_bytes(frame_bytes)?;
            let shelf = self.hosts.entry(host).or_default();
            if let Some(&(stored_shard, ..)) = shelf.get(&(frame.owner, frame.archive)) {
                return Err(IngestError::DuplicateFrame {
                    owner: frame.owner,
                    archive: frame.archive,
                    stored_shard,
                });
            }
            let sum = block_sum(&frame.payload);
            shelf.insert(
                (frame.owner, frame.archive),
                (frame.shard_index, frame.payload, sum),
            );
            Ok(())
        }

        fn drop_block(&mut self, host: PeerId, owner: PeerId, archive: u8) -> bool {
            self.hosts
                .get_mut(&host)
                .is_some_and(|shelf| shelf.remove(&(owner, archive)).is_some())
        }

        fn block(&self, host: PeerId, owner: PeerId, archive: u8) -> Option<StoredBlock<'_>> {
            let (shard_index, bytes, ingest_checksum) =
                self.hosts.get(&host)?.get(&(owner, archive))?;
            Some(StoredBlock {
                shard_index: *shard_index,
                bytes,
                ingest_checksum: *ingest_checksum,
            })
        }

        fn flip(&mut self, host: PeerId, owner: PeerId, archive: u8, byte: usize, bit: u32) {
            if let Some((_, bytes, _)) = self
                .hosts
                .get_mut(&host)
                .and_then(|shelf| shelf.get_mut(&(owner, archive)))
            {
                bytes[byte] ^= 1 << bit;
            }
        }

        fn collect_rotten(&self, out: &mut Vec<BlockKey>) -> usize {
            let mut checked = 0;
            for (&host, shelf) in &self.hosts {
                for (&(owner, archive), (_, bytes, sum)) in shelf {
                    checked += 1;
                    if block_sum(bytes) != *sum {
                        out.push((host, owner, archive));
                    }
                }
            }
            checked
        }

        fn clear_host(&mut self, host: PeerId) -> usize {
            self.hosts.remove(&host).map_or(0, |shelf| shelf.len())
        }

        fn total_blocks(&self) -> usize {
            self.hosts.values().map(BTreeMap::len).sum()
        }

        fn host_blocks(&self, host: PeerId) -> usize {
            self.hosts.get(&host).map_or(0, BTreeMap::len)
        }
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
        store.check_invariants();
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
        store.check_invariants();
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
        store.check_invariants();
    }

    #[test]
    fn a_block_of_another_length_is_refused() {
        let mut store = BlockStore::new();
        store.ingest(5, &frame_bytes(1, 0, 3)).unwrap();
        let longer = BlockFrame {
            owner: 2,
            archive: 0,
            shard_index: 0,
            payload: vec![7; PAYLOAD + 1],
        };
        assert_eq!(
            store.ingest(5, &longer.to_bytes()),
            Err(IngestError::WrongLength {
                stride: PAYLOAD,
                len: PAYLOAD + 1
            })
        );
        // The stride outlives the blocks that set it.
        store.clear_host(5);
        assert!(store.ingest(6, &longer.to_bytes()).is_err());
        assert_eq!(store.total_blocks(), 0);
        store.check_invariants();
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
        store.check_invariants();
    }

    #[test]
    fn dropped_slots_are_reused_before_the_slab_grows() {
        let mut store = BlockStore::new();
        for owner in 0..PAGE_SLOTS as PeerId + 1 {
            store.ingest(5, &frame_bytes(owner, 0, 0)).unwrap();
        }
        assert_eq!(store.pages.len(), 2);
        assert_eq!(store.clear_host(5), PAGE_SLOTS + 1);
        for owner in 0..PAGE_SLOTS as PeerId + 1 {
            store.ingest(6, &frame_bytes(owner, 1, 2)).unwrap();
        }
        assert_eq!(store.meta.len(), PAGE_SLOTS + 1, "no slot was added");
        assert!(store.block(6, 3, 1).unwrap().intact());
        store.check_invariants();
    }

    #[test]
    fn one_host_may_store_different_archives_of_one_owner() {
        let mut store = BlockStore::new();
        store.ingest(5, &frame_bytes(1, 0, 3)).unwrap();
        store.ingest(5, &frame_bytes(1, 1, 4)).unwrap();
        assert_eq!(store.host_blocks(5), 2);
    }

    proptest! {
        /// Random ingest, duplicate, drop, `clear_host` and bit-flip
        /// sequences leave the slab and the nested-map oracle with the
        /// same blocks, the same rotten list in the same order and the
        /// same counts; slots freed by drops are reused along the way.
        #[test]
        fn the_slab_matches_the_nested_map_oracle(
            ops in proptest::collection::vec(
                (0u8..7, 0u32..5, 0u32..4, 0u8..3, 0usize..PAYLOAD, 0u32..8),
                1..400,
            ),
        ) {
            let mut slab = BlockStore::new();
            let mut oracle = NestedStore::default();
            let mut slab_rotten = Vec::new();
            let mut oracle_rotten = Vec::new();
            for &(op, host, owner, archive, byte, bit) in &ops {
                match op {
                    // Ingest twice as often as anything else; a live
                    // key makes it a duplicate delivery.
                    0 | 1 => {
                        let frame = frame_bytes(owner, archive, (byte % 16) as u32);
                        prop_assert_eq!(slab.ingest(host, &frame), oracle.ingest(host, &frame));
                    }
                    2 => prop_assert_eq!(
                        slab.drop_block(host, owner, archive),
                        oracle.drop_block(host, owner, archive)
                    ),
                    3 => prop_assert_eq!(slab.clear_host(host), oracle.clear_host(host)),
                    4 => {
                        if let Some(block) = slab.block_mut(host, owner, archive) {
                            block.bytes[byte] ^= 1 << bit;
                        }
                        oracle.flip(host, owner, archive, byte, bit);
                    }
                    5 => {
                        slab_rotten.clear();
                        oracle_rotten.clear();
                        prop_assert_eq!(
                            slab.collect_rotten(&mut slab_rotten),
                            oracle.collect_rotten(&mut oracle_rotten)
                        );
                        prop_assert_eq!(&slab_rotten, &oracle_rotten);
                    }
                    _ => {
                        // A frame damaged in flight stores nothing.
                        let mut frame = frame_bytes(owner, archive, 0);
                        frame[byte] ^= 1 << bit;
                        prop_assert_eq!(slab.ingest(host, &frame), oracle.ingest(host, &frame));
                    }
                }
                slab.check_invariants();
                prop_assert_eq!(slab.total_blocks(), oracle.total_blocks());
                for h in 0..5 {
                    prop_assert_eq!(slab.host_blocks(h), oracle.host_blocks(h));
                    for o in 0..4 {
                        for a in 0..3 {
                            prop_assert_eq!(slab.block(h, o, a), oracle.block(h, o, a));
                        }
                    }
                }
            }
        }
    }
}
