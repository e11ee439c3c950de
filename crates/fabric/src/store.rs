//! The per-host block store: where shipped shards actually live.
//!
//! Each simulated peer gets a real store; a block exists here only if
//! its frame survived the fault plane and decoded cleanly. The store
//! keeps the ingest-time [`block_sum`] of the payload next to the bytes
//! and, beside it, the block's verdict: whether the bytes still match
//! that sum. That sum is the one the frame's seal was verified with
//! ([`crate::frame`]), so a delivery reads its payload once, and
//! [`BlockStore::ingest`] sets the verdict to intact. Bytes at rest
//! change only through [`BlockStore::damage`], which runs the damage
//! and re-sums the block once, so the verdict is decided where the
//! bytes change: an audit or repair that reads a rotten block sees it
//! as *not intact* rather than decoding garbage, and scrub sweeps,
//! challenges and restore gathers read the verdict
//! ([`StoredBlock::intact`]) without summing. Builds with debug
//! assertions re-sum the block on every read and panic if the two
//! disagree.
//!
//! ## Layout
//!
//! All the blocks of one store sit in one slab of fixed-stride slots.
//! The stride is the length of the first block ingested — the codec's
//! shard length, which every shard of a run shares — and the slab grows
//! a page of `PAGE_SLOTS` slots at a time: each page is allocated once
//! at its full size and filled by appending, so growth never
//! reallocates or zero-fills. Beside the slab sit a metadata vector
//! (each slot's `(host, owner, archive)` key, shard index, ingest sum
//! and verdict, plus its links in its host's slot list; `None` for a
//! free slot), a free list that recycles the slots drops leave behind,
//! and two hash maps under one fixed, seedless hasher (`KeyHasher`):
//!
//! * the **index**, `(host, owner, archive)` → slot: a lookup, a
//!   duplicate check or a drop is one hash probe, not a tree walk;
//! * the **host lists**, host → the head and length of a doubly linked
//!   list threaded through its slots' metadata: dropping a departed
//!   host's blocks walks its own list, so it costs what the host
//!   stores, never a scan of the store.
//!
//! Both grow with the blocks and hosts at rest, never with the
//! population. A lookup returns a view borrowed from the slab; a scrub
//! walks the slab in slot order. No map is ever iterated for an
//! output: every ordered output (the rotten list, `keys`) is sorted by
//! key, so the whole fabric stays a pure function of its seeds.
//!
//! Why these maps rather than handles kept beside each owner's
//! placement mirror: the handles would make every owner-side change
//! (drop, departure, re-placement) a second write into the store's
//! bookkeeping and tie the store's API to the fabric's slots, while a
//! hash probe already removes the tree walk, and the store stays a
//! self-contained `(host, owner, archive)` map with its own
//! oracle tests.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use core::fmt;

use peerback_core::PeerId;

use crate::frame::{block_sum, BlockFrame, FrameError};

/// Slots per slab page (64 KiB pages at the fabric's 2 KiB shards).
const PAGE_SLOTS: usize = 32;

/// Where a block is stored: `(host, owner, archive)`.
type BlockKey = (PeerId, PeerId, u8);

/// No slot: the end of a host's slot list.
const NIL: u32 = u32::MAX;

/// A fixed rotate-xor-multiply hasher (the step of rustc's original
/// FxHash) for the fabric's small integer keys. It has no per-process
/// seed, so a map's probe sequences — and the time they take — repeat
/// from run to run, and a key costs a multiply per word where SipHash
/// runs rounds. The keys are peer slots, archive indices and shard
/// indices the fabric itself assigns (a frame's header is trusted only
/// after its seal verifies), not values an adversary picks, so
/// flooding resistance buys nothing.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct KeyHasher(u64);

impl KeyHasher {
    /// An odd multiplier with well-spread bits (rustc-hash 2's).
    const MUL: u64 = 0xf135_7aea_2e62_a9c5;

    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::MUL);
    }
}

impl Hasher for KeyHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(word.try_into().expect("chunks of 8")));
        }
        for &byte in words.remainder() {
            self.add(u64::from(byte));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    /// The multiply leaves its best-mixed bits at the top; the rotation
    /// brings them down to the bucket bits the table reads first.
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A `HashMap` under [`KeyHasher`].
type KeyMap<K, V> = HashMap<K, V, BuildHasherDefault<KeyHasher>>;

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
    /// Whether `bytes` still sum to `ingest_checksum`, as decided by
    /// the ingest and by every [`BlockStore::damage`] since.
    verdict: bool,
}

/// A placeholder entry of a table of blocks: no bytes, not intact.
pub(crate) const NO_BLOCK: StoredBlock<'static> = StoredBlock {
    shard_index: 0,
    bytes: &[],
    ingest_checksum: 0,
    verdict: false,
};

impl StoredBlock<'_> {
    /// True if the bytes still match their ingest-time sum: the verdict
    /// the store keeps, read without summing. Builds with debug
    /// assertions re-sum the bytes and panic if the verdict is stale.
    pub fn intact(&self) -> bool {
        #[cfg(any(test, debug_assertions))]
        assert_eq!(
            self.verdict,
            block_sum(self.bytes) == self.ingest_checksum,
            "a stored block changed without its verdict"
        );
        self.verdict
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
    /// Whether the slot's bytes still sum to `ingest_checksum`.
    intact: bool,
    /// The neighbours in the host's slot list ([`NIL`] at its ends).
    prev: u32,
    next: u32,
}

/// One host's slot list: its first slot and its length.
#[derive(Debug, Clone, Copy)]
struct HostList {
    head: u32,
    len: u32,
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
    index: KeyMap<BlockKey, u32>,
    /// Host → its slot list, for every host with a block at rest.
    hosts: KeyMap<PeerId, HostList>,
    /// Free slots, reused last-freed first.
    free: Vec<u32>,
}

impl BlockStore {
    /// An empty store.
    pub fn new() -> Self {
        BlockStore::default()
    }

    /// Decodes, verifies and stores one received frame on `host`: the
    /// frame is parsed in place, its payload copied straight into a
    /// slot, and the payload sum that verified the frame's seal kept as
    /// the block's ingest sum — one pass over the payload in all.
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
        debug_assert_eq!(
            frame.payload_sum,
            block_sum(payload),
            "a frame's verified sum is its payload's"
        );
        let key = (host, frame.owner, frame.archive);
        if let Some(&stored) = self.index.get(&key) {
            return Err(IngestError::DuplicateFrame {
                owner: frame.owner,
                archive: frame.archive,
                stored_shard: self.live(stored).shard_index,
            });
        }
        if self.meta.is_empty() {
            self.stride = payload.len();
        } else if payload.len() != self.stride {
            return Err(IngestError::WrongLength {
                stride: self.stride,
                len: payload.len(),
            });
        }
        let list = self
            .hosts
            .entry(host)
            .or_insert(HostList { head: NIL, len: 0 });
        let next = list.head;
        let meta = Some(SlotMeta {
            key,
            shard_index: frame.shard_index,
            ingest_checksum: frame.payload_sum,
            intact: true,
            prev: NIL,
            next,
        });
        let slot = match self.free.pop() {
            Some(slot) => {
                let at = slot as usize % PAGE_SLOTS * self.stride;
                self.pages[slot as usize / PAGE_SLOTS][at..at + self.stride]
                    .copy_from_slice(payload);
                self.meta[slot as usize] = meta;
                slot
            }
            None => {
                let slot = u32::try_from(self.meta.len())
                    .ok()
                    .filter(|&slot| slot != NIL)
                    .expect("fewer than 2^32 - 1 slots");
                if self.meta.len().is_multiple_of(PAGE_SLOTS) {
                    self.pages
                        .push(Vec::with_capacity(PAGE_SLOTS * self.stride));
                }
                let page = self.pages.last_mut().expect("a page with room exists");
                page.extend_from_slice(payload);
                self.meta.push(meta);
                slot
            }
        };
        list.head = slot;
        list.len += 1;
        if next != NIL {
            self.live_mut(next).prev = slot;
        }
        self.index.insert(key, slot);
        Ok(())
    }

    /// The metadata of live slot `slot`.
    fn live(&self, slot: u32) -> &SlotMeta {
        self.meta[slot as usize]
            .as_ref()
            .expect("indexed slots are live")
    }

    /// [`BlockStore::live`], mutably.
    fn live_mut(&mut self, slot: u32) -> &mut SlotMeta {
        self.meta[slot as usize]
            .as_mut()
            .expect("indexed slots are live")
    }

    /// The bytes of `slot`.
    fn slot_bytes(&self, slot: u32) -> &[u8] {
        let at = slot as usize % PAGE_SLOTS * self.stride;
        &self.pages[slot as usize / PAGE_SLOTS][at..at + self.stride]
    }

    /// Unlinks live slot `slot` from its host's list and marks it free
    /// (its key already left the index).
    fn release(&mut self, slot: u32) {
        let SlotMeta {
            key: (host, ..),
            prev,
            next,
            ..
        } = self.meta[slot as usize]
            .take()
            .expect("released slots are live");
        if next != NIL {
            self.live_mut(next).prev = prev;
        }
        if prev != NIL {
            self.live_mut(prev).next = next;
        }
        let list = self
            .hosts
            .get_mut(&host)
            .expect("a live slot's host is listed");
        if prev == NIL {
            list.head = next;
        }
        list.len -= 1;
        if list.len == 0 {
            self.hosts.remove(&host);
        }
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
        self.slot_of(host, owner, archive).map(|slot| self.at(slot))
    }

    /// The slot of the block `host` holds for `(owner, archive)`, if
    /// any.
    fn slot_of(&self, host: PeerId, owner: PeerId, archive: u8) -> Option<u32> {
        self.index.get(&(host, owner, archive)).copied()
    }

    /// The block in live slot `slot`.
    fn at(&self, slot: u32) -> StoredBlock<'_> {
        let meta = self.live(slot);
        StoredBlock {
            shard_index: meta.shard_index,
            bytes: self.slot_bytes(slot),
            ingest_checksum: meta.ingest_checksum,
            verdict: meta.intact,
        }
    }

    /// Damages the block `host` holds for `(owner, archive)` at rest:
    /// runs `damage` over its bytes, then re-sums them once to decide
    /// its verdict. The only way to change a stored block's bytes.
    /// Returns whether a block was stored (an absent one is left
    /// alone, and `damage` does not run).
    pub fn damage(
        &mut self,
        host: PeerId,
        owner: PeerId,
        archive: u8,
        damage: impl FnOnce(&mut [u8]),
    ) -> bool {
        let Some(slot) = self.slot_of(host, owner, archive) else {
            return false;
        };
        let at = slot as usize % PAGE_SLOTS * self.stride;
        let bytes = &mut self.pages[slot as usize / PAGE_SLOTS][at..at + self.stride];
        damage(bytes);
        let sum = block_sum(bytes);
        let meta = self.live_mut(slot);
        meta.intact = sum == meta.ingest_checksum;
        true
    }

    /// Scrubbing primitive: reads every stored block's verdict, walking
    /// the slab in slot order, and pushes `(host, owner, archive)` of
    /// each rotten one onto `out`, sorted (host-major, like every other
    /// ordered output of the store). Returns how many blocks were
    /// checked.
    pub fn collect_rotten(&self, out: &mut Vec<BlockKey>) -> usize {
        let first = out.len();
        for (slot, meta) in self.meta.iter().enumerate() {
            if let Some(meta) = meta {
                if !self.at(slot as u32).intact() {
                    out.push(meta.key);
                }
            }
        }
        out[first..].sort_unstable();
        self.index.len()
    }

    /// Drops everything `host` stores (slots recycled), walking the
    /// host's own slot list. Returns how many blocks vanished.
    pub fn clear_host(&mut self, host: PeerId) -> usize {
        let Some(list) = self.hosts.remove(&host) else {
            return 0;
        };
        let mut slot = list.head;
        while slot != NIL {
            let meta = self.meta[slot as usize]
                .take()
                .expect("listed slots are live");
            self.index.remove(&meta.key);
            self.free.push(slot);
            slot = meta.next;
        }
        list.len as usize
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
        self.hosts.get(&host).map_or(0, |list| list.len as usize)
    }

    /// Every stored block's `(host, owner, archive)`, sorted.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn keys(&self) -> impl Iterator<Item = BlockKey> {
        let mut keys: Vec<BlockKey> = self.index.keys().copied().collect();
        keys.sort_unstable();
        keys.into_iter()
    }

    /// Panics unless the index, the host lists, the slot metadata, the
    /// free list and the pages agree: every index entry names a live
    /// slot holding its key, every live slot is indexed, each host's
    /// list links exactly that host's live slots (its length and both
    /// directions of every link right), the free list holds exactly
    /// the free slots once each, every page still has the capacity it
    /// was allocated with, and every verdict is its bytes'.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn check_invariants(&self) {
        for (&key, &slot) in &self.index {
            assert_eq!(
                self.meta[slot as usize].map(|m| m.key),
                Some(key),
                "index entry {key:?} names slot {slot}, which does not hold it"
            );
            // Re-sums the block, and panics if its verdict is stale.
            self.at(slot).intact();
        }
        let live = self.meta.iter().filter(|m| m.is_some()).count();
        assert_eq!(live, self.index.len(), "live slots missing from the index");
        let mut listed = 0;
        for (&host, list) in &self.hosts {
            assert!(list.len > 0, "host {host} keeps an empty list");
            let (mut prev, mut slot, mut len) = (NIL, list.head, 0);
            while slot != NIL {
                let meta = self.live(slot);
                assert_eq!(meta.key.0, host, "slot {slot} is on host {host}'s list");
                assert_eq!(meta.prev, prev, "slot {slot}'s back link");
                (prev, slot, len) = (slot, meta.next, len + 1);
                assert!(len <= list.len, "host {host}'s list is longer than it says");
            }
            assert_eq!(len, list.len, "host {host}'s list length");
            listed += len as usize;
        }
        assert_eq!(listed, live, "a live slot is on no host's list");
        let mut free = self.free.clone();
        free.sort_unstable();
        free.dedup();
        assert_eq!(
            free.len(),
            self.free.len(),
            "a slot is on the free list twice"
        );
        assert!(
            free.iter().all(|&slot| self.meta[slot as usize].is_none()),
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
    use std::collections::BTreeMap;

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
                verdict: block_sum(bytes) == *ingest_checksum,
            })
        }

        fn flip(&mut self, (host, owner, archive): BlockKey, byte: usize, bit: u32) -> bool {
            let shelf = self.hosts.get_mut(&host);
            let block = shelf.and_then(|shelf| shelf.get_mut(&(owner, archive)));
            block.map(|(_, bytes, _)| bytes[byte] ^= 1 << bit).is_some()
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

        fn keys(&self) -> impl Iterator<Item = BlockKey> + '_ {
            self.hosts.iter().flat_map(|(&host, shelf)| {
                shelf
                    .keys()
                    .map(move |&(owner, archive)| (host, owner, archive))
            })
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
        assert!(store.damage(5, 1, 0, |bytes| bytes[7] ^= 0x40));
        assert!(!store.block(5, 1, 0).unwrap().intact());
        // Bitrot and a rotter may hit one bit: the second flip restores
        // the bytes, and the verdict follows them back.
        assert!(store.damage(5, 1, 0, |bytes| bytes[7] ^= 0x40));
        assert!(store.block(5, 1, 0).unwrap().intact());
        // An absent block is left alone: the damage never runs.
        assert!(!store.damage(5, 2, 0, |_| unreachable!("no block to damage")));
        store.check_invariants();
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
        /// The oracle decides each verdict by a fresh sum, so every
        /// block comparison checks the slab's cached one.
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
                        let flipped = slab.damage(host, owner, archive, |b| b[byte] ^= 1 << bit);
                        prop_assert_eq!(flipped, oracle.flip((host, owner, archive), byte, bit));
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
                prop_assert!(slab.keys().eq(oracle.keys()), "keys in another order");
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
