//! Archives: the unit of backup (paper §2.2.1).
//!
//! "During the backup task, new data … is collected on the file-system,
//! and is stored in a single file (archive). A new archive is created
//! when the previous one reaches a given size."
//!
//! [`ArchiveBuilder`] implements that collection process: entries are
//! appended until the capacity is reached, at which point a sealed
//! [`Archive`] is emitted and a new one begins. An archive serialises to
//! a flat byte payload (the thing that gets encrypted, split into `k`
//! blocks and erasure-coded) and parses back into its entries on
//! restore.

use std::sync::Arc;

use crate::wire::{Reader, WireError, Writer};

/// Identifier of an archive within one peer's backup set.
pub type ArchiveId = u64;

const MAGIC: &[u8; 4] = b"PBA1";

/// One named payload inside an archive (a file, or a diff).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Path or logical name.
    pub name: String,
    /// Contents, shared between clones.
    pub data: Arc<[u8]>,
}

/// A sealed archive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Archive {
    /// Identifier assigned by the builder (dense, starting at 0).
    pub id: ArchiveId,
    /// Whether this archive carries metadata rather than user data
    /// (metadata archives get higher redundancy in §2.2.1).
    pub is_metadata: bool,
    entries: Vec<Entry>,
}

impl Archive {
    /// Builds an archive directly from entries (tests, metadata
    /// archives).
    pub fn from_entries(id: ArchiveId, is_metadata: bool, entries: Vec<Entry>) -> Self {
        Archive {
            id,
            is_metadata,
            entries,
        }
    }

    /// The entries.
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// Total payload bytes across entries (excluding framing).
    pub fn payload_len(&self) -> usize {
        self.entries
            .iter()
            .map(|e| e.name.len() + e.data.len())
            .sum()
    }

    /// Serialises the archive to its on-network byte form.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_raw(MAGIC);
        w.put_u64(self.id);
        w.put_u8(self.is_metadata as u8);
        w.put_u32(self.entries.len() as u32);
        for e in &self.entries {
            w.put_str(&e.name);
            w.put_bytes(&e.data);
        }
        w.into_bytes()
    }

    /// Parses an archive from bytes.
    ///
    /// # Errors
    ///
    /// [`WireError`] on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(bytes);
        if r.get_raw(4)? != MAGIC {
            return Err(WireError::BadHeader);
        }
        let id = r.get_u64()?;
        let is_metadata = r.get_u8()? != 0;
        let count = r.get_u32()?;
        let mut entries = Vec::with_capacity(count.min(4096) as usize);
        for _ in 0..count {
            let name = r.get_str()?.to_owned();
            let data = Arc::from(r.get_bytes()?);
            entries.push(Entry { name, data });
        }
        r.finish()?;
        Ok(Archive {
            id,
            is_metadata,
            entries,
        })
    }

    /// Splits serialised bytes into exactly `k` equal blocks, padding
    /// with zeros. Returns the blocks and the unpadded length (which the
    /// master block records for restore).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn split_into_blocks(payload: &[u8], k: usize) -> (Vec<Vec<u8>>, u64) {
        assert!(k > 0, "k must be positive");
        let original_len = payload.len() as u64;
        let block_len = payload.len().div_ceil(k).max(1);
        let mut blocks = Vec::with_capacity(k);
        for i in 0..k {
            let start = (i * block_len).min(payload.len());
            let end = ((i + 1) * block_len).min(payload.len());
            let mut block = payload[start..end].to_vec();
            block.resize(block_len, 0);
            blocks.push(block);
        }
        (blocks, original_len)
    }

    /// Reassembles the serialised bytes from `k` data blocks and the
    /// recorded unpadded length.
    pub fn join_blocks(blocks: &[Vec<u8>], original_len: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(original_len as usize);
        for b in blocks {
            out.extend_from_slice(b);
        }
        out.truncate(original_len as usize);
        out
    }
}

/// Collects entries into size-capped archives.
#[derive(Debug)]
pub struct ArchiveBuilder {
    capacity_bytes: usize,
    next_id: ArchiveId,
    current: Vec<Entry>,
    current_bytes: usize,
}

impl ArchiveBuilder {
    /// The paper's archive capacity: 128 MB.
    pub const PAPER_CAPACITY: usize = 128 * 1024 * 1024;

    /// Creates a builder with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_bytes` is zero.
    pub fn new(capacity_bytes: usize) -> Self {
        assert!(capacity_bytes > 0, "archive capacity must be positive");
        ArchiveBuilder {
            capacity_bytes,
            next_id: 0,
            current: Vec::new(),
            current_bytes: 0,
        }
    }

    /// Adds an entry; returns any archives sealed as a result. Entries
    /// larger than the capacity occupy an archive of their own.
    pub fn push(&mut self, name: impl Into<String>, data: impl Into<Arc<[u8]>>) -> Vec<Archive> {
        let entry = Entry {
            name: name.into(),
            data: data.into(),
        };
        let entry_size = entry.name.len() + entry.data.len();
        let mut sealed = Vec::new();
        if self.current_bytes > 0 && self.current_bytes + entry_size > self.capacity_bytes {
            sealed.push(self.seal());
        }
        self.current_bytes += entry_size;
        self.current.push(entry);
        if self.current_bytes >= self.capacity_bytes {
            sealed.push(self.seal());
        }
        sealed
    }

    fn seal(&mut self) -> Archive {
        let id = self.next_id;
        self.next_id += 1;
        let entries = core::mem::take(&mut self.current);
        self.current_bytes = 0;
        Archive {
            id,
            is_metadata: false,
            entries,
        }
    }

    /// Seals and returns the open archive, if it has content.
    pub fn finish(mut self) -> Option<Archive> {
        (!self.current.is_empty()).then(|| self.seal())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(name: &str, len: usize, fill: u8) -> (String, Vec<u8>) {
        (name.to_string(), vec![fill; len])
    }

    #[test]
    fn serialisation_round_trips() {
        let archive = Archive::from_entries(
            7,
            true,
            vec![
                Entry {
                    name: "photos/cat.jpg".into(),
                    data: b"meow".as_slice().into(),
                },
                Entry {
                    name: "empty".into(),
                    data: Arc::from([]),
                },
            ],
        );
        let bytes = archive.to_bytes();
        let back = Archive::from_bytes(&bytes).unwrap();
        assert_eq!(back, archive);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = Archive::from_entries(0, false, vec![]).to_bytes();
        bytes[0] ^= 0xff;
        assert_eq!(Archive::from_bytes(&bytes), Err(WireError::BadHeader));
    }

    #[test]
    fn truncated_archive_is_rejected() {
        let bytes = Archive::from_entries(
            0,
            false,
            vec![Entry {
                name: "f".into(),
                data: Arc::from([1, 2, 3]),
            }],
        )
        .to_bytes();
        for cut in 1..bytes.len() {
            assert!(
                Archive::from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} accepted"
            );
        }
    }

    #[test]
    fn builder_seals_at_capacity() {
        let mut b = ArchiveBuilder::new(100);
        let (n1, d1) = entry("a", 40, 1);
        assert!(b.push(n1, d1).is_empty());
        let (n2, d2) = entry("b", 40, 2);
        assert!(b.push(n2, d2).is_empty());
        // Third entry would exceed 100 bytes: previous archive seals.
        let (n3, d3) = entry("c", 40, 3);
        let sealed = b.push(n3, d3);
        assert_eq!(sealed.len(), 1);
        assert_eq!(sealed[0].id, 0);
        assert_eq!(sealed[0].entries().len(), 2);
        let last = b.finish().unwrap();
        assert_eq!(last.id, 1);
        assert_eq!(last.entries().len(), 1);
    }

    #[test]
    fn oversized_entry_gets_its_own_archive() {
        let mut b = ArchiveBuilder::new(10);
        let (n, d) = entry("big", 100, 9);
        let sealed = b.push(n, d);
        assert_eq!(sealed.len(), 1);
        assert_eq!(sealed[0].entries().len(), 1);
        assert!(b.finish().is_none());
    }

    #[test]
    fn empty_builder_finishes_to_none() {
        assert!(ArchiveBuilder::new(10).finish().is_none());
    }

    #[test]
    fn ids_are_dense_and_increasing() {
        let mut b = ArchiveBuilder::new(10);
        let mut ids = Vec::new();
        for i in 0..5 {
            let (n, d) = entry("x", 10, i);
            for a in b.push(n, d) {
                ids.push(a.id);
            }
        }
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn split_and_join_blocks_round_trip() {
        for len in [0usize, 1, 7, 128, 129, 1000] {
            for k in [1usize, 2, 7, 128] {
                let payload: Vec<u8> = (0..len).map(|i| (i % 255) as u8).collect();
                let (blocks, original) = Archive::split_into_blocks(&payload, k);
                assert_eq!(blocks.len(), k, "len={len} k={k}");
                let block_len = blocks[0].len();
                assert!(blocks.iter().all(|b| b.len() == block_len));
                assert!(block_len * k >= len);
                let back = Archive::join_blocks(&blocks, original);
                assert_eq!(back, payload, "len={len} k={k}");
            }
        }
    }

    #[test]
    fn blocks_are_never_empty() {
        // Even an empty payload yields 1-byte zero blocks so the codec
        // has something to work with.
        let (blocks, len) = Archive::split_into_blocks(&[], 4);
        assert_eq!(len, 0);
        assert!(blocks.iter().all(|b| b.len() == 1));
    }

    #[test]
    fn payload_len_counts_names_and_data() {
        let a = Archive::from_entries(
            0,
            false,
            vec![Entry {
                name: "abc".into(),
                data: Arc::from([1, 2]),
            }],
        );
        assert_eq!(a.payload_len(), 5);
    }
}
