//! Property tests on the public wire formats: decoding arbitrary bytes
//! must never panic, and valid encodings must round-trip exactly —
//! including the fabric's block frames under the fault plane's shapes
//! (truncation mid-header, bit flips in the payload, duplicate
//! delivery), which must all surface as typed errors.

use proptest::prelude::*;

use peerback::core::archive::Entry;
use peerback::core::master::{ArchiveDescriptor, BlockPlacement};
use peerback::core::{Archive, MasterBlock};
use peerback::fabric::{BlockFrame, BlockStore, FrameError, IngestError};

fn arb_descriptor() -> impl Strategy<Value = ArchiveDescriptor> {
    (
        any::<u64>(),
        any::<u64>(),
        1u16..=256,
        0u16..=128,
        any::<bool>(),
        proptest::collection::vec(any::<u8>(), 0..32),
        proptest::collection::vec((any::<u32>(), any::<u64>()), 0..40),
    )
        .prop_map(
            |(archive_id, payload_len, k, m, is_metadata, session_key, placements)| {
                ArchiveDescriptor {
                    archive_id,
                    payload_len,
                    k,
                    m,
                    is_metadata,
                    session_key,
                    placements: placements
                        .into_iter()
                        .map(|(shard_index, partner)| BlockPlacement {
                            shard_index,
                            partner,
                        })
                        .collect(),
                }
            },
        )
}

proptest! {
    #[test]
    fn master_block_round_trips(
        owner in any::<u64>(),
        created_at in any::<u64>(),
        version in any::<u64>(),
        archives in proptest::collection::vec(arb_descriptor(), 0..8),
    ) {
        let mb = MasterBlock { owner, created_at, version, archives };
        let bytes = mb.to_bytes();
        let back = MasterBlock::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, mb);
    }

    #[test]
    fn master_block_decoder_never_panics_on_garbage(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        // Must return Ok or Err, never panic or hang.
        let _ = MasterBlock::from_bytes(&bytes);
    }

    #[test]
    fn archive_decoder_never_panics_on_garbage(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let _ = Archive::from_bytes(&bytes);
    }

    #[test]
    fn archive_round_trips(
        id in any::<u64>(),
        is_metadata in any::<bool>(),
        entries in proptest::collection::vec(
            ("[a-z/._-]{0,24}", proptest::collection::vec(any::<u8>(), 0..128)),
            0..6,
        ),
    ) {
        let archive = Archive::from_entries(
            id,
            is_metadata,
            entries
                .into_iter()
                .map(|(name, data)| Entry { name, data: data.into() })
                .collect(),
        );
        let back = Archive::from_bytes(&archive.to_bytes()).unwrap();
        prop_assert_eq!(back, archive);
    }

    #[test]
    fn truncated_master_blocks_error_cleanly(
        archives in proptest::collection::vec(arb_descriptor(), 1..4),
        cut_fraction in 0.0f64..1.0,
    ) {
        let mb = MasterBlock { owner: 1, created_at: 2, version: 3, archives };
        let bytes = mb.to_bytes();
        let cut = ((bytes.len() as f64) * cut_fraction) as usize;
        prop_assume!(cut < bytes.len());
        prop_assert!(MasterBlock::from_bytes(&bytes[..cut]).is_err());
    }

    // ----- fabric block frames under the fault plane's shapes ------------

    #[test]
    fn block_frames_round_trip(
        owner in any::<u32>(),
        archive in any::<u8>(),
        shard_index in any::<u32>(),
        payload in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let frame = BlockFrame { owner, archive, shard_index, payload };
        let back = BlockFrame::from_bytes(&frame.to_bytes()).unwrap();
        prop_assert_eq!(back, frame);
    }

    #[test]
    fn frame_decoder_never_panics_on_garbage(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let _ = BlockFrame::from_bytes(&bytes);
    }

    #[test]
    fn truncation_anywhere_including_mid_header_is_a_typed_wire_error(
        payload in proptest::collection::vec(any::<u8>(), 0..128),
        cut_fraction in 0.0f64..1.0,
    ) {
        let frame = BlockFrame { owner: 9, archive: 1, shard_index: 3, payload };
        let bytes = frame.to_bytes();
        let cut = ((bytes.len() as f64) * cut_fraction) as usize;
        prop_assume!(cut < bytes.len());
        // Typed error — never a panic, never a silent success. Cuts
        // inside the 13-byte header and inside the payload alike.
        prop_assert!(
            matches!(
                BlockFrame::from_bytes(&bytes[..cut]),
                Err(FrameError::Wire(_))
            ),
            "truncation at {cut} of {} did not yield a wire error",
            bytes.len()
        );
    }

    #[test]
    fn single_bit_corruption_never_decodes_silently(
        payload in proptest::collection::vec(any::<u8>(), 1..128),
        bit_fraction in 0.0f64..1.0,
    ) {
        let frame = BlockFrame { owner: 5, archive: 0, shard_index: 7, payload };
        let mut bytes = frame.to_bytes();
        let bit = ((bytes.len() * 8 - 1) as f64 * bit_fraction) as usize;
        bytes[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(BlockFrame::from_bytes(&bytes).is_err(), "flip of bit {} accepted", bit);
    }

    #[test]
    fn payload_bit_flips_specifically_fail_the_checksum(
        payload in proptest::collection::vec(any::<u8>(), 1..128),
        bit_fraction in 0.0f64..1.0,
    ) {
        let frame = BlockFrame { owner: 5, archive: 0, shard_index: 7, payload };
        let mut bytes = frame.to_bytes();
        let payload_start = 17; // magic 4 + owner 4 + archive 1 + shard 4 + len 4
        let payload_bits = (bytes.len() - payload_start - 8) * 8;
        prop_assume!(payload_bits > 0);
        let bit = ((payload_bits - 1) as f64 * bit_fraction) as usize;
        bytes[payload_start + bit / 8] ^= 1 << (bit % 8);
        prop_assert!(
            matches!(
                BlockFrame::from_bytes(&bytes),
                Err(FrameError::ChecksumMismatch { .. })
            ),
            "payload flip of bit {bit} was not a checksum mismatch"
        );
    }

    #[test]
    fn duplicate_frame_delivery_is_refused_not_merged(
        host in any::<u32>(),
        owner in any::<u32>(),
        archive in any::<u8>(),
        shard_index in 0u32..64,
        payload in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        let mut store = BlockStore::new();
        let bytes = BlockFrame { owner, archive, shard_index, payload }.to_bytes();
        store.ingest(host, &bytes).unwrap();
        // The retransmitted copy surfaces as a typed error…
        prop_assert!(
            matches!(
                store.ingest(host, &bytes),
                Err(IngestError::DuplicateFrame { stored_shard, .. }) if stored_shard == shard_index
            ),
            "duplicate delivery was not refused as DuplicateFrame"
        );
        // …and the store kept exactly one copy.
        prop_assert_eq!(store.total_blocks(), 1);
    }
}
