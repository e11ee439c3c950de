//! The block frame: one erasure-coded shard on the wire.
//!
//! A frame is what one peer actually ships to another when the
//! simulator decides a placement: a fixed header naming the block,
//! the shard payload, and a [`block_sum`] over everything before it.
//! The codec is built on [`peerback_core::wire`] and inherits its
//! strictness — truncation, hostile lengths and trailing bytes are
//! typed errors, never panics — and the trailing sum turns *any*
//! in-flight bit flip into a typed error as well, so a transfer can
//! never succeed silently with damaged bytes.
//!
//! ## Two sums, two jobs
//!
//! * [`block_sum`] guards **integrity**: the frame trailer here and the
//!   at-rest blocks of [`crate::store`]. It runs once or more per shard
//!   per transfer, scrub, challenge and audit gather, so speed matters;
//!   its value never leaves a run, so the algorithm may change (the
//!   frame magic names it).
//! * [`checksum`] (FNV-1a) fingerprints **reports**: the benchmark
//!   digests its results with it and compares them across commits, so
//!   stability matters and speed does not. Nothing in this crate calls
//!   it.

use core::fmt;

use peerback_core::wire::{Reader, WireError};
use peerback_core::PeerId;

/// `PBF2`: the trailer is a [`block_sum`] (`PBF1` carried FNV-1a).
const MAGIC: &[u8; 4] = b"PBF2";

/// FNV-1a over `bytes` — the report-digest function.
///
/// The benchmark fingerprints every report with it (`digest`,
/// `sim_digest`), and those fingerprints are compared between commits,
/// so this function must stay bit-identical. It protects no frame and
/// no stored block: that is [`block_sum`]'s job.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Bytes per [`block_sum`] stripe: four 8-byte lanes.
const STRIPE: usize = 32;

/// Odd multipliers, one per lane (also the lanes' start values, so a
/// run of zero bytes still moves every lane).
const LANE_MUL: [u64; 4] = [
    0x9e37_79b1_85eb_ca87,
    0xc2b2_ae3d_27d4_eb4f,
    0x1656_67b1_9e37_79f9,
    0x85eb_ca77_c2b2_ae63,
];

/// Odd multiplier of the lane fold and the tail.
const FOLD_MUL: u64 = 0x27d4_eb2f_1656_67c5;

/// One step of [`block_sum`]: xor the input in, multiply by an odd
/// constant, swap the halves. Each of the three is a bijection of the
/// state for a fixed input (and of the input for a fixed state), so a
/// change to one input word always changes the state after it. The
/// swap carries the well-mixed high half back down: a product's low
/// bits never depend on its operand's high bits, and without it a
/// flipped top bit would stay a lone top bit that a second such flip
/// further along the lane cancels.
#[inline(always)]
fn mix(state: u64, input: u64, mul: u64) -> u64 {
    (state ^ input).wrapping_mul(mul).rotate_left(32)
}

/// The integrity sum of frames in flight and blocks at rest.
///
/// Reads 32-byte stripes as four little-endian words feeding four
/// independent xor → multiply-by-odd → swap-halves chains — four
/// multiplies in flight, eight bytes per step, where a bytewise sum
/// has one and one — then folds the length, the lanes and the
/// `< 32`-byte tail into one word through the same step. Every step is
/// a bijection of the running state, so by construction every
/// single-bit flip changes the sum; lanes are ordered and individually
/// keyed, so moving words or stripes around does too, and the length
/// makes zero-extension visible. Not cryptographic (the threat model
/// is bitrot and transfer damage, not adversaries). Endian-fixed: the
/// value is the same on every host.
pub fn block_sum(bytes: &[u8]) -> u64 {
    #[cfg(test)]
    if oracle::active() {
        return checksum(bytes);
    }
    let mut lanes = LANE_MUL;
    let mut stripes = bytes.chunks_exact(STRIPE);
    for stripe in &mut stripes {
        for ((lane, word), mul) in lanes.iter_mut().zip(stripe.chunks_exact(8)).zip(LANE_MUL) {
            let word = u64::from_le_bytes(word.try_into().expect("chunks of 8"));
            *lane = mix(*lane, word, mul);
        }
    }
    let mut sum = mix(FOLD_MUL, bytes.len() as u64, FOLD_MUL);
    for lane in lanes {
        sum = mix(sum, lane, FOLD_MUL);
    }
    for &byte in stripes.remainder() {
        sum = mix(sum, u64::from(byte), FOLD_MUL);
    }
    sum
}

/// Test-only oracle switch: while active on a thread, [`block_sum`]
/// *is* FNV-1a there, so one build can run a scenario under the sum
/// this crate used to trust and under the one it trusts now.
#[cfg(test)]
pub(crate) mod oracle {
    use std::cell::Cell;

    thread_local! {
        static FNV: Cell<bool> = const { Cell::new(false) };
    }

    pub(crate) fn active() -> bool {
        FNV.with(Cell::get)
    }

    /// Runs `f` with [`block_sum`](super::block_sum) delegating to
    /// FNV-1a on the calling thread (only: work handed to pool helpers
    /// does not see it, so run such scenarios on one worker).
    pub(crate) fn with_fnv<T>(f: impl FnOnce() -> T) -> T {
        FNV.with(|c| c.set(true));
        let out = f();
        FNV.with(|c| c.set(false));
        out
    }
}

/// Frame decoding failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Structural damage: truncation, bad magic, hostile lengths.
    Wire(WireError),
    /// The frame parsed but its [`block_sum`] does not match —
    /// in-flight corruption of header or payload.
    ChecksumMismatch {
        /// Sum recorded in the frame.
        expected: u64,
        /// Sum recomputed over the received bytes.
        actual: u64,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Wire(e) => write!(f, "frame structure damaged: {e}"),
            FrameError::ChecksumMismatch { expected, actual } => {
                write!(
                    f,
                    "frame checksum mismatch: recorded {expected:#018x}, computed {actual:#018x}"
                )
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl From<WireError> for FrameError {
    fn from(e: WireError) -> Self {
        FrameError::Wire(e)
    }
}

/// One shard in flight: who owns it, which archive and shard it is,
/// and the coded bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockFrame {
    /// Owning peer slot.
    pub owner: PeerId,
    /// Archive index within the owner.
    pub archive: u8,
    /// Shard index within the code word (`0..n`).
    pub shard_index: u32,
    /// The coded shard bytes.
    pub payload: Vec<u8>,
}

impl BlockFrame {
    /// Serialised length of the fixed part (magic + header + payload
    /// length prefix + trailing checksum). Useful for link budgeting.
    pub const OVERHEAD: usize = 4 + 4 + 1 + 4 + 4 + 8;

    /// Encodes a frame around a borrowed payload: header,
    /// length-prefixed payload, then a [`block_sum`] over every
    /// preceding byte — written into one buffer of exact capacity, so
    /// shipping a shard costs one copy of it and one allocation.
    pub fn encode(owner: PeerId, archive: u8, shard_index: u32, payload: &[u8]) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(payload.len() + Self::OVERHEAD);
        Self::encode_into(&mut bytes, owner, archive, shard_index, payload);
        bytes
    }

    /// [`BlockFrame::encode`] into `out`, replacing what it held: a
    /// sender that ships many frames recycles one buffer and allocates
    /// nothing once its capacity fits a frame.
    ///
    /// # Panics
    ///
    /// Panics if the payload is 4 GiB or longer (its length prefix is
    /// a `u32`).
    pub fn encode_into(
        out: &mut Vec<u8>,
        owner: PeerId,
        archive: u8,
        shard_index: u32,
        payload: &[u8],
    ) {
        let len = u32::try_from(payload.len()).expect("payload larger than 4 GiB");
        out.clear();
        out.reserve(payload.len() + Self::OVERHEAD);
        // The layout `Writer` produces: raw magic, little-endian
        // integers, a `u32`-prefixed payload.
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&owner.to_le_bytes());
        out.push(archive);
        out.extend_from_slice(&shard_index.to_le_bytes());
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(payload);
        let sum = block_sum(out);
        out.extend_from_slice(&sum.to_le_bytes());
    }

    /// Encodes this frame (see [`BlockFrame::encode`]).
    pub fn to_bytes(&self) -> Vec<u8> {
        Self::encode(self.owner, self.archive, self.shard_index, &self.payload)
    }

    /// Decodes and verifies a frame in place: the payload stays a slice
    /// of `bytes` (the store copies it straight into its slab).
    ///
    /// # Errors
    ///
    /// [`FrameError::Wire`] on structural damage (truncation anywhere,
    /// bad magic, hostile length prefixes, trailing bytes);
    /// [`FrameError::ChecksumMismatch`] when the structure survives but
    /// any bit of header or payload changed in flight.
    pub fn parse(bytes: &[u8]) -> Result<FrameRef<'_>, FrameError> {
        let mut r = Reader::new(bytes);
        if r.get_raw(4)? != MAGIC {
            return Err(WireError::BadHeader.into());
        }
        let owner = r.get_u32()?;
        let archive = r.get_u8()?;
        let shard_index = r.get_u32()?;
        let payload = r.get_bytes()?;
        let expected = r.get_u64()?;
        r.finish()?;
        let actual = block_sum(&bytes[..bytes.len() - 8]);
        if actual != expected {
            return Err(FrameError::ChecksumMismatch { expected, actual });
        }
        Ok(FrameRef {
            owner,
            archive,
            shard_index,
            payload,
        })
    }

    /// Decodes and verifies a frame into an owned copy (see
    /// [`BlockFrame::parse`]).
    ///
    /// # Errors
    ///
    /// As [`BlockFrame::parse`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, FrameError> {
        Self::parse(bytes).map(|frame| frame.to_owned())
    }
}

/// A verified frame borrowed from its wire bytes (what
/// [`BlockFrame::parse`] returns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameRef<'a> {
    /// Owning peer slot.
    pub owner: PeerId,
    /// Archive index within the owner.
    pub archive: u8,
    /// Shard index within the code word (`0..n`).
    pub shard_index: u32,
    /// The coded shard bytes, in place in the frame.
    pub payload: &'a [u8],
}

impl FrameRef<'_> {
    /// An owned copy of the frame.
    pub fn to_owned(&self) -> BlockFrame {
        BlockFrame {
            owner: self.owner,
            archive: self.archive,
            shard_index: self.shard_index,
            payload: self.payload.to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame() -> BlockFrame {
        BlockFrame {
            owner: 17,
            archive: 2,
            shard_index: 9,
            payload: (0..=100u8).collect(),
        }
    }

    /// Position-dependent, non-repeating filler (no two words alike).
    fn filler(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15).to_le_bytes()[5])
            .collect()
    }

    #[test]
    fn checksum_is_fnv1a_64() {
        // The benchmark's `digest` / `sim_digest` are computed with
        // `checksum` and compared across commits: these answers (the
        // published FNV-1a 64 vectors) must never change.
        assert_eq!(checksum(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(checksum(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn block_sum_known_answers() {
        // Guards the byte order and the constants against accidental
        // edits; a deliberate change of algorithm moves the magic too.
        let ramp: Vec<u8> = (0..=255).collect();
        assert_eq!(block_sum(b""), 0xc9d8_9268_7b2a_3317);
        assert_eq!(block_sum(b"a"), 0x4fb3_3a80_6630_f6e7);
        assert_eq!(block_sum(&ramp), 0x7178_aa82_b72c_6d35);
    }

    #[test]
    fn block_sum_detects_every_single_bit_flip_at_every_length() {
        // Empty, tail only, one stripe, stripe + tail, many stripes,
        // and a whole 2 KiB-shard frame.
        for len in (0..=97).chain([2048 + BlockFrame::OVERHEAD]) {
            let bytes = filler(len);
            let sum = block_sum(&bytes);
            let mut damaged = bytes.clone();
            for byte in 0..len {
                for bit in 0..8 {
                    damaged[byte] ^= 1 << bit;
                    assert_ne!(block_sum(&damaged), sum, "len {len} byte {byte} bit {bit}");
                    damaged[byte] ^= 1 << bit;
                }
            }
        }
    }

    #[test]
    fn block_sum_is_order_sensitive() {
        // A plain xor or add of the words passes the bit-flip test and
        // fails this one.
        let bytes = filler(4 * STRIPE + 5);
        let sum = block_sum(&bytes);
        let swapped = |a: usize, b: usize, width: usize| {
            let mut v = bytes.clone();
            for i in 0..width {
                v.swap(a * width + i, b * width + i);
            }
            block_sum(&v)
        };
        for stripe in 0..4 {
            for a in 0..4 {
                for b in a + 1..4 {
                    let (a, b) = (stripe * 4 + a, stripe * 4 + b);
                    assert_ne!(swapped(a, b, 8), sum, "words {a} and {b} swapped");
                }
            }
        }
        for a in 0..4 {
            for b in a + 1..4 {
                assert_ne!(swapped(a, b, STRIPE), sum, "stripes {a} and {b} swapped");
            }
        }
    }

    #[test]
    fn block_sum_top_bit_flips_in_one_lane_do_not_cancel() {
        // Bitrot and a rotting host can each flip a bit of one stored
        // block. Under a bare xor-multiply lane a flipped top bit stays
        // a lone top bit for ever, so a second one further along the
        // lane would cancel it; the half swap in `mix` prevents that.
        let bytes = filler(8 * STRIPE);
        let sum = block_sum(&bytes);
        for lane in 0..4 {
            for a in 0..8 {
                for b in a + 1..8 {
                    let mut damaged = bytes.clone();
                    damaged[a * STRIPE + lane * 8 + 7] ^= 0x80;
                    damaged[b * STRIPE + lane * 8 + 7] ^= 0x80;
                    assert_ne!(block_sum(&damaged), sum, "lane {lane} stripes {a}, {b}");
                }
            }
        }
    }

    #[test]
    fn block_sum_sees_zero_extension() {
        for len in 0..=97 {
            let mut bytes = filler(len);
            let sum = block_sum(&bytes);
            bytes.push(0);
            assert_ne!(block_sum(&bytes), sum, "len {len} + one zero byte");
        }
        // All-zero inputs differ by length alone.
        let zeros = [0u8; 3 * STRIPE];
        let sums: std::collections::BTreeSet<u64> =
            (0..=zeros.len()).map(|n| block_sum(&zeros[..n])).collect();
        assert_eq!(sums.len(), zeros.len() + 1);
    }

    #[test]
    fn oracle_switch_turns_block_sum_into_fnv1a() {
        let bytes = filler(100);
        assert_ne!(block_sum(&bytes), checksum(&bytes));
        oracle::with_fnv(|| assert_eq!(block_sum(&bytes), checksum(&bytes)));
        assert_ne!(block_sum(&bytes), checksum(&bytes));
    }

    #[test]
    fn round_trips() {
        let f = frame();
        let bytes = f.to_bytes();
        assert_eq!(bytes.len(), f.payload.len() + BlockFrame::OVERHEAD);
        assert_eq!(BlockFrame::from_bytes(&bytes).unwrap(), f);
    }

    #[test]
    fn encode_into_overwrites_a_recycled_buffer_in_the_wire_layout() {
        let f = frame();
        // The layout spelled out through the wire codec's writer.
        let mut w = peerback_core::wire::Writer::new();
        w.put_raw(MAGIC);
        w.put_u32(f.owner);
        w.put_u8(f.archive);
        w.put_u32(f.shard_index);
        w.put_bytes(&f.payload);
        let mut expected = w.into_bytes();
        expected.extend_from_slice(&block_sum(&expected).to_le_bytes());
        assert_eq!(f.to_bytes(), expected);

        // A longer frame's leftovers, then a truncated one's: nothing
        // of either survives into the next encode.
        let mut buf = BlockFrame::encode(1, 2, 3, &[0xAB; 500]);
        BlockFrame::encode_into(&mut buf, f.owner, f.archive, f.shard_index, &f.payload);
        assert_eq!(buf, expected);
        buf.truncate(7);
        BlockFrame::encode_into(&mut buf, f.owner, f.archive, f.shard_index, &f.payload);
        assert_eq!(buf, expected);
    }

    #[test]
    fn every_truncation_point_is_a_typed_error() {
        let bytes = frame().to_bytes();
        for cut in 0..bytes.len() {
            let err = BlockFrame::from_bytes(&bytes[..cut])
                .expect_err(&format!("truncation at {cut} accepted"));
            assert!(matches!(err, FrameError::Wire(_)), "cut {cut}: {err:?}");
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let bytes = frame().to_bytes();
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut damaged = bytes.clone();
                damaged[byte] ^= 1 << bit;
                assert!(
                    BlockFrame::from_bytes(&damaged).is_err(),
                    "flip of bit {bit} in byte {byte} went unnoticed"
                );
            }
        }
    }

    #[test]
    fn payload_flip_is_a_checksum_mismatch() {
        let f = frame();
        let mut bytes = f.to_bytes();
        // Flip one payload bit (header is 13 bytes + 4-byte length).
        let payload_start = 4 + 4 + 1 + 4 + 4;
        bytes[payload_start + 5] ^= 0x10;
        assert!(matches!(
            BlockFrame::from_bytes(&bytes),
            Err(FrameError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = frame().to_bytes();
        bytes.push(0);
        assert!(matches!(
            BlockFrame::from_bytes(&bytes),
            Err(FrameError::Wire(WireError::TrailingBytes { .. }))
        ));
    }

    #[test]
    fn empty_payload_is_fine() {
        let f = BlockFrame {
            owner: 0,
            archive: 0,
            shard_index: 0,
            payload: Vec::new(),
        };
        assert_eq!(BlockFrame::from_bytes(&f.to_bytes()).unwrap(), f);
    }
}
