//! The struct-of-arrays peer table: flat per-peer columns plus fixed-
//! stride slab storage for partner and hosted lists.
//!
//! The old array-of-structs `Peer` scattered every peer's hot state
//! behind three levels of pointers: a `Vec<ArchiveState>` per peer, a
//! partner `Vec` (plus a stale-partner `Vec`) per archive, and a hosted
//! ledger `Vec` per peer — ~5.6 KiB of doubling-grown heap per peer at
//! the gated 4096-peer scenario, dominated by the hosted ledgers and
//! partner lists. [`PeerTable`] stores the same state as parallel
//! columns keyed by the `u32` slot index:
//!
//! * **Hot columns** — scanned every round by the shard loops:
//!   `online`, `queued`, `epoch`, `session_seq`, `quota_used`,
//!   `threshold`, `hosted_len`.
//! * **Cold columns** — read on event handling and scoring only:
//!   `profile`, `observer`, `misreports`, `birth`, `death`,
//!   `online_accum`, `last_transition`, `repairs`, `losses`.
//! * **Archive columns** (stride `archives_per_peer`): a packed flag
//!   byte (joined / repairing / struggled), the maintained `target_n`,
//!   and the fresh/stale partner counts.
//! * **Slabs** — fixed-stride regions replacing the per-peer `Vec`s:
//!   each archive owns `n` partner slots (fresh partners grow from the
//!   front, stale partners are stored *reversed* from the back, so
//!   every `Vec` operation the protocol used — `push`, `pop`,
//!   `swap_remove`, ordered `remove`, the refresh swap — keeps its
//!   exact sequence semantics in O(1)/O(len)); each peer owns
//!   `quota + observers × archives_per_peer` hosted slots holding
//!   packed `owner × archives_per_peer + aidx` entries.
//!
//! The slab widths are *invariants*, not guesses: the commit path
//! displaces stale partners before attaching past the slab width (see
//! `repair.rs`), so `fresh + stale ≤ n` holds at every intermediate
//! step; the grant stage's quota check bounds non-observer hosted
//! entries by `quota`, and a host stores at most one block per
//! `(observer, archive)` pair.
//!
//! Parallel stages carve the table into per-shard [`PeerView`]s via
//! [`ColSplit`] — one `split_at_mut` walk per column, no allocation —
//! and the identical accessor API is generated for both the owned
//! table and the borrowed view by one macro, so sequential and
//! lane-based code read the same way.

use peerback_sim::prefetch;

use crate::age::AgeCategory;

use super::peers::{ArchiveIdx, PeerId, OFFLINE};

/// Sentinel in the `observer` column for regular peers.
const NO_OBSERVER: u8 = u8::MAX;

/// Entries compared per step of the partner and ledger scans.
const SCAN_LANES: usize = 16;

/// Leading entries of a partner region or hosted ledger a message
/// stage prefetches ahead of applying a message to it: eight cache
/// lines.
const PREFETCH_ENTRIES: usize = 128;

/// `hay.iter().position(|&e| e == needle)`, sixteen entries per step:
/// each chunk is first tested for any hit — an OR of its comparisons,
/// one vector compare once optimised — so the common miss costs one
/// branch per chunk, and only the chunk that hits builds the bit mask
/// whose lowest set bit locates the entry. Teardown and release scans
/// of partner lists and hosted ledgers go through here.
#[inline]
pub(in crate::world) fn first_match(hay: &[u32], needle: u32) -> Option<usize> {
    let (chunks, tail) = hay.as_chunks::<SCAN_LANES>();
    for (c, chunk) in chunks.iter().enumerate() {
        if any_match(chunk, needle) {
            let mask = match_mask(chunk, needle);
            return Some(c * SCAN_LANES + mask.trailing_zeros() as usize);
        }
    }
    let base = chunks.len() * SCAN_LANES;
    tail.iter().position(|&e| e == needle).map(|i| base + i)
}

/// `hay.iter().rposition(|&e| e == needle)`: [`first_match`] run from
/// the back, a hit being the mask's highest set bit.
#[inline]
pub(in crate::world) fn last_match(hay: &[u32], needle: u32) -> Option<usize> {
    let (head, chunks) = hay.as_rchunks::<SCAN_LANES>();
    for (c, chunk) in chunks.iter().enumerate().rev() {
        if any_match(chunk, needle) {
            let mask = match_mask(chunk, needle);
            let top = u32::BITS - 1 - mask.leading_zeros();
            return Some(head.len() + c * SCAN_LANES + top as usize);
        }
    }
    head.iter().rposition(|&e| e == needle)
}

/// Whether any entry of `chunk` equals `needle`.
#[inline]
fn any_match(chunk: &[u32; SCAN_LANES], needle: u32) -> bool {
    chunk.iter().fold(false, |hit, &e| hit | (e == needle))
}

/// Bit `i` set iff `chunk[i] == needle`.
#[inline]
fn match_mask(chunk: &[u32; SCAN_LANES], needle: u32) -> u32 {
    let mut mask = 0;
    for (i, &e) in chunk.iter().enumerate() {
        mask |= u32::from(e == needle) << i;
    }
    mask
}

/// `arch_flags` bit: the archive finished its initial upload.
const JOINED: u8 = 1;
/// `arch_flags` bit: a repair episode is open.
const REPAIRING: u8 = 1 << 1;
/// `arch_flags` bit: the open episode hit a pool shortfall.
const STRUGGLED: u8 = 1 << 2;

/// Generates the column accessor API shared by [`PeerTable`] (owned
/// `Vec` columns, global ids) and [`PeerView`] (borrowed per-shard
/// slices, ids offset by the view's base). Both types expose fields of
/// the same names and an `l(id)` local-index mapping, so the bodies
/// compile identically against either representation.
macro_rules! peer_columns_api {
    () => {
        /// Archive-column stride (`SimConfig::archives_per_peer`).
        #[inline]
        pub(in crate::world) fn archives_per_peer(&self) -> usize {
            self.apap
        }

        // ----- scalar columns ----------------------------------------------

        #[inline]
        pub(in crate::world) fn online(&self, id: PeerId) -> bool {
            self.online[self.l(id)]
        }

        #[inline]
        pub(in crate::world) fn queued(&self, id: PeerId) -> bool {
            self.queued[self.l(id)]
        }

        #[inline]
        pub(in crate::world) fn set_queued(&mut self, id: PeerId, v: bool) {
            let i = self.l(id);
            self.queued[i] = v;
        }

        #[inline]
        pub(in crate::world) fn epoch(&self, id: PeerId) -> u32 {
            self.epoch[self.l(id)]
        }

        pub(in crate::world) fn bump_epoch(&mut self, id: PeerId) {
            let i = self.l(id);
            self.epoch[i] = self.epoch[i].wrapping_add(1);
        }

        #[inline]
        pub(in crate::world) fn session_seq(&self, id: PeerId) -> u32 {
            self.session_seq[self.l(id)]
        }

        pub(in crate::world) fn set_session_seq(&mut self, id: PeerId, v: u32) {
            let i = self.l(id);
            self.session_seq[i] = v;
        }

        pub(in crate::world) fn bump_session_seq(&mut self, id: PeerId) {
            let i = self.l(id);
            self.session_seq[i] = self.session_seq[i].wrapping_add(1);
        }

        #[inline]
        pub(in crate::world) fn quota_used(&self, id: PeerId) -> u32 {
            self.quota_used[self.l(id)]
        }

        pub(in crate::world) fn set_quota_used(&mut self, id: PeerId, v: u32) {
            let i = self.l(id);
            self.quota_used[i] = v;
        }

        #[inline]
        pub(in crate::world) fn threshold(&self, id: PeerId) -> u16 {
            self.threshold[self.l(id)]
        }

        pub(in crate::world) fn set_threshold(&mut self, id: PeerId, v: u16) {
            let i = self.l(id);
            self.threshold[i] = v;
        }

        #[inline]
        pub(in crate::world) fn profile(&self, id: PeerId) -> u8 {
            self.profile[self.l(id)]
        }

        pub(in crate::world) fn set_profile(&mut self, id: PeerId, v: u8) {
            let i = self.l(id);
            self.profile[i] = v;
        }

        #[inline]
        pub(in crate::world) fn observer(&self, id: PeerId) -> Option<u8> {
            let v = self.observer[self.l(id)];
            (v != NO_OBSERVER).then_some(v)
        }

        pub(in crate::world) fn set_observer(&mut self, id: PeerId, v: Option<u8>) {
            let i = self.l(id);
            debug_assert!(
                v != Some(NO_OBSERVER),
                "observer index collides with sentinel"
            );
            self.observer[i] = v.unwrap_or(NO_OBSERVER);
        }

        #[inline]
        pub(in crate::world) fn misreports(&self, id: PeerId) -> bool {
            self.misreports[self.l(id)]
        }

        pub(in crate::world) fn set_misreports(&mut self, id: PeerId, v: bool) {
            let i = self.l(id);
            self.misreports[i] = v;
        }

        /// The peer's failure domain (0 when domains are disabled).
        #[inline]
        pub(in crate::world) fn domain(&self, id: PeerId) -> u16 {
            self.domain[self.l(id)]
        }

        pub(in crate::world) fn set_domain(&mut self, id: PeerId, v: u16) {
            let i = self.l(id);
            self.domain[i] = v;
        }

        /// Integrity-failure count in the reputation ledger.
        #[inline]
        pub(in crate::world) fn suspicion(&self, id: PeerId) -> u8 {
            self.suspicion[self.l(id)]
        }

        pub(in crate::world) fn set_suspicion(&mut self, id: PeerId, v: u8) {
            let i = self.l(id);
            self.suspicion[i] = v;
        }

        pub(in crate::world) fn bump_suspicion(&mut self, id: PeerId) -> u8 {
            let i = self.l(id);
            self.suspicion[i] = self.suspicion[i].saturating_add(1);
            self.suspicion[i]
        }

        /// Whether the host is quarantined (never selected as a partner).
        #[inline]
        pub(in crate::world) fn quarantined(&self, id: PeerId) -> bool {
            self.quarantined[self.l(id)]
        }

        pub(in crate::world) fn set_quarantined(&mut self, id: PeerId, v: bool) {
            let i = self.l(id);
            self.quarantined[i] = v;
        }

        #[inline]
        pub(in crate::world) fn birth(&self, id: PeerId) -> u64 {
            self.birth[self.l(id)]
        }

        pub(in crate::world) fn set_birth(&mut self, id: PeerId, v: u64) {
            let i = self.l(id);
            self.birth[i] = v;
        }

        #[inline]
        pub(in crate::world) fn death(&self, id: PeerId) -> u64 {
            self.death[self.l(id)]
        }

        pub(in crate::world) fn set_death(&mut self, id: PeerId, v: u64) {
            let i = self.l(id);
            self.death[i] = v;
        }

        #[inline]
        pub(in crate::world) fn online_accum(&self, id: PeerId) -> u64 {
            self.online_accum[self.l(id)]
        }

        pub(in crate::world) fn set_online_accum(&mut self, id: PeerId, v: u64) {
            let i = self.l(id);
            self.online_accum[i] = v;
        }

        #[inline]
        pub(in crate::world) fn last_transition(&self, id: PeerId) -> u64 {
            self.last_transition[self.l(id)]
        }

        pub(in crate::world) fn set_last_transition(&mut self, id: PeerId, v: u64) {
            let i = self.l(id);
            self.last_transition[i] = v;
        }

        #[inline]
        pub(in crate::world) fn repairs(&self, id: PeerId) -> u64 {
            self.repairs[self.l(id)]
        }

        pub(in crate::world) fn bump_repairs(&mut self, id: PeerId) {
            let i = self.l(id);
            self.repairs[i] += 1;
        }

        #[inline]
        pub(in crate::world) fn losses(&self, id: PeerId) -> u64 {
            self.losses[self.l(id)]
        }

        pub(in crate::world) fn bump_losses(&mut self, id: PeerId) {
            let i = self.l(id);
            self.losses[i] += 1;
        }

        // ----- derived reads (the observable per-peer API) -----------------

        #[inline]
        pub(in crate::world) fn age_at(&self, id: PeerId, round: u64) -> u64 {
            round.saturating_sub(self.birth[self.l(id)])
        }

        pub(in crate::world) fn category_at(&self, id: PeerId, round: u64) -> AgeCategory {
            AgeCategory::of_age(self.age_at(id, round))
        }

        /// Observed lifetime uptime fraction at `round` (1.0 at age zero
        /// — a freshly arrived peer has a clean record).
        pub(in crate::world) fn uptime_at(&self, id: PeerId, round: u64) -> f64 {
            let i = self.l(id);
            let age = round.saturating_sub(self.birth[i]);
            if age == 0 {
                return 1.0;
            }
            let mut online_rounds = self.online_accum[i];
            if self.online[i] {
                online_rounds += round.saturating_sub(self.last_transition[i]);
            }
            (online_rounds as f64 / age as f64).clamp(0.0, 1.0)
        }

        /// True when every archive finished its initial upload
        /// ("included in the network", §3.2).
        pub(in crate::world) fn fully_joined(&self, id: PeerId) -> bool {
            let a0 = self.l(id) * self.apap;
            self.arch_flags[a0..a0 + self.apap]
                .iter()
                .all(|&f| f & JOINED != 0)
        }

        // ----- archive columns ---------------------------------------------

        /// Local index of archive `(id, aidx)` in the archive columns.
        #[inline]
        fn ai(&self, id: PeerId, aidx: usize) -> usize {
            debug_assert!(aidx < self.apap);
            self.l(id) * self.apap + aidx
        }

        /// First partner-slab slot of archive `(id, aidx)`.
        #[inline]
        fn poff(&self, id: PeerId, aidx: usize) -> usize {
            self.ai(id, aidx) * self.slab_n
        }

        #[inline]
        pub(in crate::world) fn joined(&self, id: PeerId, aidx: usize) -> bool {
            self.arch_flags[self.ai(id, aidx)] & JOINED != 0
        }

        pub(in crate::world) fn set_joined(&mut self, id: PeerId, aidx: usize, v: bool) {
            let a = self.ai(id, aidx);
            if v {
                self.arch_flags[a] |= JOINED;
            } else {
                self.arch_flags[a] &= !JOINED;
            }
        }

        #[inline]
        pub(in crate::world) fn repairing(&self, id: PeerId, aidx: usize) -> bool {
            self.arch_flags[self.ai(id, aidx)] & REPAIRING != 0
        }

        pub(in crate::world) fn set_repairing(&mut self, id: PeerId, aidx: usize, v: bool) {
            let a = self.ai(id, aidx);
            if v {
                self.arch_flags[a] |= REPAIRING;
            } else {
                self.arch_flags[a] &= !REPAIRING;
            }
        }

        #[inline]
        pub(in crate::world) fn struggled(&self, id: PeerId, aidx: usize) -> bool {
            self.arch_flags[self.ai(id, aidx)] & STRUGGLED != 0
        }

        pub(in crate::world) fn set_struggled(&mut self, id: PeerId, aidx: usize, v: bool) {
            let a = self.ai(id, aidx);
            if v {
                self.arch_flags[a] |= STRUGGLED;
            } else {
                self.arch_flags[a] &= !STRUGGLED;
            }
        }

        #[inline]
        pub(in crate::world) fn target(&self, id: PeerId, aidx: usize) -> u32 {
            self.arch_target[self.ai(id, aidx)]
        }

        pub(in crate::world) fn set_target(&mut self, id: PeerId, aidx: usize, v: u32) {
            let a = self.ai(id, aidx);
            self.arch_target[a] = v;
        }

        // ----- partner / stale-partner slab --------------------------------
        //
        // Fresh partners occupy `[0..p)` of the archive's `n`-slot slab
        // region in insertion order; stale partners occupy `[n - s..n)`
        // stored *reversed* (`stale[i]` lives at slot `n - 1 - i`), so
        // `push`/`pop`/`swap_remove` keep exact `Vec` sequence
        // semantics without the regions ever colliding (`p + s ≤ n` is
        // a protocol invariant, see the module docs).

        #[inline]
        pub(in crate::world) fn partners_len(&self, id: PeerId, aidx: usize) -> usize {
            self.part_len[self.ai(id, aidx)] as usize
        }

        #[inline]
        pub(in crate::world) fn stale_len(&self, id: PeerId, aidx: usize) -> usize {
            self.stale_len[self.ai(id, aidx)] as usize
        }

        /// Blocks still in the network — the paper's `n − d`.
        #[inline]
        pub(in crate::world) fn present(&self, id: PeerId, aidx: usize) -> u32 {
            let a = self.ai(id, aidx);
            (self.part_len[a] + self.stale_len[a]) as u32
        }

        /// The fresh partner list, in insertion order.
        #[inline]
        pub(in crate::world) fn partners(&self, id: PeerId, aidx: usize) -> &[PeerId] {
            let off = self.poff(id, aidx);
            &self.partner_slab[off..off + self.partners_len(id, aidx)]
        }

        #[inline]
        pub(in crate::world) fn stale_at(&self, id: PeerId, aidx: usize, i: usize) -> PeerId {
            debug_assert!(i < self.stale_len(id, aidx));
            self.partner_slab[self.poff(id, aidx) + self.slab_n - 1 - i]
        }

        /// Partner `i` of the combined fresh-then-stale sequence — the
        /// order the old `partners.iter().chain(&stale_partners)` walks
        /// observed.
        #[inline]
        pub(in crate::world) fn host_at(&self, id: PeerId, aidx: usize, i: usize) -> PeerId {
            let p = self.partners_len(id, aidx);
            if i < p {
                self.partner_slab[self.poff(id, aidx) + i]
            } else {
                self.stale_at(id, aidx, i - p)
            }
        }

        pub(in crate::world) fn push_partner(&mut self, id: PeerId, aidx: usize, host: PeerId) {
            let a = self.ai(id, aidx);
            let p = self.part_len[a] as usize;
            debug_assert!(
                p + (self.stale_len[a] as usize) < self.slab_n,
                "partner slab overflow"
            );
            let off = self.poff(id, aidx);
            self.partner_slab[off + p] = host;
            self.part_len[a] = (p + 1) as u16;
        }

        pub(in crate::world) fn partner_position(
            &self,
            id: PeerId,
            aidx: usize,
            host: PeerId,
        ) -> Option<usize> {
            first_match(self.partners(id, aidx), host)
        }

        pub(in crate::world) fn swap_remove_partner(
            &mut self,
            id: PeerId,
            aidx: usize,
            pos: usize,
        ) {
            let a = self.ai(id, aidx);
            let p = self.part_len[a] as usize;
            debug_assert!(pos < p);
            let off = self.poff(id, aidx);
            self.partner_slab[off + pos] = self.partner_slab[off + p - 1];
            self.part_len[a] = (p - 1) as u16;
        }

        /// Ordered removal (the old `Vec::remove`): shifts the tail left.
        pub(in crate::world) fn remove_partner(&mut self, id: PeerId, aidx: usize, pos: usize) {
            let a = self.ai(id, aidx);
            let p = self.part_len[a] as usize;
            debug_assert!(pos < p);
            let off = self.poff(id, aidx);
            self.partner_slab[off..off + p].copy_within(pos + 1.., pos);
            self.part_len[a] = (p - 1) as u16;
        }

        pub(in crate::world) fn stale_position(
            &self,
            id: PeerId,
            aidx: usize,
            host: PeerId,
        ) -> Option<usize> {
            // The stale list is stored reversed, so its first logical
            // match is the region's last physical one.
            let s = self.stale_len(id, aidx);
            let end = self.poff(id, aidx) + self.slab_n;
            last_match(&self.partner_slab[end - s..end], host).map(|p| s - 1 - p)
        }

        pub(in crate::world) fn swap_remove_stale(&mut self, id: PeerId, aidx: usize, pos: usize) {
            let a = self.ai(id, aidx);
            let s = self.stale_len[a] as usize;
            debug_assert!(pos < s);
            let off = self.poff(id, aidx);
            let n = self.slab_n;
            // `stale[pos] = stale[s - 1]; truncate`: the logical last
            // element lives at the region's *lowest* slot.
            self.partner_slab[off + n - 1 - pos] = self.partner_slab[off + n - s];
            self.stale_len[a] = (s - 1) as u16;
        }

        /// The old `stale_partners.pop()`: removes and returns the
        /// logical last stale partner.
        pub(in crate::world) fn pop_stale(&mut self, id: PeerId, aidx: usize) -> Option<PeerId> {
            let a = self.ai(id, aidx);
            let s = self.stale_len[a] as usize;
            if s == 0 {
                return None;
            }
            let host = self.partner_slab[self.poff(id, aidx) + self.slab_n - s];
            self.stale_len[a] = (s - 1) as u16;
            Some(host)
        }

        /// Empties both partner lists (teardown; slab slots need no wipe).
        pub(in crate::world) fn clear_partner_lists(&mut self, id: PeerId, aidx: usize) {
            let a = self.ai(id, aidx);
            self.part_len[a] = 0;
            self.stale_len[a] = 0;
        }

        /// The refresh swap (`mem::swap(partners, stale_partners)` with
        /// `stale` empty): the fresh list becomes the stale list, same
        /// logical order. `copy_within` (memmove) plus an in-place
        /// reverse handles the overlapping front/back regions.
        pub(in crate::world) fn refresh_to_stale(&mut self, id: PeerId, aidx: usize) {
            let a = self.ai(id, aidx);
            debug_assert_eq!(self.stale_len[a], 0, "refresh with stale partners pending");
            let p = self.part_len[a] as usize;
            let off = self.poff(id, aidx);
            let n = self.slab_n;
            self.partner_slab[off..off + n].copy_within(0..p, n - p);
            self.partner_slab[off + n - p..off + n].reverse();
            self.stale_len[a] = p as u16;
            self.part_len[a] = 0;
        }

        // ----- hosted-ledger slab ------------------------------------------

        /// First hosted-slab slot of peer `id`.
        #[inline]
        fn hoff(&self, id: PeerId) -> usize {
            self.l(id) * self.hosted_cap
        }

        /// Packed hosted entry: `owner × archives_per_peer + aidx`.
        #[inline]
        fn pack_hosted(&self, owner: PeerId, aidx: ArchiveIdx) -> u32 {
            owner * self.apap as u32 + aidx as u32
        }

        #[inline]
        pub(in crate::world) fn hosted_len(&self, id: PeerId) -> usize {
            self.hosted_len[self.l(id)] as usize
        }

        /// Hosted entry `i`, unpacked to `(owner, archive index)`.
        #[inline]
        pub(in crate::world) fn hosted_at(&self, id: PeerId, i: usize) -> (PeerId, ArchiveIdx) {
            debug_assert!(i < self.hosted_len(id));
            let e = self.hosted_slab[self.hoff(id) + i];
            let apap = self.apap as u32;
            (e / apap, (e % apap) as ArchiveIdx)
        }

        pub(in crate::world) fn push_hosted(
            &mut self,
            id: PeerId,
            owner: PeerId,
            aidx: ArchiveIdx,
        ) {
            let i = self.l(id);
            let len = self.hosted_len[i] as usize;
            debug_assert!(len < self.hosted_cap, "hosted slab overflow");
            let e = self.pack_hosted(owner, aidx);
            let off = i * self.hosted_cap;
            self.hosted_slab[off + len] = e;
            self.hosted_len[i] = (len + 1) as u32;
        }

        pub(in crate::world) fn hosted_position(
            &self,
            id: PeerId,
            owner: PeerId,
            aidx: ArchiveIdx,
        ) -> Option<usize> {
            let needle = self.pack_hosted(owner, aidx);
            let off = self.hoff(id);
            let len = self.hosted_len(id);
            first_match(&self.hosted_slab[off..off + len], needle)
        }

        pub(in crate::world) fn swap_remove_hosted(&mut self, id: PeerId, pos: usize) {
            let i = self.l(id);
            let len = self.hosted_len[i] as usize;
            debug_assert!(pos < len);
            let off = i * self.hosted_cap;
            self.hosted_slab[off + pos] = self.hosted_slab[off + len - 1];
            self.hosted_len[i] = (len - 1) as u32;
        }

        pub(in crate::world) fn clear_hosted(&mut self, id: PeerId) {
            let i = self.l(id);
            self.hosted_len[i] = 0;
        }

        // ----- shared structural invariants --------------------------------

        /// The one implementation of the online-index invariant: flips
        /// the online flag, swap-removes from / pushes onto the shard's
        /// online `list`, and back-patches positions in `pos` (a slice
        /// of the global position table starting at peer id `pos_base`).
        pub(in crate::world) fn update_online(
            &mut self,
            id: PeerId,
            list: &mut Vec<PeerId>,
            pos: &mut [u32],
            pos_base: PeerId,
            online: bool,
        ) {
            let i = self.l(id);
            if self.online[i] == online {
                return;
            }
            self.online[i] = online;
            if online {
                pos[(id - pos_base) as usize] = list.len() as u32;
                list.push(id);
            } else {
                let at = pos[(id - pos_base) as usize];
                debug_assert_ne!(at, OFFLINE);
                let last = *list.last().expect("online list not empty");
                list.swap_remove(at as usize);
                if last != id {
                    pos[(last - pos_base) as usize] = at;
                }
                pos[(id - pos_base) as usize] = OFFLINE;
            }
        }

        /// The one implementation of the pending-queue invariant
        /// (`queued` flag + per-shard queue).
        pub(in crate::world) fn enqueue_pending(&mut self, id: PeerId, pending: &mut Vec<PeerId>) {
            let i = self.l(id);
            if !self.queued[i] {
                self.queued[i] = true;
                pending.push(id);
            }
        }
    };
}

/// The struct-of-arrays peer table. See the module docs for the layout;
/// strides (`archives_per_peer`, the per-archive slab width `n`, the
/// per-peer hosted capacity) are fixed at construction, so growing the
/// population is appending one default slot to every column — no
/// per-peer allocation, ever.
pub(in crate::world) struct PeerTable {
    len: usize,
    /// Archives per peer (archive-column stride).
    apap: usize,
    /// Partner slots per archive (`n = k + m`).
    slab_n: usize,
    /// Hosted slots per peer (`quota + observers × archives_per_peer`).
    hosted_cap: usize,
    // Hot columns.
    online: Vec<bool>,
    queued: Vec<bool>,
    epoch: Vec<u32>,
    session_seq: Vec<u32>,
    quota_used: Vec<u32>,
    threshold: Vec<u16>,
    hosted_len: Vec<u32>,
    // Cold columns.
    profile: Vec<u8>,
    observer: Vec<u8>,
    misreports: Vec<bool>,
    domain: Vec<u16>,
    suspicion: Vec<u8>,
    quarantined: Vec<bool>,
    birth: Vec<u64>,
    death: Vec<u64>,
    online_accum: Vec<u64>,
    last_transition: Vec<u64>,
    repairs: Vec<u64>,
    losses: Vec<u64>,
    // Archive columns (stride `apap`).
    arch_flags: Vec<u8>,
    arch_target: Vec<u32>,
    part_len: Vec<u16>,
    stale_len: Vec<u16>,
    // Slabs.
    partner_slab: Vec<PeerId>,
    hosted_slab: Vec<u32>,
}

impl PeerTable {
    /// Builds an empty table with every column's capacity reserved for
    /// `capacity` slots, so spawning the population never reallocates.
    pub(in crate::world) fn with_capacity(
        capacity: usize,
        archives_per_peer: usize,
        slab_n: usize,
        hosted_cap: usize,
    ) -> Self {
        assert!(archives_per_peer >= 1, "peers own at least one archive");
        assert!(
            (capacity as u64).saturating_mul(archives_per_peer as u64) <= u32::MAX as u64,
            "packed hosted entries need capacity × archives_per_peer ≤ u32::MAX"
        );
        assert!(slab_n <= u16::MAX as usize, "partner counts are u16");
        PeerTable {
            len: 0,
            apap: archives_per_peer,
            slab_n,
            hosted_cap,
            online: Vec::with_capacity(capacity),
            queued: Vec::with_capacity(capacity),
            epoch: Vec::with_capacity(capacity),
            session_seq: Vec::with_capacity(capacity),
            quota_used: Vec::with_capacity(capacity),
            threshold: Vec::with_capacity(capacity),
            hosted_len: Vec::with_capacity(capacity),
            profile: Vec::with_capacity(capacity),
            observer: Vec::with_capacity(capacity),
            misreports: Vec::with_capacity(capacity),
            domain: Vec::with_capacity(capacity),
            suspicion: Vec::with_capacity(capacity),
            quarantined: Vec::with_capacity(capacity),
            birth: Vec::with_capacity(capacity),
            death: Vec::with_capacity(capacity),
            online_accum: Vec::with_capacity(capacity),
            last_transition: Vec::with_capacity(capacity),
            repairs: Vec::with_capacity(capacity),
            losses: Vec::with_capacity(capacity),
            arch_flags: Vec::with_capacity(capacity * archives_per_peer),
            arch_target: Vec::with_capacity(capacity * archives_per_peer),
            part_len: Vec::with_capacity(capacity * archives_per_peer),
            stale_len: Vec::with_capacity(capacity * archives_per_peer),
            partner_slab: Vec::with_capacity(capacity * archives_per_peer * slab_n),
            hosted_slab: Vec::with_capacity(capacity * hosted_cap),
        }
    }

    /// Appends one default slot (offline, epoch 0, `death = u64::MAX`,
    /// empty lists — the old `empty_peer()`).
    pub(in crate::world) fn push_slot(&mut self) {
        self.online.push(false);
        self.queued.push(false);
        self.epoch.push(0);
        self.session_seq.push(0);
        self.quota_used.push(0);
        self.threshold.push(0);
        self.hosted_len.push(0);
        self.profile.push(0);
        self.observer.push(NO_OBSERVER);
        self.misreports.push(false);
        self.domain.push(0);
        self.suspicion.push(0);
        self.quarantined.push(false);
        self.birth.push(0);
        self.death.push(u64::MAX);
        self.online_accum.push(0);
        self.last_transition.push(0);
        self.repairs.push(0);
        self.losses.push(0);
        for _ in 0..self.apap {
            self.arch_flags.push(0);
            self.arch_target.push(0);
            self.part_len.push(0);
            self.stale_len.push(0);
        }
        self.partner_slab
            .resize(self.partner_slab.len() + self.apap * self.slab_n, 0);
        self.hosted_slab
            .resize(self.hosted_slab.len() + self.hosted_cap, 0);
        self.len += 1;
    }

    /// Allocated slots.
    #[inline]
    pub(in crate::world) fn len(&self) -> usize {
        self.len
    }

    pub(in crate::world) fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn l(&self, id: PeerId) -> usize {
        id as usize
    }

    /// Starts a front-to-back split of every column into per-shard
    /// [`PeerView`]s. Allocation-free: one `split_at_mut` walk.
    pub(in crate::world) fn splitter(&mut self) -> ColSplit<'_> {
        ColSplit {
            base: 0,
            apap: self.apap,
            slab_n: self.slab_n,
            hosted_cap: self.hosted_cap,
            online: &mut self.online,
            queued: &mut self.queued,
            epoch: &mut self.epoch,
            session_seq: &mut self.session_seq,
            quota_used: &mut self.quota_used,
            threshold: &mut self.threshold,
            hosted_len: &mut self.hosted_len,
            profile: &mut self.profile,
            observer: &mut self.observer,
            misreports: &mut self.misreports,
            domain: &mut self.domain,
            suspicion: &mut self.suspicion,
            quarantined: &mut self.quarantined,
            birth: &mut self.birth,
            death: &mut self.death,
            online_accum: &mut self.online_accum,
            last_transition: &mut self.last_transition,
            repairs: &mut self.repairs,
            losses: &mut self.losses,
            arch_flags: &mut self.arch_flags,
            arch_target: &mut self.arch_target,
            part_len: &mut self.part_len,
            stale_len: &mut self.stale_len,
            partner_slab: &mut self.partner_slab,
            hosted_slab: &mut self.hosted_slab,
        }
    }

    /// Heap bytes of the scalar (hot + cold) columns.
    pub(in crate::world) fn scalar_column_bytes(&self) -> usize {
        fn bytes<T>(v: &Vec<T>) -> usize {
            v.capacity() * core::mem::size_of::<T>()
        }
        bytes(&self.online)
            + bytes(&self.queued)
            + bytes(&self.epoch)
            + bytes(&self.session_seq)
            + bytes(&self.quota_used)
            + bytes(&self.threshold)
            + bytes(&self.profile)
            + bytes(&self.observer)
            + bytes(&self.misreports)
            + bytes(&self.domain)
            + bytes(&self.suspicion)
            + bytes(&self.quarantined)
            + bytes(&self.birth)
            + bytes(&self.death)
            + bytes(&self.online_accum)
            + bytes(&self.last_transition)
            + bytes(&self.repairs)
            + bytes(&self.losses)
    }

    /// Heap bytes of the archive columns (flags, target, list lengths).
    pub(in crate::world) fn archive_column_bytes(&self) -> usize {
        self.arch_flags.capacity() * core::mem::size_of::<u8>()
            + self.arch_target.capacity() * core::mem::size_of::<u32>()
            + self.part_len.capacity() * core::mem::size_of::<u16>()
            + self.stale_len.capacity() * core::mem::size_of::<u16>()
    }

    /// Heap bytes of the partner slab.
    pub(in crate::world) fn partner_slab_bytes(&self) -> usize {
        self.partner_slab.capacity() * core::mem::size_of::<PeerId>()
    }

    /// Heap bytes of the hosted slab plus its length column.
    pub(in crate::world) fn hosted_slab_bytes(&self) -> usize {
        self.hosted_slab.capacity() * core::mem::size_of::<u32>()
            + self.hosted_len.capacity() * core::mem::size_of::<u32>()
    }
}

// The macro keeps the table and view APIs symmetric by construction;
// not every accessor is reachable from both sides, so dead-code lint
// is silenced for the generated block only.
#[allow(dead_code)]
impl PeerTable {
    peer_columns_api!();
}

/// One shard's mutable window into every column of the [`PeerTable`].
/// Ids are global; the view subtracts its `base`. Produced by
/// [`ColSplit::take`] so parallel lanes hold disjoint column slices.
pub(in crate::world) struct PeerView<'a> {
    /// First slot id covered by this view.
    pub(in crate::world) base: PeerId,
    apap: usize,
    slab_n: usize,
    hosted_cap: usize,
    online: &'a mut [bool],
    queued: &'a mut [bool],
    epoch: &'a mut [u32],
    session_seq: &'a mut [u32],
    quota_used: &'a mut [u32],
    threshold: &'a mut [u16],
    hosted_len: &'a mut [u32],
    profile: &'a mut [u8],
    observer: &'a mut [u8],
    misreports: &'a mut [bool],
    domain: &'a mut [u16],
    suspicion: &'a mut [u8],
    quarantined: &'a mut [bool],
    birth: &'a mut [u64],
    death: &'a mut [u64],
    online_accum: &'a mut [u64],
    last_transition: &'a mut [u64],
    repairs: &'a mut [u64],
    losses: &'a mut [u64],
    arch_flags: &'a mut [u8],
    arch_target: &'a mut [u32],
    part_len: &'a mut [u16],
    stale_len: &'a mut [u16],
    partner_slab: &'a mut [PeerId],
    hosted_slab: &'a mut [u32],
}

impl PeerView<'_> {
    #[inline]
    fn l(&self, id: PeerId) -> usize {
        (id - self.base) as usize
    }

    /// Hints into the cache what a release to `host` reads: the start
    /// of its hosted ledger and its length and quota words.
    #[inline]
    pub(in crate::world) fn prefetch_ledger(&self, host: PeerId) {
        let (i, off) = (self.l(host), self.hoff(host));
        prefetch(&self.hosted_slab[off..off + self.hosted_cap.min(PREFETCH_ENTRIES)]);
        prefetch(&self.hosted_len[i..=i]);
        prefetch(&self.quota_used[i..=i]);
    }

    /// Hints into the cache what a drop to `owner`'s archive `aidx`
    /// reads: the start of its partner region and its length and flag
    /// words.
    #[inline]
    pub(in crate::world) fn prefetch_partners(&self, owner: PeerId, aidx: usize) {
        let (a, off) = (self.ai(owner, aidx), self.poff(owner, aidx));
        prefetch(&self.partner_slab[off..off + self.slab_n.min(PREFETCH_ENTRIES)]);
        prefetch(&self.part_len[a..=a]);
        prefetch(&self.stale_len[a..=a]);
        prefetch(&self.arch_flags[a..=a]);
    }

    /// Slots covered by this view.
    pub(in crate::world) fn slots(&self) -> usize {
        self.online.len()
    }

    /// Raw flag write for slot (re)initialisation only — every live
    /// transition goes through `update_online`, which maintains the
    /// shard's online index.
    pub(in crate::world) fn set_online_raw(&mut self, id: PeerId, v: bool) {
        let i = self.l(id);
        self.online[i] = v;
    }
}

#[allow(dead_code)]
impl PeerView<'_> {
    peer_columns_api!();
}

/// The in-progress front-to-back column split (see
/// [`PeerTable::splitter`]).
pub(in crate::world) struct ColSplit<'a> {
    base: usize,
    apap: usize,
    slab_n: usize,
    hosted_cap: usize,
    online: &'a mut [bool],
    queued: &'a mut [bool],
    epoch: &'a mut [u32],
    session_seq: &'a mut [u32],
    quota_used: &'a mut [u32],
    threshold: &'a mut [u16],
    hosted_len: &'a mut [u32],
    profile: &'a mut [u8],
    observer: &'a mut [u8],
    misreports: &'a mut [bool],
    domain: &'a mut [u16],
    suspicion: &'a mut [u8],
    quarantined: &'a mut [bool],
    birth: &'a mut [u64],
    death: &'a mut [u64],
    online_accum: &'a mut [u64],
    last_transition: &'a mut [u64],
    repairs: &'a mut [u64],
    losses: &'a mut [u64],
    arch_flags: &'a mut [u8],
    arch_target: &'a mut [u32],
    part_len: &'a mut [u16],
    stale_len: &'a mut [u16],
    partner_slab: &'a mut [PeerId],
    hosted_slab: &'a mut [u32],
}

/// Carves the next `n` elements off the front of `*s`.
fn take_front<'a, T>(s: &mut &'a mut [T], n: usize) -> &'a mut [T] {
    let (head, rest) = core::mem::take(s).split_at_mut(n);
    *s = rest;
    head
}

impl<'a> ColSplit<'a> {
    /// Carves a view over the next `count` slots (clamped to what
    /// remains, mirroring the short last shard).
    pub(in crate::world) fn take(&mut self, count: usize) -> PeerView<'a> {
        let count = count.min(self.online.len());
        let base = self.base;
        self.base += count;
        PeerView {
            base: base as PeerId,
            apap: self.apap,
            slab_n: self.slab_n,
            hosted_cap: self.hosted_cap,
            online: take_front(&mut self.online, count),
            queued: take_front(&mut self.queued, count),
            epoch: take_front(&mut self.epoch, count),
            session_seq: take_front(&mut self.session_seq, count),
            quota_used: take_front(&mut self.quota_used, count),
            threshold: take_front(&mut self.threshold, count),
            hosted_len: take_front(&mut self.hosted_len, count),
            profile: take_front(&mut self.profile, count),
            observer: take_front(&mut self.observer, count),
            misreports: take_front(&mut self.misreports, count),
            domain: take_front(&mut self.domain, count),
            suspicion: take_front(&mut self.suspicion, count),
            quarantined: take_front(&mut self.quarantined, count),
            birth: take_front(&mut self.birth, count),
            death: take_front(&mut self.death, count),
            online_accum: take_front(&mut self.online_accum, count),
            last_transition: take_front(&mut self.last_transition, count),
            repairs: take_front(&mut self.repairs, count),
            losses: take_front(&mut self.losses, count),
            arch_flags: take_front(&mut self.arch_flags, count * self.apap),
            arch_target: take_front(&mut self.arch_target, count * self.apap),
            part_len: take_front(&mut self.part_len, count * self.apap),
            stale_len: take_front(&mut self.stale_len, count * self.apap),
            partner_slab: take_front(&mut self.partner_slab, count * self.apap * self.slab_n),
            hosted_slab: take_front(&mut self.hosted_slab, count * self.hosted_cap),
        }
    }
}
