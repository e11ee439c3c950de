//! The restorability auditor: the two halves verify each other.
//!
//! Each audit round, for every joined archive, the auditor derives
//! restorability twice and independently:
//!
//! * **Prediction** — the simulator's view: at least `k` of the
//!   archive's blocks sit on currently-online partners
//!   ([`BackupWorld::archive_online_present`]).
//! * **Byte truth** — a real reconstruction from `k` intact shards
//!   actually stored on online hosts.
//!
//! ## What an audit proves
//!
//! One gather serves every decode: it looks up the archive's blocks on
//! its mirrored hosts in slot order (online ones only, for an audit or
//! a flash restore), prefetches the first `k`, re-sums them in order,
//! and stops at the `k`th intact one — the paper's "reach k partners,
//! download k blocks, decode". The codec reconstructs the `k` data
//! shards from them, and then one of two verdicts judges the result
//! (`Verdict`):
//!
//! * **Ciphertext** (audits and episode starts): the data shards are
//!   reconstructed through a decode plan from the lane's `PlanCache`
//!   (a survivor set that recurs mostly recurs within a few rounds, and
//!   a plan's `k × k` inversion is about a quarter of a small decode),
//!   and restored means the first `payload_len` bytes of the
//!   reconstructed data shards equal those of the owner's ciphertext
//!   (the data shards it keeps of its code word) — exactly the bytes
//!   `Archive::join_blocks` keeps. The keystream cipher and the archive
//!   framing are deterministic functions of those bytes, so equal
//!   ciphertext decrypts and parses to the archive, and a restore that
//!   yields the archive had to start from its ciphertext (the keystream
//!   is a bijection and the archive's encoding canonical): the verdict
//!   is the full restore's, without the join, the decrypt, the parse or
//!   a plaintext copy of the archive beside every code word.
//! * **Full** (loss verifications and flash restores, the restores a
//!   user sees): a [`RestorePipeline`] join → decrypt → parse, compared
//!   with the archive regenerated from the code word's content seed.
//!
//! Debug builds (`cfg(any(test, debug_assertions))`: the unit and
//! integration tests, and debug binaries) re-derive the full verdict
//! beside every ciphertext verdict, from every intact survivor as the
//! gather did before it stopped at `k`, and assert that the two agree;
//! release builds compile the check out.
//!
//! An audit that does not restore keeps counting the intact blocks past
//! the gather, so the count its notes and [`LossRecord`]s carry is
//! exact; one that restores reports the `k` it decoded.
//!
//! With fault injection off the two must agree on *every* archive,
//! *every* round — any disagreement is a bug in one of the halves and
//! lands in [`AuditReport::mismatches`]. With faults on, transfers
//! fail and stored bytes rot, so byte truth may fall below the
//! prediction; those divergences are the measurement
//! ([`AuditReport::fault_induced_losses`]) and each one is verified to
//! stem from fewer than `k` intact shards — a decode that fails any
//! other way is still a mismatch.
//!
//! The auditor also cross-checks the fabric's replayed placement map
//! against the world's partner lists block by block, so a drifting
//! event stream cannot hide behind a correct-looking decode.
//!
//! [`BackupWorld::archive_online_present`]: peerback_core::BackupWorld::archive_online_present
//! [`RestorePipeline`]: peerback_core::RestorePipeline

use std::hash::{Hash, Hasher};
use std::time::Instant;

use peerback_core::{BackupWorld, PeerId, RestorePipeline, XorKeystream};
use peerback_erasure::{DecodePlan, ErasureError, ReedSolomon};
use peerback_sim::prefetch;

use crate::fabric::{CodeWord, OwnerArchive, PlaneLane, PlaneShared};
use crate::store::{BlockStore, KeyHasher, StoredBlock};

/// One verified data-loss event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LossRecord {
    /// Round the loss was observed.
    pub round: u64,
    /// Owning peer slot.
    pub owner: PeerId,
    /// Archive index within the owner.
    pub archive: u8,
    /// Intact shards available to the verifying decode — always less
    /// than `k`, or the auditor records a mismatch instead.
    pub intact_shards: u32,
    /// The geometry's `k` at the time of the loss.
    pub k: u32,
}

/// The auditor's ledger.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AuditReport {
    /// Per-archive audits performed.
    pub checks: u64,
    /// Audits where prediction and byte truth agreed.
    pub consistent: u64,
    /// Audits where faults made real bytes unrestorable although the
    /// simulator predicted otherwise (expected under fault injection;
    /// impossible — and counted as a mismatch — without it).
    pub fault_induced_losses: u64,
    /// Cross-check violations: prediction/byte disagreements not
    /// explained by an injected fault, placement-map desyncs, decode
    /// failures with `k` or more intact shards, or any other breach of
    /// the contract between the two halves. Zero on a healthy build.
    pub mismatches: u64,
    /// Audits skipped because the archive still had blocks streaming
    /// through the transfer scheduler — the simulator believes them
    /// placed, so comparing against bytes mid-flight would report a
    /// false mismatch. Zero on unscheduled runs.
    pub skipped_in_flight: u64,
    /// Real decode attempts performed: audits with at least `k` intact
    /// blocks on online hosts, and every episode start, loss
    /// verification and completed flash restore (those try with
    /// whatever survives, fewer than `k` blocks included).
    pub decode_attempts: u64,
    /// Decode attempts that restored the archive bit for bit (by the
    /// ciphertext or the full verdict; see the module docs).
    pub decode_successes: u64,
    /// First few mismatch descriptions, for debugging.
    pub notes: Vec<String>,
}

impl AuditReport {
    /// Cap on retained mismatch descriptions.
    pub const MAX_NOTES: usize = 16;

    /// Adds `other`'s counters to this ledger and appends its notes,
    /// keeping at most [`AuditReport::MAX_NOTES`].
    pub(crate) fn absorb(&mut self, other: AuditReport) {
        self.checks += other.checks;
        self.consistent += other.consistent;
        self.fault_induced_losses += other.fault_induced_losses;
        self.mismatches += other.mismatches;
        self.skipped_in_flight += other.skipped_in_flight;
        self.decode_attempts += other.decode_attempts;
        self.decode_successes += other.decode_successes;
        let room = Self::MAX_NOTES.saturating_sub(self.notes.len());
        self.notes.extend(other.notes.into_iter().take(room));
    }
}

/// How a restore judges the data shards it reconstructed (see the
/// module docs for why the two agree).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Restored when the first `payload_len` bytes of the data shards
    /// equal the owner's ciphertext's: audits and episode starts.
    Ciphertext,
    /// Restored when join → decrypt → parse yields the archive
    /// regenerated from the content seed: loss verifications and flash
    /// restores.
    Full,
}

impl Verdict {
    /// Whether `blocks` restore `codeword` under this verdict; the data
    /// shards are reconstructed into `scratch` (the ciphertext verdict
    /// through a plan from `plans`).
    fn restores(
        self,
        shared: &PlaneShared,
        codeword: &CodeWord,
        blocks: &[(usize, &[u8])],
        scratch: &mut Vec<Vec<u8>>,
        plans: &mut PlanCache,
    ) -> bool {
        let descriptor = &codeword.descriptor;
        match self {
            Verdict::Ciphertext => {
                let decoded = plans.reconstruct(&shared.codec, blocks, scratch);
                let len = descriptor.payload_len as usize;
                decoded.is_ok() && same_prefix(scratch, &codeword.ciphertext[..len])
            }
            Verdict::Full => {
                let restore = RestorePipeline::new(XorKeystream::new(codeword.cipher_key));
                let decoded = restore.restore_with(&shared.codec, descriptor, blocks, scratch);
                decoded.is_ok_and(|decoded| decoded == shared.archive_of(codeword))
            }
        }
    }
}

/// Whether the shards `data`, read as one concatenation, begin with
/// `ciphertext` (the bytes `Archive::join_blocks` keeps).
fn same_prefix(data: &[Vec<u8>], ciphertext: &[u8]) -> bool {
    let mut rest = ciphertext;
    let equal = data.iter().all(|d| {
        let (head, tail) = rest.split_at(rest.len().min(d.len()));
        rest = tail;
        d[..head.len()] == *head
    });
    equal && rest.is_empty()
}

/// Bytes of decode plans one lane keeps: a plan of `combined_bytes`'
/// (8, 8) geometry takes ≈ 0.2 KiB with its slot, so the cache holds
/// about eighty; one of the paper's (128, 128) geometry takes 17 KiB,
/// so one. Survivor sets that recur recur soon (an archive decoded
/// twice within a few rounds), so a small cache finds most of them.
const PLAN_CACHE_BYTES: usize = 16 << 10;

/// Bytes a cached plan of `k` sources takes: its slot, its source list
/// and its `k × k` coefficient rows.
fn plan_bytes(k: usize) -> usize {
    core::mem::size_of::<Option<DecodePlan>>() + k * core::mem::size_of::<usize>() + k * k
}

/// One lane's recently built decode plans, and a count of the plans it
/// built with a matrix inversion. Direct-mapped: the plan for an
/// ordered source list lives in the slot its hash names, if anywhere,
/// and a new plan replaces whatever held its slot — so the cache never
/// holds more than its slot count of plans, [`PLAN_CACHE_BYTES`] ÷
/// [`plan_bytes`]. Plans are pure functions of their sources, so what
/// the cache holds changes no result — only how often a `k × k`
/// inversion runs.
#[derive(Debug, Default)]
pub(crate) struct PlanCache {
    /// Sized on first use, for the run's one geometry.
    slots: Vec<Option<DecodePlan>>,
    /// Plans built with a `k × k` inversion, over the lane's run
    /// (telemetry for [`ReplayWork`](crate::ReplayWork)).
    pub(crate) built: u64,
}

impl PlanCache {
    /// Reconstructs the `k` data shards from the first `k` of `blocks`
    /// into `out`, exactly as [`ReedSolomon::reconstruct_data_into`]
    /// does, through the cached plan for their shard indices in supply
    /// order (built and cached on a miss).
    ///
    /// # Errors
    ///
    /// As [`ReedSolomon::reconstruct_data_into`]: fewer than `k` blocks,
    /// a bad or repeated index, blocks of unequal length.
    fn reconstruct(
        &mut self,
        codec: &ReedSolomon,
        blocks: &[(usize, &[u8])],
        out: &mut Vec<Vec<u8>>,
    ) -> Result<(), ErasureError> {
        let k = codec.data_shards();
        if blocks.len() < k {
            return Err(ErasureError::NotEnoughShards {
                available: blocks.len(),
                needed: k,
            });
        }
        let shard_len = blocks[0].1.len();
        let mut sources = [0usize; 256];
        for (source, &(index, _)) in sources.iter_mut().zip(blocks) {
            *source = index;
        }
        let sources = &sources[..k];
        if self.slots.is_empty() {
            let count = (PLAN_CACHE_BYTES / plan_bytes(k)).max(1);
            self.slots.resize_with(count, || None);
        }
        let mut hasher = KeyHasher::default();
        sources.hash(&mut hasher);
        let at = hasher.finish() as usize % self.slots.len();
        let slot = &mut self.slots[at];
        if let Some(plan) = slot.as_ref().filter(|plan| plan.sources() == sources) {
            return plan.reconstruct_into(blocks, shard_len, out);
        }
        let plan = codec.decode_plan(sources)?;
        self.built += u64::from(!plan.is_passthrough());
        plan.reconstruct_into(blocks, shard_len, out)?;
        *slot = Some(plan);
        Ok(())
    }
}

/// What [`PlaneLane::restore_survivors`] found in the stores.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Survivors {
    /// Intact blocks: the `k` the gather decoded when the archive
    /// restored, every intact block otherwise.
    pub(crate) intact: u32,
    /// Bytes of the (at most `k`) blocks gathered — the paper's k-block
    /// download.
    pub(crate) download_bytes: usize,
    /// Whether a decode ran and restored the archive bit for bit.
    pub(crate) restored: bool,
}

/// A placeholder entry of a [`present`] table.
const NO_BLOCK: StoredBlock<'static> = StoredBlock {
    shard_index: 0,
    bytes: &[],
    ingest_checksum: 0,
};

/// Looks up the blocks of `(owner, archive)` at rest on `oa`'s mirrored
/// hosts, in slot order (borrowed in place, not yet summed);
/// `online_only` skips hosts the simulator has offline. Returns them in
/// a table on the stack — a code word has at most 256 slots, and a
/// host holds at most one block of it — and how many there are.
fn present<'a>(
    oa: &OwnerArchive,
    store: &'a BlockStore,
    world: &BackupWorld,
    (owner, archive): (PeerId, u8),
    online_only: bool,
) -> ([StoredBlock<'a>; 256], usize) {
    let found = oa
        .hosts()
        .filter(|&(_, host)| !online_only || world.peer_online(host))
        .filter_map(|(_, host)| store.block(host, owner, archive));
    let mut table = [NO_BLOCK; 256];
    let mut n = 0;
    for (entry, block) in table.iter_mut().zip(found) {
        *entry = block;
        n += 1;
    }
    (table, n)
}

impl PlaneLane {
    /// Gathers up to `k` intact blocks of the archive `(owner,
    /// archive)` and, given at least `need` of them, attempts a restore
    /// straight out of the store, judged by `verdict`: through the
    /// run's shared codec into recycled data-shard scratch — no copy of
    /// the inputs, no per-decode matrix rebuild, no fresh output
    /// buffers.
    pub(crate) fn restore_survivors(
        &mut self,
        shared: &PlaneShared,
        world: &BackupWorld,
        (owner, archive): (PeerId, u8),
        online_only: bool,
        need: usize,
        verdict: Verdict,
    ) -> Survivors {
        let Some(oa) = self.owners.get(&(owner, archive)) else {
            return Survivors::default();
        };
        let clock = Instant::now();
        let k = shared.k();
        let mut summed = 0;
        let (gathered, attempted, found) = {
            let (table, n) = present(oa, &self.store, world, (owner, archive), online_only);
            // A restorable archive reads the first `k`: ask for all of
            // them before summing the first.
            for block in &table[..n.min(k)] {
                prefetch(block.bytes);
            }
            let mut rest = table[..n]
                .iter()
                .inspect(|_| summed += 1)
                .filter(|b| b.intact())
                .map(|b| (b.shard_index as usize, b.bytes));
            let mut blocks: [(usize, &[u8]); 256] = [(0, &[]); 256];
            let mut gathered = 0;
            for (entry, block) in blocks.iter_mut().zip(rest.by_ref().take(k)) {
                *entry = block;
                gathered += 1;
            }
            let blocks = &blocks[..gathered];
            let attempted = blocks.len() >= need;
            let (scratch, plans) = (&mut self.data_scratch, &mut self.plans);
            let restored =
                attempted && verdict.restores(shared, &oa.codeword, blocks, scratch, plans);
            if attempted && verdict == Verdict::Full && blocks.len() >= k {
                // `restore_with` builds its own plan for these sources.
                plans.built += u64::from(blocks.iter().any(|&(index, _)| index >= k));
            }
            let uncounted = if restored { 0 } else { rest.count() };
            let found = Survivors {
                intact: (blocks.len() + uncounted) as u32,
                download_bytes: blocks.iter().map(|(_, b)| b.len()).sum(),
                restored,
            };
            (blocks.len(), attempted, found)
        };
        self.sums.gather += summed;
        self.survivors_gathered += gathered as u64;
        self.out.audit.decode_attempts += u64::from(attempted);
        self.out.audit.decode_successes += u64::from(found.restored);
        #[cfg(any(test, debug_assertions))]
        if verdict == Verdict::Ciphertext {
            let ciphertext = (attempted, found);
            let key = (owner, archive);
            self.check_ciphertext_verdict(shared, world, key, online_only, need, ciphertext);
        }
        self.profile.decode += clock.elapsed();
        found
    }

    /// The debug oracle of every ciphertext verdict: the full verdict
    /// over every intact survivor — the decode as it ran before gathers
    /// stopped at `k` — must agree on whether a decode ran, whether it
    /// restored, the download and the intact count.
    #[cfg(any(test, debug_assertions))]
    fn check_ciphertext_verdict(
        &mut self,
        shared: &PlaneShared,
        world: &BackupWorld,
        (owner, archive): (PeerId, u8),
        online_only: bool,
        need: usize,
        ciphertext: (bool, Survivors),
    ) {
        let k = shared.k();
        let oa = &self.owners[&(owner, archive)];
        let (table, n) = present(oa, &self.store, world, (owner, archive), online_only);
        let all: Vec<(usize, &[u8])> = table[..n]
            .iter()
            .filter(|b| b.intact())
            .map(|b| (b.shard_index as usize, b.bytes))
            .collect();
        let attempted = all.len() >= need;
        let (scratch, plans) = (&mut self.data_scratch, &mut self.plans);
        let restored =
            attempted && Verdict::Full.restores(shared, &oa.codeword, &all, scratch, plans);
        let full = Survivors {
            intact: if restored { k } else { all.len() } as u32,
            download_bytes: all.iter().take(k).map(|(_, b)| b.len()).sum(),
            restored,
        };
        assert_eq!(
            ciphertext,
            (attempted, full),
            "ciphertext and full verdicts of {owner}/{archive} differ"
        );
    }

    /// Runs one audit pass over every joined archive whose owner lives
    /// in this lane's shard (`slots` is the shard's slot range, so each
    /// lane audits a disjoint set and the merged counters are
    /// independent of scheduling).
    pub(crate) fn run_audit(
        &mut self,
        shared: &PlaneShared,
        world: &BackupWorld,
        round: u64,
        slots: core::ops::Range<PeerId>,
    ) {
        let archives_per_peer = world.config().archives_per_peer;
        for slot in slots {
            for aidx in 0..archives_per_peer as u8 {
                if !world.archive_joined(slot, aidx) {
                    continue;
                }
                // Sampled mode: decode only the seeded subset of cells
                // this round (a pure function of (round, owner,
                // archive) — the same subset at any worker count).
                if !shared.audit_sampled(round, slot, aidx) {
                    continue;
                }
                // Blocks still streaming: bookkeeping and bytes
                // legitimately disagree until the transfer completes.
                if self.has_in_flight(slot, aidx) {
                    self.out.audit.skipped_in_flight += 1;
                    continue;
                }
                self.audit_archive(shared, world, round, slot, aidx);
            }
        }
    }

    fn audit_archive(
        &mut self,
        shared: &PlaneShared,
        world: &BackupWorld,
        round: u64,
        owner: PeerId,
        archive: u8,
    ) {
        self.out.audit.checks += 1;

        // Structural cross-check: the replayed placement map must hold
        // exactly the hosts the simulator believes hold blocks.
        let mut expected = world.archive_hosts(owner, archive);
        expected.sort_unstable();
        let Some((fabric_joined, mut mirrored)) = self.owners.get(&(owner, archive)).map(|oa| {
            (
                oa.joined,
                oa.hosts().map(|(_, h)| h).collect::<Vec<PeerId>>(),
            )
        }) else {
            self.note(format!(
                "joined archive {owner}/{archive} unknown to fabric"
            ));
            return;
        };
        if !fabric_joined {
            self.note(format!(
                "simulator says {owner}/{archive} joined, fabric says not"
            ));
        }
        mirrored.sort_unstable();
        if mirrored != expected {
            self.note(format!(
                "placement desync for {owner}/{archive}: world {} hosts, fabric {}",
                expected.len(),
                mirrored.len()
            ));
        }

        // Prediction vs byte truth.
        let k = shared.k() as u32;
        let predicted = world.archive_online_present(owner, archive) >= k;
        // Fewer than k intact shards cannot decode, so none is tried.
        let key = (owner, archive);
        let found =
            self.restore_survivors(shared, world, key, true, shared.k(), Verdict::Ciphertext);
        let (intact, restorable) = (found.intact, found.restored);

        match (predicted, restorable) {
            (true, true) | (false, false) => {
                self.out.audit.consistent += 1;
                self.divergent.remove(&(owner, archive));
            }
            (true, false) => {
                if intact >= k {
                    self.note(format!(
                        "decode of {owner}/{archive} failed with {intact} intact shards >= k"
                    ));
                } else if !shared.damage_expected() {
                    self.note(format!(
                        "restorability mismatch for {owner}/{archive} without faults: \
                         predicted restorable, {intact} intact shards"
                    ));
                } else {
                    self.out.audit.fault_induced_losses += 1;
                    // Record the loss once per divergence spell.
                    if self.divergent.insert((owner, archive)) {
                        self.out.losses.push(LossRecord {
                            round,
                            owner,
                            archive,
                            intact_shards: intact,
                            k,
                        });
                    }
                }
            }
            (false, true) => {
                // Structurally impossible: the decode only sees blocks
                // on online hosts, a subset of what the prediction
                // counts. Reaching this is a bug in the fabric.
                self.note(format!(
                    "bytes of {owner}/{archive} restorable although the simulator \
                     predicts otherwise"
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `size`-subset of `0..n`, ascending, as gathers supply them.
    fn subsets(n: usize, size: usize) -> Vec<Vec<usize>> {
        (0u32..1 << n)
            .filter(|mask| mask.count_ones() as usize == size)
            .map(|mask| (0..n).filter(|&i| mask & 1 << i != 0).collect())
            .collect()
    }

    /// A code word of `codec`'s geometry: `k` seeded data shards of
    /// `len` bytes, then their parity.
    fn codeword(codec: &ReedSolomon, len: usize) -> Vec<Vec<u8>> {
        let data: Vec<Vec<u8>> = (0..codec.data_shards())
            .map(|s| (0..len).map(|i| (i * 7 + s * 31 + 3) as u8).collect())
            .collect();
        let parity = codec.encode(&data).unwrap();
        data.into_iter().chain(parity).collect()
    }

    #[test]
    fn a_cached_plan_equals_a_fresh_one_for_every_survivor_set() {
        let codec = ReedSolomon::new(4, 4).unwrap();
        let shards = codeword(&codec, 40);
        let sets = subsets(8, 4);
        let mut cache = PlanCache::default();
        let (mut cached, mut fresh) = (Vec::new(), Vec::new());
        for sources in &sets {
            let blocks: Vec<(usize, &[u8])> =
                sources.iter().map(|&i| (i, &shards[i][..])).collect();
            let plan = codec.decode_plan(sources).unwrap();
            plan.reconstruct_into(&blocks, 40, &mut fresh).unwrap();
            assert_eq!(fresh[..], shards[..4], "sources {sources:?}");
            // The first decode builds the plan, the repeat finds it.
            for repeat in [false, true] {
                let built = cache.built;
                cache.reconstruct(&codec, &blocks, &mut cached).unwrap();
                assert_eq!(cached, fresh, "sources {sources:?}");
                if repeat {
                    assert_eq!(cache.built, built, "sources {sources:?} rebuilt");
                }
            }
        }
        // Only the all-data set needs no inversion.
        assert_eq!(cache.built, sets.len() as u64 - 1);
    }

    #[test]
    fn the_plan_cache_refuses_what_the_codec_refuses() {
        let codec = ReedSolomon::new(4, 4).unwrap();
        let shards = codeword(&codec, 8);
        let mut out = Vec::new();
        let mut cache = PlanCache::default();
        let block = |i: usize| (i, &shards[i][..]);
        for blocks in [
            vec![block(0), block(5), block(6)],
            vec![block(0), block(5), block(5), block(7)],
            vec![block(0), (1, &shards[1][..4]), block(6), block(7)],
        ] {
            assert_eq!(
                cache.reconstruct(&codec, &blocks, &mut out),
                codec.reconstruct_data_into(&blocks, 8, &mut out),
                "{:?}",
                blocks.iter().map(|b| b.0).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn the_plan_cache_stays_within_its_bound() {
        // Every survivor set of (8, 8), ≈ 2.8 MB of plans, through a
        // cache of a few dozen slots.
        let codec = ReedSolomon::new(8, 8).unwrap();
        let shards = codeword(&codec, 16);
        let mut cache = PlanCache::default();
        let mut out = Vec::new();
        let sets = subsets(16, 8);
        for sources in &sets {
            let blocks: Vec<(usize, &[u8])> =
                sources.iter().map(|&i| (i, &shards[i][..])).collect();
            cache.reconstruct(&codec, &blocks, &mut out).unwrap();
            assert_eq!(out[..], shards[..8]);
        }
        assert_eq!(cache.built, sets.len() as u64 - 1);
        assert_eq!(cache.slots.len(), PLAN_CACHE_BYTES / plan_bytes(8));
        assert!(cache.slots.len() * plan_bytes(8) <= PLAN_CACHE_BYTES);
        // One slot at the paper's geometry, whatever the bound's rounding.
        assert!(plan_bytes(128) > PLAN_CACHE_BYTES / 2);
    }
}
