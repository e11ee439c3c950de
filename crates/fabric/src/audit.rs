//! The restorability auditor: the two halves verify each other.
//!
//! Each audit round, for every joined archive, the auditor derives
//! restorability twice and independently:
//!
//! * **Prediction** — the simulator's view: at least `k` of the
//!   archive's blocks sit on currently-online partners
//!   ([`BackupWorld::archive_online_present`]).
//! * **Byte truth** — `k` intact blocks actually stored on online
//!   hosts, each the owner's block for its slot.
//!
//! ## What an audit proves
//!
//! One gather serves every restore: it looks up the archive's blocks on
//! its mirrored hosts in slot order (online ones only, for an audit or
//! a flash restore), reads the verdict the store keeps for each (see
//! [`crate::store`]; no block is summed), and stops looking at the
//! `k`th intact one — the paper's "reach k partners, download k
//! blocks". One of two verdicts then judges them (`Verdict`):
//!
//! * **Slots** (audits and episode starts): restored when the `k`
//!   blocks carry distinct shard indices below `n` and each one's ingest
//!   sum equals the sum of its slot in the owner's code word
//!   (`CodeWord::slot_sums`, recorded once when the code word is
//!   encoded). An intact block still sums to its ingest sum, so each of
//!   the `k` is the owner's block for its slot, and Reed–Solomon is MDS:
//!   any `k` distinct correct blocks decode to the archive. The verdict
//!   is the restore's without running one — the per-block tags of a
//!   proof of retrievability (Juels & Kaliski, CCS 2007), which never
//!   fetches the file. Distinct indices below `n` are what a decode
//!   refuses and a sum comparison alone would pass.
//! * **Full** (loss verifications and flash restores, the restores a
//!   user sees): a [`RestorePipeline`] decodes the data shards into the
//!   lane's recycled scratch, decrypts and parses them there, and the
//!   result is compared with the archive regenerated from the code
//!   word's content seed.
//!
//! Debug builds (`cfg(any(test, debug_assertions))`: the unit and
//! integration tests, and debug binaries) judge every slot verdict
//! twice more and assert that the three agree: the **ciphertext**
//! verdict decodes the same `k` blocks back to back and compares their
//! first `payload_len` bytes with the owner's ciphertext, and the full
//! verdict runs over every intact survivor, as the gather did before it
//! stopped at `k`. Release builds compile both out, so audits and
//! episode starts decode nothing. A block whose bytes differ from its slot's anywhere,
//! padding included, fails the slot check; no sender ships one.
//!
//! An audit that does not restore keeps looking up and counting the
//! intact blocks past the gather, so the count its notes and
//! [`LossRecord`]s carry is exact; one that restores reports the `k` it
//! judged and looks up no further host.
//!
//! With fault injection off the two must agree on *every* archive,
//! *every* round — any disagreement is a bug in one of the halves and
//! lands in [`AuditReport::mismatches`]. With faults on, transfers
//! fail and stored bytes rot, so byte truth may fall below the
//! prediction; those divergences are the measurement
//! ([`AuditReport::fault_induced_losses`]) and each one is verified to
//! stem from fewer than `k` intact shards — a restore that fails any
//! other way is still a mismatch.
//!
//! The auditor also cross-checks the fabric's replayed placement map
//! against the world's partner lists block by block, so a drifting
//! event stream cannot hide behind a correct-looking restore.
//!
//! [`BackupWorld::archive_online_present`]: peerback_core::BackupWorld::archive_online_present
//! [`RestorePipeline`]: peerback_core::RestorePipeline

use std::time::Instant;

use peerback_core::{BackupWorld, PeerId, RestorePipeline, XorKeystream};

use crate::fabric::{CodeWord, OwnerArchive, PlaneLane, PlaneShared};
use crate::store::{BlockStore, StoredBlock, NO_BLOCK};

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
    /// explained by an injected fault, placement-map desyncs, restore
    /// failures with `k` or more intact shards, or any other breach of
    /// the contract between the two halves. Zero on a healthy build.
    pub mismatches: u64,
    /// Audits skipped because the archive still had blocks streaming
    /// through the transfer scheduler — the simulator believes them
    /// placed, so comparing against bytes mid-flight would report a
    /// false mismatch. Zero on unscheduled runs.
    pub skipped_in_flight: u64,
    /// Restore verdicts given: audits with at least `k` intact blocks
    /// on online hosts, and every episode start, loss verification and
    /// completed flash restore (those are judged with whatever
    /// survives, fewer than `k` blocks included). A count of verdicts,
    /// not of decodes: audits and episode starts are judged by slot
    /// sums (see the module docs).
    pub decode_attempts: u64,
    /// Restore verdicts that found the archive restored bit for bit.
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

/// How a restore judges the blocks its gather kept (see the module
/// docs for why the verdicts agree).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Restored when `k` blocks with distinct shard indices below `n`
    /// each carry their slot's sum: audits and episode starts. No
    /// decode runs.
    Slots,
    /// Restored when the first `payload_len` bytes of the decoded data
    /// shards equal the owner's ciphertext's: the debug oracle of
    /// [`Verdict::Slots`].
    #[cfg(any(test, debug_assertions))]
    Ciphertext,
    /// Restored when [`RestorePipeline::restore_with`]'s decode →
    /// decrypt → parse yields the archive regenerated from the content
    /// seed: loss verifications and flash restores.
    Full,
}

impl Verdict {
    /// Whether `blocks` restore `codeword` under this verdict; the
    /// decoding verdicts reconstruct the data shards into `scratch`.
    fn restores(
        self,
        shared: &PlaneShared,
        codeword: &CodeWord,
        blocks: &[StoredBlock],
        scratch: &mut Vec<u8>,
    ) -> bool {
        let k = shared.k();
        let pairs = || -> Vec<_> {
            blocks
                .iter()
                .map(|b| (b.shard_index as usize, b.bytes))
                .collect()
        };
        let descriptor = &codeword.descriptor;
        match self {
            Verdict::Slots => {
                let mut seen = [false; 256];
                blocks.len() >= k
                    && blocks[..k].iter().all(|b| {
                        let slot = b.shard_index as usize;
                        codeword.slot_sums.get(slot) == Some(&b.ingest_checksum)
                            && !core::mem::replace(&mut seen[slot], true)
                    })
            }
            #[cfg(any(test, debug_assertions))]
            Verdict::Ciphertext => {
                let shard_len = blocks.first().map_or(0, |b| b.bytes.len());
                let decoded =
                    shared
                        .codec
                        .reconstruct_contiguous_into(&pairs(), shard_len, scratch);
                let len = descriptor.payload_len as usize;
                decoded.is_ok() && scratch.get(..len) == Some(&codeword.ciphertext[..len])
            }
            Verdict::Full => {
                let restore = RestorePipeline::new(XorKeystream::new(codeword.cipher_key));
                let decoded = restore.restore_with(&shared.codec, descriptor, &pairs(), scratch);
                decoded.is_ok_and(|decoded| decoded == shared.archive_of(codeword))
            }
        }
    }
}

/// What [`PlaneLane::restore_survivors`] found in the stores.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Survivors {
    /// Intact blocks: the `k` the gather kept when the archive
    /// restored, every intact block otherwise.
    pub(crate) intact: u32,
    /// Bytes of the (at most `k`) blocks gathered — the paper's k-block
    /// download.
    pub(crate) download_bytes: usize,
    /// Whether the verdict found the archive restored bit for bit.
    pub(crate) restored: bool,
}

/// Looks up the blocks of `(owner, archive)` at rest on `oa`'s mirrored
/// hosts, in slot order (borrowed in place), lazily: one item per store
/// lookup, `None` where the host holds no block. `online_only` skips
/// hosts the simulator has offline without a lookup.
fn lookups<'a>(
    oa: &'a OwnerArchive,
    store: &'a BlockStore,
    world: &'a BackupWorld,
    (owner, archive): (PeerId, u8),
    online_only: bool,
) -> impl Iterator<Item = Option<StoredBlock<'a>>> + 'a {
    oa.hosts()
        .filter(move |&(_, host)| !online_only || world.peer_online(host))
        .map(move |(_, host)| store.block(host, owner, archive))
}

impl PlaneLane {
    /// Gathers up to `k` intact blocks of the archive `(owner,
    /// archive)` and, given at least `need` of them, judges a restore
    /// straight out of the store by `verdict`: the slot verdict by
    /// their sums alone, the full one through the run's shared codec
    /// into the lane's one recycled buffer — no copy of the inputs, no
    /// fresh output buffers. A gather that restores looks up no host
    /// past its `k`th intact block.
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
        let mut probes = 0;
        let (gathered, attempted, found) = {
            let mut rest = lookups(oa, &self.store, world, (owner, archive), online_only)
                .inspect(|_| probes += 1)
                .flatten()
                .filter(|b| b.intact());
            let mut blocks = [NO_BLOCK; 256];
            let mut gathered = 0;
            for (entry, block) in blocks.iter_mut().zip(rest.by_ref().take(k)) {
                *entry = block;
                gathered += 1;
            }
            let blocks = &blocks[..gathered];
            let attempted = blocks.len() >= need;
            let scratch = &mut self.data_scratch;
            let restored = attempted && verdict.restores(shared, &oa.codeword, blocks, scratch);
            let uncounted = if restored { 0 } else { rest.count() };
            let found = Survivors {
                intact: (blocks.len() + uncounted) as u32,
                download_bytes: blocks.iter().map(|b| b.bytes.len()).sum(),
                restored,
            };
            (blocks.len(), attempted, found)
        };
        self.store_probes += probes;
        self.survivors_gathered += gathered as u64;
        self.decodes += u64::from(attempted && verdict != Verdict::Slots);
        self.out.audit.decode_attempts += u64::from(attempted);
        self.out.audit.decode_successes += u64::from(found.restored);
        #[cfg(any(test, debug_assertions))]
        if verdict == Verdict::Slots {
            let key = (owner, archive);
            self.check_slot_verdict(shared, world, key, online_only, need, (attempted, found));
        }
        self.profile.decode += clock.elapsed();
        found
    }

    /// The debug oracle of every slot verdict: the ciphertext verdict
    /// over the same `k` blocks, and the full verdict over every intact
    /// survivor — the decode as it ran before gathers stopped at `k` —
    /// must agree with it on whether a restore was judged, whether it
    /// restored, the download and the intact count.
    #[cfg(any(test, debug_assertions))]
    fn check_slot_verdict(
        &mut self,
        shared: &PlaneShared,
        world: &BackupWorld,
        (owner, archive): (PeerId, u8),
        online_only: bool,
        need: usize,
        slots: (bool, Survivors),
    ) {
        let k = shared.k();
        let oa = &self.owners[&(owner, archive)];
        let all: Vec<StoredBlock> = lookups(oa, &self.store, world, (owner, archive), online_only)
            .flatten()
            .filter(|b| b.intact())
            .collect();
        let first_k = &all[..all.len().min(k)];
        let attempted = all.len() >= need;
        let (codeword, scratch) = (&oa.codeword, &mut self.data_scratch);
        let ciphertext =
            attempted && Verdict::Ciphertext.restores(shared, codeword, first_k, scratch);
        let restored = attempted && Verdict::Full.restores(shared, codeword, &all, scratch);
        let full = Survivors {
            intact: if restored { k } else { all.len() } as u32,
            download_bytes: first_k.iter().map(|b| b.bytes.len()).sum(),
            restored,
        };
        assert!(
            slots == (attempted, full) && ciphertext == restored,
            "slot, ciphertext and full verdicts of {owner}/{archive} differ: \
             slots {slots:?}, ciphertext {ciphertext}, full {full:?}"
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
        // Fewer than k intact shards cannot restore, so none is judged.
        let key = (owner, archive);
        let found = self.restore_survivors(shared, world, key, true, shared.k(), Verdict::Slots);
        let (intact, restorable) = (found.intact, found.restored);

        match (predicted, restorable) {
            (true, true) | (false, false) => {
                self.out.audit.consistent += 1;
                self.divergent.remove(&(owner, archive));
            }
            (true, false) => {
                if intact >= k {
                    self.note(format!(
                        "restore of {owner}/{archive} failed with {intact} intact shards >= k"
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
                // Structurally impossible: the gather only sees blocks
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
