//! The restorability auditor: the two halves verify each other.
//!
//! Each audit round, for every joined archive, the auditor derives
//! restorability twice and independently:
//!
//! * **Prediction** — the simulator's view: at least `k` of the
//!   archive's blocks sit on currently-online partners
//!   ([`BackupWorld::archive_online_present`]).
//! * **Byte truth** — a real [`RestorePipeline`] decode from the
//!   intact shards actually stored on online hosts.
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

use peerback_core::{BackupWorld, PeerId};

use crate::fabric::{PlaneLane, PlaneShared};

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
    /// Real decode attempts performed (audits, episode starts, loss
    /// verifications).
    pub decode_attempts: u64,
    /// Decode attempts that reproduced the archive bit for bit.
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

impl PlaneLane {
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
        let found = self.restore_survivors(shared, world, owner, archive, true, shared.k());
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
