//! The fabric driver: a [`BackupWorld`] whose placement decisions move
//! real bytes.
//!
//! [`Fabric`] implements [`peerback_sim::World`] by delegating every
//! phase to the wrapped simulator, then replaying the round's
//! [`WorldEvent`] stream against the data plane:
//!
//! * a **placement** encodes the owner's archive through
//!   [`BackupPipeline`] (once per content epoch; the owner keeps the
//!   ciphertext, not the parity) and ships the assigned shard — a
//!   parity shard encoded as it ships — as a checksummed
//!   [`BlockFrame`](crate::frame::BlockFrame)
//!   across the [`FaultPlane`], accounting transfer bytes and seconds
//!   against a [`LinkModel`];
//! * a **drop** (host death, offline write-off, stale displacement)
//!   deletes the stored bytes;
//! * an **episode start** replays the paper's `k`-block decode as a
//!   real reconstruction from `k` surviving shards, checked against the
//!   owner's ciphertext (the auditor's ciphertext verdict);
//! * a **loss** triggers a verification decode — a full
//!   [`RestorePipeline`](peerback_core::RestorePipeline) restore — that
//!   must fail with fewer than `k` intact shards;
//! * a **departure** recycles the slot: hosted bytes vanish and the
//!   replacement peer gets fresh archive content;
//! * a transfer the fault plane damaged is **retried** with bounded
//!   exponential backoff and seeded jitter, instead of staying missing
//!   until churn or repair replaces it.
//!
//! Every shipment, re-ship and restore download is one `Transfer`
//! record. It is queued as a `PendingTransfer` when a schedule is
//! attached and waits out its backoff as a `Retry`. `PlaneLane::send`
//! is the one place that chooses between shipping now and queueing.
//! `PlaneLane::live_slot` is the one test of whether the placement a
//! transfer ships to still stands, shared by due retries and completed
//! downloads.
//!
//! ## Sharded replay
//!
//! The plane is split into one [`PlaneLane`] per **logical owner
//! shard** — the same partition the simulator's executor keys on
//! ([`BackupWorld::shard_of_peer`]). Every event names its owner, so
//! the stream partitions cleanly: each lane owns the block stores,
//! code-word cache, counters, audit ledger and retry queue of its
//! owners, and the lanes replay their subsequences concurrently on the
//! same work-stealing pool as the simulator, as wide as the same width
//! rule allows ([`peerback_sim::ExecPolicy`]). Departures fan out to
//! every lane (any lane may store bytes *hosted* by the departed peer).
//! Each lane's report-bound `Output` (counters, audit ledger, losses,
//! restore durations, free riders hit) folds into the plane's in lane
//! order once per round, and fault
//! draws come from per-transfer RNGs derived from
//! `(seed, lane, transfer sequence)` — so every counter, note and loss
//! record is bit-identical at every worker count.
//!
//! Once per audit interval the [auditor](crate::audit) re-derives
//! restorability from bytes alone and cross-checks it against the
//! simulator's prediction, each lane auditing its own owners.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use peerback_core::archive::Entry;
use peerback_core::{
    Archive, ArchiveDescriptor, BackupPipeline, BackupWorld, Metrics, PeerId, SimConfig,
    WorldEvent, XorKeystream,
};
use peerback_erasure::ReedSolomon;
use peerback_net::LinkModel;
use peerback_sim::exec::lap;
use peerback_sim::{
    derive_seed, prefetch, sim_rng, unit_draw, Engine, Round, SimRng, StageWork, World,
};
use rand::{Rng, RngCore, SeedableRng};

use crate::audit::{AuditReport, LossRecord, PlanCache, Verdict};
use crate::faults::{FaultKind, FaultPlane, FaultProfile};
use crate::frame::{BlockFrame, FrameError};
use crate::profile::ReplayProfile;
use crate::store::{BlockStore, IngestError};

/// Sub-seed stream id for the fault plane (any fixed constant); each
/// lane forks its own stream at `FAULT_STREAM + lane index`.
const FAULT_STREAM: u64 = 0xFA_B51C;
/// Sub-seed stream id for archive content.
const CONTENT_STREAM: u64 = 0xC0_47E7;
/// Sub-seed stream id for the sampled auditor's coverage hash.
const AUDIT_STREAM: u64 = 0xA0_D175;
/// Sub-seed stream id for adversary role assignment (free rider /
/// rotter membership is a pure hash of the slot under this stream).
const ADVERSARY_STREAM: u64 = 0xAD_5EED;
/// Sub-seed stream id for the challenge sweep's coverage hash.
const CHALLENGE_STREAM: u64 = 0xC7_A11E;

/// Retries per placement before the fabric gives up on it (the
/// simulator's churn/repair machinery takes over from there).
const MAX_TRANSFER_ATTEMPTS: u32 = 5;

/// Declarative adversarial host behaviour on the data plane.
///
/// Roles are assigned per peer *slot* as a pure hash of the run seed —
/// a replacement peer in a recycled slot inherits the slot's role, the
/// assignment is identical at every `shards` value, and
/// observers are always honest. Every knob defaults to off; a default
/// `AdversaryConfig` leaves the fabric byte-identical to a run without
/// one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdversaryConfig {
    /// Fraction of peer slots that **free-ride**: they ack every
    /// placement (the sender pays the link and believes it succeeded)
    /// and silently drop the bytes. Only challenges, scrubbing and the
    /// auditor can tell.
    pub free_rider_fraction: f64,
    /// Fraction of peer slots that are **selectively honest**: they
    /// store the bytes but corrupt a random byte of roughly half the
    /// frames they accept — bitrot with intent, caught by the same
    /// scrub/challenge machinery.
    pub rot_fraction: f64,
    /// Rounds between challenge-response integrity sweeps (0 = never).
    /// A sweep asks sampled hosts to prove they hold each placed block
    /// intact; failures feed the world's reputation ledger
    /// ([`peerback_core::BackupWorld::report_integrity_failures`]).
    pub challenge_interval: u64,
    /// Challenge-sweep sampling divisor: each sweep covers roughly one
    /// in `challenge_sample_period` archive cells (1 = every cell).
    /// Coverage is a seeded pure function of `(round, owner, archive)`.
    pub challenge_sample_period: u64,
}

impl Default for AdversaryConfig {
    fn default() -> Self {
        AdversaryConfig {
            free_rider_fraction: 0.0,
            rot_fraction: 0.0,
            challenge_interval: 0,
            challenge_sample_period: 1,
        }
    }
}

impl AdversaryConfig {
    /// Checks the knobs for consistency.
    ///
    /// # Errors
    ///
    /// A description of the first invalid parameter.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("free_rider_fraction", self.free_rider_fraction),
            ("rot_fraction", self.rot_fraction),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("{name} must be a probability, got {v}"));
            }
        }
        if self.free_rider_fraction + self.rot_fraction > 1.0 {
            return Err("adversary fractions sum to more than 1".into());
        }
        if self.challenge_sample_period == 0 {
            return Err("challenge sample period must be at least one (1 = every cell)".into());
        }
        Ok(())
    }

    /// Whether any slot behaves adversarially.
    pub fn any_hostile(&self) -> bool {
        self.free_rider_fraction > 0.0 || self.rot_fraction > 0.0
    }

    /// The role of peer slot `slot` under `seed` (`observer_count`
    /// leading slots are observers, always honest). Pure and cheap —
    /// probes recompute membership from the config alone.
    pub fn role_of(&self, seed: u64, observer_count: usize, slot: PeerId) -> AdversaryRole {
        if (slot as usize) < observer_count || !self.any_hostile() {
            return AdversaryRole::Honest;
        }
        let u = unit_draw(derive_seed(
            derive_seed(seed, ADVERSARY_STREAM),
            slot as u64,
        ));
        if u < self.free_rider_fraction {
            AdversaryRole::FreeRider
        } else if u < self.free_rider_fraction + self.rot_fraction {
            AdversaryRole::Rotter
        } else {
            AdversaryRole::Honest
        }
    }
}

/// The behaviour assigned to one peer slot by [`AdversaryConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdversaryRole {
    /// Stores what it accepts, faithfully.
    Honest,
    /// Acks placements and drops the bytes.
    FreeRider,
    /// Stores the bytes, corrupts some of them.
    Rotter,
}

/// Serial nanoseconds the width rule prices a plain round's item at —
/// a queued event, a transfer pending in a lane's scheduler queue or a
/// retry due: [`ReplayWork::plain`]'s busy time over its items at
/// `--shards 1`, 1.5–2.6 µs (median 2.3) over eight runs of
/// `combined_bytes` and CI's every-plane command.
const REPLAY_ITEM_NS: u64 = 2_300;

/// Access-link model behind the transfer-time accounting and the
/// scheduler's per-round byte budgets.
const LINK: LinkModel = LinkModel::DSL_MODERN;

/// Seconds of wall time one simulated round represents: the paper's
/// rounds are hours.
const ROUND_SECS: f64 = 3600.0;

/// Configuration of the byte-level half.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FabricConfig {
    /// Fault probabilities on the transfer path.
    pub faults: FaultProfile,
    /// Synthetic archive payload size per peer archive, in bytes.
    pub payload_bytes: usize,
    /// Rounds between restorability audits (1 = every round).
    pub audit_interval: u64,
    /// Sampled-audit divisor: each audit pass decodes roughly one in
    /// `audit_sample_period` joined archives (1 = full scan). Sampling
    /// is a seeded pure function of `(round, owner, archive)`, so the
    /// covered subset is identical at every worker and shard count.
    pub audit_sample_period: u64,
    /// Rounds between at-rest scrubbing sweeps (0 = never scrub). A
    /// sweep checksums every stored frame, drops rotten ones and
    /// re-ships them through the retry machinery — catching bitrot
    /// before the auditor has to count it as a loss.
    pub scrub_interval: u64,
    /// Bandwidth-aware transfer scheduling (`None` = the classic
    /// instant path: every shipment completes the round it is decided).
    /// With a schedule, shipments queue against the per-peer link
    /// budget and drain in priority order, carrying across rounds —
    /// §2.2.4's link arithmetic made operational.
    pub schedule: Option<ScheduleConfig>,
    /// Adversarial host behaviour (all-off by default: every host is
    /// honest and no challenges run).
    pub adversary: AdversaryConfig,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            faults: FaultProfile::NONE,
            payload_bytes: 256,
            audit_interval: 1,
            audit_sample_period: 1,
            scrub_interval: 0,
            schedule: None,
            adversary: AdversaryConfig::default(),
        }
    }
}

/// The bandwidth-aware transfer scheduler's knobs.
///
/// With a schedule attached, every shard shipment enters a per-lane
/// queue instead of completing instantly. Each round every peer gets a
/// byte budget of one hour (`ROUND_SECS`) at the modern-DSL
/// [`LinkModel`], or an explicit cap, and its queued transfers drain in
/// strict priority order — restores before repairs before fresh
/// backups, oldest deadline first within a class. A transfer that exhausts the round's budget keeps its
/// remaining bytes and carries over; the frame ships (exactly once)
/// the round the last byte clears.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ScheduleConfig {
    /// Explicit per-peer per-round byte budget (both directions),
    /// overriding the link-derived value. `Some(small)` is how tests
    /// force a transfer to straddle many rounds.
    pub link_cap: Option<u64>,
    /// Round at which every joined archive's owner starts a full
    /// restore (the "flash crowd" wave: everyone wants their data back
    /// at once). Restores are downloads and preempt every other class.
    pub flash_restore: Option<u64>,
    /// Loss-deadline escalation margin (0 = off). A repair-class
    /// transfer whose archive currently mirrors fewer than
    /// `k + escalate_margin` placed blocks jumps the class-priority
    /// queue to restore priority: the archives closest to the loss
    /// cliff get the link first. With the margin at 0 the drain order
    /// is exactly the classic `(class, deadline, seq)`.
    pub escalate_margin: u32,
}

/// [`ScheduleConfig`] with the per-round byte budgets already resolved
/// against the link model.
struct ResolvedSchedule {
    /// Upload bytes per peer per round.
    up_budget: u64,
    /// Download bytes per peer per round.
    down_budget: u64,
    /// Flash-restore wave round, if any.
    flash_restore: Option<u64>,
    /// Loss-deadline escalation margin (0 = off).
    escalate_margin: u32,
}

/// Byte-plane counters. All values are a pure function of the two
/// configurations (simulation and fabric), seeds included — at every
/// worker count.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FabricStats {
    /// Frames pushed into the fault plane.
    pub transfers_attempted: u64,
    /// Frames stored intact on the receiving host.
    pub transfers_delivered: u64,
    /// Frames lost to in-flight bit flips.
    pub transfers_corrupted: u64,
    /// Frames lost to truncation.
    pub transfers_truncated: u64,
    /// Frames lost to link flaps (partial transfer).
    pub transfers_flapped: u64,
    /// Duplicate deliveries surfaced (and refused) by the store.
    pub duplicate_frames: u64,
    /// Stored blocks hit by at-rest bitrot.
    pub bitrot_events: u64,
    /// Frame bytes pushed onto links (including damaged transfers).
    pub bytes_shipped: u64,
    /// Simulated upload seconds across all placements.
    pub upload_secs: f64,
    /// Simulated download seconds across all episode decodes.
    pub download_secs: f64,
    /// Initial uploads completed (byte-side view of joins).
    pub joins: u64,
    /// Repair episodes observed.
    pub episodes: u64,
    /// Episodes that re-encoded the whole code word.
    pub episode_refreshes: u64,
    /// Episode-start decodes reconstructed from surviving shards.
    pub repair_decodes: u64,
    /// Episode-start decodes that fell back to the owner's local copy
    /// (possible only under fault injection).
    pub repair_decode_fallbacks: u64,
    /// Simulator loss events replayed against real bytes.
    pub losses_observed: u64,
    /// Damaged transfers re-shipped by the retry/backoff path.
    pub transfers_retried: u64,
    /// Retried transfers that landed an intact frame.
    pub retry_deliveries: u64,
    /// Scheduled retries dropped because the placement vanished, the
    /// block arrived another way, or the attempt budget ran out.
    pub retries_abandoned: u64,
    /// At-rest blocks checksummed by scrubbing sweeps.
    pub scrub_checked: u64,
    /// Rotten blocks a sweep caught (dropped and queued for re-ship).
    pub scrub_detected: u64,
    /// Scrub-originated re-ships that landed an intact replacement.
    pub scrub_repaired: u64,
    /// Scrub repairs that became moot before shipping: churn removed
    /// the placement, or a fresh block already arrived — before the
    /// re-ship was due, or while the scheduler was streaming it.
    pub scrub_obsolete: u64,
    /// Scrub re-ships whose every attempt was damaged in flight, given
    /// up at the attempt cap (each also counts in `retries_abandoned`).
    pub scrub_abandoned: u64,
    /// Shipments that entered the transfer scheduler's queue (zero on
    /// unscheduled runs — the instant path never queues).
    pub transfers_queued: u64,
    /// Transfer-rounds carried across a round boundary: a queued
    /// transfer still holding unsent bytes at round end counts one per
    /// round it survives.
    pub transfers_carried: u64,
    /// Queued shipments cancelled before completing: the placement was
    /// dropped or displaced mid-flight, or the block arrived some other
    /// way first.
    pub transfers_cancelled: u64,
    /// Flash-restore downloads completed (decode attempted).
    pub flash_restores: u64,
    /// Flash-restore decodes that failed — fewer than `k` blocks on
    /// currently-online hosts when the download finished. Without
    /// faults this measures an availability miss, not corruption.
    pub flash_restore_failures: u64,
    /// Frames acked-and-dropped by free-riding hosts (the sender paid
    /// the link; the bytes never existed on the host).
    pub adversary_drops: u64,
    /// Stored frames deliberately corrupted by selectively-honest
    /// hosts.
    pub adversary_corruptions: u64,
    /// Challenge-response probes issued (one per challenged placement).
    pub challenges_issued: u64,
    /// Challenges the host failed: the block was missing or not intact.
    pub challenge_failures: u64,
    /// Transfer-rounds drained at escalated (loss-deadline) priority:
    /// a repair transfer under the `escalate_margin` cliff counts one
    /// per drain round it survives at the head of the queue.
    pub escalated_transfer_rounds: u64,
}

impl FabricStats {
    /// Accumulates `other` (used for the per-round lane merge, always
    /// in lane order so the float sums are deterministic).
    fn accumulate(&mut self, other: &FabricStats) {
        self.transfers_attempted += other.transfers_attempted;
        self.transfers_delivered += other.transfers_delivered;
        self.transfers_corrupted += other.transfers_corrupted;
        self.transfers_truncated += other.transfers_truncated;
        self.transfers_flapped += other.transfers_flapped;
        self.duplicate_frames += other.duplicate_frames;
        self.bitrot_events += other.bitrot_events;
        self.bytes_shipped += other.bytes_shipped;
        self.upload_secs += other.upload_secs;
        self.download_secs += other.download_secs;
        self.joins += other.joins;
        self.episodes += other.episodes;
        self.episode_refreshes += other.episode_refreshes;
        self.repair_decodes += other.repair_decodes;
        self.repair_decode_fallbacks += other.repair_decode_fallbacks;
        self.losses_observed += other.losses_observed;
        self.transfers_retried += other.transfers_retried;
        self.retry_deliveries += other.retry_deliveries;
        self.retries_abandoned += other.retries_abandoned;
        self.scrub_checked += other.scrub_checked;
        self.scrub_detected += other.scrub_detected;
        self.scrub_repaired += other.scrub_repaired;
        self.scrub_obsolete += other.scrub_obsolete;
        self.scrub_abandoned += other.scrub_abandoned;
        self.transfers_queued += other.transfers_queued;
        self.transfers_carried += other.transfers_carried;
        self.transfers_cancelled += other.transfers_cancelled;
        self.flash_restores += other.flash_restores;
        self.flash_restore_failures += other.flash_restore_failures;
        self.adversary_drops += other.adversary_drops;
        self.adversary_corruptions += other.adversary_corruptions;
        self.challenges_issued += other.challenges_issued;
        self.challenge_failures += other.challenge_failures;
        self.escalated_transfer_rounds += other.escalated_transfer_rounds;
    }

    /// Scrub detections neither repaired, rendered moot nor abandoned
    /// at the attempt cap by the end of the run — corruption the fabric
    /// knew about and left standing. Zero on a run that finished its
    /// repair backlog.
    pub fn scrub_unrepaired(&self) -> u64 {
        self.scrub_detected
            .saturating_sub(self.scrub_repaired + self.scrub_obsolete + self.scrub_abandoned)
    }
}

/// What an owner keeps of one archive content epoch: the ciphertext,
/// the descriptor and the content key — as the paper's owner keeps its
/// data and makes a block when it places one. The ciphertext is the `k`
/// zero-padded data shards of the code word, `k × shard_len` bytes in
/// one buffer; parity is not kept, and [`CodeWord::shard`] encodes a
/// parity slot's one row when the slot ships. The plaintext archive is
/// not kept either: [`content_archive`] regenerates it from
/// `cipher_key` for the restores that compare against it.
pub(crate) struct CodeWord {
    /// Data shards `0..k`, back to back.
    pub(crate) ciphertext: Vec<u8>,
    pub(crate) descriptor: ArchiveDescriptor,
    /// The content seed, which is also the session key: it derives
    /// from the owner slot, its content epoch and the archive index.
    pub(crate) cipher_key: u64,
}

impl CodeWord {
    /// Backs up the archive `content_seed` stands for through
    /// [`BackupPipeline::backup`] and keeps its data shards: the `m`
    /// parity blocks are dropped.
    ///
    /// Debug builds (`cfg(any(test, debug_assertions))`) check every
    /// slot's [`CodeWord::shard`] against the backup's whole code word
    /// first — once per code word, since a code word never changes once
    /// made.
    fn encode(shared: &PlaneShared, content_seed: u64, archive_id: u64) -> CodeWord {
        let archive = content_archive(content_seed, archive_id, shared.cfg.payload_bytes);
        let cipher = XorKeystream::new(content_seed);
        let pipeline = BackupPipeline::new(shared.codec.clone(), cipher, content_seed);
        let placeholder_partners: Vec<u64> = (0..shared.codec.total_shards() as u64).collect();
        let plan = pipeline
            .backup(&archive, &placeholder_partners)
            .expect("partner count matches geometry");
        let k = usize::from(plan.descriptor.k);
        let shard_len = plan.blocks[0].bytes.len();
        let mut ciphertext = Vec::with_capacity(k * shard_len);
        for block in &plan.blocks[..k] {
            ciphertext.extend_from_slice(&block.bytes);
        }
        let codeword = CodeWord {
            ciphertext,
            descriptor: plan.descriptor,
            cipher_key: content_seed,
        };
        #[cfg(any(test, debug_assertions))]
        {
            let mut parity = Vec::new();
            for (slot, block) in plan.blocks.iter().enumerate() {
                assert!(
                    codeword.shard(&shared.codec, slot, &mut parity) == block.bytes,
                    "slot {slot} of archive {archive_id:#x} is not the backup's block"
                );
            }
        }
        codeword
    }

    /// Bytes per shard, data and parity alike.
    pub(crate) fn shard_len(&self) -> usize {
        self.ciphertext.len() / usize::from(self.descriptor.k)
    }

    /// The bytes of code-word slot `slot`, the one source of every
    /// slot's bytes: a data slot's are a slice of the ciphertext; a
    /// parity slot's row is encoded by `codec` into `parity` (recycled
    /// scratch), which is returned.
    pub(crate) fn shard<'a>(
        &'a self,
        codec: &ReedSolomon,
        slot: usize,
        parity: &'a mut Vec<u8>,
    ) -> &'a [u8] {
        let (k, len) = (usize::from(self.descriptor.k), self.shard_len());
        if slot < k {
            return &self.ciphertext[slot * len..(slot + 1) * len];
        }
        let mut data: [&[u8]; 256] = [&[]; 256];
        for (entry, shard) in data.iter_mut().zip(self.ciphertext.chunks_exact(len)) {
            *entry = shard;
        }
        parity.resize(len, 0);
        codec
            .shard_at_into(&data[..k], slot, parity)
            .expect("a slot of the code word's own geometry");
        parity
    }
}

/// The archive an owner's content seed stands for: one entry of
/// `payload_bytes` seeded bytes (at least one). Every code word is
/// encoded from it ([`CodeWord::encode`]), and the full restore
/// verdict regenerates it to compare against.
fn content_archive(content_seed: u64, archive_id: u64, payload_bytes: usize) -> Archive {
    let mut payload = vec![0u8; payload_bytes.max(1)];
    SimRng::seed_from_u64(content_seed).fill_bytes(&mut payload);
    Archive::from_entries(
        archive_id,
        false,
        vec![Entry {
            name: "payload".into(),
            data: payload.into(),
        }],
    )
}

/// Byte-side state of one owned archive.
pub(crate) struct OwnerArchive {
    pub(crate) codeword: CodeWord,
    /// Mirror of the simulator's placement: shard index → host.
    pub(crate) slots: Vec<Option<PeerId>>,
    pub(crate) joined: bool,
}

impl OwnerArchive {
    pub(crate) fn hosts(&self) -> impl Iterator<Item = (usize, PeerId)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|h| (i, h)))
    }
}

/// Immutable per-run state shared by every lane: the fabric's config,
/// and what the run builds from its two configs once. Lanes read the
/// simulator's config through the world.
pub(crate) struct PlaneShared {
    /// The fabric's config. Lanes read its schedule only as
    /// `schedule`, resolved.
    cfg: FabricConfig,
    /// The fault plane of `cfg.faults`.
    faults: FaultPlane,
    /// The run's one codec: every encode and decode of the geometry
    /// shares it (a clone is two `Arc` bumps, no matrix rebuild).
    pub(crate) codec: ReedSolomon,
    /// Bandwidth-aware scheduling, budgets resolved (`None` = instant
    /// shipping).
    schedule: Option<ResolvedSchedule>,
    /// Seed of the audit coverage hash, derived once from the run seed.
    audit_seed: u64,
    /// Seed of the challenge coverage hash.
    challenge_seed: u64,
}

/// Whether the coverage hash under `seed` covers `(owner, archive)` at
/// `round`: roughly one cell in `period` (every cell at 1). A pure
/// function of the cell — independent of lane partition and worker
/// count.
fn cell_sampled(seed: u64, period: u64, round: u64, owner: PeerId, archive: u8) -> bool {
    if period <= 1 {
        return true;
    }
    let cell = derive_seed(
        derive_seed(seed, round),
        ((owner as u64) << 8) | archive as u64,
    );
    cell.is_multiple_of(period)
}

impl PlaneShared {
    /// The geometry's `k`: data shards per code word.
    pub(crate) fn k(&self) -> usize {
        self.codec.data_shards()
    }

    /// The archive `codeword` encodes, regenerated from its content
    /// seed.
    pub(crate) fn archive_of(&self, codeword: &CodeWord) -> Archive {
        let (seed, id) = (codeword.cipher_key, codeword.descriptor.archive_id);
        content_archive(seed, id, self.cfg.payload_bytes)
    }

    /// Whether injected faults or adversarial hosts may damage bytes,
    /// so that a failed decode is an expected degradation, not a bug.
    pub(crate) fn damage_expected(&self) -> bool {
        self.cfg.faults.any_enabled() || self.cfg.adversary.any_hostile()
    }

    /// Whether the sampled auditor covers `(owner, archive)` at
    /// `round`.
    pub(crate) fn audit_sampled(&self, round: u64, owner: PeerId, archive: u8) -> bool {
        let period = self.cfg.audit_sample_period;
        cell_sampled(self.audit_seed, period, round, owner, archive)
    }

    /// Whether a scrubbing sweep runs at `round`. A final-round sweep
    /// still pays off: its re-ships complete in the end-of-run retry
    /// drain.
    fn scrub_due(&self, round: u64) -> bool {
        let interval = self.cfg.scrub_interval;
        interval > 0 && round.is_multiple_of(interval)
    }

    /// Whether a challenge sweep runs at `round`.
    fn challenge_due(&self, round: u64) -> bool {
        let interval = self.cfg.adversary.challenge_interval;
        interval > 0 && round.is_multiple_of(interval)
    }

    /// Whether the challenge sweep covers `(owner, archive)` at
    /// `round`.
    fn challenge_sampled(&self, round: u64, owner: PeerId, archive: u8) -> bool {
        let period = self.cfg.adversary.challenge_sample_period;
        cell_sampled(self.challenge_seed, period, round, owner, archive)
    }

    /// The adversary role of `slot` (pure; see
    /// [`AdversaryConfig::role_of`]).
    fn role_of(&self, world: &BackupWorld, slot: PeerId) -> AdversaryRole {
        let cfg = world.config();
        self.cfg
            .adversary
            .role_of(cfg.seed, cfg.observers.len(), slot)
    }
}

/// One transfer of a lane: whose block, to which host, and how many
/// attempts preceded it. The same record is shipped, queued and
/// retried; only its wrapper changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Transfer {
    owner: PeerId,
    archive: u8,
    /// Receiving host; the owner itself for restores.
    host: PeerId,
    /// 0 for the original transfer; retries count up. A scrub re-ship
    /// starts again at 0: it is a fresh transfer, not a retry of a
    /// failed one.
    attempt: u32,
    /// True when a scrubbing sweep originated the transfer (a delivery
    /// then counts as a scrub repair); kept across backoff re-enqueues.
    scrub: bool,
}

/// Priority class of a scheduled transfer. The discriminant is the
/// drain order: a user waiting on a restore outranks maintenance, and
/// maintenance outranks fresh backups (which have a local copy anyway).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum TransferClass {
    /// A flash-restore download (the owner pulling `k` blocks).
    Restore = 0,
    /// Repair traffic: re-ships after damage, scrub repairs, and
    /// placements of already-joined (repairing) archives.
    Repair = 1,
    /// The initial upload of a joining archive.
    Backup = 2,
}

/// A transfer in the scheduler's queue: bytes still to move; the
/// shipment (or restore decode) runs once the last byte clears.
#[derive(Debug, Clone, Copy)]
struct PendingTransfer {
    class: TransferClass,
    /// Round the transfer was enqueued — its deadline anchor: within a
    /// class, older transfers drain first.
    deadline: u64,
    /// Lane-local enqueue sequence, the final tiebreaker (total order,
    /// so the drain is deterministic at any worker count).
    seq: u64,
    bytes_left: u64,
    t: Transfer,
}

/// A transfer waiting for its re-ship round: a damaged shipment, or a
/// block a scrubbing sweep found rotten. Due retries run in derived
/// order, `(due, owner, archive, host, attempt, scrub)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Retry {
    /// Round the retry becomes due.
    due: u64,
    t: Transfer,
}

/// What the replay reports, in one value: each lane fills its own over
/// a round, and the plane folds them into its own in lane order.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct Output {
    stats: FabricStats,
    pub(crate) audit: AuditReport,
    /// Verified data losses, in the order they were observed.
    pub(crate) losses: Vec<LossRecord>,
    /// Rounds-to-completion of each finished flash-restore download,
    /// in completion order; percentiles come out in the report.
    restore_durations: Vec<u64>,
    /// Free-riding hosts that received at least one shipment — the
    /// denominator of the adversary probe's detection-coverage gate.
    riders_hit: BTreeSet<PeerId>,
}

/// One probe of a challenge sweep: the challenged host and the store
/// slot of the block it must produce (`None`: it holds none).
#[derive(Debug, Clone, Copy)]
struct Probe {
    host: PeerId,
    slot: Option<u32>,
}

/// How many probes ahead a challenge sweep prefetches: far enough for
/// a cold block to arrive while the blocks before it are summed (a
/// 2 KiB sum takes about as long as a cold read of it).
const PROBE_LOOKAHEAD: usize = 2;

/// How many block sums an ingest ran: one, unless the frame's structure
/// was refused before its payload was summed.
fn ingest_sums(ingested: &Result<(), IngestError>) -> u64 {
    let unsummed = matches!(ingested, Err(IngestError::Frame(FrameError::Wire(_))));
    u64::from(!unsummed)
}

impl Output {
    /// Moves everything `lane` holds into this output and leaves `lane`
    /// empty: counters add, notes append up to the cap, the loss and
    /// restore series append, the rider sets unite.
    fn absorb(&mut self, lane: &mut Output) {
        self.stats.accumulate(&core::mem::take(&mut lane.stats));
        self.audit.absorb(core::mem::take(&mut lane.audit));
        self.losses.append(&mut lane.losses);
        self.restore_durations.append(&mut lane.restore_durations);
        self.riders_hit.append(&mut lane.riders_hit);
    }
}

/// One logical shard's slice of the data plane: the block stores,
/// code-word cache, counters, audit ledger and retry queue of the
/// owners in that shard. Mutated only by the worker that claimed the
/// lane; merged in lane order.
pub(crate) struct PlaneLane {
    index: usize,
    /// Per-lane fault sub-seed; per-transfer RNGs derive from it and
    /// the lane's transfer sequence number.
    fault_seed: u64,
    transfer_seq: u64,
    /// Content epoch per owner slot (bumped on departure).
    epochs: BTreeMap<PeerId, u32>,
    pub(crate) owners: BTreeMap<(PeerId, u8), OwnerArchive>,
    pub(crate) store: BlockStore,
    /// This round's report-bound output, emptied by the merge.
    pub(crate) out: Output,
    /// Archives currently byte-unrestorable while the simulator still
    /// predicts them restorable (dedups audit loss records).
    pub(crate) divergent: BTreeSet<(PeerId, u8)>,
    /// Pending transfer retries, kept sorted on processing.
    retries: Vec<Retry>,
    /// Recycled scratch for the retries due this round.
    due_scratch: Vec<Retry>,
    /// This round's events whose owner lives in this lane (plus every
    /// departure). Drained-and-reused every round.
    inbox: Vec<WorldEvent>,
    /// Recycled data-shard output buffers for restore decodes.
    pub(crate) data_scratch: Vec<Vec<u8>>,
    /// Recycled wire buffer each shipment's frame is encoded into.
    frame_scratch: Vec<u8>,
    /// Recycled buffer a shipped parity slot's bytes are encoded into
    /// ([`CodeWord::shard`]).
    parity_scratch: Vec<u8>,
    /// Blocks [`PlaneLane::restore_survivors`] gathered over the whole
    /// run (execution telemetry for [`ReplayWork`]; never merged into
    /// the report).
    pub(crate) survivors_gathered: u64,
    /// Block sums run over the whole run, by site (telemetry for
    /// [`ReplayWork`]).
    pub(crate) sums: BlockSums,
    /// Decode plans recently built by the ciphertext verdict, and how
    /// many plans with a matrix inversion the lane built over the run.
    pub(crate) plans: PlanCache,
    /// Recycled `(host, owner, archive)` list of rotten blocks found by
    /// a scrubbing sweep.
    scrub_scratch: Vec<(PeerId, PeerId, u8)>,
    /// The transfer scheduler's queue (always empty on unscheduled
    /// runs). Sorted by `(class, deadline, seq)` at each drain.
    queue: Vec<PendingTransfer>,
    /// Recycled spine for the drain's keep-list.
    queue_scratch: Vec<PendingTransfer>,
    /// Lane-local enqueue counter feeding [`PendingTransfer::seq`].
    queue_seq: u64,
    /// Count of in-flight *shipments* per archive (restores excluded —
    /// they change no host state). The auditor skips archives with
    /// in-flight blocks: the simulator already believes them placed.
    in_flight: BTreeMap<(PeerId, u8), u32>,
    /// Per-peer upload bytes spent this round's drain (recycled).
    up_spent: BTreeMap<PeerId, u64>,
    /// Per-peer download bytes spent this round's drain (recycled).
    down_spent: BTreeMap<PeerId, u64>,
    /// Hosts whose challenge failed (or whose stored block a scrub
    /// found rotten) this round — drained to the world's reputation
    /// ledger in lane order after the merge.
    suspects: Vec<PeerId>,
    /// Recycled worklist of one challenge sweep.
    challenge_scratch: Vec<Probe>,
    /// Wall time of this lane's stages over the whole run (execution
    /// telemetry for [`ReplayProfile`]; never merged into the report).
    pub(crate) profile: ReplayProfile,
}

impl PlaneLane {
    fn new(index: usize, master_seed: u64) -> Self {
        PlaneLane {
            index,
            fault_seed: derive_seed(master_seed, FAULT_STREAM + index as u64),
            transfer_seq: 0,
            epochs: BTreeMap::new(),
            owners: BTreeMap::new(),
            store: BlockStore::new(),
            out: Output::default(),
            divergent: BTreeSet::new(),
            retries: Vec::new(),
            due_scratch: Vec::new(),
            inbox: Vec::new(),
            data_scratch: Vec::new(),
            frame_scratch: Vec::new(),
            parity_scratch: Vec::new(),
            survivors_gathered: 0,
            sums: BlockSums::default(),
            plans: PlanCache::default(),
            scrub_scratch: Vec::new(),
            queue: Vec::new(),
            queue_scratch: Vec::new(),
            queue_seq: 0,
            in_flight: BTreeMap::new(),
            up_spent: BTreeMap::new(),
            down_spent: BTreeMap::new(),
            suspects: Vec::new(),
            challenge_scratch: Vec::new(),
            profile: ReplayProfile::default(),
        }
    }

    /// Whether any shipment for `(owner, archive)` is still in the
    /// scheduler's queue.
    pub(crate) fn has_in_flight(&self, owner: PeerId, archive: u8) -> bool {
        self.in_flight.get(&(owner, archive)).copied().unwrap_or(0) > 0
    }

    /// Queues `t` for the scheduler's drain: `bytes` to move at
    /// `class` priority, its deadline anchored at `round`.
    fn enqueue_transfer(&mut self, class: TransferClass, t: Transfer, bytes: u64, round: u64) {
        self.out.stats.transfers_queued += 1;
        if class != TransferClass::Restore {
            *self.in_flight.entry((t.owner, t.archive)).or_insert(0) += 1;
        }
        let seq = self.queue_seq;
        self.queue_seq += 1;
        self.queue.push(PendingTransfer {
            class,
            deadline: round,
            seq,
            bytes_left: bytes.max(1),
            t,
        });
    }

    /// Sends shipment `t` of code-word slot `slot`: through the fault
    /// plane now on the instant path, or into the scheduler's queue at
    /// `class` priority when a schedule is attached. The one place
    /// that chooses between the two.
    fn send(
        &mut self,
        shared: &PlaneShared,
        world: &BackupWorld,
        class: TransferClass,
        t: Transfer,
        slot: usize,
        round: u64,
    ) {
        if shared.schedule.is_some() {
            let bytes = self.frame_bytes(t.owner, t.archive);
            self.enqueue_transfer(class, t, bytes, round);
        } else {
            self.ship_slot(shared, world, t, slot, round);
        }
    }

    /// The mirrored slot that still holds `t.host` for `t`'s archive
    /// while the host has no block of it at rest: the placement `t`
    /// ships to still stands and still needs the bytes. `None` once
    /// churn dropped or displaced the placement, or a block arrived
    /// another way.
    fn live_slot(&self, t: &Transfer) -> Option<usize> {
        let oa = self.owners.get(&(t.owner, t.archive))?;
        let slot = oa.slots.iter().position(|&s| s == Some(t.host))?;
        let missing = self.store.block(t.host, t.owner, t.archive).is_none();
        missing.then_some(slot)
    }

    /// Wire length of one shard frame of `(owner, archive)` (the unit
    /// the scheduler budgets in). The archive must be mirrored.
    fn frame_bytes(&self, owner: PeerId, archive: u8) -> u64 {
        let oa = self.owners.get(&(owner, archive)).expect("slot mirrored");
        (oa.codeword.shard_len() + BlockFrame::OVERHEAD) as u64
    }

    /// One round of the scheduler: sort the queue into priority order,
    /// stream bytes against each peer's budget, and execute whatever
    /// completes. Runs after the round's events enqueued their
    /// transfers; incomplete transfers carry their remaining bytes to
    /// the next round.
    fn drain_transfers(&mut self, shared: &PlaneShared, world: &BackupWorld, round: u64) {
        let Some(sched) = &shared.schedule else {
            return;
        };
        if self.queue.is_empty() {
            return;
        }
        // Loss-deadline escalation: a repair transfer whose archive
        // mirrors fewer than `k + margin` placed blocks outranks its
        // class (rank 0, tied with restores). With the margin at 0 the
        // rank is a uniform shift of the class discriminant, so the
        // order — and every byte of the report — is exactly the
        // classic `(class, deadline, seq)` drain.
        let margin = sched.escalate_margin;
        let cliff = shared.k() as u32 + margin;
        let owners = &self.owners;
        let rank_of = |p: &PendingTransfer| -> u8 {
            if margin > 0 && p.class == TransferClass::Repair {
                let present = owners
                    .get(&(p.t.owner, p.t.archive))
                    .map_or(0, |oa| oa.hosts().count() as u32);
                if present < cliff {
                    return 0;
                }
            }
            1 + p.class as u8
        };
        if margin > 0 {
            self.out.stats.escalated_transfer_rounds +=
                self.queue.iter().filter(|p| rank_of(p) == 0).count() as u64;
        }
        self.queue
            .sort_unstable_by_key(|p| (rank_of(p), p.deadline, p.seq));
        self.up_spent.clear();
        self.down_spent.clear();
        let mut pending = core::mem::take(&mut self.queue);
        let mut kept = core::mem::take(&mut self.queue_scratch);
        debug_assert!(kept.is_empty(), "queue scratch returned dirty");
        for mut p in pending.drain(..) {
            let (budget, spent) = if p.class == TransferClass::Restore {
                (sched.down_budget, &mut self.down_spent)
            } else {
                (sched.up_budget, &mut self.up_spent)
            };
            let spent = spent.entry(p.t.owner).or_insert(0);
            let send = budget.saturating_sub(*spent).min(p.bytes_left);
            *spent += send;
            p.bytes_left -= send;
            if p.bytes_left > 0 {
                self.out.stats.transfers_carried += 1;
                kept.push(p);
            } else {
                self.complete_transfer(shared, world, p, round);
            }
        }
        self.queue_scratch = pending;
        self.queue = kept;
    }

    /// Executes a transfer whose last byte cleared the link this round:
    /// a restore decodes, a shipment ships — exactly once, and only if
    /// the placement it was queued for still stands.
    fn complete_transfer(
        &mut self,
        shared: &PlaneShared,
        world: &BackupWorld,
        p: PendingTransfer,
        round: u64,
    ) {
        let PendingTransfer {
            class, deadline, t, ..
        } = p;
        let key = (t.owner, t.archive);
        if class == TransferClass::Restore {
            self.out.stats.flash_restores += 1;
            // `deadline` is the enqueue round: the difference is the
            // user-visible rounds-to-restore this percentile series
            // reports on.
            self.out.restore_durations.push(round - deadline);
            let key = (t.owner, t.archive);
            let found = self.restore_survivors(shared, world, key, true, 0, Verdict::Full);
            self.out.stats.download_secs += LINK.download_secs(found.download_bytes as f64);
            if !found.restored {
                self.out.stats.flash_restore_failures += 1;
            }
            return;
        }
        if let Some(count) = self.in_flight.get_mut(&key) {
            *count -= 1;
            if *count == 0 {
                self.in_flight.remove(&key);
            }
        }
        // The placement may have been dropped, displaced, or refilled
        // while the bytes were streaming. A cancelled scrub re-ship is
        // moot, as it is on the retry path.
        let Some(slot) = self.live_slot(&t) else {
            self.out.stats.transfers_cancelled += 1;
            self.out.stats.scrub_obsolete += u64::from(t.scrub);
            return;
        };
        let clock = Instant::now();
        self.ship_slot(shared, world, t, slot, round);
        self.profile.drain_ship += clock.elapsed();
    }

    /// The RNG for the next transfer on this lane. Deterministic: the
    /// sequence number advances with the lane's (deterministic) event
    /// subsequence, independently of the other lanes.
    fn transfer_rng(&mut self) -> SimRng {
        let seq = self.transfer_seq;
        self.transfer_seq += 1;
        sim_rng(derive_seed(self.fault_seed, seq))
    }

    pub(crate) fn note(&mut self, message: String) {
        self.out.audit.mismatches += 1;
        if self.out.audit.notes.len() < AuditReport::MAX_NOTES {
            self.out.audit.notes.push(message);
        }
    }

    /// Builds (or fetches) the byte-side state for an owned archive.
    fn owner_archive(
        &mut self,
        shared: &PlaneShared,
        world: &BackupWorld,
        owner: PeerId,
        archive: u8,
    ) -> &mut OwnerArchive {
        let epoch = self.epochs.get(&owner).copied().unwrap_or(0);
        let master_seed = world.config().seed;
        self.owners.entry((owner, archive)).or_insert_with(|| {
            let slot_seed = derive_seed(master_seed, CONTENT_STREAM ^ owner as u64);
            let content_seed = derive_seed(slot_seed, ((epoch as u64) << 8) | archive as u64);
            let archive_id = ((owner as u64) << 8) | archive as u64;
            OwnerArchive {
                codeword: CodeWord::encode(shared, content_seed, archive_id),
                slots: vec![None; shared.codec.total_shards()],
                joined: false,
            }
        })
    }

    /// Executes transfer `t` of code-word slot `slot` through the
    /// fault plane. A damaged transfer with budget left re-enqueues
    /// itself with exponential backoff and seeded jitter.
    fn ship_slot(
        &mut self,
        shared: &PlaneShared,
        world: &BackupWorld,
        t: Transfer,
        slot: usize,
        round: u64,
    ) {
        let Transfer {
            owner,
            archive,
            host,
            attempt,
            scrub,
        } = t;
        let oa = self.owners.get(&(owner, archive)).expect("slot mirrored");
        // The frame is encoded into the lane's recycled buffer and
        // handed back at the end; the fault plane may damage it in
        // transit, which is why it is not the slot's own bytes. A
        // parity slot's bytes are encoded first, into their own buffer.
        let mut bytes = core::mem::take(&mut self.frame_scratch);
        let shard = oa
            .codeword
            .shard(&shared.codec, slot, &mut self.parity_scratch);
        BlockFrame::encode_into(&mut bytes, owner, archive, slot as u32, shard);
        self.sums.shipment += 1;
        let frame_len = bytes.len();
        self.out.stats.transfers_attempted += 1;
        if attempt > 0 {
            self.out.stats.transfers_retried += 1;
        }
        self.out.stats.bytes_shipped += frame_len as u64;
        self.out.stats.upload_secs += LINK.upload_secs(frame_len as f64);

        // A free-riding host acks the transfer and drops the bytes: the
        // sender has paid the link and believes the placement stands —
        // no retry fires, because nothing looked wrong. Only the
        // challenge sweep, scrubbing and the auditor can surface the
        // hole; the simulator's placement map diverges from byte truth
        // by design (expected degradation, like injected faults).
        if shared.role_of(world, host) == AdversaryRole::FreeRider {
            self.out.stats.adversary_drops += 1;
            self.out.riders_hit.insert(host);
            self.frame_scratch = bytes;
            return;
        }

        let mut rng = self.transfer_rng();
        let availability = world.peer_availability(host);
        let transit = shared.faults.transit(&mut rng, &mut bytes, availability);
        let ingested = self.store.ingest(host, &bytes);
        self.sums.shipment += ingest_sums(&ingested);
        match ingested {
            Ok(()) => {
                if attempt > 0 {
                    self.out.stats.retry_deliveries += 1;
                }
                if scrub {
                    self.out.stats.scrub_repaired += 1;
                }
                self.out.stats.transfers_delivered += 1;
                if let Some(block) = self.store.block_mut(host, owner, archive) {
                    if let Some((byte, bit)) = shared.faults.bitrot(&mut rng, block.bytes.len()) {
                        block.bytes[byte] ^= 1 << bit;
                        self.out.stats.bitrot_events += 1;
                    }
                }
                // A selectively honest host stores the frame, then
                // corrupts roughly half of what it accepts — bitrot
                // with intent, drawn from the same per-transfer stream
                // so the damage pattern is deterministic.
                let rotter = shared.role_of(world, host) == AdversaryRole::Rotter;
                if rotter && rng.gen_range(0..2u32) == 1 {
                    if let Some(block) = self.store.block_mut(host, owner, archive) {
                        let byte = rng.gen_range(0..block.bytes.len());
                        let bit = rng.gen_range(0..8u32);
                        block.bytes[byte] ^= 1 << bit;
                        self.out.stats.adversary_corruptions += 1;
                    }
                }
            }
            Err(IngestError::Frame(_)) => {
                match transit.damage {
                    Some(FaultKind::Corruption) => self.out.stats.transfers_corrupted += 1,
                    Some(FaultKind::Truncation) => self.out.stats.transfers_truncated += 1,
                    Some(FaultKind::LinkFlap) => self.out.stats.transfers_flapped += 1,
                    None => self.note(format!(
                        "undamaged frame for {owner}/{archive} refused by {host}"
                    )),
                }
                if transit.damage.is_some() {
                    if attempt + 1 < MAX_TRANSFER_ATTEMPTS {
                        // Bounded exponential backoff with seeded
                        // jitter: 2^a + U[0, 2^a) rounds.
                        let a = attempt + 1;
                        let base = 1u64 << a;
                        let jitter = rng.gen_range(0..base);
                        self.retries.push(Retry {
                            due: round + base + jitter,
                            t: Transfer { attempt: a, ..t },
                        });
                    } else {
                        self.out.stats.retries_abandoned += 1;
                        self.out.stats.scrub_abandoned += u64::from(scrub);
                    }
                }
            }
            Err(IngestError::DuplicateFrame { .. }) => {
                self.note(format!(
                    "unexpected duplicate at {host} for {owner}/{archive}"
                ));
            }
            Err(e @ IngestError::WrongLength { .. }) => {
                self.note(format!("{host} refused {owner}/{archive}: {e}"));
            }
        }
        if transit.duplicated {
            // The retransmission delivers the same (possibly damaged)
            // frame again; an intact copy must be refused as a
            // duplicate, never silently merged or double-stored. The
            // sender pays the link a second time.
            self.out.stats.duplicate_frames += 1;
            self.out.stats.bytes_shipped += frame_len as u64;
            self.out.stats.upload_secs += LINK.upload_secs(frame_len as f64);
            let again = self.store.ingest(host, &bytes);
            self.sums.shipment += ingest_sums(&again);
            if again.is_ok() && transit.damage.is_none() {
                self.note(format!(
                    "duplicate frame for {owner}/{archive} accepted twice by {host}"
                ));
            }
        }
        self.frame_scratch = bytes;
    }

    /// Mirrors a fresh placement and ships its shard.
    fn place_block(
        &mut self,
        shared: &PlaneShared,
        world: &BackupWorld,
        owner: PeerId,
        archive: u8,
        host: PeerId,
        round: u64,
    ) {
        // Mirror the simulator's placement first: the slot is taken even
        // if the transfer fails (the simulator believes it succeeded —
        // the divergence is what the auditor measures, and what the
        // retry path repairs).
        let oa = self.owner_archive(shared, world, owner, archive);
        let Some(slot) = oa.slots.iter().position(Option::is_none) else {
            self.note(format!(
                "placement for {owner}/{archive} with no free shard slot"
            ));
            return;
        };
        oa.slots[slot] = Some(host);
        // A placement for an archive that already joined is repair
        // traffic; first-time uploads are backups.
        let class = if oa.joined {
            TransferClass::Repair
        } else {
            TransferClass::Backup
        };
        let t = Transfer {
            owner,
            archive,
            host,
            attempt: 0,
            scrub: false,
        };
        self.send(shared, world, class, t, slot, round);
    }

    /// Re-ships the retries due at `round`, in deterministic order, at
    /// repair priority when scheduled. A retry whose placement vanished
    /// (or whose block arrived some other way) is abandoned, or counted
    /// obsolete for a scrub re-ship.
    fn process_due_retries(&mut self, shared: &PlaneShared, world: &BackupWorld, round: u64) {
        if self.retries.is_empty() {
            return;
        }
        // The due list cycles through a per-lane scratch buffer, so the
        // steady state allocates nothing here.
        let mut due = core::mem::take(&mut self.due_scratch);
        due.clear();
        self.retries.retain(|r| {
            if r.due <= round {
                due.push(*r);
                false
            } else {
                true
            }
        });
        due.sort_unstable();
        for Retry { t, .. } in due.drain(..) {
            match self.live_slot(&t) {
                Some(slot) => self.send(shared, world, TransferClass::Repair, t, slot, round),
                None if t.scrub => self.out.stats.scrub_obsolete += 1,
                None => self.out.stats.retries_abandoned += 1,
            }
        }
        self.due_scratch = due;
    }

    fn on_block_dropped(&mut self, owner: PeerId, archive: u8, host: PeerId) {
        let Some(oa) = self.owners.get_mut(&(owner, archive)) else {
            self.note(format!("drop for unknown archive {owner}/{archive}"));
            return;
        };
        match oa.slots.iter().position(|&s| s == Some(host)) {
            Some(slot) => oa.slots[slot] = None,
            None => self.note(format!("drop of unmirrored block {owner}/{archive}@{host}")),
        }
        self.store.drop_block(host, owner, archive);
    }

    fn on_episode_started(
        &mut self,
        shared: &PlaneShared,
        world: &BackupWorld,
        owner: PeerId,
        archive: u8,
        refresh: bool,
    ) {
        self.out.stats.episodes += 1;
        if refresh {
            self.out.stats.episode_refreshes += 1;
        }
        // The paper's k-block download, replayed for real: reconstruct
        // the code word from k shards that actually survive on disk.
        let key = (owner, archive);
        let found = self.restore_survivors(shared, world, key, false, 0, Verdict::Ciphertext);
        self.out.stats.download_secs += LINK.download_secs(found.download_bytes as f64);
        if found.restored {
            self.out.stats.repair_decodes += 1;
        } else {
            // Fewer than k intact shards survive (possible only under
            // fault injection): the owner re-encodes from its local
            // copy, exactly like the paper's loss-and-rejoin path.
            self.out.stats.repair_decode_fallbacks += 1;
            // With the scheduler on, an episode can legitimately start
            // while earlier placements are still streaming — the local
            // fallback is bandwidth, not corruption. Adversarial hosts
            // make the fallback expected too, exactly like faults.
            if !shared.damage_expected() && !self.has_in_flight(owner, archive) {
                self.note(format!(
                    "episode decode failed without faults for {owner}/{archive}"
                ));
            }
        }
    }

    fn on_archive_lost(
        &mut self,
        shared: &PlaneShared,
        world: &BackupWorld,
        owner: PeerId,
        archive: u8,
        round: u64,
    ) {
        self.out.stats.losses_observed += 1;
        // Replay the failing restore with the blocks present at loss
        // time (the event fires before the survivors are dropped).
        let key = (owner, archive);
        let found = self.restore_survivors(shared, world, key, false, 0, Verdict::Full);
        let intact = found.intact;
        if found.restored {
            self.note(format!(
                "simulator lost {owner}/{archive} but bytes decoded from {intact} shards"
            ));
        }
        let k = shared.k() as u32;
        if intact >= k {
            self.note(format!(
                "loss of {owner}/{archive} with {intact} intact shards >= k"
            ));
        }
        self.out.losses.push(LossRecord {
            round,
            owner,
            archive,
            intact_shards: intact,
            k,
        });
        if let Some(oa) = self.owners.get_mut(&(owner, archive)) {
            oa.joined = false;
        }
        self.divergent.remove(&(owner, archive));
    }

    /// Departure fan-out: every lane clears the bytes it stores for the
    /// departed host; the lane owning the slot additionally recycles
    /// the owner-side state (bumping the content epoch).
    fn on_peer_departed(&mut self, world: &BackupWorld, peer: PeerId) {
        // Hosted bytes must already be gone, block by block.
        let leftover = self.store.clear_host(peer);
        if leftover > 0 {
            self.note(format!("departed {peer} still stored {leftover} blocks"));
        }
        if world.shard_of_peer(peer) != self.index {
            return;
        }
        // Owned archives must already be empty; forget them so the
        // replacement peer gets fresh content.
        let keys: Vec<(PeerId, u8)> = self
            .owners
            .range((peer, 0)..=(peer, u8::MAX))
            .map(|(&k, _)| k)
            .collect();
        for key in keys {
            let oa = self.owners.remove(&key).expect("key just listed");
            if oa.hosts().count() > 0 {
                self.note(format!(
                    "departed {peer} still had blocks placed for archive {}",
                    key.1
                ));
            }
            self.divergent.remove(&key);
        }
        *self.epochs.entry(peer).or_insert(0) += 1;
    }

    /// Scrubbing sweep: checksum every at-rest block in this lane's
    /// store, drop the rotten ones and schedule their re-ship through
    /// the retry machinery (due next round, attributed to scrubbing).
    /// The placement mirror stays — the simulator still believes the
    /// block is placed, and the repair restores that belief's bytes.
    fn scrub_sweep(&mut self, round: u64) {
        let mut rotten = core::mem::take(&mut self.scrub_scratch);
        debug_assert!(rotten.is_empty(), "scrub scratch returned dirty");
        let checked = self.store.collect_rotten(&mut rotten) as u64;
        self.out.stats.scrub_checked += checked;
        self.sums.scrub += checked;
        for &(host, owner, archive) in &rotten {
            self.store.drop_block(host, owner, archive);
            self.out.stats.scrub_detected += 1;
            // A scrub detection is an integrity failure attributable to
            // the storing host; it feeds the same reputation ledger the
            // challenge sweep does (inert while the world's quarantine
            // threshold is 0).
            self.suspects.push(host);
            self.retries.push(Retry {
                due: round + 1,
                t: Transfer {
                    owner,
                    archive,
                    host,
                    attempt: 0,
                    scrub: true,
                },
            });
        }
        rotten.clear();
        self.scrub_scratch = rotten;
    }

    /// Replays this lane's slice of one round: due retries first, then
    /// the event subsequence in stream order, then (when due) the
    /// scrubbing sweep over everything the round left at rest. The
    /// inbox buffer is cleared and reused round over round.
    fn run_round(&mut self, shared: &PlaneShared, world: &BackupWorld, round: u64) {
        let mut clock = Instant::now();
        self.process_due_retries(shared, world, round);
        self.profile.retries += lap(&mut clock);
        let mut inbox = core::mem::take(&mut self.inbox);
        for event in &inbox {
            match event {
                WorldEvent::BlocksPlaced {
                    owner,
                    archive,
                    hosts,
                } => {
                    for &host in hosts {
                        self.place_block(shared, world, *owner, *archive, host, round);
                    }
                }
                WorldEvent::BlockDropped {
                    owner,
                    archive,
                    host,
                } => self.on_block_dropped(*owner, *archive, *host),
                WorldEvent::JoinCompleted {
                    owner,
                    archive,
                    blocks,
                } => {
                    self.out.stats.joins += 1;
                    if let Some(oa) = self.owners.get_mut(&(*owner, *archive)) {
                        oa.joined = true;
                        let filled = oa.slots.iter().flatten().count();
                        if filled != *blocks as usize {
                            self.note(format!(
                                "join of {owner}/{archive} with {filled} filled shard slots, \
                                 {blocks} placed"
                            ));
                        }
                    } else {
                        self.note(format!("join of unknown archive {owner}/{archive}"));
                    }
                }
                WorldEvent::EpisodeStarted {
                    owner,
                    archive,
                    refresh,
                } => self.on_episode_started(shared, world, *owner, *archive, *refresh),
                WorldEvent::EpisodeCompleted { .. } => {}
                WorldEvent::ArchiveLost {
                    owner,
                    archive,
                    round: lost_round,
                } => self.on_archive_lost(shared, world, *owner, *archive, *lost_round),
                WorldEvent::PeerDeparted { peer } => self.on_peer_departed(world, *peer),
            }
        }
        inbox.clear();
        self.inbox = inbox;
        if let Some(sched) = &shared.schedule {
            if sched.flash_restore == Some(round) {
                self.enqueue_flash_restores(shared, round);
            }
        }
        self.profile.events += lap(&mut clock);
        self.drain_transfers(shared, world, round);
        self.profile.drain += lap(&mut clock);
        if shared.scrub_due(round) {
            self.scrub_sweep(round);
            self.profile.scrub += lap(&mut clock);
        }
        if shared.challenge_due(round) {
            self.challenge_sweep(shared, round);
            self.profile.challenge += lap(&mut clock);
        }
    }

    /// One overtime round (see [`Fabric::drain_retries`]): due retries,
    /// then the scheduler's drain.
    fn run_overtime_round(&mut self, shared: &PlaneShared, world: &BackupWorld, round: u64) {
        let mut clock = Instant::now();
        self.process_due_retries(shared, world, round);
        self.profile.retries += lap(&mut clock);
        self.drain_transfers(shared, world, round);
        self.profile.drain += lap(&mut clock);
    }

    /// Challenge-response integrity sweep: every sampled placement of a
    /// joined archive in this lane must produce its block, intact, on
    /// demand. Cells with blocks still streaming and placements with a
    /// pending re-ship are skipped — the fabric already knows those
    /// bytes are in motion, so a miss there is not evidence. Failures
    /// land in the suspect list; the driver feeds them to the world's
    /// reputation ledger in lane order.
    ///
    /// The probes' blocks are looked up first, then summed in probe
    /// order with the block [`PROBE_LOOKAHEAD`] probes ahead prefetched,
    /// so its bytes arrive while this one is summed.
    fn challenge_sweep(&mut self, shared: &PlaneShared, round: u64) {
        let mut probes = core::mem::take(&mut self.challenge_scratch);
        debug_assert!(probes.is_empty(), "challenge scratch returned dirty");
        for (&(owner, archive), oa) in &self.owners {
            if !oa.joined || !shared.challenge_sampled(round, owner, archive) {
                continue;
            }
            if self.has_in_flight(owner, archive) {
                continue;
            }
            for (_, host) in oa.hosts() {
                // A placement with a re-ship pending is known damage.
                let reshipping = self
                    .retries
                    .iter()
                    .any(|r| (r.t.owner, r.t.archive, r.t.host) == (owner, archive, host));
                if !reshipping {
                    let slot = self.store.slot_of(host, owner, archive);
                    probes.push(Probe { host, slot });
                }
            }
        }
        self.out.stats.challenges_issued += probes.len() as u64;
        for (i, probe) in probes.iter().enumerate() {
            if let Some(ahead) = probes.get(i + PROBE_LOOKAHEAD).and_then(|p| p.slot) {
                prefetch(self.store.at(ahead).bytes);
            }
            let intact = probe.slot.is_some_and(|slot| {
                self.sums.challenge += 1;
                self.store.at(slot).intact()
            });
            if !intact {
                self.out.stats.challenge_failures += 1;
                self.suspects.push(probe.host);
            }
        }
        probes.clear();
        self.challenge_scratch = probes;
    }

    /// Queues one full-restore download for every joined archive in
    /// this lane — the flash-crowd wave. Restore bytes are `k` frames;
    /// the decode runs when the download completes.
    fn enqueue_flash_restores(&mut self, shared: &PlaneShared, round: u64) {
        let wave: Vec<(PeerId, u8)> = self
            .owners
            .iter()
            .filter(|(_, oa)| oa.joined)
            .map(|(&key, _)| key)
            .collect();
        for (owner, archive) in wave {
            let bytes = shared.k() as u64 * self.frame_bytes(owner, archive);
            let t = Transfer {
                owner,
                archive,
                host: owner,
                attempt: 0,
                scrub: false,
            };
            self.enqueue_transfer(TransferClass::Restore, t, bytes, round);
        }
    }
}

/// The sharded data plane: one lane per logical owner shard plus the
/// merged report state.
struct Plane {
    shared: PlaneShared,
    lanes: Vec<PlaneLane>,
    /// The lanes' output, merged in lane order once per round.
    out: Output,
}

impl Plane {
    /// Folds every lane's round output into the merged report, in lane
    /// order (deterministic at any worker count; losses stay in
    /// chronological order because the merge happens every round).
    fn merge_round(&mut self) {
        for lane in &mut self.lanes {
            self.out.absorb(&mut lane.out);
        }
    }
}

/// A [`BackupWorld`] bound to a real data plane.
pub struct Fabric {
    world: BackupWorld,
    plane: Plane,
    /// Recycled buffer the world's per-round event log swaps through
    /// (zero steady-state allocation on the replay path).
    event_scratch: Vec<WorldEvent>,
    /// Recycled buffer the lanes' integrity suspects drain into each
    /// round (in lane order) before the world's reputation ledger sees
    /// them.
    suspect_scratch: Vec<PeerId>,
    /// How each round replayed: the round rows of [`ReplayWork`] (its
    /// other fields are filled in by [`Fabric::replay_work`]).
    replay: ReplayWork,
    /// The driver's rows of [`ReplayProfile`] (the lanes keep theirs;
    /// [`Fabric::replay_profile`] adds them up).
    profile: ReplayProfile,
}

/// Execution-side counters of the lane replay, read through
/// [`Fabric::replay_work`] beside the world's `round_profile()`.
/// Telemetry: the dispatch rows depend on the worker count and hold
/// wall times, so none of this is part of [`FabricStats`] or
/// [`FabricReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplayWork {
    /// Rounds with nothing to replay and no sweep due.
    pub rounds_skipped: u64,
    /// Plain rounds: items are the queued events, pending transfers
    /// and retries due the width rule priced each one on.
    pub plain: StageWork,
    /// Rounds with an audit, scrub, challenge or flash-restore wave
    /// due, replayed full width and given no items.
    pub sweep: StageWork,
    /// Restore decodes attempted (audits, episode starts, loss
    /// verifications, flash restores).
    pub decodes: u64,
    /// Intact blocks gathered from the stores as decode inputs, each
    /// borrowed in place: at most `k` per gather, exactly `k` per
    /// successful decode (the intact blocks a failed restore counts
    /// past its gather are not inputs and not counted here).
    pub survivor_blocks_gathered: u64,
    /// Ciphertext the owners hold at the last completed round: `k` data
    /// shards per archive they mirror (parity is encoded when a parity
    /// slot ships, and not kept).
    pub owner_bytes: u64,
    /// Bytes of the blocks at rest on the hosts at the last completed
    /// round: blocks stored × shard length.
    pub stored_bytes: u64,
    /// Every [`block_sum`](crate::block_sum) the lanes ran, by site.
    pub block_sums: BlockSums,
    /// Decode plans built with a `k × k` matrix inversion: the
    /// ciphertext verdict's plan-cache misses, plus each full restore
    /// whose `k` sources are not all data shards (`RestorePipeline`
    /// builds its own plan). The rest of [`ReplayWork::decodes`] found
    /// their plan cached, read only data shards, or had fewer than `k`
    /// blocks to decode from.
    pub decode_plans_built: u64,
}

/// [`block_sum`](crate::block_sum) calls of the lane replay, by site:
/// each is one pass over a whole block (execution telemetry in
/// [`ReplayWork`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BlockSums {
    /// Shipments: the sender's seal, and one payload sum per delivery
    /// (or duplicate delivery) whose frame parsed.
    pub shipment: u64,
    /// Scrubbing sweeps: every block at rest, once per sweep.
    pub scrub: u64,
    /// Challenge sweeps: every challenged block the host still holds.
    pub challenge: u64,
    /// Restore gathers: every block a gather read before it stopped.
    pub gather: u64,
}

impl BlockSums {
    /// All four sites together.
    pub fn total(&self) -> u64 {
        self.shipment + self.scrub + self.challenge + self.gather
    }
}

impl std::ops::AddAssign for BlockSums {
    fn add_assign(&mut self, other: BlockSums) {
        self.shipment += other.shipment;
        self.scrub += other.scrub;
        self.challenge += other.challenge;
        self.gather += other.gather;
    }
}

impl Fabric {
    /// Builds the combined system.
    ///
    /// # Errors
    ///
    /// A description of the first invalid parameter (simulation config,
    /// fault profile, or an erasure geometry the codec cannot express).
    pub fn new(cfg: SimConfig, fabric_cfg: FabricConfig) -> Result<Self, String> {
        cfg.validate()?;
        fabric_cfg.faults.validate()?;
        fabric_cfg.adversary.validate()?;
        if fabric_cfg.audit_interval == 0 {
            return Err("audit interval must be at least one round".into());
        }
        if fabric_cfg.audit_sample_period == 0 {
            return Err("audit sample period must be at least one (1 = full scan)".into());
        }
        let schedule = match fabric_cfg.schedule {
            None => None,
            Some(s) => {
                if s.link_cap == Some(0) {
                    return Err("link cap of 0 bytes per round would stall every transfer".into());
                }
                let up = (LINK.up_bytes_per_sec * ROUND_SECS) as u64;
                let down = (LINK.down_bytes_per_sec * ROUND_SECS) as u64;
                Some(ResolvedSchedule {
                    up_budget: s.link_cap.unwrap_or(up).max(1),
                    down_budget: s.link_cap.unwrap_or(down).max(1),
                    flash_restore: s.flash_restore,
                    escalate_margin: s.escalate_margin,
                })
            }
        };
        let codec = ReedSolomon::new(cfg.k as usize, cfg.m as usize)
            .map_err(|e| format!("erasure geometry k={} m={}: {e}", cfg.k, cfg.m))?;
        let seed = cfg.seed;
        let mut world = BackupWorld::new(cfg);
        world.set_event_recording(true);
        let shared = PlaneShared {
            cfg: fabric_cfg,
            faults: FaultPlane::new(fabric_cfg.faults),
            codec,
            schedule,
            audit_seed: derive_seed(seed, AUDIT_STREAM),
            challenge_seed: derive_seed(seed, CHALLENGE_STREAM),
        };
        let lanes = (0..world.logical_shards())
            .map(|i| PlaneLane::new(i, seed))
            .collect();
        let plane = Plane {
            shared,
            lanes,
            out: Output::default(),
        };
        Ok(Fabric {
            world,
            plane,
            event_scratch: Vec::new(),
            suspect_scratch: Vec::new(),
            replay: ReplayWork::default(),
            profile: ReplayProfile::default(),
        })
    }

    /// Read access to the wrapped world.
    pub fn world(&self) -> &BackupWorld {
        &self.world
    }

    /// Enables or disables the simulator's cross-round arena recycling
    /// (on by default; observationally invisible). Test knob: run the
    /// same seed both ways and assert bit-identical reports.
    pub fn set_arena_recycling(&mut self, on: bool) {
        self.world.set_arena_recycling(on);
    }

    /// Byte-plane counters so far (merged through the last completed
    /// round).
    pub fn stats(&self) -> &FabricStats {
        &self.plane.out.stats
    }

    /// Replay work so far (through the last completed round).
    pub fn replay_work(&self) -> ReplayWork {
        let lanes = &self.plane.lanes;
        let owned = lanes.iter().flat_map(|l| l.owners.values());
        ReplayWork {
            decodes: self.plane.out.audit.decode_attempts,
            survivor_blocks_gathered: lanes.iter().map(|l| l.survivors_gathered).sum(),
            owner_bytes: owned.map(|oa| oa.codeword.ciphertext.len() as u64).sum(),
            stored_bytes: lanes.iter().map(|l| l.store.stored_bytes() as u64).sum(),
            block_sums: lanes.iter().fold(BlockSums::default(), |mut sums, l| {
                sums += l.sums;
                sums
            }),
            decode_plans_built: lanes.iter().map(|l| l.plans.built).sum(),
            ..self.replay
        }
    }

    /// Where the replay's wall time went so far: each lane's stages
    /// summed in lane order, plus the driver's partition, dispatch and
    /// merge (see [`ReplayProfile`]).
    pub fn replay_profile(&self) -> ReplayProfile {
        let mut profile = self.profile;
        for lane in &self.plane.lanes {
            profile.accumulate(&lane.profile);
        }
        profile
    }

    /// Runs the configured number of rounds and returns the report.
    pub fn run(self) -> FabricReport {
        self.run_with_telemetry().0
    }

    /// [`Fabric::run`], also returning the run's [`ReplayWork`] and
    /// [`ReplayProfile`] (which the report deliberately does not
    /// carry).
    pub fn run_with_telemetry(mut self) -> (FabricReport, ReplayWork, ReplayProfile) {
        let (seed, rounds) = (self.world.config().seed, self.world.config().rounds);
        let mut engine = Engine::new(seed);
        engine.run(&mut self, rounds);
        self.drain_retries();
        let (work, profile) = (self.replay_work(), self.replay_profile());
        (self.finish(), work, profile)
    }

    /// Overtime: re-ships and scheduled transfers still pending when
    /// the last round ends run against the frozen world until both
    /// queues drain. Every scheduled repair therefore resolves —
    /// delivered, obsolete, or abandoned after the attempt cap — and
    /// every queued transfer finishes streaming before the report is
    /// cut; a scrub detection the machinery never repairs is a real
    /// failure, not run truncation. Terminates because each pass
    /// consumes the earliest due retry batch, the attempt cap bounds
    /// requeues, and every overtime round moves at least one byte of
    /// each peer's head-of-line transfer. Inline and in lane order, so
    /// the result is identical at any worker count.
    fn drain_retries(&mut self) {
        let mut r = self.world.config().rounds;
        loop {
            let queued = self.plane.lanes.iter().any(|l| !l.queue.is_empty());
            let next_due = self
                .plane
                .lanes
                .iter()
                .flat_map(|l| l.retries.iter().map(|x| x.due))
                .min();
            if !queued && next_due.is_none() {
                break;
            }
            if !queued {
                // Jump straight to the next backoff expiry.
                r = r.max(next_due.expect("some retry pending"));
            }
            let world = &self.world;
            let shared = &self.plane.shared;
            for lane in &mut self.plane.lanes {
                lane.run_overtime_round(shared, world, r);
            }
            self.plane.merge_round();
            r += 1;
        }
    }

    /// Finishes early (or after a manual drive) and returns the report.
    pub fn finish(self) -> FabricReport {
        let Fabric { world, plane, .. } = self;
        let quarantined = world.quarantine_log().to_vec();
        let Output {
            stats,
            audit,
            losses,
            restore_durations,
            riders_hit,
        } = plane.out;
        FabricReport {
            metrics: world.into_metrics(),
            stats,
            audit,
            losses,
            restore_durations,
            quarantined,
            free_riders_targeted: riders_hit.into_iter().collect(),
        }
    }
}

#[cfg(any(test, debug_assertions))]
impl Fabric {
    /// The data plane's structural invariants, between rounds (every
    /// event replayed, nothing mid-stage). `round_start` calls it every
    /// 16th round in every build with debug assertions — the fabric's
    /// unit tests and every debug build that links it, integration
    /// tests included; release builds compile it out. For every lane:
    ///
    /// * its store passes [`BlockStore::check_invariants`];
    /// * every block at rest belongs to an owner of the lane's shard and
    ///   sits on a host the archive's mirror names (a drop clears the
    ///   mirror and the block in the same step, so no drop is pending
    ///   here);
    /// * every queued transfer and retry names an owner of the lane's
    ///   shard, and the in-flight counts are the queue's shipments;
    /// * a joined archive with nothing in flight mirrors as many
    ///   placements as the simulator holds for it.
    ///
    /// Every code word is checked once, where it is made
    /// ([`CodeWord::encode`]).
    fn check_invariants(&self) {
        let world = &self.world;
        for lane in &self.plane.lanes {
            let i = lane.index;
            let here = |owner: PeerId| world.shard_of_peer(owner) == i;
            lane.store.check_invariants();
            for (host, owner, archive) in lane.store.keys() {
                assert!(here(owner), "lane {i}: stores a block of {owner}");
                assert!(
                    lane.owners
                        .get(&(owner, archive))
                        .is_some_and(|oa| oa.slots.contains(&Some(host))),
                    "lane {i}: block {owner}/{archive}@{host} at rest without a mirrored slot"
                );
            }
            let mut in_flight = BTreeMap::new();
            for p in &lane.queue {
                let t = p.t;
                assert!(here(t.owner), "lane {i}: queues a transfer of {}", t.owner);
                if p.class != TransferClass::Restore {
                    *in_flight.entry((t.owner, t.archive)).or_insert(0) += 1;
                }
            }
            assert_eq!(in_flight, lane.in_flight, "lane {i}: in-flight counts");
            for r in &lane.retries {
                let owner = r.t.owner;
                assert!(here(owner), "lane {i}: retries a transfer of {owner}");
            }
            for (&(owner, archive), oa) in &lane.owners {
                assert!(here(owner), "lane {i}: mirrors an archive of {owner}");
                if oa.joined && !lane.has_in_flight(owner, archive) {
                    assert_eq!(
                        oa.hosts().count(),
                        world.archive_hosts(owner, archive).len(),
                        "lane {i}: {owner}/{archive} mirrors another placement count"
                    );
                }
            }
        }
    }
}

impl World for Fabric {
    fn round_start(&mut self, round: Round, rng: &mut SimRng) {
        #[cfg(any(test, debug_assertions))]
        if round.index() % 16 == 15 {
            self.check_invariants();
        }
        self.world.round_start(round, rng);
    }

    fn collect_actors(&mut self, round: Round, buf: &mut Vec<usize>) {
        self.world.collect_actors(round, buf);
    }

    fn activate(&mut self, round: Round, actor: usize, rng: &mut SimRng) {
        self.world.activate(round, actor, rng);
    }

    fn round_end(&mut self, round: Round, rng: &mut SimRng) {
        self.world.round_end(round, rng);
        let r = round.index();
        let audit_due = r.is_multiple_of(self.plane.shared.cfg.audit_interval);
        self.profile.rounds += 1;
        let mut clock = Instant::now();

        // Partition the round's events by owner shard; departures fan
        // out to every lane (any lane may hold bytes the departed peer
        // hosted). The log swaps through a recycled scratch buffer.
        let mut events = core::mem::take(&mut self.event_scratch);
        self.world.swap_event_buf(&mut events);
        let mut queued = 0usize;
        for event in events.drain(..) {
            match &event {
                WorldEvent::PeerDeparted { .. } => {
                    for lane in &mut self.plane.lanes {
                        lane.inbox.push(event.clone());
                        queued += 1;
                    }
                }
                WorldEvent::BlocksPlaced { owner, .. }
                | WorldEvent::BlockDropped { owner, .. }
                | WorldEvent::JoinCompleted { owner, .. }
                | WorldEvent::EpisodeStarted { owner, .. }
                | WorldEvent::EpisodeCompleted { owner, .. }
                | WorldEvent::ArchiveLost { owner, .. } => {
                    let shard = self.world.shard_of_peer(*owner);
                    self.plane.lanes[shard].inbox.push(event);
                    queued += 1;
                }
            }
        }
        self.event_scratch = events;

        // Replay through the simulator's width rule and worker pool. A
        // plain round is priced on its items: carried transfers stream
        // bytes every round even when no new events arrive, so they
        // count beside the events and the retries due. A sweep or a
        // flash-restore wave is the rule's full-width exception.
        let shared = &self.plane.shared;
        let sweep_due = audit_due
            || shared.scrub_due(r)
            || shared.challenge_due(r)
            || shared
                .schedule
                .as_ref()
                .is_some_and(|s| s.flash_restore == Some(r));
        let work = queued
            + self
                .plane
                .lanes
                .iter()
                .map(|l| l.queue.len() + l.retries.iter().filter(|x| x.due <= r).count())
                .sum::<usize>();
        self.profile.partition += lap(&mut clock);
        if work == 0 && !sweep_due {
            self.replay.rounds_skipped += 1;
            return;
        }
        let world = &self.world;
        let lanes = self.plane.lanes.len();
        let (policy, row) = if sweep_due {
            (world.exec().full_width(lanes), &mut self.replay.sweep)
        } else {
            let policy = world.exec().narrowed(REPLAY_ITEM_NS, lanes, work);
            (policy, &mut self.replay.plain)
        };
        *row += policy.dispatch(r * 16 + 15, &mut self.plane.lanes, |i, lane| {
            lane.run_round(shared, world, r);
            if audit_due {
                let clock = Instant::now();
                let range = world.shard_slot_range(i);
                lane.run_audit(shared, world, r, range);
                lane.profile.audit += clock.elapsed();
            }
        });
        self.profile.dispatch += lap(&mut clock);
        self.plane.merge_round();

        // Feed this round's integrity failures (challenge misses and
        // scrub detections) to the world's reputation ledger, in lane
        // order so the strike sequence — and therefore the quarantine
        // round of every host — is identical at any worker count.
        let mut suspects = core::mem::take(&mut self.suspect_scratch);
        for lane in &mut self.plane.lanes {
            suspects.append(&mut lane.suspects);
        }
        if !suspects.is_empty() {
            self.world.report_integrity_failures(r, &suspects);
            suspects.clear();
        }
        self.suspect_scratch = suspects;
        self.profile.merge += lap(&mut clock);
    }
}

/// Everything a fabric run produces.
#[derive(Debug, Clone)]
pub struct FabricReport {
    /// The simulator's own metrics (identical to a plain run of the
    /// same configuration — recording events does not perturb it).
    pub metrics: Metrics,
    /// Byte-plane counters.
    pub stats: FabricStats,
    /// The auditor's ledger.
    pub audit: AuditReport,
    /// Every data-loss event the auditor verified, in order.
    pub losses: Vec<LossRecord>,
    /// Rounds past the deadline for every completed restore transfer,
    /// in completion order (lane order within a round). Empty unless
    /// the scheduler ran restores. Feed to
    /// [`restore_percentiles`](crate::restore_percentiles) for the
    /// flash-restore congestion report.
    pub restore_durations: Vec<u64>,
    /// `(host, round)` for every host the world quarantined, in
    /// quarantine order.
    pub quarantined: Vec<(PeerId, u64)>,
    /// Free-rider hosts that intercepted at least one shipment
    /// (sorted) — the denominator of the detection-coverage gate: a
    /// rider nobody ever shipped to is undetectable and uninteresting.
    pub free_riders_targeted: Vec<PeerId>,
}

/// Builds and runs a fabric in one call.
///
/// # Errors
///
/// See [`Fabric::new`].
pub fn run_fabric(cfg: SimConfig, fabric_cfg: FabricConfig) -> Result<FabricReport, String> {
    Ok(Fabric::new(cfg, fabric_cfg)?.run())
}

/// Nearest-rank p50/p95/p99 of a restore-duration sample
/// ([`FabricReport::restore_durations`]); `None` when no restores
/// completed. Rounds past the deadline, so `0` means "met the
/// deadline".
pub fn restore_percentiles(durations: &[u64]) -> Option<(u64, u64, u64)> {
    if durations.is_empty() {
        return None;
    }
    let mut sorted = durations.to_vec();
    sorted.sort_unstable();
    let rank = |p: u64| {
        let idx = (p * sorted.len() as u64).div_ceil(100).max(1) as usize - 1;
        sorted[idx.min(sorted.len() - 1)]
    };
    Some((rank(50), rank(95), rank(99)))
}

#[cfg(test)]
mod tests {
    use peerback_core::MaintenancePolicy;

    use super::*;
    use crate::audit::Survivors;
    use crate::frame::oracle;

    /// The `combined_bytes` shape, small: every plane on, 2 KiB shards.
    fn all_planes(shards: usize) -> (SimConfig, FabricConfig) {
        let mut cfg = SimConfig::paper(256, 200, 42)
            .with_shards(shards)
            .with_quarantine_threshold(3);
        cfg.k = 8;
        cfg.m = 8;
        cfg.quota = 48;
        cfg.maintenance = MaintenancePolicy::Adaptive {
            base: 12,
            floor_margin: 1,
            step: 1,
        };
        let fabric = FabricConfig {
            payload_bytes: 16384,
            faults: FaultProfile::uniform(0.05),
            audit_interval: 8,
            audit_sample_period: 4,
            scrub_interval: 32,
            schedule: Some(ScheduleConfig {
                link_cap: Some(8192),
                ..ScheduleConfig::default()
            }),
            adversary: AdversaryConfig {
                free_rider_fraction: 0.05,
                rot_fraction: 0.03,
                challenge_interval: 8,
                challenge_sample_period: 2,
            },
        };
        (cfg, fabric)
    }

    /// Stats with every field distinct and non-zero. Exhaustive, so a
    /// new field does not compile until it is listed here.
    fn distinct_stats() -> FabricStats {
        FabricStats {
            transfers_attempted: 1,
            transfers_delivered: 2,
            transfers_corrupted: 3,
            transfers_truncated: 4,
            transfers_flapped: 5,
            duplicate_frames: 6,
            bitrot_events: 7,
            bytes_shipped: 8,
            upload_secs: 9.5,
            download_secs: 10.5,
            joins: 11,
            episodes: 12,
            episode_refreshes: 13,
            repair_decodes: 14,
            repair_decode_fallbacks: 15,
            losses_observed: 16,
            transfers_retried: 17,
            retry_deliveries: 18,
            retries_abandoned: 19,
            scrub_checked: 20,
            scrub_detected: 21,
            scrub_repaired: 22,
            scrub_obsolete: 23,
            scrub_abandoned: 24,
            transfers_queued: 25,
            transfers_carried: 26,
            transfers_cancelled: 27,
            flash_restores: 28,
            flash_restore_failures: 29,
            adversary_drops: 30,
            adversary_corruptions: 31,
            challenges_issued: 32,
            challenge_failures: 33,
            escalated_transfer_rounds: 34,
        }
    }

    #[test]
    fn stats_accumulate_carries_every_field() {
        let stats = distinct_stats();
        let mut total = FabricStats::default();
        total.accumulate(&stats);
        assert_eq!(total, stats);
    }

    #[test]
    fn output_absorb_carries_every_field_and_caps_the_notes() {
        let notes = |from: usize| (from..from + 10).map(|i| format!("note {i}")).collect();
        // Exhaustive literals: a new field does not compile until it is
        // listed here.
        let lane = |first_note| Output {
            stats: distinct_stats(),
            audit: AuditReport {
                checks: 41,
                consistent: 42,
                fault_induced_losses: 43,
                mismatches: 44,
                skipped_in_flight: 45,
                decode_attempts: 46,
                decode_successes: 47,
                notes: notes(first_note),
            },
            losses: vec![LossRecord {
                round: 51,
                owner: 52,
                archive: 53,
                intact_shards: 54,
                k: 55,
            }],
            restore_durations: vec![61, 62],
            riders_hit: BTreeSet::from([71, 72]),
        };
        let mut merged = Output::default();
        let mut first = lane(0);
        merged.absorb(&mut first);
        assert_eq!(merged, lane(0));
        assert_eq!(first, Output::default(), "the lane is left empty");

        // A second lane adds its counters, appends its series after the
        // first lane's, and fills the notes only up to the cap.
        let mut second = lane(10);
        second.riders_hit = BTreeSet::from([72, 73]);
        merged.absorb(&mut second);
        assert_eq!(second, Output::default());
        let mut stats = distinct_stats();
        stats.accumulate(&distinct_stats());
        assert_eq!(merged.stats, stats);
        let audit = &merged.audit;
        let counters = [
            audit.checks,
            audit.consistent,
            audit.fault_induced_losses,
            audit.mismatches,
            audit.skipped_in_flight,
            audit.decode_attempts,
            audit.decode_successes,
        ];
        assert_eq!(counters, [82, 84, 86, 88, 90, 92, 94]);
        let kept: Vec<String> = notes(0).into_iter().chain(notes(10)).collect();
        assert_eq!(audit.notes, kept[..AuditReport::MAX_NOTES]);
        assert_eq!(merged.losses, [lane(0).losses, lane(0).losses].concat());
        assert_eq!(merged.restore_durations, [61, 62, 61, 62]);
        assert_eq!(merged.riders_hit, BTreeSet::from([71, 72, 73]));
    }

    #[test]
    fn every_slot_is_the_backups_block() {
        for (k, m) in [(1, 1), (3, 2), (4, 4), (8, 8), (16, 16)] {
            // 1001 and 16385 payload bytes serialise to 1033 and 16417
            // bytes, which pad the last data shard of every k > 1 here.
            for payload_bytes in [1, 1001, 16385] {
                let cfg = FabricConfig {
                    payload_bytes,
                    ..FabricConfig::default()
                };
                let shared = PlaneShared {
                    cfg,
                    faults: FaultPlane::new(cfg.faults),
                    codec: ReedSolomon::new(k, m).expect("valid geometry"),
                    schedule: None,
                    audit_seed: 0,
                    challenge_seed: 0,
                };
                let (seed, id) = (0x5eed ^ payload_bytes as u64, 7 << 8 | 3);
                let codeword = CodeWord::encode(&shared, seed, id);
                let archive = content_archive(seed, id, payload_bytes);
                let codec = ReedSolomon::new(k, m).expect("valid geometry");
                let partners: Vec<u64> = (0..(k + m) as u64).collect();
                let plan = BackupPipeline::new(codec, XorKeystream::new(seed), seed)
                    .backup(&archive, &partners)
                    .expect("n partners");
                let tag = format!("k {k}, m {m}, {payload_bytes} bytes");
                let shard_len = plan.blocks[0].bytes.len();
                assert_eq!(codeword.shard_len(), shard_len, "{tag}");
                let pads = (plan.descriptor.payload_len as usize) < k * shard_len;
                assert!(pads || k == 1 || payload_bytes == 1, "{tag}");
                // One parity buffer, recycled dirty across the slots.
                let mut parity = vec![0xA5; 3];
                for (slot, block) in plan.blocks.iter().enumerate() {
                    let shard = codeword.shard(&shared.codec, slot, &mut parity);
                    assert_eq!(shard, &block.bytes[..], "{tag}, slot {slot}");
                }
            }
        }
    }

    #[test]
    fn owners_hold_their_ciphertext_and_no_parity() {
        let (cfg, fcfg) = all_planes(1);
        let mut fabric = Fabric::new(cfg, fcfg).expect("valid configs");
        let mut engine = Engine::new(42);
        for _ in 0..16 {
            engine.step(&mut fabric);
        }
        let (mut archives, mut blocks, mut shard_len) = (0, 0, 0);
        for lane in &fabric.plane.lanes {
            for oa in lane.owners.values() {
                let cw = &oa.codeword;
                shard_len = cw.shard_len();
                // Exactly the k = 8 data shards, and no spare capacity.
                assert_eq!(cw.ciphertext.len(), 8 * shard_len);
                assert_eq!(cw.ciphertext.capacity(), 8 * shard_len);
                archives += 1;
            }
            blocks += lane.store.total_blocks();
        }
        assert!(archives > 0 && blocks > 0 && shard_len > 2048);
        let work = fabric.replay_work();
        assert_eq!(work.owner_bytes, (archives * 8 * shard_len) as u64);
        assert_eq!(work.stored_bytes, (blocks * shard_len) as u64);
    }

    #[test]
    fn replay_width_is_unobservable_in_the_report() {
        let run = |shards: usize, fuzz: Option<u64>| {
            let (cfg, fcfg) = all_planes(shards);
            let mut fabric = Fabric::new(cfg, fcfg).expect("valid configs");
            fabric.world.set_exec_fuzz(fuzz);
            fabric.run_with_telemetry()
        };
        let (base, base_work, profile) = run(1, None);
        // Every lane stage and driver row ran, once per round.
        assert_eq!(profile.rounds, 200);
        for (row, secs) in profile.rows() {
            assert!(secs > 0.0, "{row} never timed: {profile:?}");
        }
        // The plain rounds' row carries what their pricing reads.
        let plain = base_work.plain;
        assert!(plain.items > 0 && !plain.busy.is_zero(), "{plain:?}");
        for (shards, fuzz) in [(2, None), (3, None), (1, Some(0x1a7e))] {
            let (report, work, _) = run(shards, fuzz);
            let tag = format!("{shards} workers, fuzz {fuzz:?}");
            assert_eq!(report.metrics, base.metrics, "{tag}");
            assert_eq!(report.stats, base.stats, "{tag}");
            assert_eq!(report.audit, base.audit, "{tag}");
            assert_eq!(report.losses, base.losses);
            assert_eq!(report.quarantined, base.quarantined);
            assert_eq!(report.restore_durations, base.restore_durations);
            assert_eq!(report.free_riders_targeted, base.free_riders_targeted);
            // Not vacuous: the rule sent rounds both ways, and more of
            // them wide than the 25 audit rounds alone.
            let (plain, sweep) = (work.plain, work.sweep);
            assert!(plain.inline + sweep.inline > 0, "{work:?}");
            assert!(shards == 1 || plain.wide + sweep.wide > 200 / 8, "{work:?}");
            assert_eq!(work.decodes, report.audit.decode_attempts);
            // Every restore gathers at most k blocks and stops there,
            // so each successful decode gathered exactly k = 8.
            let successes = report.audit.decode_successes;
            assert!(successes > 0, "{:?}", report.audit);
            assert!(work.survivor_blocks_gathered >= successes * 8, "{work:?}");
        }
    }

    #[test]
    fn block_sums_count_every_pass_over_a_block() {
        // Nothing damaged, refused or dropped in flight: every shipment
        // is the sender's seal plus one receiver sum, every challenged
        // block is at rest, and every gather reads only what it keeps.
        let (cfg, mut fcfg) = all_planes(1);
        fcfg.faults = FaultProfile::NONE;
        fcfg.adversary.free_rider_fraction = 0.0;
        fcfg.adversary.rot_fraction = 0.0;
        let (report, work, _) = Fabric::new(cfg, fcfg).unwrap().run_with_telemetry();
        let (stats, sums) = (report.stats, work.block_sums);
        assert!(stats.transfers_attempted > 0 && stats.challenges_issued > 0);
        assert_eq!(sums.shipment, 2 * stats.transfers_attempted, "{sums:?}");
        assert_eq!(sums.scrub, stats.scrub_checked, "{sums:?}");
        assert_eq!(sums.challenge, stats.challenges_issued, "{sums:?}");
        assert_eq!(sums.gather, work.survivor_blocks_gathered, "{sums:?}");
        // Some decodes needed an inversion; the rest read only data
        // shards or found their plan cached.
        assert!(work.decode_plans_built > 0, "{work:?}");
        assert!(work.decode_plans_built < work.decodes, "{work:?}");
    }

    /// How a stored block of the verdict test differs from its shard.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Stored {
        Clean,
        /// A bit flipped at rest: the ingest sum no longer matches.
        Rotten,
        /// The shard's last byte — padding past `payload_len` — edited
        /// before it was framed, so the block is intact by its own sum.
        Padded,
    }

    #[test]
    fn the_ciphertext_verdict_is_the_full_restores() {
        // k = 4 with a 1001-byte payload: the 1033 serialised bytes
        // leave 3 bytes of padding at the end of data shard 3.
        let mut cfg = SimConfig::paper(48, 20, 7);
        cfg.k = 4;
        cfg.m = 4;
        cfg.quota = 24;
        cfg.maintenance = MaintenancePolicy::Reactive { threshold: 5 };
        let fcfg = FabricConfig {
            payload_bytes: 1001,
            ..FabricConfig::default()
        };
        let mut fabric = Fabric::new(cfg, fcfg).expect("valid configs");
        let mut engine = Engine::new(7);
        for _ in 0..20 {
            engine.step(&mut fabric);
        }
        let (world, shared) = (&fabric.world, &fabric.plane.shared);
        let online: Vec<PeerId> = (0..48).filter(|&p| world.peer_online(p)).collect();
        assert!(online.len() >= 8, "{online:?}");
        let offline = (0..48)
            .find(|&p| !world.peer_online(p))
            .expect("a peer offline");
        const OWNER: PeerId = 1 << 20;

        // A fresh lane holding OWNER's archive 0 as `(slot, host, how)`.
        let lane_with = |blocks: &[(usize, PeerId, Stored)]| {
            let mut lane = PlaneLane::new(0, 7);
            let oa = lane.owner_archive(shared, world, OWNER, 0);
            let mut frames = Vec::new();
            for &(slot, host, how) in blocks {
                oa.slots[slot] = Some(host);
                let mut shard = oa
                    .codeword
                    .shard(&shared.codec, slot, &mut Vec::new())
                    .to_vec();
                if how == Stored::Padded {
                    *shard.last_mut().expect("non-empty shard") ^= 0x5A;
                }
                frames.push((host, BlockFrame::encode(OWNER, 0, slot as u32, &shard)));
            }
            for (host, frame) in frames {
                lane.store.ingest(host, &frame).expect("an undamaged frame");
            }
            for &(_, host, how) in blocks {
                if how == Stored::Rotten {
                    lane.store.block_mut(host, OWNER, 0).expect("stored").bytes[0] ^= 1;
                }
            }
            lane
        };

        // The code word is the regenerated archive's, and it pads.
        let lane = lane_with(&[]);
        let codeword = &lane.owners[&(OWNER, 0)].codeword;
        let archive = shared.archive_of(codeword);
        let key = codeword.cipher_key;
        let codec = ReedSolomon::new(4, 4).expect("valid geometry");
        let plan = BackupPipeline::new(codec, XorKeystream::new(key), key)
            .backup(&archive, &[0, 1, 2, 3, 4, 5, 6, 7])
            .expect("eight partners");
        let mut parity = Vec::new();
        for (slot, block) in plan.blocks.iter().enumerate() {
            let shard = codeword.shard(&shared.codec, slot, &mut parity);
            assert_eq!(shard, &block.bytes[..], "slot {slot}");
        }
        let shard_len = codeword.shard_len() as u64;
        assert!(codeword.descriptor.payload_len < 4 * shard_len);

        let on = |i: usize| online[i];
        let clean = |slots: &[usize]| -> Vec<(usize, PeerId, Stored)> {
            slots.iter().map(|&s| (s, on(s), Stored::Clean)).collect()
        };
        let mut rotten = clean(&[0, 1, 2, 3, 4]);
        rotten[1].2 = Stored::Rotten;
        let mut one_offline = clean(&[0, 1, 2, 3]);
        one_offline[2].1 = offline;
        let mut padded = clean(&[0, 1, 2, 3]);
        padded[3].2 = Stored::Padded;
        // (shape, survivors, restores for an audit, for an episode).
        let shapes = [
            ("the k data shards", clean(&[0, 1, 2, 3]), true, true),
            ("k with parity", clean(&[1, 3, 5, 6]), true, true),
            ("k - 1", clean(&[0, 2, 7]), false, false),
            ("one of k + 1 rotten", rotten, true, true),
            ("one of k offline", one_offline, false, true),
            ("padding edited", padded, true, true),
            ("all n", clean(&[0, 1, 2, 3, 4, 5, 6, 7]), true, true),
        ];
        for (shape, blocks, audit_restores, episode_restores) in shapes {
            for (online_only, need, restores) in
                [(true, 4, audit_restores), (false, 0, episode_restores)]
            {
                let tag = format!("{shape}, online_only {online_only}");
                // The reference: the full restore over every intact
                // survivor, with a codec of its own.
                let lane = lane_with(&blocks);
                let oa = &lane.owners[&(OWNER, 0)];
                let all: Vec<(usize, &[u8])> = oa
                    .hosts()
                    .filter(|&(_, host)| !online_only || world.peer_online(host))
                    .filter_map(|(_, host)| lane.store.block(host, OWNER, 0))
                    .filter(|b| b.intact())
                    .map(|b| (b.shard_index as usize, b.bytes))
                    .collect();
                let attempted = all.len() >= need;
                let restored = attempted
                    && peerback_core::RestorePipeline::new(XorKeystream::new(key))
                        .restore(&oa.codeword.descriptor, &all)
                        .is_ok_and(|decoded| decoded == archive);
                assert_eq!(restored, restores, "{tag}");
                let expected = Survivors {
                    intact: if restored { 4 } else { all.len() as u32 },
                    download_bytes: all.iter().take(4).map(|(_, b)| b.len()).sum(),
                    restored,
                };
                for verdict in [Verdict::Ciphertext, Verdict::Full] {
                    let mut lane = lane_with(&blocks);
                    let cell = (OWNER, 0);
                    let found =
                        lane.restore_survivors(shared, world, cell, online_only, need, verdict);
                    assert_eq!(found, expected, "{tag}, {verdict:?}");
                    let audit = &lane.out.audit;
                    let counters = (audit.decode_attempts, audit.decode_successes);
                    let want = (u64::from(attempted), u64::from(restored));
                    assert_eq!(counters, want, "{tag}, {verdict:?}");
                }
            }
        }
    }

    #[test]
    fn every_sweep_round_replays_wide_whatever_its_interval() {
        // Intervals that are not multiples of one another: before the
        // width rule counted them, a scrub or challenge round that was
        // not also an audit round ran on one worker.
        let mut cfg = SimConfig::paper(256, 49, 7).with_shards(2);
        cfg.k = 4;
        cfg.m = 4;
        cfg.quota = 24;
        cfg.maintenance = MaintenancePolicy::Reactive { threshold: 5 };
        let fcfg = FabricConfig {
            audit_interval: 8,
            scrub_interval: 12,
            adversary: AdversaryConfig {
                challenge_interval: 6,
                ..AdversaryConfig::default()
            },
            ..FabricConfig::default()
        };
        let mut fabric = Fabric::new(cfg, fcfg).expect("valid configs");
        let mut engine = Engine::new(7);
        for r in 0..49u64 {
            let before = fabric.replay_work();
            engine.step(&mut fabric);
            let after = fabric.replay_work();
            if r % 8 == 0 || r % 12 == 0 || r % 6 == 0 {
                assert_eq!(after.sweep.wide, before.sweep.wide + 1, "round {r}");
            }
            let (plain, sweep) = (after.plain, after.sweep);
            assert_eq!(
                after.rounds_skipped + plain.inline + plain.wide + sweep.inline + sweep.wide,
                r + 1
            );
        }
        // The rule is not simply "always wide" at this scale.
        let work = fabric.replay_work();
        assert!(work.plain.inline + work.rounds_skipped > 0, "{work:?}");
    }

    #[test]
    fn block_sum_classifies_every_frame_and_block_as_fnv1a_did() {
        // The oracle switch is thread-local, so the FNV-1a arm replays
        // on one worker (nothing leaves this thread); the arm under the
        // real sum runs its lanes on the pool. Reports are identical at
        // every worker count, so any difference is the sum's.
        let (cfg, fcfg) = all_planes(1);
        let old = oracle::with_fnv(|| run_fabric(cfg, fcfg).expect("valid configs"));
        let (cfg, fcfg) = all_planes(2);
        let new = run_fabric(cfg, fcfg).expect("valid configs");

        assert_eq!(new.metrics, old.metrics);
        assert_eq!(new.stats, old.stats);
        assert_eq!(new.audit, old.audit);
        assert_eq!(new.losses, old.losses);
        assert_eq!(new.quarantined, old.quarantined);
        assert_eq!(new.restore_durations, old.restore_durations);
        assert_eq!(new.free_riders_targeted, old.free_riders_targeted);
        // Not vacuous: each kind of check caught real damage.
        let s = &new.stats;
        assert!(s.transfers_corrupted > 0, "{s:?}");
        assert!(s.scrub_detected > 0, "{s:?}");
        assert!(s.challenge_failures > 0, "{s:?}");
        assert!(new.audit.checks > 0 && !new.quarantined.is_empty());
    }
}
