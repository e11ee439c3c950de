//! The fabric driver: a [`BackupWorld`] whose placement decisions move
//! real bytes.
//!
//! [`Fabric`] implements [`peerback_sim::World`] by delegating every
//! phase to the wrapped simulator, then replaying the round's
//! [`WorldEvent`] stream against the data plane:
//!
//! * a **placement** encodes the owner's archive through
//!   [`BackupPipeline`] (once per content epoch, cached) and ships the
//!   assigned shard as a checksummed [`BlockFrame`](crate::frame::BlockFrame)
//!   across the [`FaultPlane`], accounting transfer bytes and seconds
//!   against a [`LinkModel`];
//! * a **drop** (host death, offline write-off, stale displacement)
//!   deletes the stored bytes;
//! * an **episode start** replays the paper's `k`-block decode as a
//!   real [`RestorePipeline`] reconstruction from the surviving shards;
//! * a **loss** triggers a verification decode that must fail with
//!   fewer than `k` intact shards;
//! * a **departure** recycles the slot: hosted bytes vanish and the
//!   replacement peer gets fresh archive content;
//! * a transfer the fault plane damaged is **retried** with bounded
//!   exponential backoff and seeded jitter, instead of staying missing
//!   until churn or repair replaces it.
//!
//! ## Sharded replay
//!
//! The plane is split into one [`PlaneLane`] per **logical owner
//! shard** — the same partition the simulator's executor keys on
//! ([`BackupWorld::shard_of_peer`]). Every event names its owner, so
//! the stream partitions cleanly: each lane owns the block stores,
//! code-word cache, counters, audit ledger and retry queue of its
//! owners, and the lanes replay their subsequences concurrently on the
//! same work-stealing pool as the simulator
//! ([`peerback_sim::WorkerPool::run_tasks`]). Departures fan out to
//! every lane (any lane may store bytes *hosted* by the departed peer).
//! Per-lane buffers merge in lane order once per round, and fault
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
    Archive, ArchiveDescriptor, BackupPipeline, BackupWorld, Metrics, PeerId, RestorePipeline,
    SimConfig, WorldEvent, XorKeystream,
};
use peerback_erasure::ReedSolomon;
use peerback_net::LinkModel;
use peerback_sim::{derive_seed, sim_rng, Engine, Round, SimRng, World};
use rand::{Rng, RngCore, SeedableRng};

use crate::audit::{AuditReport, LossRecord};
use crate::faults::{FaultKind, FaultPlane, FaultProfile};
use crate::frame::BlockFrame;
use crate::profile::{lap, ReplayProfile};
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

/// Maps a derived seed to a uniform draw in `[0, 1)` without touching
/// any RNG stream (role assignment and coverage sampling must be pure
/// functions, identical at every worker and shard count).
fn unit_draw(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

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

/// Below this many work items — queued events, transfers pending in
/// the lanes' scheduler queues, retries due — a round with no sweep due
/// replays on one worker: a wide dispatch costs ≈ 47 µs
/// (`sim.exec.dispatch.us`) and an item ≈ 1–2 µs, so fewer items than
/// this cannot pay for the barrier.
const PARALLEL_WORK_MIN: usize = 128;

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
pub(crate) struct ResolvedSchedule {
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

    /// Scrub detections neither repaired nor rendered moot by the end
    /// of the run — corruption the fabric knew about and left standing.
    /// Zero on a run that finished its repair backlog.
    pub fn scrub_unrepaired(&self) -> u64 {
        self.scrub_detected
            .saturating_sub(self.scrub_repaired + self.scrub_obsolete)
    }
}

/// The cached code word of one archive content epoch.
struct CodeWord {
    shards: Vec<Vec<u8>>,
    descriptor: ArchiveDescriptor,
    archive: Archive,
    cipher_key: u64,
}

/// Byte-side state of one owned archive.
pub(crate) struct OwnerArchive {
    codeword: CodeWord,
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

/// Immutable per-run parameters shared by every lane.
pub(crate) struct PlaneShared {
    pub(crate) k: usize,
    m: usize,
    payload_bytes: usize,
    pub(crate) faults_enabled: bool,
    faults: FaultPlane,
    master_seed: u64,
    /// The run's one codec: every encode and decode of the geometry
    /// shares it (a clone is two `Arc` bumps, no matrix rebuild).
    codec: ReedSolomon,
    /// Sampled-audit divisor (1 = full scan).
    audit_sample_period: u64,
    /// Seed of the audit coverage hash, derived once from the master
    /// seed.
    audit_seed: u64,
    /// Rounds between scrubbing sweeps (0 = off). A final-round sweep
    /// still pays off: its re-ships complete in the end-of-run retry
    /// drain.
    scrub_interval: u64,
    /// Bandwidth-aware scheduling, budgets resolved (`None` = instant
    /// shipping).
    pub(crate) schedule: Option<ResolvedSchedule>,
    /// Adversarial host behaviour (inert by default).
    adversary: AdversaryConfig,
    /// Whether any slot behaves adversarially — gates the expected-
    /// degradation paths exactly like `faults_enabled` does for the
    /// fault plane.
    pub(crate) adversary_enabled: bool,
    /// Seed of the challenge coverage hash.
    challenge_seed: u64,
    /// Leading observer slots (always honest).
    observer_count: usize,
}

impl PlaneShared {
    /// Whether the sampled auditor covers `(owner, archive)` at
    /// `round`. A pure function of the cell and the audit seed —
    /// independent of lane partition and worker count.
    pub(crate) fn audit_sampled(&self, round: u64, owner: PeerId, archive: u8) -> bool {
        if self.audit_sample_period <= 1 {
            return true;
        }
        let cell = derive_seed(
            derive_seed(self.audit_seed, round),
            ((owner as u64) << 8) | archive as u64,
        );
        cell.is_multiple_of(self.audit_sample_period)
    }

    /// Whether a scrubbing sweep runs at `round`.
    fn scrub_due(&self, round: u64) -> bool {
        self.scrub_interval > 0 && round.is_multiple_of(self.scrub_interval)
    }

    /// Whether a challenge sweep runs at `round`.
    fn challenge_due(&self, round: u64) -> bool {
        self.adversary.challenge_interval > 0
            && round.is_multiple_of(self.adversary.challenge_interval)
    }

    /// Whether the challenge sweep covers `(owner, archive)` at
    /// `round`. Pure, like [`PlaneShared::audit_sampled`].
    fn challenge_sampled(&self, round: u64, owner: PeerId, archive: u8) -> bool {
        if self.adversary.challenge_sample_period <= 1 {
            return true;
        }
        let cell = derive_seed(
            derive_seed(self.challenge_seed, round),
            ((owner as u64) << 8) | archive as u64,
        );
        cell.is_multiple_of(self.adversary.challenge_sample_period)
    }

    /// The adversary role of `slot` (pure; see
    /// [`AdversaryConfig::role_of`]).
    fn role_of(&self, slot: PeerId) -> AdversaryRole {
        self.adversary
            .role_of(self.master_seed, self.observer_count, slot)
    }
}

/// What [`PlaneLane::restore_survivors`] found in the stores.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Survivors {
    /// Intact blocks gathered.
    pub(crate) intact: u32,
    /// Bytes of the first `k` of them — the paper's k-block download.
    pub(crate) download_bytes: usize,
    /// Whether a decode ran and reproduced the archive bit for bit.
    pub(crate) restored: bool,
}

/// One shard transfer to execute: which block, to whom, which slot of
/// the code word, and how many attempts preceded it.
#[derive(Debug, Clone, Copy)]
struct ShipJob {
    owner: PeerId,
    archive: u8,
    host: PeerId,
    slot: usize,
    /// 0 for the original transfer; retries count up.
    attempt: u32,
    /// True when a scrubbing sweep originated the transfer (a delivery
    /// then counts as a scrub repair).
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

/// One queued transfer: bytes still to move, and everything needed to
/// execute the shipment (or restore decode) once the last byte clears.
#[derive(Debug, Clone, Copy)]
struct PendingTransfer {
    class: TransferClass,
    /// Round the transfer was enqueued — its deadline anchor: within a
    /// class, older transfers drain first.
    deadline: u64,
    /// Lane-local enqueue sequence, the final tiebreaker (total order,
    /// so the drain is deterministic at any worker count).
    seq: u64,
    owner: PeerId,
    archive: u8,
    /// Receiving host; the owner itself for restores.
    host: PeerId,
    attempt: u32,
    scrub: bool,
    bytes_left: u64,
}

/// A damaged placement waiting for its re-ship round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Retry {
    /// Round the retry becomes due.
    due: u64,
    owner: PeerId,
    archive: u8,
    host: PeerId,
    /// 1-based retry attempt (the original transfer was attempt 0) —
    /// except scrub repairs, which enter the queue at attempt 0 (the
    /// re-ship is a fresh transfer, not a retry of a failed one).
    attempt: u32,
    /// Scrub-repair provenance, carried across backoff re-enqueues.
    scrub: bool,
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
    pub(crate) stats: FabricStats,
    pub(crate) audit: AuditReport,
    pub(crate) losses: Vec<LossRecord>,
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
    data_scratch: Vec<Vec<u8>>,
    /// Blocks [`PlaneLane::restore_survivors`] gathered over the whole
    /// run (execution telemetry for [`ReplayWork`]; never merged into
    /// the report).
    survivors_gathered: u64,
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
    /// Recycled `(owner, archive, host)` worklist of one challenge
    /// sweep.
    challenge_scratch: Vec<(PeerId, u8, PeerId)>,
    /// Free-riding hosts that received at least one shipment — the
    /// denominator of the adversary probe's detection-coverage gate.
    riders_hit: BTreeSet<PeerId>,
    /// Rounds-to-completion of each finished flash-restore download,
    /// in completion order. Merged in lane order; percentiles come out
    /// in the report.
    restore_durations: Vec<u64>,
    /// Wall time of this lane's stages over the whole run (execution
    /// telemetry for [`ReplayProfile`]; never merged into the report).
    profile: ReplayProfile,
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
            stats: FabricStats::default(),
            audit: AuditReport::default(),
            losses: Vec::new(),
            divergent: BTreeSet::new(),
            retries: Vec::new(),
            due_scratch: Vec::new(),
            inbox: Vec::new(),
            data_scratch: Vec::new(),
            survivors_gathered: 0,
            scrub_scratch: Vec::new(),
            queue: Vec::new(),
            queue_scratch: Vec::new(),
            queue_seq: 0,
            in_flight: BTreeMap::new(),
            up_spent: BTreeMap::new(),
            down_spent: BTreeMap::new(),
            suspects: Vec::new(),
            challenge_scratch: Vec::new(),
            riders_hit: BTreeSet::new(),
            restore_durations: Vec::new(),
            profile: ReplayProfile::default(),
        }
    }

    /// Whether any shipment for `(owner, archive)` is still in the
    /// scheduler's queue.
    pub(crate) fn has_in_flight(&self, owner: PeerId, archive: u8) -> bool {
        self.in_flight.get(&(owner, archive)).copied().unwrap_or(0) > 0
    }

    /// Queues a transfer for the scheduler's drain.
    #[allow(clippy::too_many_arguments)] // plain data, mirrors ShipJob
    fn enqueue_transfer(
        &mut self,
        class: TransferClass,
        owner: PeerId,
        archive: u8,
        host: PeerId,
        attempt: u32,
        scrub: bool,
        bytes: u64,
        round: u64,
    ) {
        self.stats.transfers_queued += 1;
        if class != TransferClass::Restore {
            *self.in_flight.entry((owner, archive)).or_insert(0) += 1;
        }
        let seq = self.queue_seq;
        self.queue_seq += 1;
        self.queue.push(PendingTransfer {
            class,
            deadline: round,
            seq,
            owner,
            archive,
            host,
            attempt,
            scrub,
            bytes_left: bytes.max(1),
        });
    }

    /// Wire length of one shard frame of `(owner, archive)` (the unit
    /// the scheduler budgets in). The archive must be mirrored.
    fn frame_bytes(&self, owner: PeerId, archive: u8) -> u64 {
        let oa = self.owners.get(&(owner, archive)).expect("slot mirrored");
        (oa.codeword.shards[0].len() + BlockFrame::OVERHEAD) as u64
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
        let cliff = shared.k as u32 + margin;
        let owners = &self.owners;
        let rank_of = |t: &PendingTransfer| -> u8 {
            if margin > 0 && t.class == TransferClass::Repair {
                let present = owners
                    .get(&(t.owner, t.archive))
                    .map_or(0, |oa| oa.hosts().count() as u32);
                if present < cliff {
                    return 0;
                }
            }
            1 + t.class as u8
        };
        if margin > 0 {
            self.stats.escalated_transfer_rounds +=
                self.queue.iter().filter(|t| rank_of(t) == 0).count() as u64;
        }
        self.queue
            .sort_unstable_by_key(|t| (rank_of(t), t.deadline, t.seq));
        self.up_spent.clear();
        self.down_spent.clear();
        let mut pending = core::mem::take(&mut self.queue);
        let mut kept = core::mem::take(&mut self.queue_scratch);
        debug_assert!(kept.is_empty(), "queue scratch returned dirty");
        for mut t in pending.drain(..) {
            let (budget, spent) = if t.class == TransferClass::Restore {
                (
                    sched.down_budget,
                    self.down_spent.entry(t.owner).or_insert(0),
                )
            } else {
                (sched.up_budget, self.up_spent.entry(t.owner).or_insert(0))
            };
            let send = budget.saturating_sub(*spent).min(t.bytes_left);
            *spent += send;
            t.bytes_left -= send;
            if t.bytes_left > 0 {
                self.stats.transfers_carried += 1;
                kept.push(t);
            } else {
                self.complete_transfer(shared, world, t, round);
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
        t: PendingTransfer,
        round: u64,
    ) {
        if t.class == TransferClass::Restore {
            self.stats.flash_restores += 1;
            // `deadline` is the enqueue round: the difference is the
            // user-visible rounds-to-restore this percentile series
            // reports on.
            self.restore_durations.push(round - t.deadline);
            let found = self.restore_survivors(shared, world, t.owner, t.archive, true, 0);
            self.stats.download_secs += LINK.download_secs(found.download_bytes as f64);
            if !found.restored {
                self.stats.flash_restore_failures += 1;
            }
            return;
        }
        if let Some(count) = self.in_flight.get_mut(&(t.owner, t.archive)) {
            *count -= 1;
            if *count == 0 {
                self.in_flight.remove(&(t.owner, t.archive));
            }
        }
        // The placement may have been dropped, displaced, or refilled
        // while the bytes were streaming; re-locate the slot by host,
        // exactly like the retry path does. A cancelled scrub re-ship
        // is moot, as it is on that path.
        let slot = self
            .owners
            .get(&(t.owner, t.archive))
            .and_then(|oa| oa.slots.iter().position(|&s| s == Some(t.host)));
        let slot = match slot {
            Some(slot) if self.store.block(t.host, t.owner, t.archive).is_none() => slot,
            _ => {
                self.stats.transfers_cancelled += 1;
                self.stats.scrub_obsolete += u64::from(t.scrub);
                return;
            }
        };
        let job = ShipJob {
            owner: t.owner,
            archive: t.archive,
            host: t.host,
            slot,
            attempt: t.attempt,
            scrub: t.scrub,
        };
        let clock = Instant::now();
        self.ship_slot(shared, world, job, round);
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

    /// Gathers the archive's stored blocks as `(shard_index, bytes)`
    /// pairs borrowed in place from `store`, skipping non-intact
    /// (rotten) ones. `online_only` restricts to hosts currently online
    /// per the simulator.
    fn surviving_blocks<'s>(
        oa: &OwnerArchive,
        store: &'s BlockStore,
        world: &BackupWorld,
        owner: PeerId,
        archive: u8,
        online_only: bool,
    ) -> Vec<(usize, &'s [u8])> {
        oa.hosts()
            .filter(|&(_, host)| !online_only || world.peer_online(host))
            .filter_map(|(_, host)| store.block(host, owner, archive))
            .filter(|b| b.intact())
            .map(|b| (b.shard_index as usize, b.bytes))
            .collect()
    }

    /// Gathers the surviving blocks of `(owner, archive)` and, given at
    /// least `need` of them, attempts a real restore straight out of
    /// the store: through the run's shared codec into recycled
    /// data-shard scratch — no copy of the inputs, no per-decode matrix
    /// rebuild, no fresh output buffers.
    pub(crate) fn restore_survivors(
        &mut self,
        shared: &PlaneShared,
        world: &BackupWorld,
        owner: PeerId,
        archive: u8,
        online_only: bool,
        need: usize,
    ) -> Survivors {
        let mut found = Survivors::default();
        let Some(oa) = self.owners.get(&(owner, archive)) else {
            return found;
        };
        let clock = Instant::now();
        let blocks = Self::surviving_blocks(oa, &self.store, world, owner, archive, online_only);
        self.survivors_gathered += blocks.len() as u64;
        found.intact = blocks.len() as u32;
        found.download_bytes = blocks.iter().take(shared.k).map(|(_, b)| b.len()).sum();
        if blocks.len() >= need {
            self.audit.decode_attempts += 1;
            let restore = RestorePipeline::new(XorKeystream::new(oa.codeword.cipher_key));
            let (descriptor, scratch) = (&oa.codeword.descriptor, &mut self.data_scratch);
            let decoded = restore.restore_with(&shared.codec, descriptor, &blocks, scratch);
            found.restored = decoded.is_ok_and(|decoded| decoded == oa.codeword.archive);
            self.audit.decode_successes += u64::from(found.restored);
        }
        self.profile.decode += clock.elapsed();
        found
    }

    pub(crate) fn note(&mut self, message: String) {
        self.audit.mismatches += 1;
        if self.audit.notes.len() < AuditReport::MAX_NOTES {
            self.audit.notes.push(message);
        }
    }

    /// Builds (or fetches) the byte-side state for an owned archive.
    fn owner_archive(
        &mut self,
        shared: &PlaneShared,
        owner: PeerId,
        archive: u8,
    ) -> &mut OwnerArchive {
        let epoch = self.epochs.get(&owner).copied().unwrap_or(0);
        let (k, m, payload_bytes, master_seed) =
            (shared.k, shared.m, shared.payload_bytes, shared.master_seed);
        let codec = shared.codec.clone();
        self.owners.entry((owner, archive)).or_insert_with(|| {
            let slot_seed = derive_seed(master_seed, CONTENT_STREAM ^ owner as u64);
            let content_seed = derive_seed(slot_seed, ((epoch as u64) << 8) | archive as u64);
            let mut content_rng = SimRng::seed_from_u64(content_seed);
            let mut payload = vec![0u8; payload_bytes.max(1)];
            content_rng.fill_bytes(&mut payload);
            let archive_id = ((owner as u64) << 8) | archive as u64;
            let arch = Archive::from_entries(
                archive_id,
                false,
                vec![Entry {
                    name: "payload".into(),
                    data: payload.into(),
                }],
            );
            let pipeline =
                BackupPipeline::new(codec, XorKeystream::new(content_seed), content_seed);
            let placeholder_partners: Vec<u64> = (0..(k + m) as u64).collect();
            let plan = pipeline
                .backup(&arch, &placeholder_partners)
                .expect("partner count matches geometry");
            OwnerArchive {
                codeword: CodeWord {
                    shards: plan.blocks.into_iter().map(|b| b.bytes).collect(),
                    descriptor: plan.descriptor,
                    archive: arch,
                    cipher_key: content_seed,
                },
                slots: vec![None; k + m],
                joined: false,
            }
        })
    }

    /// Executes one shard transfer through the fault plane. A damaged
    /// transfer with budget left re-enqueues itself with exponential
    /// backoff and seeded jitter.
    fn ship_slot(&mut self, shared: &PlaneShared, world: &BackupWorld, job: ShipJob, round: u64) {
        let ShipJob {
            owner,
            archive,
            host,
            slot,
            attempt,
            scrub,
        } = job;
        let oa = self.owners.get(&(owner, archive)).expect("slot mirrored");
        let mut bytes = BlockFrame::encode(owner, archive, slot as u32, &oa.codeword.shards[slot]);
        let frame_len = bytes.len();
        self.stats.transfers_attempted += 1;
        if attempt > 0 {
            self.stats.transfers_retried += 1;
        }
        self.stats.bytes_shipped += frame_len as u64;
        self.stats.upload_secs += LINK.upload_secs(frame_len as f64);

        // A free-riding host acks the transfer and drops the bytes: the
        // sender has paid the link and believes the placement stands —
        // no retry fires, because nothing looked wrong. Only the
        // challenge sweep, scrubbing and the auditor can surface the
        // hole; the simulator's placement map diverges from byte truth
        // by design (expected degradation, like injected faults).
        if shared.role_of(host) == AdversaryRole::FreeRider {
            self.stats.adversary_drops += 1;
            self.riders_hit.insert(host);
            return;
        }

        let mut rng = self.transfer_rng();
        let availability = world.peer_availability(host);
        let transit = shared.faults.transit(&mut rng, &mut bytes, availability);
        match self.store.ingest(host, &bytes) {
            Ok(()) => {
                if attempt > 0 {
                    self.stats.retry_deliveries += 1;
                }
                if scrub {
                    self.stats.scrub_repaired += 1;
                }
                self.stats.transfers_delivered += 1;
                if let Some(block) = self.store.block_mut(host, owner, archive) {
                    if let Some((byte, bit)) = shared.faults.bitrot(&mut rng, block.bytes.len()) {
                        block.bytes[byte] ^= 1 << bit;
                        self.stats.bitrot_events += 1;
                    }
                }
                // A selectively honest host stores the frame, then
                // corrupts roughly half of what it accepts — bitrot
                // with intent, drawn from the same per-transfer stream
                // so the damage pattern is deterministic.
                if shared.role_of(host) == AdversaryRole::Rotter && rng.gen_range(0..2u32) == 1 {
                    if let Some(block) = self.store.block_mut(host, owner, archive) {
                        let byte = rng.gen_range(0..block.bytes.len());
                        let bit = rng.gen_range(0..8u32);
                        block.bytes[byte] ^= 1 << bit;
                        self.stats.adversary_corruptions += 1;
                    }
                }
            }
            Err(IngestError::Frame(_)) => {
                match transit.damage {
                    Some(FaultKind::Corruption) => self.stats.transfers_corrupted += 1,
                    Some(FaultKind::Truncation) => self.stats.transfers_truncated += 1,
                    Some(FaultKind::LinkFlap) => self.stats.transfers_flapped += 1,
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
                            owner,
                            archive,
                            host,
                            attempt: a,
                            scrub,
                        });
                    } else {
                        self.stats.retries_abandoned += 1;
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
            self.stats.duplicate_frames += 1;
            self.stats.bytes_shipped += frame_len as u64;
            self.stats.upload_secs += LINK.upload_secs(frame_len as f64);
            if matches!(self.store.ingest(host, &bytes), Ok(())) && transit.damage.is_none() {
                self.note(format!(
                    "duplicate frame for {owner}/{archive} accepted twice by {host}"
                ));
            }
        }
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
        let oa = self.owner_archive(shared, owner, archive);
        let Some(slot) = oa.slots.iter().position(Option::is_none) else {
            self.note(format!(
                "placement for {owner}/{archive} with no free shard slot"
            ));
            return;
        };
        oa.slots[slot] = Some(host);
        let joined = oa.joined;
        if shared.schedule.is_some() {
            // Scheduled path: the slot is mirrored now, the bytes move
            // when the link budget allows. A placement for an archive
            // that already joined is repair traffic; first-time uploads
            // are backups.
            let class = if joined {
                TransferClass::Repair
            } else {
                TransferClass::Backup
            };
            let bytes = self.frame_bytes(owner, archive);
            self.enqueue_transfer(class, owner, archive, host, 0, false, bytes, round);
            return;
        }
        let job = ShipJob {
            owner,
            archive,
            host,
            slot,
            attempt: 0,
            scrub: false,
        };
        self.ship_slot(shared, world, job, round);
    }

    /// Re-ships the retries due at `round`, in deterministic order.
    /// A retry whose placement vanished (or whose block arrived some
    /// other way) is abandoned.
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
        for r in due.drain(..) {
            let placement_live = self
                .owners
                .get(&(r.owner, r.archive))
                .and_then(|oa| oa.slots.iter().position(|&s| s == Some(r.host)));
            let Some(slot) = placement_live else {
                // Dropped/displaced since the failure (or the scrub).
                if r.scrub {
                    self.stats.scrub_obsolete += 1;
                } else {
                    self.stats.retries_abandoned += 1;
                }
                continue;
            };
            if self.store.block(r.host, r.owner, r.archive).is_some() {
                // A fresh placement already delivered bytes.
                if r.scrub {
                    self.stats.scrub_obsolete += 1;
                } else {
                    self.stats.retries_abandoned += 1;
                }
                continue;
            }
            if shared.schedule.is_some() {
                // Re-ships compete for the link like everything else,
                // at repair priority, keeping their attempt budget and
                // scrub provenance.
                let bytes = self.frame_bytes(r.owner, r.archive);
                self.enqueue_transfer(
                    TransferClass::Repair,
                    r.owner,
                    r.archive,
                    r.host,
                    r.attempt,
                    r.scrub,
                    bytes,
                    round,
                );
                continue;
            }
            let job = ShipJob {
                owner: r.owner,
                archive: r.archive,
                host: r.host,
                slot,
                attempt: r.attempt,
                scrub: r.scrub,
            };
            self.ship_slot(shared, world, job, round);
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
        self.stats.episodes += 1;
        if refresh {
            self.stats.episode_refreshes += 1;
        }
        // The paper's k-block download, replayed for real: reconstruct
        // the archive from the shards that actually survive on disk.
        let found = self.restore_survivors(shared, world, owner, archive, false, 0);
        self.stats.download_secs += LINK.download_secs(found.download_bytes as f64);
        if found.restored {
            self.stats.repair_decodes += 1;
        } else {
            // Fewer than k intact shards survive (possible only under
            // fault injection): the owner re-encodes from its local
            // copy, exactly like the paper's loss-and-rejoin path.
            self.stats.repair_decode_fallbacks += 1;
            // With the scheduler on, an episode can legitimately start
            // while earlier placements are still streaming — the local
            // fallback is bandwidth, not corruption. Adversarial hosts
            // make the fallback expected too, exactly like faults.
            if !shared.faults_enabled
                && !shared.adversary_enabled
                && !self.has_in_flight(owner, archive)
            {
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
        self.stats.losses_observed += 1;
        // Replay the failing restore with the blocks present at loss
        // time (the event fires before the survivors are dropped).
        let found = self.restore_survivors(shared, world, owner, archive, false, 0);
        let intact = found.intact;
        if found.restored {
            self.note(format!(
                "simulator lost {owner}/{archive} but bytes decoded from {intact} shards"
            ));
        }
        if intact >= shared.k as u32 {
            self.note(format!(
                "loss of {owner}/{archive} with {intact} intact shards >= k"
            ));
        }
        self.losses.push(LossRecord {
            round,
            owner,
            archive,
            intact_shards: intact,
            k: shared.k as u32,
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
        self.stats.scrub_checked += self.store.collect_rotten(&mut rotten) as u64;
        for &(host, owner, archive) in &rotten {
            self.store.drop_block(host, owner, archive);
            self.stats.scrub_detected += 1;
            // A scrub detection is an integrity failure attributable to
            // the storing host; it feeds the same reputation ledger the
            // challenge sweep does (inert while the world's quarantine
            // threshold is 0).
            self.suspects.push(host);
            self.retries.push(Retry {
                due: round + 1,
                owner,
                archive,
                host,
                attempt: 0,
                scrub: true,
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
                    self.stats.joins += 1;
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
                probes.push((owner, archive, host));
            }
        }
        for &(owner, archive, host) in &probes {
            if self
                .retries
                .iter()
                .any(|r| r.owner == owner && r.archive == archive && r.host == host)
            {
                continue; // known damage, re-ship already scheduled
            }
            self.stats.challenges_issued += 1;
            let intact = self
                .store
                .block(host, owner, archive)
                .is_some_and(|b| b.intact());
            if !intact {
                self.stats.challenge_failures += 1;
                self.suspects.push(host);
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
            let bytes = shared.k as u64 * self.frame_bytes(owner, archive);
            self.enqueue_transfer(
                TransferClass::Restore,
                owner,
                archive,
                owner,
                0,
                false,
                bytes,
                round,
            );
        }
    }
}

/// The sharded data plane: one lane per logical owner shard plus the
/// merged report state.
pub(crate) struct Plane {
    pub(crate) shared: PlaneShared,
    pub(crate) lanes: Vec<PlaneLane>,
    /// Counters merged from the lanes, in lane order, once per round.
    pub(crate) stats: FabricStats,
    pub(crate) audit: AuditReport,
    pub(crate) losses: Vec<LossRecord>,
    /// Completed restore durations (rounds past each transfer's
    /// deadline), merged in lane order.
    pub(crate) restore_durations: Vec<u64>,
    /// Free-rider hosts that intercepted at least one shipment, union
    /// over lanes (the denominator of the detection-coverage gate).
    pub(crate) riders_hit: BTreeSet<PeerId>,
}

impl Plane {
    /// Folds every lane's round output into the merged report, in lane
    /// order (deterministic at any worker count; losses stay in
    /// chronological order because the merge happens every round).
    fn merge_round(&mut self) {
        for lane in &mut self.lanes {
            let stats = core::mem::take(&mut lane.stats);
            self.stats.accumulate(&stats);
            let audit = core::mem::take(&mut lane.audit);
            self.audit.checks += audit.checks;
            self.audit.consistent += audit.consistent;
            self.audit.fault_induced_losses += audit.fault_induced_losses;
            self.audit.mismatches += audit.mismatches;
            self.audit.skipped_in_flight += audit.skipped_in_flight;
            self.audit.decode_attempts += audit.decode_attempts;
            self.audit.decode_successes += audit.decode_successes;
            for note in audit.notes {
                if self.audit.notes.len() < AuditReport::MAX_NOTES {
                    self.audit.notes.push(note);
                }
            }
            self.losses.append(&mut lane.losses);
            self.restore_durations.append(&mut lane.restore_durations);
            if !lane.riders_hit.is_empty() {
                self.riders_hit.append(&mut lane.riders_hit);
            }
        }
    }
}

/// A [`BackupWorld`] bound to a real data plane.
pub struct Fabric {
    world: BackupWorld,
    plane: Plane,
    audit_interval: u64,
    rounds: u64,
    /// Recycled buffer the world's per-round event log swaps through
    /// (zero steady-state allocation on the replay path).
    event_scratch: Vec<WorldEvent>,
    /// Recycled buffer the lanes' integrity suspects drain into each
    /// round (in lane order) before the world's reputation ledger sees
    /// them.
    suspect_scratch: Vec<PeerId>,
    /// How each round replayed: the round counters of [`ReplayWork`]
    /// (its other fields are filled in by [`Fabric::replay_work`]).
    replay: ReplayWork,
    /// The driver's rows of [`ReplayProfile`] (the lanes keep theirs;
    /// [`Fabric::replay_profile`] adds them up).
    profile: ReplayProfile,
    /// Test hook: replay the lanes sequentially in a seeded random order
    /// (a deterministic stand-in for an arbitrary steal interleaving).
    #[cfg(test)]
    replay_fuzz: Option<u64>,
}

/// Exact execution-side counters of the lane replay, read through
/// [`Fabric::replay_work`] beside the world's `redundancy_work()` /
/// `placement_work()`. Telemetry: the round counts depend on the worker
/// count, so none of this is part of [`FabricStats`] or
/// [`FabricReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplayWork {
    /// Rounds with nothing to replay and no sweep due.
    pub rounds_skipped: u64,
    /// Rounds replayed on the calling thread alone.
    pub rounds_inline: u64,
    /// Rounds replayed on two or more workers.
    pub rounds_wide: u64,
    /// Restore decodes attempted (audits, episode starts, loss
    /// verifications, flash restores).
    pub decodes: u64,
    /// Intact blocks gathered from the stores as decode inputs, each
    /// borrowed in place.
    pub survivor_blocks_gathered: u64,
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
        let rounds = cfg.rounds;
        let mut world = BackupWorld::new(cfg.clone());
        world.set_event_recording(true);
        let shared = PlaneShared {
            k: cfg.k as usize,
            m: cfg.m as usize,
            payload_bytes: fabric_cfg.payload_bytes,
            faults_enabled: fabric_cfg.faults.any_enabled(),
            faults: FaultPlane::new(fabric_cfg.faults),
            master_seed: seed,
            codec,
            audit_sample_period: fabric_cfg.audit_sample_period,
            audit_seed: derive_seed(seed, AUDIT_STREAM),
            scrub_interval: fabric_cfg.scrub_interval,
            schedule,
            adversary_enabled: fabric_cfg.adversary.any_hostile(),
            challenge_seed: derive_seed(seed, CHALLENGE_STREAM),
            observer_count: cfg.observers.len(),
            adversary: fabric_cfg.adversary,
        };
        let lanes = (0..world.logical_shards())
            .map(|i| PlaneLane::new(i, seed))
            .collect();
        let plane = Plane {
            shared,
            lanes,
            stats: FabricStats::default(),
            audit: AuditReport::default(),
            losses: Vec::new(),
            restore_durations: Vec::new(),
            riders_hit: BTreeSet::new(),
        };
        Ok(Fabric {
            world,
            plane,
            audit_interval: fabric_cfg.audit_interval,
            rounds,
            event_scratch: Vec::new(),
            suspect_scratch: Vec::new(),
            replay: ReplayWork::default(),
            profile: ReplayProfile::default(),
            #[cfg(test)]
            replay_fuzz: None,
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
        &self.plane.stats
    }

    /// Replay work so far (through the last completed round).
    pub fn replay_work(&self) -> ReplayWork {
        ReplayWork {
            decodes: self.plane.audit.decode_attempts,
            survivor_blocks_gathered: self.plane.lanes.iter().map(|l| l.survivors_gathered).sum(),
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
        let seed = self.world.config().seed;
        let rounds = self.rounds;
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
        let mut r = self.rounds;
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
        FabricReport {
            metrics: world.into_metrics(),
            stats: plane.stats,
            audit: plane.audit,
            losses: plane.losses,
            restore_durations: plane.restore_durations,
            quarantined,
            free_riders_targeted: plane.riders_hit.into_iter().collect(),
        }
    }
}

impl World for Fabric {
    fn round_start(&mut self, round: Round, rng: &mut SimRng) {
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
        let audit_due = r.is_multiple_of(self.audit_interval);
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

        // Replay on the simulator's worker pool, as wide as the round
        // has work for (scheduling only; results are identical either
        // way). Carried transfers stream bytes every round even when no
        // new events arrive, so they count beside the events and the
        // retries due; a sweep over everything at rest (audit, scrub,
        // challenge) or a flash-restore wave is wide by rule.
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
        let workers = if sweep_due || work >= PARALLEL_WORK_MIN {
            self.world.worker_threads()
        } else {
            1
        };
        if workers > 1 {
            self.replay.rounds_wide += 1;
        } else {
            self.replay.rounds_inline += 1;
        }
        let world = &self.world;
        let replay = |i: usize, lane: &mut PlaneLane| {
            lane.run_round(shared, world, r);
            if audit_due {
                let clock = Instant::now();
                let range = world.shard_slot_range(i);
                lane.run_audit(shared, world, r, range);
                lane.profile.audit += clock.elapsed();
            }
        };
        #[cfg(test)]
        let fuzz = self.replay_fuzz;
        #[cfg(not(test))]
        let fuzz: Option<u64> = None;
        match fuzz {
            Some(seed) => {
                peerback_sim::run_tasks_fuzzed(derive_seed(seed, r), &mut self.plane.lanes, replay)
            }
            // The replay rides the simulator's persistent pool: an epoch
            // bump on its barrier, never a thread spawn.
            None => world
                .worker_pool()
                .run_tasks(workers, true, &mut self.plane.lanes, replay),
        }
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

    #[test]
    fn replay_width_is_unobservable_in_the_report() {
        let run = |shards: usize, fuzz: Option<u64>| {
            let (cfg, fcfg) = all_planes(shards);
            let mut fabric = Fabric::new(cfg, fcfg).expect("valid configs");
            fabric.replay_fuzz = fuzz;
            fabric.run_with_telemetry()
        };
        let (base, _, profile) = run(1, None);
        // Every lane stage and driver row ran, once per round.
        assert_eq!(profile.rounds, 200);
        for (row, secs) in profile.rows() {
            assert!(secs > 0.0, "{row} never timed: {profile:?}");
        }
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
            assert!(work.rounds_inline > 0, "{work:?}");
            assert!(shards == 1 || work.rounds_wide > 200 / 8, "{work:?}");
            assert_eq!(work.decodes, report.audit.decode_attempts);
            assert!(
                work.survivor_blocks_gathered >= work.decodes * 8,
                "{work:?}"
            );
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
                assert_eq!(after.rounds_wide, before.rounds_wide + 1, "round {r}");
            }
            assert_eq!(
                after.rounds_skipped + after.rounds_inline + after.rounds_wide,
                r + 1
            );
        }
        // The rule is not simply "always wide" at this scale.
        let work = fabric.replay_work();
        assert!(work.rounds_inline + work.rounds_skipped > 0, "{work:?}");
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
