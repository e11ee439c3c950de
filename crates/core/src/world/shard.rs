//! Sharding: the fixed logical partition of the peer table and the
//! per-shard state that makes intra-run parallelism deterministic.
//!
//! ## The determinism contract
//!
//! Same-seed runs must produce bit-identical [`Metrics`] and
//! [`WorldEvent`] streams at **any** `SimConfig::shards` value. The knob
//! therefore only chooses how many *worker threads* execute the round;
//! everything with semantic weight is keyed to a **logical** partition
//! that depends solely on the configured capacity:
//!
//! * The peer table is split into [`ShardLayout::count`] contiguous
//!   slot ranges (`L = clamp(capacity / 64, 1, 512)`: at least
//!   [`SLOTS_PER_SHARD`] slots per shard), so the partition and the
//!   per-shard RNG streams are fixed by the capacity alone.
//! * Each logical shard is one [`Shard`]: its own timing-wheel segment,
//!   online index, pending-activation queue, an RNG stream forked from
//!   the run seed + the shard's index ([`peerback_sim::derive_seed`]),
//!   and the round buffers its stages fill and drain.
//! * Within a round, each phase visits shards in index order and peers
//!   in slot order, so every shard stream sees a fixed draw sequence no
//!   matter how many threads raced through the parallel phases.
//!
//! ## The staged round
//!
//! [`BackupWorld`](super::BackupWorld) executes one round as the staged
//! pipeline [`super::exec`] documents stage by stage. The driver
//! thread runs the merges between stages and the small control steps
//! (failure-domain schedule, estimator refresh, applying
//! adaptive-redundancy decisions); every stage that touches per-shard
//! state is one dispatch of per-shard tasks on the persistent worker
//! pool:
//!
//! 1. **Spawn** (parallel, round 0 only): the whole population's
//!    slots are pushed in order, then each shard initialises its own,
//!    drawing from its own stream.
//! 2. **Local events + teardown hop 1** (parallel, [`ShardLane`]): each
//!    shard advances its wheel segment, sorts the due events by
//!    `(peer, kind)`, and handles *every* kind shard-locally. A death or
//!    offline timeout tears down its own slot and addresses the
//!    cross-shard half of the teardown as messages.
//! 3. **Deliver — teardown hop 2** (parallel by destination shard):
//!    each shard sorts its own inbox and applies the releases and drops
//!    addressed to it; a loss releases the survivors in one more
//!    release-only wave.
//! 4. **Proposals** (parallel): pending owners build acceptance-gated,
//!    ranked pools of host ids against the *frozen* post-teardown
//!    state, drawing from their shard's stream; each shard then stages
//!    its wave-A claims grouped by host shard.
//! 5. **Commit, two-phase** (parallel): host shards grant the claimed
//!    pool ranks against shard-local quota in global
//!    `(owner, archive, rank)` order, each grant recording its hosted
//!    entry in place; owner shards run the protocol step with exactly
//!    the granted hosts, read back from the host shards' grant logs;
//!    host shards sort and apply the releases of the partners those
//!    steps displaced.
//!
//! [`WorldEvent`]s are buffered per shard in every stage and merged
//! into the world's log in shard order, so the stream is independent of
//! how the tasks were scheduled.
//!
//! [`Metrics`]: crate::metrics::Metrics
//! [`WorldEvent`]: super::hooks::WorldEvent

use std::sync::atomic::AtomicU32;

use peerback_churn::SessionSampler;
use peerback_estimate::DeathRecord;
use peerback_sim::{derive_seed, BufPool, HierarchicalWheel, Round, SimRng};
use rand::SeedableRng;

use crate::age::AgeCategory;
use crate::config::SimConfig;
use crate::select::{Candidate, KeyedSample};

use super::events::Event;
use super::exec::{ClaimGroups, MetricsDelta, Msg};
use super::hooks::WorldEvent;
use super::peers::{ArchiveIdx, PeerId};
use super::table::PeerView;

/// Upper bound on logical shards (and therefore on useful worker
/// threads). A million-peer table at 64 slots per shard saturates
/// this, feeding hundreds of workers.
pub(in crate::world) const MAX_SHARDS: usize = 512;

/// Minimum peer slots per logical shard. Part of the determinism
/// contract: it fixes the partition and therefore every shard's RNG
/// stream, so changing it changes every seeded run.
pub(in crate::world) const SLOTS_PER_SHARD: usize = 64;

/// Sub-seed stream offset for shard RNGs, so shard streams never
/// collide with other derived streams of the same master seed.
const SHARD_STREAM_BASE: u64 = 0x5ad_0000;

/// Inner (one bucket per round) level of the per-shard hierarchical
/// timing wheel.
const SHARD_WHEEL_INNER: usize = 512;

/// Outer (one bucket per inner lap) level: the direct horizon is
/// `512 × 512 = 262,144` rounds ≈ 30 simulated years, so multi-year
/// lifetimes are touched at most twice instead of recirculating every
/// 2,048 rounds as on the old single-level wheel.
const SHARD_WHEEL_OUTER: usize = 512;

/// The fixed logical partition of the peer-slot space.
///
/// A pure function of the configured capacity — never of the worker
/// count — so that every `shards` setting sees the same partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(in crate::world) struct ShardLayout {
    /// Number of logical shards.
    pub(in crate::world) count: usize,
    /// Slots per shard (the last shard may be short).
    pub(in crate::world) shard_size: usize,
}

impl ShardLayout {
    /// Computes the layout for a peer-slot capacity at
    /// [`SLOTS_PER_SHARD`] minimum slots per shard.
    pub(in crate::world) fn for_capacity(capacity: usize) -> Self {
        let target = (capacity / SLOTS_PER_SHARD).clamp(1, MAX_SHARDS);
        let shard_size = capacity.div_ceil(target).max(1);
        // Re-derive the count from the rounded-up size so the last
        // shard is never empty (ceil twice can otherwise overshoot).
        ShardLayout {
            count: capacity.div_ceil(shard_size).max(1),
            shard_size,
        }
    }

    /// The logical shard owning slot `id`.
    #[inline]
    pub(in crate::world) fn shard_of(&self, id: PeerId) -> usize {
        (id as usize / self.shard_size).min(self.count - 1)
    }
}

/// One proposed partner-acquisition step, computed against frozen state
/// in the parallel proposal stage and applied by the two-phase commit.
#[derive(Debug)]
pub(in crate::world) struct Proposal {
    /// Owner of the archive needing work.
    pub(in crate::world) owner: PeerId,
    /// Archive index within the owner.
    pub(in crate::world) aidx: ArchiveIdx,
    /// What kind of protocol step the pool was built for.
    pub(in crate::world) kind: ActionKind,
    /// Partners needed when the pool was built (commit re-derives the
    /// same value; kept for the drift assertion).
    pub(in crate::world) d: u32,
    /// Whether the owner is an observer (observer placements are quota-
    /// exempt; carried so host shards need no cross-shard lookup).
    pub(in crate::world) owner_observer: bool,
    /// Ranked candidate pool: host ids, best first — all the commit
    /// needs of a candidate once it is ranked. The two-phase commit
    /// claims ranks `0..d` first and falls back to the ranks beyond `d`
    /// for denied claims, so earlier grants filling a candidate's quota
    /// degrade the pool instead of voiding the step.
    pub(in crate::world) pool: Vec<PeerId>,
    /// Wave-A claims the host shards denied; each earns one fallback
    /// rank in wave B. Host shards of the grant stage count into it
    /// concurrently — a sum, so its value is independent of their
    /// interleaving. `Relaxed` suffices: the count publishes no other
    /// data, and it is read only after the stage's dispatch returned.
    pub(in crate::world) wave_a_denied: AtomicU32,
}

/// The protocol step a [`Proposal`] belongs to. The commit phase
/// re-derives the trigger decision from live state (identical to the
/// frozen state for owner-local fields) and asserts it matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(in crate::world) enum ActionKind {
    /// Initial upload of one archive.
    Join,
    /// Threshold-triggered repair (reactive or adaptive policy).
    Threshold,
    /// Proactive top-up tick.
    Proactive,
}

/// Reusable per-worker scratch for pool building. Purely an execution
/// buffer: its contents never influence results, so one instance per
/// worker thread (not per logical shard) suffices. (The frozen flat
/// online list lives on the world itself — `BackupWorld::online_flat` —
/// and is shared read-only across workers.)
#[derive(Debug, Default)]
pub(in crate::world) struct Scratch {
    /// Generation-counted exclusion set (`mark[p] == tag` ⇒ excluded).
    pub(in crate::world) mark: Vec<u32>,
    /// Current generation tag.
    pub(in crate::world) tag: u32,
    /// The accepted sample of a keyed (`AgeBased` / `LearnedAge`) build,
    /// sorted once when the sample is complete. Empty between builds.
    pub(in crate::world) keyed: KeyedSample,
    /// The accepted sample of an unkeyed build, ranked through
    /// [`SelectionStrategy::choose`](crate::select::SelectionStrategy::choose).
    /// Empty between builds.
    pub(in crate::world) cands: Vec<Candidate>,
    /// Pool-building work done through this scratch since the driver
    /// last folded it into the world's tally (sums, so the fold order
    /// is immaterial; only the pool-building counters are ever set).
    pub(in crate::world) work: super::PlacementWork,
}

impl Scratch {
    /// Starts a new exclusion generation sized for `slots` peers and
    /// returns the fresh tag.
    pub(in crate::world) fn begin(&mut self, slots: usize) -> u32 {
        if self.mark.len() < slots {
            self.mark.resize(slots, 0);
        }
        self.tag = self.tag.wrapping_add(1);
        if self.tag == 0 {
            self.mark.iter_mut().for_each(|m| *m = 0);
            self.tag = 1;
        }
        self.tag
    }
}

/// Deterministic ordering rank for events due in the same round on the
/// same peer; see [`event_sort_key`].
fn kind_rank(event: &Event) -> u8 {
    match event {
        Event::Toggle { .. } => 0,
        Event::CatAdvance { .. } => 1,
        Event::ProactiveTick { .. } => 2,
        Event::Death { .. } => 3,
        Event::OfflineTimeout { .. } => 4,
        Event::Quarantine { .. } => 5,
    }
}

/// Total order on same-round events: by peer slot, then a fixed kind
/// rank, then the session sequence (several stale toggles or offline
/// timeouts can share a round). The global wheel used to fire events in
/// hash-bucket insertion order; a sorted order is what makes per-shard
/// firing independent of how slots were interleaved at schedule time.
pub(in crate::world) fn event_sort_key(event: &Event) -> (PeerId, u8, u32) {
    let (peer, seq) = match *event {
        Event::Death { peer, .. }
        | Event::CatAdvance { peer, .. }
        | Event::ProactiveTick { peer, .. }
        | Event::Quarantine { peer, .. } => (peer, 0),
        Event::Toggle { peer, seq, .. } => (peer, seq),
        Event::OfflineTimeout { peer, seq, .. } => (peer, seq),
    };
    (peer, kind_rank(event), seq)
}

/// One logical shard's own state: its wheel segment, online list,
/// pending queue, RNG stream and death observations, plus the round
/// buffers its stages fill and drain. The world holds one per logical
/// shard, in shard order; during a stage only the task that claimed a
/// shard mutates it. The round buffers are empty between rounds
/// (`check_invariants`) and keep their capacity for the next round
/// unless recycling is off ([`Shard::drop_round_buffers`]).
pub(in crate::world) struct Shard {
    /// This shard's timing-wheel segment (two-level: multi-year events
    /// stop recirculating).
    pub(in crate::world) wheel: HierarchicalWheel<Event>,
    /// Online peers of this shard (order is part of the semantics: pool
    /// sampling indexes into it).
    pub(in crate::world) online: Vec<PeerId>,
    /// Peers of this shard awaiting activation.
    pub(in crate::world) pending: Vec<PeerId>,
    /// This shard's RNG stream (forked from the run seed + the shard's
    /// index).
    pub(in crate::world) rng: SimRng,
    /// Completed-lifetime observations from this shard's deaths, drained
    /// into the global survival model in shard order after the
    /// local-events stage.
    pub(in crate::world) obs: Vec<DeathRecord>,
    /// Events emitted by this shard's handlers, appended to the world's
    /// log in shard order after every stage.
    pub(in crate::world) events: Vec<WorldEvent>,
    /// Cross-shard effects for the next message stage.
    pub(in crate::world) out: Vec<Msg>,
    /// Messages routed to this shard, in routing order; the stage sorts
    /// them by `Msg::sort_key` before applying.
    pub(in crate::world) inbox: Vec<Msg>,
    /// Peers that departed this round (slot recycled in place).
    pub(in crate::world) departed: Vec<PeerId>,
    /// This round's acting owners: the drained pending queue, online
    /// only, sorted.
    pub(in crate::world) actors: Vec<PeerId>,
    /// Proposals of this shard's actors, built in the proposal stage and
    /// consumed by the owner stage.
    pub(in crate::world) proposals: Vec<Proposal>,
    /// The current wave's claims of those proposals, grouped by host
    /// shard.
    pub(in crate::world) claims: ClaimGroups,
    /// The owner stage's verdict cursors: one per host shard and wave.
    pub(in crate::world) cursors: Vec<u32>,
    /// The owner stage's granted-hosts scratch.
    pub(in crate::world) hosts: Vec<PeerId>,
    /// Candidate-pool free list: pools cycle propose → commit → here.
    pub(in crate::world) pools: BufPool<PeerId>,
    /// Events this shard's wheel fired, and how many of them were stale.
    pub(in crate::world) fired: u64,
    pub(in crate::world) stale: u64,
    /// Test builds: each proposal's granted hosts per the straight-line
    /// reference exchange, which the owner stage checks against.
    #[cfg(test)]
    pub(in crate::world) expected_hosts: Vec<Vec<PeerId>>,
    /// Test builds: the offline timeouts the arming rule skipped, which
    /// the local-events stage asserts stale on their round.
    #[cfg(test)]
    pub(in crate::world) skipped: HierarchicalWheel<Event>,
    /// Test builds: arm every offline timeout on the wheel, as before
    /// the arming rule — the reference the rule is compared against.
    #[cfg(test)]
    pub(in crate::world) arm_every_timeout: bool,
}

impl Shard {
    /// Logical shard `index` of a run seeded with `seed`.
    pub(in crate::world) fn new(seed: u64, index: usize) -> Self {
        Shard {
            wheel: HierarchicalWheel::new(SHARD_WHEEL_INNER, SHARD_WHEEL_OUTER),
            online: Vec::new(),
            pending: Vec::new(),
            rng: SimRng::seed_from_u64(derive_seed(seed, SHARD_STREAM_BASE + index as u64)),
            obs: Vec::new(),
            events: Vec::new(),
            out: Vec::new(),
            inbox: Vec::new(),
            departed: Vec::new(),
            actors: Vec::new(),
            proposals: Vec::new(),
            claims: ClaimGroups::default(),
            cursors: Vec::new(),
            hosts: Vec::new(),
            pools: BufPool::new(),
            fired: 0,
            stale: 0,
            #[cfg(test)]
            expected_hosts: Vec::new(),
            #[cfg(test)]
            skipped: HierarchicalWheel::new(SHARD_WHEEL_INNER, 1),
            #[cfg(test)]
            arm_every_timeout: false,
        }
    }

    /// Test builds: files an offline timeout the arming rule skipped —
    /// on the wheel itself under `arm_every_timeout`, else on the side
    /// wheel that checks it fires stale.
    #[cfg(test)]
    pub(in crate::world) fn skip_timer(&mut self, due: Round, event: Event) {
        if self.arm_every_timeout {
            self.wheel.schedule(due, event);
        } else {
            self.skipped.schedule(due, event);
        }
    }

    /// Drops the capacity of every round buffer, so the next round
    /// starts from fresh vectors: what every round ends with while
    /// recycling is off.
    pub(in crate::world) fn drop_round_buffers(&mut self) {
        self.obs = Vec::new();
        self.events = Vec::new();
        self.out = Vec::new();
        self.inbox = Vec::new();
        self.departed = Vec::new();
        self.actors = Vec::new();
        self.proposals = Vec::new();
        self.claims = ClaimGroups::default();
        self.cursors = Vec::new();
        self.hosts = Vec::new();
    }
}

/// One shard's view for a stage that mutates it: the shard's columns of
/// the peer table, its chunk of the online-position table and the
/// [`Shard`] itself, plus what the stage reads shared and the counters
/// it merges back in shard order. Every mutating stage — ramp, local
/// events, deliver, the owner stage and apply — runs on these lanes
/// (`BackupWorld::with_shard_lanes`).
pub(in crate::world) struct ShardLane<'a> {
    /// This shard's window into the peer-table columns (covers zero
    /// slots before round 0 spawns the population). Carries the
    /// shard's base id.
    pub(in crate::world) peers: PeerView<'a>,
    /// This shard's slice of the global online-position table.
    pub(in crate::world) pos: &'a mut [u32],
    /// The shard's own state.
    pub(in crate::world) shard: &'a mut Shard,
    /// Whether the world records events.
    pub(in crate::world) events_on: bool,
    /// Whether a survival estimator is attached (strategy `LearnedAge`);
    /// gates the death-observation pushes so every other strategy pays
    /// nothing.
    pub(in crate::world) estimates_on: bool,
    /// Per-domain outage end rounds (empty when failure domains are
    /// off; `end > round` means the domain is down this round).
    pub(in crate::world) outages: &'a [u64],
    /// Domains whose outage starts this round (their online peers are
    /// forced offline before the wheel fires).
    pub(in crate::world) outage_starts: &'a [u16],
    /// Metric counters bumped by this shard's handlers.
    pub(in crate::world) delta: MetricsDelta,
    /// Census movement between age categories.
    pub(in crate::world) census_delta: [i64; AgeCategory::COUNT],
}

impl ShardLane<'_> {
    /// Shard-local entry to the shared online-index invariant.
    pub(in crate::world) fn set_online(&mut self, id: PeerId, online: bool) {
        let base = self.peers.base;
        self.peers
            .update_online(id, &mut self.shard.online, self.pos, base, online);
    }

    /// Shard-local entry to the shared pending-queue invariant.
    pub(in crate::world) fn enqueue(&mut self, id: PeerId) {
        self.peers.enqueue_pending(id, &mut self.shard.pending);
    }

    #[inline]
    pub(in crate::world) fn emit(&mut self, event: WorldEvent) {
        if self.events_on {
            self.shard.events.push(event);
        }
    }

    /// Emits one `BlocksPlaced` for the partners attached beyond index
    /// `before`.
    pub(in crate::world) fn emit_placements(
        &mut self,
        owner: PeerId,
        aidx: ArchiveIdx,
        before: usize,
    ) {
        if !self.events_on {
            return;
        }
        let partners = self.peers.partners(owner, aidx as usize);
        if partners.len() > before {
            let hosts = partners[before..].to_vec();
            self.shard.events.push(WorldEvent::BlocksPlaced {
                owner,
                archive: aidx,
                hosts,
            });
        }
    }

    /// Runs the shard-local half of the event phase for `round`: fires
    /// the wheel segment, sorts the due events, and handles every kind
    /// shard-locally. Deaths and offline timeouts tear down their own
    /// slot here (hop 1) and address the cross-shard half of the
    /// teardown as [`Msg`]s for the deliver stage (hop 2).
    pub(in crate::world) fn run_local_events(
        &mut self,
        round: u64,
        cfg: &SimConfig,
        samplers: &[SessionSampler],
        buf: &mut Vec<Event>,
    ) {
        // Regional outages starting this round disconnect their domains
        // first, so the due events below already see the outage state
        // (superseded toggles and timeouts fail their sequence check).
        if !self.outage_starts.is_empty() {
            self.force_domain_outages(round, cfg);
        }
        buf.clear();
        self.shard.wheel.advance(Round(round), |e| buf.push(e));
        buf.sort_unstable_by_key(event_sort_key);
        self.shard.fired += buf.len() as u64;
        for event in buf.drain(..) {
            if !self.is_live(&event) {
                self.shard.stale += 1;
                continue;
            }
            match event {
                Event::Toggle { peer, .. } => self.process_toggle(peer, round, cfg, samplers),
                Event::CatAdvance { peer, .. } => self.process_cat_advance(peer, round),
                Event::ProactiveTick { peer, .. } => self.process_proactive_tick(peer, round, cfg),
                Event::Death { peer, .. } => self.process_death_local(peer, round, cfg, samplers),
                Event::OfflineTimeout { peer, .. } => self.process_timeout_local(peer),
                Event::Quarantine { peer, .. } => self.process_quarantine_local(peer),
            }
        }
        // Every timer the arming rule skipped is due after the events
        // that could have made it live: it must find its run ended.
        #[cfg(test)]
        {
            self.shard.skipped.advance(Round(round), |e| buf.push(e));
            for event in buf.drain(..) {
                assert!(
                    !self.is_live(&event),
                    "a skipped offline timeout would have fired live: {event:?} at round {round}"
                );
            }
        }
    }

    /// Whether `event` still applies when it fires: the slot was not
    /// recycled since it was armed, a toggle or timeout's session run
    /// is still the current one (and a timeout's peer still offline),
    /// and a quarantine's host is still quarantined. A stale event is
    /// dropped.
    fn is_live(&self, event: &Event) -> bool {
        match *event {
            Event::Toggle { peer, epoch, seq } => {
                self.peers.epoch(peer) == epoch && self.peers.session_seq(peer) == seq
            }
            Event::OfflineTimeout { peer, epoch, seq } => {
                self.peers.epoch(peer) == epoch
                    && self.peers.session_seq(peer) == seq
                    && !self.peers.online(peer)
            }
            Event::Quarantine { peer, epoch } => {
                self.peers.epoch(peer) == epoch && self.peers.quarantined(peer)
            }
            Event::CatAdvance { peer, epoch }
            | Event::ProactiveTick { peer, epoch }
            | Event::Death { peer, epoch } => self.peers.epoch(peer) == epoch,
        }
    }

    /// The end round of the outage covering `id`'s domain, if one is
    /// active (`None` in domain-free runs — the slice is empty then).
    pub(in crate::world) fn outage_end(&self, id: PeerId, round: u64) -> Option<u64> {
        if self.outages.is_empty() {
            return None;
        }
        let end = self.outages[self.peers.domain(id) as usize];
        (end > round).then_some(end)
    }

    /// Disconnects every online peer of the domains whose outage starts
    /// this round: the open session is closed (time banked), the armed
    /// flip is superseded by the sequence bump, the return flip is
    /// scheduled for the outage's end, and the offline-timeout timer is
    /// armed — so a long outage writes the domain's hosted blocks off
    /// through the normal two-hop teardown.
    fn force_domain_outages(&mut self, round: u64, cfg: &SimConfig) {
        let base = self.peers.base;
        for i in 0..self.peers.slots() {
            let id = base + i as PeerId;
            let dom = self.peers.domain(id);
            if !self.outage_starts.contains(&dom)
                || !self.peers.online(id)
                || self.peers.observer(id).is_some()
            {
                continue;
            }
            self.delta.outage_disconnects += 1;
            let banked = round.saturating_sub(self.peers.last_transition(id));
            self.peers
                .set_online_accum(id, self.peers.online_accum(id) + banked);
            self.peers.bump_session_seq(id);
            self.peers.set_last_transition(id, round);
            self.set_online(id, false);
            let (epoch, seq) = (self.peers.epoch(id), self.peers.session_seq(id));
            let end = self.outages[dom as usize];
            self.shard.wheel.schedule(
                Round(end),
                Event::Toggle {
                    peer: id,
                    epoch,
                    seq,
                },
            );
            self.arm_offline_timeout(id, round, end - round, cfg);
        }
    }

    /// Session flip (§3.2 availability process). Strictly shard-local:
    /// the peer's own state, this shard's online index and wheel.
    fn process_toggle(
        &mut self,
        id: PeerId,
        round: u64,
        cfg: &SimConfig,
        samplers: &[SessionSampler],
    ) {
        let going_online = !self.peers.online(id);
        if going_online {
            if let Some(end) = self.outage_end(id, round) {
                // The domain is down: the reconnection is deferred to
                // the outage's end, same sequence (the flip is delayed,
                // not superseded). No draws — the outage schedule is a
                // pure function of the seed, so this stays identical at
                // every worker count.
                let (epoch, seq) = (self.peers.epoch(id), self.peers.session_seq(id));
                self.shard.wheel.schedule(
                    Round(end),
                    Event::Toggle {
                        peer: id,
                        epoch,
                        seq,
                    },
                );
                return;
            }
        }
        self.delta.session_toggles += 1;
        self.peers.bump_session_seq(id);
        if !going_online {
            // Closing an online session: bank it in the ledger.
            let banked = round.saturating_sub(self.peers.last_transition(id));
            self.peers
                .set_online_accum(id, self.peers.online_accum(id) + banked);
        }
        self.peers.set_last_transition(id, round);
        self.set_online(id, going_online);

        // Schedule the next transition. A permanently-online peer only
        // ever reaches this flip when an outage cut its session short;
        // it stays up for good again, so no further flip is armed.
        let (epoch, seq) = (self.peers.epoch(id), self.peers.session_seq(id));
        let sampler = samplers[self.peers.profile(id) as usize];
        if !(going_online && sampler.always_online()) {
            let dur = if going_online {
                sampler.online_duration(&mut self.shard.rng)
            } else {
                sampler.offline_duration(&mut self.shard.rng)
            };
            self.shard.wheel.schedule(
                Round(round + dur),
                Event::Toggle {
                    peer: id,
                    epoch,
                    seq,
                },
            );
            if !going_online {
                // The write-off timer for this offline run, armed only
                // when the run can outlast it.
                self.arm_offline_timeout(id, round, dur, cfg);
            }
        }

        if going_online {
            // A peer that reconnects resumes its own pending work.
            let threshold_policy = !matches!(
                cfg.maintenance,
                crate::config::MaintenancePolicy::Proactive { .. }
            );
            let needs_join = !self.peers.fully_joined(id);
            let threshold = self.peers.threshold(id) as u32;
            let needs_repair = (0..self.peers.archives_per_peer()).any(|a| {
                self.peers.repairing(id, a)
                    || (threshold_policy
                        && self.peers.joined(id, a)
                        && self.peers.present(id, a) < threshold)
            });
            if needs_join || needs_repair {
                self.enqueue(id);
            }
        }
    }

    /// Age-category boundary crossing: census delta + next boundary.
    fn process_cat_advance(&mut self, id: PeerId, round: u64) {
        debug_assert!(self.peers.observer(id).is_none());
        let age = self.peers.age_at(id, round);
        let (epoch, birth) = (self.peers.epoch(id), self.peers.birth(id));
        let new_cat = AgeCategory::of_age(age);
        let prev_cat = AgeCategory::of_age(age - 1);
        debug_assert_ne!(new_cat, prev_cat, "boundary event off by one");
        self.census_delta[prev_cat.index()] -= 1;
        self.census_delta[new_cat.index()] += 1;
        if let Some((_, next_age)) = new_cat.next_boundary() {
            self.shard.wheel.schedule(
                Round(birth + next_age),
                Event::CatAdvance { peer: id, epoch },
            );
        }
    }

    /// Proactive-maintenance tick: reschedule and wake the owner.
    fn process_proactive_tick(&mut self, id: PeerId, round: u64, cfg: &SimConfig) {
        if let crate::config::MaintenancePolicy::Proactive { tick_rounds } = cfg.maintenance {
            let epoch = self.peers.epoch(id);
            self.shard.wheel.schedule(
                Round(round + tick_rounds),
                Event::ProactiveTick { peer: id, epoch },
            );
            if self.peers.online(id) {
                self.enqueue(id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_a_pure_function_of_capacity() {
        let a = ShardLayout::for_capacity(25_000);
        let b = ShardLayout::for_capacity(25_000);
        assert_eq!(a, b);
        assert!(a.count <= MAX_SHARDS);
        assert_eq!(
            ShardLayout::for_capacity(4096).count,
            4096 / SLOTS_PER_SHARD
        );
    }

    #[test]
    fn small_capacities_collapse_to_one_shard() {
        for cap in [1, 2, 63, 64, 100] {
            let l = ShardLayout::for_capacity(cap);
            assert_eq!(l.count, 1, "capacity {cap}");
            assert!(l.shard_size >= cap);
        }
    }

    #[test]
    fn large_capacities_reach_past_the_old_64_shard_ceiling() {
        let l = ShardLayout::for_capacity(100_000);
        assert!(l.count > 64, "100k slots must split past 64 shards");
        assert_eq!(ShardLayout::for_capacity(1_000_000).count, MAX_SHARDS);
    }

    #[test]
    fn ranges_are_contiguous_and_cover_every_slot() {
        for cap in [65, 200, 1000, 4096, 100_000, 1_000_000] {
            let l = ShardLayout::for_capacity(cap);
            assert!(l.count >= 1 && l.count <= MAX_SHARDS);
            assert!(l.shard_size * l.count >= cap, "capacity {cap} uncovered");
            let mut prev = l.shard_of(0);
            assert_eq!(prev, 0);
            for id in 1..cap as PeerId {
                let s = l.shard_of(id);
                assert!(s == prev || s == prev + 1, "gap at slot {id}");
                prev = s;
            }
            assert_eq!(prev, l.count - 1, "last shard unused at {cap}");
        }
    }

    #[test]
    fn shard_of_is_monotone_in_id() {
        let l = ShardLayout::for_capacity(10_000);
        for id in 1..10_000u32 {
            assert!(l.shard_of(id) >= l.shard_of(id - 1));
        }
    }

    #[test]
    fn scratch_generation_survives_tag_wrap() {
        let mut s = Scratch::default();
        let t1 = s.begin(8);
        s.mark[3] = t1;
        s.tag = u32::MAX; // force the wrap on the next begin
        let t2 = s.begin(8);
        assert_eq!(t2, 1);
        assert!(s.mark.iter().all(|&m| m != t2), "stale mark leaked");
    }
}
