//! The simulated backup network: peers, partnerships, repair and loss.
//!
//! This module implements the protocol of §3.2 on top of the
//! `peerback-sim` engine. The design is *event-driven inside a
//! round-based shell*: the per-archive partner count (`present`, the
//! paper's `n − d`) changes only through three kinds of scheduled events
//! — true departures, availability transitions, and offline timeouts —
//! so a round costs O(events), not O(peers × partners).
//!
//! ## Protocol summary (ARCHITECTURE.md "The round" has the staged pipeline)
//!
//! * Blocks **disappear** when their host departs (known immediately,
//!   §4.1) or stays offline past the monitoring timeout (§2.2.3's
//!   "threshold period", default one day).
//! * An online owner whose `present < k'` starts a **repair episode**:
//!   one `k`-block download (decode) plus `d = n − present` block
//!   uploads to fresh online partners, acquired through the mutual
//!   acceptance test and the configured selection strategy. Episodes
//!   that cannot find enough partners stay open and continue next round.
//! * An archive is **lost** the instant `present < k`; the owner counts
//!   one loss and rebuilds from its local copy (a fresh join).
//!
//! ## Sharding and the staged round
//!
//! The peer table is partitioned into a fixed number of **logical
//! shards** (see `shard`); `SimConfig::shards` only sets how many
//! worker threads execute the parallel stages, and same-seed results
//! are bit-identical at every value. Each round runs as a pipeline of
//! parallel stages over a **persistent work-stealing worker pool**
//! (see `exec`): population ramp → shard-local events + teardown
//! hop 1 → message delivery (teardown hop 2) → frozen-state proposals →
//! the two-phase grant/apply commit. Stages are barrier epoch bumps on
//! the parked pool — a steady-state round spawns no threads — and every
//! per-round buffer is recycled through the round arena, so the hot
//! loop's heap traffic is (near) zero.
//!
//! ## Layout
//!
//! The module is split along the protocol's natural seams; this file
//! holds only the [`BackupWorld`] state container and the round driver
//! composing the pieces:
//!
//! * `peers` — the peer table: slots, epochs, archives, the online
//!   index, population spawning, and structural snapshots.
//! * `events` — the scheduled-event queue: event kinds, staleness
//!   filtering, and the two-hop departure / offline-timeout teardown.
//! * `partners` — partnership acquisition: the acceptance-gated
//!   candidate pool and the partner/hosted bookkeeping it feeds.
//! * `repair` — the repair-episode lifecycle: join, trigger, episode
//!   continuation across rounds, loss accounting, and the maintenance
//!   policies.
//! * `shard` — the logical partition, per-shard state, and the
//!   shard-local event handlers.
//! * `exec` — the staged executor: pool dispatch, the round arena,
//!   shard-addressed messages, and the two-phase parallel commit.
//! * `profile` — the round profile: accumulated wall time per stage.

mod events;
mod exec;
mod hooks;
mod partners;
mod peers;
mod profile;
mod redundancy;
mod repair;
mod shard;
mod table;

#[cfg(test)]
mod tests;

use std::time::Instant;

use peerback_churn::SessionSampler;
use peerback_sim::arena::retype_empty;
use peerback_sim::exec::lap;
use peerback_sim::{derive_seed, unit_draw, ExecPolicy, Round, SimRng, World};

use crate::age::AgeCategory;
use crate::config::SimConfig;
use crate::metrics::{CategorySample, Metrics, ObserverSeries};

use events::Event;
use exec::{Item, MetricsDelta, RoundArena};
use peers::ArchiveIdx;
use shard::{Proposal, Scratch, Shard, ShardLane, ShardLayout};
use table::PeerTable;

pub use exec::{PlacementWork, WheelWork};
pub use hooks::{MemoryBreakdown, WorldEvent};
pub use peerback_sim::StageWork;
pub use peers::PeerId;
pub use profile::RoundProfile;
pub use redundancy::RedundancyWork;

/// Mean on+off availability cycle of every session sampler, in rounds
/// (a daily rhythm).
const AVAILABILITY_CYCLE: f64 = 24.0;

/// Rounds between metric samples of the time series.
const SAMPLE_INTERVAL: u64 = 24;

/// Sub-seed stream for the failure-domain hash of each peer slot.
const DOMAIN_STREAM: u64 = 0xd0_3a17;
/// Sub-seed stream for the per-round regional-outage draws.
const OUTAGE_STREAM: u64 = 0x07_a63e;
/// Sub-seed stream for the per-round network-partition draws.
const PARTITION_STREAM: u64 = 0x9a_7117;

/// The failure domain of peer slot `id`: a pure hash of the slot under
/// the run seed (no RNG draw — replacements inherit their slot's
/// domain, and the assignment is identical at every worker count).
pub(in crate::world) fn domain_of(seed: u64, domains: u32, id: PeerId) -> u16 {
    (derive_seed(derive_seed(seed, DOMAIN_STREAM), id as u64) % domains as u64) as u16
}

/// The backup network world; implements [`peerback_sim::World`].
///
/// # Example
///
/// [`run_simulation`](crate::run_simulation) owns the whole loop; for
/// inspection mid-run, drive a world round by round with the engine:
///
/// ```
/// use peerback_core::{BackupWorld, SimConfig};
/// use peerback_sim::Engine;
///
/// let mut cfg = SimConfig::paper(60, 120, 7);
/// cfg.k = 8;
/// cfg.m = 8;
/// cfg.quota = 48;
/// cfg = cfg.with_threshold(10);
/// let mut world = BackupWorld::new(cfg);
/// let mut engine = Engine::new(7);
/// engine.run(&mut world, 60); // first half ...
/// let joined_midway = world.metrics().diag.joins_completed;
/// engine.run(&mut world, 60); // ... and the rest of the run
/// assert!(world.metrics().diag.joins_completed >= joined_midway);
/// ```
pub struct BackupWorld {
    pub(in crate::world) cfg: SimConfig,
    /// Per-profile session samplers (index = profile id).
    pub(in crate::world) samplers: Vec<SessionSampler>,
    /// The struct-of-arrays peer table (slots, archives, slabs).
    pub(in crate::world) peers: PeerTable,
    /// Slots `0..observer_count` are observers.
    pub(in crate::world) observer_count: usize,
    /// The fixed logical partition of the slot space.
    pub(in crate::world) layout: ShardLayout,
    /// How the parallel stages are dispatched (worker threads from
    /// `cfg.shards`, the persistent pool the stages run on).
    pub(in crate::world) exec: ExecPolicy,
    /// One [`Shard`] per logical shard, in shard order: wheel segment,
    /// online list, pending queue, RNG stream and round buffers.
    pub(in crate::world) shards: Vec<Shard>,
    /// Position of each peer in its shard's online list (`OFFLINE` when
    /// offline).
    pub(in crate::world) online_pos: Vec<u32>,
    /// Online survival model driving [`SelectionStrategy::LearnedAge`]
    /// (attached only under that strategy; every other strategy carries
    /// `None` and pays nothing). Fed sequentially in shard order, read
    /// shared (frozen) by the parallel proposal phase.
    ///
    /// [`SelectionStrategy::LearnedAge`]: crate::select::SelectionStrategy::LearnedAge
    pub(in crate::world) estimator: Option<Box<peerback_estimate::OnlineSurvivalModel>>,
    /// Recycled state of the adaptive-redundancy stage ([`redundancy`]):
    /// the per-host survival column, the per-shard decision buffers and
    /// the stage's work tally. Allocated on the first scoring pass, so
    /// runs without `adaptive_n` carry nothing.
    pub(in crate::world) redundancy: redundancy::RedundancyState,
    /// Per-worker pool-building scratch (execution-only state).
    pub(in crate::world) scratch: Vec<Scratch>,
    /// The round buffers that belong to no one shard (see
    /// [`exec::RoundArena`]).
    pub(in crate::world) arena: RoundArena,
    /// The per-shard online lists concatenated in shard order, frozen
    /// for the proposal stage (rebuilt into the same buffer on every
    /// round that has actors): uniform candidate sampling is one index
    /// into it. Round scratch, outside `memory_breakdown()`.
    pub(in crate::world) online_flat: Vec<PeerId>,
    /// Exact work counters of the placement pipeline (see
    /// [`PlacementWork`]); execution-side telemetry.
    pub(in crate::world) placement: PlacementWork,
    /// Accumulated wall time per round stage; execution-side
    /// telemetry.
    pub(in crate::world) profile: RoundProfile,
    /// Scratch for the direct (white-box / single-call) pool path.
    #[cfg(test)]
    pub(in crate::world) direct_scratch: Scratch,
    /// Test builds: the per-shard online lists `online_flat` was
    /// frozen from, which the reference pool build samples through
    /// (the shards themselves leave the world for the proposal stage).
    #[cfg(test)]
    pub(in crate::world) frozen_online: Vec<Vec<PeerId>>,
    /// Per-domain round at which the current regional outage ends
    /// (`0` = no outage; a domain is down while `outages[d] > round`).
    /// Maintained sequentially by [`advance_failure_domains`] as a pure
    /// function of `(seed, domain, round)`; lanes read it shared.
    ///
    /// [`advance_failure_domains`]: BackupWorld::advance_failure_domains
    pub(in crate::world) outages: Vec<u64>,
    /// Per-domain round at which the current partition heals (`0` = no
    /// partition). Partitioned domains stay up but are unreachable for
    /// *new* placements: the candidate screen skips them.
    pub(in crate::world) partitions: Vec<u64>,
    /// Domains whose outage starts *this* round — the lanes force their
    /// online members offline at the top of the event phase. Rebuilt
    /// each round; empty in domain-free runs (the lane fast path).
    pub(in crate::world) outage_starts: Vec<u16>,
    /// `(peer, round)` log of quarantine decisions, in decision order
    /// (sequential, so deterministic). Drives the adversary probe.
    pub(in crate::world) quarantine_log: Vec<(PeerId, u64)>,
    /// Population census by age category (observers excluded).
    pub(in crate::world) census: [u64; AgeCategory::COUNT],
    pub(in crate::world) metrics: Metrics,

    /// Whether block-level events are recorded for a fabric observer.
    pub(in crate::world) record_events: bool,
    /// Buffered events awaiting [`BackupWorld::swap_event_buf`].
    pub(in crate::world) event_log: Vec<WorldEvent>,
}

impl BackupWorld {
    /// Builds the world. Peers spawn during round 0, so the constructor
    /// is cheap; the persistent worker pool (one parked thread per extra
    /// worker) is the only resource acquired up front.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`SimConfig::validate`].
    pub fn new(cfg: SimConfig) -> Self {
        if let Err(msg) = cfg.validate() {
            panic!("invalid simulation config: {msg}");
        }
        let samplers = cfg
            .profiles
            .profiles()
            .iter()
            .map(|p| SessionSampler::new(p.availability, AVAILABILITY_CYCLE))
            .collect();
        let observer_count = cfg.observers.len();
        let capacity = cfg.n_peers + observer_count;
        let layout = ShardLayout::for_capacity(capacity);
        let workers = cfg.shards.clamp(1, layout.count);
        let exec = ExecPolicy::new(workers);
        // Slab strides are fixed by the config: a partner slab holds at
        // most `n` entries per archive (fresh + displaced stale share
        // the width — displacement happens before attachment), a hosted
        // ledger at most `quota` regular blocks plus the quota-exempt
        // observer placements.
        let hosted_cap = cfg.quota as usize + observer_count * cfg.archives_per_peer as usize;
        let peers = PeerTable::with_capacity(
            capacity,
            cfg.archives_per_peer as usize,
            cfg.n_blocks() as usize,
            hosted_cap,
        );
        BackupWorld {
            samplers,
            observer_count,
            peers,
            layout,
            exec,
            shards: (0..layout.count).map(|s| Shard::new(cfg.seed, s)).collect(),
            online_pos: Vec::with_capacity(capacity),
            estimator: (cfg.strategy == crate::select::SelectionStrategy::LearnedAge).then(|| {
                Box::new(peerback_estimate::OnlineSurvivalModel::new(
                    peerback_estimate::EstimateParams::default(),
                ))
            }),
            redundancy: redundancy::RedundancyState::default(),
            scratch: Vec::new(),
            arena: RoundArena::new(layout.count),
            online_flat: Vec::new(),
            placement: PlacementWork::default(),
            profile: RoundProfile::default(),
            #[cfg(test)]
            direct_scratch: Scratch::default(),
            #[cfg(test)]
            frozen_online: Vec::new(),
            outages: vec![0; cfg.failure_domains.domains as usize],
            partitions: vec![0; cfg.failure_domains.domains as usize],
            outage_starts: Vec::new(),
            quarantine_log: Vec::new(),
            census: [0; 4],
            metrics: Metrics::new(),
            record_events: false,
            event_log: Vec::new(),
            cfg,
        }
    }

    /// Finishes the run and returns the collected metrics.
    pub fn into_metrics(mut self) -> Metrics {
        self.metrics.estimator = self.estimator.as_ref().map(|m| m.report());
        for (i, spec) in self.cfg.observers.iter().enumerate() {
            let id = i as PeerId;
            let repairs = self.peers.repairs(id);
            let losses = self.peers.losses(id);
            if let Some(series) = self.metrics.observers.get_mut(i) {
                series.total_repairs = repairs;
                series.losses = losses;
            } else {
                self.metrics.observers.push(ObserverSeries {
                    name: spec.name,
                    frozen_age: spec.frozen_age,
                    points: Vec::new(),
                    total_repairs: repairs,
                    losses,
                });
            }
        }
        self.metrics
    }

    /// Read access to the configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Read access to the metrics collected so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    // ----- small shared accessors ------------------------------------------

    pub(in crate::world) fn n_blocks(&self) -> u32 {
        self.cfg.n_blocks()
    }

    pub(in crate::world) fn k(&self) -> u32 {
        self.cfg.k as u32
    }

    /// Schedules `event` for `id` on its shard's wheel segment.
    pub(in crate::world) fn schedule_for(&mut self, id: PeerId, due: Round, event: Event) {
        let s = self.layout.shard_of(id);
        self.shards[s].wheel.schedule(due, event);
    }

    // ----- the staged round ------------------------------------------------

    /// Stage 0: advances the failure-domain incident schedule. Runs
    /// sequentially at the top of the round; whether each domain starts
    /// an outage or partition this round is a pure function of
    /// `(seed, domain, round)` — no RNG stream is touched, so runs with
    /// domains disabled draw exactly the sequences they always did, and
    /// runs with domains enabled are identical at every `shards` value.
    fn advance_failure_domains(&mut self, round: u64) {
        let fd = &self.cfg.failure_domains;
        if fd.domains == 0 {
            self.outage_starts.clear();
            return;
        }
        self.outage_starts.clear();
        let outage_stream = derive_seed(self.cfg.seed, OUTAGE_STREAM);
        let partition_stream = derive_seed(self.cfg.seed, PARTITION_STREAM);
        for d in 0..fd.domains as usize {
            if self.outages[d] <= round {
                let key = ((d as u64) << 32) | round;
                let scheduled = fd.outage_at != 0 && round == fd.outage_at && d == 0;
                let drawn = fd.outage_rate > 0.0
                    && unit_draw(derive_seed(outage_stream, key)) < fd.outage_rate;
                if scheduled || drawn {
                    self.outages[d] = round + fd.outage_rounds;
                    self.outage_starts.push(d as u16);
                    self.metrics.diag.outages_started += 1;
                }
            }
            if self.partitions[d] <= round {
                let key = ((d as u64) << 32) | round;
                if fd.partition_rate > 0.0
                    && unit_draw(derive_seed(partition_stream, key)) < fd.partition_rate
                {
                    self.partitions[d] = round + fd.partition_rounds;
                    self.metrics.diag.partitions_started += 1;
                }
            }
        }
    }

    /// Builds one [`ShardLane`] per logical shard — its peer-table
    /// columns, its online positions and the [`Shard`] itself — runs `f`
    /// over them, and merges the lanes back in shard order: events into
    /// the log, metric and census deltas into the world. Returns what
    /// `f` returns. Every stage that mutates shard state runs here: the
    /// population ramp, local events, the message stages and the owner
    /// stage.
    pub(in crate::world) fn with_shard_lanes<R>(
        &mut self,
        f: impl FnOnce(&mut [ShardLane<'_>], &SimConfig, &[SessionSampler]) -> R,
    ) -> R {
        let sz = self.layout.shard_size;
        let mut lanes: Vec<ShardLane> = retype_empty(core::mem::take(&mut self.arena.lane_store));
        let mut split = self.peers.splitter();
        let mut pos_rest: &mut [u32] = &mut self.online_pos;
        for shard in &mut self.shards {
            debug_assert!(shard.out.is_empty(), "outbox not routed before stage");
            let peers = split.take(sz);
            let (pos, rest) = pos_rest.split_at_mut(peers.slots());
            pos_rest = rest;
            lanes.push(ShardLane {
                peers,
                pos,
                shard,
                events_on: self.record_events,
                estimates_on: self.estimator.is_some(),
                outages: &self.outages,
                outage_starts: &self.outage_starts,
                delta: MetricsDelta::default(),
                census_delta: [0; AgeCategory::COUNT],
            });
        }

        let out = f(&mut lanes, &self.cfg, &self.samplers);

        // Merge in shard order (deterministic).
        let mut delta = MetricsDelta::default();
        let mut census_delta = [0i64; AgeCategory::COUNT];
        for lane in lanes.drain(..) {
            self.event_log.append(&mut lane.shard.events);
            exec::merge_delta(&mut delta, &lane.delta);
            for (c, &d) in lane.census_delta.iter().enumerate() {
                census_delta[c] += d;
            }
        }
        self.arena.lane_store = retype_empty(lanes);
        delta.apply(&mut self.metrics);
        for (c, &d) in census_delta.iter().enumerate() {
            self.census[c] = (self.census[c] as i64 + d) as u64;
        }
        out
    }

    /// Stage 1: shard-local events plus teardown hop 1, one stealable
    /// task per shard. Cross-shard messages land in the shards'
    /// outboxes; departed peers in their departed lists.
    fn run_local_events(&mut self, round: u64) {
        let policy = self.exec.full_width(self.layout.count);
        let workers = policy.workers();
        let mut fire_bufs = core::mem::take(&mut self.arena.fire_bufs);
        if fire_bufs.len() < workers {
            fire_bufs.resize_with(workers, Vec::new);
        }
        let work = self.with_shard_lanes(|lanes, cfg, samplers| {
            policy.dispatch_with(
                round * 16 + 1,
                &mut fire_bufs[..workers],
                lanes,
                |buf, _, lane| {
                    lane.run_local_events(round, cfg, samplers, buf);
                },
            )
        });
        self.profile.local_events_work += work;
        self.arena.fire_bufs = fire_bufs;
        // Feed the round's completed lifetimes to the survival model in
        // shard order — the sequential merge that keeps the model (and
        // everything ranked through it) independent of worker count.
        if let Some(model) = &mut self.estimator {
            for shard in &mut self.shards {
                for rec in shard.obs.drain(..) {
                    model.observe_death(rec);
                }
            }
        }
    }

    /// Refreshes the learned survival model on its cadence: a census of
    /// living regular peers' ages enters as right-censored observations
    /// alongside the windowed deaths. Runs sequentially before the
    /// proposal phase, so the parallel pool builders read frozen model
    /// state.
    fn refresh_estimator(&mut self, round: u64) {
        let Some(mut model) = self.estimator.take() else {
            return;
        };
        if round.is_multiple_of(model.params().refresh_interval) {
            let peers = &self.peers;
            // The classed census (age + observed uptime) is what lets
            // the model grow per-availability-class survival curves.
            // Quarantined peers are excluded, matching the censoring of
            // their deaths: an evicted host's lifetime is a verdict on
            // its honesty, not its hardware.
            model.refresh_classed(
                (self.observer_count as PeerId..peers.len() as PeerId)
                    .filter(|&id| !peers.quarantined(id))
                    .map(|id| (peers.age_at(id, round), peers.uptime_at(id, round))),
            );
        }
        self.estimator = Some(model);
    }

    /// Emits the round's `PeerDeparted` events (after every drop of the
    /// teardown has been delivered — the hooks.rs observer contract)
    /// and clears the departed lists either way.
    fn flush_departed(&mut self) {
        for shard in &mut self.shards {
            if self.record_events {
                for id in shard.departed.drain(..) {
                    self.event_log.push(WorldEvent::PeerDeparted { peer: id });
                }
            } else {
                shard.departed.clear();
            }
        }
    }

    /// Phase 4a: drains each shard's pending queue into its sorted actor
    /// list (the two buffers swap, so the steady state allocates
    /// nothing). Sorting per shard yields global peer-id order because
    /// shard ranges are contiguous and visited in order.
    fn drain_actors(&mut self) {
        for shard in &mut self.shards {
            debug_assert!(shard.actors.is_empty());
            core::mem::swap(&mut shard.actors, &mut shard.pending);
            for &id in &shard.actors {
                self.peers.set_queued(id, false);
            }
            // Offline owners activate nothing; reconnection re-enqueues
            // them (stale entries for recycled slots simply act for the
            // replacement peer, as the engine-driven path always did).
            let peers = &self.peers;
            shard.actors.retain(|&id| peers.online(id));
            shard.actors.sort_unstable();
        }
    }

    /// Phase 4b: builds candidate-pool proposals against the frozen
    /// end-of-event-phase state, one stealable task per shard, into each
    /// shard's proposal list, and stages the shard's wave-A claims in
    /// the same task. The shards are moved out of the world for the
    /// stage, so their tasks mutate them while reading the world shared.
    fn build_proposals(&mut self, round: u64) {
        if self.shards.iter().all(|s| s.actors.is_empty()) {
            return; // a quiet round: nothing to freeze, stage or dispatch
        }
        let workers = self.exec.workers().min(self.layout.count).max(1);
        if self.scratch.len() < workers {
            self.scratch.resize_with(workers, Scratch::default);
        }
        // The online lists are frozen for the whole stage: one
        // concatenation pass into the world's persistent buffer.
        self.freeze_online_flat();
        let mut shards = core::mem::take(&mut self.shards);
        let mut scratch = core::mem::take(&mut self.scratch);
        let work = {
            let world: &BackupWorld = self;
            let busy = shards.iter().filter(|s| !s.actors.is_empty()).count();
            let items = shards.iter().map(|s| s.actors.len()).sum();
            let policy = world.exec.narrowed(Item::Actor.ns(), busy, items);
            policy.dispatch_with(
                round * 16 + 8,
                &mut scratch[..workers],
                &mut shards,
                |scr, _, shard| propose_shard(world, shard, scr, round),
            )
        };
        self.profile.proposals_work += work;
        self.shards = shards;
        for scr in &mut scratch {
            self.placement.absorb(core::mem::take(&mut scr.work));
        }
        self.scratch = scratch;
    }
}

/// Builds the proposals of one shard — its actors in slot order,
/// archives in index order, pools drawn from the shard's RNG stream
/// into its recycled pool buffers — then stages their wave-A claims and
/// clears the actor list.
fn propose_shard(world: &BackupWorld, shard: &mut Shard, scratch: &mut Scratch, round: u64) {
    for &id in &shard.actors {
        for aidx in 0..world.peers.archives_per_peer() {
            let aidx = aidx as ArchiveIdx;
            if let Some((kind, d)) = world.plan_archive(id, aidx) {
                let pool = world.build_pool(
                    scratch,
                    &mut shard.pools,
                    &mut shard.rng,
                    id,
                    aidx,
                    d,
                    round,
                );
                shard.proposals.push(Proposal {
                    owner: id,
                    aidx,
                    kind,
                    d,
                    owner_observer: world.peers.observer(id).is_some(),
                    pool,
                    wave_a_denied: Default::default(),
                });
            }
        }
    }
    shard
        .claims
        .stage(&world.layout, &shard.proposals, exec::wave_a_ranks);
    shard.actors.clear();
}

impl World for BackupWorld {
    fn round_start(&mut self, round: Round, _rng: &mut SimRng) {
        let r = round.index();
        let mut clock = Instant::now();
        self.advance_failure_domains(r);
        self.ensure_population(r);
        self.profile.ramp += lap(&mut clock);
        self.run_local_events(r);
        self.profile.local_events += lap(&mut clock);
        self.run_deliver(r);
        self.profile.deliver += lap(&mut clock);
        // Every drop of the round's teardowns has now been delivered;
        // announce the slot recycles (hooks.rs observer contract).
        self.flush_departed();
        self.profile.flush_departed += lap(&mut clock);
        // Adaptive redundancy scores the settled post-teardown state;
        // widen-enqueued owners are drained and propose this round.
        self.run_redundancy(r);
        self.profile.redundancy += lap(&mut clock);
        self.drain_actors();
        self.profile.drain_actors += lap(&mut clock);
        self.refresh_estimator(r);
        self.profile.estimator_refresh += lap(&mut clock);
        self.build_proposals(r);
        self.profile.proposals += lap(&mut clock);
        self.commit_proposals(r);
        self.end_round();
        self.profile.commit += lap(&mut clock);
        self.profile.rounds += 1;
        #[cfg(test)]
        if r % 16 == 15 {
            self.check_invariants();
        }
    }

    fn collect_actors(&mut self, _round: Round, _buf: &mut Vec<usize>) {
        // The staged driver activates peers inside `round_start`; the
        // engine's shuffle-and-activate loop has nothing left to do.
    }

    fn activate(&mut self, _round: Round, _actor: usize, _rng: &mut SimRng) {
        debug_assert!(false, "no actors are ever queued with the engine");
    }

    fn round_end(&mut self, round: Round, _rng: &mut SimRng) {
        self.metrics.rounds = round.index() + 1;
        for cat in 0..AgeCategory::COUNT {
            self.metrics.peer_rounds[cat] += self.census[cat];
        }
        if round.index().is_multiple_of(SAMPLE_INTERVAL) {
            let mut cum_repairs = [0u64; 4];
            cum_repairs.copy_from_slice(&self.metrics.repairs);
            let mut cum_losses = [0u64; 4];
            cum_losses.copy_from_slice(&self.metrics.losses);
            self.metrics.samples.push(CategorySample {
                round: round.index(),
                cum_repairs,
                cum_losses,
                census: self.census,
            });
            for i in 0..self.observer_count {
                let repairs = self.peers.repairs(i as PeerId);
                self.metrics.observers[i]
                    .points
                    .push((round.index(), repairs));
            }
            if self.metrics.samples.len().is_multiple_of(10) {
                let f = self.instant_restorability();
                self.metrics.restorability.push((round.index(), f));
            }
        }
    }
}
