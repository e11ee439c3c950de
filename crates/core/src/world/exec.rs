//! The staged round executor: persistent-pool dispatch, recycled round
//! arenas, shard-addressed messages, and the two-phase parallel commit
//! with run-length-encoded claim traffic.
//!
//! PR 4 made the round a fully parallel staged pipeline; this module's
//! current form removes the steady-state overheads that pipeline still
//! paid per round:
//!
//! * **Zero thread spawns** — stages dispatch through the persistent
//!   [`peerback_sim::WorkerPool`] owned by the world: an epoch bump on
//!   a barrier the workers park on, not a `thread::scope` spawn.
//! * **Near-zero allocation** — every per-round buffer (per-shard
//!   inboxes and outboxes, event buffers, proposal lists, candidate
//!   pools, actor lists, wheel-fire scratch) lives in a [`RoundArena`]
//!   whose vectors are cleared and reused across rounds, their
//!   capacities high-water-marked by earlier rounds. Recycling is
//!   observationally invisible; [`RoundArena::set_recycle`] is the
//!   debug knob the determinism tests flip to prove it.
//! * **Run-length-encoded claims** — the commit's claim wave no longer
//!   materialises one message per `(owner, archive, rank)` placement.
//!   A [`ClaimRun`] names a proposal plus a contiguous rank range whose
//!   hosts share a destination shard; the grant side reads the hosts
//!   straight out of the (shared, frozen) proposal pool. Round 0 at
//!   paper scale routes a few thousand runs instead of `~n·d` claims,
//!   and no claim sort is needed at all: runs are *generated* in global
//!   commit order, and per-destination routing preserves it.
//!
//! ## The round, stage by stage
//!
//! 1. **Local events + teardown hop 1** (parallel): wheels fire, sorted
//!    events are handled shard-locally. A death tears its own slot down
//!    and *emits messages*: [`Msg::Release`] to each partner hosting
//!    one of its blocks, [`Msg::Drop`] to the owner of each block it
//!    hosted.
//! 2. **Deliver — teardown hop 2** (parallel by destination shard):
//!    the driver routes the messages; each shard sorts its own inbox
//!    by [`Msg::sort_key`] inside its task, then applies it. Releases
//!    prune hosted entries; drops prune partner entries, count losses,
//!    re-enqueue owners below threshold. A loss releases the
//!    survivors — a third, release-only wave.
//! 3. **Proposals** (parallel): frozen-state candidate pools — ranked
//!    lists of host ids, all the commit needs of a candidate — drawn
//!    from recycled per-shard pool buffers.
//! 4. **Commit, two-phase** (parallel): wave-A [`ClaimRun`]s are staged
//!    in commit order; host shards **grant** against shard-local
//!    quota, and each grant records its hosted entry and charges the
//!    quota on the spot (every grant is used), emitting [`GrantRun`]s;
//!    denied owners get one fallback claim wave; owner shards then run
//!    the protocol step with exactly the granted partners, writing
//!    partner entries and events; host shards sort and apply the
//!    [`Msg::Release`]s of the partners that step displaced.
//!
//! [`WorldEvent`]: super::hooks::WorldEvent

use std::sync::Arc;
use std::time::Instant;

use peerback_sim::arena::{put_slot, retype_empty, take_slot};
use peerback_sim::{derive_seed, BufPool, SimRng, WorkerPool};

use crate::age::AgeCategory;
use crate::metrics::Metrics;

use super::events::Event;
use super::hooks::WorldEvent;
use super::peers::{ArchiveIdx, PeerId};
use super::profile::lap;
use super::shard::{Proposal, ShardLane, ShardLayout};
use super::table::{PeerTable, PeerView};
use super::BackupWorld;

/// Per-lane accumulator for the metric counters a stage may bump;
/// merged into [`Metrics`] in shard order after every stage so the
/// totals are independent of scheduling.
#[derive(Debug, Clone, Copy, Default)]
pub(in crate::world) struct MetricsDelta {
    pub(in crate::world) repairs: [u64; AgeCategory::COUNT],
    pub(in crate::world) losses: [u64; AgeCategory::COUNT],
    pub(in crate::world) departures: u64,
    pub(in crate::world) session_toggles: u64,
    pub(in crate::world) partner_timeouts: u64,
    pub(in crate::world) joins_completed: u64,
    pub(in crate::world) pool_shortfalls: u64,
    pub(in crate::world) blocks_uploaded: u64,
    pub(in crate::world) blocks_downloaded: u64,
    pub(in crate::world) threshold_adjustments: u64,
    pub(in crate::world) outage_disconnects: u64,
    pub(in crate::world) quarantine_evictions: u64,
}

impl MetricsDelta {
    /// Folds this delta into the global metrics and resets it.
    pub(in crate::world) fn apply(&mut self, metrics: &mut Metrics) {
        for c in 0..AgeCategory::COUNT {
            metrics.repairs[c] += self.repairs[c];
            metrics.losses[c] += self.losses[c];
        }
        let d = &mut metrics.diag;
        d.departures += self.departures;
        d.session_toggles += self.session_toggles;
        d.partner_timeouts += self.partner_timeouts;
        d.joins_completed += self.joins_completed;
        d.pool_shortfalls += self.pool_shortfalls;
        d.blocks_uploaded += self.blocks_uploaded;
        d.blocks_downloaded += self.blocks_downloaded;
        d.threshold_adjustments += self.threshold_adjustments;
        d.outage_disconnects += self.outage_disconnects;
        d.quarantine_evictions += self.quarantine_evictions;
        *self = MetricsDelta::default();
    }
}

/// Exact work done by the placement pipeline so far — pool building,
/// the claim/grant exchange and message routing. Execution-side
/// telemetry read through [`BackupWorld::placement_work`], never part
/// of [`Metrics`]; every count is a pure function of the seed,
/// identical at any `shards` setting.
///
/// `candidates_sampled / grants` is the measured "candidates scanned
/// per granted partner" — the connection-efficiency ratio closed-form
/// discovery models predict.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlacementWork {
    /// Candidate pools built (one per proposal).
    pub pool_builds: u64,
    /// Sampling attempts: uniform draws from the online population,
    /// before any screening.
    pub candidates_sampled: u64,
    /// Candidates that passed every screen and the acceptance test and
    /// entered a pool.
    pub candidates_accepted: u64,
    /// Pool ranks claimed from host shards, both commit waves.
    pub claims: u64,
    /// Claimed ranks the host shards granted; every grant becomes one
    /// placed block (`diag.blocks_uploaded`).
    pub grants: u64,
    /// Cross-shard messages routed: teardown releases and drops, and
    /// the releases of partners a commit step displaced. Placements
    /// route none — the grant records the hosted entry itself.
    pub msgs_routed: u64,
}

impl PlacementWork {
    /// Adds `other`'s counts to this tally.
    pub(in crate::world) fn absorb(&mut self, other: PlacementWork) {
        self.pool_builds += other.pool_builds;
        self.candidates_sampled += other.candidates_sampled;
        self.candidates_accepted += other.candidates_accepted;
        self.claims += other.claims;
        self.grants += other.grants;
        self.msgs_routed += other.msgs_routed;
    }
}

/// A cross-shard effect, addressed to the logical shard that owns the
/// state it touches. All block-drop *events* are emitted on the owner
/// side at the moment the partner entry leaves the owner's archive;
/// `Release` is pure host-side bookkeeping. (Claim and grant traffic
/// travels run-length-encoded as [`ClaimRun`]/[`GrantRun`], and a
/// grant writes its hosted entry in place, so placements send no
/// message at all.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(in crate::world) enum Msg {
    /// → `shard_of(host)`: forget the hosted entry for `(owner, aidx)`
    /// and refund quota. Skipped silently when the host's own teardown
    /// already cleared it this round.
    Release {
        host: PeerId,
        owner: PeerId,
        aidx: ArchiveIdx,
        owner_observer: bool,
    },
    /// → `shard_of(owner)`: `host`'s copy of one `(owner, aidx)` block
    /// vanished (host death or offline write-off). Skipped silently
    /// when the owner's archive was already torn down this round.
    Drop {
        owner: PeerId,
        aidx: ArchiveIdx,
        host: PeerId,
    },
}

impl Msg {
    /// The logical shard whose state this message touches.
    fn dest(&self, layout: &ShardLayout) -> usize {
        match *self {
            Msg::Release { host, .. } => layout.shard_of(host),
            Msg::Drop { owner, .. } => layout.shard_of(owner),
        }
    }

    /// Total order for deterministic in-shard application. Releases
    /// apply before drops (disjoint state, fixed for definiteness).
    fn sort_key(&self) -> (u8, u64, u64, u64) {
        match *self {
            Msg::Release {
                host, owner, aidx, ..
            } => (0, host as u64, owner as u64, aidx as u64),
            Msg::Drop { owner, aidx, host } => (1, owner as u64, aidx as u64, host as u64),
        }
    }
}

/// One run of consecutive wave ranks of a single proposal whose hosts
/// all live in one destination shard. The grant side resolves hosts by
/// indexing the (shared, frozen) proposal pool, so the run itself is
/// four words — the join wave's claim traffic collapses from `~n·d`
/// messages to a few runs per proposal.
///
/// Runs are generated in `(owner shard, proposal index, rank)` order —
/// which *is* global `(owner, archive, rank)` commit order, because
/// proposals are built per shard in owner order — and per-destination
/// routing preserves relative order, so grant inboxes need no sort.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(in crate::world) struct ClaimRun {
    /// Owner shard (index into the per-shard proposal lists).
    pub(in crate::world) oshard: u32,
    /// Proposal index within the owner shard's list.
    pub(in crate::world) prop: u32,
    /// First pool rank of the run.
    pub(in crate::world) start: u16,
    /// Ranks `start..start + len` (hosts contiguous in the dest shard).
    pub(in crate::world) len: u16,
}

/// A run of consecutively granted ranks, addressed back to the owner
/// shard. Sorted by `(prop, start)` per owner shard before the owner
/// stage walks it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(in crate::world) struct GrantRun {
    /// Proposal index within the owner shard's list.
    pub(in crate::world) prop: u32,
    /// First granted pool rank of the run.
    pub(in crate::world) start: u16,
    /// Granted ranks `start..start + len`.
    pub(in crate::world) len: u16,
}

/// How the stages are dispatched: worker count, the persistent pool
/// dispatch runs on, and (under test) a seed forcing a random
/// sequential interleaving instead of real threads. Workers that finish
/// their own shard range always steal from the stragglers.
#[derive(Debug, Clone)]
pub(in crate::world) struct ExecPolicy {
    pub(in crate::world) workers: usize,
    /// Test hook: execute stage tasks sequentially in a seeded random
    /// order (a deterministic stand-in for an arbitrary steal
    /// interleaving). `None` in production.
    pub(in crate::world) fuzz: Option<u64>,
    /// The world's persistent worker pool (width `workers`); stages are
    /// epoch bumps on its barrier, never thread spawns.
    pub(in crate::world) pool: Arc<WorkerPool>,
}

/// Below this many queued messages a stage runs on one worker: waking
/// the pool costs more than the work. Scheduling only — results are
/// identical either way.
const PARALLEL_MSG_MIN: usize = 2048;

impl ExecPolicy {
    /// Narrows the worker count for a stage with `busy` non-empty tasks
    /// and `work` total queued messages: light stages run inline, and no
    /// stage is wider than its non-empty tasks.
    pub(in crate::world) fn narrowed(&self, busy: usize, work: usize) -> ExecPolicy {
        let workers = if work < PARALLEL_MSG_MIN {
            1
        } else {
            self.workers.min(busy.max(1))
        };
        ExecPolicy {
            workers,
            ..self.clone()
        }
    }

    /// Runs one stage: `f(i, &mut states[i])` exactly once per task.
    /// `salt` decorrelates fuzzed interleavings across stages/rounds.
    pub(in crate::world) fn dispatch<S, F>(&self, salt: u64, states: &mut [S], f: F)
    where
        S: Send,
        F: Fn(usize, &mut S) + Sync,
    {
        match self.fuzz {
            Some(seed) => peerback_sim::exec::run_tasks_fuzzed(derive_seed(seed, salt), states, f),
            None => self.pool.run_tasks(self.workers, true, states, f),
        }
    }

    /// As [`ExecPolicy::dispatch`] with per-worker scratch state.
    pub(in crate::world) fn dispatch_with<W, S, F>(
        &self,
        salt: u64,
        worker_states: &mut [W],
        states: &mut [S],
        f: F,
    ) where
        W: Send,
        S: Send,
        F: Fn(&mut W, usize, &mut S) + Sync,
    {
        match self.fuzz {
            Some(seed) => {
                let scratch = worker_states.first_mut().expect("one worker state");
                peerback_sim::exec::run_tasks_fuzzed(derive_seed(seed, salt), states, |i, s| {
                    f(scratch, i, s);
                });
            }
            None => {
                // Honour the (possibly narrowed) worker count: the pool
                // derives the stage width from the scratch slice.
                let take = self.workers.clamp(1, worker_states.len());
                self.pool
                    .run_tasks_with(true, &mut worker_states[..take], states, f);
            }
        }
    }
}

/// The recycled per-round buffers: one slot per logical shard for every
/// buffer family the staged round uses, plus per-shard candidate-pool
/// free lists and per-worker wheel-fire scratch. Cleared-and-reused
/// across rounds with capacities high-water-marked; with recycling off
/// ([`RoundArena::set_recycle`]) every round starts from fresh vectors
/// — the knob the determinism tests flip.
pub(in crate::world) struct RoundArena {
    pub(in crate::world) recycle: bool,
    /// Routed per-shard [`Msg`] inboxes (deliver + commit apply).
    pub(in crate::world) msg_inboxes: Vec<Vec<Msg>>,
    /// Per-shard lane outboxes (the next wave's input).
    pub(in crate::world) outboxes: Vec<Vec<Msg>>,
    /// Per-shard lane event buffers.
    pub(in crate::world) event_bufs: Vec<Vec<WorldEvent>>,
    /// Per-shard departed-peer lists of the current round.
    pub(in crate::world) departed: Vec<Vec<PeerId>>,
    /// Per-host-shard claim-run inboxes (both commit waves).
    pub(in crate::world) claim_inboxes: Vec<Vec<ClaimRun>>,
    /// Per-owner-shard granted runs (wave A, then merged with B).
    pub(in crate::world) grant_inboxes: Vec<Vec<GrantRun>>,
    /// Per-owner-shard wave-B grants awaiting the merge.
    pub(in crate::world) grants_b: Vec<Vec<GrantRun>>,
    /// Per-host-shard grant routing scratch (`(owner shard, run)`).
    pub(in crate::world) grant_outs: Vec<Vec<(u32, GrantRun)>>,
    /// Per-owner-shard proposal lists.
    pub(in crate::world) proposals: Vec<Vec<Proposal>>,
    /// Per-shard actor lists (the drained pending queues).
    pub(in crate::world) actors: Vec<Vec<PeerId>>,
    /// Per-owner-shard granted-hosts scratch for the owner stage.
    pub(in crate::world) hosts_bufs: Vec<Vec<PeerId>>,
    /// Per-owner-shard candidate-pool free lists (proposal pools cycle
    /// propose → commit → free list).
    pub(in crate::world) cand_pools: Vec<BufPool<PeerId>>,
    /// Per-worker wheel-fire scratch for the local-events stage.
    pub(in crate::world) fire_bufs: Vec<Vec<Event>>,
    /// Recycled backing storage for the per-stage task vectors. The
    /// element types borrow round-local state, so the capacity is
    /// parked between rounds under a `'static` instantiation and
    /// re-typed for each round's borrows
    /// ([`peerback_sim::arena::retype_empty`]); the vectors themselves
    /// are always empty here.
    pub(in crate::world) lane_store: Vec<WorkLane<'static>>,
    pub(in crate::world) shard_lane_store: Vec<ShardLane<'static>>,
    pub(in crate::world) grant_task_store: Vec<GrantTask<'static>>,
    pub(in crate::world) commit_task_store: Vec<CommitTask<'static>>,
    pub(in crate::world) propose_task_store: Vec<ProposeTask<'static>>,
}

impl RoundArena {
    pub(in crate::world) fn new(shards: usize) -> Self {
        fn slots<T>(shards: usize) -> Vec<Vec<T>> {
            (0..shards).map(|_| Vec::new()).collect()
        }
        RoundArena {
            recycle: true,
            msg_inboxes: slots(shards),
            outboxes: slots(shards),
            event_bufs: slots(shards),
            departed: slots(shards),
            claim_inboxes: slots(shards),
            grant_inboxes: slots(shards),
            grants_b: slots(shards),
            grant_outs: slots(shards),
            proposals: slots(shards),
            actors: slots(shards),
            hosts_bufs: slots(shards),
            cand_pools: (0..shards).map(|_| BufPool::new()).collect(),
            fire_bufs: Vec::new(),
            lane_store: Vec::new(),
            shard_lane_store: Vec::new(),
            grant_task_store: Vec::new(),
            commit_task_store: Vec::new(),
            propose_task_store: Vec::new(),
        }
    }

    /// Enables or disables cross-round buffer recycling (the debug knob
    /// behind `BackupWorld::set_arena_recycling`). Disabling wipes all
    /// retained capacity so the next round starts from fresh vectors.
    pub(in crate::world) fn set_recycle(&mut self, on: bool) {
        self.recycle = on;
        for pool in &mut self.cand_pools {
            pool.set_recycle(on);
        }
        if !on {
            self.wipe();
        }
    }

    /// Called at the end of every round: with recycling off, drop every
    /// retained buffer so rounds cannot share capacity (let alone
    /// contents); with recycling on this is a no-op — the buffers are
    /// already cleared by their return paths.
    pub(in crate::world) fn end_round(&mut self) {
        if !self.recycle {
            self.wipe();
        }
        debug_assert!(self.outboxes.iter().all(Vec::is_empty));
        debug_assert!(self.msg_inboxes.iter().all(Vec::is_empty));
        debug_assert!(self.claim_inboxes.iter().all(Vec::is_empty));
    }

    fn wipe(&mut self) {
        for buf in &mut self.msg_inboxes {
            *buf = Vec::new();
        }
        for buf in &mut self.outboxes {
            *buf = Vec::new();
        }
        for buf in &mut self.event_bufs {
            *buf = Vec::new();
        }
        for buf in &mut self.departed {
            *buf = Vec::new();
        }
        for buf in &mut self.claim_inboxes {
            *buf = Vec::new();
        }
        for buf in &mut self.grant_inboxes {
            *buf = Vec::new();
        }
        for buf in &mut self.grants_b {
            *buf = Vec::new();
        }
        for buf in &mut self.grant_outs {
            *buf = Vec::new();
        }
        for buf in &mut self.proposals {
            *buf = Vec::new();
        }
        for buf in &mut self.actors {
            *buf = Vec::new();
        }
        for buf in &mut self.hosts_bufs {
            *buf = Vec::new();
        }
        self.fire_bufs = Vec::new();
        self.lane_store = Vec::new();
        self.shard_lane_store = Vec::new();
        self.grant_task_store = Vec::new();
        self.commit_task_store = Vec::new();
        self.propose_task_store = Vec::new();
    }
}

/// Everything one shard may touch during a deliver/commit stage, plus
/// the task-local buffers whose merge order is fixed by shard index.
pub(in crate::world) struct WorkLane<'a> {
    /// This shard's columns of the peer table (the view carries the
    /// shard's base slot id).
    pub(in crate::world) peers: PeerView<'a>,
    /// This shard's pending-activation queue.
    pub(in crate::world) pending: &'a mut Vec<PeerId>,
    /// Whether to record events.
    pub(in crate::world) events_on: bool,
    /// Events emitted by this lane, merged in shard order.
    pub(in crate::world) events: Vec<WorldEvent>,
    /// Metric counters bumped by this lane.
    pub(in crate::world) delta: MetricsDelta,
    /// Cross-shard effects for the next stage.
    pub(in crate::world) out: Vec<Msg>,
    /// Messages addressed to this shard, in routing order; the stage
    /// sorts them by [`Msg::sort_key`] before applying.
    pub(in crate::world) inbox: Vec<Msg>,
}

impl WorkLane<'_> {
    pub(in crate::world) fn enqueue(&mut self, id: PeerId) {
        self.peers.enqueue_pending(id, self.pending);
    }

    #[inline]
    pub(in crate::world) fn emit(&mut self, event: WorldEvent) {
        if self.events_on {
            self.events.push(event);
        }
    }

    /// Emits one `BlocksPlaced` for the partners attached beyond index
    /// `before` (the lane mirror of `BackupWorld::emit_placements`).
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
            self.events.push(WorldEvent::BlocksPlaced {
                owner,
                archive: aidx,
                hosts,
            });
        }
    }
}

/// A grant-stage task: one host shard's columns of the peer table (its
/// hosted ledgers and quota counters), its claim runs in, grant runs
/// out.
pub(in crate::world) struct GrantTask<'a> {
    peers: PeerView<'a>,
    inbox: Vec<ClaimRun>,
    out: Vec<(u32, GrantRun)>,
}

/// An owner-stage task: one owner shard's proposals, its sorted grant
/// runs, and the recycled scratch the step uses.
pub(in crate::world) struct CommitTask<'a> {
    lane: WorkLane<'a>,
    props: Vec<Proposal>,
    grants: Vec<GrantRun>,
    hosts: Vec<PeerId>,
    pools: BufPool<PeerId>,
}

/// A proposal-stage task: one owner shard's drained actor list and RNG
/// stream, plus the recycled output buffers the pools build into.
pub(in crate::world) struct ProposeTask<'a> {
    pub(in crate::world) rng: &'a mut SimRng,
    pub(in crate::world) actors: &'a [PeerId],
    pub(in crate::world) proposals: Vec<Proposal>,
    pub(in crate::world) pools: BufPool<PeerId>,
}

impl BackupWorld {
    /// Drains every shard's outbox into the per-destination inboxes (in
    /// shard order, preserving per-destination emission order) and
    /// returns the number of messages routed. The inboxes are left
    /// unsorted: each lane sorts its own inside the dispatched stage.
    /// All buffers are arena slots — no allocation in the steady state.
    fn route_outboxes(&mut self) -> usize {
        let layout = self.layout;
        let RoundArena {
            outboxes,
            msg_inboxes,
            ..
        } = &mut self.arena;
        let mut total = 0usize;
        for slot in outboxes.iter_mut().take(layout.count) {
            if slot.is_empty() {
                continue;
            }
            let mut out = core::mem::take(slot);
            total += out.len();
            for msg in out.drain(..) {
                msg_inboxes[msg.dest(&layout)].push(msg);
            }
            *slot = out;
        }
        self.placement.msgs_routed += total as u64;
        total
    }

    /// Routes the pending outboxes and runs one message-apply stage
    /// over them: a deliver wave (releases and drops) or the commit's
    /// apply stage (releases only). Returns how many messages were
    /// applied (0 = the stage was skipped).
    fn run_msg_stage(&mut self, salt: u64, round: u64) -> usize {
        let total = self.route_outboxes();
        if total == 0 {
            return 0;
        }
        let busy = self
            .arena
            .msg_inboxes
            .iter()
            .filter(|i| !i.is_empty())
            .count();
        let policy = self.exec.narrowed(busy, total);
        let layout = self.layout;
        let BackupWorld {
            peers,
            pendings,
            cfg,
            event_log,
            metrics,
            record_events,
            arena,
            ..
        } = self;
        let cfg: &crate::config::SimConfig = cfg;
        let mut lanes = build_work_lanes(layout, *record_events, peers, pendings, arena, true);
        policy.dispatch(salt, &mut lanes, |_, lane| {
            let mut inbox = core::mem::take(&mut lane.inbox);
            // The deterministic in-shard application order. Sorting
            // here, not while routing, puts the sort on the stage's
            // workers instead of the driver thread.
            inbox.sort_unstable_by_key(Msg::sort_key);
            for msg in &inbox {
                match *msg {
                    Msg::Release {
                        host,
                        owner,
                        aidx,
                        owner_observer,
                    } => lane.apply_release(host, owner, aidx, owner_observer),
                    Msg::Drop { owner, aidx, host } => {
                        lane.apply_drop(cfg, owner, aidx, host, round);
                    }
                }
            }
            lane.inbox = inbox;
        });
        merge_work_lanes(event_log, metrics, arena, lanes);
        total
    }

    /// Stage 2 (+3): applies the deliver waves — releases and drops, in
    /// sorted order per shard — then the release-only survivor wave a
    /// loss may generate. Input is whatever the local-events stage left
    /// in the arena outboxes; `round` is the current round (loss
    /// accounting).
    pub(in crate::world) fn run_deliver(&mut self, round: u64) {
        for salt in 0..2u64 {
            if self.run_msg_stage(round * 16 + 2 + salt, round) == 0 {
                return;
            }
        }
        debug_assert!(
            self.arena.outboxes.iter().all(Vec::is_empty),
            "survivor releases generated further messages"
        );
    }

    /// Stages 4–7: the two-phase commit over the proposals staged in
    /// the arena (`arena.proposals`, filled by the proposal stage).
    pub(in crate::world) fn commit_proposals(&mut self, round: u64) {
        if self.arena.proposals.iter().all(Vec::is_empty) {
            return;
        }

        // Phase 1 (propose): stage the wave-A claim runs in commit
        // order, let host shards grant them, and top denied owners up
        // with one fallback wave.
        let mut clock = Instant::now();
        self.stage_wave_a_claims();
        self.profile.commit_wave_a += lap(&mut clock);
        self.grant_stage(round * 16 + 4, false);
        self.profile.commit_grant += lap(&mut clock);
        if self.stage_wave_b_claims() {
            self.grant_stage(round * 16 + 5, true);
            self.merge_wave_b_grants();
        }
        self.profile.commit_wave_b += lap(&mut clock);

        // Phase 2 (ack/apply): owner shards run the protocol step with
        // exactly the granted partners, then host shards apply the
        // releases of the partners those steps displaced.
        self.commit_owner_stage(round);
        self.profile.commit_owner += lap(&mut clock);
        self.run_msg_stage(round * 16 + 7, round);
        self.profile.commit_apply += lap(&mut clock);
        debug_assert!(
            self.arena.outboxes.iter().all(Vec::is_empty),
            "apply stage generated messages"
        );
    }

    /// Builds the wave-A claim runs: ranks `0..d` of every proposal,
    /// segmented by destination shard, appended per destination in
    /// global `(owner, archive, rank)` commit order — so the grant
    /// inboxes need no sort.
    fn stage_wave_a_claims(&mut self) {
        let layout = self.layout;
        let RoundArena {
            proposals,
            claim_inboxes,
            ..
        } = &mut self.arena;
        for (s, props) in proposals.iter().enumerate() {
            for (pi, prop) in props.iter().enumerate() {
                let end = (prop.d as usize).min(prop.pool.len());
                push_claim_runs(&layout, s as u32, pi as u32, prop, 0, end, claim_inboxes);
            }
        }
    }

    /// Computes the fallback (wave B) claim runs: for each proposal
    /// granted fewer than `d` placements, claim the next `d − granted`
    /// pool ranks beyond the wave-A window. Returns whether any were
    /// staged.
    fn stage_wave_b_claims(&mut self) -> bool {
        let layout = self.layout;
        let RoundArena {
            proposals,
            grant_inboxes,
            claim_inboxes,
            ..
        } = &mut self.arena;
        let mut any = false;
        for (s, props) in proposals.iter().enumerate() {
            let grants = &grant_inboxes[s];
            let mut cursor = 0usize;
            for (pi, prop) in props.iter().enumerate() {
                let mut granted = 0u32;
                while cursor < grants.len() && grants[cursor].prop as usize == pi {
                    granted += grants[cursor].len as u32;
                    cursor += 1;
                }
                let wave_a = (prop.d as usize).min(prop.pool.len());
                let missing = (prop.d - granted) as usize;
                if missing == 0 || wave_a >= prop.pool.len() {
                    continue;
                }
                let end = (wave_a + missing).min(prop.pool.len());
                push_claim_runs(
                    &layout,
                    s as u32,
                    pi as u32,
                    prop,
                    wave_a,
                    end,
                    claim_inboxes,
                );
                any = true;
            }
            debug_assert_eq!(cursor, grants.len(), "grants without a proposal");
        }
        any
    }

    /// One grant stage over the staged claim runs: each host shard
    /// grants in commit order against its live quota. Every grant is
    /// used (a proposal is never granted more than its `d`), so the
    /// grant itself is the host-side half of the placement: it records
    /// the hosted entry and charges the quota (observer-owned blocks
    /// are exempt, §4.2.2) — the charge is what later claims of the
    /// same round, wave B included, are checked against. Grant runs are
    /// routed back per owner shard (into `grant_inboxes` for wave A,
    /// `grants_b` for wave B).
    fn grant_stage(&mut self, salt: u64, wave_b: bool) {
        let layout = self.layout;
        let quota = self.cfg.quota;
        let BackupWorld {
            peers,
            arena,
            exec,
            placement,
            ..
        } = self;
        let recycle = arena.recycle;
        let mut tasks: Vec<GrantTask<'_>> =
            retype_empty(core::mem::take(&mut arena.grant_task_store));
        let mut split = peers.splitter();
        for s in 0..layout.count {
            tasks.push(GrantTask {
                peers: split.take(layout.shard_size),
                inbox: core::mem::take(&mut arena.claim_inboxes[s]),
                out: take_slot(&mut arena.grant_outs[s], recycle),
            });
        }
        let busy = tasks.iter().filter(|t| !t.inbox.is_empty()).count();
        let work: usize = tasks
            .iter()
            .flat_map(|t| t.inbox.iter())
            .map(|run| run.len as usize)
            .sum();
        placement.claims += work as u64;
        let policy = exec.narrowed(busy, work);
        let proposals = &arena.proposals;
        policy.dispatch(salt, &mut tasks, |shard, task| {
            for run in &task.inbox {
                let prop = &proposals[run.oshard as usize][run.prop as usize];
                // Contiguous granted ranks merge into one output run.
                let mut open: Option<GrantRun> = None;
                for rank in run.start..run.start + run.len {
                    let host = prop.pool[rank as usize];
                    debug_assert_eq!(layout.shard_of(host), shard, "misrouted claim run");
                    debug_assert!(
                        task.peers.online(host),
                        "claims target frozen-online candidates"
                    );
                    let used = task.peers.quota_used(host);
                    if used >= quota {
                        // Full, counting this round's earlier grants.
                        if let Some(done) = open.take() {
                            task.out.push((run.oshard, done));
                        }
                        continue;
                    }
                    task.peers.push_hosted(host, prop.owner, prop.aidx);
                    if !prop.owner_observer {
                        task.peers.set_quota_used(host, used + 1);
                    }
                    match &mut open {
                        // An open run always ends right before `rank`:
                        // ranks advance by one and denials flush it.
                        Some(g) => {
                            debug_assert_eq!(g.start + g.len, rank, "non-contiguous grant run");
                            g.len += 1;
                        }
                        None => {
                            open = Some(GrantRun {
                                prop: run.prop,
                                start: rank,
                                len: 1,
                            });
                        }
                    }
                }
                if let Some(done) = open.take() {
                    task.out.push((run.oshard, done));
                }
            }
        });
        // Route the grant runs to their owner shards (host shards
        // interleave, so each destination list needs one small sort
        // over runs — not ranks — to restore commit order).
        let dest = if wave_b {
            &mut arena.grants_b
        } else {
            &mut arena.grant_inboxes
        };
        for (s, task) in tasks.drain(..).enumerate() {
            let GrantTask {
                mut inbox, mut out, ..
            } = task;
            for (oshard, grant) in out.drain(..) {
                dest[oshard as usize].push(grant);
            }
            inbox.clear();
            put_slot(&mut arena.claim_inboxes[s], inbox, recycle);
            put_slot(&mut arena.grant_outs[s], out, recycle);
        }
        arena.grant_task_store = retype_empty(tasks);
        for list in dest.iter_mut() {
            list.sort_unstable_by_key(|g| (g.prop, g.start));
        }
    }

    /// Folds the wave-B grants into the wave-A lists, restoring commit
    /// order per owner shard.
    fn merge_wave_b_grants(&mut self) {
        let RoundArena {
            grant_inboxes,
            grants_b,
            ..
        } = &mut self.arena;
        for (dst, src) in grant_inboxes.iter_mut().zip(grants_b.iter_mut()) {
            if !src.is_empty() {
                dst.append(src);
                dst.sort_unstable_by_key(|g| (g.prop, g.start));
            }
        }
    }

    /// The owner half of phase 2: each owner shard walks its proposals
    /// with a cursor over the sorted grant runs, resolves the granted
    /// hosts from the proposal pool, and runs the protocol step. Pool
    /// buffers return to the shard's free list; releases of displaced
    /// partners land in the outboxes for the apply stage.
    fn commit_owner_stage(&mut self, round: u64) {
        let busy = self
            .arena
            .proposals
            .iter()
            .filter(|p| !p.is_empty())
            .count();
        // Owner steps are much heavier per item than bookkeeping
        // messages; weight them accordingly.
        let granted = self
            .arena
            .grant_inboxes
            .iter()
            .flat_map(|g| g.iter())
            .map(|g| g.len as usize)
            .sum::<usize>();
        self.placement.grants += granted as u64;
        let work = self.arena.proposals.iter().map(Vec::len).sum::<usize>() * 64 + granted;
        let policy = self.exec.narrowed(busy, work);
        let layout = self.layout;
        let recycle = self.arena.recycle;
        let BackupWorld {
            peers,
            pendings,
            cfg,
            event_log,
            metrics,
            record_events,
            arena,
            ..
        } = self;
        let cfg: &crate::config::SimConfig = cfg;
        let mut lanes = build_work_lanes(layout, *record_events, peers, pendings, arena, false);
        let mut tasks: Vec<CommitTask<'_>> =
            retype_empty(core::mem::take(&mut arena.commit_task_store));
        for (s, lane) in lanes.drain(..).enumerate() {
            tasks.push(CommitTask {
                lane,
                props: core::mem::take(&mut arena.proposals[s]),
                grants: core::mem::take(&mut arena.grant_inboxes[s]),
                hosts: take_slot(&mut arena.hosts_bufs[s], recycle),
                pools: core::mem::take(&mut arena.cand_pools[s]),
            });
        }
        arena.lane_store = retype_empty(lanes);
        policy.dispatch(round * 16 + 6, &mut tasks, |_, task| {
            let CommitTask {
                lane,
                props,
                grants,
                hosts,
                pools,
            } = task;
            let mut cursor = 0usize;
            for (pi, prop) in props.drain(..).enumerate() {
                hosts.clear();
                while cursor < grants.len() && grants[cursor].prop as usize == pi {
                    let g = grants[cursor];
                    let ranks = g.start as usize..(g.start + g.len) as usize;
                    hosts.extend_from_slice(&prop.pool[ranks]);
                    cursor += 1;
                }
                lane.commit_step(cfg, &prop, hosts, round);
                pools.put(prop.pool);
            }
            debug_assert_eq!(cursor, grants.len(), "grants without a proposal");
        });
        let mut delta = MetricsDelta::default();
        for (s, task) in tasks.drain(..).enumerate() {
            let CommitTask {
                lane,
                props,
                mut grants,
                hosts,
                pools,
            } = task;
            merge_lane_core(event_log, &mut delta, arena, s, lane);
            put_slot(&mut arena.proposals[s], props, recycle);
            grants.clear();
            put_slot(&mut arena.grant_inboxes[s], grants, recycle);
            put_slot(&mut arena.hosts_bufs[s], hosts, recycle);
            arena.cand_pools[s] = pools;
        }
        arena.commit_task_store = retype_empty(tasks);
        delta.apply(metrics);
    }
}

/// Appends the claim runs of `prop.pool[start..end]` to the per-shard
/// inboxes, one run per maximal rank range whose hosts share a
/// destination shard.
fn push_claim_runs(
    layout: &ShardLayout,
    oshard: u32,
    prop_idx: u32,
    prop: &Proposal,
    start: usize,
    end: usize,
    inboxes: &mut [Vec<ClaimRun>],
) {
    let mut run_start = start;
    while run_start < end {
        let dest = layout.shard_of(prop.pool[run_start]);
        let mut run_end = run_start + 1;
        while run_end < end && layout.shard_of(prop.pool[run_end]) == dest {
            run_end += 1;
        }
        inboxes[dest].push(ClaimRun {
            oshard,
            prop: prop_idx,
            start: run_start as u16,
            len: (run_end - run_start) as u16,
        });
        run_start = run_end;
    }
}

/// Builds one [`WorkLane`] per logical shard over split borrows of the
/// peer-table columns and pending queues, drawing every lane buffer
/// from the arena (inboxes carry the routed messages when
/// `with_inboxes`). Allocation-free in the steady state: the column
/// splitter carves slices, it never copies.
fn build_work_lanes<'a>(
    layout: ShardLayout,
    events_on: bool,
    peers: &'a mut PeerTable,
    pendings: &'a mut [Vec<PeerId>],
    arena: &mut RoundArena,
    with_inboxes: bool,
) -> Vec<WorkLane<'a>> {
    let sz = layout.shard_size;
    let recycle = arena.recycle;
    let mut lanes: Vec<WorkLane<'a>> = retype_empty(core::mem::take(&mut arena.lane_store));
    let mut split = peers.splitter();
    let mut pendings = pendings.iter_mut();
    for s in 0..layout.count {
        debug_assert!(
            arena.outboxes[s].is_empty(),
            "outbox not routed before stage"
        );
        lanes.push(WorkLane {
            peers: split.take(sz),
            pending: pendings.next().expect("pending per shard"),
            events_on,
            events: take_slot(&mut arena.event_bufs[s], recycle),
            delta: MetricsDelta::default(),
            out: core::mem::take(&mut arena.outboxes[s]),
            inbox: if with_inboxes {
                core::mem::take(&mut arena.msg_inboxes[s])
            } else {
                Vec::new()
            },
        });
    }
    lanes
}

/// The per-lane half of every stage merge: events into the log, delta
/// accumulated, the outbox (with its contents — the next wave's input)
/// restored to its arena slot. Returns the lane's inbox for the caller
/// to recycle (stages that routed one) or drop (stages that didn't —
/// it is an empty `Vec::new()` there, which must *not* overwrite the
/// retained inbox slot).
fn merge_lane_core(
    event_log: &mut Vec<WorldEvent>,
    delta: &mut MetricsDelta,
    arena: &mut RoundArena,
    s: usize,
    mut lane: WorkLane<'_>,
) -> Vec<Msg> {
    event_log.append(&mut lane.events);
    put_slot(&mut arena.event_bufs[s], lane.events, arena.recycle);
    merge_delta(delta, &lane.delta);
    arena.outboxes[s] = lane.out;
    lane.inbox
}

/// Merges lane buffers back into the world in shard order: events into
/// the log, deltas into the metrics, outboxes (with their contents —
/// the next wave's input) and cleared inboxes back into the arena.
fn merge_work_lanes(
    event_log: &mut Vec<WorldEvent>,
    metrics: &mut Metrics,
    arena: &mut RoundArena,
    mut lanes: Vec<WorkLane<'_>>,
) {
    let recycle = arena.recycle;
    let mut delta = MetricsDelta::default();
    for (s, lane) in lanes.drain(..).enumerate() {
        let inbox = merge_lane_core(event_log, &mut delta, arena, s, lane);
        put_slot(&mut arena.msg_inboxes[s], inbox, recycle);
    }
    arena.lane_store = retype_empty(lanes);
    delta.apply(metrics);
}

/// Accumulates `src` into `dst` field by field.
pub(in crate::world) fn merge_delta(dst: &mut MetricsDelta, src: &MetricsDelta) {
    for c in 0..AgeCategory::COUNT {
        dst.repairs[c] += src.repairs[c];
        dst.losses[c] += src.losses[c];
    }
    dst.departures += src.departures;
    dst.session_toggles += src.session_toggles;
    dst.partner_timeouts += src.partner_timeouts;
    dst.joins_completed += src.joins_completed;
    dst.pool_shortfalls += src.pool_shortfalls;
    dst.blocks_uploaded += src.blocks_uploaded;
    dst.blocks_downloaded += src.blocks_downloaded;
    dst.threshold_adjustments += src.threshold_adjustments;
    dst.outage_disconnects += src.outage_disconnects;
    dst.quarantine_evictions += src.quarantine_evictions;
}
