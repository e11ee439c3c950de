//! The staged round executor: persistent-pool dispatch, one lane per
//! logical shard, shard-addressed messages, and the two-phase parallel
//! commit whose claim/grant exchange never passes through the driver
//! thread.
//!
//! Its shape removes the steady-state overheads a staged pipeline would
//! otherwise pay per round:
//!
//! * **Zero thread spawns** — stages dispatch through the persistent
//!   [`peerback_sim::WorkerPool`] owned by the world, as wide as
//!   [`peerback_sim::ExecPolicy`]'s width rule allows: an epoch bump on
//!   a barrier the workers park on, not a `thread::scope` spawn.
//! * **One lane per shard** — each logical shard's state and round
//!   buffers (inbox, outbox, event buffer, actors, proposals, claims,
//!   candidate pools) live on its own
//!   [`Shard`](super::shard::Shard); every stage that mutates them
//!   runs over one [`ShardLane`] per shard and merges the lanes back in
//!   shard order (`BackupWorld::with_shard_lanes`). Only the grant logs,
//!   written by host shards and read across shards by owners, and the
//!   per-worker wheel-fire scratch sit beside the shards, in the
//!   [`RoundArena`].
//! * **Near-zero allocation** — every round buffer is cleared and
//!   reused across rounds, its capacity high-water-marked by earlier
//!   rounds. Recycling is observationally invisible;
//!   [`BackupWorld::set_arena_recycling`] is the debug knob the
//!   determinism tests flip to prove it.
//! * **A driver-free claim/grant exchange** — each owner shard stages
//!   its own claims as [`ClaimGroups`] (grouped by host shard,
//!   `(proposal, rank)` order within a group) inside the dispatch that
//!   built its proposals. Host shard `h` reads group `h` of owner
//!   shards `0..S` in order — global `(owner, archive, rank)` commit
//!   order, with no concatenation — and writes one grant/deny flag per
//!   claim into its [`GrantLog`], in reading order. The owner stage
//!   rebuilds each proposal's granted hosts by walking its ranks and
//!   taking the next flag from the log of `shard_of(pool[rank])`, one
//!   cursor per host shard: no routing, no sort.
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
//!    Each owner shard then stages its wave-A claims, ranks `0..d` of
//!    every proposal.
//! 4. **Commit, two-phase** (parallel): host shards **grant** the
//!    claims against shard-local quota, and each grant records its
//!    hosted entry and charges the quota on the spot (every grant is
//!    used); when wave A denied anything, owner shards stage one
//!    fallback wave and host shards grant it; owner shards then run
//!    the protocol step with exactly the granted partners, writing
//!    partner entries and events; host shards sort and apply the
//!    [`Msg::Release`]s of the partners that step displaced.
//!
//! [`WorldEvent`]: super::hooks::WorldEvent

use std::ops::Range;
use std::sync::atomic::Ordering;
use std::time::Instant;

use peerback_sim::arena::retype_empty;
use peerback_sim::exec::lap;
use peerback_sim::StageWork;

use crate::age::AgeCategory;
use crate::config::SimConfig;
use crate::metrics::Metrics;

use super::events::Event;
use super::peers::{ArchiveIdx, PeerId};
use super::shard::{Proposal, ShardLane, ShardLayout};
use super::table::PeerView;
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

/// Exact work of the shards' timing wheels so far. Execution-side
/// telemetry read through [`BackupWorld::wheel_work`], never part of
/// [`Metrics`]; every count is a pure function of the seed, identical
/// at any `shards` setting.
///
/// `stale / fired` is the share of fired events that did nothing: a
/// toggle or offline timeout superseded by a newer session run, or any
/// event of a slot recycled since it was armed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WheelWork {
    /// Events put on a wheel: those fired plus those still pending.
    pub scheduled: u64,
    /// Events the wheels fired.
    pub fired: u64,
    /// Fired events that failed their epoch, session-sequence or state
    /// check and were dropped.
    pub stale: u64,
}

/// Messages a message stage looks ahead to prefetch the state the next
/// one touches: far enough to hide a miss behind the current message's
/// work, near enough that the lines are still cached when it arrives.
const PREFETCH_AHEAD: usize = 2;

/// A cross-shard effect, addressed to the logical shard that owns the
/// state it touches. All block-drop *events* are emitted on the owner
/// side at the moment the partner entry leaves the owner's archive;
/// `Release` is pure host-side bookkeeping. (Claims and grants travel
/// through [`ClaimGroups`] and [`GrantLog`]s, and a grant writes its
/// hosted entry in place, so placements send no message at all.)
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

/// One claimed pool rank: the host it names and the claiming
/// proposal's index within its owner shard's list (the host shard
/// reads the owner, archive and observer flag from the proposal).
#[derive(Debug, Clone, Copy, Default)]
pub(in crate::world) struct Claim {
    host: PeerId,
    prop: u32,
}

/// One owner shard's claims of one commit wave, grouped by host shard:
/// `claims[starts[h]..starts[h + 1]]` are the claims on host shard `h`,
/// in `(proposal, rank)` order. Host shard `h` reads group `h` of owner
/// shards `0..S` in turn, which is global `(owner, archive, rank)`
/// commit order, because proposals are built per shard in owner order
/// and shard ranges are contiguous.
#[derive(Debug, Default)]
pub(in crate::world) struct ClaimGroups {
    claims: Vec<Claim>,
    /// `count + 1` group offsets; unset while `claims` is empty.
    starts: Vec<u32>,
}

impl ClaimGroups {
    /// Stages the claims of `props` over the pool ranks `ranks(prop)`,
    /// replacing the previous wave's: a counting sort by host shard.
    pub(in crate::world) fn stage(
        &mut self,
        layout: &ShardLayout,
        props: &[Proposal],
        ranks: fn(&Proposal) -> Range<usize>,
    ) {
        self.claims.clear();
        self.starts.clear();
        if props.iter().all(|prop| ranks(prop).is_empty()) {
            return;
        }
        self.starts.resize(layout.count + 1, 0);
        for prop in props {
            for &host in &prop.pool[ranks(prop)] {
                self.starts[layout.shard_of(host) + 1] += 1;
            }
        }
        for h in 0..layout.count {
            self.starts[h + 1] += self.starts[h];
        }
        // Scatter with `starts[h]` as group `h`'s write cursor; it ends
        // at the group's end, which is where group `h + 1` starts.
        self.claims
            .resize(self.starts[layout.count] as usize, Claim::default());
        for (pi, prop) in props.iter().enumerate() {
            for &host in &prop.pool[ranks(prop)] {
                let at = &mut self.starts[layout.shard_of(host)];
                self.claims[*at as usize] = Claim {
                    host,
                    prop: pi as u32,
                };
                *at += 1;
            }
        }
        self.starts.copy_within(0..layout.count, 1);
        self.starts[0] = 0;
    }

    /// The claims on host shard `h`, in commit order (only for staged,
    /// non-empty groups: `starts` is unset otherwise).
    fn group(&self, h: usize) -> &[Claim] {
        &self.claims[self.starts[h] as usize..self.starts[h + 1] as usize]
    }
}

/// Pool ranks a proposal claims in wave A: the first `d`.
pub(in crate::world) fn wave_a_ranks(prop: &Proposal) -> Range<usize> {
    0..(prop.d as usize).min(prop.pool.len())
}

/// Pool ranks a proposal claims in wave B: one fallback rank beyond the
/// wave-A window per wave-A denial (empty when nothing was denied or
/// the pool has no rank left).
fn wave_b_ranks(prop: &Proposal) -> Range<usize> {
    let denied = prop.wave_a_denied.load(Ordering::Relaxed) as usize;
    let start = (prop.d as usize).min(prop.pool.len());
    start..(prop.d as usize + denied).min(prop.pool.len())
}

/// One host shard's verdicts for one commit wave: a grant flag per
/// claim, in the order the shard read the claims, and where each owner
/// shard's group begins among them.
#[derive(Debug, Default)]
pub(in crate::world) struct GrantLog {
    granted: Vec<bool>,
    /// `granted[from_owner[o]..]` starts owner shard `o`'s verdicts;
    /// stale for an owner shard that staged no claim this wave.
    from_owner: Vec<u32>,
}

impl GrantLog {
    /// Appends to `hosts` the granted hosts among `pool_ranks`, taking
    /// each verdict from the log of the rank's host shard at that
    /// shard's cursor (`u32::MAX` = not yet positioned at `owner`'s
    /// group).
    fn take_granted(
        logs: &[GrantLog],
        layout: &ShardLayout,
        owner: usize,
        cursors: &mut [u32],
        pool_ranks: &[PeerId],
        hosts: &mut Vec<PeerId>,
    ) {
        for &host in pool_ranks {
            let h = layout.shard_of(host);
            let at = &mut cursors[h];
            if *at == u32::MAX {
                *at = logs[h].from_owner[owner];
            }
            if logs[h].granted[*at as usize] {
                hosts.push(host);
            }
            *at += 1;
        }
    }
}

/// The kinds of item the width rule prices, each at its measured
/// serial cost: a stage's busy time over its items ([`StageWork`]) with
/// every stage inline (`--shards 1`), over seeds 42 and 7 at 8192 peers
/// × 1900 rounds, and for redundancy scoring at 4096 peers × 2480
/// rounds under `learned-age` with `--adaptive-n 8`.
#[derive(Debug, Clone, Copy)]
pub(in crate::world) enum Item {
    /// A fresh peer initialised by the population ramp (370–560 ns).
    PeerInit,
    /// A release or drop, sorted and applied (250–310 ns).
    Msg,
    /// A peer slot evaluated by redundancy scoring's fill stage
    /// (30–37 ns).
    SlotFill,
    /// A peer slot whose archives the gather stage scores (≈ 330 ns).
    SlotScore,
    /// An actor whose candidate pools the proposal stage builds
    /// (23–32 µs).
    Actor,
    /// A claim staged (≈ 20 ns), or granted or denied (25–50 ns).
    Claim,
    /// A proposal the owner stage commits (3.0–3.5 µs).
    Proposal,
}

impl Item {
    /// Serial nanoseconds per item.
    pub(in crate::world) const fn ns(self) -> u64 {
        match self {
            Item::PeerInit => 500,
            Item::Msg => 300,
            Item::SlotFill => 35,
            Item::SlotScore => 330,
            Item::Actor => 25_000,
            Item::Claim => 30,
            Item::Proposal => 3_500,
        }
    }
}

/// The round buffers that belong to no one shard (each shard's own live
/// on its [`Shard`](super::shard::Shard)): the grant logs, which host
/// shards write and owner shards read across shards, the per-worker
/// wheel-fire scratch and the parked backing storage of the stage lane
/// vectors. Cleared-and-reused across rounds; with recycling off
/// ([`BackupWorld::set_arena_recycling`]) every round starts from fresh
/// vectors — the knob the determinism tests flip.
pub(in crate::world) struct RoundArena {
    pub(in crate::world) recycle: bool,
    /// The owner shards with claims in the wave being granted, in
    /// order: what each host shard walks.
    pub(in crate::world) active: Vec<u32>,
    /// Per-host-shard verdicts of wave A and of wave B.
    pub(in crate::world) grant_logs: [Vec<GrantLog>; 2],
    /// Per-worker wheel-fire scratch for the local-events stage.
    pub(in crate::world) fire_bufs: Vec<Vec<Event>>,
    /// Recycled backing storage for the per-stage lane vectors. The
    /// element types borrow round-local state, so the capacity is
    /// parked between rounds under a `'static` instantiation and
    /// re-typed for each round's borrows
    /// ([`peerback_sim::arena::retype_empty`]); the vectors themselves
    /// are always empty here.
    pub(in crate::world) lane_store: Vec<ShardLane<'static>>,
    pub(in crate::world) grant_task_store: Vec<GrantTask<'static>>,
}

impl RoundArena {
    pub(in crate::world) fn new(shards: usize) -> Self {
        RoundArena {
            recycle: true,
            active: Vec::new(),
            grant_logs: [0, 1].map(|_| (0..shards).map(|_| GrantLog::default()).collect()),
            fire_bufs: Vec::new(),
            lane_store: Vec::new(),
            grant_task_store: Vec::new(),
        }
    }

    /// Drops every retained buffer's capacity.
    fn wipe(&mut self) {
        self.active = Vec::new();
        for log in self.grant_logs.iter_mut().flatten() {
            *log = GrantLog::default();
        }
        self.fire_bufs = Vec::new();
        self.lane_store = Vec::new();
        self.grant_task_store = Vec::new();
    }
}

/// A grant-stage task: one host shard's columns of the peer table (its
/// hosted ledgers and quota counters) and its verdict log, plus the
/// counts the driver sums.
pub(in crate::world) struct GrantTask<'a> {
    peers: PeerView<'a>,
    log: &'a mut GrantLog,
    granted: u64,
    denied: u64,
}

impl ShardLane<'_> {
    /// Sorts the shard's inbox into the deterministic in-shard order and
    /// applies it. Sorting here, not while routing, puts the sort on
    /// the stage's workers instead of the driver thread.
    fn apply_inbox(&mut self, cfg: &SimConfig, round: u64) {
        let mut inbox = core::mem::take(&mut self.shard.inbox);
        inbox.sort_unstable_by_key(Msg::sort_key);
        for i in 0..inbox.len() {
            if let Some(&ahead) = inbox.get(i + PREFETCH_AHEAD) {
                match ahead {
                    Msg::Release { host, .. } => self.peers.prefetch_ledger(host),
                    Msg::Drop { owner, aidx, .. } => {
                        self.peers.prefetch_partners(owner, aidx as usize)
                    }
                }
            }
            match inbox[i] {
                Msg::Release {
                    host,
                    owner,
                    aidx,
                    owner_observer,
                } => self.apply_release(host, owner, aidx, owner_observer),
                Msg::Drop { owner, aidx, host } => self.apply_drop(cfg, owner, aidx, host, round),
            }
        }
        inbox.clear();
        self.shard.inbox = inbox;
    }

    /// The owner stage on owner shard `o`: walks the shard's proposals
    /// and rebuilds each one's granted hosts from the grant logs — rank
    /// by rank, wave A then wave B, the next verdict of the rank's host
    /// shard — then runs the protocol step and returns the pool to the
    /// shard's free list.
    fn commit_owned(
        &mut self,
        o: usize,
        cfg: &SimConfig,
        layout: &ShardLayout,
        [logs_a, logs_b]: &[Vec<GrantLog>; 2],
        round: u64,
    ) {
        if self.shard.proposals.is_empty() {
            return;
        }
        let mut props = core::mem::take(&mut self.shard.proposals);
        let mut hosts = core::mem::take(&mut self.shard.hosts);
        self.shard.cursors.clear();
        self.shard.cursors.resize(2 * layout.count, u32::MAX);
        #[cfg(test)]
        let expected = core::mem::take(&mut self.shard.expected_hosts);
        #[cfg(test)]
        let mut expected = expected.iter();
        for prop in props.drain(..) {
            hosts.clear();
            let (cursors_a, cursors_b) = self.shard.cursors.split_at_mut(layout.count);
            let (a, b) = (wave_a_ranks(&prop), wave_b_ranks(&prop));
            GrantLog::take_granted(logs_a, layout, o, cursors_a, &prop.pool[a], &mut hosts);
            GrantLog::take_granted(logs_b, layout, o, cursors_b, &prop.pool[b], &mut hosts);
            #[cfg(test)]
            assert_eq!(
                Some(&hosts),
                expected.next(),
                "owner {} archive {}: granted hosts differ from the reference",
                prop.owner,
                prop.aidx
            );
            self.commit_step(cfg, &prop, &hosts, round);
            self.shard.pools.put(prop.pool);
        }
        self.shard.proposals = props;
        self.shard.hosts = hosts;
    }
}

impl BackupWorld {
    /// Called at the end of every round: with recycling off, drop every
    /// retained round buffer so rounds cannot share capacity (let alone
    /// contents); with recycling on this is a no-op — the buffers were
    /// emptied by the stages that consumed them.
    pub(in crate::world) fn end_round(&mut self) {
        if !self.arena.recycle {
            self.arena.wipe();
            for shard in &mut self.shards {
                shard.drop_round_buffers();
            }
        }
    }

    /// Drains every shard's outbox into the destination shards' inboxes
    /// (in shard order, preserving per-destination emission order) and
    /// returns the number of messages routed. The inboxes are left
    /// unsorted: each lane sorts its own inside the dispatched stage.
    /// No allocation in the steady state.
    fn route_outboxes(&mut self) -> usize {
        let layout = self.layout;
        let mut total = 0usize;
        for s in 0..layout.count {
            if self.shards[s].out.is_empty() {
                continue;
            }
            let mut out = core::mem::take(&mut self.shards[s].out);
            total += out.len();
            for msg in out.drain(..) {
                self.shards[msg.dest(&layout)].inbox.push(msg);
            }
            self.shards[s].out = out;
        }
        self.placement.msgs_routed += total as u64;
        total
    }

    /// Routes the pending outboxes and runs one message-apply stage
    /// over them: a deliver wave (releases and drops) or the commit's
    /// apply stage (releases only). Returns the stage's work, whose
    /// items are the messages applied (0 = the stage was skipped).
    fn run_msg_stage(&mut self, salt: u64, round: u64) -> StageWork {
        let total = self.route_outboxes();
        if total == 0 {
            return StageWork::default();
        }
        let busy = self.shards.iter().filter(|s| !s.inbox.is_empty()).count();
        let policy = self.exec.narrowed(Item::Msg.ns(), busy, total);
        self.with_shard_lanes(|lanes, cfg, _| {
            policy.dispatch(salt, lanes, |_, lane| lane.apply_inbox(cfg, round))
        })
    }

    /// Stage 2 (+3): applies the deliver waves — releases and drops, in
    /// sorted order per shard — then the release-only survivor wave a
    /// loss may generate. Input is whatever the local-events stage left
    /// in the shards' outboxes; `round` is the current round (loss
    /// accounting).
    pub(in crate::world) fn run_deliver(&mut self, round: u64) {
        for salt in 0..2u64 {
            let work = self.run_msg_stage(round * 16 + 2 + salt, round);
            if work.items == 0 {
                return;
            }
            self.profile.deliver_work += work;
        }
        debug_assert!(
            self.shards.iter().all(|s| s.out.is_empty()),
            "survivor releases generated further messages"
        );
    }

    /// Stages 4–7: the two-phase commit over the proposals and wave-A
    /// claims the proposal stage left in the shards.
    pub(in crate::world) fn commit_proposals(&mut self, round: u64) {
        if self.shards.iter().all(|s| s.proposals.is_empty()) {
            return;
        }
        #[cfg(test)]
        for (hosts, shard) in self.reference_grants().into_iter().zip(&mut self.shards) {
            shard.expected_hosts = hosts;
        }

        // Phase 1 (propose): host shards grant the staged wave-A
        // claims; if they denied any, owner shards top the denied
        // proposals up with one fallback wave.
        let mut clock = Instant::now();
        let denied = self.grant_stage(round * 16 + 4, 0);
        self.profile.commit_grant += lap(&mut clock);
        if denied > 0 {
            self.stage_wave_b_claims(round * 16 + 9, denied);
            self.grant_stage(round * 16 + 5, 1);
        }
        self.profile.commit_wave_b += lap(&mut clock);

        // Phase 2 (ack/apply): owner shards run the protocol step with
        // exactly the granted partners, then host shards apply the
        // releases of the partners those steps displaced.
        self.commit_owner_stage(round);
        self.profile.commit_owner += lap(&mut clock);
        let work = self.run_msg_stage(round * 16 + 7, round);
        self.profile.apply_work += work;
        self.profile.commit_apply += lap(&mut clock);
        debug_assert!(
            self.shards.iter().all(|s| s.out.is_empty()),
            "apply stage generated messages"
        );
    }

    /// Stages the wave-B claims in every owner shard: for each proposal
    /// wave A denied `j` ranks, the next `j` pool ranks beyond the
    /// wave-A window ([`wave_b_ranks`]). `denied` (the wave-A denial
    /// total, an upper bound on the claims) sizes the dispatch.
    fn stage_wave_b_claims(&mut self, salt: u64, denied: u64) {
        let layout = self.layout;
        let policy = self
            .exec
            .narrowed(Item::Claim.ns(), layout.count, denied as usize);
        self.profile.wave_b_work += policy.dispatch(salt, &mut self.shards, |_, shard| {
            shard.claims.stage(&layout, &shard.proposals, wave_b_ranks);
        });
    }

    /// One grant stage over the staged claims of `wave` (0 = A,
    /// 1 = B): each host shard reads its group of every owner shard's
    /// claims, in owner-shard order, and grants against its live
    /// quota. Every grant is used (a proposal is never granted more
    /// than its `d`), so the grant itself is the host-side half of the
    /// placement: it records the hosted entry and charges the quota
    /// (observer-owned blocks are exempt, §4.2.2) — the charge is what
    /// later claims of the same round, wave B included, are checked
    /// against. Each verdict lands in the host shard's [`GrantLog`];
    /// wave-A denials also count on their proposal, which sizes its
    /// wave-B window. Returns the number of claims denied.
    fn grant_stage(&mut self, salt: u64, wave: usize) -> u64 {
        let layout = self.layout;
        let quota = self.cfg.quota;
        let BackupWorld {
            peers,
            shards,
            arena,
            exec,
            placement,
            profile,
            ..
        } = self;
        arena.active.clear();
        let mut work = 0;
        for (o, shard) in shards.iter().enumerate() {
            if !shard.claims.claims.is_empty() {
                arena.active.push(o as u32);
                work += shard.claims.claims.len();
            }
        }
        placement.claims += work as u64;
        let mut tasks: Vec<GrantTask<'_>> =
            retype_empty(core::mem::take(&mut arena.grant_task_store));
        let mut split = peers.splitter();
        for log in &mut arena.grant_logs[wave] {
            tasks.push(GrantTask {
                peers: split.take(layout.shard_size),
                log,
                granted: 0,
                denied: 0,
            });
        }
        let policy = exec.narrowed(Item::Claim.ns(), layout.count, work);
        let shards = &*shards;
        let active = &arena.active;
        let stage_work = policy.dispatch(salt, &mut tasks, |h, task| {
            let log = &mut *task.log;
            log.granted.clear();
            log.from_owner.resize(layout.count, 0);
            for &o in active {
                let owner = &shards[o as usize];
                log.from_owner[o as usize] = log.granted.len() as u32;
                for claim in owner.claims.group(h) {
                    let prop = &owner.proposals[claim.prop as usize];
                    let host = claim.host;
                    debug_assert_eq!(layout.shard_of(host), h, "misgrouped claim");
                    debug_assert!(
                        task.peers.online(host),
                        "claims target frozen-online candidates"
                    );
                    let used = task.peers.quota_used(host);
                    // Full, counting this round's earlier grants.
                    let grant = used < quota;
                    log.granted.push(grant);
                    if !grant {
                        task.denied += 1;
                        if wave == 0 {
                            prop.wave_a_denied.fetch_add(1, Ordering::Relaxed);
                        }
                        continue;
                    }
                    task.granted += 1;
                    task.peers.push_hosted(host, prop.owner, prop.aidx);
                    if !prop.owner_observer {
                        task.peers.set_quota_used(host, used + 1);
                    }
                }
            }
        });
        if wave == 0 {
            profile.grant_work += stage_work;
        } else {
            profile.wave_b_work += stage_work;
        }
        let mut denied = 0;
        for task in tasks.drain(..) {
            placement.grants += task.granted;
            denied += task.denied;
        }
        arena.grant_task_store = retype_empty(tasks);
        denied
    }

    /// The owner half of phase 2: every owner shard commits its
    /// proposals with the hosts the grant logs awarded them
    /// ([`ShardLane::commit_owned`]); releases of displaced partners
    /// land in the outboxes for the apply stage.
    fn commit_owner_stage(&mut self, round: u64) {
        let busy = self
            .shards
            .iter()
            .filter(|s| !s.proposals.is_empty())
            .count();
        let items = self.shards.iter().map(|s| s.proposals.len()).sum();
        let policy = self.exec.narrowed(Item::Proposal.ns(), busy, items);
        let layout = self.layout;
        // The lanes borrow the world mutably; the logs they read
        // leave it for the stage.
        let logs = core::mem::take(&mut self.arena.grant_logs);
        let work = self.with_shard_lanes(|lanes, cfg, _| {
            policy.dispatch(round * 16 + 6, lanes, |o, lane| {
                lane.commit_owned(o, cfg, &layout, &logs, round);
            })
        });
        self.profile.owner_work += work;
        self.arena.grant_logs = logs;
    }
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

#[cfg(test)]
mod tests {
    use peerback_sim::exec::BREAK_EVEN_NS;
    use peerback_sim::ExecPolicy;

    use super::*;

    #[test]
    fn stages_go_wide_past_the_break_even() {
        let exec = ExecPolicy::new(4);
        for item in [
            Item::PeerInit,
            Item::Msg,
            Item::SlotFill,
            Item::SlotScore,
            Item::Actor,
            Item::Claim,
            Item::Proposal,
        ] {
            // The most items whose serial time is within the break-even.
            let inline = (BREAK_EVEN_NS / item.ns()) as usize;
            let width = |items| exec.narrowed(item.ns(), 8, items).workers();
            assert_eq!((width(inline), width(inline + 1)), (1, 4), "{item:?}");
        }
    }

    /// A delta with every field distinct and non-zero. Exhaustive, so a
    /// new field does not compile until it is listed here.
    fn distinct_delta() -> MetricsDelta {
        MetricsDelta {
            repairs: [1, 2, 3, 4],
            losses: [5, 6, 7, 8],
            departures: 9,
            session_toggles: 10,
            partner_timeouts: 11,
            joins_completed: 12,
            pool_shortfalls: 13,
            blocks_uploaded: 14,
            blocks_downloaded: 15,
            threshold_adjustments: 16,
            outage_disconnects: 17,
            quarantine_evictions: 18,
        }
    }

    #[test]
    fn merge_delta_carries_every_field() {
        let delta = distinct_delta();
        let mut merged = MetricsDelta::default();
        merge_delta(&mut merged, &delta);
        assert_eq!(format!("{merged:?}"), format!("{delta:?}"));
    }

    #[test]
    fn metrics_delta_lands_each_field_in_its_metric() {
        let mut delta = distinct_delta();
        let mut metrics = Metrics::new();
        delta.apply(&mut metrics);
        let mut expected = Metrics::new();
        for c in 0..AgeCategory::COUNT {
            expected.repairs[c] = 1 + c as u64;
            expected.losses[c] = 5 + c as u64;
        }
        let d = &mut expected.diag;
        d.departures = 9;
        d.session_toggles = 10;
        d.partner_timeouts = 11;
        d.joins_completed = 12;
        d.pool_shortfalls = 13;
        d.blocks_uploaded = 14;
        d.blocks_downloaded = 15;
        d.threshold_adjustments = 16;
        d.outage_disconnects = 17;
        d.quarantine_evictions = 18;
        assert_eq!(metrics, expected);
        assert_eq!(
            format!("{delta:?}"),
            format!("{:?}", MetricsDelta::default())
        );
    }

    #[test]
    fn placement_work_absorb_carries_every_field() {
        let work = PlacementWork {
            pool_builds: 1,
            candidates_sampled: 2,
            candidates_accepted: 3,
            claims: 4,
            grants: 5,
            msgs_routed: 6,
        };
        let mut total = PlacementWork::default();
        total.absorb(work);
        assert_eq!(total, work);
    }
}
