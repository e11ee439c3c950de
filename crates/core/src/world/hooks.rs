//! Fabric hooks: the event stream binding the simulated world to a
//! byte-level data plane.
//!
//! The simulator decides *placement* (which peer hosts which block);
//! the `peerback-fabric` crate moves *real bytes* along those
//! decisions. The coupling is one-directional and observational: the
//! world emits a [`WorldEvent`] at every block-level state change, and
//! the fabric drains the log once per round with
//! [`BackupWorld::swap_event_buf`], replaying the changes against a
//! real block store. The read accessors below let the two halves
//! cross-check each other (see the `peerback-fabric` auditor).
//!
//! Recording is off by default and costs one branch per mutation; no
//! allocation happens unless [`BackupWorld::set_event_recording`] has
//! enabled the log.
//!
//! ## Event ordering contract
//!
//! Events are emitted in mutation order within a round, with two
//! guarantees observers may rely on:
//!
//! 1. Any [`WorldEvent::BlockDropped`] caused by stale-partner
//!    displacement precedes the [`WorldEvent::BlocksPlaced`] of the
//!    same repair step, so at placement time the archive never holds
//!    more than `n` blocks and a free shard index always exists.
//! 2. [`WorldEvent::ArchiveLost`] is emitted *before* the surviving
//!    partner entries of the lost archive are dropped, so an observer
//!    can attempt a real decode with exactly the blocks the simulator
//!    saw at loss time (necessarily fewer than `k`).

use super::peers::PeerId;
use super::BackupWorld;

/// Per-peer heap composition measured by
/// [`BackupWorld::memory_breakdown`], in bytes per allocated slot.
///
/// Memory telemetry for the perf gate's advisory `mem` check: when the
/// total drifts past the watchline, these components say *which*
/// collection grew. Like the total, the figures depend on allocator
/// growth policy and are never part of the determinism contract.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MemoryBreakdown {
    /// The per-peer scalar columns of the struct-of-arrays table
    /// (session, quota, lifetime and counter columns).
    pub peer_table: f64,
    /// The online-position index maintained for O(1) presence updates.
    pub online_index: f64,
    /// The hosted-block slab (fixed stride of packed `(owner, archive)`
    /// entries per slot, scales with quota) plus its length column.
    pub hosted_ledgers: f64,
    /// Per-archive state columns (flags, targets, list lengths).
    pub archive_states: f64,
    /// The partner slab: one fixed `n`-entry stride per archive holding
    /// the fresh partners and displaced stale partners.
    pub partner_lists: f64,
}

impl MemoryBreakdown {
    /// Sum of all components: the bytes per peer slot that
    /// [`BackupWorld::memory_breakdown`] measures.
    pub fn total(&self) -> f64 {
        self.peer_table
            + self.online_index
            + self.hosted_ledgers
            + self.archive_states
            + self.partner_lists
    }
}

/// One block-level state change in the simulated world.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorldEvent {
    /// New partners were attached to an archive: one block must be
    /// shipped to each listed host, in order.
    BlocksPlaced {
        /// Owning peer slot.
        owner: PeerId,
        /// Archive index within the owner.
        archive: u8,
        /// Hosts that each received one (simulated) block.
        hosts: Vec<PeerId>,
    },
    /// A block left the network: its host departed, timed out, or was
    /// displaced by a refreshing repair.
    BlockDropped {
        /// Owning peer slot.
        owner: PeerId,
        /// Archive index within the owner.
        archive: u8,
        /// Host whose copy vanished.
        host: PeerId,
    },
    /// An archive finished its initial upload: all `target_n` blocks
    /// placed (`n` unless adaptive redundancy trimmed the archive).
    JoinCompleted {
        /// Owning peer slot.
        owner: PeerId,
        /// Archive index within the owner.
        archive: u8,
        /// Blocks placed at join time.
        blocks: u32,
    },
    /// A repair episode opened: the owner pays the `k`-block decode.
    EpisodeStarted {
        /// Owning peer slot.
        owner: PeerId,
        /// Archive index within the owner.
        archive: u8,
        /// Whether the episode re-encodes the whole code word
        /// (`SimConfig::refresh_on_repair`) rather than only missing
        /// blocks.
        refresh: bool,
    },
    /// A repair episode closed with all `n` blocks back in place.
    EpisodeCompleted {
        /// Owning peer slot.
        owner: PeerId,
        /// Archive index within the owner.
        archive: u8,
    },
    /// The archive's network copy became unrecoverable (`present < k`).
    /// Emitted while the surviving partner entries are still attached.
    ArchiveLost {
        /// Owning peer slot.
        owner: PeerId,
        /// Archive index within the owner.
        archive: u8,
        /// Round at which the loss was recorded.
        round: u64,
    },
    /// The peer definitively left; its slot is about to be recycled
    /// with a bumped epoch. All of its blocks (owned and hosted) have
    /// already been dropped via [`WorldEvent::BlockDropped`].
    PeerDeparted {
        /// Recycled peer slot.
        peer: PeerId,
    },
}

impl BackupWorld {
    /// Enables or disables event recording. While disabled (the
    /// default), emission is a single predicted branch per mutation.
    pub fn set_event_recording(&mut self, enabled: bool) {
        self.record_events = enabled;
        if !enabled {
            self.event_log.clear();
        }
    }

    /// Swaps the buffered events into `buf` (cleared first), in
    /// emission order, handing the world `buf`'s old allocation for the
    /// next round — the world's one event drain.
    pub fn swap_event_buf(&mut self, buf: &mut Vec<WorldEvent>) {
        buf.clear();
        core::mem::swap(buf, &mut self.event_log);
    }

    /// The width policy and persistent worker pool the round stages
    /// dispatch through. Shared so the fabric's lane replay rides the
    /// same parked threads, priced by the same rule.
    pub fn exec(&self) -> &peerback_sim::ExecPolicy {
        &self.exec
    }

    /// Test hook: forces every stage dispatch — the world's and any
    /// replay through [`exec`](Self::exec) — to execute its tasks
    /// sequentially in a seeded random order
    /// ([`ExecPolicy::set_fuzz`](peerback_sim::ExecPolicy::set_fuzz)).
    pub fn set_exec_fuzz(&mut self, seed: Option<u64>) {
        self.exec.set_fuzz(seed);
    }

    /// Stage dispatches that actually woke the worker pool so far
    /// (inline single-worker stages cost no wake-up and are not
    /// counted). Execution telemetry — varies with `shards`, never part
    /// of the determinism contract.
    pub fn stage_dispatches(&self) -> u64 {
        self.exec.pool().dispatches()
    }

    /// Exact work counters of the adaptive-redundancy scoring stage
    /// (all zero unless `adaptive_n` is enabled). Execution-side
    /// telemetry like [`stage_dispatches`](Self::stage_dispatches) —
    /// kept out of [`Metrics`](crate::metrics::Metrics) — but unlike it
    /// a pure function of the seed.
    pub fn redundancy_work(&self) -> super::RedundancyWork {
        self.redundancy.work
    }

    /// Exact work counters of the placement pipeline — pools built,
    /// candidates sampled and accepted, ranks claimed and granted,
    /// messages routed. Execution-side telemetry beside
    /// [`redundancy_work`](Self::redundancy_work): kept out of
    /// [`Metrics`](crate::metrics::Metrics), a pure function of the
    /// seed.
    pub fn placement_work(&self) -> super::PlacementWork {
        self.placement
    }

    /// Exact work counters of the shards' timing wheels — events
    /// scheduled, fired, and fired stale — summed over shards.
    /// Execution-side telemetry beside
    /// [`placement_work`](Self::placement_work): kept out of
    /// [`Metrics`](crate::metrics::Metrics), a pure function of the
    /// seed.
    pub fn wheel_work(&self) -> super::WheelWork {
        let mut total = super::WheelWork::default();
        for shard in &self.shards {
            total.fired += shard.fired;
            total.stale += shard.stale;
            // Nothing leaves a wheel but by firing.
            total.scheduled += shard.fired + shard.wheel.len() as u64;
        }
        total
    }

    /// Accumulated wall time of every round stage so far (see
    /// [`RoundProfile`](super::RoundProfile)) — where the rounds' time
    /// went. Always on; execution-side telemetry like
    /// [`stage_dispatches`](Self::stage_dispatches), varying from run
    /// to run, so never part of [`Metrics`](crate::metrics::Metrics).
    pub fn round_profile(&self) -> super::RoundProfile {
        self.profile
    }

    /// Enables or disables cross-round arena recycling (on by
    /// default). Disabling drops every retained round buffer now and at
    /// the end of every later round, so each round starts from fresh
    /// vectors. Recycling is observationally invisible — this knob
    /// exists so tests can run the same seed both ways and assert
    /// bit-identical results, proving no state leaks between rounds
    /// through the recycled buffers.
    pub fn set_arena_recycling(&mut self, on: bool) {
        self.arena.recycle = on;
        for shard in &mut self.shards {
            shard.pools.set_recycle(on);
        }
        if !on {
            self.end_round();
        }
    }

    /// Number of logical shards the peer table is partitioned into (a
    /// pure function of the configured capacity).
    pub fn logical_shards(&self) -> usize {
        self.layout.count
    }

    /// The logical shard owning peer `slot` — the same partition the
    /// simulator's parallel stages key on, exposed so a fabric can
    /// shard its stores identically.
    pub fn shard_of_peer(&self, slot: PeerId) -> usize {
        self.layout.shard_of(slot)
    }

    /// The currently allocated slot range of logical shard `shard`
    /// (empty before round 0 spawns the population).
    pub fn shard_slot_range(&self, shard: usize) -> core::ops::Range<PeerId> {
        let sz = self.layout.shard_size;
        let start = (shard * sz).min(self.peers.len());
        let end = ((shard + 1) * sz).min(self.peers.len());
        start as PeerId..end as PeerId
    }

    /// Heap footprint per allocated peer slot, in bytes, by component:
    /// the peer table's scalar and per-archive columns plus the
    /// fixed-stride slabs that scale with `n` and quota — partner/stale
    /// lists and hosted ledgers — and the online index, so a footprint
    /// regression points at the collection that grew. Exact: every
    /// component is a fixed-size column or slab sized by the
    /// configuration, so the figure does not vary with the allocator.
    /// Memory telemetry for the perf gate's hard budget (`perf_gate mem
    /// --fail-above`, on [`MemoryBreakdown::total`]); never part of the
    /// determinism contract.
    pub fn memory_breakdown(&self) -> MemoryBreakdown {
        if self.peers.is_empty() {
            return MemoryBreakdown::default();
        }
        let slots = self.peers.len() as f64;
        MemoryBreakdown {
            peer_table: self.peers.scalar_column_bytes() as f64 / slots,
            online_index: (self.online_pos.capacity() * core::mem::size_of::<u32>()) as f64 / slots,
            hosted_ledgers: self.peers.hosted_slab_bytes() as f64 / slots,
            archive_states: self.peers.archive_column_bytes() as f64 / slots,
            partner_lists: self.peers.partner_slab_bytes() as f64 / slots,
        }
    }

    // (Event emission lives on the stage lanes — `ShardLane::emit` —
    // whose per-shard buffers merge in shard order; the world itself
    // only stores the merged log.)

    // ----- read accessors for fabric cross-checks --------------------------

    /// Whether the peer in `slot` is currently online.
    pub fn peer_online(&self, slot: PeerId) -> bool {
        self.peers.online(slot)
    }

    /// The availability (fraction of time online) of the peer's hidden
    /// behaviour profile. Observers report 1.0 (always online).
    pub fn peer_availability(&self, slot: PeerId) -> f64 {
        if self.peers.observer(slot).is_some() {
            return 1.0;
        }
        self.cfg
            .profiles
            .profile(self.peers.profile(slot) as usize)
            .availability
    }

    /// Whether `(owner, archive)` finished its initial upload.
    pub fn archive_joined(&self, owner: PeerId, archive: u8) -> bool {
        self.peers.joined(owner, archive as usize)
    }

    /// The hosts currently holding one block each of `(owner, archive)`
    /// — fresh and stale partners alike, in no particular order.
    pub fn archive_hosts(&self, owner: PeerId, archive: u8) -> Vec<PeerId> {
        let a = archive as usize;
        (0..self.peers.present(owner, a) as usize)
            .map(|i| self.peers.host_at(owner, a, i))
            .collect()
    }

    /// How many of the archive's blocks sit on currently-online hosts —
    /// the simulator's instantaneous restorability predicate for one
    /// archive (compare with [`crate::metrics::Metrics::restorability`],
    /// which aggregates `online_present >= k` over all joined archives).
    pub fn archive_online_present(&self, owner: PeerId, archive: u8) -> u32 {
        let a = archive as usize;
        (0..self.peers.present(owner, a) as usize)
            .map(|i| self.peers.host_at(owner, a, i))
            .filter(|&h| self.peers.online(h))
            .count() as u32
    }

    // ----- the reputation ledger (fabric feedback channel) -----------------

    /// Feeds detected integrity failures (failed challenge-response
    /// probes, scrub-detected corruption) into the per-host reputation
    /// ledger. `hosts` must be in a deterministic order — the fabric
    /// merges its per-lane detections in lane order before calling —
    /// and may contain repeats (each counts as one strike).
    ///
    /// A host crossing [`SimConfig::quarantine_threshold`] strikes is
    /// quarantined: the flag keeps it out of every future candidate
    /// pool, and an eviction event scheduled for `round + 1` writes its
    /// hosted blocks off through the normal two-hop teardown, so the
    /// affected owners repair through the ordinary machinery. With the
    /// threshold at `0` (the default) the ledger is inert: strikes
    /// accumulate in the suspicion column but nothing is ever
    /// quarantined.
    ///
    /// [`SimConfig::quarantine_threshold`]: crate::config::SimConfig::quarantine_threshold
    pub fn report_integrity_failures(&mut self, round: u64, hosts: &[PeerId]) {
        let threshold = self.cfg.quarantine_threshold;
        for &id in hosts {
            if self.peers.observer(id).is_some() || self.peers.quarantined(id) {
                continue;
            }
            let strikes = self.peers.bump_suspicion(id);
            if threshold > 0 && strikes >= threshold {
                self.peers.set_quarantined(id, true);
                self.quarantine_log.push((id, round));
                self.metrics.diag.hosts_quarantined += 1;
                let epoch = self.peers.epoch(id);
                self.schedule_for(
                    id,
                    peerback_sim::Round(round + 1),
                    super::events::Event::Quarantine { peer: id, epoch },
                );
            }
        }
    }

    /// The `(peer, round)` log of quarantine decisions, in decision
    /// order. Slots may repeat across epochs (a replacement peer in a
    /// recycled slot can be quarantined again).
    pub fn quarantine_log(&self) -> &[(PeerId, u64)] {
        &self.quarantine_log
    }
}
