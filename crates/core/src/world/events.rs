//! The scheduled-event queue and the **two-hop** departure / offline-
//! timeout teardown.
//!
//! Every event carries the `epoch` of the peer slot it was scheduled
//! for; a mismatch at fire time means the slot was recycled (the peer
//! departed and was replaced) and the event is silently dropped.
//! Offline timeouts additionally carry the `session_seq` of the offline
//! run they were armed for, so a reconnection invalidates them without
//! any queue surgery.
//!
//! An offline timeout is armed only when it can fire
//! ([`ShardLane::arm_offline_timeout`]): when the run's sampled length
//! exceeds `offline_timeout`, or when failure domains are configured.
//! Without domains, a run of at most `offline_timeout` rounds ends in a
//! reconnection that bumps `session_seq` no later than the timer's
//! round — on that very round the `Toggle` sorts before the timeout —
//! and nothing else bumps an offline peer's sequence, so such a timer
//! would only ever fire stale. An outage can defer a reconnection past
//! its sampled round, so with domains every timer is armed. Test builds
//! keep the skipped timers on a side wheel and assert that each one
//! would have fired stale.
//!
//! Deaths and offline timeouts used to run in a sequential cross-shard
//! pass; they now split along the shard boundary:
//!
//! * **Hop 1** (here, on the owning [`ShardLane`], parallel): validate
//!   the event, tear down the slot's *own* state — archives emptied,
//!   hosted ledger cleared, the departed slot recycled and re-seeded
//!   from the shard RNG — and convert every cross-shard side effect
//!   into a [`Msg`]: a [`Msg::Release`] to each partner that hosted one
//!   of the dying peer's blocks, a [`Msg::Drop`] to the owner of each
//!   block the peer hosted.
//! * **Hop 2** ([`ShardLane::apply_drop`] / `apply_release`, on the
//!   destination shard's lane, parallel): prune the remote ends, count
//!   losses the instant `present < k`, and re-enqueue owners that fell
//!   below their threshold. Entries already torn down by the *other* end's hop 1 in
//!   the same round are skipped silently — the block-drop event was (or
//!   will be) emitted exactly once, always on the owner side.

use peerback_churn::SessionSampler;
use peerback_sim::Round;

use crate::config::{MaintenancePolicy, SimConfig};

use super::exec::Msg;
use super::hooks::WorldEvent;
use super::peers::{ArchiveIdx, PeerId};
use super::shard::ShardLane;
use super::BackupWorld;

/// Scheduled future events. Events carry the epoch of the peer they were
/// scheduled for; a mismatch means the peer departed in the meantime and
/// the event is stale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(in crate::world) enum Event {
    /// The peer definitively leaves the system.
    Death {
        /// Affected peer slot.
        peer: PeerId,
        /// Slot epoch the event was armed for.
        epoch: u32,
    },
    /// The peer's session flips between online and offline.
    Toggle {
        /// Affected peer slot.
        peer: PeerId,
        /// Slot epoch the event was armed for.
        epoch: u32,
        /// Session sequence the flip was armed for. A forced transition
        /// (a regional outage cutting the session short) bumps the
        /// sequence, invalidating the superseded flip without any queue
        /// surgery — exactly the offline-timeout staleness scheme. In a
        /// domain-free run nothing but toggles bump the sequence, so
        /// the check never fails and behaviour is unchanged.
        seq: u32,
    },
    /// The peer has been offline for the full monitoring timeout: its
    /// hosted blocks are written off (valid only if `seq` still matches
    /// the offline session it was scheduled for).
    OfflineTimeout {
        /// Affected peer slot.
        peer: PeerId,
        /// Slot epoch the event was armed for.
        epoch: u32,
        /// Session sequence number of the offline run.
        seq: u32,
    },
    /// The peer crosses an age-category boundary.
    CatAdvance {
        /// Affected peer slot.
        peer: PeerId,
        /// Slot epoch the event was armed for.
        epoch: u32,
    },
    /// Proactive-maintenance tick (only with `MaintenancePolicy::Proactive`).
    ProactiveTick {
        /// Affected peer slot.
        peer: PeerId,
        /// Slot epoch the event was armed for.
        epoch: u32,
    },
    /// The host crossed the reputation ledger's quarantine threshold:
    /// its hosted blocks are evicted (written off through the normal
    /// two-hop teardown, re-entering the repair machinery) and the
    /// quarantined flag keeps it out of every future candidate pool.
    Quarantine {
        /// Affected peer slot.
        peer: PeerId,
        /// Slot epoch the event was armed for.
        epoch: u32,
    },
}

impl ShardLane<'_> {
    /// Hop 1 of a departure (§4.1: blocks vanish immediately, the peer
    /// is immediately replaced). Strictly shard-local plus messages.
    pub(in crate::world) fn process_death_local(
        &mut self,
        id: PeerId,
        round: u64,
        cfg: &SimConfig,
        samplers: &[SessionSampler],
    ) {
        debug_assert!(self.peers.observer(id).is_none());
        self.delta.departures += 1;
        // Quarantined hosts are censored out of the survival model:
        // their "lifetime" ended by eviction, not by the churn process,
        // and letting them in would poison the learned curve.
        if self.estimates_on && !self.peers.quarantined(id) {
            // Record the completed lifetime before any teardown:
            // `uptime_at` must still see the open session (set_online
            // below does not bank it into the ledger).
            let rec = peerback_estimate::DeathRecord {
                lifetime: self.peers.age_at(id, round),
                uptime: self.peers.uptime_at(id, round),
                sessions: self.peers.session_seq(id),
            };
            self.shard.obs.push(rec);
        }
        if self.peers.online(id) {
            self.set_online(id, false);
        }
        let cat = self.peers.category_at(id, round);
        self.census_delta[cat.index()] -= 1;

        // Tear down this peer's own archives: the blocks it stored on
        // its partners are dropped (events emitted here, on the owner
        // side) and each partner's ledger is pruned in hop 2. Indexed
        // walks in fresh-then-stale order, then the O(1) length reset —
        // the slab slots are recycled in place for the replacement peer.
        for aidx in 0..self.peers.archives_per_peer() {
            let total = self.peers.present(id, aidx) as usize;
            for i in 0..total {
                let host = self.peers.host_at(id, aidx, i);
                self.emit(WorldEvent::BlockDropped {
                    owner: id,
                    archive: aidx as ArchiveIdx,
                    host,
                });
                self.shard.out.push(Msg::Release {
                    host,
                    owner: id,
                    aidx: aidx as ArchiveIdx,
                    owner_observer: false,
                });
            }
            self.peers.clear_partner_lists(id, aidx);
        }

        // Its hosted blocks disappear with it; the owners learn in hop 2.
        for i in 0..self.peers.hosted_len(id) {
            let (owner, aidx) = self.peers.hosted_at(id, i);
            self.shard.out.push(Msg::Drop {
                owner,
                aidx,
                host: id,
            });
        }
        self.peers.clear_hosted(id);
        self.peers.set_quota_used(id, 0);

        // `PeerDeparted` is emitted by the driver once every drop of
        // this round has been delivered (the observer contract).
        self.shard.departed.push(id);

        // Immediate replacement in the same slot, bumped epoch.
        self.peers.bump_epoch(id);
        self.peers.set_session_seq(id, 0);
        self.init_regular_peer(id, round, cfg, samplers);
    }

    /// Hop 1 of a quarantine eviction: the host's hosted blocks are
    /// written off exactly like an offline timeout — the owners learn
    /// in hop 2 and repair through the normal machinery — and the
    /// quarantined column (set when the reputation ledger crossed the
    /// threshold) keeps the host out of every future candidate pool.
    /// Unlike a timeout this fires regardless of the host's session
    /// state: the peer is alive, just distrusted.
    pub(in crate::world) fn process_quarantine_local(&mut self, id: PeerId) {
        debug_assert!(self.peers.quarantined(id));
        self.delta.quarantine_evictions += 1;
        for i in 0..self.peers.hosted_len(id) {
            let (owner, aidx) = self.peers.hosted_at(id, i);
            self.shard.out.push(Msg::Drop {
                owner,
                aidx,
                host: id,
            });
        }
        self.peers.clear_hosted(id);
        self.peers.set_quota_used(id, 0);
    }

    /// Arms the write-off timer for the offline run `id` began at
    /// `round`, expected to last `offline_for` rounds — but only when
    /// it can fire (see the module doc): the run outlasts the timeout,
    /// or failure domains are configured, whose outages can defer the
    /// reconnection. A skipped timer would fire stale.
    pub(in crate::world) fn arm_offline_timeout(
        &mut self,
        id: PeerId,
        round: u64,
        offline_for: u64,
        cfg: &SimConfig,
    ) {
        if cfg.offline_timeout == 0 {
            return;
        }
        let due = Round(round + cfg.offline_timeout);
        let event = Event::OfflineTimeout {
            peer: id,
            epoch: self.peers.epoch(id),
            seq: self.peers.session_seq(id),
        };
        if offline_for > cfg.offline_timeout || !self.outages.is_empty() {
            self.shard.wheel.schedule(due, event);
        } else {
            #[cfg(test)]
            self.shard.skip_timer(due, event);
        }
    }

    /// Hop 1 of an offline write-off (§2.2.3): the network considers the
    /// peer gone and writes its hosted blocks off.
    pub(in crate::world) fn process_timeout_local(&mut self, id: PeerId) {
        if self.peers.hosted_len(id) == 0 {
            return;
        }
        self.delta.partner_timeouts += 1;
        // Indexed walk + length reset: the slab slots stay in place for
        // when the peer reconnects and hosts again.
        for i in 0..self.peers.hosted_len(id) {
            let (owner, aidx) = self.peers.hosted_at(id, i);
            self.shard.out.push(Msg::Drop {
                owner,
                aidx,
                host: id,
            });
        }
        self.peers.clear_hosted(id);
        self.peers.set_quota_used(id, 0);
    }

    /// Hop 2 of a teardown, owner side: `host`'s copy of one
    /// `(owner, aidx)` block vanished. Prunes the partner entry, emits
    /// the drop, and runs the §3.2 consequences — loss the instant
    /// `present < k`, re-enqueue below the repair threshold.
    ///
    /// Skips silently when the entry is already gone: the owner's own
    /// hop-1 teardown (or an earlier loss this round) released it, and
    /// that path already emitted the drop.
    pub(in crate::world) fn apply_drop(
        &mut self,
        cfg: &SimConfig,
        owner: PeerId,
        aidx: ArchiveIdx,
        host: PeerId,
        round: u64,
    ) {
        let k = cfg.k as u32;
        let threshold_policy = !matches!(cfg.maintenance, MaintenancePolicy::Proactive { .. });
        let threshold = self.peers.threshold(owner) as u32;
        let a = aidx as usize;
        if let Some(pos) = self.peers.partner_position(owner, a, host) {
            self.peers.swap_remove_partner(owner, a, pos);
        } else if let Some(pos) = self.peers.stale_position(owner, a, host) {
            self.peers.swap_remove_stale(owner, a, pos);
        } else {
            return; // torn down earlier this round
        }
        self.emit(WorldEvent::BlockDropped {
            owner,
            archive: aidx,
            host,
        });
        if !self.peers.joined(owner, a) {
            return; // mid-join: the join loop re-acquires
        }
        if self.peers.present(owner, a) < k {
            self.record_loss(owner, aidx, round);
        } else if threshold_policy && self.peers.present(owner, a) < threshold {
            // Enqueue regardless of the owner's session state;
            // activation skips offline owners and reconnection
            // re-enqueues them.
            self.enqueue(owner);
        }
    }
}

impl BackupWorld {
    pub(in crate::world) fn schedule_proactive(&mut self, id: PeerId, round: u64) {
        if let MaintenancePolicy::Proactive { tick_rounds } = self.cfg.maintenance {
            let epoch = self.peers.epoch(id);
            self.schedule_for(
                id,
                Round(round + tick_rounds),
                Event::ProactiveTick { peer: id, epoch },
            );
        }
    }

    /// White-box form of the write-off path: converts `host`'s hosted
    /// ledger into drop messages and delivers them through the same
    /// staged machinery the round driver uses.
    #[cfg(test)]
    pub(in crate::world) fn drop_hosted_blocks(&mut self, host: PeerId, round: u64) {
        let shard = self.layout.shard_of(host);
        for i in 0..self.peers.hosted_len(host) {
            let (owner, aidx) = self.peers.hosted_at(host, i);
            self.shards[shard].out.push(Msg::Drop { owner, aidx, host });
        }
        self.peers.clear_hosted(host);
        self.peers.set_quota_used(host, 0);
        self.run_deliver(round);
    }
}
