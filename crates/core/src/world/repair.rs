//! The repair-episode lifecycle: joining, triggering, continuing an
//! episode across rounds, loss accounting, and the three maintenance
//! policies (reactive, adaptive, proactive).
//!
//! An **episode** is the unit of §3.2 maintenance: one `k`-block decode
//! (paid when the episode opens) followed by `d` block uploads. Episodes
//! are *persistent*: when the grant exchange comes up short the episode
//! stays open (`ArchiveState::repairing`) and the owner re-enqueues
//! itself, continuing — without paying the decode again — on its next
//! online activation.
//!
//! Every function here runs on a [`ShardLane`] during the owner-side
//! half of the parallel commit: it may mutate the **owner's** state,
//! buffer events and metric deltas, and address host-side bookkeeping
//! as [`Msg`]s — never touch another shard directly. The hosts it is
//! handed already hold their ledger entries (the grant wrote them), so
//! a step must attach every one of them. The trigger logic
//! re-derives its decision from live owner state (unchanged since the
//! proposal froze it mid-round); each step asserts the proposal's `d`
//! still matches.

use crate::config::{MaintenancePolicy, SimConfig};

use super::exec::Msg;
use super::hooks::WorldEvent;
use super::peers::{ArchiveIdx, PeerId};
use super::shard::{ActionKind, Proposal, ShardLane};

impl ShardLane<'_> {
    /// Applies one committed proposal with the `hosts` the two-phase
    /// grant exchange awarded it (rank order, at most `d`).
    pub(in crate::world) fn commit_step(
        &mut self,
        cfg: &SimConfig,
        prop: &Proposal,
        hosts: &[PeerId],
        round: u64,
    ) {
        match prop.kind {
            ActionKind::Join => self.continue_join(prop.owner, prop.aidx, hosts, prop.d),
            ActionKind::Threshold => {
                let k_prime = self.peers.threshold(prop.owner) as u32;
                if self.open_episode_if_triggered(cfg, prop.owner, prop.aidx, k_prime, round) {
                    self.continue_episode(cfg, prop.owner, prop.aidx, hosts, prop.d);
                } else {
                    debug_assert!(hosts.is_empty(), "grants for a step that did not run");
                }
            }
            ActionKind::Proactive => {
                self.proactive_step(cfg, prop.owner, prop.aidx, round, hosts, prop.d);
            }
        }
    }

    /// An archive's network copy became unrecoverable. Emits the loss
    /// *before* the surviving partner drops (hooks.rs ordering rule 2),
    /// releases the survivors host-side, and starts the re-join.
    pub(in crate::world) fn record_loss(&mut self, owner: PeerId, aidx: ArchiveIdx, round: u64) {
        self.emit(WorldEvent::ArchiveLost {
            owner,
            archive: aidx,
            round,
        });
        let is_observer = self.peers.observer(owner).is_some();
        if !is_observer {
            let cat = self.peers.category_at(owner, round);
            self.delta.losses[cat.index()] += 1;
        }
        let a = aidx as usize;
        self.peers.bump_losses(owner);
        self.peers.set_joined(owner, a, false);
        self.peers.set_repairing(owner, a, false);
        // Indexed walk in fresh-then-stale order, then the O(1) length
        // reset: the re-join reuses the same slab slots, so the loss
        // path stays off the heap.
        let total = self.peers.present(owner, a) as usize;
        for i in 0..total {
            let host = self.peers.host_at(owner, a, i);
            self.emit(WorldEvent::BlockDropped {
                owner,
                archive: aidx,
                host,
            });
            self.shard.out.push(Msg::Release {
                host,
                owner,
                aidx,
                owner_observer: is_observer,
            });
        }
        self.peers.clear_partner_lists(owner, a);
        // Re-backup from the local copy: start a fresh join.
        if self.peers.online(owner) {
            self.enqueue(owner);
        }
    }

    /// Join: the initial upload of all `target_n` blocks of one archive
    /// (a "repair with d = 256", §3.2 — tracked separately from
    /// repairs; `target_n == n` unless adaptive redundancy trimmed it).
    pub(in crate::world) fn continue_join(
        &mut self,
        id: PeerId,
        aidx: ArchiveIdx,
        hosts: &[PeerId],
        built_for: u32,
    ) {
        let a = aidx as usize;
        let target = self.peers.target(id, a);
        let d = target.saturating_sub(self.peers.present(id, a));
        debug_assert_eq!(built_for, d, "join plan diverged from commit-time state");
        let before = self.peers.partners_len(id, a);
        let attached = self.attach_partners(id, aidx, d, hosts);
        debug_assert_eq!(
            attached as usize,
            hosts.len(),
            "a granted host did not attach"
        );
        self.emit_placements(id, aidx, before);
        if self.peers.present(id, a) >= target {
            self.peers.set_joined(id, a, true);
            self.delta.joins_completed += 1;
            self.emit(WorldEvent::JoinCompleted {
                owner: id,
                archive: aidx,
                blocks: self.peers.present(id, a),
            });
        } else {
            if attached < d {
                self.delta.pool_shortfalls += 1;
            }
            self.enqueue(id); // keep joining next round
        }
    }

    /// Records the start of a repair episode (metrics + decode cost).
    fn begin_episode(&mut self, id: PeerId, aidx: ArchiveIdx, round: u64, refresh: bool) {
        let a = aidx as usize;
        self.peers.set_repairing(id, a, true);
        self.peers.set_struggled(id, a, false);
        self.peers.bump_repairs(id);
        if self.peers.observer(id).is_none() {
            let cat = self.peers.category_at(id, round);
            self.delta.repairs[cat.index()] += 1;
        }
        self.emit(WorldEvent::EpisodeStarted {
            owner: id,
            archive: aidx,
            refresh,
        });
    }

    /// The threshold-policy trigger: opens an episode (with the refresh
    /// swap) when `present < k'` and none is open. Returns whether an
    /// episode is active — i.e. whether a continuation step should run.
    pub(in crate::world) fn open_episode_if_triggered(
        &mut self,
        cfg: &SimConfig,
        id: PeerId,
        aidx: ArchiveIdx,
        k_prime: u32,
        round: u64,
    ) -> bool {
        let a = aidx as usize;
        let present = self.peers.present(id, a);
        if !self.peers.repairing(id, a) {
            if present >= k_prime {
                return false; // stale trigger (a repair already covered it)
            }
            debug_assert!(present >= cfg.k as u32, "loss should have been recorded");
            self.begin_episode(id, aidx, round, cfg.refresh_on_repair);
            self.delta.blocks_downloaded += cfg.k as u64;
            if cfg.refresh_on_repair {
                // New code word: every surviving block will be displaced
                // by a freshly placed one (§2.2.3's "re-encode … new
                // blocks"). Old partners stay counted until displaced.
                self.peers.refresh_to_stale(id, a);
            }
        }
        true
    }

    /// Uploads replacement blocks until `target_n` *fresh* partners
    /// hold the archive (`n` unless adaptive redundancy trimmed it);
    /// displaced pre-episode partners are released 1:1 so the present
    /// count never dips during a refreshing episode.
    pub(in crate::world) fn continue_episode(
        &mut self,
        cfg: &SimConfig,
        id: PeerId,
        aidx: ArchiveIdx,
        hosts: &[PeerId],
        built_for: u32,
    ) {
        let a = aidx as usize;
        let target = self.peers.target(id, a);
        let d = target.saturating_sub(self.peers.partners_len(id, a) as u32);
        debug_assert_eq!(built_for, d, "episode plan diverged from commit-time state");
        if d == 0 {
            debug_assert_eq!(self.peers.stale_len(id, a), 0);
            self.peers.set_repairing(id, a, false);
            self.emit(WorldEvent::EpisodeCompleted {
                owner: id,
                archive: aidx,
            });
            self.adapt_threshold(cfg, id, aidx);
            return;
        }
        let before = self.peers.partners_len(id, a);
        // Displace one stale partner per block about to be placed beyond
        // `target`. The drops are announced *before* the placements so
        // an observer never sees more than `target` live blocks
        // (hooks.rs ordering rule 1) — and releasing first is also what
        // keeps `fresh + stale` within the archive's fixed slab width
        // while the fresh blocks attach.
        let attaching = (hosts.len() as u32).min(d);
        let will_be_present = before as u32 + attaching + self.peers.stale_len(id, a) as u32;
        let owner_observer = self.peers.observer(id).is_some();
        for _ in 0..will_be_present.saturating_sub(target) {
            let stale = self
                .peers
                .pop_stale(id, a)
                .expect("present > target implies stale partners remain");
            self.emit(WorldEvent::BlockDropped {
                owner: id,
                archive: aidx,
                host: stale,
            });
            self.shard.out.push(Msg::Release {
                host: stale,
                owner: id,
                aidx,
                owner_observer,
            });
        }
        let attached = self.attach_partners(id, aidx, d, hosts);
        debug_assert_eq!(
            attached as usize,
            hosts.len(),
            "a granted host did not attach"
        );
        self.emit_placements(id, aidx, before);
        if self.peers.partners_len(id, a) as u32 >= target {
            debug_assert_eq!(self.peers.stale_len(id, a), 0);
            self.peers.set_repairing(id, a, false);
            self.emit(WorldEvent::EpisodeCompleted {
                owner: id,
                archive: aidx,
            });
            self.adapt_threshold(cfg, id, aidx);
        } else {
            if attached < d {
                self.delta.pool_shortfalls += 1;
                self.peers.set_struggled(id, a, true);
            }
            self.enqueue(id);
        }
    }

    /// Applies the adaptive policy's per-peer adjustment after a
    /// completed episode: struggling peers back off (repair later, churn
    /// less); healthy peers drift back up to `base`.
    fn adapt_threshold(&mut self, cfg: &SimConfig, id: PeerId, aidx: ArchiveIdx) {
        let MaintenancePolicy::Adaptive {
            base,
            floor_margin,
            step,
        } = cfg.maintenance
        else {
            return;
        };
        let floor = (cfg.k + floor_margin).min(base);
        let struggled = self.peers.struggled(id, aidx as usize);
        let old = self.peers.threshold(id);
        let new = if struggled {
            old.saturating_sub(step).max(floor)
        } else {
            old.saturating_add(step).min(base)
        };
        self.peers.set_threshold(id, new);
        if new != old {
            self.delta.threshold_adjustments += 1;
        }
    }

    /// Proactive maintenance: top one archive back up to `n` present
    /// blocks at every tick, without any threshold trigger.
    pub(in crate::world) fn proactive_step(
        &mut self,
        cfg: &SimConfig,
        id: PeerId,
        aidx: ArchiveIdx,
        round: u64,
        hosts: &[PeerId],
        built_for: u32,
    ) {
        let a = aidx as usize;
        if !self.peers.repairing(id, a) {
            if self.peers.present(id, a) >= self.peers.target(id, a) {
                debug_assert!(hosts.is_empty(), "grants for a step that did not run");
                return; // nothing disappeared since the last tick
            }
            // Proactive ticks top up missing blocks only; no refresh.
            self.begin_episode(id, aidx, round, false);
            self.delta.blocks_downloaded += cfg.k as u64;
        }
        self.continue_episode(cfg, id, aidx, hosts, built_for);
    }
}

#[cfg(test)]
impl super::BackupWorld {
    /// Reactive repair, single-call form: trigger check, pool sampling
    /// and the full two-phase commit in one step. White-box test entry
    /// point — the round driver batches proposals instead.
    pub(in crate::world) fn reactive_repair(
        &mut self,
        id: PeerId,
        aidx: ArchiveIdx,
        k_prime: u32,
        round: u64,
        rng: &mut peerback_sim::SimRng,
    ) {
        debug_assert_eq!(
            k_prime,
            self.peers.threshold(id) as u32,
            "white-box threshold must match the peer's"
        );
        let Some((kind, d)) = self.plan_archive(id, aidx) else {
            return;
        };
        let pool = self.build_pool_direct(rng, id, aidx, d, round);
        let prop = Proposal {
            owner: id,
            aidx,
            kind,
            d,
            owner_observer: self.peers.observer(id).is_some(),
            pool,
            wave_a_denied: Default::default(),
        };
        let shard = self.layout.shard_of(id);
        self.shards[shard].proposals.push(prop);
        self.commit_pushed_proposals(round);
    }

    /// Commits the proposals pushed straight into the shards'
    /// `proposals`: stages their wave-A claims (the proposal stage's job
    /// on the round path), runs the two-phase commit and ends the round.
    pub(in crate::world) fn commit_pushed_proposals(&mut self, round: u64) {
        let layout = self.layout;
        for shard in &mut self.shards {
            shard
                .claims
                .stage(&layout, &shard.proposals, super::exec::wave_a_ranks);
        }
        self.commit_proposals(round);
        self.end_round();
    }
}
