//! Partnership acquisition: the acceptance-gated candidate pool and the
//! partner ↔ hosted-block bookkeeping it feeds.
//!
//! Acquisition is split along the proposal/commit seam of the sharded
//! round (see [`super::shard`]):
//!
//! * [`BackupWorld::plan_archive`] decides — from owner-local state
//!   only — whether an archive needs work this round and how many
//!   partners `d` it wants.
//! * [`BackupWorld::build_pool`] builds a **ranked** pool of host ids
//!   against frozen world state (`&self` + per-worker scratch + the
//!   owner's shard RNG), so it can run in parallel across shards.
//! * The two-phase commit grants ranks of that pool against host quota;
//!   each grant records the hosted entry on the host's side, and
//!   [`ShardLane::attach_partners`](super::shard::ShardLane::attach_partners)
//!   then appends the granted hosts, in rank order, to the owner's
//!   partner list.
//!
//! Downstream of the ranking nothing but the ordered list of peers is
//! needed (§3.2: a peer ranks the candidates it has found, then
//! negotiates in that order), so a pool is a `Vec<PeerId>`. For
//! [`SelectionStrategy::AgeBased`] and [`SelectionStrategy::LearnedAge`]
//! the accepted sample is collected as 16-byte `(key, tie, id)` entries
//! ([`KeyedSample`](crate::select::KeyedSample)) — the key being the
//! reported age, or the survival model's remaining-lifetime estimate —
//! and sorted once; the other strategies rank full [`Candidate`]s in a
//! recycled scratch vector through [`SelectionStrategy::choose`] and
//! keep the ids. The maintained
//! [`AgeOrderedIndex`](crate::select::AgeOrderedIndex) the keyed build
//! used to run through is no longer on this path: the sample loop stops
//! the moment it holds `target` entries, so the index never evicted and
//! "collect, then sort by `(key, sampling order)`" is the same total
//! order. The index stays the reference implementation the tests check
//! this path against (`world/tests.rs`, `build_pool_reference`).
//!
//! Every strategy — keyed or not — ranks within a bounded *random
//! sample* of accepted candidates, never the global online population.
//! An earlier build kept the keyed scan running past a full pool to
//! chase globally optimal keys; that made every owner in a round
//! converge on the same elite hosts, whose quota claims then collided
//! in the commit phase (`pool_shortfalls`), stalling repairs exactly
//! for the age-trusting strategies. Sample-then-rank keeps proposals
//! decorrelated across owners — and matches the paper's discovery
//! model, where a peer ranks the candidates it has found (§3.2), not
//! the whole network.

use peerback_sim::{BufPool, SimRng};
use rand::Rng;

use crate::accept::accepts;
use crate::config::MaintenancePolicy;
use crate::select::{Candidate, SelectionStrategy};

use super::peers::{ArchiveIdx, PeerId};
use super::shard::{ActionKind, Scratch};
use super::BackupWorld;

/// Candidate-sampling budget per needed partner when building a pool.
pub(in crate::world) const POOL_ATTEMPT_FACTOR: u32 = 6;

/// Pool size target as a multiple of `d`: the pool is "big enough" at
/// `POOL_TARGET_FACTOR · d` candidates.
pub(in crate::world) const POOL_TARGET_FACTOR: f64 = 2.0;

/// Multiplier a misreporting peer applies to its claimed age.
pub(in crate::world) const MISREPORT_INFLATION: u64 = 8;

impl BackupWorld {
    /// The age another peer perceives for acceptance and ranking.
    /// Observers present their frozen age; misreporting peers
    /// (`SimConfig::misreport_fraction`) inflate their true age by
    /// [`MISREPORT_INFLATION`]. Death scheduling, uptime and loss accounting
    /// all stay keyed to the true age — only negotiation sees the lie.
    pub(in crate::world) fn negotiation_age(&self, id: PeerId, round: u64) -> u64 {
        match self.peers.observer(id) {
            Some(i) => self.cfg.observers[i as usize].frozen_age,
            None => {
                let age = self.peers.age_at(id, round);
                if self.peers.misreports(id) {
                    age.saturating_mul(MISREPORT_INFLATION)
                } else {
                    age
                }
            }
        }
    }

    /// Decides what protocol step archive `(id, aidx)` needs, and how
    /// many partners `d` that step wants. Reads owner-local state only,
    /// which no other shard mutates during the proposal phase; the
    /// commit functions re-derive the same decision from live state.
    pub(in crate::world) fn plan_archive(
        &self,
        id: PeerId,
        aidx: ArchiveIdx,
    ) -> Option<(ActionKind, u32)> {
        let a = aidx as usize;
        // The archive's maintained width: `n` unless the adaptive
        // redundancy policy trimmed it (`== n` whenever that policy is
        // off, keeping this function byte-identical to the static path).
        let target = self.peers.target(id, a);
        if !self.peers.joined(id, a) {
            return Some((
                ActionKind::Join,
                target.saturating_sub(self.peers.present(id, a)),
            ));
        }
        let fresh_missing = target.saturating_sub(self.peers.partners_len(id, a) as u32);
        match self.cfg.maintenance {
            MaintenancePolicy::Reactive { .. } | MaintenancePolicy::Adaptive { .. } => {
                if self.peers.repairing(id, a) {
                    Some((ActionKind::Threshold, fresh_missing))
                } else if self.peers.present(id, a) < self.peers.threshold(id) as u32 {
                    // Opening a refreshing episode re-places the whole
                    // code word (the commit swaps partners to stale
                    // first, so every fresh slot is open).
                    let d = if self.cfg.refresh_on_repair {
                        target
                    } else {
                        fresh_missing
                    };
                    Some((ActionKind::Threshold, d))
                } else {
                    None // stale trigger: a repair already covered it
                }
            }
            MaintenancePolicy::Proactive { .. } => {
                if self.peers.repairing(id, a) || self.peers.present(id, a) < target {
                    Some((ActionKind::Proactive, fresh_missing))
                } else {
                    None
                }
            }
        }
    }

    /// Freezes the per-shard online lists into the world's flat list:
    /// the lists concatenated in shard order, so a uniform draw `j` over
    /// the online population resolves as `online_flat[j]`. The lists do
    /// not change during the proposal stage, so the driver builds this
    /// once per round (only on rounds that have actors) and every
    /// worker reads it shared. Round scratch, 4 bytes per online peer.
    pub(in crate::world) fn freeze_online_flat(&mut self) {
        self.online_flat.clear();
        for shard in &self.shards {
            self.online_flat.extend_from_slice(&shard.online);
        }
        #[cfg(test)]
        {
            self.frozen_online = self.shards.iter().map(|s| s.online.clone()).collect();
        }
    }

    /// Builds a ranked, acceptance-gated pool of host ids for
    /// `(owner_id, aidx)` against the current (frozen) world state.
    /// `self.online_flat` must hold [`BackupWorld::freeze_online_flat`]
    /// of that state; the pool vector comes from (and, after the commit
    /// consumes it, returns to) the shard's recycled free list `pools`.
    ///
    /// The pool holds up to `POOL_TARGET_FACTOR · d` ids so the commit
    /// can skip entries whose quota filled in the meantime without
    /// voiding the step. Ranking happens *within* the random sample
    /// (see the module doc for why chasing globally optimal keys
    /// backfires at commit time): AgeBased and LearnedAge sort the
    /// sample's `(key, tie, id)` entries once; every other strategy
    /// ranks via [`SelectionStrategy::choose`].
    #[allow(clippy::too_many_arguments)] // the frozen-state contract wants everything explicit
    pub(in crate::world) fn build_pool(
        &self,
        scratch: &mut Scratch,
        pools: &mut BufPool<PeerId>,
        rng: &mut SimRng,
        owner_id: PeerId,
        aidx: ArchiveIdx,
        d: u32,
        round: u64,
    ) -> Vec<PeerId> {
        #[cfg(test)]
        let rng_before = rng.clone();
        let total_online = self.online_flat.len();
        let mut pool = pools.take();
        debug_assert!(pool.is_empty() && scratch.keyed.is_empty() && scratch.cands.is_empty());
        scratch.work.pool_builds += 1;
        if d == 0 || total_online == 0 {
            return pool;
        }

        // Exclusion marks: self + this archive's current partners
        // (partners for *other* archives stay eligible, §4.1).
        let tag = scratch.begin(self.peers.len());
        scratch.mark[owner_id as usize] = tag;
        for i in 0..self.peers.present(owner_id, aidx as usize) as usize {
            let p = self.peers.host_at(owner_id, aidx as usize, i);
            scratch.mark[p as usize] = tag;
        }

        let owner_age = self.negotiation_age(owner_id, round);
        let clamp = self.cfg.acceptance_clamp;
        let quota = self.cfg.quota;
        let target = ((d as f64 * POOL_TARGET_FACTOR).ceil() as usize).max(d as usize);
        let attempts = (d * POOL_ATTEMPT_FACTOR).max(16);
        let learned = self.cfg.strategy == SelectionStrategy::LearnedAge;
        let keyed = learned || self.cfg.strategy == SelectionStrategy::AgeBased;
        let mut sampled = 0u64;
        for _ in 0..attempts {
            if scratch.keyed.len() + scratch.cands.len() >= target {
                break;
            }
            sampled += 1;
            let c = self.online_flat[rng.gen_range(0..total_online)];
            if scratch.mark[c as usize] == tag {
                continue;
            }
            if self.peers.observer(c).is_some() || self.peers.quota_used(c) >= quota {
                continue;
            }
            // Quarantined hosts never re-enter a candidate pool, and a
            // partitioned domain is online-but-unreachable for *new*
            // placements (existing ones keep counting — a partition
            // does not destroy data). Both vectors are empty in
            // domain-free/quarantine-free runs.
            if self.peers.quarantined(c) {
                continue;
            }
            if !self.partitions.is_empty() && self.partitions[self.peers.domain(c) as usize] > round
            {
                continue;
            }
            // The *reported* age: what the candidate claims during
            // negotiation (misreporting peers inflate it). Matches
            // `negotiation_age` for every non-observer (observers were
            // screened out above).
            let true_age = self.peers.age_at(c, round);
            let cand_age = if self.peers.misreports(c) {
                true_age.saturating_mul(MISREPORT_INFLATION)
            } else {
                true_age
            };
            if self.cfg.acceptance_enabled {
                // Owner-side test: does the owner accept this candidate?
                if !accepts(rng, owner_age, cand_age, clamp) {
                    continue;
                }
                // Candidate-side test ("both peers must agree").
                if self.cfg.mutual_acceptance && !accepts(rng, cand_age, owner_age, clamp) {
                    continue;
                }
            }
            scratch.mark[c as usize] = tag;
            if keyed {
                // The survival model's remaining-lifetime estimate,
                // computed shard-locally against the frozen model
                // state. Only the LearnedAge strategy pays for it.
                let key = match &self.estimator {
                    Some(model) if learned => model.estimate(
                        cand_age,
                        self.peers.uptime_at(c, round),
                        self.peers.session_seq(c),
                    ),
                    _ => cand_age, // AgeBased, or a detached model: age rank
                };
                scratch.keyed.push(key, c);
            } else {
                scratch.cands.push(Candidate {
                    id: c,
                    age: cand_age,
                    uptime: self.peers.uptime_at(c, round),
                    estimated_remaining: 0,
                    true_remaining: self.peers.death(c).saturating_sub(round),
                });
            }
        }
        // The sample never outgrows `target` — what makes one final
        // sort equal to the evicting index it replaced.
        debug_assert!(scratch.keyed.len() + scratch.cands.len() <= target);
        scratch.work.candidates_sampled += sampled;
        if keyed {
            scratch.keyed.drain_ranked_into(&mut pool);
        } else {
            // Rank the whole sample (no truncation): the commit walks
            // it in order and stops after `d` valid entries.
            let len = scratch.cands.len();
            self.cfg.strategy.choose(rng, &mut scratch.cands, len);
            pool.extend(scratch.cands.drain(..).map(|c| c.id));
        }
        scratch.work.candidates_accepted += pool.len() as u64;
        #[cfg(test)]
        super::tests::check_pool_against_reference(
            self,
            (&rng_before, rng),
            (owner_id, aidx),
            d,
            round,
            &pool,
        );
        pool
    }

    /// As [`BackupWorld::build_pool`], using the world's own scratch —
    /// the direct path for single-call (white-box test) protocol steps.
    #[cfg(test)]
    pub(in crate::world) fn build_pool_direct(
        &mut self,
        rng: &mut SimRng,
        owner_id: PeerId,
        aidx: ArchiveIdx,
        d: u32,
        round: u64,
    ) -> Vec<PeerId> {
        let mut scratch = core::mem::take(&mut self.direct_scratch);
        self.freeze_online_flat();
        let mut pools = BufPool::new();
        let pool = self.build_pool(&mut scratch, &mut pools, rng, owner_id, aidx, d, round);
        self.direct_scratch = scratch;
        pool
    }
}

impl super::shard::ShardLane<'_> {
    /// Host-side bookkeeping of a released block: forget the hosted
    /// entry and refund quota. Skips silently when the host's own
    /// teardown already cleared its ledger this round — the owner-side
    /// handler that sent this message emitted the drop event either
    /// way.
    pub(in crate::world) fn apply_release(
        &mut self,
        host: PeerId,
        owner: PeerId,
        aidx: ArchiveIdx,
        owner_observer: bool,
    ) {
        let Some(pos) = self.peers.hosted_position(host, owner, aidx) else {
            return; // the host's ledger was torn down this round
        };
        self.peers.swap_remove_hosted(host, pos);
        if !owner_observer {
            let q = self.peers.quota_used(host);
            self.peers.set_quota_used(host, q - 1);
        }
    }

    /// Owner-side half of attachment: appends the granted `hosts` (in
    /// rank order, at most `d`) to the archive's partner list. The
    /// grant already wrote each host's ledger entry, so every host
    /// passed here must attach. Returns how many attached.
    pub(in crate::world) fn attach_partners(
        &mut self,
        owner: PeerId,
        aidx: ArchiveIdx,
        d: u32,
        hosts: &[PeerId],
    ) -> u32 {
        let mut attached = 0u32;
        for &host in hosts {
            if attached == d {
                break;
            }
            self.peers.push_partner(owner, aidx as usize, host);
            attached += 1;
        }
        self.delta.blocks_uploaded += attached as u64;
        attached
    }
}
