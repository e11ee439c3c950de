//! The adaptive per-archive redundancy control loop
//! (`SimConfig::adaptive_n`): score → decide → apply.
//!
//! Every `check_interval` rounds — after the round's teardown has been
//! delivered, before pending owners are drained into actors — the world
//! scores each joined archive's predicted durability over the policy's
//! horizon and moves the archive's `target_n` within `[n - max_trim, n]`
//! (see [`AdaptiveRedundancy`](crate::config::AdaptiveRedundancy)):
//!
//! * **Scoring** runs against *frozen* world state in two parallel
//!   stages over the logical shards, *fill, then gather*. A host's
//!   predicted survival depends on the host and the round alone —
//!   never on who stores a block there — so the fill stage evaluates
//!   [`BackupWorld::host_survival`] exactly once per peer slot into
//!   the world's recycled *survival column* (`p` and `est`, one entry
//!   per slot; each shard task writes only its own slot range). The
//!   gather stage then scores every archive by summing `p[h]` over its
//!   partner list **in partner order** and picks the narrow victim as
//!   the first strict minimum of `est[h]` in partner order — the same
//!   `f64` additions in the same order a per-pair evaluation performs,
//!   so the decisions are bit-identical to it (the per-pair loop
//!   survives as the test oracle in `world/tests.rs`). A pass therefore
//!   costs `O(slots)` model evaluations plus `O(Σ partners)` 16-byte
//!   column reads, instead of `O(archives × partners)` evaluations.
//!   Per-host survival comes from the learned survival model when one
//!   is attached (`LearnedAge` runs) and from the availability-class
//!   prior otherwise. Neither stage draws **randomness**, so enabling
//!   the loop leaves every RNG stream of the run untouched.
//! * **Apply** drains the buffers sequentially in shard order (slot
//!   order within a shard, archive order within a slot), mutating the
//!   world directly: a widen raises `target_n` and opens a preemptive
//!   refresh episode through the normal repair machinery (decode paid,
//!   `EpisodeStarted` emitted, owner enqueued — it proposes this very
//!   round); a narrow trims `target_n` by one and releases the
//!   placement with the shortest predicted remaining lifetime.
//!
//! Nothing mutates the world between fill, gather and apply, so
//! decisions never need re-validation; and because the buffers drain in
//! shard order no matter which worker filled them, same-seed runs stay
//! byte-identical at any `--shards` setting — the same
//! determinism contract every other parallel stage rides.
//!
//! The column is round scratch (16 B per slot, allocated on the first
//! pass and reused afterwards), so like the pool-building mark arrays
//! it stays outside [`BackupWorld::memory_breakdown`].

use peerback_estimate::AvailabilityClass;
use peerback_sim::arena::retype_empty;

use super::exec::Item;
use super::hooks::WorldEvent;
use super::peers::{ArchiveIdx, PeerId};
use super::BackupWorld;

/// One widen/narrow decision, produced by the parallel scoring stage
/// and applied in the sequential drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(in crate::world) enum RedundancyDecision {
    /// Raise the archive's target width by `widen_step` (capped at `n`)
    /// and open a preemptive repair episode.
    Widen {
        /// Owner of the at-risk archive.
        owner: PeerId,
        /// Archive index within the owner.
        aidx: ArchiveIdx,
    },
    /// Trim the archive's target width by one block and release the
    /// lowest-value placement.
    Narrow {
        /// Owner of the over-provisioned archive.
        owner: PeerId,
        /// Archive index within the owner.
        aidx: ArchiveIdx,
        /// The partner with the shortest predicted remaining lifetime
        /// (chosen during scoring against the same frozen state).
        victim: PeerId,
    },
}

/// Exact work done by the adaptive-redundancy scoring stage so far —
/// execution-side telemetry read through
/// [`BackupWorld::redundancy_work`], never part of `Metrics`. The
/// counts are pure functions of the seed: identical at any `shards`
/// setting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RedundancyWork {
    /// Scoring passes run (one per `check_interval` rounds).
    pub passes: u64,
    /// Survival-model evaluations: one per allocated peer slot per pass.
    pub host_evals: u64,
    /// Partner entries read from the survival column: the summed
    /// partner-list lengths of every scored archive.
    pub pairs_gathered: u64,
}

/// One logical shard's output of the gather stage.
#[derive(Debug, Default)]
pub(in crate::world) struct ShardScore {
    /// Widen/narrow decisions in slot order, then archive order — the
    /// order the sequential drain preserves.
    pub(in crate::world) decisions: Vec<RedundancyDecision>,
    /// Partner entries this shard gathered in the current pass.
    pub(in crate::world) pairs: u64,
}

/// One shard's window of the survival column during the fill stage.
struct FillTask<'a> {
    p: &'a mut [f64],
    est: &'a mut [u64],
}

/// Everything the stage keeps between passes: the per-shard decision
/// buffers, the survival column and the work tally. All of it is
/// recycled — a steady-state pass allocates nothing.
#[derive(Default)]
pub(in crate::world) struct RedundancyState {
    /// Per-shard gather outputs: filled by the parallel scoring tasks,
    /// drained in shard order. Empty between rounds.
    scores: Vec<ShardScore>,
    /// `p[h]`: probability that host `h` still holds its blocks one
    /// horizon from now. One entry per peer slot of the configured
    /// capacity; entries past the allocated slots are never read.
    p: Vec<f64>,
    /// `est[h]`: the remaining-lifetime estimate `p[h]` came from (the
    /// narrow victim's ranking key).
    est: Vec<u64>,
    /// Parked capacity of the fill stage's task vector (see
    /// [`peerback_sim::arena::retype_empty`]); always empty here.
    fill_store: Vec<FillTask<'static>>,
    pub(in crate::world) work: RedundancyWork,
}

/// Lifetime factors of the availability-class prior, indexed by
/// [`AvailabilityClass`] — the cold-model fallback: a reliable host is
/// credited with more remaining lifetime than its age alone, a flaky
/// one with less. The learned model supersedes this the moment a
/// survival estimator is attached.
const CLASS_PRIOR: [f64; 3] = [1.5, 1.0, 0.5];

impl BackupWorld {
    /// The adaptive-redundancy stage of the round. No-op unless the
    /// policy is enabled and `round` is on its cadence.
    pub(in crate::world) fn run_redundancy(&mut self, round: u64) {
        let ar = self.cfg.adaptive_n;
        if !ar.enabled || round == 0 || !round.is_multiple_of(ar.check_interval) {
            return;
        }
        let count = self.layout.count;
        let slots = self.peers.len();
        let mut st = core::mem::take(&mut self.redundancy);
        if st.p.is_empty() {
            // First pass: size everything for the configured capacity.
            let capacity = self.cfg.n_peers + self.observer_count;
            st.p = vec![0.0; capacity];
            st.est = vec![0; capacity];
            st.scores.resize_with(count, ShardScore::default);
        }
        let work = {
            let world: &BackupWorld = self;
            let shard_size = world.layout.shard_size;
            let mut tasks: Vec<FillTask<'_>> = retype_empty(core::mem::take(&mut st.fill_store));
            let windows = st.p[..slots]
                .chunks_mut(shard_size)
                .zip(st.est[..slots].chunks_mut(shard_size));
            tasks.extend(windows.map(|(p, est)| FillTask { p, est }));
            let fill = world.exec.narrowed(Item::SlotFill.ns(), count, slots);
            let mut work = fill.dispatch(round * 16 + 10, &mut tasks, |s, task| {
                fill_shard(world, round, s, task);
            });
            st.fill_store = retype_empty(tasks);
            let (p, est) = (&st.p[..slots], &st.est[..slots]);
            let score = world.exec.narrowed(Item::SlotScore.ns(), count, slots);
            work += score.dispatch(round * 16 + 9, &mut st.scores, |s, out| {
                score_shard(world, p, est, s, out);
            });
            work
        };
        self.profile.redundancy_work += work;
        #[cfg(test)]
        super::tests::check_scores_against_per_pair_oracle(self, round, &st.scores);
        st.work.passes += 1;
        st.work.host_evals += slots as u64;
        for score in &mut st.scores {
            st.work.pairs_gathered += core::mem::take(&mut score.pairs);
            for d in score.decisions.drain(..) {
                self.apply_redundancy_decision(d, round);
            }
        }
        self.redundancy = st;
    }

    /// Predicted probability that host `id` still holds its block
    /// `horizon` rounds from now, plus the remaining-lifetime estimate
    /// it was derived from (the narrow victim's ranking key). A function
    /// of the host and the frozen round state only — never of the
    /// archive asking — which is what lets the fill stage evaluate it
    /// once per slot. Pure read-only: safe for the parallel stages.
    pub(in crate::world) fn host_survival(
        &self,
        id: PeerId,
        round: u64,
        horizon: u64,
    ) -> (f64, u64) {
        // The *reported* age — what the host claims during negotiation
        // (observers present their frozen age, misreporting peers
        // inflate): the policy sees the network the way the selection
        // strategies do, not through an oracle.
        let reported_age = self.negotiation_age(id, round);
        let uptime = self.peers.uptime_at(id, round);
        let est = match &self.estimator {
            Some(model) => model.estimate(reported_age, uptime, self.peers.session_seq(id)),
            None => {
                let factor = CLASS_PRIOR[AvailabilityClass::of(uptime) as usize];
                (reported_age.max(1) as f64 * factor) as u64
            }
        }
        .max(1);
        // Memoryless survival over the horizon at the estimated rate.
        let mut p = (-(horizon as f64) / est as f64).exp();
        // A host already deep into an offline run is partway to its
        // write-off: discount linearly toward the timeout.
        if !self.peers.online(id) && self.cfg.offline_timeout > 0 {
            let offline = round.saturating_sub(self.peers.last_transition(id));
            p *= (1.0 - offline as f64 / self.cfg.offline_timeout as f64).clamp(0.0, 1.0);
        }
        (p, est)
    }

    /// Applies one decision against live state (identical to the frozen
    /// scoring state — nothing runs in between).
    fn apply_redundancy_decision(&mut self, d: RedundancyDecision, round: u64) {
        let ar = self.cfg.adaptive_n;
        let n = self.n_blocks();
        match d {
            RedundancyDecision::Widen { owner, aidx } => {
                // A widen is a *width extension*, not a partner swap:
                // the episode tops the archive up to the raised target
                // and leaves the surviving placements where they are,
                // even in `refresh_on_repair` runs. Full refresh at
                // widen prices would re-upload `target_n` blocks to buy
                // `widen_step` of extra width.
                let refresh = false;
                let a = aidx as usize;
                debug_assert!(self.peers.joined(owner, a) && !self.peers.repairing(owner, a));
                let old = self.peers.target(owner, a);
                let new = old.saturating_add(ar.widen_step as u32).min(n);
                self.peers.set_target(owner, a, new);
                let raised = new > old;
                let needs_episode = raised || self.peers.present(owner, a) < new;
                if raised {
                    self.metrics.diag.redundancy_widened += 1;
                }
                if !needs_episode {
                    return;
                }
                // The begin_episode mirror: preemptive episodes pay the
                // same decode and ride the same continuation machinery
                // as threshold-triggered ones.
                self.peers.set_repairing(owner, a, true);
                self.peers.set_struggled(owner, a, false);
                if refresh {
                    self.peers.refresh_to_stale(owner, a);
                }
                self.peers.bump_repairs(owner);
                let cat = self.peers.category_at(owner, round);
                self.metrics.repairs[cat.index()] += 1;
                self.metrics.diag.blocks_downloaded += self.cfg.k as u64;
                self.metrics.diag.preemptive_repairs += 1;
                if self.record_events {
                    self.event_log.push(WorldEvent::EpisodeStarted {
                        owner,
                        archive: aidx,
                        refresh,
                    });
                }
                // Drained into this round's actors: the owner proposes
                // immediately.
                self.enqueue(owner);
            }
            RedundancyDecision::Narrow {
                owner,
                aidx,
                victim,
            } => {
                self.metrics.diag.redundancy_narrowed += 1;
                let a = aidx as usize;
                debug_assert!(self.peers.joined(owner, a) && !self.peers.repairing(owner, a));
                debug_assert!(self.peers.target(owner, a) > n.saturating_sub(ar.max_trim as u32));
                let new = self.peers.target(owner, a) - 1;
                self.peers.set_target(owner, a, new);
                if self.peers.present(owner, a) <= new {
                    return; // already narrower than the new target
                }
                let pos = self
                    .peers
                    .partner_position(owner, a, victim)
                    .expect("victim chosen from this partner list");
                self.peers.remove_partner(owner, a, pos);
                // Drop event before the host-side bookkeeping, matching
                // the owner-side emission rule everywhere else.
                if self.record_events {
                    self.event_log.push(WorldEvent::BlockDropped {
                        owner,
                        archive: aidx,
                        host: victim,
                    });
                }
                // Sequential stage: host-side bookkeeping applies
                // directly instead of riding a message.
                if let Some(hpos) = self.peers.hosted_position(victim, owner, aidx) {
                    self.peers.swap_remove_hosted(victim, hpos);
                    let q = self.peers.quota_used(victim);
                    self.peers.set_quota_used(victim, q - 1);
                }
                self.metrics.diag.placements_released += 1;
            }
        }
    }
}

/// Fill stage: evaluates every slot of shard `s` into the shard's
/// window of the survival column.
fn fill_shard(world: &BackupWorld, round: u64, s: usize, task: &mut FillTask<'_>) {
    let horizon = world.cfg.adaptive_n.horizon;
    let base = s * world.layout.shard_size;
    for (i, (p, est)) in task.p.iter_mut().zip(task.est.iter_mut()).enumerate() {
        (*p, *est) = world.host_survival((base + i) as PeerId, round, horizon);
    }
}

/// Gather stage: scores one shard's archives against the frozen world
/// and the filled survival column, pushing the shard's decisions in
/// slot order (then archive order) — the order the sequential drain
/// preserves.
fn score_shard(world: &BackupWorld, p: &[f64], est: &[u64], s: usize, out: &mut ShardScore) {
    debug_assert!(out.decisions.is_empty() && out.pairs == 0);
    let ar = world.cfg.adaptive_n;
    let n = world.n_blocks();
    let floor = n.saturating_sub(ar.max_trim as u32);
    let base = s * world.layout.shard_size;
    let end = (base + world.layout.shard_size).min(world.peers.len());
    for id in base as PeerId..end as PeerId {
        // Observers are measurement instruments (their repair series
        // must stay comparable across policies); offline owners cannot
        // act on a decision this round anyway.
        if world.peers.observer(id).is_some() || !world.peers.online(id) {
            continue;
        }
        let trigger = world.k().max(world.peers.threshold(id) as u32) as f64;
        for a in 0..world.peers.archives_per_peer() {
            if !world.peers.joined(id, a) || world.peers.repairing(id, a) {
                continue;
            }
            debug_assert_eq!(world.peers.stale_len(id, a), 0);
            let target = world.peers.target(id, a);
            let partners = world.peers.partners(id, a);
            out.pairs += partners.len() as u64;
            // Summed in partner order: the same additions in the same
            // order as evaluating each pair in place.
            let mut predicted = 0.0f64;
            let mut victim: Option<(u64, PeerId)> = None;
            for &h in partners {
                predicted += p[h as usize];
                // Strict `<`: the first minimum in partner order wins,
                // independent of float quirks and worker scheduling.
                let e = est[h as usize];
                if victim.is_none_or(|(best, _)| e < best) {
                    victim = Some((e, h));
                }
            }
            let owner = id;
            let aidx = a as ArchiveIdx;
            if predicted < trigger + ar.widen_margin {
                // At risk *and* previously trimmed: restore width and
                // repair preemptively. Archives already at full width
                // are left to the reactive threshold — opening earlier
                // episodes for them would just duplicate that machinery
                // at full-refresh prices.
                if target < n {
                    out.decisions
                        .push(RedundancyDecision::Widen { owner, aidx });
                }
            } else if target > floor && predicted >= target as f64 - ar.narrow_slack {
                // Durable enough that even the trimmed width survives
                // the horizon: shed the weakest placement.
                if let Some((_, victim)) = victim {
                    out.decisions.push(RedundancyDecision::Narrow {
                        owner,
                        aidx,
                        victim,
                    });
                }
            }
        }
    }
}
