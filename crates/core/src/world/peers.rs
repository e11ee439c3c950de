//! Peer slots, epochs, the online index and population spawning.
//!
//! Peer slots are **reused**: when a peer departs, its immediate
//! replacement (§4.1) occupies the same slot with a bumped `epoch`, so
//! scheduled events and queued activations can detect that they refer to
//! a peer that no longer exists.
//!
//! Per-peer state itself lives in the struct-of-arrays
//! [`PeerTable`](super::table::PeerTable) (`table.rs`); this module owns
//! the *lifecycle* — spawning, the shard-lane entry point, and the
//! world-level restorability read.

use peerback_churn::SessionSampler;
use peerback_sim::Round;

use crate::age::AgeCategory;
use crate::config::SimConfig;
use crate::metrics::ObserverSeries;

use super::events::Event;
use super::exec::Item;
use super::shard::ShardLane;
use super::BackupWorld;

/// Index of a peer slot. Slots are reused: when a peer departs, its
/// replacement occupies the same slot with a bumped epoch.
pub type PeerId = u32;

/// Sentinel in `online_pos` for peers not currently online.
pub(in crate::world) const OFFLINE: u32 = u32::MAX;

/// Index of an archive within its owner (`0..archives_per_peer`).
pub(in crate::world) type ArchiveIdx = u8;

impl BackupWorld {
    /// Fraction of joined (non-observer) archives whose owner could
    /// start a restore immediately: at least `k` blocks sit on
    /// currently-online partners. A cache-linear column walk: the
    /// archive flags, partner counts and the hosts' online flags are
    /// the only columns touched.
    pub(in crate::world) fn instant_restorability(&self) -> f64 {
        let k = self.k() as usize;
        let apap = self.peers.archives_per_peer();
        let mut joined = 0u64;
        let mut restorable = 0u64;
        for id in self.observer_count as PeerId..self.peers.len() as PeerId {
            for aidx in 0..apap {
                if !self.peers.joined(id, aidx) {
                    continue;
                }
                joined += 1;
                let present = self.peers.present(id, aidx) as usize;
                let online = (0..present)
                    .filter(|&i| self.peers.online(self.peers.host_at(id, aidx, i)))
                    .count();
                if online >= k {
                    restorable += 1;
                }
            }
        }
        if joined == 0 {
            1.0
        } else {
            restorable as f64 / joined as f64
        }
    }

    // ----- population lifecycle --------------------------------------------

    /// Spawns the whole population at round 0: observers first, then
    /// the regular peers. Slots are pushed sequentially — growing a slot
    /// appends one default entry to every column, no per-peer
    /// allocation (the columns' capacity is reserved at construction) —
    /// then each shard initialises its own new ids, in id order, from
    /// its own RNG stream, in one dispatch. `shard_of` is monotone, so
    /// every shard's draw order, and the shard-order merge, equal those
    /// of a one-by-one spawn at any worker count.
    pub(in crate::world) fn ensure_population(&mut self, round: u64) {
        if round != 0 {
            return;
        }
        for i in 0..self.observer_count {
            self.spawn_observer(i as u8);
        }
        let first = self.peers.len() as PeerId;
        for _ in 0..self.cfg.n_peers {
            self.peers.push_slot();
            self.online_pos.push(OFFLINE);
        }
        let fresh = first..self.peers.len() as PeerId;
        let busy = self.layout.shard_of(fresh.end - 1) - self.layout.shard_of(first) + 1;
        let policy = self.exec.narrowed(Item::PeerInit.ns(), busy, fresh.len());
        let work = self.with_shard_lanes(|lanes, cfg, samplers| {
            policy.dispatch(round * 16, lanes, |_, lane| {
                let base = lane.peers.base;
                let end = base + lane.peers.slots() as PeerId;
                for id in fresh.start.max(base)..fresh.end.min(end) {
                    lane.init_regular_peer(id, round, cfg, samplers);
                }
            })
        });
        self.profile.ramp_work += work;
    }

    pub(in crate::world) fn spawn_observer(&mut self, index: u8) {
        let id = self.peers.len() as PeerId;
        self.peers.push_slot();
        self.online_pos.push(OFFLINE);
        self.peers
            .set_threshold(id, self.cfg.maintenance.threshold().unwrap_or(0));
        let n = self.cfg.n_blocks();
        for aidx in 0..self.peers.archives_per_peer() {
            self.peers.set_target(id, aidx, n);
        }
        self.peers.set_observer(id, Some(index));
        self.set_online(id, true);
        self.metrics.observers.push(ObserverSeries {
            name: self.cfg.observers[index as usize].name,
            frozen_age: self.cfg.observers[index as usize].frozen_age,
            points: Vec::new(),
            total_repairs: 0,
            losses: 0,
        });
        self.enqueue(id); // start the initial upload
        self.schedule_proactive(id, 0);
    }

    // (Peer initialisation lives on `ShardLane::init_regular_peer`, so
    // the round-0 spawn and the parallel death-replacement path share
    // one implementation.)

    // ----- online index and activation queue -------------------------------

    /// Sets the peer's online flag, maintaining its shard's online
    /// list (delegates to the table's `update_online`).
    pub(in crate::world) fn set_online(&mut self, id: PeerId, online: bool) {
        let shard = self.layout.shard_of(id);
        self.peers.update_online(
            id,
            &mut self.shards[shard].online,
            &mut self.online_pos,
            0,
            online,
        );
    }

    /// Queues the peer for activation (delegates to the table's
    /// `enqueue_pending`).
    pub(in crate::world) fn enqueue(&mut self, id: PeerId) {
        let shard = self.layout.shard_of(id);
        self.peers
            .enqueue_pending(id, &mut self.shards[shard].pending);
    }
}

/// The profile id a fresh peer receives at `round`: a draw from the
/// configured mix.
///
/// From `SimConfig::shift_profiles_at` on (when non-zero), the sampled
/// index is **mirrored** (`len − 1 − index`): the population's churn
/// behaviour flips mid-run without touching the draw sequence, which is
/// what makes the behaviour-shift scenario seed-comparable against the
/// stationary one.
fn assign_profile(cfg: &SimConfig, round: u64, rng: &mut peerback_sim::SimRng) -> usize {
    let sampled = cfg.profiles.sample(rng);
    if cfg.shift_profiles_at > 0 && round >= cfg.shift_profiles_at {
        cfg.profiles.len() - 1 - sampled
    } else {
        sampled
    }
}

impl ShardLane<'_> {
    /// (Re)initialises a regular peer in its slot: samples profile,
    /// lifetime and initial session from the shard's RNG stream,
    /// schedules its events on the shard's wheel segment. Shared by the
    /// round-0 population spawn and the death-replacement path of the
    /// local-events stage.
    pub(in crate::world) fn init_regular_peer(
        &mut self,
        id: PeerId,
        round: u64,
        cfg: &SimConfig,
        samplers: &[SessionSampler],
    ) {
        let profile_id = assign_profile(cfg, round, &mut self.shard.rng);
        let lifetime = cfg
            .profiles
            .profile(profile_id)
            .lifetime
            .sample(&mut self.shard.rng);
        let sampler = samplers[profile_id];
        let online = sampler.initial_online(&mut self.shard.rng);
        // Gated on the fraction so the axis being off leaves every
        // existing seed's draw sequence untouched.
        let misreports = cfg.misreport_fraction > 0.0 && {
            use rand::Rng;
            self.shard.rng.gen_bool(cfg.misreport_fraction)
        };

        self.peers.set_profile(id, profile_id as u8);
        self.peers.set_misreports(id, misreports);
        // Failure domain: a pure hash of the slot (no RNG draw, so the
        // axis being off — or on — never perturbs the draw sequence).
        let dom = if cfg.failure_domains.domains > 0 {
            super::domain_of(cfg.seed, cfg.failure_domains.domains, id)
        } else {
            0
        };
        self.peers.set_domain(id, dom);
        // The reputation ledger starts clean for the replacement peer.
        self.peers.set_suspicion(id, 0);
        self.peers.set_quarantined(id, false);
        self.peers
            .set_threshold(id, cfg.maintenance.threshold().unwrap_or(0));
        self.peers.set_birth(id, round);
        self.peers
            .set_death(id, lifetime.map_or(u64::MAX, |l| round + l));
        self.peers.set_observer(id, None);
        self.peers.set_online_raw(id, false); // set_online manages the index
        self.peers.set_online_accum(id, 0);
        self.peers.set_last_transition(id, round);
        debug_assert_eq!(self.peers.hosted_len(id), 0);
        let n = cfg.n_blocks();
        for aidx in 0..cfg.archives_per_peer as usize {
            debug_assert_eq!(self.peers.present(id, aidx), 0);
            self.peers.set_joined(id, aidx, false);
            self.peers.set_repairing(id, aidx, false);
            self.peers.set_struggled(id, aidx, false);
            self.peers.set_target(id, aidx, n);
        }
        self.peers.set_quota_used(id, 0);

        let epoch = self.peers.epoch(id);
        let seq = self.peers.session_seq(id);
        let death = self.peers.death(id);
        self.census_delta[AgeCategory::Newcomer.index()] += 1;

        if death != u64::MAX {
            self.shard
                .wheel
                .schedule(Round(death), Event::Death { peer: id, epoch });
        }
        // First category boundary.
        self.shard.wheel.schedule(
            Round(round + AgeCategory::BOUNDARIES[0]),
            Event::CatAdvance { peer: id, epoch },
        );
        // Session process. A peer spawning into an active regional
        // outage starts offline regardless of its draw and reconnects
        // when the outage lifts (its toggle defers further if needed).
        let outage = self.outage_end(id, round);
        if sampler.always_offline() {
            // Stays offline forever; it can never act.
        } else if let Some(end) = outage {
            self.shard.wheel.schedule(
                Round(end),
                Event::Toggle {
                    peer: id,
                    epoch,
                    seq,
                },
            );
            self.arm_offline_timeout(id, round, end - round, cfg);
        } else if sampler.always_online() {
            self.set_online(id, true);
        } else if online {
            self.set_online(id, true);
            let dur = sampler.online_duration(&mut self.shard.rng);
            self.shard.wheel.schedule(
                Round(round + dur),
                Event::Toggle {
                    peer: id,
                    epoch,
                    seq,
                },
            );
        } else {
            let dur = sampler.offline_duration(&mut self.shard.rng);
            self.shard.wheel.schedule(
                Round(round + dur),
                Event::Toggle {
                    peer: id,
                    epoch,
                    seq,
                },
            );
            // A freshly spawned offline peer is mid-way through an
            // offline run; its write-off timer follows the same rule as
            // a toggle's (no-op before it hosts anything).
            self.arm_offline_timeout(id, round, dur, cfg);
        }
        if let crate::config::MaintenancePolicy::Proactive { tick_rounds } = cfg.maintenance {
            self.shard.wheel.schedule(
                Round(round + tick_rounds),
                Event::ProactiveTick { peer: id, epoch },
            );
        }
        if self.peers.online(id) {
            self.enqueue(id); // begin joining
        }
    }
}
