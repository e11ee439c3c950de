//! World-level unit tests: structural invariants under churn, policy
//! behaviour, and the repair-episode lifecycle.

use peerback_sim::{sim_rng, Engine};

use super::partners::{MISREPORT_INFLATION, POOL_ATTEMPT_FACTOR, POOL_TARGET_FACTOR};
use super::peers::{ArchiveIdx, OFFLINE};
use super::shard::Proposal;
use super::*;
use crate::config::MaintenancePolicy;
use crate::select::SelectionStrategy;

/// A small but fully functional configuration: 60 peers, 8+8 blocks.
fn tiny_config(seed: u64) -> SimConfig {
    let mut cfg = SimConfig::paper(60, 200, seed);
    cfg.k = 8;
    cfg.m = 8;
    cfg.quota = 48;
    cfg.maintenance = MaintenancePolicy::Reactive { threshold: 10 };
    cfg
}

fn run(cfg: SimConfig) -> Metrics {
    let rounds = cfg.rounds;
    let seed = cfg.seed;
    let mut world = BackupWorld::new(cfg);
    let mut engine = Engine::new(seed);
    engine.run(&mut world, rounds);
    world.into_metrics()
}

#[test]
fn peers_join_and_the_network_stabilises() {
    let m = run(tiny_config(1));
    assert!(
        m.diag.joins_completed >= 60,
        "only {} joins completed",
        m.diag.joins_completed
    );
    assert!(m.diag.session_toggles > 0);
    assert_eq!(m.rounds, 200);
}

#[test]
fn same_seed_reproduces_exactly() {
    let a = run(tiny_config(7));
    let b = run(tiny_config(7));
    assert_eq!(a.repairs, b.repairs);
    assert_eq!(a.losses, b.losses);
    assert_eq!(a.diag, b.diag);
    assert_eq!(a.samples.len(), b.samples.len());
    for (sa, sb) in a.samples.iter().zip(&b.samples) {
        assert_eq!(sa, sb);
    }
}

#[test]
fn different_seeds_differ() {
    let a = run(tiny_config(1));
    let b = run(tiny_config(2));
    assert!(
        a.diag != b.diag || a.repairs != b.repairs,
        "two seeds produced identical runs"
    );
}

#[test]
fn census_conservation() {
    let mut cfg = tiny_config(3);
    cfg.rounds = 300;
    let rounds = cfg.rounds;
    let n = cfg.n_peers as u64;
    let mut world = BackupWorld::new(cfg);
    let mut engine = Engine::new(3);
    for _ in 0..rounds {
        engine.step(&mut world);
        let total: u64 = world.census.iter().sum();
        assert_eq!(total, n, "census drifted at {}", engine.current_round());
    }
}

#[test]
fn partner_count_never_exceeds_n() {
    let mut cfg = tiny_config(4);
    cfg.rounds = 300;
    let rounds = cfg.rounds;
    let mut world = BackupWorld::new(cfg);
    let mut engine = Engine::new(4);
    for _ in 0..rounds {
        engine.step(&mut world);
        let n = world.cfg.n_blocks();
        for i in 0..world.peers.len() as PeerId {
            for ai in 0..world.peers.archives_per_peer() {
                let present = world.peers.present(i, ai);
                assert!(
                    present <= n,
                    "peer {i} archive {ai} has {present} partners (n = {n})"
                );
                // Partner lists (fresh + stale) never have duplicates.
                let mut sorted: Vec<PeerId> = (0..present as usize)
                    .map(|x| world.peers.host_at(i, ai, x))
                    .collect();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(
                    sorted.len(),
                    present as usize,
                    "peer {i} archive {ai} duplicate partner"
                );
            }
        }
    }
}

#[test]
fn joined_archives_stay_above_k_or_get_lost() {
    // After every round, a joined archive has at least k present
    // blocks (losses reset archives below k immediately).
    let mut cfg = tiny_config(5);
    cfg.rounds = 400;
    let rounds = cfg.rounds;
    let mut world = BackupWorld::new(cfg);
    let mut engine = Engine::new(5);
    for _ in 0..rounds {
        engine.step(&mut world);
        let k = world.k();
        for i in 0..world.peers.len() as PeerId {
            for ai in 0..world.peers.archives_per_peer() {
                if world.peers.joined(i, ai) {
                    assert!(
                        world.peers.present(i, ai) >= k,
                        "peer {i} archive {ai} joined with {} < k present blocks",
                        world.peers.present(i, ai)
                    );
                }
            }
        }
    }
}

impl BackupWorld {
    /// The world's structural invariants. `round_start` calls it every
    /// 16th round in every test build, so every world-level test checks
    /// them:
    ///
    /// * every archive's `present` and `target` are at most `n`;
    /// * a quarantined host holds nothing (its eviction fires the round
    ///   after the strike that quarantined it, before any check);
    /// * a peer is online exactly when it sits in its shard's online
    ///   list, at the position `online_pos` records (`OFFLINE` when
    ///   offline);
    /// * a peer is `queued` exactly when it sits, once, in its shard's
    ///   pending queue;
    /// * every shard's round buffers — outbox, inbox, proposals, actors,
    ///   departed list, event buffer — are empty between rounds;
    /// * the ledgers ([`BackupWorld::check_ledgers`]).
    ///
    /// Wheel entries are not checked against live epochs: stale entries
    /// are dropped when they fire, by design (`events.rs`).
    pub(super) fn check_invariants(&self) {
        let peers = &self.peers;
        let n = self.n_blocks();
        let mut pending = vec![false; peers.len()];
        for (s, shard) in self.shards.iter().enumerate() {
            for (buffer, len) in [
                ("outbox", shard.out.len()),
                ("inbox", shard.inbox.len()),
                ("proposals", shard.proposals.len()),
                ("actors", shard.actors.len()),
                ("departed list", shard.departed.len()),
                ("event buffer", shard.events.len()),
            ] {
                assert_eq!(len, 0, "shard {s}: {buffer} not empty between rounds");
            }
            for &id in &shard.pending {
                assert_eq!(self.layout.shard_of(id), s, "peer {id} queued on shard {s}");
                assert!(!pending[id as usize], "peer {id} queued twice");
                pending[id as usize] = true;
            }
        }
        let mut online = 0;
        for id in 0..peers.len() as PeerId {
            for a in 0..peers.archives_per_peer() {
                assert!(
                    peers.present(id, a) <= n,
                    "peer {id} archive {a}: present > n"
                );
                assert!(
                    peers.target(id, a) <= n,
                    "peer {id} archive {a}: target > n"
                );
            }
            if peers.quarantined(id) {
                assert_eq!(
                    peers.hosted_len(id),
                    0,
                    "quarantined host {id} holds blocks"
                );
            }
            let pos = self.online_pos[id as usize];
            if peers.online(id) {
                online += 1;
                let list = &self.shards[self.layout.shard_of(id)].online;
                assert_eq!(
                    list.get(pos as usize),
                    Some(&id),
                    "peer {id}: online_pos stale"
                );
            } else {
                assert_eq!(pos, OFFLINE, "offline peer {id} has an online position");
            }
            assert_eq!(
                peers.queued(id),
                pending[id as usize],
                "peer {id}: queued flag"
            );
        }
        // Every online peer owns a distinct list slot, so equal totals
        // leave no offline or duplicate entry in the lists.
        let listed: usize = self.shards.iter().map(|s| s.online.len()).sum();
        assert_eq!(
            listed, online,
            "online lists hold offline or duplicate peers"
        );
        self.check_ledgers();
    }

    /// The ledger invariant: the multiset of `(host, owner, archive)`
    /// over every fresh and stale partner entry equals the multiset
    /// over every hosted ledger, no host stores one `(owner, archive)`
    /// twice, and each host's `quota_used` is its count of non-observer
    /// entries, at most `quota`. Part of
    /// [`BackupWorld::check_invariants`], so every world-level test
    /// checks the grant stage's in-place ledger writes.
    ///
    /// O(E + slots) in the placed blocks `E`: a counting sort buckets
    /// the partner entries by host, and a stamp per `(owner, archive)`
    /// matches each bucket against its host's ledger. (A comparison
    /// sort of all `E` keys costs ~8 ms per call at 9k entries in an
    /// unoptimised test build — seconds over the suite.)
    pub(super) fn check_ledgers(&self) {
        let peers = &self.peers;
        let apap = peers.archives_per_peer();
        let partner_entries = || {
            (0..peers.len() as PeerId).flat_map(move |owner| {
                (0..apap).flat_map(move |a| {
                    (0..peers.present(owner, a) as usize)
                        .map(move |i| (peers.host_at(owner, a, i), owner as usize * apap + a))
                })
            })
        };
        // Partner entries bucketed by host: host `h`'s packed
        // `owner × apap + archive` keys are `by_host[start[h]..start[h + 1]]`.
        let mut start = vec![0usize; peers.len() + 1];
        for (host, _) in partner_entries() {
            start[host as usize + 1] += 1;
        }
        for h in 0..peers.len() {
            start[h + 1] += start[h];
        }
        let mut fill = start.clone();
        let mut by_host = vec![0usize; start[peers.len()]];
        for (host, key) in partner_entries() {
            by_host[fill[host as usize]] = key;
            fill[host as usize] += 1;
        }
        let mut mark = vec![u32::MAX; peers.len() * apap];
        for host in 0..peers.len() as PeerId {
            let mut charged = 0u32;
            for x in 0..peers.hosted_len(host) {
                let (owner, aidx) = peers.hosted_at(host, x);
                let key = owner as usize * apap + aidx as usize;
                assert_ne!(
                    mark[key], host,
                    "host {host} stores ({owner}, {aidx}) twice"
                );
                mark[key] = host;
                charged += u32::from(peers.observer(owner).is_none());
            }
            assert_eq!(
                peers.quota_used(host),
                charged,
                "peer {host}: quota drifted"
            );
            assert!(charged <= self.cfg.quota, "peer {host} exceeds quota");
            let bucket = &by_host[start[host as usize]..start[host as usize + 1]];
            assert_eq!(
                bucket.len(),
                peers.hosted_len(host),
                "host {host}: partner entries naming it and its ledger differ in size"
            );
            for &key in bucket {
                assert_eq!(
                    mark[key],
                    host,
                    "host {host} partners ({}, {}) without a ledger entry",
                    key / apap,
                    key % apap
                );
                mark[key] = u32::MAX;
            }
        }
    }
}

impl BackupWorld {
    /// The two-phase exchange written straight-line: every proposal in
    /// global `(owner shard, proposal, rank)` order claims ranks `0..d`
    /// against live quotas, then every proposal granted `g < d` claims
    /// the next `d − g` ranks beyond that window, in the same order,
    /// against the quotas wave A left. Returns each proposal's granted
    /// hosts (wave A's in rank order, then wave B's), per owner shard.
    /// `commit_proposals` computes it every round in every test build
    /// and the owner stage asserts the hosts it rebuilt from the grant
    /// logs equal it.
    pub(super) fn reference_grants(&self) -> Vec<Vec<Vec<PeerId>>> {
        let quota = self.cfg.quota;
        let mut used = std::collections::HashMap::new();
        let mut claim = |host: PeerId, observer: bool| {
            let used = used
                .entry(host)
                .or_insert_with(|| self.peers.quota_used(host));
            let grant = *used < quota;
            if grant && !observer {
                *used += 1;
            }
            grant
        };
        let window = |p: &Proposal| (p.d as usize).min(p.pool.len());
        let mut granted: Vec<Vec<Vec<PeerId>>> = self
            .shards
            .iter()
            .map(|shard| {
                shard
                    .proposals
                    .iter()
                    .map(|p| {
                        let ranks = &p.pool[..window(p)];
                        ranks
                            .iter()
                            .copied()
                            .filter(|&h| claim(h, p.owner_observer))
                            .collect()
                    })
                    .collect()
            })
            .collect();
        for (shard, hosts) in self.shards.iter().zip(&mut granted) {
            for (p, hosts) in shard.proposals.iter().zip(hosts) {
                let missing = p.d as usize - hosts.len();
                let end = (window(p) + missing).min(p.pool.len());
                for &h in &p.pool[window(p)..end] {
                    if claim(h, p.owner_observer) {
                        hosts.push(h);
                    }
                }
            }
        }
        granted
    }
}

#[test]
fn quota_accounting_is_consistent() {
    let mut cfg = tiny_config(6);
    cfg.rounds = 250;
    let rounds = cfg.rounds;
    let quota = cfg.quota;
    let mut world = BackupWorld::new(cfg);
    let mut engine = Engine::new(6);
    for _ in 0..rounds {
        engine.step(&mut world);
        world.check_invariants();
        for i in 0..world.peers.len() as PeerId {
            let counted = (0..world.peers.hosted_len(i))
                .filter(|&x| {
                    let (o, _) = world.peers.hosted_at(i, x);
                    world.peers.observer(o).is_none()
                })
                .count() as u32;
            assert_eq!(world.peers.quota_used(i), counted, "peer {i} quota drifted");
            assert!(world.peers.quota_used(i) <= quota, "peer {i} exceeds quota");
        }
    }
}

#[test]
fn hosted_and_partner_lists_are_mutually_consistent() {
    let mut cfg = tiny_config(8);
    cfg.rounds = 150;
    let rounds = cfg.rounds;
    let mut world = BackupWorld::new(cfg);
    let mut engine = Engine::new(8);
    for _ in 0..rounds {
        engine.step(&mut world);
        world.check_invariants();
    }
    for i in 0..world.peers.len() as PeerId {
        for ai in 0..world.peers.archives_per_peer() {
            for x in 0..world.peers.present(i, ai) as usize {
                let partner = world.peers.host_at(i, ai, x);
                let entries = (0..world.peers.hosted_len(partner))
                    .filter(|&y| world.peers.hosted_at(partner, y) == (i, ai as ArchiveIdx))
                    .count();
                assert_eq!(
                    entries, 1,
                    "peer {i} archive {ai} <-> partner {partner} inconsistent"
                );
            }
        }
        for x in 0..world.peers.hosted_len(i) {
            let (owner, aidx) = world.peers.hosted_at(i, x);
            let a = aidx as usize;
            assert!(
                world.peers.partner_position(owner, a, i).is_some()
                    || world.peers.stale_position(owner, a, i).is_some(),
                "hosted entry without matching partner entry"
            );
        }
    }
}

#[test]
fn long_offline_hosts_are_written_off() {
    let mut cfg = tiny_config(9);
    cfg.offline_timeout = 12;
    cfg.rounds = 500;
    let m = run(cfg);
    assert!(
        m.diag.partner_timeouts > 0,
        "no partner ever exceeded a 12-round offline run"
    );
    // After a timeout fires, the host's hosted list must be empty —
    // verified structurally by quota consistency + the invariant
    // below: no offline-beyond-timeout peer hosts anything.
}

#[test]
fn timeouts_disabled_means_only_deaths_remove_blocks() {
    let mut cfg = tiny_config(10);
    cfg.offline_timeout = 0;
    cfg.rounds = 2500; // long enough that erratic peers (1–3 month
                       // lifetimes) certainly depart
    let m = run(cfg);
    assert_eq!(m.diag.partner_timeouts, 0);
    // Repairs still happen (departures), just far fewer.
    assert!(m.diag.departures > 0);
}

#[test]
fn observers_are_never_partners_and_consume_no_quota() {
    let mut cfg = tiny_config(11);
    cfg = cfg.with_paper_observers();
    cfg.rounds = 300;
    let rounds = cfg.rounds;
    let mut world = BackupWorld::new(cfg);
    let mut engine = Engine::new(11);
    for _ in 0..rounds {
        engine.step(&mut world);
    }
    let obs_count = world.observer_count;
    for i in 0..world.peers.len() as PeerId {
        if (i as usize) < obs_count {
            assert_eq!(world.peers.hosted_len(i), 0, "observer {i} hosts blocks");
            assert!(world.peers.online(i), "observer {i} offline");
            assert!(world.peers.observer(i).is_some());
        } else {
            for ai in 0..world.peers.archives_per_peer() {
                for x in 0..world.peers.present(i, ai) as usize {
                    let q = world.peers.host_at(i, ai, x);
                    assert!(
                        world.peers.observer(q).is_none(),
                        "regular peer {i} uses observer {q} as partner"
                    );
                }
            }
        }
    }
    let metrics = world.into_metrics();
    assert_eq!(metrics.observers.len(), 5);
    let baby = metrics.observers.iter().find(|o| o.name == "Baby").unwrap();
    assert_eq!(baby.frozen_age, 1);
}

#[test]
fn repairs_happen_under_churn() {
    let mut cfg = tiny_config(12);
    cfg.rounds = 2000;
    let m = run(cfg);
    assert!(m.total_repairs() > 0, "no repairs in 2000 rounds of churn");
    assert!(m.diag.departures > 0);
    assert!(m.diag.joins_completed >= 60);
}

#[test]
fn proactive_policy_runs() {
    let mut cfg = tiny_config(13);
    cfg.maintenance = MaintenancePolicy::Proactive { tick_rounds: 24 };
    cfg.rounds = 2000;
    let m = run(cfg);
    assert!(m.total_repairs() > 0, "proactive policy never repaired");
}

#[test]
fn oracle_strategy_beats_youngest_on_maintenance_work() {
    let mk = |strategy| {
        let mut cfg = tiny_config(14).with_strategy(strategy);
        cfg.rounds = 3000;
        run(cfg)
    };
    let oracle = mk(SelectionStrategy::OracleLifetime);
    let youngest = mk(SelectionStrategy::Youngest);
    let oracle_work = oracle.total_repairs() + oracle.total_losses();
    let youngest_work = youngest.total_repairs() + youngest.total_losses();
    assert!(
        oracle_work < youngest_work,
        "oracle {oracle_work} vs youngest {youngest_work}"
    );
}

#[test]
fn multi_archive_peers_maintain_each_archive_independently() {
    let mut cfg = tiny_config(20);
    cfg.archives_per_peer = 3;
    cfg.quota = 3 * 48; // scale supply with demand
    cfg.rounds = 1500;
    let rounds = cfg.rounds;
    let mut world = BackupWorld::new(cfg);
    let mut engine = Engine::new(20);
    for _ in 0..rounds {
        engine.step(&mut world);
    }
    // Everyone ends up with 3 archive slots; joins counted per archive.
    assert_eq!(world.peers.archives_per_peer(), 3, "archive count");
    assert!(
        world.metrics.diag.joins_completed >= 3 * 60,
        "per-archive joins: {}",
        world.metrics.diag.joins_completed
    );
    // A partner may host several archives of the same owner, but at
    // most one block per (owner, archive).
    for i in 0..world.peers.len() as PeerId {
        let mut entries: Vec<(PeerId, ArchiveIdx)> = (0..world.peers.hosted_len(i))
            .map(|x| world.peers.hosted_at(i, x))
            .collect();
        entries.sort_unstable();
        let before = entries.len();
        entries.dedup();
        assert_eq!(before, entries.len(), "duplicate (owner, archive) block");
    }
}

#[test]
fn multi_archive_workload_scales_roughly_linearly() {
    // The paper's §4.1 claim: "results should scale linearly when
    // the number of archives of a peer is increasing".
    let run_with = |archives: u16, quota: u32| {
        let mut cfg = tiny_config(21);
        cfg.archives_per_peer = archives;
        cfg.quota = quota;
        cfg.rounds = 3000;
        run(cfg)
    };
    let one = run_with(1, 48);
    let two = run_with(2, 96);
    let r1 = one.total_repairs().max(1) as f64;
    let r2 = two.total_repairs() as f64;
    let ratio = r2 / r1;
    assert!(
        (1.2..3.4).contains(&ratio),
        "2 archives should roughly double maintenance, got {ratio:.2}x \
         ({} vs {})",
        two.total_repairs(),
        one.total_repairs()
    );
}

#[test]
fn adaptive_policy_adjusts_thresholds_under_stress() {
    let mut cfg = tiny_config(22);
    // Tight quota forces shortfalls, which must push thresholds down.
    cfg.quota = 18;
    cfg.maintenance = MaintenancePolicy::Adaptive {
        base: 12,
        floor_margin: 1,
        step: 1,
    };
    cfg.rounds = 3000;
    let m = run(cfg);
    assert!(
        m.diag.threshold_adjustments > 0,
        "adaptive policy never adjusted"
    );
    assert!(m.total_repairs() > 0);
}

#[test]
fn adaptive_policy_without_stress_behaves_like_reactive() {
    let mk = |maintenance| {
        let mut cfg = tiny_config(23);
        cfg.maintenance = maintenance;
        cfg.rounds = 2000;
        run(cfg)
    };
    let reactive = mk(MaintenancePolicy::Reactive { threshold: 10 });
    let adaptive = mk(MaintenancePolicy::Adaptive {
        base: 10,
        floor_margin: 1,
        step: 1,
    });
    // With ample quota (no struggle), the adaptive policy stays at
    // base and produces comparable maintenance volume.
    let r = reactive.total_repairs().max(1) as f64;
    let a = adaptive.total_repairs() as f64;
    assert!(
        (a / r) > 0.5 && (a / r) < 2.0,
        "adaptive-without-stress diverged: {a} vs {r}"
    );
}

#[test]
fn uptime_weighted_strategy_runs_and_prefers_available_peers() {
    let mut cfg = tiny_config(24).with_strategy(SelectionStrategy::UptimeWeighted);
    cfg.rounds = 3000;
    let uptime = run(cfg);
    let mut cfg = tiny_config(24).with_strategy(SelectionStrategy::Youngest);
    cfg.rounds = 3000;
    let youngest = run(cfg);
    assert!(
        uptime.total_repairs() < youngest.total_repairs(),
        "uptime-weighted ({}) should beat youngest-first ({})",
        uptime.total_repairs(),
        youngest.total_repairs()
    );
}

#[test]
fn restorability_series_is_sampled_and_bounded() {
    let mut cfg = tiny_config(25);
    cfg.rounds = 2000;
    let m = run(cfg);
    assert!(!m.restorability.is_empty(), "restorability unsampled");
    for &(_, f) in &m.restorability {
        assert!((0.0..=1.0).contains(&f), "fraction {f} out of range");
    }
    assert!(m.mean_restorability().is_some());
}

#[test]
fn always_online_network_is_fully_restorable() {
    use peerback_churn::{LifetimeSpec, Profile, ProfileMix};
    let mut cfg = tiny_config(26);
    cfg.profiles = ProfileMix::new(vec![(
        Profile::new("Titan", LifetimeSpec::Unlimited, 1.0),
        1.0,
    )]);
    cfg.rounds = 1000;
    let m = run(cfg);
    let mean = m.mean_restorability().unwrap();
    assert!(
        mean > 0.99,
        "always-online network should be ~100% instantly restorable, got {mean}"
    );
}

#[test]
#[should_panic(expected = "invalid simulation config")]
fn invalid_config_panics() {
    let mut cfg = tiny_config(0);
    cfg.n_peers = 0;
    let _ = BackupWorld::new(cfg);
}

// ----- repair-episode lifecycle ---------------------------------------------
//
// White-box tests of the §3.2 episode state machine: the helpers below
// run a world until it stabilises, then surgically remove blocks and
// dry up the candidate pool to exercise the exact transitions.

/// Steps `world` until some online, fully joined regular peer exists
/// and returns its id.
fn run_until_joined_owner(world: &mut BackupWorld, engine: &mut Engine) -> PeerId {
    for _ in 0..100 {
        engine.step(world);
        let found = (0..world.peers.len() as PeerId).find(|&id| {
            world.peers.observer(id).is_none()
                && world.peers.online(id)
                && world.peers.fully_joined(id)
                && !world.peers.repairing(id, 0)
                && world.peers.stale_len(id, 0) == 0
        });
        if let Some(id) = found {
            return id;
        }
    }
    panic!("no joined online peer after 100 rounds");
}

/// Makes every peer except `owner` ineligible as a candidate by
/// saturating its quota (the pool filter skips full hosts).
fn saturate_all_quotas_except(world: &mut BackupWorld, owner: PeerId) {
    let quota = world.cfg.quota;
    for id in 0..world.peers.len() as PeerId {
        if id != owner {
            let q = world.peers.quota_used(id).max(quota);
            world.peers.set_quota_used(id, q);
        }
    }
}

/// Undoes [`saturate_all_quotas_except`]: restores each peer's
/// `quota_used` to the true count of quota-charged hosted blocks.
fn restore_true_quotas(world: &mut BackupWorld) {
    for id in 0..world.peers.len() as PeerId {
        let counted = (0..world.peers.hosted_len(id))
            .filter(|&x| {
                let (o, _) = world.peers.hosted_at(id, x);
                world.peers.observer(o).is_none()
            })
            .count() as u32;
        world.peers.set_quota_used(id, counted);
    }
}

#[test]
fn episode_without_partners_stays_open_across_rounds() {
    let cfg = tiny_config(30);
    let threshold = 10u32; // tiny_config's reactive threshold
    let mut world = BackupWorld::new(cfg);
    let mut engine = Engine::new(30);
    let owner = run_until_joined_owner(&mut world, &mut engine);
    let round = engine.current_round().index();
    let mut rng = sim_rng(0xdead_beef);

    // Knock the archive below the trigger threshold but keep it at or
    // above k, by writing off whole hosts (the event path a departure
    // or timeout takes).
    let n = world.cfg.n_blocks();
    let k = world.k();
    let mut present = n;
    while present >= threshold {
        let host = world.peers.partners(owner, 0)[0];
        world.drop_hosted_blocks(host, round);
        present = world.peers.present(owner, 0);
    }
    assert!(present >= k, "setup overshot: {present} < k");
    assert!(!world.peers.repairing(owner, 0));
    let repairs_before = world.peers.repairs(owner);

    // Dry up the pool entirely, then trigger the repair.
    saturate_all_quotas_except(&mut world, owner);
    world.reactive_repair(owner, 0, threshold, round, &mut rng);

    // The episode opened (decode paid, repair counted once)…
    assert!(world.peers.repairing(owner, 0), "episode should be open");
    assert_eq!(world.peers.repairs(owner), repairs_before + 1);
    assert!(
        world.peers.queued(owner),
        "open episode must re-enqueue the owner for the next round"
    );
    let shortfalls = world.metrics.diag.pool_shortfalls;
    assert!(shortfalls > 0, "empty pool must count a shortfall");

    // …and stays open across further activations while the pool is dry,
    // WITHOUT starting (or paying for) a new episode.
    for r in 1..=3 {
        world.reactive_repair(owner, 0, threshold, round + r, &mut rng);
        assert!(
            world.peers.repairing(owner, 0),
            "episode closed with the pool still dry"
        );
        assert_eq!(
            world.peers.repairs(owner),
            repairs_before + 1,
            "a persistent episode must not be re-counted"
        );
        assert!(world.peers.queued(owner));
    }
    assert!(world.metrics.diag.pool_shortfalls > shortfalls);

    // Once candidates reappear, the same episode completes: back to n
    // fresh partners, no stale remnants, flag cleared.
    restore_true_quotas(&mut world);
    for r in 4..=40 {
        world.reactive_repair(owner, 0, threshold, round + r, &mut rng);
        if !world.peers.repairing(owner, 0) {
            break;
        }
    }
    assert!(!world.peers.repairing(owner, 0), "episode never completed");
    assert_eq!(world.peers.partners_len(owner, 0) as u32, n);
    assert_eq!(world.peers.stale_len(owner, 0), 0);
    assert_eq!(
        world.peers.repairs(owner),
        repairs_before + 1,
        "completion must not count an extra episode"
    );
}

#[test]
fn loss_is_counted_the_instant_present_drops_below_k() {
    let cfg = tiny_config(31);
    let mut world = BackupWorld::new(cfg);
    let mut engine = Engine::new(31);
    let owner = run_until_joined_owner(&mut world, &mut engine);
    let round = engine.current_round().index();

    let k = world.k();
    let losses_before = world.peers.losses(owner);
    let cat = world.peers.category_at(owner, round);
    let cat_losses_before = world.metrics.losses[cat.index()];

    // Write off hosts until exactly k blocks remain: still no loss —
    // `present == k` is the last recoverable state.
    while world.peers.present(owner, 0) > k {
        let host = world.peers.partners(owner, 0)[0];
        world.drop_hosted_blocks(host, round);
    }
    assert_eq!(world.peers.present(owner, 0), k);
    assert!(
        world.peers.joined(owner, 0),
        "archive at present == k is not lost yet"
    );
    assert_eq!(world.peers.losses(owner), losses_before);

    // One more write-off pushes present below k: the loss is recorded
    // by the very same call — no round boundary, no activation needed.
    let host = world.peers.partners(owner, 0)[0];
    world.drop_hosted_blocks(host, round);

    assert_eq!(
        world.peers.losses(owner),
        losses_before + 1,
        "loss not counted instantly"
    );
    assert_eq!(world.metrics.losses[cat.index()], cat_losses_before + 1);
    assert!(
        !world.peers.joined(owner, 0),
        "lost archive must leave the joined state"
    );
    assert!(
        !world.peers.repairing(owner, 0),
        "loss cancels any open episode"
    );
    assert_eq!(
        world.peers.present(owner, 0),
        0,
        "loss must release all surviving partners"
    );
    assert!(
        world.peers.queued(owner),
        "an online owner re-joins immediately after a loss"
    );
    // The released partners no longer carry hosted entries for it.
    for i in 0..world.peers.len() as PeerId {
        assert!(
            !(0..world.peers.hosted_len(i)).any(|x| world.peers.hosted_at(i, x).0 == owner),
            "peer {i} still hosts a block of the lost archive"
        );
    }
}

#[test]
fn episode_survives_the_owner_going_offline_and_resumes() {
    // An open episode is per-archive state: the owner disconnecting
    // must neither close it nor lose the decode it already paid.
    let cfg = tiny_config(32);
    let threshold = 10u32;
    let mut world = BackupWorld::new(cfg);
    let mut engine = Engine::new(32);
    let owner = run_until_joined_owner(&mut world, &mut engine);
    let round = engine.current_round().index();
    let mut rng = sim_rng(0xfeed_f00d);

    while world.peers.present(owner, 0) >= threshold {
        let host = world.peers.partners(owner, 0)[0];
        world.drop_hosted_blocks(host, round);
    }
    saturate_all_quotas_except(&mut world, owner);
    world.reactive_repair(owner, 0, threshold, round, &mut rng);
    assert!(world.peers.repairing(owner, 0));
    let repairs_after_open = world.peers.repairs(owner);

    // Owner drops offline mid-episode; the flag persists.
    world.set_online(owner, false);
    assert!(world.peers.repairing(owner, 0));

    // On reconnection the toggle path re-enqueues it because of the
    // open episode (mirrors `process_toggle`'s needs_repair check).
    world.set_online(owner, true);
    let needs_repair =
        (0..world.peers.archives_per_peer()).any(|a| world.peers.repairing(owner, a));
    assert!(needs_repair, "reconnection must see the open episode");

    restore_true_quotas(&mut world);
    for r in 1..=40 {
        world.reactive_repair(owner, 0, threshold, round + r, &mut rng);
        if !world.peers.repairing(owner, 0) {
            break;
        }
    }
    assert!(!world.peers.repairing(owner, 0));
    assert_eq!(
        world.peers.repairs(owner),
        repairs_after_open,
        "resume must not open a second episode"
    );
}

/// Mirrors the event stream into per-archive host sets and checks the
/// hooks.rs ordering contract as it replays.
struct MirrorObserver {
    /// `(owner, archive)` → hosts believed to hold one block each.
    held: std::collections::BTreeMap<(PeerId, u8), Vec<PeerId>>,
    n: usize,
    k: usize,
    placements: u64,
    drops: u64,
    losses: u64,
    departures: u64,
    violations: Vec<String>,
}

impl MirrorObserver {
    fn apply(&mut self, event: &WorldEvent) {
        match event {
            WorldEvent::BlocksPlaced {
                owner,
                archive,
                hosts,
            } => {
                let set = self.held.entry((*owner, *archive)).or_default();
                for h in hosts {
                    if set.contains(h) {
                        self.violations.push(format!("duplicate host {h}"));
                    }
                    set.push(*h);
                    self.placements += 1;
                }
                if set.len() > self.n {
                    self.violations
                        .push(format!("{} blocks > n for {owner}/{archive}", set.len()));
                }
            }
            WorldEvent::BlockDropped {
                owner,
                archive,
                host,
            } => {
                let set = self.held.entry((*owner, *archive)).or_default();
                match set.iter().position(|h| h == host) {
                    Some(pos) => {
                        set.swap_remove(pos);
                    }
                    None => self
                        .violations
                        .push(format!("drop of unknown block {owner}/{archive}@{host}")),
                }
                self.drops += 1;
            }
            WorldEvent::ArchiveLost { owner, archive, .. } => {
                let held = self.held.get(&(*owner, *archive)).map_or(0, Vec::len);
                if held >= self.k {
                    self.violations
                        .push(format!("loss with {held} >= k blocks held"));
                }
                self.losses += 1;
            }
            WorldEvent::PeerDeparted { peer } => {
                // All of the departed peer's own blocks must be gone.
                for ((owner, archive), set) in &self.held {
                    if owner == peer && !set.is_empty() {
                        self.violations
                            .push(format!("departed {peer} still owns blocks @{archive}"));
                    }
                    if set.contains(peer) {
                        self.violations
                            .push(format!("departed {peer} still hosts for {owner}"));
                    }
                }
                self.departures += 1;
            }
            WorldEvent::JoinCompleted { .. }
            | WorldEvent::EpisodeStarted { .. }
            | WorldEvent::EpisodeCompleted { .. } => {}
        }
    }
}

#[test]
fn event_stream_replays_to_a_consistent_mirror() {
    let cfg = tiny_config(11);
    let rounds = cfg.rounds;
    let mut observer = MirrorObserver {
        held: std::collections::BTreeMap::new(),
        n: cfg.n_blocks() as usize,
        k: cfg.k as usize,
        placements: 0,
        drops: 0,
        losses: 0,
        departures: 0,
        violations: Vec::new(),
    };
    let mut world = BackupWorld::new(cfg);
    world.set_event_recording(true);
    let mut engine = Engine::new(11);
    for event in &drain_rounds(&mut world, &mut engine, rounds) {
        observer.apply(event);
    }
    assert!(
        observer.violations.is_empty(),
        "event-stream violations: {:?}",
        &observer.violations[..observer.violations.len().min(5)]
    );
    assert!(observer.placements > 0, "no placements observed");
    assert!(observer.drops > 0, "no drops observed (expected churn)");
    assert!(world.event_log.is_empty());

    // The mirror must agree with the world, block for block.
    for slot in 0..world.peers.len() as PeerId {
        for aidx in 0..world.peers.archives_per_peer() as u8 {
            let mut expected = world.archive_hosts(slot, aidx);
            expected.sort_unstable();
            let mut mirrored = observer
                .held
                .get(&(slot, aidx))
                .cloned()
                .unwrap_or_default();
            mirrored.sort_unstable();
            assert_eq!(mirrored, expected, "mirror desync at {slot}/{aidx}");
        }
    }

    // The placed/dropped ledger must balance against live blocks.
    let live: u64 = observer.held.values().map(|s| s.len() as u64).sum();
    assert_eq!(observer.placements - observer.drops, live);
}

// ----- sharding: determinism and shard-boundary behaviour -------------------

/// A config big enough to split into several logical shards (the
/// layout gives one shard per 64 slots).
fn sharded_config(peers: usize, rounds: u64, seed: u64) -> SimConfig {
    let mut cfg = SimConfig::paper(peers, rounds, seed);
    cfg.k = 8;
    cfg.m = 8;
    cfg.quota = 48;
    cfg.maintenance = MaintenancePolicy::Reactive { threshold: 10 };
    cfg
}

/// Steps `world` for `rounds` rounds, draining its event log once per
/// round through [`BackupWorld::swap_event_buf`], and returns the
/// whole stream in emission order.
fn drain_rounds(world: &mut BackupWorld, engine: &mut Engine, rounds: u64) -> Vec<WorldEvent> {
    let mut events = Vec::new();
    let mut buf = Vec::new();
    for _ in 0..rounds {
        engine.step(world);
        world.swap_event_buf(&mut buf);
        events.append(&mut buf);
    }
    events
}

/// Runs a config to completion, recording the full event stream;
/// `setup` adjusts the world before its first round.
fn run_recorded_with(
    cfg: SimConfig,
    setup: impl FnOnce(&mut BackupWorld),
) -> (Metrics, Vec<WorldEvent>) {
    let rounds = cfg.rounds;
    let seed = cfg.seed;
    let mut world = BackupWorld::new(cfg);
    world.set_event_recording(true);
    setup(&mut world);
    let mut engine = Engine::new(seed);
    let events = drain_rounds(&mut world, &mut engine, rounds);
    (world.into_metrics(), events)
}

/// Asserts that `cfg` splits into at least `workers` logical shards,
/// and at least two, so a test comparing up to `workers` workers runs
/// each of them on its own shard.
fn assert_logical_shards(cfg: &SimConfig, workers: usize) {
    let shards = BackupWorld::new(cfg.clone()).logical_shards();
    assert!(
        shards >= workers.max(2),
        "{shards} logical shards cannot give {workers} workers distinct shards"
    );
}

/// Runs a config to completion, recording the full event stream.
fn run_recorded(cfg: SimConfig) -> (Metrics, Vec<WorldEvent>) {
    run_recorded_with(cfg, |_| {})
}

#[test]
fn sharded_runs_are_bit_identical_across_shard_counts() {
    // The tentpole contract: `shards` is an execution knob only. The
    // population must actually split into several logical shards for
    // the worker threads to have distinct work.
    let base = sharded_config(600, 400, 9).with_paper_observers();
    {
        let world = BackupWorld::new(base.clone());
        assert!(
            world.layout.count >= 8,
            "test population too small to exercise sharding ({} shards)",
            world.layout.count
        );
    }
    let (m1, e1) = run_recorded(base.clone().with_shards(1));
    let (m2, e2) = run_recorded(base.clone().with_shards(2));
    let (m8, e8) = run_recorded(base.with_shards(8));
    assert!(m1.total_repairs() > 0, "run too quiet to be meaningful");
    assert!(!e1.is_empty());
    assert_eq!(m1, m2, "metrics diverged between 1 and 2 workers");
    assert_eq!(m1, m8, "metrics diverged between 1 and 8 workers");
    assert_eq!(e1, e2, "event streams diverged between 1 and 2 workers");
    assert_eq!(e1, e8, "event streams diverged between 1 and 8 workers");
}

#[test]
fn steady_state_teardown_and_proposal_stages_go_wide() {
    // Past the join wave and the first offline write-offs (18 rounds),
    // a 4096-peer round's releases and drops and its repair proposals
    // cost more on one worker than waking the pool, so the width rule
    // spreads them over both workers — and the run stays identical to
    // one worker's.
    const WARMUP: u64 = 25;
    const ROUNDS: u64 = 45;
    let cfg = SimConfig::paper(4096, ROUNDS, 13).with_paper_observers();
    let (m1, e1) = run_recorded(cfg.clone().with_shards(1));
    let mut world = BackupWorld::new(cfg.with_shards(2));
    world.set_event_recording(true);
    let mut engine = Engine::new(13);
    let mut e2 = drain_rounds(&mut world, &mut engine, WARMUP);
    let before = world.round_profile();
    e2.extend(drain_rounds(&mut world, &mut engine, ROUNDS - WARMUP));
    let after = world.round_profile();
    let wide = |work: fn(&RoundProfile) -> StageWork| work(&after).wide - work(&before).wide;
    assert!(wide(|p| p.deliver_work) > 0, "no deliver wave went wide");
    assert!(
        wide(|p| p.proposals_work) > 0,
        "no proposal stage went wide"
    );
    assert_eq!(
        world.into_metrics(),
        m1,
        "metrics diverged between 1 and 2 workers"
    );
    assert_eq!(e2, e1, "event streams diverged between 1 and 2 workers");
}

#[test]
fn oversized_shard_counts_clamp_and_still_match() {
    let base = sharded_config(200, 200, 5);
    let (m1, e1) = run_recorded(base.clone());
    let (mx, ex) = run_recorded(base.with_shards(4096));
    assert_eq!(m1, mx);
    assert_eq!(e1, ex);
}

proptest::proptest! {
    #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(6))]

    /// The commit phase applies partner acquisitions in global peer-id
    /// order, whatever the worker count: within every round, the
    /// `BlocksPlaced` subsequence is sorted by `(owner, archive)`.
    #[test]
    fn placements_commit_in_peer_id_order(
        seed in proptest::strategy::any::<u64>(),
        peers in 150usize..400,
        shards in 1usize..9,
        archives in 1u16..3,
    ) {
        let mut cfg = SimConfig::paper(peers, 50, seed);
        cfg.k = 4;
        cfg.m = 4;
        cfg.quota = 24 * archives as u32;
        cfg.archives_per_peer = archives;
        cfg.maintenance = MaintenancePolicy::Reactive { threshold: 5 };
        cfg.shards = shards;
        let rounds = cfg.rounds;
        let mut world = BackupWorld::new(cfg);
        world.set_event_recording(true);
        let mut engine = Engine::new(seed);
        let mut buf = Vec::new();
        for _ in 0..rounds {
            engine.step(&mut world);
            world.swap_event_buf(&mut buf);
            let mut last: Option<(PeerId, u8)> = None;
            for event in &buf {
                if let WorldEvent::BlocksPlaced { owner, archive, .. } = event {
                    let key = (*owner, *archive);
                    if let Some(last) = last {
                        assert!(
                            last < key,
                            "placement for {key:?} committed after {last:?}"
                        );
                    }
                    last = Some(key);
                }
            }
        }
        let placed = world.metrics.diag.blocks_uploaded;
        proptest::prop_assert!(placed > 0, "no placements at all");
    }
}

#[test]
fn cross_shard_episode_records_the_loss_exactly_once() {
    // An archive whose owner and hosts live in different logical shards
    // loses blocks through the cross-shard write-off path; dropping it
    // below `k` must record exactly one loss and clean every shard up.
    let cfg = sharded_config(300, 120, 33);
    let mut world = BackupWorld::new(cfg);
    let mut engine = Engine::new(33);
    let owner = run_until_joined_owner(&mut world, &mut engine);
    let round = engine.current_round().index();

    let owner_shard = world.layout.shard_of(owner);
    let partner_shards: std::collections::BTreeSet<usize> = world
        .peers
        .partners(owner, 0)
        .iter()
        .map(|&p| world.layout.shard_of(p))
        .collect();
    assert!(
        world.layout.count >= 4,
        "population too small for the scenario"
    );
    assert!(
        partner_shards.len() >= 2 && partner_shards.iter().any(|&s| s != owner_shard),
        "partners all landed in the owner's shard; pick another seed"
    );

    let k = world.k();
    let losses_before = world.peers.losses(owner);
    while world.peers.present(owner, 0) >= k {
        let host = world.peers.partners(owner, 0)[0];
        world.drop_hosted_blocks(host, round);
    }
    assert_eq!(
        world.peers.losses(owner),
        losses_before + 1,
        "cross-shard loss must be counted exactly once"
    );
    // Every shard released its hosted entries for the lost archive.
    for i in 0..world.peers.len() as PeerId {
        assert!(
            !(0..world.peers.hosted_len(i)).any(|x| world.peers.hosted_at(i, x).0 == owner),
            "peer {i} (shard {}) still hosts a block of the lost archive",
            world.layout.shard_of(i)
        );
    }
}

// ----- the staged executor: steal interleavings and commit conflicts --------

/// As [`run_recorded`], with every stage dispatch executing its tasks
/// sequentially in a seeded random order — the deterministic stand-in
/// for an arbitrary work-steal interleaving.
fn run_recorded_fuzzed(cfg: SimConfig, fuzz: u64) -> (Metrics, Vec<WorldEvent>) {
    run_recorded_with(cfg, |world| world.set_exec_fuzz(Some(fuzz)))
}

proptest::proptest! {
    #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(6))]

    /// The executor determinism contract: random steal interleavings
    /// (seeded scheduler permutations of every stage's task order)
    /// produce exactly the shards=1 metrics and event stream.
    #[test]
    fn steal_interleavings_never_change_the_stream(
        seed in proptest::strategy::any::<u64>(),
        fuzz in proptest::strategy::any::<u64>(),
        peers in 150usize..400,
        shards in 2usize..9,
    ) {
        let mut cfg = SimConfig::paper(peers, 60, seed);
        cfg.k = 4;
        cfg.m = 4;
        cfg.quota = 24;
        cfg.maintenance = MaintenancePolicy::Reactive { threshold: 5 };
        let (m1, e1) = run_recorded(cfg.clone());
        cfg.shards = shards;
        let (m2, e2) = run_recorded_fuzzed(cfg, fuzz);
        proptest::prop_assert!(m1 == m2, "metrics diverged under a fuzzed schedule");
        proptest::prop_assert!(e1 == e2, "event stream diverged under a fuzzed schedule");
        proptest::prop_assert!(!e1.is_empty(), "run too quiet to be meaningful");
    }
}

#[test]
fn contended_partner_slot_commits_to_the_lower_owner() {
    // Two owners in different shards propose the same candidate, which
    // has exactly one free quota slot. The two-phase grant exchange
    // must resolve the conflict deterministically — global commit
    // order, i.e. the lower owner id — and the loser records a
    // shortfall instead of over-committing the host. When the loser's
    // pool reaches past its wave-A window, the denial earns it one
    // fallback rank in wave B, which is granted or denied in turn.
    for fallback in [None, Some(Fallback::Full), Some(Fallback::Free)] {
        contend_for_one_slot(fallback);
    }
}

/// The host beyond the higher owner's wave-A window in
/// [`contend_for_one_slot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fallback {
    /// Its quota is full: wave B is denied too.
    Full,
    /// It has one free slot: wave B is granted.
    Free,
}

/// One case of [`contended_partner_slot_commits_to_the_lower_owner`]:
/// with no fallback, both pools are the contended candidate alone;
/// with one, the higher owner's pool is the candidate, `d − 1` free
/// hosts and the fallback host.
fn contend_for_one_slot(fallback: Option<Fallback>) {
    use super::shard::ActionKind;

    let mut cfg = sharded_config(300, 120, 33);
    cfg.refresh_on_repair = false; // repairs top up only missing blocks
    let threshold = 10u32;
    let quota = cfg.quota;
    let mut world = BackupWorld::new(cfg);
    let mut engine = Engine::new(33);

    // Find two joined, online, idle owners — in different shards.
    let (a, b) = 'found: {
        for _ in 0..150 {
            engine.step(&mut world);
            let owners: Vec<PeerId> = (0..world.peers.len() as PeerId)
                .filter(|&id| {
                    world.peers.observer(id).is_none()
                        && world.peers.online(id)
                        && world.peers.fully_joined(id)
                        && !world.peers.repairing(id, 0)
                        && world.peers.stale_len(id, 0) == 0
                })
                .collect();
            for &a in &owners {
                for &b in &owners {
                    if b > a && world.layout.shard_of(a) != world.layout.shard_of(b) {
                        break 'found (a, b);
                    }
                }
            }
        }
        panic!("no cross-shard owner pair found");
    };
    let round = engine.current_round().index();

    // Candidate c: online, hosting for neither owner.
    let c = (0..world.peers.len() as PeerId)
        .find(|&i| {
            world.peers.observer(i).is_none()
                && world.peers.online(i)
                && i != a
                && i != b
                && world.peers.partner_position(a, 0, i).is_none()
                && world.peers.partner_position(b, 0, i).is_none()
        })
        .expect("an eligible candidate exists");

    // Knock both archives below the repair threshold (never below k),
    // avoiding c so its ledger stays untouched.
    for owner in [a, b] {
        while world.peers.present(owner, 0) >= threshold {
            let host = *world
                .peers
                .partners(owner, 0)
                .iter()
                .find(|&&h| h != c)
                .expect("a partner other than c remains");
            world.drop_hosted_blocks(host, round);
        }
        assert!(world.peers.present(owner, 0) >= world.k());
    }

    // Exactly one free slot on the contended candidate.
    world.peers.set_quota_used(c, quota - 1);

    let mk = |world: &BackupWorld, owner: PeerId| {
        let (kind, d) = world.plan_archive(owner, 0).expect("below threshold");
        assert_eq!(kind, ActionKind::Threshold);
        assert!(d >= 1);
        Proposal {
            owner,
            aidx: 0,
            kind,
            d,
            owner_observer: false,
            pool: vec![c],
            wave_a_denied: Default::default(),
        }
    };
    let (prop_a, mut prop_b) = (mk(&world, a), mk(&world, b));
    // b's fillers and fallback: online hosts with room that hold
    // nothing of b's and are none of a, b, c.
    let mut spare = (0..world.peers.len() as PeerId).filter(|&i| {
        world.peers.observer(i).is_none()
            && world.peers.online(i)
            && ![a, b, c].contains(&i)
            && world.peers.partner_position(b, 0, i).is_none()
            && world.peers.quota_used(i) + 1 < quota
    });
    let fallback_host = fallback.map(|kind| {
        prop_b
            .pool
            .extend(spare.by_ref().take(prop_b.d as usize - 1));
        let x = spare.next().expect("a fallback host exists");
        prop_b.pool.push(x);
        assert_eq!(
            prop_b.pool.len(),
            prop_b.d as usize + 1,
            "too few spare hosts"
        );
        let used = if kind == Fallback::Full {
            quota
        } else {
            quota - 1
        };
        (x, kind, used)
    });
    let fillers = prop_b.pool[1..prop_b.pool.len() - usize::from(fallback.is_some())].to_vec();
    if let Some((x, _, used)) = fallback_host {
        world.peers.set_quota_used(x, used);
    }
    let shortfalls_before = world.metrics.diag.pool_shortfalls;
    for prop in [prop_a, prop_b] {
        let shard = world.layout.shard_of(prop.owner);
        world.shards[shard].proposals.push(prop);
    }
    world.commit_pushed_proposals(round);

    // The lower owner id wins the slot; the loser took nothing.
    assert!(
        world.peers.partner_position(a, 0, c).is_some(),
        "lower owner must win the contended slot"
    );
    assert!(
        world.peers.partner_position(b, 0, c).is_none(),
        "higher owner must be denied the filled slot"
    );
    assert_eq!(world.peers.quota_used(c), quota);
    assert_eq!(
        (0..world.peers.hosted_len(c))
            .filter(|&x| {
                let (o, _) = world.peers.hosted_at(c, x);
                o == a || o == b
            })
            .count(),
        1,
        "exactly one hosted entry for the contended slot"
    );
    for &f in &fillers {
        assert!(
            world.peers.partner_position(b, 0, f).is_some(),
            "wave A must grant the uncontended ranks"
        );
    }
    if let Some((x, kind, _)) = fallback_host {
        assert_eq!(
            world.peers.partner_position(b, 0, x).is_some(),
            kind == Fallback::Free,
            "wave B must grant the fallback exactly when it has room"
        );
        assert_eq!(world.peers.quota_used(x), quota);
    }
    if fallback != Some(Fallback::Free) {
        assert!(
            world.metrics.diag.pool_shortfalls > shortfalls_before,
            "the denied owner must record a shortfall"
        );
        assert!(
            world.peers.repairing(b, 0),
            "the denied owner's episode stays open"
        );
    }
}

/// As [`run_recorded`], with cross-round arena recycling disabled:
/// every round rebuilds its buffers from fresh vectors.
fn run_recorded_fresh_arenas(cfg: SimConfig) -> (Metrics, Vec<WorldEvent>) {
    run_recorded_with(cfg, |world| world.set_arena_recycling(false))
}

#[test]
fn arena_recycling_is_invisible() {
    // The zero-allocation contract: recycled round arenas must be
    // observationally identical to fresh per-round buffers — same
    // seed, same Metrics, same WorldEvent stream — or stale state is
    // leaking between rounds through a recycled vector.
    let base = sharded_config(600, 400, 9).with_paper_observers();
    let (m_recycled, e_recycled) = run_recorded(base.clone().with_shards(4));
    let (m_fresh, e_fresh) = run_recorded_fresh_arenas(base.with_shards(4));
    assert!(
        m_recycled.total_repairs() > 0,
        "run too quiet to be meaningful"
    );
    assert_eq!(
        m_recycled, m_fresh,
        "metrics diverged under arena recycling"
    );
    assert_eq!(
        e_recycled, e_fresh,
        "event stream diverged under arena recycling"
    );
}

#[test]
fn shard_round_buffers_keep_capacity_only_while_recycling() {
    // Every round buffer of a shard is empty between rounds; recycling
    // keeps its capacity for the next round, and with recycling off
    // the round ends by dropping it, so no round reuses another's.
    let mut world = BackupWorld::new(sharded_config(600, 40, 9));
    let mut engine = Engine::new(9);
    let capacities = |world: &BackupWorld| {
        world
            .shards
            .iter()
            .map(|s| {
                assert!(s.actors.is_empty() && s.proposals.is_empty());
                s.actors.capacity()
                    + s.proposals.capacity()
                    + s.cursors.capacity()
                    + s.hosts.capacity()
            })
            .sum::<usize>()
    };
    engine.run(&mut world, 2);
    assert!(
        capacities(&world) > 0,
        "recycling must keep the round's capacity"
    );
    assert!(world.shards.iter().any(|s| s.pools.idle() > 0));

    world.set_arena_recycling(false);
    assert_eq!(capacities(&world), 0, "fresh mode must not reuse a buffer");
    assert!(world.shards.iter().all(|s| s.pools.idle() == 0));
    let joins = world.metrics().diag.joins_completed;
    engine.run(&mut world, 2);
    assert!(
        world.metrics().diag.joins_completed > joins,
        "the rounds did no work"
    );
    assert_eq!(
        capacities(&world),
        0,
        "fresh mode must drop the round's buffers"
    );
    assert!(world.shards.iter().all(|s| s.pools.idle() == 0));
}

proptest::proptest! {
    #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(6))]

    /// Worker-pool sizes (and arena recycling) are pure execution
    /// knobs: a random pool width with or without fresh arenas must
    /// reproduce the single-worker recycled stream exactly.
    #[test]
    fn pool_sizes_and_recycling_never_change_results(
        seed in proptest::strategy::any::<u64>(),
        shards in 2usize..16,
        fresh in proptest::strategy::any::<bool>(),
        peers in 150usize..400,
    ) {
        let mut cfg = SimConfig::paper(peers, 60, seed);
        cfg.k = 4;
        cfg.m = 4;
        cfg.quota = 24;
        cfg.maintenance = MaintenancePolicy::Reactive { threshold: 5 };
        let (m1, e1) = run_recorded(cfg.clone());
        cfg.shards = shards;
        let (m2, e2) = if fresh {
            run_recorded_fresh_arenas(cfg)
        } else {
            run_recorded(cfg)
        };
        proptest::prop_assert!(m1 == m2, "metrics diverged at pool size {shards}");
        proptest::prop_assert!(e1 == e2, "event stream diverged at pool size {shards}");
    }
}

/// A churny mix with short heavy-tailed lifetimes: enough deaths in a
/// few hundred rounds to warm the survival model (the paper mix spans
/// years and would leave it on the cold-start prior).
fn churny_config(peers: usize, rounds: u64, seed: u64) -> SimConfig {
    use peerback_churn::{LifetimeSpec, Profile, ProfileMix};
    let mut cfg = sharded_config(peers, rounds, seed);
    cfg.profiles = ProfileMix::new(vec![
        (
            Profile::new(
                "short",
                LifetimeSpec::Pareto {
                    x_min: 30.0,
                    alpha: 1.5,
                },
                0.9,
            ),
            0.5,
        ),
        (
            Profile::new("mid", LifetimeSpec::Uniform { low: 80, high: 300 }, 0.5),
            0.3,
        ),
        (
            Profile::new(
                "long",
                LifetimeSpec::Uniform {
                    low: 400,
                    high: 1200,
                },
                0.25,
            ),
            0.2,
        ),
    ]);
    cfg
}

#[test]
fn learned_age_stays_bit_identical_across_shards() {
    // The estimator rides the determinism contract: deaths are merged
    // into the model in shard order and the model refreshes
    // sequentially, so LearnedAge runs — estimator state included, via
    // `Metrics::estimator` — must be byte-identical at any worker
    // count and task interleaving. 4096 slots make 64 logical shards,
    // so shards=64 really runs 64 workers unclamped.
    let base = churny_config(4096, 150, 33).with_strategy(SelectionStrategy::LearnedAge);
    assert_logical_shards(&base, 64);
    let (m1, e1) = run_recorded(base.clone().with_shards(1));
    let report = m1.estimator.as_ref().expect("LearnedAge attaches a model");
    assert!(report.deaths_observed > 0, "run too quiet: no deaths fed");
    assert!(report.refreshes > 0, "model never refreshed");
    for shards in [8, 64] {
        let (m, e) = run_recorded(base.clone().with_shards(shards));
        assert_eq!(m1, m, "metrics diverged at shards={shards}");
        assert_eq!(e1, e, "events diverged at shards={shards}");
    }
    let (m, e) = run_recorded_fuzzed(base.with_shards(8), 0x1ea7);
    assert_eq!(m1, m, "metrics diverged under a fuzzed schedule");
    assert_eq!(e1, e, "events diverged under a fuzzed schedule");
}

#[test]
fn scenario_axes_stay_bit_identical_across_shard_counts() {
    // The behaviour-shift and age-misreport axes obey the same
    // contract, alone and combined with the learned strategy.
    let base = churny_config(600, 300, 29)
        .with_strategy(SelectionStrategy::LearnedAge)
        .with_shift_profiles_at(150)
        .with_misreport(0.25);
    let (m1, e1) = run_recorded(base.clone().with_shards(1));
    assert!(m1.total_repairs() > 0, "run too quiet to be meaningful");
    let (m8, e8) = run_recorded(base.with_shards(8));
    assert_eq!(m1, m8);
    assert_eq!(e1, e8);
}

#[test]
fn learned_age_ranks_pools_differently_from_age_based_once_active() {
    // Behavioural smoke: with the model active the learned ranking is
    // a real function of the survival fit, not a re-label of AgeBased.
    // (Identical runs would mean the estimate never deviates from the
    // age prior — possible for a cold model, wrong for a warm one.)
    let base = churny_config(600, 400, 41);
    let (m_age, _) = run_recorded(base.clone().with_strategy(SelectionStrategy::AgeBased));
    let (m_learned, _) = run_recorded(base.with_strategy(SelectionStrategy::LearnedAge));
    assert!(
        m_age.estimator.is_none(),
        "AgeBased must not pay for a model"
    );
    let report = m_learned
        .estimator
        .as_ref()
        .expect("LearnedAge attaches a model");
    assert!(report.active, "400 rounds of churn must activate the model");
    assert_ne!(
        (m_age.total_repairs(), m_age.total_losses(), m_age.diag),
        (
            m_learned.total_repairs(),
            m_learned.total_losses(),
            m_learned.diag
        ),
        "learned ranking produced a byte-identical run — estimate unused?"
    );
}

#[test]
fn misreporting_peers_inflate_negotiation_age_only() {
    let cfg = sharded_config(300, 5, 3).with_misreport(1.0);
    let rounds = cfg.rounds;
    let mut world = BackupWorld::new(cfg);
    let mut engine = Engine::new(3);
    engine.run(&mut world, rounds);
    let round = world.metrics.rounds;
    let mut checked = 0;
    for id in 0..world.peers.len() as PeerId {
        if world.peers.observer(id).is_some() || world.peers.age_at(id, round) == 0 {
            continue;
        }
        assert!(
            world.peers.misreports(id),
            "fraction 1.0 marks every regular peer"
        );
        assert_eq!(
            world.negotiation_age(id, round),
            world.peers.age_at(id, round) * 8,
            "misreported age must be the inflated true age"
        );
        checked += 1;
    }
    assert!(checked > 0, "no aged regular peers to check");
}

#[test]
fn event_recording_off_buffers_nothing() {
    let cfg = tiny_config(3);
    let rounds = cfg.rounds;
    let mut world = BackupWorld::new(cfg);
    let mut engine = Engine::new(3);
    engine.run(&mut world, rounds);
    assert!(world.event_log.is_empty());
    assert!(!world.record_events);
}

#[test]
fn event_recording_does_not_perturb_the_simulation() {
    let cfg = tiny_config(19);
    let rounds = cfg.rounds;

    let plain = run(tiny_config(19));

    let mut world = BackupWorld::new(cfg);
    world.set_event_recording(true);
    let mut engine = Engine::new(19);
    drain_rounds(&mut world, &mut engine, rounds);
    let recorded = world.into_metrics();
    assert_eq!(plain.repairs, recorded.repairs);
    assert_eq!(plain.losses, recorded.losses);
    assert_eq!(plain.diag, recorded.diag);
}

// ----- adaptive per-archive redundancy ---------------------------------

/// The tiny config with the adaptive-redundancy loop on: n = 16,
/// threshold 10, floor 16 − 4 = 12 ≥ 10.
fn adaptive_config(seed: u64) -> SimConfig {
    let mut cfg = tiny_config(seed);
    cfg.rounds = 400;
    cfg.adaptive_n = crate::config::AdaptiveRedundancy::tuned(4);
    cfg.adaptive_n.check_interval = 8;
    cfg.adaptive_n.horizon = 48;
    // Peers in the tiny world are young, so predicted durability never
    // approaches the full target width; loosen the slack so narrows
    // actually fire at this scale.
    cfg.adaptive_n.narrow_slack = 4.0;
    cfg
}

#[test]
fn adaptive_redundancy_narrows_durable_archives() {
    let m = run(adaptive_config(21));
    assert!(
        m.diag.redundancy_narrowed > 0,
        "the loop never narrowed anything (diag: {:?})",
        m.diag
    );
    assert!(
        m.diag.placements_released > 0,
        "narrows never released a placement"
    );
    // Every release was recorded against a narrow decision.
    assert!(m.diag.placements_released <= m.diag.redundancy_narrowed);
}

#[test]
fn adaptive_redundancy_keeps_targets_in_band() {
    let cfg = adaptive_config(22);
    let rounds = cfg.rounds;
    let n = cfg.n_blocks();
    let floor = n - cfg.adaptive_n.max_trim as u32;
    let mut world = BackupWorld::new(cfg);
    let mut engine = Engine::new(22);
    for _ in 0..rounds {
        engine.step(&mut world);
        for i in 0..world.peers.len() as PeerId {
            for ai in 0..world.peers.archives_per_peer() {
                let target = world.peers.target(i, ai);
                assert!(
                    (floor..=n).contains(&target),
                    "peer {i} archive {ai} target {target} outside [{floor}, {n}]"
                );
                assert!(
                    world.peers.present(i, ai) <= target.max(n),
                    "peer {i} archive {ai} holds {} blocks past its target",
                    world.peers.present(i, ai)
                );
            }
        }
    }
    // The loop actually engaged during the run.
    assert!(world.metrics().diag.redundancy_narrowed > 0);
}

#[test]
fn adaptive_redundancy_is_deterministic_across_shards() {
    let mut base = adaptive_config(23);
    base.n_peers = 256; // four logical shards
    assert_logical_shards(&base, 4);
    let one = run(base.clone().with_shards(1));
    let four = run(base.clone().with_shards(4));
    let (fuzzed, _) = run_recorded_fuzzed(base.with_shards(4), 0xada7);
    assert_eq!(one, four, "worker count changed an adaptive run");
    assert_eq!(one, fuzzed, "task order changed an adaptive run");
}

#[test]
fn adaptive_redundancy_off_leaves_runs_untouched() {
    // The disabled policy must be observationally absent: identical
    // metrics to a config that never mentions it.
    let plain = run(tiny_config(24));
    let mut cfg = tiny_config(24);
    cfg.adaptive_n = crate::config::AdaptiveRedundancy::default();
    assert!(!cfg.adaptive_n.enabled);
    let disabled = run(cfg);
    assert_eq!(plain, disabled);
}

#[test]
fn adaptive_redundancy_widen_opens_preemptive_episodes() {
    // A riskier world (shorter horizon margin, deeper trim) must
    // exercise the widen path too: narrowed archives whose host set
    // deteriorates re-widen and repair before the threshold trigger.
    let mut cfg = adaptive_config(25);
    cfg.adaptive_n.widen_margin = 4.0;
    cfg.adaptive_n.narrow_slack = 4.0; // narrow eagerly, then re-widen
    let m = run(cfg);
    assert!(m.diag.redundancy_narrowed > 0);
    assert!(
        m.diag.redundancy_widened > 0,
        "no widen decisions (diag: {:?})",
        m.diag
    );
    assert!(
        m.diag.preemptive_repairs > 0,
        "widens never opened an episode (diag: {:?})",
        m.diag
    );
}

/// The per-pair scoring loop the survival column replaced, kept
/// verbatim as the oracle: it evaluates
/// [`BackupWorld::host_survival`] once per (archive, partner) pair
/// instead of reading the column. Returns the pairs it evaluated.
fn score_shard_reference(
    world: &BackupWorld,
    round: u64,
    s: usize,
    out: &mut Vec<redundancy::RedundancyDecision>,
) -> u64 {
    use redundancy::RedundancyDecision;
    let ar = world.cfg.adaptive_n;
    let n = world.n_blocks();
    let floor = n.saturating_sub(ar.max_trim as u32);
    let base = s * world.layout.shard_size;
    let end = (base + world.layout.shard_size).min(world.peers.len());
    let mut pairs = 0;
    for id in base as PeerId..end as PeerId {
        if world.peers.observer(id).is_some() || !world.peers.online(id) {
            continue;
        }
        let trigger = world.k().max(world.peers.threshold(id) as u32) as f64;
        for a in 0..world.peers.archives_per_peer() {
            if !world.peers.joined(id, a) || world.peers.repairing(id, a) {
                continue;
            }
            let target = world.peers.target(id, a);
            let mut predicted = 0.0f64;
            let mut victim: Option<(u64, PeerId)> = None;
            for &h in world.peers.partners(id, a) {
                let (p, est) = world.host_survival(h, round, ar.horizon);
                pairs += 1;
                predicted += p;
                if victim.is_none_or(|(best, _)| est < best) {
                    victim = Some((est, h));
                }
            }
            let owner = id;
            let aidx = a as ArchiveIdx;
            if predicted < trigger + ar.widen_margin {
                if target < n {
                    out.push(RedundancyDecision::Widen { owner, aidx });
                }
            } else if target > floor && predicted >= target as f64 - ar.narrow_slack {
                if let Some((_, victim)) = victim {
                    out.push(RedundancyDecision::Narrow {
                        owner,
                        aidx,
                        victim,
                    });
                }
            }
        }
    }
    pairs
}

thread_local! {
    /// `(passes, pairs)` the oracle has checked on this thread — the
    /// world's sequential driver runs on the test's own thread.
    static ORACLE_TALLY: core::cell::Cell<(u64, u64)> = const { core::cell::Cell::new((0, 0)) };
}

/// Called by `run_redundancy` between scoring and apply in every test
/// build: the column-scored buffers must equal the per-pair oracle's,
/// shard by shard — variant, owner, archive, victim and order.
pub(super) fn check_scores_against_per_pair_oracle(
    world: &BackupWorld,
    round: u64,
    scores: &[redundancy::ShardScore],
) {
    let mut want = Vec::new();
    let mut pairs = 0;
    for (s, got) in scores.iter().enumerate() {
        want.clear();
        let shard_pairs = score_shard_reference(world, round, s, &mut want);
        assert_eq!(
            got.decisions, want,
            "round {round} shard {s}: column scoring diverged from the per-pair oracle"
        );
        assert_eq!(
            got.pairs, shard_pairs,
            "round {round} shard {s}: pair count"
        );
        pairs += shard_pairs;
    }
    ORACLE_TALLY.set({
        let (passes, total) = ORACLE_TALLY.get();
        (passes + 1, total + pairs)
    });
}

/// An adaptive world that reaches every branch of `host_survival`:
/// observers (frozen ages), misreporting hosts (inflated ages), session
/// churn under a nonzero offline timeout (the offline discount) and
/// several logical shards.
fn oracle_config(peers: usize, seed: u64, strategy: SelectionStrategy) -> SimConfig {
    let mut cfg = churny_config(peers, 480, seed)
        .with_paper_observers()
        .with_misreport(0.25)
        .with_strategy(strategy);
    cfg.adaptive_n = crate::config::AdaptiveRedundancy::tuned(4);
    cfg.adaptive_n.check_interval = 8;
    cfg.adaptive_n.horizon = 48;
    cfg.adaptive_n.narrow_slack = 4.0;
    cfg.adaptive_n.widen_margin = 4.0;
    assert!(cfg.offline_timeout > 0);
    cfg
}

#[test]
fn survival_column_scoring_matches_per_pair_oracle() {
    // Both estimator arms: the learned model (LearnedAge attaches it)
    // and the availability-class prior fallback.
    for strategy in [SelectionStrategy::LearnedAge, SelectionStrategy::AgeBased] {
        let mut reference = None;
        // The last leg replays a seeded random task order per stage;
        // at 512 peers the plain 8-worker leg also wakes the pool.
        for (shards, fuzz) in [(1, None), (8, None), (8, Some(0xf111))] {
            let cfg = oracle_config(512, 31, strategy).with_shards(shards);
            assert_logical_shards(&cfg, 8);
            let rounds = cfg.rounds;
            let interval = cfg.adaptive_n.check_interval;
            let mut world = BackupWorld::new(cfg);
            world.set_exec_fuzz(fuzz);
            assert_eq!(
                world.estimator.is_some(),
                strategy == SelectionStrategy::LearnedAge
            );
            ORACLE_TALLY.set((0, 0));
            // The comparison itself happens inside every scoring pass
            // (`check_scores_against_per_pair_oracle`).
            Engine::new(31).run(&mut world, rounds);
            let (passes, pairs) = ORACLE_TALLY.get();
            assert_eq!(
                passes,
                (rounds - 1) / interval,
                "a scoring round went unchecked"
            );
            let work = world.redundancy_work();
            assert_eq!((work.passes, work.pairs_gathered), (passes, pairs));
            let m = world.into_metrics();
            assert!(
                m.diag.redundancy_narrowed > 0 && m.diag.redundancy_widened > 0,
                "{strategy:?}: the compared buffers never held both decision kinds ({:?})",
                m.diag
            );
            let reference = reference.get_or_insert((m.clone(), work));
            assert_eq!(
                *reference,
                (m, work),
                "{strategy:?} shards {shards} fuzz {fuzz:?}"
            );
        }
    }
}

#[test]
fn survival_column_matches_oracle_on_pool_workers() {
    // Past 2048 slots both stages wake the pool: two workers fill
    // disjoint column windows, then gather across all of them.
    let run_at = |shards: usize, fuzz: Option<u64>| {
        let mut cfg = oracle_config(2304, 32, SelectionStrategy::LearnedAge).with_shards(shards);
        cfg.rounds = 64;
        assert_logical_shards(&cfg, 2);
        let mut world = BackupWorld::new(cfg);
        world.set_exec_fuzz(fuzz);
        Engine::new(32).run(&mut world, 64);
        let dispatches = world.stage_dispatches();
        (world.redundancy_work(), world.into_metrics(), dispatches)
    };
    let (work1, m1, _) = run_at(1, None);
    assert_eq!(work1.passes, 7);
    let (work, m, dispatches) = run_at(2, None);
    assert!(dispatches > 0, "the pool never woke");
    assert_eq!((work, &m), (work1, &m1), "2 workers");
    let (work, m, _) = run_at(2, Some(0x5eed));
    assert_eq!((work, &m), (work1, &m1), "fuzzed schedule");
}

#[test]
fn redundancy_work_counts_evaluations_exactly() {
    let cfg = adaptive_config(27);
    let rounds = cfg.rounds;
    let interval = cfg.adaptive_n.check_interval;
    let mut world = BackupWorld::new(cfg);
    ORACLE_TALLY.set((0, 0));
    Engine::new(27).run(&mut world, rounds);
    let (passes, oracle_pairs) = ORACLE_TALLY.get();
    let work = world.redundancy_work();
    assert_eq!(work.passes, (rounds - 1) / interval);
    assert_eq!(work.passes, passes);
    assert_eq!(
        work.host_evals,
        work.passes * world.peers.len() as u64,
        "one evaluation per slot per pass"
    );
    assert_eq!(
        work.pairs_gathered, oracle_pairs,
        "one gather per scored partner entry"
    );

    // Off means off: no pass, no column, no counts.
    let mut plain = BackupWorld::new(tiny_config(27));
    Engine::new(27).run(&mut plain, 50);
    assert_eq!(plain.redundancy_work(), RedundancyWork::default());
}

/// The pool build the compact ranking replaced, kept as the oracle:
/// every sampling attempt resolves its draw through a binary search
/// over per-shard prefix sums, every accepted candidate becomes a full
/// [`Candidate`](crate::select::Candidate), and the keyed strategies
/// rank through the maintained
/// [`AgeOrderedIndex`](crate::select::AgeOrderedIndex) (estimating
/// before the acceptance test, as that build did). Same draws from
/// `rng` in the same order as [`BackupWorld::build_pool`].
fn build_pool_reference(
    world: &BackupWorld,
    rng: &mut peerback_sim::SimRng,
    owner_id: PeerId,
    aidx: ArchiveIdx,
    d: u32,
    round: u64,
) -> Vec<crate::select::Candidate> {
    use crate::accept::accepts;
    use crate::select::{AgeOrderedIndex, Candidate};
    use rand::Rng;

    let mut prefix = vec![0usize];
    for list in &world.frozen_online {
        prefix.push(prefix[prefix.len() - 1] + list.len());
    }
    let total_online = prefix[prefix.len() - 1];
    let mut pool = Vec::new();
    if d == 0 || total_online == 0 {
        return pool;
    }
    let mut excluded = vec![false; world.peers.len()];
    excluded[owner_id as usize] = true;
    for i in 0..world.peers.present(owner_id, aidx as usize) as usize {
        excluded[world.peers.host_at(owner_id, aidx as usize, i) as usize] = true;
    }
    let cfg = &world.cfg;
    let owner_age = world.negotiation_age(owner_id, round);
    let target = ((d as f64 * POOL_TARGET_FACTOR).ceil() as usize).max(d as usize);
    let attempts = (d * POOL_ATTEMPT_FACTOR).max(16);
    let learned = cfg.strategy == SelectionStrategy::LearnedAge;
    let mut index = (learned || cfg.strategy == SelectionStrategy::AgeBased)
        .then(|| AgeOrderedIndex::new(target));
    for _ in 0..attempts {
        let held = index.as_ref().map_or(pool.len(), AgeOrderedIndex::len);
        if held >= target {
            break;
        }
        let j = rng.gen_range(0..total_online);
        let shard = prefix.partition_point(|&p| p <= j) - 1;
        let c = world.frozen_online[shard][j - prefix[shard]];
        if excluded[c as usize]
            || world.peers.observer(c).is_some()
            || world.peers.quota_used(c) >= cfg.quota
            || world.peers.quarantined(c)
            || (!world.partitions.is_empty()
                && world.partitions[world.peers.domain(c) as usize] > round)
        {
            continue;
        }
        let true_age = world.peers.age_at(c, round);
        let cand_age = if world.peers.misreports(c) {
            true_age.saturating_mul(MISREPORT_INFLATION)
        } else {
            true_age
        };
        let estimate = learned.then(|| match &world.estimator {
            Some(model) => model.estimate(
                cand_age,
                world.peers.uptime_at(c, round),
                world.peers.session_seq(c),
            ),
            None => cand_age,
        });
        if cfg.acceptance_enabled {
            if !accepts(rng, owner_age, cand_age, cfg.acceptance_clamp) {
                continue;
            }
            if cfg.mutual_acceptance && !accepts(rng, cand_age, owner_age, cfg.acceptance_clamp) {
                continue;
            }
        }
        excluded[c as usize] = true;
        let candidate = Candidate {
            id: c,
            age: cand_age,
            uptime: world.peers.uptime_at(c, round),
            estimated_remaining: estimate.unwrap_or(0),
            true_remaining: world.peers.death(c).saturating_sub(round),
        };
        match &mut index {
            Some(index) => {
                let key = cfg
                    .strategy
                    .ranking_key(&candidate)
                    .expect("the index is armed only for keyed strategies");
                assert!(
                    index.insert(key, candidate),
                    "the index turned a candidate away"
                );
            }
            None => pool.push(candidate),
        }
    }
    match index {
        Some(index) => index.into_ranked(),
        None => {
            let len = pool.len();
            cfg.strategy.choose(rng, &mut pool, len);
            pool
        }
    }
}

/// Called by `build_pool` on every pool it returns, in every test
/// build: replaying the build through [`build_pool_reference`] from the
/// same RNG state must give the same ids in the same order and leave
/// the RNG in the same state.
pub(super) fn check_pool_against_reference(
    world: &BackupWorld,
    (rng_before, rng_after): (&peerback_sim::SimRng, &peerback_sim::SimRng),
    (owner, aidx): (PeerId, ArchiveIdx),
    d: u32,
    round: u64,
    got: &[PeerId],
) {
    let mut rng = rng_before.clone();
    let want = build_pool_reference(world, &mut rng, owner, aidx, d, round);
    assert!(
        got.iter().eq(want.iter().map(|c| &c.id)),
        "round {round} owner {owner} archive {aidx} d {d}: pool diverged from the reference build\n got {got:?}\nwant {:?}",
        want.iter().map(|c| c.id).collect::<Vec<_>>()
    );
    assert_eq!(
        &rng, rng_after,
        "round {round} owner {owner} archive {aidx} d {d}: RNG state diverged from the reference build"
    );
}

/// A world that reaches every screen of `build_pool`: observers,
/// misreporting candidates, quarantined hosts (struck on a fixed
/// schedule), partitioned domains, session churn and several shards.
fn run_every_screen(
    strategy: SelectionStrategy,
    shards: usize,
    fuzz: Option<u64>,
) -> (Metrics, PlacementWork) {
    let cfg = domained_config(400, 300, 61)
        .with_paper_observers()
        .with_misreport(0.25)
        .with_quarantine_threshold(2)
        .with_strategy(strategy)
        .with_shards(shards);
    let rounds = cfg.rounds;
    let mut world = BackupWorld::new(cfg);
    world.set_exec_fuzz(fuzz);
    let mut engine = Engine::new(61);
    for r in 0..rounds {
        engine.step(&mut world);
        if r % 10 == 9 {
            strike_lowest_online(&mut world, r);
        }
    }
    let work = world.placement_work();
    (world.into_metrics(), work)
}

#[test]
fn compact_pools_match_the_reference_build_under_every_screen() {
    // The comparison itself runs inside every `build_pool` call
    // (`check_pool_against_reference`); this test makes sure the calls
    // meet quarantined, partitioned and misreporting candidates, for
    // the keyed builds and one that ranks full candidates.
    for strategy in [
        SelectionStrategy::AgeBased,
        SelectionStrategy::LearnedAge,
        SelectionStrategy::UptimeWeighted,
    ] {
        let (m1, w1) = run_every_screen(strategy, 1, None);
        assert!(w1.pool_builds > 0 && w1.candidates_accepted > 0);
        assert!(
            m1.diag.hosts_quarantined > 0,
            "{strategy:?}: nobody quarantined"
        );
        assert!(m1.diag.partitions_started > 0, "{strategy:?}: no partition");
        assert!(
            m1.repairs.iter().sum::<u64>() > 0,
            "{strategy:?}: no repair pools"
        );
        for fuzz in [None, Some(0xb001)] {
            let (m, w) = run_every_screen(strategy, 8, fuzz);
            assert_eq!((&m, w), (&m1, w1), "{strategy:?} shards 8 fuzz {fuzz:?}");
        }
    }
}

#[test]
fn placement_work_is_exact_at_every_worker_count() {
    // 2304 peers: the join wave's stages really wake the pool.
    let run_at = |shards: usize, fuzz: Option<u64>| {
        let cfg = churny_config(2304, 40, 83).with_shards(shards);
        assert_logical_shards(&cfg, 8);
        let mut world = BackupWorld::new(cfg);
        world.set_exec_fuzz(fuzz);
        let mut engine = Engine::new(83);
        // Round 0 is join-only: nobody has left yet, so no step
        // displaces a partner, and a grant writes its hosted entry in
        // place — the window routes no message at all.
        engine.step(&mut world);
        let join = world.placement_work();
        assert!(join.grants > 0, "the join wave placed nothing");
        assert_eq!(join.msgs_routed, 0, "a join-only window routed messages");
        assert_eq!(join.grants, world.metrics().diag.blocks_uploaded);
        engine.run(&mut world, 39);
        let work = world.placement_work();
        (work, world.into_metrics())
    };
    let (w1, m1) = run_at(1, None);
    assert!(w1.pool_builds > 0);
    assert!(w1.candidates_sampled >= w1.candidates_accepted);
    assert!(
        w1.candidates_accepted >= w1.claims,
        "claims name pool ranks"
    );
    assert!(w1.claims >= w1.grants);
    // Both commit waves together never grant a proposal more than the
    // `d` placements it asked for, so every grant is used.
    assert_eq!(w1.grants, m1.diag.blocks_uploaded);
    assert!(w1.msgs_routed > 0, "40 churny rounds tore nothing down");
    for fuzz in [None, Some(0x3a7c)] {
        let (w, m) = run_at(8, fuzz);
        assert_eq!((w, &m), (w1, &m1), "shards 8 fuzz {fuzz:?}");
    }
}

// ---------------------------------------------------------------------
// SoA layout equivalence: the struct-of-arrays peer table vs a
// reference array-of-structs model with the old per-peer `Vec`
// semantics, driven by random operation sequences.
// ---------------------------------------------------------------------

/// The pre-SoA per-peer layout, reduced to the state the table's
/// observable API exposes: the oracle for
/// [`soa_table_matches_aos_reference`].
#[derive(Clone, Default)]
struct AosPeer {
    online: bool,
    quota_used: u32,
    birth: u64,
    online_accum: u64,
    last_transition: u64,
    partners: Vec<Vec<PeerId>>,
    stale: Vec<Vec<PeerId>>,
    hosted: Vec<(PeerId, ArchiveIdx)>,
}

impl AosPeer {
    fn age_at(&self, round: u64) -> u64 {
        round.saturating_sub(self.birth)
    }

    /// The old `Peer::uptime_at` math, verbatim: bit-identical results
    /// are part of the determinism contract, so the comparison below is
    /// exact `f64` equality, not approximate.
    fn uptime_at(&self, round: u64) -> f64 {
        let age = self.age_at(round);
        if age == 0 {
            return 1.0;
        }
        let mut online_rounds = self.online_accum;
        if self.online {
            online_rounds += round.saturating_sub(self.last_transition);
        }
        (online_rounds as f64 / age as f64).clamp(0.0, 1.0)
    }
}

/// Asserts every observable of `table` slot `id` against the oracle:
/// partner order, stale order, the fresh-then-stale `host_at` chain,
/// hosted-ledger order, quota, and the derived age/uptime reads.
fn check_against_oracle(
    table: &super::table::PeerTable,
    oracle: &[AosPeer],
    id: PeerId,
    round: u64,
) {
    let o = &oracle[id as usize];
    for a in 0..o.partners.len() {
        assert_eq!(
            table.partners(id, a),
            o.partners[a].as_slice(),
            "peer {id} archive {a}: fresh partner order diverged"
        );
        let stale: Vec<PeerId> = (0..table.stale_len(id, a))
            .map(|i| table.stale_at(id, a, i))
            .collect();
        assert_eq!(
            stale, o.stale[a],
            "peer {id} archive {a}: stale partner order diverged"
        );
        let chain: Vec<PeerId> = (0..table.present(id, a) as usize)
            .map(|i| table.host_at(id, a, i))
            .collect();
        let expect: Vec<PeerId> = o.partners[a].iter().chain(&o.stale[a]).copied().collect();
        assert_eq!(chain, expect, "peer {id} archive {a}: host chain diverged");
        assert_eq!(
            table.present(id, a) as usize,
            o.partners[a].len() + o.stale[a].len(),
        );
    }
    let hosted: Vec<(PeerId, ArchiveIdx)> = (0..table.hosted_len(id))
        .map(|i| table.hosted_at(id, i))
        .collect();
    assert_eq!(hosted, o.hosted, "peer {id}: hosted-ledger order diverged");
    assert_eq!(
        table.quota_used(id),
        o.quota_used,
        "peer {id}: quota diverged"
    );
    assert_eq!(
        table.online(id),
        o.online,
        "peer {id}: online flag diverged"
    );
    assert_eq!(table.age_at(id, round), o.age_at(round));
    assert_eq!(
        table.uptime_at(id, round).to_bits(),
        o.uptime_at(round).to_bits(),
        "peer {id}: uptime_at diverged at round {round}"
    );
}

proptest::proptest! {
    #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(16))]

    /// Random operation sequences drive the SoA table and the AoS
    /// reference in lockstep; every observable the refactor had to
    /// preserve (partner/stale/hosted iteration order, quota
    /// accounting, `age_at`/`uptime_at`) must agree after each step —
    /// on the table itself and through base-offset [`PeerView`]s.
    #[test]
    fn soa_table_matches_aos_reference(seed in proptest::strategy::any::<u64>()) {
        use rand::Rng;

        use super::table::PeerTable;

        const SLOTS: usize = 6;
        const APAP: usize = 2;
        const SLAB_N: usize = 5;
        const HOSTED_CAP: usize = 8;

        let mut rng = sim_rng(seed);
        let mut table = PeerTable::with_capacity(SLOTS, APAP, SLAB_N, HOSTED_CAP);
        let mut oracle = Vec::new();
        for _ in 0..SLOTS {
            table.push_slot();
            oracle.push(AosPeer {
                partners: vec![Vec::new(); APAP],
                stale: vec![Vec::new(); APAP],
                ..AosPeer::default()
            });
        }
        let mut online_list: Vec<PeerId> = Vec::new();
        let mut online_pos = vec![super::peers::OFFLINE; SLOTS];

        for _ in 0..400 {
            let id = rng.gen_range(0..SLOTS as PeerId);
            let i = id as usize;
            let a = rng.gen_range(0..APAP);
            let p = oracle[i].partners[a].len();
            let s = oracle[i].stale[a].len();
            match rng.gen_range(0..11u32) {
                0 => {
                    // A live transition through the shared online-index
                    // invariant (flag + shard list + position table).
                    let now = oracle[i].online;
                    table.update_online(id, &mut online_list, &mut online_pos, 0, !now);
                    oracle[i].online = !now;
                }
                1 => {
                    let birth = rng.gen_range(0..500u64);
                    let accum = rng.gen_range(0..300u64);
                    let last = rng.gen_range(0..800u64);
                    table.set_birth(id, birth);
                    table.set_online_accum(id, accum);
                    table.set_last_transition(id, last);
                    oracle[i].birth = birth;
                    oracle[i].online_accum = accum;
                    oracle[i].last_transition = last;
                }
                2 => {
                    let v = rng.gen_range(0..512u32);
                    table.set_quota_used(id, v);
                    oracle[i].quota_used = v;
                }
                3 if p + s < SLAB_N => {
                    let host = rng.gen_range(0..1000 as PeerId);
                    table.push_partner(id, a, host);
                    oracle[i].partners[a].push(host);
                }
                4 if p > 0 => {
                    let pos = rng.gen_range(0..p);
                    table.swap_remove_partner(id, a, pos);
                    oracle[i].partners[a].swap_remove(pos);
                }
                5 if p > 0 => {
                    let pos = rng.gen_range(0..p);
                    table.remove_partner(id, a, pos);
                    oracle[i].partners[a].remove(pos);
                }
                6 if s == 0 => {
                    // The old refresh swap: the fresh list becomes the
                    // stale list wholesale, same order.
                    table.refresh_to_stale(id, a);
                    let fresh = std::mem::take(&mut oracle[i].partners[a]);
                    oracle[i].stale[a] = fresh;
                }
                7 => {
                    let got = table.pop_stale(id, a);
                    let expect = oracle[i].stale[a].pop();
                    proptest::prop_assert_eq!(got, expect, "pop_stale diverged for peer {}", id);
                }
                8 if s > 0 => {
                    let pos = rng.gen_range(0..s);
                    table.swap_remove_stale(id, a, pos);
                    oracle[i].stale[a].swap_remove(pos);
                }
                9 if oracle[i].hosted.len() < HOSTED_CAP => {
                    let owner = rng.gen_range(0..SLOTS as PeerId);
                    let oaidx = rng.gen_range(0..APAP) as ArchiveIdx;
                    table.push_hosted(id, owner, oaidx);
                    oracle[i].hosted.push((owner, oaidx));
                }
                10 if !oracle[i].hosted.is_empty() => {
                    let pos = rng.gen_range(0..oracle[i].hosted.len());
                    table.swap_remove_hosted(id, pos);
                    oracle[i].hosted.swap_remove(pos);
                }
                _ => continue, // precondition not met this step
            }
            let round = rng.gen_range(0..2000u64);
            check_against_oracle(&table, &oracle, id, round);

            // Position lookups agree with a linear scan of the oracle.
            let needle = rng.gen_range(0..1000 as PeerId);
            proptest::prop_assert_eq!(
                table.partner_position(id, a, needle),
                oracle[i].partners[a].iter().position(|&h| h == needle)
            );
            proptest::prop_assert_eq!(
                table.stale_position(id, a, needle),
                oracle[i].stale[a].iter().position(|&h| h == needle)
            );
            let owner = rng.gen_range(0..SLOTS as PeerId);
            let oaidx = rng.gen_range(0..APAP) as ArchiveIdx;
            proptest::prop_assert_eq!(
                table.hosted_position(id, owner, oaidx),
                oracle[i].hosted.iter().position(|&e| e == (owner, oaidx))
            );
            // The online index stays consistent: every listed peer is
            // online and back-referenced by its position entry.
            proptest::prop_assert_eq!(online_list.len(), oracle.iter().filter(|o| o.online).count());
            for (at, &listed) in online_list.iter().enumerate() {
                proptest::prop_assert!(oracle[listed as usize].online);
                proptest::prop_assert_eq!(online_pos[listed as usize], at as u32);
            }
        }

        // Full final sweep on the table…
        for id in 0..SLOTS as PeerId {
            check_against_oracle(&table, &oracle, id, 1234);
        }
        // …and the same observables through shard views, whose base
        // offset exercises the global-id-to-local-slot arithmetic.
        let cut = rng.gen_range(1..SLOTS);
        let mut split = table.splitter();
        let views = [split.take(cut), split.take(SLOTS - cut)];
        for (v, base) in views.iter().zip([0, cut]) {
            for local in 0..v.slots() {
                let id = (base + local) as PeerId;
                let o = &oracle[id as usize];
                for a in 0..APAP {
                    proptest::prop_assert_eq!(v.partners(id, a), o.partners[a].as_slice());
                    let stale: Vec<PeerId> =
                        (0..v.stale_len(id, a)).map(|i| v.stale_at(id, a, i)).collect();
                    proptest::prop_assert_eq!(stale, o.stale[a].clone());
                }
                let hosted: Vec<(PeerId, ArchiveIdx)> =
                    (0..v.hosted_len(id)).map(|i| v.hosted_at(id, i)).collect();
                proptest::prop_assert_eq!(hosted, o.hosted.clone());
                proptest::prop_assert_eq!(v.quota_used(id), o.quota_used);
                proptest::prop_assert_eq!(v.age_at(id, 1234), o.age_at(1234));
                proptest::prop_assert_eq!(v.uptime_at(id, 1234).to_bits(), o.uptime_at(1234).to_bits());
            }
        }
    }
}

proptest::proptest! {
    #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

    /// The chunked scans behind `partner_position`, `stale_position`
    /// and `hosted_position` agree with `position` / `rposition` on
    /// random haystacks of every length up to 600 over small alphabets,
    /// so duplicates are common; the needle `alphabet` is always absent.
    #[test]
    fn chunked_scans_match_position(seed in proptest::strategy::any::<u64>()) {
        use rand::Rng;

        use super::table::{first_match, last_match};

        let mut rng = sim_rng(seed);
        for _ in 0..16 {
            let len = rng.gen_range(0..=600usize);
            let alphabet = rng.gen_range(1..40u32);
            let hay: Vec<u32> = (0..len).map(|_| rng.gen_range(0..alphabet)).collect();
            for needle in 0..=alphabet {
                proptest::prop_assert_eq!(
                    first_match(&hay, needle),
                    hay.iter().position(|&e| e == needle)
                );
                proptest::prop_assert_eq!(
                    last_match(&hay, needle),
                    hay.iter().rposition(|&e| e == needle)
                );
            }
        }
    }
}

#[test]
fn chunked_scans_find_a_lone_needle_at_every_chunk_boundary() {
    use super::table::{first_match, last_match};

    for len in 0..=600usize {
        let mut hay = vec![7u32; len];
        assert_eq!(first_match(&hay, 9), None, "len {len}");
        assert_eq!(last_match(&hay, 9), None, "len {len}");
        // Every position of short haystacks; around every 16-entry
        // chunk boundary and in the tail of long ones.
        let probed =
            (0..len).filter(|&i| len <= 64 || matches!(i % 16, 0 | 1 | 15) || i + 17 >= len);
        for at in probed {
            hay[at] = 9;
            assert_eq!(first_match(&hay, 9), Some(at), "len {len}");
            assert_eq!(last_match(&hay, 9), Some(at), "len {len}");
            hay[at] = 7;
        }
    }
}

// ----- failure domains, outages, partitions and quarantine -----------------

/// A churny sharded config with eight failure domains and a scheduled
/// mid-run regional outage plus random partitions — the adversary
/// plane's determinism workload.
fn domained_config(peers: usize, rounds: u64, seed: u64) -> SimConfig {
    churny_config(peers, rounds, seed).with_failure_domains(crate::config::FailureDomainConfig {
        domains: 8,
        outage_rate: 0.002,
        outage_rounds: 30,
        outage_at: rounds / 3,
        partition_rate: 0.002,
        partition_rounds: 20,
    })
}

#[test]
fn failure_domains_off_is_bit_identical_to_the_seed_behaviour() {
    // The whole plane is gated: with `domains == 0` (the default) no
    // draw sequence moves, so a config that never mentions domains
    // produces the exact run it produced before the plane existed.
    let base = churny_config(600, 300, 55);
    let (m_off, e_off) = run_recorded(base.clone());
    let explicit = base.with_failure_domains(crate::config::FailureDomainConfig::default());
    let (m_def, e_def) = run_recorded(explicit);
    assert_eq!(m_off, m_def);
    assert_eq!(e_off, e_def);
    assert_eq!(m_off.diag.outages_started, 0);
    assert_eq!(m_off.diag.outage_disconnects, 0);
}

#[test]
fn regional_outages_fire_and_stay_bit_identical_across_shards() {
    let base = domained_config(4096, 150, 61);
    assert_logical_shards(&base, 64);
    let (m1, e1) = run_recorded(base.clone().with_shards(1));
    assert!(m1.diag.outages_started > 0, "no outage ever started");
    assert!(
        m1.diag.outage_disconnects > 0,
        "outages disconnected nobody"
    );
    assert!(m1.diag.partitions_started > 0, "no partition ever started");
    for shards in [8, 64] {
        let (m, e) = run_recorded(base.clone().with_shards(shards));
        assert_eq!(m1, m, "metrics diverged at shards={shards}");
        assert_eq!(e1, e, "events diverged at shards={shards}");
    }
    let (m, e) = run_recorded_fuzzed(base.with_shards(8), 0x0a7a);
    assert_eq!(m1, m, "metrics diverged under a fuzzed schedule");
    assert_eq!(e1, e, "events diverged under a fuzzed schedule");
}

/// Runs a config to completion, recording the event stream, with every
/// offline timeout armed (`arm_every`) or only those that can fire.
fn run_timeouts(cfg: SimConfig, arm_every: bool) -> (Metrics, Vec<WorldEvent>, WheelWork) {
    let (rounds, seed) = (cfg.rounds, cfg.seed);
    let mut world = BackupWorld::new(cfg);
    world.set_event_recording(true);
    for shard in &mut world.shards {
        shard.arm_every_timeout = arm_every;
    }
    let mut engine = Engine::new(seed);
    let events = drain_rounds(&mut world, &mut engine, rounds);
    let wheel = world.wheel_work();
    (world.into_metrics(), events, wheel)
}

#[test]
fn offline_timeouts_armed_only_when_they_can_fire_change_nothing() {
    // The arming rule against the reference that arms every timer:
    // identical metrics and event streams, with and without failure
    // domains (whose scheduled outage defers reconnections past their
    // sampled round), at one and eight workers. Under the rule each
    // skipped timer is also checked to fire stale (`Shard::skipped`).
    let churny = churny_config(640, 300, 97);
    let domained = domained_config(640, 300, 97);
    for (name, cfg) in [("churny", churny), ("domained", domained)] {
        assert_logical_shards(&cfg, 8);
        let (m1, e1, w1) = run_timeouts(cfg.clone().with_shards(1), false);
        assert!(m1.diag.partner_timeouts > 0, "{name}: no write-off fired");
        assert!(
            w1.stale <= w1.fired && w1.fired <= w1.scheduled,
            "{name}: {w1:?}"
        );
        let (m, e, w) = run_timeouts(cfg.clone().with_shards(8), false);
        assert_eq!(
            (&m1, &e1, w1),
            (&m, &e, w),
            "{name}: rule diverged at shards=8"
        );
        for shards in [1, 8] {
            let (m, e, w) = run_timeouts(cfg.clone().with_shards(shards), true);
            assert_eq!(m1, m, "{name}: metrics differ from arming every timer");
            assert_eq!(e1, e, "{name}: events differ from arming every timer");
            if cfg.failure_domains.domains == 0 {
                // Every skipped timer is one more event the reference
                // arms, and every one of them it fires is stale.
                let (skipped, extra) = (w.scheduled - w1.scheduled, w.fired - w1.fired);
                assert!(extra > 0, "{name}: the rule skipped no timer");
                assert!(extra <= skipped, "{name}");
                assert_eq!(w.stale - w1.stale, extra, "{name}");
            } else {
                assert!(m1.diag.outages_started > 0, "{name}: no outage started");
                assert_eq!(w1, w, "{name}: domains must arm every timer");
            }
        }
    }
}

#[test]
fn outages_preserve_census_and_eventually_release_the_domain() {
    // Conservation under forced disconnection: the census never leaks a
    // peer, and after the outage window the domain's peers resume
    // toggling (session churn continues to accumulate).
    let cfg = domained_config(400, 400, 71);
    let rounds = cfg.rounds;
    let n = cfg.n_peers as u64;
    let outage_end_floor = cfg.failure_domains.outage_at + cfg.failure_domains.outage_rounds;
    let mut world = BackupWorld::new(cfg);
    let mut engine = Engine::new(71);
    let mut toggles_at_end = None;
    for _ in 0..rounds {
        engine.step(&mut world);
        let total: u64 = world.census.iter().sum();
        assert_eq!(total, n, "census drifted at {}", engine.current_round());
        if engine.current_round().index() == outage_end_floor {
            toggles_at_end = Some(world.metrics().diag.session_toggles);
        }
    }
    let m = world.into_metrics();
    assert!(m.diag.outage_disconnects > 0, "scheduled outage never hit");
    let at_end = toggles_at_end.expect("run covers the outage window");
    assert!(
        m.diag.session_toggles > at_end,
        "toggling never resumed after the outage window"
    );
}

#[test]
fn outage_domain_goes_fully_offline_during_the_window() {
    // During the forced window every non-observer member of the hit
    // domain is offline — the definition of a correlated outage.
    let mut cfg = churny_config(400, 200, 83);
    cfg = cfg.with_failure_domains(crate::config::FailureDomainConfig {
        domains: 4,
        outage_rate: 0.0,
        outage_rounds: 40,
        outage_at: 80,
        partition_rate: 0.0,
        partition_rounds: 0,
    });
    let mut world = BackupWorld::new(cfg.clone());
    let mut engine = Engine::new(83);
    for _ in 0..120 {
        engine.step(&mut world);
    }
    // Round 120 is inside the window (80..120+): domain 0 must be dark.
    let seed = cfg.seed;
    let mut members = 0;
    for id in world.observer_count as PeerId..world.peers.len() as PeerId {
        if domain_of(seed, 4, id) == 0 {
            members += 1;
            assert!(
                !world.peers.online(id),
                "peer {id} of the outage domain is online mid-window"
            );
        }
    }
    assert!(members > 50, "domain 0 too small to be meaningful");
    assert!(world.metrics().diag.outage_disconnects > 0);
}

#[test]
fn quarantine_evicts_hosted_blocks_and_bars_the_host_from_pools() {
    let mut cfg = sharded_config(300, 200, 91);
    cfg = cfg.with_quarantine_threshold(2);
    let mut world = BackupWorld::new(cfg);
    let mut engine = Engine::new(91);
    for _ in 0..100 {
        engine.step(&mut world);
    }
    // Pick the busiest host of the settled network.
    let victim = (0..world.peers.len() as PeerId)
        .filter(|&id| world.peers.observer(id).is_none())
        .max_by_key(|&id| world.peers.hosted_len(id))
        .expect("peers exist");
    assert!(world.peers.hosted_len(victim) > 0, "network never placed");
    // Strikes are reported against the round just completed, exactly
    // like the fabric's post-round feedback call (`current_round` is
    // the *next* round to execute).
    let r = engine.current_round().index() - 1;
    // One strike: suspicious but still serving.
    world.report_integrity_failures(r, &[victim]);
    assert!(!world.peers.quarantined(victim));
    assert!(world.quarantine_log().is_empty());
    // Second strike crosses the threshold.
    world.report_integrity_failures(r, &[victim]);
    assert!(world.peers.quarantined(victim));
    assert_eq!(world.quarantine_log(), &[(victim, r)]);
    assert_eq!(world.metrics().diag.hosts_quarantined, 1);
    // Next round the eviction fires: the hosted ledger empties and the
    // blocks re-enter the repair machinery.
    engine.step(&mut world);
    assert_eq!(world.peers.hosted_len(victim), 0, "eviction never fired");
    assert_eq!(world.peers.quota_used(victim), 0);
    assert_eq!(world.metrics().diag.quarantine_evictions, 1);
    // Further strikes on a quarantined host are no-ops (no double log).
    world.report_integrity_failures(r + 1, &[victim]);
    assert_eq!(world.quarantine_log().len(), 1);
    // The host never re-enters a candidate pool.
    let mut rng = sim_rng(4242);
    for _ in 0..40 {
        engine.step(&mut world);
        let owner = (world.observer_count as PeerId..world.peers.len() as PeerId)
            .find(|&id| id != victim && world.peers.online(id))
            .expect("someone is online");
        let pool = world.build_pool_direct(&mut rng, owner, 0, 8, engine.current_round().index());
        assert!(
            !pool.contains(&victim),
            "quarantined host appeared in a candidate pool"
        );
        assert_eq!(world.peers.hosted_len(victim), 0, "host re-acquired blocks");
    }
}

/// One strike each against the three lowest online, not yet
/// quarantined regular slots — a deterministic stand-in for the
/// fabric's lane-ordered challenge detections.
fn strike_lowest_online(world: &mut BackupWorld, round: u64) {
    let strikes: Vec<PeerId> = (world.observer_count as PeerId..world.peers.len() as PeerId)
        .filter(|&id| world.peers.online(id) && !world.peers.quarantined(id))
        .take(3)
        .collect();
    world.report_integrity_failures(round, &strikes);
}

#[test]
fn quarantine_feedback_stays_bit_identical_across_shards() {
    // Deterministic strike schedule (a stand-in for the fabric's
    // lane-ordered challenge detections): every 10 rounds, strike the
    // three lowest online non-observer slots. Same metrics and event
    // stream at every worker count and task interleaving.
    fn run_with(
        cfg: SimConfig,
        fuzz: Option<u64>,
    ) -> (Metrics, Vec<WorldEvent>, Vec<(PeerId, u64)>) {
        let rounds = cfg.rounds;
        let seed = cfg.seed;
        let mut world = BackupWorld::new(cfg);
        world.set_event_recording(true);
        world.set_exec_fuzz(fuzz);
        let mut engine = Engine::new(seed);
        let mut events = Vec::new();
        let mut buf = Vec::new();
        for _ in 0..rounds {
            engine.step(&mut world);
            let r = engine.current_round().index();
            if r.is_multiple_of(10) {
                strike_lowest_online(&mut world, r);
            }
            world.swap_event_buf(&mut buf);
            events.append(&mut buf);
        }
        let log = world.quarantine_log().to_vec();
        (world.into_metrics(), events, log)
    }
    let base = churny_config(600, 300, 97).with_quarantine_threshold(3);
    let (m1, e1, q1) = run_with(base.clone().with_shards(1), None);
    assert!(
        m1.diag.hosts_quarantined > 0,
        "strike schedule never quarantined anyone"
    );
    assert!(m1.diag.quarantine_evictions > 0);
    for fuzz in [None, Some(0x9a7d)] {
        let (m, e, q) = run_with(base.clone().with_shards(8), fuzz);
        assert_eq!(m1, m, "metrics diverged at shards=8 fuzz={fuzz:?}");
        assert_eq!(e1, e, "events diverged at shards=8 fuzz={fuzz:?}");
        assert_eq!(q1, q, "quarantine log diverged at shards=8 fuzz={fuzz:?}");
    }
}
