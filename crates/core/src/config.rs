//! Simulation configuration (paper §4.1 parameters).

use peerback_churn::{paper_profiles, ProfileMix};

use crate::accept::PAPER_CLAMP_ROUNDS;
use crate::observer::ObserverSpec;
use crate::select::SelectionStrategy;

/// When and how an owner repairs its archive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaintenancePolicy {
    /// The paper's scheme: trigger a repair when the number of visible
    /// blocks drops below the threshold `k'`.
    Reactive {
        /// The repair threshold `k'` (the paper sweeps 132–180 and
        /// settles on 148).
        threshold: u16,
    },
    /// Rate-based proactive maintenance in the spirit of Duminuco et
    /// al. \[10\] (paper §5): once per `tick_rounds` the owner tops its
    /// redundancy back up to `n` present blocks, without waiting for a
    /// threshold crossing. Ablation A3.
    Proactive {
        /// Rounds between proactive top-up ticks.
        tick_rounds: u64,
    },
    /// The paper's §6 future work: "the repair threshold might be
    /// changed depending on the peer context, its difficulties to find
    /// partners". Each peer starts at `base` and adapts: an episode
    /// that struggled (a pool shortfall) lowers the peer's threshold by
    /// `step` (repair later, churn less), never below `k + floor_margin`;
    /// a clean episode raises it back towards `base`. Ablation A4.
    Adaptive {
        /// Starting (and maximum) threshold.
        base: u16,
        /// Minimum safety margin above `k` the threshold may shrink to.
        floor_margin: u16,
        /// Adjustment step per episode.
        step: u16,
    },
}

impl MaintenancePolicy {
    /// The *initial* trigger threshold, if this policy has one
    /// (adaptive peers start at `base` and drift per peer).
    pub fn threshold(&self) -> Option<u16> {
        match self {
            MaintenancePolicy::Reactive { threshold } => Some(*threshold),
            MaintenancePolicy::Proactive { .. } => None,
            MaintenancePolicy::Adaptive { base, .. } => Some(*base),
        }
    }
}

/// The per-archive redundancy control loop (ROADMAP direction 1, after
/// PAPERS.md "Adaptive Redundancy Management for Durable P2P Backup").
///
/// When enabled, every `check_interval` rounds the world scores each
/// joined archive's predicted durability over a fixed 96-round horizon
/// from the live survival estimates of its current hosts (falling back
/// to availability-class means when no learned model is attached) and
/// moves its per-archive target width `target_n` inside
/// `[n - max_trim, n]`:
///
/// * **Narrow** (durable host set): `target_n` drops by one, and any
///   placement beyond the new target — the host with the *shortest*
///   predicted remaining lifetime — is released. Subsequent refresh
///   episodes re-place only `target_n` blocks, which is where the
///   repair-traffic saving comes from.
/// * **Widen** (predicted survivors close to the repair trigger):
///   `target_n` rises by two blocks (capped at `n`) and a preemptive
///   refresh episode opens through the normal repair machinery, paying
///   the usual `k`-block decode.
///
/// `target_n` never exceeds `n = k + m`: the code word has exactly `n`
/// blocks, so "widening" means restoring width trimmed earlier, not
/// inventing redundancy the erasure code cannot produce.
///
/// # Example
///
/// Off by default; enable it with [`SimConfig::with_adaptive_n`] and
/// read the policy's decisions from the run diagnostics:
///
/// ```
/// use peerback_core::{run_simulation, AdaptiveRedundancy, SimConfig};
///
/// let mut cfg = SimConfig::paper(120, 200, 11);
/// cfg.k = 8;
/// cfg.m = 8;
/// cfg.quota = 48;
/// cfg = cfg
///     .with_threshold(10)
///     .with_adaptive_n(AdaptiveRedundancy::tuned(4)); // floor = 16 - 4
/// let metrics = run_simulation(cfg);
/// assert!(
///     metrics.diag.placements_released <= metrics.diag.redundancy_narrowed,
///     "a narrow decision releases at most one placement"
/// );
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveRedundancy {
    /// Master switch. `false` (the default) leaves every archive at the
    /// static width `n` and keeps the run byte-identical to a build
    /// without this feature.
    pub enabled: bool,
    /// Rounds between scoring sweeps (the loop's control period).
    pub check_interval: u64,
    /// Maximum blocks the policy may trim below `n`; the floor
    /// `n - max_trim` must stay at or above the repair threshold or a
    /// narrowed archive would re-trigger its own repair forever.
    pub max_trim: u16,
}

impl Default for AdaptiveRedundancy {
    /// Disabled, with the cadence of [`AdaptiveRedundancy::tuned`].
    fn default() -> Self {
        let mut ar = AdaptiveRedundancy::tuned(0);
        ar.enabled = false;
        ar
    }
}

impl AdaptiveRedundancy {
    /// An enabled policy that scores every 8 rounds, the cadence tuned
    /// with the loop's fixed horizon, margins and step at the checked
    /// `paper_report ablation_width` scenario.
    pub fn tuned(max_trim: u16) -> Self {
        AdaptiveRedundancy {
            enabled: true,
            check_interval: 8,
            max_trim,
        }
    }
}

/// Correlated failure domains: peers are hashed into seeded
/// regions/domains, and region-wide outages and network partitions are
/// injected as a pure function of `(seed, domain, round)` — so the same
/// seed produces byte-identical incident schedules at every `shards`
/// value.
///
/// * An **outage** forces every peer of the domain offline for
///   `outage_rounds`; peers whose session process would bring them
///   online mid-outage stay down until it lifts. Offline-timeout
///   write-offs then flow through the normal two-hop teardown, so a
///   long outage produces the correlated repair storm the ROADMAP's
///   robustness direction asks for.
/// * A **partition** leaves the domain's peers online (they keep
///   serving already-held blocks) but unreachable for *new*
///   placements: the candidate-pool filter skips them while the
///   partition lasts.
///
/// All-zero (the default) disables the axis entirely and leaves every
/// existing seed's RNG draw sequence untouched.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureDomainConfig {
    /// Number of failure domains peers are hashed into (0 = axis off).
    pub domains: u32,
    /// Per-domain per-round probability that a regional outage starts.
    pub outage_rate: f64,
    /// Rounds an outage keeps its domain offline.
    pub outage_rounds: u64,
    /// Scenario hook: force one outage of domain 0 to start at exactly
    /// this round (0 = none) — the probe's "one regional outage".
    pub outage_at: u64,
    /// Per-domain per-round probability that a network partition starts.
    pub partition_rate: f64,
    /// Rounds a partition keeps its domain unreachable for placements.
    pub partition_rounds: u64,
}

impl Default for FailureDomainConfig {
    fn default() -> Self {
        FailureDomainConfig {
            domains: 0,
            outage_rate: 0.0,
            outage_rounds: 36,
            outage_at: 0,
            partition_rate: 0.0,
            partition_rounds: 24,
        }
    }
}

/// Full configuration of one simulation run.
///
/// Defaults (via [`SimConfig::paper`]) reproduce §4.1: 25,000 peers is
/// the paper scale, but the constructor takes the population explicitly
/// because most experiments run reduced populations with normalised
/// metrics (`tests/scale_invariance.rs` checks that they may).
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Steady-state population (the paper uses 25,000).
    pub n_peers: usize,
    /// Rounds to simulate (the paper uses 50,000 ≈ 5.7 years).
    pub rounds: u64,
    /// Master seed; every run is a deterministic function of it.
    pub seed: u64,
    /// Original blocks per archive (`k = 128`).
    pub k: u16,
    /// Redundancy blocks per archive (`m = 128`).
    pub m: u16,
    /// Blocks a peer will host for others (`quota = 384`).
    pub quota: u32,
    /// Archives each peer backs up (the paper uses 1 and claims linear
    /// scaling with more, §4.1; scale `quota` accordingly — the paper's
    /// rule is three times the peer's own backup volume, i.e. `3·k` per
    /// archive).
    pub archives_per_peer: u16,
    /// Maintenance policy (reactive `k' = 148` in the paper's focus run).
    pub maintenance: MaintenancePolicy,
    /// Consecutive offline rounds after which a partner "is considered
    /// [to have] definitively left the system" and its blocks are
    /// written off (§2.2.3's threshold period). `0` disables timeouts
    /// (only true departures lose blocks) — an ablation mode.
    pub offline_timeout: u64,
    /// Whether a repair re-places the *entire* archive rather than only
    /// the missing blocks. §2.2.3 allows re-encoding "either the missing
    /// blocks, or new blocks"; the new-code-word reading means every
    /// block is re-uploaded through the owner's *current* candidate
    /// pool. This is what lets an aging peer replace "the unstable
    /// partners that he was forced to use when he was a newcomer"
    /// (§4.2.2) instead of being stuck with its birth-cohort partner
    /// set forever. Disabling it (ablation) shows the survivor-ratchet:
    /// partner sets converge onto immortal peers and age stratification
    /// collapses.
    pub refresh_on_repair: bool,
    /// Age clamp `L` of the acceptance function (90 days).
    pub acceptance_clamp: u64,
    /// Evaluate acceptance on both sides ("both peers must agree",
    /// §3.2). Disable for ablation A2.
    pub mutual_acceptance: bool,
    /// Skip the acceptance test entirely (ablation A2: selection pressure
    /// without the probabilistic gate).
    pub acceptance_enabled: bool,
    /// Partner ranking strategy.
    pub strategy: SelectionStrategy,
    /// Profile mix peers are drawn from.
    pub profiles: ProfileMix,
    /// Observers to inject (frozen-age measurement peers, §4.2.2).
    pub observers: Vec<ObserverSpec>,
    /// Worker threads for the intra-run parallel stages (event firing,
    /// teardown delivery, candidate-pool proposals, the two-phase
    /// commit). **Purely an execution knob**: the peer table's logical
    /// sharding is a fixed function of the capacity, so same-seed runs
    /// produce bit-identical metrics and event streams at every value.
    /// `1` (the default) runs single-threaded; values beyond the
    /// logical shard count are clamped.
    pub shards: usize,
    /// Scenario axis: round at which newly spawned peers' churn
    /// profiles flip (the sampled profile index is mirrored), shifting
    /// the population's behaviour mid-run — the regime change the
    /// learned estimator must track. `0` disables the shift.
    pub shift_profiles_at: u64,
    /// Scenario axis: fraction of peers (drawn at spawn) that
    /// *misreport* their age during negotiation, claiming eight times
    /// their true age. Adversarial input for age-trusting strategies;
    /// `0.0` disables (and keeps the RNG streams of misreport-free runs
    /// unchanged).
    pub misreport_fraction: f64,
    /// Per-archive adaptive redundancy control loop (disabled by
    /// default; see [`AdaptiveRedundancy`]).
    pub adaptive_n: AdaptiveRedundancy,
    /// Correlated failure domains: regional outages and partitions
    /// (disabled by default; see [`FailureDomainConfig`]).
    pub failure_domains: FailureDomainConfig,
    /// Integrity failures (failed challenges, scrub detections reported
    /// by a byte-plane observer) a host may accumulate before it is
    /// quarantined and its hosted blocks evicted through the repair
    /// machinery. `0` (the default) disables quarantine.
    pub quarantine_threshold: u8,
}

impl SimConfig {
    /// The paper's configuration at a chosen population and duration,
    /// with the focus threshold `k' = 148`.
    pub fn paper(n_peers: usize, rounds: u64, seed: u64) -> Self {
        SimConfig {
            n_peers,
            rounds,
            seed,
            k: 128,
            m: 128,
            quota: 384,
            archives_per_peer: 1,
            maintenance: MaintenancePolicy::Reactive { threshold: 148 },
            offline_timeout: 18,
            refresh_on_repair: true,
            acceptance_clamp: PAPER_CLAMP_ROUNDS,
            mutual_acceptance: true,
            acceptance_enabled: true,
            strategy: SelectionStrategy::AgeBased,
            profiles: paper_profiles(),
            observers: Vec::new(),
            shards: 1,
            shift_profiles_at: 0,
            misreport_fraction: 0.0,
            adaptive_n: AdaptiveRedundancy::default(),
            failure_domains: FailureDomainConfig::default(),
            quarantine_threshold: 0,
        }
    }

    /// The paper's full-scale run: 25,000 peers, 50,000 rounds.
    pub fn paper_full_scale(seed: u64) -> Self {
        SimConfig::paper(25_000, 50_000, seed)
    }

    /// Sets the reactive repair threshold `k'`.
    pub fn with_threshold(mut self, threshold: u16) -> Self {
        self.maintenance = MaintenancePolicy::Reactive { threshold };
        self
    }

    /// Sets the selection strategy.
    pub fn with_strategy(mut self, strategy: SelectionStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the worker-thread count for the intra-run parallel stages.
    /// Results are identical at every value (see the `shards` field).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Adds the paper's five observers (§4.2.2 table).
    pub fn with_paper_observers(mut self) -> Self {
        self.observers = ObserverSpec::paper_set();
        self
    }

    /// Installs an adaptive per-archive redundancy policy (the
    /// `--adaptive-n` scenario axis; see [`AdaptiveRedundancy`]).
    pub fn with_adaptive_n(mut self, adaptive: AdaptiveRedundancy) -> Self {
        self.adaptive_n = adaptive;
        self
    }

    /// Installs a correlated failure-domain plan (the `--domains`
    /// scenario axis; see [`FailureDomainConfig`]).
    pub fn with_failure_domains(mut self, fd: FailureDomainConfig) -> Self {
        self.failure_domains = fd;
        self
    }

    /// Sets the reputation-ledger quarantine threshold (`0` disables).
    pub fn with_quarantine_threshold(mut self, failures: u8) -> Self {
        self.quarantine_threshold = failures;
        self
    }

    /// Total blocks per archive `n = k + m`.
    pub fn n_blocks(&self) -> u32 {
        self.k as u32 + self.m as u32
    }

    /// Checks internal consistency; call before running.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_peers == 0 {
            return Err("population must be positive".into());
        }
        if self.rounds == 0 {
            return Err("must simulate at least one round".into());
        }
        if self.k == 0 {
            return Err("k must be positive".into());
        }
        if let MaintenancePolicy::Reactive { threshold } = self.maintenance {
            if (threshold as u32) < self.k as u32 {
                return Err(format!(
                    "repair threshold {threshold} below k={}: repairs would trigger only \
                     after the archive is already lost",
                    self.k
                ));
            }
            if threshold as u32 > self.n_blocks() {
                return Err(format!(
                    "repair threshold {threshold} above n={}: repairs would never stop",
                    self.n_blocks()
                ));
            }
        }
        if let MaintenancePolicy::Proactive { tick_rounds } = self.maintenance {
            if tick_rounds == 0 {
                return Err("proactive tick must be at least one round".into());
            }
        }
        if let MaintenancePolicy::Adaptive {
            base,
            floor_margin,
            step,
        } = self.maintenance
        {
            if step == 0 {
                return Err("adaptive step must be positive".into());
            }
            let floor = self.k as u32 + floor_margin as u32;
            if (base as u32) < floor {
                return Err(format!(
                    "adaptive base {base} below its own floor k+{floor_margin}={floor}"
                ));
            }
            if base as u32 > self.n_blocks() {
                return Err(format!("adaptive base {base} above n={}", self.n_blocks()));
            }
        }
        if self.acceptance_clamp == 0 {
            return Err("acceptance clamp must be positive".into());
        }
        if self.archives_per_peer == 0 {
            return Err("peers must back up at least one archive".into());
        }
        if self.shards == 0 {
            return Err("shards must be at least 1 (it is a worker-thread count)".into());
        }
        if !(0.0..=1.0).contains(&self.misreport_fraction) {
            return Err(format!(
                "misreport fraction {} is not a probability",
                self.misreport_fraction
            ));
        }
        if self.adaptive_n.enabled {
            let ar = &self.adaptive_n;
            if ar.check_interval == 0 {
                return Err("adaptive redundancy check interval must be positive".into());
            }
            let floor = self.n_blocks().saturating_sub(ar.max_trim as u32);
            // A target below the repair trigger would re-open an episode
            // the moment it completes; a target below `k` would let the
            // policy narrow an archive past decodability.
            let trigger = self
                .maintenance
                .threshold()
                .map_or(self.k as u32, |t| t as u32);
            if floor < trigger {
                return Err(format!(
                    "adaptive redundancy floor n-max_trim={floor} below the repair \
                     trigger {trigger}: narrowed archives would repair forever"
                ));
            }
        }
        let fd = &self.failure_domains;
        if fd.domains > u16::MAX as u32 {
            return Err(format!(
                "failure domains {} exceed the u16 domain column",
                fd.domains
            ));
        }
        if !(0.0..=1.0).contains(&fd.outage_rate) {
            return Err(format!(
                "outage rate {} is not a probability",
                fd.outage_rate
            ));
        }
        if !(0.0..=1.0).contains(&fd.partition_rate) {
            return Err(format!(
                "partition rate {} is not a probability",
                fd.partition_rate
            ));
        }
        let wants_outages = fd.outage_rate > 0.0 || fd.outage_at > 0;
        if wants_outages && fd.outage_rounds == 0 {
            return Err("outage duration must be positive when outages can fire".into());
        }
        if fd.partition_rate > 0.0 && fd.partition_rounds == 0 {
            return Err("partition duration must be positive when partitions can fire".into());
        }
        if (wants_outages || fd.partition_rate > 0.0) && fd.domains == 0 {
            return Err("outages/partitions need at least one failure domain".into());
        }
        // The quota feasibility warning of §4.1: supply must cover demand
        // or nothing can ever fully join.
        let demand = self.n_blocks() as u64 * self.archives_per_peer as u64;
        let supply = self.quota as u64;
        if supply < demand {
            return Err(format!(
                "quota {supply} cannot host {} archives x n={} blocks per peer: \
                 global supply would be insufficient",
                self.archives_per_peer,
                self.n_blocks()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section_4_1() {
        let cfg = SimConfig::paper_full_scale(1);
        assert_eq!(cfg.n_peers, 25_000);
        assert_eq!(cfg.rounds, 50_000);
        assert_eq!(cfg.k, 128);
        assert_eq!(cfg.m, 128);
        assert_eq!(cfg.n_blocks(), 256);
        assert_eq!(cfg.quota, 384);
        assert_eq!(cfg.maintenance.threshold(), Some(148));
        assert_eq!(cfg.offline_timeout, 18);
        assert_eq!(cfg.acceptance_clamp, 90 * 24);
        assert!(cfg.mutual_acceptance);
        assert_eq!(cfg.strategy, SelectionStrategy::AgeBased);
        assert_eq!(cfg.profiles.len(), 4);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn builder_helpers() {
        let cfg = SimConfig::paper(100, 10, 0)
            .with_threshold(164)
            .with_strategy(SelectionStrategy::Random)
            .with_paper_observers();
        assert_eq!(cfg.maintenance.threshold(), Some(164));
        assert_eq!(cfg.strategy, SelectionStrategy::Random);
        assert_eq!(cfg.observers.len(), 5);
    }

    #[test]
    fn validation_rejects_nonsense() {
        let base = SimConfig::paper(10, 10, 0);

        let mut c = base.clone();
        c.n_peers = 0;
        assert!(c.validate().is_err());

        let c = base.clone().with_threshold(100); // below k = 128
        assert!(c.validate().unwrap_err().contains("below k"));

        let c = base.clone().with_threshold(300); // above n = 256
        assert!(c.validate().unwrap_err().contains("above n"));

        let mut c = base.clone();
        c.quota = 100; // cannot host an archive
        assert!(c.validate().is_err());

        let mut c = base;
        c.maintenance = MaintenancePolicy::Proactive { tick_rounds: 0 };
        assert!(c.validate().is_err());
    }

    #[test]
    fn scenario_axis_validation() {
        let base = SimConfig::paper(10, 10, 0);
        assert_eq!(base.shift_profiles_at, 0);
        assert_eq!(base.misreport_fraction, 0.0);

        let mut c = base.clone();
        c.misreport_fraction = 1.5;
        assert!(c.validate().unwrap_err().contains("not a probability"));
        c.misreport_fraction = -0.1;
        assert!(c.validate().is_err());
        let mut c = base;
        c.misreport_fraction = 0.25;
        c.shift_profiles_at = 5;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn threshold_extraction() {
        assert_eq!(
            MaintenancePolicy::Reactive { threshold: 148 }.threshold(),
            Some(148)
        );
        assert_eq!(
            MaintenancePolicy::Proactive { tick_rounds: 24 }.threshold(),
            None
        );
        assert_eq!(
            MaintenancePolicy::Adaptive {
                base: 148,
                floor_margin: 4,
                step: 2
            }
            .threshold(),
            Some(148)
        );
    }

    #[test]
    fn adaptive_redundancy_validation() {
        let base = SimConfig::paper(10, 10, 0);
        assert!(!base.adaptive_n.enabled, "must default off");

        // n = 256, k' = 148: anything up to 108 trimmed blocks is fine.
        let c = base.clone().with_adaptive_n(AdaptiveRedundancy::tuned(108));
        assert!(c.validate().is_ok());
        let c = base.clone().with_adaptive_n(AdaptiveRedundancy::tuned(109));
        assert!(c.validate().unwrap_err().contains("repair forever"));

        let mut ar = AdaptiveRedundancy::tuned(8);
        ar.check_interval = 0;
        assert!(base.with_adaptive_n(ar).validate().is_err());
    }

    #[test]
    fn failure_domain_validation() {
        let base = SimConfig::paper(10, 10, 0);
        assert_eq!(base.failure_domains.domains, 0, "must default off");
        assert_eq!(base.quarantine_threshold, 0, "must default off");

        let mut fd = FailureDomainConfig {
            domains: 8,
            outage_rate: 0.001,
            outage_at: 5,
            ..FailureDomainConfig::default()
        };
        assert!(base.clone().with_failure_domains(fd).validate().is_ok());

        fd.outage_rate = 1.5;
        assert!(base
            .clone()
            .with_failure_domains(fd)
            .validate()
            .unwrap_err()
            .contains("not a probability"));
        fd.outage_rate = 0.001;
        fd.outage_rounds = 0;
        assert!(base
            .clone()
            .with_failure_domains(fd)
            .validate()
            .unwrap_err()
            .contains("duration"));
        fd.outage_rounds = 36;
        fd.domains = 0;
        assert!(base
            .clone()
            .with_failure_domains(fd)
            .validate()
            .unwrap_err()
            .contains("at least one failure domain"));
        fd.domains = 1 << 17;
        assert!(base
            .clone()
            .with_failure_domains(fd)
            .validate()
            .unwrap_err()
            .contains("u16"));
        let mut fd = FailureDomainConfig {
            domains: 4,
            partition_rate: 0.01,
            partition_rounds: 0,
            ..FailureDomainConfig::default()
        };
        assert!(base.clone().with_failure_domains(fd).validate().is_err());
        fd.partition_rounds = 12;
        assert!(base.with_failure_domains(fd).validate().is_ok());
    }

    #[test]
    fn multi_archive_validation() {
        let mut c = SimConfig::paper(10, 10, 0);
        c.archives_per_peer = 0;
        assert!(c.validate().is_err());
        c.archives_per_peer = 2; // quota 384 < 2 x 256
        assert!(c.validate().unwrap_err().contains("2 archives"));
        c.quota = 768;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn adaptive_validation() {
        let base = SimConfig::paper(10, 10, 0);
        let mk = |b, fm, st| {
            let mut c = base.clone();
            c.maintenance = MaintenancePolicy::Adaptive {
                base: b,
                floor_margin: fm,
                step: st,
            };
            c.validate()
        };
        assert!(mk(148, 4, 2).is_ok());
        assert!(mk(148, 4, 0).unwrap_err().contains("step"));
        assert!(mk(130, 4, 2).unwrap_err().contains("floor"));
        assert!(mk(300, 4, 2).unwrap_err().contains("above n"));
    }
}
