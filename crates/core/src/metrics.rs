//! Metric collection: everything the paper's figures are drawn from.

use peerback_estimate::EstimatorReport;

use crate::age::AgeCategory;

/// Per-age-category counters, indexed by [`AgeCategory::index`].
pub type ByCategory<T> = [T; AgeCategory::COUNT];

/// One sampled point of the per-category time series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CategorySample {
    /// Round at which the sample was taken.
    pub round: u64,
    /// Cumulative repairs per category up to this round.
    pub cum_repairs: ByCategory<u64>,
    /// Cumulative archive losses per category up to this round.
    pub cum_losses: ByCategory<u64>,
    /// Instantaneous population per category.
    pub census: ByCategory<u64>,
}

/// Cumulative repair counts of one observer over time (Figure 3).
#[derive(Debug, Clone, PartialEq)]
pub struct ObserverSeries {
    /// Observer name (Baby, Teenager, …).
    pub name: &'static str,
    /// Frozen age in rounds.
    pub frozen_age: u64,
    /// `(round, cumulative repairs)` samples.
    pub points: Vec<(u64, u64)>,
    /// Total repairs at the end of the run.
    pub total_repairs: u64,
    /// Archive losses suffered by the observer.
    pub losses: u64,
}

/// Diagnostic counters: not part of the paper's figures but invaluable
/// for understanding runs and for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Diagnostics {
    /// Peers that departed (and were replaced).
    pub departures: u64,
    /// Session transitions processed.
    pub session_toggles: u64,
    /// Partners written off after exceeding the offline timeout
    /// (§2.2.3's "threshold period"); each write-off drops all blocks
    /// the partner hosted.
    pub partner_timeouts: u64,
    /// Initial uploads completed (joins, including re-joins after loss).
    pub joins_completed: u64,
    /// Activation rounds in which a pool came up short of `d` (the peer
    /// had "difficulties to find new partners", §4.2.1).
    pub pool_shortfalls: u64,
    /// Total blocks uploaded to new partners (join + repair traffic).
    pub blocks_uploaded: u64,
    /// Total block-download equivalents for repair decodes (`k` per
    /// started repair episode).
    pub blocks_downloaded: u64,
    /// Per-peer threshold adjustments made by the adaptive maintenance
    /// policy.
    pub threshold_adjustments: u64,
    /// Widen decisions made by the adaptive redundancy policy
    /// (`SimConfig::adaptive_n`): archives whose target width was
    /// raised back toward `n`.
    pub redundancy_widened: u64,
    /// Narrow decisions made by the adaptive redundancy policy:
    /// archives whose target width was trimmed by one block.
    pub redundancy_narrowed: u64,
    /// Repair episodes opened preemptively by a widen decision (before
    /// the threshold trigger would have fired).
    pub preemptive_repairs: u64,
    /// Placements released by narrow decisions (the lowest-value block
    /// of each narrowed archive).
    pub placements_released: u64,
    /// Regional outages started (`SimConfig::failure_domains`).
    pub outages_started: u64,
    /// Network partitions started (`SimConfig::failure_domains`).
    pub partitions_started: u64,
    /// Online peers forcibly disconnected by a regional outage.
    pub outage_disconnects: u64,
    /// Hosts pushed over `SimConfig::quarantine_threshold` by the
    /// reputation ledger and quarantined.
    pub hosts_quarantined: u64,
    /// Quarantine evictions executed (hosted blocks written off through
    /// the normal two-hop teardown; at most one per quarantined host).
    pub quarantine_evictions: u64,
}

/// All metrics collected during a run.
///
/// `PartialEq` compares every field bit-for-bit (including the `f64`
/// restorability series) — the equality the sharding determinism
/// contract is stated in: same seed, any `SimConfig::shards`, equal
/// metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct Metrics {
    /// Repair episodes started, by owner's age category at start.
    pub repairs: ByCategory<u64>,
    /// Archives lost, by owner's age category at loss.
    pub losses: ByCategory<u64>,
    /// Sum over rounds of the per-category census (peer-rounds).
    pub peer_rounds: ByCategory<u64>,
    /// Time series (sampled every 24 rounds).
    pub samples: Vec<CategorySample>,
    /// Per-observer series.
    pub observers: Vec<ObserverSeries>,
    /// Instant-restorability series: `(round, fraction)` of joined
    /// archives whose owner could start downloading `k` blocks *right
    /// now* (≥ k blocks on currently-online partners). The paper argues
    /// durability matters more than availability (§2.2.3); this series
    /// quantifies how much instantaneous availability the protocol
    /// delivers anyway. Sampled every 10th metric sample.
    pub restorability: Vec<(u64, f64)>,
    /// Diagnostics.
    pub diag: Diagnostics,
    /// Final state of the learned survival model (`Some` only when the
    /// run used `SelectionStrategy::LearnedAge`). Part of the `PartialEq`
    /// comparison, so the determinism contract covers estimator state.
    pub estimator: Option<EstimatorReport>,
    /// Rounds actually simulated.
    pub rounds: u64,
}

impl Metrics {
    /// Creates empty metrics.
    pub fn new() -> Self {
        Metrics {
            repairs: [0; 4],
            losses: [0; 4],
            peer_rounds: [0; 4],
            samples: Vec::new(),
            observers: Vec::new(),
            restorability: Vec::new(),
            diag: Diagnostics::default(),
            estimator: None,
            rounds: 0,
        }
    }

    /// Figure 1's y-value: average repairs per 1000 peers per round for
    /// a category. `None` when the category never had any population.
    pub fn repair_rate_per_1000(&self, cat: AgeCategory) -> Option<f64> {
        let pr = self.peer_rounds[cat.index()];
        (pr > 0).then(|| self.repairs[cat.index()] as f64 * 1000.0 / pr as f64)
    }

    /// Figure 2's y-value: average archive losses per 1000 peers per
    /// round for a category.
    pub fn loss_rate_per_1000(&self, cat: AgeCategory) -> Option<f64> {
        let pr = self.peer_rounds[cat.index()];
        (pr > 0).then(|| self.losses[cat.index()] as f64 * 1000.0 / pr as f64)
    }

    /// Figure 4's y-value at a sample: cumulative losses per average
    /// concurrent peer of the category.
    pub fn cumulative_loss_per_peer(&self, sample: &CategorySample, cat: AgeCategory) -> f64 {
        // Average census up to this sample approximated by the current
        // census (the population per category is stationary after the
        // startup transient).
        let census = sample.census[cat.index()];
        if census == 0 {
            0.0
        } else {
            sample.cum_losses[cat.index()] as f64 / census as f64
        }
    }

    /// Total repairs across categories.
    pub fn total_repairs(&self) -> u64 {
        self.repairs.iter().sum()
    }

    /// Total losses across categories.
    pub fn total_losses(&self) -> u64 {
        self.losses.iter().sum()
    }

    /// Mean of the instant-restorability series (`None` if unsampled).
    pub fn mean_restorability(&self) -> Option<f64> {
        if self.restorability.is_empty() {
            return None;
        }
        Some(
            self.restorability.iter().map(|&(_, f)| f).sum::<f64>()
                / self.restorability.len() as f64,
        )
    }
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_normalise_by_peer_rounds() {
        let mut m = Metrics::new();
        m.repairs[0] = 50;
        m.peer_rounds[0] = 1_000_000;
        // 50 repairs over 1M peer-rounds = 0.05 per 1000 peers per round.
        let r = m.repair_rate_per_1000(AgeCategory::Newcomer).unwrap();
        assert!((r - 0.05).abs() < 1e-12);
        // Empty category has no rate.
        assert_eq!(m.repair_rate_per_1000(AgeCategory::Elder), None);
    }

    #[test]
    fn loss_rate_mirrors_repair_rate() {
        let mut m = Metrics::new();
        m.losses[3] = 2;
        m.peer_rounds[3] = 4_000;
        let r = m.loss_rate_per_1000(AgeCategory::Elder).unwrap();
        assert!((r - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cumulative_loss_per_peer_divides_by_census() {
        let m = Metrics::new();
        let sample = CategorySample {
            round: 100,
            cum_repairs: [0; 4],
            cum_losses: [36, 0, 0, 0],
            census: [2, 0, 0, 0],
        };
        assert_eq!(
            m.cumulative_loss_per_peer(&sample, AgeCategory::Newcomer),
            18.0
        );
        assert_eq!(m.cumulative_loss_per_peer(&sample, AgeCategory::Young), 0.0);
    }

    #[test]
    fn totals_sum_categories() {
        let mut m = Metrics::new();
        m.repairs = [1, 2, 3, 4];
        m.losses = [5, 0, 0, 1];
        assert_eq!(m.total_repairs(), 10);
        assert_eq!(m.total_losses(), 6);
    }
}
