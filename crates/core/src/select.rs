//! Partner-selection strategies.
//!
//! After the acceptance-gated pool is built, the owner picks the `d`
//! partners it needs. "Nodes are selected according to their stability.
//! Because this stability cannot be guessed, the protocol uses the ages
//! of the peers in the system to sort them" (§3.2) — that is
//! [`SelectionStrategy::AgeBased`]. The other strategies are baselines
//! and bounds for the ablation study (`paper_report ablation_strategies`):
//!
//! * [`Random`](SelectionStrategy::Random) — uniform choice from the
//!   pool; what a system without lifetime estimation does.
//! * [`Youngest`](SelectionStrategy::Youngest) — adversarial lower bound.
//! * [`OracleLifetime`](SelectionStrategy::OracleLifetime) — sorts by the
//!   peers' *true* remaining lifetimes (information no real system has);
//!   upper bound on what any lifetime estimator could achieve.
//! * [`LearnedAge`](SelectionStrategy::LearnedAge) — sorts by the
//!   *learned* remaining-lifetime estimate from the online survival
//!   model (`peerback-estimate`), the realisable version of the
//!   paper's idea: it sits between `Random` and `OracleLifetime`, and
//!   how close it gets to the oracle measures the estimator.

use rand::seq::SliceRandom;
use rand::Rng;

/// A candidate that passed acceptance and quota checks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// Peer slot id.
    pub id: u32,
    /// Age in rounds (frozen age for observers).
    pub age: u64,
    /// Observed lifetime uptime fraction in `[0, 1]` (the §2.1
    /// monitoring protocol's output). Used by
    /// [`SelectionStrategy::UptimeWeighted`].
    pub uptime: f64,
    /// True remaining lifetime in rounds (`u64::MAX` for durable peers).
    /// Only the oracle strategy may look at this.
    pub true_remaining: u64,
    /// Learned remaining-lifetime estimate in rounds, from the online
    /// survival model. Populated shard-locally while the pool is built
    /// when a [`SelectionStrategy::LearnedAge`] world runs; 0 when no
    /// estimator is attached.
    pub estimated_remaining: u64,
}

impl Candidate {
    /// The uptime-weighted stability score: observed uptime × age.
    /// Peers that are both old *and* reliably online outrank peers that
    /// are merely old (extension beyond the paper, which selects on age
    /// alone while assuming the monitoring protocol exists).
    pub fn uptime_score(&self) -> f64 {
        self.uptime.clamp(0.0, 1.0) * self.age as f64
    }
}

/// How the owner ranks its candidate pool.
///
/// # Example
///
/// Strategies plug into [`SimConfig`](crate::SimConfig); `LearnedAge`
/// additionally attaches the online survival model, whose end-of-run
/// state rides out in the metrics:
///
/// ```
/// use peerback_core::{run_simulation, SelectionStrategy, SimConfig};
///
/// let mut cfg = SimConfig::paper(120, 200, 11);
/// cfg.k = 8;
/// cfg.m = 8;
/// cfg.quota = 48;
/// cfg = cfg.with_threshold(10).with_strategy(SelectionStrategy::LearnedAge);
/// let metrics = run_simulation(cfg);
/// assert!(
///     metrics.estimator.is_some(),
///     "LearnedAge attaches the survival model"
/// );
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SelectionStrategy {
    /// The paper's scheme: pick the oldest candidates.
    AgeBased,
    /// Uniformly random choice (baseline).
    Random,
    /// Pick the youngest candidates (adversarial baseline).
    Youngest,
    /// Rank by observed uptime × age (uses the §2.1 monitoring
    /// protocol's availability history; extension beyond the paper).
    UptimeWeighted,
    /// Pick by true remaining lifetime (unrealisable upper bound).
    OracleLifetime,
    /// Rank by the learned remaining-lifetime estimate (the online
    /// Kaplan–Meier + isotonic survival model of `peerback-estimate`).
    LearnedAge,
}

impl SelectionStrategy {
    /// All strategies, for sweep harnesses.
    pub const ALL: [SelectionStrategy; 6] = [
        SelectionStrategy::AgeBased,
        SelectionStrategy::Random,
        SelectionStrategy::Youngest,
        SelectionStrategy::UptimeWeighted,
        SelectionStrategy::OracleLifetime,
        SelectionStrategy::LearnedAge,
    ];

    /// Name for reports.
    pub fn name(self) -> &'static str {
        match self {
            SelectionStrategy::AgeBased => "age-based",
            SelectionStrategy::Random => "random",
            SelectionStrategy::Youngest => "youngest",
            SelectionStrategy::UptimeWeighted => "uptime-weighted",
            SelectionStrategy::OracleLifetime => "oracle-lifetime",
            SelectionStrategy::LearnedAge => "learned-age",
        }
    }

    /// Parses a [`SelectionStrategy::name`] back into the strategy —
    /// the CLI flag form used by the bench harnesses.
    pub fn from_name(name: &str) -> Option<SelectionStrategy> {
        SelectionStrategy::ALL
            .into_iter()
            .find(|s| s.name() == name)
    }

    /// Reorders `pool` so its first `min(d, len)` entries are the chosen
    /// partners, and truncates it to that length.
    ///
    /// Ties (equal ages) are broken uniformly at random: the pool is
    /// pre-shuffled, then sorted with a stable sort where an ordering
    /// applies.
    pub fn choose<R: Rng + ?Sized>(self, rng: &mut R, pool: &mut Vec<Candidate>, d: usize) {
        // Pre-shuffle so that stable sorting breaks ties randomly and the
        // random strategy needs no further work.
        pool.shuffle(rng);
        match self {
            SelectionStrategy::AgeBased => {
                pool.sort_by_key(|c| core::cmp::Reverse(c.age));
            }
            SelectionStrategy::Random => {}
            SelectionStrategy::Youngest => {
                pool.sort_by_key(|c| c.age);
            }
            SelectionStrategy::UptimeWeighted => {
                pool.sort_by(|a, b| {
                    b.uptime_score()
                        .partial_cmp(&a.uptime_score())
                        .unwrap_or(core::cmp::Ordering::Equal)
                });
            }
            SelectionStrategy::OracleLifetime => {
                pool.sort_by_key(|c| core::cmp::Reverse(c.true_remaining));
            }
            SelectionStrategy::LearnedAge => {
                pool.sort_by_key(|c| core::cmp::Reverse(c.estimated_remaining));
            }
        }
        pool.truncate(d);
    }

    /// The ranking key this strategy orders candidate pools by, when
    /// the ordering is a descending integer key — the strategies a
    /// [`KeyedSample`] (and its reference, [`AgeOrderedIndex`]) can
    /// serve.
    #[inline]
    pub fn ranking_key(self, cand: &Candidate) -> Option<u64> {
        match self {
            SelectionStrategy::AgeBased => Some(cand.age),
            SelectionStrategy::LearnedAge => Some(cand.estimated_remaining),
            _ => None,
        }
    }
}

/// The accepted sample of one keyed pool build
/// ([`SelectionStrategy::AgeBased`], [`SelectionStrategy::LearnedAge`]):
/// 16-byte `(key, tie, id)` entries collected in sampling order and
/// sorted once when the sample is complete. The ranking key is supplied
/// by the caller per candidate — the reported age for the paper's
/// strategy, the learned remaining-lifetime estimate for `LearnedAge`.
///
/// This is what the world's pool builder runs: its sample loop stops
/// the moment the sample reaches its target size, so nothing is ever
/// evicted, and one sort by `(key, sampling order)` yields exactly the
/// ranking [`AgeOrderedIndex`] maintains incrementally — without heap
/// sifts, and without carrying a 40-byte [`Candidate`] per entry when
/// the commit only needs the ranked ids.
///
/// Determinism: `tie` is `u32::MAX − sampling position`, unique per
/// entry, so the order is total and the ranked output is a pure
/// function of the push sequence.
#[derive(Debug, Clone, Default)]
pub struct KeyedSample {
    entries: Vec<(u64, u32, u32)>,
}

impl KeyedSample {
    /// An empty sample.
    pub fn new() -> Self {
        KeyedSample::default()
    }

    /// Number of candidates currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the sample holds no candidates.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Appends candidate `id` under ranking key `key`.
    #[inline]
    pub fn push(&mut self, key: u64, id: u32) {
        let tie = u32::MAX - self.entries.len() as u32;
        self.entries.push((key, tie, id));
    }

    /// Drains the sample's ids into `out` ranked highest-key-first
    /// (equal keys in sampling order), leaving the sample empty but
    /// with its allocation.
    pub fn drain_ranked_into(&mut self, out: &mut Vec<u32>) {
        self.entries
            .sort_unstable_by_key(|&(key, tie, _)| core::cmp::Reverse((key, tie)));
        out.extend(self.entries.drain(..).map(|(_, _, id)| id));
    }
}

/// A maintained ranked candidate index for
/// [`SelectionStrategy::AgeBased`] and
/// [`SelectionStrategy::LearnedAge`] pools: a bounded top-`cap`-by-key
/// structure over a binary min-heap. The ranking key is supplied by the
/// caller per insertion — the candidate's age for the paper's strategy,
/// its learned remaining-lifetime estimate for `LearnedAge` (see
/// [`SelectionStrategy::ranking_key`]).
///
/// **No longer on the simulator's hot path.** The world's pool builder
/// never fills a pool past its capacity, so it never needed the
/// eviction this structure pays for on every insert; it collects a
/// [`KeyedSample`] instead. The index is kept as the *reference
/// implementation* of the ranking order — the oracle the sample is
/// tested against, element for element, here and on every pool build
/// of the world's own test suite — and for callers that do stream more
/// candidates than they keep.
///
/// Compared with the historical collect-shuffle-sort ranking, the
/// index maintains order *while the pool is built*:
///
/// * [`admits`](AgeOrderedIndex::admits) is the hot-path pre-screen —
///   one comparison against the current key floor decides whether a
///   candidate can still improve a full pool, **before** the
///   probabilistic acceptance test spends RNG draws on it. Ties cannot
///   improve the pool, so they are screened out too.
/// * [`insert`](AgeOrderedIndex::insert) costs `O(log cap)` (a heap
///   sift, not a sorted-vector memmove), so scattered-key insertion
///   streams stay cheap.
/// * [`into_ranked`](AgeOrderedIndex::into_ranked) pays one final sort
///   of at most `cap` survivors — the same cost the legacy path paid,
///   but over a pool the screen kept small.
///
/// Determinism: entries are totally ordered by `(key, insertion
/// sequence)` — equal-key candidates keep their sampling order, which
/// is itself seed-deterministic — so the ranked output is a pure
/// function of the insertion stream at any thread count.
#[derive(Debug, Clone)]
pub struct AgeOrderedIndex {
    cap: usize,
    seq: u32,
    /// Min-heap: `heap[0]` is the lowest-keyed (and latest-sampled
    /// among key ties) entry — the one eviction removes.
    heap: Vec<HeapEntry>,
}

/// `(key, u32::MAX - insertion seq, candidate)`: tuple order on the
/// first two fields makes earlier-sampled key-ties the *larger* entry,
/// so eviction drops the latest tie first.
type HeapEntry = (u64, u32, Candidate);

#[inline]
fn heap_key(entry: &HeapEntry) -> (u64, u32) {
    (entry.0, entry.1)
}

impl AgeOrderedIndex {
    /// An empty index keeping the oldest `cap` candidates.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "index capacity must be positive");
        AgeOrderedIndex {
            cap,
            seq: 0,
            heap: Vec::with_capacity(cap),
        }
    }

    /// Number of candidates currently held.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the index holds no candidates.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Whether a candidate with ranking key `key` would enter the
    /// index: always while below capacity, otherwise only by beating
    /// the current floor (ties lose). The hot-path pre-screen.
    #[inline]
    pub fn admits(&self, key: u64) -> bool {
        self.heap.len() < self.cap || key > self.heap[0].0
    }

    /// Inserts a candidate under ranking key `key`, evicting the
    /// lowest-keyed entry when full. Returns whether the candidate
    /// entered.
    pub fn insert(&mut self, key: u64, cand: Candidate) -> bool {
        if !self.admits(key) {
            return false;
        }
        let entry = (key, u32::MAX - self.seq, cand);
        self.seq = self.seq.wrapping_add(1);
        if self.heap.len() < self.cap {
            self.heap.push(entry);
            self.sift_up(self.heap.len() - 1);
        } else {
            self.heap[0] = entry;
            self.sift_down(0);
        }
        true
    }

    /// Consumes the index into a pool ranked highest-key-first (equal
    /// keys in sampling order).
    pub fn into_ranked(self) -> Vec<Candidate> {
        let mut entries = self.heap;
        entries.sort_unstable_by_key(|e| core::cmp::Reverse(heap_key(e)));
        entries.into_iter().map(|(_, _, cand)| cand).collect()
    }

    /// Re-arms the index for a fresh build of capacity `cap`,
    /// retaining the heap's allocation — the recycled-arena form of
    /// [`AgeOrderedIndex::new`] (observationally identical to it).
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn reset(&mut self, cap: usize) {
        assert!(cap > 0, "index capacity must be positive");
        self.cap = cap;
        self.seq = 0;
        self.heap.clear();
    }

    /// Drains the index into `out` ranked highest-key-first (equal
    /// keys in sampling order), leaving it empty but with its
    /// allocation — the recycled-arena form of
    /// [`AgeOrderedIndex::into_ranked`].
    pub fn drain_ranked_into(&mut self, out: &mut Vec<Candidate>) {
        self.heap
            .sort_unstable_by_key(|e| core::cmp::Reverse(heap_key(e)));
        out.extend(self.heap.drain(..).map(|(_, _, cand)| cand));
    }

    fn sift_up(&mut self, mut at: usize) {
        while at > 0 {
            let parent = (at - 1) / 2;
            if heap_key(&self.heap[at]) < heap_key(&self.heap[parent]) {
                self.heap.swap(at, parent);
                at = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut at: usize) {
        loop {
            let (left, right) = (2 * at + 1, 2 * at + 2);
            let mut smallest = at;
            if left < self.heap.len() && heap_key(&self.heap[left]) < heap_key(&self.heap[smallest])
            {
                smallest = left;
            }
            if right < self.heap.len()
                && heap_key(&self.heap[right]) < heap_key(&self.heap[smallest])
            {
                smallest = right;
            }
            if smallest == at {
                break;
            }
            self.heap.swap(at, smallest);
            at = smallest;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peerback_sim::sim_rng;

    fn pool() -> Vec<Candidate> {
        (0..20u32)
            .map(|i| Candidate {
                id: i,
                age: (i as u64) * 100,
                // Uptime inversely related to age so the uptime ranking
                // differs from the pure age ranking.
                uptime: 1.0 - (i as f64) * 0.04,
                true_remaining: ((19 - i) as u64) * 50, // inverse of age
                // Estimates agree with the truth only on parity so the
                // learned ranking differs from every other ordering.
                estimated_remaining: if i % 2 == 0 {
                    (i as u64) * 10 + 1000
                } else {
                    1
                },
            })
            .collect()
    }

    #[test]
    fn age_based_takes_the_oldest() {
        let mut rng = sim_rng(1);
        let mut p = pool();
        SelectionStrategy::AgeBased.choose(&mut rng, &mut p, 5);
        assert_eq!(p.len(), 5);
        let ids: Vec<u32> = p.iter().map(|c| c.id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![15, 16, 17, 18, 19]);
        // And in descending age order.
        assert!(p.windows(2).all(|w| w[0].age >= w[1].age));
    }

    #[test]
    fn youngest_takes_the_newest() {
        let mut rng = sim_rng(1);
        let mut p = pool();
        SelectionStrategy::Youngest.choose(&mut rng, &mut p, 4);
        let mut ids: Vec<u32> = p.iter().map(|c| c.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn oracle_ignores_age_and_uses_truth() {
        let mut rng = sim_rng(1);
        let mut p = pool();
        SelectionStrategy::OracleLifetime.choose(&mut rng, &mut p, 3);
        // true_remaining is inversely ordered with id, so the oracle picks
        // the *lowest* ids (which age-based would rank last).
        let mut ids: Vec<u32> = p.iter().map(|c| c.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn random_selection_varies_with_seed_but_is_reproducible() {
        let run = |seed: u64| {
            let mut rng = sim_rng(seed);
            let mut p = pool();
            SelectionStrategy::Random.choose(&mut rng, &mut p, 5);
            p.iter().map(|c| c.id).collect::<Vec<_>>()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    fn random_selection_is_roughly_uniform() {
        let mut rng = sim_rng(8);
        let mut counts = [0u32; 20];
        for _ in 0..10_000 {
            let mut p = pool();
            SelectionStrategy::Random.choose(&mut rng, &mut p, 1);
            counts[p[0].id as usize] += 1;
        }
        // Each of the 20 candidates should win ~500 times.
        for (i, &c) in counts.iter().enumerate() {
            assert!((350..650).contains(&c), "candidate {i} chosen {c} times");
        }
    }

    #[test]
    fn ties_are_broken_randomly() {
        // All candidates same age: age-based must not always pick the
        // same subset.
        let tied: Vec<Candidate> = (0..10u32)
            .map(|i| Candidate {
                id: i,
                age: 500,
                uptime: 0.5,
                true_remaining: 1,
                estimated_remaining: 1,
            })
            .collect();
        let mut rng = sim_rng(5);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..50 {
            let mut p = tied.clone();
            SelectionStrategy::AgeBased.choose(&mut rng, &mut p, 3);
            let mut ids: Vec<u32> = p.iter().map(|c| c.id).collect();
            ids.sort_unstable();
            seen.insert(ids);
        }
        assert!(seen.len() > 5, "tie-breaking looks deterministic: {seen:?}");
    }

    #[test]
    fn asking_for_more_than_the_pool_returns_everything() {
        let mut rng = sim_rng(1);
        let mut p = pool();
        SelectionStrategy::AgeBased.choose(&mut rng, &mut p, 100);
        assert_eq!(p.len(), 20);
    }

    #[test]
    fn uptime_weighted_balances_age_and_availability() {
        let mut rng = sim_rng(2);
        let mut p = pool();
        // Scores: age x uptime = 100 i (1 - 0.04 i) = 100 i - 4 i^2,
        // maximised at i = 12.5: ids 12 and 13 tie for the top (624),
        // ids 11 and 14 tie next (616). The top-3 pick must be {12, 13}
        // plus one of {11, 14} — never the oldest peer (19).
        SelectionStrategy::UptimeWeighted.choose(&mut rng, &mut p, 3);
        let mut ids: Vec<u32> = p.iter().map(|c| c.id).collect();
        ids.sort_unstable();
        assert!(
            ids.contains(&12) && ids.contains(&13),
            "top ties missing: {ids:?}"
        );
        assert!(
            ids.contains(&11) || ids.contains(&14),
            "third pick should be a 616-score peer: {ids:?}"
        );
        assert!(!ids.contains(&19), "pure age ranking leaked through");
    }

    #[test]
    fn uptime_score_is_product_of_uptime_and_age() {
        let c = Candidate {
            id: 0,
            age: 1000,
            uptime: 0.75,
            true_remaining: 0,
            estimated_remaining: 0,
        };
        assert_eq!(c.uptime_score(), 750.0);
        // Out-of-range uptimes clamp defensively.
        let c = Candidate {
            id: 0,
            age: 100,
            uptime: 1.5,
            true_remaining: 0,
            estimated_remaining: 0,
        };
        assert_eq!(c.uptime_score(), 100.0);
    }

    #[test]
    fn learned_age_ranks_by_estimate_not_age_or_truth() {
        let mut rng = sim_rng(3);
        let mut p = pool();
        // Even ids carry large estimates growing with id; the top-3
        // learned pick is the three largest even ids.
        SelectionStrategy::LearnedAge.choose(&mut rng, &mut p, 3);
        let mut ids: Vec<u32> = p.iter().map(|c| c.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![14, 16, 18]);
        assert!(p
            .windows(2)
            .all(|w| w[0].estimated_remaining >= w[1].estimated_remaining));
    }

    #[test]
    fn ranking_key_covers_exactly_the_indexed_strategies() {
        let c = Candidate {
            id: 1,
            age: 70,
            uptime: 0.5,
            true_remaining: 9,
            estimated_remaining: 33,
        };
        assert_eq!(SelectionStrategy::AgeBased.ranking_key(&c), Some(70));
        assert_eq!(SelectionStrategy::LearnedAge.ranking_key(&c), Some(33));
        for s in [
            SelectionStrategy::Random,
            SelectionStrategy::Youngest,
            SelectionStrategy::UptimeWeighted,
            SelectionStrategy::OracleLifetime,
        ] {
            assert_eq!(s.ranking_key(&c), None, "{}", s.name());
        }
    }

    #[test]
    fn from_name_round_trips_every_strategy() {
        for s in SelectionStrategy::ALL {
            assert_eq!(SelectionStrategy::from_name(s.name()), Some(s));
        }
        assert_eq!(SelectionStrategy::from_name("nonsense"), None);
    }

    #[test]
    fn age_index_keeps_the_oldest_in_descending_order() {
        let mut index = AgeOrderedIndex::new(3);
        for (i, age) in [5u64, 900, 42, 900, 7, 1000, 3].into_iter().enumerate() {
            index.insert(
                age,
                Candidate {
                    id: i as u32,
                    age,
                    uptime: 1.0,
                    true_remaining: 0,
                    estimated_remaining: 0,
                },
            );
        }
        let pool = index.into_ranked();
        let ages: Vec<u64> = pool.iter().map(|c| c.age).collect();
        assert_eq!(ages, vec![1000, 900, 900]);
        // Equal ages keep sampling order: id 1 was seen before id 3.
        assert_eq!(pool[1].id, 1);
        assert_eq!(pool[2].id, 3);
    }

    #[test]
    fn age_index_screen_rejects_floor_and_ties_only_when_full() {
        let mk = |age| Candidate {
            id: 0,
            age,
            uptime: 1.0,
            true_remaining: 0,
            estimated_remaining: 0,
        };
        let mut index = AgeOrderedIndex::new(2);
        assert!(index.admits(0), "empty index admits anything");
        assert!(index.is_empty());
        index.insert(10, mk(10));
        index.insert(20, mk(20));
        assert!(!index.admits(10), "tie with the floor");
        assert!(!index.admits(5));
        assert!(index.admits(11));
        assert!(index.insert(15, mk(15)), "evicts the floor");
        assert!(!index.insert(3, mk(3)), "too young to enter");
        assert_eq!(index.len(), 2);
        let pool = index.into_ranked();
        assert_eq!(pool.last().unwrap().age, 15);
    }

    #[test]
    fn age_index_matches_a_full_sort_on_scattered_ages() {
        // Reference: sort everything by (age desc, arrival), take cap.
        let stream: Vec<Candidate> = (0..500u32)
            .map(|i| Candidate {
                id: i,
                age: (i as u64).wrapping_mul(2654435761) % 97,
                uptime: 0.0,
                true_remaining: 0,
                estimated_remaining: 0,
            })
            .collect();
        let mut index = AgeOrderedIndex::new(64);
        for c in &stream {
            index.insert(c.age, *c);
        }
        let got: Vec<u32> = index.into_ranked().iter().map(|c| c.id).collect();

        let mut reference = stream.clone();
        reference.sort_by_key(|c| (core::cmp::Reverse(c.age), c.id));
        let want: Vec<u32> = reference[..64].iter().map(|c| c.id).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn keyed_sample_ranks_exactly_like_the_index() {
        // The pool builder stops sampling at the pool's capacity, so
        // the streams here never exceed it (the index never evicts).
        // Narrow key spaces force long runs of ties.
        const D: usize = 256;
        let mut rng = sim_rng(77);
        for strategy in [SelectionStrategy::AgeBased, SelectionStrategy::LearnedAge] {
            for cap in [1, D, 2 * D] {
                for len in [0, 1, cap / 2, cap] {
                    for key_space in [1u64, 3, 40, u64::MAX] {
                        let stream: Vec<Candidate> = (0..len)
                            .map(|_| Candidate {
                                id: rng.gen_range(0..1_000_000u32),
                                age: rng.gen_range(0..key_space),
                                uptime: 0.5,
                                true_remaining: 0,
                                estimated_remaining: rng.gen_range(0..key_space),
                            })
                            .collect();
                        let mut index = AgeOrderedIndex::new(cap);
                        let mut sample = KeyedSample::new();
                        for c in &stream {
                            let key = strategy.ranking_key(c).expect("keyed strategy");
                            assert!(index.insert(key, *c), "the index evicted below capacity");
                            sample.push(key, c.id);
                        }
                        assert_eq!(sample.len(), len);
                        let want: Vec<u32> = index.into_ranked().iter().map(|c| c.id).collect();
                        let mut got = Vec::new();
                        sample.drain_ranked_into(&mut got);
                        assert_eq!(
                            got,
                            want,
                            "{} cap {cap} len {len} keys < {key_space}",
                            strategy.name()
                        );
                        assert!(sample.is_empty());
                    }
                }
            }
        }
    }

    #[test]
    fn names_are_unique() {
        let names: std::collections::HashSet<_> =
            SelectionStrategy::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), 6);
    }

    #[test]
    fn keyed_index_ranks_by_the_supplied_key_not_age() {
        // Keys are learned estimates, deliberately anti-correlated
        // with age: the index must follow the key.
        let mut index = AgeOrderedIndex::new(3);
        for i in 0..10u32 {
            let cand = Candidate {
                id: i,
                age: 1000 - i as u64,
                uptime: 0.5,
                true_remaining: 0,
                estimated_remaining: (i as u64) * 7,
            };
            index.insert(cand.estimated_remaining, cand);
        }
        let ids: Vec<u32> = index.into_ranked().iter().map(|c| c.id).collect();
        assert_eq!(ids, vec![9, 8, 7]);
    }
}
