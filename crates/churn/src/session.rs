//! On/off availability sessions.
//!
//! The paper specifies only each profile's **long-run** availability; a
//! simulation additionally needs session *dynamics* — how long a peer
//! stays online before disconnecting and vice versa. We realise
//! availability `a` as an alternating renewal process with geometric
//! session lengths: mean online run `a * cycle` rounds and mean offline
//! run `(1 - a) * cycle` rounds, which yields exactly `a` in the long run
//! for any `cycle`. The default cycle of 24 hours models the daily
//! connect/disconnect rhythm of home machines.

use rand::Rng;

/// Samples alternating online/offline session lengths for one peer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionSampler {
    availability: f64,
    mean_on: f64,
    mean_off: f64,
    /// `ln(1 − 1/mean_on)`, the geometric law's log continue
    /// probability, computed once rather than on every draw.
    ln_q_on: f64,
    /// `ln(1 − 1/mean_off)`.
    ln_q_off: f64,
}

impl SessionSampler {
    /// Creates a sampler for the given long-run `availability` and mean
    /// on+off `cycle_rounds`.
    ///
    /// Session means are floored at one round, which perturbs the
    /// realised availability slightly for extreme inputs (e.g. `a =
    /// 0.99` with a short cycle); [`Self::realized_availability`] reports
    /// the exact long-run value.
    ///
    /// # Panics
    ///
    /// Panics unless `availability` is in `[0, 1]` and
    /// `cycle_rounds > 0`.
    pub fn new(availability: f64, cycle_rounds: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&availability),
            "availability must be in [0, 1]"
        );
        assert!(cycle_rounds > 0.0, "cycle must be positive");
        let mean_on = (availability * cycle_rounds).max(1.0);
        let mean_off = ((1.0 - availability) * cycle_rounds).max(1.0);
        SessionSampler {
            availability,
            mean_on,
            mean_off,
            ln_q_on: ln_continue(mean_on),
            ln_q_off: ln_continue(mean_off),
        }
    }

    /// Exact long-run availability of the generated process,
    /// `mean_on / (mean_on + mean_off)`.
    pub fn realized_availability(&self) -> f64 {
        if self.always_online() {
            return 1.0;
        }
        if self.always_offline() {
            return 0.0;
        }
        self.mean_on / (self.mean_on + self.mean_off)
    }

    /// True when the peer never disconnects (`availability == 1`).
    pub fn always_online(&self) -> bool {
        self.availability >= 1.0
    }

    /// True when the peer never connects (`availability == 0`).
    pub fn always_offline(&self) -> bool {
        self.availability <= 0.0
    }

    /// Draws the initial state: online with probability `availability`
    /// (the stationary distribution of the renewal process).
    pub fn initial_online<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        rng.gen::<f64>() < self.availability
    }

    /// Length in rounds of the next online session (>= 1).
    pub fn online_duration<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        geometric(rng, self.mean_on, self.ln_q_on)
    }

    /// Length in rounds of the next offline session (>= 1).
    pub fn offline_duration<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        geometric(rng, self.mean_off, self.ln_q_off)
    }
}

/// `ln(q)` for the geometric law of the given mean, where `q = 1 −
/// 1/mean` is the probability that a session continues another round.
/// `-inf` at `mean == 1`, which [`geometric`] never reads.
fn ln_continue(mean: f64) -> f64 {
    (1.0 - 1.0 / mean).ln()
}

/// Geometric sample on `{1, 2, …}` with the given mean (>= 1): the
/// discrete memoryless session law, so a session "ends this round" with
/// constant probability `1 / mean`. `ln_q` is [`ln_continue`]`(mean)`.
fn geometric<R: Rng + ?Sized>(rng: &mut R, mean: f64, ln_q: f64) -> u64 {
    debug_assert!(mean >= 1.0);
    if mean <= 1.0 {
        return 1;
    }
    let u: f64 = rng.gen();
    // Inverse CDF of the geometric: ceil(ln(1-u)/ln(q)) with support >= 1.
    let d = ((1.0 - u).ln() / ln_q).ceil();
    if d.is_finite() && d >= 1.0 {
        d as u64
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn long_run_availability(sampler: &SessionSampler, seed: u64) -> f64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut online_rounds = 0u64;
        let mut total = 0u64;
        let mut online = sampler.initial_online(&mut rng);
        // Simulate ~200k rounds of alternating sessions.
        while total < 200_000 {
            let d = if online {
                sampler.online_duration(&mut rng)
            } else {
                sampler.offline_duration(&mut rng)
            };
            if online {
                online_rounds += d;
            }
            total += d;
            online = !online;
        }
        online_rounds as f64 / total as f64
    }

    #[test]
    fn long_run_availability_matches_target() {
        for (a, tol) in [(0.95, 0.01), (0.87, 0.01), (0.75, 0.01), (0.33, 0.01)] {
            let s = SessionSampler::new(a, 24.0);
            let got = long_run_availability(&s, 42);
            assert!(
                (got - s.realized_availability()).abs() < tol,
                "a={a}: got {got}, realized target {}",
                s.realized_availability()
            );
            // The 24h cycle keeps the rounding distortion small for the
            // paper's profiles.
            assert!(
                (s.realized_availability() - a).abs() < 0.02,
                "a={a}: realized {}",
                s.realized_availability()
            );
        }
    }

    /// The per-draw form the sampler replaced: `ln(q)` recomputed from
    /// the mean on every draw.
    fn geometric_reference<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> u64 {
        if mean <= 1.0 {
            return 1;
        }
        let q = 1.0 - 1.0 / mean;
        let u: f64 = rng.gen();
        let d = ((1.0 - u).ln() / q.ln()).ceil();
        if d.is_finite() && d >= 1.0 {
            d as u64
        } else {
            1
        }
    }

    #[test]
    fn cached_log_draws_are_the_per_draw_formulas() {
        for mean in [1.0, 1.5, 18.0, 240.0, 1e6] {
            let ln_q = ln_continue(mean);
            if mean <= 1.0 {
                // The early return never reads the cached `ln(0)`.
                assert_eq!(ln_q, f64::NEG_INFINITY);
            }
            let mut fast = SmallRng::seed_from_u64(mean.to_bits());
            let mut slow = fast.clone();
            for i in 0..100_000 {
                assert_eq!(
                    geometric(&mut fast, mean, ln_q),
                    geometric_reference(&mut slow, mean),
                    "mean {mean}, draw {i}"
                );
            }
            // Both consumed the same draws.
            assert_eq!(fast.gen::<u64>(), slow.gen::<u64>(), "mean {mean}");
        }
        // Through the sampler: an availability whose offline mean floors
        // at one round, and one whose means are both above it.
        for (a, cycle) in [(0.99, 24.0), (0.25, 24.0)] {
            let s = SessionSampler::new(a, cycle);
            let mut fast = SmallRng::seed_from_u64(3);
            let mut slow = fast.clone();
            for _ in 0..100_000 {
                assert_eq!(
                    s.online_duration(&mut fast),
                    geometric_reference(&mut slow, s.mean_on)
                );
                assert_eq!(
                    s.offline_duration(&mut fast),
                    geometric_reference(&mut slow, s.mean_off)
                );
            }
        }
    }

    #[test]
    fn geometric_mean_is_correct() {
        let mut rng = SmallRng::seed_from_u64(7);
        for mean in [1.5, 4.0, 16.0, 100.0] {
            let n = 100_000;
            let ln_q = ln_continue(mean);
            let total: u64 = (0..n).map(|_| geometric(&mut rng, mean, ln_q)).sum();
            let got = total as f64 / n as f64;
            assert!((got - mean).abs() / mean < 0.02, "mean {mean}: got {got}");
        }
    }

    #[test]
    fn durations_are_at_least_one_round() {
        let s = SessionSampler::new(0.5, 2.0);
        let mut rng = SmallRng::seed_from_u64(0);
        for _ in 0..10_000 {
            assert!(s.online_duration(&mut rng) >= 1);
            assert!(s.offline_duration(&mut rng) >= 1);
        }
    }

    #[test]
    fn extreme_availabilities() {
        let on = SessionSampler::new(1.0, 24.0);
        assert!(on.always_online());
        assert_eq!(on.realized_availability(), 1.0);
        let off = SessionSampler::new(0.0, 24.0);
        assert!(off.always_offline());
        assert_eq!(off.realized_availability(), 0.0);

        let mut rng = SmallRng::seed_from_u64(3);
        assert!((0..100).all(|_| on.initial_online(&mut rng)));
        assert!((0..100).all(|_| !off.initial_online(&mut rng)));
    }

    #[test]
    fn initial_state_is_stationary() {
        let s = SessionSampler::new(0.33, 24.0);
        let mut rng = SmallRng::seed_from_u64(11);
        let n = 100_000;
        let online = (0..n).filter(|_| s.initial_online(&mut rng)).count();
        let frac = online as f64 / n as f64;
        assert!((frac - 0.33).abs() < 0.01, "initial online fraction {frac}");
    }

    #[test]
    #[should_panic(expected = "cycle must be positive")]
    fn zero_cycle_panics() {
        let _ = SessionSampler::new(0.5, 0.0);
    }
}
