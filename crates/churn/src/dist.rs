//! Lifetime distributions with inverse-CDF sampling.
//!
//! All distributions measure time in **rounds** (1 round = 1 hour in the
//! paper's simulations) but are plain positive-real distributions, so
//! nothing prevents other units. `statrs` is not in the approved offline
//! dependency set, so the needed distributions are implemented here
//! directly; each is tested against closed-form moments and quantiles.

use rand::Rng;

/// A distribution over positive lifetimes.
///
/// Implementors provide the CDF and its inverse (quantile); sampling is
/// derived via inverse-transform from a uniform variate, which keeps every
/// distribution reproducible from a seeded [`rand::Rng`].
pub trait LifetimeDist {
    /// Cumulative distribution function `P(X <= x)`.
    fn cdf(&self, x: f64) -> f64;

    /// Quantile function (inverse CDF) for `p` in `[0, 1)`.
    fn quantile(&self, p: f64) -> f64;

    /// Mean of the distribution; `None` when it diverges (e.g. Pareto with
    /// shape `alpha <= 1`).
    fn mean(&self) -> Option<f64>;

    /// Draws one sample by inverse transform.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // `gen` yields [0, 1); quantile is defined on [0, 1).
        self.quantile(rng.gen::<f64>())
    }
}

fn assert_probability(p: f64) {
    assert!((0.0..1.0).contains(&p), "p must be in [0, 1), got {p}");
}

/// Pareto (type I) distribution: `P(X > x) = (x_min / x)^alpha` for
/// `x >= x_min`.
///
/// This is the lifetime law measured for peer-to-peer systems in the
/// studies the paper builds on. Its defining property for partner
/// selection is *decreasing hazard*: conditional expected remaining
/// lifetime `E[X - t | X > t] = t / (alpha - 1)` **grows linearly with
/// age** (for `alpha > 1`), so older peers really are better bets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pareto {
    x_min: f64,
    alpha: f64,
}

impl Pareto {
    /// Creates a Pareto distribution.
    ///
    /// # Panics
    ///
    /// Panics unless `x_min > 0` and `alpha > 0`.
    pub fn new(x_min: f64, alpha: f64) -> Self {
        assert!(x_min > 0.0, "x_min must be positive");
        assert!(alpha > 0.0, "alpha must be positive");
        Pareto { x_min, alpha }
    }

    /// Scale parameter (minimum value).
    pub fn x_min(&self) -> f64 {
        self.x_min
    }

    /// Shape parameter.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// `E[X - t | X > t]`: expected remaining lifetime at age `t`.
    ///
    /// Returns `None` when `alpha <= 1` (infinite mean) — the estimator
    /// then falls back to ranking by raw age, which is order-equivalent.
    pub fn mean_residual_life(&self, t: f64) -> Option<f64> {
        if self.alpha <= 1.0 {
            return None;
        }
        let t = t.max(self.x_min);
        Some(t / (self.alpha - 1.0))
    }
}

impl LifetimeDist for Pareto {
    fn cdf(&self, x: f64) -> f64 {
        if x < self.x_min {
            0.0
        } else {
            1.0 - (self.x_min / x).powf(self.alpha)
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        assert_probability(p);
        self.x_min / (1.0 - p).powf(1.0 / self.alpha)
    }

    fn mean(&self) -> Option<f64> {
        (self.alpha > 1.0).then(|| self.alpha * self.x_min / (self.alpha - 1.0))
    }
}

/// Exponential distribution (memoryless — the *anti*-Pareto control: age
/// carries no information about remaining lifetime).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    mean: f64,
}

impl Exponential {
    /// Creates an exponential with the given mean.
    ///
    /// # Panics
    ///
    /// Panics unless `mean > 0`.
    pub fn new(mean: f64) -> Self {
        assert!(mean > 0.0, "mean must be positive");
        Exponential { mean }
    }

    /// Rate parameter `lambda = 1 / mean`.
    pub fn rate(&self) -> f64 {
        1.0 / self.mean
    }
}

impl LifetimeDist for Exponential {
    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            1.0 - (-x / self.mean).exp()
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        assert_probability(p);
        -self.mean * (1.0 - p).ln()
    }

    fn mean(&self) -> Option<f64> {
        Some(self.mean)
    }
}

/// Uniform distribution on `[low, high)` — how the paper's profile table
/// expresses life expectancy ranges ("1.5 – 3.5 years").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UniformRange {
    low: f64,
    high: f64,
}

impl UniformRange {
    /// Creates a uniform distribution on `[low, high)`.
    ///
    /// # Panics
    ///
    /// Panics unless `low < high` and `low >= 0`.
    pub fn new(low: f64, high: f64) -> Self {
        assert!(low >= 0.0, "low must be non-negative");
        assert!(high > low, "high must exceed low");
        UniformRange { low, high }
    }
}

impl LifetimeDist for UniformRange {
    fn cdf(&self, x: f64) -> f64 {
        ((x - self.low) / (self.high - self.low)).clamp(0.0, 1.0)
    }

    fn quantile(&self, p: f64) -> f64 {
        assert_probability(p);
        self.low + p * (self.high - self.low)
    }

    fn mean(&self) -> Option<f64> {
        Some((self.low + self.high) / 2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    const SAMPLES: usize = 200_000;

    fn empirical_mean<D: LifetimeDist>(d: &D, seed: u64) -> f64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..SAMPLES).map(|_| d.sample(&mut rng)).sum::<f64>() / SAMPLES as f64
    }

    fn check_quantile_inverts_cdf<D: LifetimeDist>(d: &D) {
        for i in 0..99 {
            let p = i as f64 / 100.0 + 0.005;
            let x = d.quantile(p);
            let back = d.cdf(x);
            assert!(
                (back - p).abs() < 1e-6,
                "cdf(quantile({p})) = {back}, wanted {p}"
            );
        }
    }

    #[test]
    fn pareto_quantile_inverts_cdf() {
        check_quantile_inverts_cdf(&Pareto::new(720.0, 1.5));
    }

    #[test]
    fn pareto_mean_closed_form_and_empirical_agree() {
        let d = Pareto::new(100.0, 2.5);
        let expect = 2.5 * 100.0 / 1.5;
        assert!((d.mean().unwrap() - expect).abs() < 1e-9);
        let emp = empirical_mean(&d, 42);
        assert!(
            (emp - expect).abs() / expect < 0.03,
            "empirical {emp} vs {expect}"
        );
    }

    #[test]
    fn pareto_heavy_tail_has_no_mean() {
        assert_eq!(Pareto::new(10.0, 0.9).mean(), None);
        assert_eq!(Pareto::new(10.0, 1.0).mean(), None);
    }

    #[test]
    fn pareto_mean_residual_life_grows_with_age() {
        let d = Pareto::new(24.0, 2.0);
        let young = d.mean_residual_life(24.0).unwrap();
        let old = d.mean_residual_life(2400.0).unwrap();
        assert!(old > young * 50.0, "fidelity property violated");
        assert_eq!(d.mean_residual_life(2400.0), Some(2400.0));
        assert_eq!(Pareto::new(24.0, 1.0).mean_residual_life(100.0), None);
        // Ages below x_min clamp to x_min.
        assert_eq!(d.mean_residual_life(1.0), Some(24.0));
    }

    #[test]
    fn exponential_mean_and_memorylessness() {
        let d = Exponential::new(500.0);
        check_quantile_inverts_cdf(&d);
        assert_eq!(d.mean(), Some(500.0));
        assert!((d.rate() - 0.002).abs() < 1e-12);
        let emp = empirical_mean(&d, 3);
        assert!((emp - 500.0).abs() / 500.0 < 0.03);
        // Memorylessness: P(X > s + t | X > s) == P(X > t).
        let s = 300.0;
        let t = 200.0;
        let cond = (1.0 - d.cdf(s + t)) / (1.0 - d.cdf(s));
        assert!((cond - (1.0 - d.cdf(t))).abs() < 1e-12);
    }

    #[test]
    fn uniform_range_basics() {
        let d = UniformRange::new(720.0, 2160.0);
        check_quantile_inverts_cdf(&d);
        assert_eq!(d.mean(), Some(1440.0));
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x = d.sample(&mut rng);
            assert!((720.0..2160.0).contains(&x));
        }
    }

    #[test]
    #[should_panic(expected = "x_min must be positive")]
    fn pareto_rejects_bad_scale() {
        let _ = Pareto::new(0.0, 2.0);
    }

    #[test]
    #[should_panic(expected = "p must be in [0, 1)")]
    fn quantile_rejects_bad_probability() {
        let _ = Exponential::new(1.0).quantile(1.0);
    }
}
