//! Property-based tests of the churn substrate: distribution laws,
//! profile sampling and session processes.

use peerback_churn::{
    paper_profiles, Exponential, LifetimeDist, Pareto, SessionSampler, UniformRange,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn check_cdf_monotone<D: LifetimeDist>(d: &D, xs: &[f64]) -> Result<(), TestCaseError> {
    let mut last = -1.0f64;
    for &x in xs {
        let c = d.cdf(x);
        prop_assert!((0.0..=1.0).contains(&c), "cdf({x}) = {c} out of range");
        prop_assert!(c >= last - 1e-12, "cdf not monotone at {x}");
        last = c;
    }
    Ok(())
}

fn grid(max: f64) -> Vec<f64> {
    (0..50).map(|i| i as f64 / 49.0 * max).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pareto_cdf_monotone_and_sampling_in_support(
        x_min in 1.0f64..1000.0,
        alpha in 0.2f64..5.0,
        seed in any::<u64>(),
    ) {
        let d = Pareto::new(x_min, alpha);
        check_cdf_monotone(&d, &grid(x_min * 20.0))?;
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..100 {
            let s = d.sample(&mut rng);
            prop_assert!(s >= x_min, "sample {s} below x_min {x_min}");
        }
    }

    #[test]
    fn quantile_inverts_cdf_for_all_laws(
        p in 0.01f64..0.99,
        scale in 1.0f64..500.0,
        shape in 0.3f64..4.0,
    ) {
        // For every continuous law: cdf(quantile(p)) == p.
        type QuantileProbe = Box<dyn Fn(f64) -> (f64, f64)>;
        let laws: Vec<QuantileProbe> = vec![
            Box::new({ let d = Pareto::new(scale, shape); move |p| (d.quantile(p), d.cdf(d.quantile(p))) }),
            Box::new({ let d = Exponential::new(scale); move |p| (d.quantile(p), d.cdf(d.quantile(p))) }),
            Box::new({ let d = UniformRange::new(scale, scale * 3.0); move |p| (d.quantile(p), d.cdf(d.quantile(p))) }),
        ];
        for law in &laws {
            let (q, back) = law(p);
            prop_assert!(q.is_finite());
            prop_assert!((back - p).abs() < 1e-6, "cdf(quantile({p})) = {back}");
        }
    }

    #[test]
    fn profile_mix_ids_are_valid_and_lifetimes_positive(seed in any::<u64>()) {
        let mix = paper_profiles();
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..200 {
            let id = mix.sample(&mut rng);
            prop_assert!(id < mix.len());
            if let Some(l) = mix.profile(id).lifetime.sample(&mut rng) {
                prop_assert!(l >= 1, "lifetime must be at least one round");
            }
        }
    }

    #[test]
    fn session_sampler_durations_positive_and_availability_sane(
        availability in 0.01f64..0.99,
        cycle in 2.0f64..200.0,
        seed in any::<u64>(),
    ) {
        let s = SessionSampler::new(availability, cycle);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut online = 0u64;
        let mut total = 0u64;
        let mut state = s.initial_online(&mut rng);
        while total < 50_000 {
            let d = if state {
                s.online_duration(&mut rng)
            } else {
                s.offline_duration(&mut rng)
            };
            prop_assert!(d >= 1);
            if state {
                online += d;
            }
            total += d;
            state = !state;
        }
        let measured = online as f64 / total as f64;
        let target = s.realized_availability();
        prop_assert!(
            (measured - target).abs() < 0.06,
            "measured {measured:.3} vs realized target {target:.3}"
        );
    }
}
