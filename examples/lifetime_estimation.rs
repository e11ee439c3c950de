//! Why *age* predicts *remaining lifetime* — the statistical heart of
//! the paper, demonstrated directly on the churn substrate.
//!
//! 1. Samples Pareto lifetimes and shows mean residual life growing
//!    with age (the "fidelity" property measured by Bustamante & Qiao).
//! 2. Prints acceptance probabilities between peers of different ages.
//!
//! ```text
//! cargo run --release --example lifetime_estimation
//! ```

use peerback::analysis::TableBuilder;
use peerback::churn::{LifetimeDist, Pareto};
use peerback::core::{acceptance_probability, PAPER_CLAMP_ROUNDS};
use peerback::sim::sim_rng;

fn main() {
    // 1. Fidelity, empirically: among peers that survived to age t, how
    //    long do they keep living? (Pareto: linearly longer in t.)
    let law = Pareto::new(24.0, 1.6); // scale: one day, heavy tail
    let mut rng = sim_rng(9);
    let samples: Vec<f64> = (0..400_000).map(|_| law.sample(&mut rng)).collect();

    println!("fidelity: E[remaining lifetime | age] under Pareto(x_min=1 day, alpha=1.6)\n");
    let mut table = TableBuilder::new().header([
        "age reached",
        "survivors",
        "measured mean remaining (days)",
        "closed form t/(alpha-1) (days)",
    ]);
    for age_days in [1.0f64, 7.0, 30.0, 90.0, 365.0] {
        let age = age_days * 24.0;
        let survivors: Vec<f64> = samples.iter().copied().filter(|&x| x > age).collect();
        let measured =
            survivors.iter().map(|x| x - age).sum::<f64>() / survivors.len() as f64 / 24.0;
        let closed = law.mean_residual_life(age).unwrap() / 24.0;
        table.row([
            format!("{age_days:.0} d"),
            survivors.len().to_string(),
            format!("{measured:.1}"),
            format!("{closed:.1}"),
        ]);
    }
    println!("{}", table.render());
    println!("older peers really are better bets — the basis for age-based selection.\n");

    // 2. The acceptance function in action.
    println!("acceptance probability f(evaluator, candidate), L = 90 days:\n");
    let ages = [(1u64, "1 h"), (24, "1 d"), (720, "1 mo"), (2160, "90 d")];
    let mut table = TableBuilder::new().header(
        std::iter::once("evaluator \\ candidate".to_string())
            .chain(ages.iter().map(|&(_, n)| n.to_string())),
    );
    for &(own, own_name) in &ages {
        let mut row = vec![own_name.to_string()];
        for &(cand, _) in &ages {
            row.push(format!(
                "{:.3}",
                acceptance_probability(own, cand, PAPER_CLAMP_ROUNDS)
            ));
        }
        table.row(row);
    }
    println!("{}", table.render());
    println!(
        "note the asymmetry: everyone accepts older peers (column right = 1.0),\n\
         but old evaluators rarely accept the very young — newcomers must earn\n\
         their way up. The 1/L floor keeps the system joinable."
    );
}
