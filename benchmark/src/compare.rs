//! `compare A.json B.json`: two result sets written by `run --out`,
//! judged metric by metric against the benchmark's own bounds.

use std::path::Path;

use crate::json::Value;
use crate::spec::{end_to_end, Better};
use crate::stats::{median, quartiles, spread, Summary};

/// What a comparison of one metric on one workload concludes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B improved on A by more than A's own spread.
    Better,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// Neither of the above, and the runs are steady enough to say so.
    Unchanged,
    /// The run-to-run spread is wider than the bound and the two sides
    /// overlap: nothing can be said.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges side B against side A. All comparisons are in the metric's
/// own unit; the tolerance is `max(bound × A's median, floor)`.
///
/// * A spread (interquartile distance, of either side) wider than the
///   tolerance makes the metric **unresolved** — unless every run of
///   one side beats every run of the other.
/// * Otherwise B is **worse** when its median is worse than A's by more
///   than the tolerance, **better** when it improves by more than A's
///   own spread (and the floor) and wins at least nine tenths of the
///   index-paired runs (ties counting for neither), and **unchanged**
///   in between.
/// * A bound of 0 marks an exact metric: any worsening is worse.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64, floor: f64) -> Verdict {
    let beats = |x: f64, y: f64| match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let (ma, mb) = (median(a), median(b));
    if bound == 0.0 {
        return match (beats(mb, ma), beats(ma, mb)) {
            (true, _) => Verdict::Better,
            (_, true) => Verdict::Worse,
            _ => Verdict::Unchanged,
        };
    }
    let tolerance = (bound * ma.abs()).max(floor);
    let iqr = |v: &[f64]| {
        let (q1, q3) = quartiles(v);
        q3 - q1
    };
    // Change of the median in the good direction.
    let gain = match better {
        Better::Lower => ma - mb,
        Better::Higher => mb - ma,
    };
    let every = |xs: &[f64], ys: &[f64]| xs.iter().all(|&x| ys.iter().all(|&y| beats(x, y)));
    if iqr(a).max(iqr(b)) > tolerance {
        return if every(b, a) {
            Verdict::Better
        } else if every(a, b) {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    if gain < -tolerance {
        return Verdict::Worse;
    }
    let (wins, losses) = a.iter().zip(b).fold((0, 0), |(w, l), (&x, &y)| {
        (w + usize::from(beats(y, x)), l + usize::from(beats(x, y)))
    });
    if gain > iqr(a).max(floor) && wins > 0 && wins * 10 >= (wins + losses) * 9 {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Value::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn values_of(metric: &Value) -> Vec<f64> {
    metric
        .list("values")
        .iter()
        .filter_map(Value::num)
        .collect()
}

/// Prints the comparison; `Ok(true)` when no pair is worse or
/// unresolved.
pub fn compare(path_a: &Path, path_b: &Path) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    for (label, doc) in [("A", &a), ("B", &b)] {
        println!(
            "# {label}: {}",
            doc.get("header").map_or_else(String::new, Value::render)
        );
    }
    let mut agree = true;
    for wa in a.list("workloads") {
        let name = wa.text("name");
        let Some(wb) = b.list("workloads").iter().find(|w| w.text("name") == name) else {
            println!("\n== {name}: only in A");
            continue;
        };
        let (da, db) = (wa.text("sim_digest"), wb.text("sim_digest"));
        println!(
            "\n== {name}: sim_digest {}",
            if da == db {
                "identical".to_string()
            } else {
                format!("differs ({da} vs {db})")
            }
        );
        println!(
            "  {:<28} {:<7} {:>14} {:>14} {:>8} {:>8} {:>8}  verdict",
            "metric", "unit", "median A", "median B", "change", "spread", "bound"
        );
        for ma in wa.list("metrics") {
            let metric = ma.text("name");
            let (Some(spec), Some(mb)) = (
                end_to_end(metric),
                wb.list("metrics").iter().find(|m| m.text("name") == metric),
            ) else {
                continue;
            };
            let (va, vb) = (values_of(ma), values_of(mb));
            let (sa, sb) = (Summary::of(&va), Summary::of(&vb));
            let v = verdict(&va, &vb, spec.better, spec.bound, spec.floor());
            agree &= matches!(v, Verdict::Better | Verdict::Unchanged);
            let change = if sa.median == 0.0 {
                0.0
            } else {
                (sb.median - sa.median) / sa.median.abs() * 100.0
            };
            println!(
                "  {metric:<28} {:<7} {:>14.6} {:>14.6} {change:>+7.2}% {:>7.2}% {:>7.2}%  {}{}",
                spec.unit,
                sa.median,
                sb.median,
                spread(&va).max(spread(&vb)) * 100.0,
                spec.bound * 100.0,
                v.name(),
                if va == vb { " (bit-identical)" } else { "" },
            );
            println!(
                "  {:<36} A [{:.6} .. {:.6}] n={}   B [{:.6} .. {:.6}] n={}",
                "", sa.q1, sa.q3, sa.n, sb.q1, sb.q3, sb.n
            );
        }
    }
    println!(
        "\n{}",
        if agree {
            "the two sets agree: no pair is worse or unresolved"
        } else {
            "the two sets DISAGREE: at least one pair is worse or unresolved"
        }
    );
    Ok(agree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use Better::{Higher, Lower};

    #[test]
    fn steady_runs_inside_the_bound_are_unchanged() {
        let a = [10.0, 10.1, 9.9, 10.05, 9.95];
        let b = [10.2, 10.3, 10.1, 10.25, 10.15];
        assert_eq!(verdict(&a, &b, Lower, 0.10, 0.0), Verdict::Unchanged);
        assert_eq!(verdict(&a, &a, Lower, 0.10, 0.0), Verdict::Unchanged);
    }

    #[test]
    fn a_median_past_the_bound_is_worse_in_the_metrics_direction() {
        let a = [10.0, 10.1, 9.9, 10.05, 9.95];
        let slow = [11.5, 11.6, 11.4, 11.55, 11.45];
        assert_eq!(verdict(&a, &slow, Lower, 0.10, 0.0), Verdict::Worse);
        // The same numbers as a throughput are an improvement.
        assert_eq!(verdict(&a, &slow, Higher, 0.10, 0.0), Verdict::Better);
        assert_eq!(verdict(&slow, &a, Higher, 0.10, 0.0), Verdict::Worse);
    }

    #[test]
    fn better_needs_to_clear_the_parents_spread_and_win_the_pairs() {
        let a = [10.0, 10.1, 9.9, 10.05, 9.95];
        let fast = [9.0, 9.1, 8.9, 9.05, 8.95];
        assert_eq!(verdict(&a, &fast, Lower, 0.10, 0.0), Verdict::Better);
        // An improvement smaller than A's own spread is not claimed.
        let noisy_a = [10.0, 10.4, 9.6, 10.2, 9.8];
        let slightly = [9.9, 10.3, 9.5, 10.1, 9.7];
        assert_eq!(
            verdict(&noisy_a, &slightly, Lower, 0.10, 0.0),
            Verdict::Unchanged
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_separated() {
        let a = [10.0, 13.0, 8.0, 12.0, 9.0];
        let b = [10.5, 13.5, 8.5, 12.5, 9.5];
        assert_eq!(verdict(&a, &b, Lower, 0.10, 0.0), Verdict::Unresolved);
        let far_better = [5.0, 6.5, 4.0, 6.0, 4.5];
        assert_eq!(verdict(&a, &far_better, Lower, 0.10, 0.0), Verdict::Better);
        assert_eq!(verdict(&far_better, &a, Lower, 0.10, 0.0), Verdict::Worse);
    }

    #[test]
    fn changes_under_the_floor_are_not_noticed() {
        // A set-up of a fifth of a millisecond, jittering by half of itself.
        let a = [0.00022, 0.00070, 0.00025, 0.00026, 0.00022];
        let b = [0.00024, 0.00026, 0.00025, 0.00024, 0.00026];
        assert_eq!(verdict(&a, &b, Lower, 0.25, 0.0), Verdict::Unresolved);
        assert_eq!(verdict(&a, &b, Lower, 0.25, 0.05), Verdict::Unchanged);
        assert_eq!(verdict(&b, &a, Lower, 0.25, 0.05), Verdict::Unchanged);
        // Half a second of work moved into set-up still shows.
        let moved = [0.50024, 0.50026, 0.50025, 0.50024, 0.50026];
        assert_eq!(verdict(&a, &moved, Lower, 0.25, 0.05), Verdict::Worse);
        assert_eq!(verdict(&moved, &a, Lower, 0.25, 0.05), Verdict::Better);
    }

    #[test]
    fn a_zero_bound_is_exact() {
        assert_eq!(
            verdict(&[0.0; 3], &[0.0; 3], Lower, 0.0, 0.0),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&[0.0; 3], &[0.0, 0.1, 0.1], Lower, 0.0, 0.0),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&[0.2; 3], &[0.0; 3], Lower, 0.0, 0.0),
            Verdict::Better
        );
    }
}
