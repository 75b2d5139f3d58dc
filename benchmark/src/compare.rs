//! `compare`: verdicts on two sets of runs, by each metric's bound and
//! the rules for claiming a gain on a small, noisy machine.

use std::fmt::Write as _;

use crate::metrics::{find, Better, Metric, Report, SETUP_FLOOR_S};
use crate::stats::{median, quartiles, spread};
use crate::workload::Workload;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The run-to-run spread is wider than the bound, so a change of
    /// the bound's size could not be seen.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge one bounded metric. `base[i]` and `new[i]` form pair `i`.
///
/// - Unresolved: either side's interquartile range exceeds the bound,
///   unless every new run reads better than every base run.
/// - Improved: the new side wins at least nine tenths of the pairs
///   (ties count for neither) and the medians differ, in its favour,
///   by more than the base's interquartile range.
/// - Regressed: the new median is worse by more than the bound.
pub fn classify(m: &Metric, base: &[f64], new: &[f64]) -> Verdict {
    let (bm, nm) = (median(base), median(new));
    let mut bound = m.bound.unwrap_or(0.0);
    if m.name == "setup_s" {
        bound = bound.max(SETUP_FLOOR_S / bm.abs());
    }
    let better = |a: f64, b: f64| match m.better {
        Better::Lower => a < b,
        Better::Higher => a > b,
    };
    let worsening = match m.better {
        Better::Lower => (nm - bm) / bm.abs(),
        Better::Higher => (bm - nm) / bm.abs(),
    };
    let all_better = new.iter().all(|&n| base.iter().all(|&b| better(n, b)));
    if spread(base).max(spread(new)) > bound && !all_better {
        return Verdict::Unresolved;
    }
    let pairs = base.len().min(new.len());
    let wins = (0..pairs).filter(|&i| better(new[i], base[i])).count();
    let [q1, _, q3] = quartiles(base);
    if pairs > 0 && wins * 10 >= pairs * 9 && better(nm, bm) && (nm - bm).abs() > q3 - q1 {
        Verdict::Improved
    } else if worsening > bound {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    }
}

fn fmt_side(xs: &[f64]) -> String {
    let [q1, q2, q3] = quartiles(xs);
    format!("{q2:.6} [{q1:.6}, {q3:.6}]")
}

/// The verdict table, and whether anything regressed.
pub fn compare(base: &[Report], new: &[Report]) -> (String, bool) {
    let mut out = String::new();
    let mut counts = [0usize; 4];
    let mut regressed = false;
    let mut workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    for r in base.iter().chain(new) {
        if !workloads.contains(&r.workload.as_str()) {
            workloads.push(&r.workload);
        }
    }
    let _ = writeln!(
        out,
        "{:<16} {:<26} {:>36} {:>36} {:>8}  verdict",
        "workload", "metric", "base median [q1, q3]", "new median [q1, q3]", "change"
    );
    for w in workloads {
        let b: Vec<&Report> = base.iter().filter(|r| r.workload == w).collect();
        let n: Vec<&Report> = new.iter().filter(|r| r.workload == w).collect();
        if b.is_empty() || n.is_empty() {
            continue;
        }
        let fails = |rs: &[&Report]| rs.iter().map(|r| r.failed).sum::<u64>();
        if fails(&n) > fails(&b) || n.iter().any(|r| !r.correct) {
            let _ = writeln!(
                out,
                "{w:<16} new runs failed checks ({} failed calls)",
                fails(&n)
            );
            regressed = true;
        }
        for (name, _) in &b[0].metrics {
            let Some(m) = find(name) else { continue };
            let values = |rs: &[&Report]| rs.iter().filter_map(|r| r.get(name)).collect::<Vec<_>>();
            let (bv, nv) = (values(&b), values(&n));
            if nv.is_empty() {
                continue;
            }
            let change = (median(&nv) - median(&bv)) / median(&bv).abs() * 1e2;
            let verdict = match m.bound {
                Some(_) => {
                    let v = classify(m, &bv, &nv);
                    counts[v as usize] += 1;
                    regressed |= v == Verdict::Regressed;
                    v.name()
                }
                None => "-",
            };
            let _ = writeln!(
                out,
                "{w:<16} {name:<26} {:>36} {:>36} {change:>+7.2}%  {verdict}",
                fmt_side(&bv),
                fmt_side(&nv)
            );
        }
    }
    let _ = writeln!(
        out,
        "{} improved, {} unchanged, {} regressed, {} unresolved",
        counts[0], counts[1], counts[2], counts[3]
    );
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `wall_s` under a hand-picked bound, so the cases below do not
    /// depend on the table's bounds.
    fn wall() -> Metric {
        Metric {
            bound: Some(0.08),
            ..*find("wall_s").unwrap()
        }
    }

    #[test]
    fn steady_equal_runs_are_unchanged() {
        let base = [5.0, 5.05, 4.98, 5.02, 5.01, 4.99, 5.03, 5.0, 5.04, 4.97];
        let new = [5.01, 4.99, 5.02, 5.0, 5.03, 4.98, 5.0, 5.02, 4.99, 5.01];
        assert_eq!(classify(&wall(), &base, &new), Verdict::Unchanged);
    }

    #[test]
    fn consistent_large_gain_is_improved() {
        let base = [5.0, 5.05, 4.98, 5.02, 5.01, 4.99, 5.03, 5.0, 5.04, 4.97];
        let new: Vec<f64> = base.iter().map(|x| x * 0.9).collect();
        assert_eq!(classify(&wall(), &base, &new), Verdict::Improved);
        // A higher-is-better metric moving up is a gain too.
        let rate = find("sim.minsts_per_s").unwrap();
        let rate = Metric {
            bound: Some(0.1),
            ..*rate
        };
        let up: Vec<f64> = base.iter().map(|x| x * 1.1).collect();
        assert_eq!(classify(&rate, &base, &up), Verdict::Improved);
    }

    #[test]
    fn gain_needs_nine_tenths_of_the_pairs() {
        let base = [5.0; 10];
        let mut new = [4.5; 10];
        new[0] = 5.5;
        new[1] = 5.5;
        // Eight wins of ten: the median moved, but not consistently.
        assert_eq!(classify(&wall(), &base, &new), Verdict::Unchanged);
    }

    #[test]
    fn worsening_beyond_the_bound_is_regressed() {
        let base = [5.0, 5.05, 4.98, 5.02, 5.01, 4.99, 5.03, 5.0, 5.04, 4.97];
        let new: Vec<f64> = base.iter().map(|x| x * 1.12).collect();
        assert_eq!(classify(&wall(), &base, &new), Verdict::Regressed);
        let slight: Vec<f64> = base.iter().map(|x| x * 1.05).collect();
        assert_eq!(classify(&wall(), &base, &slight), Verdict::Unchanged);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_is_better() {
        let base = [4.0, 6.0, 4.0, 6.0, 4.0, 6.0, 4.0, 6.0, 4.0, 6.0];
        let new = [5.0; 10];
        assert_eq!(classify(&wall(), &base, &new), Verdict::Unresolved);
        let faster = [2.0, 2.9, 2.0, 2.9, 2.0, 2.9, 2.0, 2.9, 2.0, 2.9];
        assert_eq!(classify(&wall(), &base, &faster), Verdict::Improved);
        // Better everywhere, but by less than the base's own spread.
        let slightly = [3.0, 3.9, 3.0, 3.9, 3.0, 3.9, 3.0, 3.9, 3.0, 3.9];
        assert_eq!(classify(&wall(), &base, &slightly), Verdict::Unchanged);
    }

    #[test]
    fn setup_moves_below_fifty_ms_are_not_regressions() {
        let setup = find("setup_s").unwrap();
        let base = [0.003; 10];
        let new = [0.006; 10];
        assert_eq!(classify(setup, &base, &new), Verdict::Unchanged);
    }

    #[test]
    fn table_flags_a_regression() {
        let run = |w: f64| {
            let mut r = Report::new("suite-cold", 1);
            r.attempted = 264;
            r.set("wall_s", w);
            r
        };
        let base: Vec<Report> = (0..10).map(|i| run(5.0 + i as f64 * 0.001)).collect();
        let new: Vec<Report> = (0..10).map(|i| run(7.0 + i as f64 * 0.001)).collect();
        let (text, regressed) = compare(&base, &new);
        assert!(regressed, "{text}");
        assert!(text.contains("regressed"));
        let (text, regressed) = compare(&base, &base);
        assert!(!regressed, "{text}");
        assert!(text.contains("0 improved, 1 unchanged, 0 regressed, 0 unresolved"));
    }
}
