//! Order statistics and the seeded call order.

/// Median of `xs` (mean of the middle pair for even lengths); NaN when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile, computed as Python's
/// `statistics.quantiles(xs, n=4)` does (the default "exclusive"
/// method), so spreads read the same here and in a Python check. One
/// value is its own three quartiles; empty input gives NaNs.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let s = sorted(xs);
    let n = s.len();
    if n < 2 {
        let v = s.first().copied().unwrap_or(f64::NAN);
        return [v; 3];
    }
    let m = n as i64 + 1;
    std::array::from_fn(|k| {
        let i = k as i64 + 1;
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    })
}

/// Interquartile range as a share of the median: the run-to-run spread
/// the bounds are judged against.
pub fn spread(xs: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(xs);
    (q3 - q1) / q2.abs()
}

/// The nearest-rank `p`-quantile (`0 < p < 1`) of `xs`, or `None` when
/// fewer than ten samples lie beyond it: a p90 needs 100 samples.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let n = xs.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    if n.saturating_sub(rank) < 10 {
        return None;
    }
    Some(sorted(xs)[rank - 1])
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// SplitMix64: a tiny, well-mixed generator, so one `--seed` gives the
/// same call orders on every machine.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is far below
    /// anything a call order could show.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A Fisher–Yates shuffle of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }

    /// `k` distinct indices in `0..n`, in draw order.
    pub fn choose(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut p = self.permutation(n);
        p.truncate(k);
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
        assert!((spread(&xs) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.9), None);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.9), Some(90.0));
        assert_eq!(percentile(&xs, 0.5), Some(50.0));
        let xs: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.9), Some(900.0));
    }

    #[test]
    fn permutation_is_a_deterministic_permutation() {
        for seed in [0, 1, 42, u64::MAX] {
            let a = Rng::new(seed).permutation(88);
            assert_eq!(a, Rng::new(seed).permutation(88), "seed {seed}");
            let mut s = a.clone();
            s.sort_unstable();
            assert_eq!(s, (0..88).collect::<Vec<_>>(), "seed {seed}");
        }
        assert_ne!(Rng::new(1).permutation(88), Rng::new(2).permutation(88));
        let c = Rng::new(7).choose(88, 4);
        assert_eq!(c.len(), 4);
        assert!(c.iter().all(|&i| i < 88));
        assert!(c.iter().enumerate().all(|(i, x)| !c[..i].contains(x)));
    }
}
