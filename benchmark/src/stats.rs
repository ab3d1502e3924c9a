//! Order statistics and the pairwise comparison rule.
//!
//! Everything here is pure, so the rules the report and `compare` follow
//! are unit-tested directly: the nearest-rank percentile, the tail
//! percentile a sample count can support, Python's exclusive quartiles
//! (the spread the acceptance rule is stated in), and the verdict for one
//! (metric, workload) pairing.

/// Whether a metric improves downwards (latency) or upwards (throughput).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }

    /// How much worse `change` is than `base` (positive = worse).
    pub fn worsening(self, base: f64, change: f64) -> f64 {
        match self {
            Better::Lower => change - base,
            Better::Higher => base - change,
        }
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle pair for an even count); NaN when empty.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p`% of the
/// samples at or below it; NaN when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return f64::NAN;
    }
    v[nearest_rank(v.len(), p) - 1]
}

fn nearest_rank(n: usize, p: f64) -> usize {
    // The epsilon keeps binary fractions such as 0.999 * 10000 from
    // rounding up a whole rank.
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The percentiles a report may quote as a tail, highest first.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];

/// The highest percentile of [`TAIL_LADDER`] that has at least ten of `n`
/// samples beyond it, or `None` when not even the median has.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n >= 1 && n - nearest_rank(n, p) >= 10)
}

/// Quartiles `[q1, q2, q3]` exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default exclusive method) gives
/// them; NaN when empty.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let v = sorted(xs);
    let ld = v.len();
    match ld {
        0 => [f64::NAN; 3],
        1 => [v[0]; 3],
        _ => {
            let m = ld as i64 + 1;
            let mut q = [0.0; 3];
            for (i, slot) in (1..4i64).zip(q.iter_mut()) {
                let j = (i * m / 4).clamp(1, ld as i64 - 1);
                // Negative or above 4 at the clamped ends, as in Python.
                let delta = (i * m - j * 4) as f64;
                let j = j as usize;
                *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
            }
            q
        }
    }
}

/// Interquartile distance as a share of the median.
pub fn relative_spread(xs: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(xs);
    (q3 - q1) / q2.abs()
}

/// Whether `change` is worse than `base` by more than `bound`, a share of
/// `base`. A bound of 0 marks a deterministic metric: any difference at all
/// is a regression.
pub fn regressed(base: f64, change: f64, better: Better, bound: f64) -> bool {
    if bound == 0.0 {
        return base != change;
    }
    better.worsening(base, change) > bound * base.abs()
}

/// One side of a comparison: median and quartiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Side {
    pub fn of(xs: &[f64]) -> Side {
        let [q1, _, q3] = quartiles(xs);
        Side {
            median: median(xs),
            q1,
            q3,
        }
    }
}

/// The outcome of comparing a change with its parent on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Fewer than ten pairs: no claim either way.
    TooFewPairs,
    /// Wins at least nine tenths of the pairs and the medians differ by
    /// more than the parent's interquartile distance.
    Gain,
    /// The change's median is worse than the parent's by more than the bound.
    Regression,
    /// The parent's own spread exceeds the bound, so "unchanged" cannot be
    /// claimed (unless every change run beats every parent run).
    Unresolved,
    NoChange,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::TooFewPairs => "too-few-pairs",
            Verdict::Gain => "gain",
            Verdict::Regression => "regression",
            Verdict::Unresolved => "unresolved",
            Verdict::NoChange => "no-change",
        }
    }
}

/// Minimum number of (parent, change) pairs before any verdict.
pub const MIN_PAIRS: usize = 10;

/// Pairs `base[i]` with `change[i]` (the caller alternates which side ran
/// first) and applies the comparison rule for a metric with the given
/// direction and regression bound.
pub fn verdict(base: &[f64], change: &[f64], better: Better, bound: f64) -> (Verdict, usize) {
    let n = base.len().min(change.len());
    let wins = base
        .iter()
        .zip(change)
        .filter(|(b, c)| better.worsening(**b, **c) < 0.0)
        .count();
    if n < MIN_PAIRS {
        return (Verdict::TooFewPairs, wins);
    }
    let (b, c) = (Side::of(base), Side::of(change));
    let improvement = -better.worsening(b.median, c.median);
    if wins * 10 >= n * 9 && improvement > b.q3 - b.q1 {
        return (Verdict::Gain, wins);
    }
    if regressed(b.median, c.median, better, bound) {
        return (Verdict::Regression, wins);
    }
    let every_change_better = change
        .iter()
        .all(|&cv| base.iter().all(|&bv| better.worsening(bv, cv) < 0.0));
    if bound > 0.0 && relative_spread(base) > bound && !every_change_better {
        return (Verdict::Unresolved, wins);
    }
    (Verdict::NoChange, wins)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_nearest_rank_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 100.0);
        assert_eq!(percentile(&xs, 95.0), 190.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn tail_percentile_is_highest_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(200), Some(95.0), "190th of 200 leaves 10");
        assert_eq!(tail_percentile(199), Some(90.0), "p95 would leave 9");
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), [1.0, 3.0, 5.0]);
        assert!((relative_spread(&xs) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn relative_and_exact_bounds() {
        // 10% bound, lower is better: 109 passes, 111 regresses.
        assert!(!regressed(100.0, 109.0, Better::Lower, 0.10));
        assert!(regressed(100.0, 111.0, Better::Lower, 0.10));
        assert!(!regressed(100.0, 50.0, Better::Lower, 0.10), "improvement");
        // Higher is better: a 6% drop breaks a 5% bound.
        assert!(regressed(100.0, 94.0, Better::Higher, 0.05));
        assert!(!regressed(100.0, 96.0, Better::Higher, 0.05));
        // Bound 0 is exact, in either direction.
        assert!(!regressed(1.25, 1.25, Better::Lower, 0.0));
        assert!(regressed(1.25, 1.2500001, Better::Lower, 0.0));
        assert!(regressed(1.25, 1.0, Better::Lower, 0.0));
    }

    #[test]
    fn verdict_rules() {
        let base: Vec<f64> = (0..10).map(|i| 100.0 + i as f64 * 0.1).collect();
        let faster: Vec<f64> = base.iter().map(|x| x * 0.8).collect();
        let slower: Vec<f64> = base.iter().map(|x| x * 1.2).collect();
        assert_eq!(verdict(&base, &faster, Better::Lower, 0.1).0, Verdict::Gain);
        assert_eq!(
            verdict(&base, &slower, Better::Lower, 0.1).0,
            Verdict::Regression
        );
        assert_eq!(
            verdict(&base, &base, Better::Lower, 0.1),
            (Verdict::NoChange, 0)
        );
        assert_eq!(
            verdict(&base[..9], &faster[..9], Better::Lower, 0.1).0,
            Verdict::TooFewPairs
        );
        // A parent spread wider than the bound leaves a small move unresolved.
        let noisy: Vec<f64> = (0..10).map(|i| 50.0 + i as f64 * 10.0).collect();
        let shifted: Vec<f64> = noisy.iter().map(|x| x + 1.0).collect();
        assert_eq!(
            verdict(&noisy, &shifted, Better::Lower, 0.1).0,
            Verdict::Unresolved
        );
        // Higher-is-better throughput gain.
        assert_eq!(
            verdict(&base, &slower, Better::Higher, 0.1).0,
            Verdict::Gain
        );
    }
}
