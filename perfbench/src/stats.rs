//! Order statistics for timing samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so a figure printed here can be checked
//! against the same computation done over the JSON results.

/// Percentiles considered for the tail figure, in tenths of a percent,
/// highest last (integers keep the rank arithmetic exact).
const TAIL_LADDER: [u64; 5] = [500, 900, 950, 990, 999];

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median, quartiles and tail of one metric's samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// The highest percentile of [`TAIL_LADDER`] with at least
    /// [`TAIL_MIN_BEYOND`] samples beyond it, and its value; `None` when
    /// there are too few samples for any.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarize `values`; `None` for an empty slice.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (q1, q3) = quartiles(&sorted);
        let tail = tail_percentile(sorted.len())
            .map(|p| (p as f64 / 10.0, sorted[rank(p, sorted.len()).max(1) - 1]));
        Some(Summary {
            n: sorted.len(),
            median: median(&sorted),
            q1,
            q3,
            tail,
        })
    }

    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Median of sorted values.
pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First and third quartile of sorted values, by Python's exclusive
/// method; a single sample is its own quartiles.
pub fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    if n < 2 {
        return (sorted[0], sorted[0]);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The highest ladder percentile (tenths of a percent) with at least
/// [`TAIL_MIN_BEYOND`] of `n` samples beyond its nearest rank.
pub fn tail_percentile(n: usize) -> Option<u64> {
    TAIL_LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| n - rank(p, n) >= TAIL_MIN_BEYOND)
}

/// Nearest rank (1-based) of the percentile `p`, in tenths of a percent,
/// among `n` sorted samples: `ceil(p / 1000 * n)`.
pub fn rank(p: u64, n: usize) -> usize {
    (p as usize * n).div_ceil(1000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[1.0, 2.0, 9.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 4.0, 9.0]), 3.0);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), (1.25, 3.75));
        // statistics.quantiles([3, 7], n=4) == [2.0, 5.0, 8.0]
        assert_eq!(quartiles(&[3.0, 7.0]), (2.0, 8.0));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
    }

    #[test]
    fn summary_sorts_and_reports_spread() {
        let s = Summary::of(&[10.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0]).unwrap();
        assert_eq!(s.n, 10);
        assert_eq!(s.median, 5.5);
        assert_eq!((s.q1, s.q3), (2.75, 8.25));
        assert!((s.spread() - 5.5 / 5.5).abs() < 1e-12);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(500));
        assert_eq!(tail_percentile(99), Some(500));
        assert_eq!(tail_percentile(100), Some(900));
        assert_eq!(tail_percentile(199), Some(900));
        assert_eq!(tail_percentile(200), Some(950));
        assert_eq!(tail_percentile(1000), Some(990));
        assert_eq!(tail_percentile(10_000), Some(999));
    }

    #[test]
    fn tail_value_is_nearest_rank() {
        assert_eq!(rank(500, 100), 50);
        assert_eq!(rank(999, 100), 100);
        assert_eq!(rank(900, 21), 19);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = Summary::of(&hundred).unwrap();
        assert_eq!(s.tail, Some((90.0, 90.0)));
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(Summary::of(&twenty).unwrap().tail, Some((50.0, 10.0)));
        let few = Summary::of(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(few.tail, None);
    }
}
