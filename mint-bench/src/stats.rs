//! Order statistics used by every reported timing.
//!
//! A timing is reported as its median and as the highest percentile that
//! still has at least [`MIN_BEYOND`] samples above it, together with the
//! sample count, so a tail figure is never read off a handful of points.

/// Samples a percentile must leave above it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Percentiles considered for the reported tail, highest first.
const TAIL_LADDER: [f64; 5] = [99.99, 99.9, 99.0, 90.0, 50.0];

/// Median of `values` (mean of the middle pair for an even count).
///
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let sorted = sorted(values);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The three quartile cut points, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (its default "exclusive" method).
///
/// Panics with fewer than two samples, as Python does.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two samples");
    let data = sorted(values);
    let (n, ld) = (4usize, data.len());
    let m = ld + 1;
    let mut cuts = [0.0; 3];
    for (i, cut) in (1..n).zip(cuts.iter_mut()) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *cut = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    cuts
}

/// Nearest-rank percentile `p` (0 < p <= 100) of `sorted`, which must be
/// sorted ascending and non-empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples, in integer
/// arithmetic on hundredths of a percent (`0.999 * 10_000.0` is not 9 990).
fn rank(n: usize, p: f64) -> usize {
    let hundredths = (p * 100.0).round() as usize;
    (hundredths * n).div_ceil(10_000).clamp(1, n)
}

/// Whether `n` samples leave at least [`MIN_BEYOND`] above percentile `p`.
pub fn supports(n: usize, p: f64) -> bool {
    n > 0 && n - rank(n, p) >= MIN_BEYOND
}

/// The highest percentile of the ladder that `n` samples support.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER.into_iter().find(|&p| supports(n, p))
}

/// Element-wise minimum over repetitions of the same work, piece by piece.
///
/// Every repetition does identical work in identical order, so a piece's
/// time differs between repetitions only by how much the rest of the
/// machine slowed it.  On a shared host that slowdown comes in bursts of a
/// few seconds and never speeds a piece up, so the fastest repetition of
/// each piece is the program's own cost.  Repetitions must have equal
/// lengths; panics on none.
pub fn floor(reps: &[Vec<f64>]) -> Vec<f64> {
    let (first, rest) = reps.split_first().expect("floor of no repetitions");
    let mut floor = first.clone();
    for rep in rest {
        assert_eq!(rep.len(), floor.len(), "repetitions differ in pieces");
        for (low, &value) in floor.iter_mut().zip(rep) {
            *low = low.min(value);
        }
    }
    floor
}

/// A summarized timing distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 99th percentile, when the sample supports it.
    pub p99: Option<f64>,
    /// The highest supported percentile and its value.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarizes `values`; `None` when there are none.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let sorted = sorted(values);
        let n = sorted.len();
        Some(Summary {
            n,
            p50: median(&sorted),
            p99: supports(n, 99.0).then(|| percentile(&sorted, 99.0)),
            tail: tail_percentile(n).map(|p| (p, percentile(&sorted, p))),
        })
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([1, 5, 2, 8, 7], n=4) == [1.5, 5.0, 7.5]
        assert_eq!(quartiles(&[1.0, 5.0, 2.0, 8.0, 7.0]), [1.5, 5.0, 7.5]);
    }

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(10), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
        assert!(supports(1_000, 99.0) && !supports(999, 99.0));
    }

    #[test]
    fn floor_keeps_each_pieces_fastest_repetition() {
        let reps = vec![
            vec![3.0, 1.0, 5.0],
            vec![2.0, 4.0, 6.0],
            vec![9.0, 9.0, 0.5],
        ];
        assert_eq!(floor(&reps), [2.0, 1.0, 0.5]);
        assert_eq!(floor(&reps[..1]), reps[0]);
    }

    #[test]
    #[should_panic(expected = "repetitions differ in pieces")]
    fn floor_rejects_repetitions_of_different_work() {
        floor(&[vec![1.0, 2.0], vec![1.0]]);
    }

    #[test]
    fn summary_reports_p99_only_when_supported() {
        let many: Vec<f64> = (1..=1_000).map(f64::from).collect();
        let s = Summary::of(&many).expect("non-empty");
        assert_eq!((s.n, s.p50, s.p99), (1_000, 500.5, Some(990.0)));
        assert_eq!(s.tail, Some((99.0, 990.0)));
        let few = Summary::of(&many[..500]).expect("non-empty");
        assert_eq!((few.p99, few.tail), (None, Some((90.0, 450.0))));
        assert_eq!(Summary::of(&[]), None);
    }
}
