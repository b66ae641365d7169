//! Order statistics used for every reported number.
//!
//! All functions take unsorted samples and sort a copy; every sample in this
//! benchmark is a finite timing or count.

pub use tpu_learned_cost::metrics::{mean, median};

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile: the smallest sample with at least `p` percent of
/// the sample at or below it (rank `ceil(p/100 * n)`, 1-based). With
/// n = 25,000, p99 is the 24,750th value and 250 samples lie beyond it.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    let v = sorted(samples);
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median absolute deviation from the median.
pub fn mad(samples: &[f64]) -> f64 {
    let m = median(samples);
    let dev: Vec<f64> = samples.iter().map(|x| (x - m).abs()).collect();
    median(&dev)
}

/// Geometric mean of positive values.
pub fn geomean(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "geomean of an empty sample");
    (samples.iter().map(|x| x.ln()).sum::<f64>() / samples.len() as f64).exp()
}

/// The three quartile cut points as Python's
/// `statistics.quantiles(values, n=4)` gives them (the "exclusive" method),
/// which is what the acceptance driver computes spreads from.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    assert!(samples.len() >= 2, "quartiles need two samples");
    let v = sorted(samples);
    let n = v.len();
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    [cut(1), cut(2), cut(3)]
}

/// The value a timing is reported as: the fastest of the rounds (the paper's
/// own min-of-N convention, section 5), not their median.
///
/// Rounds repeat the same work, so what differs between them is the host, and
/// the host only ever adds time. On this one the cost of entering the kernel
/// moves in phases of 10-40 s: over 150 s a `getppid` loop read 23-34 ms and
/// a `sched_yield` loop 49-80 ms per 200,000 calls in 10 s windows, while a
/// user-mode arithmetic loop stayed within 2 % and no steal time was
/// reported. A serve round is two thread hand-offs per request, so its median
/// over rounds flips between the two states (back-to-back serve_cold runs of
/// one build read 0.41 s and 0.63 s a round). Memory-bound user code has such
/// phases too (README, "Noise on this host"). The fastest round reads the
/// undisturbed machine whenever a run touches a quiet phase at all, and still
/// moves with any change to the code, which shifts every round; over ten runs
/// it spread 9-13 % where the fourth fastest of 35 rounds spread 12-20 %.
/// Where a round is several separately timed operations the workload takes
/// this per operation and reports their sum (`report::Composed`).
pub fn low(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "the fastest of no rounds");
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// [`low`] for a rate, where higher is undisturbed.
pub fn high(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "the fastest of no rounds");
    samples.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Interquartile range as a share of the median: the driver's spread.
pub fn spread(samples: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(samples);
    (q3 - q1) / q2.abs()
}

/// Min, quartiles and max of per-round values, for printing beside the
/// reported one. Below four values the quartile formula extrapolates beyond
/// the sample, so only the values themselves are printed.
pub fn describe(samples: &[f64]) -> String {
    let v = sorted(samples);
    if v.len() < 4 {
        let values: Vec<String> = v.iter().map(|x| format!("{x:.6}")).collect();
        return format!("n={} values=[{}]", v.len(), values.join(", "));
    }
    let [q1, q2, q3] = quartiles(&v);
    format!(
        "n={} min={:.6} q1={:.6} median={:.6} q3={:.6} max={:.6} mad={:.6}",
        v.len(),
        v[0],
        q1,
        q2,
        q3,
        v[v.len() - 1],
        mad(&v)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        // ceil(0.99 * 10) = 10: with ten samples p99 is the maximum.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 99.0), 10.0);
        assert_eq!(percentile(&ten, 50.0), 5.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        // 25,000 samples: 250 lie strictly beyond p99.
        let many: Vec<f64> = (0..25_000).map(f64::from).collect();
        let p99 = percentile(&many, 99.0);
        assert_eq!(many.iter().filter(|&&x| x > p99).count(), 250);
    }

    #[test]
    fn median_and_mad() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // deviations from 3: 2 1 0 1 6 -> median 1
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 9.0]), 1.0);
        assert_eq!(mad(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 4.0, 2.0, 8.0]), [1.5, 4.0, 12.0]);
        assert!((spread(&xs) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn low_and_high_are_the_fastest_round() {
        assert_eq!(low(&[3.0, 1.0, 2.0, 5.0, 4.0]), 1.0);
        assert_eq!(high(&[3.0, 1.0, 2.0, 5.0, 4.0]), 5.0);
        assert_eq!(low(&[7.0]), 7.0);
        assert_eq!(high(&[7.0]), 7.0);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }
}
