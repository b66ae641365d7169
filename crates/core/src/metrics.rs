//! Evaluation metrics: MAPE and Kendall's τ (§6), and the [`Scorecard`]
//! that reports them per program or per kernel, as Tables 2 and 3 do.

use std::collections::BTreeMap;

/// Mean absolute percentage error between predictions and targets, in
/// percent (as reported in Table 2).
///
/// # Panics
///
/// Panics if lengths differ or `targets` contains zeros.
pub fn mape(predictions: &[f64], targets: &[f64]) -> f64 {
    assert_eq!(predictions.len(), targets.len());
    assert!(!predictions.is_empty(), "mape of nothing");
    let sum: f64 = predictions
        .iter()
        .zip(targets)
        .map(|(&p, &t)| {
            assert!(t != 0.0, "zero target");
            ((p - t) / t).abs()
        })
        .sum();
    100.0 * sum / predictions.len() as f64
}

/// Kendall rank correlation coefficient τ-b (tie-corrected), matching the
/// "Kendall's τ" columns of Tables 2 and 3.
///
/// Returns 0 when either input is constant. Knight's O(n log n)
/// algorithm: sort by `(a, b)`, count per-variable and joint tie pairs
/// from the sorted runs, and count discordant pairs as merge-sort
/// inversions of the `b` sequence — program-level correlations run over
/// thousands of samples, where the quadratic pair loop got slow.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn kendall_tau(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let n = a.len();
    if n < 2 {
        return 0.0;
    }
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&i, &j| a[i].total_cmp(&a[j]).then(b[i].total_cmp(&b[j])));

    // n1 = pairs tied in a, n3 = pairs tied in both (joint runs nest
    // inside equal-a runs because of the secondary sort key).
    let mut n1 = 0i64;
    let mut n3 = 0i64;
    let mut i = 0;
    while i < n {
        let mut j = i + 1;
        while j < n && a[idx[j]] == a[idx[i]] {
            j += 1;
        }
        let t = (j - i) as i64;
        n1 += t * (t - 1) / 2;
        let mut k = i;
        while k < j {
            let mut l = k + 1;
            while l < j && b[idx[l]] == b[idx[k]] {
                l += 1;
            }
            let u = (l - k) as i64;
            n3 += u * (u - 1) / 2;
            k = l;
        }
        i = j;
    }

    // Discordant pairs = inversions of b taken in (a, b) order: pairs tied
    // in a are already b-sorted (no inversion), pairs tied only in b
    // compare equal (not counted), everything else inverts iff discordant.
    let mut bs: Vec<f64> = idx.iter().map(|&i| b[i]).collect();
    let mut buf = vec![0.0; n];
    let discordant = merge_count_inversions(&mut bs, &mut buf) as i64;

    // n2 = pairs tied in b, read off the now-sorted b values.
    let mut n2 = 0i64;
    let mut i = 0;
    while i < n {
        let mut j = i + 1;
        while j < n && bs[j] == bs[i] {
            j += 1;
        }
        let t = (j - i) as i64;
        n2 += t * (t - 1) / 2;
        i = j;
    }

    let n0 = (n as i64) * (n as i64 - 1) / 2;
    let denom = (((n0 - n1) as f64) * ((n0 - n2) as f64)).sqrt();
    if denom == 0.0 {
        return 0.0;
    }
    // concordant − discordant = n0 − n1 − n2 + n3 − 2·discordant.
    (n0 - n1 - n2 + n3 - 2 * discordant) as f64 / denom
}

/// Merge sort `v`, returning the number of strict inversions
/// (`i < j` with `v[i] > v[j]`). `buf` is caller-provided scratch.
fn merge_count_inversions(v: &mut [f64], buf: &mut [f64]) -> u64 {
    let n = v.len();
    if n <= 1 {
        return 0;
    }
    let mid = n / 2;
    let (left, right) = v.split_at_mut(mid);
    let mut inv = merge_count_inversions(left, buf) + merge_count_inversions(right, buf);
    let (mut i, mut j, mut k) = (0, 0, 0);
    while i < left.len() && j < right.len() {
        if left[i] <= right[j] {
            buf[k] = left[i];
            i += 1;
        } else {
            // left[i..] are all greater than right[j]: each inverts.
            inv += (left.len() - i) as u64;
            buf[k] = right[j];
            j += 1;
        }
        k += 1;
    }
    buf[k..k + left.len() - i].copy_from_slice(&left[i..]);
    let merged = k + left.len() - i;
    buf[merged..merged + right.len() - j].copy_from_slice(&right[j..]);
    let total = merged + right.len() - j;
    v.copy_from_slice(&buf[..total]);
    inv
}

/// Median of a slice (returns NaN for empty input).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// Arithmetic mean (NaN for empty input).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Spearman rank correlation (Pearson over ranks, average ranks for ties).
///
/// # Panics
///
/// Panics if lengths differ.
pub fn spearman(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    if a.len() < 2 {
        return 0.0;
    }
    let ra = ranks(a);
    let rb = ranks(b);
    pearson(&ra, &rb)
}

fn ranks(v: &[f64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..v.len()).collect();
    idx.sort_by(|&i, &j| v[i].total_cmp(&v[j]));
    let mut out = vec![0.0; v.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && v[idx[j + 1]] == v[idx[i]] {
            j += 1;
        }
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            out[k] = avg;
        }
        i = j + 1;
    }
    out
}

fn pearson(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len() as f64;
    let ma = a.iter().sum::<f64>() / n;
    let mb = b.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        cov += (x - ma) * (y - mb);
        va += (x - ma) * (x - ma);
        vb += (y - mb) * (y - mb);
    }
    if va == 0.0 || vb == 0.0 {
        return 0.0;
    }
    cov / (va * vb).sqrt()
}

/// MAPE and Kendall's τ-b of each of `N` model columns.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Score<const N: usize> {
    /// [`mape`] of each column against the targets, in percent.
    pub mape: [f64; N],
    /// [`kendall_tau`] of each column against the targets.
    pub tau: [f64; N],
}

impl<const N: usize> Score<N> {
    /// Each of `columns` against `targets` as one whole set, with no
    /// group rule (one row: its APE, τ 0). Panics where [`mape`] does.
    pub fn of(columns: &[Vec<f64>; N], targets: &[f64]) -> Self {
        Score {
            mape: columns.each_ref().map(|c| mape(c, targets)),
            tau: columns.each_ref().map(|c| kendall_tau(c, targets)),
        }
    }
}

/// One scored group of a [`Scorecard`]: its id and score.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GroupScore<const N: usize> {
    pub id: usize,
    pub score: Score<N>,
}

/// The accuracy of `N` models against measured targets per group (a
/// program in Table 2, a kernel's tiles in Table 3), and each column's
/// mean and median over the groups.
///
/// Collected from rows `(group id, target, one prediction per column)`,
/// under two rules:
/// - a row counts only if every column predicted it: a `None` drops it
///   from every column, so the columns compare on one set of kernels
///   (the paper's footnote 3 for the analytical model);
/// - a group is scored only if it keeps at least two rows, and groups
///   are reduced in ascending id order (rows within a group in input
///   order), so a mean has the same bits in every run: training picks
///   its best epoch on one.
///
/// A whole set scored as one, with no group rule, is [`Score::of`].
#[derive(Clone, Debug)]
pub struct Scorecard<const N: usize> {
    /// Every group of at least two rows, in ascending id order.
    pub groups: Vec<GroupScore<N>>,
    /// The mean over `groups` of each column (NaN without a group).
    pub mean: Score<N>,
    /// The median over `groups` of each column (NaN without a group).
    pub median: Score<N>,
}

impl<const N: usize> FromIterator<(usize, f64, [Option<f64>; N])> for Scorecard<N> {
    fn from_iter<I: IntoIterator<Item = (usize, f64, [Option<f64>; N])>>(rows: I) -> Self {
        let mut by_group: BTreeMap<usize, Vec<(f64, [f64; N])>> = BTreeMap::new();
        for (id, target, predictions) in rows {
            if predictions.iter().all(Option::is_some) {
                let predictions = predictions.map(Option::unwrap);
                by_group.entry(id).or_default().push((target, predictions));
            }
        }
        let groups: Vec<GroupScore<N>> = by_group
            .into_iter()
            .filter(|(_, group)| group.len() >= 2)
            .map(|(id, group)| {
                let targets: Vec<f64> = group.iter().map(|row| row.0).collect();
                let columns = transpose(group.iter().map(|row| row.1));
                let score = Score::of(&columns, &targets);
                GroupScore { id, score }
            })
            .collect();
        let mapes = transpose(groups.iter().map(|g| g.score.mape));
        let taus = transpose(groups.iter().map(|g| g.score.tau));
        let summary = |reduce: fn(&[f64]) -> f64| Score {
            mape: mapes.each_ref().map(|c| reduce(c)),
            tau: taus.each_ref().map(|c| reduce(c)),
        };
        Scorecard {
            mean: summary(mean),
            median: summary(median),
            groups,
        }
    }
}

/// The `N` columns of `rows`.
fn transpose<const N: usize>(rows: impl Iterator<Item = [f64; N]>) -> [Vec<f64>; N] {
    let mut columns: [Vec<f64>; N] = std::array::from_fn(|_| Vec::new());
    for row in rows {
        for (column, v) in columns.iter_mut().zip(row) {
            column.push(v);
        }
    }
    columns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mape_basic() {
        assert_eq!(mape(&[110.0], &[100.0]), 10.0);
        assert_eq!(mape(&[90.0, 110.0], &[100.0, 100.0]), 10.0);
        assert_eq!(mape(&[100.0], &[100.0]), 0.0);
    }

    #[test]
    fn kendall_perfect() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [10.0, 20.0, 30.0, 40.0];
        assert!((kendall_tau(&a, &b) - 1.0).abs() < 1e-12);
        let rev: Vec<f64> = b.iter().rev().copied().collect();
        assert!((kendall_tau(&a, &rev) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn kendall_independent_is_small() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [2.0, 1.0, 4.0, 3.0];
        let tau = kendall_tau(&a, &b);
        assert!(tau.abs() < 0.5);
    }

    #[test]
    fn kendall_handles_ties() {
        let a = [1.0, 1.0, 2.0, 3.0];
        let b = [5.0, 5.0, 6.0, 7.0];
        let tau = kendall_tau(&a, &b);
        assert!((tau - 1.0).abs() < 1e-12, "tau={tau}");
        // Constant input: defined as 0.
        assert_eq!(kendall_tau(&[1.0, 1.0], &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn kendall_known_value() {
        // Classic example: one discordant pair out of six.
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [1.0, 2.0, 4.0, 3.0];
        assert!((kendall_tau(&a, &b) - 4.0 / 6.0).abs() < 1e-12);
    }

    /// The original O(n²) pair loop, kept as the reference oracle for the
    /// merge-sort implementation.
    fn kendall_tau_reference(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len();
        if n < 2 {
            return 0.0;
        }
        let mut concordant = 0i64;
        let mut discordant = 0i64;
        let mut ties_a = 0i64;
        let mut ties_b = 0i64;
        for i in 0..n {
            for j in (i + 1)..n {
                let da = a[i] - a[j];
                let db = b[i] - b[j];
                if da == 0.0 {
                    ties_a += 1;
                }
                if db == 0.0 {
                    ties_b += 1;
                }
                if da != 0.0 && db != 0.0 {
                    if (da > 0.0) == (db > 0.0) {
                        concordant += 1;
                    } else {
                        discordant += 1;
                    }
                }
            }
        }
        let n0 = (n * (n - 1) / 2) as i64;
        let denom = (((n0 - ties_a) as f64) * ((n0 - ties_b) as f64)).sqrt();
        if denom == 0.0 {
            return 0.0;
        }
        (concordant - discordant) as f64 / denom
    }

    #[test]
    fn kendall_matches_quadratic_reference() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        for trial in 0..200 {
            let n = rng.gen_range(0..40);
            // Draw from a small value set so ties (incl. joint ties) are
            // common.
            let a: Vec<f64> = (0..n).map(|_| rng.gen_range(0..8) as f64).collect();
            let b: Vec<f64> = (0..n).map(|_| rng.gen_range(0..8) as f64).collect();
            let fast = kendall_tau(&a, &b);
            let slow = kendall_tau_reference(&a, &b);
            assert!(
                (fast - slow).abs() < 1e-12,
                "trial {trial}: fast={fast} slow={slow} a={a:?} b={b:?}"
            );
        }
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn spearman_monotone() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [1.0, 4.0, 9.0, 16.0];
        assert!((spearman(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert!(mean(&[]).is_nan());
    }

    fn taus(card: &Scorecard<1>) -> Vec<f64> {
        card.groups.iter().map(|g| g.score.tau[0]).collect()
    }

    #[test]
    fn scorecard_respects_groups() {
        // Predictions perfectly ordered within group 0, inverted in 1.
        let rows = [(0, 1.0, 0.1), (0, 2.0, 0.2), (1, 5.0, 0.3), (1, 3.0, 0.9)];
        let card: Scorecard<1> = rows
            .map(|(g, t, p)| (g, t, [Some(p)]))
            .into_iter()
            .collect();
        assert_eq!(taus(&card), vec![1.0, -1.0]);
    }

    /// Groups come back in ascending id order, whatever order the rows
    /// arrive in: validation averages their τ, and a sum taken in hash
    /// order differs in its last bits between identical runs.
    #[test]
    fn scorecard_orders_groups_by_id() {
        // 80 groups, visited in a scattered order; group g is ranked
        // correctly iff g is even.
        let rows = (0..80usize).map(|i| (i * 37) % 80).flat_map(|g| {
            [(1.0, 0.1), (2.0, 0.2), (3.0, 0.3)]
                .map(|(t, p)| (g, t, [Some(if g % 2 == 0 { p } else { -p })]))
        });
        let card: Scorecard<1> = rows.collect();
        let ids: Vec<usize> = card.groups.iter().map(|g| g.id).collect();
        assert_eq!(ids, (0..80).collect::<Vec<_>>());
        for (g, tau) in taus(&card).iter().enumerate() {
            assert_eq!(*tau, if g % 2 == 0 { 1.0 } else { -1.0 }, "group {g}");
        }
    }

    /// Two columns, worked by hand: a tie, a group of one, a constant
    /// column and a row that one column did not predict.
    #[test]
    fn scorecard_hand_computed() {
        let rows = [
            // Group 7: column 0 ranks right, column 1 inverts.
            (7, 10.0, [Some(10.0), Some(30.0)]),
            (7, 20.0, [Some(30.0), Some(10.0)]),
            // Group 3: column 0 ties its last two rows, column 1 is
            // constant; the fourth row has no column-1 prediction and
            // leaves both columns.
            (3, 100.0, [Some(110.0), Some(100.0)]),
            (3, 200.0, [Some(180.0), Some(100.0)]),
            (3, 400.0, [Some(180.0), Some(100.0)]),
            (3, 300.0, [Some(500.0), None]),
            // Group 1 has one row: not scored.
            (1, 50.0, [Some(40.0), Some(60.0)]),
        ];
        let card: Scorecard<2> = rows.into_iter().collect();
        let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
        let ids: Vec<usize> = card.groups.iter().map(|g| g.id).collect();
        assert_eq!(ids, vec![3, 7]);
        // Group 1 scored as a whole set of its own, with no group rule.
        let g1 = Score::of(&[vec![40.0], vec![60.0]], &[50.0]);
        assert_eq!((g1.mape, g1.tau), ([20.0, 20.0], [0.0, 0.0]));

        // Group 3, column 0: APEs 10 %, 10 %, 55 %; pairs 2 concordant,
        // 1 tied in the prediction only: τ-b = 2 / √(2·3).
        // Column 1: APEs 0 %, 50 %, 75 %; constant, so τ 0.
        let g3 = card.groups[0].score;
        assert!(
            close(g3.mape[0], 25.0) && close(g3.mape[1], 125.0 / 3.0),
            "{g3:?}"
        );
        assert!(
            close(g3.tau[0], 2.0 / 6f64.sqrt()) && g3.tau[1] == 0.0,
            "{g3:?}"
        );
        // Group 7: APEs 0 % and 50 % in column 0, 200 % and 50 % in 1.
        let g7 = card.groups[1].score;
        assert_eq!((g7.mape, g7.tau), ([25.0, 125.0], [1.0, -1.0]));

        // Two groups: mean and median agree.
        for summary in [card.mean, card.median] {
            assert!(close(summary.mape[0], 25.0));
            assert!(close(summary.mape[1], (125.0 / 3.0 + 125.0) / 2.0));
            assert!(close(summary.tau[0], (2.0 / 6f64.sqrt() + 1.0) / 2.0));
            assert!(close(summary.tau[1], -0.5));
        }

        // A target filter over the rows rescores what it keeps: group 7
        // falls away.
        let view = |keep: fn(f64) -> bool| -> Scorecard<2> {
            rows.into_iter().filter(|r| keep(r.1)).collect()
        };
        let big = view(|t| t >= 100.0);
        assert_eq!(big.groups, card.groups[..1]);
        assert_eq!(big.median, g3);
        let none = view(|t| t > 1e6);
        assert!(none.groups.is_empty() && none.mean.tau[0].is_nan());
    }
}
