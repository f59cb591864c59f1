//! The benchmark's own arithmetic: nearest-rank percentiles, the
//! "at least ten samples beyond the tail" rule, and self time from
//! nested spans.

/// Samples a reported tail percentile must leave beyond its rank.
pub const TAIL_MARGIN: usize = 10;

/// 1-based nearest rank of the `pct`-th percentile among `n` samples:
/// the smallest rank with at least `pct` % of the samples at or below it.
/// Integer arithmetic, so `p99` of 1000 samples is exactly rank 990.
pub fn rank(n: usize, pct: u32) -> usize {
    assert!(pct <= 100, "percentile {pct} out of range");
    (n * pct as usize).div_ceil(100).max(1)
}

/// Nearest-rank percentile of `sorted` (ascending, non-empty).
pub fn percentile(sorted: &[f64], pct: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), pct).min(sorted.len()) - 1]
}

/// Samples strictly beyond the `pct`-th percentile's rank.
pub fn beyond(n: usize, pct: u32) -> usize {
    n.saturating_sub(rank(n, pct))
}

/// `true` when a `pct`-th percentile over `n` samples has at least
/// [`TAIL_MARGIN`] samples beyond it and may be reported.
pub fn tail_ok(n: usize, pct: u32) -> bool {
    n > 0 && beyond(n, pct) >= TAIL_MARGIN
}

/// The fewest samples for which [`tail_ok`] holds.
pub fn min_samples(pct: u32) -> usize {
    (1..)
        .find(|&n| tail_ok(n, pct))
        .expect("some n satisfies the rule")
}

/// Percentile of samples recorded in whole units, truncated, given as
/// histograms with a unit each: `hist[v]` samples of `(hist, unit)` read
/// `v`, which stands for a true value spread evenly over
/// `[v, v + 1) / unit`. Returns the nearest-rank sample's position in the
/// pooled distribution, interpolated linearly; for one histogram in unit
/// 1 that is its bin, interpolated by the rank's position among the
/// samples in the bin. `None` without samples.
pub fn binned_percentile(hists: &[(&[u64], f64)], pct: u32) -> Option<f64> {
    let n: u64 = hists.iter().flat_map(|(h, _)| h.iter()).sum();
    if n == 0 {
        return None;
    }
    let r = rank(usize::try_from(n).ok()?, pct) as f64;
    // The pooled count below x is piecewise linear: each bin adds its
    // density over its span. Sweep the span ends in order.
    let mut ends: Vec<(f64, f64)> = Vec::new();
    for &(hist, unit) in hists {
        for (v, &at) in hist.iter().enumerate() {
            if at > 0 {
                let (lo, hi) = (v as f64 / unit, (v + 1) as f64 / unit);
                let density = at as f64 / (hi - lo);
                ends.push((lo, density));
                ends.push((hi, -density));
            }
        }
    }
    ends.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (mut x, mut below, mut slope) = (ends[0].0, 0.0, 0.0);
    for (at, change) in ends {
        let reached = below + slope * (at - x);
        if reached >= r && slope > 0.0 {
            return Some(x + (r - below) / slope);
        }
        (x, below, slope) = (at, reached, slope + change);
    }
    // Rounding left the last rank a hair short: the highest value.
    Some(x)
}

/// Sorts in place and returns the nearest-rank `pcts` percentiles.
pub fn percentiles(samples: &mut [f64], pcts: &[u32]) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    pcts.iter().map(|&p| percentile(samples, p)).collect()
}

/// Median by nearest rank (sorts a copy).
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    percentiles(&mut v, &[50])[0]
}

/// Median of each value's neighbourhood: `values[i - half..=i + half]`,
/// clipped to the slice.
pub fn local_medians(values: &[f64], half: usize) -> Vec<f64> {
    (0..values.len())
        .map(|i| median(&values[i.saturating_sub(half)..(i + half + 1).min(values.len())]))
        .collect()
}

/// Total length covered by half-open intervals `[start, end)`, counting
/// overlaps once.
pub fn union_len(intervals: &[(u64, u64)]) -> u64 {
    let mut iv: Vec<(u64, u64)> = intervals.iter().copied().filter(|(a, b)| b > a).collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut open: Option<(u64, u64)> = None;
    for (a, b) in iv {
        open = match open {
            Some((s, e)) if a <= e => Some((s, e.max(b))),
            Some((s, e)) => {
                total += e - s;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + open.map_or(0, |(s, e)| e - s)
}

/// Self time of a span: its duration minus the part of it that its
/// child spans cover (children are clipped to the parent; overlapping
/// children count once).
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(a, b)| (a.max(parent.0), b.min(parent.1)))
        .collect();
    (parent.1 - parent.0) - union_len(&clipped)
}

/// Total duration and total self time of `parents`, each of which owns
/// the `children` that start inside it. Parents must not overlap one
/// another (spans of one thread).
pub fn nested_totals(parents: &[(u64, u64)], children: &[(u64, u64)]) -> (u64, u64) {
    let mut parents = parents.to_vec();
    let mut children = children.to_vec();
    parents.sort_unstable();
    children.sort_unstable();
    let (mut total, mut own) = (0, 0);
    for &(a, b) in &parents {
        let lo = children.partition_point(|c| c.0 < a);
        let hi = children.partition_point(|c| c.0 < b);
        total += b - a;
        own += self_time((a, b), &children[lo..hi]);
    }
    (total, own)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 5.0);
        assert_eq!(percentile(&v, 90), 9.0);
        assert_eq!(percentile(&v, 91), 10.0);
        assert_eq!(percentile(&v, 100), 10.0);
        assert_eq!(percentile(&v, 0), 1.0);
        assert_eq!(percentile(&[7.0], 99), 7.0);
        let mut shuffled = vec![3.0, 1.0, 2.0, 5.0, 4.0];
        assert_eq!(percentiles(&mut shuffled, &[50, 99]), vec![3.0, 5.0]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn binned_percentiles_interpolate_inside_the_bin() {
        let one = |h: &[u64], pct| binned_percentile(&[(h, 1.0)], pct);
        // Ten samples in bin 3: the median (rank 5) sits halfway in.
        assert_eq!(one(&[0, 0, 0, 10], 50), Some(3.5));
        // Ranks 1-2 fall in bin 1, ranks 3-6 in bin 2, one each in 7-10.
        let h = [0, 2, 4, 0, 0, 0, 0, 1, 1, 1, 1];
        assert_eq!(one(&h, 50), Some(2.75));
        assert_eq!(one(&h, 20), Some(2.0));
        assert_eq!(one(&h, 100), Some(11.0));
        assert_eq!(one(&[0, 0], 50), None);
        assert_eq!(binned_percentile(&[], 50), None);
    }

    #[test]
    fn binned_percentiles_pool_histograms_in_their_own_units() {
        // Four samples in [1, 2), and four read 1 in half units: [0.5, 1).
        let a: &[u64] = &[0, 4];
        let hists = [(a, 1.0), (a, 2.0)];
        assert_eq!(binned_percentile(&hists, 25), Some(0.75));
        assert_eq!(binned_percentile(&hists, 50), Some(1.0));
        assert_eq!(binned_percentile(&hists, 75), Some(1.5));
        assert_eq!(binned_percentile(&hists, 100), Some(2.0));
    }

    #[test]
    fn rank_is_exact_at_round_sizes() {
        // Floating point would put 0.99 * 1000 a hair off 990.
        assert_eq!(rank(1000, 99), 990);
        assert_eq!(rank(1001, 99), 991);
        assert_eq!(rank(200, 95), 190);
        assert_eq!(rank(1, 50), 1);
    }

    #[test]
    fn ten_samples_beyond_the_tail() {
        assert!(!tail_ok(999, 99));
        assert!(tail_ok(1000, 99));
        assert_eq!(beyond(1000, 99), 10);
        assert!(!tail_ok(199, 95));
        assert!(tail_ok(200, 95));
        assert!(tail_ok(20, 50));
        assert!(!tail_ok(0, 50));
        assert_eq!(min_samples(99), 1000);
        assert_eq!(min_samples(95), 200);
        assert_eq!(min_samples(50), 20);
    }

    #[test]
    fn local_medians_clip_the_window_at_the_ends() {
        let v = [5.0, 1.0, 9.0, 2.0, 8.0];
        assert_eq!(local_medians(&v, 1), vec![1.0, 5.0, 2.0, 8.0, 2.0]);
        assert_eq!(local_medians(&v, 0), v.to_vec());
        assert_eq!(local_medians(&v, 9), vec![5.0; 5]);
        assert!(local_medians(&[], 3).is_empty());
    }

    #[test]
    fn union_counts_overlap_once() {
        assert_eq!(union_len(&[]), 0);
        assert_eq!(union_len(&[(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(union_len(&[(20, 25), (0, 10), (10, 12)]), 17);
        assert_eq!(union_len(&[(3, 3), (4, 2)]), 0);
        assert_eq!(union_len(&[(0, 100), (10, 20), (30, 40)]), 100);
    }

    #[test]
    fn self_time_of_nested_spans() {
        // A request [0, 100) whose exchange legs overlap each other.
        assert_eq!(self_time((0, 100), &[(10, 40), (30, 60)]), 50);
        // Children sticking out of the parent are clipped to it.
        assert_eq!(self_time((10, 50), &[(0, 20), (40, 90)]), 20);
        // A child outside the parent contributes nothing.
        assert_eq!(self_time((10, 50), &[(60, 70)]), 40);
        assert_eq!(self_time((0, 10), &[(0, 10)]), 0);
    }

    #[test]
    fn nested_totals_assign_children_by_start() {
        // Two device spans on one thread; each owns the exchanges that
        // start inside it, and a late child is clipped to its parent.
        let parents = [(100, 200), (0, 100)];
        let children = [(10, 30), (20, 50), (150, 210), (90, 100)];
        assert_eq!(
            nested_totals(&parents, &children),
            (200, 100 - 50 + 100 - 50)
        );
        assert_eq!(nested_totals(&parents, &[]), (200, 200));
    }
}
