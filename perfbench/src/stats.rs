//! Order statistics used by every metric the benchmark reports.

/// Nearest-rank percentile of an ascending-sorted sample: the smallest value
/// with at least `p`% of the sample at or below it.  `None` for an empty
/// sample, so a missing measurement can never read as zero.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Number of samples strictly above the nearest-rank `p`th percentile — the
/// evidence behind a tail percentile.
pub fn beyond(sorted: &[u64], p: f64) -> usize {
    match percentile(sorted, p) {
        Some(v) => sorted.len() - sorted.partition_point(|&x| x <= v),
        None => 0,
    }
}

/// Median of a small set of repeated measurements (mean of the middle pair
/// for an even count).  `None` for an empty set.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}
