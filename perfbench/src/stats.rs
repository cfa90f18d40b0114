//! Small order statistics shared by every workload.

/// Median of `v` (mean of the two middle values for even lengths);
/// `0.0` for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        0.5 * (s[m - 1] + s[m])
    }
}

/// Nearest-rank percentile `p` in `[0, 100]` of an already sorted slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Lower quartile (nearest rank) of `v`, the figure every bounded
/// timing reports; `0.0` for an empty slice. A busy spell of the shared
/// host only adds time and slows whole samples, in some runs most of
/// them, so the lower quartile of samples spread over a run moves less
/// between runs than their median. Of up to four samples it is the
/// fastest.
pub fn lower_quartile(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    percentile_sorted(&s, 25.0)
}

/// Geometric mean of strictly positive values; `0.0` if any is not.
pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() || v.iter().any(|x| x.is_nan() || *x <= 0.0) {
        return 0.0;
    }
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&s, 99.0), 99.0);
        assert_eq!(percentile_sorted(&s, 50.0), 50.0);
        assert_eq!(lower_quartile(&[4.0, 1.0, 3.0, 2.0]), 1.0);
        assert_eq!(lower_quartile(&s[..8]), 2.0);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert_eq!(geomean(&[1.0, 0.0]), 0.0);
    }
}
