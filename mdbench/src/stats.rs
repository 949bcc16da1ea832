//! Order statistics for the timing samples: the median, Python's
//! `statistics.quantiles(values, n=4)` quartiles (so `compare` computes the
//! same spread a Python reader of the run files would), the tail percentile
//! rule of the choosing-metrics guide.

/// Percentile levels the tail may report, highest first.
const TAIL_LEVELS: [u32; 3] = [95, 90, 75];
/// A percentile is reported only with at least this many samples beyond it.
const MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; `NaN` for an empty slice (a non-finite metric fails the run).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// First, second and third quartile by the exclusive method (Python's
/// default). Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let m = v.len();
    if m < 2 {
        return None;
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Distance between the first and third quartile as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// Nearest-rank percentile of the samples.
pub fn percentile(values: &[f64], level: u32) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = (v.len() * level as usize).div_ceil(100).clamp(1, v.len());
    v[rank - 1]
}

/// The highest of p95/p90/p75 that has at least ten samples beyond it, or
/// the median when even p75 has fewer (p95 needs 200 samples, p90 100,
/// p75 40).
pub fn tail_level(samples: usize) -> u32 {
    TAIL_LEVELS
        .into_iter()
        .find(|&level| samples * (100 - level as usize) >= MIN_BEYOND * 100)
        .unwrap_or(50)
}

/// The whole-window tail percentile by [`tail_level`].
pub fn tail(values: &[f64]) -> f64 {
    match tail_level(values.len()) {
        50 => median(values),
        level => percentile(values, level),
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
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&v), Some(1.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_level(200), 95);
        assert_eq!(tail_level(199), 90);
        assert_eq!(tail_level(100), 90);
        assert_eq!(tail_level(99), 75);
        assert_eq!(tail_level(40), 75);
        assert_eq!(tail_level(39), 50);
        assert_eq!(tail_level(0), 50);
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&v), 190.0);
        assert_eq!(tail(&v[..20]), 10.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(percentile(&v, 95), 8.0);
        assert_eq!(percentile(&v, 50), 4.0);
        assert_eq!(percentile(&v, 1), 1.0);
    }
}
