//! Summary statistics over timing samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) by linear interpolation between
/// order statistics. `None` for no samples.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(s[lo] + (s[hi] - s[lo]) * (pos - lo as f64))
}

pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// Candidate tail percentiles, highest first.
const TAILS: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The tail of a latency distribution: the highest candidate
/// percentile with at least ten samples beyond it, as `(percentile,
/// value)`.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    tail_capped(samples, 100.0)
}

/// [`tail`], never above percentile `cap`. A workload whose sample
/// count grows with the program's speed caps its tail, so a faster
/// program is not judged at a higher percentile.
pub fn tail_capped(samples: &[f64], cap: f64) -> Option<(f64, f64)> {
    let n = samples.len() as f64;
    let p = TAILS
        .iter()
        .copied()
        .find(|&p| p <= cap && n * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0);
    quantile(samples, p / 100.0).map(|v| (p, v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&s), Some(2.5));
        assert_eq!(quantile(&s, 0.0), Some(1.0));
        assert_eq!(quantile(&s, 1.0), Some(4.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let s: Vec<f64> = (0..200).map(f64::from).collect();
        assert_eq!(tail(&s).map(|t| t.0), Some(95.0));
        let s: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&s).map(|t| t.0), Some(99.0));
        let s: Vec<f64> = (0..15).map(f64::from).collect();
        assert_eq!(tail(&s).map(|t| t.0), Some(50.0));
        let s: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail_capped(&s, 95.0).map(|t| t.0), Some(95.0));
    }
}
