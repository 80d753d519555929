//! Order statistics over per-operation samples.

/// Nearest-rank percentile `p` (0–100) of an ascending sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// Candidate tail percentiles, highest first.
const TAILS: [f64; 7] = [99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0];

/// The highest of p99, p98, … p50 that leaves at least ten samples
/// beyond it, with its value. A sample too small for even p50 reports
/// p50 of what there is.
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    let p = TAILS
        .into_iter()
        .find(|&p| {
            let rank = ((p / 100.0) * n as f64).ceil() as usize;
            n.saturating_sub(rank) >= 10
        })
        .unwrap_or(50.0);
    (p, percentile(sorted, p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), (99.0, 990.0));
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&v).0, 95.0);
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(tail(&v).0, 50.0);
    }
}
