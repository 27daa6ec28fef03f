//! Order statistics over latency samples.

/// Nearest-rank percentile of an ascending slice (`pct` in 0..=100).
/// `None` on an empty slice.
pub fn percentile(sorted: &[u64], pct: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of unsorted samples, as a float (mean of the middle pair on an
/// even count). `None` on an empty slice.
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

/// The tail percentiles a report may quote, highest first, each with
/// the share of samples beyond it in parts per 10 000.
const TAILS: [(f64, usize); 5] = [
    (99.99, 1),
    (99.9, 10),
    (99.0, 100),
    (95.0, 500),
    (90.0, 1000),
];

/// The highest tail percentile with at least ten samples beyond it, so
/// the quoted tail is never one or two outliers. `None` below 100
/// samples (even p90 would rest on fewer than ten).
pub fn supported_tail(samples: usize) -> Option<f64> {
    TAILS
        .into_iter()
        .find(|(_, beyond)| samples * beyond >= 10 * 10_000)
        .map(|(pct, _)| pct)
}

/// Latencies of one op kind, in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct Latencies {
    ns: Vec<u64>,
    sorted: bool,
}

impl Latencies {
    pub fn push(&mut self, ns: u64) {
        self.ns.push(ns);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    fn sorted(&mut self) -> &[u64] {
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
        &self.ns
    }

    /// Percentile in microseconds; 0.0 when there are no samples.
    pub fn pct_us(&mut self, pct: f64) -> f64 {
        percentile(self.sorted(), pct).map_or(0.0, |ns| ns as f64 / 1e3)
    }

    pub fn max_us(&mut self) -> f64 {
        self.sorted().last().map_or(0.0, |&ns| ns as f64 / 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), Some(50));
        assert_eq!(percentile(&v, 99.0), Some(99));
        assert_eq!(percentile(&v, 100.0), Some(100));
        assert_eq!(percentile(&v, 0.0), Some(1));
        assert_eq!(percentile(&[7], 50.0), Some(7));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(supported_tail(99), None);
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(199), Some(90.0));
        assert_eq!(supported_tail(200), Some(95.0));
        assert_eq!(supported_tail(999), Some(95.0));
        assert_eq!(supported_tail(1_000), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
        assert_eq!(supported_tail(100_000), Some(99.99));
    }

    #[test]
    fn latencies_report_microseconds() {
        let mut l = Latencies::default();
        assert_eq!(l.pct_us(50.0), 0.0);
        for ns in [3_000, 1_000, 2_000] {
            l.push(ns);
        }
        assert_eq!(l.pct_us(50.0), 2.0);
        assert_eq!(l.max_us(), 3.0);
        assert_eq!(l.len(), 3);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
