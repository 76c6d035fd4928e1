//! Summary statistics and histograms for experiment output.
//!
//! The benchmark harness reports mean/percentile latencies and CDFs in the
//! same shape as the paper's Table 1 and Figures 1 and 3–6. The log-scaled
//! histogram now lives in `hat-obs` (the live-telemetry crate) so the
//! metrics registry, the time-series sampler and the benchmark reports all
//! share one lossless-merge implementation; it is re-exported here
//! unchanged, so existing `hat_sim::stats::Histogram` users are
//! unaffected.

pub use hat_obs::{Histogram, LatencyPercentiles};

/// Returns the `q`-quantile (`0.0..=1.0`) of `sorted` using the
/// nearest-rank method. `sorted` must be ascending.
///
/// # Panics
/// Panics if `sorted` is empty or `q` is outside `[0, 1]`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
    let rank = ((sorted.len() as f64) * q).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

/// Five-number-style summary of a sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum sample.
    pub min: f64,
    /// Median (p50).
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum sample.
    pub max: f64,
}

impl Summary {
    /// Computes a summary of `samples` (order irrelevant).
    ///
    /// Returns `None` for an empty sample.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in samples"));
        let sum: f64 = sorted.iter().sum();
        Some(Summary {
            count: sorted.len() as u64,
            mean: sum / sorted.len() as f64,
            min: sorted[0],
            p50: percentile(&sorted, 0.50),
            p95: percentile(&sorted, 0.95),
            p99: percentile(&sorted, 0.99),
            max: *sorted.last().unwrap(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert_eq!(percentile(&v, 0.95), 5.0);
    }

    #[test]
    fn summary_basics() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!(s.count, 4);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.mean - 2.5).abs() < 1e-9);
        assert_eq!(s.p50, 2.0);
        assert!(Summary::of(&[]).is_none());
    }

    // Histogram behavior (quantile accuracy, merge losslessness, window
    // deltas) is tested where the implementation now lives: hat-obs.
    // One smoke check that the re-export is the same type in practice:
    #[test]
    fn reexported_histogram_smoke() {
        let mut h = Histogram::for_latency_ms();
        h.record(5.0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.percentiles().count, 1);
    }
}
