//! Histograms for experiment output.
//!
//! The benchmark harness reports mean/percentile latencies and CDFs in the
//! same shape as the paper's Table 1 and Figures 1 and 3–6. The log-scaled
//! histogram lives in `hat-obs` (the live-telemetry crate) so the metrics
//! registry, the time-series sampler and the benchmark reports all share
//! one lossless-merge implementation; it is re-exported here unchanged.

pub use hat_obs::{Histogram, LatencyPercentiles};

#[cfg(test)]
mod tests {
    use super::*;

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
