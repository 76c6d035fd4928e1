//! # hat-obs — live telemetry for the HAT testbed
//!
//! `hat-trace` (PR 8) is forensic: it reconstructs what happened after a
//! run ends. This crate is the *live* layer — the paper's claims (HAT
//! engines stay available and bounded-anomalous **during** partitions,
//! while master/2PL go unavailable) are claims about behavior over
//! time under faults, which end-of-run aggregates flatten away. Three
//! pieces:
//!
//! 1. **[`MetricsRegistry`]** — one typed namespace of counters, gauges
//!    and log-scale histograms, labeled by node/engine/shard, with
//!    lossless merge, Prometheus text exposition and JSON snapshots.
//!    `ClientMetrics`/`ServerStats` export into it at run end.
//! 2. **[`TimeSeries`]** — a sampler snapshots cumulative counters
//!    every N sim-ms and stores per-window *deltas* (throughput, p99
//!    commit latency, abort/retry/redirect rates, replication lag, WAL
//!    bytes), with nemesis fault begin/end [`FaultMark`]s embedded in
//!    the same timeline.
//! 3. **Online probes** — [`VisibilityTracker`] measures t-visibility
//!    staleness (acked write → visible at each replica) from sampled
//!    real commits, and [`StreamingChecker`] flags fractured-read and
//!    session-monotonicity violations in a bounded sliding window as
//!    they occur.
//!
//! ## Determinism contract
//!
//! Same rules as `hat-trace`: observation draws **nothing** from the
//! rng and never mutates simulation state — samplers read existing
//! counters, probes piggyback on real commits (no injected traffic),
//! and the prober polls stores read-only at sample ticks. Same-seed
//! runs produce byte-identical series, and an obs-off run is
//! bit-identical to an obs-on run. The disabled path is a single
//! `Option` check; the per-thread [`obs_recorded_total`] counter
//! audits that nothing records when disabled (mirroring hat-trace's
//! `events_recorded_total` audit).

mod check;
mod hist;
mod probe;
mod registry;
mod series;

pub use check::{CheckerPolicy, CommitObs, ObsViolation, StreamingChecker};
pub use hist::{Histogram, LatencyPercentiles};
pub use probe::{Stamp, VisibilityTracker};
pub use registry::{Labels, Metric, MetricsRegistry};
pub use series::{Cumulative, FaultMark, SeriesPoint, TimeSeries};

use std::cell::Cell;
use std::sync::{Arc, Mutex};

thread_local! {
    /// Observations recorded by *any* sink on this thread. Tests use
    /// [`obs_recorded_total`] deltas to prove the disabled path records
    /// nothing — an accidentally-enabled sink can't silently perturb a
    /// benchmark without this counter moving. Per thread, so a test's
    /// audit cannot see a sibling test recording concurrently.
    static OBS_RECORDED: Cell<u64> = const { Cell::new(0) };
}

/// Total observations recorded on the calling thread (all sinks,
/// ever). A simulated deployment records on the thread driving it.
pub fn obs_recorded_total() -> u64 {
    OBS_RECORDED.with(Cell::get)
}

fn bump(n: u64) {
    OBS_RECORDED.with(|c| c.set(c.get() + n));
}

/// Sampling cadence in sim-microseconds (one series window each).
const SAMPLE_INTERVAL_US: u64 = 10_000;

#[derive(Debug)]
struct Shared {
    registry: MetricsRegistry,
    series: TimeSeries,
    last: Cumulative,
    next_sample_us: u64,
    probes: VisibilityTracker,
    checker: StreamingChecker,
    /// Set once the first violation has been returned to the caller
    /// (the client dumps the trace window exactly once).
    violation_reported: bool,
}

/// A cheap, cloneable handle to the live-telemetry state.
///
/// Disabled sinks hold no allocation and every method is a single
/// `Option` check before returning — the hot path costs one branch.
/// Enabled sinks share state behind `Arc<Mutex<..>>`, so the clients,
/// the frontend sampler and the nemesis runner all feed one registry
/// and one timeline.
#[derive(Debug, Clone, Default)]
pub struct ObsSink {
    inner: Option<Arc<Mutex<Shared>>>,
}

impl ObsSink {
    /// A sink that drops everything (the default everywhere).
    pub fn disabled() -> Self {
        ObsSink { inner: None }
    }

    /// A live sink whose streaming checker applies `policy` (the checks
    /// the engine's advertised level makes).
    pub fn enabled(policy: CheckerPolicy) -> Self {
        ObsSink {
            inner: Some(Arc::new(Mutex::new(Shared {
                registry: MetricsRegistry::new(),
                series: TimeSeries::default(),
                last: Cumulative::default(),
                next_sample_us: SAMPLE_INTERVAL_US,
                probes: VisibilityTracker::default(),
                checker: StreamingChecker::new(policy),
                violation_reported: false,
            }))),
        }
    }

    /// True if this sink records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Adds to a registry counter (no-op when disabled).
    pub fn counter_add(&self, name: &str, labels: &[(&str, &str)], delta: u64) {
        let Some(s) = &self.inner else { return };
        bump(1);
        s.lock().unwrap().registry.counter_add(name, labels, delta);
    }

    /// Feeds one committed transaction to the visibility probe sampler
    /// and the streaming checker. Returns `Some(violation)` only for
    /// the **first** violation this sink ever sees (further ones are
    /// counted in the registry but not returned), so the caller can
    /// dump the trace window exactly once.
    pub fn observe_commit(&self, c: &CommitObs) -> Option<ObsViolation> {
        let s = self.inner.as_ref()?;
        bump(1);
        let mut s = s.lock().unwrap();
        if let Some((key, replicas)) = c.writes.first() {
            s.probes.observe_commit(c.at_us, key, c.stamp, replicas);
            s.registry
                .counter_add("hat_txn_write_committed_total", &[], 1);
        }
        let v = s.checker.observe(c);
        if let Some(v) = &v {
            let kind = match v {
                ObsViolation::FracturedRead { .. } => "fractured_read",
                ObsViolation::NonMonotonicRead { .. } => "non_monotonic_read",
            };
            s.registry
                .counter_add("hat_check_violations_total", &[("kind", kind)], 1);
        }
        if v.is_some() && !s.violation_reported {
            s.violation_reported = true;
            v
        } else {
            None
        }
    }

    /// Records a fault injection in the series timeline.
    pub fn fault_begin(&self, t_us: u64, label: &str) {
        let Some(s) = &self.inner else { return };
        bump(1);
        let mut s = s.lock().unwrap();
        s.series.mark(t_us, true, label);
        s.registry.counter_add("hat_faults_injected_total", &[], 1);
    }

    /// Records a fault heal/restart in the series timeline.
    pub fn fault_end(&self, t_us: u64, label: &str) {
        let Some(s) = &self.inner else { return };
        bump(1);
        s.lock().unwrap().series.mark(t_us, false, label);
    }

    /// True if a sample window boundary has been reached (disabled
    /// sinks are never due — the frontend's fast path).
    pub fn sample_due(&self, now_us: u64) -> bool {
        match &self.inner {
            Some(s) => now_us >= s.lock().unwrap().next_sample_us,
            None => false,
        }
    }

    /// Closes a sample window: diffs `cum` against the previous
    /// snapshot into a [`SeriesPoint`] at `t_us` and schedules the next
    /// boundary. The caller collects `cum` purely by *reading* existing
    /// counters — sampling must not mutate simulation state. The
    /// unavailability and probe-sample fields are filled from the
    /// sink's own state (the nemesis tally feeds
    /// `hat_txn_unavailable_total` through [`ObsSink::counter_add`]),
    /// so callers need not thread them through.
    pub fn sample(&self, t_us: u64, mut cum: Cumulative) {
        let Some(s) = &self.inner else { return };
        bump(1);
        let mut s = s.lock().unwrap();
        cum.staleness_samples = s.probes.samples;
        cum.unavailable = s.registry.counter_total("hat_txn_unavailable_total");
        cum.committed_w = s.registry.counter_total("hat_txn_write_committed_total");
        let prev = std::mem::take(&mut s.last);
        s.series.push_window(t_us, &prev, &cum);
        s.last = cum;
        s.next_sample_us = t_us + SAMPLE_INTERVAL_US;
    }

    /// Polls pending visibility probes: `visible(key, stamp, node)`
    /// answers whether `node`'s store now holds `key` at or above
    /// `stamp` (a read-only store inspection). No-op when disabled.
    pub fn drive_probes<F>(&self, now_us: u64, visible: F)
    where
        F: FnMut(&[u8], Stamp, u32) -> bool,
    {
        let Some(s) = &self.inner else { return };
        bump(1);
        s.lock().unwrap().probes.drive(now_us, visible);
    }

    /// Snapshot of the time series (None when disabled).
    pub fn series(&self) -> Option<TimeSeries> {
        Some(self.inner.as_ref()?.lock().unwrap().series.clone())
    }

    /// Snapshot of the registry, with probe/checker-derived metrics
    /// folded in (`hat_visibility_staleness_ms`, probe sample/eviction
    /// counters, checker totals). None when disabled.
    pub fn registry(&self) -> Option<MetricsRegistry> {
        let s = self.inner.as_ref()?.lock().unwrap();
        let mut reg = s.registry.clone();
        if s.probes.samples > 0 {
            reg.hist_merge("hat_visibility_staleness_ms", &[], &s.probes.staleness_ms);
        }
        reg.counter_add("hat_probe_samples_total", &[], s.probes.samples);
        reg.counter_add("hat_probe_evicted_total", &[], s.probes.evicted);
        reg.counter_add(
            "hat_check_evicted_writers_total",
            &[],
            s.checker.evicted_writers,
        );
        Some(reg)
    }

    /// Staleness distribution measured so far (None when disabled or
    /// when no probe has resolved yet).
    pub fn staleness(&self) -> Option<LatencyPercentiles> {
        let s = self.inner.as_ref()?.lock().unwrap();
        if s.probes.samples == 0 {
            return None;
        }
        Some(s.probes.staleness_ms.percentiles())
    }

    /// Total streaming-checker violations so far (0 when disabled).
    pub fn violations(&self) -> u64 {
        match &self.inner {
            Some(s) => s.lock().unwrap().checker.violations(),
            None => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::PROBE_EVERY;

    #[test]
    fn disabled_sink_records_nothing() {
        let sink = ObsSink::disabled();
        let before = obs_recorded_total();
        sink.counter_add("c", &[], 1);
        sink.fault_begin(0, "x");
        sink.fault_end(1, "x");
        sink.sample(10, Cumulative::default());
        sink.drive_probes(0, |_, _, _| true);
        assert!(sink
            .observe_commit(&CommitObs {
                at_us: 0,
                session: 0,
                session_seq: 0,
                stamp: (1, 0),
                reads: vec![],
                writes: vec![(b"k".to_vec(), vec![0])],
            })
            .is_none());
        assert!(!sink.sample_due(u64::MAX));
        assert!(sink.series().is_none());
        assert!(sink.registry().is_none());
        assert!(sink.staleness().is_none());
        assert_eq!(sink.violations(), 0);
        assert!(!sink.is_enabled());
        assert_eq!(obs_recorded_total(), before);
    }

    #[test]
    fn enabled_sink_counts_recordings() {
        let sink = ObsSink::enabled(CheckerPolicy::default());
        let before = obs_recorded_total();
        sink.counter_add("c", &[("n", "0")], 2);
        sink.counter_add("c", &[("n", "0")], 3);
        assert_eq!(obs_recorded_total(), before + 2);
        assert_eq!(sink.registry().unwrap().counter("c", &[("n", "0")]), 5);
    }

    #[test]
    fn sampling_produces_windows() {
        let sink = ObsSink::enabled(CheckerPolicy::default());
        assert!(!sink.sample_due(9_999));
        assert!(sink.sample_due(10_000));
        sink.sample(
            10_000,
            Cumulative {
                committed: 4,
                ..Default::default()
            },
        );
        assert!(!sink.sample_due(15_000));
        assert!(sink.sample_due(20_000));
        sink.sample(
            20_000,
            Cumulative {
                committed: 10,
                ..Default::default()
            },
        );
        let s = sink.series().unwrap();
        assert_eq!(s.points.len(), 2);
        assert_eq!(s.points[0].committed, 4);
        assert_eq!(s.points[1].committed, 6);
    }

    #[test]
    fn first_violation_only_returned_once() {
        let sink = ObsSink::enabled(CheckerPolicy {
            fractured: true,
            monotonic: false,
        });
        let writer = CommitObs {
            at_us: 0,
            session: 0,
            session_seq: 0,
            stamp: (10, 0),
            reads: vec![],
            writes: vec![(b"x".to_vec(), vec![0]), (b"y".to_vec(), vec![0])],
        };
        let fractured = |stamp: Stamp| CommitObs {
            at_us: 1,
            session: 1,
            session_seq: 0,
            stamp,
            reads: vec![(b"x".to_vec(), (10, 0)), (b"y".to_vec(), (3, 0))],
            writes: vec![],
        };
        assert!(sink.observe_commit(&writer).is_none());
        assert!(sink.observe_commit(&fractured((20, 1))).is_some());
        assert!(sink.observe_commit(&fractured((21, 1))).is_none());
        assert_eq!(sink.violations(), 2);
        let reg = sink.registry().unwrap();
        assert_eq!(
            reg.counter("hat_check_violations_total", &[("kind", "fractured_read")]),
            2
        );
    }

    #[test]
    fn probe_feeds_staleness_into_registry() {
        let sink = ObsSink::enabled(CheckerPolicy::default());
        // Every PROBE_EVERY-th commit is probed: the last of these.
        for seq in 0..PROBE_EVERY {
            sink.observe_commit(&CommitObs {
                at_us: 5_000,
                session: 0,
                session_seq: seq,
                stamp: (7 + seq, 0),
                reads: vec![],
                writes: vec![(b"k".to_vec(), vec![1, 2])],
            });
        }
        sink.drive_probes(9_000, |_, _, _| true);
        let p = sink.staleness().unwrap();
        assert_eq!(p.count, 2);
        assert!((p.max - 4.0).abs() < 0.01);
        let reg = sink.registry().unwrap();
        assert_eq!(reg.counter("hat_probe_samples_total", &[]), 2);
        assert!(reg.hist("hat_visibility_staleness_ms", &[]).is_some());
    }
}
