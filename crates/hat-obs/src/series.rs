//! Time-sliced telemetry: per-window deltas with fault markers.
//!
//! The sampler (driven by the sim frontend at a fixed sim-time cadence)
//! hands the sink one *cumulative* [`Cumulative`] snapshot per window
//! boundary; the sink subtracts the previous snapshot to produce a
//! [`SeriesPoint`] of per-window rates. Nemesis fault injections drop
//! [`FaultMark`]s into the same timeline, so "throughput during the
//! partition" is readable straight off the series instead of being
//! flattened into run totals.

use crate::hist::Histogram;
use crate::registry::json_f64;
use std::fmt::Write as _;

/// Run-cumulative counters collected at a sample boundary. The sampler
/// only ever *reads* existing client/server counters — it performs no
/// writes and draws nothing from the rng, so sampling cannot perturb
/// the simulation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Cumulative {
    /// Committed transactions across all clients.
    pub committed: u64,
    /// Committed transactions whose write-set was non-empty (counted by
    /// the sink itself from [`crate::CommitObs`] feeds — read-only
    /// commits don't prove write availability, which is the split the
    /// paper's §6 claim is about).
    pub committed_w: u64,
    /// Aborts (internal + external) across all clients.
    pub aborted: u64,
    /// Operations that failed unavailable (nemesis tally).
    pub unavailable: u64,
    /// Client-level retries.
    pub retries: u64,
    /// Cross-shard redirects.
    pub redirects: u64,
    /// Messages dropped by the network (partitions).
    pub dropped: u64,
    /// Total WAL bytes written across all servers.
    pub wal_bytes: u64,
    /// Max replication backlog across servers (entries not yet applied
    /// by a peer), a lag gauge.
    pub repl_lag: u64,
    /// Snapshot of the commit-latency histogram (cumulative); the sink
    /// diffs consecutive snapshots to get the window's own tail.
    pub commit_lat: Option<Histogram>,
    /// Cumulative count of t-visibility staleness samples resolved.
    pub staleness_samples: u64,
}

/// One window of the time series: per-window deltas between two
/// consecutive cumulative snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesPoint {
    /// Window end, sim-time microseconds.
    pub t_us: u64,
    pub committed: u64,
    /// Commits with a non-empty write-set.
    pub committed_w: u64,
    pub aborted: u64,
    pub unavailable: u64,
    pub retries: u64,
    pub redirects: u64,
    pub dropped: u64,
    pub wal_bytes: u64,
    /// Gauge (not a delta): max replication backlog at the boundary.
    pub repl_lag: u64,
    /// p99 commit latency of commits inside this window (ms); 0 when
    /// the window saw no commits.
    pub p99_commit_ms: f64,
    /// Staleness probe samples resolved inside this window.
    pub staleness_samples: u64,
}

/// A fault lifecycle marker embedded in the series timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultMark {
    /// Sim-time microseconds of the transition.
    pub t_us: u64,
    /// `true` for injection, `false` for heal/restart.
    pub begin: bool,
    /// Human-readable fault description; begin/end pairs share the
    /// same label, which is how the CI validator pairs them.
    pub label: String,
}

/// The assembled per-run timeline: windows plus fault marks.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeSeries {
    pub points: Vec<SeriesPoint>,
    pub marks: Vec<FaultMark>,
}

impl TimeSeries {
    /// Folds a new cumulative snapshot into the series, producing the
    /// window delta against `prev`.
    pub fn push_window(&mut self, t_us: u64, prev: &Cumulative, now: &Cumulative) {
        let p99 = match (&now.commit_lat, &prev.commit_lat) {
            (Some(n), Some(p)) => {
                let win = n.delta_since(p);
                if win.count() == 0 {
                    0.0
                } else {
                    win.percentiles().p99
                }
            }
            (Some(n), None) => {
                if n.count() == 0 {
                    0.0
                } else {
                    n.percentiles().p99
                }
            }
            _ => 0.0,
        };
        self.points.push(SeriesPoint {
            t_us,
            committed: now.committed.saturating_sub(prev.committed),
            committed_w: now.committed_w.saturating_sub(prev.committed_w),
            aborted: now.aborted.saturating_sub(prev.aborted),
            unavailable: now.unavailable.saturating_sub(prev.unavailable),
            retries: now.retries.saturating_sub(prev.retries),
            redirects: now.redirects.saturating_sub(prev.redirects),
            dropped: now.dropped.saturating_sub(prev.dropped),
            wal_bytes: now.wal_bytes.saturating_sub(prev.wal_bytes),
            repl_lag: now.repl_lag,
            p99_commit_ms: p99,
            staleness_samples: now.staleness_samples.saturating_sub(prev.staleness_samples),
        });
    }

    /// Records a fault transition.
    pub fn mark(&mut self, t_us: u64, begin: bool, label: impl Into<String>) {
        self.marks.push(FaultMark {
            t_us,
            begin,
            label: label.into(),
        });
    }

    /// Sum of committed transactions across windows whose end falls in
    /// `(from_us, to_us]` — used by tests to assert the availability
    /// split inside a fault window.
    pub fn committed_in(&self, from_us: u64, to_us: u64) -> u64 {
        self.points
            .iter()
            .filter(|p| p.t_us > from_us && p.t_us <= to_us)
            .map(|p| p.committed)
            .sum()
    }

    /// Like [`TimeSeries::committed_in`], but counting only commits
    /// with a non-empty write-set — the measurable form of "2PL write
    /// throughput is zero inside the partition".
    pub fn writes_committed_in(&self, from_us: u64, to_us: u64) -> u64 {
        self.points
            .iter()
            .filter(|p| p.t_us > from_us && p.t_us <= to_us)
            .map(|p| p.committed_w)
            .sum()
    }

    /// True if every begin mark has a matching later end mark with the
    /// same label (begin-only marks like shard handoffs are reported
    /// via the allowlist argument).
    pub fn marks_paired(&self, begin_only_ok: &[&str]) -> bool {
        for (i, m) in self.marks.iter().enumerate() {
            if !m.begin {
                continue;
            }
            if begin_only_ok.iter().any(|p| m.label.starts_with(p)) {
                continue;
            }
            let paired = self.marks[i + 1..]
                .iter()
                .any(|e| !e.begin && e.label == m.label && e.t_us >= m.t_us);
            if !paired {
                return false;
            }
        }
        true
    }

    /// JSON export: `{"windows":[...],"faults":[...]}` with one object
    /// per window, deterministic field order.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"windows\":[");
        for (i, p) in self.points.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"t_us\":{},\"committed\":{},\"committed_w\":{},\"aborted\":{},\"unavailable\":{},\"retries\":{},\"redirects\":{},\"dropped\":{},\"wal_bytes\":{},\"repl_lag\":{},\"p99_commit_ms\":{},\"staleness_samples\":{}}}",
                p.t_us,
                p.committed,
                p.committed_w,
                p.aborted,
                p.unavailable,
                p.retries,
                p.redirects,
                p.dropped,
                p.wal_bytes,
                p.repl_lag,
                json_f64(p.p99_commit_ms),
                p.staleness_samples
            );
        }
        out.push_str("],\"faults\":[");
        for (i, m) in self.marks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"t_us\":{},\"kind\":\"{}\",\"label\":\"{}\"}}",
                m.t_us,
                if m.begin { "begin" } else { "end" },
                m.label.replace('\\', "\\\\").replace('"', "\\\"")
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cum(committed: u64, aborted: u64) -> Cumulative {
        Cumulative {
            committed,
            aborted,
            ..Default::default()
        }
    }

    #[test]
    fn windows_are_deltas() {
        let mut ts = TimeSeries::default();
        ts.push_window(10_000, &cum(0, 0), &cum(5, 1));
        ts.push_window(20_000, &cum(5, 1), &cum(12, 1));
        assert_eq!(ts.points[0].committed, 5);
        assert_eq!(ts.points[1].committed, 7);
        assert_eq!(ts.points[1].aborted, 0);
        assert_eq!(ts.committed_in(0, 20_000), 12);
        assert_eq!(ts.committed_in(10_000, 20_000), 7);
    }

    #[test]
    fn window_p99_is_window_local() {
        let mut h = Histogram::for_latency_ms();
        h.record(1.0);
        let mut prev = Cumulative {
            commit_lat: Some(h.clone()),
            ..Default::default()
        };
        prev.committed = 1;
        h.record(200.0);
        h.record(200.0);
        let now = Cumulative {
            committed: 3,
            commit_lat: Some(h),
            ..Default::default()
        };
        let mut ts = TimeSeries::default();
        ts.push_window(5_000, &prev, &now);
        let p = &ts.points[0];
        assert_eq!(p.committed, 2);
        // The window contains only the two 200ms commits; the 1ms
        // pre-window commit must not drag the window p99 down.
        assert!(
            (p.p99_commit_ms - 200.0).abs() / 200.0 < 0.05,
            "{}",
            p.p99_commit_ms
        );
    }

    #[test]
    fn mark_pairing() {
        let mut ts = TimeSeries::default();
        ts.mark(100, true, "partition dc0/dc1");
        ts.mark(500, false, "partition dc0/dc1");
        ts.mark(600, true, "handoff token 3 -> position 1");
        assert!(ts.marks_paired(&["handoff"]));
        assert!(!ts.marks_paired(&[]));
        ts.mark(700, true, "crash node 2");
        assert!(!ts.marks_paired(&["handoff"]));
        ts.mark(900, false, "crash node 2");
        assert!(ts.marks_paired(&["handoff"]));
    }

    #[test]
    fn json_shape_and_determinism() {
        let mut ts = TimeSeries::default();
        ts.push_window(10_000, &cum(0, 0), &cum(3, 0));
        ts.mark(4_000, true, "partition");
        ts.mark(9_000, false, "partition");
        let j = ts.to_json();
        assert!(j.starts_with("{\"windows\":["));
        assert!(j.contains("\"kind\":\"begin\""));
        assert!(j.contains("\"kind\":\"end\""));
        assert_eq!(j, ts.to_json());
    }
}
