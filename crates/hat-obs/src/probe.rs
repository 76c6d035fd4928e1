//! Online t-visibility probes.
//!
//! The HAT paper quantifies eventual consistency by *t-visibility*: how
//! long after a write is acknowledged does it become visible at each
//! replica? Rather than injecting probe traffic (which would perturb
//! the deterministic simulation), the tracker piggybacks on the real
//! workload: every Nth committed write is registered here with its
//! replica set, and at each sample tick the frontend asks each pending
//! replica's store whether the stamped version has arrived. The elapsed
//! sim-time from ack to visibility lands in a live histogram.
//!
//! Memory is bounded: at most `PROBE_CAP` writes are in flight;
//! registering past the cap evicts the oldest entry (counted, never
//! silent).

use crate::hist::Histogram;

/// Every `PROBE_EVERY`-th commit (by arrival order) is registered as a
/// visibility probe.
pub(crate) const PROBE_EVERY: u64 = 4;

/// Max in-flight visibility probes (oldest evicted beyond this).
pub(crate) const PROBE_CAP: usize = 64;

/// A write stamp as an opaque ordered pair (the simulator's hybrid
/// timestamp `(time, node)` — hat-obs stays dependency-free, so the
/// core crate converts at the boundary).
pub type Stamp = (u64, u32);

/// One acked write awaiting visibility on some replicas.
#[derive(Debug, Clone)]
struct ProbeEntry {
    key: Vec<u8>,
    stamp: Stamp,
    acked_at_us: u64,
    /// Replica node ids that have not yet shown the write.
    pending: Vec<u32>,
}

/// Tracks sampled writes until every replica has seen them, recording
/// ack-to-visible staleness per replica into a histogram.
#[derive(Debug, Clone)]
pub struct VisibilityTracker {
    commits_seen: u64,
    inflight: Vec<ProbeEntry>,
    /// Entries evicted before resolving (cap pressure).
    pub evicted: u64,
    /// Staleness samples resolved (one per write × replica).
    pub samples: u64,
    /// Ack-to-visible staleness in ms.
    pub staleness_ms: Histogram,
}

impl Default for VisibilityTracker {
    fn default() -> Self {
        VisibilityTracker {
            commits_seen: 0,
            inflight: Vec::new(),
            evicted: 0,
            samples: 0,
            staleness_ms: Histogram::for_latency_ms(),
        }
    }
}

impl VisibilityTracker {
    /// Considers a committed write for probing. Deterministic sampling:
    /// every `PROBE_EVERY`-th commit (by arrival order) is registered,
    /// no rng.
    pub fn observe_commit(&mut self, at_us: u64, key: &[u8], stamp: Stamp, replicas: &[u32]) {
        self.commits_seen += 1;
        if !self.commits_seen.is_multiple_of(PROBE_EVERY) || replicas.is_empty() {
            return;
        }
        if self.inflight.len() >= PROBE_CAP {
            self.inflight.remove(0);
            self.evicted += 1;
        }
        self.inflight.push(ProbeEntry {
            key: key.to_vec(),
            stamp,
            acked_at_us: at_us,
            pending: replicas.to_vec(),
        });
    }

    /// Polls every pending `(write, replica)` pair: `visible(key, stamp,
    /// node)` should return true once the replica's store holds a
    /// version of `key` at or above `stamp`. Each newly-visible pair
    /// records `now - acked_at` as one staleness sample.
    pub fn drive<F>(&mut self, now_us: u64, mut visible: F)
    where
        F: FnMut(&[u8], Stamp, u32) -> bool,
    {
        for e in &mut self.inflight {
            e.pending.retain(|&node| {
                if visible(&e.key, e.stamp, node) {
                    self.samples += 1;
                    self.staleness_ms
                        .record((now_us.saturating_sub(e.acked_at_us)) as f64 / 1000.0);
                    false
                } else {
                    true
                }
            });
        }
        self.inflight.retain(|e| !e.pending.is_empty());
    }

    /// Writes still awaiting visibility somewhere.
    pub fn inflight(&self) -> usize {
        self.inflight.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feeds `PROBE_EVERY` commits, the last of which is probed.
    fn probe_one(t: &mut VisibilityTracker, at_us: u64, stamp: Stamp, replicas: &[u32]) {
        for _ in 0..PROBE_EVERY {
            t.observe_commit(at_us, b"k", stamp, replicas);
        }
    }

    #[test]
    fn samples_every_nth_commit() {
        let mut t = VisibilityTracker::default();
        for i in 0..3 * PROBE_EVERY {
            t.observe_commit(i * 1000, b"k", (i, 0), &[1, 2]);
        }
        assert_eq!(t.inflight(), 3);
    }

    #[test]
    fn resolves_staleness_per_replica() {
        let mut t = VisibilityTracker::default();
        probe_one(&mut t, 10_000, (5, 0), &[1, 2]);
        // Replica 1 sees it at t=12ms (2ms staleness), replica 2 at 30ms.
        t.drive(12_000, |_, _, node| node == 1);
        assert_eq!(t.samples, 1);
        assert_eq!(t.inflight(), 1);
        t.drive(30_000, |_, _, _| true);
        assert_eq!(t.samples, 2);
        assert_eq!(t.inflight(), 0);
        let p = t.staleness_ms.percentiles();
        assert_eq!(p.count, 2);
        assert!((p.max - 20.0).abs() < 0.01, "max {}", p.max);
    }

    #[test]
    fn cap_evicts_oldest_and_counts() {
        let mut t = VisibilityTracker::default();
        for i in 0..PROBE_CAP as u64 + 2 {
            probe_one(&mut t, i, (i, 0), &[9]);
        }
        assert_eq!(t.inflight(), PROBE_CAP);
        assert_eq!(t.evicted, 2);
    }
}
