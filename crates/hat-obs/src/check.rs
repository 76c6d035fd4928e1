//! Bounded-memory streaming consistency checker.
//!
//! Mirrors the two *online-checkable* phenomena from `hat-history`'s
//! offline checker — fractured reads (RAMP Definition 2) and
//! non-monotonic session reads (Definition 28) — but over a sliding
//! window of recent commits instead of the full history, so it runs
//! while the workload is still in flight with O(window) memory.
//!
//! The sliding window makes the checker *sound but incomplete*: a
//! writer evicted from the window becomes "unknown" and its phenomena
//! go undetected (counted in [`StreamingChecker::evicted_writers`]),
//! but the checker never reports a violation the offline checker
//! wouldn't. That one-sidedness is exactly what the live use case
//! needs — "zero violations at the advertised level" stays meaningful,
//! and the first hit can dump the trace window immediately.
//!
//! Which checks apply is per-engine policy ([`CheckerPolicy`]): only
//! engines whose advertised isolation level *prohibits* a phenomenon
//! are checked for it (MAV legitimately permits non-monotonic reads,
//! eventual/RC legitimately permit fractured reads).

use std::collections::{BTreeMap, VecDeque};

use crate::probe::Stamp;

/// What a committed transaction exposed to the observer: its stamp,
/// session coordinates, the versions its reads observed, and the keys
/// it wrote (with the replica set per write, for the visibility probe).
/// Built by the client only when the sink is enabled.
#[derive(Debug, Clone)]
pub struct CommitObs {
    /// Commit (ack) sim-time, microseconds.
    pub at_us: u64,
    /// Session (client) index and per-session sequence number.
    pub session: u32,
    pub session_seq: u64,
    /// The stamp all of this transaction's writes carry.
    pub stamp: Stamp,
    /// `(key, observed write stamp)` per read, in operation order.
    pub reads: Vec<(Vec<u8>, Stamp)>,
    /// `(key, replica node ids)` per write.
    pub writes: Vec<(Vec<u8>, Vec<u32>)>,
}

/// Streaming-checker sliding window: recent writers, and per-session read
/// floors, kept.
pub(crate) const CHECKER_WINDOW: usize = 256;

/// Which streaming checks an engine is subject to.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CheckerPolicy {
    /// Check fractured reads (Read Atomic and stronger).
    pub fractured: bool,
    /// Check session read monotonicity (serializable engines).
    pub monotonic: bool,
}

/// A phenomenon flagged by the streaming checker.
#[derive(Debug, Clone, PartialEq)]
pub enum ObsViolation {
    /// Reader observed part of `writer`'s write-set: read one key from
    /// `writer` but sibling `key` at an older version.
    FracturedRead {
        reader: Stamp,
        writer: Stamp,
        key: Vec<u8>,
        older: Stamp,
    },
    /// A session re-read `key` and observed an older version than its
    /// own earlier read.
    NonMonotonicRead {
        reader: Stamp,
        session: u32,
        key: Vec<u8>,
        observed: Stamp,
        floor: Stamp,
    },
}

/// Streaming checker state: a bounded window of recent writers plus
/// per-session read high-water marks.
#[derive(Debug, Clone)]
pub struct StreamingChecker {
    policy: CheckerPolicy,
    /// stamp -> keys written, for write-set membership tests.
    writers: BTreeMap<Stamp, Vec<Vec<u8>>>,
    /// Eviction order for `writers`.
    order: VecDeque<Stamp>,
    /// session -> key -> max observed stamp.
    high_read: BTreeMap<u32, BTreeMap<Vec<u8>, Stamp>>,
    /// Writers dropped from the window (bounded-memory blind spots).
    pub evicted_writers: u64,
    /// Violations found, by kind.
    pub fractured_found: u64,
    pub non_monotonic_found: u64,
}

impl StreamingChecker {
    pub fn new(policy: CheckerPolicy) -> Self {
        StreamingChecker {
            policy,
            writers: BTreeMap::new(),
            order: VecDeque::new(),
            high_read: BTreeMap::new(),
            evicted_writers: 0,
            fractured_found: 0,
            non_monotonic_found: 0,
        }
    }

    /// Feeds one committed transaction; returns the first violation it
    /// exposes, if any. Commits must arrive in per-session order (they
    /// do: sessions are sequential and the client reports at commit
    /// ack), matching the offline checker's `session_seq` sort.
    pub fn observe(&mut self, c: &CommitObs) -> Option<ObsViolation> {
        let mut found = None;
        if self.policy.fractured {
            found = self.check_fractured(c);
        }
        if self.policy.monotonic {
            let nm = self.check_monotonic(c);
            if found.is_none() {
                found = nm;
            }
        }
        self.admit_writer(c);
        found
    }

    /// Mirror of `hat_history::phenomena::fractured_reads`, restricted
    /// to writers still in the window. Reads of the reader's own
    /// buffered writes (`observed == stamp`) are exempt on both sides,
    /// as in the RAMP read-write extension; unknown writers (initial
    /// stamp, or evicted from the window) are skipped.
    fn check_fractured(&mut self, c: &CommitObs) -> Option<ObsViolation> {
        let mut first = None;
        for (i, (_key_i, from)) in c.reads.iter().enumerate() {
            if *from == c.stamp {
                continue;
            }
            let Some(written) = self.writers.get(from) else {
                continue; // unknown or initial writer: not checkable
            };
            for (j, (key_j, obs_j)) in c.reads.iter().enumerate() {
                if i == j || *obs_j == c.stamp || *obs_j >= *from {
                    continue;
                }
                if written.iter().any(|k| k == key_j) {
                    self.fractured_found += 1;
                    if first.is_none() {
                        first = Some(ObsViolation::FracturedRead {
                            reader: c.stamp,
                            writer: *from,
                            key: key_j.clone(),
                            older: *obs_j,
                        });
                    }
                }
            }
        }
        first
    }

    /// Mirror of `hat_history::phenomena::non_monotonic_reads`: within
    /// a session, per-key observed stamps must never go backwards.
    fn check_monotonic(&mut self, c: &CommitObs) -> Option<ObsViolation> {
        let mut first = None;
        let floors = self.high_read.entry(c.session).or_default();
        for (key, observed) in &c.reads {
            if let Some(&floor) = floors.get(key) {
                if *observed < floor {
                    self.non_monotonic_found += 1;
                    if first.is_none() {
                        first = Some(ObsViolation::NonMonotonicRead {
                            reader: c.stamp,
                            session: c.session,
                            key: key.clone(),
                            observed: *observed,
                            floor,
                        });
                    }
                }
            }
            let e = floors.entry(key.clone()).or_insert(*observed);
            *e = (*e).max(*observed);
        }
        // Bound per-session floor memory; evicting a floor can only
        // make the checker miss (sound), never false-positive.
        while floors.len() > CHECKER_WINDOW {
            let victim = floors.keys().next().cloned().unwrap();
            floors.remove(&victim);
        }
        first
    }

    fn admit_writer(&mut self, c: &CommitObs) {
        if c.writes.is_empty() {
            return;
        }
        let keys: Vec<Vec<u8>> = c.writes.iter().map(|(k, _)| k.clone()).collect();
        if self.writers.insert(c.stamp, keys).is_none() {
            self.order.push_back(c.stamp);
        }
        while self.order.len() > CHECKER_WINDOW {
            let old = self.order.pop_front().unwrap();
            self.writers.remove(&old);
            self.evicted_writers += 1;
        }
    }

    /// Total violations across both kinds.
    pub fn violations(&self) -> u64 {
        self.fractured_found + self.non_monotonic_found
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn commit(stamp: Stamp, session: u32, reads: &[(&[u8], Stamp)], writes: &[&[u8]]) -> CommitObs {
        CommitObs {
            at_us: 0,
            session,
            session_seq: 0,
            stamp,
            reads: reads.iter().map(|(k, s)| (k.to_vec(), *s)).collect(),
            writes: writes.iter().map(|k| (k.to_vec(), vec![0])).collect(),
        }
    }

    const ALL: CheckerPolicy = CheckerPolicy {
        fractured: true,
        monotonic: true,
    };

    #[test]
    fn flags_fractured_read() {
        let mut ck = StreamingChecker::new(ALL);
        // T1 writes x and y at stamp (10,0).
        assert!(ck
            .observe(&commit((10, 0), 0, &[], &[b"x", b"y"]))
            .is_none());
        // Reader sees x from T1 but y at the older (3,0): fractured.
        let v = ck.observe(&commit((20, 1), 1, &[(b"x", (10, 0)), (b"y", (3, 0))], &[]));
        assert!(
            matches!(
                v,
                Some(ObsViolation::FracturedRead {
                    writer: (10, 0),
                    ..
                })
            ),
            "{v:?}"
        );
        assert_eq!(ck.fractured_found, 1);
    }

    #[test]
    fn atomic_read_sets_pass() {
        let mut ck = StreamingChecker::new(ALL);
        ck.observe(&commit((10, 0), 0, &[], &[b"x", b"y"]));
        // Reader sees both keys from T1: atomic, fine.
        let v = ck.observe(&commit(
            (20, 1),
            1,
            &[(b"x", (10, 0)), (b"y", (10, 0))],
            &[],
        ));
        assert!(v.is_none());
        // Stale-but-atomic older snapshot is also fine for fractured
        // reads (fresh session, so monotonicity is not in play).
        let v = ck.observe(&commit((21, 2), 2, &[(b"x", (0, 0)), (b"y", (0, 0))], &[]));
        assert!(v.is_none());
        assert_eq!(ck.violations(), 0);
    }

    #[test]
    fn own_writes_exempt() {
        let mut ck = StreamingChecker::new(ALL);
        ck.observe(&commit((10, 0), 0, &[], &[b"x", b"y"]));
        // Reader's read of y observed its own stamp (read-your-writes
        // rewrite): exempt even though (5,1) < (10,0) would otherwise trip.
        let v = ck.observe(&commit(
            (5, 1),
            1,
            &[(b"x", (10, 0)), (b"y", (5, 1))],
            &[b"y"],
        ));
        assert!(v.is_none(), "{v:?}");
    }

    #[test]
    fn unknown_writer_is_skipped() {
        let mut ck = StreamingChecker::new(ALL);
        // (10,0) never registered — reads from it are unverifiable.
        let v = ck.observe(&commit((20, 1), 1, &[(b"x", (10, 0)), (b"y", (3, 0))], &[]));
        assert!(v.is_none());
    }

    #[test]
    fn window_eviction_bounds_memory() {
        let mut ck = StreamingChecker::new(ALL);
        let writers = CHECKER_WINDOW as u64 + 3;
        for i in 0..writers {
            ck.observe(&commit((10 + i, 0), 0, &[], &[b"x", b"y"]));
        }
        assert_eq!(ck.evicted_writers, 3);
        // The evicted first writer is now unknown: no false report, the
        // miss is counted instead.
        let v = ck.observe(&commit((99, 1), 1, &[(b"x", (10, 0)), (b"y", (3, 0))], &[]));
        assert!(v.is_none());
        // A windowed writer still trips it.
        let v = ck.observe(&commit(
            (100, 1),
            1,
            &[(b"x", (10 + writers - 1, 0)), (b"y", (3, 0))],
            &[],
        ));
        assert!(v.is_some());
    }

    #[test]
    fn flags_non_monotonic_session_read() {
        let mut ck = StreamingChecker::new(ALL);
        assert!(ck
            .observe(&commit((10, 0), 3, &[(b"k", (8, 0))], &[]))
            .is_none());
        // Same session later observes an older version of k.
        let v = ck.observe(&commit((12, 0), 3, &[(b"k", (4, 0))], &[]));
        assert!(
            matches!(v, Some(ObsViolation::NonMonotonicRead { session: 3, .. })),
            "{v:?}"
        );
        // A different session reading old k is fine.
        assert!(ck
            .observe(&commit((13, 0), 4, &[(b"k", (4, 0))], &[]))
            .is_none());
        assert_eq!(ck.non_monotonic_found, 1);
    }

    #[test]
    fn policy_gates_checks() {
        let mut ck = StreamingChecker::new(CheckerPolicy {
            fractured: false,
            monotonic: false,
        });
        ck.observe(&commit((10, 0), 0, &[], &[b"x", b"y"]));
        let v = ck.observe(&commit((20, 1), 1, &[(b"x", (10, 0)), (b"y", (3, 0))], &[]));
        assert!(v.is_none());
        assert_eq!(ck.violations(), 0);
    }
}
