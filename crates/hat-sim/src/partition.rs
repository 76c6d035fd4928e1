//! Network partition schedules.
//!
//! The CAP-style availability arguments of the paper (§4, §5.2) hinge on
//! *arbitrary, indefinitely long* partitions between servers. Here a
//! partition is explicit data: a time window during which messages crossing
//! a node-set boundary are dropped. Schedules compose, so experiments can
//! express flapping links, isolated datacenters, or a single stranded
//! client.

use crate::time::SimTime;
use crate::topology::NodeId;
use std::collections::BTreeSet;

/// A single partition event: during `[start, end)` no message may cross
/// between `side_a` and `side_b` (in either direction — or, when
/// `one_way` is set, only from `side_a` toward `side_b`).
///
/// Nodes listed on neither side are unaffected by this partition. `end`
/// may be [`SimTime`]`(u64::MAX)` to model an indefinite partition.
#[derive(Debug, Clone)]
pub struct Partition {
    /// First instant at which the partition is active.
    pub start: SimTime,
    /// First instant at which the partition has healed.
    pub end: SimTime,
    /// One side of the cut.
    pub side_a: BTreeSet<NodeId>,
    /// The other side of the cut.
    pub side_b: BTreeSet<NodeId>,
    /// When set, only `side_a → side_b` traffic is cut; replies still
    /// flow `side_b → side_a`. Models asymmetric link failures (a common
    /// real-world failure mode nemesis schedules exercise).
    pub one_way: bool,
}

impl Partition {
    /// Builds a partition separating `a` from `b` during `[start, end)`.
    pub fn new(
        start: SimTime,
        end: SimTime,
        a: impl IntoIterator<Item = NodeId>,
        b: impl IntoIterator<Item = NodeId>,
    ) -> Self {
        Partition {
            start,
            end,
            side_a: a.into_iter().collect(),
            side_b: b.into_iter().collect(),
            one_way: false,
        }
    }

    /// Builds an asymmetric partition: during `[start, end)` messages
    /// from `from_side` toward `to_side` are dropped, while the reverse
    /// direction stays healthy.
    pub fn one_way(
        start: SimTime,
        end: SimTime,
        from_side: impl IntoIterator<Item = NodeId>,
        to_side: impl IntoIterator<Item = NodeId>,
    ) -> Self {
        Partition {
            start,
            end,
            side_a: from_side.into_iter().collect(),
            side_b: to_side.into_iter().collect(),
            one_way: true,
        }
    }

    /// A partition lasting from `start` forever (never heals).
    pub fn forever(
        start: SimTime,
        a: impl IntoIterator<Item = NodeId>,
        b: impl IntoIterator<Item = NodeId>,
    ) -> Self {
        Self::new(start, SimTime(u64::MAX), a, b)
    }

    /// True if a message sent from `from` to `to` at time `t` crosses this
    /// partition while it is active.
    pub fn blocks(&self, from: NodeId, to: NodeId, t: SimTime) -> bool {
        if t < self.start || t >= self.end {
            return false;
        }
        let a_to_b = self.side_a.contains(&from) && self.side_b.contains(&to);
        if self.one_way {
            return a_to_b;
        }
        a_to_b || (self.side_b.contains(&from) && self.side_a.contains(&to))
    }
}

/// A set of partitions active over a run.
#[derive(Debug, Clone, Default)]
pub struct PartitionSchedule {
    partitions: Vec<Partition>,
}

impl PartitionSchedule {
    /// A schedule with no partitions (a healthy network).
    pub fn none() -> Self {
        Self::default()
    }

    /// Adds a partition to the schedule.
    pub fn add(&mut self, p: Partition) -> &mut Self {
        self.partitions.push(p);
        self
    }

    /// Builds a schedule from a list of partitions.
    pub fn from_partitions(partitions: Vec<Partition>) -> Self {
        PartitionSchedule { partitions }
    }

    /// True if any active partition blocks `from → to` at `t`.
    pub fn blocks(&self, from: NodeId, to: NodeId, t: SimTime) -> bool {
        self.partitions.iter().any(|p| p.blocks(from, to, t))
    }

    /// Number of partition events in the schedule.
    pub fn len(&self) -> usize {
        self.partitions.len()
    }

    /// True if the schedule contains no partitions.
    pub fn is_empty(&self) -> bool {
        self.partitions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn blocks_both_directions_within_window() {
        let p = Partition::new(t(10), t(20), [0, 1], [2, 3]);
        assert!(p.blocks(0, 2, t(10)));
        assert!(p.blocks(3, 1, t(15)));
        assert!(!p.blocks(0, 2, t(9)));
        assert!(!p.blocks(0, 2, t(20))); // end is exclusive
    }

    #[test]
    fn unrelated_nodes_unaffected() {
        let p = Partition::new(t(0), t(100), [0], [1]);
        assert!(!p.blocks(0, 5, t(50)));
        assert!(!p.blocks(5, 6, t(50)));
        // same side communicates freely
        assert!(!p.blocks(0, 0, t(50)));
    }

    #[test]
    fn forever_never_heals() {
        let p = Partition::forever(t(5), [0], [1]);
        assert!(p.blocks(0, 1, SimTime(u64::MAX - 1)));
        assert!(!p.blocks(0, 1, t(4)));
    }

    #[test]
    fn one_way_blocks_single_direction() {
        let p = Partition::one_way(t(10), t(20), [0, 1], [2, 3]);
        // a → b is cut…
        assert!(p.blocks(0, 2, t(10)));
        assert!(p.blocks(1, 3, t(15)));
        // …but b → a flows (the asymmetry under test)
        assert!(!p.blocks(2, 0, t(15)));
        assert!(!p.blocks(3, 1, t(15)));
        // window edges behave like the symmetric case
        assert!(!p.blocks(0, 2, t(9)));
        assert!(!p.blocks(0, 2, t(20)));
        // unrelated nodes unaffected
        assert!(!p.blocks(0, 7, t(15)));
        assert!(!p.blocks(7, 2, t(15)));
    }

    #[test]
    fn one_way_composes_into_symmetric_cut() {
        // Two opposing one-way partitions behave like one symmetric cut.
        let mut s = PartitionSchedule::none();
        s.add(Partition::one_way(t(0), t(10), [0], [1]));
        s.add(Partition::one_way(t(0), t(10), [1], [0]));
        assert!(s.blocks(0, 1, t(5)));
        assert!(s.blocks(1, 0, t(5)));
        assert!(!s.blocks(0, 1, t(10)));
    }

    #[test]
    fn schedule_composes_partitions() {
        let mut s = PartitionSchedule::none();
        assert!(s.is_empty());
        s.add(Partition::new(t(0), t(10), [0], [1]));
        s.add(Partition::new(t(20), t(30), [0], [2]));
        assert_eq!(s.len(), 2);
        assert!(s.blocks(0, 1, t(5)));
        assert!(!s.blocks(0, 1, t(15)));
        assert!(s.blocks(2, 0, t(25)));
        assert!(!s.blocks(1, 2, t(25)));
    }
}
