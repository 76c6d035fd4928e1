//! Table 3's models as sets of prohibited phenomena (Appendix A.3).

use crate::dsg::{Dsg, History};
use crate::phenomena::{self, Phenomenon, Violation};
use hat_core::taxonomy::Model;
use hat_core::TxnRecord;
use std::fmt;

/// The phenomena a history must not exhibit to hold `model`
/// (Definitions 17, 21, 23, 25, 27, 29, 31, 33, 35, 36, 37, 40, 41).
pub fn prohibited(model: Model) -> &'static [Phenomenon] {
    use Phenomenon::*;
    match model {
        // PL-1.
        Model::ReadUncommitted => &[G0],
        // PL-2.
        Model::ReadCommitted => &[G0, G1a, G1b, G1c],
        Model::ItemCutIsolation => &[Imp],
        Model::PredicateCutIsolation => &[Imp, Pmp],
        // Read Committed + OTV.
        Model::MonotonicAtomicView => &[G0, G1a, G1b, G1c, Otv],
        // The RAMP paper's guarantee: no fractured reads (which
        // subsumes OTV).
        Model::ReadAtomic => &[G0, G1a, G1b, G1c, Otv, FracturedReads],
        Model::MonotonicReads => &[NonMonotonicReads],
        Model::MonotonicWrites => &[NonMonotonicWrites],
        Model::WritesFollowReads => &[Mrwd],
        Model::ReadYourWrites => &[MissingYourWrites],
        Model::Pram => &[NonMonotonicReads, NonMonotonicWrites, MissingYourWrites],
        Model::Causal => &[
            NonMonotonicReads,
            NonMonotonicWrites,
            MissingYourWrites,
            Mrwd,
        ],
        // Figure 2's CS → MAV edge, plus Table 3's † (Lost Update).
        Model::CursorStability => &[G0, G1a, G1b, G1c, Otv, LostUpdate],
        // Definition 40.
        Model::SnapshotIsolation => &[G0, G1a, G1b, G1c, Pmp, Otv, FracturedReads, LostUpdate],
        // Definition 41. RR dominates MAV and RA in the Figure 2
        // lattice, so its set includes their phenomena.
        Model::RepeatableRead => &[G0, G1a, G1b, G1c, Otv, FracturedReads, WriteSkew],
        // A recorded history has no real time, so the ⊕ (recency)
        // rows are checked only for what the record shows.
        Model::Recency | Model::Safe | Model::Regular | Model::Linearizability => &[G0],
        // Everything above; Strong-1SR adds only recency.
        Model::OneCopySerializability | Model::StrongOneCopySerializability => &[
            G0,
            G1a,
            G1b,
            G1c,
            Imp,
            Pmp,
            Otv,
            FracturedReads,
            NonMonotonicReads,
            NonMonotonicWrites,
            MissingYourWrites,
            Mrwd,
            LostUpdate,
            WriteSkew,
        ],
    }
}

/// Result of checking a history.
#[derive(Debug, Clone)]
pub struct Report {
    /// The model checked.
    pub level: Model,
    /// Committed transactions examined.
    pub txns_checked: usize,
    /// Violations of the model's prohibited phenomena.
    pub violations: Vec<Violation>,
}

impl Report {
    /// True if the history holds the model.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:?}: {} txns, {} violations",
            self.level,
            self.txns_checked,
            self.violations.len()
        )?;
        for v in &self.violations {
            writeln!(f, "  {v}")?;
        }
        Ok(())
    }
}

/// Detects a single phenomenon over a prepared history.
pub fn detect(phenomenon: Phenomenon, history: &History, dsg: &Dsg) -> Vec<Violation> {
    match phenomenon {
        Phenomenon::G0 => phenomena::g0(history, dsg),
        Phenomenon::G1a => phenomena::g1a(history),
        Phenomenon::G1b => phenomena::g1b(history),
        Phenomenon::G1c => phenomena::g1c(history, dsg),
        Phenomenon::Imp => phenomena::imp(history),
        Phenomenon::Pmp => phenomena::pmp(history),
        Phenomenon::Otv => phenomena::otv(history),
        Phenomenon::FracturedReads => phenomena::fractured_reads(history),
        Phenomenon::NonMonotonicReads => phenomena::non_monotonic_reads(history),
        Phenomenon::NonMonotonicWrites => phenomena::non_monotonic_writes(history),
        Phenomenon::MissingYourWrites => phenomena::missing_your_writes(history),
        Phenomenon::Mrwd => phenomena::mrwd(history),
        Phenomenon::LostUpdate => phenomena::lost_update(history, dsg),
        Phenomenon::WriteSkew => phenomena::write_skew(history, dsg),
    }
}

/// Checks `records` against `level`.
pub fn check(records: Vec<TxnRecord>, level: Model) -> Report {
    let history = History::new(records);
    let dsg = Dsg::build(&history);
    let mut violations = Vec::new();
    for &p in prohibited(level) {
        violations.extend(detect(p, &history, &dsg));
    }
    Report {
        level,
        txns_checked: history.len(),
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use hat_core::{OpRecord, Timestamp, TxnOutcome};
    use hat_storage::Key;

    fn lost_update_history() -> Vec<TxnRecord> {
        let read = |k: &str, o| OpRecord::Read {
            key: Key::from(k.to_owned()),
            observed: o,
            value: Bytes::new(),
        };
        let write = |k: &str, v: &str| OpRecord::Write {
            key: Key::from(k.to_owned()),
            value: Bytes::from(v.to_owned()),
        };
        vec![
            TxnRecord {
                id: Timestamp::new(1, 1),
                session: 1,
                session_seq: 0,
                ops: vec![read("x", Timestamp::INITIAL), write("x", "120")],
                outcome: TxnOutcome::Committed,
            },
            TxnRecord {
                id: Timestamp::new(1, 2),
                session: 2,
                session_seq: 0,
                ops: vec![read("x", Timestamp::INITIAL), write("x", "130")],
                outcome: TxnOutcome::Committed,
            },
        ]
    }

    #[test]
    fn si_catches_lost_update_but_rc_does_not() {
        let rc = check(lost_update_history(), Model::ReadCommitted);
        assert!(rc.ok(), "RC permits lost update: {rc}");
        let si = check(lost_update_history(), Model::SnapshotIsolation);
        assert!(!si.ok(), "SI prohibits lost update");
        assert!(si
            .violations
            .iter()
            .any(|v| v.phenomenon == Phenomenon::LostUpdate));
    }

    /// The stale sibling is read *before* the fractured transaction's
    /// write is observed: order-aware OTV (hence MAV) passes, but the
    /// read set still exposes a partial write-set — only Read Atomic
    /// catches it.
    fn backward_fracture_history() -> Vec<TxnRecord> {
        let read = |k: &str, o, v: &str| OpRecord::Read {
            key: Key::from(k.to_owned()),
            observed: o,
            value: Bytes::from(v.to_owned()),
        };
        let write = |k: &str, v: &str| OpRecord::Write {
            key: Key::from(k.to_owned()),
            value: Bytes::from(v.to_owned()),
        };
        let writer = Timestamp::new(5, 1);
        vec![
            TxnRecord {
                id: writer,
                session: 1,
                session_seq: 0,
                ops: vec![write("x", "new"), write("y", "new")],
                outcome: TxnOutcome::Committed,
            },
            TxnRecord {
                id: Timestamp::new(6, 2),
                session: 2,
                session_seq: 0,
                // y read old first, then x from the writer: fractured.
                ops: vec![read("y", Timestamp::INITIAL, ""), read("x", writer, "new")],
                outcome: TxnOutcome::Committed,
            },
        ]
    }

    #[test]
    fn read_atomic_catches_backward_fractures_mav_misses() {
        let mav = check(backward_fracture_history(), Model::MonotonicAtomicView);
        assert!(mav.ok(), "OTV is order-aware and misses this: {mav}");
        let ra = check(backward_fracture_history(), Model::ReadAtomic);
        assert!(!ra.ok(), "Read Atomic prohibits any partial write-set");
        assert!(ra
            .violations
            .iter()
            .all(|v| v.phenomenon == Phenomenon::FracturedReads));
    }

    #[test]
    fn own_write_reads_are_not_fractures() {
        // A txn that wrote y itself, read it back, and read an older x
        // from a txn that also wrote y: read-your-writes wins, no flag.
        let own = Timestamp::new(11, 2);
        let writer = Timestamp::new(9, 1);
        let h = vec![
            TxnRecord {
                id: writer,
                session: 1,
                session_seq: 0,
                ops: vec![
                    OpRecord::Write {
                        key: Key::from("x"),
                        value: Bytes::from("w"),
                    },
                    OpRecord::Write {
                        key: Key::from("y"),
                        value: Bytes::from("w"),
                    },
                ],
                outcome: TxnOutcome::Committed,
            },
            TxnRecord {
                id: own,
                session: 2,
                session_seq: 0,
                ops: vec![
                    OpRecord::Write {
                        key: Key::from("y"),
                        value: Bytes::from("mine"),
                    },
                    OpRecord::Read {
                        key: Key::from("y"),
                        observed: own,
                        value: Bytes::from("mine"),
                    },
                    OpRecord::Read {
                        key: Key::from("x"),
                        observed: writer,
                        value: Bytes::from("w"),
                    },
                ],
                outcome: TxnOutcome::Committed,
            },
        ];
        let ra = check(h, Model::ReadAtomic);
        assert!(ra.ok(), "{ra}");
    }

    #[test]
    fn serializable_prohibits_everything() {
        assert_eq!(prohibited(Model::OneCopySerializability).len(), 14);
    }

    #[test]
    fn report_display_is_readable() {
        let r = check(lost_update_history(), Model::SnapshotIsolation);
        let s = r.to_string();
        assert!(s.contains("Lost Update"), "{s}");
    }

    #[test]
    fn empty_history_is_clean_everywhere() {
        for level in Model::ALL {
            assert!(check(Vec::new(), level).ok());
        }
    }

    /// Every Table 3 row's phenomenon set, pinned.
    #[test]
    fn prohibited_sets_are_pinned_for_every_model() {
        use Phenomenon::*;
        let rc = vec![G0, G1a, G1b, G1c];
        let mav = [&rc[..], &[Otv]].concat();
        let ra = [&mav[..], &[FracturedReads]].concat();
        let one_sr = prohibited(Model::OneCopySerializability).to_vec();
        let expected: Vec<(Model, Vec<Phenomenon>)> = vec![
            (Model::ReadUncommitted, vec![G0]),
            (Model::ReadCommitted, rc.clone()),
            (Model::ItemCutIsolation, vec![Imp]),
            (Model::PredicateCutIsolation, vec![Imp, Pmp]),
            (Model::MonotonicAtomicView, mav.clone()),
            (Model::ReadAtomic, ra.clone()),
            (Model::MonotonicReads, vec![NonMonotonicReads]),
            (Model::MonotonicWrites, vec![NonMonotonicWrites]),
            (Model::WritesFollowReads, vec![Mrwd]),
            (Model::ReadYourWrites, vec![MissingYourWrites]),
            (
                Model::Pram,
                vec![NonMonotonicReads, NonMonotonicWrites, MissingYourWrites],
            ),
            (
                Model::Causal,
                vec![
                    NonMonotonicReads,
                    NonMonotonicWrites,
                    MissingYourWrites,
                    Mrwd,
                ],
            ),
            (Model::CursorStability, [&mav[..], &[LostUpdate]].concat()),
            (
                Model::SnapshotIsolation,
                vec![G0, G1a, G1b, G1c, Pmp, Otv, FracturedReads, LostUpdate],
            ),
            (Model::RepeatableRead, [&ra[..], &[WriteSkew]].concat()),
            (Model::OneCopySerializability, one_sr.clone()),
            (Model::Recency, vec![G0]),
            (Model::Safe, vec![G0]),
            (Model::Regular, vec![G0]),
            (Model::Linearizability, vec![G0]),
            (Model::StrongOneCopySerializability, one_sr),
        ];
        let models: Vec<Model> = expected.iter().map(|(m, _)| *m).collect();
        assert_eq!(models, Model::ALL.to_vec());
        for (model, set) in expected {
            assert_eq!(prohibited(model), &set[..], "{model}");
        }
    }

    /// The streaming checker's policy and the offline checker's sets
    /// are both derived from `ProtocolKind::model`: they agree on every
    /// engine, and the policy never checks a phenomenon that either
    /// read mode's model permits.
    #[test]
    fn checker_policy_agrees_with_prohibited_sets() {
        use hat_core::{ProtocolKind, ReadMode};
        for kind in ProtocolKind::ALL {
            let policy = kind.checker_policy();
            let sequential = prohibited(kind.model(ReadMode::Sequential));
            assert_eq!(
                policy.fractured,
                sequential.contains(&Phenomenon::FracturedReads),
                "{kind:?}"
            );
            assert_eq!(
                policy.monotonic,
                sequential.contains(&Phenomenon::NonMonotonicReads),
                "{kind:?}"
            );
            for reads in [ReadMode::Batched, ReadMode::Sequential] {
                let set = prohibited(kind.model(reads));
                assert!(
                    !policy.fractured || set.contains(&Phenomenon::FracturedReads),
                    "{kind:?} {reads:?}"
                );
                assert!(
                    !policy.monotonic || set.contains(&Phenomenon::NonMonotonicReads),
                    "{kind:?} {reads:?}"
                );
            }
        }
    }
}
