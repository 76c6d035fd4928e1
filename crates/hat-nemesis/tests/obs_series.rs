//! Time-sliced telemetry under faults (PR 10): the per-window series
//! with embedded fault marks must show the paper's availability split —
//! HAT engines keep committing *inside* a split-brain partition while
//! master/2PL write throughput drops to zero and recovers after the
//! heal — and the whole telemetry pipeline must stay deterministic and
//! quiet (no streaming-checker false alarms) across the catalog.

use hat_core::{ProtocolKind, ReadMode};
use hat_nemesis::{run, NemesisOpts, SplitBrain};

const SEED: u64 = 0xBAD_CAFE;

fn opts() -> NemesisOpts {
    NemesisOpts {
        seed: SEED,
        ..NemesisOpts::default()
    }
}

/// The split-brain partition window as the series itself reports it:
/// `(begin_us, end_us)` of the single partition mark pair. Taken from
/// the marks rather than the schedule because slow engines (2PL burning
/// lock timeouts) reach the injection instant later in virtual time.
fn marked_window(r: &hat_nemesis::NemesisReport) -> (u64, u64) {
    let begin = r
        .series
        .marks
        .iter()
        .find(|m| m.begin && m.label.starts_with("partition"))
        .expect("partition begin mark")
        .t_us;
    let end = r
        .series
        .marks
        .iter()
        .find(|m| !m.begin && m.label.starts_with("partition"))
        .expect("partition end mark")
        .t_us;
    (begin, end)
}

/// One sample window of slack past the injection mark: the first
/// window *ending* inside the partition still contains commits from
/// just before it opened.
const SLACK_US: u64 = 20_000;

#[test]
fn split_brain_availability_split_is_visible_per_window() {
    for protocol in ProtocolKind::ALL {
        let r = run(protocol, &SplitBrain, &opts());
        let (begin, end) = marked_window(&r);
        assert!(end > begin, "{protocol:?}: unordered partition marks");
        assert!(
            r.series.marks_paired(&[]),
            "{protocol:?}: unpaired fault marks in {:?}",
            r.series.marks
        );
        let inside = r.series.writes_committed_in(begin + SLACK_US, end);
        let after = r.series.writes_committed_in(end, u64::MAX);
        // §6: serializability and linearizable master reads cannot
        // be HAT — with every workload pair's masters straddling the
        // cut, not one write commits inside the window...
        if !protocol.model(ReadMode::Batched).hat_achievable() {
            assert_eq!(
                inside, 0,
                "[seed={SEED:#x}] {protocol:?}: wrote through a total partition"
            );
            // ...but the engine recovers once the partition heals.
            assert!(
                after > 0,
                "[seed={SEED:#x}] {protocol:?}: no write committed after the heal"
            );
        } else {
            // The HAT engines keep committing writes throughout.
            assert!(
                inside > 0,
                "[seed={SEED:#x}] {protocol:?}: HAT engine starved inside the \
                 partition (series {:?})",
                r.series.points.len()
            );
        }
        assert_eq!(
            r.stream_violations, 0,
            "[seed={SEED:#x}] {protocol:?}: streaming checker tripped at its \
             advertised level"
        );
        assert!(r.ok(), "[seed={SEED:#x}] {protocol:?}: claims failed");
    }
}

#[test]
fn series_timestamps_are_monotone_and_unavailability_totals_match() {
    for protocol in [ProtocolKind::Eventual, ProtocolKind::TwoPhaseLocking] {
        let r = run(protocol, &SplitBrain, &opts());
        for w in r.series.points.windows(2) {
            assert!(
                w[1].t_us > w[0].t_us,
                "{protocol:?}: non-monotone window timestamps"
            );
        }
        let unavailable: u64 = r.series.points.iter().map(|p| p.unavailable).sum();
        assert_eq!(
            unavailable, r.unavailable,
            "{protocol:?}: series unavailability disagrees with the run total"
        );
        let committed: u64 = r.series.points.iter().map(|p| p.committed).sum();
        assert_eq!(
            committed, r.committed,
            "{protocol:?}: series throughput disagrees with the run total"
        );
    }
}

/// t-visibility: the probe pair must resolve a finite staleness
/// distribution for the weak engines even while a partition delays
/// remote visibility (crashed or cut replicas simply resolve later).
#[test]
fn staleness_probes_resolve_under_the_split() {
    for protocol in [ProtocolKind::Eventual, ProtocolKind::ReadCommitted] {
        let r = run(protocol, &SplitBrain, &opts());
        let p = r
            .staleness
            .unwrap_or_else(|| panic!("{protocol:?}: no probe resolved"));
        assert!(p.count > 0);
        assert!(
            p.max.is_finite(),
            "{protocol:?}: infinite staleness measured"
        );
        // Replication through a 300ms partition plus anti-entropy heal
        // keeps worst-case visibility bounded well under the run tail.
        assert!(
            p.max < 5_000.0,
            "{protocol:?}: staleness max {} ms exceeds the heal tail",
            p.max
        );
    }
}

/// Same-seed runs reproduce the telemetry byte for byte — series,
/// registry exposition and JSON exports included (the report equality
/// in the conformance suite covers the structs; this pins the exports).
#[test]
fn same_seed_split_brain_telemetry_is_byte_identical() {
    let a = run(ProtocolKind::Mav, &SplitBrain, &opts());
    let b = run(ProtocolKind::Mav, &SplitBrain, &opts());
    assert_eq!(a, b, "same-seed reports diverged");
    assert_eq!(a.series.to_json(), b.series.to_json());
    assert_eq!(a.registry.prometheus(), b.registry.prometheus());
    assert_eq!(a.registry.to_json(), b.registry.to_json());
}
