//! Observability regression net: structured tracing must be (a) seed-
//! deterministic — two same-seed traced runs produce byte-identical
//! event streams — and (b) inert — enabling the sink must not move a
//! single recorded transaction relative to an untraced run. Both are
//! load-bearing: traces are compared across runs to debug nemesis
//! failures, which only works if the trace itself never perturbs the
//! run it describes.

use hat_core::{
    spans, ClusterSpec, DeploymentBuilder, Frontend, ProtocolKind, SessionOptions, SystemConfig,
    TraceEvent, TraceEventKind, TxnRecord,
};

const ENGINES: [ProtocolKind; 4] = [
    ProtocolKind::ReadCommitted,
    ProtocolKind::Mav,
    ProtocolKind::RampSmall,
    ProtocolKind::TwoPhaseLocking,
];

fn builder(kind: ProtocolKind, trace: bool) -> DeploymentBuilder {
    let mut cfg = SystemConfig::new(kind);
    cfg.trace = trace;
    DeploymentBuilder::new(kind)
        .seed(0x7ACE)
        .clusters(ClusterSpec::single_dc(2, 2))
        .sessions_per_cluster(1)
        .config(cfg)
}

/// Mixed scripted workload: writes, reads, a multi-key read and a scan —
/// enough to produce op spans of several kinds (and lock traffic under
/// 2PL) on every engine.
fn run_script(front: &mut hat_core::SimFrontend) -> Vec<TxnRecord> {
    let s = front.open_session(SessionOptions::default());
    front.txn(&s, |t| {
        t.put("tk:a", "1")?;
        t.put("tk:b", "2")
    });
    front.quiesce();
    for round in 0..3 {
        let v = format!("r{round}");
        front.txn(&s, |t| {
            let _ = t.get("tk:a")?;
            t.put("tk:a", &v)?;
            t.put("tk:b", &v)
        });
        front.quiesce();
        front.txn(&s, |t| {
            let _ = t.get_many(&["tk:a", "tk:b"])?;
            Ok(())
        });
        front.quiesce();
    }
    front.txn(&s, |t| t.scan("tk:"));
    front.quiesce();
    front.take_records()
}

fn traced_run(kind: ProtocolKind) -> (Vec<TxnRecord>, Vec<TraceEvent>) {
    let mut front = builder(kind, true).build();
    let records = run_script(&mut front);
    let events = front.trace_events();
    (records, events)
}

#[test]
fn same_seed_traces_are_byte_identical() {
    for kind in ENGINES {
        let (_, a) = traced_run(kind);
        let (_, b) = traced_run(kind);
        assert!(!a.is_empty(), "{kind:?}: traced run produced no events");
        assert_eq!(a, b, "{kind:?}: same-seed traces diverged");
    }
}

#[test]
fn tracing_does_not_perturb_records() {
    for kind in ENGINES {
        let mut plain = builder(kind, false).build();
        let untraced = run_script(&mut plain);
        let (traced, events) = traced_run(kind);
        assert!(!untraced.is_empty());
        assert_eq!(
            untraced, traced,
            "{kind:?}: enabling the trace sink changed the recorded history"
        );
        // ...and the untraced run really recorded nothing.
        assert!(plain.trace_events().is_empty());
        assert!(!events.is_empty());
    }
}

#[test]
fn trace_covers_txn_lifecycle_and_network() {
    let (records, events) = traced_run(ProtocolKind::ReadCommitted);
    let begins = events
        .iter()
        .filter(|e| matches!(e.kind, TraceEventKind::TxnBegin { .. }))
        .count();
    let commits = events
        .iter()
        .filter(|e| matches!(e.kind, TraceEventKind::TxnCommit { .. }))
        .count();
    assert_eq!(commits as u64, records.len() as u64);
    assert!(begins >= commits);
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, TraceEventKind::MsgSend { bytes, .. } if bytes > 0)),
        "network sends must appear with byte counts"
    );
    assert!(events
        .iter()
        .any(|e| matches!(e.kind, TraceEventKind::MsgRecv { .. })));
    assert!(events
        .iter()
        .any(|e| matches!(e.kind, TraceEventKind::AntiEntropyRound { .. })));
}

#[test]
fn lock_events_under_two_phase_locking() {
    let (_, events) = traced_run(ProtocolKind::TwoPhaseLocking);
    assert!(events
        .iter()
        .any(|e| matches!(e.kind, TraceEventKind::LockWait { .. })));
    assert!(events
        .iter()
        .any(|e| matches!(e.kind, TraceEventKind::LockGrant { .. })));
}

#[test]
fn spans_reconstruct_complete_transactions() {
    let (records, events) = traced_run(ProtocolKind::Mav);
    let tree = spans(&events);
    let complete = tree.iter().filter(|s| s.is_complete()).count();
    assert!(
        complete >= records.len(),
        "expected at least {} complete spans, got {complete}",
        records.len()
    );
    assert!(
        tree.iter().any(|s| !s.ops.is_empty()),
        "spans must carry op children"
    );
}

#[test]
fn chrome_json_export_has_span_rows() {
    let mut front = builder(ProtocolKind::ReadCommitted, true).build();
    let _ = run_script(&mut front);
    let json = front.trace_sink().to_chrome_json();
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.trim_end().ends_with("]}"), "truncated export");
    assert!(json.contains("\"ph\":\"X\""), "no complete-span rows");
    assert!(json.contains("\"name\":\"txn "));
}

#[test]
fn crash_and_restart_appear_in_the_timeline() {
    let mut front = builder(ProtocolKind::Eventual, true).build();
    let s = front.open_session(SessionOptions::default());
    front.txn(&s, |t| t.put("ck", "v"));
    front.quiesce();
    let victim = front.layout().servers[0][0];
    front.crash_server(victim, 0);
    front.restart_server(victim);
    let events = front.trace_events();
    let crash = events
        .iter()
        .position(|e| e.kind == TraceEventKind::Crash && e.node == victim);
    let restart = events
        .iter()
        .position(|e| e.kind == TraceEventKind::Restart && e.node == victim);
    match (crash, restart) {
        (Some(c), Some(r)) => assert!(c < r, "crash must precede restart"),
        other => panic!("missing crash/restart events: {other:?}"),
    }
}
