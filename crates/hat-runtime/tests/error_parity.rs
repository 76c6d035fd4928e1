//! Error-path parity across backends: the same scripts, run through the
//! simulator and the threaded runtime, fail with the same `HatError`
//! variant at the same operation and record the same outcomes.
//!
//! Both backends run every interactive operation through one command
//! path (`Client::start_cmd`, then `Client::finish_cmd`) and differ only
//! in transport and deadline. The cases here are the paths where
//! something other than a reply ends an operation: the operation
//! deadline, a 2PL lock timeout, the closure's own error, and a batch
//! read the protocol cannot serve natively. Each case pins the expected
//! log, so a change to the shared path that breaks both backends alike
//! still fails.

use bytes::Bytes;
use hat_core::frontend::drive_txn;
use hat_core::{
    ClusterSpec, DeploymentBuilder, Frontend, HatError, ProtocolKind, Session, SessionOptions,
    SystemConfig, TxnBackend,
};
use hat_runtime::{BuildThreaded, RuntimeConfig};
use hat_sim::SimDuration;
use std::fmt::Debug;

/// A script over two sessions, logging one line per step.
type Script = fn(&mut dyn TxnBackend, &[Session]) -> Vec<String>;

struct Case {
    name: &'static str,
    kind: ProtocolKind,
    lock_timeout_ms: u64,
    op_deadline_ms: u64,
    script: Script,
    expected: &'static [&'static str],
}

const CASES: &[Case] = &[
    Case {
        name: "2PL lock wait longer than the operation deadline",
        kind: ProtocolKind::TwoPhaseLocking,
        lock_timeout_ms: 10_000,
        op_deadline_ms: 300,
        script: lock_wait,
        expected: &[
            "holder put x: Ok(())",
            "waiter get x: Unavailable",
            "waiter txn: Unavailable",
            "holder commit: Ok(())",
            "reads: 0 single, 0 batched",
            "record 1#0: Committed",
            "record 2#0: AbortedExternal",
        ],
    },
    Case {
        name: "2PL lock timeout shorter than the operation deadline",
        kind: ProtocolKind::TwoPhaseLocking,
        lock_timeout_ms: 100,
        op_deadline_ms: 30_000,
        script: lock_wait,
        expected: &[
            "holder put x: Ok(())",
            "waiter get x: ExternalAbort",
            "waiter txn: ExternalAbort",
            "holder commit: Ok(())",
            "reads: 0 single, 0 batched",
            "record 1#0: Committed",
            "record 2#0: AbortedExternal",
        ],
    },
    Case {
        name: "closure error",
        kind: ProtocolKind::ReadCommitted,
        lock_timeout_ms: 10_000,
        op_deadline_ms: 30_000,
        script: closure_error,
        expected: &[
            "put a: Ok(())",
            "txn: InternalAbort",
            "reads: 0 single, 0 batched",
            "record 1#0: AbortedInternal",
        ],
    },
    Case {
        name: "get_many without a native batch read",
        kind: ProtocolKind::ReadCommitted,
        lock_timeout_ms: 10_000,
        op_deadline_ms: 30_000,
        script: get_many,
        expected: &[
            "write a, b: Ok(())",
            "get_many: Ok([Some(\"1\"), Some(\"2\"), None])",
            "reads: 3 single, 0 batched",
            "record 1#0: Committed",
            "record 1#1: Committed",
        ],
    },
    Case {
        name: "get_many on RAMP-Small's native batch read",
        kind: ProtocolKind::RampSmall,
        lock_timeout_ms: 10_000,
        op_deadline_ms: 30_000,
        script: get_many,
        expected: &[
            "write a, b: Ok(())",
            "get_many: Ok([Some(\"1\"), Some(\"2\"), None])",
            "reads: 0 single, 3 batched",
            "record 1#0: Committed",
            "record 1#1: Committed",
        ],
    },
];

/// Logs `step`'s result — its value, or the error's variant — and
/// passes it on.
fn note<T: Debug>(
    log: &mut Vec<String>,
    step: &str,
    r: Result<T, HatError>,
) -> Result<T, HatError> {
    let line = match &r {
        Ok(v) => format!("{step}: Ok({v:?})"),
        Err(HatError::Unavailable { .. }) => format!("{step}: Unavailable"),
        Err(HatError::ExternalAbort { .. }) => format!("{step}: ExternalAbort"),
        Err(HatError::InternalAbort { .. }) => format!("{step}: InternalAbort"),
        Err(HatError::InvalidDeployment { .. }) => format!("{step}: InvalidDeployment"),
    };
    log.push(line);
    r
}

/// The holder takes `x`'s exclusive lock and keeps its transaction open
/// while the waiter's transaction reads `x`.
fn lock_wait(b: &mut dyn TxnBackend, s: &[Session]) -> Vec<String> {
    let (holder, waiter) = (&s[0], &s[1]);
    let mut log = Vec::new();
    b.begin(holder).unwrap();
    let put = b.exec_put(holder, "x".into(), Bytes::from_static(b"h"));
    let _ = note(&mut log, "holder put x", put);
    let waited = drive_txn(b, waiter, |t| {
        note(&mut log, "waiter get x", t.get("x"))?;
        note(&mut log, "waiter put y", t.put("y", "w"))
    });
    let _ = note(&mut log, "waiter txn", waited);
    let _ = note(&mut log, "holder commit", b.commit(holder));
    log
}

fn closure_error(b: &mut dyn TxnBackend, s: &[Session]) -> Vec<String> {
    let mut log = Vec::new();
    let done = drive_txn(b, &s[0], |t| {
        note(&mut log, "put a", t.put("a", "1"))?;
        Err::<(), _>(HatError::InternalAbort {
            reason: "the closure gave up".into(),
        })
    });
    let _ = note(&mut log, "txn", done);
    log
}

fn get_many(b: &mut dyn TxnBackend, s: &[Session]) -> Vec<String> {
    let mut log = Vec::new();
    let wrote = drive_txn(b, &s[0], |t| {
        t.put("a", "1")?;
        t.put("b", "2")
    });
    let _ = note(&mut log, "write a, b", wrote);
    let read = drive_txn(b, &s[0], |t| t.get_many(&["a", "b", "none"]));
    let _ = note(&mut log, "get_many", read);
    log
}

fn deployment(case: &Case) -> DeploymentBuilder {
    let mut cfg = SystemConfig::new(case.kind);
    cfg.lock_timeout = SimDuration::from_millis(case.lock_timeout_ms);
    cfg.op_deadline = SimDuration::from_millis(case.op_deadline_ms);
    DeploymentBuilder::new(case.kind)
        .seed(29)
        .clusters(ClusterSpec::single_dc(1, 2))
        .sessions_per_cluster(2)
        .config(cfg)
}

/// Runs `script` over two fresh sessions, then logs how the reads were
/// served and every recorded outcome.
fn observe<F: Frontend>(mut front: F, script: Script) -> Vec<String> {
    let sessions = [
        front.open_session(SessionOptions::default()),
        front.open_session(SessionOptions::default()),
    ];
    let mut log = script(&mut front, &sessions);
    let m = front.aggregate_metrics();
    log.push(format!(
        "reads: {} single, {} batched",
        m.get_latency_ms.count(),
        m.get_many_latency_ms.count()
    ));
    for r in front.take_records() {
        log.push(format!(
            "record {}#{}: {:?}",
            r.session, r.session_seq, r.outcome
        ));
    }
    log
}

#[test]
fn error_paths_fail_alike_on_both_backends() {
    for case in CASES {
        let sim = observe(deployment(case).build(), case.script);
        assert_eq!(sim, case.expected, "{}: simulator", case.name);
        let threaded = observe(
            deployment(case).build_threaded(RuntimeConfig::default()),
            case.script,
        );
        assert_eq!(threaded, case.expected, "{}: threaded runtime", case.name);
    }
}
