//! History digests pinned across refactors of the client.
//!
//! `same_seed_runs_are_bit_identical` compares a run with itself, so it
//! cannot see a behaviour change that lands with the code change. This
//! suite hashes the full recorded history (every `TxnRecord`, Debug
//! bytes → FNV-1a) of all seven engines on six fixed-seed scenarios
//! and compares against digests recorded at the commit *before* the
//! client was split into a protocol-agnostic core plus per-engine client
//! halves. The scenarios are chosen for the paths that refactor rewrote:
//!
//! * `script` — the cross-backend conformance script (simulator and
//!   threaded runtime must both produce the digest);
//! * `reroute` — closed-loop `TxnSource` clients with non-sticky
//!   sessions across a partition-and-heal, so retries re-route;
//! * `get_many` — one-shot multi-key reads (RAMP-Small's native batch,
//!   everyone else's sequential fallback), both backends;
//! * `locks` — a lock timeout and a commit-time `LockCheck` round under
//!   2PL (an ordinary interleaved script for the other engines);
//! * `handoff` — the nemesis shard-handoff schedule (handoff streams
//!   racing the workload; its strided tokens rarely own a hot key);
//! * `cutover` — closed-loop clients while every hot key's token is
//!   handed off under them (`WrongShard` redirects of pending ops and
//!   of commit-phase puts).
//!
//! A digest that moves means recorded behaviour moved: either restore
//! it or justify the new value in the commit that changes the constant.

use hatdb::core::client::TxnSource;
use hatdb::core::{Op, SystemConfig, TxnBackend, TxnOutcome, TxnRecord, TxnSpec};
use hatdb::sim::{Partition, PartitionSchedule, SimDuration, SimTime};
use hatdb::storage::Key;
use hatdb::{
    BuildThreaded, ClusterSpec, DeploymentBuilder, Frontend, ProtocolKind, RetryPolicy,
    RuntimeConfig, SessionLevel, SessionOptions,
};

fn digest(records: &[TxnRecord]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in format!("{records:?}").bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------

fn single_dc(kind: ProtocolKind) -> DeploymentBuilder {
    DeploymentBuilder::new(kind)
        .seed(42)
        .clusters(ClusterSpec::single_dc(2, 3))
        .sessions_per_cluster(1)
}

/// The script of `hat-runtime/tests/conformance.rs`: one session, one op
/// stream, quiesce between transactions — thread scheduling cannot
/// reorder anything, so both backends must record the same bytes.
fn script<F: Frontend>(front: &mut F) -> Vec<TxnRecord> {
    let s = front.open_session(SessionOptions::default());
    front.txn(&s, |t| {
        t.put("acct:a", "100")?;
        t.put("acct:b", "200")
    });
    front.quiesce();
    for round in 0..5 {
        let v = format!("round-{round}");
        front.txn(&s, |t| {
            t.put("acct:a", &v)?;
            t.put("acct:b", &v)?;
            t.put("audit", &v)
        });
        front.quiesce();
        front.txn(&s, |t| Ok((t.get("acct:a")?, t.get("acct:b")?)));
        front.quiesce();
    }
    front.txn(&s, |t| t.scan("acct:"));
    front.quiesce();
    front.take_records()
}

/// One-shot multi-key reads between multi-key writes, with a repeated
/// key and a read-your-writes batch inside a writing transaction.
fn get_many<F: Frontend>(front: &mut F) -> Vec<TxnRecord> {
    let s = front.open_session(SessionOptions {
        level: SessionLevel::Monotonic,
        sticky: true,
    });
    for round in 0..4 {
        let v = format!("v{round}");
        front.txn(&s, |t| {
            t.put("m:a", &v)?;
            t.put("m:b", &v)?;
            t.put("m:c", &v)
        });
        front.quiesce();
        front.txn(&s, |t| t.get_many(&["m:a", "m:b", "m:c", "m:a", "m:none"]));
        front.txn(&s, |t| {
            t.put("m:b", "mine")?;
            let _ = t.get("m:a")?;
            t.get_many(&["m:b", "m:c"])
        });
        front.quiesce();
    }
    front.take_records()
}

/// A fixed plan list per closed-loop client.
struct Plans(std::vec::IntoIter<TxnSpec>);

impl TxnSource for Plans {
    fn next_txn(&mut self, _rng: &mut rand::rngs::StdRng) -> Option<TxnSpec> {
        self.0.next()
    }
}

fn plans(client: usize) -> Box<dyn TxnSource> {
    let key = |i: usize| format!("k{}", i % 5);
    let specs: Vec<TxnSpec> = (0..40)
        .map(|n| {
            let (a, b) = (key(n + client), key(n + client + 2));
            TxnSpec::new(match n % 4 {
                0 => vec![Op::write(&a, &format!("c{client}n{n}")), Op::write(&b, "w")],
                1 => vec![Op::read(&a), Op::read(&b), Op::read(&a)],
                2 => vec![Op::read(&a), Op::write(&b, &format!("c{client}n{n}"))],
                _ => vec![Op::predicate("k"), Op::write(&a, "p")],
            })
        })
        .collect();
    Box::new(Plans(specs.into_iter()))
}

/// Four closed-loop, non-sticky clients over VA+OR; from 30 ms to
/// 400 ms cluster 0's servers are cut off from every client and from
/// cluster 1, so requests routed there are lost and their retries (on
/// a 25 ms backoff) pick a replica again.
fn reroute(kind: ProtocolKind) -> Vec<TxnRecord> {
    let probe = DeploymentBuilder::new(kind)
        .clusters(ClusterSpec::va_or(2))
        .drivers((0..4).map(plans).collect())
        .build();
    let cut: Vec<u32> = probe.layout().servers[0].clone();
    let rest: Vec<u32> = probe.layout().servers[1]
        .iter()
        .chain(&probe.layout().clients)
        .copied()
        .collect();
    drop(probe);

    let mut cfg = SystemConfig::new(kind);
    cfg.lock_timeout = SimDuration::from_millis(300);
    cfg.retry = RetryPolicy {
        base: SimDuration::from_millis(25),
        multiplier: 2,
        max_exponent: 2,
    };
    let mut front = DeploymentBuilder::new(kind)
        .seed(0xD16E57)
        .clusters(ClusterSpec::va_or(2))
        .config(cfg)
        .default_session(SessionOptions {
            level: SessionLevel::None,
            sticky: false,
        })
        .partitions(PartitionSchedule::from_partitions(vec![Partition::new(
            SimTime::ZERO + SimDuration::from_millis(30),
            SimTime::ZERO + SimDuration::from_millis(400),
            cut,
            rest,
        )]))
        .drivers((0..4).map(plans).collect())
        .build();
    front.run_for(SimDuration::from_secs(20));
    assert!(front.aggregate_metrics().retries > 0, "{kind:?}: no retry");
    front.take_records()
}

/// Two sessions interleaved by hand through the per-operation backend
/// interface. Under 2PL: session 1 blocks on session 0's exclusive lock
/// until its lock timeout aborts it, and session 0's commit validates a
/// read lock (`LockCheck`) before flushing its write.
fn locks(kind: ProtocolKind) -> Vec<TxnRecord> {
    let mut cfg = SystemConfig::new(kind);
    cfg.lock_timeout = SimDuration::from_millis(500);
    let mut front = DeploymentBuilder::new(kind)
        .seed(77)
        .clusters(ClusterSpec::va_or(2))
        .sessions_per_cluster(1)
        .config(cfg)
        .build();
    let s0 = front.open_session(SessionOptions::default());
    let s1 = front.open_session(SessionOptions::default());
    let k = |s: &str| Key::from(s.to_owned());
    front.txn(&s0, |t| {
        t.put("l:x", "0")?;
        t.put("l:y", "0")
    });
    front.quiesce();
    for round in 0..3 {
        front.begin(&s0).unwrap();
        let _ = front.exec_get(&s0, k("l:y"));
        let _ = front.exec_put(&s0, k("l:x"), format!("s0r{round}").into());
        front.begin(&s1).unwrap();
        let blocked = front.exec_get(&s1, k("l:x"));
        if blocked.is_ok() {
            let _ = front.exec_put(&s1, k("l:y"), format!("s1r{round}").into());
            let _ = front.commit(&s1);
        } else {
            front.abandon(&s1);
        }
        let _ = front.commit(&s0);
        front.quiesce();
    }
    let records = front.take_records();
    if kind == ProtocolKind::TwoPhaseLocking {
        assert!(
            records
                .iter()
                .any(|r| r.outcome == TxnOutcome::AbortedExternal),
            "2PL: no lock timeout"
        );
    }
    records
}

fn handoff(kind: ProtocolKind) -> Vec<TxnRecord> {
    let schedule = hat_nemesis::standard_catalog()
        .into_iter()
        .find(|n| n.name() == "shard-handoffs")
        .expect("catalog has the handoff schedule");
    hat_nemesis::run(
        kind,
        schedule.as_ref(),
        &hat_nemesis::NemesisOpts::default(),
    )
    .records
}

/// Four closed-loop clients over VA+OR; 40 ms in, the token of every
/// hot key moves to the other shard of its cluster, so requests already
/// routed by the ring are refused and redirected.
fn cutover(kind: ProtocolKind) -> Vec<TxnRecord> {
    let mut front = DeploymentBuilder::new(kind)
        .seed(0xC0707E4)
        .clusters(ClusterSpec::va_or(2))
        .drivers((0..4).map(plans).collect())
        .build();
    front.run_for(SimDuration::from_millis(40));
    for i in 0..5 {
        let ring = front.layout().ring();
        let token = ring.token_of(format!("k{i}").as_bytes());
        let to = (ring.position_of_token(token) + 1) % 2;
        front.begin_handoff(token, to);
    }
    front.run_for(SimDuration::from_secs(20));
    // 2PL is exempt from shard cutover (its lock tables stay pinned).
    assert!(
        front.aggregate_metrics().shard_redirects > 0 || kind == ProtocolKind::TwoPhaseLocking,
        "{kind:?}: no WrongShard redirect"
    );
    front.take_records()
}

// ---------------------------------------------------------------------
// The table
// ---------------------------------------------------------------------

/// `[script, reroute, get_many, locks, handoff, cutover]` per engine, in
/// `ProtocolKind::ALL` order, recorded at the parent of the client
/// refactor (re-pins noted on their rows).
const PINNED: [[u64; 6]; 7] = [
    // Eventual's and master's closed-loop clients send each plan's
    // write set as one round at the plan's start, so their `reroute`
    // and `cutover` digests are re-pinned from the commit that made them
    // do so. The other scenarios drive interactive sessions, whose puts
    // still write through one at a time, and did not move.
    [
        0x532b09067436dcac,
        0xb243f956c99a36b9,
        0x20186945cc3cfbd,
        0xb4635f34de91473e,
        0xa587a4f3fefcfac0,
        0x8cafcdd0ac10144e,
    ],
    [
        0x532b09067436dcac,
        0x2d0cf4cbb4043753,
        0x20186945cc3cfbd,
        0xb4635f34de91473e,
        0x2050c9233f14873c,
        0x3316986aa52d4a6f,
    ],
    [
        0x532b09067436dcac,
        0x752c53f1555e27b2,
        0x20186945cc3cfbd,
        0xb4635f34de91473e,
        0x8afc4aa90c353b95,
        0x1370d3f92074f661,
    ],
    [
        0x532b09067436dcac,
        0x7053c49ba4f52e8f,
        0x20186945cc3cfbd,
        0xb4635f34de91473e,
        0x409108e2b352d8cc,
        0x30cfe31ab75bb5c1,
    ],
    // RAMP-S's closed-loop clients fetch each plan's reads as one
    // GET_ALL batch, so its `reroute` and `cutover` digests are re-pinned
    // from the commit that made them do so. `handoff` drives interactive
    // sessions and did not move.
    [
        0x532b09067436dcac,
        0x53876a0eca14859,
        0x20186945cc3cfbd,
        0xb4635f34de91473e,
        0xb184e29ac3a65c98,
        0x2dcc8c5ac5be88f7,
    ],
    // Master: re-pinned with eventual's row, for the same reason.
    [
        0x532b09067436dcac,
        0x87085e5f7118d318,
        0x20186945cc3cfbd,
        0xf99a3ece78e687f7,
        0x6f3dc35d29a3a6df,
        0x360fc5f0b1b0a008,
    ],
    [
        0x532b09067436dcac,
        0xeb366bc5d916a902,
        0x20186945cc3cfbd,
        0xadc0a216a49e6fa0,
        0xfb3c2eb29e69e576,
        0x5cc6ea997c8fdc94,
    ],
];

/// Runs one scenario (one column of [`PINNED`]) for every engine and
/// compares the digests. One test per scenario, so a failure names the
/// path that moved and the scenarios run in parallel.
fn check_column(column: usize, run: impl Fn(ProtocolKind) -> Vec<TxnRecord>) {
    let got: Vec<u64> = ProtocolKind::ALL
        .iter()
        .map(|&kind| {
            let records = run(kind);
            assert!(!records.is_empty(), "{kind:?}: scenario recorded nothing");
            digest(&records)
        })
        .collect();
    let pinned: Vec<u64> = PINNED.iter().map(|row| row[column]).collect();
    assert_eq!(
        got, pinned,
        "recorded histories moved (rows are ProtocolKind::ALL): {got:#x?}"
    );
}

/// Runs a scripted scenario on the simulator and on the threaded
/// runtime, which must record the same bytes.
fn on_both_backends(
    kind: ProtocolKind,
    sim: fn(&mut hatdb::SimFrontend) -> Vec<TxnRecord>,
    threaded: fn(&mut hatdb::Runtime) -> Vec<TxnRecord>,
) -> Vec<TxnRecord> {
    let on_sim = sim(&mut single_dc(kind).build());
    let on_threads = threaded(&mut single_dc(kind).build_threaded(RuntimeConfig::default()));
    assert_eq!(on_sim, on_threads, "{kind:?}: backends diverged");
    on_sim
}

#[test]
fn script_digests_on_both_backends() {
    check_column(0, |kind| on_both_backends(kind, script, script));
}

#[test]
fn reroute_digests() {
    check_column(1, reroute);
}

#[test]
fn get_many_digests_on_both_backends() {
    check_column(2, |kind| on_both_backends(kind, get_many, get_many));
}

#[test]
fn locks_digests() {
    check_column(3, locks);
}

#[test]
fn handoff_digests() {
    check_column(4, handoff);
}

#[test]
fn cutover_digests() {
    check_column(5, cutover);
}
