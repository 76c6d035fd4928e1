//! Conformance suite for the pluggable `ProtocolEngine` layer and the
//! backend-agnostic `Frontend` surface.
//!
//! The same read/write/commit script runs against all seven built-in
//! engines (eventual, RC, MAV, RAMP-Fast, RAMP-Small, master, 2PL) —
//! through the *simulator* frontend and through the *threaded* frontend
//! — and each recorded history is checked against the engine's Table 3
//! model (`ProtocolKind::model`) with `hat-history`'s phenomenon sets.
//! The README's engine table is checked against the same models. The
//! script is written once, against `impl Frontend`, which is the point:
//! HAT guarantees are client-observable properties independent of the
//! execution substrate.
//!
//! The suite also proves the engine layer is actually pluggable: a stub
//! extra engine — server half *and* client half — defined entirely in
//! this test file, drives the full stack through
//! `DeploymentBuilder::engine_factory` — no edits to `server.rs`, the
//! client core (or any other crate) required.

use hatdb::core::protocol::{ClientProtocol, ProtocolEngine, Step};
use hatdb::core::taxonomy::Availability;
use hatdb::core::{
    ClientCore, ClusterSpec, DeploymentBuilder, Msg, ProtocolKind, ReadMode, SessionLevel,
    SessionOptions, TxnOutcome, TxnRecord,
};
use hatdb::history::{check, Model};
use hatdb::sim::Ctx;
use hatdb::sim::{Partition, PartitionSchedule, SimDuration, SimTime};
use hatdb::storage::Key;
use hatdb::{BuildThreaded, Frontend, RuntimeConfig, Session};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The shared conformance script: several sessions interleave multi-key
/// read-modify-write transactions and repeat reads over a small hot
/// keyspace, with replication delays in between so readers observe mixed
/// staleness. Identical for every engine and every backend.
fn conformance_script<F: Frontend>(front: &mut F, sessions: &[Session]) -> Vec<TxnRecord> {
    for round in 0..5u32 {
        for (ci, s) in sessions.iter().enumerate() {
            let a = format!("item{}", (round as usize + ci) % 4);
            let b = format!("item{}", (round as usize + ci + 1) % 4);
            front.txn(s, |t| {
                let _ = t.get(&a)?;
                t.put(&a, &format!("r{round}c{ci}a"))?;
                t.put(&b, &format!("r{round}c{ci}b"))
            });
            front.run_for(SimDuration::from_millis(9));
            front.txn(s, |t| {
                let _ = t.get(&b)?;
                let _ = t.get(&a)?;
                let _ = t.get(&b)?; // repeat read (cut-isolation probe)
                Ok(())
            });
        }
        front.run_for(SimDuration::from_millis(11));
    }
    front.quiesce();
    front.take_records()
}

fn run_protocol_sim(protocol: ProtocolKind, seed: u64) -> Vec<TxnRecord> {
    let mut front = DeploymentBuilder::new(protocol)
        .seed(seed)
        .clusters(ClusterSpec::va_or(2))
        .sessions_per_cluster(2)
        .build();
    let sessions: Vec<Session> = (0..4)
        .map(|_| front.open_session(SessionOptions::default()))
        .collect();
    conformance_script(&mut front, &sessions)
}

fn run_protocol_threaded(protocol: ProtocolKind, seed: u64) -> Vec<TxnRecord> {
    // The threaded frontend scales its quiesce duration by the
    // runtime's `latency_scale`, so no config override is needed to
    // keep the wall-clock wait proportionate.
    let mut front = DeploymentBuilder::new(protocol)
        .seed(seed)
        .clusters(ClusterSpec::va_or(2))
        .sessions_per_cluster(2)
        .build_threaded(RuntimeConfig {
            latency_scale: 0.01,
            seed,
            ..RuntimeConfig::default()
        });
    let sessions: Vec<Session> = (0..4)
        .map(|_| front.open_session(SessionOptions::default()))
        .collect();
    let records = conformance_script(&mut front, &sessions);
    front.shutdown();
    records
}

/// Both backends hold every engine to its sequential-read model: the
/// script reads through interactive `get`s.
#[test]
fn all_engines_meet_their_advertised_level() {
    for protocol in ProtocolKind::ALL {
        let level = protocol.model(ReadMode::Sequential);
        for seed in [21u64, 22] {
            let records = run_protocol_sim(protocol, seed);
            assert!(
                records.iter().filter(|r| r.committed()).count() >= 30,
                "{protocol:?} seed {seed}: too few committed txns"
            );
            // Sequential RAMP-S repairs only forward, so atomic view is
            // its unconditional guarantee; the deterministic runs at
            // these pinned seeds are fully Read Atomic as well.
            if protocol == ProtocolKind::RampSmall {
                let report = check(records.clone(), Model::ReadAtomic);
                assert!(report.ok(), "RAMP-S seed {seed} violates RA: {report}");
            }
            let report = check(records, level);
            assert!(
                report.ok(),
                "{protocol:?} seed {seed} violates {level:?}: {report}"
            );
        }
    }
}

/// Acceptance: the *same* script, through the threaded frontend, for
/// every engine — interactive operations injected into client threads
/// over command channels, checked by the same anomaly checker.
#[test]
fn all_engines_conform_on_the_threaded_frontend() {
    for protocol in ProtocolKind::ALL {
        let records = run_protocol_threaded(protocol, 23);
        assert!(
            records.iter().filter(|r| r.committed()).count() >= 30,
            "{protocol:?} threaded: too few committed txns"
        );
        let level = protocol.model(ReadMode::Sequential);
        let report = check(records, level);
        assert!(
            report.ok(),
            "{protocol:?} threaded violates {level:?}: {report}"
        );
    }
}

/// The README's "Built-in engines" table names each engine's model, for
/// both read modes, and its availability class as `ProtocolKind::model`
/// states them.
#[test]
fn readme_engine_table_matches_the_models() {
    let readme = include_str!("../README.md");
    let table = readme
        .split("### Built-in engines")
        .nth(1)
        .expect("README has the engine table");
    for protocol in ProtocolKind::ALL {
        let head = format!("| `{}` |", protocol.label());
        let row = table
            .lines()
            .find(|l| l.starts_with(&head))
            .unwrap_or_else(|| panic!("no README row for {}", protocol.label()));
        let cells: Vec<&str> = row.split('|').map(str::trim).collect();
        let level: Vec<&str> = cells[2]
            .split(|c: char| !(c.is_alphanumeric() || c == '-'))
            .collect();
        for reads in [ReadMode::Batched, ReadMode::Sequential] {
            let acronym = protocol.model(reads).acronym();
            assert!(
                level.contains(&acronym),
                "README level cell for {} does not name {acronym}: {row}",
                protocol.label()
            );
        }
        let class = match protocol.model(ReadMode::Batched).availability() {
            Availability::HighlyAvailable => "HA",
            Availability::Sticky => "sticky",
            Availability::Unavailable(_) => "unavailable",
        };
        assert_eq!(
            cells[4],
            class,
            "README availability of {}",
            protocol.label()
        );
    }
}

/// Engines stronger than Read Uncommitted must also be clean at every
/// weaker level they dominate (the Figure 2 partial order is downward
/// closed over prohibited phenomena).
#[test]
fn stronger_engines_are_clean_at_weaker_levels() {
    let records = run_protocol_sim(ProtocolKind::TwoPhaseLocking, 23);
    for level in [
        Model::ReadUncommitted,
        Model::ReadCommitted,
        Model::MonotonicAtomicView,
        Model::OneCopySerializability,
    ] {
        let report = check(records.clone(), level);
        assert!(report.ok(), "2PL violates {level:?}: {report}");
    }
    let records = run_protocol_sim(ProtocolKind::Mav, 24);
    for level in [
        Model::ReadUncommitted,
        Model::ReadCommitted,
        Model::MonotonicAtomicView,
    ] {
        let report = check(records.clone(), level);
        assert!(report.ok(), "MAV violates {level:?}: {report}");
    }
    // Read Atomic dominates MAV (Figure 2 extension): RAMP-Fast
    // histories are clean at every weaker level too.
    let records = run_protocol_sim(ProtocolKind::RampFast, 25);
    for level in [
        Model::ReadUncommitted,
        Model::ReadCommitted,
        Model::MonotonicAtomicView,
        Model::ReadAtomic,
    ] {
        let report = check(records.clone(), level);
        assert!(report.ok(), "RAMP-F violates {level:?}: {report}");
    }
}

/// The negative control: the conformance harness is not vacuous. The
/// `eventual` engine's unbuffered writes produce histories that fail
/// Read Committed under enough interleaving (intermediate reads), so a
/// wrong engine-to-level pairing would be caught.
#[test]
fn harness_detects_level_mismatches() {
    let mut any_violation = false;
    for seed in 0..30u64 {
        let records = run_protocol_sim(ProtocolKind::Eventual, 400 + seed);
        if !check(records, Model::OneCopySerializability).ok() {
            any_violation = true;
            break;
        }
    }
    assert!(
        any_violation,
        "eventual histories should not pass a serializability check"
    );
}

/// Strict determinism (ROADMAP): with all protocol state in ordered
/// collections, two same-seed runs produce bit-identical histories for
/// every engine — including the RAMP pair, whose floors, observed-stamp
/// sets and parked fetches all live in ordered collections — no
/// `HashMap` iteration order leaks into the schedule.
#[test]
fn same_seed_runs_are_bit_identical() {
    for protocol in ProtocolKind::ALL {
        let a = run_protocol_sim(protocol, 77);
        let b = run_protocol_sim(protocol, 77);
        assert_eq!(a, b, "{protocol:?}: same-seed runs diverged");
    }
}

// ---------------------------------------------------------------------
// Per-session options: one deployment, differently-configured sessions.
// ---------------------------------------------------------------------

/// §5.1.3's contrast inside a *single* deployment: a sticky causal
/// session keeps read-your-writes while a concurrently running
/// non-sticky no-guarantee session demonstrably loses it. Only
/// expressible now that `SessionOptions` are per-session rather than
/// builder-global.
#[test]
fn mixed_sessions_sticky_causal_keeps_ryw_non_sticky_loses_it() {
    let mut non_sticky_missed = false;
    for seed in 0..20u64 {
        // Server-only partition: sessions can reach both clusters but
        // the clusters cannot replicate to each other.
        let probe = DeploymentBuilder::new(ProtocolKind::Eventual)
            .seed(500 + seed)
            .clusters(ClusterSpec::va_or(2))
            .sessions_per_cluster(1)
            .build();
        let side_a: Vec<u32> = probe.layout().servers[0].clone();
        let side_b: Vec<u32> = probe.layout().servers[1].clone();
        drop(probe);

        let mut front = DeploymentBuilder::new(ProtocolKind::Eventual)
            .seed(500 + seed)
            .clusters(ClusterSpec::va_or(2))
            .sessions_per_cluster(1)
            .partitions(PartitionSchedule::from_partitions(vec![
                Partition::forever(SimTime::ZERO, side_a, side_b),
            ]))
            .build();
        // One deployment, two sessions with different options:
        let sticky = front.open_session(SessionOptions {
            level: SessionLevel::Causal,
            sticky: true,
        });
        let bouncy = front.open_session(SessionOptions {
            level: SessionLevel::None,
            sticky: false,
        });
        assert_ne!(sticky.options(), bouncy.options());

        for i in 0..8 {
            // The sticky causal session always reads its own writes.
            let k = format!("s{seed}:{i}");
            front.txn(&sticky, |t| t.put(&k, "mine"));
            let v = front.txn(&sticky, |t| t.get(&k));
            assert_eq!(v.as_deref(), Some("mine"), "sticky causal RYW must hold");

            // The non-sticky session writes into whichever cluster the
            // load balancer picked; a later read may land on the other,
            // partitioned side and miss the write.
            let k = format!("b{seed}:{i}");
            if front.try_txn(&bouncy, |t| t.put(&k, "mine")).is_err() {
                continue;
            }
            if let Ok(v) = front.try_txn(&bouncy, |t| t.get(&k)) {
                if v.is_none() {
                    non_sticky_missed = true;
                }
            }
        }
        if non_sticky_missed {
            break;
        }
    }
    assert!(
        non_sticky_missed,
        "the §5.1.3 non-sticky RYW violation should appear in a mixed deployment"
    );
}

/// The same mixed-session deployment works on the threaded frontend: two
/// concurrently open sessions with different options, both committing,
/// with the sticky monotonic one reading its own writes back.
#[test]
fn threaded_deployment_hosts_mixed_sessions() {
    let mut front = DeploymentBuilder::new(ProtocolKind::Eventual)
        .seed(9)
        .clusters(ClusterSpec::single_dc(2, 2))
        .sessions_per_cluster(1)
        .build_threaded(RuntimeConfig::default());
    let sticky = front.open_session(SessionOptions {
        level: SessionLevel::Monotonic,
        sticky: true,
    });
    let bouncy = front.open_session(SessionOptions {
        level: SessionLevel::None,
        sticky: false,
    });
    assert_ne!(sticky.options(), bouncy.options());
    for i in 0..5 {
        let k = format!("k{i}");
        front.txn(&sticky, |t| t.put(&k, "v"));
        assert_eq!(
            front.txn(&sticky, |t| t.get(&k)).as_deref(),
            Some("v"),
            "sticky monotonic session reads its own writes"
        );
        front.txn(&bouncy, |t| t.put(&format!("b{i}"), "v"));
    }
    let (_, metrics, _) = front.shutdown();
    assert_eq!(metrics.committed, 15);
}

// ---------------------------------------------------------------------
// Pluggability: a sixth engine, defined here, with zero server edits.
// ---------------------------------------------------------------------

/// A stub sixth engine: protocol-wise identical to `eventual` (every
/// hook is the trait default), but a distinct type with a distinct name,
/// injected through the builder. If `Server` still branched on
/// `ProtocolKind`, this engine could not exist without editing it.
#[derive(Debug, Default)]
struct StubSixthEngine;

impl ProtocolEngine for StubSixthEngine {
    fn name(&self) -> &'static str {
        "stub-v6"
    }
}

/// The stub's client half: protocol-wise identical to `eventual`
/// (write through at operation time, nothing left to do at commit), but
/// defined here and counting its hook calls. If the client core still
/// branched on `ProtocolKind`, these hooks would never run: the builder
/// below names `ReadCommitted`, whose registered client half *buffers*.
#[derive(Debug)]
struct StubSixthClient {
    writes: Arc<AtomicUsize>,
    commits: Arc<AtomicUsize>,
}

impl ClientProtocol for StubSixthClient {
    fn write(
        &mut self,
        core: &mut ClientCore,
        ctx: &mut Ctx<'_, Msg>,
        key: Key,
        value: bytes::Bytes,
    ) {
        self.writes.fetch_add(1, Ordering::Relaxed);
        core.write_through(ctx, key, value);
    }

    fn commit(&mut self, _core: &mut ClientCore, _ctx: &mut Ctx<'_, Msg>) -> Step {
        self.commits.fetch_add(1, Ordering::Relaxed);
        Step::Finish(TxnOutcome::Committed)
    }
}

#[test]
fn stub_sixth_engine_plugs_in_without_server_changes() {
    let writes = Arc::new(AtomicUsize::new(0));
    let commits = Arc::new(AtomicUsize::new(0));
    let (w, c) = (Arc::clone(&writes), Arc::clone(&commits));
    let mut front = DeploymentBuilder::new(ProtocolKind::ReadCommitted)
        .seed(31)
        .clusters(ClusterSpec::single_dc(2, 2))
        .sessions_per_cluster(1)
        .engine_factory(move || {
            (
                Box::new(StubSixthEngine),
                Box::new(StubSixthClient {
                    writes: Arc::clone(&w),
                    commits: Arc::clone(&c),
                }),
            )
        })
        .build();

    // Every server runs the injected engine.
    let server_ids: Vec<u32> = front.layout().servers.iter().flatten().copied().collect();
    for id in server_ids {
        let name = front
            .engine()
            .actor(id)
            .as_server()
            .expect("server node")
            .engine_name();
        assert_eq!(name, "stub-v6");
    }

    // And the full transaction path works through it.
    let s0 = front.open_session(SessionOptions::default());
    let s1 = front.open_session(SessionOptions::default());
    front.txn(&s0, |t| t.put("greeting", "from the sixth engine"));
    front.quiesce();
    let v = front.txn(&s1, |t| t.get("greeting"));
    assert_eq!(v.as_deref(), Some("from the sixth engine"));

    // Both transactions committed through the injected client half, and
    // the write went out at operation time: one op-time round, where the
    // registered Read Committed half would have buffered it.
    assert_eq!(writes.load(Ordering::Relaxed), 1);
    assert_eq!(commits.load(Ordering::Relaxed), 2);
    assert_eq!(front.session_metrics(&s0).msg_rounds, 1);

    let records = front.take_records();
    let report = check(records, Model::ReadUncommitted);
    assert!(report.ok(), "{report}");
}
