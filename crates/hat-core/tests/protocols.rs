//! Protocol-level integration tests: the constructive results of §5.1
//! and the impossibility results of §5.2, exercised end-to-end through
//! the backend-agnostic frontend over the simulator.

use hat_core::{
    ClusterSpec, DeploymentBuilder, Frontend, HatError, ProtocolKind, SessionLevel, SessionOptions,
};
use hat_sim::{Partition, PartitionSchedule, SimDuration, SimTime};

/// §5.1.4 convergence: in the absence of new mutations, all replicas
/// eventually agree — a write from one cluster's session becomes visible
/// to a session of another cluster.
#[test]
fn eventual_converges_across_clusters() {
    let mut front = DeploymentBuilder::new(ProtocolKind::Eventual)
        .seed(1)
        .clusters(ClusterSpec::va_or(3))
        .sessions_per_cluster(1)
        .build();
    let s0 = front.open_session(SessionOptions::default()); // home: Virginia
    let s1 = front.open_session(SessionOptions::default()); // home: Oregon
    front.txn(&s0, |t| t.put("x", "from-virginia"));
    front.quiesce();
    let v = front.txn(&s1, |t| t.get("x"));
    assert_eq!(v.as_deref(), Some("from-virginia"));
}

/// Read Committed write buffering: another session never observes a value
/// before the writer commits (no dirty reads).
#[test]
fn rc_has_no_dirty_reads() {
    let mut front = DeploymentBuilder::new(ProtocolKind::ReadCommitted)
        .seed(2)
        .clusters(ClusterSpec::single_dc(2, 2))
        .sessions_per_cluster(1)
        .build();
    let s0 = front.open_session(SessionOptions::default());
    let s1 = front.open_session(SessionOptions::default());
    // Writes buffer client-side, so nothing is visible even mid-txn;
    // we approximate "mid-transaction" by checking before any commit.
    let v = front.txn(&s1, |t| t.get("dirty"));
    assert_eq!(v, None);
    front.txn(&s0, |t| t.put("dirty", "now-committed"));
    front.quiesce();
    let v = front.txn(&s1, |t| t.get("dirty"));
    assert_eq!(v.as_deref(), Some("now-committed"));
}

/// §5.1.2 MAV: once any effect of a transaction is observed, all its
/// effects are observed. With sticky routing and multi-key writes across
/// clusters, a reader must never see y's new version but x's old one.
#[test]
fn mav_atomic_visibility() {
    let mut front = DeploymentBuilder::new(ProtocolKind::Mav)
        .seed(3)
        .clusters(ClusterSpec::va_or(3))
        .sessions_per_cluster(1)
        .build();
    let writer = front.open_session(SessionOptions::default());
    let reader = front.open_session(SessionOptions::default());
    // initial values
    front.txn(&writer, |t| {
        t.put("acct-a", "0")?;
        t.put("acct-b", "0")
    });
    front.quiesce();
    for round in 1..=5 {
        let v = format!("{round}");
        front.txn(&writer, |t| {
            t.put("acct-a", &v)?;
            t.put("acct-b", &v)
        });
        // Read at arbitrary intermediate points, including right away.
        for _ in 0..3 {
            let (a, b) = front.txn(&reader, |t| Ok((t.get("acct-a")?, t.get("acct-b")?)));
            let a: u64 = a.unwrap_or_default().parse().unwrap_or(0);
            let b: u64 = b.unwrap_or_default().parse().unwrap_or(0);
            // MAV: having observed acct-a = v, the same txn must observe
            // acct-b >= v (reads happen in a,b order).
            assert!(
                b >= a,
                "round {round}: read a={a} then b={b}: atomic view violated"
            );
            front.run_for(SimDuration::from_millis(37));
        }
    }
    assert_eq!(
        front.required_misses(),
        0,
        "required bound always satisfiable"
    );
}

/// The RAMP engines deliver the same atomic-visibility contract as MAV
/// — without any server-side notification fan-in. Same probe as
/// `mav_atomic_visibility`, for both variants: once a reader observes
/// acct-a at round v, the same transaction's read of acct-b must be
/// ≥ v (RAMP-Fast repairs from write-set metadata, RAMP-Small from its
/// observed-timestamp set).
#[test]
fn ramp_engines_have_atomic_visibility() {
    for protocol in [ProtocolKind::RampFast, ProtocolKind::RampSmall] {
        let mut front = DeploymentBuilder::new(protocol)
            .seed(3)
            .clusters(ClusterSpec::va_or(3))
            .sessions_per_cluster(1)
            .build();
        let writer = front.open_session(SessionOptions::default());
        let reader = front.open_session(SessionOptions::default());
        front.txn(&writer, |t| {
            t.put("acct-a", "0")?;
            t.put("acct-b", "0")
        });
        front.quiesce();
        for round in 1..=5 {
            let v = format!("{round}");
            front.txn(&writer, |t| {
                t.put("acct-a", &v)?;
                t.put("acct-b", &v)
            });
            for _ in 0..3 {
                let (a, b) = front.txn(&reader, |t| Ok((t.get("acct-a")?, t.get("acct-b")?)));
                let a: u64 = a.unwrap_or_default().parse().unwrap_or(0);
                let b: u64 = b.unwrap_or_default().parse().unwrap_or(0);
                assert!(
                    b >= a,
                    "{protocol:?} round {round}: read a={a} then b={b}: atomic view violated"
                );
                front.run_for(SimDuration::from_millis(37));
            }
        }
        let m = front.aggregate_metrics();
        assert_eq!(m.unrepaired_reads, 0, "{protocol:?}: repairs must land");
        assert!(m.msg_rounds > 0);
        if protocol == ProtocolKind::RampFast {
            assert!(
                m.metadata_bytes > 0,
                "RAMP-F moves write-set metadata on reads and writes"
            );
        }
    }
}

/// RAMP writes are invisible until the commit markers land: a reader
/// polling between the prepare phase and quiesce either sees the old
/// value or the whole new write-set, never a prepared fragment.
#[test]
fn ramp_prepared_writes_are_invisible_until_committed() {
    let mut front = DeploymentBuilder::new(ProtocolKind::RampFast)
        .seed(11)
        .clusters(ClusterSpec::single_dc(2, 2))
        .sessions_per_cluster(1)
        .build();
    let writer = front.open_session(SessionOptions::default());
    let reader = front.open_session(SessionOptions::default());
    // A committed baseline.
    front.txn(&writer, |t| {
        t.put("p", "old")?;
        t.put("q", "old")
    });
    front.quiesce();
    front.txn(&writer, |t| {
        t.put("p", "new")?;
        t.put("q", "new")
    });
    // Immediately after commit returns, both markers are applied at the
    // writer's cluster; the reader (other cluster, sticky) converges by
    // gossip but must never see a mixed write-set.
    for _ in 0..10 {
        let (p, q) = front.txn(&reader, |t| Ok((t.get("p")?, t.get("q")?)));
        assert_eq!(p, q, "fractured read of a two-phase RAMP write");
        front.run_for(SimDuration::from_millis(5));
    }
}

/// Master provides per-key linearizability: a committed write is
/// immediately visible to every session (all ops route to the master).
#[test]
fn master_reads_latest_write() {
    let mut front = DeploymentBuilder::new(ProtocolKind::Master)
        .seed(4)
        .clusters(ClusterSpec::va_or(2))
        .sessions_per_cluster(1)
        .build();
    let s0 = front.open_session(SessionOptions::default());
    let s1 = front.open_session(SessionOptions::default());
    front.txn(&s0, |t| t.put("k", "v1"));
    // No quiesce: master reads must see it immediately.
    let v = front.txn(&s1, |t| t.get("k"));
    assert_eq!(v.as_deref(), Some("v1"));
}

/// §5.2.2 / Table 3: master (recency) is unavailable under partition —
/// a session cut off from a key's master cannot complete operations.
#[test]
fn master_unavailable_under_partition() {
    let probe = DeploymentBuilder::new(ProtocolKind::Master)
        .seed(5)
        .clusters(ClusterSpec::va_or(2))
        .sessions_per_cluster(1)
        .build();
    // find a key mastered in cluster 1 so that partitioning the client
    // from cluster 1 blocks it
    let key = (0..100)
        .map(|i| format!("k{i}"))
        .find(|k| {
            let key = hat_storage::Key::from(k.clone());
            let master = probe.layout().master(&key);
            probe.layout().cluster_of(master) == Some(1)
        })
        .expect("some key is mastered in cluster 1");
    // partition cluster 1 from everyone, starting now, forever
    let side_a: Vec<u32> = probe.layout().servers[1].clone();
    let mut others: Vec<u32> = probe.layout().servers[0].clone();
    others.extend(probe.layout().clients.iter().copied());
    drop(probe);
    let mut front = DeploymentBuilder::new(ProtocolKind::Master)
        .seed(5)
        .clusters(ClusterSpec::va_or(2))
        .sessions_per_cluster(1)
        .partitions(PartitionSchedule::from_partitions(vec![
            Partition::forever(SimTime::ZERO, side_a, others),
        ]))
        .build();
    let s0 = front.open_session(SessionOptions::default());
    let err = front
        .try_txn(&s0, |t| t.get(&key))
        .expect_err("read of a partitioned master must not complete");
    assert!(matches!(err, HatError::Unavailable { .. }), "{err}");
}

/// The same partition leaves HAT protocols fully available: a sticky
/// session of the healthy cluster commits normally. Note the Monotonic
/// session level: MAV's *visibility* of new writes is indefinitely
/// delayed under partition (its good-set promotion needs the remote
/// cluster's acknowledgements), so reading your own write back relies on
/// the session cache — availability, per §4.2, is about operations
/// completing, which they do for all three HAT protocols.
#[test]
fn hat_protocols_available_under_partition() {
    for protocol in [
        ProtocolKind::Eventual,
        ProtocolKind::ReadCommitted,
        ProtocolKind::Mav,
    ] {
        let probe = DeploymentBuilder::new(protocol)
            .seed(6)
            .clusters(ClusterSpec::va_or(2))
            .sessions_per_cluster(1)
            .build();
        let cluster1: Vec<u32> = probe.layout().servers[1].clone();
        let mut cluster0_and_clients: Vec<u32> = probe.layout().servers[0].clone();
        cluster0_and_clients.push(probe.client(0));
        drop(probe);

        let mut front = DeploymentBuilder::new(protocol)
            .seed(6)
            .clusters(ClusterSpec::va_or(2))
            .sessions_per_cluster(1)
            .partitions(PartitionSchedule::from_partitions(vec![
                Partition::forever(SimTime::ZERO, cluster1, cluster0_and_clients),
            ]))
            .build();
        let s0 = front.open_session(SessionOptions {
            level: SessionLevel::Monotonic,
            sticky: true, // sticky to healthy cluster 0
        });
        for i in 0..10 {
            let k = format!("k{i}");
            front.txn(&s0, |t| t.put(&k, "v"));
            let v = front.txn(&s0, |t| t.get(&k));
            assert_eq!(v.as_deref(), Some("v"), "{protocol:?} must stay available");
        }
    }
}

/// §5.2.1: Lost Update cannot be prevented by any HAT protocol. Two
/// sessions on opposite sides of a partition both read x=100 and write
/// back x+=20 / x+=30; after healing, one update is lost (LWW keeps one).
#[test]
fn lost_update_happens_under_partition() {
    let probe = DeploymentBuilder::new(ProtocolKind::Eventual)
        .seed(7)
        .clusters(ClusterSpec::va_or(2))
        .sessions_per_cluster(1)
        .build();
    let side_a: Vec<u32> = probe.layout().servers[0]
        .iter()
        .copied()
        .chain([probe.client(0)])
        .collect();
    let side_b: Vec<u32> = probe.layout().servers[1]
        .iter()
        .copied()
        .chain([probe.client(1)])
        .collect();
    drop(probe);

    let mut front = DeploymentBuilder::new(ProtocolKind::Eventual)
        .seed(7)
        .clusters(ClusterSpec::va_or(2))
        .sessions_per_cluster(1)
        .partitions(PartitionSchedule::from_partitions(vec![Partition::new(
            SimTime::from_secs(3),
            SimTime::from_secs(30),
            side_a,
            side_b,
        )]))
        .build();
    let s0 = front.open_session(SessionOptions::default());
    let s1 = front.open_session(SessionOptions::default());
    // seed x=100 before the partition
    front.txn(&s0, |t| t.put("x", "100"));
    front.quiesce(); // both clusters have x=100; partition starts at t=3s
    front.run_for(SimDuration::from_secs(2));

    // both sides increment concurrently during the partition
    let a = front.txn(&s0, |t| {
        let v: u64 = t.get("x")?.unwrap().parse().unwrap();
        t.put("x", &format!("{}", v + 20))?;
        Ok(v + 20)
    });
    let b = front.txn(&s1, |t| {
        let v: u64 = t.get("x")?.unwrap().parse().unwrap();
        t.put("x", &format!("{}", v + 30))?;
        Ok(v + 30)
    });
    assert_eq!((a, b), (120, 130), "both committed against x=100");

    // heal and converge
    front.run_for(SimDuration::from_secs(30));
    front.quiesce();
    let v0 = front.txn(&s0, |t| t.get("x")).unwrap();
    let v1 = front.txn(&s1, |t| t.get("x")).unwrap();
    assert_eq!(v0, v1, "replicas converged");
    // The final state could not have arisen from a serial execution
    // (serial would give 150): one update was lost.
    assert!(v0 == "120" || v0 == "130", "got {v0}");
}

/// §5.1.3: read-your-writes fails without stickiness — a non-sticky
/// session that wrote during a partition may read from the other side and
/// miss its own write. With stickiness the same scenario always succeeds.
#[test]
fn ryw_requires_stickiness() {
    // Build: two clusters; partition separates them (clients can reach
    // both). The non-sticky session writes (lands in some cluster) then
    // reads repeatedly — with cluster choice randomized, some read goes
    // to the other cluster, which cannot have the write while partitioned.
    let build = |sticky: bool, seed: u64| {
        let probe = DeploymentBuilder::new(ProtocolKind::Eventual)
            .seed(seed)
            .clusters(ClusterSpec::va_or(2))
            .sessions_per_cluster(1)
            .build();
        let side_a: Vec<u32> = probe.layout().servers[0].clone();
        let side_b: Vec<u32> = probe.layout().servers[1].clone();
        drop(probe);
        let mut front = DeploymentBuilder::new(ProtocolKind::Eventual)
            .seed(seed)
            .clusters(ClusterSpec::va_or(2))
            .sessions_per_cluster(1)
            .partitions(PartitionSchedule::from_partitions(vec![
                Partition::forever(SimTime::ZERO, side_a, side_b),
            ]))
            .build();
        let session = front.open_session(SessionOptions {
            level: SessionLevel::None,
            sticky,
        });
        (front, session)
    };

    // Non-sticky: hunt for a violation across seeds (randomized routing).
    let mut violated = false;
    'outer: for seed in 0..20 {
        let (mut front, s) = build(false, 100 + seed);
        for i in 0..10 {
            let k = format!("w{i}");
            front.txn(&s, |t| t.put(&k, "mine"));
            let v = front.txn(&s, |t| t.get(&k));
            if v.is_none() {
                violated = true;
                break 'outer;
            }
        }
    }
    assert!(
        violated,
        "non-sticky session should eventually miss its own write during a partition"
    );

    // Sticky: never violated.
    for seed in 0..5 {
        let (mut front, s) = build(true, 200 + seed);
        for i in 0..10 {
            let k = format!("w{i}");
            front.txn(&s, |t| t.put(&k, "mine"));
            let v = front.txn(&s, |t| t.get(&k));
            assert_eq!(v.as_deref(), Some("mine"), "sticky RYW must hold");
        }
    }
}

/// 2PL provides serializable increments (no lost update) when the
/// network is healthy...
#[test]
fn twopl_serializes_increments() {
    let mut front = DeploymentBuilder::new(ProtocolKind::TwoPhaseLocking)
        .seed(8)
        .clusters(ClusterSpec::single_dc(2, 2))
        .sessions_per_cluster(2)
        .build();
    let sessions: Vec<_> = (0..4)
        .map(|_| front.open_session(SessionOptions::default()))
        .collect();
    front.txn(&sessions[0], |t| t.put("ctr", "0"));
    for _round in 0..3 {
        for s in &sessions {
            front.txn(s, |t| {
                let v: u64 = t.get("ctr")?.unwrap().parse().unwrap();
                t.put("ctr", &format!("{}", v + 1))
            });
        }
    }
    let v = front.txn(&sessions[0], |t| t.get("ctr"));
    assert_eq!(v.as_deref(), Some("12"), "every increment preserved");
}

/// ... but 2PL is unavailable under partition: a session that cannot
/// reach a lock master blocks and externally aborts.
#[test]
fn twopl_unavailable_under_partition() {
    let probe = DeploymentBuilder::new(ProtocolKind::TwoPhaseLocking)
        .seed(9)
        .clusters(ClusterSpec::va_or(2))
        .sessions_per_cluster(1)
        .build();
    let key = (0..100)
        .map(|i| format!("k{i}"))
        .find(|k| {
            let key = hat_storage::Key::from(k.clone());
            probe.layout().cluster_of(probe.layout().master(&key)) == Some(1)
        })
        .unwrap();
    let side_a: Vec<u32> = probe.layout().servers[1].clone();
    let mut side_b: Vec<u32> = probe.layout().servers[0].clone();
    side_b.extend(probe.layout().clients.iter().copied());
    drop(probe);

    let mut front = DeploymentBuilder::new(ProtocolKind::TwoPhaseLocking)
        .seed(9)
        .clusters(ClusterSpec::va_or(2))
        .sessions_per_cluster(1)
        .partitions(PartitionSchedule::from_partitions(vec![
            Partition::forever(SimTime::ZERO, side_a, side_b),
        ]))
        .build();
    let s0 = front.open_session(SessionOptions::default());
    let err = front
        .try_txn(&s0, |t| t.put(&key, "v"))
        .expect_err("2PL write across a partition must fail");
    assert!(
        matches!(
            err,
            HatError::ExternalAbort { .. } | HatError::Unavailable { .. }
        ),
        "{err}"
    );
}

/// A 2PL lock timeout mid-transaction is an *external abort* and must
/// surface at the failing operation (the typed-API contract) — not as a
/// silent success followed by a lock-free commit of the write buffer.
/// The failed transaction's earlier locks must also be released, so the
/// keys it touched stay usable for every other session.
#[test]
fn twopl_mid_op_abort_surfaces_and_releases_locks() {
    let probe = DeploymentBuilder::new(ProtocolKind::TwoPhaseLocking)
        .seed(12)
        .clusters(ClusterSpec::va_or(2))
        .sessions_per_cluster(1)
        .build();
    let mastered_in = |cluster: usize| {
        (0..200)
            .map(|i| format!("k{i}"))
            .find(|k| {
                let key = hat_storage::Key::from(k.clone());
                probe.layout().cluster_of(probe.layout().master(&key)) == Some(cluster)
            })
            .unwrap()
    };
    let key_a = mastered_in(0); // reachable lock master
    let key_b = mastered_in(1); // partitioned lock master
    let side_a: Vec<u32> = probe.layout().servers[1].clone();
    let mut side_b: Vec<u32> = probe.layout().servers[0].clone();
    side_b.extend(probe.layout().clients.iter().copied());
    drop(probe);

    // The partition outlives the 10s lock timeout (so the doomed
    // transaction really aborts) and then heals: 2PL commit writes are
    // sync-replicated, so while it holds *no* write can be acked (the
    // master's only peer is on the far side) — the leaked-lock probe
    // below needs a healthy network to commit.
    let heal = SimTime::from_millis(15_000);
    let mut front = DeploymentBuilder::new(ProtocolKind::TwoPhaseLocking)
        .seed(12)
        .clusters(ClusterSpec::va_or(2))
        .sessions_per_cluster(1)
        .partitions(PartitionSchedule::from_partitions(vec![Partition::new(
            SimTime::ZERO,
            heal,
            side_a,
            side_b,
        )]))
        .build();
    let s0 = front.open_session(SessionOptions::default());
    let s1 = front.open_session(SessionOptions::default());

    // Lock A succeeds; lock B times out -> external abort mid-put.
    let err = front
        .try_txn(&s0, |t| {
            t.put(&key_a, "doomed")?;
            t.put(&key_b, "doomed")
        })
        .expect_err("lock timeout must fail the transaction");
    assert!(matches!(err, HatError::ExternalAbort { .. }), "{err}");

    // Key A must not be wedged by a leaked lock: another session locks
    // it and commits promptly once the network heals.
    front.run_for(heal.since(front.now()) + SimDuration::from_millis(1));
    front.txn(&s1, |t| t.put(&key_a, "alive"));
    let v = front.txn(&s1, |t| t.get(&key_a));
    assert_eq!(v.as_deref(), Some("alive"));
}

/// Item cut isolation (§5.1.1): with the ItemCut session level, a repeat
/// read inside one transaction returns the first-read value even if a
/// concurrent writer intervenes.
#[test]
fn item_cut_isolation_repeat_reads() {
    let mut front = DeploymentBuilder::new(ProtocolKind::ReadCommitted)
        .seed(10)
        .clusters(ClusterSpec::single_dc(2, 2))
        .sessions_per_cluster(1)
        .build();
    let reader = front.open_session(SessionOptions {
        level: SessionLevel::ItemCut,
        sticky: true,
    });
    let writer = front.open_session(SessionOptions::default());
    front.txn(&writer, |t| t.put("x", "1"));
    front.quiesce();
    let (first, second) = front.txn(&reader, |t| {
        let a = t.get("x")?;
        let b = t.get("x")?;
        Ok((a, b))
    });
    assert_eq!(first, second, "I-CI: repeat read identical");
}

/// Monotonic sessions: reads never go backwards even when a non-sticky
/// session bounces between replicas with different staleness.
#[test]
fn monotonic_reads_with_session_cache() {
    let mut front = DeploymentBuilder::new(ProtocolKind::Eventual)
        .seed(11)
        .clusters(ClusterSpec::va_or(2))
        .sessions_per_cluster(1)
        .build();
    let writer = front.open_session(SessionOptions::default());
    let reader = front.open_session(SessionOptions {
        level: SessionLevel::Monotonic,
        sticky: false, // bouncing reader
    });
    let mut last: u64 = 0;
    for i in 1..=10u64 {
        front.txn(&writer, |t| t.put("feed", &i.to_string()));
        // do not quiesce: replicas are intentionally unevenly fresh
        front.run_for(SimDuration::from_millis(3));
        let v = front.txn(&reader, |t| t.get("feed"));
        let v: u64 = v.unwrap_or_default().parse().unwrap_or(0);
        assert!(v >= last, "monotonic reads violated: {last} -> {v}");
        last = v;
    }
}

/// Deterministic replay: identical seeds give identical histories.
#[test]
fn runs_are_deterministic() {
    let run = |seed: u64| {
        let mut front = DeploymentBuilder::new(ProtocolKind::Mav)
            .seed(seed)
            .clusters(ClusterSpec::va_or(2))
            .sessions_per_cluster(2)
            .build();
        let s0 = front.open_session(SessionOptions::default());
        let s1 = front.open_session(SessionOptions::default());
        for i in 0..5 {
            let k = format!("k{}", i % 3);
            front.txn(&s0, |t| t.put(&k, &format!("a{i}")));
            let _ = front.txn(&s1, |t| t.get(&k));
        }
        front.quiesce();
        front.take_records()
    };
    assert_eq!(run(99), run(99));
}
