//! Cross-crate validation of Table 3: run real (simulated) workloads
//! under each protocol and check the recorded histories against the
//! Adya-style phenomena definitions. This is the executable form of the
//! paper's central claim — each HAT protocol provides exactly the
//! isolation level it advertises.

use hatdb::core::client::TxnSource;
use hatdb::core::{
    ClientCmd, ClusterSpec, DeploymentBuilder, Op, ProtocolKind, SessionLevel, SessionOptions,
    TxnBackend, TxnRecord, TxnSpec,
};
use hatdb::history::{check, IsolationLevel, Phenomenon};
use hatdb::sim::SimDuration;
use hatdb::{Frontend, Session};

/// The generic fractured-reads detector: RAMP Definition 2 violations
/// (a transaction observing a partial write-set), order-free over each
/// transaction's read set. Runs over any engine's recorded history.
fn fractured_reads(records: Vec<TxnRecord>) -> usize {
    check(records, IsolationLevel::ReadAtomic)
        .violations
        .into_iter()
        .filter(|v| v.phenomenon == Phenomenon::FracturedReads)
        .count()
}

/// A mixed read/write workload over a small hot keyspace, driven through
/// the frontend from several sessions with replication delays in between.
fn workload(protocol: ProtocolKind, session: SessionOptions, seed: u64) -> Vec<TxnRecord> {
    let mut front = DeploymentBuilder::new(protocol)
        .seed(seed)
        .clusters(ClusterSpec::va_or(3))
        .sessions_per_cluster(2)
        .build();
    let sessions: Vec<Session> = (0..4).map(|_| front.open_session(session)).collect();
    for round in 0..6u32 {
        for (ci, s) in sessions.iter().enumerate() {
            let a = format!("k{}", (round as usize + ci) % 5);
            let b = format!("k{}", (round as usize + ci + 1) % 5);
            front.txn(s, |t| {
                let _ = t.get(&a)?;
                t.put(&a, &format!("{round}-{ci}-a"))?;
                t.put(&b, &format!("{round}-{ci}-b"))
            });
            // interleave with replication so readers see mixed staleness
            front.run_for(SimDuration::from_millis(7));
            front.txn(s, |t| {
                let _ = t.get(&b)?;
                let _ = t.get(&a)?;
                let _ = t.get(&a)?;
                Ok(())
            });
        }
        front.run_for(SimDuration::from_millis(13));
    }
    front.quiesce();
    front.take_records()
}

fn sticky_none() -> SessionOptions {
    SessionOptions {
        level: SessionLevel::None,
        sticky: true,
    }
}

#[test]
fn read_committed_histories_are_rc_clean() {
    for seed in [1, 2, 3] {
        let records = workload(ProtocolKind::ReadCommitted, sticky_none(), seed);
        let report = check(records, IsolationLevel::ReadCommitted);
        assert!(report.ok(), "seed {seed}: {report}");
        assert!(report.txns_checked > 40);
    }
}

#[test]
fn eventual_histories_are_ru_clean() {
    for seed in [4, 5] {
        let records = workload(ProtocolKind::Eventual, sticky_none(), seed);
        let report = check(records, IsolationLevel::ReadUncommitted);
        assert!(report.ok(), "seed {seed}: {report}");
    }
}

#[test]
fn mav_histories_prohibit_otv() {
    for seed in [6, 7, 8] {
        let records = workload(ProtocolKind::Mav, sticky_none(), seed);
        let report = check(records, IsolationLevel::MonotonicAtomicView);
        assert!(report.ok(), "seed {seed}: {report}");
    }
}

#[test]
fn item_cut_sessions_prohibit_imp() {
    let session = SessionOptions {
        level: SessionLevel::ItemCut,
        sticky: true,
    };
    for seed in [9, 10] {
        let records = workload(ProtocolKind::ReadCommitted, session, seed);
        let report = check(records, IsolationLevel::ItemCutIsolation);
        assert!(report.ok(), "seed {seed}: {report}");
    }
}

#[test]
fn monotonic_sessions_give_pram_minus_wfr() {
    let session = SessionOptions {
        level: SessionLevel::Monotonic,
        sticky: true,
    };
    for seed in [11, 12] {
        let records = workload(ProtocolKind::Mav, session, seed);
        for level in [
            IsolationLevel::MonotonicReads,
            IsolationLevel::ReadYourWrites,
            IsolationLevel::MonotonicWrites,
            IsolationLevel::Pram,
        ] {
            let report = check(records.clone(), level);
            assert!(report.ok(), "seed {seed} {level:?}: {report}");
        }
    }
}

/// Session guarantees compose with the RAMP engines too: every read
/// path (round-1, repair fetches, batch reads) clamps against the
/// session cache, so monotonic sessions never step backwards even when
/// a RAMP second round lands on a lagging replica.
#[test]
fn monotonic_sessions_hold_over_ramp_engines() {
    let session = SessionOptions {
        level: SessionLevel::Monotonic,
        sticky: true,
    };
    for protocol in [ProtocolKind::RampFast, ProtocolKind::RampSmall] {
        for seed in [11, 12] {
            let records = workload(protocol, session, seed);
            for level in [
                IsolationLevel::MonotonicReads,
                IsolationLevel::ReadYourWrites,
                IsolationLevel::MonotonicWrites,
                IsolationLevel::Pram,
            ] {
                let report = check(records.clone(), level);
                assert!(report.ok(), "{protocol:?} seed {seed} {level:?}: {report}");
            }
        }
    }
}

#[test]
fn causal_sessions_over_mav_are_causal_clean() {
    let session = SessionOptions {
        level: SessionLevel::Causal,
        sticky: true,
    };
    for seed in [13, 14] {
        let records = workload(ProtocolKind::Mav, session, seed);
        let report = check(records, IsolationLevel::Causal);
        assert!(report.ok(), "seed {seed}: {report}");
    }
}

/// A workload shaped to induce fractured reads: one session per cluster
/// writes multi-key sets while the others read the same keys in the
/// opposite order, with replication mid-flight.
fn fracture_probe(protocol: ProtocolKind, seed: u64) -> Vec<TxnRecord> {
    let mut front = DeploymentBuilder::new(protocol)
        .seed(seed)
        .clusters(ClusterSpec::va_or(2))
        .sessions_per_cluster(2)
        .build();
    let sessions: Vec<Session> = (0..4)
        .map(|_| front.open_session(SessionOptions::default()))
        .collect();
    for round in 0..6u32 {
        for (ci, s) in sessions.iter().enumerate() {
            if ci % 2 == 0 {
                let v = format!("r{round}s{ci}");
                front.txn(s, |t| {
                    t.put("fx", &v)?;
                    t.put("fy", &v)
                });
            } else {
                front.txn(s, |t| {
                    let _ = t.get("fy")?;
                    let _ = t.get("fx")?;
                    Ok(())
                });
            }
            front.run_for(SimDuration::from_millis(3));
        }
        front.run_for(SimDuration::from_millis(8));
    }
    front.quiesce();
    front.take_records()
}

/// RAMP-Fast passes the symmetric fractured-reads detector even under
/// the adversarial cross-cluster probe with *interactive* (sequential)
/// reads: write-set metadata lets the client repair both directions —
/// floor fetches for stale siblings, ceiling fetches for reads that
/// would expose a write-set an earlier observation fractures.
#[test]
fn ramp_fast_interactive_reads_never_fracture() {
    for seed in [40, 41, 42, 43, 44, 45] {
        let records = fracture_probe(ProtocolKind::RampFast, seed);
        assert!(
            records.iter().filter(|r| r.committed()).count() > 20,
            "seed {seed}: too few txns"
        );
        assert_eq!(
            fractured_reads(records),
            0,
            "seed {seed}: fractured read observed"
        );
    }
}

/// The same probe with *one-shot* read transactions (`get_many`, the
/// RAMP paper's `GET_ALL`) in the paper's own deployment model (one
/// cluster, partitioned across servers): both RAMP variants pass the
/// detector. RAMP-Small's constant-size metadata guarantees atomicity
/// exactly in this mode — the prepare-everywhere-before-commit-anywhere
/// invariant makes every stamp in the union set fetchable by round 2.
#[test]
fn ramp_one_shot_reads_never_fracture_in_cluster() {
    for protocol in [ProtocolKind::RampFast, ProtocolKind::RampSmall] {
        for seed in [50, 51, 52, 53] {
            let mut front = DeploymentBuilder::new(protocol)
                .seed(seed)
                .clusters(ClusterSpec::single_dc(1, 4))
                .sessions_per_cluster(4)
                .build();
            let sessions: Vec<Session> = (0..4)
                .map(|_| front.open_session(SessionOptions::default()))
                .collect();
            for round in 0..8u32 {
                for (ci, s) in sessions.iter().enumerate() {
                    if ci % 2 == 0 {
                        let v = format!("r{round}s{ci}");
                        front.txn(s, |t| {
                            t.put("fx", &v)?;
                            t.put("fy", &v)
                        });
                    } else {
                        front.txn(s, |t| {
                            let _ = t.get_many(&["fy", "fx"])?;
                            Ok(())
                        });
                    }
                    front.run_for(SimDuration::from_millis(2));
                }
            }
            front.quiesce();
            let records = front.take_records();
            assert!(
                records.iter().filter(|r| r.committed()).count() > 20,
                "{protocol:?} seed {seed}: too few txns"
            );
            assert_eq!(
                fractured_reads(records),
                0,
                "{protocol:?} seed {seed}: fractured one-shot read"
            );
        }
    }
}

/// The head-to-head the detector was built for: under the adversarial
/// probe, MAV *does* fracture (its guarantee is order-aware — once a
/// write is observed, later sibling reads catch up; a stale sibling
/// read *before* the observation stays exposed), while RAMP-Fast, whose
/// metadata repairs both directions, never does. Read Atomic is
/// strictly stronger than Monotonic Atomic View, with less server-side
/// coordination.
#[test]
fn detector_separates_read_atomic_from_mav() {
    let mut mav_fractures = 0;
    for seed in 40..60u64 {
        mav_fractures += fractured_reads(fracture_probe(ProtocolKind::Mav, seed));
        if mav_fractures > 0 {
            break;
        }
    }
    assert!(
        mav_fractures > 0,
        "expected MAV to exhibit a backward fracture under the probe"
    );
    // MAV's own guarantee (order-aware atomic view) still holds.
    for seed in 40..44u64 {
        let report = check(
            fracture_probe(ProtocolKind::Mav, seed),
            IsolationLevel::MonotonicAtomicView,
        );
        assert!(report.ok(), "seed {seed}: {report}");
    }
}

/// A fixed plan list per closed-loop client.
struct Plans(std::vec::IntoIter<TxnSpec>);

impl TxnSource for Plans {
    fn next_txn(&mut self, _rng: &mut rand::rngs::StdRng) -> Option<TxnSpec> {
        self.0.next()
    }
}

/// Closed-loop RAMP-S clients in one cluster of four shards: two write
/// `fx` and `fy` together, two read them back as one plan, `fy` first.
/// The driver fetches a plan's reads as one GET_ALL batch, so every
/// read set is atomic; read one at a time, a reader that saw the old
/// `fy` could not repair it once `fx` showed the new write.
#[test]
fn ramp_small_closed_loop_plans_are_read_atomic() {
    for seed in [0, 1, 2] {
        let drivers: Vec<Box<dyn TxnSource>> = (0..4)
            .map(|c| {
                let specs: Vec<TxnSpec> = (0..40)
                    .map(|n| {
                        let ops = if c % 2 == 0 {
                            let v = format!("c{c}n{n}");
                            vec![Op::write("fx", &v), Op::write("fy", &v)]
                        } else {
                            vec![Op::read("fy"), Op::read("fx")]
                        };
                        TxnSpec::new(ops)
                    })
                    .collect();
                Box::new(Plans(specs.into_iter())) as Box<dyn TxnSource>
            })
            .collect();
        let mut front = DeploymentBuilder::new(ProtocolKind::RampSmall)
            .seed(seed)
            .clusters(ClusterSpec::single_dc(1, 4))
            .drivers(drivers)
            .build();
        front.run_for(SimDuration::from_secs(2));
        let records = front.take_records();
        assert!(
            records.iter().filter(|r| r.committed()).count() > 100,
            "seed {seed}: too few txns"
        );
        let report = check(records, IsolationLevel::ReadAtomic);
        assert!(report.ok(), "seed {seed}: {report}");
    }
}

/// The interactive RAMP-S contract, pinned the way MAV's backward
/// fracture is above: a reader's sequential `get`s straddle a writer's
/// commit of `fx` and `fy`. The later read of `fx` sees the new write;
/// the earlier read of `fy` cannot be repaired, because RAMP-S carries
/// no write-set metadata to tell it `fy` was written too. The history
/// is fractured but still atomic-view clean. RAMP-F, whose metadata
/// repairs the later read instead, stays Read Atomic on the same script.
#[test]
fn ramp_small_sequential_gets_can_fracture() {
    let script = |protocol: ProtocolKind| {
        let mut front = DeploymentBuilder::new(protocol)
            .seed(60)
            .clusters(ClusterSpec::single_dc(1, 4))
            .sessions_per_cluster(2)
            .build();
        let writer = front.open_session(SessionOptions::default());
        let reader = front.open_session(SessionOptions::default());
        front.txn(&writer, |t| {
            t.put("fx", "old")?;
            t.put("fy", "old")
        });
        front.quiesce();
        front.begin(&reader).unwrap();
        let fy = front.exec_get(&reader, "fy".into()).unwrap();
        front.txn(&writer, |t| {
            t.put("fx", "new")?;
            t.put("fy", "new")
        });
        let fx = front.exec_get(&reader, "fx".into()).unwrap();
        front.commit(&reader).unwrap();
        (fy, fx, front.take_records())
    };
    let (fy, fx, records) = script(ProtocolKind::RampSmall);
    assert_eq!(fy.as_deref(), Some(&b"old"[..]));
    assert_eq!(fx.as_deref(), Some(&b"new"[..]));
    assert_eq!(fractured_reads(records.clone()), 1);
    let report = check(records, IsolationLevel::MonotonicAtomicView);
    assert!(report.ok(), "{report}");

    let (_, fx, records) = script(ProtocolKind::RampFast);
    assert_eq!(
        fx.as_deref(),
        Some(&b"old"[..]),
        "RAMP-F repairs the later read"
    );
    assert_eq!(fractured_reads(records), 0);
}

/// Negative control pinning the anomaly: engines *without* atomic
/// visibility (eventual and RC) do exhibit fractured reads under the
/// same probe — the detector is not vacuous, and the anomaly is real.
#[test]
fn eventual_and_rc_exhibit_fractured_reads() {
    for protocol in [ProtocolKind::Eventual, ProtocolKind::ReadCommitted] {
        let mut found = 0;
        for seed in 0..40u64 {
            found += fractured_reads(fracture_probe(protocol, 600 + seed));
            if found > 0 {
                break;
            }
        }
        assert!(
            found > 0,
            "{protocol:?}: expected at least one fractured read under the probe"
        );
    }
}

#[test]
fn master_histories_are_serializable_for_single_key_txns() {
    // per-key linearizability: single-key read-modify-write transactions
    // through the master serialize (multi-key txns would not).
    let mut front = DeploymentBuilder::new(ProtocolKind::Master)
        .seed(15)
        .clusters(ClusterSpec::va_or(2))
        .sessions_per_cluster(2)
        .build();
    let sessions: Vec<Session> = (0..4)
        .map(|_| front.open_session(SessionOptions::default()))
        .collect();
    for _round in 0..5u32 {
        for s in &sessions {
            front.txn(s, |t| {
                let v: u64 = t.get("ctr")?.and_then(|s| s.parse().ok()).unwrap_or(0);
                t.put("ctr", &(v + 1).to_string())
            });
        }
    }
    let v = front.txn(&sessions[0], |t| t.get("ctr"));
    assert_eq!(v.as_deref(), Some("20"), "no increments lost");
    let report = check(front.take_records(), IsolationLevel::Serializable);
    assert!(report.ok(), "{report}");
}

#[test]
fn twopl_histories_are_fully_serializable() {
    let mut front = DeploymentBuilder::new(ProtocolKind::TwoPhaseLocking)
        .seed(16)
        .clusters(ClusterSpec::single_dc(2, 2))
        .sessions_per_cluster(2)
        .build();
    let sessions: Vec<Session> = (0..4)
        .map(|_| front.open_session(SessionOptions::default()))
        .collect();
    // multi-key read-modify-write transactions with overlapping keys
    for round in 0..4u32 {
        for (ci, s) in sessions.iter().enumerate() {
            let a = format!("k{}", (round as usize + ci) % 3);
            let b = format!("k{}", (round as usize + ci + 1) % 3);
            front.txn(s, |t| {
                let va: u64 = t.get(&a)?.and_then(|s| s.parse().ok()).unwrap_or(0);
                let vb: u64 = t.get(&b)?.and_then(|s| s.parse().ok()).unwrap_or(0);
                t.put(&a, &(va + 1).to_string())?;
                t.put(&b, &(vb + 1).to_string())
            });
        }
    }
    let report = check(front.take_records(), IsolationLevel::Serializable);
    assert!(report.ok(), "{report}");
}

/// Negative control: the checker is not vacuous — eventual's unbuffered
/// writes do violate Read Committed's prohibition on intermediate reads
/// when a transaction overwrites its own key mid-transaction and a
/// concurrent reader catches the intermediate version.
#[test]
fn eventual_violates_rc_given_intermediate_reads() {
    let mut found = false;
    for seed in 0..25u64 {
        let mut front = DeploymentBuilder::new(ProtocolKind::Eventual)
            .seed(100 + seed)
            .clusters(ClusterSpec::single_dc(2, 2))
            .sessions_per_cluster(2)
            .build();
        let _writer_session = front.open_session(SessionOptions::default());
        let reader = front.open_session(SessionOptions::default());
        let writer = front.client(0);
        // writer writes x twice in one txn (an intermediate version
        // exists server-side between the two puts)
        // first write goes out...
        front.engine_mut().with_actor_ctx(writer, |node, ctx| {
            let c = node.as_client_mut().unwrap();
            c.start_cmd(ctx, ClientCmd::Begin);
            let put = ClientCmd::Put("x".into(), bytes::Bytes::from("intermediate"));
            c.start_cmd(ctx, put);
        });
        // ... reader races while the writer's txn is still open (wait
        // past an anti-entropy tick so the other cluster has the dirty
        // value too)
        front.run_for(SimDuration::from_millis(15 + seed % 20));
        let v = front.txn(&reader, |t| t.get("x"));
        if v.as_deref() == Some("intermediate") {
            found = true;
            break;
        }
    }
    assert!(
        found,
        "eventual (Read Uncommitted) should expose uncommitted data"
    );
}
