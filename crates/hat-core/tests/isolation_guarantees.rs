//! Guarantee-preservation tests for the PR-6 performance machinery:
//! group commit (RAMP's `CommitBatch`) and delta-compressed anti-entropy
//! catch-up (a compacted `Msg::Replicate`) are *optimizations* — every engine's
//! advertised isolation level must be exactly what it was with per-key
//! commit markers and per-record replay. These tests drive partition /
//! heal schedules that build more than `MAX_BATCH` entries of
//! replication lag behind the partition, so the healed peer is caught up
//! through the delta path, and assert the §5.1 guarantees the seed suite
//! establishes on the healthy path: convergence, MAV atomic visibility
//! (sibling notification must survive batch compaction), and RAMP atomic
//! visibility (prepared-set promotion must survive both batched commit
//! marks and compaction).

use hat_core::protocol::replication::{ReplicationLog, MAX_BATCH};
use hat_core::{
    ClusterSpec, DeploymentBuilder, Frontend, ProtocolKind, ServiceModel, SessionOptions,
    SimFrontend, SystemConfig, Timestamp,
};
use hat_sim::{NodeId, Partition, PartitionSchedule, SimDuration, SimTime};
use hat_storage::{Key, Record, SharedRecord};

/// The largest replication lag (unacknowledged log entries) any server
/// holds for a peer. Above `MAX_BATCH`, the next anti-entropy push to
/// that peer is one compacted catch-up `Replicate`.
fn max_lag(front: &SimFrontend) -> u64 {
    front
        .layout()
        .servers
        .iter()
        .flatten()
        .filter_map(|&s| front.engine().actor(s).as_server())
        .map(|s| s.replication_lag())
        .max()
        .unwrap_or(0)
}

/// Two-cluster deployment with one session per cluster and a partition
/// separating the clusters (servers and their home clients) during
/// `[start, end)`, plus three keys mastered by one cluster-0 server (found
/// by a probe run): master/2PL writers must keep making progress while
/// cluster 1 is cut off, and that server's log gains three entries per
/// transaction.
///
/// Service is free: MAV replays the notifications of every write still
/// pending on each anti-entropy tick, and at calibrated costs that replay
/// saturates the servers long before `MAX_BATCH` writes pend behind the
/// partition.
fn partitioned(kind: ProtocolKind, start: SimTime, end: SimTime) -> (SimFrontend, Vec<String>) {
    let probe = DeploymentBuilder::new(kind)
        .seed(11)
        .clusters(ClusterSpec::va_or(3))
        .sessions_per_cluster(1)
        .build();
    let home = probe.layout().servers[0][0];
    let keys: Vec<String> = (0..100)
        .map(|i| format!("hot-{i}"))
        .filter(|k| probe.layout().master(&Key::from(k.as_str())) == home)
        .take(3)
        .collect();
    assert_eq!(keys.len(), 3, "expected three keys mastered by {home}");
    let side_a: Vec<NodeId> = probe.layout().servers[0]
        .iter()
        .copied()
        .chain([probe.client(0)])
        .collect();
    let side_b: Vec<NodeId> = probe.layout().servers[1]
        .iter()
        .copied()
        .chain([probe.client(1)])
        .collect();
    let mut cfg = SystemConfig::new(kind);
    cfg.service = ServiceModel::zero();
    let front = DeploymentBuilder::new(kind)
        .seed(11)
        .clusters(ClusterSpec::va_or(3))
        .sessions_per_cluster(1)
        .config(cfg)
        .partitions(PartitionSchedule::from_partitions(vec![Partition::new(
            start, end, side_a, side_b,
        )]))
        .build();
    (front, keys)
}

const ALL_ENGINES: [ProtocolKind; 7] = [
    ProtocolKind::Eventual,
    ProtocolKind::ReadCommitted,
    ProtocolKind::Mav,
    ProtocolKind::RampFast,
    ProtocolKind::RampSmall,
    ProtocolKind::Master,
    ProtocolKind::TwoPhaseLocking,
];

/// Every engine: writes accumulated behind a partition are delivered to
/// the lagging cluster through the *compacted* catch-up path once it
/// heals, and a session of that cluster then reads the final values.
/// The overwrite-heavy workload (many rounds over few keys) is exactly
/// what compaction elides, so a compaction bug that drops a live
/// version (or delivers below the watermark twice) surfaces as a stale
/// or non-converging read here.
#[test]
fn delta_catchup_preserves_every_engines_guarantees() {
    for kind in ALL_ENGINES {
        let p_start = SimTime::from_millis(2_000);
        let p_end = SimTime::from_millis(3_000);
        let (mut front, keys) = partitioned(kind, p_start, p_end);
        let writer = front.open_session(SessionOptions::default()); // home cluster 0
        let reader = front.open_session(SessionOptions::default()); // home cluster 1
        let (k0, k1, k2) = (keys[0].as_str(), keys[1].as_str(), keys[2].as_str());

        // Seed before the partition so both sides know the keys.
        front.txn(&writer, |t| {
            t.put(k0, "seed")?;
            t.put(k1, "seed")?;
            t.put(k2, "seed")
        });
        front.quiesce();

        // Build replication lag behind the partition: overwrite rounds
        // of 3 keys until some server lags its peer by more than
        // MAX_BATCH. 2PL's writer blocks at the partition instead (see
        // below), so it runs a fixed 30 rounds.
        front.run_for(p_start.since(front.now()));
        let mut rounds = 0;
        while rounds < 30
            || (kind != ProtocolKind::TwoPhaseLocking && max_lag(&front) <= MAX_BATCH as u64)
        {
            let v = format!("round-{rounds}");
            front.txn(&writer, |t| {
                t.put(k0, &v)?;
                t.put(k1, &v)?;
                t.put(k2, &v)
            });
            rounds += 1;
        }
        let last = format!("round-{}", rounds - 1);
        assert!(
            kind == ProtocolKind::TwoPhaseLocking || front.now() < p_end,
            "{kind:?}: the lag must build behind the partition"
        );

        // Heal and let catch-up run.
        front.run_for(p_end.since(front.now()) + SimDuration::from_millis(1));
        front.quiesce();
        front.quiesce();

        let (a, b, c) = front.txn(&reader, |t| Ok((t.get(k0)?, t.get(k1)?, t.get(k2)?)));
        for v in [a, b, c] {
            assert_eq!(
                v.as_deref(),
                Some(last.as_str()),
                "{kind:?}: lagging cluster must converge to the final version"
            );
        }
        let stats = front.server_stats();
        if kind == ProtocolKind::TwoPhaseLocking {
            // 2PL commit writes are sync-replicated (acked only once a
            // peer covers them), so a partitioned master cannot ack and
            // the writer blocks at the partition instead of building
            // replication lag — the delta path has nothing to compact.
            // That unavailability is the point of the CP baseline; what
            // must still hold is convergence (asserted above) across a
            // partition that really dropped traffic.
            assert!(
                stats.msgs_dropped_by_partition > 0,
                "{kind:?}: the partition must have dropped traffic \
                 (stats: {stats:?})"
            );
        } else {
            assert!(
                stats.catchup_batches > 0,
                "{kind:?}: the delta catch-up path must actually have run \
                 (stats: {stats:?})"
            );
        }
        assert!(stats.replication_msgs > 0 && stats.replication_bytes > 0);
        if kind == ProtocolKind::Mav {
            assert_eq!(front.required_misses(), 0);
        }
    }
}

/// Two-key transactions per burst in the partitioned tests: twelve
/// bursts put more than `MAX_BATCH` entries in each writing server's log.
const BURST: usize = MAX_BATCH / 12 + 1;

/// MAV atomic visibility across a partition/heal cycle with compaction
/// forced on. The stamp-closure property of the compacted batch is what
/// keeps MAV's sibling ack counting sound: if the batch shipped only
/// per-key latest versions, a transaction whose sibling was overwritten
/// would never fully promote on the healed side and a reader could see
/// a fractured write-set. The probe reads (a, b) in order and requires
/// b >= a in every transaction, during and after the partition.
#[test]
fn mav_sibling_notification_survives_compacted_catchup() {
    let p_start = SimTime::from_millis(2_000);
    let p_end = SimTime::from_millis(4_000);
    let (mut front, _) = partitioned(ProtocolKind::Mav, p_start, p_end);
    let writer = front.open_session(SessionOptions::default());
    let reader = front.open_session(SessionOptions::default());
    front.txn(&writer, |t| {
        t.put("acct-a", "0")?;
        t.put("acct-b", "0")
    });
    front.quiesce();
    front.run_for(p_start.since(front.now()));

    let probe = |front: &mut SimFrontend, phase: &str| {
        let (a, b) = front.txn(&reader, |t| Ok((t.get("acct-a")?, t.get("acct-b")?)));
        let a: u64 = a.unwrap_or_default().parse().unwrap_or(0);
        let b: u64 = b.unwrap_or_default().parse().unwrap_or(0);
        assert!(
            b >= a,
            "{phase}: read a={a} then b={b}: atomic view violated"
        );
    };

    // Behind the partition: bursts of overwrites (the compaction fodder,
    // more than MAX_BATCH in all)…
    let mut n = 0;
    for _ in 0..12 {
        for _ in 0..BURST {
            n += 1;
            let v = format!("{n}");
            front.txn(&writer, |t| {
                t.put("acct-a", &v)?;
                t.put("acct-b", &v)
            });
        }
        // …while the partitioned side keeps reading its stale-but-atomic
        // snapshot.
        probe(&mut front, "during partition");
        front.run_for(SimDuration::from_millis(53));
    }
    assert!(front.now() < p_end && max_lag(&front) > MAX_BATCH as u64);

    front.run_for(p_end.since(front.now()) + SimDuration::from_millis(1));
    // Probe while catch-up is in flight and after it settles.
    for _ in 0..6 {
        probe(&mut front, "during heal");
        front.run_for(SimDuration::from_millis(41));
    }
    front.quiesce();
    front.quiesce();
    probe(&mut front, "after quiesce");
    assert_eq!(front.required_misses(), 0);
    assert!(front.server_stats().catchup_batches > 0);
}

/// RAMP-Fast and RAMP-Small atomic visibility with group commit
/// (batched commit marks) and catch-up compaction forced on: a batched
/// mark that was lost, reordered or double-delivered would strand
/// prepared versions or expose fractured write-sets, which the (a, b)
/// probe detects.
#[test]
fn ramp_promotion_survives_group_commit_and_catchup() {
    for kind in [ProtocolKind::RampFast, ProtocolKind::RampSmall] {
        let p_start = SimTime::from_millis(2_000);
        let p_end = SimTime::from_millis(4_500);
        let (mut front, _) = partitioned(kind, p_start, p_end);
        let writer = front.open_session(SessionOptions::default());
        let reader = front.open_session(SessionOptions::default());
        front.txn(&writer, |t| {
            t.put("acct-a", "0")?;
            t.put("acct-b", "0")
        });
        front.quiesce();
        front.run_for(p_start.since(front.now()));
        let mut n = 0;
        for _ in 0..12 {
            for _ in 0..BURST {
                n += 1;
                let v = format!("{n}");
                front.txn(&writer, |t| {
                    t.put("acct-a", &v)?;
                    t.put("acct-b", &v)
                });
            }
            let (a, b) = front.txn(&reader, |t| Ok((t.get("acct-a")?, t.get("acct-b")?)));
            let a: u64 = a.unwrap_or_default().parse().unwrap_or(0);
            let b: u64 = b.unwrap_or_default().parse().unwrap_or(0);
            assert!(b >= a, "{kind:?}: a={a} then b={b}: atomic view violated");
            front.run_for(SimDuration::from_millis(53));
        }
        assert!(front.now() < p_end && max_lag(&front) > MAX_BATCH as u64);
        front.run_for(p_end.since(front.now()) + SimDuration::from_millis(1));
        front.quiesce();
        front.quiesce();
        let (a, b) = front.txn(&reader, |t| Ok((t.get("acct-a")?, t.get("acct-b")?)));
        let last = n.to_string();
        assert_eq!(a.as_deref(), Some(last.as_str()));
        assert_eq!(b.as_deref(), Some(last.as_str()));
        // The batched phase-2 path must actually have been used: the
        // writer's client batched marks and the servers counted them.
        let client = front.aggregate_metrics();
        assert!(
            client.commit_batches > 0 && client.commit_batch_marks >= client.commit_batches,
            "{kind:?}: group commit not exercised: {client:?}"
        );
        let stats = front.server_stats();
        assert!(stats.commit_batches > 0 && stats.catchup_batches > 0);
    }
}

/// The acceptance bound on the wire win: for a 10k-entry lag on a hot
/// overwrite workload, the compacted catch-up batch carries far fewer
/// records, messages and bytes than per-record replay of the same
/// window.
#[test]
fn catchup_beats_replay_on_messages_and_bytes_for_10k_lag() {
    let mut log = ReplicationLog::new(1);
    for i in 0..10_000u64 {
        log.push(
            Key::from(format!("user{:08}", i % 1000)),
            Record::new(Timestamp::new(i + 1, 1), bytes::Bytes::from(vec![7u8; 128])).into(),
        );
    }
    let wire_bytes = |entries: &[(Key, SharedRecord)]| -> u64 {
        entries
            .iter()
            .map(|(k, r)| 4 + k.len() as u64 + r.encoded_len() as u64)
            .sum()
    };

    // Per-record replay: the peer acks each chunk, the sender rebatches.
    let mut replay = log.clone();
    let mut replay_msgs = 0u64;
    let mut replay_records = 0u64;
    let mut replay_bytes = 0u64;
    loop {
        let (start, batch) = replay.batch_for(0);
        if batch.is_empty() {
            break;
        }
        replay_msgs += 1;
        replay_records += batch.len() as u64;
        replay_bytes += wire_bytes(&batch);
        replay.ack(0, start + batch.len() as u64);
    }
    assert_eq!(replay_msgs, (10_000 / MAX_BATCH as u64) + 1);
    assert_eq!(replay_records, 10_000);

    // Compacted catch-up: one message, one live version per key.
    let (upto, entries) = log.catchup_for(0);
    assert_eq!(upto, 10_000);
    assert_eq!(entries.len(), 1000, "one surviving version per hot key");
    let delta_bytes = wire_bytes(&entries);
    assert!(
        delta_bytes * 5 < replay_bytes,
        "delta catch-up must be far cheaper: {delta_bytes} vs {replay_bytes} bytes"
    );
    assert!(1 < replay_msgs, "replay takes multiple round trips");
}
