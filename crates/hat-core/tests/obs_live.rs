//! Live-telemetry regression net (PR 10): the metrics registry, the
//! time-series sampler and the online probes must be (a) seed-
//! deterministic — same-seed runs produce identical series and registry
//! snapshots — and (b) inert — enabling telemetry must not move a
//! single recorded transaction relative to an untelemetered run. The
//! observability contract is the same as `hat-trace`'s: observation
//! reads, it never steers.

use hat_core::{
    ClusterSpec, DeploymentBuilder, Frontend, ProtocolKind, SessionOptions, SystemConfig, TxnRecord,
};
use hat_sim::SimDuration;

const ENGINES: [ProtocolKind; 4] = [
    ProtocolKind::ReadCommitted,
    ProtocolKind::Mav,
    ProtocolKind::RampSmall,
    ProtocolKind::TwoPhaseLocking,
];

fn builder(kind: ProtocolKind, obs: bool) -> DeploymentBuilder {
    let mut cfg = SystemConfig::new(kind);
    cfg.obs.enabled = obs;
    cfg.obs.sample_interval = SimDuration::from_millis(5);
    cfg.obs.probe_every = 2;
    DeploymentBuilder::new(kind)
        .seed(0x7ACE)
        .clusters(ClusterSpec::va_or(2))
        .sessions_per_cluster(1)
        .config(cfg)
}

/// Closed-loop workload long enough to cross many sample windows:
/// read-modify-writes and multi-key reads over a small hot set, spaced
/// a tick apart so the series has real time structure.
fn run_loop(front: &mut hat_core::SimFrontend) -> Vec<TxnRecord> {
    let sessions: Vec<_> = (0..2)
        .map(|_| front.open_session(SessionOptions::default()))
        .collect();
    for round in 0..20 {
        for (ci, s) in sessions.iter().enumerate() {
            let a = format!("ok{}", (round + ci) % 4);
            let b = format!("ok{}", (round + ci + 1) % 4);
            front.txn(s, |t| {
                let _ = t.get(&a)?;
                t.put(&a, &format!("r{round}c{ci}"))?;
                t.put(&b, &format!("r{round}c{ci}"))
            });
            front.txn(s, |t| {
                let _ = t.get_many(&[&a, &b])?;
                Ok(())
            });
        }
        front.run_for(SimDuration::from_millis(5));
    }
    front.quiesce();
    front.take_records()
}

#[test]
fn telemetry_does_not_perturb_records() {
    for kind in ENGINES {
        let mut plain = builder(kind, false).build();
        let untelemetered = run_loop(&mut plain);
        let mut live = builder(kind, true).build();
        let telemetered = run_loop(&mut live);
        assert!(!untelemetered.is_empty());
        assert_eq!(
            untelemetered, telemetered,
            "{kind:?}: enabling telemetry changed the recorded history"
        );
        // ...and the disabled run really collected nothing.
        assert!(plain.obs_series().is_none());
        assert!(plain.obs_registry().is_none());
        assert!(live.obs_series().is_some());
    }
}

#[test]
fn same_seed_series_and_registry_are_identical() {
    for kind in ENGINES {
        let mut a = builder(kind, true).build();
        let ra = run_loop(&mut a);
        let mut b = builder(kind, true).build();
        let rb = run_loop(&mut b);
        assert_eq!(ra, rb, "{kind:?}: same-seed histories diverged");
        assert_eq!(
            a.obs_series(),
            b.obs_series(),
            "{kind:?}: same-seed series diverged"
        );
        assert_eq!(
            a.obs_registry(),
            b.obs_registry(),
            "{kind:?}: same-seed registries diverged"
        );
        // Byte-identical exports, not just structural equality.
        let (sa, sb) = (a.obs_series().unwrap(), b.obs_series().unwrap());
        assert_eq!(sa.to_json(), sb.to_json());
        let (ga, gb) = (a.obs_registry().unwrap(), b.obs_registry().unwrap());
        assert_eq!(ga.prometheus(), gb.prometheus());
        assert_eq!(ga.to_json(), gb.to_json());
    }
}

#[test]
fn series_windows_are_monotone_and_sum_to_the_run() {
    let mut front = builder(ProtocolKind::ReadCommitted, true).build();
    let records = run_loop(&mut front);
    let series = front.obs_series().unwrap();
    assert!(
        series.points.len() >= 10,
        "only {} windows",
        series.points.len()
    );
    for w in series.points.windows(2) {
        assert!(
            w[1].t_us >= w[0].t_us + 5_000,
            "windows out of order or closer than the sample interval: \
             {} then {}",
            w[0].t_us,
            w[1].t_us
        );
    }
    let committed: u64 = series.points.iter().map(|p| p.committed).sum();
    let writes: u64 = series.points.iter().map(|p| p.committed_w).sum();
    // Every committed txn lands in some window (the final quiesce runs
    // past the last boundary), and the write-set split is a subset.
    assert_eq!(committed, records.len() as u64);
    assert!(writes > 0 && writes < committed);
    for p in &series.points {
        assert!(p.committed_w <= p.committed);
    }
}

#[test]
fn staleness_probe_reports_finite_histogram_for_weak_engines() {
    for kind in [ProtocolKind::Eventual, ProtocolKind::ReadCommitted] {
        let mut front = builder(kind, true).build();
        run_loop(&mut front);
        let p = front
            .obs_sink()
            .staleness()
            .unwrap_or_else(|| panic!("{kind:?}: no visibility probe resolved"));
        assert!(p.count > 0);
        assert!(
            p.max.is_finite() && p.max < 10_000.0,
            "{kind:?}: t-visibility staleness unbounded: max {} ms",
            p.max
        );
        assert!(p.p99 <= p.max && p.p50 <= p.p99);
    }
}

#[test]
fn streaming_checker_is_quiet_on_healthy_runs() {
    // 2PL is subject to both streaming checks (fractured + monotonic),
    // the RAMPs to the fractured check; a fault-free run must not trip
    // either.
    for kind in [
        ProtocolKind::RampFast,
        ProtocolKind::RampSmall,
        ProtocolKind::TwoPhaseLocking,
    ] {
        let mut front = builder(kind, true).build();
        run_loop(&mut front);
        assert_eq!(
            front.obs_sink().violations(),
            0,
            "{kind:?}: streaming checker false-alarmed on a healthy run"
        );
    }
}

#[test]
fn registry_folds_client_and_server_exposition() {
    let mut front = builder(ProtocolKind::Mav, true).build();
    let records = run_loop(&mut front);
    let reg = front.obs_registry().unwrap();
    assert_eq!(
        reg.counter("hat_txn_committed_total", &[("engine", "MAV")]),
        records.len() as u64
    );
    // Server-side stats ride the same exposition path.
    assert!(reg.counter_total("hat_server_replication_msgs_total") > 0);
    // The probe-derived metrics are folded in.
    assert!(reg.counter_total("hat_probe_samples_total") > 0);
    let text = reg.prometheus();
    assert!(text.contains("# TYPE hat_txn_committed_total counter"));
    assert!(text.contains("hat_visibility_staleness_ms{quantile=\"0.99\"}"));
    let json = reg.to_json();
    assert!(json.starts_with('[') && json.ends_with(']'));
    assert!(json.contains("\"type\":\"histogram\""));
}

/// Sharded exposition merges losslessly: two nodes' `ServerStats`
/// exported into separate registries and merged equal the summed stats
/// exported directly — the round trip a scrape aggregator performs.
#[test]
fn server_stats_exposition_merge_round_trip() {
    use hat_core::ServerStats;
    use hat_obs::MetricsRegistry;
    let a = ServerStats {
        replication_msgs: 3,
        replication_bytes: 4_096,
        replication_records: 17,
        catchup_batches: 1,
        wal_records_replayed: 9,
        wal_syncs: 2,
        wal_synced_puts: 8,
        ..Default::default()
    };
    let b = ServerStats {
        replication_msgs: 5,
        replication_bytes: 512,
        commit_batches: 2,
        commit_batch_size: 11,
        msgs_dropped_by_partition: 7,
        crashes: 1,
        shard_handoffs: 2,
        shard_nacks: 3,
        wal_syncs: 1,
        wal_flush_failures: 1,
        ..Default::default()
    };
    let labels = [("cluster", "va")];
    let mut ra = MetricsRegistry::new();
    a.export_into(&mut ra, &labels);
    let mut rb = MetricsRegistry::new();
    b.export_into(&mut rb, &labels);
    ra.merge(&rb);
    let sum = ServerStats {
        replication_msgs: a.replication_msgs + b.replication_msgs,
        replication_bytes: a.replication_bytes + b.replication_bytes,
        replication_records: a.replication_records + b.replication_records,
        catchup_batches: a.catchup_batches + b.catchup_batches,
        commit_batches: a.commit_batches + b.commit_batches,
        commit_batch_size: a.commit_batch_size + b.commit_batch_size,
        msgs_dropped_by_partition: a.msgs_dropped_by_partition + b.msgs_dropped_by_partition,
        crashes: a.crashes + b.crashes,
        wal_records_replayed: a.wal_records_replayed + b.wal_records_replayed,
        wal_torn_bytes_cut: a.wal_torn_bytes_cut + b.wal_torn_bytes_cut,
        shard_handoffs: a.shard_handoffs + b.shard_handoffs,
        shard_nacks: a.shard_nacks + b.shard_nacks,
        wal_syncs: a.wal_syncs + b.wal_syncs,
        wal_synced_puts: a.wal_synced_puts + b.wal_synced_puts,
        wal_flush_failures: a.wal_flush_failures + b.wal_flush_failures,
    };
    let mut direct = MetricsRegistry::new();
    sum.export_into(&mut direct, &labels);
    assert_eq!(ra, direct);
    assert_eq!(ra.prometheus(), direct.prometheus());
    assert!(direct.prometheus().contains("hat_server_wal_syncs_total"));
    // A server on a volatile store never syncs, and its exposition does
    // not grow WAL series that would only ever read 0.
    let mut volatile = MetricsRegistry::new();
    ServerStats::default().export_into(&mut volatile, &labels);
    assert!(!volatile.prometheus().contains("hat_server_wal_sync"));
}
