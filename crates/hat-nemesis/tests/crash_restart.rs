//! End-to-end crash-restart: under every engine, commit a write and
//! kill the server that owns it before the simulation advances — commit
//! propagation (gossip, MAV notifies) is still in flight — then tear the
//! WAL tail, restart, and prove the recovery protocol:
//!
//! * the restarted server replays a non-empty WAL
//!   (`wal_records_replayed != 0` — restarts provably serve
//!   log-recovered state, not a blank store);
//! * recovery cut exactly the torn frame (`wal_torn_bytes_cut` — the
//!   fault landed at the log's end, not past its pre-written zeros);
//! * the commit-acknowledged write survives the torn tail and is
//!   readable after restart (acked means synced: tearing only ever
//!   removes the frame that was in flight, never durable records);
//! * every replica group reconverges and the engine's advertised
//!   isolation level holds over the whole history.
//!
//! Every assertion message carries the engine and seed, so a failure is
//! replayable verbatim.

use hat_core::{
    ClusterSpec, DeploymentBuilder, Frontend, ProtocolKind, SessionOptions, SystemConfig,
};
use hat_history::check;
use hat_nemesis::{advertised_level, converged};
use hat_sim::{LatencyModel, SimDuration};
use hat_storage::{Key, SyncPolicy};

const SEED: u64 = 0x0C4A_54ED;
const TORN_BYTES: u64 = 48;

#[test]
fn mid_commit_crash_with_torn_tail_recovers_under_every_engine() {
    for protocol in ProtocolKind::ALL {
        let dir =
            std::env::temp_dir().join(format!("hat-crash-e2e-{}-{protocol:?}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let mut cfg = SystemConfig::new(protocol);
        cfg.op_deadline = SimDuration::from_millis(40);
        cfg.lock_timeout = SimDuration::from_millis(25);
        let mut front = DeploymentBuilder::new(protocol)
            .seed(SEED)
            .clusters(ClusterSpec::va_or(2))
            .sessions_per_cluster(1)
            .config(cfg)
            .latency(LatencyModel {
                wan_scale: 0.1,
                ..LatencyModel::default()
            })
            .durable(dir.clone(), SyncPolicy::Always)
            .build();
        let s = front.open_session(SessionOptions::default());

        // Settled history first, so the victim's WAL has a body to
        // replay beneath the write the crash races.
        for i in 0..4 {
            front
                .try_txn(&s, |t| {
                    t.put("ck0", &format!("v{i}"))?;
                    t.put("ck1", &format!("w{i}"))
                })
                .unwrap_or_else(|e| panic!("[{protocol:?} seed={SEED:#x}] warmup {i}: {e:?}"));
        }
        front.run_for(SimDuration::from_millis(30));

        // The mid-commit kill: the moment the commit is acknowledged,
        // crash the server the write landed on. Gossip to the sibling
        // cluster has not run yet — recovery must resurrect the write
        // from the torn log alone.
        front
            .try_txn(&s, |t| t.put("ck0", "final"))
            .unwrap_or_else(|e| panic!("[{protocol:?} seed={SEED:#x}] final commit: {e:?}"));
        let key = Key::from("ck0".to_owned());
        let victim = match protocol {
            ProtocolKind::Master | ProtocolKind::TwoPhaseLocking => front.layout().master(&key),
            // Sticky sessions write to their own cluster's replica, and
            // the only open session lives in cluster 0.
            _ => front.layout().replica_in_cluster(&key, 0),
        };
        front.crash_server(victim, TORN_BYTES);
        front.run_for(SimDuration::from_millis(50));
        front.restart_server(victim);
        front.quiesce();
        front.quiesce();

        let stats = front.server_stats();
        assert_eq!(
            stats.crashes, 1,
            "[{protocol:?} seed={SEED:#x}] exactly one crash injected"
        );
        assert!(
            stats.wal_records_replayed > 0,
            "[{protocol:?} seed={SEED:#x}] restart must serve WAL-recovered state, \
             not a blank store"
        );
        assert_eq!(
            stats.wal_torn_bytes_cut, TORN_BYTES,
            "[{protocol:?} seed={SEED:#x}] recovery must cut exactly the torn frame"
        );

        // MAV acknowledges a client write while it is still in the
        // volatile pending set (promotion to the durable good set is an
        // async notification round), so a crash in that window may
        // legitimately lose the not-yet-promoted write. Every other
        // engine installs through the WAL before acking.
        if protocol != ProtocolKind::Mav {
            let got = front
                .try_txn(&s, |t| t.get("ck0"))
                .unwrap_or_else(|e| panic!("[{protocol:?} seed={SEED:#x}] read-back: {e:?}"));
            assert_eq!(
                got.as_deref(),
                Some("final"),
                "[{protocol:?} seed={SEED:#x}] commit-acknowledged write must survive \
                 the torn tail"
            );
        }

        assert!(
            converged(&front),
            "[{protocol:?} seed={SEED:#x}] replica groups diverged after recovery"
        );
        let records = front.take_records();
        let report = check(records, advertised_level(protocol));
        assert!(
            report.violations.is_empty(),
            "[{protocol:?} seed={SEED:#x}] {:?} violated across crash-restart: {:?}",
            advertised_level(protocol),
            report.violations
        );

        let _ = std::fs::remove_dir_all(&dir);
    }
}
