//! Direct timed calls into single layers, on the workload's own keys and
//! value size. Every kernel is timed in batches; the reported value is
//! the median batch (per call) with the median absolute deviation beside
//! it, over at least [`MIN_BATCHES`] batches.

use crate::gen::{self, SplitMix64, KEYS, SCAN_PREFIX_LEN, VALUE_LEN};
use crate::plan::Plan;
use crate::report::Report;
use crossbeam::channel::unbounded;
use hat_core::protocol::replication::ReplicationLog;
use hat_core::{
    ClusterLayout, ClusterSpec, DeploymentBuilder, Frontend, Msg, ProtocolKind, SessionOptions,
    Timestamp, TxnBackend,
};
use hat_runtime::{BuildThreaded, RuntimeConfig};
use hat_sim::{Event, EventQueue, LatencyModel, Region, SimTime, Site};
use hat_storage::wal::encode_entry;
use hat_storage::{
    DurableStore, Key, MemStore, Record, SharedRecord, Store, SyncPolicy, VersionStamp, Wal,
    WalEntry,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Batches per kernel at full work.
pub const MIN_BATCHES: usize = 32;

/// Version cap of the memtable kernels (the deployment default).
const VERSION_CAP: usize = 64;

/// Times `batches` batches of `per_batch` calls of `f`; returns
/// nanoseconds per call, one sample per batch.
fn time_batches(batches: usize, per_batch: usize, mut f: impl FnMut(usize)) -> Vec<f64> {
    let mut i = 0;
    (0..batches)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..per_batch {
                f(i);
                i += 1;
            }
            t0.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .collect()
}

fn value(rng: &mut SplitMix64) -> Vec<u8> {
    (0..VALUE_LEN).map(|_| rng.next_u64() as u8).collect()
}

fn record(seq: u64, rng: &mut SplitMix64) -> SharedRecord {
    Arc::new(Record::new(VersionStamp::new(seq, 1), value(rng)))
}

/// Runs every kernel and reports it. `scratch` holds the WAL files.
pub fn run(plan: &Plan, scratch: &Path, report: &mut Report) {
    let batches = plan.scaled(MIN_BATCHES).max(3);
    let mut rng = SplitMix64::new(plan.seed ^ 0x000B_EAC4);
    // The workloads' keyspace and key choice: uniform over `user%08d`.
    let keys: Vec<Key> = (0..batches * 1024)
        .map(|_| gen::key(rng.below(KEYS)))
        .collect();
    memtable(batches, &keys, &mut rng, report);
    wal(batches, &keys, &mut rng, scratch, report);
    messages(batches, &keys, &mut rng, report);
    replication(batches, &keys, &mut rng, report);
    simulator(batches, &keys, &mut rng, report);
    runtime(batches, report);
}

fn memtable(batches: usize, keys: &[Key], rng: &mut SplitMix64, report: &mut Report) {
    let mut store = MemStore::with_version_cap(VERSION_CAP);
    for k in 0..KEYS {
        store
            .put(gen::key(k), record(1, rng))
            .expect("memstore put");
    }
    let fresh: Vec<SharedRecord> = (0..keys.len()).map(|i| record(2 + i as u64, rng)).collect();
    let puts = time_batches(batches, 1024, |i| {
        black_box(
            store
                .put(keys[i].clone(), fresh[i].clone())
                .expect("memstore put"),
        );
    });
    report.kernel("memtable.put_ns", "ns", &puts);
    let gets = time_batches(batches, 1024, |i| {
        black_box(store.latest(&keys[i]));
    });
    report.kernel("memtable.get_ns", "ns", &gets);
    // A snapshot read below the newest version: the ordered lookup MAV
    // and RAMP second rounds make.
    let bound = VersionStamp::new(1 + keys.len() as u64 / 2, 1);
    let get_ats = time_batches(batches, 1024, |i| {
        black_box(store.latest_at_or_below(&keys[i], bound));
    });
    report.kernel("memtable.get_at_ns", "ns", &get_ats);
    let mut rows = 0usize;
    let mut scans = time_batches(batches, 128, |i| {
        rows += black_box(store.scan_prefix(&keys[i][..SCAN_PREFIX_LEN])).len();
    });
    let rows_per_scan = rows as f64 / (batches * 128) as f64;
    for s in &mut scans {
        *s /= rows_per_scan;
    }
    report.kernel("memtable.scan_ns_per_row", "ns/row", &scans);
    report.note(
        "memtable.versions_per_key",
        store.version_count() as f64 / store.key_count() as f64,
        "count",
        "exact at a fixed seed",
    );
}

fn wal(batches: usize, keys: &[Key], rng: &mut SplitMix64, scratch: &Path, report: &mut Report) {
    let entries: Vec<WalEntry> = (0..batches * 64)
        .map(|i| WalEntry::Put {
            key: keys[i].clone(),
            record: Record::new(VersionStamp::new(1 + i as u64, 1), value(rng)),
        })
        .collect();
    let encodes = time_batches(batches, 64, |i| {
        black_box(encode_entry(&entries[i]));
    });
    report.kernel("wal.encode_ns", "ns", &encodes);

    let dir = scratch.join("kernel-wal");
    std::fs::create_dir_all(&dir).expect("create WAL kernel directory");
    let mut log = Wal::open(dir.join("append")).expect("open WAL");
    let appends = time_batches(batches, 64, |i| {
        log.append(&entries[i]).expect("WAL append")
    });
    report.kernel("wal.append_ns", "ns", &appends);
    // One append between syncs, so each sync has one frame to flush.
    let syncs: Vec<f64> = (0..batches * 4)
        .map(|i| {
            log.append(&entries[i]).expect("WAL append");
            let t0 = Instant::now();
            log.sync().expect("WAL sync");
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    report.kernel("wal.sync_ns", "ns", &syncs);
    drop(log);

    let store_dir = dir.join("store");
    let mut store = DurableStore::open(&store_dir, SyncPolicy::Always).expect("open durable store");
    let shared: Vec<SharedRecord> = entries
        .iter()
        .map(|e| match e {
            WalEntry::Put { record, .. } => Arc::new(record.clone()),
            WalEntry::Checkpoint { .. } => unreachable!("only puts were built"),
        })
        .collect();
    let puts = time_batches(batches, 8, |i| {
        black_box(
            store
                .put(keys[i].clone(), shared[i].clone())
                .expect("durable put"),
        );
    });
    report.kernel("wal.put_ns", "ns", &puts);
    let written = batches * 8;
    let user_bytes: usize = (0..written).map(|i| keys[i].len() + VALUE_LEN).sum();
    report.note(
        "wal.bytes_per_user_byte",
        store.wal_len() as f64 / user_bytes as f64,
        "ratio",
        "exact",
    );
    drop(store);
    // Fill the log without syncing so the replay has something to chew.
    let mut filler = DurableStore::open(&store_dir, SyncPolicy::Never).expect("reopen store");
    for i in written..shared.len() {
        filler
            .put(keys[i].clone(), shared[i].clone())
            .expect("durable put");
    }
    filler.sync().expect("sync store");
    drop(filler);
    let replays: Vec<f64> = (0..batches.min(8))
        .map(|_| {
            let t0 = Instant::now();
            let reopened = DurableStore::open(&store_dir, SyncPolicy::Never).expect("reopen store");
            let secs = t0.elapsed().as_secs_f64();
            reopened.recovered_records() as f64 / secs
        })
        .collect();
    report.kernel("wal.replay_records_per_s", "1/s", &replays);
    let _ = std::fs::remove_dir_all(&dir);
}

fn messages(batches: usize, keys: &[Key], rng: &mut SplitMix64, report: &mut Report) {
    let shared: Vec<SharedRecord> = (0..1024).map(|i| record(1 + i, rng)).collect();
    let mut queue: VecDeque<(u32, Msg)> = VecDeque::with_capacity(64);
    // A Put going out and the GetResp coming back, each built and moved
    // through a queue once: two hops per iteration.
    let mut hops = time_batches(batches, 1024, |i| {
        let txn = Timestamp::new(i as u64, 1);
        queue.push_back((
            1,
            Msg::Put {
                txn,
                op: 0,
                key: keys[i].clone(),
                record: shared[i % 1024].clone(),
            },
        ));
        queue.push_back((
            0,
            Msg::GetResp {
                txn,
                op: 0,
                found: Some(shared[i % 1024].clone()),
            },
        ));
        black_box(queue.pop_front());
        black_box(queue.pop_front());
    });
    for h in &mut hops {
        *h /= 2.0;
    }
    report.kernel("msg.hop_ns", "ns", &hops);

    // Two clusters of two shards, as in sim-mixed-wan.
    let layout = ClusterLayout::new(vec![vec![0, 1], vec![2, 3]], vec![4], vec![0]);
    let routes = time_batches(batches, 1024, |i| {
        black_box(layout.replica_in_cluster(&keys[i], i % 2));
    });
    report.kernel("shard.route_ns", "ns", &routes);
}

fn replication(batches: usize, keys: &[Key], rng: &mut SplitMix64, report: &mut Report) {
    const WINDOW: usize = 4096;
    let mut log = ReplicationLog::new(1);
    for (i, key) in keys.iter().take(WINDOW).enumerate() {
        log.push(key.clone(), record(1 + i as u64, rng));
    }
    // The peer never acks: every call re-batches the same suffix, which
    // is what an anti-entropy tick does to a lagging peer.
    let batch = time_batches(batches, 16, |_| {
        black_box(log.batch_for(0));
    });
    report.kernel("replication.batch_for_ns", "ns", &batch);
    let mut catchup = time_batches(batches.min(16), 1, |_| {
        black_box(log.catchup_for(0));
    });
    for c in &mut catchup {
        *c /= WINDOW as f64;
    }
    report.kernel("replication.catchup_ns_per_record", "ns/record", &catchup);
}

fn simulator(batches: usize, keys: &[Key], rng: &mut SplitMix64, report: &mut Report) {
    const DEPTH: u64 = 1000;
    let shared = record(1, rng);
    let put = |i: usize| Event::Deliver {
        to: 0,
        from: 1,
        msg: Msg::Put {
            txn: Timestamp::new(i as u64, 1),
            op: 0,
            key: keys[i % keys.len()].clone(),
            record: shared.clone(),
        },
    };
    let mut queue: EventQueue<Msg> = EventQueue::new();
    let mut times = SplitMix64::new(DEPTH);
    for i in 0..DEPTH {
        queue.push(SimTime(times.below(DEPTH * 10)), put(i as usize));
    }
    // Hold the depth: each pop is followed by a push a little later in
    // simulated time, as a request/response exchange does.
    let push_pop = time_batches(batches, 1024, |i| {
        let (at, _) = queue.pop().expect("queue holds its depth");
        queue.push(SimTime(at.0 + times.below(DEPTH * 10)), put(i));
    });
    report.kernel("sim.queue_push_pop_ns", "ns", &push_pop);

    let model = LatencyModel::default();
    let (va, or) = (Site::new(Region::Virginia, 0), Site::new(Region::Oregon, 0));
    let mut std_rng = StdRng::seed_from_u64(DEPTH);
    let samples = time_batches(batches, 1024, |_| {
        black_box(model.sample_one_way(va, or, &mut std_rng));
    });
    report.kernel("sim.latency_sample_ns", "ns", &samples);
}

fn runtime(batches: usize, report: &mut Report) {
    // Two threads, one message in flight: half a round trip is one
    // sleeping-receiver wake-up plus one channel hop.
    let (to_echo, echo_rx) = unbounded::<u64>();
    let (to_main, main_rx) = unbounded::<u64>();
    let echo = std::thread::spawn(move || {
        while let Ok(v) = echo_rx.recv_timeout(Duration::from_secs(5)) {
            if to_main.send(v).is_err() {
                break;
            }
        }
    });
    let mut hops = time_batches(batches, 256, |i| {
        to_echo.send(i as u64).expect("echo thread alive");
        black_box(main_rx.recv_timeout(Duration::from_secs(5)).expect("echo"));
    });
    drop(to_echo);
    echo.join().expect("echo thread panicked");
    for h in &mut hops {
        *h /= 2.0;
    }
    report.kernel("runtime.channel_hop_ns", "ns", &hops);

    // begin + abandon: two Ack-only frontend -> client thread -> frontend
    // trips that never touch a server.
    let mut front = DeploymentBuilder::new(ProtocolKind::Eventual)
        .clusters(ClusterSpec::single_dc(1, 1))
        .build_threaded(RuntimeConfig {
            latency_scale: 0.0,
            ..RuntimeConfig::default()
        });
    let session = front.open_session(SessionOptions::default());
    let mut trips = time_batches(batches, 128, |_| {
        front.begin(&session).expect("begin");
        front.abandon(&session);
    });
    drop(front.shutdown());
    for t in &mut trips {
        *t /= 2.0;
    }
    report.kernel("runtime.cmd_roundtrip_ns", "ns", &trips);
}
