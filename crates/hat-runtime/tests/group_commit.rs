//! The durability barrier, on both backends.
//!
//! One invariant: **a server releases no send while its store holds a
//! put the barrier has not covered** — acknowledgements, read replies
//! and replication pushes alike. `hat_sim::Engine` hands servers a plain
//! `Ctx`, so every handler ends with its own barrier; `run_node` takes
//! the barrier over and runs it once per drain pass (group commit).
//!
//! The ordering tests put a recording [`Store`] double behind every
//! server of a real deployment — all seven engines, their own clients —
//! and read the interleaving of puts, barriers and sends back from one
//! trace sink. The end-to-end tests run a `DurableStore` deployment under
//! closed-loop clients and check that syncs were shared, that every
//! acknowledged write is in the log, and that the history is clean.

use bytes::Bytes;
use hat_core::client::TxnSource;
use hat_core::{
    engine_for, ClusterLayout, ClusterSpec, DeploymentBuilder, Msg, Node, Op, OpRecord,
    ProtocolKind, ReadMode, Server, SystemConfig, Timestamp, TraceEvent, TraceEventKind, TraceSink,
    TxnSpec,
};
use hat_history::check;
use hat_runtime::node_loop::{run_node, Envelope, Router};
use hat_runtime::{Runtime, RuntimeConfig};
use hat_sim::{Ctx, Engine, NetHop, NodeId, SimDuration, SimTime};
use hat_storage::error::Result as StoreResult;
use hat_storage::{
    DurableStore, Key, MemStore, Memtable, Record, SharedRecord, StorageError, Store, SyncPolicy,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

const ALL_ENGINES: [ProtocolKind; 7] = [
    ProtocolKind::Eventual,
    ProtocolKind::ReadCommitted,
    ProtocolKind::Mav,
    ProtocolKind::RampFast,
    ProtocolKind::RampSmall,
    ProtocolKind::Master,
    ProtocolKind::TwoPhaseLocking,
];

const CLIENTS: usize = 4;

/// A `MemStore` that needs a barrier after every put, and says so in the
/// trace: a put is recorded as `WalAppend`, a barrier as `WalReplay`
/// (borrowed kinds — a server over this double records neither), under
/// the owning server's id. The sink numbers events in the order they
/// were recorded, so on the server's own thread the markers interleave
/// exactly with the `MsgSend`s of whatever transport shares the sink.
struct RecordingStore {
    inner: MemStore,
    unsynced: u64,
    node: NodeId,
    sink: TraceSink,
    /// `Some`: every barrier fails, after telling the test it was asked.
    failing: Option<mpsc::Sender<()>>,
}

impl RecordingStore {
    fn new(node: NodeId, sink: TraceSink) -> Self {
        RecordingStore {
            inner: MemStore::new(),
            unsynced: 0,
            node,
            sink,
            failing: None,
        }
    }
}

impl Store for RecordingStore {
    fn table(&self) -> &Memtable {
        self.inner.table()
    }
    fn table_mut(&mut self) -> &mut Memtable {
        self.inner.table_mut()
    }
    fn put(&mut self, key: Key, record: SharedRecord) -> StoreResult<bool> {
        self.sink
            .record(0, self.node, TraceEventKind::WalAppend { bytes: 0 });
        self.unsynced += 1;
        self.inner.put(key, record)
    }
    fn persist(&mut self) -> StoreResult<()> {
        if let Some(asked) = &self.failing {
            let _ = asked.send(());
            return Err(StorageError::Io(std::io::Error::other("injected")));
        }
        let records = std::mem::take(&mut self.unsynced);
        self.sink
            .record(0, self.node, TraceEventKind::WalReplay { records });
        Ok(())
    }
    fn needs_persist(&self) -> bool {
        self.unsynced > 0
    }
}

/// A closed-loop plan: `txns` transactions of two writes and two reads
/// over eight keys every client shares (so reads meet other clients'
/// writes), then a note on `done`. Every transaction touches its four
/// keys in ascending order, so 2PL clients cannot deadlock.
struct Plan {
    client: usize,
    next: usize,
    txns: usize,
    done: mpsc::Sender<()>,
}

impl TxnSource for Plan {
    fn next_txn(&mut self, _rng: &mut StdRng) -> Option<TxnSpec> {
        if self.next == self.txns {
            let _ = self.done.send(());
            self.next += 1;
            return None;
        }
        if self.next > self.txns {
            return None;
        }
        let i = self.next;
        self.next += 1;
        let mut keys = [0, 1, 3, 5].map(|j| (self.client + i + j) % 8);
        keys.sort_unstable();
        let [a, b, c, d] = keys.map(|k| format!("k{k}"));
        let value = format!("c{}t{i}", self.client);
        Some(TxnSpec::new(vec![
            Op::write(&a, &value),
            Op::read(&b),
            Op::write(&c, &value),
            Op::read(&d),
        ]))
    }
}

fn plans(txns: usize) -> (Vec<Box<dyn TxnSource>>, mpsc::Receiver<()>) {
    let (done, all_done) = mpsc::channel();
    let drivers = (0..CLIENTS)
        .map(|client| {
            Box::new(Plan {
                client,
                next: 0,
                txns,
                done: done.clone(),
            }) as Box<dyn TxnSource>
        })
        .collect();
    (drivers, all_done)
}

/// Waits (on the channel, not the clock) until every client has run out
/// of plan.
fn wait_all_done(all_done: &mpsc::Receiver<()>) {
    for _ in 0..CLIENTS {
        all_done
            .recv_timeout(Duration::from_secs(30))
            .expect("every client finishes its plan");
    }
}

/// Two single-server clusters (so every server has a replication peer)
/// with every server rebuilt over a [`RecordingStore`].
struct Recorded {
    nodes: Vec<Node>,
    layout: Arc<ClusterLayout>,
    engine_cfg: hat_sim::EngineConfig,
    topology: hat_sim::Topology,
    sink: TraceSink,
    all_done: mpsc::Receiver<()>,
}

fn recorded_deployment(kind: ProtocolKind, txns: usize) -> Recorded {
    let (drivers, all_done) = plans(txns);
    let (engine_cfg, topology, mut nodes, layout, config, _, _) = DeploymentBuilder::new(kind)
        .seed(11)
        .clusters(ClusterSpec::single_dc(2, 1))
        .drivers(drivers)
        .build_parts();
    let sink = TraceSink::enabled();
    for &id in layout.servers.iter().flatten() {
        nodes[id as usize] = Node::Server(recording_server(kind, id, &layout, &config, &sink));
    }
    Recorded {
        nodes,
        layout,
        engine_cfg,
        topology,
        sink,
        all_done,
    }
}

fn recording_server(
    kind: ProtocolKind,
    id: NodeId,
    layout: &Arc<ClusterLayout>,
    config: &Arc<SystemConfig>,
    sink: &TraceSink,
) -> Server {
    Server::with_engine(
        id,
        layout.cluster_of(id).expect("a server has a cluster"),
        Arc::clone(layout),
        Arc::clone(config),
        Box::new(RecordingStore::new(id, sink.clone())),
        engine_for(kind).0,
    )
}

/// What one server did, read back from the sink.
#[derive(Default)]
struct Tally {
    puts: u64,
    barriers: u64,
    sent: BTreeSet<&'static str>,
}

/// Replays `server`'s own events in the order they were recorded and
/// fails on a send that leaves while a put is still uncovered.
fn tally_checked(kind: ProtocolKind, events: &[TraceEvent], server: NodeId) -> Tally {
    let mut own: Vec<&TraceEvent> = events.iter().filter(|e| e.node == server).collect();
    own.sort_by_key(|e| e.seq);
    let mut tally = Tally::default();
    let mut uncovered = 0u64;
    for e in own {
        match &e.kind {
            TraceEventKind::WalAppend { .. } => {
                tally.puts += 1;
                uncovered += 1;
            }
            TraceEventKind::WalReplay { records } => {
                assert_eq!(*records, uncovered, "{kind:?}: a barrier covers every put");
                tally.barriers += 1;
                uncovered = 0;
            }
            TraceEventKind::MsgSend { from, label, .. } if *from == server => {
                assert_eq!(
                    uncovered, 0,
                    "{kind:?}: server {server} released {label} holding {uncovered} unsynced put(s)"
                );
                tally.sent.insert(label);
            }
            _ => {}
        }
    }
    assert_eq!(uncovered, 0, "{kind:?}: the run ends on a clean store");
    tally
}

/// Checks every server and requires that the run was not vacuous: the
/// store was written, barriers ran, and the replies the invariant is
/// about were all sent.
fn check_all_servers(kind: ProtocolKind, run: &Recorded, events: &[TraceEvent]) -> Tally {
    let mut total = Tally::default();
    for &server in run.layout.servers.iter().flatten() {
        let t = tally_checked(kind, events, server);
        total.puts += t.puts;
        total.barriers += t.barriers;
        total.sent.extend(t.sent);
    }
    assert!(
        total.puts > 0 && total.barriers > 0,
        "{kind:?}: no store traffic"
    );
    let mut expected = vec!["PutResp", "GetResp", "Replicate", "ReplicateAck"];
    if matches!(kind, ProtocolKind::RampFast | ProtocolKind::RampSmall) {
        expected.push("CommitBatchResp");
    }
    if kind == ProtocolKind::Mav {
        expected.push("Notify");
    }
    if kind == ProtocolKind::RampSmall {
        // GET_ALL round 1 answers with stamps, round 2 with versions.
        expected.retain(|l| *l != "GetResp");
        expected.push("GetTsResp");
    }
    for label in expected {
        assert!(
            total.sent.contains(label),
            "{kind:?}: no {label} was sent ({:?})",
            total.sent
        );
    }
    total
}

/// `hat_sim::Engine` drives servers with a plain `Ctx`: each handler
/// runs its own barrier before its sends are routed — one barrier per
/// handler that wrote, never a send in between. The 2PL run covers the
/// sync-replication push (`Replicate` sent from inside the `Put`
/// handler).
#[test]
fn sim_engine_releases_nothing_before_the_handlers_barrier() {
    for kind in ALL_ENGINES {
        let mut run = recorded_deployment(kind, 12);
        let mut engine = Engine::new(
            run.engine_cfg.clone(),
            run.topology.clone(),
            std::mem::take(&mut run.nodes),
        );
        let sink = run.sink.clone();
        engine.set_net_tracer(move |t, from, to, msg: &Msg, hop| {
            if hop == NetHop::Send {
                let kind = TraceEventKind::MsgSend {
                    from,
                    to,
                    label: msg.label(),
                    bytes: 0,
                };
                sink.record(t.as_micros(), from, kind);
            }
        });
        engine.run_for(SimDuration::from_millis(2_000));
        wait_all_done(&run.all_done);
        check_all_servers(kind, &run, &run.sink.events());
    }
}

/// Runs `nodes` on `workers` `run_node` threads, each holding a
/// contiguous run of them (one per node when `workers` is their
/// number), and returns the nodes once `until` (handed the router, to
/// inject with) has returned.
fn run_threaded(
    nodes: Vec<Node>,
    workers: usize,
    sink: &TraceSink,
    until: impl FnOnce(&Router),
) -> Vec<Node> {
    let n = nodes.len();
    let ranges: Vec<_> = (0..workers)
        .map(|w| w * n / workers..(w + 1) * n / workers)
        .collect();
    let (senders, receivers): (Vec<_>, Vec<mpsc::Receiver<Envelope>>) =
        (0..workers).map(|_| mpsc::channel::<Envelope>()).unzip();
    let router = Arc::new(Router {
        inboxes: (ranges.iter().zip(&senders))
            .flat_map(|(range, tx)| range.clone().map(|_| tx.clone()))
            .collect(),
        delay_us: vec![vec![0; n]; n],
    });
    let stop = Arc::new(AtomicBool::new(false));
    let epoch = Instant::now();
    let mut nodes = nodes.into_iter();
    let handles: Vec<_> = ranges
        .into_iter()
        .zip(receivers)
        .map(|(range, rx)| {
            let held: Vec<Node> = nodes.by_ref().take(range.len()).collect();
            let first = range.start as NodeId;
            let (router, stop, sink) = (Arc::clone(&router), Arc::clone(&stop), sink.clone());
            let rng = StdRng::seed_from_u64(range.start as u64);
            std::thread::spawn(move || {
                run_node(held, first, rx, router, stop, rng, epoch, Vec::new(), sink)
            })
        })
        .collect();
    until(&router);
    stop.store(true, Ordering::Relaxed);
    handles
        .into_iter()
        .flat_map(|h| h.join().expect("worker thread panicked"))
        .collect()
}

/// `run_node` takes the barrier over: sends produced from the first
/// dirty handler of a pass on are held until one barrier has covered
/// the pass. Same invariant, and strictly fewer barriers than puts
/// wherever a transaction's writes arrive together.
#[test]
fn run_node_releases_nothing_before_the_passs_barrier() {
    for kind in ALL_ENGINES {
        let mut run = recorded_deployment(kind, 40);
        let nodes = std::mem::take(&mut run.nodes);
        let workers = nodes.len();
        let _ = run_threaded(nodes, workers, &run.sink, |_| wait_all_done(&run.all_done));
        let total = check_all_servers(kind, &run, &run.sink.events());
        assert!(
            total.barriers <= total.puts,
            "{kind:?}: {} barriers for {} puts",
            total.barriers,
            total.puts
        );
    }
}

/// Every node on one worker: a server's reply to a client it shares an
/// engine with never takes a channel, so the pass must hold it like any
/// other send. Each reply a client handles was sent from its server
/// after a barrier had covered every put before it.
#[test]
fn a_co_resident_client_handles_no_reply_before_the_passs_barrier() {
    for kind in ALL_ENGINES {
        let mut run = recorded_deployment(kind, 40);
        let nodes = std::mem::take(&mut run.nodes);
        let _ = run_threaded(nodes, 1, &run.sink, |_| wait_all_done(&run.all_done));
        let mut events = run.sink.events();
        events.sort_by_key(|e| e.seq);
        check_all_servers(kind, &run, &events);

        let servers: Vec<NodeId> = run.layout.servers.iter().flatten().copied().collect();
        let mut uncovered: HashMap<NodeId, u64> = HashMap::new();
        // Per (server, client, label): whether each send not yet
        // handled left covered, in send order.
        let mut in_flight: HashMap<(NodeId, NodeId, &str), VecDeque<bool>> = HashMap::new();
        let mut replies = 0;
        for e in &events {
            match e.kind {
                TraceEventKind::WalAppend { .. } => *uncovered.entry(e.node).or_default() += 1,
                TraceEventKind::WalReplay { .. } => {
                    uncovered.insert(e.node, 0);
                }
                TraceEventKind::MsgSend {
                    from, to, label, ..
                } if servers.contains(&from) => {
                    let covered = uncovered.get(&from).copied().unwrap_or(0) == 0;
                    in_flight
                        .entry((from, to, label))
                        .or_default()
                        .push_back(covered);
                }
                TraceEventKind::MsgRecv {
                    from, to, label, ..
                } if servers.contains(&from) && run.layout.clients.contains(&to) => {
                    let sent = in_flight
                        .get_mut(&(from, to, label))
                        .and_then(VecDeque::pop_front);
                    assert_eq!(
                        sent,
                        Some(true),
                        "{kind:?}: client {to} handled {label} from {from} before its barrier"
                    );
                    replies += 1;
                }
                _ => {}
            }
        }
        assert!(replies > 0, "{kind:?}: no reply reached a client");
    }
}

fn put_to(key: &str) -> Msg {
    let stamp = Timestamp::new(1, 9);
    Msg::Put {
        txn: stamp,
        op: 0,
        key: Key::from(key.to_owned()),
        record: Record::new(stamp, Bytes::from("v")).into(),
    }
}

/// A one-server deployment whose store fails every barrier: its nodes,
/// the server's id and the id of an (idle) client to write from.
fn failing_deployment(asked: mpsc::Sender<()>) -> (Vec<Node>, NodeId, NodeId) {
    let kind = ProtocolKind::ReadCommitted;
    let (_, _, mut nodes, layout, config, _, _) = DeploymentBuilder::new(kind)
        .clusters(ClusterSpec::single_dc(1, 1))
        .sessions_per_cluster(1)
        .build_parts();
    let id = layout.servers[0][0];
    let mut store = RecordingStore::new(id, TraceSink::disabled());
    store.failing = Some(asked);
    nodes[id as usize] = Node::Server(Server::with_engine(
        id,
        0,
        Arc::clone(&layout),
        config,
        Box::new(store),
        engine_for(kind).0,
    ));
    (nodes, id, layout.clients[0])
}

/// A failed barrier under a plain `Ctx` (the simulator, the inline
/// bench harness): the handler's own sends are dropped — no `PutResp` —
/// its timers are not, nothing panics, and the failure is counted.
#[test]
fn a_failed_barrier_unsends_the_handlers_replies() {
    let (asked, _asked_rx) = mpsc::channel();
    let (mut nodes, id, client) = failing_deployment(asked);
    let server = nodes[id as usize].as_server_mut().expect("a server");
    let mut rng = StdRng::seed_from_u64(1);
    let mut ctx = Ctx::detached(id, SimTime::ZERO, &mut rng);
    server.on_message(&mut ctx, client, put_to("x"));
    ctx.set_timer(SimDuration::from_millis(1), 77);
    let (sends, timers) = ctx.into_outputs();
    assert!(sends.is_empty(), "an unsynced write was acknowledged");
    assert_eq!(timers.len(), 1);
    assert_eq!(server.stats.wal_flush_failures, 1);
    assert_eq!(server.stats.wal_syncs, 0);

    // With the barrier deferred the handler sends and leaves the node
    // dirty: holding the reply back is now the driver's job.
    let mut ctx = Ctx::detached(id, SimTime::ZERO, &mut rng).deferring_barrier();
    server.on_message(&mut ctx, client, put_to("y"));
    assert_eq!(ctx.into_outputs().0.len(), 1);
    assert!(server.needs_flush());
    assert!(server.flush().is_err());
    assert_eq!(server.stats.wal_flush_failures, 2);
}

/// A failed barrier under `run_node`: the pass's held sends are dropped
/// — the transport never sees a `PutResp` — so the server just looks
/// unreachable.
#[test]
fn a_failed_barrier_drops_the_passs_held_sends() {
    let (asked, asked_rx) = mpsc::channel();
    let (nodes, id, client) = failing_deployment(asked);
    let sink = TraceSink::enabled();
    let workers = nodes.len();
    let nodes = run_threaded(nodes, workers, &sink, |router| {
        router.inboxes[id as usize]
            .send(Envelope::Net {
                at: SimTime::ZERO,
                from: client,
                to: id,
                msg: put_to("x"),
            })
            .expect("server inbox open");
        // The pass that handled the put has reached its barrier.
        asked_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("the barrier was run");
    });
    let released = sink
        .events()
        .iter()
        .any(|e| matches!(e.kind, TraceEventKind::MsgSend { from, .. } if from == id));
    assert!(!released, "an unsynced write was acknowledged");
    let stats = nodes[id as usize].as_server().expect("a server").stats;
    assert!(stats.wal_flush_failures >= 1);
    assert_eq!(stats.wal_syncs, 0);
}

fn wal_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "hat-group-commit-{tag}-{}-{:x}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// A `SyncPolicy::Always` deployment under four closed-loop clients:
/// syncs are shared (`wal_syncs < wal_synced_puts`), every write of
/// every committed transaction is found at or above its stamp in the
/// reopened log, and the history is clean at the advertised level.
/// Every engine sends a plan's two writes in one round — Read Committed
/// as its commit flush, eventual and master as the plan's write batch
/// before its reads — so each transaction takes three rounds and the
/// two puts share a pass and a sync. The write-through engines must
/// show it: at one sync per put their batch would not be one round.
#[test]
fn durable_deployment_shares_syncs_and_loses_no_acknowledged_write() {
    for kind in [
        ProtocolKind::ReadCommitted,
        ProtocolKind::Eventual,
        ProtocolKind::Master,
    ] {
        let dir = wal_dir(&format!("{kind:?}"));
        let (drivers, all_done) = plans(150);
        let builder = DeploymentBuilder::new(kind)
            .seed(5)
            .clusters(ClusterSpec::single_dc(1, 1))
            .drivers(drivers)
            .durable(&dir, SyncPolicy::Always);
        let rt = Runtime::spawn(
            builder,
            RuntimeConfig {
                latency_scale: 0.0,
                seed: 5,
                op_deadline: None,
            },
        );
        wait_all_done(&all_done);
        let (nodes, metrics, records) = rt.shutdown();
        assert_eq!(metrics.committed, (CLIENTS * 150) as u64, "{kind:?}");
        // Two reads and one round for both writes.
        assert_eq!(metrics.msg_rounds, metrics.committed * 3, "{kind:?}");

        let servers: Vec<&Server> = nodes.iter().filter_map(Node::as_server).collect();
        assert_eq!(servers.len(), 1);
        let stats = servers[0].stats;
        assert_eq!(stats.wal_flush_failures, 0, "{kind:?}");
        assert_eq!(
            stats.wal_synced_puts,
            (CLIENTS * 150 * 2) as u64,
            "{kind:?}"
        );
        assert!(
            stats.wal_syncs < stats.wal_synced_puts,
            "{kind:?}: {} syncs for {} puts — nothing was batched",
            stats.wal_syncs,
            stats.wal_synced_puts
        );
        if kind != ProtocolKind::ReadCommitted {
            assert!(
                2 * stats.wal_synced_puts >= 3 * stats.wal_syncs,
                "{kind:?}: {} syncs for {} puts — fewer than 1.5 puts per sync",
                stats.wal_syncs,
                stats.wal_synced_puts
            );
        }
        let server_dir = dir.join(format!("server-{}", servers[0].node_id()));
        drop(nodes); // close the log before reading it back

        let reopened = DurableStore::open(&server_dir, SyncPolicy::Never).expect("reopen the log");
        let mut writes = 0;
        for r in records.iter().filter(|r| r.committed()) {
            for op in &r.ops {
                if let OpRecord::Write { key, .. } = op {
                    writes += 1;
                    assert!(
                        reopened.latest_at_or_above(key, r.id).is_some(),
                        "{kind:?}: acknowledged write of {key:?} at {} is not in the log",
                        r.id
                    );
                }
            }
        }
        assert_eq!(writes, CLIENTS * 150 * 2, "{kind:?}");
        let report = check(records, kind.model(ReadMode::Batched));
        assert!(report.ok(), "{kind:?}: {report}");
        std::fs::remove_dir_all(dir).unwrap();
    }
}
