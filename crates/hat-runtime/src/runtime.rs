//! The threaded runtime: one [`Runtime`] handle per deployment, spawned
//! by [`Runtime::spawn`] or [`BuildThreaded::build_threaded`] and driven
//! through [`hat_core::Frontend`].

use crate::node_loop::{run_node, Envelope, InteractivePort, Router};
use hat_core::{
    ClientCmd, ClientMetrics, ClientReply, ClusterLayout, DeploymentBuilder, Frontend, HatError,
    Node, Session, SessionOptions, SystemConfig, TraceEvent, TraceSink, TxnBackend, TxnRecord,
};
use hat_obs::ObsSink;
use hat_sim::{LatencyModel, Link, NodeId, SimDuration, SimTime, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Threaded runtime configuration.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Scale factor applied to modelled network latency (1.0 = the
    /// EC2-calibrated means; 0.0 = in-process speed). Tests use small
    /// factors so wall-clock stays short.
    pub latency_scale: f64,
    /// RNG seed for per-node generators.
    pub seed: u64,
    /// Wall-clock per-operation deadline override. `None` uses the
    /// deployment's `SystemConfig::op_deadline` (30 s by default) as
    /// real time — appropriate at full latency scale, but a partition
    /// probe at a small `latency_scale` may want unavailability to
    /// surface much sooner.
    pub op_deadline: Option<Duration>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            latency_scale: 0.01,
            seed: 7,
            op_deadline: None,
        }
    }
}

/// A running threaded deployment, one OS thread per node. Driver-mode
/// clients (installed via [`DeploymentBuilder::drivers`]) run their
/// closed loops on their own; every client also has a command port, so
/// interactive transactions run through [`Frontend`] and block the
/// caller until the client's network round resolves — the same
/// synchronous surface [`hat_core::SimFrontend`] offers over virtual
/// time. Dropping the handle stops and joins every thread;
/// [`Runtime::shutdown`] does too, and hands the nodes back.
pub struct Runtime {
    handles: Vec<JoinHandle<Node>>,
    stop: Arc<AtomicBool>,
    started: Instant,
    router: Arc<Router>,
    ports: Vec<FrontPort>,
    opened: usize,
    layout: Arc<ClusterLayout>,
    config: Arc<SystemConfig>,
    trace: TraceSink,
    obs: ObsSink,
    latency_scale: f64,
    op_deadline: Duration,
}

/// The frontend's per-client reply channel. Commands go into the
/// node's regular inbox (so their arrival wakes its blocked `recv`);
/// replies are correlated by sequence number so a reply that arrives
/// after its command timed out is discarded instead of being mistaken
/// for the next command's reply.
struct FrontPort {
    reply_rx: Receiver<(u64, ClientReply)>,
    next_seq: AtomicU64,
}

impl Runtime {
    /// Spawns every node of `builder`'s deployment on its own thread.
    pub fn spawn(builder: DeploymentBuilder, config: RuntimeConfig) -> Runtime {
        let (_engine_cfg, topology, nodes, layout, sys, trace, obs) = builder.build_parts();
        let n = topology.len();
        let (inboxes, receivers): (Vec<_>, Vec<_>) = (0..n).map(|_| channel()).unzip();
        let delay_us = build_delays(&topology, config.latency_scale);
        let router = Arc::new(Router { inboxes, delay_us });
        let stop = Arc::new(AtomicBool::new(false));
        let started = Instant::now();
        // The frontend's roundtrip timeout is this same deadline plus
        // slack — deriving both from one value keeps the "node replies
        // or abandons before the frontend gives up" invariant.
        let op_deadline = config
            .op_deadline
            .unwrap_or_else(|| Duration::from_micros(sys.op_deadline.as_micros()));

        let mut node_ports: Vec<Option<InteractivePort>> = (0..n).map(|_| None).collect();
        let ports = layout
            .clients
            .iter()
            .map(|&c| {
                let (reply_tx, reply_rx) = channel();
                node_ports[c as usize] = Some(InteractivePort {
                    reply_tx,
                    op_deadline,
                });
                FrontPort {
                    reply_rx,
                    next_seq: AtomicU64::new(0),
                }
            })
            .collect();

        let threads = nodes.into_iter().zip(receivers).zip(node_ports);
        let handles = threads
            .enumerate()
            .map(|(i, ((node, rx), port))| {
                let (router, stop, trace) = (Arc::clone(&router), Arc::clone(&stop), trace.clone());
                let rng = StdRng::seed_from_u64(config.seed ^ (i as u64).wrapping_mul(0x9E37));
                let id = i as NodeId;
                std::thread::Builder::new()
                    .name(format!("hat-node-{i}"))
                    .spawn(move || run_node(node, id, rx, router, stop, rng, started, port, trace))
                    .expect("spawn node thread")
            })
            .collect();
        Runtime {
            handles,
            stop,
            started,
            router,
            ports,
            opened: 0,
            layout,
            config: sys,
            trace,
            obs,
            latency_scale: config.latency_scale,
            op_deadline,
        }
    }

    /// Starts a live handoff of ring token `token` to the server at
    /// `to_position` of each cluster, mirroring
    /// [`hat_core::SimFrontend::begin_handoff`]: the `BeginHandoff`
    /// message is broadcast to every server and only the token's
    /// current owner acts on it, so chained handoffs need no ownership
    /// tracking here.
    pub fn begin_handoff(&self, token: u32, to_position: u32) {
        assert!(
            (to_position as usize) < self.layout.shards_per_cluster(),
            "position {to_position} out of range"
        );
        let at = SimTime::elapsed(self.started);
        for cluster in &self.layout.servers {
            let to = cluster[to_position as usize];
            for &s in cluster {
                let msg = hat_core::Msg::BeginHandoff { token, to };
                self.router.send(at, s, s, msg);
            }
        }
    }

    /// Lets the deployment run for `d` of wall-clock time. A caller
    /// holding a `Runtime` reaches the trait's `SimDuration` form as
    /// [`Frontend::run_for`].
    pub fn run_for(&self, d: Duration) {
        std::thread::sleep(d);
    }

    /// The cluster layout.
    pub fn layout(&self) -> &ClusterLayout {
        &self.layout
    }

    /// The deployment configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The deployment-wide trace sink (no-op unless
    /// `SystemConfig::trace` was set on the builder's configuration).
    pub fn trace_sink(&self) -> &TraceSink {
        &self.trace
    }

    /// Snapshot of the structured trace so far, ordered by
    /// `(time, sequence)`. Empty when tracing is disabled.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.trace.events()
    }

    /// The deployment-wide observability sink (no-op unless
    /// `SystemConfig::obs` was enabled on the builder's configuration).
    /// The threaded runtime shares the client-fed pieces — the metrics
    /// registry and the streaming consistency checker — with the
    /// simulator; the time-series sampler and the visibility prober are
    /// driven off virtual time and stay simulator-only.
    pub fn obs_sink(&self) -> &ObsSink {
        &self.obs
    }

    /// Stops all nodes and collects them. Returns `(nodes, aggregated
    /// client metrics, all transaction records)`.
    pub fn shutdown(mut self) -> (Vec<Node>, ClientMetrics, Vec<TxnRecord>) {
        self.stop.store(true, Ordering::Relaxed);
        let mut nodes: Vec<Node> = self
            .handles
            .drain(..)
            .map(|h| h.join().expect("node thread panicked"))
            .collect();
        let mut metrics = ClientMetrics::default();
        let mut records = Vec::new();
        for &c in &self.layout.clients {
            if let Some(client) = nodes[c as usize].as_client_mut() {
                metrics.merge(&client.metrics);
                records.extend(client.take_records());
            }
        }
        records.sort_by_key(|r| (r.session, r.session_seq));
        (nodes, metrics, records)
    }

    /// Fallible [`Frontend::session_metrics`]: reports an unreachable or
    /// wedged client thread as [`HatError::Unavailable`] instead of
    /// panicking.
    pub fn try_session_metrics(&self, session: &Session) -> Result<ClientMetrics, HatError> {
        self.metrics_of(session.index() as usize)
    }

    fn metrics_of(&self, idx: usize) -> Result<ClientMetrics, HatError> {
        match self.roundtrip(idx, ClientCmd::Metrics)? {
            ClientReply::Metrics(m) => Ok(*m),
            other => panic!("protocol mismatch: expected Metrics, got {other:?}"),
        }
    }

    /// Sends `cmd` to client slot `idx` and waits for *its* reply,
    /// discarding stale replies whose command already timed out.
    fn roundtrip(&self, idx: usize, cmd: ClientCmd) -> Result<ClientReply, HatError> {
        let port = &self.ports[idx];
        let seq = port.next_seq.fetch_add(1, Ordering::Relaxed);
        let inbox = &self.router.inboxes[self.layout.clients[idx] as usize];
        if inbox.send(Envelope::Cmd(seq, cmd)).is_err() {
            return Err(HatError::Unavailable { key: None });
        }
        // The node abandons and replies on its own op deadline; the
        // extra slack only covers scheduling.
        let deadline = Instant::now() + self.op_deadline + Duration::from_secs(5);
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            match port.reply_rx.recv_timeout(remaining) {
                Ok((reply_seq, reply)) if reply_seq == seq => return Ok(reply),
                // A reply for an earlier command that timed out here
                // after the node had already started it: drop it.
                Ok((reply_seq, _)) if reply_seq < seq => continue,
                Ok((reply_seq, _)) => {
                    unreachable!("reply {reply_seq} from the future (awaiting {seq})")
                }
                Err(_) => return Err(HatError::Unavailable { key: None }),
            }
        }
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        // Swallow node-thread panics here: panicking inside drop while
        // already unwinding would abort the process and mask the root
        // cause (use `shutdown()` to observe them).
        self.stop.store(true, Ordering::Relaxed);
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Extension trait giving [`DeploymentBuilder`] a threaded-backend
/// `build`, mirroring `build()` for the simulator: the same deployment
/// description, executed on one OS thread per node.
pub trait BuildThreaded {
    /// Builds the deployment on the threaded backend
    /// ([`Runtime::spawn`]).
    fn build_threaded(self, config: RuntimeConfig) -> Runtime;
}

impl BuildThreaded for DeploymentBuilder {
    fn build_threaded(self, config: RuntimeConfig) -> Runtime {
        Runtime::spawn(self, config)
    }
}

impl TxnBackend for Runtime {
    fn exec(&mut self, session: &Session, cmd: ClientCmd) -> Result<ClientReply, HatError> {
        self.roundtrip(session.index() as usize, cmd)
    }
}

impl Frontend for Runtime {
    fn open_session(&mut self, opts: SessionOptions) -> Session {
        assert!(
            self.opened < self.ports.len(),
            "deployment provisions {} session slot(s); raise \
             DeploymentBuilder::sessions_per_cluster",
            self.ports.len()
        );
        let idx = self.opened;
        self.opened += 1;
        let session = Session::from_parts(idx as u32, self.layout.clients[idx], opts);
        match self.exec(&session, ClientCmd::SetSession(opts)) {
            Ok(ClientReply::Ack) => session,
            other => panic!("session open: {other:?}"),
        }
    }

    fn run_for(&mut self, d: SimDuration) {
        std::thread::sleep(Duration::from_micros(d.as_micros()));
    }

    fn quiesce_duration(&self) -> SimDuration {
        // Network delays are scaled by `latency_scale` but timers (the
        // anti-entropy term) run in real time; scale only the WAN term,
        // with a floor absorbing thread-scheduling jitter.
        self.config
            .quiesce_duration_scaled(self.latency_scale)
            .max(SimDuration::from_millis(100))
    }

    fn session_metrics(&self, session: &Session) -> ClientMetrics {
        // An unreachable node yields empty metrics rather than a panic:
        // callers that must distinguish a dead thread from an idle one
        // use `try_session_metrics`, whose error says which it was.
        self.try_session_metrics(session).unwrap_or_default()
    }

    fn aggregate_metrics(&self) -> ClientMetrics {
        // Merge what answered: one wedged client thread should not take
        // down end-of-run reporting for the whole deployment (its final
        // counters are still recovered at `shutdown()`, which joins the
        // thread instead of asking it).
        let mut total = ClientMetrics::default();
        for m in (0..self.ports.len()).filter_map(|idx| self.metrics_of(idx).ok()) {
            total.merge(&m);
        }
        total
    }

    fn take_records(&mut self) -> Vec<TxnRecord> {
        // Same merge-what-answered policy as `aggregate_metrics`: an
        // unreachable thread keeps its records until `shutdown()`.
        let mut all = Vec::new();
        for idx in 0..self.ports.len() {
            match self.roundtrip(idx, ClientCmd::TakeRecords) {
                Ok(ClientReply::Records(r)) => all.extend(r),
                Ok(other) => panic!("protocol mismatch: expected Records, got {other:?}"),
                Err(_) => continue,
            }
        }
        all.sort_by_key(|r| (r.session, r.session_seq));
        all
    }
}

/// Precomputes mean one-way delays between all node pairs.
fn build_delays(topology: &Topology, scale: f64) -> Vec<Vec<u64>> {
    let model = LatencyModel::default();
    let n = topology.len();
    let mut d = vec![vec![0u64; n]; n];
    for (i, a) in topology.iter() {
        for (j, b) in topology.iter() {
            if i == j {
                continue;
            }
            let class = LatencyModel::classify(a, b);
            let one_way_ms = model.mean_rtt_ms(class) / 2.0 * scale;
            d[i as usize][j as usize] = (one_way_ms * 1000.0) as u64;
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use hat_core::client::TxnSource;
    use hat_core::{ClusterSpec, ProtocolKind, SessionLevel};
    use hat_workloads_shim::*;

    /// Minimal local YCSB-ish source to avoid a cyclic dev-dependency on
    /// hat-workloads.
    mod hat_workloads_shim {
        use hat_core::{Op, TxnSpec};

        #[derive(Debug)]
        pub struct MiniSource {
            pub n: u64,
        }
        impl hat_core::client::TxnSource for MiniSource {
            fn next_txn(&mut self, rng: &mut rand::rngs::StdRng) -> Option<TxnSpec> {
                use rand::Rng;
                if self.n == 0 {
                    return None;
                }
                self.n -= 1;
                let k = format!("key{}", rng.gen_range(0u32..20));
                Some(TxnSpec::new(vec![
                    Op::Read(k.clone().into_bytes().into()),
                    Op::Write(k.into_bytes().into(), bytes::Bytes::from_static(b"v")),
                ]))
            }
        }
    }

    /// A source with no transactions that reports being dropped, which
    /// happens once its client's thread has been joined.
    struct DropSignal(std::sync::mpsc::Sender<()>);
    impl TxnSource for DropSignal {
        fn next_txn(&mut self, _: &mut StdRng) -> Option<hat_core::TxnSpec> {
            None
        }
    }
    impl Drop for DropSignal {
        fn drop(&mut self) {
            let _ = self.0.send(());
        }
    }

    #[test]
    fn dropping_the_runtime_joins_its_threads() {
        let (tx, rx) = channel();
        let builder = DeploymentBuilder::new(ProtocolKind::Eventual)
            .clusters(ClusterSpec::single_dc(1, 1))
            .drivers(vec![Box::new(DropSignal(tx))]);
        drop(Runtime::spawn(builder, RuntimeConfig::default()));
        assert!(rx.try_recv().is_ok(), "a node thread outlived its runtime");
    }

    fn drivers(count: usize, txns: u64) -> Vec<Box<dyn TxnSource>> {
        (0..count)
            .map(|_| Box::new(MiniSource { n: txns }) as Box<dyn TxnSource>)
            .collect()
    }

    #[test]
    fn threaded_eventual_commits_transactions() {
        let builder = DeploymentBuilder::new(ProtocolKind::Eventual)
            .seed(1)
            .clusters(ClusterSpec::single_dc(2, 2))
            .drivers(drivers(4, 25));
        let rt = Runtime::spawn(builder, RuntimeConfig::default());
        rt.run_for(Duration::from_millis(400));
        let (_nodes, metrics, records) = rt.shutdown();
        assert!(
            metrics.committed >= 50,
            "expected most of 100 txns committed, got {}",
            metrics.committed
        );
        assert_eq!(records.len() as u64, metrics.committed);
    }

    #[test]
    fn threaded_mav_is_history_clean() {
        let builder = DeploymentBuilder::new(ProtocolKind::Mav)
            .seed(2)
            .clusters(ClusterSpec::single_dc(2, 2))
            .default_session(SessionOptions {
                level: SessionLevel::Monotonic,
                sticky: true,
            })
            .drivers(drivers(3, 20));
        let rt = Runtime::spawn(builder, RuntimeConfig::default());
        rt.run_for(Duration::from_millis(400));
        let (nodes, metrics, _records) = rt.shutdown();
        assert!(metrics.committed > 0);
        // the MAV required-bound invariant holds under real races too
        let misses: u64 = nodes
            .iter()
            .filter_map(|n| n.as_server())
            .map(|s| s.mav_required_misses())
            .sum();
        assert_eq!(misses, 0);
    }

    #[test]
    fn threaded_master_serves_all_clients() {
        let builder = DeploymentBuilder::new(ProtocolKind::Master)
            .seed(3)
            .clusters(ClusterSpec::single_dc(2, 2))
            .drivers(drivers(2, 10));
        let rt = Runtime::spawn(builder, RuntimeConfig::default());
        rt.run_for(Duration::from_millis(300));
        let (_, metrics, _) = rt.shutdown();
        assert_eq!(metrics.committed, 20, "all txns should finish");
    }

    #[test]
    fn interactive_frontend_runs_transactions() {
        let mut front = DeploymentBuilder::new(ProtocolKind::ReadCommitted)
            .seed(4)
            .clusters(ClusterSpec::single_dc(2, 2))
            .sessions_per_cluster(1)
            .build_threaded(RuntimeConfig::default());
        let a = front.open_session(SessionOptions::default());
        let b = front.open_session(SessionOptions {
            level: SessionLevel::Monotonic,
            sticky: true,
        });
        front.txn(&a, |t| t.put("greeting", "from thread a"));
        front.quiesce();
        let v = front.txn(&b, |t| t.get("greeting"));
        assert_eq!(v.as_deref(), Some("from thread a"));
        let (_, metrics, records) = front.shutdown();
        assert_eq!(metrics.committed, 2);
        assert_eq!(records.len(), 2);
    }

    #[test]
    fn interactive_scan_and_metrics() {
        let mut front = DeploymentBuilder::new(ProtocolKind::Eventual)
            .seed(5)
            .clusters(ClusterSpec::single_dc(2, 2))
            .sessions_per_cluster(1)
            .build_threaded(RuntimeConfig::default());
        let s = front.open_session(SessionOptions::default());
        front.txn(&s, |t| {
            t.put("user:1", "alice")?;
            t.put("user:2", "bob")
        });
        front.quiesce();
        let users = front.txn(&s, |t| t.scan("user:"));
        assert_eq!(users.len(), 2);
        assert_eq!(front.session_metrics(&s).committed, 2);
        let records = front.take_records();
        assert_eq!(records.len(), 2);
    }
}
