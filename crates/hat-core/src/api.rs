//! Deployment assembly and the simulator-backed frontend.
//!
//! [`DeploymentBuilder`] assembles clusters, session slots, latency and
//! partition schedules — everything about a deployment that is *not* the
//! execution substrate. `build()` yields a [`SimFrontend`] (discrete-event
//! simulator); `build_threaded()` from `hat-runtime` consumes the same
//! builder and yields a `hat_runtime::Runtime` (a pool of worker threads,
//! at most one per core).
//! Both implement [`Frontend`], so workloads are written once.
//!
//! Under the simulator, transactions run synchronously from the caller's
//! point of view: each operation is started on the client actor as a
//! [`ClientCmd`] and the simulation steps until the client is idle (or the
//! operation deadline passes — which is how unavailability surfaces, as
//! [`HatError::Unavailable`]).

use crate::client::{Client, ClientCmd, ClientReply, SessionOptions, TxnSource};
use crate::cluster::{ClusterLayout, ClusterSpec};
use crate::config::{ProtocolKind, SystemConfig};
use crate::error::HatError;
use crate::frontend::{Frontend, Session, TxnBackend};
use crate::messages::Msg;
use crate::metrics::ClientMetrics;
use crate::node::Node;
use crate::protocol::{engine_for, EnginePair};
use crate::server::Server;
use crate::txn::TxnRecord;
use hat_obs::ObsSink;
use hat_sim::{
    Engine, EngineConfig, LatencyModel, NetHop, NodeId, Partition, PartitionSchedule, SimDuration,
    SimTime, Topology,
};
use hat_storage::{DurableStore, Key, MemStore, Store, SyncPolicy, VersionStamp, Wal};
use hat_trace::{DropReason, TraceEvent, TraceEventKind, TraceSink};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The one translation of network hops into trace events, installed on
/// every engine of both backends when tracing is on. Network-level events
/// come from the substrate, not the actors: the engine reports every
/// send, delivery and drop, recorded under the sender (the receiver for a
/// delivery or a crash drop). The hook is rng-neutral, so enabling it
/// cannot perturb a seeded run.
pub fn net_tracer(sink: TraceSink) -> impl FnMut(SimTime, NodeId, NodeId, &Msg, NetHop) {
    move |t, from, to, msg, hop| {
        let kind = match hop {
            NetHop::Send => TraceEventKind::MsgSend {
                from,
                to,
                label: msg.label(),
                bytes: msg.approx_bytes(),
            },
            NetHop::Deliver => TraceEventKind::MsgRecv {
                from,
                to,
                label: msg.label(),
                bytes: msg.approx_bytes(),
            },
            NetHop::DropPartition => TraceEventKind::MsgDrop {
                from,
                to,
                label: msg.label(),
                reason: DropReason::Partition,
            },
            NetHop::DropCrash => TraceEventKind::MsgDrop {
                from,
                to,
                label: msg.label(),
                reason: DropReason::Crashed,
            },
        };
        let node = match hop {
            NetHop::Deliver | NetHop::DropCrash => to,
            NetHop::Send | NetHop::DropPartition => from,
        };
        sink.record(t.as_micros(), node, kind);
    }
}

/// Builder for a HAT deployment, parameterized by protocol and — at
/// `build` time — by execution backend.
pub struct DeploymentBuilder {
    protocol: ProtocolKind,
    seed: u64,
    spec: ClusterSpec,
    sessions_per_cluster: usize,
    default_session: SessionOptions,
    config: SystemConfig,
    latency: LatencyModel,
    partitions: PartitionSchedule,
    drivers: Vec<Box<dyn TxnSource>>,
    engine_factory: Option<EngineFactory>,
    durable: Option<(PathBuf, SyncPolicy)>,
}

impl DeploymentBuilder {
    /// Starts a builder for `protocol` with a default two-cluster,
    /// single-datacenter deployment.
    pub fn new(protocol: ProtocolKind) -> Self {
        DeploymentBuilder {
            protocol,
            seed: DEFAULT_SEED,
            spec: ClusterSpec::single_dc(2, 1),
            sessions_per_cluster: 1,
            default_session: SessionOptions::default(),
            config: SystemConfig::new(protocol),
            latency: LatencyModel::default(),
            partitions: PartitionSchedule::none(),
            drivers: Vec::new(),
            engine_factory: None,
            durable: None,
        }
    }

    /// Sets the deterministic seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the cluster deployment.
    pub fn clusters(mut self, spec: ClusterSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Number of interactive session slots provisioned per cluster
    /// (claimed, in round-robin cluster order, by
    /// [`Frontend::open_session`]).
    pub fn sessions_per_cluster(mut self, n: usize) -> Self {
        self.sessions_per_cluster = n;
        self
    }

    /// Default session options: used by driver-mode clients and by any
    /// session slot never explicitly opened. Interactive sessions pick
    /// their own options at [`Frontend::open_session`] time.
    pub fn default_session(mut self, session: SessionOptions) -> Self {
        self.default_session = session;
        self
    }

    /// Overrides the system configuration (service model, retry policy,
    /// deadlines, recording and telemetry switches). The protocol field is
    /// forced to the builder's protocol.
    pub fn config(mut self, mut config: SystemConfig) -> Self {
        config.protocol = self.protocol;
        self.config = config;
        self
    }

    /// Overrides the latency model.
    pub fn latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Installs a partition schedule.
    pub fn partitions(mut self, partitions: PartitionSchedule) -> Self {
        self.partitions = partitions;
        self
    }

    /// Closed-loop mode: one driver per client. The number of clients
    /// becomes `drivers.len()`, assigned to clusters round-robin.
    pub fn drivers(mut self, drivers: Vec<Box<dyn TxnSource>>) -> Self {
        self.drivers = drivers;
        self
    }

    /// Installs a custom engine factory: every server runs the
    /// [`crate::ProtocolEngine`] half and every client the
    /// [`crate::ClientProtocol`] half of a pair it yields, instead of
    /// the registry pair for the builder's protocol kind. This is how
    /// engines outside [`crate::protocol::engine_for`] plug into the
    /// simulator, the threaded runtime and the benchmark harness without
    /// any change to the server or the client core.
    pub fn engine_factory(
        mut self,
        factory: impl Fn() -> EnginePair + Send + Sync + 'static,
    ) -> Self {
        self.engine_factory = Some(Arc::new(factory));
        self
    }

    /// Backs every server with a [`DurableStore`] rooted at
    /// `dir/server-<id>` instead of a volatile [`MemStore`], and a
    /// server rebuilt by [`SimFrontend::restart_server`] recovers its
    /// memtable from the log (including deliberately-torn tails). This
    /// is the paper's durable configuration, and the substrate
    /// crash-restart nemesis schedules require.
    ///
    /// Durability is two steps (see [`hat_storage::store`]): a put
    /// *logs and applies*, the store's barrier *makes durable*, and
    /// whoever releases a reply runs the barrier first. Under
    /// [`SyncPolicy::Always`] the invariant is that **a server releases
    /// no send while it holds an unsynced write** — acknowledgements,
    /// read replies and replication pushes alike. Every server handler
    /// ends with the barrier ([`Server::flush`]), so any driver is safe
    /// by default at one sync per handler call; the threaded runtime
    /// takes the barrier over and runs it once per batch of handler
    /// calls (group commit). Under [`SyncPolicy::Never`] the barrier
    /// does nothing and the OS decides.
    pub fn durable(mut self, dir: impl Into<PathBuf>, policy: SyncPolicy) -> Self {
        self.durable = Some((dir.into(), policy));
        self
    }

    /// Builds the deployment on the discrete-event simulator backend.
    ///
    /// # Panics
    /// Panics if the spec is rejected by [`DeploymentBuilder::try_build`]
    /// (unequal cluster sizes, a zero-server cluster, no session slots).
    pub fn build(self) -> SimFrontend {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds the deployment on the simulator backend, rejecting an
    /// unusable spec with [`HatError::InvalidDeployment`] instead of
    /// panicking — a zero-server cluster, say, would otherwise only
    /// surface as a routing panic on the first key touched.
    pub fn try_build(self) -> Result<SimFrontend, HatError> {
        let engine_factory = self.engine_factory.clone();
        let durable = self.durable.clone();
        let (engine_config, topology, actors, layout, config, trace, obs) =
            self.try_build_parts()?;
        let mut engine = Engine::new(engine_config, topology, actors);
        if trace.is_enabled() {
            engine.set_net_tracer(net_tracer(trace.clone()));
        }
        Ok(SimFrontend {
            engine,
            layout,
            config,
            opened: 0,
            engine_factory,
            durable,
            trace,
            obs,
        })
    }

    /// Builds the deployment pieces without an engine — used by external
    /// runtimes (e.g. `hat-runtime`'s threaded executor) that drive the
    /// same actors themselves. The returned [`TraceSink`] and
    /// [`ObsSink`] are the deployment-wide sinks already installed on
    /// every actor: no-op handles unless [`SystemConfig::trace`] /
    /// [`SystemConfig::obs`] are set.
    ///
    /// # Panics
    /// Panics on a spec [`DeploymentBuilder::try_build_parts`] rejects.
    #[allow(clippy::type_complexity)]
    pub fn build_parts(
        self,
    ) -> (
        EngineConfig,
        Topology,
        Vec<Node>,
        Arc<ClusterLayout>,
        Arc<SystemConfig>,
        TraceSink,
        ObsSink,
    ) {
        self.try_build_parts().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`DeploymentBuilder::build_parts`]: validates the
    /// deployment spec and returns [`HatError::InvalidDeployment`] for a
    /// spec the layout cannot route over (no clusters, a zero-server
    /// cluster, unequal cluster sizes — positional anti-entropy peering
    /// requires equal partition counts — or zero session slots).
    #[allow(clippy::type_complexity)]
    pub fn try_build_parts(
        self,
    ) -> Result<
        (
            EngineConfig,
            Topology,
            Vec<Node>,
            Arc<ClusterLayout>,
            Arc<SystemConfig>,
            TraceSink,
            ObsSink,
        ),
        HatError,
    > {
        let sizes: Vec<usize> = self.spec.clusters.iter().map(|(_, n)| *n).collect();
        if sizes.is_empty() {
            return Err(HatError::InvalidDeployment {
                reason: "spec declares no clusters".into(),
            });
        }
        if sizes.contains(&0) {
            return Err(HatError::InvalidDeployment {
                reason: format!("spec declares a zero-server cluster: {sizes:?}"),
            });
        }
        if sizes.iter().any(|&n| n != sizes[0]) {
            return Err(HatError::InvalidDeployment {
                reason: format!(
                    "clusters must be equal-sized (positional anti-entropy \
                     peering pairs replicas by index), got {sizes:?}"
                ),
            });
        }
        let n_clusters = sizes.len();

        let mut topology = Topology::new();
        let mut servers: Vec<Vec<NodeId>> = Vec::with_capacity(n_clusters);
        for (site, n) in &self.spec.clusters {
            servers.push(topology.add_nodes(*site, *n));
        }
        let n_clients = if self.drivers.is_empty() {
            self.sessions_per_cluster * n_clusters
        } else {
            self.drivers.len()
        };
        if n_clients == 0 {
            return Err(HatError::InvalidDeployment {
                reason: "deployment provisions no session slots".into(),
            });
        }
        // Homes derived for any client count: round-robin over clusters.
        let mut clients = Vec::with_capacity(n_clients);
        let mut client_home = Vec::with_capacity(n_clients);
        for i in 0..n_clients {
            let home = i % n_clusters;
            let site = self.spec.clusters[home].0;
            clients.push(topology.add_node(site));
            client_home.push(home);
        }
        let layout = Arc::new(ClusterLayout::new(servers, clients.clone(), client_home));
        let config = Arc::new(self.config);

        let mut drivers: Vec<Option<Box<dyn TxnSource>>> =
            self.drivers.into_iter().map(Some).collect();
        drivers.resize_with(n_clients, || None);

        let trace = if config.trace {
            TraceSink::enabled()
        } else {
            TraceSink::disabled()
        };
        let obs = if config.obs.enabled {
            ObsSink::enabled(config.protocol.checker_policy())
        } else {
            ObsSink::disabled()
        };

        let mut actors: Vec<Node> = Vec::with_capacity(topology.len());
        for cluster in 0..n_clusters {
            for &id in &layout.servers[cluster] {
                let store = make_store(&self.durable, id);
                let mut server = Server::with_engine(
                    id,
                    cluster,
                    Arc::clone(&layout),
                    Arc::clone(&config),
                    store,
                    make_engine(&self.engine_factory, &config).0,
                );
                server.set_trace_sink(trace.clone());
                actors.push(Node::Server(server));
            }
        }
        for (i, &id) in clients.iter().enumerate() {
            // writer id 0 is reserved for the initial version's writer
            let mut c = Client::with_protocol(
                id,
                i as u32 + 1,
                layout.client_home[i],
                Arc::clone(&layout),
                Arc::clone(&config),
                self.default_session,
                make_engine(&self.engine_factory, &config).1,
            );
            if let Some(d) = drivers[i].take() {
                c = c.with_driver(d);
            }
            c.set_trace_sink(trace.clone());
            c.set_obs_sink(obs.clone());
            actors.push(Node::Client(c));
        }

        Ok((
            EngineConfig {
                seed: self.seed,
                latency: self.latency,
                partitions: self.partitions,
            },
            topology,
            actors,
            layout,
            config,
            trace,
            obs,
        ))
    }
}

/// Yields both halves of the engine a deployment runs.
type EngineFactory = Arc<dyn Fn() -> EnginePair + Send + Sync>;

/// Both halves of the deployment's engine: the injected factory's, else
/// the registry's for the configured protocol kind.
fn make_engine(factory: &Option<EngineFactory>, config: &SystemConfig) -> EnginePair {
    match factory {
        Some(factory) => factory(),
        None => engine_for(config.protocol),
    }
}

/// Default engine seed when the builder is not given one.
const DEFAULT_SEED: u64 = 0x4A7_5EED;

/// Per-key bound on a volatile server's version chains. Multi-version
/// readers (RAMP's by-stamp fetches, snapshot reads) only reach back a
/// bounded distance, so replicas keep at most this many versions per key.
const VERSION_CHAIN_LIMIT: usize = 64;

/// Builds the store for server `id`: WAL-backed when the deployment is
/// durable, otherwise a plain memtable. Each server logs into its own
/// subdirectory so crash-restart can recover one replica independently.
fn make_store(durable: &Option<(PathBuf, SyncPolicy)>, id: NodeId) -> Box<dyn Store + Send> {
    match durable {
        Some((dir, policy)) => Box::new(
            DurableStore::open(server_store_dir(dir, id), *policy)
                .expect("open durable server store"),
        ),
        None => Box::new(MemStore::with_version_cap(VERSION_CHAIN_LIMIT)),
    }
}

/// Per-server durable-store directory under the deployment root.
fn server_store_dir(dir: &Path, id: NodeId) -> PathBuf {
    dir.join(format!("server-{id}"))
}

/// The simulator-backed [`Frontend`]: a running deployment on the
/// deterministic discrete-event engine.
pub struct SimFrontend {
    engine: Engine<Node>,
    layout: Arc<ClusterLayout>,
    config: Arc<SystemConfig>,
    opened: usize,
    engine_factory: Option<EngineFactory>,
    durable: Option<(PathBuf, SyncPolicy)>,
    trace: TraceSink,
    obs: ObsSink,
}

impl SimFrontend {
    /// The node id of client slot `idx` (0-based). Used to address
    /// clients in partition schedules and layout probes.
    pub fn client(&self, idx: usize) -> NodeId {
        self.layout.clients[idx]
    }

    /// The cluster layout.
    pub fn layout(&self) -> &ClusterLayout {
        &self.layout
    }

    /// The deployment configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// The deployment-wide trace sink (no-op unless the configuration
    /// enabled [`SystemConfig::trace`]).
    pub fn trace_sink(&self) -> &TraceSink {
        &self.trace
    }

    /// Snapshot of the structured trace so far, ordered by
    /// `(time, sequence)`. Empty when tracing is disabled.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.trace.events()
    }

    /// The deployment-wide live-telemetry sink (no-op unless the
    /// configuration enabled [`crate::config::ObsConfig`]).
    pub fn obs_sink(&self) -> &ObsSink {
        &self.obs
    }

    /// Snapshot of the live time series (None when telemetry is off).
    pub fn obs_series(&self) -> Option<hat_obs::TimeSeries> {
        self.obs.series()
    }

    /// Snapshot of the live metrics registry with the deployment's
    /// end-of-run exposition folded in: client metrics (per engine),
    /// server stats, and the probe/checker-derived metrics. None when
    /// telemetry is off.
    pub fn obs_registry(&self) -> Option<hat_obs::MetricsRegistry> {
        let mut reg = self.obs.registry()?;
        let engine = self.config.protocol.label();
        self.aggregate_metrics()
            .export_into(&mut reg, &[("engine", engine)]);
        self.server_stats()
            .export_into(&mut reg, &[("engine", engine)]);
        Some(reg)
    }

    /// Live-telemetry tick, called after every engine step while
    /// telemetry is on: at each sample boundary it first resolves
    /// pending t-visibility probes against the replica stores
    /// (read-only `latest_at_or_above` lookups; crashed replicas count
    /// as not-yet-visible), then closes the series window from a purely
    /// observational snapshot of client/server counters. Does nothing
    /// — not even taking the sink lock — when telemetry is off.
    fn obs_pump(&mut self) {
        let now_us = self.engine.now().as_micros();
        if !self.obs.sample_due(now_us) {
            return;
        }
        let engine = &self.engine;
        self.obs.drive_probes(now_us, |key, stamp, node| {
            if engine.is_crashed(node) {
                return false;
            }
            engine
                .actor(node)
                .as_server()
                .map(|s| {
                    s.store()
                        .latest_at_or_above(key, VersionStamp::new(stamp.0, stamp.1))
                        .is_some()
                })
                .unwrap_or(false)
        });
        let cum = self.collect_cumulative();
        self.obs.sample(now_us, cum);
    }

    /// Cumulative counter snapshot for one series window boundary.
    /// Strictly read-only over engine state.
    fn collect_cumulative(&self) -> hat_obs::Cumulative {
        let mut c = hat_obs::Cumulative::default();
        let mut lat = hat_obs::Histogram::for_latency_ms();
        for &cl in &self.layout.clients {
            let m = &self.engine.actor(cl).as_client().expect("client").metrics;
            c.committed += m.committed;
            c.aborted += m.aborted_external + m.aborted_internal;
            c.retries += m.retries;
            c.redirects += m.shard_redirects;
            lat.merge(&m.txn_latency_ms);
        }
        c.commit_lat = Some(lat);
        for &s in self.layout.servers.iter().flatten() {
            if let Some(srv) = self.engine.actor(s).as_server() {
                c.wal_bytes += srv.store().wal_bytes();
                c.repl_lag = c.repl_lag.max(srv.replication_lag());
            }
            c.dropped += self.engine.fault_stats(s).dropped_by_partition;
        }
        c
    }

    /// Direct engine access (tests, experiments).
    pub fn engine_mut(&mut self) -> &mut Engine<Node> {
        &mut self.engine
    }

    /// Immutable engine access.
    pub fn engine(&self) -> &Engine<Node> {
        &self.engine
    }

    /// Metrics of the client at `node` (cloned snapshot). Prefer
    /// [`Frontend::session_metrics`] for opened sessions.
    pub fn client_metrics(&self, client: NodeId) -> ClientMetrics {
        self.engine
            .actor(client)
            .as_client()
            .expect("not a client")
            .metrics
            .clone()
    }

    /// Reads that missed their `required` bound, across servers (0 in a
    /// correct MAV run, and for engines without the concept).
    pub fn required_misses(&self) -> u64 {
        self.layout
            .servers
            .iter()
            .flatten()
            .map(|&s| {
                self.engine
                    .actor(s)
                    .as_server()
                    .map(|srv| srv.required_misses())
                    .unwrap_or(0)
            })
            .sum()
    }

    /// Aggregated replication and group-commit counters across every
    /// server of the deployment.
    pub fn server_stats(&self) -> crate::server::ServerStats {
        let mut total = crate::server::ServerStats::default();
        for &s in self.layout.servers.iter().flatten() {
            if let Some(srv) = self.engine.actor(s).as_server() {
                total.merge(&srv.stats);
            }
            // Partition drops and crash counts live in the engine's fault
            // ledger, not the actor: they survive actor replacement.
            let faults = self.engine.fault_stats(s);
            total.msgs_dropped_by_partition += faults.dropped_by_partition;
            total.crashes += faults.crashes;
        }
        total
    }

    // Fault injection. Every nemesis fault is applied here, and each one
    // records itself once: one trace event and one series mark under one
    // label. A series begin/end pair shares its label (the series
    // validator pairs by label), so a restart closes its crash's label.

    /// Records a fault window opening (`begin`) or closing at `at`, in
    /// the trace (filed under `node`) and in the telemetry series.
    fn mark_fault(&self, at: SimTime, node: NodeId, label: &str, begin: bool) {
        let (at, desc) = (at.as_micros(), label.to_string());
        if begin {
            self.trace
                .record(at, node, TraceEventKind::FaultBegin { desc });
            self.obs.fault_begin(at, label);
        } else {
            self.trace
                .record(at, node, TraceEventKind::FaultEnd { desc });
            self.obs.fault_end(at, label);
        }
    }

    /// Hard-crashes server `node`: in-flight deliveries and armed timers
    /// die with it. Volatile state (memtables, RAMP prepared sets, locks)
    /// is lost; only the WAL of a durable deployment survives.
    ///
    /// `torn_tail` bytes of a torn partial frame are left at the logical
    /// end of that WAL — the write that was in flight when the crash hit
    /// (0 = clean crash). Recovery detects and discards it. Synced
    /// (acknowledged) records are never touched: destroying those would
    /// be disk corruption, a fault outside what crash recovery promises
    /// to mask. Crashing a crashed server is a no-op.
    ///
    /// Panics if `node` is not a server, or if `torn_tail > 0` on a
    /// deployment that is not durable.
    pub fn crash_server(&mut self, node: NodeId, torn_tail: u64) {
        assert!(
            self.engine.actor(node).as_server().is_some(),
            "crash_server: node {node} is not a server"
        );
        if self.engine.is_crashed(node) {
            return;
        }
        let now = self.engine.now().as_micros();
        self.trace.record(now, node, TraceEventKind::Crash);
        self.obs.fault_begin(now, &format!("crash node {node}"));
        self.engine.crash(node);
        if torn_tail > 0 {
            let (dir, _) = self
                .durable
                .as_ref()
                .expect("crash_server: a torn tail needs a durable deployment");
            Wal::tear_tail(
                DurableStore::wal_path(server_store_dir(dir, node)),
                torn_tail,
            )
            .expect("tear WAL tail");
        }
    }

    /// Rebuilds a crashed server from its recovered store and boots it.
    ///
    /// On a durable deployment the new incarnation replays its WAL's
    /// valid prefix (a torn tail is detected and cut) and re-seeds its
    /// replication log from the recovered versions so surviving records
    /// re-gossip. Peers rewind their cursors for this node, re-sending
    /// everything they still retain: records the torn tail lost are the
    /// newest, so they sit above every peer's compaction horizon.
    /// Application is idempotent. Restarting a live server is a no-op.
    pub fn restart_server(&mut self, node: NodeId) {
        if !self.engine.is_crashed(node) {
            return;
        }
        let cluster = self
            .layout
            .cluster_of(node)
            .expect("restart_server: node has no cluster");
        // Cumulative recovery counts across incarnations: the fresh
        // server's stats start from this crash's recovery, add prior
        // lifetimes.
        let prior = self
            .engine
            .actor(node)
            .as_server()
            .map(|s| s.stats)
            .unwrap_or_default();
        let store = make_store(&self.durable, node);
        let mut server = Server::with_engine(
            node,
            cluster,
            Arc::clone(&self.layout),
            Arc::clone(&self.config),
            store,
            make_engine(&self.engine_factory, &self.config).0,
        );
        server.stats.wal_records_replayed += prior.wal_records_replayed;
        server.stats.wal_torn_bytes_cut += prior.wal_torn_bytes_cut;
        server.mark_restarted();
        server.set_trace_sink(self.trace.clone());
        let now = self.engine.now().as_micros();
        self.trace.record(now, node, TraceEventKind::Restart);
        self.obs.fault_end(now, &format!("crash node {node}"));
        for peer in self.layout.anti_entropy_peers(node) {
            if let Some(srv) = self.engine.actor_mut(peer).as_server_mut() {
                srv.reset_peer_cursor(node);
            }
        }
        self.engine.restart_with(node, Node::Server(server));
    }

    /// Starts a live handoff of ring token `token` to the replica at
    /// `to_position`, in every cluster simultaneously (handoffs are
    /// symmetric so replicas of a key stay positional across clusters).
    /// The `BeginHandoff` is broadcast to every server of each cluster;
    /// only the token's *current* owner acts on it — which makes chained
    /// handoffs (A→B, later B→C or B→A) work without the caller
    /// tracking who owns what. A no-op when the owner already is at
    /// `to_position` or a handoff for the token is in flight.
    ///
    /// # Panics
    /// Panics if `to_position` is not a valid position in the ring.
    pub fn begin_handoff(&mut self, token: u32, to_position: u32) {
        assert!(
            (to_position as usize) < self.layout.shards_per_cluster(),
            "begin_handoff: position {to_position} out of range"
        );
        let label = format!("handoff token {token} -> position {to_position}");
        self.mark_fault(self.engine.now(), 0, &label, true);
        for cluster in 0..self.layout.num_clusters() {
            let to = self.layout.servers[cluster][to_position as usize];
            for &server in &self.layout.servers[cluster].clone() {
                if self.engine.is_crashed(server) {
                    continue;
                }
                self.engine.with_actor_ctx(server, |node, ctx| {
                    if let Some(s) = node.as_server_mut() {
                        s.begin_handoff(ctx, token, to);
                    }
                });
            }
        }
    }

    /// Cuts `a` from `b` for `duration` from now: both directions, or
    /// only `a → b` traffic when `one_way` (an asymmetric link failure).
    /// The cut heals by itself, so both ends of its fault window are
    /// recorded now.
    pub fn partition(&mut self, a: &[NodeId], b: &[NodeId], duration: SimDuration, one_way: bool) {
        let (now, end) = (self.engine.now(), self.engine.now() + duration);
        let arrow = if one_way { " -/-> " } else { " <-/-> " };
        let label = format!("partition {a:?}{arrow}{b:?}");
        let reporter = a.first().copied().unwrap_or(0);
        self.mark_fault(now, reporter, &label, true);
        self.mark_fault(end, reporter, &label, false);
        let (a, b) = (a.iter().copied(), b.iter().copied());
        let cut = if one_way {
            Partition::one_way(now, end, a, b)
        } else {
            Partition::new(now, end, a, b)
        };
        self.engine.partitions_mut().add(cut);
    }

    /// Multiplies every cross-node latency sample by `factor` from now
    /// on; 1.0 restores the healthy network. Leaving 1.0 opens a
    /// `latency spike` fault window and returning to it closes the window,
    /// so restoring an unscaled network records nothing.
    pub fn scale_latency(&mut self, factor: f64) {
        let was_scaled = self.engine.latency_factor() != 1.0;
        self.engine.set_latency_factor(factor);
        let scaled = self.engine.latency_factor() != 1.0;
        if scaled != was_scaled {
            self.mark_fault(self.engine.now(), 0, "latency spike", scaled);
        }
    }

    /// Steps the engine until `client` has no outstanding network round,
    /// or the operation deadline passes. On deadline the error names the
    /// key being operated on (when there is one), so a sticky client
    /// whose home cluster has crashed every replica surfaces *which* item
    /// was unreachable instead of a bare timeout.
    fn wait_idle(&mut self, client: NodeId, key: Option<&Key>) -> Result<(), HatError> {
        let deadline = self.engine.now() + self.config.op_deadline;
        loop {
            let busy = self
                .engine
                .actor(client)
                .as_client()
                .expect("not a client")
                .busy();
            if !busy {
                return Ok(());
            }
            match self.engine.peek_time() {
                Some(t) if t <= deadline => {
                    self.engine.step();
                    if self.obs.is_enabled() {
                        self.obs_pump();
                    }
                }
                _ => {
                    return Err(HatError::Unavailable {
                        key: key.map(|k| String::from_utf8_lossy(k).into_owned()),
                    })
                }
            }
        }
    }
}

impl TxnBackend for SimFrontend {
    /// Starts `cmd`, steps virtual time until the client is idle, and
    /// builds the reply. On the operation deadline a stalled commit is
    /// abandoned (releasing what it holds at servers); a stalled
    /// operation is left for the transaction driver to abandon.
    fn exec(&mut self, session: &Session, cmd: ClientCmd) -> Result<ClientReply, HatError> {
        let client = session.node();
        let key = cmd.key().cloned();
        let commit = matches!(cmd, ClientCmd::Commit);
        let started = self.engine.with_actor_ctx(client, |node, ctx| {
            node.as_client_mut()
                .expect("not a client")
                .start_cmd(ctx, cmd)
        });
        if let Some(reply) = started {
            return Ok(reply);
        }
        if let Err(e) = self.wait_idle(client, key.as_ref()) {
            if commit {
                self.abandon(session);
            }
            return Err(e);
        }
        Ok(self.engine.with_actor_ctx(client, |node, ctx| {
            node.as_client_mut().expect("not a client").finish_cmd(ctx)
        }))
    }
}

impl Frontend for SimFrontend {
    fn open_session(&mut self, opts: SessionOptions) -> Session {
        assert!(
            self.opened < self.layout.clients.len(),
            "deployment provisions {} session slot(s); raise \
             DeploymentBuilder::sessions_per_cluster",
            self.layout.clients.len()
        );
        let idx = self.opened;
        self.opened += 1;
        let node = self.layout.clients[idx];
        self.engine
            .actor_mut(node)
            .as_client_mut()
            .expect("session slot is a client")
            .set_session_options(opts);
        Session::from_parts(idx as u32, node, opts)
    }

    fn run_for(&mut self, d: SimDuration) {
        if !self.obs.is_enabled() {
            self.engine.run_for(d);
            return;
        }
        // Step-by-step with a telemetry pump between events — the same
        // schedule `Engine::run_for` executes (step while the next event
        // is within the deadline, then advance the clock), so enabling
        // telemetry cannot change what runs or when.
        let deadline = self.engine.now() + d;
        while let Some(t) = self.engine.peek_time() {
            if t > deadline {
                break;
            }
            self.engine.step();
            self.obs_pump();
        }
        self.engine.run_until(deadline);
        self.obs_pump();
    }

    fn quiesce_duration(&self) -> SimDuration {
        self.config.quiesce_duration()
    }

    fn session_metrics(&self, session: &Session) -> ClientMetrics {
        self.client_metrics(session.node())
    }

    fn aggregate_metrics(&self) -> ClientMetrics {
        let mut total = ClientMetrics::default();
        for &c in &self.layout.clients {
            total.merge(&self.engine.actor(c).as_client().unwrap().metrics);
        }
        total
    }

    fn take_records(&mut self) -> Vec<TxnRecord> {
        let mut all = Vec::new();
        for &c in &self.layout.clients.clone() {
            let client = self
                .engine
                .actor_mut(c)
                .as_client_mut()
                .expect("not a client");
            all.extend(client.take_records());
        }
        all.sort_by_key(|r| (r.session, r.session_seq));
        all
    }
}
