//! The HAT server (replica) actor — protocol-agnostic dispatch.
//!
//! A server owns one hash partition of the keyspace within its cluster.
//! It is a single service queue: each request is charged a service time
//! from the [`crate::ServiceModel`] and the reply leaves once the queue
//! drains — this is what produces the latency-vs-load and saturation
//! shapes of Figures 3–6.
//!
//! All protocol-specific behavior lives behind the
//! [`ProtocolEngine`] plugged in at construction: the server itself only
//! knows about queueing, the anti-entropy gossip loop, shard routing and
//! the durability barrier. Reads and writes go to the engine's read and
//! install hooks; an engine's own messages ([`Msg::EngineReq`],
//! [`Msg::Engine`]) go, body unopened, to [`ProtocolEngine::on_message`].
//! Adding a new isolation level requires no change here — implement the
//! trait and register it in [`crate::protocol::engine_for`] (or inject
//! it via [`crate::DeploymentBuilder::engine_factory`]).
//!
//! All accepted writes are buffered in a [`ReplicationLog`] and gossiped
//! to the positional peer replica in every other cluster on an
//! anti-entropy timer (§5.1.4 convergence).
//!
//! ## Live shard handoff
//!
//! Within a cluster the keyspace is owned by ring position (see
//! [`crate::ShardRing`]). A handoff moves one ring token from this
//! server to another replica in the same cluster while traffic flows:
//! the old owner snapshots the token's records and streams them in
//! acknowledged chunks ([`Msg::ShardTransfer`]) off the anti-entropy
//! timer, mirroring every write it keeps accepting meanwhile into the
//! stream's tail. Only when the receiver has acknowledged *everything*
//! — snapshot and tail, in one atomic check at ack time — does the old
//! owner cut over: from then on it answers requests for the token with
//! [`Msg::WrongShard`] naming the new owner, so the receiver starts
//! with a byte-complete copy and no read can observe a gap. Two-phase
//! locking is exempt from the cutover (its lock tables are pinned to
//! the original placement; splitting one across a live flip would
//! forfeit serializability), so under 2PL handoffs stream copies but
//! never move request routing.

use crate::cluster::ClusterLayout;
use crate::config::{SystemConfig, ANTI_ENTROPY_INTERVAL};
use crate::messages::Msg;
use crate::protocol::engine::{charge, ProtocolEngine, ServerView};
use crate::protocol::replication::{ReplicationLog, MAX_BATCH};
use crate::timestamp::Timestamp;
use hat_sim::{Ctx, NodeId, SimDuration, SimTime, TimerId};
use hat_storage::{Key, SharedRecord, Store};
use hat_trace::{TraceEventKind, TraceSink};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Timer tag for the anti-entropy tick.
const TIMER_ANTI_ENTROPY: TimerId = 1;

/// Timer tag for the crash-recovery bootstrap retry loop.
const TIMER_RECOVERY: TimerId = 2;

/// Records shipped per [`Msg::ShardTransfer`] chunk.
const HANDOFF_CHUNK: usize = 256;

/// Replication-side counters, so experiments can report the group-commit
/// and delta-compression wins numerically (messages and bytes actually
/// put on the wire).
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerStats {
    /// Anti-entropy batches sent (`Replicate`).
    pub replication_msgs: u64,
    /// Approximate serialized bytes of those batches (keys + records).
    pub replication_bytes: u64,
    /// Records shipped in those batches.
    pub replication_records: u64,
    /// How many of the batches were delta-compressed catch-ups.
    pub catchup_batches: u64,
    /// RAMP commit-mark batches received.
    pub commit_batches: u64,
    /// Total commit marks carried by those batches (mean batch size =
    /// `commit_batch_size / commit_batches`).
    pub commit_batch_size: u64,
    /// Messages destined to this server dropped by an active network
    /// partition (filled from the engine's per-node fault counters by
    /// [`crate::SimFrontend::server_stats`]).
    pub msgs_dropped_by_partition: u64,
    /// Times this server has been crashed by a fault injector.
    pub crashes: u64,
    /// WAL records replayed into this server's store at recovery,
    /// accumulated across restarts. Nonzero proves a restarted server is
    /// serving log-recovered state rather than an empty store.
    pub wal_records_replayed: u64,
    /// Bytes of torn WAL tail recovery cut, accumulated across restarts
    /// like `wal_records_replayed`. Nonzero proves a torn-tail fault
    /// damaged the log where replay looks. Not exported to the metrics
    /// registry.
    pub wal_torn_bytes_cut: u64,
    /// Shard handoffs this server has completed as the *sending* side
    /// (the receiver acknowledged the full stream and routing cut over).
    pub shard_handoffs: u64,
    /// Requests refused with [`Msg::WrongShard`] because the key's
    /// token had already been handed off.
    pub shard_nacks: u64,
    /// WAL syncs that reached the disk (0 on a volatile store).
    pub wal_syncs: u64,
    /// Puts those syncs covered; mean group-commit size =
    /// `wal_synced_puts / wal_syncs`.
    pub wal_synced_puts: u64,
    /// Durability barriers that failed. Every send held behind one was
    /// dropped, so to its clients the server looked unreachable.
    pub wal_flush_failures: u64,
}

impl ServerStats {
    /// Accumulates another server's counters (aggregate reporting).
    pub fn merge(&mut self, other: &ServerStats) {
        self.replication_msgs += other.replication_msgs;
        self.replication_bytes += other.replication_bytes;
        self.replication_records += other.replication_records;
        self.catchup_batches += other.catchup_batches;
        self.commit_batches += other.commit_batches;
        self.commit_batch_size += other.commit_batch_size;
        self.msgs_dropped_by_partition += other.msgs_dropped_by_partition;
        self.crashes += other.crashes;
        self.wal_records_replayed += other.wal_records_replayed;
        self.wal_torn_bytes_cut += other.wal_torn_bytes_cut;
        self.shard_handoffs += other.shard_handoffs;
        self.shard_nacks += other.shard_nacks;
        self.wal_syncs += other.wal_syncs;
        self.wal_synced_puts += other.wal_synced_puts;
        self.wal_flush_failures += other.wal_flush_failures;
    }

    /// Exports every counter into a metrics registry under `hat_server_*`
    /// names with the given labels — the server half of the unified
    /// Prometheus/JSON exposition.
    pub fn export_into(&self, reg: &mut hat_obs::MetricsRegistry, labels: &[(&str, &str)]) {
        reg.counter_add(
            "hat_server_replication_msgs_total",
            labels,
            self.replication_msgs,
        );
        reg.counter_add(
            "hat_server_replication_bytes_total",
            labels,
            self.replication_bytes,
        );
        reg.counter_add(
            "hat_server_replication_records_total",
            labels,
            self.replication_records,
        );
        reg.counter_add(
            "hat_server_catchup_batches_total",
            labels,
            self.catchup_batches,
        );
        reg.counter_add(
            "hat_server_commit_batches_total",
            labels,
            self.commit_batches,
        );
        reg.counter_add(
            "hat_server_commit_batch_marks_total",
            labels,
            self.commit_batch_size,
        );
        reg.counter_add(
            "hat_server_msgs_dropped_partition_total",
            labels,
            self.msgs_dropped_by_partition,
        );
        reg.counter_add("hat_server_crashes_total", labels, self.crashes);
        reg.counter_add(
            "hat_server_wal_records_replayed_total",
            labels,
            self.wal_records_replayed,
        );
        reg.counter_add(
            "hat_server_shard_handoffs_total",
            labels,
            self.shard_handoffs,
        );
        reg.counter_add("hat_server_shard_nacks_total", labels, self.shard_nacks);
        // Only a WAL-backed server has these: a volatile deployment's
        // exposition stays byte-identical to what it was without them.
        for (name, value) in [
            ("hat_server_wal_syncs_total", self.wal_syncs),
            ("hat_server_wal_synced_puts_total", self.wal_synced_puts),
            (
                "hat_server_wal_flush_failures_total",
                self.wal_flush_failures,
            ),
        ] {
            if value > 0 {
                reg.counter_add(name, labels, value);
            }
        }
    }
}

/// The sending side of one in-progress (or completed) shard handoff.
///
/// `queue` starts as a snapshot of every record the token owns and
/// grows at the tail with writes accepted while streaming. Chunks are
/// re-sent from `acked` on every anti-entropy tick, so delivery is
/// at-least-once and survives partitions; the receiver applies
/// idempotently and acks its high-water mark. `released` flips — once,
/// irrevocably — when an ack covers the *entire* queue, which is the
/// routing cutover point.
#[derive(Debug)]
struct HandoffOut {
    /// The replica receiving the token (same cluster, different position).
    to: NodeId,
    /// Snapshot + late-write tail, in send order.
    queue: Vec<(Key, SharedRecord)>,
    /// Records in the initial snapshot (prefix of `queue`).
    snapshot_len: u64,
    /// Receiver's acknowledged high-water mark into `queue`.
    acked: u64,
    /// True once the receiver has confirmed the whole queue: requests
    /// for the token are refused with [`Msg::WrongShard`] from then on.
    released: bool,
}

/// A replica server.
pub struct Server {
    id: NodeId,
    cluster: usize,
    layout: Arc<ClusterLayout>,
    config: Arc<SystemConfig>,
    store: Box<dyn Store + Send>,
    busy_until: SimTime,
    repl: ReplicationLog,
    peers: Vec<NodeId>,
    engine: Box<dyn ProtocolEngine>,
    /// Peers still owed a crash-recovery bootstrap dump (empty except
    /// right after a restart; see [`Server::mark_restarted`]).
    recovering: Vec<NodeId>,
    /// 2PL sync-replication gate: commit `Put`s held back until a
    /// replication peer confirms the write, as `(log index, client,
    /// txn, op)`. A serializable engine cannot ack a write whose only
    /// copy sits in a WAL tail a crash may tear off — the transaction
    /// would count as committed while a post-restart reader serializes
    /// against state that never includes it.
    pending_put_acks: Vec<(u64, NodeId, Timestamp, u32)>,
    /// Outbound shard handoffs by ring token (see [`HandoffOut`]).
    handoffs: BTreeMap<u32, HandoffOut>,
    /// Ring tokens this server serves *despite* its ring position,
    /// acquired through an inbound handoff.
    tokens_acquired: BTreeSet<u32>,
    /// Absolute replication-log index already mirrored into handoff
    /// queues — everything the engines push past this point gets
    /// appended to the matching in-progress handoff's tail.
    handoff_cursor: u64,
    /// Replication and group-commit counters.
    pub stats: ServerStats,
    /// Structured trace sink (no-op unless `SystemConfig::trace`).
    trace: TraceSink,
}

impl Server {
    /// Builds a server for `cluster` backed by `store`, running the
    /// [`ProtocolEngine`] it is handed (the registry's for the
    /// deployment's protocol kind, or an injected one).
    pub fn with_engine(
        id: NodeId,
        cluster: usize,
        layout: Arc<ClusterLayout>,
        config: Arc<SystemConfig>,
        store: Box<dyn Store + Send>,
        engine: Box<dyn ProtocolEngine>,
    ) -> Self {
        let peers = layout.anti_entropy_peers(id);
        let mut repl = ReplicationLog::new(peers.len());
        // Recovery wiring: a store opened over an existing WAL (a
        // restarted server) seeds the replication buffer with every
        // recovered version, so writes accepted before the crash but
        // never gossiped re-enter anti-entropy. Peers apply duplicates
        // idempotently; a fresh volatile store recovers nothing and this
        // is a no-op.
        let stats = ServerStats {
            wal_records_replayed: store.recovered_records(),
            wal_torn_bytes_cut: store.torn_bytes_cut(),
            ..ServerStats::default()
        };
        if stats.wal_records_replayed > 0 {
            for (key, record) in store.all_versions() {
                repl.push(key, record);
            }
        }
        let handoff_cursor = repl.head();
        Server {
            id,
            cluster,
            layout,
            config,
            store,
            busy_until: SimTime::ZERO,
            repl,
            peers,
            engine,
            recovering: Vec::new(),
            pending_put_acks: Vec::new(),
            handoffs: BTreeMap::new(),
            tokens_acquired: BTreeSet::new(),
            handoff_cursor,
            stats,
            trace: TraceSink::disabled(),
        }
    }

    /// Installs the deployment-wide trace sink (shared with clients).
    pub fn set_trace_sink(&mut self, sink: TraceSink) {
        self.trace = sink;
    }

    /// Flags this server as a post-crash incarnation: on start it
    /// requests a full bootstrap dump from every gossip peer (retried on
    /// a timer until each peer answers). The reseeded replication log
    /// and the peers' rewound cursors repair everything the *logs* still
    /// hold; the dump repairs the rest — records this server originated,
    /// gossiped out, and then lost to a torn WAL tail, which survive
    /// only in peers' stores.
    pub fn mark_restarted(&mut self) {
        self.recovering = self.peers.clone();
    }

    /// The node id.
    pub fn node_id(&self) -> NodeId {
        self.id
    }

    /// The cluster index.
    pub fn cluster(&self) -> usize {
        self.cluster
    }

    /// Read access to the backing store (tests, invariant checks).
    pub fn store(&self) -> &dyn Store {
        self.store.as_ref()
    }

    /// The running engine's label.
    pub fn engine_name(&self) -> &'static str {
        self.engine.name()
    }

    /// Reads that missed their `required` bound (must be 0 in a correct
    /// MAV run; 0 by definition for engines without the concept).
    pub fn required_misses(&self) -> u64 {
        self.engine.required_misses()
    }

    /// Worst per-peer anti-entropy backlog (log entries a gossip peer
    /// has not acknowledged) — the replication-lag gauge the live
    /// sampler reads. Read-only; never perturbs the run.
    pub fn replication_lag(&self) -> u64 {
        self.repl.max_lag()
    }

    /// Rewinds the replication cursor for `peer` to the oldest retained
    /// log entry. Called on every gossip neighbor of a just-restarted
    /// server: the restarted node may have lost its newest applied
    /// records to a torn WAL tail *after* acknowledging them, so
    /// previously-acked suffixes must be re-sent (application is
    /// idempotent; the delta catch-up path compacts the resend).
    pub fn reset_peer_cursor(&mut self, peer: NodeId) {
        if let Some(i) = self.peers.iter().position(|&p| p == peer) {
            self.repl.rewind(i);
        }
    }

    /// True while the store holds a write the durability barrier has
    /// not covered: no send may be released until [`Server::flush`] has
    /// succeeded.
    pub fn needs_flush(&self) -> bool {
        self.store.needs_persist()
    }

    /// The durability barrier ([`Store::persist`]): one disk sync for
    /// every write logged since the last one, nothing on a clean or
    /// volatile store. Every handler ends with it unless the driver
    /// took it over ([`Ctx::deferring_barrier`]) to cover several
    /// handler calls with one sync. On `Err` the caller must drop the
    /// sends it was holding back: the writes they reflect may not be
    /// durable.
    pub fn flush(&mut self) -> hat_storage::error::Result<()> {
        if !self.store.needs_persist() {
            return Ok(());
        }
        let result = self.store.persist();
        match result {
            Ok(()) => (self.stats.wal_syncs, self.stats.wal_synced_puts) = self.store.sync_stats(),
            Err(_) => self.stats.wal_flush_failures += 1,
        }
        result
    }

    /// Ends a handler: unless the driver runs the barrier itself, run it
    /// here — and if it fails, unsend what the handler queued, so the
    /// server looks unreachable (a client's op deadline then yields
    /// `Indeterminate`) instead of acknowledging a write it may lose.
    fn finish_handler(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if !ctx.barrier_deferred() && self.flush().is_err() {
            ctx.discard_sends();
        }
    }

    /// Splits the server into its engine and the [`ServerView`] the
    /// engine hooks receive — one place that knows which fields make up
    /// the view.
    fn engine_view(&mut self) -> (&mut dyn ProtocolEngine, ServerView<'_>) {
        let view = ServerView {
            store: self.store.as_mut(),
            repl: &mut self.repl,
            layout: &self.layout,
            config: &self.config,
            stats: &mut self.stats,
            recovering: !self.recovering.is_empty(),
            busy_until: &mut self.busy_until,
        };
        (self.engine.as_mut(), view)
    }

    /// Charges `cost` of service time and returns how long the caller's
    /// reply is held (queueing + service).
    fn service(&mut self, now: SimTime, cost: SimDuration) -> SimDuration {
        charge(&mut self.busy_until, now, cost)
    }

    /// Invoked once at simulation start.
    pub fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if self.stats.wal_records_replayed > 0 {
            self.trace.record(
                ctx.now().as_micros(),
                self.id,
                TraceEventKind::WalReplay {
                    records: self.stats.wal_records_replayed,
                },
            );
        }
        // Stagger anti-entropy ticks so servers do not gossip in
        // lock-step. The offset is derived from the node id (a
        // multiplicative hash spread over the interval) instead of drawn
        // from the shared rng stream: the tick cadence is a fixed
        // property of the deployment, and startup must not perturb the
        // rng sequence the rest of the run consumes — adding a server
        // would otherwise reshuffle every seeded schedule.
        let interval = ANTI_ENTROPY_INTERVAL.as_micros();
        let jitter = (self.id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) % interval;
        ctx.set_timer(
            ANTI_ENTROPY_INTERVAL + SimDuration::from_micros(jitter),
            TIMER_ANTI_ENTROPY,
        );
        if !self.recovering.is_empty() {
            for &peer in &self.recovering {
                ctx.send(peer, Msg::RecoverReq);
            }
            ctx.set_timer(ANTI_ENTROPY_INTERVAL, TIMER_RECOVERY);
        }
        self.finish_handler(ctx);
    }

    /// Invoked when a timer fires.
    pub fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, timer: TimerId) {
        if timer == TIMER_ANTI_ENTROPY {
            self.push_replication(ctx);
            self.mirror_repl_to_handoffs();
            self.repl.compact(1024);
            let (engine, mut view) = self.engine_view();
            engine.on_anti_entropy_tick(&mut view, ctx);
            self.pump_handoffs(ctx);
            ctx.set_timer(ANTI_ENTROPY_INTERVAL, TIMER_ANTI_ENTROPY);
        } else if timer == TIMER_RECOVERY && !self.recovering.is_empty() {
            // A bootstrap request (or its response) may have been lost to
            // a concurrent partition; keep asking until each peer answers.
            for &peer in &self.recovering.clone() {
                ctx.send(peer, Msg::RecoverReq);
            }
            ctx.set_timer(ANTI_ENTROPY_INTERVAL, TIMER_RECOVERY);
        }
        self.finish_handler(ctx);
    }

    /// Pushes each peer's unacknowledged replication suffix (one
    /// anti-entropy round). Runs on every anti-entropy tick, and
    /// immediately after a 2PL commit write so the sync-replication ack
    /// does not wait out a full tick.
    fn push_replication(&mut self, ctx: &mut Ctx<'_, Msg>) {
        for (i, &peer) in self.peers.clone().iter().enumerate() {
            // A peer lagging more than one full batch (e.g. freshly
            // healed from a long partition) gets one compacted
            // catch-up batch instead of `lag / MAX_BATCH` rounds of
            // per-record replay.
            if self.repl.lag(i) > MAX_BATCH as u64 {
                let (upto, writes) = self.repl.catchup_for(i);
                if !writes.is_empty() {
                    self.stats.catchup_batches += 1;
                    self.note_replication_batch(&writes);
                    self.trace_anti_entropy(ctx.now(), peer, &writes, true);
                    ctx.send(peer, Msg::Replicate { upto, writes });
                }
            } else {
                let (from_index, writes) = self.repl.batch_for(i);
                if !writes.is_empty() {
                    self.note_replication_batch(&writes);
                    self.trace_anti_entropy(ctx.now(), peer, &writes, false);
                    let upto = from_index + writes.len() as u64;
                    ctx.send(peer, Msg::Replicate { upto, writes });
                }
            }
        }
    }

    /// Emits one `AntiEntropyRound` trace event for a push to `peer`,
    /// with the same byte accounting as [`Self::note_replication_batch`].
    fn trace_anti_entropy(
        &self,
        now: SimTime,
        peer: NodeId,
        writes: &[(Key, SharedRecord)],
        delta: bool,
    ) {
        if !self.trace.is_enabled() {
            return;
        }
        let bytes = writes
            .iter()
            .map(|(k, r)| 4 + k.len() as u64 + r.encoded_len() as u64)
            .sum::<u64>();
        self.trace.record(
            now.as_micros(),
            self.id,
            TraceEventKind::AntiEntropyRound {
                peer,
                records: writes.len() as u64,
                bytes,
                delta,
            },
        );
    }

    fn note_replication_batch(&mut self, writes: &[(Key, SharedRecord)]) {
        self.stats.replication_msgs += 1;
        self.stats.replication_records += writes.len() as u64;
        self.stats.replication_bytes += writes
            .iter()
            .map(|(k, r)| 4 + k.len() as u64 + r.encoded_len() as u64)
            .sum::<u64>();
    }

    /// Invoked when a message arrives. Thin dispatch: each message maps
    /// to one engine hook plus service-time accounting, and an engine's
    /// own messages go to its [`ProtocolEngine::on_message`].
    pub fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: Msg) {
        // WAL growth is observed as a delta across the whole dispatch so
        // every write path (puts, commit marks, replication applies) is
        // covered in one place. Zero-cost when tracing is off.
        let wal_before = if self.trace.is_enabled() {
            self.store.wal_bytes()
        } else {
            0
        };
        self.dispatch(ctx, from, msg);
        self.mirror_repl_to_handoffs();
        if self.trace.is_enabled() {
            let appended = self.store.wal_bytes().saturating_sub(wal_before);
            if appended > 0 {
                self.trace.record(
                    ctx.now().as_micros(),
                    self.id,
                    TraceEventKind::WalAppend { bytes: appended },
                );
            }
        }
        self.finish_handler(ctx);
    }

    fn dispatch(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: Msg) {
        match msg {
            Msg::Get {
                txn,
                op,
                key,
                required,
            } => self.handle_get(ctx, from, txn, op, key, required),
            Msg::Scan { txn, op, prefix } => self.handle_scan(ctx, from, txn, op, prefix),
            Msg::Put {
                txn,
                op,
                key,
                record,
            } => self.handle_put(ctx, from, txn, op, key, record),
            Msg::EngineReq { txn, op, body } => {
                let key = body.key().filter(|_| body.may_redirect());
                if key.is_some_and(|key| self.refuse_moved(ctx, from, txn, op, key)) {
                    return;
                }
                let (engine, mut view) = self.engine_view();
                engine.on_message(&mut view, ctx, from, txn, op, body);
            }
            Msg::Engine { txn, body } => {
                let (engine, mut view) = self.engine_view();
                engine.on_message(&mut view, ctx, from, txn, 0, body);
            }
            Msg::Replicate { upto, writes } => self.handle_replicate(ctx, from, upto, writes),
            Msg::ReplicateAck { upto } => {
                if let Some(i) = self.peers.iter().position(|&p| p == from) {
                    self.repl.ack(i, upto);
                    self.flush_pending_put_acks(ctx, upto);
                }
            }
            Msg::RecoverReq => self.handle_recover_req(ctx, from),
            Msg::RecoverResp { writes } => self.handle_recover_resp(ctx, from, writes),
            Msg::BeginHandoff { token, to } => self.begin_handoff(ctx, token, to),
            Msg::ShardTransfer {
                token,
                from_seq,
                writes,
            } => self.handle_shard_transfer(ctx, from, token, from_seq, writes),
            Msg::ShardTransferAck { token, upto } => {
                self.handle_shard_transfer_ack(ctx, token, upto)
            }
            // Responses are never addressed to servers.
            _ => {}
        }
    }

    fn handle_get(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        from: NodeId,
        txn: Timestamp,
        op: u32,
        key: Key,
        required: Timestamp,
    ) {
        if self.refuse_moved(ctx, from, txn, op, &key) {
            return;
        }
        let cost = self.config.service.read();
        let (engine, mut view) = self.engine_view();
        let found = engine.read(&mut view, &key, required);
        let hold = self.service(ctx.now(), cost);
        ctx.send_after(hold, from, Msg::GetResp { txn, op, found });
    }

    fn handle_scan(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        from: NodeId,
        txn: Timestamp,
        op: u32,
        prefix: Key,
    ) {
        let matches = self.store.scan_prefix(&prefix);
        let cost = self.config.service.scan(matches.len());
        let hold = self.service(ctx.now(), cost);
        ctx.send_after(hold, from, Msg::ScanResp { txn, op, matches });
    }

    fn handle_put(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        from: NodeId,
        txn: Timestamp,
        op: u32,
        key: Key,
        record: SharedRecord,
    ) {
        if self.refuse_moved(ctx, from, txn, op, &key) {
            return;
        }
        if !self.engine.write_admissible(txn, &key) {
            // Lock fencing (2PL): the exclusive lock backing this commit
            // write is gone — this server crashed and lost its lock
            // table, and the key may since have been re-granted. Do not
            // install, and do not ack: the client's op deadline turns
            // the commit round into an indeterminate abandon, exactly
            // as if the server were unreachable.
            return;
        }
        let (engine, mut view) = self.engine_view();
        let cost = engine.apply_client_write(&mut view, ctx, key, record);
        let hold = self.service(ctx.now(), cost);
        if self.engine.acks_after_replication() && !self.peers.is_empty() {
            // Serializable commits are acked only once a replication
            // peer holds the write: a local WAL append can be torn off
            // by a crash, and an acked-then-lost write turns into a
            // lost update the lock protocol can never detect. Push the
            // suffix now instead of waiting for the anti-entropy tick;
            // the ack itself is sent from the `ReplicateAck` handler.
            // (A crash drops this queue, so the client's commit round
            // deadline turns into an indeterminate abandon — never a
            // false commit.)
            self.pending_put_acks
                .push((self.repl.head(), from, txn, op));
            self.push_replication(ctx);
            return;
        }
        ctx.send_after(hold, from, Msg::PutResp { txn, op });
    }

    /// Releases 2PL commit acks whose writes a peer has now confirmed
    /// (absolute log index `<= upto`). Any single peer's confirmation
    /// suffices: the write then survives this server's WAL tail being
    /// torn — the restarted incarnation recovers it from that peer
    /// before granting locks again.
    fn flush_pending_put_acks(&mut self, ctx: &mut Ctx<'_, Msg>, upto: u64) {
        if self.pending_put_acks.is_empty() {
            return;
        }
        let mut ready = Vec::new();
        self.pending_put_acks.retain(|&(idx, client, txn, op)| {
            if idx <= upto {
                ready.push((client, txn, op));
                false
            } else {
                true
            }
        });
        for (client, txn, op) in ready {
            ctx.send(client, Msg::PutResp { txn, op });
        }
    }

    /// Applies an anti-entropy batch (an unacked suffix or a compacted
    /// catch-up, alike) and acknowledges the log position it covers.
    fn handle_replicate(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        from: NodeId,
        upto: u64,
        writes: Vec<(Key, SharedRecord)>,
    ) {
        let hold = self.apply_replicated_batch(ctx, writes);
        // Acknowledge once applied: the sender's cursor advances and the
        // batch is never re-sent (unless this ack is lost — then the
        // receiver just applies the duplicates idempotently).
        ctx.send_after(hold, from, Msg::ReplicateAck { upto });
    }

    /// Installs replicated versions (an anti-entropy batch or a handoff
    /// chunk) and returns the service hold for the batch.
    fn apply_replicated_batch(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        writes: Vec<(Key, SharedRecord)>,
    ) -> SimDuration {
        let cost = self.config.service.replicate(writes.len());
        for (key, record) in writes {
            // Gossip applies bypass the local replication log (the
            // never-re-gossip rule), so an in-progress handoff stream
            // must pick them up here.
            self.note_handoff_write(&key, &record);
            // The handle is shared with the sender's log and store; the
            // receiver installs the same allocation.
            let (engine, mut view) = self.engine_view();
            engine.apply_replicated_write(&mut view, ctx, key, record);
        }
        self.service(ctx.now(), cost)
    }

    /// Bootstrap dump for a restarted peer: ship the whole store. The
    /// service charge scales with the dump size, so recovery load shows
    /// up in the queueing model like any other replication traffic.
    fn handle_recover_req(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId) {
        let writes = self.store.all_versions();
        let cost = self.config.service.replicate(writes.len());
        let hold = self.service(ctx.now(), cost);
        ctx.send_after(hold, from, Msg::RecoverResp { writes });
    }

    /// Applies a bootstrap dump. Versions already present are skipped
    /// outright; a version this store has never seen is installed through
    /// the normal replicated-write hook *and* pushed into the local
    /// replication log. The push is the one sanctioned exception to the
    /// never-re-gossip rule: a record this server originated and lost
    /// may also be missing from peers its pre-crash gossip never reached,
    /// and only a re-broadcast from here can heal them (duplicates apply
    /// idempotently everywhere).
    fn handle_recover_resp(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        from: NodeId,
        writes: Vec<(Key, SharedRecord)>,
    ) {
        self.recovering.retain(|&p| p != from);
        let cost = self.config.service.replicate(writes.len());
        for (key, record) in writes {
            if self.store.exact(&key, record.stamp).is_some() {
                continue;
            }
            self.repl.push(key.clone(), record.clone());
            let (engine, mut view) = self.engine_view();
            engine.apply_replicated_write(&mut view, ctx, key, record);
        }
        let _ = self.service(ctx.now(), cost);
    }

    /// Starts handing the ring token `token` off to `to` (a replica in
    /// this cluster at a different position). Snapshots every record the
    /// token owns into the stream queue and sends the first chunk; the
    /// anti-entropy timer re-sends unacknowledged chunks from there.
    /// Ignored when this server does not currently own the token or a
    /// handoff for it is already in flight.
    pub fn begin_handoff(&mut self, ctx: &mut Ctx<'_, Msg>, token: u32, to: NodeId) {
        if to == self.id || self.handoffs.contains_key(&token) || !self.owns_token(token) {
            return;
        }
        let queue: Vec<(Key, SharedRecord)> = self
            .store
            .all_versions()
            .into_iter()
            .filter(|(key, _)| self.layout.ring().token_of(key) == token)
            .collect();
        let snapshot_len = queue.len() as u64;
        self.trace.record(
            ctx.now().as_micros(),
            self.id,
            TraceEventKind::ShardHandoffBegin {
                token,
                to,
                snapshot: snapshot_len,
            },
        );
        // First chunk goes out immediately — even when empty, so a token
        // with no records still reaches the receiver (which must learn it
        // owns the token) and elicits the ack that releases routing.
        let writes = queue[..queue.len().min(HANDOFF_CHUNK)].to_vec();
        ctx.send(
            to,
            Msg::ShardTransfer {
                token,
                from_seq: 0,
                writes,
            },
        );
        self.handoffs.insert(
            token,
            HandoffOut {
                to,
                queue,
                snapshot_len,
                acked: 0,
                released: false,
            },
        );
    }

    /// True if requests for `token` should be served here: the ring says
    /// so (and the token has not been handed off), or an inbound handoff
    /// granted it.
    fn owns_token(&self, token: u32) -> bool {
        if self.handoffs.get(&token).is_some_and(|h| h.released) {
            return false;
        }
        self.layout.position_of(self.id) == Some(self.layout.ring().position_of_token(token))
            || self.tokens_acquired.contains(&token)
    }

    /// Refuses a request for `key` with a [`Msg::WrongShard`] naming the
    /// new owner if the key's token has been handed off (and routing cut
    /// over); false means serve locally. Sent without a service charge:
    /// the refusal is a routing hint, not store work. Engines that pin
    /// their shards are exempt (see module docs).
    fn refuse_moved(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        from: NodeId,
        txn: Timestamp,
        op: u32,
        key: &Key,
    ) -> bool {
        if self.handoffs.is_empty() || self.engine.pins_shards() {
            return false;
        }
        let token = self.layout.ring().token_of(key);
        let Some(owner) = self
            .handoffs
            .get(&token)
            .filter(|h| h.released)
            .map(|h| h.to)
        else {
            return false;
        };
        self.stats.shard_nacks += 1;
        let key = key.clone();
        ctx.send(
            from,
            Msg::WrongShard {
                txn,
                op,
                key,
                owner,
            },
        );
        true
    }

    /// Inbound handoff chunk: acquire the token, install the records
    /// through the normal replicated-write hook (idempotent, wakes any
    /// RAMP readers parked on an exact stamp), and ack the high-water
    /// mark so the sender's stream advances.
    fn handle_shard_transfer(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        from: NodeId,
        token: u32,
        from_seq: u64,
        writes: Vec<(Key, SharedRecord)>,
    ) {
        // A token this server handed off earlier is coming back: drop
        // the stale outbound record so it serves again. An *unreleased*
        // outbound entry is left alone — that is a duplicate chunk from
        // the stream that granted us the token in the first place, and
        // removing the entry would kill our own in-flight handoff.
        if self.handoffs.get(&token).is_some_and(|h| h.released) {
            self.handoffs.remove(&token);
        }
        self.tokens_acquired.insert(token);
        let upto = from_seq + writes.len() as u64;
        let hold = self.apply_replicated_batch(ctx, writes);
        ctx.send_after(hold, from, Msg::ShardTransferAck { token, upto });
    }

    /// Ack from the handoff receiver. Routing cuts over atomically the
    /// first time an ack covers the whole queue (snapshot *and* every
    /// late write mirrored since): at that instant the receiver holds a
    /// complete copy and nothing new can land here, so no read at the
    /// new owner can miss a write the old owner accepted.
    fn handle_shard_transfer_ack(&mut self, ctx: &mut Ctx<'_, Msg>, token: u32, upto: u64) {
        let Some(h) = self.handoffs.get_mut(&token) else {
            return;
        };
        h.acked = h.acked.max(upto.min(h.queue.len() as u64));
        if !h.released && h.acked >= h.snapshot_len && h.acked >= h.queue.len() as u64 {
            h.released = true;
            let (to, streamed) = (h.to, h.queue.len() as u64);
            // If an earlier inbound handoff granted this token, the
            // grant is void now — it has been passed on.
            self.tokens_acquired.remove(&token);
            self.stats.shard_handoffs += 1;
            self.trace.record(
                ctx.now().as_micros(),
                self.id,
                TraceEventKind::ShardHandoffDone {
                    token,
                    to,
                    streamed,
                },
            );
        }
    }

    /// Re-sends the unacknowledged suffix of every in-flight handoff
    /// stream (at-least-once; chunks and acks lost to a partition are
    /// simply retried next tick). A released stream with a drained queue
    /// sends nothing.
    fn pump_handoffs(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if self.handoffs.is_empty() {
            return;
        }
        self.mirror_repl_to_handoffs();
        for (&token, h) in &self.handoffs {
            if h.released && h.acked >= h.queue.len() as u64 {
                continue;
            }
            let start = h.acked as usize;
            let end = (start + HANDOFF_CHUNK).min(h.queue.len());
            ctx.send(
                h.to,
                Msg::ShardTransfer {
                    token,
                    from_seq: h.acked,
                    writes: h.queue[start..end].to_vec(),
                },
            );
        }
    }

    /// Appends `key`'s record to the matching in-progress handoff
    /// stream, if any. Called for every write installed outside the
    /// replication log's view (gossip applies, inbound handoff chunks);
    /// engine-pushed writes are mirrored from the log itself by
    /// [`Server::mirror_repl_to_handoffs`].
    fn note_handoff_write(&mut self, key: &Key, record: &SharedRecord) {
        if self.handoffs.is_empty() {
            return;
        }
        let token = self.layout.ring().token_of(key);
        if let Some(h) = self.handoffs.get_mut(&token) {
            h.queue.push((key.clone(), record.clone()));
        }
    }

    /// Mirrors replication-log entries pushed since the last call into
    /// the matching handoff streams. Runs after every dispatch (and
    /// before log compaction), so an in-progress handoff's tail tracks
    /// exactly what this server's gossip peers would see.
    fn mirror_repl_to_handoffs(&mut self) {
        let head = self.repl.head();
        if self.handoffs.is_empty() {
            self.handoff_cursor = head;
            return;
        }
        while self.handoff_cursor < head {
            if let Some((key, record)) = self.repl.entry(self.handoff_cursor) {
                let (key, record) = (key.clone(), record.clone());
                self.note_handoff_write(&key, &record);
            }
            self.handoff_cursor += 1;
        }
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("id", &self.id)
            .field("cluster", &self.cluster)
            .field("engine", &self.engine.name())
            .finish_non_exhaustive()
    }
}
