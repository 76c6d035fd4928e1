//! The protocol-agnostic session core: everything a client does that is
//! the same under every isolation level — session state and caches,
//! routing and shard overrides, the transaction's buffers, metrics,
//! history and tracing — plus the facilities the per-engine
//! [`crate::protocol::ClientProtocol`] halves drive it through.

use super::deadline::{DeadlineTimer, PROTOCOL_TIMER};
use super::round::Round;
use super::{SessionLevel, SessionOptions};
use crate::cluster::ClusterLayout;
use crate::config::SystemConfig;
use crate::messages::Msg;
use crate::metrics::ClientMetrics;
use crate::protocol::engine::{Route, Step};
use crate::timestamp::{Timestamp, TimestampGen};
use crate::txn::{OpRecord, TxnOutcome, TxnRecord, TxnSpec};
use bytes::Bytes;
use hat_sim::{Ctx, NodeId, SimTime};
use hat_storage::{Key, Record, SharedRecord};
use hat_trace::{OpKind, TraceEventKind, TraceSink, TxnId};
use rand::Rng;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Where a commit's buffered writes go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Each key follows the session's routing on its own, and again on
    /// every retry.
    PerKey,
    /// One cluster for the whole write set (home if sticky, else drawn
    /// once), pinned: for commits whose later phases must land on the
    /// replicas the first phase wrote.
    OneCluster,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Phase {
    Executing,
    Committing,
    Done(TxnOutcome),
}

#[derive(Debug)]
pub(super) struct ActiveTxn {
    pub(super) id: Timestamp,
    /// Stamp all of this transaction's writes carry. Assigned lazily at
    /// the first write so it Lamport-dominates every version the
    /// transaction has read by then (under locking this makes the
    /// last-writer-wins order agree with the serial order).
    pub(super) write_stamp: Option<Timestamp>,
    pub(super) started: SimTime,
    pub(super) ops_done: Vec<OpRecord>,
    /// Buffered writes in program order (last write per key wins).
    pub(super) write_buffer: Vec<(Key, Bytes)>,
    /// Per-transaction read cache (item cut isolation + per-txn RYW).
    /// Ordered map: iteration order must not depend on hash seeds, or
    /// fixed-seed runs diverge across processes.
    pub(super) txn_cache: BTreeMap<Key, SharedRecord>,
    pub(super) phase: Phase,
    /// Remaining plan when driver-driven: `(spec, next_op_index)`.
    pub(super) plan: Option<(TxnSpec, usize)>,
    /// The plan's reads fetched as one batch at its start: the batch's
    /// issue time and each key's version, served as the plan reaches each
    /// read. Empty while the batch is in flight; `None` when the plan
    /// reads one key at a time.
    pub(super) prefetched: Option<(SimTime, BTreeMap<Key, SharedRecord>)>,
    /// The plan's writes sent as one round at its start: the round's
    /// issue time and the keys it wrote. A write of one of these keys is
    /// recorded as the plan reaches it, and nothing more is sent. `None`
    /// when the plan writes at operation time or at commit.
    pub(super) prewritten: Option<(SimTime, Vec<Key>)>,
    pub(super) op_seq: u32,
    /// What is in flight.
    pub(super) round: Round,
}

/// The session core of a [`super::Client`].
pub struct ClientCore {
    pub(super) id: NodeId,
    pub(super) client_idx: u32,
    home: usize,
    pub(super) layout: Arc<ClusterLayout>,
    pub(super) config: Arc<SystemConfig>,
    pub(super) session: SessionOptions,
    /// The protocol half's routing discipline.
    pub(super) route: Route,
    pub(super) tsgen: TimestampGen,
    pub(super) session_seq: u64,
    /// Cross-transaction cache for Monotonic/Causal sessions. Ordered
    /// for deterministic folds.
    pub(super) session_cache: BTreeMap<Key, SharedRecord>,
    /// Cross-transaction `required` floor for Causal sessions.
    pub(super) causal_required: BTreeMap<Key, Timestamp>,
    pub(super) current: Option<ActiveTxn>,
    /// Key/value pairs of the most recent scan response, until its reply
    /// takes them.
    pub(super) last_scan: Vec<(Key, Bytes)>,
    /// Performance counters.
    pub metrics: ClientMetrics,
    pub(super) records: Vec<TxnRecord>,
    /// The one live timer serving the current round's retry deadline.
    pub(super) retry_timer: DeadlineTimer,
    /// The one live timer serving the protocol half's deadline. Lives
    /// here, not in the half, so it outlasts the half's per-transaction
    /// reset and a fire between transactions still retires it.
    pub(super) protocol_timer: DeadlineTimer,
    /// Structured-event sink. Disabled (no-op) unless the deployment was
    /// built with `SystemConfig::trace`; recording never touches the rng,
    /// so traced runs stay bit-identical to untraced ones.
    pub(super) trace: TraceSink,
    /// Live-telemetry sink (same determinism contract as `trace`):
    /// commits feed the visibility probes and the streaming checker.
    pub(super) obs: hat_obs::ObsSink,
    /// Shard-routing overrides learnt from [`Msg::WrongShard`] NACKs:
    /// ring token → new owner *position*. A handoff moves a token's
    /// position in every cluster at once (handoffs are positional), so
    /// one override redirects the token's replica in all clusters.
    pub(super) shard_overrides: BTreeMap<u32, u32>,
}

/// The initial `⊥` version.
pub fn bottom() -> SharedRecord {
    Record::new(Timestamp::INITIAL, Bytes::new()).into()
}

/// Wire bytes of a record's sibling (write-set) metadata — the quantity
/// Figure 4 plots and `hat-experiments ramp` compares across engines.
pub fn sibling_bytes(record: &Record) -> u64 {
    record.siblings.iter().map(|s| 4 + s.len() as u64).sum()
}

impl ClientCore {
    pub(super) fn new(
        id: NodeId,
        client_idx: u32,
        home: usize,
        layout: Arc<ClusterLayout>,
        config: Arc<SystemConfig>,
        session: SessionOptions,
        route: Route,
    ) -> Self {
        ClientCore {
            id,
            client_idx,
            home,
            layout,
            config,
            session,
            route,
            tsgen: TimestampGen::new(client_idx),
            session_seq: 0,
            session_cache: BTreeMap::new(),
            causal_required: BTreeMap::new(),
            current: None,
            last_scan: Vec::new(),
            metrics: ClientMetrics::default(),
            records: Vec::new(),
            retry_timer: DeadlineTimer::new(0),
            protocol_timer: DeadlineTimer::new(PROTOCOL_TIMER),
            trace: TraceSink::disabled(),
            obs: hat_obs::ObsSink::disabled(),
            shard_overrides: BTreeMap::new(),
        }
    }

    // ---------------------------------------------------------------
    // Inspection (facades, tests, experiments)
    // ---------------------------------------------------------------

    /// The session options this client currently runs with.
    pub fn session_options(&self) -> SessionOptions {
        self.session
    }

    /// The node id of this client.
    pub fn node_id(&self) -> NodeId {
        self.id
    }

    /// The writer id used in this client's timestamps.
    pub fn client_idx(&self) -> u32 {
        self.client_idx
    }

    /// The deployment configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Recorded transaction histories (empty unless
    /// `config.record_history`).
    pub fn records(&self) -> &[TxnRecord] {
        &self.records
    }

    /// Takes the recorded histories out of the client.
    pub fn take_records(&mut self) -> Vec<TxnRecord> {
        std::mem::take(&mut self.records)
    }

    /// The outcome of the current transaction once it finished.
    pub fn txn_outcome(&self) -> Option<TxnOutcome> {
        match self.current.as_ref()?.phase {
            Phase::Done(o) => Some(o),
            _ => None,
        }
    }

    // ---------------------------------------------------------------
    // The running transaction
    // ---------------------------------------------------------------

    pub(super) fn txn(&self) -> &ActiveTxn {
        self.current.as_ref().expect("no active txn")
    }

    pub(super) fn txn_mut(&mut self) -> &mut ActiveTxn {
        self.current.as_mut().expect("no active txn")
    }

    /// The running transaction's id (its begin-time stamp).
    pub fn txn_id(&self) -> Timestamp {
        self.txn().id
    }

    /// The stamp this transaction's writes carry, assigned on first use
    /// from the Lamport-advancing generator.
    pub fn write_stamp(&mut self) -> Timestamp {
        if let Some(ts) = self.txn().write_stamp {
            return ts;
        }
        let ts = self.tsgen.next();
        self.txn_mut().write_stamp = Some(ts);
        ts
    }

    /// Lamport-advances the client's clock past `stamp`.
    pub fn observe(&mut self, stamp: Timestamp) {
        self.tsgen.observe(stamp);
    }

    /// The writes buffered so far, in program order.
    pub fn write_buffer(&self) -> &[(Key, Bytes)] {
        &self.txn().write_buffer
    }

    /// When the plan's write batch that already sent `key` was issued;
    /// `None` if no batch carried it.
    pub(super) fn prewritten(&self, key: &Key) -> Option<SimTime> {
        let (issued, keys) = self.txn().prewritten.as_ref()?;
        keys.contains(key).then_some(*issued)
    }

    /// The version of `key` this transaction has already read, if any.
    pub fn cached(&self, key: &Key) -> Option<&SharedRecord> {
        self.txn().txn_cache.get(key)
    }

    /// Records a write and keeps it in the transaction's buffer (for
    /// read-your-writes, and for the flush of write-buffering engines).
    pub fn buffer_write(&mut self, key: Key, value: Bytes) {
        let txn = self.txn_mut();
        txn.write_buffer.push((key.clone(), value.clone()));
        txn.ops_done.push(OpRecord::Write { key, value });
    }

    /// The version a read of `key` resolves to without the network: the
    /// transaction's own buffered write (Appendix B client GET), or —
    /// under item cut isolation — what it already read.
    pub fn local_version(&self, key: &Key) -> Option<SharedRecord> {
        let txn = self.txn();
        if let Some((_, v)) = txn.write_buffer.iter().rev().find(|(k, _)| k == key) {
            return Some(Record::new(txn.id, v.clone()).into());
        }
        if self.session.level == SessionLevel::None {
            return None;
        }
        txn.txn_cache.get(key).cloned()
    }

    /// Monotonic/Causal sessions never observe something older than the
    /// session cache (the client "acts as a server itself"). Applied on
    /// *every* read path — including second rounds and batch reads — so
    /// a repair fetch cannot step a session backwards. When a repair and
    /// the session guarantee conflict, the session guarantee wins (it is
    /// the stronger, stickier contract).
    pub fn session_clamp(&self, key: &Key, record: &mut SharedRecord) {
        if matches!(
            self.session.level,
            SessionLevel::Monotonic | SessionLevel::Causal
        ) {
            if let Some(cached) = self.session_cache.get(key) {
                if cached.stamp > record.stamp {
                    *record = cached.clone();
                }
            }
        }
    }

    // ---------------------------------------------------------------
    // Tracing
    // ---------------------------------------------------------------

    /// The transaction id the *current* (or next) transaction carries in
    /// trace events: `(writer id, session sequence)` — joinable against
    /// `TxnRecord::{session, session_seq}`.
    pub fn trace_txn(&self) -> TxnId {
        TxnId::new(self.client_idx, self.session_seq)
    }

    /// Records one trace event stamped with `now` (no-op when disabled).
    pub fn trace(&self, now: SimTime, kind: TraceEventKind) {
        self.trace.record(now.as_micros(), self.id, kind);
    }

    /// Opens (`end == false`) or closes the trace span of one operation.
    pub fn op_span(&self, now: SimTime, kind: OpKind, end: bool) {
        let txn = self.trace_txn();
        self.trace(
            now,
            if end {
                TraceEventKind::OpEnd { txn, kind }
            } else {
                TraceEventKind::OpStart { txn, kind }
            },
        );
    }

    // ---------------------------------------------------------------
    // Routing
    // ---------------------------------------------------------------

    /// Resolves `key` to a server of `cluster`, honouring shard
    /// overrides learnt from [`Msg::WrongShard`] NACKs: a token
    /// mid-handoff routes to its new owner position, everything else
    /// follows the layout ring.
    fn route_in_cluster(&self, key: &Key, cluster: usize) -> NodeId {
        if !self.shard_overrides.is_empty() {
            if let Some(&pos) = self.shard_overrides.get(&self.layout.ring().token_of(key)) {
                return self.layout.servers[cluster][pos as usize];
            }
        }
        self.layout.replica_in_cluster(key, cluster)
    }

    /// The cluster an any-replica request goes to: home for sticky
    /// sessions and master-routed engines, otherwise a fresh draw.
    pub(super) fn pick_cluster(&self, ctx: &mut Ctx<'_, Msg>) -> usize {
        if self.session.sticky || self.route != Route::Replica {
            self.home
        } else {
            ctx.rng().gen_range(0..self.layout.num_clusters())
        }
    }

    /// Chooses the server to contact for `key`.
    pub fn pick_replica(&self, ctx: &mut Ctx<'_, Msg>, key: &Key) -> NodeId {
        match self.route {
            Route::Master => self.route_in_cluster(key, self.layout.master_cluster(key)),
            Route::RingMaster => self.layout.master(key),
            Route::Replica => self.route_in_cluster(key, self.pick_cluster(ctx)),
        }
    }

    // ---------------------------------------------------------------
    // Requests shared by several engines
    // ---------------------------------------------------------------

    /// Sends a `Get` for `key` to `target`. `floor` is the protocol
    /// half's own lower bound for the key; it is joined with the
    /// session's cross-transaction causal floor here, so no `Get` —
    /// first send or retry — can forget the session floor and observe a
    /// causally stale version.
    pub fn send_get(&mut self, ctx: &mut Ctx<'_, Msg>, key: Key, target: NodeId, floor: Timestamp) {
        let mut required = floor;
        if self.session.level == SessionLevel::Causal {
            if let Some(&session_floor) = self.causal_required.get(&key) {
                required = required.max(session_floor);
            }
        }
        self.request(ctx, target, false, |txn, op| Msg::Get {
            txn,
            op,
            key,
            required,
        });
    }

    /// Sends a write to its replica now, at operation time — visible
    /// before commit (Read Uncommitted semantics).
    pub fn write_through(&mut self, ctx: &mut Ctx<'_, Msg>, key: Key, value: Bytes) {
        let record: SharedRecord = Record::new(self.write_stamp(), value.clone()).into();
        let target = self.pick_replica(ctx, &key);
        self.buffer_write(key.clone(), value);
        self.request(ctx, target, false, |txn, op| Msg::Put {
            txn,
            op,
            key,
            record,
        });
    }

    /// Completes a write operation issued at `issued`.
    pub fn finish_write(&mut self, ctx: &mut Ctx<'_, Msg>, issued: SimTime) {
        self.metrics.record_op(OpKind::Put, ctx.now().since(issued));
        self.op_span(ctx.now(), OpKind::Put, true);
    }

    /// Sends `writes` (in program order: a commit's write buffer, or a
    /// plan's write batch) as one round of stamped `Put`s — last value
    /// per key, in first-write order. With `siblings`, every record
    /// carries the whole write set as metadata. With nothing to send,
    /// nothing is sent and the commit is already done:
    /// `Step::Finish(Committed)`.
    pub fn flush_writes(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        program_order: Vec<(Key, Bytes)>,
        siblings: bool,
        placement: Placement,
    ) -> Step {
        let mut writes: Vec<(Key, Bytes)> = Vec::with_capacity(program_order.len());
        for (k, v) in program_order {
            match writes.iter_mut().find(|(wk, _)| *wk == k) {
                Some(w) => w.1 = v,
                None => writes.push((k, v)),
            }
        }
        if writes.is_empty() {
            return Step::Finish(TxnOutcome::Committed);
        }
        // One list for the whole write set, shared by all its records.
        let siblings: Arc<[Key]> = if siblings {
            writes.iter().map(|(k, _)| k.clone()).collect()
        } else {
            Arc::default()
        };
        let stamp = self.write_stamp();
        self.open_round(ctx, ctx.now());
        let cluster = (placement == Placement::OneCluster).then(|| self.pick_cluster(ctx));
        for (key, value) in writes {
            // The one allocation this write will ever get: the retry
            // buffer, the wire message, the server's store and its
            // replication log all share it.
            let record: SharedRecord =
                Record::with_siblings(stamp, value, Arc::clone(&siblings)).into();
            self.metrics.metadata_bytes += sibling_bytes(&record);
            let target = match cluster {
                Some(c) => self.route_in_cluster(&key, c),
                None => self.pick_replica(ctx, &key),
            };
            let (txn, op) = (self.txn_id(), self.next_op());
            self.send(
                ctx,
                op,
                target,
                cluster.is_some(),
                Msg::Put {
                    txn,
                    op,
                    key,
                    record,
                },
            );
        }
        Step::Continue
    }
}
