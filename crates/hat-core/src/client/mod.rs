//! The HAT client: transaction execution, session guarantees, buffering.
//!
//! Clients implement the client-side algorithms of §5.1 and Appendix B.
//! What is the same under every isolation level lives here, in the
//! protocol-agnostic core:
//!
//! * **Item cut isolation** (§5.1.1): a per-transaction read cache makes
//!   repeated reads of an item return the same value.
//! * **Session guarantees** (§5.1.3): a cross-transaction read/write
//!   cache plus stickiness yield read-your-writes and monotonic reads;
//!   with the MAV substrate this extends to causal-style sessions.
//! * **Stickiness** (§4.1): sticky clients always contact their home
//!   cluster's replica; non-sticky clients pick a random cluster per
//!   attempt (and retry elsewhere on failure — which is exactly how the
//!   read-your-writes impossibility of §5.1.3 manifests).
//! * **One request round** (`round.rs`): whatever is in flight, one retry
//!   path, one shard-redirect path.
//! * **One live timer per deadline** (`deadline.rs`): the round's retry
//!   and the protocol half's own deadline each keep at most one backend
//!   timer armed, however many requests the client sends.
//!
//! What differs per level — write buffering vs write-through vs
//! lock-then-buffer, MAV `required` vectors, RAMP repair rounds and
//! two-phase commits, 2PL lock validation — is the engine's
//! [`ClientProtocol`] half, next to its server half in
//! [`crate::protocol`]. This module has no idea which one it is running.
//!
//! A client is either driven externally or by a [`TxnSource`] in a closed
//! loop (one transaction completes, the next begins — the YCSB harness of
//! §6.3). Driven externally, it runs [`ClientCmd`]s (`cmd.rs`): every
//! [`crate::Frontend`] backend issues each interactive operation through
//! that one path.

mod cmd;
mod core;
mod deadline;
mod round;

pub use self::cmd::{ClientCmd, ClientReply};
pub use self::core::{bottom, sibling_bytes, ClientCore, Placement};
pub use self::round::Done;

use self::cmd::Awaiting;
use self::core::{ActiveTxn, Phase};
use self::deadline::PROTOCOL_TIMER;
use crate::cluster::ClusterLayout;
use crate::config::SystemConfig;
use crate::messages::Msg;
use crate::protocol::engine::{engine_for, ClientProtocol, Step};
use crate::timestamp::Timestamp;
use crate::txn::{Op, OpRecord, TxnOutcome, TxnRecord, TxnSpec};
use bytes::Bytes;
use hat_sim::{Ctx, NodeId, SimTime};
use hat_storage::{Key, Record, SharedRecord};
use hat_trace::{OpKind, TraceEventKind, TraceSink, TxnId};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Supplies transaction plans to a closed-loop client.
pub trait TxnSource: Send {
    /// The next transaction to run, or `None` to stop.
    fn next_txn(&mut self, rng: &mut rand::rngs::StdRng) -> Option<TxnSpec>;
}

/// Client-side session guarantee level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SessionLevel {
    /// No client-side caching beyond per-transaction read-your-writes.
    #[default]
    None,
    /// Item cut isolation: repeated reads in a transaction return the
    /// same value (per-transaction cache, discarded at commit).
    ItemCut,
    /// Monotonic sessions: a cross-transaction cache of the newest
    /// version observed or written per item gives monotonic reads and
    /// read-your-writes (the client "acts as a server itself", §4.1).
    Monotonic,
    /// Causal sessions: [`SessionLevel::Monotonic`] plus a cross-
    /// transaction `required` vector over the MAV substrate; requires a
    /// sticky configuration (§5.1.3 proves stickiness is necessary).
    Causal,
}

/// Session configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionOptions {
    /// Client-side guarantee level.
    pub level: SessionLevel,
    /// Sticky (home-cluster) routing vs any-replica routing.
    pub sticky: bool,
}

impl Default for SessionOptions {
    fn default() -> Self {
        SessionOptions {
            level: SessionLevel::None,
            sticky: true,
        }
    }
}

/// The client actor: the protocol-agnostic [`ClientCore`] (which it
/// dereferences to) driven by one engine's [`ClientProtocol`] half.
pub struct Client {
    core: ClientCore,
    proto: Box<dyn ClientProtocol>,
    driver: Option<Box<dyn TxnSource>>,
    /// The round the interactive command in flight waits on.
    awaiting: Option<Awaiting>,
}

impl std::ops::Deref for Client {
    type Target = ClientCore;
    fn deref(&self) -> &ClientCore {
        &self.core
    }
}

impl std::ops::DerefMut for Client {
    fn deref_mut(&mut self) -> &mut ClientCore {
        &mut self.core
    }
}

impl Client {
    /// Builds a client running the registered client half of
    /// `config.protocol`. `client_idx` is the unique writer id used in
    /// timestamps; `home` is the sticky home cluster.
    pub fn new(
        id: NodeId,
        client_idx: u32,
        home: usize,
        layout: Arc<ClusterLayout>,
        config: Arc<SystemConfig>,
        session: SessionOptions,
    ) -> Self {
        let proto = engine_for(config.protocol).1;
        Self::with_protocol(id, client_idx, home, layout, config, session, proto)
    }

    /// Builds a client running an explicit [`ClientProtocol`] half —
    /// the injection point for engines not (yet) in the registry.
    pub fn with_protocol(
        id: NodeId,
        client_idx: u32,
        home: usize,
        layout: Arc<ClusterLayout>,
        config: Arc<SystemConfig>,
        session: SessionOptions,
        proto: Box<dyn ClientProtocol>,
    ) -> Self {
        let route = proto.route();
        Client {
            core: ClientCore::new(id, client_idx, home, layout, config, session, route),
            proto,
            driver: None,
            awaiting: None,
        }
    }

    /// Installs the shared trace sink (deployment builders call this
    /// when `SystemConfig::trace` is set).
    pub fn set_trace_sink(&mut self, sink: TraceSink) {
        self.core.trace = sink;
    }

    /// Installs the shared live-telemetry sink (deployment builders call
    /// this when `SystemConfig::obs` is enabled).
    pub fn set_obs_sink(&mut self, sink: hat_obs::ObsSink) {
        self.core.obs = sink;
    }

    /// Installs a closed-loop transaction source (driver mode).
    pub fn with_driver(mut self, driver: Box<dyn TxnSource>) -> Self {
        self.driver = Some(driver);
        self
    }

    /// Replaces the session options. Frontends call this when a
    /// [`crate::Session`] is opened over this client, so each session
    /// carries its own guarantee level and stickiness.
    ///
    /// # Panics
    /// Panics if a transaction is active (options may not change
    /// mid-transaction).
    pub fn set_session_options(&mut self, opts: SessionOptions) {
        assert!(
            self.core.current.is_none(),
            "cannot change session options mid-transaction"
        );
        self.core.session = opts;
    }

    // ---------------------------------------------------------------
    // Transaction lifecycle (called by the command path or the driver
    // loop)
    // ---------------------------------------------------------------

    /// Begins a transaction.
    ///
    /// # Panics
    /// Panics if one is already active.
    pub fn begin(&mut self, now: SimTime) -> Timestamp {
        let core = &mut self.core;
        assert!(
            core.current.is_none(),
            "client {} already has an active transaction",
            core.id
        );
        let id = core.tsgen.next();
        core.trace(
            now,
            TraceEventKind::TxnBegin {
                txn: core.trace_txn(),
            },
        );
        core.current = Some(ActiveTxn {
            id,
            write_stamp: None,
            started: now,
            ops_done: Vec::new(),
            write_buffer: Vec::new(),
            txn_cache: BTreeMap::new(),
            phase: Phase::Executing,
            plan: None,
            prefetched: None,
            prewritten: None,
            op_seq: 0,
            round: Default::default(),
        });
        self.proto.begin();
        id
    }

    /// Issues an item read. May complete immediately (buffered write,
    /// cache hit, or a key its plan fetched in one batch), in which case
    /// no network round happens.
    fn issue_read(&mut self, ctx: &mut Ctx<'_, Msg>, key: Key) {
        let core = &mut self.core;
        assert!(!core.busy(), "one op at a time");
        core.op_span(ctx.now(), OpKind::Get, false);
        if let Some(hit) = core.local_version(&key) {
            core.txn_mut().ops_done.push(OpRecord::Read {
                key,
                observed: hit.stamp,
                value: hit.value.clone(),
            });
            core.op_span(ctx.now(), OpKind::Get, true);
            return;
        }
        let batched = core.txn().prefetched.as_ref();
        let batched = batched.and_then(|(issued, found)| Some((*issued, found.get(&key)?.clone())));
        if let Some((issued, record)) = batched {
            core.op_span(ctx.now(), OpKind::Get, true);
            self.record_read(ctx, OpKind::Get, key, record, issued);
            return;
        }
        self.proto.read(core, ctx, key);
    }

    /// Issues a one-shot multi-key read (the RAMP paper's `GET_ALL`) if
    /// the protocol has one: its constant-size metadata gives RAMP-Small
    /// read atomicity exactly when the read set is fetched as one batch
    /// (sequential reads can only repair forward). Every other protocol
    /// hands the keys back as `Err`, and the caller reads them one at a
    /// time.
    ///
    /// An empty batch completes immediately with no reads recorded.
    fn issue_read_many(&mut self, ctx: &mut Ctx<'_, Msg>, keys: Vec<Key>) -> Result<(), Vec<Key>> {
        if keys.is_empty() {
            return Ok(());
        }
        assert!(!self.core.busy(), "one op at a time");
        let step = self.proto.read_many(&mut self.core, ctx, keys)?;
        self.apply(ctx, step);
        Ok(())
    }

    /// Issues a predicate read over `prefix`, scatter-gathered over all
    /// servers of the chosen cluster (the keyspace is hash-partitioned,
    /// so any server holds only part of the prefix).
    fn issue_scan(&mut self, ctx: &mut Ctx<'_, Msg>, prefix: Key) {
        let core = &mut self.core;
        assert!(!core.busy(), "one op at a time");
        core.op_span(ctx.now(), OpKind::Scan, false);
        let cluster = core.pick_cluster(ctx);
        let (txn, op) = (core.txn_id(), core.next_op());
        core.open_round(ctx, ctx.now());
        for server in core.layout.servers[cluster].clone() {
            let prefix = prefix.clone();
            core.send(ctx, op, server, true, Msg::Scan { txn, op, prefix });
        }
    }

    /// Issues a write. Buffering protocols complete immediately, and so
    /// does a write its plan's batch already sent; otherwise
    /// eventual/master send the write now, and 2PL acquires the lock
    /// first.
    fn issue_write(&mut self, ctx: &mut Ctx<'_, Msg>, key: Key, value: Bytes) {
        let core = &mut self.core;
        assert!(!core.busy(), "one op at a time");
        core.op_span(ctx.now(), OpKind::Put, false);
        if let Some(issued) = core.prewritten(&key) {
            core.buffer_write(key, value);
            core.finish_write(ctx, issued);
            return;
        }
        self.proto.write(core, ctx, key, value);
    }

    /// Starts commit. Buffering protocols flush the write buffer; 2PL
    /// flushes then unlocks; others finish immediately.
    fn start_commit(&mut self, ctx: &mut Ctx<'_, Msg>) {
        assert!(!self.core.busy(), "outstanding op at commit");
        self.core.op_span(ctx.now(), OpKind::Commit, false);
        self.core.txn_mut().phase = Phase::Committing;
        let step = self.proto.commit(&mut self.core, ctx);
        self.apply(ctx, step);
    }

    /// Aborts the current transaction (internal abort): drops the
    /// buffer, releases whatever the protocol holds at servers.
    pub fn abort(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.core.clear_round();
        self.proto.release(&mut self.core, ctx);
        self.finish_txn(ctx, TxnOutcome::AbortedInternal);
    }

    /// Clears a finished transaction whose outcome has been reported
    /// (`ClientCmd::Begin` does this before beginning the next).
    pub fn clear_finished(&mut self) {
        if self.txn_outcome().is_some() {
            self.core.current = None;
        }
    }

    /// Force-abandons the current transaction after the facade observed
    /// unavailability: outstanding requests are forgotten and the
    /// transaction counts as externally aborted. Responses that straggle
    /// in later are ignored (they no longer match a request).
    pub fn abandon(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if self.core.current.is_none() {
            return;
        }
        if self.txn_outcome().is_some() {
            // already finished (and everything released); nothing to record
            self.core.current = None;
            return;
        }
        // Release locks and the like before forgetting the transaction —
        // leaking them would wedge those keys for every other session
        // until the run ends.
        self.proto.release(&mut self.core, ctx);
        let core = &mut self.core;
        let mut txn = core.current.take().expect("checked above");
        // Abandoning mid-commit is not an abort: some replicas may have
        // durably installed the writes before the round stalled, so the
        // transaction's effects are indeterminate and later reads of
        // them are legitimate. Abandoning mid-execution (writes still in
        // the client buffer for commit-time engines) stays an abort.
        let commit_in_flight = txn.phase == Phase::Committing;
        core.trace(
            ctx.now(),
            TraceEventKind::TxnAbandon {
                txn: core.trace_txn(),
                indeterminate: commit_in_flight,
            },
        );
        core.metrics.aborted_external += 1;
        if core.config.record_history {
            core.records.push(TxnRecord {
                id: txn.write_stamp.unwrap_or(txn.id),
                session: core.client_idx,
                session_seq: core.session_seq,
                ops: std::mem::take(&mut txn.ops_done),
                outcome: if commit_in_flight {
                    TxnOutcome::Indeterminate
                } else {
                    TxnOutcome::AbortedExternal
                },
            });
        }
        core.session_seq += 1;
    }

    // ---------------------------------------------------------------
    // Completions
    // ---------------------------------------------------------------

    /// Carries out what a protocol hook asked for.
    fn apply(&mut self, ctx: &mut Ctx<'_, Msg>, step: Step) {
        match step {
            Step::Continue => {}
            Step::Read {
                key,
                record,
                issued,
            } => {
                self.core.op_span(ctx.now(), OpKind::Get, true);
                self.record_read(ctx, OpKind::Get, key, record, issued);
            }
            Step::ReadMany {
                keys,
                found,
                issued,
            } => {
                self.core.op_span(ctx.now(), OpKind::GetMany, true);
                if let Some(prefetched) = &mut self.core.txn_mut().prefetched {
                    let versions = keys.into_iter().map(|key| {
                        let record = found.get(&key).cloned().unwrap_or_else(bottom);
                        (key, record)
                    });
                    *prefetched = (issued, versions.collect());
                    return;
                }
                for key in keys {
                    let record = found.get(&key).cloned().unwrap_or_else(bottom);
                    self.record_read(ctx, OpKind::GetMany, key, record, issued);
                }
            }
            Step::Finish(outcome) => self.finish_txn(ctx, outcome),
        }
    }

    /// Completes one item read: metrics, Lamport/session/metadata folds,
    /// the transaction cache and the op record. Every read path (plain
    /// `GetResp`, second rounds, batch reads) funnels through here.
    fn record_read(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        kind: OpKind,
        key: Key,
        mut record: SharedRecord,
        issued: SimTime,
    ) {
        let core = &mut self.core;
        core.session_clamp(&key, &mut record);
        core.metrics.record_op(kind, ctx.now().since(issued));
        core.observe(record.stamp);
        self.proto.fold_read(core, &key, &record);
        let txn = core.txn_mut();
        txn.txn_cache.insert(key.clone(), record.clone());
        txn.ops_done.push(OpRecord::Read {
            key,
            observed: record.stamp,
            value: record.value.clone(),
        });
    }

    /// Completes a scan once the last server of the cluster answered.
    fn finish_scan(&mut self, ctx: &mut Ctx<'_, Msg>, done: Done) {
        let core = &mut self.core;
        let Msg::Scan { prefix, .. } = done.msg else {
            return;
        };
        let mut acc = std::mem::take(&mut core.txn_mut().round.gathered);
        // Mid-handoff the old and new owner of a token both answer the
        // scatter with the token's keys: keep the freshest version of
        // each key.
        acc.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.stamp.cmp(&a.1.stamp)));
        acc.dedup_by(|a, b| a.0 == b.0);
        core.metrics
            .record_op(OpKind::Scan, ctx.now().since(done.issued));
        core.op_span(ctx.now(), OpKind::Scan, true);
        for (_, r) in &acc {
            core.observe(r.stamp);
        }
        core.last_scan = acc
            .iter()
            .map(|(k, r)| (k.clone(), r.value.clone()))
            .collect();
        let txn = core.txn_mut();
        for (k, r) in &acc {
            txn.txn_cache.insert(k.clone(), r.clone());
        }
        txn.ops_done.push(OpRecord::PredicateRead {
            prefix,
            matches: acc.iter().map(|(k, r)| (k.clone(), r.stamp)).collect(),
        });
    }

    /// Completes the transaction: metrics, history, session state, and —
    /// in driver mode — the next plan.
    fn finish_txn(&mut self, ctx: &mut Ctx<'_, Msg>, outcome: TxnOutcome) {
        let core = &mut self.core;
        let tid = core.trace_txn();
        core.trace(
            ctx.now(),
            match outcome {
                TxnOutcome::Committed => TraceEventKind::TxnCommit { txn: tid },
                TxnOutcome::AbortedInternal => TraceEventKind::TxnAbort {
                    txn: tid,
                    internal: true,
                },
                TxnOutcome::AbortedExternal | TxnOutcome::Indeterminate => {
                    TraceEventKind::TxnAbort {
                        txn: tid,
                        internal: false,
                    }
                }
            },
        );
        let mut txn = core.current.take().expect("no active txn");
        txn.phase = Phase::Done(outcome);
        // The stamp this txn's writes actually carried (read-only txns
        // keep their begin-time id).
        let stamp = txn.write_stamp.unwrap_or(txn.id);
        match outcome {
            TxnOutcome::Committed => {
                core.metrics.record_commit(txn.started, ctx.now());
                // Fold the transaction's observations into session state.
                if matches!(
                    core.session.level,
                    SessionLevel::Monotonic | SessionLevel::Causal
                ) {
                    for (k, r) in std::mem::take(&mut txn.txn_cache) {
                        let newer = core
                            .session_cache
                            .get(&k)
                            .map(|old| r.stamp > old.stamp)
                            .unwrap_or(true);
                        if newer {
                            core.session_cache.insert(k, r);
                        }
                    }
                    // Own writes become cached reads (read-your-writes).
                    for (k, v) in &txn.write_buffer {
                        core.session_cache
                            .insert(k.clone(), Record::new(stamp, v.clone()).into());
                    }
                }
                if core.session.level == SessionLevel::Causal {
                    let required = self.proto.required().into_iter().flatten();
                    let written = txn.write_buffer.iter().map(|(k, _)| (k, &stamp));
                    for (k, &ts) in required.chain(written) {
                        let e = core.causal_required.entry(k.clone()).or_insert(ts);
                        *e = (*e).max(ts);
                    }
                }
            }
            // Indeterminate outcomes are minted in `abandon`, never
            // here; counted with external aborts if that ever changes.
            TxnOutcome::AbortedExternal | TxnOutcome::Indeterminate => {
                core.metrics.aborted_external += 1
            }
            TxnOutcome::AbortedInternal => core.metrics.aborted_internal += 1,
        }
        // Reads served from the write buffer were recorded with the
        // begin-time id; rewrite them to the actual write stamp.
        for op in &mut txn.ops_done {
            if let OpRecord::Read { observed, .. } = op {
                if *observed == txn.id {
                    *observed = stamp;
                }
            }
        }
        if outcome == TxnOutcome::Committed && core.obs.is_enabled() {
            feed_obs(core, ctx.now(), stamp, &txn.ops_done, tid);
        }
        if core.config.record_history {
            core.records.push(TxnRecord {
                id: stamp,
                session: core.client_idx,
                session_seq: core.session_seq,
                ops: std::mem::take(&mut txn.ops_done),
                outcome,
            });
        }
        core.session_seq += 1;
        // Keep the finished txn visible to the facade via txn_outcome();
        // driver mode immediately moves on.
        if self.driver.is_some() {
            self.drive_next(ctx);
        } else {
            core.current = Some(txn);
        }
    }

    // ---------------------------------------------------------------
    // Driver (closed-loop) mode
    // ---------------------------------------------------------------

    /// Driver-mode bootstrap, called by the node wrapper's `on_start`.
    pub fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.drive_next(ctx);
    }

    /// Starts the closed loop (no-op unless a driver is installed).
    pub fn drive_next(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let Some(driver) = self.driver.as_mut() else {
            return;
        };
        let Some(spec) = driver.next_txn(ctx.rng()) else {
            return;
        };
        self.begin(ctx.now());
        let (reads, writes) = plan_batches(&spec);
        self.core.txn_mut().plan = Some((spec, 0));
        if !self.prewrite(ctx, writes) {
            self.prefetch(ctx, reads);
        }
        self.step_plan(ctx);
    }

    /// Sends a plan's write batch as one round before its first
    /// operation, if the protocol makes writes visible before commit
    /// (eventual, master): Read Uncommitted orders a transaction's
    /// writes by their one stamp, not by when they are sent, so the
    /// plan's puts share one round — and, on a durable store, one sync —
    /// instead of one each. False if there was nothing to send or the
    /// protocol refused, in which case the plan may batch its reads.
    fn prewrite(&mut self, ctx: &mut Ctx<'_, Msg>, writes: Vec<(Key, Bytes)>) -> bool {
        if writes.is_empty() {
            return false;
        }
        let keys = writes.iter().map(|(k, _)| k.clone()).collect();
        self.core.txn_mut().prewritten = Some((ctx.now(), keys));
        match self.proto.write_many(&mut self.core, ctx, writes) {
            Ok(step) => {
                self.apply(ctx, step);
                true
            }
            Err(_) => {
                self.core.txn_mut().prewritten = None;
                false
            }
        }
    }

    /// Fetches a plan's reads as one batch (the RAMP paper's `GET_ALL`)
    /// before its first operation, if the protocol has a native batch:
    /// RAMP-Small's stamp-only metadata gives a read set Read Atomic only
    /// when it is fetched together, since reads issued one at a time can
    /// repair forward but never backward. A protocol without one runs
    /// the plan one read at a time.
    fn prefetch(&mut self, ctx: &mut Ctx<'_, Msg>, keys: Vec<Key>) {
        if keys.is_empty() {
            return;
        }
        self.core.txn_mut().prefetched = Some((ctx.now(), BTreeMap::new()));
        if self.issue_read_many(ctx, keys).is_err() {
            self.core.txn_mut().prefetched = None;
        }
    }

    /// Executes plan operations until one goes async or the plan ends.
    fn step_plan(&mut self, ctx: &mut Ctx<'_, Msg>) {
        loop {
            if self.core.busy() {
                return;
            }
            let Some(txn) = self.core.current.as_mut() else {
                return;
            };
            let Some((spec, idx)) = txn.plan.as_mut() else {
                return;
            };
            if *idx >= spec.ops.len() {
                if txn.phase == Phase::Executing {
                    self.start_commit(ctx);
                    // eventual/master, whose writes are already out,
                    // finish synchronously; others wait
                    if self
                        .core
                        .current
                        .as_ref()
                        .is_none_or(|t| t.phase == Phase::Executing)
                    {
                        continue;
                    }
                }
                return;
            }
            let op = spec.ops[*idx].clone();
            *idx += 1;
            match op {
                Op::Read(k) => self.issue_read(ctx, k),
                Op::Write(k, v) => self.issue_write(ctx, k, v),
                Op::PredicateRead(p) => self.issue_scan(ctx, p),
            }
        }
    }

    // ---------------------------------------------------------------
    // Messages and timers
    // ---------------------------------------------------------------

    /// Handles a message addressed to this client: retires the request
    /// it answers and hands the answer to whoever consumes it.
    pub fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: Msg) {
        if matches!(msg, Msg::WrongShard { .. }) {
            self.core.on_wrong_shard(ctx, &msg);
            return;
        }
        let Some(done) = self.core.ack(&msg, from) else {
            return; // stale (retried or finished), or stray server traffic
        };
        let core = &mut self.core;
        let step = match msg {
            Msg::GetResp { found, .. } => {
                let key = done.key().expect("keyed request").clone();
                self.proto.on_value(core, ctx, done, key, found)
            }
            Msg::ScanResp { matches, .. } => {
                core.txn_mut().round.gathered.extend(matches);
                if !core.busy() {
                    self.finish_scan(ctx, done);
                }
                Step::Continue
            }
            Msg::PutResp { .. } => {
                if core.txn().phase == Phase::Committing {
                    self.proto.on_acked(core, ctx, done)
                } else if done.key().is_some_and(|k| core.prewritten(k).is_some()) {
                    // a plan's write batch: each write is recorded when
                    // the plan reaches it
                    Step::Continue
                } else {
                    // operation-time write ack (eventual / master)
                    core.finish_write(ctx, done.issued);
                    Step::Continue
                }
            }
            Msg::EngineResp { body, .. } => self.proto.on_reply(core, ctx, done, body),
            _ => Step::Continue,
        };
        self.apply(ctx, step);
        self.step_plan(ctx);
    }

    /// Handles a timer: a retry, or the protocol half's deadline. The
    /// live timer is retired before anything else looks at it, so one
    /// that fires between transactions is gone, not left counted live.
    pub fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, tag: u64) {
        if tag & PROTOCOL_TIMER == 0 {
            self.core.on_retry_timer(ctx, tag);
        } else if self.core.protocol_timer.fired(tag)
            && self.core.current.is_some()
            && self.txn_outcome().is_none()
        {
            let step = self.proto.on_timer(&mut self.core, ctx);
            self.apply(ctx, step);
            self.step_plan(ctx);
        }
    }
}

/// What a plan's one batch may carry, in plan order:
///
/// * reads: the keys it reads before writing them, each once. A read of
///   a key the plan wrote earlier is served from the write buffer.
///   Predicate reads are not batched: `hat_history`'s fractured-read
///   check covers item reads only.
/// * writes: every write of each key whose first operation is a write
///   (the batch sends the key's last value). A key read first — by an
///   item read, or by a predicate read whose prefix covers it — is
///   written when the plan reaches the write, after that read.
fn plan_batches(spec: &TxnSpec) -> (Vec<Key>, Vec<(Key, Bytes)>) {
    let mut reads: Vec<Key> = Vec::new();
    let mut written: Vec<&Key> = Vec::new();
    let mut scanned: Vec<&Key> = Vec::new();
    let mut writes: Vec<(Key, Bytes)> = Vec::new();
    for op in &spec.ops {
        match op {
            Op::Read(k) if !written.contains(&k) && !reads.contains(k) => reads.push(k.clone()),
            Op::Write(k, v) => {
                let batched = if written.contains(&k) {
                    writes.iter().any(|(w, _)| w == k)
                } else {
                    written.push(k);
                    !reads.contains(k) && !scanned.iter().any(|p| k.starts_with(p))
                };
                if batched {
                    writes.push((k.clone(), v.clone()));
                }
            }
            Op::PredicateRead(p) => scanned.push(p),
            Op::Read(_) => {}
        }
    }
    (reads, writes)
}

/// Feeds a committed transaction to the live-telemetry sink: its reads
/// (for the streaming checker) and its writes with each key's replica
/// set (for the t-visibility probe). Observation only — the sink is fed
/// from state the commit already produced and draws nothing from the
/// rng. On the sink's *first* violation it is reported once per run,
/// with the trace window around the offending transaction when tracing
/// is on.
fn feed_obs(core: &ClientCore, now: SimTime, stamp: Timestamp, ops: &[OpRecord], tid: TxnId) {
    let mut reads = Vec::new();
    let mut writes = Vec::new();
    for op in ops {
        match op {
            OpRecord::Read { key, observed, .. } => {
                reads.push((key.to_vec(), (observed.seq, observed.writer)));
            }
            OpRecord::Write { key, .. } => {
                writes.push((key.to_vec(), core.layout.replicas(key)));
            }
            OpRecord::PredicateRead { .. } => {}
        }
    }
    let commit = hat_obs::CommitObs {
        at_us: now.as_micros(),
        session: core.client_idx,
        session_seq: core.session_seq,
        stamp: (stamp.seq, stamp.writer),
        reads,
        writes,
    };
    if let Some(v) = core.obs.observe_commit(&commit) {
        eprintln!("hat-obs: first streaming violation {v:?}");
        if core.trace.is_enabled() {
            eprint!(
                "{}",
                hat_trace::format_txn_window(&core.trace.events(), tid, 5_000)
            );
        }
    }
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("id", &self.id)
            .field("client_idx", &self.client_idx)
            .field("session", &self.session)
            .field("protocol", &self.proto)
            .finish_non_exhaustive()
    }
}
