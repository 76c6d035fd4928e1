//! The pluggable protocol layer: one engine per isolation/consistency
//! level, each a *pair* of halves.
//!
//! The paper defines every HAT level (§5.1, Appendix B) as a client
//! procedure plus a server procedure, and so does this crate:
//!
//! * the server half is a [`ProtocolEngine`], plugged into the
//!   protocol-agnostic [`crate::Server`] (service queue, anti-entropy
//!   gossip, replication log, backing store). It decides how a read at a
//!   `required` bound is answered, what a write costs and what happens
//!   when it is installed, how anti-entropy copies are applied, how its
//!   own messages are served ([`ProtocolEngine::on_message`]: RAMP's
//!   stamp reads, version fetches and commit marks, MAV's sibling
//!   notifications, 2PL's lock traffic), and what extra work the
//!   anti-entropy timer performs;
//! * the client half is a [`ClientProtocol`], plugged into the
//!   protocol-agnostic [`crate::client::ClientCore`] (sessions, caches,
//!   routing, shard overrides, the one outstanding-request round with
//!   its retry and redirect paths, metrics, history). It decides where
//!   requests are routed, how a read starts and which further rounds it
//!   needs, what read metadata is folded into, whether a write is sent
//!   now, buffered or locked first, and which phases a commit runs.
//!
//! An engine's own wire vocabulary is one [`EngineMsg`] variant, defined
//! in its file ([`RampMsg`], [`MavMsg`], [`LockMsg`]) and carried in
//! [`Msg`]'s envelopes. The server and the client core move bodies
//! unopened, asking [`EngineMsg`] only for a trace label and size, the
//! key a retry reroutes on, whether a shard redirect may refuse the
//! request, and which request a reply answers.
//!
//! **Adding a level = one file with both halves, one arm in
//! [`engine_for`] and, if it speaks a message of its own, one
//! [`EngineMsg`] variant — all in `protocol/`.** Most hooks have
//! defaults (last-writer-wins servers, write-buffering clients), and
//! every driver — the discrete-event simulator, the threaded runtime and
//! the benchmark harness — picks the pair up without touching
//! `messages.rs`, `server.rs` or `client/`. Engines outside the registry
//! inject the same pair through
//! [`crate::DeploymentBuilder::engine_factory`].

use crate::client::{ClientCore, Done, Placement};
use crate::cluster::ClusterLayout;
use crate::config::{ProtocolKind, SystemConfig};
use crate::messages::Msg;
use crate::metrics::ClientMetrics;
use crate::protocol::mav::MavMsg;
use crate::protocol::ramp::RampMsg;
use crate::protocol::replication::ReplicationLog;
use crate::protocol::twopl::LockMsg;
use crate::server::ServerStats;
use crate::timestamp::Timestamp;
use crate::txn::TxnOutcome;
use bytes::Bytes;
use hat_sim::{Ctx, NodeId, SimDuration, SimTime};
use hat_storage::{Key, Record, SharedRecord, Store};
use std::collections::BTreeMap;

/// The body of an engine's own messages ([`Msg::EngineReq`],
/// [`Msg::EngineResp`], [`Msg::Engine`]): one variant per engine family,
/// each defined in that engine's file. A closed enum rather than a trait
/// object, so [`Msg`] stays `Clone + PartialEq` by derive and no body
/// costs a heap allocation of its own.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineMsg {
    /// RAMP's stamp reads, version fetches and commit marks.
    Ramp(RampMsg),
    /// MAV's sibling notifications.
    Mav(MavMsg),
    /// 2PL's lock requests, grants, checks and releases.
    Lock(LockMsg),
}

impl EngineMsg {
    /// Short stable label for tracing: the message's own name.
    pub fn label(&self) -> &'static str {
        match self {
            EngineMsg::Ramp(m) => m.label(),
            EngineMsg::Mav(m) => m.label(),
            EngineMsg::Lock(m) => m.label(),
        }
    }

    /// Approximate wire size of the whole message, envelope included,
    /// with [`Msg::approx_bytes`]'s accounting.
    pub fn approx_bytes(&self) -> u64 {
        match self {
            EngineMsg::Ramp(m) => m.approx_bytes(),
            EngineMsg::Mav(m) => m.approx_bytes(),
            EngineMsg::Lock(m) => m.approx_bytes(),
        }
    }

    /// The key a request names: a retry on any-replica routing sends it
    /// to a replica of this key. `None` for requests that name none and
    /// for replies.
    pub fn key(&self) -> Option<&Key> {
        match self {
            EngineMsg::Ramp(m) => m.key(),
            EngineMsg::Lock(m) => m.key(),
            EngineMsg::Mav(_) => None,
        }
    }

    /// True if a server may refuse the request with
    /// [`Msg::WrongShard`] when its key's shard has moved: RAMP-Small's
    /// round 1 only. A second round must see the state its first round
    /// saw, commit marks land where the prepares did, and lock tables
    /// are pinned.
    pub fn may_redirect(&self) -> bool {
        matches!(self, EngineMsg::Ramp(RampMsg::GetTs { .. }))
    }

    /// True if this reply is the kind a server sends back for
    /// `request`. A late duplicate of an earlier round's reply under the
    /// same op id (RAMP's second round reuses the first round's) fails
    /// this and is dropped.
    pub fn answers(&self, request: &EngineMsg) -> bool {
        match (self, request) {
            (EngineMsg::Ramp(reply), EngineMsg::Ramp(request)) => reply.answers(request),
            (EngineMsg::Lock(reply), EngineMsg::Lock(request)) => reply.answers(request),
            _ => false,
        }
    }

    /// Counts a request the client puts on the wire, retransmissions
    /// included: RAMP's commit-mark batches.
    pub fn count_sent(&self, metrics: &mut ClientMetrics) {
        if let EngineMsg::Ramp(RampMsg::CommitBatch { marks, .. }) = self {
            metrics.commit_batches += 1;
            metrics.commit_batch_marks += marks.len() as u64;
        }
    }
}

/// Mutable view over the protocol-agnostic server state, handed to every
/// engine hook. Borrowing a view (rather than the whole server) keeps the
/// engine and the server state disjoint, so an engine can never reach the
/// timers or the handoff state except through its declared hooks.
pub struct ServerView<'a> {
    /// The replica's good/visible version store.
    pub store: &'a mut dyn Store,
    /// The anti-entropy buffer gossiped to positional peers.
    pub repl: &'a mut ReplicationLog,
    /// Cluster layout (replica placement, masters).
    pub layout: &'a ClusterLayout,
    /// Deployment configuration.
    pub config: &'a SystemConfig,
    /// The server's counters.
    pub stats: &'a mut ServerStats,
    /// True while the server, fresh out of a crash, still waits for its
    /// peers' recovery dumps: its replayed store may lack a torn WAL
    /// tail.
    pub recovering: bool,
    /// When the server's one service queue drains.
    pub(crate) busy_until: &'a mut SimTime,
}

impl ServerView<'_> {
    /// Charges `cost` of service time on the server's queue and returns
    /// how long a reply sent now is held (queueing + service).
    pub fn service(&mut self, now: SimTime, cost: SimDuration) -> SimDuration {
        charge(self.busy_until, now, cost)
    }
}

/// One service queue: a request arriving at `now` starts once the queue
/// drains, and its reply leaves `cost` later.
pub(crate) fn charge(busy_until: &mut SimTime, now: SimTime, cost: SimDuration) -> SimDuration {
    let start = if *busy_until > now { *busy_until } else { now };
    *busy_until = start + cost;
    *busy_until - now
}

/// A protocol state machine plugged into the server.
///
/// Every hook has a sensible last-writer-wins default, so a minimal
/// engine (e.g. the `eventual` level, or a stub for a new level) is an
/// empty struct plus a [`ProtocolEngine::name`].
pub trait ProtocolEngine: Send + std::fmt::Debug {
    /// Short label used in experiment output and `Debug` formatting.
    fn name(&self) -> &'static str;

    /// Serves an item read. `required` is the client's lower bound
    /// (Appendix B); engines without the concept ignore it and answer
    /// with the last-writer-wins winner.
    fn read(
        &mut self,
        view: &mut ServerView<'_>,
        key: &Key,
        required: Timestamp,
    ) -> Option<SharedRecord> {
        let _ = required;
        view.store.latest(key)
    }

    /// Installs a client write, emitting any protocol traffic through
    /// `ctx` (e.g. MAV sibling notifications), and returns the service
    /// cost charged for it.
    fn apply_client_write(
        &mut self,
        view: &mut ServerView<'_>,
        ctx: &mut Ctx<'_, Msg>,
        key: Key,
        record: SharedRecord,
    ) -> SimDuration {
        let _ = ctx;
        lww_apply(view, key, record);
        view.config.service.write()
    }

    /// Installs an anti-entropy copy received from a peer replica.
    /// Engines must apply these idempotently (delivery is at-least-once)
    /// and must *not* re-gossip (peers form a clique; the origin gossips
    /// to everyone).
    fn apply_replicated_write(
        &mut self,
        view: &mut ServerView<'_>,
        ctx: &mut Ctx<'_, Msg>,
        key: Key,
        record: SharedRecord,
    ) {
        let _ = ctx;
        let _ = view.store.put(key, record);
    }

    /// Serves one of the engine's own messages from `from`: a
    /// [`Msg::EngineReq`] (`txn` and `op` are the request's, and the
    /// answer is a [`Msg::EngineResp`] echoing them) or a one-way
    /// [`Msg::Engine`] (`op` is 0). The engine charges its service time
    /// through [`ServerView::service`] and sends its replies through
    /// `ctx`, now or later (RAMP answers a parked fetch when the version
    /// arrives). Engines without messages of their own never receive
    /// one: their clients send none.
    fn on_message(
        &mut self,
        view: &mut ServerView<'_>,
        ctx: &mut Ctx<'_, Msg>,
        from: NodeId,
        txn: Timestamp,
        op: u32,
        body: EngineMsg,
    ) {
        let _ = (view, ctx, from, txn, op, body);
    }

    /// True if a client write of `key` by `txn` may be installed now.
    /// Locking engines fence here: a commit write whose exclusive lock
    /// is no longer on the table (the server crashed and rebuilt an
    /// empty table) must not install, because the lock may already have
    /// been re-granted to a younger transaction. Lock-free engines admit
    /// everything.
    fn write_admissible(&self, txn: Timestamp, key: &Key) -> bool {
        let _ = (txn, key);
        true
    }

    /// Invoked on every anti-entropy tick, after the gossip batches have
    /// been sent — the hook MAV uses to replay notifications lost to
    /// partitions.
    fn on_anti_entropy_tick(&mut self, view: &mut ServerView<'_>, ctx: &mut Ctx<'_, Msg>) {
        let _ = (view, ctx);
    }

    /// Reads that missed their `required` bound (0 for engines without
    /// the concept; must stay 0 in a correct MAV run).
    fn required_misses(&self) -> u64 {
        0
    }

    /// True if a client write is acknowledged only once a replication
    /// peer has confirmed it (instead of right after the local install).
    /// A serializable engine cannot ack a write whose only copy sits in
    /// a WAL tail a crash may tear off.
    fn acks_after_replication(&self) -> bool {
        false
    }

    /// True if this engine's request routing must stay on the ring
    /// owner through a shard handoff (records are still streamed, but
    /// the server never answers [`Msg::WrongShard`]). Engines with
    /// per-server volatile state that cannot be split across a live
    /// cutover — lock tables — pin.
    fn pins_shards(&self) -> bool {
        false
    }
}

/// How a client half routes a request for a key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Any replica: the home cluster's for a sticky session, a random
    /// cluster's otherwise — drawn again on every retry, which is how a
    /// non-sticky HAT client stays available under partition (§4.1).
    Replica,
    /// The key's designated master replica, following shard handoffs.
    Master,
    /// The key's master by ring position, ignoring shard handoffs (the
    /// client-side counterpart of [`ProtocolEngine::pins_shards`]).
    RingMaster,
}

/// What a [`ClientProtocol`] hook asks the core to do next.
#[derive(Debug)]
pub enum Step {
    /// Nothing: requests are in flight, or the operation completed.
    Continue,
    /// The item read of `key` resolved to `record`.
    Read {
        /// Key read.
        key: Key,
        /// The version to observe.
        record: SharedRecord,
        /// When the read was issued.
        issued: SimTime,
    },
    /// A one-shot multi-key read resolved: one read per entry of `keys`
    /// (in order) is recorded from `found`, `⊥` where a key is absent.
    ReadMany {
        /// Keys in request order.
        keys: Vec<Key>,
        /// Versions found.
        found: BTreeMap<Key, SharedRecord>,
        /// When the batch was issued.
        issued: SimTime,
    },
    /// The transaction is over.
    Finish(TxnOutcome),
}

impl Step {
    /// The read of `key` resolved to `found` (`None`: the initial `⊥`).
    pub fn read(key: Key, found: Option<SharedRecord>, issued: SimTime) -> Step {
        Step::Read {
            key,
            record: found.unwrap_or_else(crate::client::bottom),
            issued,
        }
    }
}

/// The client half of a protocol: the decisions of §5.1 / Appendix B's
/// client procedures, driven by the session core through these hooks.
/// Per-transaction protocol state lives in the implementing type and is
/// reset in [`ClientProtocol::begin`].
///
/// The defaults are the Read Committed client — route to any replica,
/// one-round reads, writes buffered until a one-phase commit flush — so
/// a level overrides only what it does differently.
pub trait ClientProtocol: Send + std::fmt::Debug {
    /// Where requests for a key go. Fixed for the client's lifetime.
    fn route(&self) -> Route {
        Route::Replica
    }

    /// A transaction begins: reset per-transaction state.
    fn begin(&mut self) {}

    /// Per-key lower bounds this transaction's reads carry (MAV's
    /// `required` vector). Causal sessions fold it into their
    /// cross-transaction floor at commit.
    fn required(&self) -> Option<&BTreeMap<Key, Timestamp>> {
        None
    }

    /// Starts an item read that missed the local buffer and cache.
    fn read(&mut self, core: &mut ClientCore, ctx: &mut Ctx<'_, Msg>, key: Key) {
        let floor = self.required().and_then(|r| r.get(&key).copied());
        let target = core.pick_replica(ctx, &key);
        core.send_get(ctx, key, target, floor.unwrap_or(Timestamp::INITIAL));
    }

    /// Starts a one-shot multi-key read if the protocol has one; `Err`
    /// hands the keys back to be read one at a time.
    ///
    /// A closed-loop plan sends one batch: it offers its writes to
    /// [`ClientProtocol::write_many`] first and its reads here only if
    /// that refused. So at most one of the two accepts for any engine;
    /// one accepting both would batch a plan's writes and read the plan
    /// one key at a time.
    fn read_many(
        &mut self,
        core: &mut ClientCore,
        ctx: &mut Ctx<'_, Msg>,
        keys: Vec<Key>,
    ) -> Result<Step, Vec<Key>> {
        let _ = (core, ctx);
        Err(keys)
    }

    /// A `Get` for `key` was answered with `found`: complete the read,
    /// or repair it with a further round.
    fn on_value(
        &mut self,
        core: &mut ClientCore,
        ctx: &mut Ctx<'_, Msg>,
        done: Done,
        key: Key,
        found: Option<SharedRecord>,
    ) -> Step {
        let _ = (core, ctx);
        Step::read(key, found, done.issued)
    }

    /// Folds the metadata of a completed read into protocol state.
    fn fold_read(&mut self, core: &mut ClientCore, key: &Key, record: &Record) {
        let _ = (core, key, record);
    }

    /// Issues a write: send it now, buffer it, or lock first.
    fn write(&mut self, core: &mut ClientCore, ctx: &mut Ctx<'_, Msg>, key: Key, value: Bytes) {
        core.buffer_write(key, value);
        core.op_span(ctx.now(), hat_trace::OpKind::Put, true);
    }

    /// Sends a plan's write set as one round when the plan starts, if
    /// the protocol makes writes visible before commit: `writes` holds,
    /// in plan order, every write of each key whose first operation in
    /// the plan is a write, and each key's last value goes out. The plan
    /// then records each write as it reaches it, served locally. `Err`
    /// hands the writes back to be issued at operation time. At most one
    /// of this and [`ClientProtocol::read_many`] accepts.
    fn write_many(
        &mut self,
        core: &mut ClientCore,
        ctx: &mut Ctx<'_, Msg>,
        writes: Vec<(Key, Bytes)>,
    ) -> Result<Step, Vec<(Key, Bytes)>> {
        let _ = (core, ctx);
        Err(writes)
    }

    /// Starts commit.
    fn commit(&mut self, core: &mut ClientCore, ctx: &mut Ctx<'_, Msg>) -> Step {
        core.flush_writes(ctx, core.write_buffer().to_vec(), false, Placement::PerKey)
    }

    /// A commit-phase `Put` was acknowledged.
    fn on_acked(&mut self, core: &mut ClientCore, ctx: &mut Ctx<'_, Msg>, done: Done) -> Step {
        let _ = (ctx, done);
        if core.busy() {
            Step::Continue
        } else {
            Step::Finish(TxnOutcome::Committed)
        }
    }

    /// The engine answered this protocol's own request `done` with
    /// `reply` (the body of a [`Msg::EngineResp`]).
    fn on_reply(
        &mut self,
        core: &mut ClientCore,
        ctx: &mut Ctx<'_, Msg>,
        done: Done,
        reply: EngineMsg,
    ) -> Step {
        let _ = (core, ctx, done, reply);
        Step::Continue
    }

    /// The timer serving the deadlines this half armed with
    /// [`ClientCore::arm_deadline`] fired. It may be early — one timer
    /// serves every deadline — so compare yours with `ctx.now()`, and
    /// re-arm for one still ahead.
    fn on_timer(&mut self, core: &mut ClientCore, ctx: &mut Ctx<'_, Msg>) -> Step {
        let _ = (core, ctx);
        Step::Continue
    }

    /// The transaction is being aborted or abandoned: give back what it
    /// holds at servers.
    fn release(&mut self, core: &mut ClientCore, ctx: &mut Ctx<'_, Msg>) {
        let _ = (core, ctx);
    }
}

/// Shared last-writer-wins install + gossip, used by every engine whose
/// server-side write path is plain LWW (eventual, RC, master, 2PL).
///
/// Gossips when the version is new *or* its value changed (a
/// transaction's later write of the same key carries the same stamp but
/// supersedes the value).
pub fn lww_apply(view: &mut ServerView<'_>, key: Key, record: SharedRecord) {
    let changed = view
        .store
        .exact(&key, record.stamp)
        .map(|prior| prior.value != record.value)
        .unwrap_or(true);
    // A WAL-backed store can fail a put. It has then not applied the
    // write either, and reports the failure at the durability barrier,
    // which lets no acknowledgement out — so there is nothing to gossip.
    if view.store.put(key.clone(), record.clone()).is_err() {
        return;
    }
    if changed {
        view.repl.push(key, record);
    }
}

/// Both halves of one engine.
pub type EnginePair = (Box<dyn ProtocolEngine>, Box<dyn ClientProtocol>);

/// Builds both halves of a built-in protocol kind. This registry is the
/// single place a new engine is wired up; custom engines can instead be
/// injected through [`crate::DeploymentBuilder::engine_factory`].
pub fn engine_for(kind: ProtocolKind) -> EnginePair {
    use crate::protocol::{eventual, master, mav, ramp, read_committed, twopl};
    match kind {
        ProtocolKind::Eventual => (
            Box::new(eventual::EventualEngine),
            Box::new(eventual::EventualClient),
        ),
        ProtocolKind::ReadCommitted => (
            Box::new(read_committed::ReadCommittedEngine),
            Box::new(read_committed::ReadCommittedClient),
        ),
        ProtocolKind::Mav => (
            Box::<mav::MavEngine>::default(),
            Box::<mav::MavClient>::default(),
        ),
        ProtocolKind::RampFast => (
            Box::<ramp::RampFastEngine>::default(),
            Box::<ramp::RampFastClient>::default(),
        ),
        ProtocolKind::RampSmall => (
            Box::<ramp::RampSmallEngine>::default(),
            Box::<ramp::RampSmallClient>::default(),
        ),
        ProtocolKind::Master => (
            Box::new(master::MasterEngine),
            Box::new(master::MasterClient),
        ),
        ProtocolKind::TwoPhaseLocking => (
            Box::<twopl::TwoPlEngine>::default(),
            Box::<twopl::TwoPlClient>::default(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ramp::VersionReq;

    fn key(s: &str) -> Key {
        Key::from(s.to_owned())
    }

    /// The wire accounting of every engine message, pinned: tracing
    /// (`msg.per_txn`, `msg.bytes_per_txn`, per-layer attribution by
    /// label) reads these, so a change of message shape must leave them
    /// exactly as they are. Each body counts its envelope's fields, and
    /// the envelope reports its body's figures.
    #[test]
    fn engine_messages_keep_their_labels_and_sizes() {
        let (txn, op, ts) = (Timestamp::new(7, 1), 3, Timestamp::new(9, 2));
        let record: SharedRecord = Record::new(ts, Bytes::from("val")).into();
        let cases: [(EngineMsg, &str, u64); 15] = [
            (
                EngineMsg::Ramp(RampMsg::GetTs { key: key("key") }),
                "GetTs",
                19,
            ),
            (
                EngineMsg::Ramp(RampMsg::GetVersion {
                    key: key("key"),
                    req: VersionReq::Exact(ts),
                }),
                "GetVersion",
                31,
            ),
            (
                EngineMsg::Ramp(RampMsg::GetVersion {
                    key: key("key"),
                    req: VersionReq::Among(vec![ts, txn]),
                }),
                "GetVersion",
                43,
            ),
            (
                EngineMsg::Ramp(RampMsg::CommitBatch {
                    ts,
                    marks: vec![(0, key("key")), (1, key("k2"))].into(),
                }),
                "CommitBatch",
                37,
            ),
            (
                EngineMsg::Lock(LockMsg::Lock {
                    key: key("key"),
                    exclusive: true,
                }),
                "Lock",
                20,
            ),
            (
                EngineMsg::Lock(LockMsg::Unlock {
                    keys: vec![key("key"), key("k2")],
                }),
                "Unlock",
                25,
            ),
            (
                EngineMsg::Lock(LockMsg::LockCheck { key: key("key") }),
                "LockCheck",
                19,
            ),
            (EngineMsg::Ramp(RampMsg::GetTsResp { ts }), "GetTsResp", 28),
            (
                EngineMsg::Ramp(RampMsg::GetVersionResp {
                    found: Some(record),
                }),
                "GetVersionResp",
                35,
            ),
            (
                EngineMsg::Ramp(RampMsg::GetVersionResp { found: None }),
                "GetVersionResp",
                16,
            ),
            (
                EngineMsg::Ramp(RampMsg::CommitBatchResp { ops: vec![0, 1] }),
                "CommitBatchResp",
                20,
            ),
            (
                EngineMsg::Lock(LockMsg::LockResp { floor: ts }),
                "LockResp",
                28,
            ),
            (
                EngineMsg::Lock(LockMsg::LockCheckResp { ok: true }),
                "LockCheckResp",
                17,
            ),
            (
                EngineMsg::Mav(MavMsg::Notify { key: key("key") }),
                "Notify",
                19,
            ),
            (
                EngineMsg::Mav(MavMsg::NotifySummary {
                    acks: vec![(4, key("key")), (5, key("k2"))],
                }),
                "NotifySummary",
                33,
            ),
        ];
        for (body, label, bytes) in cases {
            assert_eq!(body.label(), label, "{body:?}");
            assert_eq!(body.approx_bytes(), bytes, "{body:?}");
            for msg in [
                Msg::EngineReq {
                    txn,
                    op,
                    body: body.clone(),
                },
                Msg::EngineResp {
                    txn,
                    op,
                    body: body.clone(),
                },
                Msg::Engine {
                    txn,
                    body: body.clone(),
                },
            ] {
                assert_eq!((msg.label(), msg.approx_bytes()), (label, bytes));
            }
        }
    }

    /// A reply answers only its own request kind. RAMP's second round
    /// reuses its first round's op id, so a late round-1 answer must not
    /// pass for the version fetch. Only a first round may follow a shard
    /// redirect.
    #[test]
    fn replies_answer_only_their_request_kind() {
        let ts = Timestamp::new(1, 1);
        let get_ts = EngineMsg::Ramp(RampMsg::GetTs { key: key("x") });
        let fetch = EngineMsg::Ramp(RampMsg::GetVersion {
            key: key("x"),
            req: VersionReq::Exact(ts),
        });
        let version = EngineMsg::Ramp(RampMsg::GetVersionResp { found: None });
        let stamp = EngineMsg::Ramp(RampMsg::GetTsResp { ts });
        assert!(version.answers(&fetch) && stamp.answers(&get_ts));
        assert!(!stamp.answers(&fetch), "a late round-1 answer is dropped");
        assert!(!version.answers(&get_ts));
        let lock = EngineMsg::Lock(LockMsg::Lock {
            key: key("x"),
            exclusive: false,
        });
        let check = EngineMsg::Lock(LockMsg::LockCheck { key: key("x") });
        let granted = EngineMsg::Lock(LockMsg::LockResp { floor: ts });
        assert!(granted.answers(&lock) && !granted.answers(&check));
        assert!(!stamp.answers(&lock), "no reply crosses families");
        assert!(get_ts.may_redirect() && !fetch.may_redirect() && !lock.may_redirect());
        assert_eq!(lock.key(), Some(&key("x")));
    }
}
